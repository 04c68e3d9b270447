//! # ts-bench — the experiment harness
//!
//! One function per experiment in DESIGN.md's index (E1–E15). Each runs the
//! simulator, prints a paper-versus-measured table, and returns the headline
//! measurements so Criterion benches and tests can assert on them.
//!
//! Run everything: `cargo run -p ts-bench --bin repro -- all`
//! Run one:        `cargo run -p ts-bench --bin repro -- e5`

#![deny(missing_docs)]

pub mod experiments;
pub mod harness;
pub mod report;
pub mod sweep;

pub use experiments::*;
pub use harness::Bench;
pub use report::{Clock, Row};
pub use sweep::parallel_sweep;

/// Pretty-print a paper-vs-measured row.
pub fn row(label: &str, paper: &str, measured: &str) {
    println!("  {label:<46} {paper:>18} {measured:>18}");
}

/// Print a table header.
pub fn header(title: &str) {
    println!("\n=== {title} ===");
    println!("  {:<46} {:>18} {:>18}", "quantity", "paper", "measured");
}
