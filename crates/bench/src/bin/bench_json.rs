//! Run the benchmark sections, write every row to `BENCH.json`, and gate
//! the run against a baseline.
//!
//! Each section runs one fixed configuration (see `run_section`) and
//! returns rows ([`ts_bench::Row`]). With `--baseline PATH` the run fails
//! (exit 2) when the gate finds a difference: sim rows must match exactly,
//! ratio rows may drop at most 20%, host rows are informational. A baseline
//! that cannot be parsed, or lacks rows for a section that ran, fails too.
//! The in-run invariants (flat snapshot time, zero fault-free transport
//! counters, a counter handle no slower than the legacy map) fail the run
//! with or without a baseline.
//!
//! ```text
//! cargo run --release -p ts-bench                      # every section -> BENCH.json
//! cargo run --release -p ts-bench --bin bench_json -- \
//!     --sections kernels,collectives,sched,counter,checkpoint,service,scale \
//!     --baseline BENCH.json --out BENCH_ci.json --trace .
//! ```

use std::path::PathBuf;
use std::process::ExitCode;

use t_series_core::parallel::ShardRound;
use t_series_core::{Machine, MachineCfg};
use ts_bench::report::{
    checkpoint_probe, collective_probe, counter_probe, gate, invariants, parallel_probe, parse,
    scale_probe, sched_probe, service_probe, to_json,
};
use ts_bench::Row;
use ts_sim::Time;

/// Every section, in the order a run without `--sections` takes them.
const ALL: &str = "kernels,collectives,sched,counter,checkpoint,service,scale,parallel";

fn usage() -> ! {
    eprintln!(
        "usage: bench_json [--sections LIST] [--out PATH] [--baseline PATH] [--trace DIR]\n\
         \n\
         --sections LIST  comma-separated sections to run (default: all of\n\
         \x20                {})\n\
         --out PATH       where to write the rows (default BENCH.json)\n\
         --baseline PATH  fail (exit 2) unless every row of the sections that ran\n\
         \x20                matches this file: sim rows exactly, ratio rows within 20%\n\
         --trace DIR      write DIR/overlap_trace.json (a traced matmul) and, with\n\
         \x20                the parallel section, DIR/parallel_rounds_trace.json",
        ALL
    );
    std::process::exit(64);
}

/// Run one section's fixed configuration. The parallel section leaves the
/// lockstep rounds of its largest run in `rounds`.
fn run_section(name: &str, rounds: &mut Vec<ShardRound>) -> Vec<Row> {
    let mut rows = Vec::new();
    match name {
        // The E11 sweep: MFLOPS against the 16 MFLOPS/node peak.
        "kernels" => rows = ts_bench::e11_kernel_scaling(),
        // Latencies on a 3-cube, plus that fault-free run's transport counters.
        "collectives" => rows = collective_probe(3),
        // The space-sharing batch under FCFS and backfill.
        "sched" => rows = sched_probe(),
        // The metrics hot path: registry handle vs legacy map.
        "counter" => rows = counter_probe(5_000_000, 5),
        // Snapshots on the 8-row probe memory at dims 4..=10, and at the
        // paper's full memory on dim 3 (its ~15 s figure).
        "checkpoint" => {
            for dim in 4..=10 {
                rows.extend(checkpoint_probe(dim, false));
            }
            rows.extend(checkpoint_probe(3, true));
        }
        // The open-arrival envelope at dims 6 and 8, a 1M-job stream at
        // dim 10, and a kernel mix on a live dim-4 machine.
        "service" => {
            for dim in [6, 8] {
                for load in [0.5, 0.8, 0.95] {
                    rows.extend(service_probe(dim, 100_000, load, false));
                }
            }
            rows.extend(service_probe(10, 1_000_000, 0.85, false));
            rows.extend(service_probe(4, 4_000, 0.7, true));
        }
        // Simulator throughput: the dim-10 batch and the dim-12 allreduce.
        "scale" => {
            rows.extend(scale_probe(10, true, 9));
            rows.extend(scale_probe(12, false, 9));
        }
        // The sharded executor at dims 12 and 14; the dim-14 4-shard run
        // leaves its lockstep rounds for the trace.
        "parallel" => {
            rows.extend(parallel_probe(12, 7, false).0);
            let (big, big_rounds) = parallel_probe(14, 3, true);
            rows.extend(big);
            *rounds = big_rounds;
        }
        _ => usage(),
    }
    rows
}

fn main() -> ExitCode {
    let mut sections = ALL.to_string();
    let mut out = PathBuf::from("BENCH.json");
    let mut baseline_path: Option<PathBuf> = None;
    let mut trace: Option<PathBuf> = None;
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        let value = args.next().unwrap_or_else(|| usage());
        match a.as_str() {
            "--sections" => sections = value,
            "--out" => out = value.into(),
            "--baseline" => baseline_path = Some(value.into()),
            "--trace" => trace = Some(value.into()),
            _ => usage(),
        }
    }
    let sections: Vec<&str> = sections.split(',').map(str::trim).collect();
    if sections.iter().any(|s| !ALL.split(',').any(|a| a == *s)) {
        usage();
    }

    // Read the baseline first, so a bad one fails before minutes of probing.
    let read = |path: &PathBuf| {
        let text = std::fs::read_to_string(path).map_err(|e| e.to_string())?;
        parse(&text).map_err(|e| format!("{}: {e}", path.display()))
    };
    let baseline = match baseline_path.as_ref().map(read).transpose() {
        Ok(baseline) => baseline,
        Err(e) => {
            eprintln!("FAIL: baseline {e}");
            return ExitCode::from(2);
        }
    };

    let mut rows = Vec::new();
    let mut rounds = Vec::new();
    for section in &sections {
        println!("\n== {section}");
        let got = run_section(section, &mut rounds);
        for r in &got {
            println!(
                "  {:<58} {:<20} {:>18} {:<7} {}",
                r.key,
                r.metric,
                r.value,
                r.unit,
                r.clock.name()
            );
        }
        rows.extend(got);
    }
    if let Err(e) = std::fs::write(&out, to_json(&rows)) {
        eprintln!("FAIL: cannot write {}: {e}", out.display());
        return ExitCode::from(1);
    }
    println!("\nwrote {} ({} rows)", out.display(), rows.len());

    if let Some(dir) = &trace {
        let mut m = Machine::build(MachineCfg::cube(2));
        let tracer = m.enable_tracing();
        ts_kernels::matmul::distributed_matmul(&mut m, 16, 42);
        let overlap = ts_sim::write_trace(&tracer, &dir.join("overlap_trace.json"));
        let lockstep = if rounds.is_empty() {
            Ok(())
        } else {
            // One track per shard, one span per lockstep round, host time.
            let tracer = ts_sim::Tracer::new();
            for r in &rounds {
                let track = tracer.track(&format!("shard {}", r.shard));
                let start = Time(r.wall_start_ns * 1000);
                tracer.record_span(track, start, Time(r.wall_end_ns * 1000));
                tracer.counter(track, start, "virtual_ps", r.at_ps);
                tracer.counter(track, start, "events", r.events);
                tracer.counter(track, start, "envelopes", r.envelopes);
            }
            ts_sim::write_trace(&tracer, &dir.join("parallel_rounds_trace.json"))
        };
        if let Err(e) = overlap.and(lockstep) {
            eprintln!("FAIL: cannot write a trace into {}: {e}", dir.display());
            return ExitCode::from(1);
        }
        println!("wrote Perfetto traces into {}", dir.display());
    }

    let mut failures = invariants(&rows);
    if let Some(base) = &baseline {
        let cores = std::thread::available_parallelism().map_or(1, |n| n.get() as u32);
        let verdict = gate(&rows, base, cores);
        for line in &verdict.ungated {
            println!("  ungated: {line}");
        }
        if verdict.failures.is_empty() {
            println!("every gated row matches the baseline");
        }
        failures.extend(verdict.failures);
    }
    if failures.is_empty() {
        return ExitCode::SUCCESS;
    }
    eprintln!("FAIL:");
    for line in &failures {
        eprintln!("  {line}");
    }
    ExitCode::from(2)
}
