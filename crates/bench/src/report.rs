//! Machine-readable benchmark rows (`BENCH.json`) and the one gate over them.
//!
//! Every probe returns [`Row`]s. A row is one measured value, named by its
//! section, by a key that spells out every input that determines it, and by
//! its metric. Its [`Clock`] says how [`gate`] compares it with a baseline:
//! simulated values must match bit for bit, in-run host ratios may not drop
//! more than [`RATIO_FLOOR`], raw host figures are never gated.
//!
//! The document is line-oriented, one row object per line, and values are
//! written with `{:?}`, Rust's shortest form that parses back to the same
//! `f64`. So [`parse`] recovers every row exactly with plain string
//! scanning (the workspace takes no external dependencies, so no serde).

use std::cell::{Cell, RefCell};
use std::collections::{BTreeMap, BTreeSet};
use std::fmt;
use std::rc::Rc;
use std::time::Instant;

use t_series_core::checkpoint::{CheckpointStore, SnapshotMode};
use t_series_core::parallel::{run_parallel, ParallelCfg, ShardRound};
use t_series_core::{collectives, Machine, MachineCfg, NODE_PEAK_MFLOPS};
use ts_fpu::Sf64;
use ts_kernels::KernelStats;
use ts_node::CombineOp;
use ts_sched::{
    JobKernel, JobSpec, Policy, Scheduler, ServiceCfg, ServiceReport, ServiceScheduler,
};
use ts_sim::{Dur, MetricsRegistry, Sim};
use ts_workload::{Dist, Trace, TraceGen};

/// Schema tag on the first line of every document [`to_json`] writes.
pub const SCHEMA: &str = "ts-bench/2";

/// How far a [`Clock::Ratio`] row may fall below its baseline before
/// [`gate`] fails it.
pub const RATIO_FLOOR: f64 = 0.20;

/// The clock a row was measured on, which decides how [`gate`] treats it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Clock {
    /// Simulated time or a deterministic count: must match the baseline
    /// bit for bit, since drift in a deterministic model is never noise.
    Sim,
    /// A host-time ratio measured inside one run, higher is better: fails
    /// if it drops more than [`RATIO_FLOOR`] below the baseline.
    Ratio,
    /// Raw host time or throughput: recorded, never gated (it measures the
    /// host as much as the code).
    Host,
}

impl Clock {
    /// The name the JSON document uses: `sim`, `ratio` or `host`.
    pub fn name(self) -> &'static str {
        match self {
            Clock::Sim => "sim",
            Clock::Ratio => "ratio",
            Clock::Host => "host",
        }
    }
}

/// One measured value.
#[derive(Debug, Clone, PartialEq)]
pub struct Row {
    /// Probe that produced the row (`kernels`, `scale`, ...).
    pub section: String,
    /// Every input that determines the value, e.g.
    /// `dim=8,workload=synthetic,load=0.80,jobs=100000`.
    pub key: String,
    /// What was measured (`mflops`, `full_s`, ...).
    pub metric: String,
    /// The measurement.
    pub value: f64,
    /// Unit of `value`.
    pub unit: String,
    /// Clock the value was measured on.
    pub clock: Clock,
}

impl Row {
    /// The row's identity: rows match across runs only if all three agree.
    fn id(&self) -> String {
        format!("{} [{}] {}", self.section, self.key, self.metric)
    }
}

/// The rows of one `(section, key)`: one per `(metric, value, unit, clock)`.
fn rows(section: &str, key: &str, metrics: &[(&str, f64, &str, Clock)]) -> Vec<Row> {
    metrics
        .iter()
        .map(|&(metric, value, unit, clock)| Row {
            section: section.to_string(),
            key: key.to_string(),
            metric: metric.to_string(),
            value,
            unit: unit.to_string(),
            clock,
        })
        .collect()
}

/// Render rows as a JSON document, one row per line.
///
/// # Panics
/// If a string field holds `"`, `\` or a newline (nothing is escaped), or
/// a value is not finite (JSON has no NaN or infinity).
pub fn to_json(rows: &[Row]) -> String {
    let mut s = format!("{{\"schema\": \"{SCHEMA}\", \"rows\": [\n");
    for (i, r) in rows.iter().enumerate() {
        for field in [&r.section, &r.key, &r.metric, &r.unit] {
            assert!(!field.contains(['"', '\\', '\n']), "unescapable {field:?}");
        }
        assert!(r.value.is_finite(), "{} is not JSON", r.id());
        s.push_str(&format!(
            "{{\"section\": \"{}\", \"key\": \"{}\", \"metric\": \"{}\", \"value\": {:?}, \
             \"unit\": \"{}\", \"clock\": \"{}\"}}{}\n",
            r.section,
            r.key,
            r.metric,
            r.value,
            r.unit,
            r.clock.name(),
            if i + 1 < rows.len() { "," } else { "" }
        ));
    }
    s.push_str("]}\n");
    s
}

/// Why [`parse`] rejected a document.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// 1-based line number.
    pub line: usize,
    /// What was wrong there.
    pub reason: &'static str,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "line {}: {}", self.line, self.reason)
    }
}

/// Parse a document written by [`to_json`]. Anything else, including a
/// truncated file, is an error: a baseline that cannot be read must fail
/// the gate, never pass it.
pub fn parse(json: &str) -> Result<Vec<Row>, ParseError> {
    let err = |line, reason| Err(ParseError { line, reason });
    let header = format!("{{\"schema\": \"{SCHEMA}\", \"rows\": [\n");
    let Some(body) = json.strip_prefix(&header) else {
        return err(1, "expected the ts-bench/2 header");
    };
    let Some(body) = body.strip_suffix("]}\n") else {
        return err(json.lines().count(), "truncated: no closing `]}` line");
    };
    let lines: Vec<&str> = body.lines().collect();
    let row = |(i, line): (usize, &&str)| {
        // Every row but the last ends with a comma.
        let line = if i + 1 == lines.len() {
            Some(*line)
        } else {
            line.strip_suffix(',')
        };
        line.and_then(parse_row).ok_or(ParseError {
            line: i + 2,
            reason: "malformed row",
        })
    };
    lines.iter().enumerate().map(row).collect()
}

fn parse_row(line: &str) -> Option<Row> {
    let body = line.strip_prefix("{\"section\": \"")?.strip_suffix("\"}")?;
    let (section, rest) = body.split_once("\", \"key\": \"")?;
    let (key, rest) = rest.split_once("\", \"metric\": \"")?;
    let (metric, rest) = rest.split_once("\", \"value\": ")?;
    let (value, rest) = rest.split_once(", \"unit\": \"")?;
    let (unit, clock) = rest.split_once("\", \"clock\": \"")?;
    Some(Row {
        section: section.to_string(),
        key: key.to_string(),
        metric: metric.to_string(),
        value: value.parse().ok().filter(|v: &f64| v.is_finite())?,
        unit: unit.to_string(),
        clock: [Clock::Sim, Clock::Ratio, Clock::Host]
            .into_iter()
            .find(|c| c.name() == clock)?,
    })
}

/// What [`gate`] found.
#[derive(Debug, Default)]
pub struct Verdict {
    /// Reasons the run fails; empty means it passes.
    pub failures: Vec<String>,
    /// Rows recorded but not gated: new in this run, or oversubscribed.
    pub ungated: Vec<String>,
}

/// Compare a run's rows with a baseline's, section by section.
///
/// Only sections that ran are compared. The run fails if the baseline has
/// no rows for such a section, if one of its rows is missing from the run,
/// if a row changed clock, if a [`Clock::Sim`] value differs in any bit,
/// or if a [`Clock::Ratio`] value fell more than [`RATIO_FLOOR`] below the
/// baseline. A ratio row whose key asks for more `shards=` than
/// `host_cores` measures oversubscription, not the code, so it is recorded
/// but not gated. A row only in the run is listed as new when its key is
/// new too, so adding a probe point does not fail CI; a row missing from
/// a key the baseline has means the baseline lost it, and fails.
/// Duplicate rows on either side fail.
pub fn gate(current: &[Row], baseline: &[Row], host_cores: u32) -> Verdict {
    let mut v = Verdict::default();
    let now = index(current, "this run", &mut v.failures);
    let base = index(baseline, "the baseline", &mut v.failures);
    let ran: BTreeSet<&str> = current.iter().map(|r| r.section.as_str()).collect();
    for s in &ran {
        if !baseline.iter().any(|r| r.section == *s) {
            v.failures.push(format!("the baseline has no `{s}` rows"));
        }
    }
    for (id, b) in base
        .iter()
        .filter(|(_, b)| ran.contains(b.section.as_str()))
    {
        let Some(r) = now.get(id) else {
            v.failures
                .push(format!("{id}: in the baseline, missing from this run"));
            continue;
        };
        let floor = b.value * (1.0 - RATIO_FLOOR);
        match (b.clock, r.clock) {
            (Clock::Sim, Clock::Sim) if r.value.to_bits() != b.value.to_bits() => {
                v.failures.push(format!(
                    "{id}: {:?} {} != baseline {:?} (sim rows must match exactly)",
                    r.value, r.unit, b.value
                ));
            }
            (Clock::Ratio, Clock::Ratio) if shards(&r.key) > host_cores => {
                v.ungated.push(format!(
                    "{id}: {:.3} (baseline {:.3}), not gated: {} shards > {host_cores} host cores",
                    r.value,
                    b.value,
                    shards(&r.key)
                ));
            }
            (Clock::Ratio, Clock::Ratio) if r.value < floor => {
                v.failures.push(format!(
                    "{id}: {:.3} < {floor:.3} (baseline {:.3} - {:.0}%)",
                    r.value,
                    b.value,
                    RATIO_FLOOR * 100.0
                ));
            }
            (was, is) if was != is => {
                v.failures.push(format!(
                    "{id}: clock changed from {} to {}",
                    was.name(),
                    is.name()
                ));
            }
            _ => {}
        }
    }
    for (id, r) in now.iter().filter(|(id, _)| !base.contains_key(*id)) {
        if baseline
            .iter()
            .any(|b| b.section == r.section && b.key == r.key)
        {
            v.failures
                .push(format!("{id}: the baseline has this key, not this row"));
        } else {
            v.ungated.push(format!("{id}: new, ungated"));
        }
    }
    v
}

/// Rows by identity; a second row with the same identity is a failure.
fn index<'a>(rows: &'a [Row], side: &str, failures: &mut Vec<String>) -> BTreeMap<String, &'a Row> {
    let mut map = BTreeMap::new();
    for r in rows {
        if map.insert(r.id(), r).is_some() {
            failures.push(format!("{}: duplicate row in {side}", r.id()));
        }
    }
    map
}

/// The `shards=` count in a key (1 when absent).
fn shards(key: &str) -> u32 {
    key.split(',')
        .find_map(|kv| kv.strip_prefix("shards=")?.parse().ok())
        .unwrap_or(1)
}

/// The in-run invariants, checked on whatever sections ran: small-memory
/// snapshot time flat within 10% across dims (the §III
/// configuration-independence claim), zero transport counters on the
/// fault-free collective probe, and the registry counter handle no slower
/// than 1.10× the legacy map. Returns one line per violation.
pub fn invariants(rows: &[Row]) -> Vec<String> {
    let mut bad = Vec::new();
    let snap: Vec<f64> = rows
        .iter()
        .filter(|r| r.section == "checkpoint" && r.metric == "full_s")
        .filter(|r| r.key.contains("mem=small-8row"))
        .map(|r| r.value)
        .collect();
    let (min, max) = snap.iter().fold((f64::INFINITY, 0.0f64), |(lo, hi), &s| {
        (lo.min(s), hi.max(s))
    });
    if max > min * 1.10 {
        bad.push(format!(
            "snapshot time is not configuration-independent: {min:.4} s .. {max:.4} s"
        ));
    }
    for r in rows.iter().filter(|r| r.key.contains("faults=none")) {
        if r.value != 0.0 {
            bad.push(format!("{}: {} on a fault-free run", r.id(), r.value));
        }
    }
    for r in rows.iter().filter(|r| r.metric == "legacy_over_handle") {
        if r.value < 1.0 / 1.10 {
            bad.push(format!(
                "{}: the counter handle is {:.2}x slower than the legacy map",
                r.id(),
                1.0 / r.value
            ));
        }
    }
    bad
}

fn median(mut xs: Vec<f64>) -> f64 {
    xs.sort_by(f64::total_cmp);
    xs[xs.len() / 2]
}

/// Run `f` `reps` times and take the median of each of its outputs.
fn medians<const N: usize>(reps: usize, mut f: impl FnMut() -> [f64; N]) -> [f64; N] {
    let runs: Vec<[f64; N]> = (0..reps).map(|_| f()).collect();
    std::array::from_fn(|i| median(runs.iter().map(|run| run[i]).collect()))
}

/// The rows of one kernel run: simulated seconds, MFLOPS, and efficiency
/// against the machine's nominal peak (`nodes × 16 MFLOPS`, the paper's §I
/// per-node figure). `inputs` names the problem: size, seed, memory.
pub fn kernel_rows(kernel: &str, nodes: u32, inputs: &str, stats: &KernelStats) -> Vec<Row> {
    use Clock::Sim;
    let peak = nodes as f64 * NODE_PEAK_MFLOPS;
    rows(
        "kernels",
        &format!("kernel={kernel},nodes={nodes},{inputs}"),
        &[
            ("elapsed_s", stats.elapsed.as_secs_f64(), "s", Sim),
            ("mflops", stats.mflops, "MFLOPS", Sim),
            ("efficiency", stats.mflops / peak, "frac", Sim),
        ],
    )
}

/// Run broadcast / allreduce / barrier on a full-memory `2^dim`-node cube
/// and merge the per-op latency histograms the collectives book into the
/// metrics registry (`node/{id}/collective/{op}_us`). The same fault-free
/// run's reliable-transport counters follow under key `faults=none`: no
/// impairment is ever queued, so a nonzero count means the protocol does
/// work on the healthy path, the overhead [`invariants`] rules out.
pub fn collective_probe(dim: u32) -> Vec<Row> {
    use Clock::Sim;
    let mut m = Machine::build(MachineCfg::cube(dim));
    let cube = m.cube;
    m.launch(move |ctx| async move {
        let payload = (ctx.id() == 0).then(|| vec![7u32; 64]);
        collectives::broadcast(&ctx, cube, 0, payload).await;
        let mine = vec![Sf64::from(ctx.id() as f64)];
        collectives::allreduce(&ctx, cube, CombineOp::Add, mine).await;
        collectives::barrier(&ctx, cube).await;
    });
    assert!(m.run().quiescent, "collective latency probe stalled");

    let mut out = Vec::new();
    for op in ["broadcast", "allreduce", "barrier"] {
        let (mut calls, mut weighted_us, mut p99) = (0u64, 0.0f64, 0u64);
        for id in 0..1u32 << dim {
            let h = m
                .registry()
                .scope(&format!("node/{id}"))
                .scope("collective")
                .histogram(&format!("{op}_us"));
            calls += h.total();
            weighted_us += h.mean() * h.total() as f64;
            p99 = p99.max(h.quantile_bound(0.99));
        }
        let mean_us = weighted_us / calls.max(1) as f64;
        out.extend(rows(
            "collectives",
            &format!("op={op},dim={dim},mem=full"),
            &[
                ("calls", calls as f64, "count", Sim),
                ("mean_us", mean_us, "us", Sim),
                ("p99_us_bound", p99 as f64, "us", Sim),
            ],
        ));
    }
    let met = m.metrics();
    let count = |k: &'static str| met.get(k) as f64;
    out.extend(rows(
        "collectives",
        &format!("dim={dim},faults=none"),
        &[
            ("retransmits", count("link.retransmits"), "count", Sim),
            ("crc_errors", count("link.crc_errors"), "count", Sim),
            ("escalations", count("link.escalations"), "count", Sim),
        ],
    ));
    out
}

/// Run one fixed mixed-width batch under each queue policy on a dim-2
/// machine and summarize the schedules. The machine is deliberately too
/// small to hold the whole batch at once, and a machine-wide job sits
/// behind a long narrow one, so the two policies diverge: FCFS leaves
/// the leftover subcube idle behind the stuck wide job, backfill fills
/// it. Everything runs on simulated time, so the rows are deterministic.
pub fn sched_probe() -> Vec<Row> {
    use Clock::Sim;
    let batch = || {
        let saxpy = |phases, sweeps| JobKernel::Saxpy { phases, sweeps };
        vec![
            JobSpec::new("long-narrow", 1, JobKernel::AllReduce { phases: 6 }),
            JobSpec::new("wide", 2, saxpy(2, 4)),
            JobSpec::new("short-narrow", 1, saxpy(1, 1)),
            JobSpec::new("solo", 0, JobKernel::AllReduce { phases: 2 }),
        ]
    };
    let mut out = Vec::new();
    for policy in [Policy::Fcfs, Policy::FcfsBackfill] {
        let mut m = Machine::build(MachineCfg::cube_small_mem(2, 8));
        let rep = Scheduler::new(policy).run_batch(&mut m, batch(), None);
        out.extend(rows(
            "sched",
            &format!("policy={policy:?},dim=2,batch=mixed4"),
            &[
                ("makespan_us", rep.makespan.as_us_f64(), "us", Sim),
                ("mean_wait_us", rep.mean_wait.as_us_f64(), "us", Sim),
                ("utilization", rep.utilization, "frac", Sim),
                ("preemptions", rep.preemptions as f64, "count", Sim),
                ("reallocations", rep.reallocations as f64, "count", Sim),
            ],
        ));
    }
    out
}

/// The string-keyed counter map the registry replaced: shared cells in a
/// `BTreeMap` behind a shared `RefCell`, one keyed lookup per update. The
/// counter probe keeps it as a fixed reference, so `legacy_over_handle`
/// compares the handle against the same yardstick as its baseline.
#[derive(Default)]
struct LegacyMap(Rc<RefCell<LegacyCells>>);

type LegacyCells = BTreeMap<&'static str, Rc<Cell<u64>>>;

impl LegacyMap {
    // Out of line, like the library method it stands in for.
    #[inline(never)]
    fn add(&self, key: &'static str, n: u64) {
        let mut map = self.0.borrow_mut();
        let c = map.entry(key).or_default();
        c.set(c.get() + n);
    }

    fn get(&self, key: &'static str) -> u64 {
        self.0.borrow().get(key).map_or(0, |c| c.get())
    }
}

/// Time increments through a pre-registered [`ts_sim::Counter`] handle and
/// through the string-keyed [`LegacyMap`], `iters` each, `reps` times. The
/// handle is the hot path: a plain `Cell` bump, no lookup, no allocation.
/// The gated row is the median of `legacy ns / handle ns` over the
/// repetitions; [`invariants`] fails a handle slower than the map.
pub fn counter_probe(iters: u64, reps: usize) -> Vec<Row> {
    let [handle_ns, legacy_ns, ratio] = medians(reps, || {
        let reg = MetricsRegistry::new();
        let handle = reg.counter("bench/hotpath");
        let t = Instant::now();
        for _ in 0..iters {
            std::hint::black_box(&handle).add(1);
        }
        let h = t.elapsed().as_nanos() as f64 / iters as f64;
        assert_eq!(reg.get_counter("bench/hotpath"), Some(iters));

        let legacy = LegacyMap::default();
        let t = Instant::now();
        for _ in 0..iters {
            std::hint::black_box(&legacy).add("bench.hotpath", 1);
        }
        let l = t.elapsed().as_nanos() as f64 / iters as f64;
        assert_eq!(legacy.get("bench.hotpath"), iters);
        [h, l, l / h.max(1e-3)]
    });
    rows(
        "counter",
        &format!("iters={iters}"),
        &[
            ("handle_ns", handle_ns, "ns", Clock::Host),
            ("legacy_ns", legacy_ns, "ns", Clock::Host),
            ("legacy_over_handle", ratio, "ratio", Clock::Ratio),
        ],
    )
}

/// Measure checkpoint I/O on a `2^dim`-node machine: a full snapshot
/// through the two-version store, then one word written per node and the
/// resulting dirty-row delta. `full_mem` selects the paper's full per-node
/// memory (the ~15 s snapshot of §III) over the 8-row probe memory.
pub fn checkpoint_probe(dim: u32, full_mem: bool) -> Vec<Row> {
    use Clock::Sim;
    let (cfg, mem) = if full_mem {
        (MachineCfg::cube(dim), "full")
    } else {
        (MachineCfg::cube_small_mem(dim, 8), "small-8row")
    };
    let mut m = Machine::build(cfg);
    let mut store = CheckpointStore::new(m.nodes.len());
    let full = m
        .checkpoint(&mut store, SnapshotMode::Full)
        .expect("full checkpoint probe");
    for node in &m.nodes {
        node.mem_mut().write_word(0, 0xD17).unwrap();
    }
    let delta = m
        .checkpoint(&mut store, SnapshotMode::Delta)
        .expect("delta checkpoint probe");
    rows(
        "checkpoint",
        &format!("dim={dim},mem={mem}"),
        &[
            ("full_s", full.duration.as_secs_f64(), "s", Sim),
            ("full_bytes", full.bytes_streamed as f64, "B", Sim),
            ("delta_s", delta.duration.as_secs_f64(), "s", Sim),
            ("delta_bytes", delta.bytes_streamed as f64, "B", Sim),
        ],
    )
}

/// Build the seeded service trace for one `(dim, load)` probe point: a
/// subcube-order mix capped below the fleet size, exponential 100 µs
/// service, 75% best-effort batch and 25% priority-3 urgent arrivals
/// with a 30× deadline slack. The arrival rate is sized from the mix's
/// own [`TraceGen::offered_load`] so the requested load is hit exactly.
fn service_trace(dim: u32, load: f64, n: usize, kernel_fraction: f64) -> Trace {
    // Mostly narrow jobs plus an occasional wide lattice job: the wide
    // tail is what makes large fleets queue (and the aging/EDF policies
    // fire) — without it a dim-10 fleet absorbs the stream with near-zero
    // waits and the envelope degenerates.
    let full = [
        (0u32, 0.1),
        (1, 0.48),
        (2, 0.25),
        (3, 0.1),
        (4, 0.04),
        (6, 0.02),
        (8, 0.01),
    ];
    let top = dim.saturating_sub(2).max(1);
    let sizes: Vec<(u32, f64)> = full.iter().copied().filter(|&(d, _)| d <= top).collect();
    let g = TraceGen::new(0x07C0_FFEE ^ ((dim as u64) << 32) ^ n as u64)
        .sizes(&sizes)
        .service(Dist::Exp { mean: 1e-4 })
        .classes("batch", 0.75, 0, None)
        .class("urgent", 0.25, 3, Some(30.0))
        .kernel_fraction(kernel_fraction);
    let unit = g
        .clone()
        .interarrival(Dist::Fixed(1.0))
        .offered_load(dim)
        .expect("probe mix has finite moments");
    g.interarrival(Dist::Exp { mean: unit / load }).generate(n)
}

/// One open-arrival service measurement: a seeded trace of `jobs`
/// arrivals at offered load `load` streamed through the admission
/// front-end ([`ServiceScheduler`]) on a `2^dim`-node fleet, under a
/// 500 µs aging period with 4 levels of boost.
///
/// With `kernel_mix` off this is the capacity path (admission + buddy
/// allocation only, millions of jobs). With it on, 60% of the jobs are
/// real SAXPY / all-reduce gangs served through [`Scheduler`] on a live
/// machine: orders of magnitude slower per job, so keep `jobs` in the low
/// thousands. Everything except `wall_s` is simulated and deterministic.
pub fn service_probe(dim: u32, jobs: usize, load: f64, kernel_mix: bool) -> Vec<Row> {
    use Clock::Sim;
    let (workload, fraction) = if kernel_mix {
        ("kernel-mix", 0.6)
    } else {
        ("synthetic", 0.0)
    };
    let trace = service_trace(dim, load, jobs, fraction);
    let svc = ServiceScheduler::new(ServiceCfg::new(dim).aging(Dur::us(500), 4));
    let mut machine = kernel_mix.then(|| Machine::build(MachineCfg::cube_small_mem(dim, 8)));
    let t = Instant::now();
    let rep: ServiceReport = match &mut machine {
        Some(m) => svc.run_on_machine(m, &trace).1,
        None => svc.run(&trace),
    };
    let wall_s = t.elapsed().as_secs_f64();
    rows(
        "service",
        &format!("dim={dim},workload={workload},load={load:.2},jobs={jobs}"),
        &[
            ("makespan_s", rep.makespan.as_secs_f64(), "s", Sim),
            ("mean_wait_us", rep.mean_wait.as_us_f64(), "us", Sim),
            ("p50_wait_us", rep.p50_wait.as_us_f64(), "us", Sim),
            ("p99_wait_us", rep.p99_wait.as_us_f64(), "us", Sim),
            ("mean_slowdown", rep.mean_slowdown, "ratio", Sim),
            (
                "p99_slowdown",
                rep.p99_slowdown_milli as f64 / 1e3,
                "ratio",
                Sim,
            ),
            ("jobs_per_s", rep.jobs_per_sec, "jobs/s", Sim),
            ("utilization", rep.utilization, "frac", Sim),
            ("promotions", rep.aging_promotions as f64, "count", Sim),
            ("edf_reorders", rep.edf_reorders as f64, "count", Sim),
            (
                "missed_deadlines",
                rep.missed_deadlines as f64,
                "count",
                Sim,
            ),
            ("wall_s", wall_s, "s", Clock::Host),
        ],
    )
}

/// Events per host second of the bare executor: 64 tasks × 10,000 sleeps,
/// no channels, links or machine. The scale ratios divide by this, so they
/// measure the code above the executor, not the host's clock speed.
pub fn executor_ev_per_s() -> f64 {
    let mut sim = Sim::new();
    for i in 0..64u64 {
        let h = sim.handle();
        sim.spawn(async move {
            for _ in 0..10_000u32 {
                h.sleep(Dur::ns(10 + i)).await;
            }
        });
    }
    let t = Instant::now();
    assert!(sim.run().quiescent);
    (64 * 10_000) as f64 / t.elapsed().as_secs_f64()
}

/// The allreduce every scale and parallel probe runs: four values per
/// node, summed machine-wide.
fn allreduce_values(id: u32) -> Vec<Sf64> {
    vec![
        Sf64::from(id as f64),
        Sf64::from(1.0 / (1.0 + id as f64)),
        Sf64::from((id % 17) as f64 * 0.5),
        Sf64::from(1.0),
    ]
}

/// Measure simulator throughput on a `2^dim`-node small-memory machine.
///
/// The workload is a machine-wide all-reduce, and with `full_batch` (needs
/// an even `dim`) a Cannon matmul sized two blocks per torus side plus a
/// distributed FFT of two points per node, all on one machine. Build time
/// is measured apart from run time. Each of `reps` repetitions also times
/// [`executor_ev_per_s`] just before and just after the run; the gated row
/// is the median of the per-rep `ev_per_s / executor_ev_per_s` (the mean
/// of the two), and the host rows are medians too.
pub fn scale_probe(dim: u32, full_batch: bool, reps: usize) -> Vec<Row> {
    assert!(
        !full_batch || dim.is_multiple_of(2),
        "the full scale batch includes Cannon matmul, which needs an even dim"
    );
    let mut sim = (0.0, 0);
    let [build_s, wall_s, ev_per_s, base, ratio] = medians(reps, || {
        let t0 = Instant::now();
        let mut m = Machine::build(MachineCfg::cube_small_mem(dim, 8));
        let build_s = t0.elapsed().as_secs_f64();
        let cube = m.cube;
        let before = executor_ev_per_s();
        let t1 = Instant::now();
        let handles = m.launch(move |ctx| async move {
            collectives::allreduce(&ctx, cube, CombineOp::Add, allreduce_values(ctx.id())).await
        });
        assert!(m.run().quiescent, "scale allreduce stalled at dim {dim}");
        for h in handles {
            h.try_take().expect("allreduce result missing");
        }
        if full_batch {
            let side = 1usize << (dim / 2);
            ts_kernels::matmul::distributed_matmul(&mut m, 2 * side, 42);
            let input: Vec<(f64, f64)> = (0..2 * cube.nodes() as usize)
                .map(|i| (i as f64 * 0.25, -(i as f64) * 0.125))
                .collect();
            ts_kernels::fft::distributed_fft(&mut m, &input);
        }
        let wall_s = t1.elapsed().as_secs_f64();
        let base = (before + executor_ev_per_s()) / 2.0;
        let events = m.profile().timer_events;
        sim = (m.now().as_secs_f64(), events);
        let ev_per_s = events as f64 / wall_s.max(1e-9);
        [build_s, wall_s, ev_per_s, base, ev_per_s / base]
    });
    let (sim_s, events) = sim;
    let workload = if full_batch {
        "allreduce+matmul+fft"
    } else {
        "allreduce"
    };
    rows(
        "scale",
        &format!("dim={dim},workload={workload},mem=small-8row"),
        &[
            ("sim_s", sim_s, "s", Clock::Sim),
            ("events", events as f64, "count", Clock::Sim),
            ("build_s", build_s, "s", Clock::Host),
            ("wall_s", wall_s, "s", Clock::Host),
            ("ev_per_s", ev_per_s, "ev/s", Clock::Host),
            ("executor_ev_per_s", base, "ev/s", Clock::Host),
            ("ev_per_s_vs_executor", ratio, "ratio", Clock::Ratio),
        ],
    )
}

/// The parallel-backend probe: the scale allreduce on the sharded executor
/// at 1, 2 and 4 shards, `reps` times. Dims 13 and up need the full
/// sublink budget ([`MachineCfg::cube_max`]). Wall time covers the whole
/// run, build included, since shards build their slices concurrently. The
/// gated rows are the median per-rep speedups `1-shard wall / n-shard
/// wall`. With `record`, also returns the lockstep rounds of the last
/// 4-shard run (for the Perfetto trace).
pub fn parallel_probe(dim: u32, reps: usize, record: bool) -> (Vec<Row>, Vec<ShardRound>) {
    const SHARDS: [u32; 3] = [1, 2, 4];
    let cube = t_series_core::Hypercube::new(dim);
    let mut sims = [(0.0, 0); 3];
    let (mut rounds, mut rep) = (Vec::new(), 0);
    let [w1, w2, w4, s2, s4] = medians(reps, || {
        rep += 1;
        let mut walls = [0.0; 3];
        for (i, shards) in SHARDS.into_iter().enumerate() {
            let cfg = if dim >= 13 {
                MachineCfg::cube_max(dim)
            } else {
                MachineCfg::cube_small_mem(dim, 8)
            };
            let mut pcfg = ParallelCfg::new(shards);
            pcfg.record_rounds = record && rep == reps && shards == 4;
            let t = Instant::now();
            let run = run_parallel(cfg, &pcfg, move |ctx| async move {
                collectives::allreduce(&ctx, cube, CombineOp::Add, allreduce_values(ctx.id())).await
            });
            walls[i] = t.elapsed().as_secs_f64();
            assert!(run.quiescent, "parallel allreduce stalled at dim {dim}");
            assert!(run.results.iter().all(Option::is_some), "result missing");
            sims[i] = (run.final_time.as_secs_f64(), run.events);
            if pcfg.record_rounds {
                rounds = run.rounds;
            }
        }
        let [t1, t2, t4] = walls;
        [t1, t2, t4, t1 / t2, t1 / t4]
    });
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let mut out = Vec::new();
    for (i, (wall_s, speedup)) in [(w1, None), (w2, Some(s2)), (w4, Some(s4))]
        .into_iter()
        .enumerate()
    {
        let (sim_s, events) = sims[i];
        let mut metrics = vec![
            ("sim_s", sim_s, "s", Clock::Sim),
            ("events", events as f64, "count", Clock::Sim),
            ("wall_s", wall_s, "s", Clock::Host),
            ("ev_per_s", events as f64 / wall_s, "ev/s", Clock::Host),
            ("host_cores", cores as f64, "count", Clock::Host),
        ];
        metrics.extend(speedup.map(|x| ("speedup_vs_1shard", x, "ratio", Clock::Ratio)));
        out.extend(rows(
            "parallel",
            &format!("dim={dim},shards={},workload=allreduce", SHARDS[i]),
            &metrics,
        ));
    }
    (out, rounds)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The value of the row whose key contains `key` and whose metric is
    /// `metric`.
    fn value(rows: &[Row], key: &str, metric: &str) -> f64 {
        rows.iter()
            .find(|r| r.key.contains(key) && r.metric == metric)
            .unwrap_or_else(|| panic!("no row [{key}] {metric}"))
            .value
    }

    fn row(section: &str, key: &str, metric: &str, value: f64, clock: Clock) -> Row {
        rows(section, key, &[(metric, value, "u", clock)]).remove(0)
    }

    #[test]
    fn rows_round_trip_exactly_and_gate_by_clock() {
        // Round trip: seeded random bit patterns plus the edge cases.
        let mut rng = ts_sim::Rng::new(0xBE7C);
        let mut values: Vec<f64> = (0..500)
            .map(|_| f64::from_bits(rng.next_u64()))
            .filter(|v| v.is_finite())
            .collect();
        values.extend([
            0.0,
            -0.0,
            0.1,
            5e-324,
            2.2e-308 / 3.0,
            1e300,
            f64::MAX,
            -f64::MIN_POSITIVE,
        ]);
        let many: Vec<Row> = values
            .iter()
            .enumerate()
            .map(|(i, &v)| row("kernels", &format!("i={i}"), "x", v, Clock::Sim))
            .collect();
        let back = parse(&to_json(&many)).expect("round trip");
        assert_eq!(back, many);
        // `==` holds for 0.0 vs -0.0; the gate needs every bit back.
        let bits = |rows: &[Row]| rows.iter().map(|r| r.value.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&back), bits(&many));

        // The gate. Each case edits the run's rows or the baseline's text,
        // then says whether the run still passes on a host with `cores`.
        let svc = "dim=6,workload=synthetic,load=0.95,jobs=100000";
        let base = vec![
            row("scale", "dim=10", "sim_s", 0.010398, Clock::Sim),
            row("scale", "dim=10", "ev_per_s_vs_executor", 0.5, Clock::Ratio),
            row("scale", "dim=10", "ev_per_s", 1e6, Clock::Host),
            row(
                "parallel",
                "dim=12,shards=4",
                "speedup_vs_1shard",
                1.5,
                Clock::Ratio,
            ),
            row("service", svc, "jobs_per_s", 156_563.0, Clock::Sim),
        ];
        type Case = (&'static str, u32, bool, fn(&mut Vec<Row>, &mut String));
        let cases: &[Case] = &[
            ("identical", 4, true, |_, _| {}),
            ("sim 1 ULP off", 4, false, |r, _| {
                r[0].value = r[0].value.next_up()
            }),
            ("ratio 10% low", 4, true, |r, _| r[1].value *= 0.9),
            ("ratio 30% low", 4, false, |r, _| r[1].value *= 0.7),
            ("host row halved", 4, true, |r, _| r[2].value *= 0.5),
            ("oversubscribed ratio 30% low", 2, true, |r, _| {
                r[3].value *= 0.7
            }),
            ("fitting ratio 30% low", 4, false, |r, _| r[3].value *= 0.7),
            ("row missing from the run", 4, false, |r, _| {
                drop(r.remove(1))
            }),
            ("new row", 4, true, |r, _| {
                r.push(Row {
                    key: "dim=12".into(),
                    ..r[0].clone()
                })
            }),
            ("baseline lost a row", 4, false, |_, b| {
                *b = b
                    .lines()
                    .filter(|l| !l.contains("\"ev_per_s\""))
                    .map(|l| l.to_string() + "\n")
                    .collect()
            }),
            ("duplicate row", 4, false, |r, _| r.push(r[0].clone())),
            ("truncated baseline", 4, false, |_, b| {
                b.truncate(b.len() - 30)
            }),
            ("baseline cut at a line end", 4, false, |_, b| {
                *b = b.replace("]}\n", "")
            }),
            ("malformed value", 4, false, |_, b| {
                *b = b.replace("0.010398", "0.01O398")
            }),
            ("no baseline rows", 4, false, |r, _| {
                r[0].section = "sched".into()
            }),
            // The key names every input: a 20k-job run never meets the
            // 100k-job row (162,203 vs 156,563 jobs/s would pass a 20%
            // gate), and no row meets the same key in another section.
            ("differs only in jobs", 4, false, |r, _| {
                r[4].key = r[4].key.replace("100", "20")
            }),
            ("other section", 4, false, |r, _| {
                r[0].section = "parallel".into()
            }),
        ];
        for (case, cores, passes, edit) in cases {
            let (mut current, mut baseline) = (base.clone(), to_json(&base));
            edit(&mut current, &mut baseline);
            let verdict = parse(&baseline).map(|b| gate(&current, &b, *cores));
            let ok = matches!(&verdict, Ok(v) if v.failures.is_empty());
            assert_eq!(ok, *passes, "{case}: {verdict:?}");
        }
    }

    #[test]
    fn counter_handle_is_not_slower_than_legacy_map() {
        let rows = counter_probe(2_000_000, 3);
        // The handle is a Cell bump, the legacy path a BTreeMap lookup
        // behind a RefCell; both loops go through `black_box`, so neither
        // folds away. Even on a noisy CI box the handle must not lose.
        assert!(invariants(&rows).is_empty(), "{rows:?}");
        assert!(value(&rows, "iters", "handle_ns") > 0.0, "{rows:?}");
    }

    #[test]
    fn fault_free_probe_shows_zero_protocol_overhead() {
        let rows = collective_probe(2);
        for metric in ["retransmits", "crc_errors", "escalations"] {
            assert_eq!(value(&rows, "faults=none", metric), 0.0, "{metric}");
        }
        assert!(invariants(&rows).is_empty());
    }

    #[test]
    fn checkpoint_probe_is_configuration_independent() {
        let rows: Vec<Row> = (3..=5).flat_map(|d| checkpoint_probe(d, false)).collect();
        assert!(invariants(&rows).is_empty(), "{rows:?}");
        for d in 3..=5 {
            let key = format!("dim={d},");
            assert!(
                value(&rows, &key, "delta_bytes") * 4.0 < value(&rows, &key, "full_bytes"),
                "a one-row delta must stream far fewer bytes than the full image"
            );
        }
    }

    #[test]
    fn service_capacity_probe_serves_a_small_stream() {
        let rows = service_probe(5, 5_000, 0.8, false);
        assert_eq!(rows[0].key, "dim=5,workload=synthetic,load=0.80,jobs=5000");
        let util = value(&rows, "", "utilization");
        assert!(util > 0.4 && util < 1.0, "{util}");
        assert!(value(&rows, "", "jobs_per_s") > 0.0);
        assert!(value(&rows, "", "p99_wait_us") >= value(&rows, "", "p50_wait_us"));
        // Deterministic: the same probe point reproduces every simulated
        // row exactly (only wall_s may differ).
        let again = service_probe(5, 5_000, 0.8, false);
        let sim = |rows: &[Row]| -> Vec<Row> {
            rows.iter()
                .filter(|r| r.clock == Clock::Sim)
                .cloned()
                .collect()
        };
        assert_eq!(sim(&rows), sim(&again));
    }

    #[test]
    fn scale_probe_runs_a_small_cube() {
        let rows = scale_probe(2, true, 1);
        assert_eq!(
            rows[0].key,
            "dim=2,workload=allreduce+matmul+fft,mem=small-8row"
        );
        assert!(value(&rows, "", "events") > 0.0);
        assert!(value(&rows, "", "sim_s") > 0.0);
        assert!(value(&rows, "", "ev_per_s_vs_executor") > 0.0);
    }

    #[test]
    fn sched_probe_shows_backfill_winning() {
        let rows = sched_probe();
        let (fcfs, backfill) = ("policy=Fcfs,", "policy=FcfsBackfill,");
        let makespan = |p| value(&rows, p, "makespan_us");
        assert!(
            makespan(backfill) < makespan(fcfs),
            "backfill {} us must beat FCFS {} us",
            makespan(backfill),
            makespan(fcfs)
        );
        assert!(value(&rows, backfill, "utilization") > value(&rows, fcfs, "utilization"));
    }

    #[test]
    fn collective_latency_probe_books_all_ops() {
        let rows = collective_probe(2);
        for op in ["broadcast", "allreduce", "barrier"] {
            let key = format!("op={op},");
            assert_eq!(
                value(&rows, &key, "calls"),
                4.0,
                "{op} should run once per node"
            );
            let mean = value(&rows, &key, "mean_us");
            assert!(mean > 0.0, "{op} mean should be positive");
            assert!(
                value(&rows, &key, "p99_us_bound") >= mean,
                "{op}: p99 bound below mean"
            );
        }
    }
}
