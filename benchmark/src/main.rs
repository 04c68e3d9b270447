//! The repository benchmark: four seeded workloads over the T Series
//! simulator, end-to-end metrics from untraced runs, per-layer metrics from
//! a traced run.
//!
//! ```text
//! cargo run --release --manifest-path benchmark/Cargo.toml -- \
//!     --workload kernel_batch --seed 1 --seconds 30 --trace 0
//! ```
//!
//! `--workload` is one of `kernel_batch`, `wide_allreduce`,
//! `routed_permutation`, `service_day`, or `all`. The table lists every
//! metric with its unit and clock; the last line of standard output is one
//! JSON object: `correct`, `attempted`, `failed`, `metrics`. With
//! `--trace 1` the spans of the traced iterations are also written as a
//! Chrome trace-event file under `benchmark/out/`.

mod metrics;
mod micro;
mod probe;
mod workloads;

use std::time::Instant;

use metrics::{median, proc_status_mb, ratio, Checks, Def, Values, END_TO_END, PER_LAYER};
use probe::{chrome_json, self_times, Probe, SpanRec};
use workloads::{Scale, Workload};

/// Untraced iterations a measured run makes at least, however short
/// `--seconds` is: the host figures are medians over iterations.
const MIN_ITERATIONS: usize = 3;

struct Args {
    workloads: Vec<Workload>,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workloads: Vec::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let val = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("bad {what} {val:?}");
        match flag.as_str() {
            "--workload" if val == "all" => args.workloads = Workload::ALL.to_vec(),
            "--workload" => args.workloads = vec![Workload::parse(&val).ok_or(bad("workload"))?],
            "--seed" => args.seed = val.parse().map_err(|_| bad("seed"))?,
            "--seconds" => {
                args.seconds = val.parse().map_err(|_| bad("seconds"))?;
                if !(args.seconds >= 0.0 && args.seconds.is_finite()) {
                    return Err(bad("seconds"));
                }
            }
            "--trace" => {
                args.trace = match val.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("trace flag")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if args.workloads.is_empty() {
        return Err("--workload is required".into());
    }
    Ok(args)
}

/// One workload's results in one mode.
struct Report {
    workload: Workload,
    traced: bool,
    iterations: usize,
    values: Values,
    checks: Checks,
    /// Chrome trace-event JSON of the traced iterations.
    trace_json: Option<String>,
    /// Per-iteration host seconds behind the medians: (setup, run).
    samples: Vec<(f64, f64)>,
    /// Host seconds of each reference loop.
    ref_samples: Vec<f64>,
    /// Digest of the sim-clock outputs and the utilization report; equal
    /// across runs of one seed.
    digest: u64,
}

impl Report {
    /// The metrics this mode reports and the result line carries.
    fn defs(&self) -> Vec<&'static Def> {
        if self.traced {
            PER_LAYER.iter().collect()
        } else {
            END_TO_END.iter().filter(|d| d.gated).collect()
        }
    }

    fn table(&self) -> String {
        let mut s = format!(
            "== {} ({}, {} iterations, {} host cores) ==\n{:<36} {:>18}  {:<7} {}\n",
            self.workload.name(),
            if self.traced { "traced" } else { "untraced" },
            self.iterations,
            std::thread::available_parallelism().map_or(1, |n| n.get()),
            "metric",
            "value",
            "unit",
            "clock",
        );
        let defs = if self.traced { PER_LAYER } else { END_TO_END };
        for d in defs {
            let v = self
                .values
                .get(d.name)
                .map_or("n/a".to_string(), |v| format!("{v:.6}"));
            s.push_str(&format!(
                "{:<36} {:>18}  {:<7} {}\n",
                d.name,
                v,
                d.unit,
                d.clock.name()
            ));
        }
        s.push_str(&format!("sim digest: {:016x}\n", self.digest));
        if !self.samples.is_empty() {
            let list = |f: fn(&(f64, f64)) -> f64| {
                let v: Vec<String> = self
                    .samples
                    .iter()
                    .map(|x| format!("{:.3}", f(x)))
                    .collect();
                v.join(" ")
            };
            s.push_str(&format!("setup_s samples: {}\n", list(|x| x.0)));
            s.push_str(&format!("run_s samples:   {}\n", list(|x| x.1)));
            let refs: Vec<String> = self.ref_samples.iter().map(|x| format!("{x:.3}")).collect();
            s.push_str(&format!("ref_s samples:   {}\n", refs.join(" ")));
        }
        for n in &self.checks.notes {
            s.push_str(&format!("FAILED: {n}\n"));
        }
        s
    }
}

/// The result line: `correct`, `attempted`, `failed` and every metric as
/// `{"value", "unit"}`, under `prefix`.
fn result_json(reports: &[Report]) -> String {
    let (mut attempted, mut failed) = (0, 0);
    let mut fields = Vec::new();
    for r in reports {
        attempted += r.checks.attempted;
        failed += r.checks.failed;
        let prefix = if reports.len() > 1 {
            format!("{}.", r.workload.name())
        } else {
            String::new()
        };
        for d in r.defs() {
            let v = r.values.get(d.name).copied().unwrap_or(0.0);
            fields.push(format!(
                "\"{prefix}{}\": {{\"value\": {v}, \"unit\": \"{}\"}}",
                d.name, d.unit
            ));
        }
    }
    format!(
        "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        failed == 0 && attempted > 0,
        fields.join(", ")
    )
}

/// A non-finite metric is a defect of the benchmark or the program: count
/// it as a failed check and report 0.
fn sanitize(values: &mut Values, checks: &mut Checks) {
    for (name, v) in values.iter_mut() {
        checks.check(v.is_finite(), || format!("metric {name} is {v}"));
        if !v.is_finite() {
            *v = 0.0;
        }
    }
}

/// Every iteration of one seed must reproduce the first one's digest of
/// its sim-clock outputs and utilization report.
fn same_digest(first: &mut Option<u64>, digest: u64, checks: &mut Checks) {
    let want = *first.get_or_insert(digest);
    checks.check(digest == want, || {
        format!("digest {digest:016x} differs from the first iteration's {want:016x}")
    });
}

/// Reference loops for the gap after an iteration (or before the first):
/// at least one, and enough that all loops so far fill an eighth of the
/// workload's host time so far.
fn reference_gap(ref_total: &mut f64, run_total: f64) -> Vec<f64> {
    let mut gap = Vec::new();
    while gap.is_empty() || 8.0 * *ref_total < run_total {
        let s = micro::reference();
        *ref_total += s;
        gap.push(s);
    }
    gap
}

/// End-to-end metrics: untraced iterations for at least `seconds`, each
/// bracketed by [`micro::reference`] loops. Sim values come from the first
/// iteration; every later one must reproduce its digest exactly. Host
/// values are medians. `run_per_ref` is the median over iterations of each
/// run divided by the median of the reference loops right before and
/// after it: a shared host's speed drifts by 15–30% between runs minutes
/// apart and by as much between iterations seconds apart, which no in-run
/// statistic of wall time removes, but the loops around an iteration see
/// the same host it did. Over 10 seeds per workload at 30 s on a 2-core
/// host, `run_s` spread 10–18% (IQR/median) and `run_per_ref` 4.8–9.2%.
fn measured(w: Workload, seed: u64, seconds: f64, scale: &Scale, epoch: Instant) -> Report {
    let t = Instant::now();
    let (mut setups, mut runs) = (Vec::new(), Vec::new());
    let mut ref_total = 0.0;
    // `gaps[i]` ran just before iteration `i`; the last one after the last.
    let mut gaps = vec![reference_gap(&mut ref_total, 0.0)];
    let mut checks = Checks::default();
    let (mut sim, mut digest) = (None, None);
    while runs.len() < MIN_ITERATIONS || t.elapsed().as_secs_f64() < seconds {
        let probe = Probe::new(epoch, false);
        let out = w.iteration(seed, scale, &probe);
        setups.push(probe.setup_s());
        runs.push(probe.run_s());
        checks.absorb(out.checks);
        same_digest(&mut digest, out.digest, &mut checks);
        sim.get_or_insert(out.sim);
        gaps.push(reference_gap(&mut ref_total, runs.iter().sum()));
    }
    let per_ref: Vec<f64> = runs
        .iter()
        .enumerate()
        .map(|(i, run)| run / median(&[gaps[i].as_slice(), &gaps[i + 1]].concat()))
        .collect();
    let refs = gaps.concat();
    let mut values: Values = sim
        .expect("at least one iteration ran")
        .into_iter()
        .filter(|(k, _)| END_TO_END.iter().any(|d| d.name == *k))
        .collect();
    values.insert("setup_s", median(&setups));
    values.insert("run_s", median(&runs));
    values.insert("ref_s", median(&refs));
    values.insert("run_per_ref", median(&per_ref));
    let iterations = runs.len();
    values.insert("peak_rss_mb", proc_status_mb("VmHWM:"));
    sanitize(&mut values, &mut checks);
    values.insert(
        "error_rate",
        ratio(checks.failed as f64, checks.attempted as f64),
    );
    Report {
        workload: w,
        traced: false,
        iterations,
        values,
        checks,
        trace_json: None,
        samples: setups.into_iter().zip(runs).collect(),
        ref_samples: refs,
        digest: digest.unwrap_or(0),
    }
}

/// Per-layer host timings named after the calls they time: call
/// `kernels.matmul` feeds metric `kernels.matmul_s`, as a mean per call.
fn call_times(probe: &Probe) -> Values {
    probe
        .host_means()
        .into_iter()
        .filter_map(|(call, s)| {
            let name = format!("{call}_s");
            PER_LAYER
                .iter()
                .find(|d| d.name == name)
                .map(|d| (d.name, s))
        })
        .collect()
}

/// Append `more` to `all`, rebasing parent indices.
fn append_spans(all: &mut Vec<SpanRec>, more: Vec<SpanRec>) {
    let base = all.len();
    all.extend(more.into_iter().map(|mut s| {
        s.parent = s.parent.map(|p| p + base);
        s
    }));
}

/// Per-layer metrics: in-run calibration, then untraced/traced iteration
/// pairs for at least `seconds`, then the workload's extra layer probes.
fn traced(w: Workload, seed: u64, seconds: f64, scale: &Scale, epoch: Instant) -> Report {
    let mut checks = Checks::default();
    let mut spans = Vec::new();
    let calib_probe = Probe::new(epoch, true);
    let cal = calib_probe.span("bench.calibrate", micro::calibrate);
    append_spans(&mut spans, calib_probe.take_spans());

    let t = Instant::now();
    let (mut plain_runs, mut traced_runs) = (Vec::new(), Vec::new());
    let mut seq_allreduce = Vec::new();
    let mut host_samples: Vec<Values> = Vec::new();
    let (mut last, mut digest) = (None, None);
    let mut build_rss_mb = None;
    let mut self_sum = std::collections::BTreeMap::<String, f64>::new();
    while traced_runs.is_empty() || t.elapsed().as_secs_f64() < seconds {
        let plain = Probe::new(epoch, false);
        let out = w.iteration(seed, scale, &plain);
        plain_runs.push(plain.run_s());
        seq_allreduce.push(plain.host_s("collectives.allreduce"));
        build_rss_mb.get_or_insert(out.build_rss_mb);
        checks.absorb(out.checks);
        same_digest(&mut digest, out.digest, &mut checks);

        let probe = Probe::new(epoch, true);
        let out = probe.span("bench.iteration", || w.iteration(seed, scale, &probe));
        same_digest(&mut digest, out.digest, &mut checks);
        traced_runs.push(probe.run_s());
        let mut host = out.host;
        host.extend(call_times(&probe));
        host_samples.push(host);
        let iteration_spans = probe.take_spans();
        for (layer, s) in self_times(&iteration_spans) {
            *self_sum.entry(layer).or_insert(0.0) += s;
        }
        append_spans(&mut spans, iteration_spans);
        checks.absorb(out.checks);
        last = Some((out.sim, out.reference));
    }
    let (sim, reference) = last.expect("at least one traced iteration ran");
    let mut values = sim;
    // Host timings: medians over the traced iterations.
    for name in host_samples[0].keys() {
        let xs: Vec<f64> = host_samples
            .iter()
            .filter_map(|h| h.get(name).copied())
            .collect();
        values.insert(name, median(&xs));
    }
    let run_s = median(&traced_runs);
    let events = values.get("sim.events").copied().unwrap_or(0.0);
    let ev_per_s = ratio(events, run_s);
    values.insert("machine.build_rss_mb", build_rss_mb.unwrap_or(0.0));
    values.insert("sim.ev_per_s", ev_per_s);
    values.insert("sim.executor_ev_per_s", cal.executor_ev_per_s);
    values.insert("sim.channel_ev_per_s", cal.channel_ev_per_s);
    values.insert("sim.ev_ratio", ratio(ev_per_s, cal.executor_ev_per_s));
    values.insert("link.ev_per_s", cal.link_ev_per_s);
    values.insert(
        "link.cost_ratio",
        ratio(cal.executor_ev_per_s, cal.link_ev_per_s),
    );
    values.insert("metrics.handle_ns", cal.handle_ns);
    values.insert("metrics.legacy_ns", cal.legacy_ns);
    values.insert("bench.trace_overhead", ratio(run_s, median(&plain_runs)));
    let n = traced_runs.len() as f64;
    for (layer, s) in &self_sum {
        if let Some(d) = PER_LAYER
            .iter()
            .find(|d| d.name == format!("{layer}.self_s"))
        {
            values.insert(d.name, s / n);
        }
    }

    let extra = Probe::new(epoch, true);
    let (more, c) = match (w, &reference) {
        (Workload::WideAllreduce, Some(r)) => {
            workloads::parallel_probe(seed, scale.wide_dim, r, median(&seq_allreduce), &extra)
        }
        (Workload::ServiceDay, _) => (
            Values::new(),
            workloads::admission_probe(seed, scale.service_dim, scale.service_jobs, &extra),
        ),
        _ => (Values::new(), Checks::default()),
    };
    values.extend(more);
    values.extend(call_times(&extra));
    checks.absorb(c);
    append_spans(&mut spans, extra.take_spans());

    values.retain(|k, _| PER_LAYER.iter().any(|d| d.name == *k));
    for d in PER_LAYER {
        values.entry(d.name).or_insert(0.0);
    }
    sanitize(&mut values, &mut checks);
    Report {
        workload: w,
        traced: true,
        iterations: traced_runs.len(),
        values,
        checks,
        trace_json: Some(chrome_json(&spans, w.name())),
        samples: Vec::new(),
        ref_samples: Vec::new(),
        digest: digest.unwrap_or(0),
    }
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!(
                "{e}\nusage: benchmark --workload <name|all> --seed <n> --seconds <s> --trace <0|1>"
            );
            std::process::exit(2);
        }
    };
    let epoch = Instant::now();
    let mut reports = Vec::new();
    for &w in &args.workloads {
        let r = if args.trace {
            traced(w, args.seed, args.seconds, &Scale::FULL, epoch)
        } else {
            measured(w, args.seed, args.seconds, &Scale::FULL, epoch)
        };
        print!("{}", r.table());
        if let Some(json) = &r.trace_json {
            let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
            let path = dir.join(format!("{}-seed{}.trace.json", w.name(), args.seed));
            match std::fs::create_dir_all(&dir).and_then(|_| std::fs::write(&path, json)) {
                Ok(()) => println!("spans: {}", path.display()),
                Err(e) => eprintln!("could not write {}: {e}", path.display()),
            }
        }
        reports.push(r);
    }
    println!("{}", result_json(&reports));
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every metric the benchmark can print, at dims 4–6: each has a unit
    /// and a clock, every gated end-to-end metric is non-zero on every
    /// workload, every per-layer metric is reported, all checks pass, and
    /// `BENCHMARK.json` declares the same names and units.
    #[test]
    fn tiny_dims_report_every_metric_with_unit_and_clock() {
        let mut names = std::collections::BTreeSet::new();
        for d in END_TO_END.iter().chain(PER_LAYER) {
            assert!(!d.unit.is_empty(), "{} has no unit", d.name);
            assert!(["sim", "host"].contains(&d.clock.name()));
            assert!(names.insert(d.name), "{} defined twice", d.name);
        }
        let epoch = Instant::now();
        for w in Workload::ALL {
            for r in [
                measured(w, 7, 0.0, &Scale::TINY, epoch),
                traced(w, 7, 0.0, &Scale::TINY, epoch),
            ] {
                assert_eq!(r.checks.failed, 0, "{}: {:?}", w.name(), r.checks.notes);
                assert!(r.checks.attempted > 0);
                for name in r.values.keys() {
                    assert!(metrics::def(name).is_some(), "{name} has no unit or clock");
                }
                for d in r.defs() {
                    let v = r.values.get(d.name);
                    assert!(v.is_some(), "{}: {} missing", w.name(), d.name);
                    if !r.traced {
                        assert!(*v.unwrap() > 0.0, "{}: {} is 0", w.name(), d.name);
                    }
                }
            }
        }
        let spec =
            std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
                .expect("BENCHMARK.json at the repository root");
        for d in END_TO_END.iter().filter(|d| d.gated).chain(PER_LAYER) {
            let entry = format!("\"name\": \"{}\", \"unit\": \"{}\"", d.name, d.unit);
            assert!(spec.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
    }

    #[test]
    fn same_seed_same_inputs_and_sim_values() {
        let epoch = Instant::now();
        let a = measured(Workload::RoutedPermutation, 3, 0.0, &Scale::TINY, epoch);
        let b = measured(Workload::RoutedPermutation, 3, 0.0, &Scale::TINY, epoch);
        for d in END_TO_END.iter().filter(|d| d.clock == metrics::Clock::Sim) {
            assert_eq!(a.values.get(d.name), b.values.get(d.name), "{}", d.name);
        }
        assert_eq!(a.digest, b.digest, "sim outputs or report differ");
    }
}
