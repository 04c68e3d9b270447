//! Metric definitions and the small numeric helpers every workload shares.
//!
//! Every number the benchmark prints is declared here once, with its unit
//! and its clock: `sim` for modelled T Series quantities (simulated time,
//! and counts the deterministic model produces — these repeat exactly for a
//! given seed), `host` for what the simulator costs on the machine running
//! it (wall time, memory, events per host second).

use std::collections::BTreeMap;

use fps_t_series::sim::Histogram;

/// Which clock a metric is read from.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Clock {
    /// Modelled T Series time, or a count the deterministic model produces.
    Sim,
    /// Simulator host time or host resources.
    Host,
}

impl Clock {
    pub fn name(self) -> &'static str {
        match self {
            Clock::Sim => "sim",
            Clock::Host => "host",
        }
    }
}

/// One named metric.
#[derive(Clone, Copy, Debug)]
pub struct Def {
    pub name: &'static str,
    pub unit: &'static str,
    pub clock: Clock,
    /// End-to-end metrics only: present and non-zero on every workload, so
    /// it goes into the result line that gates regressions.
    pub gated: bool,
}

const fn e2e(name: &'static str, unit: &'static str, clock: Clock, gated: bool) -> Def {
    Def {
        name,
        unit,
        clock,
        gated,
    }
}

const fn layer(name: &'static str, unit: &'static str, clock: Clock) -> Def {
    Def {
        name,
        unit,
        clock,
        gated: false,
    }
}

use Clock::{Host, Sim};

/// End-to-end metrics, always from untraced runs. The ungated ones print in
/// the table but stay out of the result line: most exist on one workload
/// only (or can read 0), and on `kernel_batch` and `wide_allreduce` the
/// message latency comes from the link layer's log₂ histograms, so its p99
/// reads the same on most seeds and jumps a bucket on others. `run_s` and
/// `ref_s` follow the shared host's speed from minute to minute; the run
/// cost that gates is `run_per_ref`, each run over the reference loops
/// timed around it.
pub const END_TO_END: &[Def] = &[
    e2e("setup_s", "s", Host, true),
    e2e("run_s", "s", Host, false),
    e2e("ref_s", "s", Host, false),
    e2e("run_per_ref", "ratio", Host, true),
    e2e("peak_rss_mb", "MB", Host, true),
    e2e("sim_s", "s", Sim, true),
    e2e("sim_mflops", "MFLOPS", Sim, true),
    e2e("msg_latency_p99_sim_us", "us", Sim, false),
    e2e("snapshot_sim_s", "s", Sim, false),
    e2e("jobs_per_sim_s", "1/s", Sim, false),
    e2e("wait_p99_sim_us", "us", Sim, false),
    e2e("slowdown_p99", "ratio", Sim, false),
    e2e("deadline_miss_ratio", "ratio", Sim, false),
    e2e("error_rate", "ratio", Sim, false),
];

/// Per-layer metrics, from the traced run. A layer a workload does not
/// exercise reads 0.
pub const PER_LAYER: &[Def] = &[
    layer("machine.build_s", "s", Host),
    layer("machine.build_rss_mb", "MB", Host),
    layer("machine.self_s", "s", Host),
    layer("sim.events", "count", Sim),
    layer("sim.polls", "count", Sim),
    layer("sim.polls_per_event", "ratio", Sim),
    layer("sim.spawned", "count", Sim),
    layer("sim.max_timers", "count", Sim),
    layer("sim.ev_per_s", "ev/s", Host),
    layer("sim.executor_ev_per_s", "ev/s", Host),
    layer("sim.channel_ev_per_s", "ev/s", Host),
    layer("sim.ev_ratio", "ratio", Host),
    layer("metrics.handle_ns", "ns", Host),
    layer("metrics.legacy_ns", "ns", Host),
    layer("link.ev_per_s", "ev/s", Host),
    layer("link.cost_ratio", "ratio", Host),
    layer("link.words_sent", "count", Sim),
    layer("link.latency_p99_sim_ns", "ns", Sim),
    layer("link.retransmits", "count", Sim),
    layer("link.crc_errors", "count", Sim),
    layer("router.start_s", "s", Host),
    layer("router.forwards", "count", Sim),
    layer("router.hops_mean", "hops", Sim),
    layer("router.hops_max", "hops", Sim),
    layer("router.ev_per_s", "ev/s", Host),
    layer("router.self_s", "s", Host),
    layer("collectives.allreduce_s", "s", Host),
    layer("collectives.allreduce_calls", "count", Sim),
    layer("collectives.allreduce_mean_sim_us", "us", Sim),
    layer("collectives.allreduce_p99_sim_us", "us", Sim),
    layer("collectives.self_s", "s", Host),
    layer("kernels.matmul_s", "s", Host),
    layer("kernels.fft_s", "s", Host),
    layer("kernels.matmul_sim_s", "s", Sim),
    layer("kernels.fft_sim_s", "s", Sim),
    layer("kernels.matmul_mflops", "MFLOPS", Sim),
    layer("kernels.fft_mflops", "MFLOPS", Sim),
    layer("kernels.matmul_vec_util", "frac", Sim),
    layer("kernels.fft_vec_util", "frac", Sim),
    layer("kernels.bytes_sent", "B", Sim),
    layer("kernels.self_s", "s", Host),
    layer("node.vec_busy_frac", "frac", Sim),
    layer("node.cp_busy_frac", "frac", Sim),
    layer("checkpoint.full_s", "s", Host),
    layer("checkpoint.delta_s", "s", Host),
    layer("checkpoint.restore_s", "s", Host),
    layer("checkpoint.full_sim_s", "s", Sim),
    layer("checkpoint.delta_sim_s", "s", Sim),
    layer("checkpoint.restore_sim_s", "s", Sim),
    layer("checkpoint.bytes_streamed", "B", Sim),
    layer("checkpoint.delta_ratio", "ratio", Sim),
    layer("checkpoint.torn_aborts", "count", Sim),
    layer("checkpoint.self_s", "s", Host),
    layer("report.render_s", "s", Host),
    layer("report.bytes", "B", Sim),
    layer("report.self_s", "s", Host),
    layer("parallel.s1_total_s", "s", Host),
    layer("parallel.s2_total_s", "s", Host),
    layer("parallel.s2_build_s", "s", Host),
    layer("parallel.s2_run_s", "s", Host),
    layer("parallel.rounds", "count", Sim),
    layer("parallel.envelopes", "count", Sim),
    layer("parallel.speedup_2v1", "ratio", Host),
    layer("parallel.speedup_vs_seq", "ratio", Host),
    layer("sched.replay_s", "s", Host),
    layer("sched.admission_s", "s", Host),
    layer("sched.jobs", "count", Sim),
    layer("sched.preemptions", "count", Sim),
    layer("sched.reallocations", "count", Sim),
    layer("sched.promotions", "count", Sim),
    layer("sched.edf_reorders", "count", Sim),
    layer("sched.utilization", "frac", Sim),
    layer("sched.self_s", "s", Host),
    layer("workload.generate_s", "s", Host),
    layer("workload.jobs", "count", Sim),
    layer("workload.offered_load", "ratio", Sim),
    layer("workload.self_s", "s", Host),
    layer("bench.self_s", "s", Host),
    layer("bench.trace_overhead", "ratio", Host),
];

/// Look a metric up by name in either table.
#[cfg(test)]
pub fn def(name: &str) -> Option<&'static Def> {
    END_TO_END.iter().chain(PER_LAYER).find(|d| d.name == name)
}

/// Named values, ordered so digests and tables are stable.
pub type Values = BTreeMap<&'static str, f64>;

/// Output checks of one run: every checked operation counts once.
#[derive(Default, Debug)]
pub struct Checks {
    pub attempted: u64,
    pub failed: u64,
    /// The first few failures, for the error stream.
    pub notes: Vec<String>,
}

impl Checks {
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if self.notes.len() < 8 {
                self.notes.push(what());
            }
        }
    }

    pub fn absorb(&mut self, other: Checks) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        for n in other.notes {
            if self.notes.len() < 8 {
                self.notes.push(n);
            }
        }
    }
}

/// Median of a non-empty sample (mean of the middle two for even sizes).
pub fn median(xs: &[f64]) -> f64 {
    assert!(!xs.is_empty(), "median of an empty sample");
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Nearest-rank `q`-quantile of an unsorted sample (0 for an empty one).
pub fn quantile_exact(xs: &mut [u64], q: f64) -> u64 {
    if xs.is_empty() {
        return 0;
    }
    xs.sort_unstable();
    let rank = ((xs.len() as f64 * q).ceil() as usize).clamp(1, xs.len());
    xs[rank - 1]
}

/// FNV-1a over bytes, chained from `h`.
pub fn fnv(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

pub const FNV_SEED: u64 = 0xcbf2_9ce4_8422_2325;

/// FNV-1a over 32-bit words (a node memory image).
pub fn fnv_words(words: &[u32]) -> u64 {
    words.iter().fold(FNV_SEED, |h, w| fnv(h, &w.to_le_bytes()))
}

/// A `VmHWM`/`VmRSS`-style field of `/proc/self/status`, in MB.
pub fn proc_status_mb(field: &str) -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find(|l| l.starts_with(field))
        .and_then(|l| l.split_whitespace().nth(1))
        .and_then(|kb| kb.parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Several log₂ histograms (one per node) summed into one.
#[derive(Default)]
pub struct MergedHist {
    counts: Vec<u64>,
    total: u64,
    sum: f64,
}

impl MergedHist {
    pub fn add(&mut self, h: &Histogram) {
        let c = h.counts();
        if self.counts.len() < c.len() {
            self.counts.resize(c.len(), 0);
        }
        for (a, b) in self.counts.iter_mut().zip(&c) {
            *a += b;
        }
        self.total += h.total();
        self.sum += h.mean() * h.total() as f64;
    }

    pub fn total(&self) -> u64 {
        self.total
    }

    pub fn mean(&self) -> f64 {
        if self.total == 0 {
            0.0
        } else {
            self.sum / self.total as f64
        }
    }

    /// The same bucket-interpolated estimate as `Histogram::quantile`.
    pub fn quantile(&self, q: f64) -> f64 {
        if self.total == 0 {
            return 0.0;
        }
        let rank = ((self.total as f64 * q).ceil() as u64).clamp(1, self.total);
        let mut seen = 0u64;
        for (b, &c) in self.counts.iter().enumerate() {
            if seen + c >= rank {
                let (lo, hi) = Histogram::bucket_range(b);
                let frac = (rank - seen) as f64 / c as f64;
                return lo as f64 + ((hi - lo) as f64 * frac).round();
            }
            seen += c;
        }
        u64::MAX as f64
    }
}

/// `num / den`, or 0 when the denominator is 0.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}
