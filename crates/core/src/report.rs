//! Backend-independent utilization reporting.
//!
//! [`ReportData`] is a plain-data capture of everything
//! `Machine::utilization_report` prints: per-node rows, per-node histogram
//! snapshots, the machine-wide registry rollup, and per-board disk/ring
//! tallies. [`ReportData::capture`] takes it from live nodes and boards —
//! the whole machine on the sequential backend, one partial per shard on
//! the parallel backend (plain `Send` data, so it crosses the thread
//! boundary), concatenated in shard order. Both then render through the
//! same code path, so a parallel run's report is byte-identical to the
//! sequential run's — including the floating-point reductions, which are
//! re-run in node/board order rather than pre-merged per shard.

use ts_node::Node;
use ts_sim::metrics::HIST_BUCKETS;
use ts_sim::{Dur, Histogram, Metrics, MetricsRegistry, Time};

use crate::system::SystemBoard;

/// A plain-data snapshot of one [`Histogram`]: exactly the values the
/// report's merge loop reads (bucket counts, total, and the histogram's own
/// mean — kept as the `f64` the live object would have produced, so the
/// merged weighted mean reproduces bit-for-bit).
#[derive(Clone, Debug)]
pub struct HistSnapshot {
    /// Per-bucket observation counts.
    pub counts: Vec<u64>,
    /// Total observations.
    pub total: u64,
    /// The histogram's mean at capture time.
    pub mean: f64,
}

impl HistSnapshot {
    /// Capture a live histogram.
    pub fn of(h: &Histogram) -> HistSnapshot {
        HistSnapshot {
            counts: h.counts(),
            total: h.total(),
            mean: h.mean(),
        }
    }
}

/// One row of the per-node utilization table.
#[derive(Clone, Copy, Debug)]
pub struct NodeRow {
    /// Node id.
    pub id: u32,
    /// Vector-unit busy time, picoseconds.
    pub vec_busy_ps: u64,
    /// Control-processor busy time, picoseconds.
    pub cp_busy_ps: u64,
    /// Floating-point operations retired.
    pub vec_flops: u64,
    /// Link bytes sent (`node/{id}/link/bytes_sent`).
    pub sent_b: u64,
    /// Link bytes received (`node/{id}/link/bytes_recv`).
    pub recv_b: u64,
}

/// Everything the utilization report prints, as plain `Send` data.
#[derive(Clone, Debug, Default)]
pub struct ReportData {
    /// Final virtual time, picoseconds.
    pub now_ps: u64,
    /// Aggregate peak MFLOPS of the configuration.
    pub peak_mflops: f64,
    /// Per-node rows, in node order.
    pub rows: Vec<NodeRow>,
    /// Per-node vector-length histograms, in node order.
    pub vec_len: Vec<HistSnapshot>,
    /// Per-node link-latency histograms (ns), in node order.
    pub latency: Vec<HistSnapshot>,
    /// Per-node link-flap histograms (µs), in node order.
    pub flaps: Vec<HistSnapshot>,
    /// Machine-wide counter and busy-time totals by `unit.metric`.
    pub metrics: Metrics,
    /// Per-board disk busy time, picoseconds, in board order.
    pub disk_busy_ps: Vec<u64>,
    /// Per-board ring bytes pushed, in board order.
    pub ring_bytes: Vec<u64>,
}

const _: () = {
    const fn assert_send<T: Send>() {}
    assert_send::<ReportData>();
};

impl ReportData {
    /// Capture `nodes` and `boards` at `now`, with the totals of
    /// `registry` (the registry those nodes meter into). The peak rate is
    /// left for the caller, which knows the whole machine.
    pub fn capture(
        now: Time,
        nodes: &[Node],
        boards: &[SystemBoard],
        registry: &MetricsRegistry,
    ) -> ReportData {
        let n = nodes.len();
        let mut data = ReportData {
            now_ps: now.as_ps(),
            rows: Vec::with_capacity(n),
            vec_len: Vec::with_capacity(n),
            latency: Vec::with_capacity(n),
            flaps: Vec::with_capacity(n),
            metrics: registry.rollup("node"),
            ..ReportData::default()
        };
        for node in nodes {
            let mt = node.meters();
            data.rows.push(NodeRow {
                id: node.id,
                vec_busy_ps: mt.vec_busy.get().as_ps(),
                cp_busy_ps: mt.cp_busy.get().as_ps(),
                vec_flops: mt.vec_flops.get(),
                sent_b: mt.link_bytes_sent.get(),
                recv_b: mt.link_bytes_recv.get(),
            });
            data.vec_len.push(HistSnapshot::of(&mt.vec_len));
            data.latency.push(HistSnapshot::of(&mt.link_latency_ns));
            data.flaps.push(HistSnapshot::of(&mt.link_flap_us));
        }
        for b in boards {
            data.disk_busy_ps.push(b.disk.busy_total().as_ps());
            data.ring_bytes.push(b.ring_bytes());
        }
        data
    }

    /// Concatenate shard partials (given in shard = ascending-node order)
    /// into one machine-wide capture. Node and board vectors concatenate;
    /// totals merge by key (integer adds, order-independent); the final
    /// time is the maximum.
    pub fn merge(parts: Vec<ReportData>, peak_mflops: f64) -> ReportData {
        let mut out = ReportData {
            peak_mflops,
            ..ReportData::default()
        };
        for p in parts {
            out.now_ps = out.now_ps.max(p.now_ps);
            out.rows.extend(p.rows);
            out.vec_len.extend(p.vec_len);
            out.latency.extend(p.latency);
            out.flaps.extend(p.flaps);
            out.disk_busy_ps.extend(p.disk_busy_ps);
            out.ring_bytes.extend(p.ring_bytes);
            out.metrics.merge(&p.metrics);
        }
        out
    }

    /// Achieved MFLOPS over the captured run.
    pub fn achieved_mflops(&self) -> f64 {
        let flops: u64 = self.rows.iter().map(|r| r.vec_flops).sum();
        let t = Time(self.now_ps).as_secs_f64();
        if t == 0.0 {
            0.0
        } else {
            flops as f64 / t / 1e6
        }
    }

    /// Render the utilization report — the exact text
    /// `Machine::utilization_report` has always printed.
    pub fn render(&self) -> String {
        use std::fmt::Write;
        let total = Time(self.now_ps).as_secs_f64();
        let mut out = String::new();
        let _ = writeln!(
            out,
            "{:>5} {:>8} {:>8} {:>12} {:>12} {:>12}",
            "node", "vec%", "cp%", "flops", "sent B", "recv B"
        );
        for row in &self.rows {
            let vecb = Dur::ps(row.vec_busy_ps).as_secs_f64();
            let cpb = Dur::ps(row.cp_busy_ps).as_secs_f64();
            let pct = |b: f64| if total > 0.0 { b / total * 100.0 } else { 0.0 };
            let _ = writeln!(
                out,
                "{:>5} {:>7.1}% {:>7.1}% {:>12} {:>12} {:>12}",
                row.id,
                pct(vecb),
                pct(cpb),
                row.vec_flops,
                row.sent_b,
                row.recv_b,
            );
        }
        let _ = writeln!(
            out,
            "total: {:.3} ms simulated, {:.2} MFLOPS achieved of {:.0} peak",
            total * 1e3,
            self.achieved_mflops(),
            self.peak_mflops
        );
        // Histogram aggregation: merge the per-node distributions the hot
        // paths observed into machine-wide summaries.
        let vec_len = merge_snapshots(&self.vec_len);
        if vec_len.total > 0 {
            let _ = writeln!(
                out,
                "vector ops: {} issued, mean length {:.0}, p99 length ≤ {}",
                vec_len.total,
                vec_len.mean,
                vec_len.quantile_bound(0.99),
            );
        }
        let lat = merge_snapshots(&self.latency);
        if lat.total > 0 {
            let _ = writeln!(
                out,
                "link messages: {} delivered, mean latency {:.1} µs, p99 ≤ {:.1} µs",
                lat.total,
                lat.mean / 1e3,
                lat.quantile_bound(0.99) as f64 / 1e3,
            );
        }
        // Fault and recovery story, when there is one: faults injected,
        // how the fabric and collectives coped, and what the supervisor's
        // healing cost.
        let m = &self.metrics;
        // Reliable-transport story: retransmissions absorbed below the
        // routing layer, and the flap outages that drove some of them.
        let retrans = m.get("link.retransmits");
        let crc = m.get("link.crc_errors");
        let escal = m.get("link.escalations");
        if retrans + crc + escal > 0 {
            let _ = writeln!(
                out,
                "transport: {retrans} flits retransmitted, {crc} CRC errors, \
                 {escal} links condemned",
            );
        }
        let flaps = merge_snapshots(&self.flaps);
        if flaps.total > 0 {
            let _ = writeln!(
                out,
                "link flaps: {} outages, mean {:.0} µs, p99 ≤ {} µs",
                flaps.total,
                flaps.mean,
                flaps.quantile_bound(0.99),
            );
        }
        let faults = m.get("fault.link_down")
            + m.get("fault.node_crash")
            + m.get("fault.mem_flip")
            + m.get("fault.wire_corrupt")
            + m.get("fault.flit_drop")
            + m.get("fault.link_flap");
        let coped = m.get("router.reroutes")
            + m.get("router.retries")
            + m.get("router.dropped")
            + m.get("collective.retries")
            + m.get("collective.deadline_expired")
            + m.get("fault.scrubbed_words");
        let healed = m.get("supervisor.reboots") + m.get("supervisor.snapshots");
        if faults + coped + healed > 0 {
            let _ = writeln!(
                out,
                "faults: {} link down, {} node crash, {} mem flip; \
                 {} scrubbed words",
                m.get("fault.link_down"),
                m.get("fault.node_crash"),
                m.get("fault.mem_flip"),
                m.get("fault.scrubbed_words"),
            );
            let transient =
                m.get("fault.wire_corrupt") + m.get("fault.flit_drop") + m.get("fault.link_flap");
            if transient > 0 {
                let _ = writeln!(
                    out,
                    "transient faults: {} wire corrupt, {} flit drop, {} link flap",
                    m.get("fault.wire_corrupt"),
                    m.get("fault.flit_drop"),
                    m.get("fault.link_flap"),
                );
            }
            let _ = writeln!(
                out,
                "router: {} reroutes, {} retries, {} dropped; \
                 collectives: {} retries, {} deadline expiries",
                m.get("router.reroutes"),
                m.get("router.retries"),
                m.get("router.dropped"),
                m.get("collective.retries"),
                m.get("collective.deadline_expired"),
            );
            if healed > 0 {
                let _ = writeln!(
                    out,
                    "recovery: {} snapshots, {} reboots, {:.3} ms rework",
                    m.get("supervisor.snapshots"),
                    m.get("supervisor.reboots"),
                    m.get_time("supervisor.rework").as_secs_f64() * 1e3,
                );
            }
        }
        // Checkpoint I/O: what the snapshot subsystem cost this run.
        let disk_busy: f64 = self
            .disk_busy_ps
            .iter()
            .map(|&ps| Dur::ps(ps).as_secs_f64())
            .sum();
        let ring_bytes: u64 = self.ring_bytes.iter().sum();
        let ckpt_full = m.get("ckpt.full");
        let ckpt_delta = m.get("ckpt.delta");
        let torn = m.get("ckpt.torn_aborts");
        if disk_busy > 0.0 || ckpt_full + ckpt_delta + torn > 0 {
            let streamed = m.get("ckpt.bytes_streamed");
            let full_equiv = m.get("ckpt.bytes_full_equiv");
            let delta_ratio = if full_equiv > 0 {
                streamed as f64 / full_equiv as f64 * 100.0
            } else {
                100.0
            };
            let _ = writeln!(
                out,
                "checkpoint I/O: {ckpt_full} full + {ckpt_delta} delta commits, \
                 {streamed} B streamed ({delta_ratio:.1}% of full), \
                 disk busy {:.3} ms, ring {ring_bytes} B, {torn} torn aborts",
                disk_busy * 1e3,
            );
        }
        out
    }
}

/// A machine-wide merge of per-node histogram distributions.
pub(crate) struct MergedHist {
    pub(crate) total: u64,
    pub(crate) mean: f64,
    pub(crate) counts: [u64; HIST_BUCKETS],
}

impl MergedHist {
    /// Upper bound of the bucket containing the `q`-quantile.
    pub(crate) fn quantile_bound(&self, q: f64) -> u64 {
        let target = (q.clamp(0.0, 1.0) * self.total as f64).ceil() as u64;
        let mut seen = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= target && c > 0 {
                return Histogram::bucket_range(i).1;
            }
        }
        Histogram::bucket_range(HIST_BUCKETS - 1).1
    }
}

/// Merge snapshots exactly as the live-histogram merge always has: bucket
/// adds, then a weighted mean accumulated in input order (the `f64`
/// accumulation order is part of the report's byte-for-byte contract).
pub(crate) fn merge_snapshots(snaps: &[HistSnapshot]) -> MergedHist {
    let mut counts = [0u64; HIST_BUCKETS];
    let mut total = 0u64;
    let mut weighted = 0.0f64;
    for s in snaps {
        for (acc, c) in counts.iter_mut().zip(s.counts.iter()) {
            *acc += c;
        }
        total += s.total;
        weighted += s.mean * s.total as f64;
    }
    MergedHist {
        total,
        mean: if total > 0 {
            weighted / total as f64
        } else {
            0.0
        },
        counts,
    }
}
