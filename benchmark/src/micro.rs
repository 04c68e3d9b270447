//! In-run host calibration: the executor, channel and link microloops and
//! the counter microbench, re-run inside every traced run so layer costs
//! are read as ratios against the same host at the same minute (host speed
//! drifts by 2× here over minutes; absolute numbers from another run or
//! another machine do not compare).

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::hint::black_box;
use std::time::Instant;

use fps_t_series::link::{LinkChannel, LinkParams, Wire};
use fps_t_series::sim::{Dur, Metrics, MetricsRegistry, Rendezvous, Sim};

use crate::metrics::median;

/// Host rates measured by the microloops, in loop items (sleeps, channel
/// messages, link messages) per host second.
pub struct Calibration {
    pub executor_ev_per_s: f64,
    pub channel_ev_per_s: f64,
    pub link_ev_per_s: f64,
    pub handle_ns: f64,
    pub legacy_ns: f64,
}

const REPEATS: usize = 3;

/// Run every microloop [`REPEATS`] times and keep the medians.
pub fn calibrate() -> Calibration {
    let rate = |f: fn() -> f64| median(&(0..REPEATS).map(|_| f()).collect::<Vec<_>>());
    let (handle, legacy): (Vec<f64>, Vec<f64>) = (0..REPEATS).map(|_| counters(2_000_000)).unzip();
    Calibration {
        executor_ev_per_s: rate(executor),
        channel_ev_per_s: rate(channel),
        link_ev_per_s: rate(link),
        handle_ns: median(&handle),
        legacy_ns: median(&legacy),
    }
}

/// `items` per host second of a finished run of `sim`.
fn items_per_s(mut sim: Sim, items: u64) -> f64 {
    let t = Instant::now();
    assert!(sim.run().quiescent, "microloop did not finish");
    items as f64 / t.elapsed().as_secs_f64()
}

/// Bare executor: 64 tasks × 10,000 sleeps (timer heap, waker, poll).
fn executor() -> f64 {
    let mut sim = Sim::new();
    for i in 0..64u64 {
        let h = sim.handle();
        sim.spawn(async move {
            for _ in 0..10_000u32 {
                h.sleep(Dur::ns(10 + i)).await;
            }
        });
    }
    items_per_s(sim, 64 * 10_000)
}

/// Rendezvous ping-pong: one sender/receiver pair, a 1 ns sleep per
/// message so every message is one timer event.
fn channel() -> f64 {
    let mut sim = Sim::new();
    let rv: Rendezvous<u64> = Rendezvous::new();
    let tx = rv.clone();
    sim.spawn(async move {
        for i in 0..200_000u64 {
            tx.send(i).await;
        }
    });
    let h = sim.handle();
    sim.spawn(async move {
        for _ in 0..200_000u64 {
            black_box(rv.recv().await);
            h.sleep(Dur::ns(1)).await;
        }
    });
    items_per_s(sim, 200_000)
}

/// The full link protocol: 8-word messages through one `LinkChannel`
/// (DMA, wire, done handshake, meters).
fn link() -> f64 {
    let mut sim = Sim::new();
    let ch = LinkChannel::new(Wire::new("micro", LinkParams::default()));
    let (a, b) = (ch.clone(), ch);
    let h = sim.handle();
    let h2 = h.clone();
    sim.spawn(async move {
        for i in 0..50_000u32 {
            a.send(&h, vec![i; 8]).await;
        }
    });
    sim.spawn(async move {
        for _ in 0..50_000u32 {
            black_box(b.recv(&h2).await);
        }
    });
    items_per_s(sim, 50_000)
}

/// Nanoseconds per increment: a typed registry handle vs the legacy
/// string-keyed map.
fn counters(iters: u64) -> (f64, f64) {
    let reg = MetricsRegistry::new();
    let handle = reg.counter("bench/hotpath");
    let t = Instant::now();
    for _ in 0..iters {
        black_box(&handle).add(1);
    }
    let handle_ns = t.elapsed().as_nanos() as f64 / iters as f64;
    assert_eq!(reg.get_counter("bench/hotpath"), Some(iters));

    let legacy = Metrics::new();
    let t = Instant::now();
    for _ in 0..iters {
        black_box(&legacy).add("bench.hotpath", 1);
    }
    let legacy_ns = t.elapsed().as_nanos() as f64 / iters as f64;
    assert_eq!(legacy.get("bench.hotpath"), iters);
    (handle_ns, legacy_ns)
}

/// Host-speed reference: a fixed loop of the benchmark's own code, with no
/// program code in it, timed between untraced iterations. A shared host
/// slows this process down by 15–30% for minutes at a time, and different
/// code by different amounts, so the loop mixes three kinds of work in
/// roughly equal host time: a pointer chase through a 4 MB single-cycle
/// permutation (twice the per-core L2), a discrete-event loop (a timer heap
/// over 1,024 task states with a small message buffer per event), and
/// integer arithmetic. Over 5 seeds per workload on a 2-core host, the mix
/// cut the run cost's spread below that of wall time on all four workloads,
/// and below that of any one part alone on three. The permutation
/// lives in 64 KB chunks, below malloc's mmap threshold, so the loop does
/// not move that threshold and the workload's `peak_rss_mb` with it.
/// Seconds.
pub fn reference() -> f64 {
    const CHUNK: usize = 1 << 14;
    const SLOTS: usize = 64 * CHUNK;
    const TASKS: usize = 1024;
    let t = Instant::now();
    let mut x: u64 = 0x9E37_79B9_7F4A_7C15;
    let mut next = move || {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        x
    };

    let mut link: Vec<Vec<u32>> = (0..SLOTS / CHUNK)
        .map(|c| ((c * CHUNK) as u32..((c + 1) * CHUNK) as u32).collect())
        .collect();
    // Sattolo's shuffle: one cycle through every slot.
    for i in (1..SLOTS).rev() {
        let j = (next() % i as u64) as usize;
        let held = link[i / CHUNK][i % CHUNK];
        link[i / CHUNK][i % CHUNK] = link[j / CHUNK][j % CHUNK];
        link[j / CHUNK][j % CHUNK] = held;
    }
    let mut p = 0usize;
    for _ in 0..SLOTS / 2 {
        p = link[p / CHUNK][p % CHUNK] as usize;
    }
    drop(link);

    let mut timers = BinaryHeap::new();
    let mut state: Vec<Vec<u64>> = (0..TASKS as u64).map(|i| vec![i; 32]).collect();
    for task in 0..TASKS {
        timers.push(Reverse((next() % 1000, task)));
    }
    for _ in 0..200_000 {
        let Reverse((now, task)) = timers.pop().expect("timers never drain");
        let s = &mut state[task];
        let msg: Vec<u64> = s.iter().take(8).map(|w| w ^ now).collect();
        s[(now % 32) as usize] = msg.iter().fold(0, |a, w| a.wrapping_add(*w));
        timers.push(Reverse((now + 1 + next() % 1000, next() as usize % TASKS)));
    }

    let mut h = p as u64;
    for i in 0..12_000_000u64 {
        h = h
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(i ^ (h >> 29));
    }
    black_box((h, state));
    t.elapsed().as_secs_f64()
}
