//! Scale guards for the executor overhaul.
//!
//! The hot-loop rewrite (local ready queue, due-batch timer drain, slot
//! recycling, routing tables, cell pooling) must not move a single event:
//! the simulator's output is a pure function of the program, so a dim-8
//! allreduce must produce bit-identical results *and* finish at the
//! identical picosecond before and after the optimizations. The golden
//! digest below was captured from the pre-optimization revision; any
//! change to it means an optimization reordered wakeups and broke
//! determinism.
//!
//! The profile assertions pin the scheduler's efficiency: polls must stay
//! within a small factor of timer events (no busy-wait storms at scale),
//! and meter updates must not allocate (verified with a counting global
//! allocator).

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use t_series_core::parallel::{run_parallel, ParallelCfg};
use t_series_core::{collectives, Hypercube, Machine, MachineCfg};
use ts_fpu::Sf64;
use ts_node::CombineOp;

/// Counting allocator: every test in this binary runs under it, and the
/// zero-allocation assertions sample the counter around a hot region.
/// Counts are per thread, so tests running in parallel on other threads
/// do not leak into the sampled region.
struct CountingAlloc;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

/// Count one allocation on the calling thread. The cell is `const`
/// initialised and has no destructor, so touching it never allocates.
fn count_alloc() {
    let _ = ALLOCS.try_with(|c| c.set(c.get() + 1));
}

/// Allocations made by the calling thread so far.
fn allocs() -> u64 {
    ALLOCS.with(Cell::get)
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_alloc();
        System.alloc(layout)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_alloc();
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static A: CountingAlloc = CountingAlloc;

fn fnv(h: u64, bytes: &[u8]) -> u64 {
    let mut h = h;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    h
}

/// Run the dim-8 (256-node) allreduce the scale bench uses and fold every
/// node's result — values and order — plus the finish time into one digest.
fn dim8_allreduce_digest() -> u64 {
    let dim = 8;
    let mut m = Machine::build(MachineCfg::cube_small_mem(dim, 8));
    let cube = m.cube;
    let handles = m.launch(move |ctx| async move {
        let id = ctx.id();
        let mine = vec![
            Sf64::from(id as f64),
            Sf64::from(1.0 / (1.0 + id as f64)),
            Sf64::from((id % 17) as f64 * 0.5),
            Sf64::from(1.0),
        ];
        collectives::allreduce(&ctx, cube, CombineOp::Add, mine).await
    });
    assert!(m.run().quiescent, "dim-8 allreduce stalled");
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for jh in handles {
        let vals = jh.try_take().expect("allreduce result missing");
        for v in vals {
            h = fnv(h, &v.to_bits().to_le_bytes());
        }
    }
    fnv(h, &m.now().as_ps().to_le_bytes())
}

/// Golden digest of the dim-8 allreduce, captured at the seed revision
/// (before the hot-loop rewrite). Optimizations must keep it bit-identical.
const GOLDEN_DIM8_ALLREDUCE: u64 = 0xa15af5783f80f7de;

#[test]
fn dim8_allreduce_matches_preoptimization_digest() {
    let got = dim8_allreduce_digest();
    assert_eq!(
        got, GOLDEN_DIM8_ALLREDUCE,
        "dim-8 allreduce digest changed: got {got:#018x}, golden {GOLDEN_DIM8_ALLREDUCE:#018x} \
         — an optimization reordered events or perturbed results"
    );
}

#[test]
fn digest_is_reproducible_within_one_process() {
    assert_eq!(dim8_allreduce_digest(), dim8_allreduce_digest());
}

/// The same dim-8 allreduce on the parallel backend, sharded across
/// threads. Bit-identical results and finish time are the whole contract:
/// the digest must equal the sequential golden, at every shard count.
fn dim8_allreduce_digest_parallel(shards: u32) -> u64 {
    let dim = 8;
    let cube = Hypercube::new(dim);
    let run = run_parallel(
        MachineCfg::cube_small_mem(dim, 8),
        &ParallelCfg::new(shards),
        move |ctx| async move {
            let id = ctx.id();
            let mine = vec![
                Sf64::from(id as f64),
                Sf64::from(1.0 / (1.0 + id as f64)),
                Sf64::from((id % 17) as f64 * 0.5),
                Sf64::from(1.0),
            ];
            collectives::allreduce(&ctx, cube, CombineOp::Add, mine).await
        },
    );
    assert!(run.quiescent, "parallel dim-8 allreduce stalled");
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for vals in run.results {
        for v in vals.expect("allreduce result missing") {
            h = fnv(h, &v.to_bits().to_le_bytes());
        }
    }
    fnv(h, &run.final_time.as_ps().to_le_bytes())
}

#[test]
fn parallel_backend_matches_golden_digest_at_2_shards() {
    let got = dim8_allreduce_digest_parallel(2);
    assert_eq!(
        got, GOLDEN_DIM8_ALLREDUCE,
        "2-shard parallel digest diverged from the sequential golden"
    );
}

#[test]
fn parallel_backend_matches_golden_digest_at_4_shards() {
    let got = dim8_allreduce_digest_parallel(4);
    assert_eq!(
        got, GOLDEN_DIM8_ALLREDUCE,
        "4-shard parallel digest diverged from the sequential golden"
    );
}

#[test]
fn parallel_backend_matches_golden_digest_at_1_shard() {
    // shards == 1 degenerates to the sequential backend; pin that too.
    let got = dim8_allreduce_digest_parallel(1);
    assert_eq!(got, GOLDEN_DIM8_ALLREDUCE);
}

/// Poll count stays within 2x of the timer event count: every wake does
/// useful work, so scaling the node count cannot trigger poll storms.
#[test]
fn polls_stay_within_twice_events() {
    let dim = 6;
    let mut m = Machine::build(MachineCfg::cube_small_mem(dim, 8));
    let cube = m.cube;
    let handles = m.launch(move |ctx| async move {
        let id = ctx.id();
        let mine = vec![Sf64::from(id as f64), Sf64::from(1.0)];
        collectives::allreduce(&ctx, cube, CombineOp::Add, mine).await
    });
    assert!(m.run().quiescent, "dim-6 allreduce stalled");
    for h in handles {
        h.try_take().expect("allreduce result missing");
    }
    let p = m.profile();
    assert!(p.timer_events > 0 && p.polls > 0, "profile counters empty");
    assert!(
        p.polls <= 2 * p.timer_events,
        "poll storm: {} polls for {} timer events (> 2x)",
        p.polls,
        p.timer_events
    );
}

/// Meter updates are allocation-free: at 4096 nodes the per-event metrics
/// cost has to be a plain counter bump, not a map insert or a box.
#[test]
fn meter_updates_do_not_allocate() {
    let reg = ts_sim::MetricsRegistry::new();
    let counter = reg.counter("scale/alloc_free");
    let busy = reg.busy_time("scale/busy");
    let hist = reg.histogram("scale/lens");
    // Warm the histogram's bucket storage before sampling.
    hist.observe(1);
    // The counter sees this thread's allocations.
    let probe = allocs();
    drop(std::hint::black_box(vec![0u8; 16]));
    assert_eq!(
        allocs(),
        probe + 1,
        "counting allocator missed an allocation"
    );
    let before = allocs();
    for i in 0..10_000u64 {
        counter.add(1);
        busy.add(ts_sim::Dur::ns(100));
        hist.observe(i % 64);
    }
    let after = allocs();
    assert_eq!(
        after - before,
        0,
        "meter hot path allocated {} times in 30k updates",
        after - before
    );
    assert_eq!(reg.get_counter("scale/alloc_free"), Some(10_000));
}
