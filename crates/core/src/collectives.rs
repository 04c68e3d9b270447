//! Collective communication on the binary n-cube.
//!
//! Everything is built from the two classical hypercube schedules:
//!
//! * **binomial trees** (via [`Hypercube::binomial_children`]) for rooted
//!   operations — broadcast and reduce complete in n = log₂ p steps, the
//!   O(log n) long-range cost the paper advertises;
//! * **dimension exchange** for symmetric operations — all-reduce,
//!   all-gather and barriers exchange across dimension 0, 1, …, n−1 in
//!   turn, with both directions of each bidirectional link in flight at
//!   once (an Occam `PAR` of send and receive — sequential sends would
//!   rendezvous-deadlock, which the tests verify does not happen).
//!
//! All functions are SPMD: every node of the cube must call them in the
//! same order, passing its own [`NodeCtx`].

use ts_cube::Hypercube;
use ts_fpu::Sf64;
use ts_node::{occam, CombineOp, NodeCtx};
use ts_sim::{select2, Dur, Either, SimHandle, Time};

/// Book one completed collective into the node's per-op latency histogram
/// (`node/{id}/collective/{op}_us` in the machine registry). Registration
/// is a map lookup — fine off the hot path, where a collective costs
/// microseconds of simulated link time anyway.
fn book_latency(ctx: &NodeCtx, op: &str, started: Time) {
    let us = ctx.now().since(started).as_ns() / 1_000;
    ctx.meters()
        .scope()
        .scope("collective")
        .histogram(&format!("{op}_us"))
        .observe(us);
}

/// A collective (or any awaited operation) missed its deadline on every
/// allowed attempt — a partner is dead or the fabric is too degraded.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DeadlineExpired {
    /// How many attempts were made before giving up.
    pub attempts: u32,
}

impl std::fmt::Display for DeadlineExpired {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "deadline expired after {} attempt(s)", self.attempts)
    }
}

impl std::error::Error for DeadlineExpired {}

/// Run `op` under a deadline, retrying up to `attempts` times. Each attempt
/// builds a fresh future via the closure and races it against a timer; a
/// timed-out attempt is dropped (cancelling its parked channel operations —
/// the claim protocol makes that safe) and retried. A collective whose
/// partner crashed thus errors within `attempts × dur` of simulated time
/// instead of blocking forever. Books `collective.retries` /
/// `collective.deadline_expired` into `ctx`'s node metrics.
///
/// Caveat: operations that *spawn* helper tasks (the dimension-exchange
/// collectives run their send/recv pair under an Occam `PAR`) leave those
/// helpers parked after a timeout — they hold no resources and are swept
/// away when the supervisor reboots the machine, but they keep the run
/// from reporting quiescent. Rooted collectives (broadcast/reduce) and
/// plain sends cancel cleanly.
pub async fn with_deadline<F, Fut, T>(
    ctx: &NodeCtx,
    dur: Dur,
    attempts: u32,
    mut op: F,
) -> Result<T, DeadlineExpired>
where
    F: FnMut() -> Fut,
    Fut: std::future::Future<Output = T>,
{
    let h: &SimHandle = ctx.handle();
    for attempt in 0..attempts.max(1) {
        if attempt > 0 {
            ctx.meters().scope().counter("collective/retries").inc();
        }
        let fut = Box::pin(op());
        match select2(fut, h.sleep(dur)).await {
            Either::Left(v) => return Ok(v),
            Either::Right(()) => {}
        }
    }
    ctx.meters()
        .scope()
        .counter("collective/deadline_expired")
        .inc();
    Err(DeadlineExpired {
        attempts: attempts.max(1),
    })
}

/// Broadcast `data` from `root` to every node; returns the payload on all
/// nodes. Non-roots pass `None`.
pub async fn broadcast(
    ctx: &NodeCtx,
    cube: Hypercube,
    root: u32,
    data: Option<Vec<u32>>,
) -> Vec<u32> {
    let t0 = ctx.now();
    let me = ctx.id();
    let buf = if me == root {
        data.expect("root must provide the broadcast payload")
    } else {
        let parent_dim = (me ^ root).trailing_zeros() as usize;
        ctx.recv_dim(parent_dim).await
    };
    // Children: dimensions below our parent dimension (all for the root),
    // highest first so the biggest subtrees start earliest.
    let mut children = cube.binomial_children(root, me);
    children.reverse();
    for child in children {
        let d = (me ^ child).trailing_zeros() as usize;
        ctx.send_dim(d, buf.clone()).await;
    }
    book_latency(ctx, "broadcast", t0);
    buf
}

/// Reduce element-wise (`op`) onto `root`; returns `Some(result)` there and
/// `None` elsewhere.
pub async fn reduce(
    ctx: &NodeCtx,
    cube: Hypercube,
    root: u32,
    op: CombineOp,
    mine: Vec<Sf64>,
) -> Option<Vec<Sf64>> {
    let t0 = ctx.now();
    let me = ctx.id();
    let mut acc = mine;
    // Receive from each child subtree (lowest dimension first — the order
    // children finish in a balanced tree).
    for child in cube.binomial_children(root, me) {
        let d = (me ^ child).trailing_zeros() as usize;
        let theirs = ctx.recv_f64s(d).await;
        ctx.combine_values(op, &mut acc, &theirs).await;
        ts_node::recycle_values(theirs);
    }
    let result = if me == root {
        Some(acc)
    } else {
        let parent_dim = (me ^ root).trailing_zeros() as usize;
        ctx.send_f64s(parent_dim, &acc).await;
        None
    };
    book_latency(ctx, "reduce", t0);
    result
}

/// All-reduce by dimension exchange: every node ends with the elementwise
/// `op` over all contributions, in n exchange steps.
pub async fn allreduce(
    ctx: &NodeCtx,
    cube: Hypercube,
    op: CombineOp,
    mine: Vec<Sf64>,
) -> Vec<Sf64> {
    let t0 = ctx.now();
    let mut acc = mine;
    for d in 0..cube.dim() as usize {
        let h = ctx.handle().clone();
        let send_ctx = ctx.clone();
        let mut out = ts_node::take_values(acc.len());
        out.extend_from_slice(&acc);
        let recv_ctx = ctx.clone();
        let (_, theirs) = occam::par2(
            &h,
            async move {
                send_ctx.send_f64s(d, &out).await;
                ts_node::recycle_values(out);
            },
            async move { recv_ctx.recv_f64s(d).await },
        )
        .await;
        ctx.combine_values(op, &mut acc, &theirs).await;
        ts_node::recycle_values(theirs);
    }
    book_latency(ctx, "allreduce", t0);
    acc
}

/// All-gather by dimension doubling: returns every node's contribution,
/// indexed by node id.
pub async fn allgather(ctx: &NodeCtx, cube: Hypercube, mine: Vec<u32>) -> Vec<(u32, Vec<u32>)> {
    // Accumulated set of (node, payload), flattened for the wire as
    // [id, len, words..., id, len, words...].
    let t0 = ctx.now();
    let mut have: Vec<(u32, Vec<u32>)> = vec![(ctx.id(), mine)];
    for d in 0..cube.dim() as usize {
        let mut flat = Vec::new();
        for (id, words) in &have {
            flat.push(*id);
            flat.push(words.len() as u32);
            flat.extend_from_slice(words);
        }
        let h = ctx.handle().clone();
        let send_ctx = ctx.clone();
        let recv_ctx = ctx.clone();
        let (_, theirs) = occam::par2(
            &h,
            async move { send_ctx.send_dim(d, flat).await },
            async move { recv_ctx.recv_dim(d).await },
        )
        .await;
        let mut i = 0;
        while i < theirs.len() {
            let id = theirs[i];
            let len = theirs[i + 1] as usize;
            have.push((id, theirs[i + 2..i + 2 + len].to_vec()));
            i += 2 + len;
        }
    }
    have.sort_by_key(|(id, _)| *id);
    book_latency(ctx, "allgather", t0);
    have
}

/// Inclusive prefix scan (`out[i] = op(v[0..=i])` by node id) using the
/// classic hypercube algorithm: at each dimension exchange a node folds the
/// partner's partial into its *total*, and into its *prefix* only when the
/// partner's id is lower. log₂ p steps, like all-reduce.
pub async fn scan(ctx: &NodeCtx, cube: Hypercube, op: CombineOp, mine: Vec<Sf64>) -> Vec<Sf64> {
    let t0 = ctx.now();
    let me = ctx.id();
    let mut prefix = mine.clone();
    let mut total = mine;
    for d in 0..cube.dim() as usize {
        let h = ctx.handle().clone();
        let send_ctx = ctx.clone();
        let mut out = ts_node::take_values(total.len());
        out.extend_from_slice(&total);
        let recv_ctx = ctx.clone();
        let (_, theirs) = occam::par2(
            &h,
            async move {
                send_ctx.send_f64s(d, &out).await;
                ts_node::recycle_values(out);
            },
            async move { recv_ctx.recv_f64s(d).await },
        )
        .await;
        ctx.combine_values(op, &mut total, &theirs).await;
        if me & (1 << d) != 0 {
            // Partner has a lower id: its subcube precedes ours.
            ctx.combine_values(op, &mut prefix, &theirs).await;
        }
        ts_node::recycle_values(theirs);
    }
    book_latency(ctx, "scan", t0);
    prefix
}

/// Barrier: a 1-word dimension exchange (all nodes leave only after all
/// have entered).
pub async fn barrier(ctx: &NodeCtx, cube: Hypercube) {
    let t0 = ctx.now();
    for d in 0..cube.dim() as usize {
        let h = ctx.handle().clone();
        let send_ctx = ctx.clone();
        let recv_ctx = ctx.clone();
        occam::par2(
            &h,
            async move {
                let mut tick = ts_sim::pool::take_words(1);
                tick.push(0);
                send_ctx.send_dim(d, tick).await;
            },
            async move {
                ts_sim::pool::put_words(recv_ctx.recv_dim(d).await);
            },
        )
        .await;
    }
    book_latency(ctx, "barrier", t0);
}

#[cfg(test)]
mod tests {
    use crate::{Machine, MachineCfg};

    use super::*;

    fn small(dim: u32) -> Machine {
        Machine::build(MachineCfg::cube_small_mem(dim, 8))
    }

    #[test]
    fn broadcast_reaches_everyone() {
        for root in [0u32, 5] {
            let mut m = small(3);
            let cube = m.cube;
            let handles = m.launch(move |ctx| async move {
                let data = (ctx.id() == root).then(|| vec![42, 43, 44]);
                broadcast(&ctx, cube, root, data).await
            });
            assert!(m.run().quiescent, "broadcast deadlock (root {root})");
            for h in handles {
                assert_eq!(h.try_take(), Some(vec![42, 43, 44]));
            }
        }
    }

    #[test]
    fn broadcast_latency_is_log_p() {
        // Doubling the node count adds one link step, not a linear one.
        let mut times = Vec::new();
        for dim in [2u32, 4] {
            let mut m = small(dim);
            let cube = m.cube;
            m.launch(move |ctx| async move {
                let data = (ctx.id() == 0).then(|| vec![7u32; 64]);
                broadcast(&ctx, cube, 0, data).await;
            });
            assert!(m.run().quiescent);
            times.push(m.now().as_us_f64());
        }
        // 4-cube ≈ 2× the 2-cube time (4 steps vs 2), nowhere near the 4×
        // a linear topology would pay (16 nodes vs 4).
        let ratio = times[1] / times[0];
        assert!(ratio < 2.6, "broadcast ratio {ratio}");
    }

    #[test]
    fn reduce_sums_all_contributions() {
        let mut m = small(4);
        let cube = m.cube;
        let handles = m.launch(move |ctx| async move {
            let mine = vec![Sf64::from(ctx.id() as f64), Sf64::from(1.0)];
            reduce(&ctx, cube, 0, CombineOp::Add, mine).await
        });
        assert!(m.run().quiescent, "reduce deadlock");
        for (i, h) in handles.into_iter().enumerate() {
            let got = h.try_take().unwrap();
            if i == 0 {
                let v = got.expect("root gets the result");
                assert_eq!(v[0].to_host(), (0..16).sum::<i32>() as f64);
                assert_eq!(v[1].to_host(), 16.0);
            } else {
                assert!(got.is_none());
            }
        }
    }

    #[test]
    fn allreduce_all_nodes_agree() {
        let mut m = small(3);
        let cube = m.cube;
        let handles = m.launch(move |ctx| async move {
            let mine = vec![Sf64::from(2.0f64.powi(ctx.id() as i32))];
            allreduce(&ctx, cube, CombineOp::Add, mine).await
        });
        assert!(m.run().quiescent, "allreduce deadlock");
        for h in handles {
            let v = h.try_take().unwrap();
            assert_eq!(v[0].to_host(), 255.0); // 2^0 + ... + 2^7
        }
    }

    #[test]
    fn allreduce_max() {
        let mut m = small(3);
        let cube = m.cube;
        let handles = m.launch(move |ctx| async move {
            let mine = vec![Sf64::from(-(ctx.id() as f64))];
            allreduce(&ctx, cube, CombineOp::Max, mine).await
        });
        assert!(m.run().quiescent);
        for h in handles {
            assert_eq!(h.try_take().unwrap()[0].to_host(), 0.0);
        }
    }

    #[test]
    fn allgather_collects_everything_in_order() {
        let mut m = small(3);
        let cube = m.cube;
        let handles = m.launch(move |ctx| async move {
            let mine = vec![ctx.id() * 100, ctx.id()];
            allgather(&ctx, cube, mine).await
        });
        assert!(m.run().quiescent, "allgather deadlock");
        for h in handles {
            let all = h.try_take().unwrap();
            assert_eq!(all.len(), 8);
            for (i, (id, words)) in all.iter().enumerate() {
                assert_eq!(*id, i as u32);
                assert_eq!(words, &vec![i as u32 * 100, i as u32]);
            }
        }
    }

    #[test]
    fn scan_computes_prefixes() {
        let mut m = small(4);
        let cube = m.cube;
        let handles = m.launch(move |ctx| async move {
            let mine = vec![Sf64::from((ctx.id() + 1) as f64)];
            scan(&ctx, cube, CombineOp::Add, mine).await
        });
        assert!(m.run().quiescent, "scan deadlocked");
        for (i, h) in handles.into_iter().enumerate() {
            let got = h.try_take().unwrap()[0].to_host();
            let want: f64 = (0..=i as u32).map(|j| (j + 1) as f64).sum();
            assert_eq!(got, want, "prefix at node {i}");
        }
    }

    #[test]
    fn scan_max_is_running_maximum() {
        let mut m = small(3);
        let cube = m.cube;
        // Values: 5, 1, 7, 2, 3, 9, 0, 4 by node id.
        let vals = [5.0, 1.0, 7.0, 2.0, 3.0, 9.0, 0.0, 4.0];
        let handles = m.launch(move |ctx| async move {
            let mine = vec![Sf64::from(vals[ctx.id() as usize])];
            scan(&ctx, cube, CombineOp::Max, mine).await
        });
        assert!(m.run().quiescent);
        let want = [5.0, 5.0, 7.0, 7.0, 7.0, 9.0, 9.0, 9.0];
        for (i, h) in handles.into_iter().enumerate() {
            assert_eq!(h.try_take().unwrap()[0].to_host(), want[i]);
        }
    }

    #[test]
    fn barrier_synchronizes() {
        let mut m = small(3);
        let cube = m.cube;
        let handles = m.launch(move |ctx| async move {
            // Node i works i ms before the barrier; everyone must leave at
            // (or after) the slowest entrant.
            ctx.cp_compute(7500 * ctx.id() as u64).await; // i ms of work
            barrier(&ctx, cube).await;
            ctx.now()
        });
        assert!(m.run().quiescent, "barrier deadlock");
        let times: Vec<_> = handles.into_iter().map(|h| h.try_take().unwrap()).collect();
        let slowest_entry = 7.0e-3; // node 7: 7 ms of work
        for t in times {
            assert!(t.as_secs_f64() >= slowest_entry);
        }
    }

    #[test]
    fn zero_cube_collectives_are_trivial() {
        let mut m = small(0);
        let cube = m.cube;
        let handles = m.launch(move |ctx| async move {
            let b = broadcast(&ctx, cube, 0, Some(vec![9])).await;
            let r = allreduce(&ctx, cube, CombineOp::Add, vec![Sf64::from(3.0)]).await;
            barrier(&ctx, cube).await;
            (b, r[0].to_host())
        });
        assert!(m.run().quiescent);
        assert_eq!(
            handles.into_iter().next().unwrap().try_take(),
            Some((vec![9], 3.0))
        );
    }

    #[test]
    fn collective_with_crashed_partner_times_out_within_deadline() {
        // Node 1 is dead before the broadcast starts. Without a deadline
        // the root's send would park forever on the rendezvous; with one,
        // node 0 gets an error after exactly attempts × dur of simulated
        // time.
        let mut m = small(1);
        let cube = m.cube;
        m.faults().crash(1);
        let ctx = m.ctx(0);
        let jh = m.launch_on(0, async move {
            let r = with_deadline(&ctx, Dur::us(5_000), 3, || {
                broadcast(&ctx, cube, 0, Some(vec![1, 2, 3]))
            })
            .await;
            (r.map(|_| ()), ctx.now())
        });
        let report = m.run();
        assert!(report.quiescent, "deadline wrapper must not hang");
        let (r, t) = jh.try_take().unwrap();
        assert_eq!(r, Err(DeadlineExpired { attempts: 3 }));
        assert_eq!(t.since(ts_sim::Time::ZERO), Dur::us(15_000));
        assert_eq!(m.metrics().get("collective.retries"), 2);
        assert_eq!(m.metrics().get("collective.deadline_expired"), 1);
    }

    #[test]
    fn with_deadline_passes_through_success() {
        let mut m = small(2);
        let cube = m.cube;
        let handles = m.launch(move |ctx| async move {
            let mine = vec![Sf64::from(ctx.id() as f64)];
            with_deadline(&ctx, Dur::us(1_000_000), 2, || {
                allreduce(&ctx, cube, CombineOp::Add, mine.clone())
            })
            .await
        });
        assert!(m.run().quiescent);
        for h in handles {
            assert_eq!(h.try_take().unwrap().unwrap()[0].to_host(), 6.0);
        }
        assert_eq!(m.metrics().get("collective.retries"), 0);
    }
}
