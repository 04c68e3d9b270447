//! Store-and-forward message routing between **arbitrary** node pairs.
//!
//! The collectives and kernels communicate only between cube neighbours;
//! general message passing (the Cosmic Cube style the paper cites as its
//! lineage, refs. 7–8) needs intermediate nodes to forward. This module runs a
//! **router daemon** as an Occam process on every node:
//!
//! * programs inject messages through a zero-latency loopback sublink (on
//!   the hardware this is a memory handoff to the kernel process);
//! * the daemon `ALT`s over the loopback and every cube dimension;
//! * non-local messages are forwarded along the **e-cube** dimension (the
//!   lowest set bit of `here XOR dst`), which is deadlock-free because the
//!   dimension sequence increases monotonically along every route;
//! * each hop pays the real link time plus a small control-processor
//!   routing charge.
//!
//! Shutdown is itself routed: poison messages visit nodes in decreasing
//! address order, so every intermediate a poison needs is still alive
//! (e-cube intermediates are strict submasks of the destination).
//!
//! ## Degraded-mode routing
//!
//! When a fault plan kills links, the strict e-cube choice (lowest set bit
//! of `here XOR dst`) may be dead. The daemon then **falls back to the next
//! live dimension** that still needs correcting — any correction order
//! keeps intermediates inside the submask lattice, so the hop count is
//! unchanged and progress is still monotone. Only when *every* remaining
//! correction dimension is dead does the message take a **detour**: it
//! flips the lowest live dimension outside the correction set, bounded by a
//! per-message budget of two extra hops (`DETOUR_BUDGET`), and records the
//! flipped dimension so the next hop does not immediately undo it. A
//! message whose budget runs dry is dropped rather than left to wander.
//! The daemon books `router.reroutes`, `router.retries` (a link died while
//! a hop was being sent) and `router.dropped` into its node's metrics.

use std::rc::Rc;

use ts_cube::Hypercube;
use ts_link::{AltSet, LinkChannel, LinkParams, LinkStatus, Wire};
use ts_node::NodeCtx;
use ts_sim::{Dur, JoinHandle, Mailbox};

use crate::Machine;

/// Control-processor instructions charged per routing decision.
const ROUTE_CP_INSTRS: u64 = 12;

const KIND_DATA: u32 = 0;
const KIND_POISON: u32 = 1;

/// Frame header: destination, source, kind, detour budget, avoid-dim,
/// hops taken so far.
const HDR: usize = 6;
/// Extra hops a message may spend detouring around dead links.
const DETOUR_BUDGET: u32 = 2;
/// Sentinel for "no dimension to avoid".
const AVOID_NONE: u32 = u32::MAX;
/// A forwarded hop that has not been accepted after this long is abandoned
/// (the next daemon died with the frame en route). Far above any legitimate
/// queueing delay, so healthy traffic never trips it.
const FORWARD_DEADLINE: Dur = Dur::us(100_000);

fn frame_for(dst: u32, src: u32, kind: u32, payload: &[u32]) -> Vec<u32> {
    let mut frame = ts_sim::pool::take_words(payload.len() + HDR);
    frame.push(dst);
    frame.push(src);
    frame.push(kind);
    frame.push(DETOUR_BUDGET);
    frame.push(AVOID_NONE);
    frame.push(0); // hops taken
    frame.extend_from_slice(payload);
    frame
}

/// Per-node routing table: the watchable status handles of every
/// dimension's link pair, resolved once at daemon start. Each routing
/// decision then reads a handful of shared liveness flags — no node-state
/// borrow, no channel clones, no per-dimension scan through the wiring —
/// and picks the outgoing dimension with bit arithmetic on the live mask.
/// Liveness is re-read per hop, so fault-plan link kills are visible
/// immediately (the status flags are the same cells the fault plan flips).
struct RouteTable {
    dims: Vec<Option<(LinkStatus, LinkStatus)>>,
}

impl RouteTable {
    fn new(ctx: &NodeCtx, cube: Hypercube) -> RouteTable {
        RouteTable {
            dims: (0..cube.dim() as usize)
                .map(|d| ctx.link_statuses(d))
                .collect(),
        }
    }

    /// Bitmask of dimensions whose link pair is currently alive.
    fn live_mask(&self) -> u32 {
        let mut mask = 0u32;
        for (d, pair) in self.dims.iter().enumerate() {
            if let Some((out, inp)) = pair {
                if out.is_up() && inp.is_up() {
                    mask |= 1 << d;
                }
            }
        }
        mask
    }
}

/// Per-node endpoint for routed messaging.
#[derive(Clone)]
pub struct RouterHandle {
    me: u32,
    ctx: NodeCtx,
    inject: LinkChannel,
    deliver: Mailbox<(u32, Vec<u32>)>,
    daemon: std::rc::Rc<JoinHandle<u64>>,
}

impl RouterHandle {
    /// Send `payload` to node `dst` (any node, any distance). Completes
    /// when the message has left this node; errors instead of hanging if
    /// this node's daemon is dead (the node crashed).
    pub async fn send_to(&self, dst: u32, payload: Vec<u32>) -> Result<(), ts_link::LinkError> {
        let frame = frame_for(dst, self.me, KIND_DATA, &payload);
        self.inject.try_send(self.ctx.handle(), frame).await
    }

    /// Receive the next message delivered to this node: `(source, payload)`.
    pub async fn recv(&self) -> (u32, Vec<u32>) {
        self.deliver.recv().await
    }

    /// Non-blocking receive.
    pub fn try_recv(&self) -> Option<(u32, Vec<u32>)> {
        self.deliver.try_recv()
    }

    /// The node context behind this endpoint (clock access etc.).
    pub fn ctx(&self) -> &NodeCtx {
        &self.ctx
    }
}

/// The running router fabric: one daemon per node.
pub struct Router {
    handles: Vec<RouterHandle>,
    cube: Hypercube,
}

impl Router {
    /// Spawn router daemons on every node of the machine.
    pub fn start(machine: &Machine) -> Router {
        let cube = machine.cube;
        // Loopback params: injection is a memory handoff, not a wire — give
        // it a line rate fast enough to be negligible (1 Gbit/s, no DMA
        // startup beyond 1 ns).
        let loop_params = LinkParams {
            bit_rate: 1_000_000_000,
            frame_bits: 8,
            ack_bits: 0,
            turnaround_bits: 0,
            dma_startup: Dur::ns(1),
        };
        let mut handles = Vec::with_capacity(machine.nodes.len());
        for node in &machine.nodes {
            let ctx = node.ctx();
            let mut inject = LinkChannel::new(Wire::new("router.loopback", loop_params));
            // The loopback dies with the node, so injection into a crashed
            // node's daemon errors instead of hanging.
            inject.set_status(node.health());
            let deliver = Mailbox::new();
            let daemon_ctx = ctx.clone();
            let daemon_inject = inject.clone();
            let daemon_deliver = deliver.clone();
            let daemon =
                ctx.handle()
                    .spawn(daemon(daemon_ctx, cube, daemon_inject, daemon_deliver));
            handles.push(RouterHandle {
                me: node.id,
                ctx,
                inject,
                deliver,
                daemon: std::rc::Rc::new(daemon),
            });
        }
        Router { handles, cube }
    }

    /// This node's endpoint.
    pub fn handle(&self, node: u32) -> RouterHandle {
        self.handles[node as usize].clone()
    }

    /// Stop every daemon by routing poison to each node, highest address
    /// first (host task; await it before expecting quiescence).
    ///
    /// Tolerates a degraded fabric: poisons are injected from the lowest
    /// *live* node (detouring around dead links like any message), poisons
    /// to crashed nodes are simply dropped en route, and a crashed node's
    /// daemon has already been torn down by its health watch.
    pub async fn shutdown(self) -> u64 {
        let cube = self.cube;
        // A poison to node k only transits submasks of k (any correction
        // order), which are poisoned later, so every forwarder is alive.
        let injector = self.handles.iter().find(|h| !h.ctx.is_crashed()).cloned();
        if let Some(h0) = injector {
            // The injector's own poison must go last — its daemon has to
            // stay alive to accept every other injection.
            let order = (0..cube.nodes())
                .rev()
                .filter(|&d| d != h0.me)
                .chain([h0.me]);
            for dst in order {
                let frame = frame_for(dst, h0.me, KIND_POISON, &[]);
                // A poison for a dead node may be refused; skip it.
                let _ = h0.inject.try_send(h0.ctx.handle(), frame).await;
            }
        }
        // Collect forwarding counts.
        let mut total = 0;
        for h in &self.handles {
            // The daemon finishes once its poison (or crash) arrives. If a
            // routed poison was dropped by the degraded fabric, poison the
            // straggler directly through its loopback after a grace period
            // (the system board's reset line).
            let mut waited = 0u32;
            while !h.daemon.is_finished() {
                h.ctx.handle().sleep(Dur::us(100)).await;
                waited += 1;
                if waited == 2000 {
                    let frame = frame_for(h.me, h.me, KIND_POISON, &[]);
                    let hh = h.clone();
                    h.ctx.handle().spawn(async move {
                        let send = Box::pin(hh.inject.try_send(hh.ctx.handle(), frame));
                        let timeout = hh.ctx.handle().sleep(FORWARD_DEADLINE);
                        let _ = ts_sim::select2(send, timeout).await;
                    });
                }
            }
            total += h.daemon.try_take().unwrap_or(0);
        }
        total
    }
}

/// The per-node router daemon. Returns the number of messages forwarded.
async fn daemon(
    ctx: NodeCtx,
    cube: Hypercube,
    inject: LinkChannel,
    deliver: Mailbox<(u32, Vec<u32>)>,
) -> u64 {
    let me = ctx.id();
    let mut forwarded = 0u64;
    let health = ctx.health();
    // Distribution of hop counts over messages delivered *here*
    // (`node/{id}/router/hops` in the machine registry).
    let hops_hist = ctx.meters().scope().histogram("router/hops");
    // Prepared once: the ALT branch set (loopback first, for priority, then
    // each cube dimension) and the routing table. Every message the daemon
    // ever handles reuses both — nothing is rebuilt per iteration.
    let alt = {
        let chans: Vec<LinkChannel> = std::iter::once(inject.clone())
            .chain((0..cube.dim() as usize).map(|d| ctx.in_channel(d)))
            .collect();
        let refs: Vec<&LinkChannel> = chans.iter().collect();
        AltSet::new(&refs)
    };
    let table = Rc::new(RouteTable::new(&ctx, cube));
    loop {
        // ALT over the prepared branch set, racing the node's health flag:
        // a crash tears the daemon down.
        let frame = match alt.recv_or_down(ctx.handle(), &health).await {
            Ok((_idx, f)) => f,
            Err(_) => return forwarded, // node crashed
        };
        let dst = frame[0];
        let src = frame[1];
        let kind = frame[2];
        ctx.cp_compute(ROUTE_CP_INSTRS).await;
        if dst == me {
            match kind {
                KIND_POISON => {
                    ts_sim::pool::put_words(frame);
                    return forwarded;
                }
                _ => {
                    hops_hist.observe(frame[5] as u64);
                    deliver.send((src, frame[HDR..].to_vec()));
                    ts_sim::pool::put_words(frame);
                }
            }
        } else {
            // Forward asynchronously: a daemon blocked in a rendezvous
            // send could not keep receiving, and two daemons sending to
            // each other would deadlock (e-cube only guarantees freedom
            // from *cyclic* waits given output buffering, which this
            // models — the hardware's DMA engines are exactly that).
            let fwd = ctx.clone();
            let tbl = table.clone();
            ctx.handle().spawn(async move {
                forward_frame(fwd, tbl, frame).await;
            });
            forwarded += 1;
        }
    }
}

/// Forward one frame a hop towards its destination, degrading gracefully:
/// prefer the strict e-cube dimension, fall back to the next live
/// correction dimension, detour on a non-correction dimension within the
/// frame's budget, retry when a link dies mid-hop, and drop (with a
/// counter) when nothing is left to try.
async fn forward_frame(ctx: NodeCtx, table: Rc<RouteTable>, mut frame: Vec<u32>) {
    let me = ctx.id();
    let dst = frame[0];
    loop {
        // Liveness is re-read from the cached status handles on every
        // attempt; dimension choice is then pure bit arithmetic. Lowest set
        // bit first everywhere, matching e-cube order.
        let live = table.live_mask();
        let diff = me ^ dst;
        let ecube = diff.trailing_zeros() as usize;
        let avoid = frame[4];
        let avoid_bit = if avoid < 32 { 1u32 << avoid } else { 0 };
        // Preferred: the lowest live dimension still needing correction,
        // skipping the detour dimension we just arrived on.
        let cand = diff & live & !avoid_bit;
        let mut choice = (cand != 0).then(|| cand.trailing_zeros() as usize);
        if choice.is_none() && diff & live & avoid_bit != 0 {
            // Undoing the detour is all that is left — allowed, it just
            // costs the budget already spent.
            choice = Some(avoid as usize);
        }
        let d = match choice {
            Some(d) => {
                frame[4] = AVOID_NONE;
                d
            }
            None => {
                // Every correction dimension is dead here: detour on the
                // lowest live dimension outside the correction set.
                let budget = frame[3];
                let det = live & !diff & !avoid_bit;
                let detour = (det != 0).then(|| det.trailing_zeros() as usize);
                match (budget, detour) {
                    (1.., Some(d)) => {
                        frame[3] = budget - 1;
                        frame[4] = d as u32;
                        d
                    }
                    _ => {
                        ctx.meters().scope().counter("router/dropped").inc();
                        ts_sim::pool::put_words(frame);
                        return;
                    }
                }
            }
        };
        if d != ecube {
            ctx.meters().scope().counter("router/reroutes").inc();
        }
        // Count the hop in the (pooled) copy we send; a failed attempt
        // retries from the original frame without inflating the count.
        let mut hop = ts_sim::pool::take_words(frame.len());
        hop.extend_from_slice(&frame);
        hop[5] += 1;
        let send = Box::pin(ctx.try_send_dim(d, hop));
        match ts_sim::select2(send, ctx.handle().sleep(FORWARD_DEADLINE)).await {
            ts_sim::Either::Left(Ok(())) => {
                ts_sim::pool::put_words(frame);
                return;
            }
            ts_sim::Either::Left(Err(_)) => {
                // The link died under us: pick again.
                ctx.meters().scope().counter("router/retries").inc();
            }
            ts_sim::Either::Right(()) => {
                // Nobody took the frame within the deadline — the next
                // daemon is gone. Abandon rather than park forever.
                ctx.meters().scope().counter("router/dropped").inc();
                ts_sim::pool::put_words(frame);
                return;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::MachineCfg;

    #[test]
    fn point_to_point_across_the_cube() {
        let mut m = Machine::build(MachineCfg::cube_small_mem(3, 8));
        let router = Router::start(&m);
        let h0 = router.handle(0);
        let h7 = router.handle(7);
        let done = m.handle().spawn(async move {
            h0.send_to(7, vec![1, 2, 3]).await.unwrap();
            let (src, data) = h7.recv().await;
            router.shutdown().await;
            (src, data)
        });
        let r = m.run();
        assert!(r.quiescent, "router did not shut down cleanly");
        assert_eq!(done.try_take(), Some((0, vec![1, 2, 3])));
        // 0 → 7 in a 3-cube is exactly 3 e-cube hops, booked in the
        // receiver's hop histogram.
        let hops = m.registry().scope("node/7").histogram("router/hops");
        assert_eq!(hops.total(), 1);
        assert_eq!(hops.mean(), 3.0);
    }

    #[test]
    fn latency_scales_with_hops() {
        // 1-hop vs 3-hop delivery of the same payload.
        let time_for = |dst: u32| {
            let mut m = Machine::build(MachineCfg::cube_small_mem(3, 8));
            let router = Router::start(&m);
            let h0 = router.handle(0);
            let hd = router.handle(dst);
            let jh = m.handle().spawn(async move {
                let t0 = hd.ctx.now();
                h0.send_to(dst, vec![0u32; 64]).await.unwrap();
                hd.recv().await;
                let dt = hd.ctx.now().since(t0);
                router.shutdown().await;
                dt
            });
            assert!(m.run().quiescent);
            jh.try_take().unwrap()
        };
        let one_hop = time_for(1);
        let three_hops = time_for(7);
        let ratio = three_hops.as_secs_f64() / one_hop.as_secs_f64();
        assert!(
            (2.5..3.5).contains(&ratio),
            "3 hops should cost ~3x one hop: {ratio} ({one_hop} vs {three_hops})"
        );
    }

    #[test]
    fn reroutes_around_downed_link() {
        // Kill edge 0–1 (dimension 0 at node 0). A 0→7 message still makes
        // it in 3 hops by correcting a higher dimension first; a 0→1
        // message needs a +2-hop detour. Both must be delivered.
        let mut m = Machine::build(MachineCfg::cube_small_mem(3, 8));
        m.faults().link_down(0, 0);
        let router = Router::start(&m);
        let h0 = router.handle(0);
        let h1 = router.handle(1);
        let h7 = router.handle(7);
        let done = m.handle().spawn(async move {
            h0.send_to(7, vec![77]).await.unwrap();
            let far = h7.recv().await;
            h0.send_to(1, vec![11]).await.unwrap();
            let near = h1.recv().await;
            router.shutdown().await;
            (far, near)
        });
        let r = m.run();
        assert!(r.quiescent, "degraded routing must still terminate");
        assert_eq!(done.try_take(), Some(((0, vec![77]), (0, vec![11]))));
        let metrics = m.metrics();
        assert!(
            metrics.get("router.reroutes") >= 1,
            "detour must be counted"
        );
        // Data traffic was fully delivered (asserted above); only shutdown
        // poisons may have been dropped and recovered by the backstop.
    }

    #[test]
    fn message_to_crashed_node_dropped_without_hanging() {
        let mut m = Machine::build(MachineCfg::cube_small_mem(3, 8));
        let router = Router::start(&m);
        m.faults().crash(7);
        let h0 = router.handle(0);
        let h7 = router.handle(7);
        let done = m.handle().spawn(async move {
            // Injecting *at* the crashed node errors immediately.
            assert!(h7.send_to(0, vec![1]).await.is_err());
            // A message *to* the crashed node is dropped en route.
            h0.send_to(7, vec![9]).await.unwrap();
            router.shutdown().await
        });
        let r = m.run();
        assert!(r.quiescent, "crashed node must not strand the fabric");
        assert!(done.try_take().is_some());
        assert!(m.metrics().get("router.dropped") >= 1);
    }

    #[test]
    fn random_all_to_all_delivers_everything() {
        let mut m = Machine::build(MachineCfg::cube_small_mem(3, 8));
        let router = Router::start(&m);
        let n = 8u32;
        // Every node sends one tagged message to every other node.
        let mut workers = Vec::new();
        for i in 0..n {
            let h = router.handle(i);
            let sender = m.handle().spawn({
                let h = h.clone();
                async move {
                    for j in 0..n {
                        if j != i {
                            h.send_to(j, vec![i * 1000 + j]).await.unwrap();
                        }
                    }
                }
            });
            let recvr = m.handle().spawn(async move {
                let mut got = Vec::new();
                for _ in 0..n - 1 {
                    let (src, data) = h.recv().await;
                    got.push((src, data[0]));
                }
                got.sort_unstable();
                got
            });
            workers.push((i, sender, recvr));
        }
        let closer = m.handle().spawn(async move {
            let mut results = Vec::new();
            for (i, s, r) in workers {
                s.await;
                results.push((i, r.await));
            }
            router.shutdown().await;
            results
        });
        let rep = m.run();
        assert!(rep.quiescent, "all-to-all did not terminate");
        let results = closer.try_take().unwrap();
        for (i, got) in results {
            let want: Vec<(u32, u32)> = (0..n)
                .filter(|&j| j != i)
                .map(|j| (j, j * 1000 + i))
                .collect();
            assert_eq!(got, want, "node {i}");
        }
    }
}
