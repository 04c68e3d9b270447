//! Parallel discrete-event backend: shard the cube across OS threads.
//!
//! The machine is partitioned along its **high-order cube dimensions**:
//! with 2^s shards, shard *k* owns the contiguous node range whose top *s*
//! address bits equal *k*. Every low-dimension edge (and every 8-node
//! module, hence every system board) is then internal to one shard; only
//! the top *s* dimension-exchange passes cross shard boundaries. Each shard
//! thread builds and owns its slice of the machine — nodes, wires, boards,
//! and a private single-threaded [`Sim`] — so the whole `Rc`-based hot path
//! stays exactly as fast as the sequential backend. Only plain-data
//! [`BoundaryEnvelope`]s ever cross a thread boundary.
//!
//! ## Synchronization: instant-lockstep with delta rounds
//!
//! A boundary link is a CSP rendezvous, so the lookahead from a sender to
//! its receiver is **zero**: an event at virtual instant *T* on one shard
//! can affect another shard at the same *T*. Conservative null-message PDES
//! degenerates under zero lookahead, so the backend runs *instant
//! lockstep* instead:
//!
//! 1. every shard proposes its next event time; a barrier makes the global
//!    minimum *T* visible to all;
//! 2. every shard advances to *T* and runs every event at *T*;
//! 3. boundary protocol messages emitted at *T* are exchanged and ingested
//!    in a deterministic order, and step 2 repeats at the same *T* (a
//!    *delta round*) until no shard emits anything;
//! 4. back to step 1.
//!
//! Per-shard clocks never pass *T* inside a round, so no shard ever
//! receives an envelope from its past. The parallelism comes from SPMD
//! symmetry: a dimension-exchange step across a shard boundary puts
//! thousands of transfers at the *same* instant, and each shard serves its
//! own thousands concurrently in step 2.
//!
//! ## Determinism
//!
//! Within a delta round a shard ingests its incoming envelopes sorted by
//! [`BoundaryEnvelope::sort_key`] — `(time, directed-edge id, per-edge
//! sequence number, protocol leg)` — a total order independent of thread
//! scheduling. Everything else a shard does is single-threaded discrete
//! event simulation, which is deterministic already. The golden-digest
//! test in `crates/sim/tests/scale.rs` and the property test in
//! `crates/core/tests/parallel_eq.rs` pin the result: a parallel run is
//! **bit-identical** to the sequential backend, down to the byte-for-byte
//! utilization report.
//!
//! ## Honesty boundaries
//!
//! Shard-boundary links carry collective and kernel traffic only: transient
//! fault injection and `ALT` guards on a boundary link are rejected (the
//! link layer asserts), and the system-board ring is left open at shard
//! boundaries, so ring checkpoint traffic is unsupported when `shards > 1`.
//! Fault plans passed to [`run_parallel_faulted`] must target intra-shard
//! dimensions; the backend asserts this up front.

use std::cell::RefCell;
use std::collections::HashMap;
use std::future::Future;
use std::panic::AssertUnwindSafe;
use std::rc::Rc;
use std::sync::{Barrier, Mutex};
use std::time::Instant;

use ts_link::{BoundaryEnvelope, BoundaryOutbox, LinkChannel};
use ts_node::{Node, NodeCtx};
use ts_sim::{MetricsRegistry, Sim, Time};

use crate::report::ReportData;
use crate::system::SystemBoard;
use crate::{LinkEngines, Machine, MachineCfg};

/// Parallel-backend configuration.
#[derive(Clone, Copy, Debug)]
pub struct ParallelCfg {
    /// Shard (thread) count; must be a power of two, and small enough that
    /// every shard keeps at least one whole 8-node module
    /// (`dim - log2(shards) ≥ 3`). `shards == 1` runs the plain sequential
    /// backend.
    pub shards: u32,
    /// Record per-shard lockstep rounds (wall-clock spans) for tracing.
    pub record_rounds: bool,
}

impl ParallelCfg {
    /// `shards` threads, round recording off.
    pub fn new(shards: u32) -> ParallelCfg {
        ParallelCfg {
            shards,
            record_rounds: false,
        }
    }
}

/// One macro round of the lockstep loop on one shard, in host wall-clock —
/// the raw material for a Perfetto trace with one track per shard.
#[derive(Clone, Copy, Debug)]
pub struct ShardRound {
    /// Shard index.
    pub shard: u32,
    /// Virtual instant the round ran at, picoseconds.
    pub at_ps: u64,
    /// Wall-clock start, nanoseconds since the run began.
    pub wall_start_ns: u64,
    /// Wall-clock end, nanoseconds since the run began.
    pub wall_end_ns: u64,
    /// Timer events this shard processed during the round.
    pub events: u64,
    /// Boundary envelopes this shard emitted during the round.
    pub envelopes: u64,
}

/// A transient fault scheduled before a parallel run starts.
///
/// Only intra-shard dimensions may be targeted (`dim < dim_total -
/// log2(shards)`); the run asserts this. The sequential backend applies
/// the same plan through [`crate::FaultInjector`], with identical
/// accounting — the equivalence property test leans on that.
#[derive(Clone, Copy, Debug)]
pub enum PlannedFault {
    /// Flip `flit_bit` in `node`'s next outbound flit on `dim` (CRC catches
    /// it; the transport retransmits).
    WireCorrupt {
        /// Faulted node.
        node: u32,
        /// Cube dimension of the outbound link.
        dim: u32,
        /// Bit to flip in the flit.
        flit_bit: u64,
    },
    /// Drop `node`'s next outbound flit on `dim` (receiver times out; the
    /// window is retransmitted).
    FlitDrop {
        /// Faulted node.
        node: u32,
        /// Cube dimension of the outbound link.
        dim: u32,
    },
}

impl PlannedFault {
    fn node(&self) -> u32 {
        match *self {
            PlannedFault::WireCorrupt { node, .. } | PlannedFault::FlitDrop { node, .. } => node,
        }
    }

    fn dim(&self) -> u32 {
        match *self {
            PlannedFault::WireCorrupt { dim, .. } | PlannedFault::FlitDrop { dim, .. } => dim,
        }
    }

    /// Apply to a sequential [`Machine`] (for equivalence testing).
    pub fn apply_to(&self, m: &Machine) {
        match *self {
            PlannedFault::WireCorrupt {
                node,
                dim,
                flit_bit,
            } => m.faults().wire_corrupt(node, dim, flit_bit),
            PlannedFault::FlitDrop { node, dim } => m.faults().flit_drop(node, dim),
        }
    }
}

/// The outcome of a parallel run.
pub struct ParallelRun<R> {
    /// Per-node program results, in node order (`None` if a program never
    /// completed — only possible when the run is not quiescent).
    pub results: Vec<Option<R>>,
    /// Final virtual time (max across shards; all shards agree when the
    /// run is quiescent).
    pub final_time: Time,
    /// True when every node program ran to completion on every shard.
    pub quiescent: bool,
    /// Timer events processed, summed across shards.
    pub events: u64,
    /// Task polls serviced, summed across shards.
    pub polls: u64,
    /// The merged report capture; [`ReportData::render`] reproduces the
    /// sequential `utilization_report` byte for byte.
    pub report: ReportData,
    /// Lockstep rounds (empty unless [`ParallelCfg::record_rounds`]).
    pub rounds: Vec<ShardRound>,
}

impl<R> ParallelRun<R> {
    /// The machine-wide utilization report for this run.
    pub fn utilization_report(&self) -> String {
        self.report.render()
    }
}

/// Stable directed-edge id of the cube edge `tx_node --dim-->`.
fn edge_key(tx_node: u32, dim: u32) -> u64 {
    ((tx_node as u64) << 6) | dim as u64
}

/// Shared lockstep coordination state. Plain data under one mutex; all
/// ordering comes from the barrier.
struct CoordState {
    /// Each shard's proposed next event time (ps), `None` when idle.
    next: Vec<Option<u64>>,
    /// Envelopes emitted by each shard in the current delta round.
    out_counts: Vec<usize>,
    /// Per-destination mailboxes for the current delta round.
    mail: Vec<Vec<BoundaryEnvelope>>,
}

struct Coord {
    barrier: Barrier,
    state: Mutex<CoordState>,
}

/// One shard's slice of the machine.
struct ShardMachine {
    sim: Sim,
    nodes: Vec<Node>,
    boards: Vec<SystemBoard>,
    /// Boundary sublinks by directed-edge id, for envelope ingestion.
    channels: HashMap<u64, LinkChannel>,
    outbox: BoundaryOutbox,
    lo: u32,
    registry: MetricsRegistry,
}

/// What a shard thread hands back to the coordinator: plain `Send` data.
struct ShardOutcome<R> {
    results: Vec<Option<R>>,
    report: ReportData,
    final_ps: u64,
    live: usize,
    events: u64,
    polls: u64,
    rounds: Vec<ShardRound>,
}

/// Run one SPMD program per node on the parallel backend.
///
/// Equivalent to `Machine::build` + `launch` + `run`, but sharded across
/// `pcfg.shards` OS threads. Results, final virtual time, and the
/// utilization report are bit-identical to the sequential backend.
pub fn run_parallel<F, Fut, R>(cfg: MachineCfg, pcfg: &ParallelCfg, program: F) -> ParallelRun<R>
where
    F: Fn(NodeCtx) -> Fut + Clone + Send,
    Fut: Future<Output = R> + 'static,
    R: Send + 'static,
{
    run_parallel_faulted(cfg, pcfg, &[], program)
}

/// [`run_parallel`] with a transient-fault plan applied before launch.
pub fn run_parallel_faulted<F, Fut, R>(
    cfg: MachineCfg,
    pcfg: &ParallelCfg,
    faults: &[PlannedFault],
    program: F,
) -> ParallelRun<R>
where
    F: Fn(NodeCtx) -> Fut + Clone + Send,
    Fut: Future<Output = R> + 'static,
    R: Send + 'static,
{
    assert!(
        pcfg.shards.is_power_of_two(),
        "shard count must be a power of two, got {}",
        pcfg.shards
    );
    if pcfg.shards == 1 {
        return run_sequential(cfg, faults, program);
    }
    assert!(
        cfg.budget.supports(cfg.dim),
        "sublink budget supports at most a {}-cube",
        cfg.budget.max_dim()
    );
    let shard_bits = pcfg.shards.trailing_zeros();
    assert!(
        cfg.dim >= shard_bits + 3,
        "each shard must keep a whole 8-node module: a {}-cube supports at most {} shards",
        cfg.dim,
        1u32 << (cfg.dim.saturating_sub(3)),
    );
    let local_bits = cfg.dim - shard_bits;
    let n = pcfg.shards as usize;
    // Validate the fault plan before any thread spawns: a panic inside a
    // shard aborts the whole process (see the barrier note below).
    for f in faults {
        assert!(
            f.dim() < local_bits,
            "transient fault on a cross-shard dimension ({}) is unsupported in parallel runs",
            f.dim()
        );
        assert!(
            f.node() >> cfg.dim == 0,
            "fault targets node {} outside the {}-cube",
            f.node(),
            cfg.dim
        );
    }

    let coord = Coord {
        barrier: Barrier::new(n),
        state: Mutex::new(CoordState {
            next: vec![None; n],
            out_counts: vec![0; n],
            mail: (0..n).map(|_| Vec::new()).collect(),
        }),
    };
    let epoch = Instant::now();

    let mut outcomes: Vec<ShardOutcome<R>> = Vec::with_capacity(n);
    std::thread::scope(|s| {
        let mut joins = Vec::with_capacity(n);
        for me in 0..n {
            let program = program.clone();
            let coord = &coord;
            let cfg = &cfg;
            joins.push(s.spawn(move || {
                // A panicking shard would strand its peers at the barrier;
                // turn that hang into a loud abort (the panic message has
                // already printed by the time we get here).
                let body = AssertUnwindSafe(|| {
                    shard_body(
                        cfg,
                        me,
                        local_bits,
                        coord,
                        faults,
                        pcfg.record_rounds,
                        epoch,
                        program,
                    )
                });
                match std::panic::catch_unwind(body) {
                    Ok(out) => out,
                    Err(_) => {
                        eprintln!("shard {me} panicked; aborting the parallel run");
                        std::process::abort();
                    }
                }
            }));
        }
        for j in joins {
            outcomes.push(j.join().expect("shard thread failed"));
        }
    });

    let peak = cfg.specs().peak_mflops;
    let mut results = Vec::with_capacity(1usize << cfg.dim);
    let mut parts = Vec::with_capacity(n);
    let mut rounds = Vec::new();
    let (mut final_ps, mut events, mut polls, mut live) = (0u64, 0u64, 0u64, 0usize);
    for out in outcomes {
        results.extend(out.results);
        parts.push(out.report);
        rounds.extend(out.rounds);
        final_ps = final_ps.max(out.final_ps);
        events += out.events;
        polls += out.polls;
        live += out.live;
    }
    rounds.sort_by_key(|r| (r.wall_start_ns, r.shard));
    ParallelRun {
        results,
        final_time: Time(final_ps),
        quiescent: live == 0,
        events,
        polls,
        report: ReportData::merge(parts, peak),
        rounds,
    }
}

/// The `shards == 1` degenerate case: the plain sequential backend.
fn run_sequential<F, Fut, R>(cfg: MachineCfg, faults: &[PlannedFault], program: F) -> ParallelRun<R>
where
    F: Fn(NodeCtx) -> Fut,
    Fut: Future<Output = R> + 'static,
    R: 'static,
{
    let mut m = Machine::build(cfg);
    for f in faults {
        f.apply_to(&m);
    }
    let handles = m.launch(program);
    let rep = m.run();
    let prof = m.profile();
    ParallelRun {
        results: handles.into_iter().map(|h| h.try_take()).collect(),
        final_time: m.now(),
        quiescent: rep.quiescent,
        events: prof.timer_events,
        polls: prof.polls,
        report: m.report_data(),
        rounds: Vec::new(),
    }
}

/// Everything one shard thread does: build its slice, launch its node
/// programs, run the lockstep loop, capture its partial report.
#[allow(clippy::too_many_arguments)]
fn shard_body<F, Fut, R>(
    cfg: &MachineCfg,
    me: usize,
    local_bits: u32,
    coord: &Coord,
    faults: &[PlannedFault],
    record_rounds: bool,
    epoch: Instant,
    program: F,
) -> ShardOutcome<R>
where
    F: Fn(NodeCtx) -> Fut,
    Fut: Future<Output = R> + 'static,
    R: 'static,
{
    let mut sm = build_shard(cfg, me as u32, local_bits);

    for f in faults {
        if (f.node() >> local_bits) as usize != me {
            continue;
        }
        debug_assert!(f.dim() < local_bits, "plan validated by the coordinator");
        let n = &sm.nodes[(f.node() - sm.lo) as usize];
        match *f {
            PlannedFault::WireCorrupt { dim, flit_bit, .. } => {
                n.queue_wire_corrupt(dim as usize, flit_bit);
                n.meters().scope().counter("fault/wire_corrupt").inc();
            }
            PlannedFault::FlitDrop { dim, .. } => {
                n.queue_flit_drop(dim as usize);
                n.meters().scope().counter("fault/flit_drop").inc();
            }
        }
    }

    let mut handles = Vec::with_capacity(sm.nodes.len());
    for node in &sm.nodes {
        let fut = program(node.ctx());
        handles.push(sm.sim.spawn(fut));
    }

    let mut rounds = Vec::new();
    let mut last_events = 0u64;
    loop {
        // Propose this shard's next event time; the barrier publishes all
        // proposals, then every shard reads the same global minimum.
        {
            let mut st = coord.state.lock().unwrap();
            st.next[me] = sm.sim.next_event_time().map(|t| t.as_ps());
        }
        coord.barrier.wait();
        let t_ps = {
            let st = coord.state.lock().unwrap();
            st.next.iter().filter_map(|&t| t).min()
        };
        // No barrier needed after the read: the delta loop below crosses at
        // least one more barrier before any shard writes `next` again.
        let Some(t_ps) = t_ps else { break };
        let t = Time(t_ps);
        let wall_start_ns = epoch.elapsed().as_nanos() as u64;
        let mut envelopes = 0u64;

        // Run everything at T, then exchange boundary envelopes and repeat
        // at the same T until the whole machine has nothing left to say.
        sm.sim.advance_to(t);
        sm.sim.run_until(t);
        loop {
            let out: Vec<BoundaryEnvelope> = sm.outbox.borrow_mut().drain(..).collect();
            envelopes += out.len() as u64;
            {
                let mut st = coord.state.lock().unwrap();
                st.out_counts[me] = out.len();
                for env in out {
                    st.mail[env.to_shard as usize].push(env);
                }
            }
            coord.barrier.wait();
            let (total, mut mine) = {
                let mut st = coord.state.lock().unwrap();
                let total: usize = st.out_counts.iter().sum();
                (total, std::mem::take(&mut st.mail[me]))
            };
            coord.barrier.wait();
            if total == 0 {
                debug_assert!(mine.is_empty());
                break;
            }
            // Deterministic ingestion order, independent of which thread
            // pushed first: time, then edge id, then sequence, then leg.
            mine.sort_by_key(|e| e.sort_key());
            let h = sm.sim.handle();
            for env in mine {
                let ch = sm
                    .channels
                    .get(&env.edge)
                    .expect("boundary envelope for unknown edge");
                ch.boundary_ingest(&h, env);
            }
            sm.sim.run_until(t);
        }

        if record_rounds && rounds.len() < (1 << 20) {
            let events = sm.sim.profile().timer_events;
            rounds.push(ShardRound {
                shard: me as u32,
                at_ps: t_ps,
                wall_start_ns,
                wall_end_ns: epoch.elapsed().as_nanos() as u64,
                events: events - last_events,
                envelopes,
            });
            last_events = events;
        }
    }

    let live = sm.sim.live_tasks();
    let prof = sm.sim.profile();
    ShardOutcome {
        results: handles.into_iter().map(|h| h.try_take()).collect(),
        report: ReportData::capture(sm.sim.now(), &sm.nodes, &sm.boards, &sm.registry),
        final_ps: sm.sim.now().as_ps(),
        live,
        events: prof.timer_events,
        polls: prof.polls,
        rounds,
    }
}

/// Build shard `shard`'s slice of the machine: the same wiring as
/// `Machine::build`, with boundary sublinks standing in for cube edges
/// whose far endpoint lives on another shard.
fn build_shard(cfg: &MachineCfg, shard: u32, local_bits: u32) -> ShardMachine {
    let sim = Sim::new();
    let h = sim.handle();
    let cube = ts_cube::Hypercube::new(cfg.dim);
    let registry = MetricsRegistry::new();
    let lo = shard << local_bits;
    let hi = lo + (1u32 << local_bits);
    let li = |id: u32| (id - lo) as usize;
    let nodes: Vec<Node> = (lo..hi)
        .map(|id| Node::with_registry(id, cfg.node, h.clone(), &registry))
        .collect();

    let engines = LinkEngines::new(nodes.len(), cfg.node.link);
    let outbox: BoundaryOutbox = Rc::new(RefCell::new(Vec::new()));
    let mut channels: HashMap<u64, LinkChannel> = HashMap::new();

    // Dimensions below `local_bits` stay inside the shard and are wired
    // exactly as in `Machine::build`; higher dimensions cross to the
    // neighbor shard and get a boundary half on each side.
    for d in 0..cfg.dim {
        let l = (d % 4) as usize;
        for a in lo..hi {
            let b = cube.neighbor(a, d);
            if b >> local_bits == shard {
                if a < b {
                    engines.wire_edge(&nodes, d, li(a), li(b));
                }
                continue;
            }
            let peer = b >> local_bits;
            let node = &nodes[li(a)];
            // Outbound half: `a` transmits to remote `b` on edge (a,d).
            let mut out = LinkChannel::new_boundary_tx(
                engines.out[li(a)][l].clone(),
                edge_key(a, d),
                peer,
                outbox.clone(),
            );
            out.set_meters(node.meters().link_tx(), Default::default());
            // Inbound half: remote `b` transmits to `a` on edge (b,d).
            let mut inp = LinkChannel::new_boundary_rx(
                engines.inp[li(a)][l].clone(),
                edge_key(b, d),
                peer,
                outbox.clone(),
            );
            inp.set_meters(Default::default(), node.meters().link_rx());
            channels.insert(edge_key(a, d), out.clone());
            channels.insert(edge_key(b, d), inp.clone());
            node.wire_dim(d as usize, out, inp);
        }
    }

    // System boards: shards are whole numbers of 8-node modules, so every
    // board is internal to exactly one shard.
    let boards: Vec<SystemBoard> = (lo / 8..hi / 8)
        .map(|m| {
            let first = li(m * 8);
            engines.system_board(m as usize, &nodes, first..first + 8, &h, cfg)
        })
        .collect();
    // Ring links between consecutive boards of this shard. The ring stays
    // open at shard boundaries: checkpoint traffic over the global ring is
    // unsupported on the parallel backend.
    for i in 1..boards.len() {
        let ch = LinkChannel::new_pair(
            boards[i - 1].wire_out().clone(),
            boards[i].wire_in().clone(),
        );
        boards[i - 1].set_ring_next(ch.clone());
        boards[i].set_ring_prev(ch);
    }

    ShardMachine {
        sim,
        nodes,
        boards,
        channels,
        outbox,
        lo,
        registry,
    }
}
