//! # t-series-core — the whole machine
//!
//! Assembles nodes into the homogeneous system of §III:
//!
//! * [`Machine`] — 2ⁿ nodes wired as a binary n-cube. Dimension *d* of the
//!   cube rides physical link *d mod 4* on each node, so a large cube's
//!   dimensions genuinely share the four link engines the way the sublink
//!   multiplexing does in hardware.
//! * **Modules** — every 8 nodes (a 3-subcube) get a [`system::SystemBoard`]
//!   with a disk; boards chain into the **system ring**, independent of the
//!   hypercube network. Snapshots for checkpoint/restart flow over the
//!   system thread exactly as §III describes — which is why they take the
//!   same ~16 s no matter how big the machine is.
//! * [`collectives`] — broadcast / reduce / all-reduce / all-gather /
//!   barrier on binomial trees and dimension exchange: the communication
//!   library every kernel builds on.
//! * [`checkpoint`] — snapshot-interval policy: Young's approximation and a
//!   Monte-Carlo failure/replay simulation (experiment E8).
//! * [`baseline`] — the §I comparison points: a bus-based shared-memory
//!   machine model and interconnect cost counts (experiment E13).
//!
//! ```no_run
//! use t_series_core::{Machine, MachineCfg};
//!
//! let mut m = Machine::build(MachineCfg::cube(2));
//! let handles = m.launch(|ctx| async move { ctx.id() * 10 });
//! m.run();
//! assert_eq!(handles[3].try_take(), Some(30));
//! ```

#![deny(missing_docs)]

pub mod baseline;
pub mod checkpoint;
pub mod collectives;
pub mod fault;
pub mod model;
pub mod parallel;
pub mod report;
pub mod router;
pub mod supervisor;
pub mod system;

use std::fmt;

pub use ts_cube::Hypercube;
use ts_cube::{NodeId, Subcube, SublinkBudget};
use ts_link::{LinkChannel, LinkParams, Wire};
use ts_node::{Node, NodeCfg, NodeCtx};
use ts_sim::{Dur, JoinHandle, Metrics, MetricsRegistry, RunReport, Sim, SimHandle, Time};

use crate::system::{Disk, SystemBoard};

/// Peak floating-point rate of one node, MFLOPS (§II).
pub const NODE_PEAK_MFLOPS: f64 = 16.0;

/// Machine configuration.
#[derive(Clone, Copy, Debug)]
pub struct MachineCfg {
    /// Cube dimension (nodes = 2^dim).
    pub dim: u32,
    /// Per-node configuration.
    pub node: NodeCfg,
    /// Sublink allocation policy (validates the dimension).
    pub budget: SublinkBudget,
    /// Disk write rate per system board, bytes/second.
    pub disk_rate: f64,
}

impl MachineCfg {
    /// A cube of `dim` dimensions with the paper's node configuration.
    pub fn cube(dim: u32) -> MachineCfg {
        MachineCfg {
            dim,
            node: NodeCfg::default(),
            budget: SublinkBudget::default(),
            disk_rate: 1.0e6, // 1 MB/s Winchester-class disk
        }
    }

    /// A cube with **all** board-level sublinks ganged for cube dimensions:
    /// the paper's full-machine budget, reaching the 14-cube (16,384 nodes)
    /// by giving up the spare I/O sublinks that the default budget reserves.
    /// Uses small per-node memory so host RAM survives the node count.
    pub fn cube_max(dim: u32) -> MachineCfg {
        let mut cfg = MachineCfg::cube_small_mem(dim, 4);
        cfg.budget = SublinkBudget { system: 2, io: 0 };
        cfg
    }

    /// Same cube but with reduced per-node memory (large machines on small
    /// hosts). `rows` must be a multiple of 4.
    pub fn cube_small_mem(dim: u32, rows: usize) -> MachineCfg {
        let mut cfg = MachineCfg::cube(dim);
        cfg.node.mem = ts_mem::MemCfg::small(rows);
        cfg
    }

    /// Derived headline specifications (§III's scaling table).
    pub fn specs(&self) -> Specs {
        let cube = Hypercube::new(self.dim);
        let nodes = cube.nodes() as u64;
        Specs {
            dim: self.dim,
            nodes,
            modules: cube.modules() as u64,
            cabinets: cube.cabinets() as u64,
            peak_mflops: nodes as f64 * NODE_PEAK_MFLOPS,
            memory_bytes: nodes * self.node.mem.bytes() as u64,
            disks: cube.modules() as u64,
            // 8 nodes × 3 intramodule dimensions × 0.5 MB/s each way.
            intramodule_mb_per_s: 8.0 * 3.0 * self.node.link.effective_mb_per_s(),
            max_hops: self.dim,
        }
    }
}

/// Headline numbers for a configuration (experiment E7).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Specs {
    /// Cube dimension.
    pub dim: u32,
    /// Node count.
    pub nodes: u64,
    /// 8-node modules.
    pub modules: u64,
    /// 16-node cabinets.
    pub cabinets: u64,
    /// Aggregate peak MFLOPS.
    pub peak_mflops: f64,
    /// Total user memory.
    pub memory_bytes: u64,
    /// System disks (one per module).
    pub disks: u64,
    /// Local inter-node bandwidth within a module, MB/s (paper: "over 12").
    pub intramodule_mb_per_s: f64,
    /// Network diameter (max hops) — O(log₂ p).
    pub max_hops: u32,
}

/// Why a machine-level snapshot or restore could not complete.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum MachineError {
    /// A restore image set or a checkpoint store holds a different number
    /// of images than the machine has nodes.
    BadImageCount {
        /// Nodes in the machine.
        expected: usize,
        /// Images supplied (or nodes the store was sized for).
        got: usize,
    },
    /// An image's word count does not match the node's memory geometry.
    BadImageGeometry {
        /// The mismatched node.
        node: NodeId,
        /// Words the node's memory holds.
        expected: usize,
        /// Words the image holds.
        got: usize,
    },
    /// The operation needs `node` alive, but its control processor is
    /// crashed (reboot first, then restore).
    NodeDown {
        /// The dead node.
        node: NodeId,
    },
    /// The simulated procedure deadlocked before completing (a system
    /// thread is down, or unrelated tasks wedged the simulation).
    Stalled {
        /// Which procedure stalled.
        op: &'static str,
    },
    /// Restore was requested from a [`checkpoint::CheckpointStore`] that
    /// has never committed a snapshot.
    NoCheckpoint,
}

impl fmt::Display for MachineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            MachineError::BadImageCount { expected, got } => {
                write!(f, "expected {expected} snapshot images, got {got}")
            }
            MachineError::BadImageGeometry {
                node,
                expected,
                got,
            } => {
                write!(
                    f,
                    "image for n{node} has {got} words, memory holds {expected}"
                )
            }
            MachineError::NodeDown { node } => write!(f, "node n{node} is down"),
            MachineError::Stalled { op } => write!(f, "{op} deadlocked before completing"),
            MachineError::NoCheckpoint => {
                write!(f, "checkpoint store holds no committed version")
            }
        }
    }
}

impl std::error::Error for MachineError {}

/// A complete, wired T Series machine plus its simulation.
pub struct Machine {
    /// The interconnect shape.
    pub cube: Hypercube,
    /// All nodes, indexed by hypercube address.
    pub nodes: Vec<Node>,
    /// One system board per module, in module order.
    pub boards: Vec<SystemBoard>,
    cfg: MachineCfg,
    sim: Sim,
    registry: MetricsRegistry,
}

impl Machine {
    /// Build and wire the machine.
    ///
    /// Panics if the sublink budget cannot support `cfg.dim` (a 13-cube
    /// needs the I/O sublinks the default allocation reserves — §III).
    pub fn build(cfg: MachineCfg) -> Machine {
        assert!(
            cfg.budget.supports(cfg.dim),
            "sublink budget supports at most a {}-cube",
            cfg.budget.max_dim()
        );
        let sim = Sim::new();
        let h = sim.handle();
        let cube = Hypercube::new(cfg.dim);
        let registry = MetricsRegistry::new();
        let nodes: Vec<Node> = cube
            .iter()
            .map(|id| Node::with_registry(id, cfg.node, h.clone(), &registry))
            .collect();

        let engines = LinkEngines::new(nodes.len(), cfg.node.link);
        for d in 0..cfg.dim {
            for a in cube.iter() {
                let b = cube.neighbor(a, d);
                if a < b {
                    engines.wire_edge(&nodes, d, a as usize, b as usize);
                }
            }
        }

        // System boards: one per 8-node module. Boards chain in a ring.
        let module_count = cube.modules() as usize;
        let boards: Vec<SystemBoard> = (0..module_count)
            .map(|m| {
                let hi = ((m + 1) * 8).min(nodes.len());
                engines.system_board(m, &nodes, m * 8..hi, &h, &cfg)
            })
            .collect();
        // Ring links between consecutive boards (independent of the cube).
        if module_count > 1 {
            for m in 0..module_count {
                let next = (m + 1) % module_count;
                let ch = LinkChannel::new_pair(
                    boards[m].wire_out().clone(),
                    boards[next].wire_in().clone(),
                );
                boards[m].set_ring_next(ch.clone());
                boards[next].set_ring_prev(ch);
            }
        }

        Machine {
            cube,
            nodes,
            boards,
            cfg,
            sim,
            registry,
        }
    }

    /// The configuration this machine was built from.
    pub fn cfg(&self) -> &MachineCfg {
        &self.cfg
    }

    /// Simulation handle (for host-side tasks).
    pub fn handle(&self) -> SimHandle {
        self.sim.handle()
    }

    /// Current virtual time.
    pub fn now(&self) -> Time {
        self.sim.now()
    }

    /// A node's program context.
    pub fn ctx(&self, id: NodeId) -> NodeCtx {
        self.nodes[id as usize].ctx()
    }

    /// Launch one program per node (SPMD). Returns the join handles in
    /// node order; call [`Machine::run`] to execute.
    pub fn launch<F, Fut>(&mut self, mut program: F) -> Vec<JoinHandle<Fut::Output>>
    where
        F: FnMut(NodeCtx) -> Fut,
        Fut: std::future::Future + 'static,
        Fut::Output: 'static,
    {
        let mut handles = Vec::with_capacity(self.nodes.len());
        for node in &self.nodes {
            let fut = program(node.ctx());
            handles.push(self.sim.spawn(fut));
        }
        handles
    }

    /// Launch a program on a single node. The future should capture that
    /// node's [`NodeCtx`] (obtained via [`Machine::ctx`]); the `id` names
    /// the intended node for readers and debug assertions.
    pub fn launch_on<Fut>(&mut self, id: NodeId, fut: Fut) -> JoinHandle<Fut::Output>
    where
        Fut: std::future::Future + 'static,
        Fut::Output: 'static,
    {
        debug_assert!((id as usize) < self.nodes.len(), "no node {id}");
        self.sim.spawn(fut)
    }

    /// Run the simulation to quiescence.
    pub fn run(&mut self) -> RunReport {
        self.sim.run()
    }

    /// Executor profile counters (polls, timer events, spawns, heap
    /// high-water mark) accumulated since the machine was built. The scale
    /// benchmarks divide `timer_events` by host wall-clock to get the
    /// simulator's events/sec throughput.
    pub fn profile(&self) -> ts_sim::ExecProfile {
        self.sim.profile()
    }

    // --- space sharing ------------------------------------------------------

    /// A node's program context relabeled into `sub`'s coordinates: the
    /// context reports virtual id `virt` and maps virtual dimension `k`
    /// onto physical dimension `sub.dims()[k]`, so kernels and
    /// collectives written for a dim-`sub.dim()` cube run unmodified
    /// inside the partition.
    pub fn subcube_ctx(&self, sub: &Subcube, virt: NodeId) -> NodeCtx {
        let phys = sub.to_phys(virt);
        let dims: Vec<usize> = sub.dims().iter().map(|&d| d as usize).collect();
        self.nodes[phys as usize].ctx().subcube_view(virt, dims)
    }

    /// Launch one program per node of the partition (SPMD over the
    /// subcube, in virtual node order). Counterpart of
    /// [`Machine::launch`] for space-shared operation.
    pub fn launch_subcube<F, Fut>(
        &mut self,
        sub: &Subcube,
        mut program: F,
    ) -> Vec<JoinHandle<Fut::Output>>
    where
        F: FnMut(NodeCtx) -> Fut,
        Fut: std::future::Future + 'static,
        Fut::Output: 'static,
    {
        let mut handles = Vec::with_capacity(sub.len() as usize);
        for virt in 0..sub.len() {
            let fut = program(self.subcube_ctx(sub, virt));
            handles.push(self.sim.spawn(fut));
        }
        handles
    }

    /// Host-side capture of a partition's node memories, in virtual node
    /// order. Takes zero simulated time — callers that model the §III
    /// system-thread streaming cost (as `ts-sched` does for job
    /// checkpoints) charge it separately.
    pub fn subcube_images(&self, sub: &Subcube) -> Vec<Vec<u32>> {
        (0..sub.len())
            .map(|v| self.nodes[sub.to_phys(v) as usize].mem().snapshot())
            .collect()
    }

    /// Host-side restore of a partition's node memories from images in
    /// virtual node order (the job-migration path: the images may have
    /// been captured on a *different* subcube of the same dim). Zero
    /// simulated time; see [`Machine::subcube_images`].
    pub fn restore_subcube(&self, sub: &Subcube, images: &[Vec<u32>]) -> Result<(), MachineError> {
        if images.len() != sub.len() as usize {
            return Err(MachineError::BadImageCount {
                expected: sub.len() as usize,
                got: images.len(),
            });
        }
        for (v, image) in images.iter().enumerate() {
            let node = &self.nodes[sub.to_phys(v as NodeId) as usize];
            let expected = node.mem().cfg().words();
            if image.len() != expected {
                return Err(MachineError::BadImageGeometry {
                    node: node.id,
                    expected,
                    got: image.len(),
                });
            }
            if node.is_crashed() {
                return Err(MachineError::NodeDown { node: node.id });
            }
        }
        for (v, image) in images.iter().enumerate() {
            let node = &self.nodes[sub.to_phys(v as NodeId) as usize];
            let mut mem = node.mem_mut();
            mem.scrub_all();
            mem.restore(image);
        }
        Ok(())
    }

    // --- fault injection ----------------------------------------------------

    /// The machine's fault-injection facade: every way of breaking (or
    /// repairing) hardware, in one place.
    pub fn faults(&self) -> FaultInjector<'_> {
        FaultInjector { m: self }
    }

    /// Run at most `d` further virtual time.
    pub fn run_for(&mut self, d: Dur) -> RunReport {
        self.sim.run_for(d)
    }

    /// The machine-wide metrics registry: every node's unit meters under
    /// `node/{id}/...`, plus whatever routers and collectives register.
    pub fn registry(&self) -> &MetricsRegistry {
        &self.registry
    }

    /// Machine-wide totals: every node's counters and busy-times summed
    /// by unit and metric (`node/3/link/bytes_sent` → `link.bytes_sent`).
    pub fn metrics(&self) -> Metrics {
        self.registry.rollup("node")
    }

    /// Achieved MFLOPS across the machine for the elapsed simulated time.
    pub fn achieved_mflops(&self) -> f64 {
        let flops: u64 = self.nodes.iter().map(|n| n.meters().vec_flops.get()).sum();
        let t = self.now().as_secs_f64();
        if t == 0.0 {
            0.0
        } else {
            flops as f64 / t / 1e6
        }
    }

    /// Attach an execution tracer across the whole machine:
    ///
    /// * busy spans on every node's hardware units (`n<id>.cp`, `n<id>.vec`,
    ///   `n<id>.port`) and link engines (`n<id>.l<l>`);
    /// * flow arrows from sender to receiver link track for every message
    ///   delivered over a cube edge.
    ///
    /// Export with [`ts_sim::write_trace`] for ui.perfetto.dev.
    pub fn enable_tracing(&self) -> ts_sim::Tracer {
        let tracer = ts_sim::Tracer::new();
        for node in &self.nodes {
            node.attach_tracer(&tracer);
        }
        for a in self.cube.iter() {
            for d in 0..self.cfg.dim {
                let b = self.cube.neighbor(a, d);
                let l = (d % 4) as usize;
                if let Some(ch) = self.nodes[a as usize].out_channel(d as usize) {
                    ch.wire()
                        .resource()
                        .attach_tracer(tracer.clone(), format!("n{a}.l{l}"));
                    let from = tracer.track(&format!("n{a}.l{l}"));
                    let to = tracer.track(&format!("n{b}.l{l}"));
                    ch.enable_flow_trace(tracer.clone(), from, to);
                }
            }
        }
        tracer
    }

    /// A per-node utilization report for the elapsed run: vector-unit and
    /// control-processor busy fractions, flops, and link traffic. The kind
    /// of post-mortem the machine's system software would print.
    pub fn utilization_report(&self) -> String {
        self.report_data().render()
    }

    /// Capture everything [`Machine::utilization_report`] prints as plain
    /// `Send` data. The parallel backend captures one of these per shard and
    /// merges them in shard order; rendering the merged capture reproduces
    /// the sequential report byte for byte.
    pub fn report_data(&self) -> report::ReportData {
        report::ReportData {
            peak_mflops: self.cfg.specs().peak_mflops,
            ..report::ReportData::capture(self.now(), &self.nodes, &self.boards, &self.registry)
        }
    }

    /// Take a coordinated snapshot of every node's memory through the
    /// system boards and disks (§III), as a simulated procedure. Returns
    /// the images (node order) and the wall-clock the snapshot took.
    ///
    /// Fails with [`MachineError::NodeDown`] if any node is crashed (a
    /// dead control processor cannot stream its memory), and with
    /// [`MachineError::Stalled`] if the streaming procedure deadlocks.
    pub fn snapshot(&mut self) -> Result<(Vec<Vec<u32>>, Dur), MachineError> {
        if let Some(n) = self.nodes.iter().find(|n| n.is_crashed()) {
            return Err(MachineError::NodeDown { node: n.id });
        }
        let t0 = self.sim.now();
        let mut image_handles = Vec::new();
        for (m, board) in self.boards.iter().enumerate() {
            let lo = m * 8;
            let hi = ((m + 1) * 8).min(self.nodes.len());
            // Node side: each node streams its memory up the system thread.
            for id in lo..hi {
                let ctx = self.nodes[id].ctx();
                let image = self.nodes[id].mem().snapshot();
                self.sim.spawn(async move {
                    system::send_image(&ctx, &image).await;
                });
            }
            // Board side: receive per node, write to disk.
            let board = board.clone();
            let count = hi - lo;
            image_handles.push(
                self.sim
                    .spawn(async move { board.collect_snapshot(count).await }),
            );
        }
        let report = self.sim.run();
        if !report.quiescent {
            return Err(MachineError::Stalled { op: "snapshot" });
        }
        let mut images = Vec::new();
        for h in image_handles {
            images.extend(
                h.try_take()
                    .ok_or(MachineError::Stalled { op: "snapshot" })?,
            );
        }
        Ok((images, self.sim.now().since(t0)))
    }

    /// Restore every node's memory from snapshot images (the recovery
    /// path: boards stream images back down the system thread).
    ///
    /// Fails with [`MachineError::BadImageCount`] /
    /// [`MachineError::BadImageGeometry`] on a malformed image set,
    /// [`MachineError::NodeDown`] if a crashed node cannot receive its
    /// image, and [`MachineError::Stalled`] on deadlock.
    pub fn restore(&mut self, images: &[Vec<u32>]) -> Result<Dur, MachineError> {
        if images.len() != self.nodes.len() {
            return Err(MachineError::BadImageCount {
                expected: self.nodes.len(),
                got: images.len(),
            });
        }
        for (node, image) in self.nodes.iter().zip(images) {
            let expected = node.mem().cfg().words();
            if image.len() != expected {
                return Err(MachineError::BadImageGeometry {
                    node: node.id,
                    expected,
                    got: image.len(),
                });
            }
        }
        if let Some(n) = self.nodes.iter().find(|n| n.is_crashed()) {
            return Err(MachineError::NodeDown { node: n.id });
        }
        let t0 = self.sim.now();
        for (m, board) in self.boards.iter().enumerate() {
            let lo = m * 8;
            let hi = ((m + 1) * 8).min(self.nodes.len());
            let board = board.clone();
            let module_images: Vec<Vec<u32>> = images[lo..hi].to_vec();
            self.sim.spawn(async move {
                board.send_restore(module_images).await;
            });
            for id in lo..hi {
                let ctx = self.nodes[id].ctx();
                let node = self.nodes[id].clone();
                self.sim.spawn(async move {
                    let image = system::recv_image(&ctx).await;
                    let mut mem = node.mem_mut();
                    // Scrub first: count the words whose parity a fault
                    // desynced, so the recovery report can show them.
                    let latent = mem.scrub_all();
                    mem.restore(&image);
                    drop(mem);
                    if latent > 0 {
                        let scrubbed = node.meters().scope().counter("fault/scrubbed_words");
                        scrubbed.add(latent as u64);
                    }
                });
            }
        }
        let report = self.sim.run();
        if !report.quiescent {
            return Err(MachineError::Stalled { op: "restore" });
        }
        Ok(self.sim.now().since(t0))
    }

    // --- two-version checkpointing ------------------------------------------

    /// Take a machine-wide snapshot into a two-version
    /// [`checkpoint::CheckpointStore`], as the simulated §III procedure:
    ///
    /// 1. **stream** — every node sends its payload (a full image, or the
    ///    dirty rows since the last commit for [`SnapshotMode::Delta`]) up
    ///    the system thread; the boards write each chunk to their disks as
    ///    it lands, into the store's *staging* version;
    /// 2. **commit** — [`system::ring_commit`] circulates prepare and
    ///    commit tokens around the system ring; only when both laps
    ///    complete does the staged version atomically become the committed
    ///    one.
    ///
    /// Any stall — a node crashing mid-stream, a faulted disk, a condemned
    /// ring link — aborts the snapshot: staging is discarded, the previous
    /// committed version is untouched, every row is re-marked dirty (the
    /// payloads that claimed them are lost), and the error is returned. An
    /// aborted machine has parked snapshot tasks and needs the same reboot
    /// a crash does before further use.
    ///
    /// A store sized for a different node count fails with
    /// [`MachineError::BadImageCount`] before anything streams.
    ///
    /// A requested delta is promoted to full when the store has no
    /// committed base yet.
    pub fn checkpoint(
        &mut self,
        store: &mut checkpoint::CheckpointStore,
        mode: checkpoint::SnapshotMode,
    ) -> Result<checkpoint::CheckpointStats, MachineError> {
        use checkpoint::SnapshotMode;
        if store.nodes() != self.nodes.len() {
            return Err(MachineError::BadImageCount {
                expected: self.nodes.len(),
                got: store.nodes(),
            });
        }
        if let Some(n) = self.nodes.iter().find(|n| n.is_crashed()) {
            return Err(MachineError::NodeDown { node: n.id });
        }
        let effective = if mode == SnapshotMode::Delta && store.has_committed() {
            SnapshotMode::Delta
        } else {
            SnapshotMode::Full
        };
        store.begin();
        let t0 = self.sim.now();
        let bytes_full: u64 = self
            .nodes
            .iter()
            .map(|n| n.mem().cfg().bytes() as u64 + 8)
            .sum();
        let mut bytes_streamed = 0u64;
        let mut dirty_rows = 0u64;
        let mut payload_handles = Vec::new();
        for (m, board) in self.boards.iter().enumerate() {
            let lo = m * 8;
            let hi = ((m + 1) * 8).min(self.nodes.len());
            for id in lo..hi {
                let ctx = self.nodes[id].ctx();
                // Dirty bits transfer to the payload at capture time: a
                // write landing while the stream is in flight dirties its
                // row afresh and rides the *next* delta. (On abort the
                // captured bits are re-marked wholesale below.)
                let (mode_word, payload) = match effective {
                    SnapshotMode::Full => (system::PAYLOAD_FULL, self.nodes[id].mem().snapshot()),
                    SnapshotMode::Delta => {
                        let delta = self.nodes[id].mem().snapshot_delta();
                        dirty_rows += delta.row_count() as u64;
                        (system::PAYLOAD_DELTA, delta.encode())
                    }
                };
                self.nodes[id].mem_mut().clear_dirty();
                bytes_streamed += (payload.len() as u64 + 2) * 4;
                self.sim.spawn(async move {
                    system::send_payload(&ctx, mode_word, &payload).await;
                });
            }
            let board = board.clone();
            let count = hi - lo;
            payload_handles.push(
                self.sim
                    .spawn(async move { board.collect_payloads(count).await }),
            );
        }
        if !self.sim.run().quiescent {
            self.abort_checkpoint(store);
            return Err(MachineError::Stalled { op: "checkpoint" });
        }
        // Everything streamed: stage the payloads (the disks already hold
        // the bytes; staging is the controllers' bookkeeping).
        let mut node_idx = 0usize;
        for h in payload_handles {
            let payloads = h
                .try_take()
                .ok_or(MachineError::Stalled { op: "checkpoint" })?;
            for (mode_word, payload) in payloads {
                if mode_word == system::PAYLOAD_FULL {
                    store.stage_full(node_idx, payload);
                } else {
                    let delta = ts_mem::RowDelta::decode(&payload)
                        .expect("delta payload corrupted in flight");
                    store
                        .stage_delta(node_idx, &delta)
                        .expect("delta staged without a committed base");
                }
                node_idx += 1;
            }
        }
        // The atomic version flip: prepare + commit token laps on the ring.
        {
            let boards = self.boards.clone();
            let epoch = store.epoch() + 1;
            self.sim.spawn(async move {
                system::ring_commit(&boards, epoch).await;
            });
        }
        if !self.sim.run().quiescent {
            self.abort_checkpoint(store);
            return Err(MachineError::Stalled {
                op: "checkpoint commit",
            });
        }
        store
            .commit(effective, bytes_streamed, bytes_full)
            .expect("commit with a fully staged store");
        let ckpt = self.nodes[0].meters().scope().scope("ckpt");
        match effective {
            SnapshotMode::Full => ckpt.counter("full").inc(),
            SnapshotMode::Delta => ckpt.counter("delta").inc(),
        }
        ckpt.counter("bytes_streamed").add(bytes_streamed);
        ckpt.counter("bytes_full_equiv").add(bytes_full);
        Ok(checkpoint::CheckpointStats {
            mode: effective,
            duration: self.sim.now().since(t0),
            bytes_streamed,
            bytes_full,
            dirty_rows,
        })
    }

    /// Discard a torn snapshot attempt. The dirty bits captured into the
    /// (now lost) payloads were already cleared, so every row is re-marked
    /// dirty: the next delta degenerates to a full image rather than
    /// silently missing the rows the aborted stream had claimed.
    fn abort_checkpoint(&self, store: &mut checkpoint::CheckpointStore) {
        store.abort();
        for n in &self.nodes {
            n.mem_mut().mark_all_dirty();
        }
        let torn = self.nodes[0].meters().scope().counter("ckpt/torn_aborts");
        torn.inc();
    }

    /// Restore every node's memory from the store's committed version (the
    /// crash-recovery path: always a full-image stream down the system
    /// threads). The nodes' dirty bits are cleared afterwards — memory now
    /// equals the committed checkpoint exactly.
    pub fn restore_from(
        &mut self,
        store: &checkpoint::CheckpointStore,
    ) -> Result<Dur, MachineError> {
        if !store.has_committed() {
            return Err(MachineError::NoCheckpoint);
        }
        let d = self.restore(store.committed())?;
        for n in &self.nodes {
            n.mem_mut().clear_dirty();
        }
        Ok(d)
    }

    /// A host-side upper estimate of how long [`Machine::checkpoint`] will
    /// run: the slowest module's payload bytes over the system-thread
    /// rate, plus commit slack, with 50 % headroom. The supervisor uses it
    /// to pre-schedule faults that land inside the snapshot window.
    pub fn checkpoint_eta(
        &self,
        store: &checkpoint::CheckpointStore,
        mode: checkpoint::SnapshotMode,
    ) -> Dur {
        use checkpoint::SnapshotMode;
        let effective = if mode == SnapshotMode::Delta && store.has_committed() {
            SnapshotMode::Delta
        } else {
            SnapshotMode::Full
        };
        let mut worst = 0u64;
        for m in 0..self.boards.len() {
            let lo = m * 8;
            let hi = ((m + 1) * 8).min(self.nodes.len());
            let mut bytes = 0u64;
            for id in lo..hi {
                bytes += 8 + match effective {
                    SnapshotMode::Full => self.nodes[id].mem().cfg().bytes() as u64,
                    SnapshotMode::Delta => {
                        let rows = self.nodes[id].mem().dirty_row_count() as u64;
                        (1 + rows + rows * ts_mem::ROW_WORDS as u64) * 4
                    }
                };
            }
            worst = worst.max(bytes);
        }
        let stream = worst as f64 / (self.cfg.node.link.effective_mb_per_s() * 1e6);
        let commit = 1e-3 * self.boards.len() as f64
            + system::COMMIT_RECORD_BYTES as f64 / self.cfg.disk_rate;
        Dur::from_secs_f64((stream + commit) * 1.5 + 1e-6)
    }
}

/// Every node's four link engines, one FIFO server per direction, indexed
/// by node index and physical link. [`Machine::build`] and the parallel
/// backend's shard builder wire cube edges and system boards through it.
pub(crate) struct LinkEngines {
    pub(crate) out: Vec<Vec<Wire>>,
    pub(crate) inp: Vec<Vec<Wire>>,
}

impl LinkEngines {
    pub(crate) fn new(nodes: usize, params: LinkParams) -> LinkEngines {
        let engines = |name| {
            (0..nodes)
                .map(|_| (0..4).map(|_| Wire::new(name, params)).collect())
                .collect()
        };
        LinkEngines {
            out: engines("link.out"),
            inp: engines("link.in"),
        }
    }

    /// Wire cube dimension `d` between the nodes at indices `ai` and `bi`:
    /// one sublink each way over physical link `d mod 4`, each metered on
    /// its transmitter and its receiver. Both directions share one health
    /// flag, so a single `LinkDown` fault fails traffic both ways.
    pub(crate) fn wire_edge(&self, nodes: &[Node], d: u32, ai: usize, bi: usize) {
        let l = (d % 4) as usize;
        let (a, b) = (&nodes[ai], &nodes[bi]);
        let mut ab = LinkChannel::new_pair(self.out[ai][l].clone(), self.inp[bi][l].clone());
        ab.set_meters(a.meters().link_tx(), b.meters().link_rx());
        let mut ba = LinkChannel::new_pair(self.out[bi][l].clone(), self.inp[ai][l].clone());
        ba.set_meters(b.meters().link_tx(), a.meters().link_rx());
        ba.set_status(ab.status().clone());
        a.wire_dim(d as usize, ab.clone(), ba.clone());
        b.wire_dim(d as usize, ba, ab);
    }

    /// Module `m`'s system board, wired to the nodes at indices `range`
    /// over each node's link 3 and the board's own engines.
    pub(crate) fn system_board(
        &self,
        m: usize,
        nodes: &[Node],
        range: std::ops::Range<usize>,
        h: &SimHandle,
        cfg: &MachineCfg,
    ) -> SystemBoard {
        let board_out = Wire::new("board.out", cfg.node.link);
        let board_in = Wire::new("board.in", cfg.node.link);
        let mut to_node = Vec::with_capacity(range.len());
        let mut from_node = Vec::with_capacity(range.len());
        for i in range {
            let down = LinkChannel::new_pair(board_out.clone(), self.inp[i][3].clone());
            let mut up = LinkChannel::new_pair(self.out[i][3].clone(), board_in.clone());
            up.set_status(down.status().clone());
            nodes[i].wire_system(up.clone(), down.clone());
            to_node.push(down);
            from_node.push(up);
        }
        SystemBoard::new(
            m as u32,
            h.clone(),
            to_node,
            from_node,
            board_out,
            board_in,
            Disk::new(cfg.disk_rate),
        )
    }
}

/// Fault-injection facade returned by [`Machine::faults`]: breaks (and
/// repairs) hardware, booking each event into the fault metrics.
pub struct FaultInjector<'m> {
    m: &'m Machine,
}

impl FaultInjector<'_> {
    /// Kill the physical link carrying cube dimension `dim` at `node`.
    /// Both directions go down (the neighbour sees it too); failable
    /// traffic on the edge then errors instead of hanging.
    pub fn link_down(&self, node: NodeId, dim: u32) {
        let n = &self.m.nodes[node as usize];
        n.set_link_down(dim as usize);
        n.meters().scope().counter("fault/link_down").inc();
    }

    /// Repair the physical link carrying cube dimension `dim` at `node`
    /// (the inverse of [`FaultInjector::link_down`]): both directions come
    /// back up.
    pub fn link_up(&self, node: NodeId, dim: u32) {
        let n = &self.m.nodes[node as usize];
        n.set_link_up(dim as usize);
        n.meters().scope().counter("fault/link_repair").inc();
    }

    /// Crash `node`: its control processor is dead and every wired link
    /// (cube and system thread) is marked down.
    pub fn crash(&self, node: NodeId) {
        let n = &self.m.nodes[node as usize];
        n.crash();
        n.meters().scope().counter("fault/node_crash").inc();
    }

    /// Flip `bit` of the word at `addr` in `node`'s memory without fixing
    /// parity — the next read reports a parity error.
    pub fn mem_flip(&self, node: NodeId, addr: usize, bit: u32) {
        let n = &self.m.nodes[node as usize];
        n.mem_mut()
            .inject_bit_flip(addr, bit)
            .expect("mem-flip address out of range");
        n.meters().scope().counter("fault/mem_flip").inc();
    }

    /// True while the physical link on `(node, dim)` is alive.
    pub fn is_link_up(&self, node: NodeId, dim: u32) -> bool {
        self.m.nodes[node as usize].link_up(dim as usize)
    }

    /// Queue a transient bit corruption on `node`'s next outbound message
    /// on `dim`: the hit flit fails its CRC-16 at the receiver and is
    /// recovered by go-back-N retransmission.
    pub fn wire_corrupt(&self, node: NodeId, dim: u32, flit_bit: u64) {
        let n = &self.m.nodes[node as usize];
        n.queue_wire_corrupt(dim as usize, flit_bit);
        n.meters().scope().counter("fault/wire_corrupt").inc();
    }

    /// Queue a transient flit loss on `node`'s next outbound message on
    /// `dim`: the receiver times out and the window is retransmitted.
    pub fn flit_drop(&self, node: NodeId, dim: u32) {
        let n = &self.m.nodes[node as usize];
        n.queue_flit_drop(dim as usize);
        n.meters().scope().counter("fault/flit_drop").inc();
    }

    /// Flap the link on `(node, dim)`: down now, self-healing after
    /// `down_for` of sim time (unless retransmit escalation has condemned
    /// it in the meantime — a condemned link stays down).
    pub fn link_flap(&self, node: NodeId, dim: u32, down_for: ts_sim::Dur) {
        let n = &self.m.nodes[node as usize];
        n.flap_link(dim as usize, down_for);
        n.meters().scope().counter("fault/link_flap").inc();
    }

    /// Fault `module`'s disk controller: transfers in flight (and any
    /// started later) hang, so a snapshot touching the module stalls and
    /// aborts. Heals with [`FaultInjector::disk_heal`] or a reboot.
    pub fn disk_fault(&self, module: usize) {
        self.m.boards[module].disk.fail();
        let n = &self.m.nodes[module * 8];
        n.meters().scope().counter("fault/disk").inc();
    }

    /// Repair `module`'s disk controller.
    pub fn disk_heal(&self, module: usize) {
        self.m.boards[module].disk.heal();
        let n = &self.m.nodes[module * 8];
        n.meters().scope().counter("fault/disk_repair").inc();
    }

    /// Flap `module`'s outbound system-ring link: down now, self-healing
    /// after `down_for`. Ring traffic (commit tokens, boot images) waits
    /// out the outage instead of failing. No-op on a ringless
    /// single-module machine.
    pub fn ring_flap(&self, module: usize, down_for: ts_sim::Dur) {
        let Some(status) = self.m.boards[module].ring_next_status() else {
            return;
        };
        status.set_down();
        let h = self.m.sim.handle();
        h.clone().spawn(async move {
            h.sleep(down_for).await;
            status.set_up();
        });
        let n = &self.m.nodes[module * 8];
        n.meters().scope().counter("fault/ring_flap").inc();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn specs_match_paper_table() {
        // Module: 8 nodes, 128 MFLOPS, 8 MB, >12 MB/s intramodule.
        let module = MachineCfg::cube(3).specs();
        assert_eq!(module.nodes, 8);
        assert_eq!(module.peak_mflops, 128.0);
        assert_eq!(module.memory_bytes, 8 << 20);
        assert_eq!(module.modules, 1);
        assert!(module.intramodule_mb_per_s >= 12.0);
        // Cabinet: 16 nodes, two modules.
        let cab = MachineCfg::cube(4).specs();
        assert_eq!(cab.nodes, 16);
        assert_eq!(cab.modules, 2);
        assert_eq!(cab.cabinets, 1);
        // Four cabinets: 64 nodes, 1 GFLOPS, 64 MB, 8 disks.
        let gflops = MachineCfg::cube(6).specs();
        assert_eq!(gflops.nodes, 64);
        assert_eq!(gflops.peak_mflops, 1024.0);
        assert_eq!(gflops.memory_bytes, 64 << 20);
        assert_eq!(gflops.disks, 8);
        assert_eq!(gflops.cabinets, 4);
        // Maximum: 12-cube, 4096 nodes, >65 GFLOPS, 4 GB, 256 cabinets.
        let max = MachineCfg::cube(12).specs();
        assert_eq!(max.nodes, 4096);
        assert!(max.peak_mflops > 65_000.0);
        assert_eq!(max.memory_bytes, 4 << 30);
        assert_eq!(max.cabinets, 256);
        assert_eq!(max.max_hops, 12);
    }

    #[test]
    #[should_panic(expected = "sublink budget")]
    fn thirteen_cube_needs_io_sublinks() {
        let _ = Machine::build(MachineCfg::cube_small_mem(13, 4));
    }

    #[test]
    fn spmd_launch_runs_all_nodes() {
        let mut m = Machine::build(MachineCfg::cube_small_mem(3, 8));
        let handles = m.launch(|ctx| async move {
            ctx.cp_compute(100).await;
            ctx.id()
        });
        let r = m.run();
        assert!(r.quiescent);
        for (i, h) in handles.into_iter().enumerate() {
            assert_eq!(h.try_take(), Some(i as u32));
        }
        assert_eq!(m.metrics().get("cp.instrs"), 800);
    }

    #[test]
    fn neighbors_exchange_over_every_dimension() {
        let mut m = Machine::build(MachineCfg::cube_small_mem(4, 8));
        let dim = 4;
        let handles = m.launch(move |ctx| async move {
            let mut sum = 0u64;
            for d in 0..dim {
                let me = ctx.id();
                let h = ctx.handle().clone();
                let c2 = ctx.clone();
                let send = async move { c2.send_dim(d, vec![me]).await };
                let c3 = ctx.clone();
                let recv = async move { c3.recv_dim(d).await };
                let (_, got) = ts_node::occam::par2(&h, send, recv).await;
                assert_eq!(got[0], me ^ (1 << d));
                sum += got[0] as u64;
            }
            sum
        });
        let r = m.run();
        assert!(r.quiescent, "exchange deadlocked");
        for (i, h) in handles.into_iter().enumerate() {
            let want: u64 = (0..4u32).map(|d| (i as u32 ^ (1 << d)) as u64).sum();
            assert_eq!(h.try_take(), Some(want));
        }
    }

    #[test]
    fn dimensions_share_physical_links() {
        // In a 5-cube, dimensions 0 and 4 ride the same physical link
        // (d mod 4): sending on both at once must serialize on the wire.
        let mut m = Machine::build(MachineCfg::cube_small_mem(5, 8));
        let ctx0 = m.ctx(0);
        let h = m.handle();
        m.launch_on(0, async move {
            let c1 = ctx0.clone();
            let c2 = ctx0.clone();
            ts_node::occam::par2(
                &h,
                async move { c1.send_dim(0, vec![0u32; 256]).await },
                async move { c2.send_dim(4, vec![0u32; 256]).await },
            )
            .await;
        });
        let ctx1 = m.ctx(1);
        m.launch_on(1, async move {
            ctx1.recv_dim(0).await;
        });
        let ctx16 = m.ctx(16);
        m.launch_on(16, async move {
            ctx16.recv_dim(4).await;
        });
        assert!(m.run().quiescent);
        // Two 1 KB messages (2048 µs each on the wire) sharing node 0's
        // link-0 engine: total ≥ 2 × 2048 µs.
        assert!(m.now().as_us_f64() >= 4096.0, "{}", m.now());

        // Same transfers on different physical links run in parallel.
        let mut m2 = Machine::build(MachineCfg::cube_small_mem(5, 8));
        let ctx0 = m2.ctx(0);
        let h = m2.handle();
        m2.launch_on(0, async move {
            let c1 = ctx0.clone();
            let c2 = ctx0.clone();
            ts_node::occam::par2(
                &h,
                async move { c1.send_dim(0, vec![0u32; 256]).await },
                async move { c2.send_dim(1, vec![0u32; 256]).await },
            )
            .await;
        });
        let ctx1 = m2.ctx(1);
        m2.launch_on(1, async move {
            ctx1.recv_dim(0).await;
        });
        let ctx2 = m2.ctx(2);
        m2.launch_on(2, async move {
            ctx2.recv_dim(1).await;
        });
        assert!(m2.run().quiescent);
        assert!(m2.now().as_us_f64() < 4096.0);
        assert!(m2.now() < m.now());
    }

    #[test]
    fn registry_scopes_per_node_metrics() {
        let mut m = Machine::build(MachineCfg::cube_small_mem(3, 8));
        m.launch(|ctx| async move {
            ctx.cp_compute(100).await;
        });
        assert!(m.run().quiescent);
        assert_eq!(m.registry().get_counter("node/3/cp/instrs"), Some(100));
        assert_eq!(m.registry().sum_counters("cp/instrs"), 800);
        // The rollup sums every node's meter under `unit.metric`.
        assert_eq!(m.metrics().get("cp.instrs"), 800);
    }

    #[test]
    fn faults_facade_breaks_and_repairs_links() {
        let m = Machine::build(MachineCfg::cube_small_mem(2, 8));
        let f = m.faults();
        assert!(f.is_link_up(0, 1));
        f.link_down(0, 1);
        assert!(!f.is_link_up(0, 1), "link down at one end downs the edge");
        assert!(!f.is_link_up(2, 1), "the neighbour sees the failure too");
        f.link_up(0, 1);
        assert!(f.is_link_up(0, 1));
        assert!(f.is_link_up(2, 1));
        assert_eq!(m.metrics().get("fault.link_down"), 1);
        assert_eq!(m.metrics().get("fault.link_repair"), 1);
    }

    #[test]
    fn facade_injects_crashes_and_mem_flips_with_metrics() {
        let m = Machine::build(MachineCfg::cube_small_mem(2, 8));
        m.faults().link_down(0, 1);
        assert!(!m.faults().is_link_up(0, 1));
        m.faults().crash(3);
        assert!(m.nodes[3].is_crashed());
        m.faults().mem_flip(1, 7, 4);
        assert_eq!(m.metrics().get("fault.link_down"), 1);
        assert_eq!(m.metrics().get("fault.node_crash"), 1);
        assert_eq!(m.metrics().get("fault.mem_flip"), 1);
    }

    #[test]
    fn link_traffic_books_on_the_sending_and_receiving_nodes() {
        let mut m = Machine::build(MachineCfg::cube_small_mem(1, 8));
        let (tx, rx) = (m.ctx(0), m.ctx(1));
        m.launch_on(0, async move { tx.send_dim(0, vec![7; 10]).await });
        m.launch_on(1, async move { rx.recv_dim(0).await });
        assert!(m.run().quiescent);
        let report = m.utilization_report();
        let row = |id: &str| {
            let line = report
                .lines()
                .find(|l| l.split_whitespace().next() == Some(id));
            let cols: Vec<&str> = line.unwrap().split_whitespace().collect();
            (cols[4].to_string(), cols[5].to_string())
        };
        assert_eq!(row("0"), ("40".into(), "0".into()), "{report}");
        assert_eq!(row("1"), ("0".into(), "40".into()), "{report}");
        let met = m.metrics();
        assert_eq!(met.get("link.bytes_sent"), 40);
        assert_eq!(met.get("link.bytes_recv"), 40);
        assert_eq!(met.get("link.msgs_recv"), 1);
    }

    #[test]
    fn snapshot_and_restore_report_machine_errors() {
        let mut m = Machine::build(MachineCfg::cube_small_mem(3, 8));
        let (images, _) = m.snapshot().unwrap();
        assert_eq!(
            m.restore(&images[..3]),
            Err(MachineError::BadImageCount {
                expected: 8,
                got: 3
            })
        );
        let mut bad = images.clone();
        bad[2].pop();
        match m.restore(&bad) {
            Err(MachineError::BadImageGeometry { node: 2, .. }) => {}
            other => panic!("expected BadImageGeometry for node 2, got {other:?}"),
        }
        let mut small = checkpoint::CheckpointStore::new(4);
        assert_eq!(
            m.checkpoint(&mut small, checkpoint::SnapshotMode::Full)
                .unwrap_err(),
            MachineError::BadImageCount {
                expected: 8,
                got: 4
            }
        );
        m.faults().crash(5);
        assert_eq!(m.snapshot(), Err(MachineError::NodeDown { node: 5 }));
        assert_eq!(m.restore(&images), Err(MachineError::NodeDown { node: 5 }));
    }

    #[test]
    fn snapshot_roundtrip_restores_memory() {
        let mut m = Machine::build(MachineCfg::cube_small_mem(3, 8));
        for (i, node) in m.nodes.iter().enumerate() {
            node.mem_mut().write_word(10, 1000 + i as u32).unwrap();
        }
        let (images, snap_time) = m.snapshot().unwrap();
        assert_eq!(images.len(), 8);
        assert!(snap_time > Dur::ZERO);
        // Corrupt, then restore.
        for node in &m.nodes {
            node.mem_mut().write_word(10, 0).unwrap();
        }
        let restore_time = m.restore(&images).unwrap();
        assert!(restore_time > Dur::ZERO);
        for (i, node) in m.nodes.iter().enumerate() {
            assert_eq!(node.mem().read_word(10).unwrap(), 1000 + i as u32);
        }
    }

    #[test]
    fn snapshot_time_independent_of_machine_size() {
        // §III: "It takes about 15 seconds to take a snapshot, regardless
        // of configuration" — modules snapshot in parallel.
        let t3 = {
            let mut m = Machine::build(MachineCfg::cube_small_mem(3, 16));
            m.snapshot().unwrap().1
        };
        let t5 = {
            let mut m = Machine::build(MachineCfg::cube_small_mem(5, 16));
            m.snapshot().unwrap().1
        };
        let ratio = t5.as_secs_f64() / t3.as_secs_f64();
        assert!(
            ratio < 1.05,
            "snapshot should not grow with machine size: {ratio}"
        );
    }

    #[test]
    fn delta_checkpoint_streams_fewer_bytes_and_restores() {
        use checkpoint::{CheckpointStore, SnapshotMode};
        // Two modules, so the commit rides the real ring.
        let mut m = Machine::build(MachineCfg::cube_small_mem(4, 8));
        for (i, node) in m.nodes.iter().enumerate() {
            node.mem_mut().write_word(40, 0xAA00 + i as u32).unwrap();
        }
        let mut store = CheckpointStore::new(m.nodes.len());
        // A requested delta with no base is promoted to full.
        let base = m.checkpoint(&mut store, SnapshotMode::Delta).unwrap();
        assert_eq!(base.mode, SnapshotMode::Full);
        assert!(base.duration > Dur::ZERO);
        assert_eq!(store.epoch(), 1);
        // Dirty one row per node, then snapshot incrementally.
        for (i, node) in m.nodes.iter().enumerate() {
            node.mem_mut().write_word(80, 0xBB00 + i as u32).unwrap();
        }
        let delta = m.checkpoint(&mut store, SnapshotMode::Delta).unwrap();
        assert_eq!(delta.mode, SnapshotMode::Delta);
        assert_eq!(delta.dirty_rows, m.nodes.len() as u64);
        assert!(
            delta.bytes_streamed < base.bytes_streamed / 4,
            "delta {} B vs full {} B",
            delta.bytes_streamed,
            base.bytes_streamed
        );
        assert!(delta.duration < base.duration);
        // Scribble over memory, then recover from the committed version.
        for node in &m.nodes {
            node.mem_mut().write_word(40, 0).unwrap();
            node.mem_mut().write_word(80, 0).unwrap();
        }
        m.restore_from(&store).unwrap();
        for (i, node) in m.nodes.iter().enumerate() {
            assert_eq!(node.mem().read_word(40).unwrap(), 0xAA00 + i as u32);
            assert_eq!(node.mem().read_word(80).unwrap(), 0xBB00 + i as u32);
            assert_eq!(node.mem().dirty_row_count(), 0, "restore clears dirty");
        }
    }

    #[test]
    fn torn_checkpoint_never_restores_a_torn_image() {
        use checkpoint::{CheckpointStore, SnapshotMode};
        let mut m = Machine::build(MachineCfg::cube_small_mem(3, 8));
        for node in &m.nodes {
            node.mem_mut().write_word(10, 111).unwrap();
        }
        let mut store = CheckpointStore::new(m.nodes.len());
        m.checkpoint(&mut store, SnapshotMode::Full).unwrap();
        // New state that the next (doomed) snapshot will try to commit.
        for node in &m.nodes {
            node.mem_mut().write_word(10, 222).unwrap();
        }
        // Node 5 crashes 5 ms into the stream — long before its ~16 ms of
        // full image can have drained through the shared board engine.
        let node5 = m.nodes[5].clone();
        let h = m.handle();
        h.clone().spawn(async move {
            h.sleep(Dur::ms(5)).await;
            node5.crash();
        });
        let err = m.checkpoint(&mut store, SnapshotMode::Full).unwrap_err();
        assert_eq!(err, MachineError::Stalled { op: "checkpoint" });
        assert_eq!(store.epoch(), 1, "torn snapshot must not commit");
        assert_eq!(store.torn_aborts(), 1);
        // The machine reboots; the store (on disk) survives and restores
        // the *previous* committed version, never the torn one.
        let mut rebooted = Machine::build(MachineCfg::cube_small_mem(3, 8));
        rebooted.restore_from(&store).unwrap();
        for node in &rebooted.nodes {
            assert_eq!(node.mem().read_word(10).unwrap(), 111);
        }
    }

    #[test]
    fn disk_fault_aborts_and_the_store_survives_reboot() {
        use checkpoint::{CheckpointStore, SnapshotMode};
        let mut store = CheckpointStore::new(8);
        {
            let mut m = Machine::build(MachineCfg::cube_small_mem(3, 8));
            for node in &m.nodes {
                node.mem_mut().write_word(7, 33).unwrap();
            }
            m.faults().disk_fault(0);
            let err = m.checkpoint(&mut store, SnapshotMode::Full).unwrap_err();
            assert_eq!(err, MachineError::Stalled { op: "checkpoint" });
            assert_eq!(store.torn_aborts(), 1);
            assert!(!store.has_committed());
            assert_eq!(m.metrics().get("fault.disk"), 1);
            assert_eq!(
                m.restore_from(&store).unwrap_err(),
                MachineError::NoCheckpoint
            );
        }
        // Reboot replaces the controller; the same store commits cleanly.
        let mut m = Machine::build(MachineCfg::cube_small_mem(3, 8));
        for node in &m.nodes {
            node.mem_mut().write_word(7, 33).unwrap();
        }
        m.checkpoint(&mut store, SnapshotMode::Full).unwrap();
        assert_eq!(store.epoch(), 1);
        assert_eq!(store.committed()[3][7], 33);
    }

    #[test]
    fn ring_flap_delays_but_does_not_tear_the_commit() {
        use checkpoint::{CheckpointStore, SnapshotMode};
        let mut m = Machine::build(MachineCfg::cube_small_mem(4, 8));
        let mut store = CheckpointStore::new(m.nodes.len());
        m.faults().ring_flap(0, Dur::ms(50));
        m.checkpoint(&mut store, SnapshotMode::Full).unwrap();
        assert_eq!(store.epoch(), 1);
        assert_eq!(store.torn_aborts(), 0);
        assert_eq!(m.metrics().get("fault.ring_flap"), 1);
        let report = m.utilization_report();
        assert!(report.contains("checkpoint I/O"), "{report}");
    }
}
