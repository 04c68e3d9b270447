//! # ts-node — one T Series processor node
//!
//! Assembles the substrates into the machine of Figure 1: control
//! processor, dual-ported memory, vector arithmetic unit, and link
//! adapters, all sharing one simulated clock.
//!
//! ## Programming model
//!
//! Node programs are plain `async` Rust closures over a [`NodeCtx`] — the
//! simulator's stand-in for an Occam process. Every method that touches
//! hardware advances the node's virtual clock by the architected cost:
//!
//! * [`NodeCtx::vec`] / [`NodeCtx::vec_async`] — vector forms through the
//!   micro-sequencer (the async variant runs concurrently with the control
//!   processor, which is how the paper overlaps gather with arithmetic);
//! * [`NodeCtx::gather64`] / [`NodeCtx::scatter64`] — the control
//!   processor's element-at-a-time word-port loops (1.6 µs per 64-bit
//!   element);
//! * [`NodeCtx::row_move`] — physical row moves at 2560 MB/s (the paper's
//!   alternative to pointer chasing for pivoting and sorting);
//! * [`NodeCtx::send_dim`] / [`NodeCtx::recv_dim`] / [`NodeCtx::alt_dims`]
//!   — hypercube channels (sublinks wired by `t-series-core`);
//! * [`NodeCtx::cp_compute`] — scalar control work at 7.5 MIPS;
//! * [`NodeCtx::run_cp_program`] — execute real `ts-cp` machine code
//!   against this node's memory, with channel and vector instructions
//!   serviced by the simulated hardware.
//!
//! Hardware units are [`Resource`]s, so a program that issues a vector form
//! and then gathers concurrently pays `max` of the two times, while two
//! uses of the same unit serialize — contention is modeled, not assumed.
//!
//! [`occam`] provides `PAR`/`ALT` process combinators mirroring the
//! language the paper describes.

#![deny(missing_docs)]

pub mod occam;

use std::cell::{Ref, RefCell, RefMut};
use std::rc::Rc;

use ts_cp::{Cp, CpBus, CpError, CpEvent, StepOutcome};
use ts_fpu::Sf64;
use ts_link::{LinkChannel, LinkError};
use ts_mem::{MemCfg, MemError, NodeMemory, GATHER64_TIME, ROW_TIME, ROW_WORDS, WORD_TIME};
use ts_sim::{
    BusyTime, Counter, Dur, Histogram, MetricsRegistry, MetricsScope, Resource, SimHandle,
};
use ts_vec::{VecForm, VecResult, VecUnit};

/// Average control-processor instruction time (7.5 MIPS).
pub const CP_INSTR_TIME: Dur = Dur::ps(133_333);

thread_local! {
    /// Free list for `Vec<Sf64>` message values (the unpacked side of the
    /// word-buffer pool in [`ts_sim::pool`]).
    static VALUES: ts_sim::pool::BufPool<Sf64> = const { ts_sim::pool::BufPool::new(4096) };
}

/// Take an empty value buffer with at least `cap` capacity from the pool.
pub fn take_values(cap: usize) -> Vec<Sf64> {
    VALUES.with(|p| p.take(cap))
}

/// Recycle a value buffer (e.g. one returned by [`NodeCtx::recv_f64s`])
/// once its contents are consumed. Collectives call this every exchange;
/// dropping the buffer instead is always safe, just slower.
pub fn recycle_values(v: Vec<Sf64>) {
    VALUES.with(|p| p.put(v));
}

/// Elementwise combining operators for [`NodeCtx::combine_values`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CombineOp {
    /// Elementwise sum.
    Add,
    /// Elementwise product.
    Mul,
    /// Elementwise maximum.
    Max,
    /// Elementwise minimum.
    Min,
}

/// Static configuration of one node.
#[derive(Clone, Copy, Debug, Default)]
pub struct NodeCfg {
    /// Memory geometry (1 MB in the paper's machine).
    pub mem: MemCfg,
    /// Link framing/rates.
    pub link: ts_link::LinkParams,
    /// Force the single-bank ablation (experiment E9).
    pub single_bank: bool,
}

struct NodeState {
    mem: NodeMemory,
    vec_unit: VecUnit,
    /// Channels to hypercube neighbours, indexed by dimension.
    out_dims: Vec<LinkChannel>,
    in_dims: Vec<LinkChannel>,
    /// System-thread channels (to the module's system board).
    sys_out: Option<LinkChannel>,
    sys_in: Option<LinkChannel>,
    /// Health flag, "up" while the node is alive. Set down by a fault plan
    /// (node crash); watchable, so daemons parked on the node's channels
    /// can be torn down. Every link of a crashed node is also marked down
    /// so partners fail fast.
    health: ts_link::LinkStatus,
}

/// Every counter, busy-time and histogram one node keeps, living under
/// `node/{id}/...` in the machine's [`MetricsRegistry`] — the node's only
/// accounting.
///
/// The hot-path handles below are registered once at node construction,
/// so an update is a single cell store: no map lookup, no string, no
/// allocation. Cold bookkeeping (faults, router detours, collective
/// retries, checkpoint and supervisor tallies) registers on first use
/// through [`NodeMeters::scope`].
#[derive(Clone)]
pub struct NodeMeters {
    scope: MetricsScope,
    /// Control-processor busy time (`node/{id}/cp/busy`).
    pub cp_busy: BusyTime,
    /// Control-processor instructions executed (`node/{id}/cp/instrs`).
    pub cp_instrs: Counter,
    /// Elements gathered by the CP word-port loop (`node/{id}/cp/gathered`).
    pub cp_gathered: Counter,
    /// Elements scattered by the CP word-port loop (`node/{id}/cp/scattered`).
    pub cp_scattered: Counter,
    /// Word-port time consumed by the CP (`node/{id}/port/cp`).
    pub port_cp: BusyTime,
    /// Vector-unit busy time (`node/{id}/vec/busy`).
    pub vec_busy: BusyTime,
    /// Floating-point operations retired (`node/{id}/vec/flops`).
    pub vec_flops: Counter,
    /// Histogram of vector-form lengths (`node/{id}/vec/len`).
    pub vec_len: Histogram,
    /// Memory rows moved through the row port (`node/{id}/mem/rows_moved`).
    pub rows_moved: Counter,
    /// Payload words sent over cube links (`node/{id}/link/words_sent`).
    pub link_words_sent: Counter,
    /// Payload words received over cube links (`node/{id}/link/words_recv`).
    pub link_words_recv: Counter,
    /// Messages this node transmitted on cube links (`node/{id}/link/msgs_sent`).
    pub link_msgs_sent: Counter,
    /// Payload bytes this node transmitted on cube links
    /// (`node/{id}/link/bytes_sent`).
    pub link_bytes_sent: Counter,
    /// Messages delivered over cube links (`node/{id}/link/msgs_recv`).
    pub link_msgs_recv: Counter,
    /// Payload bytes delivered over cube links (`node/{id}/link/bytes_recv`).
    pub link_bytes_recv: Counter,
    /// End-to-end inbound message latency in ns (`node/{id}/link/latency_ns`).
    pub link_latency_ns: Histogram,
    /// Flits retransmitted by outbound go-back-N recovery
    /// (`node/{id}/link/retransmits`).
    pub link_retransmits: Counter,
    /// Flits whose CRC-16 failed on an outbound link (`node/{id}/link/crc_errors`).
    pub link_crc_errors: Counter,
    /// Retransmit budgets exhausted, escalating the link to a permanent
    /// down (`node/{id}/link/escalations`).
    pub link_escalations: Counter,
    /// Histogram of transient link-flap outage lengths in µs
    /// (`node/{id}/link/flap_us`).
    pub link_flap_us: Histogram,
}

impl NodeMeters {
    fn new(scope: MetricsScope) -> NodeMeters {
        NodeMeters {
            cp_busy: scope.busy_time("cp/busy"),
            cp_instrs: scope.counter("cp/instrs"),
            cp_gathered: scope.counter("cp/gathered"),
            cp_scattered: scope.counter("cp/scattered"),
            port_cp: scope.busy_time("port/cp"),
            vec_busy: scope.busy_time("vec/busy"),
            vec_flops: scope.counter("vec/flops"),
            vec_len: scope.histogram("vec/len"),
            rows_moved: scope.counter("mem/rows_moved"),
            link_words_sent: scope.counter("link/words_sent"),
            link_words_recv: scope.counter("link/words_recv"),
            link_msgs_sent: scope.counter("link/msgs_sent"),
            link_bytes_sent: scope.counter("link/bytes_sent"),
            link_msgs_recv: scope.counter("link/msgs_recv"),
            link_bytes_recv: scope.counter("link/bytes_recv"),
            link_latency_ns: scope.histogram("link/latency_ns"),
            link_retransmits: scope.counter("link/retransmits"),
            link_crc_errors: scope.counter("link/crc_errors"),
            link_escalations: scope.counter("link/escalations"),
            link_flap_us: scope.histogram("link/flap_us"),
            scope,
        }
    }

    /// The node's `node/{id}` scope, for registering further unit metrics
    /// (router hop histograms, collective latencies).
    pub fn scope(&self) -> &MetricsScope {
        &self.scope
    }

    /// The meters a cube sublink transmitting from this node books into.
    pub fn link_tx(&self) -> ts_link::TxMeters {
        ts_link::TxMeters {
            msgs: self.link_msgs_sent.clone(),
            bytes: self.link_bytes_sent.clone(),
            retransmits: self.link_retransmits.clone(),
            crc_errors: self.link_crc_errors.clone(),
            escalations: self.link_escalations.clone(),
        }
    }

    /// The meters a cube sublink delivering to this node books into.
    pub fn link_rx(&self) -> ts_link::RxMeters {
        ts_link::RxMeters {
            msgs: self.link_msgs_recv.clone(),
            bytes: self.link_bytes_recv.clone(),
            latency_ns: Some(self.link_latency_ns.clone()),
        }
    }
}

/// One processor node: shared handle used by the machine builder.
///
/// Cloning a node is one refcount bump — everything mutable or heavy lives
/// behind a single shared allocation, which keeps `NodeCtx` clones on the
/// kernel hot path (Cannon shifts clone a context per step) nearly free.
#[derive(Clone)]
pub struct Node {
    /// Node id (hypercube address).
    pub id: u32,
    h: SimHandle,
    shared: Rc<NodeShared>,
}

/// The single shared allocation behind every clone of one [`Node`].
struct NodeShared {
    state: RefCell<NodeState>,
    /// The control processor (scalar side) as an exclusive resource.
    cp_res: Resource,
    /// The vector arithmetic unit as an exclusive resource.
    vec_res: Resource,
    /// The random-access memory port (CP + link DMA share it).
    port_res: Resource,
    meters: NodeMeters,
}

impl Node {
    /// Build a node with a private, standalone metrics registry. Channels
    /// are wired afterwards by the machine layer via [`Node::wire_dim`] /
    /// [`Node::wire_system`].
    pub fn new(id: u32, cfg: NodeCfg, h: SimHandle) -> Node {
        Node::with_registry(id, cfg, h, &MetricsRegistry::new())
    }

    /// Build a node whose unit meters register under `node/{id}/...` in a
    /// shared machine-wide registry.
    pub fn with_registry(id: u32, cfg: NodeCfg, h: SimHandle, registry: &MetricsRegistry) -> Node {
        let vec_unit = if cfg.single_bank {
            VecUnit::single_bank()
        } else {
            VecUnit::new()
        };
        let meters = NodeMeters::new(registry.scope(&format!("node/{id}")));
        Node {
            id,
            h,
            shared: Rc::new(NodeShared {
                state: RefCell::new(NodeState {
                    mem: NodeMemory::new(cfg.mem),
                    vec_unit,
                    out_dims: Vec::new(),
                    in_dims: Vec::new(),
                    sys_out: None,
                    sys_in: None,
                    health: ts_link::LinkStatus::new(),
                }),
                cp_res: Resource::new("cp"),
                vec_res: Resource::new("vec"),
                port_res: Resource::new("port"),
                meters,
            }),
        }
    }

    /// Attach the channel pair for hypercube dimension `dim` (the machine
    /// layer wires both endpoints).
    pub fn wire_dim(&self, dim: usize, out: LinkChannel, inp: LinkChannel) {
        let mut st = self.shared.state.borrow_mut();
        if st.out_dims.len() <= dim {
            let filler_wire = || ts_link::Wire::new("unwired", ts_link::LinkParams::default());
            while st.out_dims.len() <= dim {
                st.out_dims.push(LinkChannel::new(filler_wire()));
                st.in_dims.push(LinkChannel::new(filler_wire()));
            }
        }
        st.out_dims[dim] = out;
        st.in_dims[dim] = inp;
    }

    /// Attach the system-board channel pair.
    pub fn wire_system(&self, out: LinkChannel, inp: LinkChannel) {
        let mut st = self.shared.state.borrow_mut();
        st.sys_out = Some(out);
        st.sys_in = Some(inp);
    }

    /// Kill the physical link on dimension `dim`: both direction channels
    /// are marked down, so failable traffic on either end errors instead of
    /// hanging.
    pub fn set_link_down(&self, dim: usize) {
        let st = self.shared.state.borrow();
        if let Some(out) = st.out_dims.get(dim) {
            out.status().set_down();
        }
        if let Some(inp) = st.in_dims.get(dim) {
            inp.status().set_down();
        }
    }

    /// Repair the physical link on dimension `dim`: both direction channels
    /// are marked up again (the inverse of [`Node::set_link_down`]).
    pub fn set_link_up(&self, dim: usize) {
        let st = self.shared.state.borrow();
        if let Some(out) = st.out_dims.get(dim) {
            out.status().set_up();
        }
        if let Some(inp) = st.in_dims.get(dim) {
            inp.status().set_up();
        }
    }

    /// Queue a transient bit-flip on the next outbound message of `dim`:
    /// the flit addressed by `flit_bit` arrives with a flipped payload bit,
    /// fails its CRC, and is retransmitted by go-back-N recovery.
    pub fn queue_wire_corrupt(&self, dim: usize, flit_bit: u64) {
        if let Some(out) = self.shared.state.borrow().out_dims.get(dim) {
            out.inject_corrupt(flit_bit);
        }
    }

    /// Queue a transient flit loss on the next outbound message of `dim`:
    /// the receiver times out and the window is retransmitted.
    pub fn queue_flit_drop(&self, dim: usize) {
        if let Some(out) = self.shared.state.borrow().out_dims.get(dim) {
            out.inject_drop();
        }
    }

    /// Flap the physical link on `dim`: down now, back up after `down_for`
    /// of sim time (a repair task is spawned on the node's scheduler). The
    /// outage length is recorded in the `link/flap_us` histogram. A link
    /// already condemned by retransmit-budget escalation stays down.
    pub fn flap_link(&self, dim: usize, down_for: Dur) {
        self.set_link_down(dim);
        self.shared
            .meters
            .link_flap_us
            .observe(down_for.as_ps() / 1_000_000);
        let node = self.clone();
        let h = self.h.clone();
        self.h.spawn(async move {
            h.sleep(down_for).await;
            node.set_link_up(dim);
        });
    }

    /// True while the physical link on `dim` is alive (an unwired dimension
    /// counts as down).
    pub fn link_up(&self, dim: usize) -> bool {
        let st = self.shared.state.borrow();
        match (st.out_dims.get(dim), st.in_dims.get(dim)) {
            (Some(out), Some(inp)) => out.is_up() && inp.is_up(),
            _ => false,
        }
    }

    /// Crash the node: marks the control processor dead and downs every
    /// wired link (cube dimensions and the system thread) so partners fail
    /// fast instead of waiting on a rendezvous that will never come.
    pub fn crash(&self) {
        let st = self.shared.state.borrow();
        st.health.set_down();
        for ch in st.out_dims.iter().chain(st.in_dims.iter()) {
            ch.status().set_down();
        }
        if let Some(ch) = &st.sys_out {
            ch.status().set_down();
        }
        if let Some(ch) = &st.sys_in {
            ch.status().set_down();
        }
    }

    /// True once the node has been crashed by a fault plan.
    pub fn is_crashed(&self) -> bool {
        !self.shared.state.borrow().health.is_up()
    }

    /// The node's watchable health flag ("up" while alive). Daemons race
    /// their channel waits against this so a crash tears them down.
    pub fn health(&self) -> ts_link::LinkStatus {
        self.shared.state.borrow().health.clone()
    }

    /// The program-facing context.
    pub fn ctx(&self) -> NodeCtx {
        NodeCtx {
            node: self.clone(),
            view: None,
        }
    }

    /// This node's pre-registered unit meters.
    pub fn meters(&self) -> &NodeMeters {
        &self.shared.meters
    }

    /// The outgoing sublink for dimension `dim`, if wired (the machine's
    /// telemetry layer uses this to attach flow traces and latency
    /// histograms to each cube edge).
    pub fn out_channel(&self, dim: usize) -> Option<LinkChannel> {
        self.shared.state.borrow().out_dims.get(dim).cloned()
    }

    /// Number of cube dimensions wired so far.
    pub fn dims_wired(&self) -> usize {
        self.shared.state.borrow().out_dims.len()
    }

    /// Direct (zero-simulated-time) access to memory, for host-side setup
    /// and verification.
    pub fn mem(&self) -> Ref<'_, NodeMemory> {
        Ref::map(self.shared.state.borrow(), |s| &s.mem)
    }

    /// Mutable direct access (host-side setup only — charges no time).
    pub fn mem_mut(&self) -> RefMut<'_, NodeMemory> {
        RefMut::map(self.shared.state.borrow_mut(), |s| &mut s.mem)
    }

    /// Attach an execution tracer: the control processor, vector unit and
    /// word port record busy spans under `n<id>.cp` / `.vec` / `.port`.
    pub fn attach_tracer(&self, tracer: &ts_sim::Tracer) {
        self.shared
            .cp_res
            .attach_tracer(tracer.clone(), format!("n{}.cp", self.id));
        self.shared
            .vec_res
            .attach_tracer(tracer.clone(), format!("n{}.vec", self.id));
        self.shared
            .port_res
            .attach_tracer(tracer.clone(), format!("n{}.port", self.id));
    }
}

/// A subcube relabeling attached to a [`NodeCtx`]: the context reports a
/// **virtual** node id and maps virtual dimension `k` onto physical
/// dimension `dims[k]`. Programs written against virtual coordinates
/// (every collective and kernel in the workspace) run unmodified inside a
/// partition — the space-sharing scheduler's isolation mechanism.
struct SubcubeView {
    /// Virtual node id inside the partition.
    vid: u32,
    /// Physical dimension carrying each virtual dimension.
    dims: Vec<usize>,
}

/// The API node programs run against (an Occam process's view of the
/// hardware). Cheap to clone; all clones refer to the same node.
#[derive(Clone)]
pub struct NodeCtx {
    node: Node,
    /// Optional partition relabeling (see [`NodeCtx::subcube_view`]).
    view: Option<Rc<SubcubeView>>,
}

impl NodeCtx {
    /// Hypercube address of this node: the **virtual** id when the context
    /// is a subcube view, the physical id otherwise.
    pub fn id(&self) -> u32 {
        match &self.view {
            Some(v) => v.vid,
            None => self.node.id,
        }
    }

    /// Physical hypercube address of the underlying node, regardless of
    /// any attached view.
    pub fn phys_id(&self) -> u32 {
        self.node.id
    }

    /// A relabeled context for a node inside a partition: [`NodeCtx::id`]
    /// reports `vid` and every dimension-indexed operation (`send_dim`,
    /// `recv_dim`, `alt_dims`, `link_up`, ...) maps virtual dimension `k`
    /// onto physical dimension `dims[k]`. Collectives and kernels handed
    /// such a context run bit-identically to a dedicated machine of the
    /// partition's size, because virtual neighbours are physical
    /// neighbours and ids relabel consistently across the subcube.
    pub fn subcube_view(&self, vid: u32, dims: Vec<usize>) -> NodeCtx {
        assert!(
            vid < (1 << dims.len()),
            "virtual id out of range for the view"
        );
        NodeCtx {
            node: self.node.clone(),
            view: Some(Rc::new(SubcubeView { vid, dims })),
        }
    }

    /// Map a virtual dimension through the view (identity without one).
    fn map_dim(&self, dim: usize) -> usize {
        match &self.view {
            Some(v) => *v.dims.get(dim).unwrap_or_else(|| {
                panic!(
                    "node {}: virtual dimension {dim} outside the subcube view",
                    self.node.id
                )
            }),
            None => dim,
        }
    }

    /// Simulation handle (clock, sleeps, spawning).
    pub fn handle(&self) -> &SimHandle {
        &self.node.h
    }

    /// Current virtual time.
    pub fn now(&self) -> ts_sim::Time {
        self.node.h.now()
    }

    /// The node's pre-registered unit meters.
    pub fn meters(&self) -> &NodeMeters {
        &self.node.shared.meters
    }

    /// Zero-time memory access for setup/verification (host side).
    pub fn mem(&self) -> Ref<'_, NodeMemory> {
        self.node.mem()
    }

    /// Zero-time mutable memory access (host side).
    pub fn mem_mut(&self) -> RefMut<'_, NodeMemory> {
        self.node.mem_mut()
    }

    // --- control processor ------------------------------------------------

    /// Run `n` average control-processor instructions (7.5 MIPS).
    pub async fn cp_compute(&self, n: u64) {
        let d = CP_INSTR_TIME * n;
        self.node.shared.meters.cp_instrs.add(n);
        self.node.shared.meters.cp_busy.add(d);
        self.node.shared.cp_res.use_for(&self.node.h, d).await;
    }

    /// One timed word-port read (CP path: 400 ns, arbitrated).
    pub async fn cp_read(&self, addr: usize) -> Result<u32, MemError> {
        self.node
            .shared
            .cp_res
            .use_for(&self.node.h, WORD_TIME)
            .await;
        self.node.shared.port_res.reserve(self.now(), WORD_TIME);
        self.node.shared.meters.port_cp.add(WORD_TIME);
        self.node.shared.state.borrow().mem.read_word(addr)
    }

    /// One timed word-port write.
    pub async fn cp_write(&self, addr: usize, w: u32) -> Result<(), MemError> {
        self.node
            .shared
            .cp_res
            .use_for(&self.node.h, WORD_TIME)
            .await;
        self.node.shared.port_res.reserve(self.now(), WORD_TIME);
        self.node.shared.meters.port_cp.add(WORD_TIME);
        self.node.shared.state.borrow_mut().mem.write_word(addr, w)
    }

    /// Gather scattered 64-bit elements into a contiguous destination: the
    /// control processor's word-port loop, 1.6 µs per element (§II).
    /// `src` are word addresses of element low-words; `dst` is the first
    /// destination word address.
    pub async fn gather64(&self, src: &[usize], dst: usize) -> Result<(), MemError> {
        let d = GATHER64_TIME * src.len() as u64;
        // The CP and the word port are both occupied by the loop.
        self.node.shared.port_res.reserve(self.now(), d);
        self.node.shared.meters.cp_gathered.add(src.len() as u64);
        self.node.shared.meters.cp_busy.add(d);
        self.node.shared.meters.port_cp.add(d);
        {
            let mut st = self.node.shared.state.borrow_mut();
            for (i, &s) in src.iter().enumerate() {
                let v = st.mem.read_u64(s)?;
                st.mem.write_u64(dst + 2 * i, v)?;
            }
        }
        self.node.shared.cp_res.use_for(&self.node.h, d).await;
        Ok(())
    }

    /// Gather scattered 32-bit elements (one read + one write each:
    /// 0.8 µs per element, §II).
    pub async fn gather32(&self, src: &[usize], dst: usize) -> Result<(), MemError> {
        let d = ts_mem::GATHER32_TIME * src.len() as u64;
        self.node.shared.port_res.reserve(self.now(), d);
        self.node.shared.meters.cp_gathered.add(src.len() as u64);
        self.node.shared.meters.cp_busy.add(d);
        self.node.shared.meters.port_cp.add(d);
        {
            let mut st = self.node.shared.state.borrow_mut();
            for (i, &s) in src.iter().enumerate() {
                let v = st.mem.read_word(s)?;
                st.mem.write_word(dst + i, v)?;
            }
        }
        self.node.shared.cp_res.use_for(&self.node.h, d).await;
        Ok(())
    }

    /// Scatter contiguous 64-bit elements to scattered destinations
    /// (1.6 µs per element).
    pub async fn scatter64(&self, src: usize, dst: &[usize]) -> Result<(), MemError> {
        let d = GATHER64_TIME * dst.len() as u64;
        self.node.shared.port_res.reserve(self.now(), d);
        self.node.shared.meters.cp_scattered.add(dst.len() as u64);
        self.node.shared.meters.cp_busy.add(d);
        self.node.shared.meters.port_cp.add(d);
        {
            let mut st = self.node.shared.state.borrow_mut();
            for (i, &t) in dst.iter().enumerate() {
                let v = st.mem.read_u64(src + 2 * i)?;
                st.mem.write_u64(t, v)?;
            }
        }
        self.node.shared.cp_res.use_for(&self.node.h, d).await;
        Ok(())
    }

    /// Move `rows` whole rows from `src_row` to `dst_row` through the row
    /// port: physical data movement at 2560 MB/s (§II's pivoting/sorting
    /// argument). 800 ns per row (one read + one write).
    pub async fn row_move(
        &self,
        src_row: usize,
        dst_row: usize,
        rows: usize,
    ) -> Result<(), MemError> {
        let d = ROW_TIME * (2 * rows as u64);
        self.node.shared.meters.rows_moved.add(rows as u64);
        {
            let mut st = self.node.shared.state.borrow_mut();
            let mut buf = [0u32; ROW_WORDS];
            for r in 0..rows {
                st.mem.read_row(src_row + r, &mut buf)?;
                st.mem.write_row(dst_row + r, &buf)?;
            }
        }
        self.node.shared.cp_res.use_for(&self.node.h, d).await;
        Ok(())
    }

    /// Swap two row ranges (read both, write both: 1.6 µs per row pair).
    pub async fn row_swap(&self, a_row: usize, b_row: usize, rows: usize) -> Result<(), MemError> {
        let d = ROW_TIME * (4 * rows as u64);
        self.node.shared.meters.rows_moved.add(2 * rows as u64);
        {
            let mut st = self.node.shared.state.borrow_mut();
            let mut ba = [0u32; ROW_WORDS];
            let mut bb = [0u32; ROW_WORDS];
            for r in 0..rows {
                st.mem.read_row(a_row + r, &mut ba)?;
                st.mem.read_row(b_row + r, &mut bb)?;
                st.mem.write_row(a_row + r, &bb)?;
                st.mem.write_row(b_row + r, &ba)?;
            }
        }
        self.node.shared.cp_res.use_for(&self.node.h, d).await;
        Ok(())
    }

    // --- vector unit -------------------------------------------------------

    /// Execute a 64-bit vector form and wait for its completion interrupt.
    pub async fn vec(
        &self,
        form: VecForm,
        x_row: usize,
        y_row: usize,
        z_row: usize,
        n: usize,
    ) -> Result<VecResult, MemError> {
        let r = self.issue_vec(form, x_row, y_row, z_row, n)?;
        let (_s, end) = self
            .node
            .shared
            .vec_res
            .reserve(self.now(), r.timing.duration);
        self.node.h.sleep_until(end).await;
        Ok(r)
    }

    /// Execute a 32-bit-mode vector form (256 elements per register row,
    /// 5-stage multiplier) and wait for completion.
    pub async fn vec32(
        &self,
        form: VecForm,
        x_row: usize,
        y_row: usize,
        z_row: usize,
        n: usize,
    ) -> Result<VecResult, MemError> {
        let r = {
            let mut st = self.node.shared.state.borrow_mut();
            let NodeState { mem, vec_unit, .. } = &mut *st;
            let r = vec_unit.exec32(mem, form, x_row, y_row, z_row, n)?;
            self.node.shared.meters.vec_flops.add(r.timing.flops);
            self.node.shared.meters.vec_busy.add(r.timing.duration);
            self.node.shared.meters.vec_len.observe(n as u64);
            r
        };
        let (_s, end) = self
            .node
            .shared
            .vec_res
            .reserve(self.now(), r.timing.duration);
        self.node.h.sleep_until(end).await;
        Ok(r)
    }

    /// Narrow `n` 64-bit elements to 32-bit through the adder's conversion
    /// path (RNE + flush-to-zero).
    pub async fn vec_narrow(
        &self,
        x_row: usize,
        z_row: usize,
        n: usize,
    ) -> Result<VecResult, MemError> {
        let r = {
            let mut st = self.node.shared.state.borrow_mut();
            let NodeState { mem, vec_unit, .. } = &mut *st;
            let r = vec_unit.convert64to32(mem, x_row, z_row, n)?;
            self.node.shared.meters.vec_flops.add(r.timing.flops);
            self.node.shared.meters.vec_busy.add(r.timing.duration);
            self.node.shared.meters.vec_len.observe(n as u64);
            r
        };
        let (_s, end) = self
            .node
            .shared
            .vec_res
            .reserve(self.now(), r.timing.duration);
        self.node.h.sleep_until(end).await;
        Ok(r)
    }

    /// Widen `n` 32-bit elements to 64-bit (exact).
    pub async fn vec_widen(
        &self,
        x_row: usize,
        z_row: usize,
        n: usize,
    ) -> Result<VecResult, MemError> {
        let r = {
            let mut st = self.node.shared.state.borrow_mut();
            let NodeState { mem, vec_unit, .. } = &mut *st;
            let r = vec_unit.convert32to64(mem, x_row, z_row, n)?;
            self.node.shared.meters.vec_flops.add(r.timing.flops);
            self.node.shared.meters.vec_busy.add(r.timing.duration);
            self.node.shared.meters.vec_len.observe(n as u64);
            r
        };
        let (_s, end) = self
            .node
            .shared
            .vec_res
            .reserve(self.now(), r.timing.duration);
        self.node.h.sleep_until(end).await;
        Ok(r)
    }

    /// Issue a vector form and return immediately: the arithmetic unit runs
    /// concurrently with the control processor ("The complete arithmetic
    /// unit operates in parallel with the node control processor"). Await
    /// the returned handle for the completion interrupt.
    ///
    /// Model note: element values are computed (and visible in memory) at
    /// issue; a program that reads the output region before awaiting
    /// completion sees results early. Well-formed programs await first.
    pub fn vec_async(
        &self,
        form: VecForm,
        x_row: usize,
        y_row: usize,
        z_row: usize,
        n: usize,
    ) -> Result<ts_sim::JoinHandle<VecResult>, MemError> {
        let r = self.issue_vec(form, x_row, y_row, z_row, n)?;
        let (_s, end) = self
            .node
            .shared
            .vec_res
            .reserve(self.now(), r.timing.duration);
        let h = self.node.h.clone();
        Ok(self.node.h.spawn(async move {
            h.sleep_until(end).await;
            r
        }))
    }

    fn issue_vec(
        &self,
        form: VecForm,
        x_row: usize,
        y_row: usize,
        z_row: usize,
        n: usize,
    ) -> Result<VecResult, MemError> {
        let mut st = self.node.shared.state.borrow_mut();
        let NodeState { mem, vec_unit, .. } = &mut *st;
        let r = vec_unit.exec64(mem, form, x_row, y_row, z_row, n)?;
        self.node.shared.meters.vec_flops.add(r.timing.flops);
        self.node.shared.meters.vec_busy.add(r.timing.duration);
        self.node.shared.meters.vec_len.observe(n as u64);
        Ok(r)
    }

    /// Combine two value vectors elementwise through the vector unit
    /// (message payloads live in registers/DMA buffers rather than aligned
    /// rows, so this charges the same cross-bank vector-form timing without
    /// touching the row model). Used by the collectives.
    pub async fn combine_values(&self, op: CombineOp, acc: &mut [Sf64], other: &[Sf64]) {
        assert_eq!(acc.len(), other.len(), "combine_values length mismatch");
        let n = acc.len();
        for (a, &b) in acc.iter_mut().zip(other) {
            *a = match op {
                CombineOp::Add => *a + b,
                CombineOp::Mul => *a * b,
                CombineOp::Max => {
                    if matches!(a.compare(b), Some(std::cmp::Ordering::Less)) {
                        b
                    } else {
                        *a
                    }
                }
                CombineOp::Min => {
                    if matches!(a.compare(b), Some(std::cmp::Ordering::Greater)) {
                        b
                    } else {
                        *a
                    }
                }
            };
        }
        // Charge the adder-path vector-form time (II = 1).
        let form = VecForm::VAdd;
        let depth = form.depth(ts_fpu::pipeline::Precision::Double);
        let mut d = Dur::ns(525) + ROW_TIME;
        if n > 0 {
            d += Dur::CYCLE * (depth + n as u64 - 1);
        }
        d += ROW_TIME;
        self.node.shared.meters.vec_flops.add(n as u64);
        self.node.shared.meters.vec_busy.add(d);
        self.node.shared.meters.vec_len.observe(n as u64);
        let (_s, end) = self.node.shared.vec_res.reserve(self.now(), d);
        self.node.h.sleep_until(end).await;
    }

    /// SAXPY on message-buffer values: `y[i] += a·x[i]` through the chained
    /// multiplier→adder pipe (2 flops per element, II = 1).
    pub async fn saxpy_values(&self, a: Sf64, x: &[Sf64], y: &mut [Sf64]) {
        assert_eq!(x.len(), y.len(), "saxpy_values length mismatch");
        for (yi, &xi) in y.iter_mut().zip(x) {
            *yi = a * xi + *yi;
        }
        let n = x.len() as u64;
        let d = self.vec_form_time(13, n, 2 * n);
        let (_s, end) = self.node.shared.vec_res.reserve(self.now(), d);
        self.node.h.sleep_until(end).await;
    }

    /// Dot product on message-buffer values (2 flops per element).
    pub async fn dot_values(&self, x: &[Sf64], y: &[Sf64]) -> Sf64 {
        assert_eq!(x.len(), y.len(), "dot_values length mismatch");
        let mut acc = Sf64::ZERO;
        for (&xi, &yi) in x.iter().zip(y) {
            acc = acc + xi * yi;
        }
        let n = x.len() as u64;
        let d = self.vec_form_time(13, n, 2 * n) + Dur::CYCLE * 6; // feedback drain
        let (_s, end) = self.node.shared.vec_res.reserve(self.now(), d);
        self.node.h.sleep_until(end).await;
        acc
    }

    /// Charge the vector unit for `flops` floating-point operations issued
    /// as fused chained forms at the node's 2-flops-per-cycle peak, without
    /// modeling the individual operands (used by kernels whose inner loops
    /// are algorithmically regular, e.g. FFT butterflies).
    pub async fn charge_vec_flops(&self, flops: u64) {
        if flops == 0 {
            return;
        }
        let cycles = flops.div_ceil(2);
        let d = self.vec_form_time(13, cycles, flops);
        let (_s, end) = self.node.shared.vec_res.reserve(self.now(), d);
        self.node.h.sleep_until(end).await;
    }

    /// Timing of a vector form: issue + first row load + `depth` cycles +
    /// `n−1` cycles + result-row drain; books `flops` into the metrics.
    fn vec_form_time(&self, depth: u64, n: u64, flops: u64) -> Dur {
        let mut d = Dur::ns(525) + ROW_TIME;
        if n > 0 {
            d += Dur::CYCLE * (depth + n - 1);
        }
        d += ROW_TIME;
        self.node.shared.meters.vec_flops.add(flops);
        self.node.shared.meters.vec_busy.add(d);
        self.node.shared.meters.vec_len.observe(n);
        d
    }

    // --- links --------------------------------------------------------------

    fn out_chan(&self, dim: usize) -> LinkChannel {
        let dim = self.map_dim(dim);
        self.node
            .shared
            .state
            .borrow()
            .out_dims
            .get(dim)
            .cloned()
            .unwrap_or_else(|| panic!("node {}: dimension {dim} not wired", self.node.id))
    }

    fn in_chan(&self, dim: usize) -> LinkChannel {
        let dim = self.map_dim(dim);
        self.node
            .shared
            .state
            .borrow()
            .in_dims
            .get(dim)
            .cloned()
            .unwrap_or_else(|| panic!("node {}: dimension {dim} not wired", self.node.id))
    }

    /// The incoming sublink for dimension `dim` (router daemons `ALT` over
    /// these directly).
    pub fn in_channel(&self, dim: usize) -> LinkChannel {
        self.in_chan(dim)
    }

    /// Send words to the hypercube neighbour across `dim`.
    pub async fn send_dim(&self, dim: usize, words: Vec<u32>) {
        let ch = self.out_chan(dim);
        self.node
            .shared
            .meters
            .link_words_sent
            .add(words.len() as u64);
        ch.send(&self.node.h, words).await;
    }

    /// Receive words from the neighbour across `dim`.
    pub async fn recv_dim(&self, dim: usize) -> Vec<u32> {
        let ch = self.in_chan(dim);
        let w = ch.recv(&self.node.h).await;
        self.node.shared.meters.link_words_recv.add(w.len() as u64);
        w
    }

    /// Failable [`NodeCtx::send_dim`]: returns [`LinkError::Down`] instead
    /// of hanging when the link across `dim` is (or goes) dead.
    pub async fn try_send_dim(&self, dim: usize, words: Vec<u32>) -> Result<(), LinkError> {
        let ch = self.out_chan(dim);
        let n = words.len() as u64;
        let r = ch.try_send(&self.node.h, words).await;
        if r.is_ok() {
            self.node.shared.meters.link_words_sent.add(n);
        }
        r
    }

    /// Failable [`NodeCtx::recv_dim`]: returns [`LinkError::Down`] instead
    /// of hanging when the link across `dim` is (or goes) dead.
    pub async fn try_recv_dim(&self, dim: usize) -> Result<Vec<u32>, LinkError> {
        let ch = self.in_chan(dim);
        let w = ch.try_recv(&self.node.h).await?;
        self.node.shared.meters.link_words_recv.add(w.len() as u64);
        Ok(w)
    }

    /// True while the physical link across `dim` (a virtual dimension when
    /// this context is a subcube view) is alive.
    pub fn link_up(&self, dim: usize) -> bool {
        self.node.link_up(self.map_dim(dim))
    }

    /// The watchable status pair (out, in) of the link across `dim`, or
    /// `None` for an unwired dimension. Callers that test liveness on every
    /// hop (the router) cache these handles once and read two shared flags
    /// per decision instead of borrowing node state per dimension.
    pub fn link_statuses(&self, dim: usize) -> Option<(ts_link::LinkStatus, ts_link::LinkStatus)> {
        let dim = self.map_dim(dim);
        let st = self.node.shared.state.borrow();
        match (st.out_dims.get(dim), st.in_dims.get(dim)) {
            (Some(o), Some(i)) => Some((o.status().clone(), i.status().clone())),
            _ => None,
        }
    }

    /// True once this node has been crashed by a fault plan.
    pub fn is_crashed(&self) -> bool {
        self.node.is_crashed()
    }

    /// The node's watchable health flag ("up" while alive).
    pub fn health(&self) -> ts_link::LinkStatus {
        self.node.health()
    }

    /// `ALT` over several incoming dimensions: first sender wins.
    pub async fn alt_dims(&self, dims: &[usize]) -> (usize, Vec<u32>) {
        let chans: Vec<LinkChannel> = dims.iter().map(|&d| self.in_chan(d)).collect();
        let refs: Vec<&LinkChannel> = chans.iter().collect();
        let (idx, words) = ts_link::alt_recv(&self.node.h, &refs).await;
        self.node
            .shared
            .meters
            .link_words_recv
            .add(words.len() as u64);
        (dims[idx], words)
    }

    /// Send a slice of 64-bit floats across `dim` (two words per element).
    ///
    /// The wire buffer comes from the word pool; the receiver's
    /// [`NodeCtx::recv_f64s`] returns it there once unpacked.
    pub async fn send_f64s(&self, dim: usize, vals: &[Sf64]) {
        let mut words = ts_sim::pool::take_words(vals.len() * 2);
        for v in vals {
            let b = v.to_bits();
            words.push(b as u32);
            words.push((b >> 32) as u32);
        }
        self.send_dim(dim, words).await;
    }

    /// Receive a slice of 64-bit floats from `dim`. The result buffer comes
    /// from the value pool — hand it back with [`recycle_values`] when done
    /// to keep the collective hot path allocation-free.
    pub async fn recv_f64s(&self, dim: usize) -> Vec<Sf64> {
        let words = self.recv_dim(dim).await;
        let mut vals = take_values(words.len() / 2);
        vals.extend(
            words
                .chunks_exact(2)
                .map(|c| Sf64::from_bits(c[0] as u64 | ((c[1] as u64) << 32))),
        );
        ts_sim::pool::put_words(words);
        vals
    }

    /// Send to the module's system board.
    pub async fn send_system(&self, words: Vec<u32>) {
        let ch = self
            .node
            .shared
            .state
            .borrow()
            .sys_out
            .clone()
            .expect("system thread not wired");
        ch.send(&self.node.h, words).await;
    }

    /// Failable [`NodeCtx::send_system`]: identical timing while healthy,
    /// but resolves to [`ts_link::LinkError::Down`] when the node crashes
    /// (which downs its system link) before or during the send — even
    /// while parked waiting for the board's rendezvous.
    pub async fn try_send_system(&self, words: Vec<u32>) -> Result<(), ts_link::LinkError> {
        let ch = self
            .node
            .shared
            .state
            .borrow()
            .sys_out
            .clone()
            .expect("system thread not wired");
        ch.try_send(&self.node.h, words).await
    }

    /// Receive from the module's system board.
    pub async fn recv_system(&self) -> Vec<u32> {
        let ch = self
            .node
            .shared
            .state
            .borrow()
            .sys_in
            .clone()
            .expect("system thread not wired");
        ch.recv(&self.node.h).await
    }

    // --- running real machine code ------------------------------------------

    /// Load `code` at byte address `base` and run the control processor
    /// until it halts, servicing channel and vector events against this
    /// node's hardware. Returns the processor state (cycles, stack).
    pub async fn run_cp_program(
        &self,
        code: &[u8],
        base: u32,
        wptr: u32,
    ) -> Result<Cp, CpRunError> {
        {
            let mut st = self.node.shared.state.borrow_mut();
            let mut bus = MemBus { mem: &mut st.mem };
            ts_cp::emu::load_code(&mut bus, base, code).map_err(CpRunError::Cp)?;
        }
        let mut cp = Cp::new(base, wptr);
        // Processor time of this program already charged to the clock.
        let mut charged = Dur::ZERO;
        loop {
            let outcome = {
                let mut st = self.node.shared.state.borrow_mut();
                let mut bus = MemBus { mem: &mut st.mem };
                cp.run(&mut bus, 10_000_000).map_err(CpRunError::Cp)?
            };
            // Charge the cycles executed since the last yield.
            let fresh = cp.elapsed() - charged;
            charged += fresh;
            self.node.shared.meters.cp_busy.add(fresh);
            self.node.shared.cp_res.use_for(&self.node.h, fresh).await;
            match outcome {
                StepOutcome::Halted => return Ok(cp),
                StepOutcome::Yielded(ev) => {
                    self.service_event(ev).await.map_err(CpRunError::Mem)?
                }
            }
        }
    }

    /// Compile an `occ` program (the mini-Occam of `ts-cp::occ`) and run it
    /// on this node's control processor. Returns the processor state and
    /// the variable slot map, so callers can read results out of the
    /// workspace (`256 + slot`).
    pub async fn run_occ(
        &self,
        src: &str,
    ) -> Result<(Cp, std::collections::HashMap<String, usize>), CpRunError> {
        let prog = ts_cp::occ::compile(src).map_err(CpRunError::Compile)?;
        let cp = self.run_cp_program(&prog.code, 8192, 256).await?;
        Ok((cp, prog.vars))
    }

    async fn service_event(&self, ev: CpEvent) -> Result<(), MemError> {
        match ev {
            CpEvent::Out { chan, ptr, words } => {
                let payload = {
                    let st = self.node.shared.state.borrow();
                    (0..words)
                        .map(|i| st.mem.read_word((ptr + i) as usize))
                        .collect::<Result<Vec<u32>, MemError>>()?
                };
                self.send_dim(chan as usize, payload).await;
            }
            CpEvent::In { chan, ptr, words } => {
                let got = self.recv_dim(chan as usize).await;
                let mut st = self.node.shared.state.borrow_mut();
                for (i, w) in got.into_iter().take(words as usize).enumerate() {
                    st.mem.write_word(ptr as usize + i, w)?;
                }
            }
            CpEvent::VecIssue { descriptor, n } => {
                let (form, x, y, z) = {
                    let st = self.node.shared.state.borrow();
                    let f = st.mem.read_word(descriptor as usize)?;
                    let x = st.mem.read_word(descriptor as usize + 1)? as usize;
                    let y = st.mem.read_word(descriptor as usize + 2)? as usize;
                    let z = st.mem.read_word(descriptor as usize + 3)? as usize;
                    let form = match f {
                        0 => VecForm::VAdd,
                        1 => VecForm::VSub,
                        2 => VecForm::VMul,
                        3 => VecForm::Dot,
                        4 => VecForm::Sum,
                        _ => VecForm::VAdd,
                    };
                    (form, x, y, z)
                };
                let r = self.vec(form, x, y, z, n as usize).await?;
                // Scalar results land in the descriptor's 5th word slot.
                if let Some(s) = r.scalar {
                    let mut st = self.node.shared.state.borrow_mut();
                    st.mem.write_u64(descriptor as usize + 4, s)?;
                }
            }
        }
        Ok(())
    }
}

/// Errors from running machine code on a node.
#[derive(Debug)]
pub enum CpRunError {
    /// Processor fault.
    Cp(CpError),
    /// Memory system fault during event service.
    Mem(MemError),
    /// `occ` source failed to compile.
    Compile(ts_cp::occ::OccError),
}

impl std::fmt::Display for CpRunError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CpRunError::Cp(e) => write!(f, "control processor fault: {e}"),
            CpRunError::Mem(e) => write!(f, "memory fault: {e}"),
            CpRunError::Compile(e) => write!(f, "occ compile error: {e}"),
        }
    }
}

impl std::error::Error for CpRunError {}

/// Adapter: the node's dual-ported memory as the processor's bus.
struct MemBus<'a> {
    mem: &'a mut NodeMemory,
}

impl CpBus for MemBus<'_> {
    fn read(&mut self, word_addr: u32) -> Result<u32, CpError> {
        self.mem
            .read_word(word_addr as usize)
            .map_err(|_| CpError::Bus { addr: word_addr })
    }

    fn write(&mut self, word_addr: u32, value: u32) -> Result<(), CpError> {
        self.mem
            .write_word(word_addr as usize, value)
            .map_err(|_| CpError::Bus { addr: word_addr })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ts_link::{LinkParams, Wire};
    use ts_sim::Sim;

    fn wire_pair(a: &Node, b: &Node, dim: usize) {
        // Dimension d uses physical link d%4 on each node; here each test
        // edge just gets its own wires.
        let ab = LinkChannel::new(Wire::new("ab", LinkParams::default()));
        let ba = LinkChannel::new(Wire::new("ba", LinkParams::default()));
        a.wire_dim(dim, ab.clone(), ba.clone());
        b.wire_dim(dim, ba, ab);
    }

    fn two_nodes(sim: &Sim) -> (Node, Node) {
        let a = Node::new(0, NodeCfg::default(), sim.handle());
        let b = Node::new(1, NodeCfg::default(), sim.handle());
        wire_pair(&a, &b, 0);
        (a, b)
    }

    #[test]
    fn vector_op_advances_clock() {
        let mut sim = Sim::new();
        let node = Node::new(0, NodeCfg::default(), sim.handle());
        let ctx = node.ctx();
        {
            let mut mem = node.mem_mut();
            for i in 0..128 {
                mem.write_f64(2 * i, Sf64::from(i as f64)).unwrap();
                let b_base = 256 * ROW_WORDS;
                mem.write_f64(b_base + 2 * i, Sf64::from(1.0)).unwrap();
            }
        }
        let jh = sim.spawn(async move {
            let r = ctx.vec(VecForm::VAdd, 0, 256, 257, 128).await.unwrap();
            (r.timing.flops, ctx.now())
        });
        assert!(sim.run().quiescent);
        let (flops, t) = jh.try_take().unwrap();
        assert_eq!(flops, 128);
        assert!(t.as_ns() > 0);
        assert_eq!(node.mem().read_f64(257 * ROW_WORDS).unwrap().to_host(), 1.0);
        assert_eq!(node.meters().vec_flops.get(), 128);
    }

    #[test]
    fn gather_costs_1_6us_per_element() {
        let mut sim = Sim::new();
        let node = Node::new(0, NodeCfg::default(), sim.handle());
        let ctx = node.ctx();
        {
            let mut mem = node.mem_mut();
            for i in 0..64usize {
                mem.write_f64(1000 + 8 * i, Sf64::from(i as f64)).unwrap();
            }
        }
        let jh = sim.spawn(async move {
            let src: Vec<usize> = (0..64).map(|i| 1000 + 8 * i).collect();
            ctx.gather64(&src, 0).await.unwrap();
            ctx.now()
        });
        assert!(sim.run().quiescent);
        let t = jh.try_take().unwrap();
        assert_eq!(t.as_ns(), 64 * 1600);
        // Data actually moved.
        assert_eq!(node.mem().read_f64(2 * 63).unwrap().to_host(), 63.0);
    }

    #[test]
    fn vec_overlaps_gather_but_not_vec() {
        let mut sim = Sim::new();
        let node = Node::new(0, NodeCfg::default(), sim.handle());
        let ctx = node.ctx();
        let jh = sim.spawn(async move {
            // Issue a long vector op, then gather while it runs.
            let pending = ctx
                .vec_async(VecForm::Saxpy(Sf64::from(2.0)), 0, 256, 512, 1024)
                .unwrap();
            let src: Vec<usize> = (0..32).map(|i| 3000 + 4 * i).collect();
            ctx.gather64(&src, 2000).await.unwrap();
            let gather_done = ctx.now();
            let r = pending.await;
            (gather_done, ctx.now(), r.timing.duration)
        });
        assert!(sim.run().quiescent);
        let (gather_done, vec_done, vec_dur) = jh.try_take().unwrap();
        // Gather (51.2 µs) finished before the 1024-element SAXPY (~130 µs):
        assert!(gather_done < vec_done);
        assert_eq!(vec_done.since(ts_sim::Time::ZERO), vec_dur);
        // Total < sum (overlap) but = vec duration (it dominates).
        assert!(vec_dur.as_ns() > 51_200);
    }

    #[test]
    fn two_vec_ops_serialize() {
        let mut sim = Sim::new();
        let node = Node::new(0, NodeCfg::default(), sim.handle());
        let ctx = node.ctx();
        let jh = sim.spawn(async move {
            let a = ctx.vec_async(VecForm::VAdd, 0, 256, 512, 128).unwrap();
            let b = ctx.vec_async(VecForm::VMul, 1, 257, 513, 128).unwrap();
            let ra = a.await;
            let rb = b.await;
            (ra.timing.duration, rb.timing.duration, ctx.now())
        });
        assert!(sim.run().quiescent);
        let (da, db, end) = jh.try_take().unwrap();
        assert_eq!(end.since(ts_sim::Time::ZERO), da + db, "one vector unit");
    }

    #[test]
    fn messages_cross_between_nodes() {
        let mut sim = Sim::new();
        let (a, b) = two_nodes(&sim);
        let (ca, cb) = (a.ctx(), b.ctx());
        sim.spawn(async move {
            ca.send_f64s(0, &[Sf64::from(1.5), Sf64::from(-2.5)]).await;
        });
        let jh = sim.spawn(async move {
            let v = cb.recv_f64s(0).await;
            (v[0].to_host(), v[1].to_host(), cb.now())
        });
        assert!(sim.run().quiescent);
        let (x, y, t) = jh.try_take().unwrap();
        assert_eq!((x, y), (1.5, -2.5));
        // 16 bytes: 5 µs DMA + 32 µs wire.
        assert_eq!(t.as_ns(), 37_000);
    }

    #[test]
    fn alt_dims_selects_first_arrival() {
        let mut sim = Sim::new();
        let h = sim.handle();
        let a = Node::new(0, NodeCfg::default(), sim.handle());
        let b = Node::new(1, NodeCfg::default(), sim.handle());
        let c = Node::new(2, NodeCfg::default(), sim.handle());
        wire_pair(&a, &b, 0);
        wire_pair(&a, &c, 1);
        let (ca, cb, cc) = (a.ctx(), b.ctx(), c.ctx());
        sim.spawn(async move {
            h.sleep(Dur::us(100)).await;
            cb.send_dim(0, vec![7]).await;
        });
        sim.spawn(async move {
            cc.send_dim(1, vec![9]).await; // arrives first
        });
        let jh = sim.spawn(async move {
            let (dim, words) = ca.alt_dims(&[0, 1]).await;
            let (dim2, words2) = ca.alt_dims(&[0, 1]).await;
            ((dim, words[0]), (dim2, words2[0]))
        });
        assert!(sim.run().quiescent);
        assert_eq!(jh.try_take(), Some(((1, 9), (0, 7))));
    }

    #[test]
    fn row_move_timing() {
        let mut sim = Sim::new();
        let node = Node::new(0, NodeCfg::default(), sim.handle());
        let ctx = node.ctx();
        {
            let mut mem = node.mem_mut();
            mem.write_word(5 * ROW_WORDS + 3, 777).unwrap();
        }
        let jh = sim.spawn(async move {
            ctx.row_move(5, 700, 1).await.unwrap();
            ctx.now()
        });
        assert!(sim.run().quiescent);
        assert_eq!(jh.try_take().unwrap().as_ns(), 800);
        assert_eq!(node.mem().read_word(700 * ROW_WORDS + 3).unwrap(), 777);
    }

    #[test]
    fn single_precision_mode_and_conversions() {
        let mut sim = Sim::new();
        let node = Node::new(0, NodeCfg::default(), sim.handle());
        let ctx = node.ctx();
        {
            let mut mem = node.mem_mut();
            for i in 0..64 {
                mem.write_f64(2 * i, Sf64::from(i as f64 + 0.5)).unwrap();
            }
        }
        let jh = sim.spawn(async move {
            let rows_a = ctx.mem().cfg().rows_a();
            // Narrow 64 doubles into bank B as floats.
            ctx.vec_narrow(0, rows_a, 64).await.unwrap();
            // 32-bit VAdd with itself: z32 = x32 + x32.
            let r = ctx
                .vec32(ts_vec::VecForm::VAdd, rows_a, rows_a, rows_a + 1, 64)
                .await
                .unwrap();
            // Widen back to bank A row 8.
            ctx.vec_widen(rows_a + 1, 8, 64).await.unwrap();
            r.timing.flops
        });
        assert!(sim.run().quiescent);
        assert_eq!(jh.try_take(), Some(64));
        // The widened result is 2*(i + 0.5) exactly (all representable).
        let mem = node.mem();
        for i in 0..64 {
            let got = mem
                .read_f64((8 + i / 128) * ROW_WORDS + 2 * i)
                .unwrap()
                .to_host();
            assert_eq!(got, 2.0 * (i as f64 + 0.5), "elem {i}");
        }
    }

    #[test]
    fn cp_program_with_channel_io() {
        // Node A runs machine code that sends 4 words from memory; node B
        // runs code that receives them.
        let mut sim = Sim::new();
        let (a, b) = two_nodes(&sim);
        for (i, w) in [11u32, 22, 33, 44].into_iter().enumerate() {
            a.mem_mut().write_word(512 + i, w).unwrap();
        }
        let send = ts_cp::assemble("ldc 0\nldc 512\nldc 4\nout\nhalt\n").unwrap();
        let recv = ts_cp::assemble("ldc 0\nldc 512\nldc 4\nin\nhalt\n").unwrap();
        let (ca, cb) = (a.ctx(), b.ctx());
        sim.spawn(async move {
            ca.run_cp_program(&send, 4096, 256).await.unwrap();
        });
        let jh = sim.spawn(async move {
            let cp = cb.run_cp_program(&recv, 4096, 256).await.unwrap();
            cp.instructions
        });
        assert!(sim.run().quiescent);
        assert!(jh.try_take().unwrap() >= 5);
        for (i, w) in [11u32, 22, 33, 44].into_iter().enumerate() {
            assert_eq!(b.mem().read_word(512 + i).unwrap(), w);
        }
        assert!(b.meters().cp_busy.get() > Dur::ZERO);
    }

    #[test]
    fn cp_programs_are_charged_independently() {
        // Each program pays for its own cycles: the same program run twice
        // on one node costs the same both times, and a short program after
        // a long one is charged its own (smaller) time.
        let long = ts_cp::assemble("ldc 1\nldc 2\nadd\nldc 3\nadd\nhalt\n").unwrap();
        let short = ts_cp::assemble("halt\n").unwrap();
        for (first, second) in [(&long, &long), (&long, &short)] {
            let mut sim = Sim::new();
            let node = Node::new(0, NodeCfg::default(), sim.handle());
            let ctx = node.ctx();
            let (first, second) = (first.clone(), second.clone());
            let jh = sim.spawn(async move {
                let mut costs = Vec::new();
                for code in [first, second] {
                    let t0 = ctx.now();
                    let cp = ctx.run_cp_program(&code, 4096, 256).await.unwrap();
                    costs.push((ctx.now().since(t0), cp.elapsed()));
                }
                costs
            });
            assert!(sim.run().quiescent);
            let costs = jh.try_take().unwrap();
            for (charged, elapsed) in &costs {
                assert!(*elapsed > Dur::ZERO);
                assert_eq!(charged, elapsed);
            }
            assert_eq!(
                node.meters().cp_busy.get(),
                costs[0].1 + costs[1].1,
                "cp busy is the sum of both programs"
            );
        }
    }

    #[test]
    fn run_occ_convenience() {
        let mut sim = Sim::new();
        let node = Node::new(0, NodeCfg::default(), sim.handle());
        let ctx = node.ctx();
        let jh = sim.spawn(async move {
            let (cp, vars) = ctx
                .run_occ("n := 6; f := 1; while n > 1 { f := f * n; n := n - 1; }")
                .await
                .unwrap();
            (cp.instructions, vars["f"])
        });
        assert!(sim.run().quiescent);
        let (instrs, slot) = jh.try_take().unwrap();
        assert!(instrs > 20);
        assert_eq!(node.mem().read_word(256 + slot).unwrap(), 720);
    }

    #[test]
    fn run_occ_reports_compile_errors() {
        let mut sim = Sim::new();
        let node = Node::new(0, NodeCfg::default(), sim.handle());
        let ctx = node.ctx();
        let jh =
            sim.spawn(
                async move { matches!(ctx.run_occ("x := ;").await, Err(CpRunError::Compile(_))) },
            );
        assert!(sim.run().quiescent);
        assert_eq!(jh.try_take(), Some(true));
    }

    #[test]
    fn cp_program_issues_vector_form() {
        let mut sim = Sim::new();
        let node = Node::new(0, NodeCfg::default(), sim.handle());
        {
            let mut mem = node.mem_mut();
            // Descriptor at word 600: form=VAdd(0), x=0, y=256, z=257.
            mem.write_word(600, 0).unwrap();
            mem.write_word(601, 0).unwrap();
            mem.write_word(602, 256).unwrap();
            mem.write_word(603, 257).unwrap();
            for i in 0..4 {
                mem.write_f64(2 * i, Sf64::from(i as f64)).unwrap();
                mem.write_f64(256 * ROW_WORDS + 2 * i, Sf64::from(10.0))
                    .unwrap();
            }
        }
        let code = ts_cp::assemble("ldc 600\nldc 4\nvecop\nhalt\n").unwrap();
        let ctx = node.ctx();
        sim.spawn(async move {
            ctx.run_cp_program(&code, 4096, 300).await.unwrap();
        });
        assert!(sim.run().quiescent);
        assert_eq!(
            node.mem().read_f64(257 * ROW_WORDS + 4).unwrap().to_host(),
            12.0
        );
        assert_eq!(node.meters().vec_flops.get(), 4);
    }
}
