//! Deterministic fault-injection plans.
//!
//! A [`FaultPlan`] is a schedule of hardware faults — link failures, node
//! crashes, memory bit flips — pinned to exact simulated times. Because
//! the simulator is deterministic, the same plan against the same program
//! produces the same interleaving every run: fault drills are replayable,
//! and a bug found under a seeded plan reproduces from the seed alone.
//!
//! Plans are built explicitly ([`FaultPlan::with`]) or generated from a
//! seed ([`FaultPlan::generate`]) using the simulator's own PRNG. They can
//! be armed on a bare [`Machine`] as timed background tasks
//! ([`FaultPlan::schedule`]), or driven synchronously by the
//! [`crate::supervisor::Supervisor`], which slices its run quanta around
//! each fault time so injection lands at the exact instant.

use std::fmt;

use ts_cube::NodeId;
use ts_node::Node;
use ts_sim::{Dur, Rng, Time};

use crate::Machine;

/// One hardware fault.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FaultEvent {
    /// The physical link carrying cube dimension `dim` at `node` dies —
    /// both directions, the neighbour sees it too. Link faults are
    /// *persistent*: a rebooted machine comes back with the link still
    /// dead (the cable is broken, not the software).
    LinkDown {
        /// Node on one end of the failed edge.
        node: NodeId,
        /// Cube dimension of the failed edge.
        dim: u32,
    },
    /// `node`'s control processor halts; every wired link on the node
    /// (cube and system thread) goes down with it. Transient: a reboot
    /// brings the node back.
    NodeCrash {
        /// The crashing node.
        node: NodeId,
    },
    /// A single bit of `node`'s memory flips without updating parity; the
    /// next access reports a parity error. Repaired by restore + scrub.
    MemFlip {
        /// Node whose memory is hit.
        node: NodeId,
        /// Word address of the flip.
        addr: usize,
        /// Bit index within the word (taken mod 32).
        bit: u32,
    },
    /// A transient bit error on the wire: one flit of `node`'s next
    /// outbound message on `dim` arrives with `flit_bit` flipped, fails
    /// its CRC-16, and is recovered by go-back-N retransmission.
    WireCorrupt {
        /// Transmitting node.
        node: NodeId,
        /// Cube dimension of the hit link.
        dim: u32,
        /// Which payload bit of the message flips (selects the flit mod
        /// the message length).
        flit_bit: u64,
    },
    /// A transient flit loss: one flit of `node`'s next outbound message
    /// on `dim` vanishes; the receiver times out and the window is
    /// retransmitted.
    FlitDrop {
        /// Transmitting node.
        node: NodeId,
        /// Cube dimension of the hit link.
        dim: u32,
    },
    /// The physical link at `node`/`dim` drops out for `down_for` of sim
    /// time and then heals itself (a loose connector, not a cut cable).
    LinkFlap {
        /// Node on one end of the flapping edge.
        node: NodeId,
        /// Cube dimension of the flapping edge.
        dim: u32,
        /// Outage length before the link self-heals.
        down_for: Dur,
    },
}

/// Whether a fault survives a machine reboot.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Persistence {
    /// Broken hardware: a rebooted machine comes back with the fault
    /// still present, so recovery must route around it.
    Persistent,
    /// Broken state: a reboot (or simply time passing) clears it.
    Transient,
}

impl FaultEvent {
    /// The node the fault lands on.
    pub fn node(&self) -> NodeId {
        match *self {
            FaultEvent::LinkDown { node, .. }
            | FaultEvent::NodeCrash { node }
            | FaultEvent::MemFlip { node, .. }
            | FaultEvent::WireCorrupt { node, .. }
            | FaultEvent::FlitDrop { node, .. }
            | FaultEvent::LinkFlap { node, .. } => node,
        }
    }

    /// How the fault relates to a reboot. The match is exhaustive on
    /// purpose: adding a `FaultEvent` variant without deciding its
    /// persistence is a compile error, not a silent default to transient.
    pub fn persistence(&self) -> Persistence {
        match *self {
            FaultEvent::LinkDown { .. } => Persistence::Persistent,
            FaultEvent::NodeCrash { .. } => Persistence::Transient,
            FaultEvent::MemFlip { .. } => Persistence::Transient,
            FaultEvent::WireCorrupt { .. } => Persistence::Transient,
            FaultEvent::FlitDrop { .. } => Persistence::Transient,
            FaultEvent::LinkFlap { .. } => Persistence::Transient,
        }
    }

    /// True for faults that survive a reboot (broken hardware, not state).
    pub fn is_persistent(&self) -> bool {
        self.persistence() == Persistence::Persistent
    }

    /// Inject this fault into `m` right now.
    pub fn apply(&self, m: &Machine) {
        let f = m.faults();
        match *self {
            FaultEvent::LinkDown { node, dim } => f.link_down(node, dim),
            FaultEvent::NodeCrash { node } => f.crash(node),
            FaultEvent::MemFlip { node, addr, bit } => f.mem_flip(node, addr, bit),
            FaultEvent::WireCorrupt {
                node,
                dim,
                flit_bit,
            } => f.wire_corrupt(node, dim, flit_bit),
            FaultEvent::FlitDrop { node, dim } => f.flit_drop(node, dim),
            FaultEvent::LinkFlap {
                node,
                dim,
                down_for,
            } => f.link_flap(node, dim, down_for),
        }
    }

    /// Inject directly through a node handle (used by the timed tasks
    /// [`FaultPlan::schedule`] spawns, which cannot borrow the machine,
    /// and by the supervisor when it pre-schedules plan faults that land
    /// inside a checkpoint window).
    pub(crate) fn apply_to(&self, n: &Node) {
        match *self {
            FaultEvent::LinkDown { dim, .. } => {
                n.set_link_down(dim as usize);
                n.meters().scope().counter("fault/link_down").inc();
            }
            FaultEvent::NodeCrash { .. } => {
                n.crash();
                n.meters().scope().counter("fault/node_crash").inc();
            }
            FaultEvent::MemFlip { addr, bit, .. } => {
                n.mem_mut()
                    .inject_bit_flip(addr, bit)
                    .expect("mem-flip address out of range");
                n.meters().scope().counter("fault/mem_flip").inc();
            }
            FaultEvent::WireCorrupt { dim, flit_bit, .. } => {
                n.queue_wire_corrupt(dim as usize, flit_bit);
                n.meters().scope().counter("fault/wire_corrupt").inc();
            }
            FaultEvent::FlitDrop { dim, .. } => {
                n.queue_flit_drop(dim as usize);
                n.meters().scope().counter("fault/flit_drop").inc();
            }
            FaultEvent::LinkFlap { dim, down_for, .. } => {
                n.flap_link(dim as usize, down_for);
                n.meters().scope().counter("fault/link_flap").inc();
            }
        }
    }

    /// The machine-readable token form used by the [`FaultPlan`] text
    /// format (one fault per line, parsed back by [`FaultPlan::parse`]).
    fn write_tokens(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            FaultEvent::LinkDown { node, dim } => write!(f, "link_down n{node} d{dim}"),
            FaultEvent::NodeCrash { node } => write!(f, "node_crash n{node}"),
            FaultEvent::MemFlip { node, addr, bit } => {
                write!(f, "mem_flip n{node} a{addr} b{bit}")
            }
            FaultEvent::WireCorrupt {
                node,
                dim,
                flit_bit,
            } => {
                write!(f, "wire_corrupt n{node} d{dim} bit{flit_bit}")
            }
            FaultEvent::FlitDrop { node, dim } => write!(f, "flit_drop n{node} d{dim}"),
            FaultEvent::LinkFlap {
                node,
                dim,
                down_for,
            } => {
                write!(f, "link_flap n{node} d{dim} down{}ps", down_for.as_ps())
            }
        }
    }
}

impl fmt::Display for FaultEvent {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            FaultEvent::LinkDown { node, dim } => write!(f, "link down at n{node} dim {dim}"),
            FaultEvent::NodeCrash { node } => write!(f, "node n{node} crashed"),
            FaultEvent::MemFlip { node, addr, bit } => {
                write!(f, "bit {bit} flipped at n{node} mem[{addr}]")
            }
            FaultEvent::WireCorrupt {
                node,
                dim,
                flit_bit,
            } => {
                write!(f, "wire bit {flit_bit} corrupted at n{node} dim {dim}")
            }
            FaultEvent::FlitDrop { node, dim } => {
                write!(f, "flit dropped at n{node} dim {dim}")
            }
            FaultEvent::LinkFlap {
                node,
                dim,
                down_for,
            } => {
                write!(
                    f,
                    "link flapped for {:.0} us at n{node} dim {dim}",
                    down_for.as_secs_f64() * 1e6
                )
            }
        }
    }
}

/// A fault pinned to a simulated time (measured in accumulated *job* time
/// from the start of the protected run).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TimedFault {
    /// When the fault strikes.
    pub at: Dur,
    /// What breaks.
    pub event: FaultEvent,
}

/// A deterministic schedule of faults, sorted by time.
#[derive(Clone, Debug, Default)]
pub struct FaultPlan {
    faults: Vec<TimedFault>,
}

impl FaultPlan {
    /// An empty plan (a fault-free drill).
    pub fn new() -> FaultPlan {
        FaultPlan::default()
    }

    /// Builder: add a fault at `at`, keeping the schedule sorted.
    pub fn with(mut self, at: Dur, event: FaultEvent) -> FaultPlan {
        self.push(at, event);
        self
    }

    /// Add a fault at `at`, keeping the schedule sorted (stable: equal
    /// times preserve insertion order).
    pub fn push(&mut self, at: Dur, event: FaultEvent) {
        self.faults.push(TimedFault { at, event });
        self.faults.sort_by_key(|f| f.at);
    }

    /// Generate `count` faults at uniform times in `(0, window)` against a
    /// `dim`-cube with `mem_words` words of memory per node, drawing from
    /// all six fault kinds (fail-stop and transient). Fully determined by
    /// `seed`: the same seed always yields the same plan.
    pub fn generate(seed: u64, dim: u32, mem_words: usize, count: usize, window: Dur) -> FaultPlan {
        assert!(dim >= 1, "fault generation needs at least a 1-cube");
        let mut rng = Rng::new(seed);
        let nodes = 1u64 << dim;
        let mut plan = FaultPlan::new();
        for _ in 0..count {
            let at = Dur::from_secs_f64(window.as_secs_f64() * rng.f64());
            let node = rng.below(nodes) as NodeId;
            let event = match rng.below(6) {
                0 => FaultEvent::LinkDown {
                    node,
                    dim: rng.below(dim as u64) as u32,
                },
                1 => FaultEvent::NodeCrash { node },
                2 => FaultEvent::MemFlip {
                    node,
                    addr: rng.range(0, mem_words),
                    bit: rng.below(32) as u32,
                },
                3 => FaultEvent::WireCorrupt {
                    node,
                    dim: rng.below(dim as u64) as u32,
                    flit_bit: rng.below(4096),
                },
                4 => FaultEvent::FlitDrop {
                    node,
                    dim: rng.below(dim as u64) as u32,
                },
                _ => FaultEvent::LinkFlap {
                    node,
                    dim: rng.below(dim as u64) as u32,
                    down_for: Dur::us(rng.range(20, 2_000) as u64),
                },
            };
            plan.push(at, event);
        }
        plan
    }

    /// Generate `count` *recoverable* transient link faults only
    /// (`WireCorrupt`/`FlitDrop`/`LinkFlap`) — the chaos-soak diet, where
    /// every fault must be absorbed by the transport layer without
    /// changing the computed answer. Deterministic in `seed`.
    pub fn generate_transient(seed: u64, dim: u32, count: usize, window: Dur) -> FaultPlan {
        assert!(dim >= 1, "fault generation needs at least a 1-cube");
        let mut rng = Rng::new(seed);
        let nodes = 1u64 << dim;
        let mut plan = FaultPlan::new();
        for _ in 0..count {
            let at = Dur::from_secs_f64(window.as_secs_f64() * rng.f64());
            let node = rng.below(nodes) as NodeId;
            let d = rng.below(dim as u64) as u32;
            let event = match rng.below(3) {
                0 => FaultEvent::WireCorrupt {
                    node,
                    dim: d,
                    flit_bit: rng.below(4096),
                },
                1 => FaultEvent::FlitDrop { node, dim: d },
                _ => FaultEvent::LinkFlap {
                    node,
                    dim: d,
                    down_for: Dur::us(rng.range(20, 2_000) as u64),
                },
            };
            plan.push(at, event);
        }
        plan
    }

    /// Parse the plain-text plan format written by the plan's `Display`
    /// impl: one `<time>ps <fault tokens>` line per fault, blank lines and
    /// `#` comments ignored. Inverse of `to_string`, so a shrunk chaos
    /// repro can be copy-pasted straight back into a test.
    pub fn parse(text: &str) -> Result<FaultPlan, PlanParseError> {
        let mut plan = FaultPlan::new();
        for (lineno, raw) in text.lines().enumerate() {
            let line = raw.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let err = |what: &'static str| PlanParseError {
                line: lineno + 1,
                what,
                text: raw.to_string(),
            };
            let mut tok = line.split_whitespace();
            let at_tok = tok.next().ok_or_else(|| err("missing time"))?;
            let at_ps: u64 = at_tok
                .strip_suffix("ps")
                .and_then(|d| d.parse().ok())
                .ok_or_else(|| err("bad time (want `<int>ps`)"))?;
            let kind = tok.next().ok_or_else(|| err("missing fault kind"))?;
            // Field helper: next token must carry the given prefix.
            let mut field = |prefix: &'static str| -> Result<u64, PlanParseError> {
                tok.next()
                    .and_then(|t| t.strip_prefix(prefix))
                    .and_then(|d| d.trim_end_matches("ps").parse().ok())
                    .ok_or_else(|| err("bad field"))
            };
            let event = match kind {
                "link_down" => FaultEvent::LinkDown {
                    node: field("n")? as NodeId,
                    dim: field("d")? as u32,
                },
                "node_crash" => FaultEvent::NodeCrash {
                    node: field("n")? as NodeId,
                },
                "mem_flip" => FaultEvent::MemFlip {
                    node: field("n")? as NodeId,
                    addr: field("a")? as usize,
                    bit: field("b")? as u32,
                },
                "wire_corrupt" => FaultEvent::WireCorrupt {
                    node: field("n")? as NodeId,
                    dim: field("d")? as u32,
                    flit_bit: field("bit")?,
                },
                "flit_drop" => FaultEvent::FlitDrop {
                    node: field("n")? as NodeId,
                    dim: field("d")? as u32,
                },
                "link_flap" => FaultEvent::LinkFlap {
                    node: field("n")? as NodeId,
                    dim: field("d")? as u32,
                    down_for: Dur::ps(field("down")?),
                },
                _ => return Err(err("unknown fault kind")),
            };
            plan.push(Dur::ps(at_ps), event);
        }
        Ok(plan)
    }

    /// Shrink the plan to a locally-minimal schedule that still makes
    /// `fails` return true (ddmin-style chunk removal, deterministic).
    /// `fails(&self)` must be true on entry; the returned plan also fails,
    /// and removing any single fault from it makes the failure vanish.
    pub fn shrink(&self, mut fails: impl FnMut(&FaultPlan) -> bool) -> FaultPlan {
        assert!(fails(self), "shrink needs a failing plan to start from");
        let mut cur = self.faults.clone();
        let mut chunk = cur.len().div_ceil(2).max(1);
        loop {
            let mut reduced = false;
            let mut start = 0;
            while start < cur.len() {
                let end = (start + chunk).min(cur.len());
                let mut candidate = cur.clone();
                candidate.drain(start..end);
                let cand = FaultPlan { faults: candidate };
                if fails(&cand) {
                    cur = cand.faults;
                    reduced = true;
                    // Re-test from the same offset: the chunk that moved
                    // into this slot has not been tried yet.
                } else {
                    start = end;
                }
            }
            if chunk == 1 && !reduced {
                return FaultPlan { faults: cur };
            }
            if !reduced {
                chunk = (chunk / 2).max(1);
            }
        }
    }

    /// Number of scheduled faults.
    pub fn len(&self) -> usize {
        self.faults.len()
    }

    /// True when no faults are scheduled.
    pub fn is_empty(&self) -> bool {
        self.faults.is_empty()
    }

    /// The schedule, in time order.
    pub fn iter(&self) -> impl Iterator<Item = &TimedFault> {
        self.faults.iter()
    }

    /// Arm the plan on a bare machine: one background task per fault
    /// sleeps to its exact simulated time and injects it. For machines
    /// driven by a single [`Machine::run`]; the supervisor instead applies
    /// plans synchronously so it can account job time across reboots.
    pub fn schedule(&self, m: &Machine) {
        let h = m.handle();
        for f in self.faults.iter().copied() {
            let node = m.nodes[f.event.node() as usize].clone();
            let hh = h.clone();
            h.spawn(async move {
                hh.sleep_until(Time::ZERO + f.at).await;
                f.event.apply_to(&node);
            });
        }
    }
}

impl fmt::Display for TimedFault {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}ps ", self.at.as_ps())?;
        self.event.write_tokens(f)
    }
}

impl fmt::Display for FaultPlan {
    /// The plain-text one-line-per-fault plan format; inverse of
    /// [`FaultPlan::parse`].
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for tf in &self.faults {
            writeln!(f, "{tf}")?;
        }
        Ok(())
    }
}

impl std::str::FromStr for FaultPlan {
    type Err = PlanParseError;

    fn from_str(s: &str) -> Result<FaultPlan, PlanParseError> {
        FaultPlan::parse(s)
    }
}

/// A line of plan text that did not parse.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PlanParseError {
    /// 1-based line number of the offending line.
    pub line: usize,
    /// What was wrong with it.
    pub what: &'static str,
    /// The raw line text.
    pub text: String,
}

impl fmt::Display for PlanParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "fault plan line {}: {} in {:?}",
            self.line, self.what, self.text
        )
    }
}

impl std::error::Error for PlanParseError {}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::MachineCfg;

    #[test]
    fn plans_stay_sorted_and_seeds_reproduce() {
        let p = FaultPlan::new()
            .with(Dur::ms(5), FaultEvent::NodeCrash { node: 3 })
            .with(Dur::ms(1), FaultEvent::LinkDown { node: 0, dim: 2 });
        let ats: Vec<Dur> = p.iter().map(|f| f.at).collect();
        assert_eq!(ats, vec![Dur::ms(1), Dur::ms(5)]);

        let a = FaultPlan::generate(42, 3, 1024, 6, Dur::secs(1));
        let b = FaultPlan::generate(42, 3, 1024, 6, Dur::secs(1));
        assert_eq!(a.len(), 6);
        assert_eq!(
            a.iter().collect::<Vec<_>>(),
            b.iter().collect::<Vec<_>>(),
            "same seed, same plan"
        );
        let c = FaultPlan::generate(43, 3, 1024, 6, Dur::secs(1));
        assert_ne!(
            a.iter().collect::<Vec<_>>(),
            c.iter().collect::<Vec<_>>(),
            "different seed, different plan"
        );
        for w in a.faults.windows(2) {
            assert!(w[0].at <= w[1].at, "generated plan sorted");
        }
    }

    #[test]
    fn plan_text_round_trips_every_fault_kind() {
        let plan = FaultPlan::new()
            .with(Dur::us(10), FaultEvent::LinkDown { node: 1, dim: 2 })
            .with(Dur::us(20), FaultEvent::NodeCrash { node: 3 })
            .with(
                Dur::us(30),
                FaultEvent::MemFlip {
                    node: 0,
                    addr: 99,
                    bit: 7,
                },
            )
            .with(
                Dur::us(40),
                FaultEvent::WireCorrupt {
                    node: 2,
                    dim: 0,
                    flit_bit: 513,
                },
            )
            .with(Dur::us(50), FaultEvent::FlitDrop { node: 5, dim: 1 })
            .with(
                Dur::us(60),
                FaultEvent::LinkFlap {
                    node: 4,
                    dim: 2,
                    down_for: Dur::ms(3),
                },
            );
        let text = plan.to_string();
        let back: FaultPlan = text.parse().expect("own output must parse");
        assert_eq!(
            back.iter().collect::<Vec<_>>(),
            plan.iter().collect::<Vec<_>>(),
            "Display → parse is the identity"
        );
        // Generated plans round-trip too (all six kinds, random fields).
        let gen = FaultPlan::generate(0xC0FFEE, 3, 256, 24, Dur::secs(1));
        let back: FaultPlan = gen.to_string().parse().unwrap();
        assert_eq!(
            back.iter().collect::<Vec<_>>(),
            gen.iter().collect::<Vec<_>>()
        );
    }

    #[test]
    fn plan_parse_skips_comments_and_rejects_junk() {
        let plan: FaultPlan = "\n# a comment\n  5000000ps flit_drop n1 d0  \n"
            .parse()
            .unwrap();
        assert_eq!(plan.len(), 1);
        assert_eq!(
            plan.iter().next().unwrap().event,
            FaultEvent::FlitDrop { node: 1, dim: 0 }
        );
        let err = "12ps frobnicate n0".parse::<FaultPlan>().unwrap_err();
        assert_eq!(err.line, 1);
        assert!(
            "nonsense link_down n0 d0".parse::<FaultPlan>().is_err(),
            "bad time"
        );
        assert!(
            "7ps mem_flip n0 a1".parse::<FaultPlan>().is_err(),
            "missing field"
        );
    }

    #[test]
    fn transient_generation_yields_only_recoverable_faults() {
        let plan = FaultPlan::generate_transient(99, 3, 40, Dur::secs(1));
        assert_eq!(plan.len(), 40);
        for tf in plan.iter() {
            assert_eq!(
                tf.event.persistence(),
                Persistence::Transient,
                "{}",
                tf.event
            );
            assert!(matches!(
                tf.event,
                FaultEvent::WireCorrupt { .. }
                    | FaultEvent::FlitDrop { .. }
                    | FaultEvent::LinkFlap { .. }
            ));
        }
        let again = FaultPlan::generate_transient(99, 3, 40, Dur::secs(1));
        assert_eq!(
            plan.iter().collect::<Vec<_>>(),
            again.iter().collect::<Vec<_>>()
        );
    }

    #[test]
    fn shrink_finds_the_minimal_failing_subset() {
        // The "bug" triggers iff the plan contains the node-3 crash AND the
        // dim-1 flit drop; 10 decoy faults pad the schedule.
        let mut plan = FaultPlan::new()
            .with(Dur::us(500), FaultEvent::NodeCrash { node: 3 })
            .with(Dur::us(900), FaultEvent::FlitDrop { node: 0, dim: 1 });
        for i in 0..10 {
            plan.push(
                Dur::us(i * 100),
                FaultEvent::MemFlip {
                    node: 1,
                    addr: i as usize,
                    bit: 0,
                },
            );
        }
        let fails = |p: &FaultPlan| {
            p.iter()
                .any(|f| f.event == FaultEvent::NodeCrash { node: 3 })
                && p.iter()
                    .any(|f| f.event == FaultEvent::FlitDrop { node: 0, dim: 1 })
        };
        let min = plan.shrink(fails);
        assert_eq!(min.len(), 2, "only the two culprits survive:\n{min}");
        assert!(fails(&min));
        // Deterministic: shrinking twice gives the identical plan.
        assert_eq!(
            plan.shrink(fails).iter().collect::<Vec<_>>(),
            min.iter().collect::<Vec<_>>()
        );
    }

    #[test]
    fn scheduled_faults_fire_at_their_exact_times() {
        let mut m = Machine::build(MachineCfg::cube_small_mem(2, 8));
        let plan = FaultPlan::new()
            .with(Dur::us(300), FaultEvent::LinkDown { node: 0, dim: 1 })
            .with(Dur::us(700), FaultEvent::NodeCrash { node: 3 })
            .with(
                Dur::us(900),
                FaultEvent::MemFlip {
                    node: 2,
                    addr: 17,
                    bit: 4,
                },
            );
        plan.schedule(&m);

        // Nothing is broken before the first fault time...
        m.run_for(Dur::us(299));
        assert!(m.faults().is_link_up(0, 1));
        // ...and each fault lands exactly on schedule.
        m.run_for(Dur::us(1));
        assert!(!m.faults().is_link_up(0, 1));
        assert!(!m.nodes[3].is_crashed());
        m.run_for(Dur::us(400));
        assert!(m.nodes[3].is_crashed());
        assert_eq!(m.nodes[2].mem().parity_errors(), 0);
        m.run_for(Dur::us(200));
        assert_eq!(m.nodes[2].mem().parity_errors(), 1);
        assert_eq!(m.metrics().get("fault.link_down"), 1);
        assert_eq!(m.metrics().get("fault.node_crash"), 1);
        assert_eq!(m.metrics().get("fault.mem_flip"), 1);
    }
}
