//! The four workloads. Each one generates its inputs from the seed, builds
//! a machine, drives the program through its public API inside probe
//! calls, then checks every output and reads the model's own counters.

use std::cell::RefCell;
use std::rc::Rc;
use std::sync::Arc;

use fps_t_series::cube::embed::MeshEmbedding;
use fps_t_series::fpu::Sf64;
use fps_t_series::kernels::{fft, matmul, rand_f64, splitmix};
use fps_t_series::machine::checkpoint::{CheckpointStore, SnapshotMode};
use fps_t_series::machine::parallel::{run_parallel, ParallelCfg};
use fps_t_series::machine::router::Router;
use fps_t_series::machine::{collectives, Hypercube, Machine, MachineCfg};
use fps_t_series::node::{CombineOp, NodeCtx};
use fps_t_series::sched::{ServiceCfg, ServiceScheduler};
use fps_t_series::sim::{Dur, Time};
use fps_t_series::workload::{Dist, Trace, TraceGen, WorkKind};

use crate::metrics::{fnv, fnv_words, quantile_exact, ratio, Checks, MergedHist, Values, FNV_SEED};
use crate::probe::Probe;

/// Machine sizes. [`Scale::FULL`] is the benchmark; [`Scale::TINY`] keeps
/// the same code paths at dims 4–6 for the self-test.
#[derive(Clone, Copy, Debug)]
pub struct Scale {
    /// Cube dimension of `kernel_batch` (even: Cannon needs a square torus).
    pub kernel_dim: u32,
    pub wide_dim: u32,
    pub routed_dim: u32,
    pub routed_rounds: usize,
    pub service_dim: u32,
    pub service_jobs: usize,
}

impl Scale {
    /// `kernel_batch` runs at dim 10: at dim 12 one iteration took 5–8 s of
    /// host time, so a 20 s run held 3 samples and `run_s` spread 18–28%
    /// from run to run on a 2-core host; dim 10 holds ~30.
    pub const FULL: Scale = Scale {
        kernel_dim: 10,
        wide_dim: 14,
        routed_dim: 12,
        routed_rounds: 4,
        service_dim: 6,
        service_jobs: 6000,
    };
    #[cfg(test)]
    pub const TINY: Scale = Scale {
        kernel_dim: 4,
        wide_dim: 5,
        routed_dim: 4,
        routed_rounds: 2,
        service_dim: 4,
        service_jobs: 60,
    };
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    KernelBatch,
    WideAllreduce,
    RoutedPermutation,
    ServiceDay,
}

/// What one iteration of a workload produced.
pub struct Outcome {
    /// Deterministic values: sim-clock metrics and model counts. They must
    /// repeat exactly for a seed.
    pub sim: Values,
    /// Per-layer host timings derived by the workload itself.
    pub host: Values,
    /// FNV digest of `sim` plus the utilization report.
    pub digest: u64,
    pub checks: Checks,
    /// Resident-set growth across the first `Machine::build`, MB.
    pub build_rss_mb: f64,
    /// `wide_allreduce` only: what a sharded rerun must reproduce.
    pub reference: Option<ParallelReference>,
}

/// The sequential run's outputs, for the bit-identity checks of the
/// sharded backend.
pub struct ParallelReference {
    pub final_ps: u64,
    pub results_digest: u64,
    pub report_digest: u64,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::KernelBatch,
        Workload::WideAllreduce,
        Workload::RoutedPermutation,
        Workload::ServiceDay,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::KernelBatch => "kernel_batch",
            Workload::WideAllreduce => "wide_allreduce",
            Workload::RoutedPermutation => "routed_permutation",
            Workload::ServiceDay => "service_day",
        }
    }

    pub fn parse(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }

    /// Generate the inputs, build, run, check. Host time lands in `probe`.
    pub fn iteration(self, seed: u64, scale: &Scale, probe: &Probe) -> Outcome {
        match self {
            Workload::KernelBatch => kernel_batch(seed, scale.kernel_dim, probe),
            Workload::WideAllreduce => wide_allreduce(seed, scale.wide_dim, probe),
            Workload::RoutedPermutation => {
                routed_permutation(seed, scale.routed_dim, scale.routed_rounds, probe)
            }
            Workload::ServiceDay => service_day(seed, scale.service_dim, scale.service_jobs, probe),
        }
    }
}

// --- shared pieces -----------------------------------------------------------

/// A seeded stream per purpose, so adding a draw to one input never shifts
/// another.
fn stream(seed: u64, tag: u64) -> u64 {
    let mut st = seed ^ tag.wrapping_mul(0x9e37_79b9_7f4a_7c15);
    splitmix(&mut st)
}

/// Build a machine, recording the resident-set growth it caused.
fn build(probe: &Probe, cfg: MachineCfg) -> (Machine, f64) {
    let before = crate::metrics::proc_status_mb("VmRSS:");
    let m = probe.setup("machine.build", || Machine::build(cfg));
    (m, crate::metrics::proc_status_mb("VmRSS:") - before)
}

/// Per-node allreduce inputs.
struct AllreduceInputs {
    /// 20-bit integers, so every partial sum is exact in f64 and the result
    /// has a closed form.
    vals: Vec<u32>,
    /// Control-processor instructions each node runs before it contributes
    /// (exponential, mean 4: a short, uneven local phase, so the nodes
    /// reach the first exchange at different instants).
    work: Vec<u64>,
}

fn allreduce_inputs(seed: u64, nodes: usize) -> Arc<AllreduceInputs> {
    let mut st = stream(seed, 1);
    let vals = (0..nodes)
        .map(|_| (splitmix(&mut st) >> 44) as u32)
        .collect();
    let work = (0..nodes)
        .map(|_| {
            let u = ((splitmix(&mut st) >> 11) as f64 + 1.0) / (1u64 << 53) as f64;
            (-4.0 * u.ln()) as u64
        })
        .collect();
    Arc::new(AllreduceInputs { vals, work })
}

async fn allreduce_node(ctx: NodeCtx, cube: Hypercube, inp: Arc<AllreduceInputs>) -> Vec<Sf64> {
    let id = ctx.id() as usize;
    ctx.cp_compute(inp.work[id]).await;
    let mine = vec![
        Sf64::from(id as f64),
        Sf64::from(inp.vals[id] as f64),
        Sf64::from(1.0),
        Sf64::from((id % 17) as f64 * 0.5),
    ];
    collectives::allreduce(&ctx, cube, CombineOp::Add, mine).await
}

fn run_allreduce(
    m: &mut Machine,
    inp: &Arc<AllreduceInputs>,
    checks: &mut Checks,
) -> Vec<Vec<f64>> {
    let cube = m.cube;
    let handles = m.launch(|ctx| allreduce_node(ctx, cube, inp.clone()));
    let rep = m.run();
    checks.check(rep.quiescent, || "allreduce did not quiesce".into());
    handles
        .into_iter()
        .map(|h| {
            h.try_take()
                .map(|v| v.into_iter().map(Sf64::to_host).collect())
                .unwrap_or_default()
        })
        .collect()
}

/// Every node must hold the closed-form sums, exactly.
fn check_allreduce(results: &[Vec<f64>], inp: &AllreduceInputs, checks: &mut Checks) {
    let vals = &inp.vals;
    let n = vals.len() as u64;
    let want = [
        (n * (n - 1) / 2) as f64,
        vals.iter().map(|&v| v as u64).sum::<u64>() as f64,
        n as f64,
        (0..n).map(|id| (id % 17) as f64 * 0.5).sum::<f64>(),
    ];
    for (id, got) in results.iter().enumerate() {
        checks.check(got.as_slice() == want.as_slice(), || {
            format!("allreduce node {id}: got {got:?}, want {want:?}")
        });
    }
}

fn digest_f64s<'a>(rows: impl Iterator<Item = &'a Vec<f64>>) -> u64 {
    rows.flatten()
        .fold(FNV_SEED, |h, x| fnv(h, &x.to_bits().to_le_bytes()))
}

/// Model counters every workload reports, read after the run. Also checks
/// that the healthy-path transport counters read 0.
fn machine_stats(m: &Machine, sim: &mut Values, checks: &mut Checks) {
    let p = m.profile();
    sim.insert("sim.events", p.timer_events as f64);
    sim.insert("sim.polls", p.polls as f64);
    sim.insert(
        "sim.polls_per_event",
        ratio(p.polls as f64, p.timer_events as f64),
    );
    sim.insert("sim.spawned", p.spawned as f64);
    sim.insert("sim.max_timers", p.max_timers as f64);

    let (mut words, mut retx, mut crc, mut esc, mut flops) = (0u64, 0u64, 0u64, 0u64, 0u64);
    let (mut vec_busy, mut cp_busy) = (0f64, 0f64);
    let mut lat = MergedHist::default();
    let mut allreduce = MergedHist::default();
    for n in &m.nodes {
        let mt = n.meters();
        words += mt.link_words_sent.get();
        retx += mt.link_retransmits.get();
        crc += mt.link_crc_errors.get();
        esc += mt.link_escalations.get();
        flops += mt.vec_flops.get();
        vec_busy += mt.vec_busy.get().as_secs_f64();
        cp_busy += mt.cp_busy.get().as_secs_f64();
        lat.add(&mt.link_latency_ns);
        allreduce.add(&mt.scope().scope("collective").histogram("allreduce_us"));
    }
    for (what, v) in [
        ("retransmits", retx),
        ("crc errors", crc),
        ("escalations", esc),
    ] {
        checks.check(v == 0, || format!("healthy run counted {v} link {what}"));
    }
    let nodes = m.nodes.len() as f64;
    let now = m.now().as_secs_f64();
    // Defaults: the workload's last result is the machine's final instant,
    // and its messages are single-hop link messages. Workloads with another
    // notion of either have inserted their own values already.
    let sim_s = *sim.entry("sim_s").or_insert(now);
    sim.entry("sim_mflops")
        .or_insert(ratio(flops as f64, sim_s) / 1e6);
    sim.entry("msg_latency_p99_sim_us")
        .or_insert(lat.quantile(0.99) / 1e3);
    sim.insert("link.words_sent", words as f64);
    sim.insert("link.latency_p99_sim_ns", lat.quantile(0.99));
    sim.insert("link.retransmits", retx as f64);
    sim.insert("link.crc_errors", crc as f64);
    sim.insert("node.vec_busy_frac", ratio(vec_busy, now * nodes));
    sim.insert("node.cp_busy_frac", ratio(cp_busy, now * nodes));
    sim.insert("collectives.allreduce_calls", allreduce.total() as f64);
    sim.insert("collectives.allreduce_mean_sim_us", allreduce.mean());
    sim.insert("collectives.allreduce_p99_sim_us", allreduce.quantile(0.99));
}

fn total_flops(m: &Machine) -> u64 {
    m.nodes.iter().map(|n| n.meters().vec_flops.get()).sum()
}

/// Meter readings at one instant, for the per-kernel deltas.
struct Mark {
    at: Time,
    flops: u64,
    vec_busy_s: f64,
    link_bytes: u64,
}

impl Mark {
    fn of(m: &Machine) -> Mark {
        Mark {
            at: m.now(),
            flops: total_flops(m),
            vec_busy_s: m
                .nodes
                .iter()
                .map(|n| n.meters().vec_busy.get().as_secs_f64())
                .sum(),
            link_bytes: m.metrics().get("link.bytes_sent"),
        }
    }

    /// Simulated seconds, MFLOPS, vector-unit utilization and link bytes
    /// since the mark.
    fn since(&self, m: &Machine) -> (f64, f64, f64, u64) {
        let now = Mark::of(m);
        let s = now.at.since(self.at).as_secs_f64();
        (
            s,
            ratio((now.flops - self.flops) as f64, s) / 1e6,
            ratio(now.vec_busy_s - self.vec_busy_s, s * m.nodes.len() as f64),
            now.link_bytes - self.link_bytes,
        )
    }
}

/// Digest of the deterministic values plus the rendered report.
fn digest(sim: &Values, report: &str) -> u64 {
    let mut h = fnv(FNV_SEED, report.as_bytes());
    for (k, v) in sim {
        h = fnv(h, k.as_bytes());
        h = fnv(h, &v.to_bits().to_le_bytes());
    }
    h
}

fn finish(
    m: &Machine,
    probe: &Probe,
    mut sim: Values,
    host: Values,
    mut checks: Checks,
    build_rss_mb: f64,
) -> (Outcome, String) {
    let report = probe.run("report.render", || m.utilization_report());
    machine_stats(m, &mut sim, &mut checks);
    sim.insert("report.bytes", report.len() as f64);
    let outcome = Outcome {
        digest: digest(&sim, &report),
        sim,
        host,
        checks,
        build_rss_mb,
        reference: None,
    };
    (outcome, report)
}

// --- kernel_batch ------------------------------------------------------------

struct KernelInputs {
    allreduce: Arc<AllreduceInputs>,
    n: usize,
    a: Vec<f64>,
    b: Vec<f64>,
    signal: Vec<(f64, f64)>,
}

impl KernelInputs {
    fn generate(seed: u64, dim: u32) -> KernelInputs {
        let nodes = 1usize << dim;
        // Two matrix blocks per torus side.
        let n = 2 << (dim / 2);
        let mut st = stream(seed, 2);
        let a = (0..n * n).map(|_| rand_f64(&mut st)).collect();
        let b = (0..n * n).map(|_| rand_f64(&mut st)).collect();
        // Two FFT points per node.
        let mut st = stream(seed, 3);
        let signal = (0..2 * nodes)
            .map(|_| (rand_f64(&mut st), rand_f64(&mut st)))
            .collect();
        KernelInputs {
            allreduce: allreduce_inputs(seed, nodes),
            n,
            a,
            b,
            signal,
        }
    }
}

/// Cannon's algorithm over the benchmark's own operands: cut A and B into
/// torus blocks, run `cannon_node` on every node, reassemble C.
fn cannon(m: &mut Machine, n: usize, a: &[f64], b: &[f64], checks: &mut Checks) -> Vec<f64> {
    let cube = m.cube;
    let half = cube.dim() / 2;
    let bsize = n >> half;
    let mesh = MeshEmbedding::new(cube, &[half, half]);
    let block_of = |mat: &[f64], br: usize, bc: usize| -> Vec<Sf64> {
        let mut out = Vec::with_capacity(bsize * bsize);
        for i in 0..bsize {
            for j in 0..bsize {
                out.push(Sf64::from(mat[(br * bsize + i) * n + bc * bsize + j]));
            }
        }
        out
    };
    let mut handles = Vec::with_capacity(m.nodes.len());
    for id in 0..m.nodes.len() as u32 {
        let coords = mesh.coords_of(id);
        let (bc, br) = (coords[0] as usize, coords[1] as usize);
        let ctx = m.ctx(id);
        let fut = matmul::cannon_node(ctx, cube, bsize, block_of(a, br, bc), block_of(b, br, bc));
        handles.push(m.launch_on(id, fut));
    }
    let rep = m.run();
    checks.check(rep.quiescent, || "Cannon did not quiesce".into());
    let mut c = vec![f64::NAN; n * n];
    for (id, h) in handles.into_iter().enumerate() {
        let Some(block) = h.try_take() else { continue };
        let coords = mesh.coords_of(id as u32);
        let (bc, br) = (coords[0] as usize, coords[1] as usize);
        for i in 0..bsize {
            for j in 0..bsize {
                c[(br * bsize + i) * n + bc * bsize + j] = block[i * bsize + j].to_host();
            }
        }
    }
    c
}

/// Iterative radix-2 FFT on the host, same sign convention as the
/// machine's (`X[k] = Σ x[j]·e^{-2πi jk/N}`).
fn host_fft(input: &[(f64, f64)]) -> Vec<(f64, f64)> {
    let n = input.len();
    let bits = n.trailing_zeros();
    let mut a: Vec<(f64, f64)> = (0..n).map(|i| input[fft::bit_reverse(i, bits)]).collect();
    let mut len = 2;
    while len <= n {
        let step = -2.0 * std::f64::consts::PI / len as f64;
        for start in (0..n).step_by(len) {
            for k in 0..len / 2 {
                let (s, c) = (step * k as f64).sin_cos();
                let (xr, xi) = a[start + k + len / 2];
                let t = (xr * c - xi * s, xr * s + xi * c);
                let u = a[start + k];
                a[start + k] = (u.0 + t.0, u.1 + t.1);
                a[start + k + len / 2] = (u.0 - t.0, u.1 - t.1);
            }
        }
        len <<= 1;
    }
    a
}

fn memory_digests(m: &Machine) -> Vec<u64> {
    m.nodes
        .iter()
        .map(|n| fnv_words(&n.mem().snapshot()))
        .collect()
}

/// The paper's use case: vector kernels on a large cube with periodic
/// snapshots — allreduce, full checkpoint, matmul, delta, FFT, delta,
/// restore.
fn kernel_batch(seed: u64, dim: u32, probe: &Probe) -> Outcome {
    let inp = probe.setup("workload.generate", || KernelInputs::generate(seed, dim));
    let (mut m, build_rss_mb) = build(probe, MachineCfg::cube_small_mem(dim, 8));
    let mut checks = Checks::default();
    let mut sim = Values::new();
    let mut store = CheckpointStore::new(m.nodes.len());

    let sums = probe.run("collectives.allreduce", || {
        run_allreduce(&mut m, &inp.allreduce, &mut checks)
    });
    probe.span("bench.verify", || {
        check_allreduce(&sums, &inp.allreduce, &mut checks)
    });

    let snapshot =
        |m: &mut Machine, store: &mut CheckpointStore, mode: SnapshotMode, checks: &mut Checks| {
            let name = if mode == SnapshotMode::Full {
                "checkpoint.full"
            } else {
                "checkpoint.delta"
            };
            match probe.run(name, || m.checkpoint(store, mode)) {
                Ok(st) => {
                    checks.check(st.mode == mode, || {
                        format!("{mode:?} checkpoint ran as {:?}", st.mode)
                    });
                    Some(st)
                }
                Err(e) => {
                    checks.check(false, || format!("{mode:?} checkpoint failed: {e}"));
                    None
                }
            }
        };
    let full = snapshot(&mut m, &mut store, SnapshotMode::Full, &mut checks);

    let mark = Mark::of(&m);
    let c = probe.run("kernels.matmul", || {
        cannon(&mut m, inp.n, &inp.a, &inp.b, &mut checks)
    });
    let (mm_s, mm_mflops, mm_util, mm_bytes) = mark.since(&m);
    probe.span("bench.verify", || {
        // Tolerance: 1e-12 relative, as the kernel's own tests use.
        let want = matmul::reference_matmul(inp.n, &inp.a, &inp.b);
        for (i, (&got, &w)) in c.iter().zip(&want).enumerate() {
            checks.check((got - w).abs() <= 1e-12 * w.abs().max(1.0), || {
                format!("C[{i}] = {got}, want {w}")
            });
        }
    });
    let delta1 = snapshot(&mut m, &mut store, SnapshotMode::Delta, &mut checks);

    let mark = Mark::of(&m);
    let (spectrum, _) = probe.run("kernels.fft", || fft::distributed_fft(&mut m, &inp.signal));
    let (fft_s, fft_mflops, fft_util, fft_bytes) = mark.since(&m);
    for (k, v) in [
        ("kernels.matmul_sim_s", mm_s),
        ("kernels.matmul_mflops", mm_mflops),
        ("kernels.matmul_vec_util", mm_util),
        ("kernels.fft_sim_s", fft_s),
        ("kernels.fft_mflops", fft_mflops),
        ("kernels.fft_vec_util", fft_util),
        ("kernels.bytes_sent", (mm_bytes + fft_bytes) as f64),
    ] {
        sim.insert(k, v);
    }
    probe.span("bench.verify", || {
        // Tolerance: 1e-9·N per component, as the kernel's own tests use.
        let want = host_fft(&inp.signal);
        let tol = 1e-9 * want.len() as f64;
        for (k, (g, w)) in spectrum.iter().zip(&want).enumerate() {
            checks.check((g.0 - w.0).abs() < tol && (g.1 - w.1).abs() < tol, || {
                format!("X[{k}] = {g:?}, want {w:?}")
            });
        }
    });
    let delta2 = snapshot(&mut m, &mut store, SnapshotMode::Delta, &mut checks);

    let before = probe.span("bench.verify", || memory_digests(&m));
    let restore = probe.run("checkpoint.restore", || m.restore_from(&store));
    probe.span("bench.verify", || {
        checks.check(restore.is_ok(), || {
            format!("restore_from failed: {restore:?}")
        });
        for (id, (b, a)) in before.iter().zip(memory_digests(&m)).enumerate() {
            checks.check(*b == a, || {
                format!("node {id} memory changed across restore")
            });
        }
    });

    let deltas: Vec<_> = [delta1, delta2].into_iter().flatten().collect();
    let dsum = |f: fn(&fps_t_series::machine::checkpoint::CheckpointStats) -> f64| {
        deltas.iter().map(f).sum::<f64>()
    };
    let full_sim = full.map_or(0.0, |s| s.duration.as_secs_f64());
    sim.insert("snapshot_sim_s", full_sim);
    sim.insert("checkpoint.full_sim_s", full_sim);
    sim.insert(
        "checkpoint.delta_sim_s",
        ratio(dsum(|s| s.duration.as_secs_f64()), deltas.len() as f64),
    );
    sim.insert(
        "checkpoint.restore_sim_s",
        restore.map_or(0.0, |d| d.as_secs_f64()),
    );
    sim.insert("checkpoint.bytes_streamed", store.bytes_streamed() as f64);
    sim.insert(
        "checkpoint.delta_ratio",
        ratio(
            dsum(|s| s.bytes_streamed as f64),
            dsum(|s| s.bytes_full as f64),
        ),
    );
    sim.insert("checkpoint.torn_aborts", store.torn_aborts() as f64);
    checks.check(store.torn_aborts() == 0, || {
        "torn checkpoint on a healthy run".into()
    });

    finish(&m, probe, sim, Values::new(), checks, build_rss_mb).0
}

// --- wide_allreduce ----------------------------------------------------------

/// The paper's 16,384-node cube: one machine-wide allreduce, then the
/// utilization report.
fn wide_allreduce(seed: u64, dim: u32, probe: &Probe) -> Outcome {
    let inp = probe.setup("workload.generate", || allreduce_inputs(seed, 1 << dim));
    let (mut m, build_rss_mb) = build(probe, MachineCfg::cube_max(dim));
    let mut checks = Checks::default();
    let sums = probe.run("collectives.allreduce", || {
        run_allreduce(&mut m, &inp, &mut checks)
    });
    probe.span("bench.verify", || check_allreduce(&sums, &inp, &mut checks));
    let (mut out, report) = finish(
        &m,
        probe,
        Values::new(),
        Values::new(),
        checks,
        build_rss_mb,
    );
    out.reference = Some(ParallelReference {
        final_ps: m.now().as_ps(),
        results_digest: digest_f64s(sums.iter()),
        report_digest: fnv(FNV_SEED, report.as_bytes()),
    });
    out
}

/// The traced `wide_allreduce` extra: the same allreduce through
/// `run_parallel` at 1 and 2 shards, its build split from its run by the
/// shard rounds' wall stamps, and bit-identity against the sequential run.
pub fn parallel_probe(
    seed: u64,
    dim: u32,
    seq: &ParallelReference,
    seq_run_s: f64,
    probe: &Probe,
) -> (Values, Checks) {
    let inp = allreduce_inputs(seed, 1 << dim);
    let cube = Hypercube::new(dim);
    let program = move |ctx: NodeCtx| allreduce_node(ctx, cube, inp.clone());
    let mut checks = Checks::default();
    let mut v = Values::new();
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let mut totals = [0.0f64; 2];
    for (i, shards) in [1u32, 2].into_iter().enumerate() {
        // Never more shard threads than cores.
        if shards as usize > cores {
            continue;
        }
        let pcfg = ParallelCfg {
            shards,
            record_rounds: true,
        };
        let name = if shards == 1 {
            "parallel.shards1"
        } else {
            "parallel.shards2"
        };
        let run = probe.span(name, || {
            run_parallel(MachineCfg::cube_max(dim), &pcfg, program.clone())
        });
        totals[i] = probe.host_s(name);
        let results: Vec<Vec<f64>> = run
            .results
            .iter()
            .map(|r| {
                r.as_ref()
                    .map(|v| v.iter().map(|x| x.to_host()).collect())
                    .unwrap_or_default()
            })
            .collect();
        let report = run.utilization_report();
        checks.check(run.quiescent, || {
            format!("{shards}-shard run did not quiesce")
        });
        checks.check(run.final_time.as_ps() == seq.final_ps, || {
            format!("{shards}-shard final time differs from sequential")
        });
        checks.check(digest_f64s(results.iter()) == seq.results_digest, || {
            format!("{shards}-shard results differ from sequential")
        });
        checks.check(
            fnv(FNV_SEED, report.as_bytes()) == seq.report_digest,
            || format!("{shards}-shard report differs from sequential"),
        );
        if shards == 2 && !run.rounds.is_empty() {
            // Rounds start after every shard has built and launched.
            let first = run
                .rounds
                .iter()
                .map(|r| r.wall_start_ns)
                .min()
                .unwrap_or(0);
            let last = run.rounds.iter().map(|r| r.wall_end_ns).max().unwrap_or(0);
            let build_s = first as f64 * 1e-9;
            let run_s = (last - first) as f64 * 1e-9;
            v.insert("parallel.s2_build_s", build_s);
            v.insert("parallel.s2_run_s", run_s);
            v.insert(
                "parallel.rounds",
                (run.rounds.len() / shards as usize) as f64,
            );
            v.insert(
                "parallel.envelopes",
                run.rounds.iter().map(|r| r.envelopes).sum::<u64>() as f64,
            );
            v.insert("parallel.speedup_vs_seq", ratio(seq_run_s, run_s));
        }
    }
    v.insert("parallel.s1_total_s", totals[0]);
    v.insert("parallel.s2_total_s", totals[1]);
    v.insert("parallel.speedup_2v1", ratio(totals[0], totals[1]));
    (v, checks)
}

// --- routed_permutation -------------------------------------------------------

const MSG_WORDS: usize = 8;

struct RoutedInputs {
    /// `perm[r][src]` = destination of `src`'s round-`r` message.
    perm: Vec<Vec<u32>>,
    /// `payload[r * nodes + src]`: word 0 is the round, word 1 the source,
    /// the rest seeded.
    payload: Vec<[u32; MSG_WORDS]>,
}

impl RoutedInputs {
    fn generate(seed: u64, dim: u32, rounds: usize) -> RoutedInputs {
        let nodes = 1usize << dim;
        let mut st = stream(seed, 4);
        let perm = (0..rounds)
            .map(|_| {
                let mut p: Vec<u32> = (0..nodes as u32).collect();
                for i in (1..nodes).rev() {
                    p.swap(i, (splitmix(&mut st) % (i as u64 + 1)) as usize);
                }
                p
            })
            .collect();
        let mut st = stream(seed, 5);
        let payload = (0..rounds * nodes)
            .map(|k| {
                let mut w = [0u32; MSG_WORDS];
                w[0] = (k / nodes) as u32;
                w[1] = (k % nodes) as u32;
                for x in &mut w[2..] {
                    *x = splitmix(&mut st) as u32;
                }
                w
            })
            .collect();
        RoutedInputs { perm, payload }
    }
}

/// One node's view of the traffic.
struct NodeTraffic {
    /// Received messages: (source, words, latency in ps).
    got: Vec<(u32, Vec<u32>, u64)>,
    send_errors: usize,
    /// Elementwise vector sum of every payload received.
    acc: Vec<f64>,
    finished_ps: u64,
}

/// Multi-hop store-and-forward traffic: every round, each node sends one
/// 8-word message to its seeded permutation partner through the e-cube
/// router daemons, receives one, and adds its payload into a running sum
/// on the vector unit. Then the routers shut down.
fn routed_permutation(seed: u64, dim: u32, rounds: usize, probe: &Probe) -> Outcome {
    let inp = Rc::new(probe.setup("workload.generate", || {
        RoutedInputs::generate(seed, dim, rounds)
    }));
    let (mut m, build_rss_mb) = build(probe, MachineCfg::cube_small_mem(dim, 8));
    let nodes = m.nodes.len();
    let cube = m.cube;
    let mut checks = Checks::default();
    let mut sim = Values::new();
    let mut host = Values::new();

    let router = probe.run("router.start", || Router::start(&m));
    let events0 = m.profile().timer_events;
    let sent_at = Rc::new(RefCell::new(vec![0u64; rounds * nodes]));
    let handles = probe.run("router.traffic", || {
        let handles: Vec<_> = (0..nodes as u32)
            .map(|id| {
                let (h, inp, sent_at) = (router.handle(id), inp.clone(), sent_at.clone());
                m.launch_on(id, async move {
                    let mut got = Vec::with_capacity(rounds);
                    let mut send_errors = 0;
                    let mut acc = vec![Sf64::ZERO; MSG_WORDS];
                    for r in 0..rounds {
                        let k = r * nodes + id as usize;
                        sent_at.borrow_mut()[k] = h.ctx().now().as_ps();
                        let dst = inp.perm[r][id as usize];
                        if h.send_to(dst, inp.payload[k].to_vec()).await.is_err() {
                            send_errors += 1;
                        }
                        let (src, data) = h.recv().await;
                        // Latency from the sender's send call. A corrupt
                        // round word must not index out of bounds here; the
                        // checks below flag the message.
                        let k = data.first().map_or(0, |&r| r as usize) * nodes + src as usize;
                        let sent = sent_at.borrow().get(k).copied().unwrap_or(0);
                        got.push((src, data, h.ctx().now().as_ps().saturating_sub(sent)));
                        let words: Vec<Sf64> =
                            got[r].1.iter().map(|&w| Sf64::from(w as f64)).collect();
                        if words.len() == MSG_WORDS {
                            h.ctx()
                                .combine_values(CombineOp::Add, &mut acc, &words)
                                .await;
                        }
                    }
                    NodeTraffic {
                        got,
                        send_errors,
                        acc: acc.into_iter().map(Sf64::to_host).collect(),
                        finished_ps: h.ctx().now().as_ps(),
                    }
                })
            })
            .collect();
        // Node programs finish; the router daemons stay parked on their ALTs.
        m.run();
        handles
    });
    let traffic_events = m.profile().timer_events - events0;
    let done = m.handle().spawn(router.shutdown());
    let rep = probe.run("router.shutdown", || m.run());
    checks.check(rep.quiescent, || "router shutdown did not quiesce".into());
    let forwards = done.try_take().unwrap_or(0);

    let traffic: Vec<Option<NodeTraffic>> = handles.into_iter().map(|h| h.try_take()).collect();
    let mut latencies = Vec::with_capacity(rounds * nodes);
    let mut finished_ps = 0;
    probe.span("bench.verify", || {
        // Payload words are below 2^32 and a node adds `rounds` of them per
        // lane, so the vector sums are exact.
        let mut want = vec![[0f64; MSG_WORDS]; nodes];
        for r in 0..rounds {
            for s in 0..nodes {
                let dst = inp.perm[r][s] as usize;
                for (a, &w) in want[dst].iter_mut().zip(&inp.payload[r * nodes + s]) {
                    *a += w as f64;
                }
            }
        }
        let mut seen = vec![false; rounds * nodes];
        for (me, t) in traffic.iter().enumerate() {
            let Some(t) = t else {
                checks.check(false, || format!("node {me} never finished"));
                continue;
            };
            finished_ps = finished_ps.max(t.finished_ps);
            checks.check(t.send_errors == 0, || {
                format!("node {me}: {} sends failed", t.send_errors)
            });
            checks.check(t.acc.as_slice() == want[me].as_slice(), || {
                format!("node {me} payload sum {:?}, want {:?}", t.acc, want[me])
            });
            for (src, data, lat) in &t.got {
                let (r, s) = (
                    data.first().map_or(usize::MAX, |&r| r as usize),
                    *src as usize,
                );
                let ok = data.len() == MSG_WORDS
                    && r < rounds
                    && s < nodes
                    && data[1] as usize == s
                    && inp.perm[r][s] as usize == me
                    && !std::mem::replace(&mut seen[r * nodes + s], true)
                    && data.as_slice() == inp.payload[r * nodes + s].as_slice();
                checks.check(ok, || {
                    format!("node {me} got a wrong message from {src}: {data:?}")
                });
                latencies.push(*lat);
            }
        }
    });

    // The healthy fabric routes every message along its e-cube path, so the
    // router's measured mean hop count must equal the mean Hamming distance.
    let mut hops = MergedHist::default();
    for n in &m.nodes {
        hops.add(&n.meters().scope().histogram("router/hops"));
    }
    let dist: Vec<u32> = (0..rounds)
        .flat_map(|r| (0..nodes).map(move |s| (r, s)))
        .map(|(r, s)| cube.distance(s as u32, inp.perm[r][s]))
        .collect();
    let exact_mean = dist.iter().map(|&d| d as f64).sum::<f64>() / dist.len() as f64;
    checks.check((hops.mean() - exact_mean).abs() < 1e-9, || {
        format!(
            "router hops mean {} != e-cube mean {exact_mean}",
            hops.mean()
        )
    });

    // End to end, a message is the routed program-to-program message, and
    // the last result is the last node's final payload sum.
    let sim_s = finished_ps as f64 * 1e-12;
    sim.insert("sim_s", sim_s);
    sim.insert("sim_mflops", ratio(total_flops(&m) as f64, sim_s) / 1e6);
    sim.insert(
        "msg_latency_p99_sim_us",
        quantile_exact(&mut latencies, 0.99) as f64 * 1e-6,
    );
    sim.insert("router.forwards", forwards as f64);
    sim.insert("router.hops_mean", hops.mean());
    sim.insert(
        "router.hops_max",
        dist.iter().copied().max().unwrap_or(0) as f64,
    );
    host.insert(
        "router.ev_per_s",
        ratio(traffic_events as f64, probe.host_s("router.traffic")),
    );
    finish(&m, probe, sim, host, checks, build_rss_mb).0
}

// --- service_day ---------------------------------------------------------------

/// The service stream: offered load 0.7, 60% kernel jobs, a 25% urgent
/// class with 30× slowdown deadlines. Jobs ask for 1-, 2- or 4-node
/// subcubes: with 8- and 16-node jobs in the mix, one seed's makespan and
/// host time differed from the next by ~15% (a few wide jobs decide the
/// drain), too wide a spread for the benchmark's bounds.
fn service_trace(seed: u64, dim: u32, jobs: usize) -> (Trace, f64) {
    let top = dim.saturating_sub(2).max(1);
    let sizes: Vec<(u32, f64)> = [(0u32, 0.3), (1, 0.45), (2, 0.25)]
        .into_iter()
        .filter(|&(d, _)| d <= top)
        .collect();
    let g = TraceGen::new(stream(seed, 6))
        .sizes(&sizes)
        .service(Dist::Exp { mean: 1e-4 })
        .classes("batch", 0.75, 0, None)
        .class("urgent", 0.25, 3, Some(30.0))
        .kernel_fraction(0.6);
    let unit = g
        .clone()
        .interarrival(Dist::Fixed(1.0))
        .offered_load(dim)
        .expect("sized generator reports offered load");
    let g = g.interarrival(Dist::Exp { mean: unit / 0.7 });
    let load = g.offered_load(dim).unwrap_or(0.0);
    (g.generate(jobs), load)
}

fn service_cfg(dim: u32) -> ServiceCfg {
    ServiceCfg::new(dim).aging(Dur::us(500), 4)
}

/// A live dim-6 machine serving a seeded open-arrival stream through the
/// space-sharing scheduler: thousands of short runs on subcubes.
fn service_day(seed: u64, dim: u32, jobs: usize, probe: &Probe) -> Outcome {
    let (trace, load) = probe.setup("workload.generate", || service_trace(seed, dim, jobs));
    let (mut m, build_rss_mb) = build(probe, MachineCfg::cube_small_mem(dim, 8));
    let mut checks = Checks::default();
    let svc = ServiceScheduler::new(service_cfg(dim));
    let (batch, rep) = probe.run("sched.replay", || svc.run_on_machine(&mut m, &trace));
    probe.span("bench.verify", || {
        checks.check(batch.jobs.len() == jobs && rep.jobs == jobs as u64, || {
            format!("{} of {jobs} jobs reported", batch.jobs.len())
        });
        for (i, (j, a)) in batch.jobs.iter().zip(&trace.arrivals).enumerate() {
            let done = j.id as usize == i
                && j.turnaround >= j.run
                && (a.work == WorkKind::Synthetic || !j.result.is_empty());
            checks.check(done, || format!("job {i} did not complete: {j:?}"));
        }
    });
    let mut sim = Values::new();
    let n = rep.jobs as f64;
    sim.insert("jobs_per_sim_s", rep.jobs_per_sec);
    sim.insert("wait_p99_sim_us", rep.p99_wait.as_us_f64());
    sim.insert("slowdown_p99", rep.p99_slowdown_milli as f64 / 1e3);
    sim.insert("deadline_miss_ratio", ratio(rep.missed_deadlines as f64, n));
    sim.insert("sched.jobs", n);
    sim.insert("sched.preemptions", batch.preemptions as f64);
    sim.insert("sched.reallocations", batch.reallocations as f64);
    sim.insert("sched.promotions", rep.aging_promotions as f64);
    sim.insert("sched.edf_reorders", rep.edf_reorders as f64);
    sim.insert("sched.utilization", rep.utilization);
    sim.insert("workload.jobs", trace.len() as f64);
    sim.insert("workload.offered_load", load);
    // The stream's result is its last completion: the makespan.
    sim.insert("sim_s", rep.makespan.as_secs_f64());
    finish(&m, probe, sim, Values::new(), checks, build_rss_mb).0
}

/// The traced `service_day` extra: the machineless admission path over the
/// same trace.
pub fn admission_probe(seed: u64, dim: u32, jobs: usize, probe: &Probe) -> Checks {
    let (trace, _) = service_trace(seed, dim, jobs);
    let svc = ServiceScheduler::new(service_cfg(dim));
    let rep = probe.span("sched.admission", || svc.run(&trace));
    let mut checks = Checks::default();
    checks.check(rep.jobs == jobs as u64, || {
        format!("admission path served {} of {jobs} jobs", rep.jobs)
    });
    checks
}
