//! Telemetry-spine integration tests: the Perfetto export must be
//! schema-valid `trace_event` JSON, histogram bucketing must respect its
//! own bucket-range invariants, a deterministic simulator must emit
//! byte-identical event streams for identical runs, and the machine-wide
//! metrics rollup and utilization report are pinned exactly for three
//! representative scenarios.

use fps_t_series::fpu::Sf64;
use fps_t_series::kernels::{fft, matmul};
use fps_t_series::machine::checkpoint::{CheckpointStore, SnapshotMode};
use fps_t_series::machine::collectives::{broadcast, with_deadline};
use fps_t_series::machine::fault::{FaultEvent, FaultPlan};
use fps_t_series::machine::router::Router;
use fps_t_series::machine::supervisor::{Phase, Supervisor};
use fps_t_series::machine::{Machine, MachineCfg};
use fps_t_series::mem::ROW_WORDS;
use fps_t_series::sim::{trace_event_json, Dur, Histogram, Rng, Tracer};
use fps_t_series::vector::VecForm;

/// A tiny recursive-descent JSON parser — just enough to validate the
/// hand-rolled exporter's output structurally instead of by substring
/// matching. Numbers, strings with the escapes the exporter emits,
/// arrays, objects.
mod json {
    /// A parsed JSON value.
    #[derive(Debug, PartialEq)]
    pub enum Value {
        /// `null` / `true` / `false` (the exporter never emits these, but
        /// accepting them keeps the parser honest).
        Null,
        /// Boolean.
        Bool(bool),
        /// Any JSON number.
        Num(f64),
        /// String.
        Str(String),
        /// Array.
        Arr(Vec<Value>),
        /// Object, insertion-ordered.
        Obj(Vec<(String, Value)>),
    }

    impl Value {
        pub fn get(&self, key: &str) -> Option<&Value> {
            match self {
                Value::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
                _ => None,
            }
        }
        pub fn as_f64(&self) -> Option<f64> {
            match self {
                Value::Num(n) => Some(*n),
                _ => None,
            }
        }
        pub fn as_str(&self) -> Option<&str> {
            match self {
                Value::Str(s) => Some(s),
                _ => None,
            }
        }
        pub fn as_arr(&self) -> Option<&[Value]> {
            match self {
                Value::Arr(v) => Some(v),
                _ => None,
            }
        }
    }

    pub fn parse(text: &str) -> Result<Value, String> {
        let bytes = text.as_bytes();
        let mut pos = 0;
        let v = value(bytes, &mut pos)?;
        skip_ws(bytes, &mut pos);
        if pos != bytes.len() {
            return Err(format!("trailing garbage at byte {pos}"));
        }
        Ok(v)
    }

    fn skip_ws(b: &[u8], pos: &mut usize) {
        while *pos < b.len() && matches!(b[*pos], b' ' | b'\t' | b'\n' | b'\r') {
            *pos += 1;
        }
    }

    fn expect(b: &[u8], pos: &mut usize, c: u8) -> Result<(), String> {
        if *pos < b.len() && b[*pos] == c {
            *pos += 1;
            Ok(())
        } else {
            Err(format!("expected {:?} at byte {}", c as char, *pos))
        }
    }

    fn value(b: &[u8], pos: &mut usize) -> Result<Value, String> {
        skip_ws(b, pos);
        match b.get(*pos) {
            Some(b'{') => object(b, pos),
            Some(b'[') => array(b, pos),
            Some(b'"') => Ok(Value::Str(string(b, pos)?)),
            Some(b't') => keyword(b, pos, "true", Value::Bool(true)),
            Some(b'f') => keyword(b, pos, "false", Value::Bool(false)),
            Some(b'n') => keyword(b, pos, "null", Value::Null),
            Some(_) => number(b, pos),
            None => Err("unexpected end of input".into()),
        }
    }

    fn keyword(b: &[u8], pos: &mut usize, word: &str, v: Value) -> Result<Value, String> {
        if b[*pos..].starts_with(word.as_bytes()) {
            *pos += word.len();
            Ok(v)
        } else {
            Err(format!("bad keyword at byte {}", *pos))
        }
    }

    fn object(b: &[u8], pos: &mut usize) -> Result<Value, String> {
        expect(b, pos, b'{')?;
        let mut fields = Vec::new();
        skip_ws(b, pos);
        if b.get(*pos) == Some(&b'}') {
            *pos += 1;
            return Ok(Value::Obj(fields));
        }
        loop {
            skip_ws(b, pos);
            let key = string(b, pos)?;
            skip_ws(b, pos);
            expect(b, pos, b':')?;
            fields.push((key, value(b, pos)?));
            skip_ws(b, pos);
            match b.get(*pos) {
                Some(b',') => *pos += 1,
                Some(b'}') => {
                    *pos += 1;
                    return Ok(Value::Obj(fields));
                }
                _ => return Err(format!("expected ',' or '}}' at byte {}", *pos)),
            }
        }
    }

    fn array(b: &[u8], pos: &mut usize) -> Result<Value, String> {
        expect(b, pos, b'[')?;
        let mut items = Vec::new();
        skip_ws(b, pos);
        if b.get(*pos) == Some(&b']') {
            *pos += 1;
            return Ok(Value::Arr(items));
        }
        loop {
            items.push(value(b, pos)?);
            skip_ws(b, pos);
            match b.get(*pos) {
                Some(b',') => *pos += 1,
                Some(b']') => {
                    *pos += 1;
                    return Ok(Value::Arr(items));
                }
                _ => return Err(format!("expected ',' or ']' at byte {}", *pos)),
            }
        }
    }

    fn string(b: &[u8], pos: &mut usize) -> Result<String, String> {
        expect(b, pos, b'"')?;
        let mut out = String::new();
        while let Some(&c) = b.get(*pos) {
            *pos += 1;
            match c {
                b'"' => return Ok(out),
                b'\\' => {
                    let esc = *b.get(*pos).ok_or("dangling escape")?;
                    *pos += 1;
                    match esc {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'u' => {
                            let hex = std::str::from_utf8(&b[*pos..*pos + 4])
                                .map_err(|_| "bad \\u escape")?;
                            let code =
                                u32::from_str_radix(hex, 16).map_err(|_| "bad \\u escape")?;
                            out.push(char::from_u32(code).ok_or("bad \\u codepoint")?);
                            *pos += 4;
                        }
                        _ => return Err(format!("unknown escape \\{}", esc as char)),
                    }
                }
                c => out.push(c as char),
            }
        }
        Err("unterminated string".into())
    }

    fn number(b: &[u8], pos: &mut usize) -> Result<Value, String> {
        let start = *pos;
        while *pos < b.len() && matches!(b[*pos], b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E') {
            *pos += 1;
        }
        std::str::from_utf8(&b[start..*pos])
            .ok()
            .and_then(|s| s.parse().ok())
            .map(Value::Num)
            .ok_or_else(|| format!("bad number at byte {start}"))
    }
}

/// Two nodes, three rounds: node 0 overlaps a vector form with a gather
/// and a send; node 1 receives and computes. Exercises span, flow and
/// metadata emission on CP, vector, port and wire tracks.
fn traced_workload() -> Tracer {
    let mut m = Machine::build(MachineCfg::cube(1));
    let tracer = m.enable_tracing();
    let rows_a = m.ctx(0).mem().cfg().rows_a();
    let tx = m.ctx(0);
    m.launch_on(0, async move {
        for round in 0..3u32 {
            let pending = tx
                .vec_async(VecForm::Saxpy(Sf64::from(2.0)), 0, rows_a, rows_a, 128)
                .unwrap();
            let srcs: Vec<usize> = (0..32).map(|i| 8192 + 4 * i).collect();
            tx.gather64(&srcs, 1024).await.unwrap();
            tx.send_dim(0, vec![round; 64]).await;
            pending.await;
        }
    });
    let rx = m.ctx(1);
    m.launch_on(1, async move {
        for _ in 0..3 {
            let words = rx.recv_dim(0).await;
            rx.vec_async(
                VecForm::Saxpy(Sf64::from(0.5)),
                0,
                rows_a,
                rows_a,
                words.len(),
            )
            .unwrap()
            .await;
        }
    });
    assert!(m.run().quiescent);
    tracer
}

#[test]
fn perfetto_export_is_schema_valid_trace_event_json() {
    let tracer = traced_workload();
    let text = trace_event_json(&tracer);
    let doc = json::parse(&text).expect("exporter must emit parseable JSON");

    let events = doc
        .get("traceEvents")
        .and_then(|v| v.as_arr())
        .expect("top-level traceEvents array");
    assert!(!events.is_empty(), "trace must not be empty");
    assert_eq!(
        doc.get("displayTimeUnit").and_then(|v| v.as_str()),
        Some("ns")
    );

    let mut spans = 0;
    let mut flows_s = 0;
    let mut flows_f = 0;
    let mut span_pids = std::collections::BTreeSet::new();
    for e in events {
        let ph = e
            .get("ph")
            .and_then(|v| v.as_str())
            .expect("every event has ph");
        assert!(
            e.get("name").and_then(|v| v.as_str()).is_some(),
            "every event has a name"
        );
        assert!(
            e.get("pid").and_then(|v| v.as_f64()).is_some(),
            "every event has pid"
        );
        assert!(
            e.get("tid").and_then(|v| v.as_f64()).is_some(),
            "every event has tid"
        );
        match ph {
            "M" => {
                let name = e.get("name").unwrap().as_str().unwrap();
                assert!(
                    name == "process_name" || name == "thread_name",
                    "metadata event {name:?}"
                );
                assert!(e.get("args").and_then(|a| a.get("name")).is_some());
            }
            "X" => {
                spans += 1;
                span_pids.insert(e.get("pid").unwrap().as_f64().unwrap() as u64);
                let ts = e.get("ts").and_then(|v| v.as_f64()).expect("X has ts");
                let dur = e.get("dur").and_then(|v| v.as_f64()).expect("X has dur");
                assert!(ts >= 0.0 && dur >= 0.0, "non-negative ts/dur");
            }
            "i" => {
                assert!(e.get("ts").and_then(|v| v.as_f64()).is_some(), "i has ts");
            }
            "C" => {
                assert!(e.get("args").is_some(), "C carries its sample in args");
            }
            "s" => {
                flows_s += 1;
                assert!(e.get("id").is_some(), "flow start has id");
            }
            "f" => {
                flows_f += 1;
                assert!(e.get("id").is_some(), "flow finish has id");
            }
            other => panic!("unexpected phase {other:?}"),
        }
    }
    assert!(spans > 0, "workload must produce busy spans");
    assert_eq!(flows_s, flows_f, "every flow start pairs with a finish");
    assert!(flows_s > 0, "link sends must emit flow arrows");
    // Both nodes' units must appear as their own processes (pid = id + 2).
    assert!(
        span_pids.contains(&2) && span_pids.contains(&3),
        "pids: {span_pids:?}"
    );
}

#[test]
fn histogram_bucketing_respects_bucket_ranges() {
    // Deterministic xorshift sweep across all magnitudes.
    let mut x = 0x9e3779b97f4a7c15u64;
    let mut rand = move || {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        x
    };
    let h = Histogram::new();
    let mut n = 0u64;
    for _ in 0..4096 {
        // Mask to a random width so small values are as common as huge ones.
        let width = (rand() % 64) as u32;
        let v = rand() & (u64::MAX >> width);
        let b = Histogram::bucket_of(v);
        let (lo, hi) = Histogram::bucket_range(b);
        assert!(lo <= v, "value {v} below its bucket's lower bound {lo}");
        assert!(v <= hi, "value {v} above its bucket's upper bound {hi}");
        if b > 0 {
            // Buckets are half-open powers of two: [2^(b-1), 2^b).
            assert!(v >= 1 << (b - 1).min(63), "{v} too small for bucket {b}");
        } else {
            assert_eq!(v, 0, "bucket 0 holds exactly the value 0");
        }
        h.observe(v);
        n += 1;
    }
    assert_eq!(h.total(), n);
    assert_eq!(h.counts().iter().sum::<u64>(), n);
    // Quantile bounds are monotone in q and end at the max observed bucket.
    let q50 = h.quantile_bound(0.50);
    let q99 = h.quantile_bound(0.99);
    let q100 = h.quantile_bound(1.0);
    assert!(q50 <= q99 && q99 <= q100, "{q50} <= {q99} <= {q100}");
}

#[test]
fn identical_runs_emit_identical_event_streams() {
    let a = traced_workload();
    let b = traced_workload();
    assert_eq!(
        a.tracks(),
        b.tracks(),
        "track interning must be deterministic"
    );
    assert_eq!(
        trace_event_json(&a),
        trace_event_json(&b),
        "two identical runs must serialize to byte-identical traces"
    );
}

/// FNV-1a over a byte stream.
fn fnv(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    h
}

/// Scenario 1: on a 4-cube, a full checkpoint, Cannon matmul, a delta
/// checkpoint, a distributed FFT, then a restore from the store.
fn kernels_with_checkpoints() -> Machine {
    let mut m = Machine::build(MachineCfg::cube_small_mem(4, 8));
    let mut store = CheckpointStore::new(m.nodes.len());
    m.checkpoint(&mut store, SnapshotMode::Full).unwrap();
    matmul::distributed_matmul(&mut m, 8, 7);
    m.checkpoint(&mut store, SnapshotMode::Delta).unwrap();
    let input: Vec<(f64, f64)> = (0..32)
        .map(|i| (i as f64 * 0.25, -(i as f64) * 0.125))
        .collect();
    fft::distributed_fft(&mut m, &input);
    m.restore_from(&store).unwrap();
    m
}

/// Every node of a 3-cube runs `sweeps` SAXPY passes over bank B row 0.
fn saxpy_phase(sweeps: usize) -> Phase<'static> {
    Box::new(move |m: &mut Machine| {
        m.launch(move |ctx| async move {
            let rows_a = ctx.mem().cfg().rows_a();
            for _ in 0..sweeps {
                let one = VecForm::Saxpy(Sf64::from(1.0));
                if ctx.vec(one, 0, rows_a, rows_a, 128).await.is_err() {
                    return;
                }
            }
        });
    })
}

/// Every node routes one word to its cube-opposite; a dead cable on the
/// e-cube path forces the router to detour.
fn routed_exchange_phase() -> Phase<'static> {
    Box::new(|m: &mut Machine| {
        let router = Router::start(m);
        let n = m.nodes.len() as u32;
        let handles: Vec<_> = (0..n).map(|i| router.handle(i)).collect();
        m.launch_on(0, async move {
            for (i, h) in handles.iter().enumerate() {
                let _ = h.send_to(i as u32 ^ (n - 1), vec![100 + i as u32]).await;
            }
            for h in &handles {
                h.recv().await;
            }
            router.shutdown().await;
        });
    })
}

/// The root broadcasts under a 300 µs deadline while every other node is
/// busy for 400 µs first: the first attempt times out and is retried.
fn late_broadcast_phase() -> Phase<'static> {
    Box::new(|m: &mut Machine| {
        let cube = m.cube;
        m.launch(move |ctx| async move {
            if ctx.id() == 0 {
                let data = || broadcast(&ctx, cube, 0, Some(vec![7, 8, 9]));
                with_deadline(&ctx, Dur::us(300), 4, data).await.unwrap();
            } else {
                ctx.cp_compute(3_000).await;
                broadcast(&ctx, cube, 0, None).await;
            }
        });
    })
}

/// Scenario 2: a supervised 3-cube job under a fault plan. A cable dies
/// during the first compute phase (router reroutes on every replay), a
/// node crashes during the routed exchange (one reboot), and a late
/// broadcast retries under its deadline.
fn supervised_faults() -> Machine {
    let cfg = MachineCfg::cube_small_mem(3, 8);
    let seed = |m: &mut Machine| {
        for node in &m.nodes {
            let mut mem = node.mem_mut();
            let rows_a = mem.cfg().rows_a();
            for i in 0..128 {
                mem.write_f64(2 * i, Sf64::from(1.0)).unwrap();
                mem.write_f64(rows_a * ROW_WORDS + 2 * i, Sf64::from(node.id as f64))
                    .unwrap();
            }
        }
    };
    let phases = || {
        vec![
            saxpy_phase(3),
            routed_exchange_phase(),
            late_broadcast_phase(),
            saxpy_phase(2),
        ]
    };
    // Fault times fall inside phases of a fault-free probe run.
    let (d0, p0, p1) = {
        let mut m = Machine::build(cfg);
        seed(&mut m);
        let d0 = m.snapshot().unwrap().1;
        let ph = phases();
        let t1 = m.now();
        ph[0](&mut m);
        assert!(m.run().quiescent);
        let t2 = m.now();
        ph[1](&mut m);
        assert!(m.run().quiescent);
        (d0, t2.since(t1), m.now().since(t2))
    };
    let half = |d: Dur| Dur::from_secs_f64(d.as_secs_f64() / 2.0);
    let plan = FaultPlan::new()
        .with(d0 + half(p0), FaultEvent::LinkDown { node: 1, dim: 0 })
        .with(d0 + p0 + half(p1), FaultEvent::NodeCrash { node: 6 });
    let (m, rep) = Supervisor::new(cfg)
        .run_to_completion(seed, &phases(), &plan)
        .unwrap();
    assert_eq!(rep.reboots, 1);
    m
}

/// Scenario 3: a seeded permutation of 8-word messages through the
/// store-and-forward router on a 4-cube, two rounds.
fn routed_permutation() -> Machine {
    let mut m = Machine::build(MachineCfg::cube_small_mem(4, 8));
    let n = m.nodes.len() as u32;
    let mut rng = Rng::new(1986);
    let perms: Vec<Vec<u32>> = (0..2)
        .map(|_| {
            let mut p: Vec<u32> = (0..n).collect();
            for i in (1..p.len()).rev() {
                p.swap(i, rng.below(i as u64 + 1) as usize);
            }
            p
        })
        .collect();
    let router = Router::start(&m);
    let handles: Vec<_> = (0..n).map(|i| router.handle(i)).collect();
    for (id, h) in handles.into_iter().enumerate() {
        let perms = perms.clone();
        m.launch_on(id as u32, async move {
            for p in &perms {
                h.send_to(p[id], vec![id as u32; 8]).await.unwrap();
                h.recv().await;
            }
        });
    }
    m.run();
    m.launch_on(0, async move {
        router.shutdown().await;
    });
    assert!(m.run().quiescent);
    m
}

/// The machine-wide rollup as `key=value` lines (counters, then
/// durations in picoseconds) and an FNV digest of the utilization report.
fn pinned_view(m: &Machine) -> (Vec<String>, Vec<String>, u64) {
    let met = m.metrics();
    let counters = met
        .counters()
        .iter()
        .map(|(k, v)| format!("{k}={v}"))
        .collect();
    let durations = met
        .durations()
        .iter()
        .map(|(k, d)| format!("{k}={}", d.as_ps()))
        .collect();
    (counters, durations, fnv(m.utilization_report().as_bytes()))
}

/// One pinned scenario: its name, the run, and the exact rollup counters,
/// durations and report digest it must produce.
struct Pinned {
    name: &'static str,
    run: fn() -> Machine,
    counters: &'static [&'static str],
    durations: &'static [&'static str],
    report_fnv: u64,
}

#[test]
fn metrics_rollup_and_report_are_pinned() {
    let table = [
        Pinned {
            name: "kernels_with_checkpoints",
            run: kernels_with_checkpoints,
            counters: &[
                "ckpt.bytes_full_equiv=262400",
                "ckpt.bytes_streamed=131392",
                "ckpt.delta=1",
                "ckpt.full=1",
                "cp.gathered=0",
                "cp.instrs=0",
                "cp.scattered=0",
                "link.bytes_recv=6656",
                "link.bytes_sent=6656",
                "link.crc_errors=0",
                "link.escalations=0",
                "link.msgs_recv=208",
                "link.msgs_sent=208",
                "link.retransmits=0",
                "link.words_recv=1664",
                "link.words_sent=1664",
                "mem.rows_moved=0",
                "vec.flops=2464",
            ],
            durations: &["cp.busy=0", "port.cp=0", "vec.busy=1103200000"],
            report_fnv: 0xd6f98af762b996c1,
        },
        Pinned {
            name: "supervised_faults",
            run: supervised_faults,
            counters: &[
                "collective.retries=1",
                "cp.gathered=0",
                "cp.instrs=21624",
                "cp.scattered=0",
                "fault.link_down=1",
                "link.bytes_recv=1020",
                "link.bytes_sent=1032",
                "link.crc_errors=0",
                "link.escalations=0",
                "link.msgs_recv=42",
                "link.msgs_sent=43",
                "link.retransmits=0",
                "link.words_recv=21",
                "link.words_sent=258",
                "mem.rows_moved=0",
                "router.dropped=1",
                "router.reroutes=6",
                "supervisor.delta_snapshots=0",
                "supervisor.reboots=1",
                "supervisor.snapshots=1",
                "supervisor.torn_checkpoints=0",
                "supervisor.watchdog_trips=0",
                "vec.flops=10240",
            ],
            durations: &[
                "cp.busy=2883192792",
                "port.cp=0",
                "supervisor.rework=194443478",
                "vec.busy=753000000",
            ],
            report_fnv: 0xac0df32d0002851c,
        },
        Pinned {
            name: "routed_permutation",
            run: routed_permutation,
            counters: &[
                "cp.gathered=0",
                "cp.instrs=1728",
                "cp.scattered=0",
                "link.bytes_recv=4352",
                "link.bytes_sent=4352",
                "link.crc_errors=0",
                "link.escalations=0",
                "link.msgs_recv=96",
                "link.msgs_sent=96",
                "link.retransmits=0",
                "link.words_recv=0",
                "link.words_sent=1088",
                "mem.rows_moved=0",
                "vec.flops=0",
            ],
            durations: &["cp.busy=230399424", "port.cp=0", "vec.busy=0"],
            report_fnv: 0x0fed626c47e169c0,
        },
    ];
    for p in table {
        let m = (p.run)();
        let (counters, durations, report_fnv) = pinned_view(&m);
        let report = m.utilization_report();
        assert_eq!(counters, p.counters, "{}: counters\n{report}", p.name);
        assert_eq!(durations, p.durations, "{}: durations\n{report}", p.name);
        assert_eq!(
            report_fnv, p.report_fnv,
            "{}: report digest {report_fnv:#x}\n{report}",
            p.name
        );
    }
}
