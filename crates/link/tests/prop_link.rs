//! Property tests for the link model: framing arithmetic, conservation of
//! bytes, determinism of contention. Seeded random cases via [`Rng`] so the
//! suite runs offline and fails reproducibly.

use ts_link::{LinkChannel, LinkParams, Wire};
use ts_sim::{Dur, Rng, Sim, Time};

/// Wire time is exactly linear in bytes; message time adds startup.
#[test]
fn framing_arithmetic() {
    let mut rng = Rng::new(0x11c0_0001);
    for _ in 0..256 {
        let bytes = rng.range(0, 100_000);
        let p = LinkParams::default();
        assert_eq!(p.wire_time(bytes), Dur::us(2) * bytes as u64);
        assert_eq!(p.message_time(bytes), Dur::us(5) + p.wire_time(bytes));
    }
}

/// Any mix of message sizes over one channel: total elapsed equals
/// sum(startup + wire time) when sender and receiver are dedicated.
#[test]
fn serial_stream_time_is_additive() {
    let mut rng = Rng::new(0x11c0_0002);
    for _ in 0..24 {
        let sizes: Vec<usize> = (0..rng.range(1, 15)).map(|_| rng.range(1, 200)).collect();
        let mut sim = Sim::new();
        let h = sim.handle();
        let ch = LinkChannel::new(Wire::new("w", LinkParams::default()));
        let (tx, rx) = (ch.clone(), ch);
        let sizes2 = sizes.clone();
        let h2 = h.clone();
        sim.spawn(async move {
            for s in sizes2 {
                tx.send(&h2, vec![0u32; s]).await;
            }
        });
        let n = sizes.len();
        sim.spawn(async move {
            for _ in 0..n {
                rx.recv(&h).await;
            }
        });
        assert!(sim.run().quiescent);
        let p = LinkParams::default();
        let want: Dur = sizes.iter().map(|&s| p.message_time(s * 4)).sum();
        assert_eq!(sim.now(), Time::ZERO + want);
    }
}

/// Bytes are conserved and metrics agree with payload sizes.
#[test]
fn byte_conservation() {
    let mut rng = Rng::new(0x11c0_0003);
    for _ in 0..24 {
        let sizes: Vec<usize> = (0..rng.range(1, 10)).map(|_| rng.range(1, 100)).collect();
        let mut sim = Sim::new();
        let h = sim.handle();
        let (tx_meters, rx_meters) = (ts_link::TxMeters::default(), ts_link::RxMeters::default());
        let mut ch = LinkChannel::new(Wire::new("w", LinkParams::default()));
        ch.set_meters(tx_meters.clone(), rx_meters.clone());
        let (tx, rx) = (ch.clone(), ch);
        let sizes2 = sizes.clone();
        let h2 = h.clone();
        sim.spawn(async move {
            for (i, s) in sizes2.into_iter().enumerate() {
                tx.send(&h2, vec![i as u32; s]).await;
            }
        });
        let n = sizes.len();
        let jh = sim.spawn(async move {
            let mut total = 0usize;
            for _ in 0..n {
                total += rx.recv(&h).await.len();
            }
            total
        });
        assert!(sim.run().quiescent);
        let words: usize = sizes.iter().sum();
        assert_eq!(jh.try_take().unwrap(), words);
        assert_eq!(tx_meters.bytes.get(), 4 * words as u64);
        assert_eq!(rx_meters.bytes.get(), 4 * words as u64);
        assert_eq!(tx_meters.msgs.get(), sizes.len() as u64);
    }
}

/// Two sublinks sharing a wire: the wire's busy time equals the total
/// payload wire time (work conservation under contention), and the
/// schedule is deterministic.
#[test]
fn contention_conserves_work() {
    let mut rng = Rng::new(0x11c0_0004);
    for _ in 0..16 {
        let a_sizes: Vec<usize> = (0..rng.range(1, 8)).map(|_| rng.range(1, 60)).collect();
        let b_sizes: Vec<usize> = (0..rng.range(1, 8)).map(|_| rng.range(1, 60)).collect();
        let run = || {
            let mut sim = Sim::new();
            let h = sim.handle();
            let wire = Wire::new("shared", LinkParams::default());
            for sizes in [a_sizes.clone(), b_sizes.clone()] {
                let ch = LinkChannel::new(wire.clone());
                let (tx, rx) = (ch.clone(), ch);
                let hs = h.clone();
                let n = sizes.len();
                sim.spawn(async move {
                    for s in sizes {
                        tx.send(&hs, vec![0u32; s]).await;
                    }
                });
                let hr = h.clone();
                sim.spawn(async move {
                    for _ in 0..n {
                        rx.recv(&hr).await;
                    }
                });
            }
            let q = sim.run().quiescent;
            (q, sim.now(), wire.busy_total())
        };
        let (q1, t1, busy1) = run();
        let (q2, t2, busy2) = run();
        assert!(q1 && q2);
        assert_eq!(t1, t2, "deterministic contention");
        assert_eq!(busy1, busy2);
        let total_words: usize = a_sizes.iter().chain(&b_sizes).sum();
        assert_eq!(busy1, Dur::us(2) * (4 * total_words) as u64);
    }
}
