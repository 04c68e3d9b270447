//! Metrics: one typed, hierarchical registry and its read-only rollups.
//!
//! [`MetricsRegistry`] is the machine-wide store and the only place a
//! machine counts anything. Producers register a handle once — a
//! [`Counter`], a [`BusyTime`] accumulator or a log₂-bucket [`Histogram`]
//! — under a scoped path such as `node/3/vec/flops`, then bump the handle
//! on the hot path with nothing but a `Cell` store: no map lookup, no
//! allocation, no string. Cold paths register on first use; registering
//! an existing path returns the same cell.
//!
//! Consumers read the registry back two ways. [`MetricsRegistry::snapshot`]
//! lists every metric by path (natural order, so `node/2` precedes
//! `node/10`). [`MetricsRegistry::rollup`] sums every counter and
//! busy-time under a scope of numbered children into a [`Metrics`], an
//! owned table keyed `unit.metric` (`node/3/link/bytes_sent` →
//! `link.bytes_sent`) — the machine totals reports and kernel statistics
//! read.

use std::cell::{Cell, RefCell};
use std::cmp::Ordering;
use std::collections::BTreeMap;
use std::ops::Bound;
use std::rc::Rc;

use crate::time::Dur;

// ---------------------------------------------------------------------------
// Natural ordering
// ---------------------------------------------------------------------------

/// Compare two strings in *natural* order: maximal digit runs compare as
/// integers, everything else byte-wise. `"n2.vec" < "n10.vec"` and
/// `"node/2/cp" < "node/10/cp"`, where plain lexicographic order would put
/// the 10 first. Used to sort metric paths and trace tracks
/// deterministically by (node, unit).
pub fn natural_cmp(a: &str, b: &str) -> Ordering {
    let (a, b) = (a.as_bytes(), b.as_bytes());
    let (mut i, mut j) = (0, 0);
    while i < a.len() && j < b.len() {
        if a[i].is_ascii_digit() && b[j].is_ascii_digit() {
            let (mut x, mut y) = (i, j);
            while x < a.len() && a[x].is_ascii_digit() {
                x += 1;
            }
            while y < b.len() && b[y].is_ascii_digit() {
                y += 1;
            }
            // Strip leading zeros, then compare by length and digits.
            let da = {
                let mut s = i;
                while s + 1 < x && a[s] == b'0' {
                    s += 1;
                }
                &a[s..x]
            };
            let db = {
                let mut s = j;
                while s + 1 < y && b[s] == b'0' {
                    s += 1;
                }
                &b[s..y]
            };
            let ord = da.len().cmp(&db.len()).then_with(|| da.cmp(db));
            if ord != Ordering::Equal {
                return ord;
            }
            i = x;
            j = y;
        } else {
            let ord = a[i].cmp(&b[j]);
            if ord != Ordering::Equal {
                return ord;
            }
            i += 1;
            j += 1;
        }
    }
    (a.len() - i).cmp(&(b.len() - j))
}

// ---------------------------------------------------------------------------
// Typed handles
// ---------------------------------------------------------------------------

/// A pre-registered event counter. Cloning shares the underlying cell;
/// incrementing is a single `Cell` store — allocation-free and lookup-free.
#[derive(Clone, Default)]
pub struct Counter(Rc<Cell<u64>>);

impl Counter {
    /// New standalone counter (normally obtained from a registry).
    pub fn new() -> Counter {
        Counter::default()
    }

    /// Add one.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// Add `n`.
    #[inline]
    pub fn add(&self, n: u64) {
        self.0.set(self.0.get().wrapping_add(n));
    }

    /// Current value.
    #[inline]
    pub fn get(&self) -> u64 {
        self.0.get()
    }
}

/// A pre-registered busy-time accumulator (stored as picoseconds).
#[derive(Clone, Default)]
pub struct BusyTime(Rc<Cell<u64>>);

impl BusyTime {
    /// New standalone accumulator (normally obtained from a registry).
    pub fn new() -> BusyTime {
        BusyTime::default()
    }

    /// Accumulate a span of busy time.
    #[inline]
    pub fn add(&self, d: Dur) {
        self.0.set(self.0.get().wrapping_add(d.as_ps()));
    }

    /// Total accumulated busy time.
    #[inline]
    pub fn get(&self) -> Dur {
        Dur::ps(self.0.get())
    }
}

/// Number of buckets in a [`Histogram`]: bucket 0 holds the value 0 and
/// bucket `i ≥ 1` holds values in `[2^(i-1), 2^i)`, so all of `u64` fits.
pub const HIST_BUCKETS: usize = 65;

/// A log₂-bucketed histogram of `u64` samples (message latencies in ns,
/// vector-op lengths, queue depths, hop counts).
#[derive(Clone)]
pub struct Histogram(Rc<RefCell<HistInner>>);

struct HistInner {
    counts: [u64; HIST_BUCKETS],
    total: u64,
    sum: u128,
}

impl Default for Histogram {
    fn default() -> Histogram {
        Histogram(Rc::new(RefCell::new(HistInner {
            counts: [0; HIST_BUCKETS],
            total: 0,
            sum: 0,
        })))
    }
}

impl Histogram {
    /// New standalone histogram (normally obtained from a registry).
    pub fn new() -> Histogram {
        Histogram::default()
    }

    /// Bucket index a value lands in: 0 for 0, else `⌊log₂ v⌋ + 1`.
    #[inline]
    pub fn bucket_of(v: u64) -> usize {
        if v == 0 {
            0
        } else {
            64 - v.leading_zeros() as usize
        }
    }

    /// Inclusive-exclusive value range `[lo, hi)` covered by `bucket`
    /// (`hi = u64::MAX` for the last bucket).
    pub fn bucket_range(bucket: usize) -> (u64, u64) {
        match bucket {
            0 => (0, 1),
            64 => (1 << 63, u64::MAX),
            b => (1 << (b - 1), 1 << b),
        }
    }

    /// Record one sample.
    #[inline]
    pub fn observe(&self, v: u64) {
        let mut h = self.0.borrow_mut();
        h.counts[Self::bucket_of(v)] += 1;
        h.total += 1;
        h.sum += v as u128;
    }

    /// Number of samples recorded.
    pub fn total(&self) -> u64 {
        self.0.borrow().total
    }

    /// Mean of all samples (0.0 if empty).
    pub fn mean(&self) -> f64 {
        let h = self.0.borrow();
        if h.total == 0 {
            0.0
        } else {
            h.sum as f64 / h.total as f64
        }
    }

    /// Snapshot of all bucket counts.
    pub fn counts(&self) -> Vec<u64> {
        self.0.borrow().counts.to_vec()
    }

    /// Upper bound of the bucket containing the `q`-quantile sample
    /// (`q` in `[0, 1]`); 0 if the histogram is empty.
    pub fn quantile_bound(&self, q: f64) -> u64 {
        let h = self.0.borrow();
        if h.total == 0 {
            return 0;
        }
        let rank = ((h.total as f64 * q).ceil() as u64).clamp(1, h.total);
        let mut seen = 0;
        for (b, &c) in h.counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return Self::bucket_range(b).1;
            }
        }
        u64::MAX
    }

    /// Point estimate of the `q`-quantile (`q` in `[0, 1]`): the bucket
    /// holding the rank-`⌈q·n⌉` sample, interpolated linearly through the
    /// bucket's `[lo, hi)` value range under a uniform-within-bucket
    /// assumption. Tighter than [`Histogram::quantile_bound`] (which
    /// always reports `hi`), and exact for buckets 0 and 1 where the
    /// range is a single value. Returns 0 for an empty histogram.
    pub fn quantile(&self, q: f64) -> u64 {
        let h = self.0.borrow();
        if h.total == 0 {
            return 0;
        }
        let rank = ((h.total as f64 * q).ceil() as u64).clamp(1, h.total);
        let mut seen = 0u64;
        for (b, &c) in h.counts.iter().enumerate() {
            if seen + c >= rank {
                let (lo, hi) = Self::bucket_range(b);
                // Position of the rank within this bucket, in (0, 1].
                let frac = (rank - seen) as f64 / c as f64;
                return lo + ((hi - lo) as f64 * frac).round() as u64;
            }
            seen += c;
        }
        u64::MAX
    }
}

// ---------------------------------------------------------------------------
// Registry
// ---------------------------------------------------------------------------

#[derive(Clone)]
enum Slot {
    Counter(Counter),
    Busy(BusyTime),
    Hist(Histogram),
}

impl Slot {
    fn kind(&self) -> &'static str {
        match self {
            Slot::Counter(_) => "counter",
            Slot::Busy(_) => "busy-time",
            Slot::Hist(_) => "histogram",
        }
    }
}

/// A snapshot value read back from a [`MetricsRegistry`].
#[derive(Clone, Debug, PartialEq)]
pub enum MetricValue {
    /// An event count.
    Count(u64),
    /// Accumulated busy time.
    Busy(Dur),
    /// Histogram summary: `(samples, mean, bucket counts)`.
    Hist {
        /// Number of samples recorded.
        total: u64,
        /// Mean sample value.
        mean: f64,
        /// Per-bucket counts ([`HIST_BUCKETS`] entries).
        counts: Vec<u64>,
    },
}

/// Typed, hierarchical metrics store shared by every unit of a machine.
///
/// Paths are `/`-separated — by convention `node/{id}/{unit}/{metric}` for
/// per-node units and bare scopes like `wire/...` or `collective/...` for
/// shared infrastructure. Registering the same path twice returns a handle
/// to the same underlying cell (so producers and consumers can rendezvous
/// on a path), but re-registering with a different *kind* panics.
#[derive(Clone, Default)]
pub struct MetricsRegistry {
    inner: Rc<RefCell<BTreeMap<String, Slot>>>,
}

impl MetricsRegistry {
    /// New, empty registry.
    pub fn new() -> MetricsRegistry {
        MetricsRegistry::default()
    }

    fn register(&self, path: &str, make: Slot) -> Slot {
        let mut map = self.inner.borrow_mut();
        if let Some(existing) = map.get(path) {
            assert!(
                std::mem::discriminant(existing) == std::mem::discriminant(&make),
                "metric {path:?} already registered as a {}",
                existing.kind()
            );
            return existing.clone();
        }
        map.insert(path.to_string(), make.clone());
        make
    }

    /// Register (or look up) a counter at `path`.
    pub fn counter(&self, path: &str) -> Counter {
        match self.register(path, Slot::Counter(Counter::new())) {
            Slot::Counter(c) => c,
            _ => unreachable!(),
        }
    }

    /// Register (or look up) a busy-time accumulator at `path`.
    pub fn busy_time(&self, path: &str) -> BusyTime {
        match self.register(path, Slot::Busy(BusyTime::new())) {
            Slot::Busy(b) => b,
            _ => unreachable!(),
        }
    }

    /// Register (or look up) a histogram at `path`.
    pub fn histogram(&self, path: &str) -> Histogram {
        match self.register(path, Slot::Hist(Histogram::new())) {
            Slot::Hist(h) => h,
            _ => unreachable!(),
        }
    }

    /// A view of this registry that prefixes every path with `prefix/`.
    pub fn scope(&self, prefix: &str) -> MetricsScope {
        MetricsScope {
            reg: self.clone(),
            prefix: prefix.to_string(),
        }
    }

    /// Read a counter's value, if registered.
    pub fn get_counter(&self, path: &str) -> Option<u64> {
        match self.inner.borrow().get(path) {
            Some(Slot::Counter(c)) => Some(c.get()),
            _ => None,
        }
    }

    /// Read a busy-time accumulator's value, if registered.
    pub fn get_busy(&self, path: &str) -> Option<Dur> {
        match self.inner.borrow().get(path) {
            Some(Slot::Busy(b)) => Some(b.get()),
            _ => None,
        }
    }

    /// Sum of every registered counter whose path ends with `/suffix`.
    pub fn sum_counters(&self, suffix: &str) -> u64 {
        self.inner
            .borrow()
            .iter()
            .filter_map(|(k, v)| match v {
                Slot::Counter(c) if k.ends_with(suffix) => Some(c.get()),
                _ => None,
            })
            .sum()
    }

    /// Sum every counter and busy-time registered as
    /// `{scope}/{child}/{unit}/{metric}` over all children, keyed
    /// `unit.metric` (every `/` after the child becomes `.`). Histograms
    /// are skipped. One walk over the scope's paths, summing under names
    /// borrowed from the registry; each distinct key is built once.
    pub fn rollup(&self, scope: &str) -> Metrics {
        // Every path starting `{scope}/` sorts below `{scope}0`.
        let (lo, hi) = (format!("{scope}/"), format!("{scope}0"));
        let map = self.inner.borrow();
        let mut counters: BTreeMap<&str, u64> = BTreeMap::new();
        let mut durations: BTreeMap<&str, Dur> = BTreeMap::new();
        let paths = (Bound::Included(lo.as_str()), Bound::Excluded(hi.as_str()));
        for (path, slot) in map.range::<str, _>(paths) {
            let Some((_, name)) = path[lo.len()..].split_once('/') else {
                continue;
            };
            match slot {
                Slot::Counter(c) => *counters.entry(name).or_default() += c.get(),
                Slot::Busy(b) => *durations.entry(name).or_insert(Dur::ZERO) += b.get(),
                Slot::Hist(_) => {}
            }
        }
        let dotted = |k: &str| k.replace('/', ".");
        Metrics {
            counters: RefCell::new(counters.into_iter().map(|(k, v)| (dotted(k), v)).collect()),
            durations: RefCell::new(durations.into_iter().map(|(k, d)| (dotted(k), d)).collect()),
        }
    }

    /// Snapshot every metric, sorted by path in natural order (so
    /// `node/2/...` precedes `node/10/...`).
    pub fn snapshot(&self) -> Vec<(String, MetricValue)> {
        let mut out: Vec<(String, MetricValue)> = self
            .inner
            .borrow()
            .iter()
            .map(|(k, v)| {
                let val = match v {
                    Slot::Counter(c) => MetricValue::Count(c.get()),
                    Slot::Busy(b) => MetricValue::Busy(b.get()),
                    Slot::Hist(h) => MetricValue::Hist {
                        total: h.total(),
                        mean: h.mean(),
                        counts: h.counts(),
                    },
                };
                (k.clone(), val)
            })
            .collect();
        out.sort_by(|a, b| natural_cmp(&a.0, &b.0));
        out
    }

    /// Human-readable dump of the whole registry, one metric per line.
    pub fn report(&self) -> String {
        use std::fmt::Write;
        let mut out = String::new();
        for (path, val) in self.snapshot() {
            match val {
                MetricValue::Count(n) => {
                    let _ = writeln!(out, "{path:<40} {n}");
                }
                MetricValue::Busy(d) => {
                    let _ = writeln!(out, "{path:<40} {d}");
                }
                MetricValue::Hist { total, mean, .. } => {
                    let _ = writeln!(out, "{path:<40} n={total} mean={mean:.1}");
                }
            }
        }
        out
    }
}

/// A path-prefixed view of a [`MetricsRegistry`].
#[derive(Clone)]
pub struct MetricsScope {
    reg: MetricsRegistry,
    prefix: String,
}

impl MetricsScope {
    /// Register (or look up) a counter at `{prefix}/{name}`.
    pub fn counter(&self, name: &str) -> Counter {
        self.reg.counter(&format!("{}/{}", self.prefix, name))
    }

    /// Register (or look up) a busy-time accumulator at `{prefix}/{name}`.
    pub fn busy_time(&self, name: &str) -> BusyTime {
        self.reg.busy_time(&format!("{}/{}", self.prefix, name))
    }

    /// Register (or look up) a histogram at `{prefix}/{name}`.
    pub fn histogram(&self, name: &str) -> Histogram {
        self.reg.histogram(&format!("{}/{}", self.prefix, name))
    }

    /// A sub-scope at `{prefix}/{sub}`.
    pub fn scope(&self, sub: &str) -> MetricsScope {
        self.reg.scope(&format!("{}/{}", self.prefix, sub))
    }

    /// The underlying registry.
    pub fn registry(&self) -> &MetricsRegistry {
        &self.reg
    }

    /// This scope's path prefix.
    pub fn prefix(&self) -> &str {
        &self.prefix
    }
}

// ---------------------------------------------------------------------------
// Rollup
// ---------------------------------------------------------------------------

/// Add `v` to `map[key]`, allocating the key only when it is new.
fn add_to<V: Copy + std::ops::AddAssign>(map: &mut BTreeMap<String, V>, key: &str, v: V) {
    match map.get_mut(key) {
        Some(slot) => *slot += v,
        None => {
            map.insert(key.to_string(), v);
        }
    }
}

/// An owned table of named counters (`u64`) and durations ([`Dur`]): the
/// machine totals [`MetricsRegistry::rollup`] produces, merged across
/// parallel shards and read by reports. Plain data, so it can cross a
/// thread boundary; nothing on a hot path writes to it.
#[derive(Clone, Debug, Default)]
pub struct Metrics {
    counters: RefCell<BTreeMap<String, u64>>,
    durations: RefCell<BTreeMap<String, Dur>>,
}

impl Metrics {
    /// Create an empty table.
    pub fn new() -> Metrics {
        Metrics::default()
    }

    /// Add `n` to counter `key`.
    pub fn add(&self, key: &str, n: u64) {
        add_to(&mut self.counters.borrow_mut(), key, n);
    }

    /// Read counter `key` (0 if absent).
    pub fn get(&self, key: &str) -> u64 {
        self.counters.borrow().get(key).copied().unwrap_or(0)
    }

    /// Add `d` to duration `key`.
    pub fn add_time(&self, key: &str, d: Dur) {
        add_to(&mut self.durations.borrow_mut(), key, d);
    }

    /// Read duration `key` (zero if absent).
    pub fn get_time(&self, key: &str) -> Dur {
        self.durations
            .borrow()
            .get(key)
            .copied()
            .unwrap_or(Dur::ZERO)
    }

    /// All counters, sorted by key.
    pub fn counters(&self) -> Vec<(String, u64)> {
        let map = self.counters.borrow();
        map.iter().map(|(k, v)| (k.clone(), *v)).collect()
    }

    /// All durations, sorted by key.
    pub fn durations(&self) -> Vec<(String, Dur)> {
        let map = self.durations.borrow();
        map.iter().map(|(k, v)| (k.clone(), *v)).collect()
    }

    /// Fold another table into this one (used to merge per-shard totals).
    pub fn merge(&self, other: &Metrics) {
        for (k, v) in other.counters.borrow().iter() {
            self.add(k, *v);
        }
        for (k, d) in other.durations.borrow().iter() {
            self.add_time(k, *d);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate() {
        let m = Metrics::new();
        m.add("flops", 1);
        m.add("flops", 9);
        assert_eq!(m.get("flops"), 10);
        assert_eq!(m.get("missing"), 0);
    }

    #[test]
    fn durations_accumulate() {
        let m = Metrics::new();
        m.add_time("vec_busy", Dur::ns(125));
        m.add_time("vec_busy", Dur::ns(125));
        assert_eq!(m.get_time("vec_busy"), Dur::ns(250));
    }

    #[test]
    fn merge_folds() {
        let a = Metrics::new();
        let b = Metrics::new();
        a.add("x", 1);
        b.add("x", 2);
        b.add("y", 3);
        b.add_time("t", Dur::us(1));
        a.merge(&b);
        assert_eq!(a.get("x"), 3);
        assert_eq!(a.get("y"), 3);
        assert_eq!(a.get_time("t"), Dur::us(1));
    }

    #[test]
    fn rollup_sums_children_by_unit_and_metric() {
        let reg = MetricsRegistry::new();
        reg.counter("node/2/link/bytes_sent").add(40);
        reg.counter("node/10/link/bytes_sent").add(2);
        reg.counter("node/10/fault/link_down").inc();
        reg.busy_time("node/3/vec/busy").add(Dur::ns(5));
        reg.busy_time("node/4/vec/busy").add(Dur::ns(7));
        reg.histogram("node/2/router/hops").observe(3);
        reg.counter("job/0/preemptions").inc();
        reg.counter("nodes/1/x").inc();
        let m = reg.rollup("node");
        assert_eq!(
            m.counters(),
            vec![
                ("fault.link_down".to_string(), 1),
                ("link.bytes_sent".to_string(), 42)
            ]
        );
        assert_eq!(m.durations(), vec![("vec.busy".to_string(), Dur::ns(12))]);
    }

    #[test]
    fn natural_order() {
        assert_eq!(natural_cmp("n2.vec", "n10.vec"), Ordering::Less);
        assert_eq!(natural_cmp("node/10/cp", "node/2/cp"), Ordering::Greater);
        assert_eq!(natural_cmp("a", "a"), Ordering::Equal);
        assert_eq!(natural_cmp("a2", "a2b"), Ordering::Less);
        assert_eq!(natural_cmp("n02", "n2"), Ordering::Equal);
        assert_eq!(natural_cmp("alpha", "beta"), Ordering::Less);
    }

    #[test]
    fn registry_handles_share_state() {
        let reg = MetricsRegistry::new();
        let a = reg.counter("node/0/vec/flops");
        let b = reg.counter("node/0/vec/flops");
        a.add(5);
        b.inc();
        assert_eq!(reg.get_counter("node/0/vec/flops"), Some(6));
        let t = reg.busy_time("node/0/vec/busy");
        t.add(Dur::us(3));
        assert_eq!(reg.get_busy("node/0/vec/busy"), Some(Dur::us(3)));
    }

    #[test]
    #[should_panic(expected = "already registered")]
    fn registry_kind_mismatch_panics() {
        let reg = MetricsRegistry::new();
        reg.counter("x");
        reg.busy_time("x");
    }

    #[test]
    fn scopes_prefix_paths() {
        let reg = MetricsRegistry::new();
        let node = reg.scope("node/7");
        node.scope("vec").counter("flops").add(42);
        assert_eq!(reg.get_counter("node/7/vec/flops"), Some(42));
        assert_eq!(node.prefix(), "node/7");
    }

    #[test]
    fn snapshot_in_natural_order() {
        let reg = MetricsRegistry::new();
        reg.counter("node/10/x").inc();
        reg.counter("node/2/x").inc();
        reg.counter("node/2/a").inc();
        let paths: Vec<String> = reg.snapshot().into_iter().map(|(p, _)| p).collect();
        assert_eq!(paths, vec!["node/2/a", "node/2/x", "node/10/x"]);
    }

    #[test]
    fn histogram_buckets() {
        assert_eq!(Histogram::bucket_of(0), 0);
        assert_eq!(Histogram::bucket_of(1), 1);
        assert_eq!(Histogram::bucket_of(2), 2);
        assert_eq!(Histogram::bucket_of(3), 2);
        assert_eq!(Histogram::bucket_of(4), 3);
        assert_eq!(Histogram::bucket_of(u64::MAX), 64);
        let h = Histogram::new();
        for v in [0, 1, 2, 3, 1024] {
            h.observe(v);
        }
        assert_eq!(h.total(), 5);
        let c = h.counts();
        assert_eq!(c[0], 1);
        assert_eq!(c[1], 1);
        assert_eq!(c[2], 2);
        assert_eq!(c[11], 1);
        assert!((h.mean() - 206.0).abs() < 1e-9);
    }

    #[test]
    fn histogram_quantiles() {
        let h = Histogram::new();
        for _ in 0..99 {
            h.observe(10); // bucket 4, range [8, 16)
        }
        h.observe(1 << 20);
        assert_eq!(h.quantile_bound(0.5), 16);
        assert_eq!(h.quantile_bound(1.0), 1 << 21);
        assert_eq!(Histogram::new().quantile_bound(0.5), 0);
    }

    #[test]
    fn quantile_interpolates_within_the_bucket() {
        let h = Histogram::new();
        for _ in 0..100 {
            h.observe(10); // bucket 4, range [8, 16)
        }
        // All mass in one bucket: p50 sits at rank 50 of 100, i.e. half
        // way through [8, 16) under the uniform assumption.
        assert_eq!(h.quantile(0.5), 12);
        assert_eq!(h.quantile(1.0), 16);
        // Point estimate never exceeds the bound.
        for q in [0.1, 0.5, 0.9, 0.99] {
            assert!(h.quantile(q) <= h.quantile_bound(q));
        }
        // Exact buckets (0 and 1) interpolate to their single value.
        let z = Histogram::new();
        z.observe(0);
        z.observe(1);
        assert_eq!(z.quantile(0.5), 1); // rank 1 is the 0 sample → hi of [0,1)
        assert_eq!(z.quantile(1.0), 2);
        assert_eq!(Histogram::new().quantile(0.99), 0);
    }

    #[test]
    fn quantile_spreads_across_buckets() {
        let h = Histogram::new();
        for v in 1..=1000u64 {
            h.observe(v);
        }
        // p50 of 1..=1000 is ~500; the log₂ estimate lands in [256,512)
        // or [512,1024) depending on rounding — either way within 2× of
        // the true median, which is the histogram's resolution promise.
        let p50 = h.quantile(0.5);
        assert!((250..=1024).contains(&p50), "p50 estimate {p50}");
        let p99 = h.quantile(0.99);
        assert!(p99 >= h.quantile(0.5));
        assert!(p99 <= h.quantile_bound(0.99));
    }
}
