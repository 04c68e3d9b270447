//! Host-time probe around the benchmark's calls into each layer.
//!
//! Every call the benchmark makes into the program goes through
//! [`Probe::setup`], [`Probe::run`] or [`Probe::span`]. The probe always
//! sums host time per call name (that is where `setup_s`, `run_s` and the
//! per-layer `*_s` timings come from). With recording on it also keeps
//! one span per call — name, start, end, parent — in memory, for the
//! Chrome trace-event file and the per-layer self times.

use std::cell::{Cell, RefCell};
use std::collections::BTreeMap;
use std::time::Instant;

use crate::metrics::Values;

/// One recorded call. Times are nanoseconds since the process epoch.
#[derive(Clone, Debug)]
pub struct SpanRec {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span in the same list.
    pub parent: Option<usize>,
}

pub struct Probe {
    epoch: Instant,
    record: bool,
    spans: RefCell<Vec<SpanRec>>,
    open: RefCell<Vec<usize>>,
    host: RefCell<Values>,
    calls: RefCell<BTreeMap<&'static str, u32>>,
    setup_s: Cell<f64>,
    run_s: Cell<f64>,
}

impl Probe {
    /// A probe timing against `epoch`; `record` keeps the spans.
    pub fn new(epoch: Instant, record: bool) -> Probe {
        Probe {
            epoch,
            record,
            spans: RefCell::new(Vec::new()),
            open: RefCell::new(Vec::new()),
            host: RefCell::new(Values::new()),
            calls: RefCell::new(BTreeMap::new()),
            setup_s: Cell::new(0.0),
            run_s: Cell::new(0.0),
        }
    }

    /// A set-up call: its host time counts towards `setup_s`.
    pub fn setup<T>(&self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let (out, s) = self.timed(name, f);
        self.setup_s.set(self.setup_s.get() + s);
        out
    }

    /// A workload call: its host time counts towards `run_s`.
    pub fn run<T>(&self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let (out, s) = self.timed(name, f);
        self.run_s.set(self.run_s.get() + s);
        out
    }

    /// Any other call (verification, calibration, enclosing scopes).
    pub fn span<T>(&self, name: &'static str, f: impl FnOnce() -> T) -> T {
        self.timed(name, f).0
    }

    fn timed<T>(&self, name: &'static str, f: impl FnOnce() -> T) -> (T, f64) {
        let idx = self.record.then(|| {
            let mut spans = self.spans.borrow_mut();
            spans.push(SpanRec {
                name,
                start_ns: self.now_ns(),
                end_ns: 0,
                parent: self.open.borrow().last().copied(),
            });
            let idx = spans.len() - 1;
            self.open.borrow_mut().push(idx);
            idx
        });
        let t = Instant::now();
        let out = f();
        let s = t.elapsed().as_secs_f64();
        if let Some(idx) = idx {
            self.open.borrow_mut().pop();
            self.spans.borrow_mut()[idx].end_ns = self.now_ns();
        }
        *self.host.borrow_mut().entry(name).or_insert(0.0) += s;
        *self.calls.borrow_mut().entry(name).or_insert(0) += 1;
        (out, s)
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    pub fn setup_s(&self) -> f64 {
        self.setup_s.get()
    }

    pub fn run_s(&self) -> f64 {
        self.run_s.get()
    }

    /// Host seconds of one call name, summed over its calls (0 if never
    /// called).
    pub fn host_s(&self, name: &str) -> f64 {
        self.host.borrow().get(name).copied().unwrap_or(0.0)
    }

    /// Mean host seconds per call of every call name.
    pub fn host_means(&self) -> Vec<(&'static str, f64)> {
        let calls = self.calls.borrow();
        self.host
            .borrow()
            .iter()
            .map(|(&k, &s)| (k, s / calls[k] as f64))
            .collect()
    }

    pub fn take_spans(&self) -> Vec<SpanRec> {
        std::mem::take(&mut *self.spans.borrow_mut())
    }
}

/// The layer a span belongs to: its name up to the first `.`.
pub fn layer_of(name: &str) -> &str {
    name.split('.').next().unwrap_or(name)
}

/// Self time per layer, in seconds: each span's duration minus the part
/// its direct children cover, summed by layer.
pub fn self_times(spans: &[SpanRec]) -> BTreeMap<String, f64> {
    let mut child_ns = vec![0u64; spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            child_ns[p] += s.end_ns - s.start_ns;
        }
    }
    let mut out = BTreeMap::new();
    for (s, c) in spans.iter().zip(child_ns) {
        let own = (s.end_ns - s.start_ns).saturating_sub(c);
        *out.entry(layer_of(s.name).to_string()).or_insert(0.0) += own as f64 * 1e-9;
    }
    out
}

/// The spans as Chrome trace-event JSON (complete `X` events, one track),
/// loadable in Perfetto or `chrome://tracing`.
pub fn chrome_json(spans: &[SpanRec], process: &str) -> String {
    let mut s = String::from("{\"displayTimeUnit\": \"ms\", \"traceEvents\": [\n");
    s.push_str(&format!(
        "{{\"name\": \"process_name\", \"ph\": \"M\", \"pid\": 1, \"tid\": 1, \
         \"args\": {{\"name\": \"{process}\"}}}}"
    ));
    for (i, sp) in spans.iter().enumerate() {
        let parent = sp.parent.map_or(-1, |p| p as i64);
        s.push_str(&format!(
            ",\n{{\"name\": \"{}\", \"cat\": \"{}\", \"ph\": \"X\", \"pid\": 1, \"tid\": 1, \
             \"ts\": {:.3}, \"dur\": {:.3}, \"args\": {{\"id\": {i}, \"parent\": {parent}}}}}",
            sp.name,
            layer_of(sp.name),
            sp.start_ns as f64 / 1e3,
            (sp.end_ns - sp.start_ns) as f64 / 1e3,
        ));
    }
    s.push_str("\n]}\n");
    s
}
