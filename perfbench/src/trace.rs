//! In-memory span recorder for traced runs.
//!
//! A span is `(layer, name, request, parent, start, end)`; the spans of
//! one operation share a request id. Spans stay in memory and are written
//! as NDJSON when the run ends. A layer's self time is its spans'
//! durations minus the time their child spans cover. A disabled tracer
//! records nothing, which is how the same code path is timed with
//! tracing off.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

struct Span {
    layer: &'static str,
    name: &'static str,
    request: u64,
    parent: Option<usize>,
    start_ns: u64,
    end_ns: u64,
}

pub struct Tracer {
    on: bool,
    origin: Instant,
    spans: RefCell<Vec<Span>>,
    open: RefCell<Vec<usize>>,
}

/// An entered span; hand it back to [`Tracer::exit`].
pub struct Entered(Option<usize>);

impl Tracer {
    pub fn new(on: bool) -> Tracer {
        Tracer {
            on,
            origin: Instant::now(),
            spans: RefCell::new(Vec::new()),
            open: RefCell::new(Vec::new()),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    pub fn enter(&self, layer: &'static str, name: &'static str, request: u64) -> Entered {
        if !self.on {
            return Entered(None);
        }
        let mut spans = self.spans.borrow_mut();
        let mut open = self.open.borrow_mut();
        let index = spans.len();
        spans.push(Span {
            layer,
            name,
            request,
            parent: open.last().copied(),
            start_ns: self.now_ns(),
            end_ns: 0,
        });
        open.push(index);
        Entered(Some(index))
    }

    pub fn exit(&self, entered: Entered) {
        let Some(index) = entered.0 else { return };
        let end = self.now_ns();
        self.spans.borrow_mut()[index].end_ns = end;
        let popped = self.open.borrow_mut().pop();
        debug_assert_eq!(popped, Some(index), "spans must nest");
    }

    /// Runs `f` inside a leaf span.
    pub fn time<T>(
        &self,
        layer: &'static str,
        name: &'static str,
        request: u64,
        f: impl FnOnce() -> T,
    ) -> T {
        let entered = self.enter(layer, name, request);
        let out = f();
        self.exit(entered);
        out
    }

    /// Self time per layer, in ms.
    pub fn self_ms(&self) -> BTreeMap<&'static str, f64> {
        self.self_ms_of(|_| true)
    }

    /// Self time per layer, in ms, of the spans whose request `keep`
    /// accepts.
    pub fn self_ms_of(&self, keep: impl Fn(u64) -> bool) -> BTreeMap<&'static str, f64> {
        let spans = self.spans.borrow();
        let mut covered = vec![0u64; spans.len()];
        for span in spans.iter() {
            if let Some(parent) = span.parent {
                covered[parent] += span.end_ns - span.start_ns;
            }
        }
        let mut out = BTreeMap::new();
        for (span, child) in spans.iter().zip(&covered) {
            if !keep(span.request) {
                continue;
            }
            let own = (span.end_ns - span.start_ns).saturating_sub(*child);
            *out.entry(span.layer).or_insert(0.0) += own as f64 / 1e6;
        }
        out
    }

    /// Durations (µs) of every span called `layer.name`.
    pub fn durations_us(&self, layer: &str, name: &str) -> Vec<f64> {
        self.spans
            .borrow()
            .iter()
            .filter(|s| s.layer == layer && s.name == name)
            .map(|s| (s.end_ns - s.start_ns) as f64 / 1e3)
            .collect()
    }

    /// Appends every span to `path` as one NDJSON line tagged `probe`.
    pub fn append_ndjson(&self, path: &Path, probe: &str) -> std::io::Result<()> {
        let mut out = String::new();
        for (i, s) in self.spans.borrow().iter().enumerate() {
            let parent = s.parent.map_or("null".to_owned(), |p| p.to_string());
            out.push_str(&format!(
                "{{\"probe\":\"{probe}\",\"span\":{i},\"parent\":{parent},\"layer\":\"{}\",\
                 \"name\":\"{}\",\"request\":{},\"start_ns\":{},\"end_ns\":{}}}\n",
                s.layer, s.name, s.request, s.start_ns, s.end_ns
            ));
        }
        let mut file = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(path)?;
        file.write_all(out.as_bytes())
    }
}
