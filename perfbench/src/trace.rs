//! In-memory spans recorded around the benchmark's calls into each layer.
//!
//! Each client thread owns a [`Tracer`]; a disabled tracer records nothing
//! and costs one branch per call. Spans nest by a per-thread stack, so a
//! span's parent is whatever span was open when it began, and every span
//! carries the id of the user operation (its root span) it belongs to.
//! [`write_jsonl`] dumps all spans once the run is over.

use std::collections::{BTreeMap, BTreeSet};
use std::io::Write;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

/// Operation ids, unique across every tracer of the process.
static NEXT_OP: AtomicU64 = AtomicU64::new(0);

/// One closed span. Times are nanoseconds since the tracer's epoch.
#[derive(Clone, Debug)]
pub struct Span {
    pub thread: usize,
    pub op: u64,
    pub parent: Option<usize>,
    pub layer: &'static str,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn dur_ms(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e6
    }
}

/// Handle of an open span (an index into the tracer's span list).
#[derive(Clone, Copy)]
pub struct Open(Option<usize>);

pub struct Tracer {
    on: bool,
    thread: usize,
    epoch: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
}

impl Tracer {
    pub fn new(on: bool, thread: usize, epoch: Instant) -> Tracer {
        Tracer {
            on,
            thread,
            epoch,
            spans: Vec::new(),
            stack: Vec::new(),
        }
    }

    pub fn open(&mut self, layer: &'static str, name: &'static str) -> Open {
        if !self.on {
            return Open(None);
        }
        let parent = self.stack.last().copied();
        let op = match parent {
            Some(p) => self.spans[p].op,
            None => NEXT_OP.fetch_add(1, Ordering::Relaxed),
        };
        let now = self.epoch.elapsed().as_nanos() as u64;
        self.spans.push(Span {
            thread: self.thread,
            op,
            parent,
            layer,
            name,
            start_ns: now,
            end_ns: now,
        });
        let idx = self.spans.len() - 1;
        self.stack.push(idx);
        Open(Some(idx))
    }

    pub fn close(&mut self, open: Open) {
        if let Some(idx) = open.0 {
            self.spans[idx].end_ns = self.epoch.elapsed().as_nanos() as u64;
            let top = self.stack.pop();
            debug_assert_eq!(top, Some(idx), "spans close in LIFO order");
        }
    }

    pub fn into_spans(self) -> Vec<Span> {
        self.spans
    }
}

/// Mean duration in ms of the spans called `name` (0 when there are none).
pub fn mean_ms(spans: &[Span], name: &str) -> f64 {
    let d: Vec<f64> = spans
        .iter()
        .filter(|s| s.name == name)
        .map(Span::dur_ms)
        .collect();
    asym_model::stats::mean(&d)
}

/// Move one tracer's spans into a combined list, re-basing parent indices.
pub fn append(into: &mut Vec<Span>, spans: Vec<Span>) {
    let base = into.len();
    into.extend(spans.into_iter().map(|mut s| {
        s.parent = s.parent.map(|p| p + base);
        s
    }));
}

/// Self time per layer, in ms per user operation that reached the layer: a
/// span's duration minus the time its children cover, summed per layer and
/// divided by the number of distinct operations with a span in that layer.
/// `spans` is a list built with [`append`].
pub fn self_ms_per_op(spans: &[Span]) -> BTreeMap<&'static str, f64> {
    let mut child_ns = vec![0u64; spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            child_ns[p] += s.end_ns - s.start_ns;
        }
    }
    let mut self_ns: BTreeMap<&'static str, u64> = BTreeMap::new();
    let mut ops: BTreeMap<&'static str, BTreeSet<u64>> = BTreeMap::new();
    for (s, children) in spans.iter().zip(child_ns) {
        *self_ns.entry(s.layer).or_insert(0) += (s.end_ns - s.start_ns).saturating_sub(children);
        ops.entry(s.layer).or_default().insert(s.op);
    }
    self_ns
        .into_iter()
        .map(|(layer, ns)| (layer, ns as f64 / 1e6 / ops[layer].len() as f64))
        .collect()
}

/// Write every span as one JSON line.
pub fn write_jsonl(path: &Path, spans: &[Span]) -> std::io::Result<()> {
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    for s in spans {
        writeln!(
            out,
            "{{\"thread\": {}, \"op\": {}, \"parent\": {}, \"layer\": \"{}\", \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}}}",
            s.thread,
            s.op,
            s.parent.map_or("null".to_string(), |p| p.to_string()),
            s.layer,
            s.name,
            s.start_ns,
            s.end_ns
        )?;
    }
    out.flush()
}
