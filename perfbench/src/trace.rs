//! In-memory span tree and telemetry sink for the traced run.
//!
//! The benchmark opens its own spans around each call into a layer
//! ([`Trace::span`]); the program's own spans (`plan.net.solve_ns`,
//! `search.<stage>.solve_ns`) and counters arrive through the public
//! `Telemetry` trait. A program span reports only its duration, and the
//! planner replays a net's spans when the net commits, so its start is
//! taken as arrival time minus duration. Parents come from structure,
//! not clocks: a program span adopts the finished lower-rank spans of
//! the enclosing benchmark span (a `plan.net` span adopts the searches
//! of its net), and a benchmark span adopts everything that finished
//! inside it. Self time is a span's duration minus its children's, so
//! the self times of a tree add up to its root exactly.

use clockroute_core::telemetry::Value;
use clockroute_core::Telemetry;
use std::collections::BTreeMap;
use std::io::Write;
use std::sync::Mutex;
use std::time::Instant;

#[derive(Debug, Clone)]
pub struct Span {
    pub name: String,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub request: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

#[derive(Debug, Default)]
struct Inner {
    spans: Vec<Span>,
    /// One frame per open benchmark span: the finished spans inside it
    /// that have no parent yet.
    frames: Vec<(usize, Vec<usize>)>,
    request: u64,
    counters: BTreeMap<String, u64>,
    gauges: BTreeMap<String, u64>,
}

/// The traced run's recorder. `Sync`, so it can be handed to the
/// planner as a shared telemetry sink.
#[derive(Debug)]
pub struct Trace {
    epoch: Instant,
    inner: Mutex<Inner>,
}

/// Nesting rank of a program span — a program span adopts finished
/// spans of lower rank only. `None` for benchmark spans, which no
/// program span adopts.
fn rank(name: &str) -> Option<u8> {
    if name.starts_with("search.") {
        Some(0)
    } else if name.starts_with("plan.net") {
        Some(1)
    } else {
        None
    }
}

impl Trace {
    pub fn new() -> Trace {
        Trace {
            epoch: Instant::now(),
            inner: Mutex::new(Inner::default()),
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Inner> {
        self.inner
            .lock()
            .expect("trace lock poisoned by a panicking recorder")
    }

    /// Sets the request id carried by spans opened from now on.
    pub fn set_request(&self, request: u64) {
        self.lock().request = request;
    }

    /// Runs `f` inside a benchmark span named after its layer.
    pub fn span<T>(&self, name: &str, f: impl FnOnce() -> T) -> T {
        let start_ns = self.now_ns();
        {
            let mut inner = self.lock();
            let request = inner.request;
            inner.spans.push(Span {
                name: name.to_owned(),
                start_ns,
                end_ns: start_ns,
                parent: None,
                request,
            });
            let id = inner.spans.len() - 1;
            inner.frames.push((id, Vec::new()));
        }
        let out = f();
        let end_ns = self.now_ns();
        let mut inner = self.lock();
        let (id, children) = inner.frames.pop().expect("span frame pushed above");
        inner.spans[id].end_ns = end_ns;
        for child in children {
            inner.spans[child].parent = Some(id);
        }
        if let Some((_, orphans)) = inner.frames.last_mut() {
            orphans.push(id);
        }
        out
    }

    /// Sum of counter `name` (0 if never emitted).
    pub fn counter(&self, name: &str) -> u64 {
        self.lock().counters.get(name).copied().unwrap_or(0)
    }

    /// Value of gauge `name` (0 if never emitted).
    pub fn gauge(&self, name: &str) -> u64 {
        self.lock().gauges.get(name).copied().unwrap_or(0)
    }

    /// A copy of every recorded span.
    pub fn spans(&self) -> Vec<Span> {
        self.lock().spans.clone()
    }

    /// Writes every span as one JSON line: name, start, end, parent,
    /// request.
    pub fn write_jsonl(&self, path: &std::path::Path) -> std::io::Result<()> {
        let inner = self.lock();
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (i, s) in inner.spans.iter().enumerate() {
            let parent = s
                .parent
                .map_or_else(|| "null".to_owned(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{i},\"name\":{},\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"request\":{}}}",
                clockroute_core::telemetry::json_string(&s.name),
                s.start_ns,
                s.end_ns,
                s.request
            )?;
        }
        out.flush()
    }
}

impl Telemetry for Trace {
    fn counter(&self, name: &str, delta: u64) {
        *self.lock().counters.entry(name.to_owned()).or_insert(0) += delta;
    }

    fn gauge_max(&self, name: &str, value: u64) {
        let mut inner = self.lock();
        let g = inner.gauges.entry(name.to_owned()).or_insert(0);
        *g = (*g).max(value);
    }

    fn gauge_set(&self, name: &str, value: u64) {
        self.lock().gauges.insert(name.to_owned(), value);
    }

    fn span_ns(&self, name: &str, nanos: u64) {
        let end_ns = self.now_ns();
        let mut inner = self.lock();
        let request = inner.request;
        inner.spans.push(Span {
            name: name.to_owned(),
            start_ns: end_ns.saturating_sub(nanos),
            end_ns,
            parent: None,
            request,
        });
        let id = inner.spans.len() - 1;
        let r = rank(name);
        let Inner { spans, frames, .. } = &mut *inner;
        let Some((_, orphans)) = frames.last_mut() else {
            return;
        };
        orphans.retain(|&o| {
            let adopt = matches!((rank(&spans[o].name), r), (Some(a), Some(b)) if a < b);
            if adopt {
                spans[o].parent = Some(id);
            }
            !adopt
        });
        orphans.push(id);
    }

    fn event(&self, _name: &str, _fields: &[(&str, Value<'_>)]) {}
}

/// The layer a span's self time is charged to.
pub fn layer_of(name: &str) -> String {
    if let Some(stage) = name
        .strip_prefix("search.")
        .and_then(|s| s.strip_suffix(".solve_ns"))
    {
        format!("core.{stage}")
    } else if name == "plan.net.solve_ns" {
        "plan".to_owned()
    } else {
        name.to_owned()
    }
}

/// Self time per layer, in nanoseconds: each span's duration minus its
/// children's. Rows add up to the summed duration of the root spans.
pub fn self_times(spans: &[Span]) -> BTreeMap<String, i64> {
    let mut child_ns = vec![0u64; spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            child_ns[p] += s.dur_ns();
        }
    }
    let mut layers: BTreeMap<String, i64> = BTreeMap::new();
    for (i, s) in spans.iter().enumerate() {
        *layers.entry(layer_of(&s.name)).or_insert(0) += s.dur_ns() as i64 - child_ns[i] as i64;
    }
    layers
}

/// Summed duration of the root spans.
pub fn root_ns(spans: &[Span]) -> u64 {
    spans
        .iter()
        .filter(|s| s.parent.is_none())
        .map(Span::dur_ns)
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn program_spans_nest_under_benchmark_spans_and_self_times_add_up() {
        let t = Trace::new();
        // A program span reports only its duration; let the clock run
        // past the longest one below, so none would start before the
        // trace's epoch.
        std::thread::sleep(std::time::Duration::from_millis(1));
        t.span("plan", || {
            t.span_ns("search.rbp.solve_ns", 1_000);
            t.span_ns("plan.net.solve_ns", 3_000);
            t.span_ns("search.gals.solve_ns", 2_000);
            t.span_ns("plan.net.solve_ns", 2_500);
        });
        t.span("cli.report", || {});
        let spans = t.spans();
        let plan = spans
            .iter()
            .position(|s| s.name == "plan")
            .expect("plan span");
        let nets: Vec<usize> = (0..spans.len())
            .filter(|&i| spans[i].name == "plan.net.solve_ns")
            .collect();
        assert!(nets.iter().all(|&n| spans[n].parent == Some(plan)));
        let find = |name: &str| spans.iter().position(|s| s.name == name).expect("span");
        assert_eq!(spans[find("search.rbp.solve_ns")].parent, Some(nets[0]));
        assert_eq!(spans[find("search.gals.solve_ns")].parent, Some(nets[1]));
        let table = self_times(&spans);
        assert_eq!(table["core.rbp"], 1_000);
        assert_eq!(table["core.gals"], 2_000);
        assert_eq!(table["plan"] - (spans[plan].dur_ns() as i64 - 5_500), 2_500);
        let total: i64 = table.values().sum();
        assert_eq!(total, root_ns(&spans) as i64);
    }
}
