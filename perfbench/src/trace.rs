//! In-memory span recorder for the traced run.
//!
//! Spans are recorded by the benchmark around its calls into each layer
//! (the library's own `semrec-obs` spans are not read). Each span has a
//! name, start and end relative to the run's origin, a parent span id
//! (0 for a root) and a request id shared by the spans of one operation.
//! An untraced run still times the same regions with the same clock but
//! keeps no spans.

use std::collections::HashMap;
use std::io::Write as _;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// One completed span.
#[derive(Clone, Debug)]
pub struct Span {
    /// Unique id within the run (never 0).
    pub id: u64,
    /// Id of the enclosing span, 0 for a root.
    pub parent: u64,
    /// Operation this span belongs to.
    pub request: u64,
    /// Layer-qualified span name, e.g. `trust.neighborhood`.
    pub name: &'static str,
    /// Start, in nanoseconds since the run's origin.
    pub start_ns: u64,
    /// End, in nanoseconds since the run's origin.
    pub end_ns: u64,
}

impl Span {
    fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Records spans when enabled; times regions either way.
pub struct Tracer {
    origin: Instant,
    enabled: bool,
    next_id: AtomicU64,
    next_request: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    /// A tracer whose origin is now.
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            origin: Instant::now(),
            enabled,
            next_id: AtomicU64::new(1),
            next_request: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
        }
    }

    /// Whether spans are kept.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// A fresh request id for the spans of one operation.
    pub fn request(&self) -> u64 {
        self.next_request.fetch_add(1, Ordering::Relaxed)
    }

    /// Runs `f` inside a span named `name`, handing it the new span's id
    /// (the parent for spans nested inside). Returns `f`'s result and the
    /// span's wall time in milliseconds.
    pub fn span<T>(
        &self,
        name: &'static str,
        parent: u64,
        request: u64,
        f: impl FnOnce(u64) -> T,
    ) -> (T, f64) {
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let start = Instant::now();
        let out = f(id);
        let end = Instant::now();
        self.push(id, name, parent, request, start, end);
        (out, (end - start).as_secs_f64() * 1e3)
    }

    /// Records a root span timed elsewhere (e.g. a request from its
    /// scheduled send to its answer).
    pub fn record(&self, name: &'static str, request: u64, start: Instant, end: Instant) {
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        self.push(id, name, 0, request, start, end);
    }

    fn push(
        &self,
        id: u64,
        name: &'static str,
        parent: u64,
        request: u64,
        start: Instant,
        end: Instant,
    ) {
        if !self.enabled {
            return;
        }
        let ns = |t: Instant| t.saturating_duration_since(self.origin).as_nanos() as u64;
        let span = Span {
            id,
            parent,
            request,
            name,
            start_ns: ns(start),
            end_ns: ns(end),
        };
        self.spans
            .lock()
            .expect("span list poisoned by a panicking thread")
            .push(span);
    }

    /// Every recorded span, in start order.
    pub fn spans(&self) -> Vec<Span> {
        let mut spans = self
            .spans
            .lock()
            .expect("span list poisoned by a panicking thread")
            .clone();
        spans.sort_by_key(|s| (s.start_ns, s.id));
        spans
    }

    /// Self time in milliseconds of every span named `name`: its duration
    /// minus the part its child spans cover. Children of one span never
    /// overlap (the benchmark nests only sequential calls), so the covered
    /// part is the sum of the children's durations.
    pub fn self_ms(&self, name: &str) -> Vec<f64> {
        let spans = self.spans();
        let mut covered: HashMap<u64, u64> = HashMap::new();
        for span in &spans {
            if span.parent != 0 {
                *covered.entry(span.parent).or_default() += span.duration_ns();
            }
        }
        spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| {
                let own = s
                    .duration_ns()
                    .saturating_sub(covered.get(&s.id).copied().unwrap_or(0));
                own as f64 / 1e6
            })
            .collect()
    }

    /// Distinct span names recorded so far.
    pub fn names(&self) -> Vec<&'static str> {
        let mut names: Vec<_> = self.spans().iter().map(|s| s.name).collect();
        names.sort_unstable();
        names.dedup();
        names
    }

    /// Writes every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in self.spans() {
            writeln!(
                out,
                "{{\"id\":{},\"parent\":{},\"request\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
                s.id, s.parent, s.request, s.name, s.start_ns, s.end_ns
            )?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children() {
        let tracer = Tracer::new(true);
        tracer.span("outer", 0, 1, |outer| {
            tracer.span("inner", outer, 1, |_| {
                std::thread::sleep(std::time::Duration::from_millis(5))
            });
        });
        let outer = tracer.self_ms("outer")[0];
        let inner = tracer.self_ms("inner")[0];
        assert!(inner >= 5.0);
        assert!(
            outer < inner,
            "outer self time excludes the child: {outer} vs {inner}"
        );
        assert_eq!(tracer.names(), vec!["inner", "outer"]);
    }

    #[test]
    fn disabled_tracer_keeps_nothing() {
        let tracer = Tracer::new(false);
        let (value, ms) = tracer.span("x", 0, 0, |_| 7);
        assert_eq!(value, 7);
        assert!(ms >= 0.0);
        assert!(tracer.spans().is_empty());
    }
}
