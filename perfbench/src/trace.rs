//! In-memory spans around each call the benchmark makes into a layer.
//!
//! A span has a name, a start, an end, the span that caused it and the id
//! of the request (frame or operation) it served. Spans nest: a span's
//! self time is its duration minus the time its child spans cover. The
//! tracer keeps per-name totals for every span and the first
//! [`Tracer::KEEP`] spans themselves, which [`write_spans`] writes out as
//! JSON lines when the run ends.

use std::fmt::Write as _;
use std::io::Write as _;
use std::path::Path;
use std::time::Instant;

/// One finished span.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// Layer call the span timed.
    pub name: &'static str,
    /// Nanoseconds from the tracer's origin to the call.
    pub start_ns: u64,
    /// Nanoseconds from the tracer's origin to the return.
    pub end_ns: u64,
    /// The enclosing span's index in the kept spans, if kept.
    pub parent: Option<usize>,
    /// The request (frame or operation) the span served.
    pub request: u64,
}

/// Totals over every span of one name.
#[derive(Debug, Default, Clone, Copy, PartialEq)]
pub struct Totals {
    /// Spans recorded.
    pub calls: u64,
    /// Summed duration.
    pub total_ns: u64,
    /// Summed duration minus the time covered by child spans.
    pub self_ns: u64,
}

impl Totals {
    /// Mean self time per call in nanoseconds; 0 without calls.
    pub fn mean_self_ns(&self) -> f64 {
        if self.calls == 0 {
            0.0
        } else {
            self.self_ns as f64 / self.calls as f64
        }
    }
}

struct Open {
    name: &'static str,
    start: Instant,
    kept: Option<usize>,
    request: u64,
    child_ns: u64,
}

/// A per-thread span recorder.
pub struct Tracer {
    origin: Instant,
    open: Vec<Open>,
    kept: Vec<Span>,
    totals: Vec<(&'static str, Totals)>,
}

impl Tracer {
    /// How many spans a tracer keeps for the written trace.
    pub const KEEP: usize = 5_000;

    /// A tracer whose span times count from `origin`.
    pub fn new(origin: Instant) -> Self {
        Tracer { origin, open: Vec::new(), kept: Vec::new(), totals: Vec::new() }
    }

    /// Opens a span; it closes at the matching [`Tracer::end`].
    #[inline]
    pub fn begin(&mut self, name: &'static str, request: u64) {
        let kept = if self.kept.len() < Self::KEEP {
            let parent = self.open.last().and_then(|o| o.kept);
            self.kept.push(Span { name, start_ns: 0, end_ns: 0, parent, request });
            Some(self.kept.len() - 1)
        } else {
            None
        };
        self.open.push(Open { name, start: Instant::now(), kept, request, child_ns: 0 });
    }

    /// Closes the innermost open span.
    ///
    /// # Panics
    ///
    /// If no span is open (unbalanced instrumentation is a benchmark bug).
    #[inline]
    pub fn end(&mut self) {
        let end = Instant::now();
        let open = self.open.pop().expect("Tracer::end without a matching begin");
        let dur = end.duration_since(open.start).as_nanos() as u64;
        if let Some(parent) = self.open.last_mut() {
            parent.child_ns += dur;
        }
        if let Some(i) = open.kept {
            let since = |t: Instant| t.duration_since(self.origin).as_nanos() as u64;
            self.kept[i].start_ns = since(open.start);
            self.kept[i].end_ns = since(end);
            self.kept[i].request = open.request;
        }
        let totals = self.totals_mut(open.name);
        totals.calls += 1;
        totals.total_ns += dur;
        totals.self_ns += dur.saturating_sub(open.child_ns);
    }

    /// Times `f` as one span.
    #[inline]
    pub fn span<R>(&mut self, name: &'static str, request: u64, f: impl FnOnce() -> R) -> R {
        self.begin(name, request);
        let r = f();
        self.end();
        r
    }

    fn totals_mut(&mut self, name: &'static str) -> &mut Totals {
        let i = match self.totals.iter().position(|(n, _)| *n == name) {
            Some(i) => i,
            None => {
                self.totals.push((name, Totals::default()));
                self.totals.len() - 1
            }
        };
        &mut self.totals[i].1
    }

    /// Totals for `name` (zero when no such span closed).
    pub fn totals(&self, name: &str) -> Totals {
        self.totals.iter().find(|(n, _)| *n == name).map(|(_, t)| *t).unwrap_or_default()
    }

    /// Spans closed so far, kept or not.
    pub fn span_count(&self) -> u64 {
        self.totals.iter().map(|(_, t)| t.calls).sum()
    }

    /// Folds another thread's tracer in: totals add up, kept spans append
    /// (their parent indices shifted to stay valid).
    pub fn merge(&mut self, other: Tracer) {
        for (name, t) in other.totals {
            let mine = self.totals_mut(name);
            mine.calls += t.calls;
            mine.total_ns += t.total_ns;
            mine.self_ns += t.self_ns;
        }
        let base = self.kept.len();
        self.kept.extend(
            other.kept.into_iter().map(|s| Span { parent: s.parent.map(|p| p + base), ..s }),
        );
    }

    /// The kept spans.
    pub fn spans(&self) -> &[Span] {
        &self.kept
    }
}

/// Writes `spans` as JSON lines to `path`, creating its directory.
///
/// # Errors
///
/// Any I/O error.
pub fn write_spans(path: &Path, spans: &[Span]) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = String::with_capacity(spans.len() * 96);
    for s in spans {
        let parent = s.parent.map_or_else(|| "null".to_string(), |p| p.to_string());
        let _ = writeln!(
            out,
            "{{\"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \"parent\": {parent}, \"request\": {}}}",
            s.name, s.start_ns, s.end_ns, s.request
        );
    }
    let mut file = std::fs::File::create(path)?;
    file.write_all(out.as_bytes())?;
    file.flush()
}

/// Cost of one `Instant::now()` pair on this machine, in nanoseconds: the
/// floor under every span duration.
pub fn timer_pair_ns() -> f64 {
    const N: u32 = 200_000;
    let start = Instant::now();
    let mut acc = 0u128;
    for _ in 0..N {
        let a = Instant::now();
        acc += std::hint::black_box(a).elapsed().as_nanos();
    }
    std::hint::black_box(acc);
    start.elapsed().as_nanos() as f64 / f64::from(N)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spin(ns: u64) {
        let t = Instant::now();
        while (t.elapsed().as_nanos() as u64) < ns {}
    }

    #[test]
    fn self_time_excludes_children() {
        let mut t = Tracer::new(Instant::now());
        t.begin("frame", 7);
        t.span("child", 7, || spin(200_000));
        spin(100_000);
        t.end();
        let frame = t.totals("frame");
        let child = t.totals("child");
        assert_eq!((frame.calls, child.calls), (1, 1));
        assert!(frame.total_ns >= child.total_ns + 100_000);
        assert_eq!(frame.self_ns, frame.total_ns - child.total_ns);
        assert_eq!(child.self_ns, child.total_ns);
        let spans = t.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[0].parent, None);
        assert!(spans[0].start_ns <= spans[1].start_ns && spans[1].end_ns <= spans[0].end_ns);
        assert_eq!(spans[1].request, 7);
    }

    #[test]
    fn merge_adds_totals_and_shifts_parents() {
        let origin = Instant::now();
        let mut a = Tracer::new(origin);
        a.span("op", 1, || ());
        let mut b = Tracer::new(origin);
        b.begin("outer", 2);
        b.span("op", 2, || ());
        b.end();
        a.merge(b);
        assert_eq!(a.totals("op").calls, 2);
        assert_eq!(a.span_count(), 3);
        assert_eq!(a.spans()[2].parent, Some(1));
    }

    #[test]
    fn spans_write_as_json_lines() {
        let mut t = Tracer::new(Instant::now());
        t.span("op", 3, || ());
        let path = Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("traces")
            .join(format!("unit-test-{}.jsonl", std::process::id()));
        write_spans(&path, t.spans()).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        std::fs::remove_file(&path).unwrap();
        assert!(text.starts_with("{\"name\": \"op\", \"start_ns\": "));
        assert!(text.contains("\"parent\": null, \"request\": 3}"));
    }
}
