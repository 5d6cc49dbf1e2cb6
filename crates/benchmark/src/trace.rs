//! Spans recorded from the benchmark's own code around each call into a
//! layer of the program.
//!
//! A span is a name, a start and end (nanoseconds since the tracer was
//! created), the span that caused it, the run it belongs to and the
//! thread it ran on. Spans stay in memory until the run ends and are
//! then written out as `spans.json`.
//!
//! A span's *self time* is its duration minus the part of that interval
//! its children cover. Children may run on other threads and overlap
//! each other, so "covered" is the union of their intervals clipped to
//! the parent. The closure check in [`closure_gap`] asks the same of the
//! layer spans alone: the share of the root's wall time during which no
//! span of a declared layer was open on any thread is time the run spent
//! outside every layer it reports.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

use govscan_serve::json::Json;

/// Index of a span in its tracer.
pub type SpanId = usize;

/// One recorded span.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<SpanId>,
    pub run: u32,
    pub thread: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Collects spans from any number of threads.
pub struct Tracer {
    epoch: Instant,
    run: u32,
    spans: Mutex<Vec<Span>>,
}

/// Small, stable per-thread numbers for the spans file (the std
/// `ThreadId` has no stable integer form).
fn thread_number() -> u64 {
    static NEXT: AtomicU64 = AtomicU64::new(0);
    thread_local! {
        static ID: u64 = NEXT.fetch_add(1, Ordering::Relaxed);
    }
    ID.with(|id| *id)
}

impl Tracer {
    /// A tracer whose spans carry this process's id as their run id:
    /// every workload run is a process of its own.
    pub fn new() -> Tracer {
        Tracer {
            epoch: Instant::now(),
            run: std::process::id(),
            spans: Mutex::new(Vec::new()),
        }
    }

    /// Nanoseconds since the tracer was created.
    pub fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Open a span now; close it with [`Tracer::close`].
    pub fn open(&self, name: &'static str, parent: Option<SpanId>) -> SpanId {
        let start = self.now();
        self.push(name, parent, start, start)
    }

    /// Close a span opened with [`Tracer::open`].
    pub fn close(&self, id: SpanId) {
        let end = self.now();
        self.spans.lock().expect("span list lock")[id].end_ns = end;
    }

    /// Record a span whose interval is already known.
    pub fn record(
        &self,
        name: &'static str,
        parent: Option<SpanId>,
        start_ns: u64,
        end_ns: u64,
    ) -> SpanId {
        self.push(name, parent, start_ns, end_ns)
    }

    /// Run `f` inside a span.
    pub fn time<R>(&self, name: &'static str, parent: Option<SpanId>, f: impl FnOnce() -> R) -> R {
        self.time_in(name, parent, |_| f())
    }

    /// Run `f` inside a span, handing it the span's id so it can parent
    /// spans of its own.
    pub fn time_in<R>(
        &self,
        name: &'static str,
        parent: Option<SpanId>,
        f: impl FnOnce(SpanId) -> R,
    ) -> R {
        let id = self.open(name, parent);
        let r = f(id);
        self.close(id);
        r
    }

    fn push(&self, name: &'static str, parent: Option<SpanId>, start: u64, end: u64) -> SpanId {
        let mut spans = self.spans.lock().expect("span list lock");
        spans.push(Span {
            name,
            start_ns: start,
            end_ns: end,
            parent,
            run: self.run,
            thread: thread_number(),
        });
        spans.len() - 1
    }

    /// A copy of every span recorded so far.
    pub fn spans(&self) -> Vec<Span> {
        self.spans.lock().expect("span list lock").clone()
    }
}

/// Self time of every span: its duration minus the union of its
/// children's intervals, clipped to its own.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p].push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .zip(children)
        .map(|(s, kids)| s.duration_ns() - covered(s.start_ns, s.end_ns, kids))
        .collect()
}

/// Length of the union of `intervals` within `[lo, hi)`.
fn covered(lo: u64, hi: u64, mut intervals: Vec<(u64, u64)>) -> u64 {
    intervals.sort_unstable();
    let mut total = 0;
    let mut cursor = lo;
    for (a, b) in intervals {
        let (a, b) = (a.max(cursor), b.min(hi));
        if b > a {
            total += b - a;
            cursor = b;
        }
    }
    total
}

/// Share of `root`'s wall time during which no descendant span that
/// `is_layer` accepts was open, on any thread. Wrapper spans (a pipeline
/// or an epoch scan around the layer calls) cover nothing themselves: a
/// wrapper whose layer children leave a stretch of its time uncovered
/// leaves that stretch in the gap.
pub fn closure_gap(spans: &[Span], root: SpanId, is_layer: impl Fn(&str) -> bool) -> f64 {
    let layers: Vec<(u64, u64)> = spans
        .iter()
        .enumerate()
        .filter(|&(i, s)| i != root && is_layer(s.name) && descends_from(spans, i, root))
        .map(|(_, s)| (s.start_ns, s.end_ns))
        .collect();
    let r = &spans[root];
    let wall = r.duration_ns().max(1) as f64;
    1.0 - covered(r.start_ns, r.end_ns, layers) as f64 / wall
}

fn descends_from(spans: &[Span], mut i: SpanId, root: SpanId) -> bool {
    loop {
        if i == root {
            return true;
        }
        match spans[i].parent {
            Some(p) => i = p,
            None => return false,
        }
    }
}

/// Per span name: `(summed duration, summed self time, count)`, in ns.
pub fn by_name(spans: &[Span]) -> BTreeMap<&'static str, (u64, u64, u64)> {
    let selfs = self_times(spans);
    let mut out: BTreeMap<&'static str, (u64, u64, u64)> = BTreeMap::new();
    for (s, self_ns) in spans.iter().zip(selfs) {
        let e = out.entry(s.name).or_default();
        e.0 += s.duration_ns();
        e.1 += self_ns;
        e.2 += 1;
    }
    out
}

/// The spans file: every span plus the per-name summary.
pub fn to_json(workload: &str, spans: &[Span]) -> String {
    let selfs = self_times(spans);
    let rows = spans.iter().zip(&selfs).map(|(s, &self_ns)| {
        Json::object([
            ("name", Json::from(s.name)),
            ("start_ns", Json::from(s.start_ns)),
            ("end_ns", Json::from(s.end_ns)),
            ("self_ns", Json::from(self_ns)),
            ("parent", s.parent.map_or(Json::Null, Json::from)),
            ("run", Json::from(s.run)),
            ("thread", Json::from(s.thread)),
        ])
    });
    let summary = by_name(spans)
        .into_iter()
        .map(|(name, (total, self_ns, count))| {
            Json::object([
                ("name", Json::from(name)),
                ("total_s", Json::from(total as f64 / 1e9)),
                ("self_s", Json::from(self_ns as f64 / 1e9)),
                ("count", Json::from(count)),
            ])
        });
    Json::object([
        ("workload", Json::from(workload)),
        ("summary", Json::array(summary)),
        ("spans", Json::array(rows)),
    ])
    .encode()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: u64, end: u64, parent: Option<SpanId>, thread: u64) -> Span {
        Span {
            name,
            start_ns: start,
            end_ns: end,
            parent,
            run: 0,
            thread,
        }
    }

    /// root [0,100) on thread 0
    ///   a [10,40) thread 0, with child a1 [15,25) thread 0
    ///   b [50,90) thread 0, with children on thread 1 that overlap each
    ///     other and spill past b's end: c [45,70), d [60,95)
    fn tree() -> Vec<Span> {
        vec![
            span("root", 0, 100, None, 0),
            span("a", 10, 40, Some(0), 0),
            span("a1", 15, 25, Some(1), 0),
            span("b", 50, 90, Some(0), 0),
            span("c", 45, 70, Some(3), 1),
            span("d", 60, 95, Some(3), 1),
        ]
    }

    #[test]
    fn self_time_subtracts_the_union_of_children_clipped_to_the_parent() {
        let selfs = self_times(&tree());
        assert_eq!(selfs[0], 100 - 30 - 40, "root minus a and b");
        assert_eq!(selfs[1], 30 - 10, "a minus a1");
        assert_eq!(selfs[2], 10, "leaf");
        // c ∪ d = [45,95), clipped to b's [50,90) covers all of b.
        assert_eq!(selfs[3], 0);
        assert_eq!(selfs[4], 25);
        assert_eq!(selfs[5], 35);
    }

    fn close(a: f64, b: f64) -> bool {
        (a - b).abs() < 1e-12
    }

    #[test]
    fn closure_is_the_wall_time_no_layer_span_covers_on_any_thread() {
        let any = |_: &str| true;
        // a [10,40) and b ∪ c ∪ d [45,95) cover 80 of root's 100; a1
        // lies inside a and is not counted twice.
        let gap = closure_gap(&tree(), 0, any);
        assert!(close(gap, 0.20), "gap {gap}");
        // A span from another root does not cover this one.
        let mut spans = tree();
        spans.push(span("other", 0, 100, None, 0));
        assert!(close(closure_gap(&spans, 0, any), 0.20));
    }

    #[test]
    fn a_wrapper_span_covers_nothing_by_itself() {
        // b is a wrapper: what its children c and d cover, [50,90) of
        // it plus their spill to 45 and 95, still counts.
        let gap = closure_gap(&tree(), 0, |n| n != "b");
        assert!(close(gap, 0.20), "gap {gap}");
        // With c and d not layers either, only a's 30 is covered.
        let gap = closure_gap(&tree(), 0, |n| matches!(n, "a" | "a1"));
        assert!(close(gap, 0.70), "gap {gap}");
        // A wrapper with no children leaves its whole length in the gap.
        let spans = vec![
            span("root", 0, 100, None, 0),
            span("layer", 0, 60, Some(0), 0),
            span("wrapper", 60, 100, Some(0), 0),
        ];
        let gap = closure_gap(&spans, 0, |n| n == "layer");
        assert!(close(gap, 0.40), "gap {gap}");
    }

    #[test]
    fn summary_sums_by_name() {
        let mut spans = tree();
        spans.push(span("a1", 30, 35, Some(1), 0));
        let s = by_name(&spans);
        assert_eq!(s["a1"], (15, 15, 2));
        assert_eq!(s["a"], (30, 15, 1));
    }

    #[test]
    fn tracer_records_nested_spans_across_threads() {
        let t = Tracer::new();
        let root = t.open("root", None);
        t.time_in("outer", Some(root), |outer| {
            std::thread::scope(|s| {
                s.spawn(|| t.time("worker", Some(outer), || ()));
            });
        });
        t.close(root);
        let spans = t.spans();
        assert_eq!(spans.len(), 3);
        assert!(spans
            .iter()
            .all(|s| s.run == std::process::id() && s.end_ns >= s.start_ns));
        assert_ne!(spans[2].thread, spans[0].thread);
        let gap = closure_gap(&spans, root, |n| n == "worker");
        assert!((0.0..=1.0).contains(&gap), "gap {gap}");
    }
}
