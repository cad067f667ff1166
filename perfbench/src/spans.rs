//! In-memory spans recorded around calls into the program's layers.
//!
//! A span's layer is the text of its name before the first dot
//! (`vm.explore.quotient` belongs to `vm`); spans named `bench.*` are the
//! benchmark's own work. Calls too short or too many to record one by one
//! are folded into one *aggregate* span carrying their count and summed
//! time. A span's self time is its duration minus the part of it that its
//! children cover, so over a tree whose children stay inside their
//! parents, the self times of all spans sum to the root's duration.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// One recorded span.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Span {
    /// `layer.what`, e.g. `vm.reduce.canonicalize`.
    pub name: String,
    /// Shared by the spans of one request (a farm job id), else 0.
    pub trace: u64,
    /// Index of the parent span, `None` for a root.
    pub parent: Option<usize>,
    /// Nanoseconds since the tracer started.
    pub start_ns: u64,
    /// For an aggregate span, `start_ns` plus the summed time.
    pub end_ns: u64,
    /// Calls folded into this span: 1 for a plain span.
    pub count: u64,
    /// Whether the span is an aggregate of `count` calls rather than one
    /// interval; an aggregate's time is subtracted from its parent's self
    /// time as a sum, not as an interval.
    pub aggregate: bool,
}

impl Span {
    /// Nanoseconds the span covers.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }

    /// The layer the span belongs to.
    pub fn layer(&self) -> &str {
        self.name.split('.').next().unwrap_or("")
    }
}

/// Records spans in memory; nothing is written until the caller asks.
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer::new()
    }
}

impl Tracer {
    /// A tracer whose clock starts now.
    pub fn new() -> Tracer {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Nanoseconds since the tracer started.
    pub fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Runs `f` inside a span named `name`, a child of the innermost open
    /// span.
    pub fn span<R>(&mut self, name: &str, f: impl FnOnce(&mut Tracer) -> R) -> R {
        let id = self.spans.len();
        self.spans.push(Span {
            name: name.to_owned(),
            trace: 0,
            parent: self.open.last().copied(),
            start_ns: self.now_ns(),
            end_ns: 0,
            count: 1,
            aggregate: false,
        });
        self.open.push(id);
        let out = f(self);
        self.open.pop();
        self.spans[id].end_ns = self.now_ns();
        out
    }

    /// Folds `count` calls taking `total_ns` in all into one aggregate
    /// child of the innermost open span.
    pub fn aggregate(&mut self, name: &str, count: u64, total_ns: u64) {
        let start_ns = self.open.last().map_or(0, |&p| self.spans[p].start_ns);
        self.spans.push(Span {
            name: name.to_owned(),
            trace: 0,
            parent: self.open.last().copied(),
            start_ns,
            end_ns: start_ns + total_ns,
            count,
            aggregate: true,
        });
    }

    /// The spans recorded so far.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// The instant the tracer's clock counts from, for timing work on
    /// other threads against the same clock.
    pub fn origin(&self) -> Instant {
        self.origin
    }
}

/// Self time of every span: its duration minus what its children cover
/// (the union of its interval children, clipped to it, plus the summed
/// time of its aggregate children), floored at zero.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut intervals: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    let mut summed = vec![0u64; spans.len()];
    for s in spans {
        let Some(p) = s.parent else { continue };
        if s.aggregate {
            summed[p] += s.duration_ns();
        } else {
            let parent = &spans[p];
            let (a, b) = (s.start_ns.max(parent.start_ns), s.end_ns.min(parent.end_ns));
            if a < b {
                intervals[p].push((a, b));
            }
        }
    }
    spans
        .iter()
        .enumerate()
        .map(|(i, s)| {
            let covered = union_length(&mut intervals[i]) + summed[i];
            s.duration_ns().saturating_sub(covered)
        })
        .collect()
}

fn union_length(intervals: &mut [(u64, u64)]) -> u64 {
    intervals.sort_unstable();
    let mut total = 0;
    let mut reach = 0;
    for &(a, b) in intervals.iter() {
        let a = a.max(reach);
        if b > a {
            total += b - a;
            reach = b;
        }
    }
    total
}

/// Interval spans that start before or end after their parent, as
/// messages; empty when the tree nests properly. Aggregates are checked by
/// duration: their summed time may not exceed their parent's.
pub fn nesting_errors(spans: &[Span]) -> Vec<String> {
    let mut errors = Vec::new();
    for s in spans {
        let Some(p) = s.parent else { continue };
        let parent = &spans[p];
        let outlasts = if s.aggregate {
            s.duration_ns() > parent.duration_ns()
        } else {
            s.start_ns < parent.start_ns || s.end_ns > parent.end_ns
        };
        if outlasts {
            errors.push(format!("{} outlasts its parent {}", s.name, parent.name));
        }
    }
    errors
}

/// Self time summed per layer.
pub fn layer_self_times(spans: &[Span]) -> BTreeMap<String, u64> {
    let mut out = BTreeMap::new();
    for (s, t) in spans.iter().zip(self_times(spans)) {
        *out.entry(s.layer().to_owned()).or_insert(0) += t;
    }
    out
}

/// The spans as NDJSON, one object per line, for offline inspection; ids
/// and parents are shifted by `id_offset` so several lists can share a file.
pub fn to_ndjson(spans: &[Span], id_offset: usize) -> String {
    let mut out = String::new();
    for (i, (s, self_ns)) in spans.iter().zip(self_times(spans)).enumerate() {
        let i = i + id_offset;
        let parent = s
            .parent
            .map_or("null".to_owned(), |p| (p + id_offset).to_string());
        let _ = writeln!(
            out,
            "{{\"id\": {i}, \"name\": \"{}\", \"trace\": {}, \"parent\": {parent}, \"start_ns\": {}, \"end_ns\": {}, \"count\": {}, \"aggregate\": {}, \"self_ns\": {self_ns}}}",
            s.name, s.trace, s.start_ns, s.end_ns, s.count, s.aggregate
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &str, parent: Option<usize>, start_ns: u64, end_ns: u64) -> Span {
        Span {
            name: name.to_owned(),
            trace: 0,
            parent,
            start_ns,
            end_ns,
            count: 1,
            aggregate: false,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let spans = vec![
            span("bench.root", None, 0, 100),
            span("vm.a", Some(0), 10, 30),
            // Overlaps vm.a: the overlap is subtracted once.
            span("vm.b", Some(0), 20, 50),
            span("core.c", Some(2), 25, 35),
        ];
        assert_eq!(self_times(&spans), vec![60, 20, 20, 10]);
        let total: u64 = self_times(&spans).iter().sum();
        // Overlapping siblings break the "self times sum to the root"
        // identity by exactly the double-covered 10 ns.
        assert_eq!(total, 110);
    }

    #[test]
    fn self_times_of_a_nested_tree_sum_to_the_root() {
        let spans = vec![
            span("bench.root", None, 0, 1000),
            span("vm.a", Some(0), 100, 400),
            span("vm.b", Some(1), 150, 250),
            span("serve.c", Some(0), 400, 900),
        ];
        assert_eq!(self_times(&spans).iter().sum::<u64>(), 1000);
        let layers = layer_self_times(&spans);
        assert_eq!(layers["bench"], 200);
        assert_eq!(layers["vm"], 300);
        assert_eq!(layers["serve"], 500);
    }

    #[test]
    fn aggregates_subtract_their_sum_and_children_are_clipped() {
        let mut agg = span("vm.reduce.canonicalize", Some(0), 0, 15);
        agg.aggregate = true;
        agg.count = 1000;
        let spans = vec![
            span("vm.explore", None, 0, 100),
            agg,
            span("vm.late", Some(0), 90, 120),
        ];
        // 100 - 15 summed - 10 clipped interval.
        assert_eq!(self_times(&spans)[0], 75);
        assert_eq!(
            nesting_errors(&spans),
            vec!["vm.late outlasts its parent vm.explore"]
        );
    }

    #[test]
    fn the_tracer_nests_and_keeps_children_inside_parents() {
        let mut t = Tracer::new();
        t.span("bench.root", |t| {
            t.span("vm.a", |t| t.aggregate("vm.a.calls", 3, 0));
            t.span("core.b", |_| std::hint::black_box(1 + 1));
        });
        let spans = t.spans();
        assert_eq!(spans.len(), 4);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[2].parent, Some(1));
        assert_eq!(spans[3].parent, Some(0));
        assert!(nesting_errors(spans).is_empty());
        assert_eq!(
            self_times(spans).iter().sum::<u64>(),
            spans[0].duration_ns()
        );
    }
}
