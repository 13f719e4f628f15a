//! Harness-side spans around calls into the measured crates, kept in
//! memory and written as a Chrome trace when the run ends.

use std::fmt::Write as _;
use std::time::Instant;

/// One timed call. `parent` indexes the enclosing span in the same
/// [`Tracer`]; `op` is the benchmark operation the span belongs to.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub op: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Records nested spans from one thread.
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    op: u64,
}

impl Tracer {
    pub fn new() -> Self {
        Self {
            origin: Instant::now(),
            // Reserved up front so that recording a span does not allocate
            // while the counting allocator watches an operation.
            spans: Vec::with_capacity(1 << 16),
            open: Vec::with_capacity(16),
            op: 0,
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Starts the next operation: spans entered from now on carry its id.
    pub fn next_op(&mut self) -> u64 {
        self.op += 1;
        self.op
    }

    /// Opens a span under the innermost open one.
    pub fn enter(&mut self, name: &'static str) -> usize {
        let id = self.spans.len();
        let now = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns: now,
            end_ns: now,
            parent: self.open.last().copied(),
            op: self.op,
        });
        self.open.push(id);
        id
    }

    /// Closes the innermost open span, which must be `id`, and returns
    /// its duration in milliseconds.
    pub fn exit(&mut self, id: usize) -> f64 {
        let now = self.now_ns();
        assert_eq!(self.open.pop(), Some(id), "spans close innermost first");
        self.spans[id].end_ns = now;
        self.spans[id].dur_ns() as f64 / 1e6
    }

    /// Times `f` under a span and returns its result and milliseconds.
    pub fn time<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> (R, f64) {
        let id = self.enter(name);
        let r = f();
        (r, self.exit(id))
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }
}

/// Each span's self time: its duration minus the part of its interval
/// that its child spans cover (overlapping children count once).
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p].push((
                s.start_ns.max(spans[p].start_ns),
                s.end_ns.min(spans[p].end_ns),
            ));
        }
    }
    spans
        .iter()
        .zip(&mut children)
        .map(|(s, kids)| {
            kids.sort_unstable();
            let (mut covered, mut edge) = (0, s.start_ns);
            for &(start, end) in kids.iter() {
                let start = start.max(edge);
                if end > start {
                    covered += end - start;
                    edge = end;
                }
            }
            s.dur_ns() - covered
        })
        .collect()
}

/// Per operation, the summed self time in milliseconds of the spans
/// called `name`, in operation order; operations without one are left out.
pub fn self_ms_per_op(spans: &[Span], name: &str) -> Vec<f64> {
    let own = self_times_ns(spans);
    let mut per_op: std::collections::BTreeMap<u64, u64> = std::collections::BTreeMap::new();
    for (s, ns) in spans.iter().zip(own) {
        if s.name == name {
            *per_op.entry(s.op).or_default() += ns;
        }
    }
    per_op.values().map(|&ns| ns as f64 / 1e6).collect()
}

/// The duration in milliseconds of every span called `name`, in order.
pub fn durations_ms(spans: &[Span], name: &str) -> Vec<f64> {
    let named = spans.iter().filter(|s| s.name == name);
    named.map(|s| s.dur_ns() as f64 / 1e6).collect()
}

/// Renders the spans as Chrome trace complete events (`chrome://tracing`,
/// Perfetto): microsecond timestamps, the operation id and parent index
/// in `args`.
pub fn chrome_trace(spans: &[Span]) -> String {
    let mut out = String::from("[");
    for (i, s) in spans.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        write!(
            out,
            "\n{{\"name\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":{:.3},\"dur\":{:.3},\"args\":{{\"id\":{i},\"parent\":{parent},\"op\":{}}}}}",
            s.name,
            s.start_ns as f64 / 1e3,
            s.dur_ns() as f64 / 1e3,
            s.op
        )
        .expect("writing to a String");
    }
    out.push_str("\n]\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: u64, end: u64, parent: Option<usize>, op: u64) -> Span {
        Span {
            name,
            start_ns: start,
            end_ns: end,
            parent,
            op,
        }
    }

    #[test]
    fn self_time_subtracts_what_children_cover() {
        let spans = [
            span("op", 0, 100, None, 1),
            span("a", 10, 40, Some(0), 1),
            span("b", 50, 90, Some(0), 1),
            span("b.inner", 60, 70, Some(2), 1),
        ];
        assert_eq!(self_times_ns(&spans), vec![30, 30, 30, 10]);
    }

    #[test]
    fn overlapping_children_count_once() {
        let spans = [
            span("op", 0, 100, None, 1),
            span("a", 10, 60, Some(0), 1),
            span("b", 40, 80, Some(0), 1),
            span("c", 50, 55, Some(0), 1),
        ];
        assert_eq!(self_times_ns(&spans)[0], 30);
    }

    #[test]
    fn self_ms_groups_by_operation() {
        let spans = [
            span("op", 0, 3_000_000, None, 1),
            span("conv", 0, 1_000_000, Some(0), 1),
            span("conv", 1_000_000, 3_000_000, Some(0), 1),
            span("op", 4_000_000, 5_000_000, None, 2),
            span("conv", 4_000_000, 4_500_000, Some(3), 2),
        ];
        assert_eq!(self_ms_per_op(&spans, "conv"), vec![3.0, 0.5]);
        assert_eq!(self_ms_per_op(&spans, "op"), vec![0.0, 0.5]);
        assert!(self_ms_per_op(&spans, "pool").is_empty());
        assert_eq!(durations_ms(&spans, "conv"), vec![1.0, 2.0, 0.5]);
    }

    #[test]
    fn tracer_nests_and_renders() {
        let mut tr = Tracer::new();
        let op = tr.next_op();
        let outer = tr.enter("outer");
        let ((), ms) = tr.time("inner", || ());
        tr.exit(outer);
        assert!(ms >= 0.0);
        let s = tr.spans();
        assert_eq!((s[0].parent, s[1].parent), (None, Some(0)));
        assert_eq!((s[0].op, s[1].op), (op, op));
        assert!(s[0].start_ns <= s[1].start_ns && s[1].end_ns <= s[0].end_ns);
        let json = chrome_trace(s);
        assert!(json.contains("\"name\":\"inner\"") && json.contains("\"parent\":0"));
    }
}
