//! Spans recorded from outside the system: the harness wraps every call
//! it makes into a layer, keeps the spans in memory, and writes them out
//! once at exit. A layer's self time is its span minus the part of that
//! interval its child spans cover.

use crate::stats::median;
use std::collections::BTreeMap;
use std::time::Instant;

/// One recorded interval. `parent` is the span that was open when this
/// one started; spans of one request share `request`.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub id: u32,
    pub parent: Option<u32>,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub request: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Single-threaded span recorder. Disabled (the tracing-off runs) it
/// records nothing and costs one branch per call.
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<u32>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Tracer { enabled, origin: Instant::now(), spans: Vec::new(), open: Vec::new() }
    }

    /// Run `f` inside a span named `name` on behalf of request `request`
    /// (0 for work no request caused).
    pub fn span<T>(
        &mut self,
        name: &'static str,
        request: u64,
        f: impl FnOnce(&mut Tracer) -> T,
    ) -> T {
        if !self.enabled {
            return f(self);
        }
        let id = self.spans.len() as u32;
        let parent = self.open.last().copied();
        let start_ns = self.origin.elapsed().as_nanos() as u64;
        self.spans.push(Span { id, parent, name, start_ns, end_ns: start_ns, request });
        self.open.push(id);
        let out = f(self);
        self.open.pop();
        self.spans[id as usize].end_ns = self.origin.elapsed().as_nanos() as u64;
        out
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time of every span: duration minus the children's durations.
    /// Children run strictly inside their parent on one thread, so the
    /// subtraction never goes negative.
    pub fn self_times_ns(&self) -> Vec<u64> {
        let mut own: Vec<u64> = self.spans.iter().map(Span::duration_ns).collect();
        for span in &self.spans {
            if let Some(parent) = span.parent {
                let slot = &mut own[parent as usize];
                *slot = slot.saturating_sub(span.duration_ns());
            }
        }
        own
    }

    /// Per span name: count, median duration and median self time, in
    /// microseconds.
    pub fn summary(&self) -> BTreeMap<&'static str, SpanSummary> {
        let own = self.self_times_ns();
        let mut by_name: BTreeMap<&'static str, (Vec<f64>, Vec<f64>)> = BTreeMap::new();
        for (span, own_ns) in self.spans.iter().zip(&own) {
            let entry = by_name.entry(span.name).or_default();
            entry.0.push(span.duration_ns() as f64 / 1e3);
            entry.1.push(*own_ns as f64 / 1e3);
        }
        by_name
            .into_iter()
            .map(|(name, (durations, selfs))| {
                let summary = SpanSummary {
                    count: durations.len(),
                    p50_us: median(&durations),
                    self_p50_us: median(&selfs),
                    total_us: durations.iter().sum(),
                };
                (name, summary)
            })
            .collect()
    }

    /// The trace file: the per-name summary plus the raw spans, capped so a
    /// long traffic phase cannot write an unbounded file.
    pub fn to_json(&self, max_spans: usize) -> serde_json::Value {
        let summary: Vec<serde_json::Value> = self
            .summary()
            .iter()
            .map(|(name, s)| {
                serde_json::json!({
                    "name": name,
                    "count": s.count,
                    "p50_us": s.p50_us,
                    "self_p50_us": s.self_p50_us,
                    "total_us": s.total_us,
                })
            })
            .collect();
        let spans: Vec<serde_json::Value> = self
            .spans
            .iter()
            .take(max_spans)
            .map(|s| {
                serde_json::json!({
                    "id": s.id,
                    "parent": s.parent,
                    "name": s.name,
                    "start_ns": s.start_ns,
                    "end_ns": s.end_ns,
                    "request": s.request,
                })
            })
            .collect();
        serde_json::json!({
            "spans_recorded": self.spans.len(),
            "spans_written": spans.len(),
            "summary": summary,
            "spans": spans,
        })
    }
}

#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SpanSummary {
    pub count: usize,
    pub p50_us: f64,
    pub self_p50_us: f64,
    pub total_us: f64,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn busy(us: u64) {
        let t = Instant::now();
        while t.elapsed().as_micros() < us as u128 {
            std::hint::spin_loop();
        }
    }

    #[test]
    fn children_nest_inside_their_parent_and_self_time_is_the_remainder() {
        let mut tr = Tracer::new(true);
        tr.span("request", 7, |tr| {
            busy(200);
            tr.span("encode", 7, |_| busy(300));
            tr.span("execute", 7, |tr| {
                busy(100);
                tr.span("shard", 7, |_| busy(400));
            });
        });
        let spans = tr.spans();
        assert_eq!(spans.len(), 4);
        for span in spans {
            assert_eq!(span.request, 7);
            if let Some(parent) = span.parent {
                let p = &spans[parent as usize];
                assert!(p.start_ns <= span.start_ns && span.end_ns <= p.end_ns, "child escapes");
            }
        }
        assert_eq!(spans[0].parent, None);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[3].parent, Some(2));

        let own = tr.self_times_ns();
        // Root: 1000 us total, 300 + 500 in children.
        assert!(own[0] >= 200_000 && own[0] < spans[0].duration_ns());
        assert!(own[2] >= 100_000 && own[2] <= spans[2].duration_ns() - 400_000);
        // Leaves keep their whole duration.
        assert_eq!(own[1], spans[1].duration_ns());
        assert_eq!(own[3], spans[3].duration_ns());
        // Self times partition the root interval exactly.
        assert_eq!(own.iter().sum::<u64>(), spans[0].duration_ns());
    }

    #[test]
    fn a_disabled_tracer_records_nothing() {
        let mut tr = Tracer::new(false);
        let out = tr.span("x", 0, |tr| tr.span("y", 0, |_| 41) + 1);
        assert_eq!(out, 42);
        assert!(tr.spans().is_empty());
        assert!(tr.summary().is_empty());
    }

    #[test]
    fn summary_groups_by_name() {
        let mut tr = Tracer::new(true);
        for rid in 1..=3 {
            tr.span("request", rid, |tr| tr.span("execute", rid, |_| busy(50)));
        }
        let summary = tr.summary();
        assert_eq!(summary["request"].count, 3);
        assert_eq!(summary["execute"].count, 3);
        assert!(summary["execute"].p50_us >= 50.0);
        assert!(summary["request"].self_p50_us < summary["request"].p50_us);
        let json = tr.to_json(4);
        assert_eq!(json["spans_recorded"], serde_json::json!(6));
        assert_eq!(json["spans"].as_array().unwrap().len(), 4);
    }
}
