//! In-memory span recorder for the traced run.
//!
//! Every call into a layer is bracketed from outside — the benchmark may
//! not edit the program, so spans live here, around public functions. A
//! span is `(name, start, end, parent, frame)`; spans of one frame share
//! the frame id. The buffer is allocated up front, nothing is written
//! until the run ends, and a layer's **self time** is its span minus the
//! part of it its children cover (overlapping children counted once).

use crate::json::Json;
use std::time::Instant;

/// Index of a span in its [`Trace`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanId(u32);

/// One timed call.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Layer-qualified name, e.g. `pointcloud.merge`.
    pub name: &'static str,
    /// Nanoseconds since the trace epoch.
    pub start_ns: u64,
    /// Nanoseconds since the trace epoch; equals `start_ns` while open.
    pub end_ns: u64,
    /// The span that caused this one.
    pub parent: Option<SpanId>,
    /// Frame id shared by every span of one frame.
    pub frame: u64,
}

impl Span {
    /// Wall time of the span, nanoseconds.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// The span buffer of one traced run.
#[derive(Debug)]
pub struct Trace {
    epoch: Instant,
    spans: Vec<Span>,
}

impl Trace {
    /// A trace with room for `capacity` spans before it reallocates.
    pub fn with_capacity(capacity: usize) -> Self {
        Trace {
            epoch: Instant::now(),
            spans: Vec::with_capacity(capacity),
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span; close it with [`Trace::end`].
    pub fn begin(&mut self, name: &'static str, frame: u64, parent: Option<SpanId>) -> SpanId {
        let now = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns: now,
            end_ns: now,
            parent,
            frame,
        });
        SpanId(self.spans.len() as u32 - 1)
    }

    /// Closes a span and returns its wall time in milliseconds.
    pub fn end(&mut self, id: SpanId) -> f64 {
        let now = self.now_ns();
        let span = &mut self.spans[id.0 as usize];
        span.end_ns = now;
        span.duration_ns() as f64 / 1e6
    }

    /// Records a span another thread timed with its own `Instant`s.
    pub fn record(
        &mut self,
        name: &'static str,
        frame: u64,
        parent: Option<SpanId>,
        start: Instant,
        end: Instant,
    ) -> SpanId {
        let since_epoch = |at: Instant| at.saturating_duration_since(self.epoch).as_nanos() as u64;
        self.spans.push(Span {
            name,
            start_ns: since_epoch(start),
            end_ns: since_epoch(end),
            parent,
            frame,
        });
        SpanId(self.spans.len() as u32 - 1)
    }

    /// Times one call as a complete span.
    pub fn time<R>(
        &mut self,
        name: &'static str,
        frame: u64,
        parent: Option<SpanId>,
        call: impl FnOnce() -> R,
    ) -> R {
        let id = self.begin(name, frame, parent);
        let out = call();
        self.end(id);
        out
    }

    /// Every recorded span, in start order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Wall times of every span called `name`, in the given unit per
    /// nanosecond (`1e-6` for ms, `1e-3` for µs).
    pub fn durations(&self, name: &str, unit_per_ns: f64) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.duration_ns() as f64 * unit_per_ns)
            .collect()
    }

    /// Per span, its duration minus the union of its children's intervals
    /// (clipped to the span), nanoseconds.
    pub fn self_times_ns(&self) -> Vec<u64> {
        let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); self.spans.len()];
        for s in &self.spans {
            if let Some(SpanId(p)) = s.parent {
                let parent = &self.spans[p as usize];
                let lo = s.start_ns.max(parent.start_ns);
                let hi = s.end_ns.min(parent.end_ns);
                if hi > lo {
                    children[p as usize].push((lo, hi));
                }
            }
        }
        self.spans
            .iter()
            .zip(children.iter_mut())
            .map(|(s, kids)| {
                kids.sort_unstable();
                let mut covered = 0u64;
                let mut reach = s.start_ns;
                for &(lo, hi) in kids.iter() {
                    let lo = lo.max(reach);
                    if hi > lo {
                        covered += hi - lo;
                        reach = hi;
                    }
                }
                s.duration_ns() - covered
            })
            .collect()
    }

    /// Share of the time inside spans called `name` that none of their
    /// children cover — the frame time no layer span accounts for.
    pub fn unattributed_share(&self, name: &str) -> f64 {
        let self_ns = self.self_times_ns();
        let (mut own, mut total) = (0u64, 0u64);
        for (s, &own_ns) in self.spans.iter().zip(&self_ns) {
            if s.name == name {
                own += own_ns;
                total += s.duration_ns();
            }
        }
        crate::stats::ratio(own as f64, total as f64)
    }

    /// The whole buffer as JSON: one object per span.
    pub fn to_json(&self, workload: &str) -> Json {
        let self_ns = self.self_times_ns();
        let spans = self
            .spans
            .iter()
            .zip(&self_ns)
            .map(|(s, &own)| {
                Json::object([
                    ("name", Json::str(s.name)),
                    ("frame", Json::num(s.frame as f64)),
                    ("start_ns", Json::num(s.start_ns as f64)),
                    ("end_ns", Json::num(s.end_ns as f64)),
                    ("self_ns", Json::num(own as f64)),
                    (
                        "parent",
                        s.parent
                            .map_or(Json::Null, |SpanId(p)| Json::num(f64::from(p))),
                    ),
                ])
            })
            .collect();
        Json::object([
            ("workload", Json::str(workload)),
            ("spans", Json::Array(spans)),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: u64, end: u64, parent: Option<u32>) -> Span {
        Span {
            name,
            start_ns: start,
            end_ns: end,
            parent: parent.map(SpanId),
            frame: 0,
        }
    }

    #[test]
    fn self_time_subtracts_overlapping_children_once() {
        let trace = Trace {
            epoch: Instant::now(),
            spans: vec![
                span("frame", 0, 100, None),
                // Two children overlapping on [30, 40): covered = [10, 60).
                span("a", 10, 40, Some(0)),
                span("b", 30, 60, Some(0)),
                // A child nested inside another child's interval adds nothing.
                span("c", 35, 38, Some(0)),
                // A grandchild is its parent's business, not the frame's.
                span("a.inner", 12, 20, Some(1)),
                // A child poking past the parent's end is clipped to it.
                span("d", 90, 130, Some(0)),
            ],
        };
        let own = trace.self_times_ns();
        assert_eq!(own[0], 100 - 50 - 10, "frame: [10,60) and [90,100) covered");
        assert_eq!(own[1], 30 - 8, "a: minus its own child");
        assert_eq!(own[2], 30);
        assert_eq!(own[4], 8);
        assert!((trace.unattributed_share("frame") - 0.4).abs() < 1e-12);
        assert_eq!(trace.unattributed_share("absent"), 0.0);
    }

    #[test]
    fn begin_end_records_a_closed_interval_and_its_parent() {
        let mut t = Trace::with_capacity(4);
        let frame = t.begin("frame", 7, None);
        let got = t.time("layer", 7, Some(frame), || 41 + 1);
        assert_eq!(got, 42);
        let ms = t.end(frame);
        let spans = t.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].parent, Some(frame));
        assert_eq!(spans[1].frame, 7);
        assert!(spans[0].start_ns <= spans[1].start_ns && spans[1].end_ns <= spans[0].end_ns);
        assert!((ms - spans[0].duration_ns() as f64 / 1e6).abs() < 1e-12);
        assert_eq!(t.durations("layer", 1e-3).len(), 1);
    }
}
