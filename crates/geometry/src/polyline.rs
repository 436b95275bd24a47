//! Polylines with arc-length parameterisation.
//!
//! Predicted trajectories are represented as timed polylines downstream; the
//! purely spatial machinery (length, interpolation, crossings with other
//! polylines and with circles) lives here.

use crate::{Circle, Segment2, Vec2};
use std::ops::ControlFlow;

/// Slack of every exact reject in the relevance broad phase, metres. A box
/// test here may skip only work whose result [`Segment2::intersect`] /
/// [`Circle::segment_inside`] would report as `None`: exact geometry
/// separates the operands by at least this much, which is orders of
/// magnitude above the rounding of either predicate. `erpd-core`'s
/// time-window reject grows its reach by the same slack (DESIGN §"Stage
/// graph" has both bounds and the one caveat).
pub const REJECT_MARGIN: f64 = 1e-3;

/// An axis-aligned box `(min, max)`.
type Box2 = (Vec2, Vec2);

/// True when the boxes are separated along some axis. Evaluated without
/// short-circuits, so a loop over many boxes compiles without branches.
#[inline]
fn apart(a: &Box2, b: &Box2) -> bool {
    (a.1.x < b.0.x) | (b.1.x < a.0.x) | (a.1.y < b.0.y) | (b.1.y < a.0.y)
}

/// The intersection of two boxes (min above max along an axis where they
/// are apart).
#[inline]
fn clipped(a: &Box2, b: &Box2) -> Box2 {
    (
        Vec2::new(a.0.x.max(b.0.x), a.0.y.max(b.0.y)),
        Vec2::new(a.1.x.min(b.1.x), a.1.y.min(b.1.y)),
    )
}

/// `b` grown by `pad` on every side.
#[inline]
fn grown(b: &Box2, pad: f64) -> Box2 {
    let pad = Vec2::new(pad, pad);
    (b.0 - pad, b.1 + pad)
}

/// A polyline through two or more vertices, with cached cumulative
/// arc-lengths for O(log n) interpolation, and a cached bounding box and
/// per-segment boxes and lengths for the broad phase and the arithmetic of
/// [`Polyline2::crossings_within`] and [`Polyline2::visit_circle_intervals`].
///
/// # Examples
///
/// ```
/// use erpd_geometry::{Polyline2, Vec2};
///
/// let p = Polyline2::new(vec![
///     Vec2::new(0.0, 0.0),
///     Vec2::new(10.0, 0.0),
///     Vec2::new(10.0, 10.0),
/// ]).unwrap();
/// assert_eq!(p.length(), 20.0);
/// assert_eq!(p.point_at(15.0), Vec2::new(10.0, 5.0));
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Polyline2 {
    points: Vec<Vec2>,
    cumulative: Vec<f64>,
    bounds: Box2,
    /// One entry per segment, in one allocation.
    spans: Vec<Span>,
}

/// What the crossing search and the circle walk read of one segment.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Span {
    /// The segment's exact box (no margin).
    bbox: Box2,
    /// [`Segment2::length`], bit for bit: the vertex distance the
    /// cumulative arc lengths add up (`hypot` ignores the direction).
    length: f64,
}

/// A crossing between two polylines.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PolylineCrossing {
    /// The crossing point.
    pub point: Vec2,
    /// Arc-length along the first polyline at the crossing.
    pub s_self: f64,
    /// Arc-length along the second polyline at the crossing.
    pub s_other: f64,
}

impl Polyline2 {
    /// Builds a polyline; returns `None` if fewer than two points are given
    /// or any point is non-finite.
    pub fn new(points: Vec<Vec2>) -> Option<Self> {
        if points.len() < 2 || points.iter().any(|p| !p.is_finite()) {
            return None;
        }
        let mut cumulative = Vec::with_capacity(points.len());
        let mut spans = Vec::with_capacity(points.len() - 1);
        let mut acc = 0.0;
        cumulative.push(0.0);
        for w in points.windows(2) {
            let length = w[0].distance(w[1]);
            acc += length;
            cumulative.push(acc);
            spans.push(Span {
                bbox: (
                    Vec2::new(w[0].x.min(w[1].x), w[0].y.min(w[1].y)),
                    Vec2::new(w[0].x.max(w[1].x), w[0].y.max(w[1].y)),
                ),
                length,
            });
        }
        let (mut min, mut max) = (points[0], points[0]);
        for p in &points[1..] {
            min = Vec2::new(min.x.min(p.x), min.y.min(p.y));
            max = Vec2::new(max.x.max(p.x), max.y.max(p.y));
        }
        Some(Polyline2 {
            points,
            cumulative,
            bounds: grown(&(min, max), REJECT_MARGIN),
            spans,
        })
    }

    /// A conservative axis-aligned box `(min, max)` around the polyline:
    /// the vertices' extent grown by a millimetre on every side, so that
    /// "outside the box" is a safe reason to skip an exact test (a point
    /// farther than `r` outside it is farther than `r` from the polyline,
    /// rounding included). Cached at construction.
    #[inline]
    pub fn bounds(&self) -> (Vec2, Vec2) {
        self.bounds
    }

    /// The vertices of the polyline.
    #[inline]
    pub fn points(&self) -> &[Vec2] {
        &self.points
    }

    /// The arc length at each vertex: `0.0` first, [`Polyline2::length`]
    /// last.
    #[inline]
    pub fn arc_lengths(&self) -> &[f64] {
        &self.cumulative
    }

    /// Total arc length.
    #[inline]
    pub fn length(&self) -> f64 {
        *self.cumulative.last().expect("polyline has >= 2 points")
    }

    /// Iterates over the constituent segments.
    pub fn segments(&self) -> impl Iterator<Item = Segment2> + '_ {
        self.points.windows(2).map(|w| Segment2::new(w[0], w[1]))
    }

    /// Segment `i`, from vertex `i` to vertex `i + 1`.
    #[inline]
    fn segment(&self, i: usize) -> Segment2 {
        Segment2::new(self.points[i], self.points[i + 1])
    }

    /// Point at arc length `s`, clamped to `[0, length]`.
    pub fn point_at(&self, s: f64) -> Vec2 {
        let s = s.clamp(0.0, self.length());
        let idx = match self
            .cumulative
            .binary_search_by(|c| c.partial_cmp(&s).expect("finite arc lengths"))
        {
            Ok(i) => i,
            Err(i) => i - 1,
        };
        if idx + 1 >= self.points.len() {
            return *self.points.last().expect("non-empty");
        }
        let seg_len = self.cumulative[idx + 1] - self.cumulative[idx];
        if seg_len <= f64::EPSILON {
            return self.points[idx];
        }
        let t = (s - self.cumulative[idx]) / seg_len;
        self.points[idx].lerp(self.points[idx + 1], t)
    }

    /// Heading (radians) of the polyline at arc length `s`.
    pub fn heading_at(&self, s: f64) -> f64 {
        let s = s.clamp(0.0, self.length());
        let idx = match self
            .cumulative
            .binary_search_by(|c| c.partial_cmp(&s).expect("finite arc lengths"))
        {
            Ok(i) => i.min(self.points.len() - 2),
            Err(i) => (i - 1).min(self.points.len() - 2),
        };
        (self.points[idx + 1] - self.points[idx]).angle()
    }

    /// All crossings with another polyline, ordered by `s_self` (stably:
    /// equal `s_self` keep segment order).
    pub fn crossings(&self, other: &Polyline2) -> Vec<PolylineCrossing> {
        let everywhere = (
            Vec2::new(f64::NEG_INFINITY, f64::NEG_INFINITY),
            Vec2::new(f64::INFINITY, f64::INFINITY),
        );
        let mut out = Vec::new();
        self.crossings_within(other, everywhere, &mut out);
        out
    }

    /// Appends to `out` every crossing with `other` that lies in the box
    /// `region = (min, max)` — and possibly some near it — as the
    /// subsequence of [`Polyline2::crossings`] they form: same values, same
    /// order. Allocates nothing beyond `out`'s growth, so a caller that
    /// clears and reuses one buffer enumerates pair after pair for free.
    ///
    /// Segment pairs are intersected only where the boxes overlap —
    /// polyline against polyline, then segment against polyline and
    /// region, then segment against segment and region, the last one for a
    /// whole row of `other`'s cached segment boxes at once, without
    /// branches — which skips nothing [`Segment2::intersect`] would report
    /// inside `region`. Arc lengths use the cached segment lengths.
    pub fn crossings_within(
        &self,
        other: &Polyline2,
        region: (Vec2, Vec2),
        out: &mut Vec<PolylineCrossing>,
    ) {
        let first = out.len();
        if apart(&self.bounds, &other.bounds) {
            return;
        }
        let region = clipped(&region, &other.bounds);
        for (i, span_a) in self.spans.iter().enumerate() {
            // Where a crossing on segment `i` can lie: its box, grown by the
            // margin, clipped to the region and to `other`'s box.
            let clip = clipped(&grown(&span_a.bbox, REJECT_MARGIN), &region);
            if (clip.0.x > clip.1.x) | (clip.0.y > clip.1.y) {
                continue;
            }
            let sa = self.segment(i);
            for (row, spans) in other.spans.chunks(u64::BITS as usize).enumerate() {
                let mut near = 0u64;
                for (k, span_b) in spans.iter().enumerate() {
                    near |= u64::from(!apart(&clip, &span_b.bbox)) << k;
                }
                while near != 0 {
                    let j = row * u64::BITS as usize + near.trailing_zeros() as usize;
                    near &= near - 1;
                    if let Some(hit) = sa.intersect(&other.segment(j)) {
                        out.push(PolylineCrossing {
                            point: hit.point,
                            s_self: self.cumulative[i] + hit.t_self * span_a.length,
                            s_other: other.cumulative[j] + hit.t_other * other.spans[j].length,
                        });
                    }
                }
            }
        }
        // A stable insertion sort: rows arrive in segment order, so the
        // run is sorted but for hits that share a segment of `self`.
        let found = &mut out[first..];
        for k in 1..found.len() {
            let mut m = k;
            while m > 0 && found[m - 1].s_self > found[m].s_self {
                found.swap(m - 1, m);
                m -= 1;
            }
        }
    }

    /// The first crossing with another polyline (smallest `s_self`), if any.
    pub fn first_crossing(&self, other: &Polyline2) -> Option<PolylineCrossing> {
        self.crossings(other).into_iter().next()
    }

    /// Arc-length intervals `(s_enter, s_exit)` during which the polyline is
    /// inside the given circle, merged across segment boundaries and ordered
    /// by `s_enter`.
    pub fn circle_intervals(&self, circle: &Circle) -> Vec<(f64, f64)> {
        let mut out = Vec::new();
        let _ = self.visit_circle_intervals(circle, f64::INFINITY, |s0, s1| {
            out.push((s0, s1));
            ControlFlow::<()>::Continue(())
        });
        out
    }

    /// The walk behind [`Polyline2::circle_intervals`]: hands `visit` each
    /// interval `(s_enter, s_exit)` — merged across segment boundaries,
    /// degenerate ones dropped, in order of `s_enter` — until it breaks, and
    /// returns what it broke with. Allocates nothing; a caller that wants
    /// only the first interval stops there.
    ///
    /// An interval is handed over as soon as the walk reaches a segment
    /// that cannot extend it, and the walk ends early, with no interval
    /// open, at the first segment that starts at arc length `before` or
    /// later: a caller with no use for intervals entered that late passes
    /// the bound, everyone else `f64::INFINITY`.
    pub fn visit_circle_intervals<B>(
        &self,
        circle: &Circle,
        before: f64,
        mut visit: impl FnMut(f64, f64) -> ControlFlow<B>,
    ) -> ControlFlow<B> {
        let r = Vec2::new(circle.radius, circle.radius);
        let circle_box = (circle.center - r, circle.center + r);
        if apart(&circle_box, &self.bounds) {
            return ControlFlow::Continue(());
        }
        let reach = grown(&circle_box, REJECT_MARGIN);
        // The interval still open to merging with the next segment's.
        let mut open: Option<(f64, f64)> = None;
        let mut close = |iv: Option<(f64, f64)>| match iv {
            Some((s0, s1)) if s1 - s0 > 1e-12 => visit(s0, s1),
            _ => ControlFlow::Continue(()),
        };
        for (i, span) in self.spans.iter().enumerate() {
            let start = self.cumulative[i];
            // Every later chord enters at `start` or beyond, so one past
            // the merge tolerance can no longer extend the open interval.
            if open.is_some_and(|(_, s1)| start > s1 + 1e-9) {
                close(open.take())?;
            }
            if open.is_none() && start >= before {
                return ControlFlow::Continue(());
            }
            if apart(&reach, &span.bbox) {
                continue;
            }
            if let Some((t0, t1)) = circle.segment_inside(&self.segment(i)) {
                let s0 = start + t0 * span.length;
                let s1 = start + t1 * span.length;
                match &mut open {
                    // Contiguous with the previous segment's interval: merge.
                    Some(last) if s0 <= last.1 + 1e-9 => last.1 = last.1.max(s1),
                    _ => close(open.replace((s0, s1)))?,
                }
            }
        }
        close(open)
    }

    /// Closest distance from the polyline to a point.
    pub fn distance_to_point(&self, p: Vec2) -> f64 {
        self.segments()
            .map(|s| s.distance_to_point(p))
            .fold(f64::INFINITY, f64::min)
    }

    /// The sub-polyline between arc lengths `s0` and `s1` (clamped to the
    /// polyline; `s0 < s1` required). Returns `None` when the clamped range
    /// is degenerate.
    pub fn slice(&self, s0: f64, s1: f64) -> Option<Polyline2> {
        let len = self.length();
        let s0 = s0.clamp(0.0, len);
        let s1 = s1.clamp(0.0, len);
        if s1 - s0 <= 1e-9 {
            return None;
        }
        let mut pts = vec![self.point_at(s0)];
        for (i, &c) in self.cumulative.iter().enumerate() {
            if c > s0 + 1e-9 && c < s1 - 1e-9 {
                pts.push(self.points[i]);
            }
        }
        pts.push(self.point_at(s1));
        pts.dedup_by(|a, b| a.distance(*b) < 1e-9);
        Polyline2::new(pts)
    }

    /// Projects a point onto the polyline: returns `(s, distance)` where `s`
    /// is the arc length of the closest point and `distance` the lateral
    /// offset.
    pub fn project(&self, p: Vec2) -> (f64, f64) {
        let mut best_s = 0.0;
        let mut best_d = f64::INFINITY;
        for (i, seg) in self.segments().enumerate() {
            let t = seg.closest_t(p);
            let q = seg.point_at(t);
            let d = q.distance(p);
            if d < best_d {
                best_d = d;
                best_s = self.cumulative[i] + t * seg.length();
            }
        }
        (best_s, best_d)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn l_shape() -> Polyline2 {
        Polyline2::new(vec![
            Vec2::new(0.0, 0.0),
            Vec2::new(10.0, 0.0),
            Vec2::new(10.0, 10.0),
        ])
        .unwrap()
    }

    #[test]
    fn construction_rules() {
        assert!(Polyline2::new(vec![]).is_none());
        assert!(Polyline2::new(vec![Vec2::ZERO]).is_none());
        assert!(Polyline2::new(vec![Vec2::ZERO, Vec2::new(f64::NAN, 0.0)]).is_none());
        assert!(Polyline2::new(vec![Vec2::ZERO, Vec2::UNIT_X]).is_some());
    }

    #[test]
    fn length_and_interpolation() {
        let p = l_shape();
        assert_eq!(p.length(), 20.0);
        assert_eq!(p.point_at(0.0), Vec2::ZERO);
        assert_eq!(p.point_at(5.0), Vec2::new(5.0, 0.0));
        assert_eq!(p.point_at(10.0), Vec2::new(10.0, 0.0));
        assert_eq!(p.point_at(15.0), Vec2::new(10.0, 5.0));
        assert_eq!(p.point_at(20.0), Vec2::new(10.0, 10.0));
        // Clamping
        assert_eq!(p.point_at(-5.0), Vec2::ZERO);
        assert_eq!(p.point_at(99.0), Vec2::new(10.0, 10.0));
    }

    #[test]
    fn heading_changes_at_corner() {
        let p = l_shape();
        assert!(p.heading_at(5.0).abs() < 1e-12);
        assert!((p.heading_at(15.0) - std::f64::consts::FRAC_PI_2).abs() < 1e-12);
    }

    #[test]
    fn crossing_two_straight_paths() {
        let ew = Polyline2::new(vec![Vec2::new(-10.0, 0.0), Vec2::new(10.0, 0.0)]).unwrap();
        let ns = Polyline2::new(vec![Vec2::new(0.0, -10.0), Vec2::new(0.0, 10.0)]).unwrap();
        let hit = ew.first_crossing(&ns).unwrap();
        assert!((hit.point - Vec2::ZERO).norm() < 1e-12);
        assert!((hit.s_self - 10.0).abs() < 1e-12);
        assert!((hit.s_other - 10.0).abs() < 1e-12);
    }

    #[test]
    fn multiple_crossings_sorted() {
        // A zig-zag crossing the x-axis twice.
        let zig = Polyline2::new(vec![
            Vec2::new(0.0, -1.0),
            Vec2::new(2.0, 1.0),
            Vec2::new(4.0, -1.0),
        ])
        .unwrap();
        let axis = Polyline2::new(vec![Vec2::new(-5.0, 0.0), Vec2::new(10.0, 0.0)]).unwrap();
        let hits = zig.crossings(&axis);
        assert_eq!(hits.len(), 2);
        assert!(hits[0].s_self < hits[1].s_self);
    }

    #[test]
    fn no_crossing_for_parallel_paths() {
        let a = Polyline2::new(vec![Vec2::new(0.0, 0.0), Vec2::new(10.0, 0.0)]).unwrap();
        let b = Polyline2::new(vec![Vec2::new(0.0, 3.0), Vec2::new(10.0, 3.0)]).unwrap();
        assert!(a.first_crossing(&b).is_none());
    }

    #[test]
    fn circle_interval_straight_pass() {
        let p = Polyline2::new(vec![Vec2::new(-10.0, 0.0), Vec2::new(10.0, 0.0)]).unwrap();
        let c = Circle::new(Vec2::ZERO, 2.0);
        let iv = p.circle_intervals(&c);
        assert_eq!(iv.len(), 1);
        let (s0, s1) = iv[0];
        assert!((s0 - 8.0).abs() < 1e-9);
        assert!((s1 - 12.0).abs() < 1e-9);
    }

    #[test]
    fn circle_interval_starting_inside() {
        let p = Polyline2::new(vec![Vec2::new(0.0, 0.0), Vec2::new(10.0, 0.0)]).unwrap();
        let c = Circle::new(Vec2::ZERO, 3.0);
        let iv = p.circle_intervals(&c);
        assert_eq!(iv.len(), 1);
        assert!(iv[0].0.abs() < 1e-9);
        assert!((iv[0].1 - 3.0).abs() < 1e-9);
    }

    #[test]
    fn circle_interval_missing_circle() {
        let p = Polyline2::new(vec![Vec2::new(-10.0, 5.0), Vec2::new(10.0, 5.0)]).unwrap();
        let c = Circle::new(Vec2::ZERO, 2.0);
        assert!(p.circle_intervals(&c).is_empty());
    }

    #[test]
    fn distance_to_point() {
        let p = l_shape();
        assert_eq!(p.distance_to_point(Vec2::new(5.0, 3.0)), 3.0);
        assert_eq!(p.distance_to_point(Vec2::new(10.0, 10.0)), 0.0);
    }

    #[test]
    fn slice_extracts_subpath() {
        let p = l_shape();
        let s = p.slice(5.0, 15.0).unwrap();
        assert!((s.length() - 10.0).abs() < 1e-9);
        assert_eq!(s.points()[0], Vec2::new(5.0, 0.0));
        assert_eq!(*s.points().last().unwrap(), Vec2::new(10.0, 5.0));
        // Interior vertex (the corner) is preserved.
        assert!(s.points().contains(&Vec2::new(10.0, 0.0)));
        // Clamping and degenerate ranges.
        assert!((p.slice(-5.0, 100.0).unwrap().length() - 20.0).abs() < 1e-9);
        assert!(p.slice(5.0, 5.0).is_none());
        assert!(p.slice(25.0, 30.0).is_none());
    }

    #[test]
    fn projection_finds_arclength_and_offset() {
        let p = l_shape();
        let (s, d) = p.project(Vec2::new(5.0, -2.0));
        assert!((s - 5.0).abs() < 1e-9);
        assert!((d - 2.0).abs() < 1e-9);
        // On the second leg.
        let (s, d) = p.project(Vec2::new(12.0, 5.0));
        assert!((s - 15.0).abs() < 1e-9);
        assert!((d - 2.0).abs() < 1e-9);
        // Beyond the end clamps to the final vertex.
        let (s, _) = p.project(Vec2::new(10.0, 99.0));
        assert!((s - 20.0).abs() < 1e-9);
    }
}
