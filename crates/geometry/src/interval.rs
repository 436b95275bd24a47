//! Closed time intervals and the interval algebra of the relevance formula.
//!
//! The paper quantifies a potential collision by comparing the *passing
//! intervals* `t1`, `t2` during which two objects occupy the collision area:
//! the **collision interval** is their overlap, and the relevance term is the
//! intersection-over-union `R_ci = |ci| / |t1 ∪ t2|` (§III-A1). [`Interval`]
//! implements exactly that algebra.

use std::fmt;

/// A closed interval `[start, end]` on the time axis, in seconds.
///
/// # Examples
///
/// ```
/// use erpd_geometry::Interval;
///
/// let t1 = Interval::new(2.0, 6.0).unwrap();
/// let t2 = Interval::new(4.0, 10.0).unwrap();
/// let ci = t1.intersection(&t2).unwrap();
/// assert_eq!(ci.length(), 2.0);
/// assert_eq!(t1.iou(&t2), 2.0 / 8.0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Interval {
    start: f64,
    end: f64,
}

impl Interval {
    /// Creates an interval; returns `None` when `start > end` or either bound
    /// is non-finite.
    pub fn new(start: f64, end: f64) -> Option<Self> {
        if start.is_finite() && end.is_finite() && start <= end {
            Some(Interval { start, end })
        } else {
            None
        }
    }

    /// Lower bound.
    #[inline]
    pub fn start(&self) -> f64 {
        self.start
    }

    /// Upper bound.
    #[inline]
    pub fn end(&self) -> f64 {
        self.end
    }

    /// Length of the interval (`end - start`).
    #[inline]
    pub fn length(&self) -> f64 {
        self.end - self.start
    }

    /// True when the value lies inside the interval (inclusive).
    #[inline]
    pub fn contains(&self, t: f64) -> bool {
        (self.start..=self.end).contains(&t)
    }

    /// The overlap of two intervals, if any. A single shared point yields a
    /// zero-length interval.
    pub fn intersection(&self, other: &Interval) -> Option<Interval> {
        let s = self.start.max(other.start);
        let e = self.end.min(other.end);
        Interval::new(s, e)
    }

    /// Length of the union of two intervals (handles disjoint intervals by
    /// summing their lengths, which is the measure-theoretic union used by
    /// the IoU formula).
    pub fn union_length(&self, other: &Interval) -> f64 {
        let inter = self
            .intersection(other)
            .map(|i| i.length())
            .unwrap_or(0.0);
        self.length() + other.length() - inter
    }

    /// Intersection-over-union of two intervals, in `[0, 1]`.
    ///
    /// Returns 0 when the union has zero length (two identical instants).
    pub fn iou(&self, other: &Interval) -> f64 {
        let u = self.union_length(other);
        if u <= f64::EPSILON {
            return 0.0;
        }
        let i = self
            .intersection(other)
            .map(|iv| iv.length())
            .unwrap_or(0.0);
        (i / u).clamp(0.0, 1.0)
    }
}

impl fmt::Display for Interval {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{:.3}, {:.3}]", self.start, self.end)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn iv(a: f64, b: f64) -> Interval {
        Interval::new(a, b).unwrap()
    }

    #[test]
    fn construction_rules() {
        assert!(Interval::new(1.0, 0.0).is_none());
        assert!(Interval::new(f64::NAN, 1.0).is_none());
        assert!(Interval::new(0.0, f64::INFINITY).is_none());
        assert!(Interval::new(1.0, 1.0).is_some()); // degenerate allowed
    }

    #[test]
    fn basic_accessors() {
        let i = iv(2.0, 5.0);
        assert_eq!(i.start(), 2.0);
        assert_eq!(i.end(), 5.0);
        assert_eq!(i.length(), 3.0);
        assert!(i.contains(2.0) && i.contains(5.0) && i.contains(3.5));
        assert!(!i.contains(1.999) && !i.contains(5.001));
    }

    #[test]
    fn intersection_cases() {
        assert_eq!(iv(0.0, 4.0).intersection(&iv(2.0, 6.0)), Some(iv(2.0, 4.0)));
        assert_eq!(iv(0.0, 2.0).intersection(&iv(2.0, 3.0)), Some(iv(2.0, 2.0)));
        assert_eq!(iv(0.0, 1.0).intersection(&iv(2.0, 3.0)), None);
        // Nested intervals.
        assert_eq!(iv(0.0, 10.0).intersection(&iv(3.0, 4.0)), Some(iv(3.0, 4.0)));
    }

    #[test]
    fn union_length_cases() {
        assert_eq!(iv(0.0, 4.0).union_length(&iv(2.0, 6.0)), 6.0);
        assert_eq!(iv(0.0, 1.0).union_length(&iv(2.0, 3.0)), 2.0); // disjoint
        assert_eq!(iv(0.0, 10.0).union_length(&iv(3.0, 4.0)), 10.0); // nested
    }

    #[test]
    fn iou_matches_paper_formula() {
        // ci = 2, union = 8 -> R_ci = 0.25
        assert_eq!(iv(2.0, 6.0).iou(&iv(4.0, 10.0)), 0.25);
        // Identical intervals -> 1.
        assert_eq!(iv(1.0, 3.0).iou(&iv(1.0, 3.0)), 1.0);
        // Disjoint -> 0.
        assert_eq!(iv(0.0, 1.0).iou(&iv(5.0, 6.0)), 0.0);
        // Degenerate both-zero-length -> 0 (no NaN).
        assert_eq!(iv(1.0, 1.0).iou(&iv(1.0, 1.0)), 0.0);
    }

    #[test]
    fn display_is_nonempty() {
        assert!(!format!("{}", iv(0.0, 1.0)).is_empty());
    }
}
