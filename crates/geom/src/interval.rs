//! Closed 1D intervals, used per-axis by [`crate::Rect`] and by the STR
//! bulk-loading code in `mwsj-rtree`.

use std::fmt;

/// A closed interval `[lo, hi]` on one axis.
///
/// Intervals with `lo > hi` are considered *empty*; [`Interval::EMPTY`] is
/// the canonical empty interval and behaves as the identity of
/// [`Interval::union`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Interval {
    /// Lower endpoint.
    pub lo: f64,
    /// Upper endpoint.
    pub hi: f64,
}

impl Interval {
    /// The canonical empty interval (`[+∞, −∞]`).
    pub const EMPTY: Interval = Interval {
        lo: f64::INFINITY,
        hi: f64::NEG_INFINITY,
    };

    /// Creates the interval `[lo, hi]`.
    #[inline]
    pub const fn new(lo: f64, hi: f64) -> Self {
        Interval { lo, hi }
    }

    /// Length of the interval (0 for empty intervals).
    #[inline]
    pub fn length(&self) -> f64 {
        (self.hi - self.lo).max(0.0)
    }

    /// Returns `true` if the interval contains no point.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.lo > self.hi
    }

    /// Returns `true` if `x` lies inside the closed interval.
    #[inline]
    pub fn contains(&self, x: f64) -> bool {
        self.lo <= x && x <= self.hi
    }

    /// Returns `true` if the closed intervals share at least one point.
    #[inline]
    pub fn intersects(&self, other: &Interval) -> bool {
        self.lo <= other.hi && other.lo <= self.hi
    }

    /// Smallest interval covering both operands.
    #[inline]
    pub fn union(&self, other: &Interval) -> Interval {
        Interval::new(self.lo.min(other.lo), self.hi.max(other.hi))
    }

    /// Largest interval contained in both operands (empty if disjoint).
    #[inline]
    pub fn intersection(&self, other: &Interval) -> Interval {
        Interval::new(self.lo.max(other.lo), self.hi.min(other.hi))
    }

    /// Length of the overlap with `other` (0 if disjoint).
    #[inline]
    pub fn overlap_length(&self, other: &Interval) -> f64 {
        self.intersection(other).length()
    }

    /// Distance between the intervals (0 if they intersect): the larger
    /// of the two signed gaps, clamped at zero, so no branch depends on how
    /// the intervals lie.
    #[inline]
    pub fn distance(&self, other: &Interval) -> f64 {
        (other.lo - self.hi).max(self.lo - other.hi).max(0.0)
    }

    /// Midpoint of the interval.
    #[inline]
    pub fn center(&self) -> f64 {
        0.5 * (self.lo + self.hi)
    }
}

impl fmt::Display for Interval {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{}, {}]", self.lo, self.hi)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_interval_properties() {
        assert!(Interval::EMPTY.is_empty());
        assert_eq!(Interval::EMPTY.length(), 0.0);
        assert!(!Interval::EMPTY.contains(0.0));
    }

    #[test]
    fn empty_is_union_identity() {
        let i = Interval::new(2.0, 5.0);
        assert_eq!(Interval::EMPTY.union(&i), i);
        assert_eq!(i.union(&Interval::EMPTY), i);
    }

    #[test]
    fn intersection_of_disjoint_is_empty() {
        let a = Interval::new(0.0, 1.0);
        let b = Interval::new(2.0, 3.0);
        assert!(a.intersection(&b).is_empty());
        assert!(!a.intersects(&b));
        assert_eq!(a.overlap_length(&b), 0.0);
    }

    #[test]
    fn touching_intervals_intersect() {
        // Closed-interval semantics: sharing a single endpoint counts.
        let a = Interval::new(0.0, 1.0);
        let b = Interval::new(1.0, 2.0);
        assert!(a.intersects(&b));
        assert_eq!(a.overlap_length(&b), 0.0);
    }

    #[test]
    fn distance_between_intervals() {
        let a = Interval::new(0.0, 1.0);
        let b = Interval::new(3.0, 4.0);
        assert_eq!(a.distance(&b), 2.0);
        assert_eq!(b.distance(&a), 2.0);
        assert_eq!(a.distance(&Interval::new(0.5, 2.0)), 0.0);
    }

    #[test]
    fn center_and_length() {
        let i = Interval::new(1.0, 4.0);
        assert_eq!(i.center(), 2.5);
        assert_eq!(i.length(), 3.0);
    }
}
