//! Axis-aligned minimum bounding rectangles (MBRs).

use crate::{Interval, Point};
use std::fmt;

/// An axis-aligned rectangle, the MBR representation used by R-trees.
///
/// A rectangle is defined by its lower-left (`min`) and upper-right (`max`)
/// corners. Rectangles are *closed*: two rectangles sharing only a boundary
/// point are considered intersecting, matching the usual spatial-database
/// convention for the *overlap* (non-disjoint) predicate.
///
/// Degenerate rectangles (zero width and/or height) are valid and represent
/// line segments or points.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Rect {
    /// Lower-left corner.
    pub min: Point,
    /// Upper-right corner.
    pub max: Point,
}

impl Rect {
    /// The empty rectangle: identity of [`Rect::union`], intersects nothing.
    pub const EMPTY: Rect = Rect {
        min: Point {
            x: f64::INFINITY,
            y: f64::INFINITY,
        },
        max: Point {
            x: f64::NEG_INFINITY,
            y: f64::NEG_INFINITY,
        },
    };

    /// Creates a rectangle from corner coordinates `(x1, y1)`–`(x2, y2)`.
    ///
    /// The corners may be given in any order; they are normalised so that
    /// `min` is the component-wise minimum.
    #[inline]
    pub fn new(x1: f64, y1: f64, x2: f64, y2: f64) -> Self {
        Rect {
            min: Point::new(x1.min(x2), y1.min(y2)),
            max: Point::new(x1.max(x2), y1.max(y2)),
        }
    }

    /// Creates a rectangle from two corner points (any order).
    #[inline]
    pub fn from_corners(a: Point, b: Point) -> Self {
        Rect {
            min: a.min(&b),
            max: a.max(&b),
        }
    }

    /// Creates a rectangle from its center point and side extents.
    #[inline]
    pub fn from_center(center: Point, width: f64, height: f64) -> Self {
        Rect {
            min: Point::new(center.x - width / 2.0, center.y - height / 2.0),
            max: Point::new(center.x + width / 2.0, center.y + height / 2.0),
        }
    }

    /// The projection of the rectangle onto the x axis.
    #[inline]
    pub fn x_interval(&self) -> Interval {
        Interval::new(self.min.x, self.max.x)
    }

    /// The projection of the rectangle onto the y axis.
    #[inline]
    pub fn y_interval(&self) -> Interval {
        Interval::new(self.min.y, self.max.y)
    }

    /// Width of the rectangle (0 for empty rectangles).
    #[inline]
    pub fn width(&self) -> f64 {
        self.x_interval().length()
    }

    /// Height of the rectangle (0 for empty rectangles).
    #[inline]
    pub fn height(&self) -> f64 {
        self.y_interval().length()
    }

    /// Area of the rectangle (0 for empty or degenerate rectangles).
    #[inline]
    pub fn area(&self) -> f64 {
        self.width() * self.height()
    }

    /// Half-perimeter (the *margin* of BKSS90 divided by two). The R* split
    /// uses margins to pick the split axis; the factor of two is irrelevant
    /// for comparisons.
    #[inline]
    pub fn margin(&self) -> f64 {
        self.width() + self.height()
    }

    /// Center point of the rectangle.
    #[inline]
    pub fn center(&self) -> Point {
        Point::new(self.x_interval().center(), self.y_interval().center())
    }

    /// Returns `true` if the rectangle contains no point.
    #[inline]
    pub fn is_empty(&self) -> bool {
        (self.min.x > self.max.x) | (self.min.y > self.max.y)
    }

    /// Returns `true` if all four coordinates are finite.
    #[inline]
    pub fn is_finite(&self) -> bool {
        self.min.is_finite() && self.max.is_finite()
    }

    /// Returns `true` if the closed rectangles share at least one point
    /// (the paper's default *overlap* join predicate).
    ///
    /// The four compares are joined with `&`, not `&&`: they are cheaper
    /// than the mispredicted branch a short circuit costs in a scan over
    /// many rectangles (see [`Predicate`](crate::Predicate)'s batch form).
    #[inline]
    pub fn intersects(&self, other: &Rect) -> bool {
        (self.min.x <= other.max.x)
            & (other.min.x <= self.max.x)
            & (self.min.y <= other.max.y)
            & (other.min.y <= self.max.y)
    }

    /// Returns `true` if `p` lies inside the closed rectangle.
    #[inline]
    pub fn contains_point(&self, p: &Point) -> bool {
        self.min.x <= p.x && p.x <= self.max.x && self.min.y <= p.y && p.y <= self.max.y
    }

    /// Returns `true` if `other` lies entirely inside `self` (an empty
    /// `other` lies inside nothing). Branch-free like [`Rect::intersects`].
    #[inline]
    pub fn contains(&self, other: &Rect) -> bool {
        !other.is_empty()
            & (self.min.x <= other.min.x)
            & (self.min.y <= other.min.y)
            & (other.max.x <= self.max.x)
            & (other.max.y <= self.max.y)
    }

    /// Smallest rectangle covering both operands.
    #[inline]
    pub fn union(&self, other: &Rect) -> Rect {
        Rect {
            min: self.min.min(&other.min),
            max: self.max.max(&other.max),
        }
    }

    /// Largest rectangle contained in both operands (empty if disjoint).
    #[inline]
    pub fn intersection(&self, other: &Rect) -> Rect {
        Rect {
            min: self.min.max(&other.min),
            max: self.max.min(&other.max),
        }
    }

    /// Area of the overlap with `other` (0 if disjoint).
    #[inline]
    pub fn overlap_area(&self, other: &Rect) -> f64 {
        let ix = self.x_interval().overlap_length(&other.x_interval());
        let iy = self.y_interval().overlap_length(&other.y_interval());
        ix * iy
    }

    /// Squared minimum Euclidean distance between the rectangles (0 if
    /// they intersect). Used by the distance predicate.
    #[inline]
    pub fn min_distance_sq(&self, other: &Rect) -> f64 {
        let dx = self.x_interval().distance(&other.x_interval());
        let dy = self.y_interval().distance(&other.y_interval());
        dx * dx + dy * dy
    }

    /// Grows the rectangle by `delta` on every side.
    #[inline]
    pub fn inflate(&self, delta: f64) -> Rect {
        Rect {
            min: Point::new(self.min.x - delta, self.min.y - delta),
            max: Point::new(self.max.x + delta, self.max.y + delta),
        }
    }

    /// Smallest rectangle covering all rectangles in `iter`
    /// ([`Rect::EMPTY`] if the iterator is empty).
    pub fn union_all<'a, I: IntoIterator<Item = &'a Rect>>(iter: I) -> Rect {
        iter.into_iter().fold(Rect::EMPTY, |acc, r| acc.union(r))
    }
}

impl fmt::Display for Rect {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "[{}, {}]x[{}, {}]",
            self.min.x, self.max.x, self.min.y, self.max.y
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn r(x1: f64, y1: f64, x2: f64, y2: f64) -> Rect {
        Rect::new(x1, y1, x2, y2)
    }

    #[test]
    fn new_normalises_corners() {
        let a = Rect::new(2.0, 3.0, 0.0, 1.0);
        assert_eq!(a.min, Point::new(0.0, 1.0));
        assert_eq!(a.max, Point::new(2.0, 3.0));
    }

    #[test]
    fn area_and_margin() {
        let a = r(0.0, 0.0, 2.0, 3.0);
        assert_eq!(a.area(), 6.0);
        assert_eq!(a.margin(), 5.0);
        assert_eq!(a.width(), 2.0);
        assert_eq!(a.height(), 3.0);
    }

    #[test]
    fn empty_rect_properties() {
        assert!(Rect::EMPTY.is_empty());
        assert_eq!(Rect::EMPTY.area(), 0.0);
        assert!(!Rect::EMPTY.intersects(&r(0.0, 0.0, 1.0, 1.0)));
        assert!(!r(0.0, 0.0, 1.0, 1.0).intersects(&Rect::EMPTY));
    }

    #[test]
    fn empty_is_union_identity() {
        let a = r(0.0, 0.0, 1.0, 1.0);
        assert_eq!(Rect::EMPTY.union(&a), a);
        assert_eq!(a.union(&Rect::EMPTY), a);
    }

    #[test]
    fn intersection_tests() {
        let a = r(0.0, 0.0, 2.0, 2.0);
        let b = r(1.0, 1.0, 3.0, 3.0);
        let c = r(5.0, 5.0, 6.0, 6.0);
        assert!(a.intersects(&b));
        assert!(b.intersects(&a));
        assert!(!a.intersects(&c));
        assert_eq!(a.intersection(&b), r(1.0, 1.0, 2.0, 2.0));
        assert!(a.intersection(&c).is_empty());
        assert_eq!(a.overlap_area(&b), 1.0);
        assert_eq!(a.overlap_area(&c), 0.0);
    }

    #[test]
    fn boundary_touching_rectangles_intersect() {
        let a = r(0.0, 0.0, 1.0, 1.0);
        let edge = r(1.0, 0.0, 2.0, 1.0);
        let corner = r(1.0, 1.0, 2.0, 2.0);
        assert!(a.intersects(&edge));
        assert!(a.intersects(&corner));
        assert_eq!(a.overlap_area(&edge), 0.0);
    }

    #[test]
    fn containment() {
        let outer = r(0.0, 0.0, 10.0, 10.0);
        let inner = r(1.0, 1.0, 2.0, 2.0);
        assert!(outer.contains(&inner));
        assert!(!inner.contains(&outer));
        assert!(outer.contains(&outer));
        assert!(!outer.contains(&Rect::EMPTY));
        assert!(outer.contains_point(&Point::new(0.0, 0.0)));
        assert!(!outer.contains_point(&Point::new(-0.1, 5.0)));
    }

    #[test]
    fn min_distance_between_rects() {
        let a = r(0.0, 0.0, 1.0, 1.0);
        let b = r(4.0, 5.0, 6.0, 7.0);
        // dx = 3, dy = 4 => distance 5.
        assert_eq!(a.min_distance_sq(&b), 25.0);
        assert_eq!(a.min_distance_sq(&r(0.5, 0.5, 2.0, 2.0)), 0.0);
    }

    #[test]
    fn from_center_roundtrip() {
        let c = Point::new(0.5, 0.5);
        let a = Rect::from_center(c, 0.2, 0.4);
        assert!((a.center().x - 0.5).abs() < 1e-12);
        assert!((a.center().y - 0.5).abs() < 1e-12);
        assert!((a.width() - 0.2).abs() < 1e-12);
        assert!((a.height() - 0.4).abs() < 1e-12);
    }

    #[test]
    fn union_all_covers_everything() {
        let rects = vec![
            r(0.0, 0.0, 1.0, 1.0),
            r(5.0, 5.0, 6.0, 6.0),
            r(-1.0, 2.0, 0.0, 3.0),
        ];
        let u = Rect::union_all(&rects);
        for rect in &rects {
            assert!(u.contains(rect));
        }
        assert_eq!(Rect::union_all(std::iter::empty()), Rect::EMPTY);
    }

    #[test]
    fn inflate_grows_all_sides() {
        let a = r(0.0, 0.0, 1.0, 1.0).inflate(0.5);
        assert_eq!(a, r(-0.5, -0.5, 1.5, 1.5));
    }
}
