//! Binary spatial predicates for query-graph edges.
//!
//! The paper's standard join condition is *overlap* ([`Predicate::Intersects`]).
//! Its Discussion section notes that the algorithms "are easily extensible to
//! other spatial predicates, such as northeast, inside, near etc." — those
//! predicates are implemented here so every search algorithm works unchanged
//! with them.
//!
//! Each predicate provides two tests:
//!
//! * [`Predicate::eval`] — the exact object-level test between two MBRs, and
//! * [`Predicate::possible`] — the node-level *pruning* test: given the MBR of
//!   an R-tree node, can **any** rectangle enclosed in it satisfy the
//!   predicate against the window `b`? This is what `find best value`
//!   (Fig. 5 of the paper) and the systematic algorithms use to decide
//!   whether to descend into a subtree.
//!
//! `possible` must never produce false negatives (it is an *admissible*
//! filter); false positives merely cost extra node visits. This soundness
//! property is checked by property-based tests.
//!
//! Each test also has a **batch form** — [`Predicate::tally_eval`] and
//! [`Predicate::tally_possible`] — that holds one window against a whole
//! node's rectangles and adds every verdict to a per-rectangle count. It is
//! what the multi-window traversals run: the predicate is matched once per
//! window instead of once per (rectangle, window) pair, and the loop over the
//! rectangles contains no branch that depends on the data. All comparison
//! bodies are branch-free (`&` over the float compares) and written once:
//! the batch forms call `eval` / `possible` with the variant fixed, so the
//! two forms cannot disagree.

use crate::{Point, Rect};
use std::borrow::Borrow;
use std::fmt;

/// A binary spatial predicate `a P b` between two MBRs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Predicate {
    /// `a` and `b` share at least one point (overlap / non-disjoint); the
    /// paper's default join condition.
    Intersects,
    /// `a` entirely contains `b`.
    Contains,
    /// `a` lies entirely inside `b`.
    Inside,
    /// `a` lies strictly to the north-east of `b`: every point of `a`
    /// dominates every point of `b` in both coordinates.
    NorthEast,
    /// `a` lies strictly to the south-west of `b` (transpose of
    /// [`Predicate::NorthEast`]).
    SouthWest,
    /// The minimum distance between `a` and `b` is at most the given ε
    /// (the paper's *near* predicate).
    WithinDistance(f64),
}

/// `p` dominates `q`: at least as far north and east (closed, so touching
/// counts). The directional predicates are this test on two corners.
#[inline]
fn dominates(p: &Point, q: &Point) -> bool {
    (p.x >= q.x) & (p.y >= q.y)
}

/// The *near* test; `eps` is a distance and therefore not negative (the
/// window planners of the grid clamp it, so a negative ε would make the
/// backends disagree — the CLI rejects it at parse time).
#[inline]
fn within(a: &Rect, b: &Rect, eps: f64) -> bool {
    debug_assert!(eps >= 0.0, "within-distance needs ε ≥ 0, got {eps}");
    a.min_distance_sq(b) <= eps * eps
}

impl Predicate {
    /// Evaluates the predicate between two object MBRs.
    #[inline]
    pub fn eval(&self, a: &Rect, b: &Rect) -> bool {
        match *self {
            Predicate::Intersects => a.intersects(b),
            Predicate::Contains => a.contains(b),
            Predicate::Inside => b.contains(a),
            Predicate::NorthEast => dominates(&a.min, &b.max),
            Predicate::SouthWest => dominates(&b.min, &a.max),
            Predicate::WithinDistance(eps) => within(a, b, eps),
        }
    }

    /// Node-level pruning test: returns `true` if some rectangle enclosed in
    /// `node` **could** satisfy `self` against the window `b`.
    ///
    /// Admissibility: for every `r` with `node.contains(&r)`, if
    /// `self.eval(&r, b)` then `self.possible(node, b)`.
    ///
    /// Monotonicity: for every `c` with `node.contains(&c)`, if
    /// `self.possible(&c, b)` then `self.possible(node, b)` — a window a
    /// node's rectangle fails, every rectangle inside it fails too, under
    /// `eval` and `possible` alike. Both hold in `f64`, not only in the
    /// reals: the tests compare coordinates, `min`/`max` are exact and
    /// rounding is monotone. The R\*-tree's multi-window scan relies on
    /// them to skip, below a node, the windows the node fails.
    #[inline]
    pub fn possible(&self, node: &Rect, b: &Rect) -> bool {
        match *self {
            Predicate::Intersects => node.intersects(b),
            // A candidate containing b must itself be covered by the node MBR,
            // so the node MBR must cover b.
            Predicate::Contains => node.contains(b),
            // A candidate inside b is also inside the node MBR, so the two
            // must share at least a point.
            Predicate::Inside => node.intersects(b),
            // Some sub-rectangle of the node can sit NE of b iff the node
            // reaches at least as far NE as b's upper-right corner.
            Predicate::NorthEast => dominates(&node.max, &b.max),
            Predicate::SouthWest => dominates(&b.min, &node.min),
            Predicate::WithinDistance(eps) => within(node, b, eps),
        }
    }

    /// Batch form of [`Predicate::eval`]: for every rectangle `rᵢ` of
    /// `rects`, adds `self.eval(rᵢ, b) as u32` to `counts[i]`. Calling it
    /// once per window over zeroed counts leaves in `counts[i]` the number
    /// of windows `rᵢ` satisfies.
    ///
    /// # Panics
    /// Panics if `rects` and `counts` differ in length.
    pub fn tally_eval<I>(&self, b: &Rect, rects: I, counts: &mut [u32])
    where
        I: IntoIterator,
        I::IntoIter: ExactSizeIterator,
        I::Item: Borrow<Rect>,
    {
        self.tally(b, rects.into_iter(), counts, Predicate::eval);
    }

    /// Batch form of [`Predicate::possible`]: adds
    /// `self.possible(nodeᵢ, b) as u32` to `counts[i]` for every node MBR of
    /// `nodes`.
    ///
    /// # Panics
    /// Panics if `nodes` and `counts` differ in length.
    pub fn tally_possible<I>(&self, b: &Rect, nodes: I, counts: &mut [u32])
    where
        I: IntoIterator,
        I::IntoIter: ExactSizeIterator,
        I::Item: Borrow<Rect>,
    {
        self.tally(b, nodes.into_iter(), counts, Predicate::possible);
    }

    /// Runs `counts[i] += test(self, rectᵢ, b)` over `rects`.
    ///
    /// The match sits outside the loop and hands every arm a predicate
    /// whose variant is a constant: `test` (`eval` or `possible`) is
    /// inlined into the arm's loop and its own match folds to the one
    /// comparison body, so the loop neither dispatches nor branches on the
    /// rectangles. That folding is the optimiser's, and no correctness test
    /// can see it go: what holds it is the benchmark's `solve_s` on the
    /// R\*-tree rows and the traced `rtree.multiwindow_entry.ns_per_call`
    /// (DESIGN §5e has the numbers to compare against).
    #[inline]
    fn tally<R: Borrow<Rect>>(
        &self,
        b: &Rect,
        rects: impl ExactSizeIterator<Item = R>,
        counts: &mut [u32],
        test: impl Fn(&Predicate, &Rect, &Rect) -> bool + Copy,
    ) {
        assert_eq!(rects.len(), counts.len(), "one count per rectangle");
        let run = |fixed: Predicate| {
            for (count, rect) in counts.iter_mut().zip(rects) {
                *count += test(&fixed, rect.borrow(), b) as u32;
            }
        };
        match *self {
            Predicate::Intersects => run(Predicate::Intersects),
            Predicate::Contains => run(Predicate::Contains),
            Predicate::Inside => run(Predicate::Inside),
            Predicate::NorthEast => run(Predicate::NorthEast),
            Predicate::SouthWest => run(Predicate::SouthWest),
            Predicate::WithinDistance(eps) => run(Predicate::WithinDistance(eps)),
        }
    }

    /// The predicate as seen from the other operand: `a P b  ⇔  b P' a`.
    ///
    /// Query graphs store each edge once; when an algorithm evaluates the
    /// edge from the opposite endpoint it uses the transposed predicate.
    #[inline]
    pub fn transpose(&self) -> Predicate {
        match *self {
            Predicate::Intersects => Predicate::Intersects,
            Predicate::Contains => Predicate::Inside,
            Predicate::Inside => Predicate::Contains,
            Predicate::NorthEast => Predicate::SouthWest,
            Predicate::SouthWest => Predicate::NorthEast,
            Predicate::WithinDistance(eps) => Predicate::WithinDistance(eps),
        }
    }
}

impl Default for Predicate {
    /// The paper's standard join condition.
    fn default() -> Self {
        Predicate::Intersects
    }
}

impl fmt::Display for Predicate {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            Predicate::Intersects => write!(f, "intersects"),
            Predicate::Contains => write!(f, "contains"),
            Predicate::Inside => write!(f, "inside"),
            Predicate::NorthEast => write!(f, "northeast"),
            Predicate::SouthWest => write!(f, "southwest"),
            Predicate::WithinDistance(eps) => write!(f, "within({eps})"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn r(x1: f64, y1: f64, x2: f64, y2: f64) -> Rect {
        Rect::new(x1, y1, x2, y2)
    }

    const ALL: [Predicate; 6] = [
        Predicate::Intersects,
        Predicate::Contains,
        Predicate::Inside,
        Predicate::NorthEast,
        Predicate::SouthWest,
        Predicate::WithinDistance(0.3),
    ];

    #[test]
    fn intersects_matches_rect_test() {
        let a = r(0.0, 0.0, 1.0, 1.0);
        let b = r(0.5, 0.5, 2.0, 2.0);
        let c = r(3.0, 3.0, 4.0, 4.0);
        assert!(Predicate::Intersects.eval(&a, &b));
        assert!(!Predicate::Intersects.eval(&a, &c));
    }

    #[test]
    fn contains_and_inside_are_transposes() {
        let big = r(0.0, 0.0, 10.0, 10.0);
        let small = r(1.0, 1.0, 2.0, 2.0);
        assert!(Predicate::Contains.eval(&big, &small));
        assert!(!Predicate::Contains.eval(&small, &big));
        assert!(Predicate::Inside.eval(&small, &big));
        assert!(!Predicate::Inside.eval(&big, &small));
    }

    #[test]
    fn northeast_semantics() {
        let b = r(0.0, 0.0, 1.0, 1.0);
        let ne = r(2.0, 2.0, 3.0, 3.0);
        let touching = r(1.0, 1.0, 2.0, 2.0);
        let east_only = r(2.0, 0.0, 3.0, 1.0);
        assert!(Predicate::NorthEast.eval(&ne, &b));
        assert!(Predicate::NorthEast.eval(&touching, &b));
        assert!(!Predicate::NorthEast.eval(&east_only, &b));
        assert!(Predicate::SouthWest.eval(&b, &ne));
    }

    #[test]
    fn within_distance_semantics() {
        let a = r(0.0, 0.0, 1.0, 1.0);
        let b = r(2.0, 1.0, 3.0, 2.0); // gap of 1.0 in x
        assert!(Predicate::WithinDistance(1.0).eval(&a, &b));
        assert!(!Predicate::WithinDistance(0.5).eval(&a, &b));
        // Intersecting rects are within any non-negative distance.
        assert!(Predicate::WithinDistance(0.0).eval(&a, &r(0.5, 0.5, 2.0, 2.0)));
    }

    #[test]
    fn transpose_is_involutive() {
        for p in ALL {
            assert_eq!(p.transpose().transpose(), p);
        }
    }

    #[test]
    fn transpose_swaps_operands() {
        let pairs = [
            (r(0.0, 0.0, 4.0, 4.0), r(1.0, 1.0, 2.0, 2.0)),
            (r(2.0, 2.0, 3.0, 3.0), r(0.0, 0.0, 1.0, 1.0)),
            (r(0.0, 0.0, 1.0, 1.0), r(0.5, 0.5, 1.5, 1.5)),
            (r(5.0, 5.0, 6.0, 6.0), r(0.0, 0.0, 1.0, 1.0)),
        ];
        for p in ALL {
            for (a, b) in &pairs {
                assert_eq!(
                    p.eval(a, b),
                    p.transpose().eval(b, a),
                    "predicate {p} on {a} / {b}"
                );
            }
        }
    }

    #[test]
    fn possible_is_weaker_than_eval_on_self() {
        // If the object itself satisfies the predicate, a node MBR equal to
        // the object must pass the pruning test.
        let windows = [r(0.0, 0.0, 1.0, 1.0), r(2.0, 2.0, 3.0, 3.0)];
        let objs = [
            r(0.5, 0.5, 2.5, 2.5),
            r(1.5, 1.5, 1.75, 1.75),
            r(3.0, 3.0, 4.0, 4.0),
        ];
        for p in ALL {
            for w in &windows {
                for o in &objs {
                    if p.eval(o, w) {
                        assert!(p.possible(o, w), "{p}: eval true but possible false");
                    }
                }
            }
        }
    }

    #[test]
    fn default_is_intersects() {
        assert_eq!(Predicate::default(), Predicate::Intersects);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    fn arb_rect() -> impl Strategy<Value = Rect> {
        (0.0f64..1.0, 0.0f64..1.0, 0.0f64..0.5, 0.0f64..0.5)
            .prop_map(|(x, y, w, h)| Rect::new(x, y, x + w, y + h))
    }

    fn arb_pred() -> impl Strategy<Value = Predicate> {
        prop_oneof![
            Just(Predicate::Intersects),
            Just(Predicate::Contains),
            Just(Predicate::Inside),
            Just(Predicate::NorthEast),
            Just(Predicate::SouthWest),
            (0.0f64..0.5).prop_map(Predicate::WithinDistance),
        ]
    }

    /// Rectangles on a coarse lattice: drawn pairs share edges exactly,
    /// touch at corners, nest with common sides and collapse to segments
    /// and points (zero extent).
    fn lattice_rect() -> impl Strategy<Value = Rect> {
        (0u32..6, 0u32..6, 0u32..4, 0u32..4).prop_map(|(x, y, w, h)| {
            let at = |i: u32| f64::from(i) / 4.0;
            Rect::new(at(x), at(y), at(x + w), at(y + h))
        })
    }

    fn arb_scan_rect() -> impl Strategy<Value = Rect> {
        prop_oneof![lattice_rect(), arb_rect()]
    }

    fn arb_scan_pred() -> impl Strategy<Value = Predicate> {
        prop_oneof![
            arb_pred(),
            Just(Predicate::WithinDistance(0.0)),
            Just(Predicate::WithinDistance(0.25)),
        ]
    }

    proptest! {
        /// The batch forms are the per-pair tests, summed: over any
        /// rectangle list (empty included) and any window — the empty
        /// rectangle included, which nothing contains and which contains
        /// nothing — `tally_eval` / `tally_possible` add exactly
        /// `eval` / `possible` to every count, and `eval ⇒ possible`.
        #[test]
        fn tally_equals_a_loop_of_the_definitions(
            p in arb_scan_pred(),
            window in prop_oneof![arb_scan_rect(), Just(Rect::EMPTY)],
            rects in prop::collection::vec(arb_scan_rect(), 0..40),
            prior in 0u32..9,
        ) {
            let mut evals = vec![prior; rects.len()];
            p.tally_eval(&window, &rects, &mut evals);
            let mut possibles = vec![prior; rects.len()];
            p.tally_possible(&window, rects.iter().copied(), &mut possibles);
            for (i, r) in rects.iter().enumerate() {
                prop_assert_eq!(evals[i], prior + p.eval(r, &window) as u32, "{} eval #{}", p, i);
                prop_assert_eq!(
                    possibles[i],
                    prior + p.possible(r, &window) as u32,
                    "{} possible #{}", p, i
                );
                prop_assert!(evals[i] <= possibles[i], "{}: eval without possible", p);
            }
        }

        /// Admissibility of the pruning test: any object inside a node that
        /// satisfies the predicate forces `possible(node, b)` to hold.
        #[test]
        fn possible_is_admissible(
            p in arb_pred(),
            obj in arb_rect(),
            window in arb_rect(),
            grow in 0.0f64..0.3,
        ) {
            let node = obj.inflate(grow); // any node MBR enclosing obj
            if p.eval(&obj, &window) {
                prop_assert!(p.possible(&node, &window));
            }
        }

        /// The two properties the R*-tree's window filter rests on, for
        /// `m = c ∪ other` (exact in `f64`) under all six predicates:
        /// `possible(c, w) ⇒ possible(m, w)` and `eval(c, w) ⇒
        /// possible(m, w)` — over lattice rectangles (shared borders, zero
        /// extent), random ones, and the empty window.
        #[test]
        fn possible_is_monotone_under_containment(
            c in arb_scan_rect(),
            other in arb_scan_rect(),
            window in prop_oneof![arb_scan_rect(), Just(Rect::EMPTY)],
            eps in 0.0f64..0.5,
        ) {
            let m = c.union(&other);
            prop_assert!(m.contains(&c));
            let all = [
                Predicate::Intersects,
                Predicate::Contains,
                Predicate::Inside,
                Predicate::NorthEast,
                Predicate::SouthWest,
                Predicate::WithinDistance(0.0),
                Predicate::WithinDistance(eps),
            ];
            for p in all {
                let outer = p.possible(&m, &window);
                let what = format!("{p}: {c} in {m} against {window}");
                prop_assert!(!p.possible(&c, &window) || outer, "possible: {}", what);
                prop_assert!(!p.eval(&c, &window) || outer, "eval: {}", what);
            }
        }

        /// `a P b` iff `b P' a` for random rectangles.
        #[test]
        fn transpose_consistency(p in arb_pred(), a in arb_rect(), b in arb_rect()) {
            prop_assert_eq!(p.eval(&a, &b), p.transpose().eval(&b, &a));
        }

        /// Intersection is symmetric and agrees with overlap area.
        #[test]
        fn intersects_agrees_with_overlap_area(a in arb_rect(), b in arb_rect()) {
            prop_assert_eq!(a.intersects(&b), b.intersects(&a));
            if a.overlap_area(&b) > 0.0 {
                prop_assert!(a.intersects(&b));
            }
        }

        /// Union contains both operands; intersection is contained in both.
        #[test]
        fn union_intersection_lattice(a in arb_rect(), b in arb_rect()) {
            let u = a.union(&b);
            prop_assert!(u.contains(&a) && u.contains(&b));
            let i = a.intersection(&b);
            if !i.is_empty() {
                prop_assert!(a.contains(&i) && b.contains(&i));
            }
        }
    }
}
