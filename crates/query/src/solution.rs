//! Solutions: full assignments of objects to query variables.

use crate::{QueryGraph, VarId};
use mwsj_geom::Rect;
use std::fmt;

/// A solution assigns one object (identified by its index within its
/// dataset) to every query variable — the paper's tuple
/// `(r_{1,w}, …, r_{n,z})`.
///
/// A solution is *exact* when it violates no join condition and
/// *approximate* otherwise; see [`QueryGraph`]-based evaluation below.
#[derive(Debug, PartialEq, Eq, Hash)]
pub struct Solution {
    assignment: Vec<usize>,
}

impl Clone for Solution {
    fn clone(&self) -> Self {
        Solution::new(self.assignment.clone())
    }

    /// Reuses `self`'s vector (the derive's would drop and reallocate it).
    fn clone_from(&mut self, source: &Self) {
        self.assignment.clone_from(&source.assignment);
    }
}

impl Solution {
    /// Wraps an assignment vector (`assignment[v]` = object index for
    /// variable `v`).
    pub fn new(assignment: Vec<usize>) -> Self {
        Solution { assignment }
    }

    /// Number of variables.
    #[inline]
    pub fn len(&self) -> usize {
        self.assignment.len()
    }

    /// Returns `true` for the (degenerate) zero-variable solution.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.assignment.is_empty()
    }

    /// Object assigned to variable `v`.
    #[inline]
    pub fn get(&self, v: VarId) -> usize {
        self.assignment[v]
    }

    /// Re-instantiates variable `v` to object `obj`.
    #[inline]
    pub fn set(&mut self, v: VarId, obj: usize) {
        self.assignment[v] = obj;
    }

    /// The raw assignment slice.
    #[inline]
    pub fn as_slice(&self) -> &[usize] {
        &self.assignment
    }
}

impl fmt::Display for Solution {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "(")?;
        for (i, a) in self.assignment.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "r{},{}", i + 1, a)?;
        }
        write!(f, ")")
    }
}

impl From<Vec<usize>> for Solution {
    fn from(v: Vec<usize>) -> Self {
        Solution::new(v)
    }
}

impl QueryGraph {
    /// Inconsistency degree of `sol`: the number of violated join
    /// conditions. `rect_of(v, obj)` resolves an assignment to its MBR.
    pub fn violations<F>(&self, sol: &Solution, rect_of: F) -> usize
    where
        F: Fn(VarId, usize) -> Rect,
    {
        debug_assert_eq!(sol.len(), self.n_vars());
        self.edges()
            .iter()
            .filter(|e| {
                let ra = rect_of(e.a, sol.get(e.a));
                let rb = rect_of(e.b, sol.get(e.b));
                !e.pred.eval(&ra, &rb)
            })
            .count()
    }

    /// Similarity of `sol`: `1 − #violated / #total` (paper §6), in
    /// `[0, 1]`; 1 means an exact solution.
    pub fn similarity<F>(&self, sol: &Solution, rect_of: F) -> f64
    where
        F: Fn(VarId, usize) -> Rect,
    {
        1.0 - self.violations(sol, rect_of) as f64 / self.edge_count() as f64
    }

    /// Converts a violation count to a similarity value.
    #[inline]
    pub fn similarity_of_violations(&self, violations: usize) -> f64 {
        1.0 - violations as f64 / self.edge_count() as f64
    }

    /// Returns `true` if `sol` satisfies every join condition.
    pub fn is_exact<F>(&self, sol: &Solution, rect_of: F) -> bool
    where
        F: Fn(VarId, usize) -> Rect,
    {
        self.violations(sol, rect_of) == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::QueryGraphBuilder;
    use mwsj_geom::{Predicate, Rect};

    /// Three tiny datasets: variable v's object o has rect datasets[v][o].
    fn fixture() -> Vec<Vec<Rect>> {
        vec![
            vec![Rect::new(0.0, 0.0, 1.0, 1.0), Rect::new(5.0, 5.0, 6.0, 6.0)],
            vec![Rect::new(0.5, 0.5, 1.5, 1.5), Rect::new(9.0, 9.0, 9.5, 9.5)],
            vec![Rect::new(1.2, 1.2, 2.0, 2.0), Rect::new(0.6, 0.6, 0.7, 0.7)],
        ]
    }

    fn rect_of(data: &[Vec<Rect>]) -> impl Fn(VarId, usize) -> Rect + '_ {
        move |v, o| data[v][o]
    }

    #[test]
    fn exact_solution_has_similarity_one() {
        let data = fixture();
        let g = QueryGraph::chain(3);
        // 0:0 (0..1) ∩ 1:0 (0.5..1.5) ∩ 2:0 (1.2..2.0) — chain satisfied.
        let sol = Solution::new(vec![0, 0, 0]);
        assert_eq!(g.violations(&sol, rect_of(&data)), 0);
        assert_eq!(g.similarity(&sol, rect_of(&data)), 1.0);
        assert!(g.is_exact(&sol, rect_of(&data)));
    }

    #[test]
    fn violations_are_counted_per_edge() {
        let data = fixture();
        let g = QueryGraph::clique(3);
        // With clique: 0:0 ∩ 1:0 ok; 1:0 ∩ 2:0 ok; 0:0 ∩ 2:0 — rects
        // (0..1) and (1.2..2) are disjoint → 1 violation.
        let sol = Solution::new(vec![0, 0, 0]);
        assert_eq!(g.violations(&sol, rect_of(&data)), 1);
        assert!((g.similarity(&sol, rect_of(&data)) - 2.0 / 3.0).abs() < 1e-12);
        assert!(!g.is_exact(&sol, rect_of(&data)));
    }

    #[test]
    fn totally_inconsistent_solution() {
        let data = fixture();
        let g = QueryGraph::chain(3);
        // 0:1 is far from everything; 1:1 far from 2:0.
        let sol = Solution::new(vec![1, 1, 0]);
        assert_eq!(g.violations(&sol, rect_of(&data)), 2);
        assert_eq!(g.similarity(&sol, rect_of(&data)), 0.0);
    }

    #[test]
    fn asymmetric_predicates_respect_orientation() {
        let data = vec![
            vec![Rect::new(0.0, 0.0, 10.0, 10.0)], // big
            vec![Rect::new(1.0, 1.0, 2.0, 2.0)],   // small
        ];
        let g = QueryGraphBuilder::new(2)
            .edge_with(0, 1, Predicate::Contains)
            .build()
            .unwrap();
        let sol = Solution::new(vec![0, 0]);
        assert_eq!(g.violations(&sol, rect_of(&data)), 0);

        let g_rev = QueryGraphBuilder::new(2)
            .edge_with(1, 0, Predicate::Contains) // small contains big: false
            .build()
            .unwrap();
        assert_eq!(g_rev.violations(&sol, rect_of(&data)), 1);
    }

    #[test]
    fn solution_accessors() {
        let mut s = Solution::new(vec![3, 1, 4]);
        assert_eq!(s.len(), 3);
        assert_eq!(s.get(2), 4);
        s.set(2, 9);
        assert_eq!(s.get(2), 9);
        assert_eq!(s.as_slice(), &[3, 1, 9]);
        assert_eq!(s.to_string(), "(r1,3, r2,1, r3,9)");
    }

    #[test]
    fn similarity_of_violations_roundtrip() {
        let g = QueryGraph::clique(4); // 6 edges
        assert_eq!(g.similarity_of_violations(0), 1.0);
        assert_eq!(g.similarity_of_violations(6), 0.0);
        assert!((g.similarity_of_violations(3) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn clone_from_equals_clone_from_longer_and_shorter_sources() {
        let mut target = Solution::new(vec![1, 2, 3]);
        for source in [vec![4, 5, 6, 7, 8], vec![9], vec![], vec![3, 1, 4]] {
            let source = Solution::new(source);
            target.clone_from(&source);
            assert_eq!(target, source.clone());
            assert_eq!(target.as_slice(), source.as_slice());
        }
    }
}
