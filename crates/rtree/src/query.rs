//! Window, point and predicate-based queries.
//!
//! All three query kinds run through one [`QueryIter`], which is also the
//! single place node accesses are counted: pass an
//! [`AccessCounter`](crate::AccessCounter) via the `*_counted` variants
//! and every visited node increments it exactly once (the root at query
//! start, every descendant when its subtree is entered).

use crate::access::AccessCounter;
use crate::tree::RTree;
use mwsj_geom::{Predicate, Rect};

/// Depth-first query iterator shared by all filter queries.
///
/// `node_filter` decides whether a subtree can contain results;
/// `leaf_filter` decides whether a data entry is a result. The iterator is
/// lazy: it visits nodes only as results are demanded.
pub struct QueryIter<'a, T, NF, LF>
where
    NF: Fn(&Rect) -> bool,
    LF: Fn(&Rect) -> bool,
{
    tree: &'a RTree<T>,
    /// One cursor per node on the current path: its level, the next entry
    /// to look at and the end of its run, both as positions in the level's
    /// arrays.
    stack: Vec<(usize, usize, usize)>,
    node_filter: NF,
    leaf_filter: LF,
    /// Shared access-accounting hook; `None` disables counting.
    counter: Option<&'a AccessCounter>,
}

impl<'a, T, NF, LF> QueryIter<'a, T, NF, LF>
where
    NF: Fn(&Rect) -> bool,
    LF: Fn(&Rect) -> bool,
{
    fn new(
        tree: &'a RTree<T>,
        node_filter: NF,
        leaf_filter: LF,
        counter: Option<&'a AccessCounter>,
    ) -> Self {
        // The root is accessed as soon as the query starts.
        if let Some(c) = counter {
            c.inc();
        }
        let top = tree.levels.len() - 1;
        let root = tree.levels[top].span(0);
        QueryIter {
            tree,
            stack: vec![(top, root.start, root.end)],
            node_filter,
            leaf_filter,
            counter,
        }
    }
}

impl<'a, T, NF, LF> Iterator for QueryIter<'a, T, NF, LF>
where
    NF: Fn(&Rect) -> bool,
    LF: Fn(&Rect) -> bool,
{
    type Item = (&'a Rect, &'a T);

    fn next(&mut self) -> Option<Self::Item> {
        while let Some((level, cursor, end)) = self.stack.last_mut() {
            if cursor >= end {
                self.stack.pop();
                continue;
            }
            let (level, index) = (*level, *cursor);
            *cursor += 1;
            let mbr = &self.tree.levels[level].rects[index];
            if level == 0 {
                if (self.leaf_filter)(mbr) {
                    return Some((mbr, &self.tree.values[index]));
                }
            } else if (self.node_filter)(mbr) {
                if let Some(c) = self.counter {
                    c.inc();
                }
                // Entry `index` of this level is node `index` of the next.
                let child = self.tree.levels[level - 1].span(index);
                self.stack.push((level - 1, child.start, child.end));
            }
        }
        None
    }
}

impl<T> RTree<T> {
    /// All entries whose MBR intersects `window` (the classic window query).
    pub fn window<'a>(&'a self, window: &'a Rect) -> impl Iterator<Item = (&'a Rect, &'a T)> + 'a {
        QueryIter::new(
            self,
            move |node_mbr: &Rect| node_mbr.intersects(window),
            move |mbr: &Rect| mbr.intersects(window),
            None,
        )
    }

    /// [`RTree::window`] with node accesses recorded into `counter`.
    pub fn window_counted<'a>(
        &'a self,
        window: &'a Rect,
        counter: &'a AccessCounter,
    ) -> impl Iterator<Item = (&'a Rect, &'a T)> + 'a {
        QueryIter::new(
            self,
            move |node_mbr: &Rect| node_mbr.intersects(window),
            move |mbr: &Rect| mbr.intersects(window),
            Some(counter),
        )
    }

    /// All entries `r` satisfying `r P window` for an arbitrary
    /// [`Predicate`], pruning subtrees with the predicate's node-level
    /// possibility test.
    ///
    /// For [`Predicate::Intersects`] this coincides with [`RTree::window`];
    /// the generalisation serves the extended predicates (inside,
    /// north-east, within-distance) the paper's Discussion mentions.
    pub fn query_predicate<'a>(
        &'a self,
        pred: Predicate,
        window: &'a Rect,
    ) -> impl Iterator<Item = (&'a Rect, &'a T)> + 'a {
        QueryIter::new(
            self,
            move |node_mbr: &Rect| pred.possible(node_mbr, window),
            move |mbr: &Rect| pred.eval(mbr, window),
            None,
        )
    }

    /// [`RTree::query_predicate`] with node accesses recorded into
    /// `counter`.
    pub fn query_predicate_counted<'a>(
        &'a self,
        pred: Predicate,
        window: &'a Rect,
        counter: &'a AccessCounter,
    ) -> impl Iterator<Item = (&'a Rect, &'a T)> + 'a {
        QueryIter::new(
            self,
            move |node_mbr: &Rect| pred.possible(node_mbr, window),
            move |mbr: &Rect| pred.eval(mbr, window),
            Some(counter),
        )
    }

    /// Counts entries intersecting `window` without materialising them.
    pub fn count_window(&self, window: &Rect) -> usize {
        self.window(window).count()
    }

    /// [`RTree::count_window`] with node accesses recorded into `counter`.
    pub fn count_window_counted(&self, window: &Rect, counter: &AccessCounter) -> usize {
        self.window_counted(window, counter).count()
    }
}

#[cfg(test)]
mod tests {
    use crate::{RTree, RTreeParams};
    use mwsj_geom::{Predicate, Rect};
    use rand::rngs::StdRng;
    use rand::{RngExt, SeedableRng};

    fn random_tree(n: usize, seed: u64) -> (RTree<usize>, Vec<Rect>) {
        let mut rng = StdRng::seed_from_u64(seed);
        let rects: Vec<Rect> = (0..n)
            .map(|_| {
                let x: f64 = rng.random_range(0.0..1.0);
                let y: f64 = rng.random_range(0.0..1.0);
                let w: f64 = rng.random_range(0.0..0.08);
                let h: f64 = rng.random_range(0.0..0.08);
                Rect::new(x, y, x + w, y + h)
            })
            .collect();
        let tree = RTree::bulk_load_with_params(
            RTreeParams::new(8),
            rects.iter().copied().zip(0..n).collect(),
        );
        (tree, rects)
    }

    /// Window results must match a brute-force scan exactly.
    #[test]
    fn window_matches_linear_scan() {
        let (tree, rects) = random_tree(2_000, 11);
        let windows = [
            Rect::new(0.1, 0.1, 0.3, 0.3),
            Rect::new(0.0, 0.0, 1.0, 1.0),
            Rect::new(0.95, 0.95, 0.99, 0.99),
            Rect::new(2.0, 2.0, 3.0, 3.0), // off the workspace
        ];
        for w in &windows {
            let mut got: Vec<usize> = tree.window(w).map(|(_, v)| *v).collect();
            got.sort_unstable();
            let expected: Vec<usize> = rects
                .iter()
                .enumerate()
                .filter(|(_, r)| r.intersects(w))
                .map(|(i, _)| i)
                .collect();
            assert_eq!(got, expected, "window {w}");
        }
    }

    #[test]
    fn predicate_query_matches_scan_for_all_predicates() {
        let (tree, rects) = random_tree(1_500, 13);
        let window = Rect::new(0.4, 0.4, 0.6, 0.6);
        let preds = [
            Predicate::Intersects,
            Predicate::Inside,
            Predicate::Contains,
            Predicate::NorthEast,
            Predicate::SouthWest,
            Predicate::WithinDistance(0.1),
        ];
        for p in preds {
            let mut got: Vec<usize> = tree.query_predicate(p, &window).map(|(_, v)| *v).collect();
            got.sort_unstable();
            let expected: Vec<usize> = rects
                .iter()
                .enumerate()
                .filter(|(_, r)| p.eval(r, &window))
                .map(|(i, _)| i)
                .collect();
            assert_eq!(got, expected, "predicate {p}");
        }
    }

    #[test]
    fn empty_tree_returns_nothing() {
        let tree: RTree<usize> = RTree::bulk_load(Vec::new());
        assert_eq!(tree.window(&Rect::new(0.0, 0.0, 1.0, 1.0)).count(), 0);
    }

    #[test]
    fn window_query_is_lazy() {
        let (tree, _) = random_tree(5_000, 14);
        // Taking only the first result must not traverse the whole tree —
        // smoke-tested by just taking one.
        let w = Rect::new(0.0, 0.0, 1.0, 1.0);
        let first = tree.window(&w).next();
        assert!(first.is_some());
    }

    #[test]
    fn count_window_equals_iterator_count() {
        let (tree, _) = random_tree(800, 15);
        let w = Rect::new(0.2, 0.2, 0.7, 0.7);
        assert_eq!(tree.count_window(&w), tree.window(&w).count());
    }

    #[test]
    fn counted_queries_record_accesses() {
        use crate::AccessCounter;
        let (tree, _) = random_tree(2_000, 16);
        let counter = AccessCounter::new();

        // Full-coverage window touches every node exactly once.
        let w = Rect::new(-1.0, -1.0, 2.0, 2.0);
        let n = tree.window_counted(&w, &counter).count();
        assert_eq!(n, 2_000);
        assert_eq!(counter.take(), tree.node_count() as u64);

        // A selective window touches at least the root and at most all
        // nodes, and returns the same results as the uncounted query.
        let w = Rect::new(0.4, 0.4, 0.5, 0.5);
        let counted: Vec<usize> = tree.window_counted(&w, &counter).map(|(_, v)| *v).collect();
        let plain: Vec<usize> = tree.window(&w).map(|(_, v)| *v).collect();
        assert_eq!(counted, plain);
        let accesses = counter.take();
        assert!(accesses >= 1 && accesses <= tree.node_count() as u64);

        // The predicate variant also counts.
        let _ = tree
            .query_predicate_counted(Predicate::Intersects, &w, &counter)
            .count();
        assert!(counter.take() >= 1);
        assert_eq!(
            tree.count_window_counted(&w, &counter),
            tree.count_window(&w)
        );
        assert!(counter.get() >= 1);
    }

    #[test]
    fn counted_and_uncounted_visit_same_nodes() {
        use crate::AccessCounter;
        let (tree, _) = random_tree(500, 17);
        let w = Rect::new(0.1, 0.1, 0.9, 0.9);
        let counter = AccessCounter::new();
        // Counting must not change pruning decisions.
        assert_eq!(
            tree.window_counted(&w, &counter).count(),
            tree.window(&w).count()
        );
    }
}
