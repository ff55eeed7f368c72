//! Flat contiguous leaf-entry storage (structure-of-arrays) — **probe-only**.
//!
//! [`FlatLeaves`] copies an [`RTree`]'s leaf level into four contiguous
//! `f64` coordinate arrays plus one value array, indexed per leaf by a
//! copy of the leaf level's `start` table, so that
//! [`find_best_leaf_flat`](crate::find_best_leaf_flat) can scan leaves one
//! coordinate stream at a time.
//!
//! Nothing in the engine uses it: the measured leaf-layout A/B showed no
//! wall-time win (DESIGN.md §5f) and `mwsj-core` scans the tree's own
//! rectangle arrays like every other traversal. The type,
//! [`RTree::flat_leaves`] and `find_best_leaf_flat` stay only because the
//! repository benchmark's per-layer probes (`benchmark/src/probes.rs`)
//! time them; they and `tests/flat_layout_prop.rs` leave with the next
//! benchmark change.
//!
//! Scans over this layout are bit-identical to the tree's: same
//! coordinates, same values, same entry order per leaf.
//! [`FlatLeaves::new`] copies all three verbatim, and the round-trip test
//! below locks the guarantee.

use crate::tree::RTree;
use mwsj_geom::{Point, Rect};

/// SoA copy of an [`RTree`]'s leaf level (probe-only; see the module docs).
#[derive(Debug, Clone)]
pub struct FlatLeaves<T> {
    /// Lower-left x of every leaf entry, in leaf order.
    lo_x: Vec<f64>,
    /// Lower-left y.
    lo_y: Vec<f64>,
    /// Upper-right x.
    hi_x: Vec<f64>,
    /// Upper-right y.
    hi_y: Vec<f64>,
    /// Leaf payloads, parallel to the coordinate arrays.
    values: Vec<T>,
    /// Leaf `k` owns `start[k]..start[k + 1]` of the arrays.
    start: Vec<u32>,
}

impl<T: Copy> FlatLeaves<T> {
    /// Builds the flat view by splitting the leaf level's rectangles into
    /// coordinate streams, leaf order kept.
    pub(crate) fn new(tree: &RTree<T>) -> Self {
        let rects = tree.leaf_rects();
        FlatLeaves {
            lo_x: rects.iter().map(|r| r.min.x).collect(),
            lo_y: rects.iter().map(|r| r.min.y).collect(),
            hi_x: rects.iter().map(|r| r.max.x).collect(),
            hi_y: rects.iter().map(|r| r.max.y).collect(),
            values: tree.leaf_values().to_vec(),
            start: tree.levels[0].start.clone(),
        }
    }
}

impl<T> FlatLeaves<T> {
    /// Total number of leaf entries captured by the snapshot.
    #[inline]
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// Returns `true` if the snapshot holds no leaf entries.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// Bytes occupied by the SoA arrays (coordinates + values + starts).
    pub fn memory_bytes(&self) -> usize {
        4 * self.lo_x.len() * std::mem::size_of::<f64>()
            + self.values.len() * std::mem::size_of::<T>()
            + self.start.len() * std::mem::size_of::<u32>()
    }

    /// The index range of leaf `leaf`'s entries in the arrays.
    #[inline]
    fn span(&self, leaf: usize) -> std::ops::Range<usize> {
        self.start[leaf] as usize..self.start[leaf + 1] as usize
    }

    /// The MBRs of leaf `leaf`'s entries, in slot order. Coordinates
    /// were stored normalised (`min ≤ max`), so rebuilding a rectangle is
    /// branch-free.
    #[inline]
    pub(crate) fn rects(&self, leaf: usize) -> impl ExactSizeIterator<Item = Rect> + '_ {
        self.span(leaf).map(|i| Rect {
            min: Point::new(self.lo_x[i], self.lo_y[i]),
            max: Point::new(self.hi_x[i], self.hi_y[i]),
        })
    }

    /// The payloads of leaf `leaf`'s entries, in slot order.
    #[inline]
    pub(crate) fn values(&self, leaf: usize) -> &[T] {
        &self.values[self.span(leaf)]
    }
}

#[cfg(test)]
mod tests {
    use crate::{RTree, RTreeParams};
    use mwsj_geom::Rect;
    use rand::rngs::StdRng;
    use rand::{RngExt, SeedableRng};

    fn random_items(seed: u64, n: usize) -> Vec<(Rect, u32)> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..n)
            .map(|i| {
                let x = rng.random_range(0.0..1.0);
                let y = rng.random_range(0.0..1.0);
                (Rect::new(x, y, x + 0.02, y + 0.02), i as u32)
            })
            .collect()
    }

    /// Every leaf node's span reproduces its entries verbatim, at every
    /// node capacity.
    #[test]
    fn flat_view_matches_entry_layout_per_node() {
        let items = random_items(3, 2_000);
        let trees = [4, 8, 32]
            .map(|cap| RTree::bulk_load_with_params(RTreeParams::new(cap), items.clone()));
        for tree in &trees {
            let flat = tree.flat_leaves();
            assert_eq!(flat.len(), tree.len());
            assert!(flat.memory_bytes() > 0);
            // Walk the tree; at each leaf, the span must mirror the node.
            let mut stack = vec![tree.root_node()];
            let mut seen = 0usize;
            while let Some(node) = stack.pop() {
                if node.is_leaf() {
                    assert_eq!(flat.rects(node.index()).len(), node.len());
                    assert!(flat.rects(node.index()).eq(node.rects().iter().copied()));
                    assert_eq!(flat.values(node.index()), node.values());
                    seen += node.len();
                } else {
                    stack.extend(node.entries().map(|e| e.child().expect("internal entry")));
                }
            }
            assert_eq!(seen, tree.len());
        }
    }

    #[test]
    fn empty_tree_yields_empty_view() {
        let tree: RTree<u32> = RTree::bulk_load(Vec::new());
        let flat = tree.flat_leaves();
        assert!(flat.is_empty());
        assert_eq!(flat.len(), 0);
    }
}
