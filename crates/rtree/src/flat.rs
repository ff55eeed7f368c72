//! Flat contiguous leaf-entry storage (structure-of-arrays) — **probe-only**.
//!
//! [`FlatLeaves`] copies an [`RTree`]'s leaf level into four contiguous
//! `f64` coordinate arrays plus one value array, indexed per node by a
//! `(start, len)` span, so that [`find_best_leaf_flat`](crate::find_best_leaf_flat)
//! can scan leaves without the 40-byte entry stride and payload branch.
//!
//! Nothing in the engine uses it: the measured leaf-layout A/B showed no
//! wall-time win (DESIGN.md §5f) and `mwsj-core` scans the entry layout
//! like every other traversal. The type, [`RTree::flat_leaves`] and
//! `find_best_leaf_flat` stay only because the repository benchmark's
//! per-layer probes (`benchmark/src/probes.rs`) time them; they and
//! `tests/flat_layout_prop.rs` leave with the next benchmark change.
//!
//! Scans over this layout are bit-identical to the entry layout: same
//! coordinates, same values, same entry order per node.
//! [`FlatLeaves::new`] copies all three verbatim, and the round-trip test
//! below locks the guarantee.

use crate::node::NodeId;
use crate::tree::RTree;
use mwsj_geom::{Point, Rect};

/// SoA copy of an [`RTree`]'s leaf level (probe-only; see the module docs).
#[derive(Debug, Clone)]
pub struct FlatLeaves<T> {
    /// Lower-left x of every leaf entry, in (node, slot) order.
    lo_x: Vec<f64>,
    /// Lower-left y.
    lo_y: Vec<f64>,
    /// Upper-right x.
    hi_x: Vec<f64>,
    /// Upper-right y.
    hi_y: Vec<f64>,
    /// Leaf payloads, parallel to the coordinate arrays.
    values: Vec<T>,
    /// Per node-id `(start, len)` span into the arrays; `(0, 0)` for
    /// internal nodes.
    spans: Vec<(u32, u32)>,
}

impl<T: Copy> FlatLeaves<T> {
    /// Builds the flat view by walking the tree from its root and copying
    /// every leaf node's entries in entry order.
    pub(crate) fn new(tree: &RTree<T>) -> Self {
        let mut flat = FlatLeaves {
            lo_x: Vec::with_capacity(tree.len()),
            lo_y: Vec::with_capacity(tree.len()),
            hi_x: Vec::with_capacity(tree.len()),
            hi_y: Vec::with_capacity(tree.len()),
            values: Vec::with_capacity(tree.len()),
            spans: vec![(0, 0); tree.nodes.len()],
        };
        let mut stack = vec![tree.root];
        while let Some(id) = stack.pop() {
            let node = tree.node(id);
            if node.is_leaf() {
                let start = flat.values.len() as u32;
                for entry in &node.entries {
                    flat.lo_x.push(entry.mbr.min.x);
                    flat.lo_y.push(entry.mbr.min.y);
                    flat.hi_x.push(entry.mbr.max.x);
                    flat.hi_y.push(entry.mbr.max.y);
                    flat.values.push(*entry.value());
                }
                flat.spans[id.index()] = (start, node.entries.len() as u32);
            } else {
                for entry in &node.entries {
                    stack.push(entry.child_id());
                }
            }
        }
        flat
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

    /// Bytes occupied by the SoA arrays (coordinates + values + spans).
    pub fn memory_bytes(&self) -> usize {
        4 * self.lo_x.len() * std::mem::size_of::<f64>()
            + self.values.len() * std::mem::size_of::<T>()
            + self.spans.len() * std::mem::size_of::<(u32, u32)>()
    }

    /// The index range of leaf node `id`'s entries in the arrays.
    #[inline]
    fn span(&self, id: NodeId) -> std::ops::Range<usize> {
        let (start, len) = self.spans[id.index()];
        start as usize..(start + len) as usize
    }

    /// The MBRs of leaf node `id`'s entries, in slot order. Coordinates
    /// were stored normalised (`min ≤ max`), so rebuilding a rectangle is
    /// branch-free.
    #[inline]
    pub(crate) fn rects(&self, id: NodeId) -> impl ExactSizeIterator<Item = Rect> + '_ {
        self.span(id).map(|i| Rect {
            min: Point::new(self.lo_x[i], self.lo_y[i]),
            max: Point::new(self.hi_x[i], self.hi_y[i]),
        })
    }

    /// The payloads of leaf node `id`'s entries, in slot order.
    #[inline]
    pub(crate) fn values(&self, id: NodeId) -> &[T] {
        &self.values[self.span(id)]
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
            let mut stack = vec![tree.root];
            let mut seen = 0usize;
            while let Some(id) = stack.pop() {
                let node = tree.node(id);
                if node.is_leaf() {
                    assert_eq!(flat.rects(id).len(), node.entries.len());
                    let rects = flat.rects(id).zip(flat.values(id));
                    for ((rect, value), entry) in rects.zip(&node.entries) {
                        assert_eq!(rect, entry.mbr);
                        assert_eq!(value, entry.value());
                        seen += 1;
                    }
                } else {
                    for entry in &node.entries {
                        stack.push(entry.child_id());
                    }
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
