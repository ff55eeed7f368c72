//! The `RTree` container: one packed array per level and basic accessors.
//!
//! ```text
//! level 2 (root)  rects [ A  B ]                     start [0 2]
//! level 1         rects [ a  b  c | d  e ]           start [0 3 5]
//! level 0 (leaf)  rects [ r r r | r r | r r r | … ]  start [0 3 5 8 …]
//!                 values[ o o o | o o | o o o | … ]  (parallel to the leaf rects)
//! entry j of level ℓ is node j of level ℓ−1: A = node 0 of level 1 = entries a b c
//! ```
//!
//! A node is a `(level, index)` pair and owns the run
//! `rects[start[index]..start[index + 1]]` of its level; an internal entry
//! needs no child id because its position *is* the child's index. The leaf
//! level holds the dataset's rectangles themselves, permuted once into STR
//! order — there is no second copy. The leaf arrays are reference-counted
//! so that the uniform grid ([`crate::UniformGrid::over_leaves`]) indexes
//! the same rectangles and payloads instead of copying them.

use crate::params::RTreeParams;
use crate::visit::NodeRef;
use mwsj_geom::Rect;
use std::ops::Range;
use std::sync::Arc;

/// One level of the tree: the entry rectangles of its nodes, node after
/// node, and where each node's run begins.
#[derive(Debug)]
pub(crate) struct Level {
    /// Data rectangles on level 0, child-node MBRs above.
    pub rects: Arc<[Rect]>,
    /// Node `k` owns `rects[start[k]..start[k + 1]]`; one more cell than
    /// the level has nodes.
    pub start: Vec<u32>,
}

impl Level {
    /// Number of nodes on the level.
    #[inline]
    pub(crate) fn nodes(&self) -> usize {
        self.start.len() - 1
    }

    /// The run of node `index` in `rects`.
    #[inline]
    pub(crate) fn span(&self, index: usize) -> Range<usize> {
        self.start[index] as usize..self.start[index + 1] as usize
    }
}

/// A static R-tree over rectangles with payloads of type `T`, built once
/// by STR bulk loading ([`RTree::bulk_load`]) and immutable afterwards.
///
/// In this project `T` is an object id (`u32`/`usize` index into a
/// dataset), but any `Copy` type works.
///
/// ```
/// use mwsj_rtree::{multiwindow::for_each_candidate, RTree};
/// use mwsj_geom::{Predicate, Rect};
///
/// let items = (0..100u32)
///     .map(|i| {
///         let x = (i % 10) as f64;
///         let y = (i / 10) as f64;
///         (Rect::new(x, y, x + 0.5, y + 0.5), i)
///     })
///     .collect();
/// let tree = RTree::bulk_load(items);
/// assert_eq!(tree.len(), 100);
/// // A window query is the candidate walk with one window.
/// let window = [(Predicate::Intersects, Rect::new(0.0, 0.0, 1.0, 1.0))];
/// let (mut hits, mut node_accesses) = (Vec::new(), 0);
/// for_each_candidate(tree.root_node(), &window, 1, &mut node_accesses, &mut [], |id, _| {
///     hits.push(id)
/// });
/// hits.sort_unstable(); // they arrive in leaf (STR) order
/// assert_eq!(hits, [0, 1, 10, 11]); // boundary touches count
/// ```
#[derive(Debug)]
pub struct RTree<T> {
    pub(crate) params: RTreeParams,
    /// `[0]` = leaf level; the last level holds the root, its only node.
    pub(crate) levels: Vec<Level>,
    /// Leaf payloads, parallel to `levels[0].rects`.
    pub(crate) values: Arc<[T]>,
}

impl<T> RTree<T> {
    /// Number of data entries stored.
    #[inline]
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// Returns `true` if the tree stores no data.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// Number of levels (1 for a tree that is a single leaf).
    #[inline]
    pub fn height(&self) -> u32 {
        self.levels.len() as u32
    }

    /// The structural parameters the tree was built with.
    #[inline]
    pub fn params(&self) -> &RTreeParams {
        &self.params
    }

    /// Number of nodes (internal + leaf).
    pub fn node_count(&self) -> usize {
        self.levels.iter().map(Level::nodes).sum()
    }

    /// Bounding box of the whole dataset ([`Rect::EMPTY`] when empty).
    pub fn bounding_box(&self) -> Rect {
        self.root_node().mbr()
    }

    /// The stored rectangles in leaf order — STR order, leaf after leaf —
    /// paired index for index with [`RTree::leaf_values`].
    #[inline]
    pub fn leaf_rects(&self) -> &[Rect] {
        &self.levels[0].rects
    }

    /// The payloads in leaf order (see [`RTree::leaf_rects`]).
    #[inline]
    pub fn leaf_values(&self) -> &[T] {
        &self.values
    }

    /// New handles on the two leaf arrays, for an index that shares them.
    pub(crate) fn shared_leaves(&self) -> (Arc<[Rect]>, Arc<[T]>) {
        (Arc::clone(&self.levels[0].rects), Arc::clone(&self.values))
    }

    /// Read-only view of the root node, entry point of the traversal API
    /// used by the join algorithms (`find best value`, ST, IBB).
    pub fn root_node(&self) -> NodeRef<'_, T> {
        NodeRef::new(self, self.height() - 1, 0)
    }

    /// Iterates over every stored `(mbr, payload)` pair, in leaf order.
    pub fn iter(&self) -> impl Iterator<Item = (&Rect, &T)> + '_ {
        self.leaf_rects().iter().zip(self.leaf_values())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_tree() {
        let tree: RTree<u32> = RTree::bulk_load(Vec::new());
        assert!(tree.is_empty());
        assert_eq!(tree.len(), 0);
        assert_eq!(tree.height(), 1);
        assert_eq!(tree.node_count(), 1);
        assert!(tree.bounding_box().is_empty());
        assert_eq!(tree.iter().count(), 0);
    }
}
