//! The `RTree` container: node storage and basic accessors.

use crate::node::{Node, NodeId, Payload};
use crate::params::RTreeParams;
use crate::visit::NodeRef;
use mwsj_geom::Rect;

/// A static R-tree over rectangles with payloads of type `T`, built once
/// by STR bulk loading ([`RTree::bulk_load`]) and immutable afterwards.
///
/// In this project `T` is an object id (`u32`/`usize` index into a
/// dataset), but any type works.
///
/// ```
/// use mwsj_rtree::RTree;
/// use mwsj_geom::Rect;
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
/// let window = Rect::new(0.0, 0.0, 1.0, 1.0);
/// let hits: Vec<_> = tree.window(&window).collect();
/// assert_eq!(hits.len(), 4); // (0,0), (1,0), (0,1), (1,1) — boundary touches count
/// ```
#[derive(Debug)]
pub struct RTree<T> {
    pub(crate) params: RTreeParams,
    /// Every node, addressed by [`NodeId`]; all are reachable from `root`.
    pub(crate) nodes: Vec<Node<T>>,
    pub(crate) root: NodeId,
    /// Number of levels; the root node has `level == height - 1`.
    pub(crate) height: u32,
    pub(crate) len: usize,
}

impl<T> RTree<T> {
    /// Number of data entries stored.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Returns `true` if the tree stores no data.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Number of levels (1 for a tree that is a single leaf).
    #[inline]
    pub fn height(&self) -> u32 {
        self.height
    }

    /// The structural parameters the tree was built with.
    #[inline]
    pub fn params(&self) -> &RTreeParams {
        &self.params
    }

    /// Number of nodes (internal + leaf).
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Bounding box of the whole dataset ([`Rect::EMPTY`] when empty).
    pub fn bounding_box(&self) -> Rect {
        self.node(self.root).mbr()
    }

    /// Read-only view of the root node, entry point of the traversal API
    /// used by the join algorithms (`find best value`, ST, IBB).
    pub fn root_node(&self) -> NodeRef<'_, T> {
        NodeRef::new(self, self.root)
    }

    /// [`RTree::root_node`] with node accesses recorded into `counter`:
    /// the root counts immediately and every child materialised through
    /// [`EntryRef::child`](crate::EntryRef::child) below it counts once.
    pub fn root_node_counted<'a>(&'a self, counter: &'a crate::AccessCounter) -> NodeRef<'a, T> {
        NodeRef::counted(self, self.root, counter)
    }

    /// Builds a structure-of-arrays copy of the leaf level (see
    /// [`FlatLeaves`](crate::FlatLeaves) and
    /// [`multiwindow::find_best_leaf_flat`](crate::find_best_leaf_flat)).
    /// Probe-only: nothing in the engine holds one.
    pub fn flat_leaves(&self) -> crate::FlatLeaves<T>
    where
        T: Copy,
    {
        crate::FlatLeaves::new(self)
    }

    /// Iterates over every stored `(mbr, payload)` pair, in tree order.
    pub fn iter(&self) -> impl Iterator<Item = (&Rect, &T)> + '_ {
        let mut stack = vec![self.root];
        let mut leaf_entries: Vec<(&Rect, &T)> = Vec::new();
        // Collect eagerly: this keeps the iterator type simple.
        while let Some(id) = stack.pop() {
            let node = self.node(id);
            for e in &node.entries {
                match &e.payload {
                    Payload::Child(c) => stack.push(*c),
                    Payload::Data(v) => leaf_entries.push((&e.mbr, v)),
                }
            }
        }
        leaf_entries.into_iter()
    }

    #[inline]
    pub(crate) fn node(&self, id: NodeId) -> &Node<T> {
        &self.nodes[id.index()]
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
