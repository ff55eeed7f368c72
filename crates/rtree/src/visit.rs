//! Read-only traversal API.
//!
//! The join algorithms of `mwsj-core` implement their own branch-and-bound
//! traversals over the index (the paper's *find best value*, the pairwise
//! join and IBB all sort and prune node entries with query-specific
//! logic). [`NodeRef`] and [`EntryRef`] expose the tree structure immutably
//! without this crate leaking mutable internals: a node is a `(level,
//! index)` pair, its entries a run of its level's rectangle array.
//!
//! The views count nothing. A traversal counts the nodes it enters into a
//! counter its caller owns — one access per node, the root included — and
//! the search layer adds that to the run's counter block.

use crate::tree::RTree;
use mwsj_geom::Rect;
use std::ops::Range;

/// Immutable view of one tree node.
#[derive(Debug)]
pub struct NodeRef<'a, T> {
    tree: &'a RTree<T>,
    level: u32,
    /// Position among the nodes of `level`.
    index: u32,
}

impl<T> Clone for NodeRef<'_, T> {
    fn clone(&self) -> Self {
        *self
    }
}
impl<T> Copy for NodeRef<'_, T> {}

impl<'a, T> NodeRef<'a, T> {
    pub(crate) fn new(tree: &'a RTree<T>, level: u32, index: u32) -> Self {
        NodeRef { tree, level, index }
    }

    /// The node's run in its level's entry arrays.
    #[inline]
    fn span(&self) -> Range<usize> {
        self.tree.levels[self.level as usize].span(self.index as usize)
    }

    /// Level of this node (0 = leaf).
    #[inline]
    pub fn level(&self) -> u32 {
        self.level
    }

    /// Returns `true` if this node's entries carry data payloads.
    #[inline]
    pub fn is_leaf(&self) -> bool {
        self.level == 0
    }

    /// Number of entries in the node.
    #[inline]
    pub fn len(&self) -> usize {
        self.span().len()
    }

    /// Returns `true` if the node holds no entries (only the root of an
    /// empty tree can be in this state).
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The rectangles of the node's entries, in entry order.
    #[inline]
    pub fn rects(&self) -> &'a [Rect] {
        &self.tree.levels[self.level as usize].rects[self.span()]
    }

    /// The payloads of a leaf's entries, parallel to [`NodeRef::rects`];
    /// empty on an internal node.
    #[inline]
    pub fn values(&self) -> &'a [T] {
        if self.is_leaf() {
            &self.tree.values[self.span()]
        } else {
            &[]
        }
    }

    /// Tight bounding box over the node's entries: what the parent's entry
    /// for this node stores, computed only for the root.
    pub fn mbr(&self) -> Rect {
        match self.tree.levels.get(self.level as usize + 1) {
            Some(parents) => parents.rects[self.index as usize],
            None => Rect::union_all(self.rects()),
        }
    }

    /// The `i`-th entry of the node.
    ///
    /// # Panics
    /// Panics if `i >= self.len()`.
    #[inline]
    pub fn entry(&self, i: usize) -> EntryRef<'a, T> {
        let span = self.span();
        assert!(i < span.len(), "entry {i} of a node of {}", span.len());
        self.entry_at(span.start + i)
    }

    /// Iterates over the node's entries.
    pub fn entries(&self) -> impl Iterator<Item = EntryRef<'a, T>> + '_ {
        self.span().map(|index| self.entry_at(index))
    }

    fn entry_at(&self, index: usize) -> EntryRef<'a, T> {
        EntryRef {
            tree: self.tree,
            level: self.level,
            index: index as u32,
        }
    }
}

/// Immutable view of one entry (MBR + child node or data payload).
#[derive(Debug)]
pub struct EntryRef<'a, T> {
    tree: &'a RTree<T>,
    /// Level of the node holding the entry.
    level: u32,
    /// Position in that level's entry arrays — on an internal level, also
    /// the child's position among the nodes of the level below.
    index: u32,
}

impl<T> Clone for EntryRef<'_, T> {
    fn clone(&self) -> Self {
        *self
    }
}
impl<T> Copy for EntryRef<'_, T> {}

impl<'a, T> EntryRef<'a, T> {
    /// The entry's bounding rectangle.
    #[inline]
    pub fn mbr(&self) -> &'a Rect {
        &self.tree.levels[self.level as usize].rects[self.index as usize]
    }

    /// The child node, if this is an internal entry.
    #[inline]
    pub fn child(&self) -> Option<NodeRef<'a, T>> {
        let level = self.level.checked_sub(1)?;
        Some(NodeRef::new(self.tree, level, self.index))
    }

    /// The data payload, if this is a leaf entry.
    #[inline]
    pub fn value(&self) -> Option<&'a T> {
        (self.level == 0).then(|| &self.tree.values[self.index as usize])
    }
}

#[cfg(test)]
mod tests {
    use crate::{RTree, RTreeParams};
    use mwsj_geom::Rect;

    fn sample_tree() -> RTree<usize> {
        let items: Vec<(Rect, usize)> = (0..200)
            .map(|i| {
                let x = (i % 20) as f64;
                let y = (i / 20) as f64;
                (Rect::new(x, y, x + 0.5, y + 0.5), i)
            })
            .collect();
        RTree::bulk_load_with_params(RTreeParams::new(8), items)
    }

    #[test]
    fn traversal_reaches_every_data_entry() {
        let tree = sample_tree();
        let mut count = 0usize;
        let mut stack = vec![tree.root_node()];
        while let Some(node) = stack.pop() {
            for e in node.entries() {
                match e.child() {
                    Some(child) => {
                        assert_eq!(child.level() + 1, node.level());
                        stack.push(child);
                    }
                    None => {
                        assert!(node.is_leaf());
                        assert!(e.value().is_some());
                        count += 1;
                    }
                }
            }
        }
        assert_eq!(count, tree.len());
    }

    #[test]
    fn entry_mbrs_are_contained_in_node_mbr() {
        let tree = sample_tree();
        let root = tree.root_node();
        let root_mbr = root.mbr();
        for e in root.entries() {
            assert!(root_mbr.contains(e.mbr()));
        }
    }

    #[test]
    fn leaf_entries_have_values_not_children() {
        let tree = sample_tree();
        let mut node = tree.root_node();
        while !node.is_leaf() {
            node = node.entry(0).child().unwrap();
        }
        for e in node.entries() {
            assert!(e.value().is_some());
            assert!(e.child().is_none());
        }
    }

    #[test]
    fn root_of_empty_tree_is_empty_leaf() {
        let tree: RTree<usize> = RTree::bulk_load(Vec::new());
        let root = tree.root_node();
        assert!(root.is_leaf());
        assert!(root.is_empty());
        assert_eq!(root.entries().count(), 0);
    }
}
