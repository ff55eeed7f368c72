//! Read-only traversal API.
//!
//! The join algorithms of `mwsj-core` implement their own branch-and-bound
//! traversals over the index (the paper's *find best value*, synchronous
//! traversal and IBB all sort and prune node entries with query-specific
//! logic). [`NodeRef`] and [`EntryRef`] expose the tree structure immutably
//! without this crate leaking mutable internals.
//!
//! Node accesses along a visit-API traversal can be accounted through the
//! shared [`AccessCounter`](crate::AccessCounter) hook: start from
//! [`RTree::root_node_counted`] and every [`EntryRef::child`]
//! materialisation below it increments the counter (one access per node
//! entered, the same policy as the query paths). `mwsj-core`'s
//! branch-and-bound traversals keep their own per-run counters on the hot
//! path and flush them into the metrics registry when a run finishes.

use crate::access::AccessCounter;
use crate::node::{Entry, NodeId, Payload};
use crate::tree::RTree;
use mwsj_geom::Rect;

/// Immutable view of one tree node.
#[derive(Debug)]
pub struct NodeRef<'a, T> {
    tree: &'a RTree<T>,
    id: NodeId,
    /// Shared access-accounting hook; `None` disables counting.
    counter: Option<&'a AccessCounter>,
}

impl<T> Clone for NodeRef<'_, T> {
    fn clone(&self) -> Self {
        *self
    }
}
impl<T> Copy for NodeRef<'_, T> {}

impl<'a, T> NodeRef<'a, T> {
    pub(crate) fn new(tree: &'a RTree<T>, id: NodeId) -> Self {
        NodeRef {
            tree,
            id,
            counter: None,
        }
    }

    pub(crate) fn counted(tree: &'a RTree<T>, id: NodeId, counter: &'a AccessCounter) -> Self {
        counter.inc();
        NodeRef {
            tree,
            id,
            counter: Some(counter),
        }
    }

    /// Id of the node (crate-internal: keys the probe-only flat-leaf
    /// spans).
    #[inline]
    pub(crate) fn id(&self) -> NodeId {
        self.id
    }

    /// The node's entries as stored, for scans that read every slot.
    #[inline]
    pub(crate) fn entry_slice(&self) -> &'a [Entry<T>] {
        &self.tree.node(self.id).entries
    }

    /// Level of this node (0 = leaf).
    #[inline]
    pub fn level(&self) -> u32 {
        self.tree.node(self.id).level
    }

    /// Returns `true` if this node's entries carry data payloads.
    #[inline]
    pub fn is_leaf(&self) -> bool {
        self.tree.node(self.id).is_leaf()
    }

    /// Number of entries in the node.
    #[inline]
    pub fn len(&self) -> usize {
        self.tree.node(self.id).entries.len()
    }

    /// Returns `true` if the node holds no entries (only the root of an
    /// empty tree can be in this state).
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Tight bounding box over the node's entries.
    pub fn mbr(&self) -> Rect {
        self.tree.node(self.id).mbr()
    }

    /// The `i`-th entry of the node.
    ///
    /// # Panics
    /// Panics if `i >= self.len()`.
    #[inline]
    pub fn entry(&self, i: usize) -> EntryRef<'a, T> {
        EntryRef {
            tree: self.tree,
            node: self.id,
            slot: i,
            counter: self.counter,
        }
    }

    /// Iterates over the node's entries.
    pub fn entries(&self) -> impl Iterator<Item = EntryRef<'a, T>> + '_ {
        let tree = self.tree;
        let node = self.id;
        let counter = self.counter;
        (0..self.len()).map(move |slot| EntryRef {
            tree,
            node,
            slot,
            counter,
        })
    }
}

/// Immutable view of one entry (MBR + child pointer or data payload).
#[derive(Debug)]
pub struct EntryRef<'a, T> {
    tree: &'a RTree<T>,
    node: NodeId,
    slot: usize,
    /// Inherited from the originating [`NodeRef`]; counted traversals
    /// propagate it to children.
    counter: Option<&'a AccessCounter>,
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
        &self.tree.node(self.node).entries[self.slot].mbr
    }

    /// The child node, if this is an internal entry. On a counted
    /// traversal (see [`RTree::root_node_counted`]) materialising a child
    /// records one node access.
    #[inline]
    pub fn child(&self) -> Option<NodeRef<'a, T>> {
        match self.tree.node(self.node).entries[self.slot].payload {
            Payload::Child(id) => Some(match self.counter {
                Some(counter) => NodeRef::counted(self.tree, id, counter),
                None => NodeRef::new(self.tree, id),
            }),
            Payload::Data(_) => None,
        }
    }

    /// The data payload, if this is a leaf entry.
    #[inline]
    pub fn value(&self) -> Option<&'a T> {
        match &self.tree.node(self.node).entries[self.slot].payload {
            Payload::Data(v) => Some(v),
            Payload::Child(_) => None,
        }
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
    fn counted_traversal_records_one_access_per_node() {
        use crate::AccessCounter;
        let tree = sample_tree();
        let counter = AccessCounter::new();
        let mut stack = vec![tree.root_node_counted(&counter)];
        while let Some(node) = stack.pop() {
            for e in node.entries() {
                if let Some(child) = e.child() {
                    stack.push(child);
                }
            }
        }
        assert_eq!(counter.get(), tree.node_count() as u64);
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
