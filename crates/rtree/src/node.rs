//! Internal node representation: a vector of nodes addressed by compact ids.

use mwsj_geom::Rect;

/// Index of a node in the tree's node vector.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub(crate) struct NodeId(pub u32);

impl NodeId {
    #[inline]
    pub(crate) fn index(self) -> usize {
        self.0 as usize
    }
}

/// What an entry points at: a child node (internal levels) or a data payload
/// (leaf level).
#[derive(Debug, Clone)]
pub(crate) enum Payload<T> {
    Child(NodeId),
    Data(T),
}

/// One slot of a node: the MBR plus what it bounds.
#[derive(Debug, Clone)]
pub(crate) struct Entry<T> {
    pub mbr: Rect,
    pub payload: Payload<T>,
}

impl<T> Entry<T> {
    #[inline]
    pub(crate) fn child(mbr: Rect, id: NodeId) -> Self {
        Entry {
            mbr,
            payload: Payload::Child(id),
        }
    }

    #[inline]
    pub(crate) fn data(mbr: Rect, value: T) -> Self {
        Entry {
            mbr,
            payload: Payload::Data(value),
        }
    }

    #[inline]
    pub(crate) fn child_id(&self) -> NodeId {
        match self.payload {
            Payload::Child(id) => id,
            Payload::Data(_) => unreachable!("child_id on a data entry"),
        }
    }

    #[inline]
    pub(crate) fn value(&self) -> &T {
        match &self.payload {
            Payload::Data(value) => value,
            Payload::Child(_) => unreachable!("value on a child entry"),
        }
    }
}

/// A tree node. `level == 0` means leaf; the root sits at `height - 1`.
#[derive(Debug)]
pub(crate) struct Node<T> {
    pub level: u32,
    pub entries: Vec<Entry<T>>,
}

impl<T> Node<T> {
    #[inline]
    pub(crate) fn is_leaf(&self) -> bool {
        self.level == 0
    }

    /// Tight bounding box over all entries.
    pub(crate) fn mbr(&self) -> Rect {
        Rect::union_all(self.entries.iter().map(|e| &e.mbr))
    }
}
