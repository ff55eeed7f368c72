//! The one structural parameter of the tree: node capacity.

/// Structural parameters of an [`crate::RTree`]: the node capacity (the
/// *M* of the R-tree literature). STR packing fills every non-root node
/// to between `⌊M/2⌋` and `M` entries.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RTreeParams {
    max_entries: usize,
}

impl RTreeParams {
    /// Parameters for a given node capacity.
    ///
    /// # Panics
    /// Panics if `max_entries < 4`.
    pub fn new(max_entries: usize) -> Self {
        assert!(max_entries >= 4, "R-tree node capacity must be at least 4");
        RTreeParams { max_entries }
    }

    /// Maximum number of entries per node (*M*). At least 4.
    #[inline]
    pub fn max_entries(&self) -> usize {
        self.max_entries
    }
}

impl Default for RTreeParams {
    /// Capacity 32 — roughly a 1 KiB page of 2D f64 MBRs plus ids, a common
    /// experimental setting for in-memory R-trees.
    fn default() -> Self {
        RTreeParams::new(32)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_capacity_is_32() {
        assert_eq!(RTreeParams::default().max_entries(), 32);
    }

    #[test]
    #[should_panic(expected = "at least 4")]
    fn rejects_tiny_capacity() {
        let _ = RTreeParams::new(3);
    }
}
