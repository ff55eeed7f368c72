//! [`MemoryFootprint`] accounting for the index structures.
//!
//! Byte counts follow the trait's contract (`mwsj_obs::resource`):
//! length-based, never capacity-based, so the same logical tree always
//! reports the same bytes regardless of allocator growth. The numbers are the
//! regression-gated working-set cost of keeping an index resident, not an
//! allocator measurement.

use crate::tree::RTree;
use mwsj_geom::Rect;
use mwsj_obs::MemoryFootprint;
use std::mem::size_of;

impl<T> MemoryFootprint for RTree<T> {
    /// Heap bytes of the per-level arrays — every level's rectangles and
    /// `start` table — plus the leaf payloads, all counted by `len`. The
    /// leaf level's rectangles are the dataset itself, so this is the
    /// index *and* the data it indexes; a grid over the leaves shares the
    /// two leaf arrays and leaves them to be counted here.
    fn memory_bytes(&self) -> u64 {
        let levels: usize = self
            .levels
            .iter()
            .map(|l| l.rects.len() * size_of::<Rect>() + l.start.len() * size_of::<u32>())
            .sum();
        (levels + self.values.len() * size_of::<T>()) as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::RTreeParams;
    use proptest::prelude::*;

    fn items(seed: u64, n: usize) -> Vec<(Rect, u32)> {
        use rand::rngs::StdRng;
        use rand::{RngExt, SeedableRng};
        let mut rng = StdRng::seed_from_u64(seed);
        (0..n)
            .map(|i| {
                let x = rng.random_range(0.0..1.0);
                let y = rng.random_range(0.0..1.0);
                (Rect::new(x, y, x + 0.03, y + 0.03), i as u32)
            })
            .collect()
    }

    proptest! {
        /// Deterministic accounting: building the same tree twice from the
        /// same items reports identical bytes.
        #[test]
        fn footprint_is_deterministic_across_rebuilds(
            seed in 0u64..1_000,
            n in 1usize..400,
        ) {
            let data = items(seed, n);
            let a = RTree::bulk_load_with_params(RTreeParams::new(8), data.clone());
            let b = RTree::bulk_load_with_params(RTreeParams::new(8), data);
            prop_assert_eq!(
                MemoryFootprint::memory_bytes(&a),
                MemoryFootprint::memory_bytes(&b)
            );
        }
    }

    /// The accounting is length-based: the byte count grows with the
    /// contents at every node capacity.
    #[test]
    fn tree_bytes_track_contents() {
        for cap in [4, 8, 32] {
            let build = |n| {
                MemoryFootprint::memory_bytes(&RTree::bulk_load_with_params(
                    RTreeParams::new(cap),
                    items(7, n),
                ))
            };
            let (empty, small, full) = (build(0), build(50), build(200));
            assert!(empty < small && small < full, "capacity {cap}");
        }
    }
}
