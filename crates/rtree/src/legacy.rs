//! Names that only the repository benchmark's probes
//! (`benchmark/src/probes.rs`) still call, re-exported at their old paths.
//! Each is a shim over the path the engine runs; DESIGN.md §5d says what
//! each probe measures now.

use crate::multiwindow::{find_best_leaf_leveled, for_each_candidate, BestLeaf};
use crate::tree::RTree;
use crate::visit::NodeRef;
use mwsj_geom::{Predicate, Rect};
use mwsj_obs::MemoryFootprint;
use std::cell::Cell;
use std::marker::PhantomData;

/// The retired structure-of-arrays leaf copy: a marker that holds nothing.
#[derive(Debug)]
pub struct FlatLeaves<T>(PhantomData<T>);

impl<T> MemoryFootprint for FlatLeaves<T> {
    fn memory_bytes(&self) -> u64 {
        0
    }
}

/// [`find_best_leaf_leveled`] without per-level attribution.
pub fn find_best_leaf<T: Copy>(
    root: NodeRef<'_, T>,
    windows: &[(Predicate, Rect)],
    score: impl FnMut(&T, u32) -> f64,
    node_accesses: &mut u64,
) -> Option<BestLeaf<T>> {
    find_best_leaf_leveled(root, windows, score, node_accesses, &mut [])
}

/// [`find_best_leaf`]; the marker is ignored.
pub fn find_best_leaf_flat<T: Copy>(
    root: NodeRef<'_, T>,
    _flat: &FlatLeaves<T>,
    windows: &[(Predicate, Rect)],
    score: impl FnMut(&T, u32) -> f64,
    node_accesses: &mut u64,
) -> Option<BestLeaf<T>> {
    find_best_leaf_leveled(root, windows, score, node_accesses, &mut [])
}

/// A node-access total that [`RTree::count_window_counted`] adds to.
#[derive(Debug, Default)]
pub struct AccessCounter(Cell<u64>);

impl AccessCounter {
    /// A counter at zero.
    pub fn new() -> Self {
        AccessCounter::default()
    }

    /// The accesses added so far.
    pub fn get(&self) -> u64 {
        self.0.get()
    }
}

impl<T: Copy> RTree<T> {
    /// The marker standing for the retired flat leaf layout.
    pub fn flat_leaves(&self) -> FlatLeaves<T> {
        FlatLeaves(PhantomData)
    }

    /// Counts the entries intersecting `window` with the single-window
    /// walk, adding the nodes it enters — the root included — to `counter`.
    pub fn count_window_counted(&self, window: &Rect, counter: &AccessCounter) -> usize {
        let (mut hits, mut accesses) = (0, 0);
        let windows = [(Predicate::Intersects, *window)];
        for_each_candidate(
            self.root_node(),
            &windows,
            1,
            &mut accesses,
            &mut [],
            |_, _| hits += 1,
        );
        counter.0.set(counter.0.get() + accesses);
        hits
    }
}

/// The retired uniform grid: an R*-tree over the same items, which the
/// grid kernel's old name searches. It holds no index of its own worth
/// counting, so it reports 0 bytes, as [`FlatLeaves`] does.
#[derive(Debug)]
pub struct UniformGrid<T>(RTree<T>);

/// The two figures the probes read of the retired grid's statistics; every
/// entry is stored once.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GridStats {
    /// Stored entries.
    pub entries: u64,
    /// Unique indexed rectangles.
    pub unique: u64,
}

impl<T: Copy> UniformGrid<T> {
    /// [`RTree::bulk_load`] over a copy of `items`.
    pub fn build(items: &[(Rect, T)]) -> Self {
        UniformGrid(RTree::bulk_load(items.to_vec()))
    }

    /// `entries = unique =` the item count, so a replication ratio reads 1.
    pub fn stats(&self) -> GridStats {
        let n = self.0.len() as u64;
        GridStats {
            entries: n,
            unique: n,
        }
    }
}

impl<T> MemoryFootprint for UniformGrid<T> {
    fn memory_bytes(&self) -> u64 {
        0
    }
}

/// The retired grid kernel's path.
pub mod grid {
    use super::UniformGrid;
    use crate::multiwindow::{find_best_leaf_leveled, BestLeaf};
    use mwsj_geom::{Predicate, Rect};

    /// [`find_best_leaf_leveled`] over the stand-in's tree; `threads` is
    /// ignored and the accesses are the tree's node reads.
    pub fn find_best_in_windows<T: Copy>(
        grid: &UniformGrid<T>,
        windows: &[(Predicate, Rect)],
        score: impl FnMut(&T, u32) -> f64,
        _threads: usize,
        cell_accesses: &mut u64,
        level_accesses: &mut [u64],
    ) -> Option<BestLeaf<T>> {
        let root = grid.0.root_node();
        find_best_leaf_leveled(root, windows, score, cell_accesses, level_accesses)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::multiwindow::tests::{any_predicate, hard_region_rect, lattice_rect};
    use crate::RTreeParams;
    use proptest::prelude::*;

    fn bits(best: Option<BestLeaf<u32>>) -> Option<(u32, Rect, u32, u64)> {
        best.map(|b| (b.value, b.rect, b.satisfied, b.score.to_bits()))
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Every shim is the engine path: winner bits and accesses equal
        /// on a drawn tree and window list, raw and penalised; the grid
        /// stand-in is the tree over the same items.
        #[test]
        fn shims_equal_the_engine_paths(
            capacity in prop_oneof![Just(4usize), Just(8), Just(32)],
            rects in prop::collection::vec(prop_oneof![lattice_rect(), hard_region_rect()], 1..400),
            windows in prop::collection::vec((any_predicate(), lattice_rect()), 1..=5),
            lambda in prop_oneof![Just(0.0), Just(0.25)],
        ) {
            let items: Vec<(Rect, u32)> = rects.into_iter().zip(0u32..).collect();
            let tree = RTree::bulk_load_with_params(RTreeParams::new(capacity), items.clone());
            let score = |v: &u32, c: u32| c as f64 - lambda * (v % 3) as f64;
            let root = tree.root_node();
            let mut acc = [0; 3];
            let engine = find_best_leaf_leveled(root, &windows, score, &mut acc[0], &mut []);
            let plain = find_best_leaf(root, &windows, score, &mut acc[1]);
            let flat = tree.flat_leaves();
            let flat_best = find_best_leaf_flat(root, &flat, &windows, score, &mut acc[2]);
            prop_assert_eq!([bits(plain), bits(flat_best)], [bits(engine); 2]);
            prop_assert_eq!([acc[1], acc[2]], [acc[0]; 2]);
            prop_assert_eq!(MemoryFootprint::memory_bytes(&flat), 0);

            let grid = UniformGrid::build(&items);
            let n = items.len() as u64;
            prop_assert_eq!(grid.stats(), GridStats { entries: n, unique: n });
            prop_assert_eq!(MemoryFootprint::memory_bytes(&grid), 0);
            let default_tree = RTree::bulk_load(items);
            for threads in [1, 4] {
                let (mut cells, mut levels) = (0, [0u64; 4]);
                let shim = grid::find_best_in_windows(
                    &grid, &windows, score, threads, &mut cells, &mut levels,
                );
                let (mut engine_acc, mut engine_levels) = (0, [0u64; 4]);
                let engine = find_best_leaf_leveled(
                    default_tree.root_node(), &windows, score, &mut engine_acc, &mut engine_levels,
                );
                prop_assert_eq!(
                    (bits(shim), cells, levels),
                    (bits(engine), engine_acc, engine_levels)
                );
            }
        }
    }

    /// The counter wrapper is the walk: same result count, and the counter
    /// reads the walk's `node_accesses` — every node under a covering
    /// window, the root alone under one that misses the data.
    #[test]
    fn count_window_counted_is_the_single_window_walk() {
        let items: Vec<(Rect, u32)> = (0..2_000u32)
            .map(|i| {
                let (x, y) = ((i % 50) as f64 / 50.0, (i / 50) as f64 / 40.0);
                (Rect::new(x, y, x + 0.03, y + 0.03), i)
            })
            .collect();
        let tree = RTree::bulk_load_with_params(RTreeParams::new(8), items);
        let counted = |window: Rect| {
            let (mut hits, mut accesses) = (0, 0u64);
            let windows = [(Predicate::Intersects, window)];
            for_each_candidate(
                tree.root_node(),
                &windows,
                1,
                &mut accesses,
                &mut [],
                |_, _| hits += 1,
            );
            let counter = AccessCounter::new();
            assert_eq!(tree.count_window_counted(&window, &counter), hits);
            assert_eq!(counter.get(), accesses, "{window}");
            (hits, accesses)
        };
        let nodes = tree.node_count() as u64;
        assert_eq!(counted(Rect::new(-1.0, -1.0, 2.0, 2.0)), (2_000, nodes));
        assert_eq!(counted(Rect::new(5.0, 5.0, 6.0, 6.0)), (0, 1));
        let (hits, accesses) = counted(Rect::new(0.4, 0.4, 0.5, 0.5));
        assert!(
            hits > 0 && accesses < nodes,
            "{hits} hits, {accesses} nodes"
        );
    }
}
