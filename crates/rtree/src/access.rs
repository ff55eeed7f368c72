//! Probe-only node-access counting.
//!
//! The paper reports index work as *node accesses* — in a disk-based
//! system every node visit is a potential page read. The traversals of
//! this crate count them into a `&mut u64` the caller owns (plus an
//! optional per-level slice, see [`crate::multiwindow`]); nothing in the
//! engine goes through this module.
//!
//! [`AccessCounter`] and [`RTree::count_window_counted`] are what is left
//! of a shared atomic hook that every traversal once threaded through its
//! node views. They survive because the benchmark's `rtree.window_query`
//! probe compiles against them, and are one wrapper over the one walk
//! ([`for_each_candidate`] with a single window and `min_count = 1`).

use crate::multiwindow::for_each_candidate;
use crate::tree::RTree;
use mwsj_geom::{Predicate, Rect};
use std::sync::atomic::{AtomicU64, Ordering};

/// A shareable node-access counter: one relaxed [`AtomicU64`].
#[derive(Debug, Default)]
pub struct AccessCounter(AtomicU64);

impl AccessCounter {
    /// Creates a counter at zero.
    pub fn new() -> Self {
        AccessCounter::default()
    }

    /// Records one node access.
    #[inline]
    pub fn inc(&self) {
        self.0.fetch_add(1, Ordering::Relaxed);
    }

    /// The number of accesses recorded so far.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

impl<T: Copy> RTree<T> {
    /// Counts the entries intersecting `window`, recording one access per
    /// visited node — the root included — into `counter`.
    pub fn count_window_counted(&self, window: &Rect, counter: &AccessCounter) -> usize {
        let (mut hits, mut accesses) = (0, 0);
        for_each_candidate(
            self.root_node(),
            &[(Predicate::Intersects, *window)],
            1,
            &mut accesses,
            &mut [],
            |_, _| hits += 1,
        );
        // One `inc` per node, as when the traversal itself held the hook.
        (0..accesses).for_each(|_| counter.inc());
        hits
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::RTreeParams;

    #[test]
    fn counter_is_sync() {
        let c = AccessCounter::new();
        std::thread::scope(|scope| {
            for _ in 0..4 {
                scope.spawn(|| {
                    for _ in 0..1000 {
                        c.inc();
                    }
                });
            }
        });
        assert_eq!(c.get(), 4000);
    }

    /// The probe wrapper is the walk: same result count, and the counter
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
            for_each_candidate(
                tree.root_node(),
                &[(Predicate::Intersects, window)],
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
