//! The multi-window traversals allocate nothing once warm.
//!
//! `find_best_leaf_leveled` and `for_each_candidate` keep their per-node counts
//! and ranks in a per-thread arena (see the `multiwindow` module docs). One
//! call that reaches a leaf grows the arena to the tree's height; every
//! later call on that tree must run without touching the allocator. This
//! is the gate that keeps a per-node `Vec` from coming back.
//!
//! The counting allocator counts per thread, so the harness's own threads
//! do not disturb the reading.

use mwsj_geom::{Predicate, Rect};
use mwsj_rtree::{multiwindow, RTree, RTreeParams};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    /// Allocator calls (`alloc`, `realloc`) made by this thread.
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

struct CountingAllocator;

fn count_one() {
    // `try_with`: the allocator also runs while a thread's locals are torn
    // down; the cell has no destructor and needs no lazy initialisation.
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counter is a plain thread-local
// cell and never allocates.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_one();
        // SAFETY: the caller's obligations are those of `System::alloc`.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` through this allocator.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_one();
        // SAFETY: `ptr` came from `System` through this allocator.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: CountingAllocator = CountingAllocator;

fn allocations_during(f: impl FnOnce()) -> u64 {
    let before = ALLOCATIONS.get();
    f();
    ALLOCATIONS.get() - before
}

const PREDICATES: [Predicate; 6] = [
    Predicate::Intersects,
    Predicate::Contains,
    Predicate::Inside,
    Predicate::NorthEast,
    Predicate::SouthWest,
    Predicate::WithinDistance(0.02),
];

fn random_rect(rng: &mut StdRng, extent: f64) -> Rect {
    let x = rng.random_range(0.0..1.0);
    let y = rng.random_range(0.0..1.0);
    Rect::new(
        x,
        y,
        x + rng.random_range(0.0..extent),
        y + rng.random_range(0.0..extent),
    )
}

/// 1 000 window lists of one to five windows; every fourth list lies east
/// of the workspace, where only a south-west window finds anything.
fn window_lists(rng: &mut StdRng) -> Vec<Vec<(Predicate, Rect)>> {
    (0..1_000)
        .map(|call| {
            let offset = if call % 4 == 3 { 5.0 } else { 0.0 };
            (0..1 + call % 5)
                .map(|k| {
                    let r = random_rect(rng, 0.05);
                    let r = Rect::new(r.min.x + offset, r.min.y, r.max.x + offset, r.max.y);
                    (PREDICATES[(call + k) % PREDICATES.len()], r)
                })
                .collect()
        })
        .collect()
}

#[test]
fn warm_traversals_do_not_allocate() {
    let mut rng = StdRng::seed_from_u64(41);
    let items: Vec<(Rect, u32)> = (0..10_000u32)
        .map(|i| (random_rect(&mut rng, 0.02), i))
        .collect();
    let lists = window_lists(&mut rng);
    let everything = [(Predicate::Intersects, Rect::new(-1.0, -1.0, 2.0, 2.0))];
    let penalised = |v: &u32, c: u32| c as f64 - 0.25 * (v % 3) as f64;

    // Two heights: 3 levels at the default capacity, 7 at capacity 4.
    for capacity in [32, 4] {
        let tree = RTree::bulk_load_with_params(RTreeParams::new(capacity), items.clone());
        let mut levels = vec![0u64; tree.height() as usize];
        let (mut accesses, mut hits, mut misses, mut candidates) = (0u64, 0, 0, 0u64);

        // The warm-up: one call that descends to a leaf.
        let warm = multiwindow::find_best_leaf_leveled(
            tree.root_node(),
            &everything,
            penalised,
            &mut accesses,
            &mut levels,
        );
        assert!(warm.is_some());

        let searching = allocations_during(|| {
            for windows in &lists {
                let best = multiwindow::find_best_leaf_leveled(
                    tree.root_node(),
                    windows,
                    penalised,
                    &mut accesses,
                    &mut levels,
                );
                match best {
                    Some(_) => hits += 1,
                    None => misses += 1,
                }
            }
        });
        assert_eq!(searching, 0, "find_best_leaf_leveled, capacity {capacity}");
        assert!(hits >= 500 && misses >= 100, "{hits} hits, {misses} misses");

        let enumerating = allocations_during(|| {
            for windows in &lists {
                for min_count in [1, windows.len() as u32] {
                    multiwindow::for_each_candidate(
                        tree.root_node(),
                        windows,
                        min_count,
                        &mut accesses,
                        &mut levels,
                        |_, count| candidates += u64::from(count),
                    );
                }
            }
        });
        assert_eq!(enumerating, 0, "for_each_candidate, capacity {capacity}");
        assert!(candidates > 0);
    }
}

/// Setup side of the same gate: STR packing writes one array per level,
/// not one vector per node. What it allocates is per *level*: the two key
/// vectors, the tiling's member and start lists and the node MBRs of the
/// topology pass, then the level's entry order, rectangles and start table
/// of the layout pass — plus a constant for the level lists themselves and
/// the payload array: 26 allocations for the 3 levels of capacity 32 and
/// 70 for the 8 of capacity 4, where one per node was some 650 and 6 700.
#[test]
fn bulk_load_allocates_per_level_not_per_node() {
    const PER_LEVEL: u64 = 8;
    const PER_TREE: u64 = 8;
    let mut rng = StdRng::seed_from_u64(43);
    let items: Vec<(Rect, u32)> = (0..20_000u32)
        .map(|i| (random_rect(&mut rng, 0.02), i))
        .collect();
    for capacity in [32, 4] {
        let items = items.clone();
        let mut built = None;
        let allocations = allocations_during(|| {
            built = Some(RTree::bulk_load_with_params(
                RTreeParams::new(capacity),
                items,
            ));
        });
        let tree = built.expect("built");
        let bound = PER_TREE + PER_LEVEL * u64::from(tree.height());
        assert!(
            allocations <= bound,
            "capacity {capacity}: {allocations} allocations for {} levels ({} nodes)",
            tree.height(),
            tree.node_count()
        );
    }
}
