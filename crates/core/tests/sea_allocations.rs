//! An SEA generation allocates nothing, and neither does a pass of the ILS
//! or GILS climb or a combination that synchronous traversal expands.
//!
//! Selection copies into a second population the run owns, crossover and
//! mutation pick their variables out of run-owned scratch, re-evaluation
//! and stagnation re-seeding write in place, and the index kernels keep
//! their state in per-thread arenas — so what a longer run allocates beyond
//! a shorter one is the incumbent's doing alone: a trace point and a
//! top-list entry now and then. Two runs of one seed, 100 and 300
//! generations, set up the same instance-sized state, so the difference of
//! their counts is what 200 further generations cost. This is the gate that
//! keeps `pop[winner].clone()` — 127 200 allocations here — from coming
//! back.
//!
//! Synchronous traversal keeps its candidate lists, its forward-checking
//! frames and the entries it has fixed in one arena per run, used as a
//! stack: a run allocates for the arena's growth and once per solution it
//! emits, however many combinations it expands. The first exact join of an
//! instance runs the arc-consistency pass once, so the count is taken on
//! the second run; on data this dense the pass ends after its first join
//! and ST descends the whole trees.
//!
//! IBB keeps the windows, candidates and candidate pool of each depth in
//! buffers its run owns, so a step — a candidate tried, or an object of a
//! zero-count scan — allocates nothing; what a longer run adds is the
//! incumbent's and the buffers' growth.
//!
//! The counting allocator counts per thread, so the harness's own threads
//! do not disturb the reading.

use mwsj_core::{
    AnytimeSearch, Gils, Ibb, IbbConfig, Ils, Instance, Sea, SeaConfig, SearchBudget,
    SearchContext, SynchronousTraversal,
};
use mwsj_datagen::{hard_region_density, Dataset, QueryShape};
use rand::rngs::StdRng;
use rand::SeedableRng;
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

#[test]
fn two_hundred_generations_allocate_next_to_nothing() {
    let (n, cardinality) = (6, 10_000);
    let mut rng = StdRng::seed_from_u64(301);
    let density = hard_region_density(QueryShape::Chain, n, cardinality, 1.0);
    let datasets: Vec<Dataset> = (0..n)
        .map(|_| Dataset::uniform(cardinality, density, &mut rng))
        .collect();
    let instance = Instance::new(QueryShape::Chain.graph(n), datasets).unwrap();
    let sea = Sea::new(SeaConfig::default_for(&instance));

    let allocations_of = |generations: u64| {
        let before = ALLOCATIONS.get();
        let outcome = sea.run(
            &instance,
            &SearchBudget::iterations(generations),
            &mut StdRng::seed_from_u64(302),
        );
        let allocations = ALLOCATIONS.get() - before;
        assert_eq!(outcome.stats.steps, generations, "the run stopped early");
        assert!(
            outcome.stats.cache.misses() > 0,
            "no mutation reached the index"
        );
        allocations
    };
    // Warm the kernel's per-thread arena outside both readings.
    allocations_of(2);
    let (short, long) = (allocations_of(100), allocations_of(300));
    let extra = long.saturating_sub(short);
    assert!(
        extra <= 400,
        "200 further generations allocated {extra} times ({short} -> {long}): \
         two a generation covers the incumbent's trace and top list and nothing per individual"
    );
}

/// The climbs of ILS and GILS on the R*-tree: a pass orders the variables
/// into a run-owned buffer, an ILS restart draws its seed into the last
/// one's storage, a punishment returns a count, and the window cache
/// re-scores tie lists it reuses. So 6 000 further steps allocate for the
/// incumbent and — in GILS — for a few doublings of the penalty table and
/// of the tie lists as they reach new sizes.
#[test]
fn ils_and_gils_climbs_allocate_next_to_nothing() {
    let (n, cardinality) = (6, 10_000);
    let mut rng = StdRng::seed_from_u64(304);
    let density = hard_region_density(QueryShape::Chain, n, cardinality, 1.0);
    let datasets: Vec<Dataset> = (0..n)
        .map(|_| Dataset::uniform(cardinality, density, &mut rng))
        .collect();
    let instance = Instance::new(QueryShape::Chain.graph(n), datasets).unwrap();
    let runs: [(&str, &dyn AnytimeSearch); 2] =
        [("ILS", &Ils::default()), ("GILS", &Gils::default())];
    for (name, algo) in runs {
        let allocations_of = |steps: u64| {
            let before = ALLOCATIONS.get();
            let ctx = SearchContext::local(SearchBudget::iterations(steps));
            let outcome = algo.search(&instance, &ctx, &mut StdRng::seed_from_u64(305));
            assert_eq!(outcome.stats.steps, steps, "{name}: the run stopped early");
            ALLOCATIONS.get() - before
        };
        allocations_of(2);
        let (short, long) = (allocations_of(3_000), allocations_of(9_000));
        let extra = long.saturating_sub(short);
        // Before the buffers: 4 225 for ILS, a sorted `Vec` a pass and a
        // fresh solution a restart.
        assert!(
            extra <= 32,
            "{name}: 6 000 further steps allocated {extra} times ({short} -> {long}): \
             the incumbent's trace and top list and a few doublings, nothing per pass"
        );
    }
}

#[test]
fn synchronous_traversal_allocates_per_solution_not_per_combination() {
    let mut rng = StdRng::seed_from_u64(303);
    // Dense enough that the pass removes nothing.
    let datasets: Vec<Dataset> = (0..4)
        .map(|_| Dataset::uniform(5_000, 0.4, &mut rng))
        .collect();
    let instance = Instance::new(QueryShape::Clique.graph(4), datasets).unwrap();
    let run =
        || SynchronousTraversal::new().run(&instance, &SearchBudget::seconds(60.0), usize::MAX);
    run();
    assert_eq!(instance.core_sizes(), Some(vec![5_000; 4]));
    let before = ALLOCATIONS.get();
    let outcome = run();
    let allocations = ALLOCATIONS.get() - before;
    let (steps, solutions) = (outcome.stats.steps, outcome.solutions.len() as u64);
    assert!(outcome.complete && steps >= 1_000, "{steps} steps");
    let beside_solutions = allocations.saturating_sub(solutions);
    assert!(
        beside_solutions <= 64,
        "{steps} combinations, {solutions} solutions, {allocations} allocations: \
         the arena and the solution list double a few dozen times, nothing is per combination"
    );
}

/// An exhaustive IBB run on a 4-clique: 60 000 steps against 10 000, each
/// a candidate tried below a pool or an object of a zero-count scan.
#[test]
fn ibb_allocates_per_loop_not_per_step() {
    let (n, cardinality) = (4, 5_000);
    let mut rng = StdRng::seed_from_u64(306);
    let density = hard_region_density(QueryShape::Clique, n, cardinality, 1.0);
    let datasets: Vec<Dataset> = (0..n)
        .map(|_| Dataset::uniform(cardinality, density, &mut rng))
        .collect();
    let instance = Instance::new(QueryShape::Clique.graph(n), datasets).unwrap();
    let ibb = Ibb::new(IbbConfig {
        initial: None,
        stop_at_exact: false,
    });
    let allocations_of = |steps: u64| {
        let before = ALLOCATIONS.get();
        let outcome = ibb.run(&instance, &SearchBudget::iterations(steps));
        assert_eq!(outcome.stats.steps, steps, "the run stopped early");
        ALLOCATIONS.get() - before
    };
    allocations_of(2);
    let (short, long) = (allocations_of(10_000), allocations_of(60_000));
    let extra = long.saturating_sub(short);
    // Before the buffers: 50 004, a window list a step.
    assert!(
        extra <= 32,
        "50 000 further steps allocated {extra} times ({short} -> {long}): \
         the incumbent's trace and top list and a few doublings, nothing per step"
    );
}
