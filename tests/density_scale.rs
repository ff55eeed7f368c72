//! Density-solver validation at paper scale (N = 10 000): the closed-form
//! hard-region densities of §6 must predict the Monte-Carlo solution count
//! within a tolerance band. Counting is exact per trial — an R-tree-backed
//! backtracker, not sampling — so the only noise is the dataset draw.
//!
//! Also pins byte-stability of the fixed-seed workload generator: the
//! exact bit patterns of a seeded workload are part of the bench-tier
//! contract (BENCH_large.json counters are only comparable across runs if
//! the data never drifts).

use mwsj::prelude::*;
use mwsj::rtree::multiwindow::for_each_candidate;
use rand::rngs::StdRng;
use rand::SeedableRng;

const N: usize = 10_000;
const TARGET: f64 = 60.0;

/// Exact solution count by backtracking, with candidate generation through
/// a window query on each variable's R-tree (the naive all-pairs scan is
/// O(N²) and unusable at this scale).
fn count_solutions(datasets: &[Vec<Rect>], graph: &QueryGraph) -> u64 {
    let n = graph.n_vars();
    let trees: Vec<RTree<u32>> = datasets
        .iter()
        .map(|d| {
            let items: Vec<(Rect, u32)> = d.iter().copied().zip(0u32..).collect();
            RTree::bulk_load_with_params(RTreeParams::new(32), items)
        })
        .collect();
    let mut assignment = vec![usize::MAX; n];
    let mut count = 0u64;
    count_rec(datasets, &trees, graph, 0, &mut assignment, &mut count);
    count
}

fn count_rec(
    datasets: &[Vec<Rect>],
    trees: &[RTree<u32>],
    graph: &QueryGraph,
    var: usize,
    assignment: &mut Vec<usize>,
    count: &mut u64,
) {
    let n = graph.n_vars();
    if var == n {
        *count += 1;
        return;
    }
    let earlier: Vec<(usize, Predicate)> = graph
        .neighbors(var)
        .iter()
        .copied()
        .filter(|&(u, _)| u < var)
        .collect();
    let ok = |obj: usize| {
        let r = datasets[var][obj];
        earlier
            .iter()
            .all(|&(u, pred)| pred.eval(&r, &datasets[u][assignment[u]]))
    };
    match earlier.first() {
        // Root variable: every object is a candidate.
        None => {
            for obj in 0..datasets[var].len() {
                assignment[var] = obj;
                count_rec(datasets, trees, graph, var + 1, assignment, count);
            }
        }
        // Probe the tree with the first assigned neighbour's rectangle,
        // then filter against the rest.
        Some(&(u0, _)) => {
            let window = [(Predicate::Intersects, datasets[u0][assignment[u0]])];
            let mut candidates: Vec<usize> = Vec::new();
            let root = trees[var].root_node();
            for_each_candidate(root, &window, 1, &mut 0, &mut [], |obj, _| {
                if ok(obj as usize) {
                    candidates.push(obj as usize);
                }
            });
            for obj in candidates {
                assignment[var] = obj;
                count_rec(datasets, trees, graph, var + 1, assignment, count);
            }
        }
    }
}

/// Mean exact count over `trials` independently drawn workloads at the
/// hard-region density solved for [`TARGET`].
fn monte_carlo_mean(shape: QueryShape, n_vars: usize, trials: u64, seed: u64) -> f64 {
    let density = hard_region_density(shape, n_vars, N, TARGET);
    let graph = shape.graph(n_vars);
    let mut rng = StdRng::seed_from_u64(seed);
    let mut total = 0u64;
    for _ in 0..trials {
        let datasets: Vec<Vec<Rect>> = (0..n_vars)
            .map(|_| Dataset::uniform(N, density, &mut rng).rects().to_vec())
            .collect();
        total += count_solutions(&datasets, &graph);
    }
    total as f64 / trials as f64
}

fn assert_in_band(shape: QueryShape, mean: f64, lo: f64, hi: f64) {
    let ratio = mean / TARGET;
    assert!(
        (lo..hi).contains(&ratio),
        "{}: Monte-Carlo mean {mean:.1} vs closed-form target {TARGET} (ratio {ratio:.3}, band {lo}..{hi})",
        shape.name()
    );
}

#[test]
fn chain_closed_form_matches_monte_carlo_at_scale() {
    // Tree queries with constant extents: the formula is exact up to
    // boundary clipping, so the band only absorbs sampling noise.
    let mean = monte_carlo_mean(QueryShape::Chain, 6, 8, 0xc4a1);
    assert_in_band(QueryShape::Chain, mean, 0.7, 1.3);
}

#[test]
fn star_closed_form_matches_monte_carlo_at_scale() {
    let mean = monte_carlo_mean(QueryShape::Star, 6, 8, 0x57a1);
    assert_in_band(QueryShape::Star, mean, 0.7, 1.3);
}

#[test]
fn clique_closed_form_matches_monte_carlo_at_scale() {
    // The clique formula (Sol = N·n²·d^{n−1}, [PMT99]) is itself an
    // approximation; the band is wider than the acyclic ones.
    let mean = monte_carlo_mean(QueryShape::Clique, 4, 8, 0xc11e);
    assert_in_band(QueryShape::Clique, mean, 0.5, 2.0);
}

/// FNV-1a over every rectangle's coordinate bit patterns: the seeded
/// workload generator must stay byte-stable release to release.
fn workload_fingerprint(w: &Workload) -> u64 {
    let mut h: u64 = 0xcbf29ce484222325;
    let mut eat = |x: u64| {
        for b in x.to_le_bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x100000001b3);
        }
    };
    for d in &w.datasets {
        for r in d.rects() {
            eat(r.min.x.to_bits());
            eat(r.min.y.to_bits());
            eat(r.max.x.to_bits());
            eat(r.max.y.to_bits());
        }
    }
    h
}

#[test]
fn fixed_seed_workload_is_byte_stable() {
    // Mirrors the large tier's chain-n8-hard case (seed 201). If this hash
    // moves, every committed BENCH_large.json counter is invalidated —
    // regenerate the snapshot and say so in the changelog.
    let mut spec = WorkloadSpec::hard_region(QueryShape::Chain, 8, 10_000, 201);
    spec.plant = true;
    let w = spec.generate();
    assert_eq!(
        workload_fingerprint(&w),
        0x9AE0833D65159066,
        "seeded workload drifted byte-wise"
    );
}
