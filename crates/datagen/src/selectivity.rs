//! Selectivity / expected-output-size models for multiway spatial joins.
//!
//! Implements the cost-model formulas the paper builds on:
//!
//! * pairwise join selectivity of two uniform unit-workspace datasets:
//!   `(|rᵢ| + |rⱼ|)²` \[TSS98\];
//! * acyclic queries: selectivity is the product of the pairwise edge
//!   selectivities (edge events are independent on trees);
//! * cliques: `(Σᵢ Πⱼ≠ᵢ |rⱼ|)²` \[PMT99\] — mutually overlapping rectangles
//!   must share a common point.
//!
//! These support heterogeneous cardinalities/extents; the
//! [`crate::hard_region_density`] helpers specialise them to the paper's
//! same-`N`, same-`d` setting.

use mwsj_query::QueryGraph;

/// Pairwise intersection-join selectivity of two uniform datasets with
/// average extents `ri`, `rj` on a unit workspace \[TSS98\].
#[inline]
pub fn pairwise_selectivity(ri: f64, rj: f64) -> f64 {
    (ri + rj).powi(2)
}

/// Expected output size of an **acyclic** query: `Π Nᵢ · Π (|rᵢ|+|rⱼ|)²`
/// over the join edges.
///
/// # Panics
/// Panics if the graph is not a tree or the slices have wrong lengths.
pub fn acyclic_solutions(graph: &QueryGraph, cards: &[usize], extents: &[f64]) -> f64 {
    assert!(graph.is_acyclic(), "formula requires an acyclic query");
    assert_eq!(cards.len(), graph.n_vars());
    assert_eq!(extents.len(), graph.n_vars());
    let tuples: f64 = cards.iter().map(|&c| c as f64).product();
    let selectivity: f64 = graph
        .edges()
        .iter()
        .map(|e| pairwise_selectivity(extents[e.a], extents[e.b]))
        .product();
    tuples * selectivity
}

/// Expected output size of a **clique** query: `Π Nᵢ · (Σᵢ Πⱼ≠ᵢ |rⱼ|)²`
/// \[PMT99\].
///
/// # Panics
/// Panics if the graph is not a clique or the slices have wrong lengths.
pub fn clique_solutions(graph: &QueryGraph, cards: &[usize], extents: &[f64]) -> f64 {
    assert!(graph.is_clique(), "formula requires a clique query");
    assert_eq!(cards.len(), graph.n_vars());
    assert_eq!(extents.len(), graph.n_vars());
    let n = graph.n_vars();
    let tuples: f64 = cards.iter().map(|&c| c as f64).product();
    let mut sum = 0.0;
    for i in 0..n {
        let mut prod = 1.0;
        for (j, &e) in extents.iter().enumerate() {
            if j != i {
                prod *= e;
            }
        }
        sum += prod;
    }
    tuples * sum * sum
}

/// Expected output size via **biconnected-block decomposition** — the
/// paper's "queries that can be decomposed to acyclic and clique graphs".
///
/// Blocks share only cut vertices, so their satisfaction events are
/// independent and block selectivities multiply: a bridge contributes the
/// pairwise factor `(|rᵢ|+|rⱼ|)²`, a clique block on `k` variables the
/// \[PMT99\] factor `(Σᵢ Πⱼ≠ᵢ |rⱼ|)²`. Returns `None` when some block is
/// neither (e.g. a bare cycle), where no exact formula is known.
pub fn decomposed_solutions(graph: &QueryGraph, cards: &[usize], extents: &[f64]) -> Option<f64> {
    assert_eq!(cards.len(), graph.n_vars());
    assert_eq!(extents.len(), graph.n_vars());
    let tuples: f64 = cards.iter().map(|&c| c as f64).product();
    let mut selectivity = 1.0;
    for block in graph.blocks() {
        if block.is_bridge() {
            let e = &graph.edges()[block.edges[0]];
            selectivity *= pairwise_selectivity(extents[e.a], extents[e.b]);
        } else if block.is_clique() {
            // (Σᵢ Πⱼ≠ᵢ |rⱼ|)² over the block's variables.
            let ext: Vec<f64> = block.vars.iter().map(|&v| extents[v]).collect();
            let k = ext.len();
            let mut sum = 0.0;
            for i in 0..k {
                let mut prod = 1.0;
                for (j, &e) in ext.iter().enumerate() {
                    if j != i {
                        prod *= e;
                    }
                }
                sum += prod;
            }
            selectivity *= sum * sum;
        } else {
            return None;
        }
    }
    Some(tuples * selectivity)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{expected_solutions, extent_for_density, QueryShape};
    use mwsj_query::QueryGraph;

    #[test]
    fn acyclic_matches_uniform_specialisation() {
        let n = 7;
        let big_n = 50_000;
        let d = 0.01;
        let r = extent_for_density(big_n, d);
        let graph = QueryGraph::chain(n);
        let general = acyclic_solutions(&graph, &vec![big_n; n], &vec![r; n]);
        let special = expected_solutions(QueryShape::Chain, n, big_n, d);
        assert!((general / special - 1.0).abs() < 1e-9);
    }

    #[test]
    fn clique_matches_uniform_specialisation() {
        let n = 6;
        let big_n = 20_000;
        let d = 0.05;
        let r = extent_for_density(big_n, d);
        let graph = QueryGraph::clique(n);
        let general = clique_solutions(&graph, &vec![big_n; n], &vec![r; n]);
        let special = expected_solutions(QueryShape::Clique, n, big_n, d);
        assert!((general / special - 1.0).abs() < 1e-9);
    }

    #[test]
    fn decomposition_matches_acyclic_formula_on_trees() {
        let graph = QueryGraph::chain(6);
        let cards = vec![500usize; 6];
        let extents = vec![0.02f64; 6];
        let dec = decomposed_solutions(&graph, &cards, &extents).unwrap();
        let direct = acyclic_solutions(&graph, &cards, &extents);
        assert!((dec / direct - 1.0).abs() < 1e-12);
    }

    #[test]
    fn decomposition_matches_clique_formula_on_cliques() {
        let graph = QueryGraph::clique(5);
        let cards = vec![300usize; 5];
        let extents = vec![0.05f64; 5];
        let dec = decomposed_solutions(&graph, &cards, &extents).unwrap();
        let direct = clique_solutions(&graph, &cards, &extents);
        assert!((dec / direct - 1.0).abs() < 1e-12);
    }

    #[test]
    fn decomposition_handles_mixed_graphs() {
        // Triangle 0-1-2 plus pendant edge 2-3: one clique block, one
        // bridge.
        let graph = mwsj_query::QueryGraphBuilder::new(4)
            .edge(0, 1)
            .edge(1, 2)
            .edge(0, 2)
            .edge(2, 3)
            .build()
            .unwrap();
        let cards = vec![100usize; 4];
        let extents = vec![0.1f64; 4];
        let dec = decomposed_solutions(&graph, &cards, &extents).unwrap();
        // Manual: N⁴ · (3·|r|²)² · (2|r|)².
        let r: f64 = 0.1;
        let manual = 100f64.powi(4) * (3.0 * r * r).powi(2) * (2.0 * r).powi(2);
        assert!(
            (dec / manual - 1.0).abs() < 1e-12,
            "dec {dec} manual {manual}"
        );
    }

    #[test]
    fn decomposition_rejects_bare_cycles() {
        let graph = QueryGraph::cycle(4);
        assert!(decomposed_solutions(&graph, &[10; 4], &[0.1; 4]).is_none());
    }

    /// Monte-Carlo check of the mixed-graph decomposition estimate.
    #[test]
    fn decomposition_matches_simulation_on_mixed_graph() {
        use crate::Dataset;
        use rand::rngs::StdRng;
        use rand::SeedableRng;
        let mut rng = StdRng::seed_from_u64(22);
        let graph = mwsj_query::QueryGraphBuilder::new(4)
            .edge(0, 1)
            .edge(1, 2)
            .edge(0, 2)
            .edge(2, 3)
            .build()
            .unwrap();
        let n = 120;
        let d = 0.25;
        let ds: Vec<Dataset> = (0..4).map(|_| Dataset::uniform(n, d, &mut rng)).collect();
        let hits = crate::count_exact_solutions(&ds, &graph, u64::MAX);
        let r = crate::extent_for_density(n, d);
        let expected = decomposed_solutions(&graph, &[n; 4], &[r; 4]).unwrap();
        let ratio = hits as f64 / expected;
        assert!(
            (0.5..2.0).contains(&ratio),
            "simulated {hits} vs model {expected} (ratio {ratio})"
        );
    }

    #[test]
    fn heterogeneous_extents_are_supported() {
        let graph = QueryGraph::chain(3);
        let sol = acyclic_solutions(&graph, &[100, 200, 300], &[0.1, 0.2, 0.3]);
        let expected = (100.0 * 200.0 * 300.0)
            * pairwise_selectivity(0.1, 0.2)
            * pairwise_selectivity(0.2, 0.3);
        assert!((sol - expected).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "requires an acyclic query")]
    fn acyclic_formula_rejects_cliques() {
        let graph = QueryGraph::clique(4);
        let _ = acyclic_solutions(&graph, &[10; 4], &[0.1; 4]);
    }

    #[test]
    #[should_panic(expected = "requires a clique query")]
    fn clique_formula_rejects_chains() {
        let graph = QueryGraph::chain(4);
        let _ = clique_solutions(&graph, &[10; 4], &[0.1; 4]);
    }

    /// Monte-Carlo validation of the clique model for n = 3 at moderate N:
    /// count real triples of mutually intersecting rects.
    #[test]
    fn clique_model_matches_simulation() {
        use crate::Dataset;
        use rand::rngs::StdRng;
        use rand::SeedableRng;
        let mut rng = StdRng::seed_from_u64(21);
        let n = 300;
        let d = 0.15;
        let ds: Vec<Dataset> = (0..3).map(|_| Dataset::uniform(n, d, &mut rng)).collect();
        let mut hits = 0u64;
        for a in ds[0].rects() {
            for b in ds[1].rects() {
                if !a.intersects(b) {
                    continue;
                }
                for c in ds[2].rects() {
                    if a.intersects(c) && b.intersects(c) {
                        hits += 1;
                    }
                }
            }
        }
        let expected = expected_solutions(QueryShape::Clique, 3, n, d);
        let ratio = hits as f64 / expected;
        assert!(
            (0.6..1.6).contains(&ratio),
            "simulated {hits} vs model {expected} (ratio {ratio})"
        );
    }
}
