//! Multi-window best-first branch-and-bound kernel.
//!
//! This is the traversal at the heart of the paper's *find best value*
//! routine (Fig. 5), lifted into the index crate so every search layer
//! shares one implementation: given a set of query windows (predicate +
//! rectangle pairs), find the leaf payload that maximises a caller-supplied
//! score of its window-satisfaction count.
//!
//! The kernel knows nothing about solutions, penalties or budgets — the
//! caller injects the leaf scoring rule:
//!
//! - a **raw** scorer (`count as f64`) reproduces the paper's Fig. 5
//!   comparison exactly, because `u32` counts convert to `f64` losslessly
//!   (so `score_a > score_b ⇔ count_a > count_b`);
//! - a **λ-penalised** scorer (`count − λ·penalty(value)`) yields the GILS
//!   variant of §4.
//!
//! Pruning uses the entry's *potential* count (how many windows the entry
//! MBR could still satisfy) as an admissible bound on any leaf score below
//! it: scorers must never score a leaf above `count as f64` (penalties only
//! subtract), so a subtree whose potential count does not exceed the best
//! score found so far cannot contain a better leaf.

use crate::flat::FlatLeaves;
use crate::visit::NodeRef;
use mwsj_geom::{Predicate, Rect};

/// The winning leaf of a [`find_best_leaf`] traversal.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BestLeaf<T> {
    /// The leaf payload.
    pub value: T,
    /// Number of windows the leaf's MBR satisfies.
    pub satisfied: u32,
    /// The caller-supplied score the leaf won with.
    pub score: f64,
}

/// Best-first branch-and-bound search for the leaf entry maximising
/// `score(value, satisfied_window_count)` (paper Fig. 5).
///
/// Entries of each visited node are scored by the number of windows they
/// satisfy (leaf level, `Predicate::eval`) or could satisfy (internal
/// level, `Predicate::possible`), entries with zero count are dropped, and
/// the rest are visited in descending count order. A subtree is pruned
/// when its potential count, as an `f64`, does not exceed the best score
/// found so far — admissible as long as `score(v, c) <= c as f64` for
/// every leaf, which both the raw and the penalised scorer guarantee.
///
/// Returns `None` when no leaf satisfies any window. `node_accesses` is
/// incremented once per node visited.
///
/// # Determinism
///
/// For a fixed tree and window list the traversal is deterministic: equal
/// counts are visited in the node's entry order after a stable-for-equal-
/// inputs unstable sort, and ties on score keep the first winner.
pub fn find_best_leaf<T: Copy>(
    root: NodeRef<'_, T>,
    windows: &[(Predicate, Rect)],
    mut score: impl FnMut(&T, u32) -> f64,
    node_accesses: &mut u64,
) -> Option<BestLeaf<T>> {
    if windows.is_empty() {
        return None;
    }
    let mut best: Option<BestLeaf<T>> = None;
    descend(root, None, windows, &mut score, &mut best, &mut |_| {
        *node_accesses += 1
    });
    best
}

/// [`find_best_leaf`] with **per-level access attribution**: identical
/// traversal and result, but each visited node additionally increments
/// `level_accesses[node.level()]` (`[0]` = leaf level). Levels beyond the
/// slice length are counted only in `node_accesses`, so callers sizing the
/// slice from [`crate::RTree::height`] lose nothing. The attribution
/// invariant — `level_accesses` deltas summing exactly to the
/// `node_accesses` delta — is locked by property tests.
pub fn find_best_leaf_leveled<T: Copy>(
    root: NodeRef<'_, T>,
    windows: &[(Predicate, Rect)],
    mut score: impl FnMut(&T, u32) -> f64,
    node_accesses: &mut u64,
    level_accesses: &mut [u64],
) -> Option<BestLeaf<T>> {
    if windows.is_empty() {
        return None;
    }
    let mut best: Option<BestLeaf<T>> = None;
    descend(root, None, windows, &mut score, &mut best, &mut |lvl| {
        *node_accesses += 1;
        if let Some(slot) = level_accesses.get_mut(lvl as usize) {
            *slot += 1;
        }
    });
    best
}

/// [`find_best_leaf`] over the flat leaf layout (see
/// [`FlatLeaves`]) — **probe-only**, kept for the benchmark's
/// `rtree.multiwindow` probe: internal-node traversal, ordering and
/// pruning are byte-for-byte the same, but leaf nodes are scanned through
/// the SoA coordinate arrays instead of the per-node entry vectors.
/// Results (winner, satisfied count, score) and the `node_accesses` total
/// are bit-identical to the entry-layout kernel, locked by property tests.
///
/// `flat` must be the copy of the tree `root` belongs to; spans of
/// another tree's copy address the wrong data.
pub fn find_best_leaf_flat<T: Copy>(
    root: NodeRef<'_, T>,
    flat: &FlatLeaves<T>,
    windows: &[(Predicate, Rect)],
    mut score: impl FnMut(&T, u32) -> f64,
    node_accesses: &mut u64,
) -> Option<BestLeaf<T>> {
    if windows.is_empty() {
        return None;
    }
    let mut best: Option<BestLeaf<T>> = None;
    descend(
        root,
        Some(flat),
        windows,
        &mut score,
        &mut best,
        &mut |_| *node_accesses += 1,
    );
    best
}

/// Recursive worker shared by every entry point. `tally` is invoked once
/// per node whose entries are read, with the node's level (0 = leaf) —
/// the entry points reduce it to a plain counter bump or a counter bump
/// plus per-level attribution, so the traversal itself stays single-copy
/// and the non-attributing paths monomorphise to the pre-attribution code.
fn descend<T: Copy>(
    node: NodeRef<'_, T>,
    flat: Option<&FlatLeaves<T>>,
    windows: &[(Predicate, Rect)],
    score: &mut impl FnMut(&T, u32) -> f64,
    best: &mut Option<BestLeaf<T>>,
    tally: &mut impl FnMut(u32),
) {
    tally(node.level());

    if node.is_leaf() {
        match flat {
            Some(flat) => scan_leaf_flat(node, flat, windows, score, best),
            None => scan_leaf_entries(node, windows, score, best),
        }
        return;
    }

    // Count potentially satisfied windows per entry; keep only entries
    // with a positive count, sorted descending (Fig. 5).
    let mut scored: Vec<(u32, usize)> = Vec::with_capacity(node.len());
    for (i, entry) in node.entries().enumerate() {
        let mbr = entry.mbr();
        let count = windows
            .iter()
            .filter(|(pred, w)| pred.possible(mbr, w))
            .count() as u32;
        if count > 0 {
            scored.push((count, i));
        }
    }
    scored.sort_unstable_by_key(|&(count, _)| std::cmp::Reverse(count));

    for (count, i) in scored {
        // The potential count bounds every leaf score below this entry
        // (scorers never exceed the raw count), so a subtree that
        // cannot beat the incumbent score is pruned.
        if let Some(b) = best {
            if (count as f64) <= b.score {
                continue;
            }
        }
        let child = node.entry(i).child().expect("internal entry");
        descend(child, flat, windows, score, best, tally);
    }
}

/// Leaf scan over the node's entry vector: count satisfied windows per
/// entry, drop zero counts, visit in descending count order, keep the
/// first strict score improvement.
fn scan_leaf_entries<T: Copy>(
    node: NodeRef<'_, T>,
    windows: &[(Predicate, Rect)],
    score: &mut impl FnMut(&T, u32) -> f64,
    best: &mut Option<BestLeaf<T>>,
) {
    let mut scored: Vec<(u32, usize)> = Vec::with_capacity(node.len());
    for (i, entry) in node.entries().enumerate() {
        let mbr = entry.mbr();
        let count = windows.iter().filter(|(pred, w)| pred.eval(mbr, w)).count() as u32;
        if count > 0 {
            scored.push((count, i));
        }
    }
    scored.sort_unstable_by_key(|&(count, _)| std::cmp::Reverse(count));
    for (count, i) in scored {
        let value = *node.entry(i).value().expect("leaf entry");
        offer(best, value, count, score);
    }
}

/// Leaf scan over the flat SoA layout: the same count/sort/offer sequence
/// as [`scan_leaf_entries`] — identical inputs through an identical sort
/// give identical visit order, hence bit-identical winners — but the
/// counting loop reads four contiguous coordinate arrays with no payload
/// branch.
fn scan_leaf_flat<T: Copy>(
    node: NodeRef<'_, T>,
    flat: &FlatLeaves<T>,
    windows: &[(Predicate, Rect)],
    score: &mut impl FnMut(&T, u32) -> f64,
    best: &mut Option<BestLeaf<T>>,
) {
    let (start, len) = flat.span(node.id());
    debug_assert_eq!(len, node.len(), "flat leaves of another tree");
    let mut scored: Vec<(u32, usize)> = Vec::with_capacity(len);
    for i in 0..len {
        let mbr = flat.rect(start + i);
        let count = windows
            .iter()
            .filter(|(pred, w)| pred.eval(&mbr, w))
            .count() as u32;
        if count > 0 {
            scored.push((count, i));
        }
    }
    scored.sort_unstable_by_key(|&(count, _)| std::cmp::Reverse(count));
    for (count, i) in scored {
        let value = *flat.value(start + i);
        offer(best, value, count, score);
    }
}

/// Offers one leaf candidate to the incumbent: strictly greater score
/// wins, ties keep the earlier visit.
#[inline]
fn offer<T: Copy>(
    best: &mut Option<BestLeaf<T>>,
    value: T,
    count: u32,
    score: &mut impl FnMut(&T, u32) -> f64,
) {
    let leaf_score = score(&value, count);
    let better = match best {
        None => true,
        Some(b) => leaf_score > b.score,
    };
    if better {
        *best = Some(BestLeaf {
            value,
            satisfied: count,
            score: leaf_score,
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{RTree, RTreeParams};
    use rand::rngs::StdRng;
    use rand::{RngExt, SeedableRng};

    fn random_rect(rng: &mut StdRng, extent: f64) -> Rect {
        let x = rng.random_range(0.0..1.0);
        let y = rng.random_range(0.0..1.0);
        let w = rng.random_range(0.0..extent);
        let h = rng.random_range(0.0..extent);
        Rect::new(x, y, x + w, y + h)
    }

    fn sample_tree(seed: u64, n: usize) -> (RTree<u32>, Vec<Rect>) {
        let mut rng = StdRng::seed_from_u64(seed);
        let rects: Vec<Rect> = (0..n).map(|_| random_rect(&mut rng, 0.1)).collect();
        let items: Vec<(Rect, u32)> = rects
            .iter()
            .enumerate()
            .map(|(i, r)| (*r, i as u32))
            .collect();
        (
            RTree::bulk_load_with_params(RTreeParams::new(8), items),
            rects,
        )
    }

    fn scan_best_score(
        rects: &[Rect],
        windows: &[(Predicate, Rect)],
        score: impl Fn(&u32, u32) -> f64,
    ) -> Option<f64> {
        rects
            .iter()
            .enumerate()
            .filter_map(|(i, r)| {
                let count = windows.iter().filter(|(pred, w)| pred.eval(r, w)).count() as u32;
                (count > 0).then(|| score(&(i as u32), count))
            })
            .max_by(|a, b| a.partial_cmp(b).expect("finite scores"))
    }

    #[test]
    fn raw_scorer_matches_exhaustive_scan() {
        let (tree, rects) = sample_tree(7, 500);
        let mut rng = StdRng::seed_from_u64(8);
        for _ in 0..40 {
            let windows: Vec<(Predicate, Rect)> = (0..3)
                .map(|_| (Predicate::Intersects, random_rect(&mut rng, 0.3)))
                .collect();
            let mut acc = 0;
            let fast = find_best_leaf(tree.root_node(), &windows, |_, c| c as f64, &mut acc);
            let slow = scan_best_score(&rects, &windows, |_, c| c as f64);
            assert_eq!(fast.map(|b| b.score), slow);
            if let Some(b) = fast {
                // The winner's reported count must be its true count.
                let true_count = windows
                    .iter()
                    .filter(|(pred, w)| pred.eval(&rects[b.value as usize], w))
                    .count() as u32;
                assert_eq!(b.satisfied, true_count);
            }
            assert!(acc > 0, "must at least visit the root");
        }
    }

    #[test]
    fn penalised_scorer_matches_exhaustive_scan() {
        let (tree, rects) = sample_tree(9, 400);
        let mut rng = StdRng::seed_from_u64(10);
        let penalties: Vec<u32> = (0..400).map(|_| rng.random_range(0..4)).collect();
        let lambda = 0.05;
        let score = |v: &u32, c: u32| c as f64 - lambda * penalties[*v as usize] as f64;
        for _ in 0..40 {
            let windows: Vec<(Predicate, Rect)> = (0..3)
                .map(|_| (Predicate::Intersects, random_rect(&mut rng, 0.3)))
                .collect();
            let mut acc = 0;
            let fast = find_best_leaf(tree.root_node(), &windows, score, &mut acc);
            let slow = scan_best_score(&rects, &windows, score);
            assert_eq!(fast.map(|b| b.score), slow);
        }
    }

    #[test]
    fn empty_windows_return_none_without_visiting() {
        let (tree, _) = sample_tree(11, 50);
        let mut acc = 0;
        assert_eq!(
            find_best_leaf(tree.root_node(), &[], |_: &u32, c| c as f64, &mut acc),
            None
        );
        assert_eq!(acc, 0);
    }

    #[test]
    fn leveled_kernel_matches_plain_kernel_and_attributes_every_access() {
        let (tree, _) = sample_tree(15, 2_000);
        let flat = tree.flat_leaves();
        let mut rng = StdRng::seed_from_u64(16);
        for _ in 0..30 {
            let windows: Vec<(Predicate, Rect)> = (0..3)
                .map(|_| (Predicate::Intersects, random_rect(&mut rng, 0.25)))
                .collect();
            let mut plain_acc = 0u64;
            let plain = find_best_leaf(tree.root_node(), &windows, |_, c| c as f64, &mut plain_acc);
            let mut acc = 0u64;
            let mut levels = vec![0u64; tree.height() as usize];
            let leveled = find_best_leaf_leveled(
                tree.root_node(),
                &windows,
                |_, c| c as f64,
                &mut acc,
                &mut levels,
            );
            assert_eq!(plain, leveled);
            assert_eq!(plain_acc, acc);
            assert_eq!(levels.iter().sum::<u64>(), acc, "levels {levels:?}");
            let mut flat_acc = 0u64;
            let flat_best = find_best_leaf_flat(
                tree.root_node(),
                &flat,
                &windows,
                |_, c| c as f64,
                &mut flat_acc,
            );
            assert_eq!(plain, flat_best);
            assert_eq!(flat_acc, acc);
        }
    }

    #[test]
    fn pruning_skips_subtrees_that_cannot_win() {
        let (tree, _) = sample_tree(13, 5_000);
        let mut rng = StdRng::seed_from_u64(14);
        let windows: Vec<(Predicate, Rect)> = (0..2)
            .map(|_| (Predicate::Intersects, random_rect(&mut rng, 0.2)))
            .collect();
        let mut acc = 0;
        let _ = find_best_leaf(tree.root_node(), &windows, |_, c| c as f64, &mut acc);
        assert!(
            acc < tree.node_count() as u64,
            "visited {acc} of {} nodes — pruning ineffective",
            tree.node_count()
        );
    }
}
