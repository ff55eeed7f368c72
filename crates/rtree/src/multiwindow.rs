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
//!
//! # The node scan
//!
//! A node is scored **window by window**: for each window the predicate's
//! batch form ([`Predicate::tally_possible`] on internal nodes,
//! [`Predicate::tally_eval`] on leaves) runs over the node's run of its
//! level's rectangle array and adds its verdicts to one count per slot —
//! the predicate is matched once per window and the loop over the entries
//! has no data-dependent branch. The slots with a positive count are then ranked in a **total
//! order: count descending, then slot ascending**, and visited in it.
//!
//! Counts and ranks live in one per-thread arena that the traversal uses
//! as a stack (a frame per node on the current root-to-leaf path), so a
//! call allocates nothing once the arena has grown to the tree's height.
//! [`for_each_candidate`], the threshold walk of the systematic algorithms,
//! scores its nodes through the same scan.

use crate::flat::FlatLeaves;
use crate::visit::NodeRef;
use mwsj_geom::{Predicate, Rect};
use std::borrow::Borrow;
use std::cell::RefCell;
use std::cmp::Reverse;

/// The winning leaf of a [`find_best_leaf`] traversal.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BestLeaf<T> {
    /// The leaf payload.
    pub value: T,
    /// The leaf's rectangle, as the index stores it.
    pub rect: Rect,
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
/// The visit order is a definition, not a property of a sort: within a
/// node, entries go by **count descending, then slot ascending**, and a
/// leaf replaces the incumbent only with a strictly greater score. So for
/// a fixed tree and window list the winner is the first leaf, in that
/// order, that reaches the maximum score — whatever the node capacity and
/// however many entries tie.
pub fn find_best_leaf<T: Copy>(
    root: NodeRef<'_, T>,
    windows: &[(Predicate, Rect)],
    mut score: impl FnMut(&T, u32) -> f64,
    node_accesses: &mut u64,
) -> Option<BestLeaf<T>> {
    search(root, None, windows, &mut score, &mut |_| {
        *node_accesses += 1
    })
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
    search(root, None, windows, &mut score, &mut |lvl| {
        *node_accesses += 1;
        if let Some(slot) = level_accesses.get_mut(lvl as usize) {
            *slot += 1;
        }
    })
}

/// [`find_best_leaf`] over the flat leaf layout (see
/// [`FlatLeaves`]) — **probe-only**, kept for the benchmark's
/// `rtree.multiwindow` probe: internal-node traversal, ordering and
/// pruning are byte-for-byte the same, but leaf nodes are scanned through
/// the SoA coordinate arrays instead of the leaf level's rectangle array.
/// Results (winner, satisfied count, score) and the `node_accesses` total
/// are bit-identical to [`find_best_leaf`]'s, locked by property tests.
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
    search(root, Some(flat), windows, &mut score, &mut |_| {
        *node_accesses += 1
    })
}

/// Visits every leaf payload below `root` that satisfies at least
/// `min_count` (≥ 1) of the `windows`: `emit(value, satisfied_count)`, in
/// tree order, descending only into entries whose MBR could still reach
/// `min_count`. With `min_count = windows.len()` this is the conjunctive
/// window query of *window reduction*; with `min_count = 1` it is the
/// candidate generation of IBB.
///
/// Every visited node bumps `node_accesses` and, when the slice is long
/// enough, `level_accesses[node.level()]` (`[0]` = leaf); pass `&mut []`
/// to skip attribution. Empty `windows` visit nothing.
pub fn for_each_candidate<T: Copy>(
    root: NodeRef<'_, T>,
    windows: &[(Predicate, Rect)],
    min_count: u32,
    node_accesses: &mut u64,
    level_accesses: &mut [u64],
    mut emit: impl FnMut(T, u32),
) {
    debug_assert!(min_count >= 1);
    if windows.is_empty() {
        return;
    }
    with_scratch(|scratch| {
        collect(
            root,
            windows,
            min_count,
            &mut emit,
            node_accesses,
            level_accesses,
            scratch,
        )
    });
}

thread_local! {
    /// The calling thread's count / rank arena, reused so that a traversal
    /// allocates nothing once it has grown.
    static SCRATCH: RefCell<Vec<u32>> = RefCell::default();
}

/// Runs `f` on the thread's arena. Every traversal pops the frames it
/// pushes, so the arena is handed over, and put back, empty.
fn with_scratch<R>(f: impl FnOnce(&mut Vec<u32>) -> R) -> R {
    // Taken, not borrowed: a scorer or `emit` may run a traversal of its
    // own on this thread.
    let mut scratch = SCRATCH.take();
    let out = f(&mut scratch);
    SCRATCH.set(scratch);
    out
}

/// Adds to `counts[slot]` the number of `windows` that slot's rectangle
/// satisfies (`leaf`: `eval`) or could satisfy (internal: `possible`);
/// `rects` yields the node's rectangles in slot order, once per window.
fn tally_windows<I>(
    windows: &[(Predicate, Rect)],
    leaf: bool,
    rects: impl Fn() -> I,
    counts: &mut [u32],
) where
    I: ExactSizeIterator,
    I::Item: Borrow<Rect>,
{
    for (pred, w) in windows {
        if leaf {
            pred.tally_eval(w, rects(), counts);
        } else {
            pred.tally_possible(w, rects(), counts);
        }
    }
}

/// Writes the slots with a positive count to the front of `ranks` — count
/// descending, then slot ascending — and returns how many there are.
/// `ranks` must be at least as long as `counts`.
fn rank(counts: &[u32], ranks: &mut [u32]) -> usize {
    let mut ranked = 0;
    for (slot, &count) in counts.iter().enumerate() {
        ranks[ranked] = slot as u32;
        ranked += (count > 0) as usize;
    }
    // The key is unique per slot, so any sort yields the one order.
    ranks[..ranked].sort_unstable_by_key(|&slot| (Reverse(counts[slot as usize]), slot));
    ranked
}

/// Shared back half of the three entry points.
fn search<T: Copy>(
    root: NodeRef<'_, T>,
    flat: Option<&FlatLeaves<T>>,
    windows: &[(Predicate, Rect)],
    score: &mut impl FnMut(&T, u32) -> f64,
    tally: &mut impl FnMut(u32),
) -> Option<BestLeaf<T>> {
    if windows.is_empty() {
        return None;
    }
    let mut best = None;
    with_scratch(|scratch| descend(root, flat, windows, score, &mut best, tally, scratch));
    best
}

/// Recursive worker shared by every entry point. `tally` is invoked once
/// per node whose entries are read, with the node's level (0 = leaf) —
/// the entry points reduce it to a plain counter bump or a counter bump
/// plus per-level attribution, so the traversal itself stays single-copy.
///
/// The node's frame on `scratch` is `n` counts followed by `n` rank
/// cells; it is addressed by index because the recursion pushes further
/// frames behind it, and popped before returning.
fn descend<T: Copy>(
    node: NodeRef<'_, T>,
    flat: Option<&FlatLeaves<T>>,
    windows: &[(Predicate, Rect)],
    score: &mut impl FnMut(&T, u32) -> f64,
    best: &mut Option<BestLeaf<T>>,
    tally: &mut impl FnMut(u32),
    scratch: &mut Vec<u32>,
) {
    tally(node.level());

    let rects = node.rects();
    let (leaf, n) = (node.is_leaf(), rects.len());
    let base = scratch.len();
    scratch.resize(base + 2 * n, 0);
    let (counts, ranks) = scratch[base..].split_at_mut(n);
    match flat {
        Some(flat) if leaf => tally_windows(windows, leaf, || flat.rects(node.index()), counts),
        _ => tally_windows(windows, leaf, || rects.iter(), counts),
    }
    let ranked = rank(counts, ranks);

    for k in 0..ranked {
        let slot = scratch[base + n + k] as usize;
        let count = scratch[base + slot];
        if leaf {
            let value = match flat {
                Some(flat) => flat.values(node.index())[slot],
                None => node.values()[slot],
            };
            offer(best, value, &rects[slot], count, score);
            continue;
        }
        // The potential count bounds every leaf score below this entry
        // (scorers never exceed the raw count), so a subtree that
        // cannot beat the incumbent score is pruned.
        if let Some(b) = best {
            if (count as f64) <= b.score {
                continue;
            }
        }
        let child = node.entry(slot).child().expect("internal entry");
        descend(child, flat, windows, score, best, tally, scratch);
    }
    scratch.truncate(base);
}

/// Recursive worker of [`for_each_candidate`]; its frame is the `n`
/// counts alone.
fn collect<T: Copy>(
    node: NodeRef<'_, T>,
    windows: &[(Predicate, Rect)],
    min_count: u32,
    emit: &mut impl FnMut(T, u32),
    node_accesses: &mut u64,
    level_accesses: &mut [u64],
    scratch: &mut Vec<u32>,
) {
    *node_accesses += 1;
    if let Some(slot) = level_accesses.get_mut(node.level() as usize) {
        *slot += 1;
    }
    let (leaf, rects) = (node.is_leaf(), node.rects());
    let base = scratch.len();
    scratch.resize(base + rects.len(), 0);
    tally_windows(windows, leaf, || rects.iter(), &mut scratch[base..]);
    for slot in 0..rects.len() {
        let count = scratch[base + slot];
        if count < min_count {
            continue;
        }
        if leaf {
            emit(node.values()[slot], count);
        } else {
            collect(
                node.entry(slot).child().expect("internal entry"),
                windows,
                min_count,
                emit,
                node_accesses,
                level_accesses,
                scratch,
            );
        }
    }
    scratch.truncate(base);
}

/// Offers one leaf candidate to the incumbent: strictly greater score
/// wins, ties keep the earlier visit.
#[inline]
fn offer<T: Copy>(
    best: &mut Option<BestLeaf<T>>,
    value: T,
    rect: &Rect,
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
            rect: *rect,
            satisfied: count,
            score: leaf_score,
        });
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::{RTree, RTreeParams};
    use rand::rngs::StdRng;
    use rand::{RngExt, SeedableRng};

    /// The single-window query of the crate's other test modules: the
    /// payloads satisfying `pred` against `window`, in walk order.
    pub(crate) fn window_hits<T: Copy>(tree: &RTree<T>, pred: Predicate, window: &Rect) -> Vec<T> {
        let mut hits = Vec::new();
        let windows = [(pred, *window)];
        for_each_candidate(tree.root_node(), &windows, 1, &mut 0, &mut [], |v, _| {
            hits.push(v)
        });
        hits
    }

    fn random_rect(rng: &mut StdRng, extent: f64) -> Rect {
        let x = rng.random_range(0.0..1.0);
        let y = rng.random_range(0.0..1.0);
        let w = rng.random_range(0.0..extent);
        let h = rng.random_range(0.0..extent);
        Rect::new(x, y, x + w, y + h)
    }

    fn sample_tree(seed: u64, n: usize) -> (RTree<u32>, Vec<Rect>) {
        sample_tree_with_capacity(seed, n, 8)
    }

    fn sample_tree_with_capacity(seed: u64, n: usize, capacity: usize) -> (RTree<u32>, Vec<Rect>) {
        let mut rng = StdRng::seed_from_u64(seed);
        let rects: Vec<Rect> = (0..n).map(|_| random_rect(&mut rng, 0.1)).collect();
        let items: Vec<(Rect, u32)> = rects
            .iter()
            .enumerate()
            .map(|(i, r)| (*r, i as u32))
            .collect();
        (
            RTree::bulk_load_with_params(RTreeParams::new(capacity), items),
            rects,
        )
    }

    /// The kernel as it was before the window-by-window scan, kept as the
    /// reference: every entry scored on its own, a fresh vector per node,
    /// and a *stable* sort by descending count — which is the stated total
    /// order, because the vector is filled in slot order.
    fn reference_descend(
        node: NodeRef<'_, u32>,
        windows: &[(Predicate, Rect)],
        score: &mut impl FnMut(&u32, u32) -> f64,
        best: &mut Option<BestLeaf<u32>>,
        levels: &mut [u64],
    ) {
        levels[node.level() as usize] += 1;
        let leaf = node.is_leaf();
        let mut scored: Vec<(u32, usize)> = Vec::with_capacity(node.len());
        for (i, entry) in node.entries().enumerate() {
            let mbr = entry.mbr();
            let count = windows
                .iter()
                .filter(|(pred, w)| {
                    if leaf {
                        pred.eval(mbr, w)
                    } else {
                        pred.possible(mbr, w)
                    }
                })
                .count() as u32;
            if count > 0 {
                scored.push((count, i));
            }
        }
        scored.sort_by_key(|&(count, _)| Reverse(count));
        for (count, i) in scored {
            if leaf {
                let value = *node.entry(i).value().expect("leaf entry");
                offer(best, value, node.entry(i).mbr(), count, score);
                continue;
            }
            if let Some(b) = best {
                if (count as f64) <= b.score {
                    continue;
                }
            }
            let child = node.entry(i).child().expect("internal entry");
            reference_descend(child, windows, score, best, levels);
        }
    }

    /// The threshold walk as it was: entry-by-entry counts, slot order.
    fn reference_collect(
        node: NodeRef<'_, u32>,
        windows: &[(Predicate, Rect)],
        min_count: u32,
        out: &mut Vec<(u32, u32)>,
        levels: &mut [u64],
    ) {
        levels[node.level() as usize] += 1;
        for entry in node.entries() {
            let mbr = entry.mbr();
            match entry.child() {
                None => {
                    let count = windows.iter().filter(|(p, w)| p.eval(mbr, w)).count() as u32;
                    if count >= min_count {
                        out.push((*entry.value().expect("leaf entry"), count));
                    }
                }
                Some(child) => {
                    let possible =
                        windows.iter().filter(|(p, w)| p.possible(mbr, w)).count() as u32;
                    if possible >= min_count {
                        reference_collect(child, windows, min_count, out, levels);
                    }
                }
            }
        }
    }

    const PREDICATES: [Predicate; 6] = [
        Predicate::Intersects,
        Predicate::Contains,
        Predicate::Inside,
        Predicate::NorthEast,
        Predicate::SouthWest,
        Predicate::WithinDistance(0.05),
    ];

    /// A window every rectangle of the unit workspace satisfies `pred`
    /// against, where there is one: it ties all entries of a node on the
    /// top count.
    fn covering_window(pred: Predicate) -> Option<Rect> {
        match pred {
            Predicate::Intersects | Predicate::Inside | Predicate::WithinDistance(_) => {
                Some(Rect::new(-1.0, -1.0, 3.0, 3.0))
            }
            Predicate::NorthEast => Some(Rect::new(-1.0, -1.0, -1.0, -1.0)),
            Predicate::SouthWest => Some(Rect::new(3.0, 3.0, 3.0, 3.0)),
            Predicate::Contains => None,
        }
    }

    /// Holds the three kernels and the threshold walk against the
    /// references on one window list, raw and penalised.
    fn assert_equals_reference(tree: &RTree<u32>, windows: &[(Predicate, Rect)], what: &str) {
        let flat = tree.flat_leaves();
        let height = tree.height() as usize;
        // λ = 0 is the raw scorer. Few distinct penalties, so that many
        // leaves tie on the score and the visit order decides the winner.
        for lambda in [0.0, 0.3] {
            let scorer = |v: &u32, c: u32| c as f64 - lambda * (v.wrapping_mul(7919) % 3) as f64;
            let what = format!("{what}, λ = {lambda}");
            let mut expected = None;
            let mut expected_levels = vec![0u64; height];
            reference_descend(
                tree.root_node(),
                windows,
                &mut { scorer },
                &mut expected,
                &mut expected_levels,
            );
            let expected_accesses: u64 = expected_levels.iter().sum();
            let bits = |b: Option<BestLeaf<u32>>| {
                b.map(|b| (b.value, b.rect, b.satisfied, b.score.to_bits()))
            };

            let mut acc = 0u64;
            let plain = find_best_leaf(tree.root_node(), windows, scorer, &mut acc);
            assert_eq!(bits(plain), bits(expected), "plain: {what}");
            assert_eq!(acc, expected_accesses, "plain accesses: {what}");

            let (mut acc, mut levels) = (0u64, vec![0u64; height]);
            let leveled =
                find_best_leaf_leveled(tree.root_node(), windows, scorer, &mut acc, &mut levels);
            assert_eq!(bits(leveled), bits(expected), "leveled: {what}");
            assert_eq!(acc, expected_accesses, "leveled accesses: {what}");
            assert_eq!(levels, expected_levels, "per-level attribution: {what}");

            let mut acc = 0u64;
            let flat_best = find_best_leaf_flat(tree.root_node(), &flat, windows, scorer, &mut acc);
            assert_eq!(bits(flat_best), bits(expected), "flat: {what}");
            assert_eq!(acc, expected_accesses, "flat accesses: {what}");
        }
        for min_count in [1, windows.len() as u32] {
            let what = format!("{what}, min_count {min_count}");
            let mut expected = Vec::new();
            let mut expected_levels = vec![0u64; height];
            reference_collect(
                tree.root_node(),
                windows,
                min_count,
                &mut expected,
                &mut expected_levels,
            );
            let (mut acc, mut levels, mut got) = (0u64, vec![0u64; height], Vec::new());
            for_each_candidate(
                tree.root_node(),
                windows,
                min_count,
                &mut acc,
                &mut levels,
                |v, c| got.push((v, c)),
            );
            assert_eq!(got, expected, "candidates: {what}");
            assert_eq!(levels, expected_levels, "candidate attribution: {what}");
            assert_eq!(acc, expected_levels.iter().sum::<u64>(), "{what}");
        }
    }

    #[test]
    fn kernels_equal_the_entry_by_entry_reference() {
        let mut rng = StdRng::seed_from_u64(21);
        for capacity in [4, 8, 32] {
            let (tree, _) = sample_tree_with_capacity(20 + capacity as u64, 3_000, capacity);
            for pred in PREDICATES {
                for n_windows in 1..=5 {
                    for draw in 0..6 {
                        // Mostly one predicate, every other draw a mix.
                        let windows: Vec<(Predicate, Rect)> = (0..n_windows)
                            .map(|k| {
                                let p = if draw % 2 == 1 {
                                    PREDICATES[(k + draw) % PREDICATES.len()]
                                } else {
                                    pred
                                };
                                (p, random_rect(&mut rng, 0.3))
                            })
                            .collect();
                        let what =
                            format!("capacity {capacity}, {pred}, {n_windows} windows, #{draw}");
                        assert_equals_reference(&tree, &windows, &what);
                    }
                }
            }
        }
    }

    /// The case the unstable sort left open: more than 20 entries of a
    /// node tied on the top count. Windows that every rectangle satisfies
    /// tie all 32 entries of every node, on one to five windows.
    #[test]
    fn ties_beyond_twenty_entries_follow_the_stated_order() {
        let (tree, _) = sample_tree_with_capacity(31, 3_000, 32);
        let mut leaf = tree.root_node();
        while !leaf.is_leaf() {
            leaf = leaf.entry(0).child().expect("internal entry");
        }
        assert!(leaf.len() > 20, "first leaf holds {} entries", leaf.len());
        let mut rng = StdRng::seed_from_u64(32);
        for pred in PREDICATES {
            let Some(cover) = covering_window(pred) else {
                continue;
            };
            for n_windows in 1..=5 {
                let all_tied = vec![(pred, cover); n_windows];
                assert_equals_reference(
                    &tree,
                    &all_tied,
                    &format!("{pred} × {n_windows} covering"),
                );
                // Covering windows plus a selective one: two count classes,
                // the lower one still more than 20 strong.
                let mut mixed = all_tied;
                mixed.push((Predicate::Intersects, random_rect(&mut rng, 0.05)));
                assert_equals_reference(&tree, &mixed, &format!("{pred} × {n_windows} + 1"));
            }
        }
    }

    /// A single-window query is the walk with one window and `min_count`
    /// 1: under every predicate and at every capacity it returns what a
    /// linear scan of the input does, in ascending leaf-array position.
    #[test]
    fn single_window_walk_is_the_linear_scan_in_leaf_order() {
        let windows = [
            Rect::new(0.1, 0.1, 0.3, 0.3),
            Rect::new(0.0, 0.0, 1.0, 1.0),
            Rect::new(0.95, 0.95, 0.99, 0.99),
            Rect::new(0.5, 0.5, 0.5, 0.5),
            Rect::new(2.0, 2.0, 3.0, 3.0), // off the workspace
        ];
        for capacity in [4, 8, 32] {
            let (tree, rects) = sample_tree_with_capacity(11, 2_000, capacity);
            for pred in PREDICATES {
                for w in &windows {
                    let got = window_hits(&tree, pred, w);
                    let in_leaf_order: Vec<u32> = tree
                        .iter()
                        .filter(|(r, _)| pred.eval(r, w))
                        .map(|(_, v)| *v)
                        .collect();
                    assert_eq!(got, in_leaf_order, "capacity {capacity}, {pred} on {w}");
                    let mut got = got;
                    got.sort_unstable();
                    let scan: Vec<u32> = (0u32..)
                        .zip(&rects)
                        .filter(|(_, r)| pred.eval(r, w))
                        .map(|(i, _)| i)
                        .collect();
                    assert_eq!(got, scan, "capacity {capacity}, {pred} on {w}");
                }
            }
        }
        let empty: RTree<u32> = RTree::bulk_load(Vec::new());
        assert!(window_hits(&empty, Predicate::Intersects, &windows[1]).is_empty());
    }

    #[test]
    fn rank_orders_by_count_then_slot() {
        let counts = [0, 2, 5, 2, 0, 5, 1, 2];
        let mut ranks = [u32::MAX; 8];
        let ranked = rank(&counts, &mut ranks);
        assert_eq!(&ranks[..ranked], &[2, 5, 1, 3, 7, 6]);
        assert_eq!(rank(&[], &mut []), 0);
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
                assert_eq!(b.rect, rects[b.value as usize]);
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
