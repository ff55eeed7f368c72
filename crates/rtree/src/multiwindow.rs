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
//! One scan scores the nodes of both traversals:
//!
//! - **Window by window.** For each window the predicate's batch form
//!   ([`Predicate::tally_possible`] on internal nodes,
//!   [`Predicate::tally_eval`] on leaves) runs over the node's run of its
//!   level's rectangle array and adds its verdicts to one count per slot:
//!   the predicate is matched once per window and the loop over the
//!   entries has no data-dependent branch.
//! - **Only the windows the node can satisfy.** A window that the node's
//!   own rectangle (its parent's entry) fails `possible` against adds
//!   nothing to any slot: `eval(r, w)` and `possible(c, w)` each imply
//!   `possible(m, w)` for `r, c ⊆ m`, so no rectangle inside the node
//!   passes it either. A node is entered with the count its parent tallied
//!   for it, which is exactly how many windows its rectangle passes. When
//!   that is every window (the root; every node of a conjunctive walk) the
//!   scan tallies them all untested; otherwise it tests windows against the
//!   node's rectangle until it has met the ones that fail, and skips them.
//! - **Ranked, then cut.** The slots with a positive count are ranked in a
//!   **total order: count descending, then slot ascending**, and visited
//!   in it, up to the first whose count does not exceed the incumbent's
//!   score: later slots count no more, and no scorer exceeds its count.
//!
//! Counts and ranks live in one per-thread arena that the traversal uses
//! as a stack (a frame per node on the current root-to-leaf path), so a
//! call allocates nothing once the arena has grown to the tree's height.
//! [`for_each_candidate`], the threshold walk of the systematic algorithms,
//! scores its nodes through the same scan and visits the slots that reach
//! its threshold in slot order.

use crate::visit::NodeRef;
use mwsj_geom::{Predicate, Rect};
use std::cell::RefCell;
use std::cmp::Reverse;

/// The winning leaf of a [`find_best_leaf_leveled`] traversal.
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
/// the rest are visited in descending count order. A subtree is pruned,
/// and a leaf is not scored, when its count, as an `f64`, does not exceed
/// the best score found so far — admissible as long as `score(v, c) <= c
/// as f64` for every leaf, which both the raw and the penalised scorer
/// guarantee. So `score` sees only the leaves that could still win.
///
/// Returns `None` when no leaf satisfies any window. Each visited node
/// increments `node_accesses` and, when the slice is long enough,
/// `level_accesses[node.level()]` (`[0]` = leaf level): callers sizing the
/// slice from [`crate::RTree::height`] lose nothing, and `&mut []` skips
/// the attribution. The attribution invariant — `level_accesses` deltas
/// summing exactly to the `node_accesses` delta — is locked by tests.
///
/// # Determinism
///
/// The visit order is a definition, not a property of a sort: within a
/// node, entries go by **count descending, then slot ascending**, and a
/// leaf replaces the incumbent only with a strictly greater score. So for
/// a fixed tree and window list the winner is the first leaf, in that
/// order, that reaches the maximum score — whatever the node capacity and
/// however many entries tie.
pub fn find_best_leaf_leveled<T: Copy>(
    root: NodeRef<'_, T>,
    windows: &[(Predicate, Rect)],
    mut score: impl FnMut(&T, u32) -> f64,
    node_accesses: &mut u64,
    level_accesses: &mut [u64],
) -> Option<BestLeaf<T>> {
    let access = leveled(node_accesses, level_accesses);
    Walk { windows, access }.search(root, &mut score)
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
    let access = leveled(node_accesses, level_accesses);
    let mut walk = Walk { windows, access };
    let root = walk.root(root);
    with_scratch(|scratch| walk.collect(root, min_count, &mut emit, scratch));
}

/// The access counter of a walk that also attributes each node to its
/// level, when `level_accesses` is long enough.
fn leveled<'c>(node_accesses: &'c mut u64, level_accesses: &'c mut [u64]) -> impl FnMut(u32) + 'c {
    move |level| {
        *node_accesses += 1;
        if let Some(slot) = level_accesses.get_mut(level as usize) {
            *slot += 1;
        }
    }
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

/// What a traversal holds fixed from node to node: the windows and the
/// access counter every entered node bumps with its level (0 = leaf).
struct Walk<'a, A> {
    windows: &'a [(Predicate, Rect)],
    access: A,
}

/// A node as a walk enters it: `mbr` is its parent's entry for it and
/// `possible` the parent's count for that entry — the number of windows
/// `mbr` passes `possible` against.
struct Entered<'a, T> {
    node: NodeRef<'a, T>,
    mbr: &'a Rect,
    possible: u32,
}

impl<'a, A: FnMut(u32)> Walk<'a, A> {
    /// The root as a walk enters it: with no parent entry to rule a window
    /// out, every window counts as passing.
    fn root<T>(&self, root: NodeRef<'a, T>) -> Entered<'a, T> {
        Entered {
            node: root,
            mbr: &Rect::EMPTY,
            possible: self.windows.len() as u32,
        }
    }

    /// Back half of [`find_best_leaf_leveled`].
    fn search<T: Copy>(
        mut self,
        root: NodeRef<'a, T>,
        score: &mut impl FnMut(&T, u32) -> f64,
    ) -> Option<BestLeaf<T>> {
        if self.windows.is_empty() {
            return None;
        }
        let mut best = None;
        let root = self.root(root);
        with_scratch(|scratch| self.descend(root, score, &mut best, scratch));
        best
    }

    /// The node scan (module docs): counts the node as accessed and adds to
    /// `counts[slot]` the number of windows that slot's rectangle satisfies
    /// (leaf: `eval`) or could satisfy (internal: `possible`), skipping the
    /// windows the node's own rectangle fails.
    fn scan<T>(&mut self, at: &Entered<'a, T>, counts: &mut [u32]) {
        let node = at.node;
        (self.access)(node.level());
        // The windows `at.mbr` fails and the scan has not met yet: once
        // none is left, the rest pass and are tallied untested.
        let mut failing = self.windows.len() as u32 - at.possible;
        for (pred, w) in self.windows {
            if failing > 0 && !pred.possible(at.mbr, w) {
                failing -= 1;
                continue;
            }
            if node.is_leaf() {
                pred.tally_eval(w, node.rects(), counts);
            } else {
                pred.tally_possible(w, node.rects(), counts);
            }
        }
    }

    /// Best-first worker of [`Walk::search`]. The node's frame on `scratch`
    /// is `n` counts followed by `n` rank cells; it is addressed by index
    /// because the recursion pushes further frames behind it, and popped
    /// before returning.
    fn descend<T: Copy>(
        &mut self,
        at: Entered<'a, T>,
        score: &mut impl FnMut(&T, u32) -> f64,
        best: &mut Option<BestLeaf<T>>,
        scratch: &mut Vec<u32>,
    ) {
        let (node, rects) = (at.node, at.node.rects());
        let n = rects.len();
        let base = scratch.len();
        scratch.resize(base + 2 * n, 0);
        let (counts, ranks) = scratch[base..].split_at_mut(n);
        self.scan(&at, counts);
        let ranked = rank(counts, ranks);

        for k in 0..ranked {
            let slot = scratch[base + n + k] as usize;
            let count = scratch[base + slot];
            // No leaf at or below this entry scores above its count
            // (scorers never exceed the raw count), and later ranks count
            // no more: once the incumbent reaches it, nothing left can win.
            if best.as_ref().is_some_and(|b| f64::from(count) <= b.score) {
                break;
            }
            if node.is_leaf() {
                offer(best, node.values()[slot], &rects[slot], count, score);
            } else {
                let child = Entered {
                    node: node.entry(slot).child().expect("internal entry"),
                    mbr: &rects[slot],
                    possible: count,
                };
                self.descend(child, score, best, scratch);
            }
        }
        scratch.truncate(base);
    }

    /// Worker of [`for_each_candidate`]: the slots that reach `min_count`,
    /// in slot order. Its frame is the `n` counts alone.
    fn collect<T: Copy>(
        &mut self,
        at: Entered<'a, T>,
        min_count: u32,
        emit: &mut impl FnMut(T, u32),
        scratch: &mut Vec<u32>,
    ) {
        let (node, rects) = (at.node, at.node.rects());
        let base = scratch.len();
        scratch.resize(base + rects.len(), 0);
        self.scan(&at, &mut scratch[base..]);
        for slot in 0..rects.len() {
            let count = scratch[base + slot];
            if count < min_count {
                continue;
            }
            if node.is_leaf() {
                emit(node.values()[slot], count);
            } else {
                let child = Entered {
                    node: node.entry(slot).child().expect("internal entry"),
                    mbr: &rects[slot],
                    possible: count,
                };
                self.collect(child, min_count, emit, scratch);
            }
        }
        scratch.truncate(base);
    }
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
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{RngExt, SeedableRng};
    use std::sync::atomic::{AtomicU64, Ordering};

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
    /// `missed` gains, per node entered below the root, the number of
    /// windows its rectangle fails — the windows the kernel's scan skips.
    fn reference_collect(
        node: NodeRef<'_, u32>,
        windows: &[(Predicate, Rect)],
        min_count: u32,
        out: &mut Vec<(u32, u32)>,
        levels: &mut [u64],
        missed: &mut u64,
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
                        *missed += (windows.len() as u32 - possible) as u64;
                        reference_collect(child, windows, min_count, out, levels, missed);
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

    /// Holds the kernel, with and without per-level attribution, and the
    /// threshold walk at every `min_count` against the references on one
    /// window list, raw and penalised.
    /// Returns how many (node, window) pairs the walk at `min_count` 1
    /// enters with the node's rectangle failing the window.
    fn assert_equals_reference(
        tree: &RTree<u32>,
        windows: &[(Predicate, Rect)],
        what: &str,
    ) -> u64 {
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
            let plain =
                find_best_leaf_leveled(tree.root_node(), windows, scorer, &mut acc, &mut []);
            assert_eq!(bits(plain), bits(expected), "unattributed: {what}");
            assert_eq!(acc, expected_accesses, "unattributed accesses: {what}");

            let (mut acc, mut levels) = (0u64, vec![0u64; height]);
            let leveled =
                find_best_leaf_leveled(tree.root_node(), windows, scorer, &mut acc, &mut levels);
            assert_eq!(bits(leveled), bits(expected), "leveled: {what}");
            assert_eq!(acc, expected_accesses, "leveled accesses: {what}");
            assert_eq!(levels, expected_levels, "per-level attribution: {what}");
        }
        let mut missed_at_one = 0;
        for min_count in 1..=windows.len() as u32 {
            let what = format!("{what}, min_count {min_count}");
            let mut expected = Vec::new();
            let mut expected_levels = vec![0u64; height];
            let mut missed = 0;
            reference_collect(
                tree.root_node(),
                windows,
                min_count,
                &mut expected,
                &mut expected_levels,
                &mut missed,
            );
            if min_count == 1 {
                missed_at_one = missed;
            }
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
        missed_at_one
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

    /// Rectangles on a 1/16 lattice of the unit square: drawn pairs share
    /// borders, touch at corners, nest with common sides and collapse to
    /// segments and points.
    pub(crate) fn lattice_rect() -> impl Strategy<Value = Rect> {
        (0u32..16, 0u32..16, 0u32..4, 0u32..4).prop_map(|(x, y, w, h)| {
            let at = |i: u32| f64::from(i) / 16.0;
            Rect::new(at(x), at(y), at(x + w), at(y + h))
        })
    }

    /// An object's size at hard-region density: at most 1/50 of the unit
    /// square's side, so that most nodes of a tree miss it.
    pub(crate) fn hard_region_rect() -> impl Strategy<Value = Rect> {
        (0.0f64..1.0, 0.0f64..1.0, 0.0f64..0.02, 0.0f64..0.02)
            .prop_map(|(x, y, w, h)| Rect::new(x, y, x + w, y + h))
    }

    pub(crate) fn any_predicate() -> impl Strategy<Value = Predicate> {
        prop_oneof![
            Just(Predicate::Intersects),
            Just(Predicate::Contains),
            Just(Predicate::Inside),
            Just(Predicate::NorthEast),
            Just(Predicate::SouthWest),
            Just(Predicate::WithinDistance(0.0)),
            Just(Predicate::WithinDistance(1.0 / 16.0)),
            (0.0f64..0.05).prop_map(Predicate::WithinDistance),
        ]
    }

    /// Cases so far, and how many of them entered a node whose rectangle
    /// fails one of the windows.
    static CASES: AtomicU64 = AtomicU64::new(0);
    static MISSING: AtomicU64 = AtomicU64::new(0);

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// The window filter where it acts: one to six windows of mixed
        /// predicates, each the size of one object at hard-region density
        /// or a lattice rectangle, over lattice and hard-region-sized data
        /// at capacities 4, 8 and 32. Winners, counts, score bits, accesses
        /// and per-level attribution equal the unfiltered references, and
        /// the filter is not vacuous: most cases enter a node that fails a
        /// window.
        #[test]
        fn kernels_equal_the_reference_where_nodes_miss_windows(
            capacity in prop_oneof![Just(4usize), Just(8), Just(32)],
            rects in prop::collection::vec(prop_oneof![lattice_rect(), hard_region_rect()], 1..600),
            windows in prop::collection::vec(
                (any_predicate(), prop_oneof![hard_region_rect(), lattice_rect()]),
                1..=6,
            ),
        ) {
            let items = rects.iter().zip(0u32..).map(|(r, i)| (*r, i)).collect();
            let tree = RTree::bulk_load_with_params(RTreeParams::new(capacity), items);
            let what = format!("capacity {capacity}, {} rectangles, {windows:?}", rects.len());
            let missed = assert_equals_reference(&tree, &windows, &what);
            let cases = CASES.fetch_add(1, Ordering::Relaxed) + 1;
            let missing = MISSING.fetch_add((missed > 0) as u64, Ordering::Relaxed)
                + (missed > 0) as u64;
            prop_assert!(cases < 16 || 2 * missing >= cases, "{missing} of {cases} cases");
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
            let root = tree.root_node();
            let fast = find_best_leaf_leveled(root, &windows, |_, c| c as f64, &mut acc, &mut []);
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
            let fast = find_best_leaf_leveled(tree.root_node(), &windows, score, &mut acc, &mut []);
            let slow = scan_best_score(&rects, &windows, score);
            assert_eq!(fast.map(|b| b.score), slow);
        }
    }

    #[test]
    fn empty_windows_return_none_without_visiting() {
        let (tree, _) = sample_tree(11, 50);
        let mut acc = 0;
        let score = |_: &u32, c: u32| c as f64;
        assert_eq!(
            find_best_leaf_leveled(tree.root_node(), &[], score, &mut acc, &mut []),
            None
        );
        assert_eq!(acc, 0);
    }

    #[test]
    fn leveled_kernel_matches_plain_kernel_and_attributes_every_access() {
        let (tree, _) = sample_tree(15, 2_000);
        let mut rng = StdRng::seed_from_u64(16);
        for _ in 0..30 {
            let windows: Vec<(Predicate, Rect)> = (0..3)
                .map(|_| (Predicate::Intersects, random_rect(&mut rng, 0.25)))
                .collect();
            let mut plain_acc = 0u64;
            let root = tree.root_node();
            let plain =
                find_best_leaf_leveled(root, &windows, |_, c| c as f64, &mut plain_acc, &mut []);
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
        let _ = find_best_leaf_leveled(
            tree.root_node(),
            &windows,
            |_, c| c as f64,
            &mut acc,
            &mut [],
        );
        assert!(
            acc < tree.node_count() as u64,
            "visited {acc} of {} nodes — pruning ineffective",
            tree.node_count()
        );
    }
}
