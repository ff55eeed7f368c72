//! Remembered answers for the *find best value* hot path.
//!
//! A local-search step changes at most one assignment, so the next
//! question about a variable often has the same windows as its last; a
//! population asks the same few questions over and over, selection filling
//! it with copies of good solutions. [`WindowCache`] is one table of
//! remembered questions — variable, raw or penalised mode and penalty
//! version, every neighbour's assignment — and their answers; a question in
//! the table is answered without touching the index. The variable's *own*
//! assignment is not part of a question: its windows are its neighbours'.
//!
//! Slot `v` of the first `n` is variable `v`'s own and holds the last
//! question asked about `v`. A population cache
//! ([`WindowCache::for_population`]) adds direct-mapped slots behind them,
//! addressed by a hash of the whole question. A question gathers its
//! neighbour assignments once, into its own slot, and probes that slot,
//! then its shared slot; a shared hit is copied into the own slot. A miss
//! builds the windows, asks the index and writes both slots. Keys are
//! stored and compared in full: two questions that share a slot evict each
//! other, they never answer for each other.
//!
//! A punishment changes no window, only the scores, so a penalised
//! question that differs from its own slot in the version alone is not
//! re-walked: the cache keeps, per variable, the objects that reach the top
//! satisfied count `t` ([`index::top_objects`]) in the kernel's tie order,
//! and re-scores them with the kernel's `count − λ·penalty` and first
//! strict maximum. No object off the list scores above `t − 1`, so an
//! answer above `t − 1` is exact; otherwise the list is widened once to
//! every object with a count ≥ 1, which is always exact (DESIGN.md §5e).
//!
//! A hit returns a bit-identical result without the traversal, so node
//! accesses under the cache are ≤ the uncached ones and every other counter
//! is unchanged (DESIGN.md §5e). A miss is a question for the index, not
//! necessarily a walk: one whose every window the support bits show dead is
//! answered empty without a node read ([`index::best`]). ILS's climb and
//! SEA's mutation keep only an answer above the current count; when the
//! support bits' live windows are at most that count,
//! [`WindowCache::improving_value_with`] answers `None` before the table is
//! read and counts the question as `skipped`, so a later question may miss
//! where it would have hit, but every answer stays the kernel's.
//!
//! Every question is classified into [`CacheStats`] (per variable, `hits +
//! misses + skipped` is the number asked) by plain `u64` increments. A miss
//! is an invalidation when the variable's own slot held another question:
//! `reassign` if a neighbour's assignment differs, else `penalty`. Drives
//! absorb the counters into [`RunStats`](crate::RunStats) at the end of the
//! run, from where they merge deterministically like every other work
//! counter (DESIGN.md §5g).

use crate::find_best_value::BestValue;
use crate::index;
use crate::instance::Instance;
use mwsj_geom::{Predicate, Rect};
use mwsj_obs::MemoryFootprint;
use mwsj_query::{PenaltyTable, Solution, VarId};

/// Cache telemetry for one variable.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct VarCacheStats {
    /// Queries answered without a traversal: from the variable's own slot,
    /// from a shared slot, or, in penalty mode, by re-scoring the
    /// variable's tie list.
    pub hits: u64,
    /// Queries that ran the index traversal (cold or invalidated).
    pub misses: u64,
    /// Misses caused by a neighbour-assignment change that invalidated the
    /// variable's remembered question.
    pub invalidations_reassign: u64,
    /// Misses caused by a [`PenaltyTable::version`] bump alone (all
    /// neighbour windows unchanged): the tie list had to be built, or
    /// widened, before it could answer.
    pub invalidations_penalty: u64,
    /// Questions that needed an answer above the variable's current count
    /// and were answered `None` by the support bits' bound alone, without
    /// a look at the cache (the raw question of ILS's climb and SEA's
    /// mutation).
    pub skipped: u64,
}

impl VarCacheStats {
    /// The five counters by the name the `metrics` event gives them
    /// (`cache.<name>` for the totals, `cache.varNNN.<name>` per variable).
    pub(crate) fn counters(&self) -> [(&'static str, u64); 5] {
        [
            ("hits", self.hits),
            ("misses", self.misses),
            ("invalidations.reassign", self.invalidations_reassign),
            ("invalidations.penalty", self.invalidations_penalty),
            ("skipped", self.skipped),
        ]
    }

    pub(crate) fn absorb(&mut self, other: &VarCacheStats) {
        self.hits += other.hits;
        self.misses += other.misses;
        self.invalidations_reassign += other.invalidations_reassign;
        self.invalidations_penalty += other.invalidations_penalty;
        self.skipped += other.skipped;
    }
}

/// [`WindowCache`] efficiency telemetry: per-variable hit/miss/invalidation
/// counters plus the cache's resident bytes.
///
/// All fields are counters of deterministic algorithmic work, so they obey
/// the same merge rules as every other metric: pointwise sums are
/// bit-identical across thread counts under step budgets
/// ([`CacheStats::absorb`] is the portfolio/two-step reduction).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Per-variable breakdown, indexed by variable id.
    pub per_var: Vec<VarCacheStats>,
    /// Resident bytes of the cache(s) at the end of the run
    /// ([`MemoryFootprint`] accounting; sums across merged runs).
    pub bytes: u64,
}

impl CacheStats {
    /// Total hits across variables.
    pub fn hits(&self) -> u64 {
        self.per_var.iter().map(|v| v.hits).sum()
    }

    /// Total misses across variables.
    pub fn misses(&self) -> u64 {
        self.per_var.iter().map(|v| v.misses).sum()
    }

    /// Total reassignment-caused invalidations across variables.
    pub fn invalidations_reassign(&self) -> u64 {
        self.per_var.iter().map(|v| v.invalidations_reassign).sum()
    }

    /// Total penalty-version-caused invalidations across variables.
    pub fn invalidations_penalty(&self) -> u64 {
        self.per_var.iter().map(|v| v.invalidations_penalty).sum()
    }

    /// Total questions the support bits answered before the cache.
    pub fn skipped(&self) -> u64 {
        self.per_var.iter().map(|v| v.skipped).sum()
    }

    /// Every question asked: hits, misses and skipped.
    pub fn questions(&self) -> u64 {
        self.hits() + self.misses() + self.skipped()
    }

    /// `true` when no cache was ever consulted.
    pub fn is_empty(&self) -> bool {
        self.per_var.is_empty() && self.bytes == 0
    }

    /// Pointwise sum of `other` into `self` (extending the per-variable
    /// vector as needed); bytes add up. Associative and commutative, so a
    /// seed-ordered fold is independent of thread scheduling.
    pub fn absorb(&mut self, other: &CacheStats) {
        if self.per_var.len() < other.per_var.len() {
            self.per_var
                .resize(other.per_var.len(), VarCacheStats::default());
        }
        for (mine, theirs) in self.per_var.iter_mut().zip(&other.per_var) {
            mine.absorb(theirs);
        }
        self.bytes += other.bytes;
    }
}

/// A traversal's answer as the cache keeps it: a [`BestValue`] without its
/// rectangle — 32 of its 56 bytes, in every slot — which a hit reads back
/// from the asking solution's own rectangles or, failing that, from the
/// instance ([`Answer::revive`]).
#[derive(Debug, Clone, Copy)]
struct Answer {
    object: usize,
    satisfied: u32,
    effective: f64,
}

impl Answer {
    /// The full answer to a question about `var` asked on behalf of `sol`,
    /// whose assignments' rectangles `rect_of` has at hand.
    fn revive(
        self,
        instance: &Instance,
        sol: &Solution,
        var: VarId,
        rect_of: impl Fn(VarId, usize) -> Rect,
    ) -> BestValue {
        let rect = if self.object == sol.get(var) {
            rect_of(var, self.object)
        } else {
            instance.rect(var, self.object)
        };
        BestValue {
            object: self.object,
            rect,
            satisfied: self.satisfied,
            effective: self.effective,
        }
    }
}

/// One remembered question but for its neighbour assignments, which sit in
/// [`WindowCache::assignments`], and its answer.
#[derive(Debug, Clone, Copy)]
struct Slot {
    var: VarId,
    /// 0 = raw, `v + 1` = penalised at [`PenaltyTable::version`] `v`.
    mode: u64,
    answer: Option<Answer>,
}

/// What a penalised question about one variable is re-scored over:
/// `(object, satisfied)` at the top count — at every count ≥ 1 once
/// `widened` — in the order the kernel breaks ties in, and the neighbour
/// assignments, so the windows, it was built from.
#[derive(Debug, Clone, Default)]
struct TieList {
    assignments: Vec<usize>,
    tied: Vec<(u32, u32)>,
    widened: bool,
}

impl TieList {
    /// The first strict maximum of `count − λ·penalty` over the list — the
    /// kernel's expression and tie rule — if it is the kernel's answer: off
    /// a top list, no object scores above `top − 1`.
    fn rescore(&self, var: VarId, table: &PenaltyTable, lambda: f64) -> Option<Option<Answer>> {
        let mut best: Option<Answer> = None;
        for &(object, satisfied) in &self.tied {
            let object = object as usize;
            let effective = satisfied as f64 - lambda * table.get(var, object) as f64;
            if best.is_none_or(|b| effective > b.effective) {
                best = Some(Answer {
                    object,
                    satisfied,
                    effective,
                });
            }
        }
        let top = self.tied.first().map_or(0, |&(_, count)| count);
        let exact = self.widened || best.is_none_or(|b| b.effective > f64::from(top) - 1.0);
        exact.then_some(best)
    }
}

/// A table of remembered [`find_best_value`](fn@crate::find_best_value)
/// questions over one instance.
///
/// Create one per search run and route every best-value query through
/// [`WindowCache::find_best_value`]; the answers are identical to the
/// free function's, only cheaper. [`WindowCache::stats`] reports how much
/// cheaper.
#[derive(Debug, Clone)]
pub struct WindowCache {
    /// Slot `v < n` is variable `v`'s own; the rest are shared, addressed
    /// by a hash of the question. `None` = never written.
    slots: Vec<Option<Slot>>,
    /// Per slot: the question's neighbour assignments, `stride` apiece;
    /// `usize::MAX` (no dataset is that large) in an own slot never asked.
    assignments: Vec<usize>,
    /// The largest degree of the query graph.
    stride: usize,
    /// The windows of the question being walked, `stride` of them.
    windows: Vec<(Predicate, Rect)>,
    /// One per variable from the first penalised question on; empty until.
    lists: Vec<TieList>,
    stats: Vec<VarCacheStats>,
}

impl WindowCache {
    /// A cache with one own slot per variable of `instance`, which
    /// remembers each variable's last question.
    pub fn new(instance: &Instance) -> Self {
        WindowCache::with_shared(instance, 0)
    }

    /// [`WindowCache::new`] plus four shared slots per member, rounded up
    /// to a power of two — for a caller that interleaves questions about
    /// the `members` solutions of a population. A shared hit is counted as
    /// a hit and, like an own-slot hit, touches no access counter.
    pub fn for_population(instance: &Instance, members: usize) -> Self {
        WindowCache::with_shared(instance, (4 * members).next_power_of_two())
    }

    fn with_shared(instance: &Instance, shared: usize) -> Self {
        let (graph, n) = (instance.graph(), instance.n_vars());
        let stride = (0..n).map(|v| graph.degree(v)).max().unwrap_or(0);
        let placeholder = (Predicate::Intersects, Rect::new(0.0, 0.0, 0.0, 0.0));
        WindowCache {
            slots: vec![None; n + shared],
            assignments: vec![usize::MAX; (n + shared) * stride],
            stride,
            windows: vec![placeholder; stride],
            lists: Vec::new(),
            stats: vec![VarCacheStats::default(); n],
        }
    }

    /// Freezes the cache's telemetry: the per-variable counters recorded
    /// so far plus the cache's current [`MemoryFootprint`] bytes. Drives
    /// absorb this into [`RunStats`](crate::RunStats) when the run ends.
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            per_var: self.stats.clone(),
            bytes: self.memory_bytes(),
        }
    }

    /// Cheap totals for live-telemetry sampling — `(hits, misses,
    /// resident bytes)` without cloning the per-variable table. Pure
    /// reads of deterministic counters, so sampling never perturbs the
    /// search.
    pub fn sample_totals(&self) -> (u64, u64, u64) {
        let hits = self.stats.iter().map(|v| v.hits).sum();
        let misses = self.stats.iter().map(|v| v.misses).sum();
        (hits, misses, self.memory_bytes())
    }

    /// Cached equivalent of [`find_best_value`](fn@crate::find_best_value):
    /// same arguments, bit-identical result, fewer node accesses.
    ///
    /// A question found in the table is answered without traversing the
    /// index (`node_accesses` is left untouched). A penalised question whose
    /// windows are those of the variable's tie list re-scores the list,
    /// untouched too unless the answer needs the list widened.
    ///
    /// # Panics
    /// As [`find_best_value`](fn@crate::find_best_value): when a traversal
    /// runs with a penalty weight λ that is negative, infinite or NaN.
    pub fn find_best_value(
        &mut self,
        instance: &Instance,
        sol: &Solution,
        var: VarId,
        penalties: Option<(&PenaltyTable, f64)>,
        node_accesses: &mut u64,
    ) -> Option<BestValue> {
        let tally = (node_accesses, &mut [][..]);
        self.find_best_value_with(instance, sol, var, penalties, instance.rect_of(), tally)
    }

    /// [`WindowCache::find_best_value`] for a caller that keeps the MBRs of
    /// `sol`'s assignments at hand: the windows of a walked question, and
    /// the rectangle of a remembered answer that is `var`'s current
    /// assignment, are read through `rect_of(v, sol.get(v))` — which must
    /// return what [`Instance::rect`] would, and is asked about nothing but
    /// `sol`'s own assignments — instead of from the dataset's rectangle
    /// array. `tally` is `(node_accesses, level_accesses)`: a walk bumps
    /// `level_accesses[lvl]` (`[0]` = leaf) per visited node alongside
    /// `node_accesses`, a hit touches neither.
    ///
    /// `#[inline]` keeps it inside the three `drive` loops, where the
    /// inliner had put it unasked until a kernel behind [`index::best`]
    /// changed size and it fell out: +1 … +3 % `solve_s` on rows that ran
    /// none of the changed code.
    #[inline]
    pub(crate) fn find_best_value_with(
        &mut self,
        instance: &Instance,
        sol: &Solution,
        var: VarId,
        penalties: Option<(&PenaltyTable, f64)>,
        rect_of: impl Fn(VarId, usize) -> Rect,
        tally: (&mut u64, &mut [u64]),
    ) -> Option<BestValue> {
        let neighbors = instance.graph().neighbors(var);
        let mode = penalties.map_or(0, |(table, _)| table.version().wrapping_add(1));
        let own = var * self.stride..var * self.stride + neighbors.len();

        // The question's assignments, over those of the variable's last.
        let mut dirty = false;
        for (stored, &(u, _)) in self.assignments[own.clone()].iter_mut().zip(neighbors) {
            let assigned = sol.get(u);
            if *stored != assigned {
                *stored = assigned;
                dirty = true;
            }
        }
        // Its own slot, then — has any solution asked it? — its shared slot.
        let last = self.slots[var];
        let fresh = last.filter(|s| !dirty && s.mode == mode);
        let assigned = &self.assignments[own.clone()];
        let has_shared = fresh.is_none() && self.slots.len() > self.stats.len();
        let shared = has_shared.then(|| self.probe_shared(var, mode, assigned));
        let remembered = shared
            .filter(|&(_, same)| same)
            .and_then(|(at, _)| self.slots[at]);
        if let Some(slot) = fresh.or(remembered) {
            self.stats[var].hits += 1;
            self.slots[var] = Some(slot);
            return slot.answer.map(|a| a.revive(instance, sol, var, rect_of));
        }

        let mut walked = true;
        let result = match penalties {
            None => {
                let windows = fill_windows(&mut self.windows, neighbors, assigned, &rect_of);
                index::best(instance, var, windows, assigned, tally.0, tally.1)
            }
            Some((table, lambda)) => {
                let answer;
                (answer, walked) = self.penalised(instance, var, table, lambda, &rect_of, tally);
                answer.map(|a| a.revive(instance, sol, var, rect_of))
            }
        };

        // A re-scored list is a hit; a walk where the own slot held another
        // question is an invalidation, by what differs.
        let var_stats = &mut self.stats[var];
        var_stats.hits += u64::from(!walked);
        var_stats.misses += u64::from(walked);
        let invalidated = walked && last.is_some();
        var_stats.invalidations_reassign += u64::from(invalidated && dirty);
        var_stats.invalidations_penalty += u64::from(invalidated && !dirty);

        let answer = result.map(|best| Answer {
            object: best.object,
            satisfied: best.satisfied,
            effective: best.effective,
        });
        self.slots[var] = Some(Slot { var, mode, answer });
        if let Some((at, _)) = shared {
            self.slots[at] = self.slots[var];
            self.assignments.copy_within(own, at * self.stride);
        }
        result
    }

    /// The shared slot a question maps to, and whether it holds this very
    /// question. The cache must have shared slots.
    fn probe_shared(&self, var: VarId, mode: u64, assignments: &[usize]) -> (usize, bool) {
        let n = self.stats.len();
        let shared = self.slots.len() - n;
        let mix = |h: u64, word: u64| (h.rotate_left(5) ^ word).wrapping_mul(0x517c_c1b7_2722_0a95);
        let seed = mix(var as u64, mode);
        let hash = assignments.iter().fold(seed, |h, &a| mix(h, a as u64));
        // The multiply pushes entropy upwards: index with the high half.
        let at = n + ((hash >> 32) as usize & (shared - 1));
        let stored = &self.assignments[at * self.stride..][..assignments.len()];
        let same = |s: Slot| s.var == var && s.mode == mode && stored == assignments;
        (at, self.slots[at].is_some_and(same))
    }

    /// [`WindowCache::find_best_value_with`], raw, for a caller that uses
    /// the answer only if it satisfies more than `current` conditions —
    /// ILS's climb, SEA's mutation — and gets `None` otherwise. No object
    /// satisfies more windows than the support bits leave live
    /// ([`Support::live`](crate::support::Support::live)), so when those
    /// are at most `current` the answer is `None` whatever the index holds:
    /// it is returned without a look at the cache or the index and counts
    /// as `skipped`, so that per variable `hits + misses + skipped` is the
    /// number of questions asked.
    #[inline]
    pub(crate) fn improving_value_with(
        &mut self,
        instance: &Instance,
        sol: &Solution,
        var: VarId,
        current: u32,
        rect_of: impl Fn(VarId, usize) -> Rect,
        tally: (&mut u64, &mut [u64]),
    ) -> Option<BestValue> {
        let assigned = instance.graph().neighbors(var).iter();
        let live = instance
            .support()
            .live(var, assigned.map(|&(u, _)| sol.get(u)));
        if live.is_some_and(|live| live <= current) {
            self.stats[var].skipped += 1;
            return None;
        }
        let best = self.find_best_value_with(instance, sol, var, None, rect_of, tally);
        best.filter(|best| best.satisfied > current)
    }

    /// The answer to a penalised question about `var`, whose own slot holds
    /// the question's assignments, and whether it took a walk: the tie
    /// list re-scored if it was built from these assignments and answers
    /// exactly; otherwise it is rebuilt from the windows, and widened once
    /// if need be. Outlined, so that the raw path the drives inline stays
    /// small; `rect_of` is `dyn` for the same reason — generic, the
    /// function was copied per caller and the re-scoring loop fell out of
    /// it.
    #[inline(never)]
    fn penalised(
        &mut self,
        instance: &Instance,
        var: VarId,
        table: &PenaltyTable,
        lambda: f64,
        rect_of: &dyn Fn(VarId, usize) -> Rect,
        (acc, levels): (&mut u64, &mut [u64]),
    ) -> (Option<Answer>, bool) {
        assert!(
            lambda.is_finite() && lambda >= 0.0,
            "GILS penalty weight λ must be finite and ≥ 0, got {lambda}"
        );
        if self.lists.is_empty() {
            self.lists.resize_with(self.stats.len(), TieList::default);
        }
        let neighbors = instance.graph().neighbors(var);
        let assigned = &self.assignments[var * self.stride..][..neighbors.len()];
        let list = &mut self.lists[var];
        let mut walked = false;
        for widen in [false, true] {
            if widen || list.assignments != assigned {
                let windows = fill_windows(&mut self.windows, neighbors, assigned, rect_of);
                let tied = &mut list.tied;
                index::top_objects(instance, var, windows, assigned, widen, tied, acc, levels);
                list.assignments.clear();
                list.assignments.extend_from_slice(assigned);
                list.widened = widen;
                walked = true;
            }
            if let Some(answer) = list.rescore(var, table, lambda) {
                return (answer, walked);
            }
        }
        unreachable!("a widened list answers every question")
    }
}

/// The windows of a question — one per neighbour, its predicate and the
/// rectangle of its `assigned` object, read through `rect_of` — written
/// into the front of `scratch`.
fn fill_windows<'w>(
    scratch: &'w mut [(Predicate, Rect)],
    neighbors: &[(VarId, Predicate)],
    assigned: &[usize],
    rect_of: &(impl Fn(VarId, usize) -> Rect + ?Sized),
) -> &'w [(Predicate, Rect)] {
    let windows = &mut scratch[..neighbors.len()];
    for ((window, &(u, pred)), &object) in windows.iter_mut().zip(neighbors).zip(assigned) {
        *window = (pred, rect_of(u, object));
    }
    windows
}

impl MemoryFootprint for WindowCache {
    /// Length-based resident bytes: the table (slots and their
    /// assignments), the window scratch, the telemetry counters and the
    /// tie lists. Only the tie lists grow after construction.
    fn memory_bytes(&self) -> u64 {
        let lists: usize = (self.lists.iter())
            .map(|l| {
                std::mem::size_of::<TieList>()
                    + std::mem::size_of_val(l.assignments.as_slice())
                    + std::mem::size_of_val(l.tied.as_slice())
            })
            .sum();
        let table = std::mem::size_of_val(self.slots.as_slice())
            + std::mem::size_of_val(self.assignments.as_slice())
            + std::mem::size_of_val(self.windows.as_slice())
            + std::mem::size_of_val(self.stats.as_slice());
        (table + lists) as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::find_best_value::find_best_value;
    use mwsj_datagen::Dataset;
    use mwsj_query::QueryGraph;
    use rand::rngs::StdRng;
    use rand::{RngExt, SeedableRng};

    fn random_instance(seed: u64, n: usize, cardinality: usize) -> Instance {
        let mut rng = StdRng::seed_from_u64(seed);
        let graph = QueryGraph::clique(n);
        let datasets: Vec<Dataset> = (0..n)
            .map(|_| Dataset::uniform(cardinality, 0.3, &mut rng))
            .collect();
        Instance::new(graph, datasets).unwrap()
    }

    #[test]
    fn cached_results_match_uncached_across_reassignments() {
        let inst = random_instance(61, 4, 300);
        let mut rng = StdRng::seed_from_u64(62);
        let mut sol = inst.random_solution(&mut rng);
        let mut cache = WindowCache::new(&inst);
        for _ in 0..200 {
            let var = rng.random_range(0..4);
            let mut acc_fast = 0;
            let mut acc_slow = 0;
            let fast = cache.find_best_value(&inst, &sol, var, None, &mut acc_fast);
            let slow = find_best_value(&inst, &sol, var, None, &mut acc_slow);
            assert_eq!(fast, slow);
            assert!(acc_fast <= acc_slow, "cache must not add node accesses");
            // Mutate one assignment like a local-search step would.
            let v = rng.random_range(0..4);
            sol.set(v, rng.random_range(0..300));
        }
        let stats = cache.stats();
        assert_eq!(stats.hits() + stats.misses(), 200, "every query classified");
    }

    #[test]
    fn repeat_query_without_changes_skips_the_traversal() {
        let inst = random_instance(63, 3, 200);
        let mut rng = StdRng::seed_from_u64(64);
        let sol = inst.random_solution(&mut rng);
        let mut cache = WindowCache::new(&inst);
        let mut acc = 0;
        let first = cache.find_best_value(&inst, &sol, 0, None, &mut acc);
        assert!(acc > 0);
        let after_first = acc;
        let second = cache.find_best_value(&inst, &sol, 0, None, &mut acc);
        assert_eq!(first, second);
        assert_eq!(acc, after_first, "full cache hit must not touch the index");
        let stats = cache.stats();
        assert_eq!(stats.per_var[0].hits, 1);
        assert_eq!(stats.per_var[0].misses, 1, "the cold build is a miss");
        assert_eq!(stats.invalidations_reassign(), 0);
        assert_eq!(stats.invalidations_penalty(), 0);
    }

    #[test]
    fn own_assignment_change_keeps_the_cache_valid() {
        // The query for `var` depends only on its neighbours' windows.
        let inst = random_instance(65, 3, 200);
        let mut rng = StdRng::seed_from_u64(66);
        let mut sol = inst.random_solution(&mut rng);
        let mut cache = WindowCache::new(&inst);
        let mut acc = 0;
        let first = cache.find_best_value(&inst, &sol, 1, None, &mut acc);
        let after_first = acc;
        sol.set(1, (sol.get(1) + 1) % 200);
        let second = cache.find_best_value(&inst, &sol, 1, None, &mut acc);
        assert_eq!(first, second);
        assert_eq!(acc, after_first);
        assert_eq!(cache.stats().per_var[1].hits, 1);
    }

    /// A punishment changes no window: the re-query re-scores the tie list
    /// and walks nothing — unless the list's best falls to `top − 1` or
    /// below, when the list is widened once and answers from then on.
    #[test]
    fn a_punishment_re_scores_the_tie_list_and_widens_it_once() {
        // Variable 1 lies between two windows. Objects 0–2, one rectangle
        // three times, satisfy both; object 3 only the left, 4 the right.
        let both = Rect::new(0.45, 0.45, 0.46, 0.46);
        let middle = vec![
            both,
            both,
            both,
            Rect::new(0.1, 0.1, 0.2, 0.2),
            Rect::new(0.8, 0.8, 0.9, 0.9),
        ];
        let left = vec![Rect::new(0.0, 0.0, 0.5, 0.5)];
        let right = vec![Rect::new(0.4, 0.4, 1.0, 1.0)];
        let inst = Instance::new(QueryGraph::chain(3), vec![left, middle, right]).unwrap();
        let sol = Solution::new(vec![0, 3, 0]);
        // One question about variable 1: its answer, and its accesses.
        let ask = |cache: &mut WindowCache, table: &PenaltyTable, lambda: f64| {
            let mut acc = 0;
            let got = cache.find_best_value(&inst, &sol, 1, Some((table, lambda)), &mut acc);
            let best = got.expect("every object satisfies a window");
            (best.object, best.satisfied, best.effective, acc)
        };

        // λ = 0.5: a punished object loses its tie, and nothing walks.
        let (mut cache, mut table) = (WindowCache::new(&inst), PenaltyTable::new());
        let (first, count, _, acc) = ask(&mut cache, &table, 0.5);
        assert!(first < 3 && count == 2 && acc > 0);
        table.penalize(1, first);
        let (second, _, effective, acc) = ask(&mut cache, &table, 0.5);
        assert!(second < 3 && second != first && effective == 2.0);
        assert_eq!(acc, 0, "a re-score walks nothing");
        (0..3).for_each(|object| table.penalize(1, object));
        let (third, _, effective, acc) = ask(&mut cache, &table, 0.5);
        assert_eq!((third, effective, acc), (second, 1.5, 0));
        let stats = cache.stats().per_var[1];
        assert_eq!(
            (stats.hits, stats.misses, stats.invalidations_penalty),
            (2, 1, 0)
        );

        // λ = 4: punished once, the three score −2, below what object 3
        // scores off the list — the list widens, once.
        let (mut cache, mut table) = (WindowCache::new(&inst), PenaltyTable::new());
        let _ = ask(&mut cache, &table, 4.0);
        (0..3).for_each(|object| table.penalize(1, object));
        let (widened, count, effective, acc) = ask(&mut cache, &table, 4.0);
        assert_eq!((widened, count, effective), (3, 1, 1.0));
        assert!(acc > 0, "widening walks");
        table.penalize(1, 3);
        let (next, _, effective, acc) = ask(&mut cache, &table, 4.0);
        assert_eq!((next, effective, acc), (4, 1.0, 0));
        let stats = cache.stats().per_var[1];
        assert_eq!(
            (stats.hits, stats.misses, stats.invalidations_penalty),
            (1, 2, 1)
        );
        assert!(cache.memory_bytes() > WindowCache::new(&inst).memory_bytes());
    }

    #[test]
    fn reassignment_invalidation_is_classified_by_cause() {
        let inst = random_instance(71, 3, 200);
        let mut rng = StdRng::seed_from_u64(72);
        let mut sol = inst.random_solution(&mut rng);
        let mut cache = WindowCache::new(&inst);
        let mut acc = 0;
        let _ = cache.find_best_value(&inst, &sol, 1, None, &mut acc);
        // Move a neighbour of var 1 (clique: var 0 is a neighbour).
        sol.set(0, (sol.get(0) + 1) % 200);
        let _ = cache.find_best_value(&inst, &sol, 1, None, &mut acc);
        let stats = cache.stats();
        assert_eq!(stats.per_var[1].invalidations_reassign, 1);
        assert_eq!(stats.per_var[1].invalidations_penalty, 0);
        assert_eq!(stats.per_var[1].misses, 2);
        assert_eq!(stats.per_var[1].hits, 0);
    }

    #[test]
    fn a_shared_slot_answers_what_the_own_slot_has_forgotten() {
        let inst = random_instance(75, 4, 300);
        let mut rng = StdRng::seed_from_u64(76);
        let a = inst.random_solution(&mut rng);
        let mut b = a.clone();
        b.set(1, (a.get(1) + 1) % 300); // a neighbour of variable 0
        let mut cache = WindowCache::for_population(&inst, 16);
        let mut levels = vec![0u64; inst.tree(0).height() as usize];
        let mut acc = 0;
        let mut ask = |cache: &mut WindowCache, sol: &Solution, acc: &mut u64| {
            cache.find_best_value_with(&inst, sol, 0, None, inst.rect_of(), (acc, &mut levels))
        };
        let first = ask(&mut cache, &a, &mut acc);
        let other = ask(&mut cache, &b, &mut acc);
        let walked = acc;
        // Variable 0's own slot now holds b's question; a's is shared.
        let again = ask(&mut cache, &a, &mut acc);
        assert_eq!(again, first);
        assert_eq!(again, find_best_value(&inst, &a, 0, None, &mut 0));
        assert_eq!(other, find_best_value(&inst, &b, 0, None, &mut 0));
        assert_eq!(acc, walked, "a shared hit touches no counter");
        let stats = cache.stats();
        assert_eq!(stats.per_var[0].hits, 1);
        assert_eq!(stats.per_var[0].misses, 2);
        assert_eq!(stats.per_var[0].invalidations_reassign, 1, "b's miss only");
        // ... and the hit copied itself into the own slot: the same question
        // is now an own-slot hit even with every shared slot emptied.
        cache.slots[inst.n_vars()..].fill(None);
        assert_eq!(ask(&mut cache, &a, &mut acc), first);
        assert_eq!(acc, walked);
        assert_eq!(cache.stats().per_var[0].hits, 2);
        let levels_sum: u64 = levels.iter().sum();
        assert_eq!(levels_sum, walked, "the two walks, attributed per level");

        // The shared region is counted: 64 slots of a header and 3
        // assignments.
        let slot = std::mem::size_of::<Option<Slot>>() + 3 * 8;
        let plain = WindowCache::new(&inst).memory_bytes();
        let shared = WindowCache::for_population(&inst, 16).memory_bytes();
        assert_eq!(shared - plain, 64 * slot as u64);
    }

    #[test]
    fn questions_sharing_a_slot_evict_but_never_answer_for_each_other() {
        let inst = random_instance(77, 4, 300);
        let mut cache = WindowCache::for_population(&inst, 256);
        // Brute-force two neighbourhoods of variable 0 into one shared slot.
        let slot_of = |x: usize, y: usize| cache.probe_shared(0, 0, &[x, y, 9]).0;
        let (x, y) = (1..300)
            .flat_map(|x| (0..300).map(move |y| (x, y)))
            .find(|&(x, y)| slot_of(x, y) == slot_of(0, 0))
            .expect("90 000 keys over 1 024 slots: many share a slot with (0, 0)");
        assert!(slot_of(0, 0) >= inst.n_vars(), "behind the own slots");
        let a = Solution::new(vec![5, 0, 0, 9]);
        let b = Solution::new(vec![5, x, y, 9]);
        let mut acc = 0;
        for sol in [&a, &b, &a, &b] {
            let before = acc;
            let got = cache.find_best_value(&inst, sol, 0, None, &mut acc);
            assert_eq!(got, find_best_value(&inst, sol, 0, None, &mut 0));
            assert!(acc > before, "the other question's slot must not answer");
        }
        assert_ne!(
            find_best_value(&inst, &a, 0, None, &mut 0),
            find_best_value(&inst, &b, 0, None, &mut 0),
            "the two questions have different answers"
        );
        let stats = cache.stats();
        assert_eq!((stats.hits(), stats.misses()), (0, 4));
    }

    #[test]
    fn cache_stats_absorb_sums_pointwise_and_extends() {
        let a = CacheStats {
            per_var: vec![VarCacheStats {
                hits: 1,
                misses: 2,
                invalidations_reassign: 1,
                invalidations_penalty: 0,
                skipped: 6,
            }],
            bytes: 100,
        };
        let b = CacheStats {
            per_var: vec![
                VarCacheStats {
                    hits: 10,
                    misses: 20,
                    invalidations_reassign: 3,
                    invalidations_penalty: 4,
                    skipped: 2,
                },
                VarCacheStats {
                    hits: 5,
                    ..VarCacheStats::default()
                },
            ],
            bytes: 50,
        };
        let mut ab = a.clone();
        ab.absorb(&b);
        let mut ba = b.clone();
        ba.absorb(&a);
        assert_eq!(ab, ba, "absorb is commutative");
        assert_eq!(ab.hits(), 16);
        assert_eq!(ab.misses(), 22);
        assert_eq!(ab.invalidations_reassign(), 4);
        assert_eq!(ab.invalidations_penalty(), 4);
        assert_eq!(ab.skipped(), 8);
        assert_eq!(ab.questions(), 16 + 22 + 8);
        assert_eq!(ab.bytes, 150);
        assert_eq!(ab.per_var.len(), 2);
    }

    #[test]
    fn the_table_is_allocated_at_construction() {
        let inst = random_instance(73, 4, 300);
        let fresh = WindowCache::new(&inst).memory_bytes();
        assert_eq!(fresh, WindowCache::new(&inst).memory_bytes());
        let mut rng = StdRng::seed_from_u64(74);
        let mut sol = inst.random_solution(&mut rng);
        let mut used = WindowCache::new(&inst);
        let mut acc = 0;
        for _ in 0..1_000 {
            let var = rng.random_range(0..4);
            let _ = used.find_best_value(&inst, &sol, var, None, &mut acc);
            sol.set(rng.random_range(0..4), rng.random_range(0..300));
        }
        assert!(acc > 0 && used.stats().misses() > 0);
        assert_eq!(used.memory_bytes(), fresh, "raw questions allocate nothing");
        let table = PenaltyTable::new();
        let _ = used.find_best_value(&inst, &sol, 0, Some((&table, 0.5)), &mut acc);
        assert!(
            used.memory_bytes() > fresh,
            "a penalised question's tie list counts"
        );
    }
}

#[cfg(test)]
mod drive_integration {
    use crate::{Ils, SearchBudget};
    use mwsj_datagen::{hard_region_density, plant_solution, Dataset, QueryShape};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// An end-to-end ILS run must actually *hit* the cache: the
    /// local-maximum sweep re-queries variables whose neighbour windows
    /// are unchanged (e.g. the variable improved last), so a real search
    /// saves traversals, not just in principle. The counters ride along in
    /// [`crate::RunStats::cache`] — per run, not process-wide.
    #[test]
    fn ils_run_produces_cache_hits() {
        let mut rng = StdRng::seed_from_u64(101);
        let shape = QueryShape::Chain;
        let (n, card) = (4, 200);
        let d = hard_region_density(shape, n, card, 1.0);
        let mut datasets: Vec<Dataset> = (0..n)
            .map(|_| Dataset::uniform(card, d, &mut rng))
            .collect();
        let graph = shape.graph(n);
        plant_solution(&mut datasets, &graph, &mut rng);
        let inst = crate::Instance::new(graph, datasets).unwrap();
        let mut rng = StdRng::seed_from_u64(7);
        let outcome = Ils::default().run(&inst, &SearchBudget::iterations(3000), &mut rng);
        let cache = &outcome.stats.cache;
        assert!(
            cache.hits() > 0,
            "a full ILS run should produce window-cache hits: {cache:?}"
        );
        assert!(cache.misses() > 0);
        assert!(
            cache.invalidations_reassign() > 0,
            "local search reassigns neighbours, so reassignment invalidations must show"
        );
        assert_eq!(
            cache.invalidations_penalty(),
            0,
            "ILS runs without penalties"
        );
        assert_eq!(
            cache.per_var.len(),
            n,
            "per-variable breakdown sized to the query"
        );
        assert!(cache.bytes > 0, "the cache footprint is recorded");
    }
}
