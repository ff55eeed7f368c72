//! Run outcomes: best solution, counters and convergence traces.

use crate::observe::metric;
use crate::window_cache::{CacheStats, VarCacheStats};
pub use mwsj_obs::TracePoint;
use mwsj_obs::{MemoryFootprint, MetricsSnapshot, RunEvent};
use mwsj_query::Solution;
use std::time::Duration;

/// Counters collected during one search run.
///
/// Adding a counter is an edit to this file only: the field, its line in
/// [`RunStats::absorb`] and its row in [`RunStats::counters`], which both
/// destructure the struct exhaustively so the compiler points at whichever
/// was forgotten.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RunStats {
    /// Wall-clock duration of the run.
    pub elapsed: Duration,
    /// Algorithm steps consumed (see [`crate::SearchBudget`] for units).
    pub steps: u64,
    /// ILS restarts or SEA generations.
    pub restarts: u64,
    /// Local maxima reached (ILS/GILS).
    pub local_maxima: u64,
    /// R*-tree nodes visited by index-driven traversals.
    pub node_accesses: u64,
    /// Number of times the incumbent best solution improved.
    pub improvements: u64,
    /// [`WindowCache`](crate::WindowCache) efficiency telemetry (empty for
    /// algorithms that run without the cache).
    pub cache: CacheStats,
    /// Per-variable, per-tree-level attribution of
    /// [`RunStats::node_accesses`]: `access_profile[v][l]` counts the nodes
    /// of variable `v`'s tree visited at level `l` (`[0]` = leaf level, as
    /// in [`NodeRef::level`](mwsj_rtree::NodeRef::level)). A driven run
    /// has one row per variable, one slot per tree level, and its rows sum
    /// **exactly** to `node_accesses` (the attribution property tests pin
    /// this for ILS, GILS, SEA and IBB); the exact joins leave it empty.
    pub access_profile: Vec<Vec<u64>>,
}

impl RunStats {
    /// Adds `other` into `self` — the one sum behind the portfolio's
    /// seed-ordered reduction and the two-step pipeline's totals. Every
    /// count adds, the cache and access tables add pointwise (growing to
    /// the larger operand), `elapsed` adds. Associative and commutative.
    pub fn absorb(&mut self, other: &RunStats) {
        let RunStats {
            elapsed,
            steps,
            restarts,
            local_maxima,
            node_accesses,
            improvements,
            cache,
            access_profile,
        } = other;
        self.elapsed += *elapsed;
        self.steps += steps;
        self.restarts += restarts;
        self.local_maxima += local_maxima;
        self.node_accesses += node_accesses;
        self.improvements += improvements;
        self.cache.absorb(cache);
        if self.access_profile.len() < access_profile.len() {
            self.access_profile.resize(access_profile.len(), Vec::new());
        }
        for (mine, theirs) in self.access_profile.iter_mut().zip(access_profile) {
            if mine.len() < theirs.len() {
                mine.resize(theirs.len(), 0);
            }
            for (m, t) in mine.iter_mut().zip(theirs) {
                *m += t;
            }
        }
    }

    /// The work counters by name — the one table behind the rows a
    /// `BENCH_*.json` pins per algorithm and the `search.<name>` counters
    /// of the `metrics` event (see [`RunStats::metrics`]).
    pub fn counters(&self) -> [(&'static str, u64); 5] {
        let RunStats {
            elapsed: _,
            steps,
            restarts,
            local_maxima,
            node_accesses,
            improvements,
            cache: _,
            access_profile: _,
        } = self;
        [
            ("steps", *steps),
            ("node_accesses", *node_accesses),
            ("restarts", *restarts),
            ("local_maxima", *local_maxima),
            ("improvements", *improvements),
        ]
    }

    /// This run as the `metrics` event reports it: `search.*` for every
    /// row of [`RunStats::counters`] (zeros included) and — only for a run
    /// that consulted a window cache — `cache.*` totals and
    /// `cache.varNNN.*` rows. Names are sorted, as [`MetricsSnapshot`]
    /// requires.
    pub fn metrics(&self) -> MetricsSnapshot {
        let mut counters: Vec<(String, u64)> = self
            .counters()
            .iter()
            .map(|(name, value)| (format!("search.{name}"), *value))
            .collect();
        let cache = &self.cache;
        if !cache.per_var.is_empty() {
            counters.push((metric::CACHE_BYTES.into(), cache.bytes));
            let mut total = VarCacheStats::default();
            for (var, v) in cache.per_var.iter().enumerate() {
                total.absorb(v);
                counters.extend(
                    v.counters()
                        .map(|(kind, n)| (metric::cache_var(var, kind), n)),
                );
            }
            counters.extend(
                total
                    .counters()
                    .map(|(kind, n)| (format!("cache.{kind}"), n)),
            );
        }
        counters.sort_unstable();
        MetricsSnapshot { counters }
    }

    /// The `run_end` event of a run with these counters whose best
    /// solution violates `best_violations` conditions. (Its members are
    /// the `RunEnd` declaration's: a new counter joins it there or not at
    /// all, so nothing here has to be exhaustive.)
    pub fn run_end(
        &self,
        best_violations: usize,
        best_similarity: f64,
        proven_optimal: bool,
    ) -> RunEvent {
        RunEvent::RunEnd {
            best_violations: best_violations as u64,
            best_similarity,
            steps: self.steps,
            node_accesses: self.node_accesses,
            local_maxima: self.local_maxima,
            improvements: self.improvements,
            restarts: self.restarts,
            elapsed_secs: self.elapsed.as_secs_f64(),
            proven_optimal,
        }
    }
}

/// Default number of distinct best solutions retained by a run
/// (see [`TopSolutions`]).
pub const DEFAULT_TOP_K: usize = 10;

/// A bounded, ordered collection of the best **distinct** solutions seen
/// during a run — the paper's "throughout this process the best solutions
/// are kept" (§3). Multiway joins are retrieval queries: callers usually
/// want the few best matches, not only the single winner.
#[derive(Debug, Clone)]
pub struct TopSolutions {
    k: usize,
    /// Sorted ascending by violations (best first).
    entries: Vec<(Solution, usize)>,
}

impl TopSolutions {
    /// Creates an empty collection bounded to `k` solutions.
    pub fn new(k: usize) -> Self {
        TopSolutions {
            k,
            entries: Vec::with_capacity(k.min(64)),
        }
    }

    /// Offers a candidate. Returns `true` if it entered the top list.
    /// Duplicates (identical assignments) are ignored.
    pub fn insert(&mut self, sol: &Solution, violations: usize) -> bool {
        if self.k == 0 {
            return false;
        }
        if self.entries.len() == self.k && violations >= self.entries.last().expect("non-empty").1 {
            return false;
        }
        if self.entries.iter().any(|(s, _)| s == sol) {
            return false;
        }
        let pos = self.entries.partition_point(|(_, v)| *v <= violations);
        self.entries.insert(pos, (sol.clone(), violations));
        self.entries.truncate(self.k);
        true
    }

    /// The retained solutions, best (fewest violations) first.
    pub fn iter(&self) -> impl Iterator<Item = &(Solution, usize)> {
        self.entries.iter()
    }

    /// Number of retained solutions.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Returns `true` if nothing has been retained yet.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The capacity bound `k`.
    pub fn capacity(&self) -> usize {
        self.k
    }

    /// Consumes the collection, yielding `(solution, violations)` pairs
    /// best-first.
    pub fn into_vec(self) -> Vec<(Solution, usize)> {
        self.entries
    }
}

/// Length-based resident bytes of retained `(solution, violations)` pairs:
/// one pair header plus the solution's assignment vector per entry. Shared
/// by [`TopSolutions`] and the flattened [`RunOutcome::top_solutions`].
pub(crate) fn solutions_bytes(entries: &[(Solution, usize)]) -> u64 {
    entries
        .iter()
        .map(|(sol, _)| {
            (std::mem::size_of::<(Solution, usize)>() + std::mem::size_of_val(sol.as_slice()))
                as u64
        })
        .sum()
}

impl MemoryFootprint for TopSolutions {
    /// Length-based resident bytes of the retained `(solution,
    /// violations)` pairs.
    fn memory_bytes(&self) -> u64 {
        solutions_bytes(&self.entries)
    }
}

/// The result of one search run.
#[derive(Debug, Clone)]
pub struct RunOutcome {
    /// Best solution found.
    pub best: Solution,
    /// Number of join conditions the best solution violates
    /// (its inconsistency degree; 0 = exact).
    pub best_violations: usize,
    /// Similarity of the best solution (`1 − violations / edges`).
    pub best_similarity: f64,
    /// Counters.
    pub stats: RunStats,
    /// Similarity improvements over time, first entry = initial solution.
    pub trace: Vec<TracePoint>,
    /// `true` when a systematic algorithm proved the result optimal
    /// (search space exhausted or an exact solution found). Always `false`
    /// for the anytime heuristics.
    pub proven_optimal: bool,
    /// The best distinct solutions seen during the run (up to
    /// [`DEFAULT_TOP_K`]), best first. `top_solutions[0]` is `best`.
    pub top_solutions: Vec<(Solution, usize)>,
}

impl RunOutcome {
    /// Returns `true` if the best solution is exact.
    #[inline]
    pub fn is_exact(&self) -> bool {
        self.best_violations == 0
    }

    /// The `run_end` event describing this outcome.
    pub fn run_end(&self) -> RunEvent {
        self.stats.run_end(
            self.best_violations,
            self.best_similarity,
            self.proven_optimal,
        )
    }
}

/// Shared bookkeeping for the incumbent best solution + trace.
#[derive(Debug)]
pub(crate) struct Incumbent {
    pub best: Solution,
    pub best_violations: usize,
    pub improvements: u64,
    pub trace: Vec<TracePoint>,
    pub top: TopSolutions,
}

impl Incumbent {
    pub(crate) fn new(
        initial: Solution,
        violations: usize,
        edge_count: usize,
        elapsed: Duration,
        step: u64,
    ) -> Self {
        let similarity = 1.0 - violations as f64 / edge_count as f64;
        let mut top = TopSolutions::new(DEFAULT_TOP_K);
        top.insert(&initial, violations);
        Incumbent {
            best: initial,
            best_violations: violations,
            improvements: 0,
            trace: vec![TracePoint {
                elapsed,
                step,
                similarity,
            }],
            top,
        }
    }

    /// Offers a candidate; keeps it if strictly better. `elapsed` is asked
    /// for the run's wall time only then, so a candidate that is turned
    /// away — nearly every one — costs no clock read.
    pub(crate) fn offer(
        &mut self,
        candidate: &Solution,
        violations: usize,
        edge_count: usize,
        elapsed: impl FnOnce() -> Duration,
        step: u64,
    ) -> bool {
        self.top.insert(candidate, violations);
        if violations < self.best_violations {
            self.best.clone_from(candidate);
            self.best_violations = violations;
            self.improvements += 1;
            self.trace.push(TracePoint {
                elapsed: elapsed(),
                step,
                similarity: 1.0 - violations as f64 / edge_count as f64,
            });
            true
        } else {
            false
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn top_solutions_keeps_k_best_distinct() {
        let mut top = TopSolutions::new(3);
        assert!(top.insert(&Solution::new(vec![1]), 5));
        assert!(top.insert(&Solution::new(vec![2]), 3));
        assert!(
            !top.insert(&Solution::new(vec![2]), 3),
            "duplicate rejected"
        );
        assert!(top.insert(&Solution::new(vec![3]), 4));
        assert_eq!(top.len(), 3);
        // Full: worse candidates bounce, better ones evict the worst.
        assert!(!top.insert(&Solution::new(vec![4]), 9));
        assert!(top.insert(&Solution::new(vec![5]), 1));
        let v: Vec<usize> = top.iter().map(|(_, v)| *v).collect();
        assert_eq!(v, vec![1, 3, 4]);
    }

    #[test]
    fn top_solutions_zero_capacity() {
        let mut top = TopSolutions::new(0);
        assert!(!top.insert(&Solution::new(vec![1]), 0));
        assert!(top.is_empty());
    }

    #[test]
    fn top_solutions_orders_ties_by_arrival() {
        let mut top = TopSolutions::new(4);
        top.insert(&Solution::new(vec![1]), 2);
        top.insert(&Solution::new(vec![2]), 2);
        top.insert(&Solution::new(vec![3]), 1);
        let got: Vec<(Vec<usize>, usize)> = top
            .iter()
            .map(|(s, v)| (s.as_slice().to_vec(), *v))
            .collect();
        assert_eq!(got, vec![(vec![3], 1), (vec![1], 2), (vec![2], 2)]);
    }

    #[test]
    fn incumbent_feeds_top_solutions() {
        let mut inc = Incumbent::new(Solution::new(vec![0, 0]), 3, 4, Duration::ZERO, 0);
        inc.offer(&Solution::new(vec![1, 1]), 2, 4, || Duration::ZERO, 1);
        inc.offer(&Solution::new(vec![2, 2]), 3, 4, || Duration::ZERO, 2); // not best, still top
        assert_eq!(inc.top.len(), 3);
        assert_eq!(inc.top.iter().next().unwrap().1, 2);
    }

    #[test]
    fn incumbent_keeps_only_improvements() {
        let mut inc = Incumbent::new(Solution::new(vec![0, 0]), 3, 4, Duration::ZERO, 0);
        let unread = || -> Duration { panic!("a rejected candidate must not read the clock") };
        assert!(!inc.offer(&Solution::new(vec![1, 1]), 3, 4, unread, 1));
        assert!(inc.offer(&Solution::new(vec![2, 2]), 1, 4, || Duration::ZERO, 2));
        assert_eq!(inc.best_violations, 1);
        assert_eq!(inc.best.as_slice(), &[2, 2]);
        assert_eq!(inc.improvements, 1);
        assert_eq!(inc.trace.len(), 2);
    }

    #[test]
    fn is_exact_matches_violations() {
        let mut outcome = RunOutcome {
            best: Solution::new(vec![0]),
            best_violations: 0,
            best_similarity: 1.0,
            stats: RunStats::default(),
            proven_optimal: false,
            top_solutions: vec![],
            trace: vec![],
        };
        assert!(outcome.is_exact());
        outcome.best_violations = 1;
        assert!(!outcome.is_exact());
    }
}
