//! `RunStats` is the one counter block: it sums itself, names itself and
//! reports itself. These tests hold the three to each other — the sum is
//! a commutative monoid, the `metrics` counters of any outcome (single,
//! two-stage, portfolio) are the name table applied to its block, and `run_end`
//! is built from the same block for searches (`driver_events.rs`) and
//! exact joins alike.

mod common;

use common::hard_instance;
use mwsj_core::{
    metric, CacheStats, Ibb, IbbConfig, Ils, IlsConfig, Instance, Portfolio, RunEvent, RunStats,
    SearchBudget, SearchContext, TwoStep, TwoStepConfig, VarCacheStats, WindowReduction,
};
use mwsj_datagen::{Dataset, QueryShape};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::time::Duration;

fn arb_stats() -> impl Strategy<Value = RunStats> {
    let counts = prop::collection::vec(0u64..1_000_000, 6);
    let cache = prop::collection::vec(prop::collection::vec(0u64..10_000, 5), 0..5);
    let profile = prop::collection::vec(prop::collection::vec(0u64..10_000, 0..4), 0..5);
    (counts, cache, profile, 0u64..5_000_000).prop_map(|(c, cache, profile, us)| RunStats {
        elapsed: Duration::from_micros(us),
        steps: c[0],
        restarts: c[1],
        local_maxima: c[2],
        node_accesses: c[3],
        improvements: c[4],
        cache: CacheStats {
            per_var: cache
                .iter()
                .map(|v| VarCacheStats {
                    hits: v[0],
                    misses: v[1],
                    invalidations_reassign: v[2],
                    invalidations_penalty: v[3],
                    skipped: v[4],
                })
                .collect(),
            bytes: c[5],
        },
        access_profile: profile,
    })
}

fn sum<'a>(blocks: impl IntoIterator<Item = &'a RunStats>) -> RunStats {
    let mut total = RunStats::default();
    for block in blocks {
        total.absorb(block);
    }
    total
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The portfolio folds restarts in restart order and the two-step
    /// pipeline adds two stages; both are sound only if grouping and order
    /// do not matter — tables of unequal length included.
    #[test]
    fn absorb_is_associative_and_order_insensitive(
        a in arb_stats(),
        b in arb_stats(),
        c in arb_stats(),
    ) {
        let abc = sum([&a, &b, &c]);
        prop_assert_eq!(&abc, &sum([&sum([&a, &b]), &c]));
        prop_assert_eq!(&abc, &sum([&a, &sum([&b, &c])]));
        prop_assert_eq!(&abc, &sum([&c, &a, &b]));
        prop_assert_eq!(&abc, &sum([&b, &c, &a]));
        prop_assert_eq!(&sum([&a]), &a);
        // Every named counter of the sum is the sum of that counter.
        for (i, (name, total)) in abc.counters().iter().enumerate() {
            let parts = [&a, &b, &c].map(|s| s.counters()[i].1);
            prop_assert_eq!(*total, parts.iter().sum::<u64>(), "{}", name);
        }
    }
}

/// The `metrics` counters of `stats` are its name table under the
/// `search.` prefix, plus `cache.*` rows exactly when a window cache ran,
/// strictly ascending by name.
fn assert_metrics_are_the_name_table(stats: &RunStats) {
    let snap = stats.metrics();
    assert!(
        snap.counters.windows(2).all(|w| w[0].0 < w[1].0),
        "{snap:?}"
    );
    for (name, value) in stats.counters() {
        assert_eq!(
            snap.counter(&format!("search.{name}")),
            Some(value),
            "{name}"
        );
    }
    let others = snap.counters.len() - stats.counters().len();
    assert_eq!(others > 0, !stats.cache.per_var.is_empty(), "{snap:?}");
    assert!(snap.counters[..others]
        .iter()
        .all(|(name, _)| name.starts_with("cache.")));
}

#[test]
fn metric_names_are_the_counter_table_under_the_search_prefix() {
    let stats = RunStats {
        steps: 1,
        node_accesses: 2,
        restarts: 3,
        local_maxima: 4,
        improvements: 5,
        ..RunStats::default()
    };
    assert_eq!(
        stats.counters(),
        [
            ("steps", 1),
            ("node_accesses", 2),
            ("restarts", 3),
            ("local_maxima", 4),
            ("improvements", 5),
        ]
    );
    let snap = stats.metrics();
    for (name, value) in [
        (metric::STEPS, 1),
        (metric::NODE_ACCESSES, 2),
        (metric::RESTARTS, 3),
        (metric::LOCAL_MAXIMA, 4),
        (metric::IMPROVEMENTS, 5),
    ] {
        assert_eq!(snap.counter(name), Some(value), "{name}");
    }
    assert_eq!(snap.counters.len(), 5, "no cache, no cache.* rows");

    // Zero-valued search counters are still reported; cache rows appear
    // with the first per-variable row, zeros included.
    let idle = RunStats::default().metrics();
    assert_eq!(idle.counter(metric::LOCAL_MAXIMA), Some(0));
    assert_eq!(idle.counter(metric::CACHE_HITS), None);
    let mut cached = RunStats::default();
    cached.cache.per_var = vec![VarCacheStats::default(); 2];
    cached.cache.per_var[1].misses = 7;
    cached.cache.per_var[0].skipped = 3;
    let snap = cached.metrics();
    assert_eq!(snap.counter(metric::CACHE_HITS), Some(0));
    assert_eq!(snap.counter(metric::CACHE_MISSES), Some(7));
    assert_eq!(snap.counter(metric::CACHE_SKIPPED), Some(3));
    assert_eq!(snap.counter(metric::CACHE_BYTES), Some(0));
    assert_eq!(snap.counter(&metric::cache_var(1, "misses")), Some(7));
    assert_eq!(snap.counter(&metric::cache_var(0, "skipped")), Some(3));
    assert_eq!(snap.counters.len(), 5 + 6 + 2 * 5);
}

#[test]
fn a_single_run_reports_its_own_block() {
    let inst = hard_instance(301, QueryShape::Chain, 4, 200);
    let budget = SearchBudget::iterations(400);
    let outcome = Ils::default().run(&inst, &budget, &mut StdRng::seed_from_u64(302));
    assert!(!outcome.stats.cache.per_var.is_empty(), "ILS runs cached");
    assert_metrics_are_the_name_table(&outcome.stats);

    // IBB and the exact joins consult no window cache: no `cache.*` rows.
    let budget = SearchBudget::iterations(200);
    for stats in [
        Ibb::new(IbbConfig::new()).run(&inst, &budget).stats,
        WindowReduction::new().run(&inst, &budget, 5).stats,
    ] {
        assert!(stats.cache.per_var.is_empty(), "{stats:?}");
        assert_metrics_are_the_name_table(&stats);
    }
}

#[test]
fn two_stages_sharing_one_handle_sum_their_blocks() {
    let inst = hard_instance(303, QueryShape::Clique, 5, 400);
    let pipeline = TwoStep::new(TwoStepConfig::Ils(
        IlsConfig::default(),
        SearchBudget::iterations(60),
    ));
    let ctx = SearchContext::local(SearchBudget::iterations(500));
    let outcome = pipeline.search(&inst, &ctx, &mut StdRng::seed_from_u64(304));
    assert!(outcome.ran_systematic(), "the hard instance needs IBB");
    let total = outcome.total_stats();
    assert_eq!(
        total.steps,
        outcome.heuristic.stats.steps + outcome.systematic.as_ref().unwrap().stats.steps
    );
    assert_eq!(outcome.combined().stats, total);
    assert_metrics_are_the_name_table(&total);
}

#[test]
fn a_portfolio_reports_the_merged_block() {
    let inst = hard_instance(305, QueryShape::Chain, 4, 300);
    let budget = SearchBudget::iterations(2_000);
    let outcome = Portfolio::new(Ils::default(), 4).run(&inst, &budget, 306);
    // The counters are the restarts' sum; `elapsed` is the portfolio's wall.
    let mut sum = RunStats::default();
    for restart in &outcome.restarts {
        sum.absorb(&restart.outcome.stats);
    }
    sum.elapsed = outcome.merged.stats.elapsed;
    assert_eq!(outcome.merged.stats, sum);
    assert_metrics_are_the_name_table(&outcome.merged.stats);
}

#[test]
fn an_exact_join_reports_found_or_not_and_whether_it_finished() {
    let budget = SearchBudget::iterations(1_000_000);
    // Dense: solutions exist, and a limit of 1 truncates the enumeration.
    let mut rng = StdRng::seed_from_u64(307);
    let dense: Vec<Dataset> = (0..3)
        .map(|_| Dataset::uniform(100, 2.0, &mut rng))
        .collect();
    let inst = Instance::new(QueryShape::Chain.graph(3), dense).unwrap();
    let found = WindowReduction::new().run(&inst, &budget, 1);
    assert!(!found.solutions.is_empty() && !found.complete);
    assert_eq!(found.run_end(&inst), found.stats.run_end(0, 1.0, false));

    // Sparse: the enumeration completes and finds nothing, which reads as
    // every condition violated.
    let sparse: Vec<Dataset> = (0..3)
        .map(|_| Dataset::uniform(20, 1e-6, &mut rng))
        .collect();
    let inst = Instance::new(QueryShape::Chain.graph(3), sparse).unwrap();
    let none = WindowReduction::new().run(&inst, &budget, 10);
    assert!(none.solutions.is_empty() && none.complete);
    assert_eq!(none.run_end(&inst), none.stats.run_end(2, 0.0, true));
    let RunEvent::RunEnd {
        steps,
        node_accesses,
        proven_optimal,
        ..
    } = none.run_end(&inst)
    else {
        panic!("run_end expected");
    };
    assert_eq!(
        (steps, node_accesses),
        (none.stats.steps, none.stats.node_accesses)
    );
    assert!(proven_optimal);
}
