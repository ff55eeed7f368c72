//! `RunStats` is the one counter block: it sums itself, names itself and
//! reports itself. These tests hold the three to each other — the sum is
//! a commutative monoid, the `metrics` event of any run (single, two-stage,
//! portfolio) is the name table applied to the run's block, and `run_end`
//! is built from the same block for searches (`driver_events.rs`) and
//! exact joins alike.

mod common;

use common::hard_instance;
use mwsj_core::{
    metric, AccessProfile, CacheStats, Ibb, IbbConfig, Ils, IlsConfig, Instance, MetricsSnapshot,
    ObsHandle, Portfolio, RunEvent, RunStats, SearchBudget, SearchContext, TwoStep, TwoStepConfig,
    VarCacheStats, WindowReduction,
};
use mwsj_datagen::{Dataset, QueryShape};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::time::Duration;

fn arb_stats() -> impl Strategy<Value = RunStats> {
    let counts = prop::collection::vec(0u64..1_000_000, 6);
    let cache = prop::collection::vec(prop::collection::vec(0u64..10_000, 4), 0..5);
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
                })
                .collect(),
            bytes: c[5],
        },
        access_profile: AccessProfile { per_var: profile },
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

/// `emitted` is what a handle accumulated over `runs` runs whose summed
/// block is `stats`: the counters are the name table applied to the sum,
/// sorted, and every run left one `steps_per_run` sample.
fn assert_metrics_are_the_name_table(emitted: &MetricsSnapshot, stats: &RunStats, runs: u64) {
    assert_eq!(emitted.counters, stats.metrics().counters);
    assert!(emitted.counters.windows(2).all(|w| w[0].0 < w[1].0));
    assert!(emitted.gauges.is_empty());
    let [(name, steps_per_run)] = &emitted.histograms[..] else {
        panic!("one histogram expected: {:?}", emitted.histograms);
    };
    assert_eq!(name, metric::STEPS_PER_RUN);
    assert_eq!(steps_per_run.count, runs);
    assert_eq!(steps_per_run.sum, stats.steps);
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
    let snap = cached.metrics();
    assert_eq!(snap.counter(metric::CACHE_HITS), Some(0));
    assert_eq!(snap.counter(metric::CACHE_MISSES), Some(7));
    assert_eq!(snap.counter(metric::CACHE_BYTES), Some(0));
    assert_eq!(snap.counter(&metric::cache_var(1, "misses")), Some(7));
    assert_eq!(snap.counters.len(), 5 + 5 + 2 * 4);
}

#[test]
fn a_single_run_reports_its_own_block() {
    let inst = hard_instance(301, QueryShape::Chain, 4, 200);
    let obs = ObsHandle::enabled();
    let ctx = SearchContext::local(SearchBudget::iterations(400)).with_obs(obs.clone());
    let outcome = Ils::default().search(&inst, &ctx, &mut StdRng::seed_from_u64(302));
    assert!(!outcome.stats.cache.per_var.is_empty(), "ILS runs cached");
    assert_metrics_are_the_name_table(&obs.metrics.snapshot(), &outcome.stats, 1);

    // IBB and the exact joins consult no window cache: no `cache.*` rows.
    for snap in [
        {
            let obs = ObsHandle::enabled();
            let ctx = SearchContext::local(SearchBudget::iterations(200)).with_obs(obs.clone());
            let outcome = Ibb::new(IbbConfig::new()).search(&inst, &ctx);
            assert_metrics_are_the_name_table(&obs.metrics.snapshot(), &outcome.stats, 1);
            obs.metrics.snapshot()
        },
        {
            let obs = ObsHandle::enabled();
            let budget = SearchBudget::iterations(200);
            let outcome = WindowReduction::new().run_with_obs(&inst, &budget, 5, &obs);
            assert_metrics_are_the_name_table(&obs.metrics.snapshot(), &outcome.stats, 1);
            obs.metrics.snapshot()
        },
    ] {
        assert!(
            snap.counters
                .iter()
                .all(|(name, _)| name.starts_with("search.")),
            "{snap:?}"
        );
    }
}

#[test]
fn two_stages_sharing_one_handle_sum_their_blocks() {
    let inst = hard_instance(303, QueryShape::Clique, 5, 400);
    let obs = ObsHandle::enabled();
    let pipeline = TwoStep::new(TwoStepConfig::Ils(
        IlsConfig::default(),
        SearchBudget::iterations(60),
    ));
    let ctx = SearchContext::local(SearchBudget::iterations(500)).with_obs(obs.clone());
    let outcome = pipeline.search(&inst, &ctx, &mut StdRng::seed_from_u64(304));
    assert!(outcome.ran_systematic(), "the hard instance needs IBB");
    let total = outcome.total_stats();
    assert_eq!(
        total.steps,
        outcome.heuristic.stats.steps + outcome.systematic.as_ref().unwrap().stats.steps
    );
    assert_metrics_are_the_name_table(&obs.metrics.snapshot(), &total, 2);
}

#[test]
fn a_portfolio_reports_the_merged_block() {
    let inst = hard_instance(305, QueryShape::Chain, 4, 300);
    let obs = ObsHandle::enabled();
    let ctx = SearchContext::local(SearchBudget::iterations(2_000)).with_obs(obs.clone());
    let outcome = Portfolio::new(Ils::default(), 4).search(&inst, &ctx, 306);
    assert_metrics_are_the_name_table(&obs.metrics.snapshot(), &outcome.merged.stats, 4);
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
