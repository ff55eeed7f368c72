//! The pinned benchmark suite behind `mwsj bench snapshot`.
//!
//! A fixed set of seeded workloads (chain and clique queries at two
//! densities) is run through ILS, GILS, SEA and the two-step pipeline
//! under **step budgets**, so every work counter — steps, node accesses,
//! restarts, improvements — is bit-identical across machines and runs.
//! Each seeded search is run exactly twice and the two runs must agree on
//! every counter: two is what it takes to catch a run-to-run divergence,
//! which would mean the algorithms themselves are non-deterministic, and
//! the runner fails on one. No clock is read into the result.
//!
//! The result is a [`BenchSnapshot`] — the schema-validated
//! `BENCH_<label>.json` format that `mwsj bench compare` and the root
//! `tests/counter_gate.rs` gate with. Speed is measured by `benchmark/`.

use crate::Algo;
use mwsj_core::{
    CacheStats, IlsConfig, Instance, RunStats, SearchBudget, TracePoint, TwoStep, TwoStepConfig,
};
use mwsj_datagen::{Distribution, QueryShape, WorkloadSpec};
use mwsj_obs::snapshot::AlgoRecord;
use mwsj_obs::{
    AnytimeCurve, BenchSnapshot, CacheRecord, ExplainRecord, InstanceRecord, MemoryRecord,
    ResourceReport,
};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Step budget for ILS/GILS (one step = one `find best value` call).
const LOCAL_SEARCH_STEPS: u64 = 3_000;
/// Step budget for SEA (one step = one generation).
const SEA_STEPS: u64 = 120;
/// Step budget of the two-step pipeline's ILS heuristic.
const TWO_STEP_HEURISTIC_STEPS: u64 = 1_000;
/// Step budget of the two-step pipeline's systematic IBB phase.
const TWO_STEP_IBB_STEPS: u64 = 2_000;
/// RNG seed every suite run uses (fixed: the suite measures code, not
/// seeds).
const RUN_SEED: u64 = 7;

/// Large-tier step budget for ILS/GILS: scaled up so the planted optimum
/// stays reachable at N = 10⁴–10⁵ objects per variable.
const LARGE_LOCAL_SEARCH_STEPS: u64 = 8_000;
/// Large-tier SEA generations.
const LARGE_SEA_STEPS: u64 = 60;
/// Large-tier two-step heuristic budget.
const LARGE_TWO_STEP_HEURISTIC_STEPS: u64 = 2_000;
/// Large-tier two-step systematic (IBB) budget.
const LARGE_TWO_STEP_IBB_STEPS: u64 = 3_000;

/// Per-tier step budgets handed to [`run_once`].
#[derive(Debug, Clone, Copy)]
struct TierBudgets {
    local_search: u64,
    sea: u64,
    two_step_heuristic: u64,
    two_step_ibb: u64,
}

/// The pinned suite tiers behind `mwsj bench snapshot --tier`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum BenchTier {
    /// The original toy-scale suite (n = 4, 200 objects/dataset) —
    /// `BENCH_baseline.json`.
    #[default]
    Base,
    /// Paper-scale workloads (N = 10⁴–10⁵ objects, n up to 10, all five
    /// query shapes) — `BENCH_large.json`.
    Large,
}

impl BenchTier {
    /// All tiers, in definition order.
    pub const ALL: [BenchTier; 2] = [BenchTier::Base, BenchTier::Large];

    /// CLI name (`--tier base|large`).
    pub fn name(&self) -> &'static str {
        match self {
            BenchTier::Base => "base",
            BenchTier::Large => "large",
        }
    }

    /// Parses a CLI tier name.
    pub fn parse(s: &str) -> Option<BenchTier> {
        match s {
            "base" => Some(BenchTier::Base),
            "large" => Some(BenchTier::Large),
            _ => None,
        }
    }

    /// The tier's pinned workloads.
    pub fn suite(&self) -> Vec<SuiteCase> {
        match self {
            BenchTier::Base => pinned_suite(),
            BenchTier::Large => pinned_suite_large(),
        }
    }

    fn budgets(&self) -> TierBudgets {
        match self {
            BenchTier::Base => TierBudgets {
                local_search: LOCAL_SEARCH_STEPS,
                sea: SEA_STEPS,
                two_step_heuristic: TWO_STEP_HEURISTIC_STEPS,
                two_step_ibb: TWO_STEP_IBB_STEPS,
            },
            BenchTier::Large => TierBudgets {
                local_search: LARGE_LOCAL_SEARCH_STEPS,
                sea: LARGE_SEA_STEPS,
                two_step_heuristic: LARGE_TWO_STEP_HEURISTIC_STEPS,
                two_step_ibb: LARGE_TWO_STEP_IBB_STEPS,
            },
        }
    }
}

/// One pinned suite workload.
#[derive(Debug, Clone)]
pub struct SuiteCase {
    /// Stable instance name used in snapshots and compare reports.
    pub name: &'static str,
    /// The seeded workload description.
    pub spec: WorkloadSpec,
}

/// The pinned suite: chain and clique shapes, each at the hard-region
/// density (one expected solution, with one planted so similarity 1 is
/// reachable and time-to-τ=1 is well defined) and at an easier density
/// (four expected solutions).
pub fn pinned_suite() -> Vec<SuiteCase> {
    let case = |name, shape, target_solutions, plant, seed| SuiteCase {
        name,
        spec: WorkloadSpec {
            shape,
            n_vars: 4,
            cardinality: 200,
            target_solutions,
            plant,
            distribution: Distribution::Uniform,
            seed,
        },
    };
    vec![
        case("chain-n4-hard", QueryShape::Chain, 1.0, true, 101),
        case("chain-n4-easy", QueryShape::Chain, 4.0, false, 102),
        case("clique-n4-hard", QueryShape::Clique, 1.0, true, 103),
        case("clique-n4-easy", QueryShape::Clique, 4.0, false, 104),
    ]
}

/// The large tier: paper-scale pinned workloads — N = 10⁴–10⁵ objects per
/// dataset, n up to 10, all five query shapes, every instance at the
/// hard-region density with one solution planted (τ = 1 reachable, so
/// time-to-τ stays well defined at scale).
pub fn pinned_suite_large() -> Vec<SuiteCase> {
    let case = |name, shape, n_vars, cardinality, seed| SuiteCase {
        name,
        spec: WorkloadSpec {
            shape,
            n_vars,
            cardinality,
            target_solutions: 1.0,
            plant: true,
            distribution: Distribution::Uniform,
            seed,
        },
    };
    let mut cases = vec![
        case("chain-n8-hard", QueryShape::Chain, 8, 10_000, 201),
        case("chain-n10-hard", QueryShape::Chain, 10, 10_000, 202),
        case("star-n8-hard", QueryShape::Star, 8, 10_000, 203),
        case("cycle-n8-hard", QueryShape::Cycle, 8, 10_000, 204),
        case("clique-n6-hard", QueryShape::Clique, 6, 10_000, 205),
        case("random-n10-hard", QueryShape::Random, 10, 10_000, 206),
        case("chain-n6-100k", QueryShape::Chain, 6, 100_000, 207),
    ];
    // Zipf-clustered skew case: a few dense hot-spots.
    cases.push(SuiteCase {
        name: "chain-n6-zipf",
        spec: WorkloadSpec {
            shape: QueryShape::Chain,
            n_vars: 6,
            cardinality: 10_000,
            target_solutions: 1.0,
            plant: true,
            distribution: Distribution::ZipfClustered {
                clusters: 16,
                sigma: 0.02,
                exponent: 1.1,
            },
            seed: 208,
        },
    });
    cases
}

/// The algorithms the suite measures, in snapshot order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SuiteAlgo {
    /// Indexed local search under the tier's local-search budget.
    Ils,
    /// Guided indexed local search under the tier's local-search budget.
    Gils,
    /// Spatial evolutionary algorithm under the tier's generation budget.
    Sea,
    /// ILS heuristic + systematic IBB (§6 two-step processing).
    TwoStep,
}

impl SuiteAlgo {
    /// Every algorithm, in snapshot order.
    pub const ALL: [SuiteAlgo; 4] = [
        SuiteAlgo::Ils,
        SuiteAlgo::Gils,
        SuiteAlgo::Sea,
        SuiteAlgo::TwoStep,
    ];

    /// Display/snapshot name.
    pub fn name(&self) -> &'static str {
        match self {
            SuiteAlgo::Ils => "ILS",
            SuiteAlgo::Gils => "GILS",
            SuiteAlgo::Sea => "SEA",
            SuiteAlgo::TwoStep => "two-step",
        }
    }
}

/// The outcome of one suite run an [`AlgoRecord`] is distilled from.
struct SuiteRun {
    stats: RunStats,
    best_violations: usize,
    best_similarity: f64,
    trace: Vec<TracePoint>,
}

fn run_once(algo: SuiteAlgo, instance: &Instance, budgets: TierBudgets) -> SuiteRun {
    match algo {
        SuiteAlgo::Ils | SuiteAlgo::Gils | SuiteAlgo::Sea => {
            let (runner, steps) = match algo {
                SuiteAlgo::Ils => (Algo::Ils, budgets.local_search),
                SuiteAlgo::Gils => (Algo::Gils, budgets.local_search),
                _ => (Algo::Sea, budgets.sea),
            };
            let outcome = runner.run(instance, &SearchBudget::iterations(steps), RUN_SEED);
            SuiteRun {
                stats: outcome.stats,
                best_violations: outcome.best_violations,
                best_similarity: outcome.best_similarity,
                trace: outcome.trace,
            }
        }
        SuiteAlgo::TwoStep => {
            let pipeline = TwoStep::new(TwoStepConfig::Ils(
                IlsConfig::default(),
                SearchBudget::iterations(budgets.two_step_heuristic),
            ));
            let outcome = pipeline.run(
                instance,
                &SearchBudget::iterations(budgets.two_step_ibb),
                &mut StdRng::seed_from_u64(RUN_SEED),
            );
            // Concatenate the phases' traces into one pipeline-level anytime
            // curve: systematic trace points are shifted by the heuristic's
            // consumed steps, and non-improving points (IBB starts from the
            // heuristic's incumbent) fold away in the curve.
            let mut trace = outcome.heuristic.trace.clone();
            if let Some(sys) = &outcome.systematic {
                let heuristic_steps = outcome.heuristic.stats.steps;
                trace.extend(sys.trace.iter().map(|p| TracePoint {
                    step: p.step + heuristic_steps,
                    ..*p
                }));
            }
            SuiteRun {
                stats: outcome.total_stats(),
                best_violations: outcome.best.best_violations,
                best_similarity: outcome.best.best_similarity,
                trace,
            }
        }
    }
}

/// `AlgoRecord.counters`: the run's work counters under their own names,
/// then the quality it ended on.
fn counters_of(run: &SuiteRun) -> Vec<(String, u64)> {
    let mut counters: Vec<(String, u64)> = run
        .stats
        .counters()
        .iter()
        .map(|&(name, value)| (name.to_string(), value))
        .collect();
    counters.push(("best_violations".into(), run.best_violations as u64));
    counters
}

fn measure(
    algo: SuiteAlgo,
    instance: &Instance,
    budgets: TierBudgets,
) -> Result<(AlgoRecord, CacheStats), String> {
    // The same seeded search under a step budget, twice: any counter
    // disagreement is a determinism bug, not noise. The window-cache
    // telemetry obeys the same contract.
    let run = run_once(algo, instance, budgets);
    let again = run_once(algo, instance, budgets);
    let (expected, got) = (counters_of(&run), counters_of(&again));
    if got != expected {
        return Err(format!(
            "{}: deterministic counters diverged between rep 0 ({expected:?}) and rep 1 ({got:?})",
            algo.name()
        ));
    }
    if again.stats.cache != run.stats.cache {
        return Err(format!(
            "{}: cache telemetry diverged between rep 0 and rep 1",
            algo.name()
        ));
    }
    let record = AlgoRecord::from_curve(
        algo.name(),
        expected,
        run.best_similarity,
        &AnytimeCurve::from_trace(&run.trace, run.stats.steps),
    );
    Ok((record, run.stats.cache))
}

/// Runs one tier's pinned suite and assembles the snapshot. `progress` is
/// called once per (instance, algorithm) before it runs, for CLI progress
/// output.
pub fn run_suite(
    tier: BenchTier,
    label: &str,
    mut progress: impl FnMut(&str, &str),
) -> Result<BenchSnapshot, String> {
    let budgets = tier.budgets();
    let mut instances = Vec::new();
    let mut memory = Vec::new();
    let mut cache = Vec::new();
    let mut explain = Vec::new();
    for case in tier.suite() {
        let workload = case.spec.generate();
        let instance =
            Instance::new(workload.graph, workload.datasets).map_err(|e| format!("{e:?}"))?;
        // The memory table is a property of the built instance alone:
        // deterministic bytes per resident structure (length-based, so
        // identical on every machine and every run).
        let mut report = ResourceReport::new();
        instance.fill_resource_report(&mut report);
        memory.push(MemoryRecord {
            instance: case.name.to_string(),
            components: report.components().to_vec(),
            total_bytes: report.total_bytes(),
        });
        // The explain table is likewise a pure function of the pinned
        // instance: the pre-run estimate side only (selectivity models,
        // tree quality, predicted accesses), so `bench compare` can gate
        // it exactly across machines.
        explain.push(ExplainRecord {
            instance: case.name.to_string(),
            report: mwsj_core::build_explain_report(&instance),
        });
        let mut algos = Vec::new();
        for algo in SuiteAlgo::ALL {
            progress(case.name, algo.name());
            let (record, cache_stats) = measure(algo, &instance, budgets)?;
            cache.push(CacheRecord {
                instance: case.name.to_string(),
                algo: algo.name().to_string(),
                hits: cache_stats.hits(),
                misses: cache_stats.misses(),
                invalidations_reassign: cache_stats.invalidations_reassign(),
                invalidations_penalty: cache_stats.invalidations_penalty(),
                skipped: cache_stats.skipped(),
                bytes: cache_stats.bytes,
            });
            algos.push(record);
        }
        instances.push(InstanceRecord {
            name: case.name.to_string(),
            shape: case.spec.shape.name().to_string(),
            n_vars: case.spec.n_vars as u64,
            cardinality: case.spec.cardinality as u64,
            seed: case.spec.seed,
            algos,
        });
    }
    Ok(BenchSnapshot {
        label: label.to_string(),
        instances,
        memory,
        cache,
        explain,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn suite_is_pinned() {
        let suite = pinned_suite();
        assert_eq!(suite.len(), 4);
        let names: Vec<&str> = suite.iter().map(|c| c.name).collect();
        assert_eq!(
            names,
            vec![
                "chain-n4-hard",
                "chain-n4-easy",
                "clique-n4-hard",
                "clique-n4-easy"
            ]
        );
        // Hard instances plant a solution so τ = 1 is reachable.
        assert!(suite
            .iter()
            .all(|c| c.spec.plant == c.name.ends_with("hard")));
        // Specs regenerate identical workloads (seeded).
        let a = suite[0].spec.generate();
        let b = suite[0].spec.generate();
        assert_eq!(a.datasets[0].rects(), b.datasets[0].rects());
    }

    #[test]
    fn every_tier_case_name_starts_with_its_shape_and_size() {
        // `mwsj report` groups records by the `shape` and `n_vars` they
        // carry; a case named after another shape or size would be filed
        // where nobody looks for it.
        for tier in BenchTier::ALL {
            for case in tier.suite() {
                let prefix = format!("{}-n{}-", case.spec.shape.name(), case.spec.n_vars);
                assert!(case.name.starts_with(&prefix), "{}", case.name);
            }
        }
    }

    /// One full suite run: the snapshot has its four sections, round-trips
    /// through its JSON schema, and a second run of the same tier and label
    /// serialises to the same bytes — there is no clock in the file.
    #[test]
    fn suite_runs_and_snapshot_round_trips() {
        let snap = run_suite(BenchTier::Base, "test", |_, _| {}).expect("suite runs");
        assert_eq!(snap.instances.len(), 4);
        assert_eq!(snap.algo_records(), 16);
        for inst in &snap.instances {
            for algo in &inst.algos {
                assert!(algo.counter("steps").unwrap() > 0, "{}", algo.algo);
                // The six members `BENCH_*.json` pins per algorithm:
                // `RunStats`' own table and the quality the run ended
                // on, which the record keeps sorted by name.
                let names: Vec<&str> = algo.counters.iter().map(|(n, _)| n.as_str()).collect();
                let pinned = [
                    "best_violations",
                    "improvements",
                    "local_maxima",
                    "node_accesses",
                    "restarts",
                    "steps",
                ];
                assert_eq!(names, pinned, "{}", algo.algo);
            }
        }
        // Memory section: one deterministic table per instance, with the
        // per-variable index components present.
        assert_eq!(snap.memory.len(), 4);
        for mem in &snap.memory {
            assert_eq!(mem.components.len(), 8, "{}", mem.instance); // 2 per var × 4 vars
            assert!(mem.total_bytes > 0);
            assert_eq!(
                mem.total_bytes,
                mem.components.iter().map(|(_, b)| b).sum::<u64>()
            );
        }
        // Cache section: one record per (instance, algo); the local-search
        // algorithms must show real cache traffic.
        assert_eq!(snap.cache.len(), 16);
        for rec in snap.cache.iter().filter(|r| r.algo == "ILS") {
            assert!(rec.hits > 0, "{}/ILS no cache hits", rec.instance);
            assert!(rec.misses > 0, "{}/ILS no cache misses", rec.instance);
            assert!(rec.bytes > 0, "{}/ILS no cache bytes", rec.instance);
        }
        // Explain section: one estimate-only report per instance, with
        // every base-tier edge observed (N=200 is under the pair budget).
        assert_eq!(snap.explain.len(), 4);
        for rec in &snap.explain {
            assert!(!rec.report.has_observed(), "{}", rec.instance);
            assert!(rec.report.expected_solutions > 0.0, "{}", rec.instance);
            assert!(
                rec.report
                    .edges
                    .iter()
                    .all(|e| e.observed_selectivity.is_some()),
                "{}",
                rec.instance
            );
        }

        let text = snap.to_string_pretty();
        let parsed = BenchSnapshot::parse(&text).expect("snapshot validates");
        assert_eq!(parsed, snap);

        let again = run_suite(BenchTier::Base, "test", |_, _| {}).expect("suite runs");
        assert!(
            again.to_string_pretty() == text,
            "a second run wrote a different file"
        );
    }
}
