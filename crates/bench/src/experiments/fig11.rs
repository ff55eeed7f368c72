//! **Fig. 11** — systematic search with and without heuristic seeding.
//!
//! Clique datasets with exactly one (planted) exact solution. Three
//! methods race to retrieve it: plain IBB, ILS(1 s)+IBB, and
//! SEA(`10·n` s)+IBB, the heuristics' paper-seconds turned into moves. The
//! paper reports the total retrieval time averaged over 10 executions,
//! with plain IBB needing >100 minutes at n = 5 and days at n = 25; here a
//! cell is the work spent to reach the solution — heuristic moves plus IBB
//! steps — and IBB is capped at a step count per scale, `>cap` marking a
//! timeout. The *ratio* between seeded and unseeded runs is the
//! reproduced result.

use super::{build_instance, Output};
use crate::{mean, Algo, Recorder, Scale, Table};
use mwsj_core::{Ibb, IbbConfig, SeaConfig, SearchBudget, TwoStep, TwoStepConfig};
use mwsj_datagen::QueryShape;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Per-scale settings: query sizes, dataset cardinality, IBB step cap,
/// repetitions.
fn settings(scale: Scale) -> (Vec<usize>, usize, u64, usize) {
    match scale {
        Scale::Smoke => (vec![3], 300, 100_000, 1),
        Scale::Default => (vec![3, 4, 5], 2_000, 10_000_000, 3),
        Scale::Paper => (vec![5, 10, 15, 20, 25], 100_000, 1_000_000_000, 10),
    }
}

/// Runs the experiment, streaming per-run events and metrics through
/// `rec`; one table, `(n, IBB, ILS+IBB, SEA+IBB)` in moves plus IBB steps,
/// where a leading `>` marks a timeout.
pub fn run(scale: Scale, rec: &Recorder) -> Vec<Output> {
    let (sizes, cardinality, cap, reps) = settings(scale);
    let ibb_budget = SearchBudget::iterations(cap);
    let mut table = Table::new(vec!["n", "IBB", "ILS+IBB", "SEA+IBB"]);
    for &n in &sizes {
        let (instance, planted, _) = build_instance(
            QueryShape::Clique,
            n,
            cardinality,
            1.0,
            true,
            0xF16 + n as u64,
        );
        assert!(planted.is_some());

        // --- Plain IBB (deterministic: one run). ---
        let outcome = rec.framed("IBB", &instance, &ibb_budget, 0, |ctx| {
            Ibb::new(IbbConfig::new()).search(&instance, ctx)
        });
        let ibb_cell = if outcome.is_exact() {
            outcome.stats.steps.to_string()
        } else {
            format!(">{cap}")
        };
        eprintln!("fig11: n={n} IBB done ({ibb_cell})");

        // --- Heuristic + IBB. ---
        let mut cells = vec![n.to_string(), ibb_cell];
        for algo in [Algo::Ils, Algo::Sea] {
            // Paper: ILS runs 1 s; SEA runs 10·n s.
            let config = match algo {
                Algo::Ils => {
                    TwoStepConfig::Ils(Default::default(), scale.budget(algo, &instance, 1.0))
                }
                _ => TwoStepConfig::Sea(
                    SeaConfig::default_for(&instance),
                    scale.budget(algo, &instance, 10.0 * n as f64),
                ),
            };
            let mut works = Vec::new();
            for rep in 0..reps {
                let seed = 4000 + rep as u64;
                let mut rng = StdRng::seed_from_u64(seed);
                let name = format!("{}+IBB", algo.name());
                let mut work = 0;
                let outcome = rec.framed(&name, &instance, &ibb_budget, seed, |ctx| {
                    let two = TwoStep::new(config.clone()).search(&instance, ctx, &mut rng);
                    work = two.heuristic.stats.steps * algo.moves_per_step(&instance)
                        + two.systematic.as_ref().map_or(0, |ibb| ibb.stats.steps);
                    two.combined()
                });
                if outcome.is_exact() {
                    works.push(work as f64);
                }
            }
            let timeouts = reps - works.len();
            let cell = match timeouts {
                0 => format!("{:.0}", mean(&works)),
                _ if works.is_empty() => format!(">{cap}"),
                _ => format!("{:.0} ({timeouts} t/o)", mean(&works)),
            };
            eprintln!("fig11: n={n} {}+IBB done ({cell})", algo.name());
            cells.push(cell);
        }
        table.row(cells);
    }
    let title = format!(
        "Fig. 11 — work (heuristic moves + IBB steps) to retrieve the planted exact solution, cliques n ∈ {sizes:?}, N = {cardinality}, IBB cap {cap} steps, {reps} reps (scale: {})",
        scale.name()
    );
    vec![Output {
        csv: "fig11.csv".into(),
        title,
        table,
    }]
}
