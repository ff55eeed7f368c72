//! **Fig. 11** — systematic search with and without heuristic seeding.
//!
//! Clique datasets with exactly one (planted) exact solution. Three
//! methods race to retrieve it: plain IBB, ILS(1 s)+IBB, and
//! SEA(`10·n` s)+IBB. The paper reports the total retrieval time averaged
//! over 10 executions, with plain IBB needing >100 minutes at n = 5 and
//! days at n = 25 — so the harness caps IBB wall-clock and prints
//! `>cap` for timeouts; the *ratio* between seeded and unseeded runs is
//! the reproduced result.

use crate::experiments::build_instance;
use crate::{mean, write_csv, Algo, Recorder, Scale, Table};
use mwsj_core::{Ibb, IbbConfig, SearchBudget, TwoStep, TwoStepConfig};
use mwsj_datagen::QueryShape;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::time::Duration;

/// Per-scale settings: query sizes, dataset cardinality, IBB cap.
fn settings(scale: Scale) -> (Vec<usize>, usize, Duration, usize) {
    match scale {
        // (sizes, cardinality, ibb_cap, reps)
        Scale::Smoke => (vec![3], 300, Duration::from_secs(5), 1),
        Scale::Default => (vec![3, 4, 5], 2_000, Duration::from_secs(60), 3),
        Scale::Paper => (
            vec![5, 10, 15, 20, 25],
            100_000,
            Duration::from_secs(6 * 3600),
            10,
        ),
    }
}

/// Runs the experiment, streaming per-run events and metrics through
/// `rec`; rows are `(n, IBB_seconds, ILS+IBB_seconds, SEA+IBB_seconds)`
/// where a leading `>` marks a timeout.
pub fn run(scale: Scale, rec: &Recorder) -> Table {
    let (sizes, cardinality, ibb_cap, reps) = settings(scale);
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
        let ibb_budget = SearchBudget::time(ibb_cap);
        let outcome = rec.framed("IBB", &instance, &ibb_budget, 0, |ctx| {
            Ibb::new(IbbConfig::new()).search(&instance, ctx)
        });
        let ibb_cell = if outcome.is_exact() {
            format!("{:.2}", outcome.stats.elapsed.as_secs_f64())
        } else {
            format!(">{:.0}", ibb_cap.as_secs_f64())
        };
        eprintln!("fig11: n={n} IBB done ({ibb_cell})");

        // --- Heuristic + IBB. ---
        let mut cells = vec![n.to_string(), ibb_cell];
        for algo in [Algo::Ils, Algo::Sea] {
            let mut times = Vec::new();
            let mut timeouts = 0usize;
            for rep in 0..reps {
                let heuristic_budget = match algo {
                    // Paper: ILS runs 1 s; SEA runs 10·n s. Scaled runs
                    // compress ILS's second proportionally (floor 50 ms).
                    Algo::Ils => SearchBudget::time(Duration::from_secs_f64(
                        (10.0 * scale.time_factor()).clamp(0.05, 1.0),
                    )),
                    _ => SearchBudget::time(scale.query_budget(n)),
                };
                let config = match algo {
                    Algo::Ils => TwoStepConfig::Ils(Default::default(), heuristic_budget),
                    _ => TwoStepConfig::Sea(
                        mwsj_core::SeaConfig::default_for(&instance),
                        heuristic_budget,
                    ),
                };
                let seed = 4000 + rep as u64;
                let mut rng = StdRng::seed_from_u64(seed);
                let total_budget = SearchBudget::time(ibb_cap);
                let name = format!("{}+IBB", algo.name());
                let start = std::time::Instant::now();
                let outcome = rec.framed(&name, &instance, &total_budget, seed, |ctx| {
                    TwoStep::new(config)
                        .search(&instance, ctx, &mut rng)
                        .combined()
                });
                let elapsed = start.elapsed();
                if outcome.is_exact() {
                    times.push(elapsed.as_secs_f64());
                } else {
                    timeouts += 1;
                }
            }
            let cell = if times.is_empty() {
                format!(">{:.0}", ibb_cap.as_secs_f64())
            } else if timeouts > 0 {
                format!("{:.2} ({timeouts} t/o)", mean(&times))
            } else {
                format!("{:.2}", mean(&times))
            };
            eprintln!("fig11: n={n} {}+IBB done ({cell})", algo.name());
            cells.push(cell);
        }
        table.row(cells);
    }
    table
}

/// Runs, prints and persists the experiment.
pub fn main(scale: Scale) {
    let (sizes, cardinality, cap, reps) = settings(scale);
    println!(
        "Fig. 11 — time (s) to retrieve the planted exact solution, cliques n ∈ {:?}, N = {}, IBB cap {:.0}s, {} reps (scale: {})",
        sizes,
        cardinality,
        cap.as_secs_f64(),
        reps,
        scale.name()
    );
    let rec = Recorder::create("fig11");
    let table = run(scale, &rec);
    println!("{}", table.render());
    let path = write_csv("fig11.csv", &table.to_csv()).expect("write results");
    println!("CSV written to {}", path.display());
    if let Some(metrics) = rec.finish() {
        println!("metrics JSONL written to {}", metrics.display());
    }
}
