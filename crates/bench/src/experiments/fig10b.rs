//! **Fig. 10b** — solution quality over time (convergence curves).
//!
//! Fixes n = 15 variables (the paper's choice) on the Fig. 10a datasets
//! and lets every algorithm run for 40 seconds on chains and 120 seconds
//! on cliques (scaled). Each run's improvement trace is resampled onto a
//! common time grid; the table reports the average best similarity at each
//! grid point, reproducing the convergence-point observations ("ILS and
//! GILS converge before 5/10 seconds; SEA needs longer but ends higher").

use crate::experiments::build_instance;
use crate::{mean, write_csv, Algo, Recorder, Scale, Table};
use mwsj_core::SearchBudget;
use mwsj_datagen::QueryShape;
use std::time::Duration;

/// Number of sample points on the time grid.
const GRID: usize = 20;

/// Runs the experiment for one shape, streaming per-run events and metrics
/// through `rec`; returns `(time, ILS, GILS, SEA)` rows.
pub fn run_shape(scale: Scale, shape: QueryShape, rec: &Recorder) -> Table {
    let n = match scale {
        Scale::Smoke => 5,
        _ => 15,
    };
    // Paper: 40 s for chains, 120 s for cliques.
    let base_secs = match shape {
        QueryShape::Clique => 120.0,
        _ => 40.0,
    };
    let total = Duration::from_secs_f64(base_secs * scale.time_factor());
    let budget = SearchBudget::time(total);
    let (instance, _, _) =
        build_instance(shape, n, scale.cardinality(), 1.0, false, 0xB0B + n as u64);

    // One set of traces per algorithm.
    let mut table = Table::new(vec!["t_seconds", "ILS", "GILS", "SEA"]);
    let mut curves: Vec<Vec<f64>> = Vec::new();
    for algo in Algo::PAPER {
        let outcomes: Vec<_> = (0..scale.repetitions())
            .map(|rep| rec.run(algo, &instance, &budget, 2000 + rep as u64))
            .collect();
        let curve: Vec<f64> = (1..=GRID)
            .map(|g| {
                let t = total.mul_f64(g as f64 / GRID as f64);
                // Each trace is a step function: its last point at or
                // before `t` holds, 0 before its first.
                let known = outcomes.iter().map(|o| {
                    let upto = o.trace.iter().take_while(|p| p.elapsed <= t);
                    upto.last().map_or(0.0, |p| p.similarity)
                });
                mean(&known.collect::<Vec<_>>())
            })
            .collect();
        curves.push(curve);
        eprintln!("fig10b: {} {} done", shape.name(), algo.name());
    }
    #[allow(clippy::needless_range_loop)]
    for g in 0..GRID {
        let t = total.mul_f64((g + 1) as f64 / GRID as f64);
        table.row(vec![
            format!("{:.2}", t.as_secs_f64()),
            format!("{:.3}", curves[0][g]),
            format!("{:.3}", curves[1][g]),
            format!("{:.3}", curves[2][g]),
        ]);
    }
    table
}

/// Runs, prints and persists the experiment for both shapes.
pub fn main(scale: Scale) {
    for shape in [QueryShape::Chain, QueryShape::Clique] {
        println!(
            "Fig. 10b — similarity over time, {} (scale: {})",
            shape.name(),
            scale.name()
        );
        let rec = Recorder::create(&format!("fig10b_{}", shape.name()));
        let table = run_shape(scale, shape, &rec);
        println!("{}", table.render());
        let name = format!("fig10b_{}.csv", shape.name());
        let path = write_csv(&name, &table.to_csv()).expect("write results");
        println!("CSV written to {}", path.display());
        if let Some(metrics) = rec.finish() {
            println!("metrics JSONL written to {}", metrics.display());
        }
    }
}
