//! **Fig. 10b** — solution quality over work (convergence curves), and the
//! calibration of the work unit.
//!
//! Fixes n = 15 variables (the paper's choice) on the Fig. 10a datasets
//! and gives every algorithm the moves of 40 paper-seconds on chains and
//! 120 on cliques (scaled). Each run's improvement trace is resampled onto
//! a common grid of moves, read from each trace point's step; the table
//! reports the average best similarity at each grid point, reproducing the
//! convergence-point observations ("ILS and GILS converge before 5/10
//! seconds; SEA needs longer but ends higher").
//!
//! The same ILS runs calibrate [`crate::MOVES_PER_PAPER_SECOND`]: the
//! paper's ILS visits 12 000 local maxima a second, so a paper-second is
//! 12 000 times ILS's moves per local maximum on these instances.

use super::{build_instance, fixed_n, Output};
use crate::{mean, Algo, Recorder, Scale, Table};
use mwsj_datagen::QueryShape;

/// Number of sample points on the move grid.
const GRID: u64 = 20;

/// Local maxima the paper's ILS visits per second ("about 60 000" in 5 s).
const PAPER_MAXIMA_PER_SECOND: f64 = 12_000.0;

/// Runs the experiment for both shapes, streaming per-run events and
/// metrics through `rec`: one `(moves, ILS, GILS, SEA)` table per shape,
/// then the calibration table, one row per shape.
pub fn run(scale: Scale, rec: &Recorder) -> Vec<Output> {
    let n = fixed_n(scale);
    let mut outputs = Vec::new();
    let mut calibration = Table::new(vec![
        "shape",
        "n",
        "ILS_moves",
        "local_maxima",
        "moves_per_maximum",
        "moves_per_paper_second",
    ]);
    for shape in [QueryShape::Chain, QueryShape::Clique] {
        // Paper: 40 s for chains, 120 s for cliques.
        let paper_secs = match shape {
            QueryShape::Clique => 120.0,
            _ => 40.0,
        };
        let total = scale.moves(paper_secs);
        let (instance, _, _) =
            build_instance(shape, n, scale.cardinality(), 1.0, false, 0xB0B + n as u64);

        let mut curves: Vec<Vec<f64>> = Vec::new();
        for algo in Algo::PAPER {
            let budget = scale.budget(algo, &instance, paper_secs);
            let outcomes: Vec<_> = (0..scale.repetitions())
                .map(|rep| rec.run(algo, &instance, &budget, 2000 + rep as u64))
                .collect();
            let per_step = algo.moves_per_step(&instance);
            let curve: Vec<f64> = (1..=GRID)
                .map(|g| {
                    let moves = total * g / GRID;
                    // Each trace is a step function: its last point at or
                    // before `moves` holds, 0 before its first.
                    let known = outcomes.iter().map(|o| {
                        let upto = o.trace.iter().take_while(|p| p.step * per_step <= moves);
                        upto.last().map_or(0.0, |p| p.similarity)
                    });
                    mean(&known.collect::<Vec<_>>())
                })
                .collect();
            curves.push(curve);
            if algo == Algo::Ils {
                let moves: u64 = outcomes.iter().map(|o| o.stats.steps).sum();
                let maxima: u64 = outcomes.iter().map(|o| o.stats.local_maxima).sum();
                let ratio = moves as f64 / maxima.max(1) as f64;
                calibration.row(vec![
                    shape.name().to_string(),
                    n.to_string(),
                    moves.to_string(),
                    maxima.to_string(),
                    format!("{ratio:.2}"),
                    format!("{:.0}", ratio * PAPER_MAXIMA_PER_SECOND),
                ]);
            }
            eprintln!("fig10b: {} {} done", shape.name(), algo.name());
        }
        let mut table = Table::new(vec!["moves", "ILS", "GILS", "SEA"]);
        for g in 0..GRID as usize {
            let mut cells = vec![(total * (g as u64 + 1) / GRID).to_string()];
            cells.extend(curves.iter().map(|curve| format!("{:.3}", curve[g])));
            table.row(cells);
        }
        outputs.push(Output {
            csv: format!("fig10b_{}.csv", shape.name()),
            title: format!(
                "Fig. 10b — similarity over moves, {} (scale: {}, {paper_secs} paper-seconds = {total} moves)",
                shape.name(),
                scale.name()
            ),
            table,
        });
    }
    outputs.push(Output {
        csv: "calibration.csv".into(),
        title: format!(
            "Calibration — ILS moves per local maximum on Fig. 10b's instances; the paper's ILS visits {PAPER_MAXIMA_PER_SECOND} local maxima a second (scale: {})",
            scale.name()
        ),
        table: calibration,
    });
    outputs
}
