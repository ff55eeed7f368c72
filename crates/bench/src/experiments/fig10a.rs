//! **Fig. 10a** — solution quality vs. number of query variables.
//!
//! For chains and cliques over n ∈ {5, 10, 15, 20, 25} datasets at the
//! hard-region density (expected solutions = 1), each algorithm gets the
//! moves of `10·n` paper-seconds (scaled) and the best similarity is
//! averaged over the repetitions. The paper's figure also prints the
//! density row in italics; here it is a table column.

use super::{build_instance, mean_cell, Output};
use crate::{Algo, Recorder, Scale, Table};
use mwsj_datagen::QueryShape;

/// Runs the experiment, streaming per-run events and metrics through
/// `rec`; one table, `shape, n, density, ILS, GILS, SEA`.
pub fn run(scale: Scale, rec: &Recorder) -> Vec<Output> {
    let mut table = Table::new(vec!["shape", "n", "density", "ILS", "GILS", "SEA"]);
    for shape in [QueryShape::Chain, QueryShape::Clique] {
        for &n in &scale.query_sizes() {
            let (instance, _, density) = build_instance(
                shape,
                n,
                scale.cardinality(),
                1.0,
                false,
                0xA11CE + n as u64,
            );
            let mut cells = vec![
                shape.name().to_string(),
                n.to_string(),
                format!("{density:.4}"),
            ];
            for algo in Algo::PAPER {
                let budget = scale.budget(algo, &instance, 10.0 * n as f64);
                cells.push(mean_cell(scale.repetitions(), 1000, |seed| {
                    rec.run(algo, &instance, &budget, seed).best_similarity
                }));
            }
            table.row(cells);
            eprintln!("fig10a: {} n={n} done", shape.name());
        }
    }
    let title = format!(
        "Fig. 10a — similarity vs. number of variables (scale: {}, N = {}, {} reps, budget 10·n paper-seconds = {}·n moves)",
        scale.name(),
        scale.cardinality(),
        scale.repetitions(),
        scale.moves(10.0)
    );
    vec![Output {
        csv: "fig10a.csv".into(),
        title,
        table,
    }]
}
