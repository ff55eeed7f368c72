//! **Fig. 10a** — solution quality vs. number of query variables.
//!
//! For chains and cliques over n ∈ {5, 10, 15, 20, 25} datasets at the
//! hard-region density (expected solutions = 1), each algorithm runs for
//! `10·n` seconds (scaled) and the best similarity is averaged over the
//! repetitions. The paper's figure also prints the density row in italics;
//! here it is a table column.

use crate::experiments::build_instance;
use crate::{mean, write_csv, Algo, Recorder, Scale, Table};
use mwsj_core::SearchBudget;
use mwsj_datagen::QueryShape;

/// Runs the experiment, streaming per-run events and metrics through
/// `rec`, and returns the result table
/// (`shape, n, density, ILS, GILS, SEA`).
pub fn run(scale: Scale, rec: &Recorder) -> Table {
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
            let budget = SearchBudget::time(scale.query_budget(n));
            let mut cells = vec![
                shape.name().to_string(),
                n.to_string(),
                format!("{density:.4}"),
            ];
            for algo in Algo::PAPER {
                let sims: Vec<f64> = (0..scale.repetitions())
                    .map(|rep| {
                        rec.run(algo, &instance, &budget, 1000 + rep as u64)
                            .best_similarity
                    })
                    .collect();
                cells.push(format!("{:.3}", mean(&sims)));
            }
            table.row(cells);
            eprintln!("fig10a: {} n={n} done", shape.name());
        }
    }
    table
}

/// Runs, prints and persists the experiment.
pub fn main(scale: Scale) {
    println!(
        "Fig. 10a — similarity vs. number of variables (scale: {}, N = {}, {} reps, budget 10·n·{}s)",
        scale.name(),
        scale.cardinality(),
        scale.repetitions(),
        scale.time_factor()
    );
    let rec = Recorder::create("fig10a");
    let table = run(scale, &rec);
    println!("{}", table.render());
    let path = write_csv("fig10a.csv", &table.to_csv()).expect("write results");
    println!("CSV written to {}", path.display());
    if let Some(metrics) = rec.finish() {
        println!("metrics JSONL written to {}", metrics.display());
    }
}
