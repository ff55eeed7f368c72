//! **Fig. 10c** — solution quality vs. expected number of solutions.
//!
//! Fixes n = 15 variables and sweeps the dataset density so the expected
//! number of exact solutions grows 1, 10, …, 10⁵; every algorithm runs for
//! 150 seconds (= `10·n`, scaled). The paper's observation: the relative
//! ranking of the algorithms is essentially independent of the structure
//! of the search space.

use crate::experiments::build_instance;
use crate::{mean, write_csv, Algo, Recorder, Scale, Table};
use mwsj_core::SearchBudget;
use mwsj_datagen::QueryShape;

/// Runs the experiment for one shape, streaming per-run events and metrics
/// through `rec`; rows are `(expected_solutions, density, ILS, GILS, SEA)`.
pub fn run_shape(scale: Scale, shape: QueryShape, rec: &Recorder) -> Table {
    let n = match scale {
        Scale::Smoke => 5,
        _ => 15,
    };
    let budget = SearchBudget::time(scale.query_budget(n));
    let exponents: &[u32] = match scale {
        Scale::Smoke => &[0, 2, 4],
        _ => &[0, 1, 2, 3, 4, 5],
    };
    let mut table = Table::new(vec!["Sol", "density", "ILS", "GILS", "SEA"]);
    for &e in exponents {
        let target = 10f64.powi(e as i32);
        let (instance, _, density) = build_instance(
            shape,
            n,
            scale.cardinality(),
            target,
            false,
            0xC0C0 + e as u64,
        );
        let mut cells = vec![format!("1e{e}"), format!("{density:.4}")];
        for algo in Algo::PAPER {
            let sims: Vec<f64> = (0..scale.repetitions())
                .map(|rep| {
                    rec.run(algo, &instance, &budget, 3000 + rep as u64)
                        .best_similarity
                })
                .collect();
            cells.push(format!("{:.3}", mean(&sims)));
        }
        table.row(cells);
        eprintln!("fig10c: {} Sol=1e{e} done", shape.name());
    }
    table
}

/// Runs, prints and persists the experiment for both shapes.
pub fn main(scale: Scale) {
    for shape in [QueryShape::Chain, QueryShape::Clique] {
        println!(
            "Fig. 10c — similarity vs. expected solutions, {} (scale: {})",
            shape.name(),
            scale.name()
        );
        let rec = Recorder::create(&format!("fig10c_{}", shape.name()));
        let table = run_shape(scale, shape, &rec);
        println!("{}", table.render());
        let name = format!("fig10c_{}.csv", shape.name());
        let path = write_csv(&name, &table.to_csv()).expect("write results");
        println!("CSV written to {}", path.display());
        if let Some(metrics) = rec.finish() {
            println!("metrics JSONL written to {}", metrics.display());
        }
    }
}
