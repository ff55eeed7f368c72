//! **Fig. 10c** — solution quality vs. expected number of solutions.
//!
//! Fixes n = 15 variables and sweeps the dataset density so the expected
//! number of exact solutions grows 1, 10, …, 10⁵; every algorithm gets the
//! moves of 150 paper-seconds (= `10·n`, scaled). The paper's observation:
//! the relative ranking of the algorithms is essentially independent of
//! the structure of the search space.

use super::{build_instance, fixed_n, mean_cell, Output};
use crate::{Algo, Recorder, Scale, Table};
use mwsj_datagen::QueryShape;

/// Runs the experiment for both shapes, streaming per-run events and
/// metrics through `rec`; one `(Sol, density, ILS, GILS, SEA)` table per
/// shape.
pub fn run(scale: Scale, rec: &Recorder) -> Vec<Output> {
    let n = fixed_n(scale);
    let exponents: &[u32] = match scale {
        Scale::Smoke => &[0, 2, 4],
        _ => &[0, 1, 2, 3, 4, 5],
    };
    let mut outputs = Vec::new();
    for shape in [QueryShape::Chain, QueryShape::Clique] {
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
                let budget = scale.budget(algo, &instance, 10.0 * n as f64);
                cells.push(mean_cell(scale.repetitions(), 3000, |seed| {
                    rec.run(algo, &instance, &budget, seed).best_similarity
                }));
            }
            table.row(cells);
            eprintln!("fig10c: {} Sol=1e{e} done", shape.name());
        }
        outputs.push(Output {
            csv: format!("fig10c_{}.csv", shape.name()),
            title: format!(
                "Fig. 10c — similarity vs. expected solutions, {} (scale: {}, {} moves)",
                shape.name(),
                scale.name(),
                scale.moves(10.0 * n as f64)
            ),
            table,
        });
    }
    outputs
}
