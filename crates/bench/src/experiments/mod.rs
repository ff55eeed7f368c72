//! One module per paper figure/table, plus tuning and ablation studies,
//! and [`FIGURES`], the table `all_experiments` walks.

pub mod ablations;
pub mod fig10a;
pub mod fig10b;
pub mod fig10c;
pub mod fig11;
pub mod sea_tuning;

use crate::{mean, Recorder, Scale, Table};
use mwsj_core::Instance;
use mwsj_datagen::{QueryShape, WorkloadSpec};
use mwsj_query::Solution;

/// One table a figure produces: printed under `title` and written to
/// `results/<csv>`.
#[derive(Debug, Clone)]
pub struct Output {
    /// File name under `results/`.
    pub csv: String,
    /// The line printed above the table.
    pub title: String,
    /// The rows.
    pub table: Table,
}

/// A figure: its `--fig` id and the function that runs it at a scale,
/// streaming every run through a [`Recorder`].
pub type Figure = (&'static str, fn(Scale, &Recorder) -> Vec<Output>);

/// Every figure, in the order `all_experiments` runs them.
pub const FIGURES: [Figure; 6] = [
    ("fig10a", fig10a::run),
    ("fig10b", fig10b::run),
    ("fig10c", fig10c::run),
    ("fig11", fig11::run),
    ("sea_tuning", sea_tuning::run),
    ("ablations", ablations::run),
];

/// Builds the experiment instance for a shape/size/cardinality at the
/// hard-region density (`target` expected solutions), optionally planting
/// one guaranteed exact solution (Fig. 11).
pub(crate) fn build_instance(
    shape: QueryShape,
    n: usize,
    cardinality: usize,
    target: f64,
    plant: bool,
    seed: u64,
) -> (Instance, Option<Solution>, f64) {
    let spec = WorkloadSpec {
        shape,
        n_vars: n,
        cardinality,
        target_solutions: target,
        plant,
        distribution: mwsj_datagen::Distribution::Uniform,
        seed,
    };
    let w = spec.generate();
    let planted = w.planted.clone();
    let density = w.density;
    let instance = Instance::new(w.graph, w.datasets).expect("valid workload");
    (instance, planted, density)
}

/// The size of the fixed-n figures (10b, 10c, tuning, ablations): the
/// paper's 15, or 5 at smoke scale.
pub(crate) fn fixed_n(scale: Scale) -> usize {
    match scale {
        Scale::Smoke => 5,
        _ => 15,
    }
}

/// The table cell of `reps` runs: the mean of `run(seed + i)` for
/// `i < reps`, each the best similarity of one run.
pub(crate) fn mean_cell(reps: usize, seed: u64, run: impl FnMut(u64) -> f64) -> String {
    let sims: Vec<f64> = (seed..seed + reps as u64).map(run).collect();
    format!("{:.3}", mean(&sims))
}

#[cfg(test)]
mod tests {
    use crate::Scale;

    /// Every figure runs end to end at smoke scale, twice, and writes the
    /// same CSV bytes both times: budgets count moves, so no table depends
    /// on how fast the machine is. This is the harness's own regression
    /// test.
    #[test]
    fn every_figure_writes_the_same_csv_twice_at_smoke_scale() {
        let rec = &crate::Recorder::disabled();
        let csvs = || -> Vec<(String, String)> {
            super::FIGURES
                .iter()
                .flat_map(|(_, run)| run(Scale::Smoke, rec))
                .map(|out| (out.csv, out.table.to_csv()))
                .collect()
        };
        let first = csvs();
        assert_eq!(first.len(), 9);
        for (csv, text) in &first {
            assert!(text.lines().count() > 1, "{csv} has no rows");
        }
        assert_eq!(first, csvs());
    }

    #[test]
    fn instance_builder_plants_on_request() {
        let (inst, planted, density) =
            super::build_instance(mwsj_datagen::QueryShape::Clique, 3, 100, 1.0, true, 9);
        assert!(density > 0.0);
        let sol = planted.expect("planted");
        assert_eq!(inst.violations(&sol), 0);
    }
}
