//! One module per paper figure/table, plus tuning and ablation studies.

pub mod ablations;
pub mod fig10a;
pub mod fig10b;
pub mod fig10c;
pub mod fig11;
pub mod sea_tuning;

use mwsj_core::Instance;
use mwsj_datagen::{QueryShape, WorkloadSpec};
use mwsj_query::Solution;

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

#[cfg(test)]
mod tests {
    use crate::Scale;

    /// Every experiment runs end to end at smoke scale and produces a
    /// well-formed table. This is the harness's own regression test; it
    /// takes a few seconds total.
    #[test]
    fn all_experiments_run_at_smoke_scale() {
        let scale = Scale::Smoke;
        let rec = &crate::Recorder::disabled();
        let t = super::fig10a::run(scale, rec);
        assert!(t.to_csv().lines().count() > 1);
        let t = super::fig10b::run_shape(scale, mwsj_datagen::QueryShape::Chain, rec);
        assert!(t.to_csv().lines().count() > 1);
        let t = super::fig10c::run_shape(scale, mwsj_datagen::QueryShape::Clique, rec);
        assert!(t.to_csv().lines().count() > 1);
        let t = super::fig11::run(scale, rec);
        assert!(t.to_csv().lines().count() > 1);
        let t = super::ablations::run(scale, rec);
        assert!(t.to_csv().lines().count() > 1);
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
