//! Fixtures shared by the integration tests of `mwsj-core`.

// Each test binary compiles its own copy and uses what it needs.
#![allow(dead_code)]

use mwsj_core::{Instance, ObsHandle, VecSink};
use mwsj_datagen::{hard_region_density, Dataset, QueryShape};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::Arc;

/// Hard-region instance with no planted solution, so heuristics run to
/// budget exhaustion instead of stopping on an exact solution.
pub fn hard_instance(seed: u64, shape: QueryShape, n: usize, cardinality: usize) -> Instance {
    let mut rng = StdRng::seed_from_u64(seed);
    let d = hard_region_density(shape, n, cardinality, 1.0);
    let datasets: Vec<Dataset> = (0..n)
        .map(|_| Dataset::uniform(cardinality, d, &mut rng))
        .collect();
    Instance::new(shape.graph(n), datasets).unwrap()
}

/// An enabled handle and the sink that keeps what it emits.
pub fn sinked_obs() -> (Arc<VecSink>, ObsHandle) {
    let sink = Arc::new(VecSink::new());
    let obs = ObsHandle::enabled().with_sink(sink.clone());
    (sink, obs)
}
