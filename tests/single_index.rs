//! Tier-1 guard of "one leaf layout, one build path": an instance keeps
//! exactly one index copy per dataset next to the raw rectangles, and the
//! one kernel `find_best_value` runs agrees with an exhaustive scan.
//!
//! The crate-level versions of these checks only run under `--workspace`;
//! this file runs with the root package so a second resident copy of the
//! data, or a kernel drift, fails the tier-1 gate.

use mwsj::core::{BackendKind, ResourceReport};
use mwsj::prelude::*;
use mwsj::query::PenaltyTable;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

const N_VARS: usize = 3;
const CARDINALITY: usize = 10_000;

/// Dense enough (≈ 8 intersecting objects per window) that nearly every
/// call has candidates to rank, several of them tied on the raw count.
fn chain_instance() -> Instance {
    let mut rng = StdRng::seed_from_u64(1301);
    let datasets: Vec<Dataset> = (0..N_VARS)
        .map(|_| Dataset::uniform(CARDINALITY, 2.0, &mut rng))
        .collect();
    Instance::new(QueryGraph::chain(N_VARS), datasets).unwrap()
}

fn component_names(instance: &Instance) -> (Vec<String>, u64) {
    let mut report = ResourceReport::new();
    instance.fill_resource_report(&mut report);
    let names = report.components().iter().map(|(n, _)| n.clone()).collect();
    (names, report.total_bytes())
}

fn names_of(prefixes: &[&str]) -> Vec<String> {
    prefixes
        .iter()
        .flat_map(|p| (0..N_VARS).map(move |v| format!("{p}.var{v:03}")))
        .collect()
}

#[test]
fn resource_report_holds_rects_and_one_index_per_dataset() {
    let instance = chain_instance();
    let (names, total) = component_names(&instance);
    assert_eq!(names, names_of(&["rects", "rtree"]));
    let per_object = total as f64 / (N_VARS * CARDINALITY) as f64;
    assert!(per_object <= 80.0, "{per_object} B/object");

    let (names, _) = component_names(&instance.with_backend(BackendKind::Grid));
    assert_eq!(names, names_of(&["grid", "rects", "rtree"]));
}

#[test]
fn find_best_value_matches_exhaustive_scan() {
    let instance = chain_instance();
    let mut rng = StdRng::seed_from_u64(1302);
    let lambda = 0.3;
    let mut table = PenaltyTable::new();
    for _ in 0..2_000 {
        let v = rng.random_range(0..N_VARS);
        table.penalize(v, rng.random_range(0..CARDINALITY));
    }
    let mut found = 0;
    for call in 0..200 {
        let sol = instance.random_solution(&mut rng);
        let var = call % N_VARS;
        let penalties = (call % 2 == 1).then_some((&table, lambda));
        let windows: Vec<(Predicate, Rect)> = instance
            .graph()
            .neighbors(var)
            .iter()
            .map(|&(u, pred)| (pred, instance.rect(u, sol.get(u))))
            .collect();
        let count_of = |r: &Rect| windows.iter().filter(|(p, w)| p.eval(r, w)).count() as u32;
        let effective_of = |obj: usize, count: u32| match penalties {
            Some((t, l)) => count as f64 - l * t.get(var, obj) as f64,
            None => count as f64,
        };
        let expected = instance
            .rects(var)
            .iter()
            .enumerate()
            .map(|(obj, r)| (obj, count_of(r)))
            .filter(|&(_, count)| count > 0)
            .map(|(obj, count)| effective_of(obj, count))
            .max_by(|a, b| a.partial_cmp(b).expect("finite scores"));

        let mut accesses = 0;
        let got = find_best_value(&instance, &sol, var, penalties, &mut accesses);
        assert_eq!(got.map(|b| b.effective), expected, "call {call}");
        if let Some(best) = got {
            assert_eq!(best.satisfied, count_of(&instance.rect(var, best.object)));
            assert_eq!(best.effective, effective_of(best.object, best.satisfied));
            assert!(accesses > 0);
            found += 1;
        }
    }
    assert!(found >= 190, "only {found} of 200 calls had a candidate");
}
