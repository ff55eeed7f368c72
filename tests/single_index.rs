//! Tier-1 guard of "one packed index": an instance keeps every rectangle
//! exactly once — as the leaf level of its dataset's tree — the one kernel
//! `find_best_value` runs agrees with an exhaustive scan, and the one
//! loader builds the tree that STR's definition builds.
//!
//! The crate-level versions of these checks only run under `--workspace`;
//! this file runs with the root package so a second resident copy of the
//! data, or a kernel drift, fails the tier-1 gate.

use mwsj::core::ResourceReport;
use mwsj::prelude::*;
use mwsj::query::{PenaltyTable, QueryGraphBuilder};
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

const PREDICATES: [Predicate; 6] = [
    Predicate::Intersects,
    Predicate::Contains,
    Predicate::Inside,
    Predicate::NorthEast,
    Predicate::SouthWest,
    Predicate::WithinDistance(0.01),
];

/// A 4-clique whose six edges carry the six predicates. Extents shrink
/// from dataset 3 over 0 to 2 so that the containment edges (`0 contains
/// 2`, `0 inside 3`) have pairs to find.
fn six_predicate_instance() -> Instance {
    let mut rng = StdRng::seed_from_u64(1303);
    let datasets: Vec<Dataset> = [2.0, 2.0, 0.2, 20.0]
        .iter()
        .map(|&density| Dataset::uniform(CARDINALITY, density, &mut rng))
        .collect();
    let [intersects, contains, inside, north_east, south_west, within] = PREDICATES;
    let graph = QueryGraphBuilder::new(4)
        .edge_with(0, 1, intersects)
        .edge_with(0, 2, contains)
        .edge_with(0, 3, inside)
        .edge_with(1, 2, north_east)
        .edge_with(1, 3, south_west)
        .edge_with(2, 3, within)
        .build()
        .unwrap();
    Instance::new(graph, datasets).unwrap()
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
    assert!(per_object <= 45.0, "{per_object} B/object");
}

/// 200 `find_best_value` calls on random solutions, raw and penalised
/// alternating, each held against the exhaustive scan over
/// `instance.rects(var)`, whose ids are `instance.objects(var)`. Returns
/// how many calls had a candidate and, per entry of [`PREDICATES`], whether
/// a winner ever satisfied a window of that predicate.
fn compare_with_exhaustive_scan(instance: &Instance, seed: u64) -> (usize, [bool; 6]) {
    let n_vars = instance.n_vars();
    let mut rng = StdRng::seed_from_u64(seed);
    let lambda = 0.3;
    let mut table = PenaltyTable::new();
    for _ in 0..2_000 {
        let v = rng.random_range(0..n_vars);
        table.penalize(v, rng.random_range(0..CARDINALITY));
    }
    let mut found = 0;
    let mut satisfied = [false; 6];
    for call in 0..200 {
        let sol = instance.random_solution(&mut rng);
        let var = call % n_vars;
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
            .zip(instance.objects(var))
            .map(|(r, &obj)| (obj as usize, count_of(r)))
            .filter(|&(_, count)| count > 0)
            .map(|(obj, count)| effective_of(obj, count))
            .max_by(|a, b| a.partial_cmp(b).expect("finite scores"));

        let mut accesses = 0;
        let got = find_best_value(instance, &sol, var, penalties, &mut accesses);
        assert_eq!(got.map(|b| b.effective), expected, "call {call}");
        if let Some(best) = got {
            let rect = instance.rect(var, best.object);
            assert_eq!(best.rect, rect);
            assert_eq!(best.satisfied, count_of(&rect));
            assert_eq!(best.effective, effective_of(best.object, best.satisfied));
            assert!(accesses > 0);
            found += 1;
            for (pred, _) in windows.iter().filter(|(p, w)| p.eval(&rect, w)) {
                let kind = PREDICATES
                    .iter()
                    .position(|p| std::mem::discriminant(p) == std::mem::discriminant(pred))
                    .expect("one of the six");
                satisfied[kind] = true;
            }
        }
    }
    (found, satisfied)
}

#[test]
fn find_best_value_matches_exhaustive_scan() {
    let (found, _) = compare_with_exhaustive_scan(&chain_instance(), 1302);
    assert!(found >= 190, "only {found} of 200 calls had a candidate");
}

/// The same on edges of all six predicates, seen from both endpoints (a
/// variable at the `b` end of an edge evaluates the transposed predicate).
#[test]
fn find_best_value_matches_exhaustive_scan_under_every_predicate() {
    let (found, satisfied) = compare_with_exhaustive_scan(&six_predicate_instance(), 1304);
    assert!(found >= 190, "only {found} of 200 calls had a candidate");
    assert_eq!(satisfied, [true; 6], "a predicate no winner satisfied");
}

/// STR as it is defined, written the slow way: stable sorts that compare
/// centres with `partial_cmp`, slices and runs cut by draining. A node is
/// the list of its entries; a data entry has no children.
struct StrEntry(Rect, u32, Vec<StrEntry>);

fn str_reference(mut level: Vec<StrEntry>, cap: usize) -> Vec<StrEntry> {
    fn even_chunks(mut items: Vec<StrEntry>, k: usize) -> Vec<Vec<StrEntry>> {
        let (n, k) = (items.len(), k.clamp(1, items.len().max(1)));
        (0..k)
            .map(|i| items.drain(..n / k + usize::from(i < n % k)).collect())
            .collect()
    }
    while level.len() > cap {
        let groups = level.len().div_ceil(cap);
        level.sort_by(|a, b| a.0.center().x.partial_cmp(&b.0.center().x).unwrap());
        let mut parents = Vec::with_capacity(groups);
        for mut slice in even_chunks(level, (groups as f64).sqrt().ceil() as usize) {
            slice.sort_by(|a, b| a.0.center().y.partial_cmp(&b.0.center().y).unwrap());
            let runs = slice.len().div_ceil(cap);
            for node in even_chunks(slice, runs) {
                let mbr = Rect::union_all(node.iter().map(|e| &e.0));
                parents.push(StrEntry(mbr, u32::MAX, node));
            }
        }
        level = parents;
    }
    level
}

fn assert_same_node(node: mwsj::rtree::NodeRef<'_, u32>, expected: &[StrEntry], what: &str) {
    let bits = |r: &Rect| [r.min.x, r.min.y, r.max.x, r.max.y].map(f64::to_bits);
    assert_eq!(node.len(), expected.len(), "{what}");
    for (entry, StrEntry(mbr, value, children)) in node.entries().zip(expected) {
        assert_eq!(bits(entry.mbr()), bits(mbr), "{what}");
        match entry.child() {
            Some(child) => assert_same_node(child, children, what),
            None => assert_eq!(entry.value(), Some(value), "{what}"),
        }
    }
}

/// The loader's integer sort keys and position tie-breaks build the tree
/// the definition builds — node for node, entry order and MBR bits — on
/// uniform data and on centres that collide (a 7 × 7 lattice, `+0.0` and
/// `-0.0` among them), where only the tie-break decides the order.
#[test]
fn bulk_load_equals_stable_sort_str() {
    let mut rng = StdRng::seed_from_u64(1305);
    let uniform = Dataset::uniform(CARDINALITY, 2.0, &mut rng)
        .rects()
        .to_vec();
    let lattice: Vec<Rect> = (0..CARDINALITY)
        .map(|_| {
            let mut axis = || {
                let c = f64::from(rng.random_range(-3i32..=3));
                let h: f64 = rng.random_range(0.0..0.5);
                if c == 0.0 && h < 0.25 {
                    (-0.0, -0.0)
                } else {
                    (c - h, c + h)
                }
            };
            let ((lo_x, hi_x), (lo_y, hi_y)) = (axis(), axis());
            Rect::new(lo_x, lo_y, hi_x, hi_y)
        })
        .collect();
    for (what, rects) in [("uniform", uniform), ("lattice", lattice)] {
        for cap in [4, 32] {
            let items = rects.iter().copied().zip(0u32..);
            let tree = RTree::bulk_load_with_params(RTreeParams::new(cap), items.clone().collect());
            let leaves = items.map(|(r, v)| StrEntry(r, v, Vec::new())).collect();
            assert_same_node(tree.root_node(), &str_reference(leaves, cap), what);
        }
    }
}
