//! The exhaustive oracle. On instances small enough to enumerate — four
//! variables of at most twelve objects — every assignment is scored with
//! the predicates' definitions written out again below, not with the
//! library's `Predicate::eval`, and every algorithm is held to the result:
//!
//! * IBB returns the optimum and proves it, by default, with
//!   `stop_at_exact: false`, and seeded with an assignment of every
//!   violation count from the optimum up to the edge count (where the bound
//!   it carries into its candidate walks is tightest);
//! * two-step returns the optimum, no heuristic reports better, and a
//!   portfolio's best is its restarts' best;
//! * WR, ST (overlap-only queries) and PJM enumerate exactly the exact
//!   assignments, and a `limit` keeps a prefix of each one's own order.
//!
//! Every search's top list is checked too: it re-scores as reported, is
//! sorted and distinct, starts at the best, and its `i`-th entry is no
//! better than the `i`-th best assignment of the enumeration. IBB's list
//! holds its incumbent history — it records strict improvements only — so
//! the enumeration bounds it entry by entry rather than equalling it.
//!
//! The queries are a chain, a star, a cycle, a clique, a random connected
//! graph and a disconnected graph over four variables, each under every
//! one of the six predicates and under a mix of them, on both backends.
//! Coordinates lie on a lattice of eighths, so rectangles touch, nest and
//! sit exactly ε apart often: a `<` written for a `<=` anywhere shows.

use mwsj::core::BackendKind;
use mwsj::prelude::*;
use mwsj::query::QueryGraphBuilder;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

const N_VARS: usize = 4;
const CARDINALITY: usize = 8;

const PREDICATES: [Predicate; 6] = [
    Predicate::Intersects,
    Predicate::Contains,
    Predicate::Inside,
    Predicate::NorthEast,
    Predicate::SouthWest,
    Predicate::WithinDistance(0.125),
];

/// A budget no instance here comes near.
const UNLIMITED: u64 = 1 << 40;

/// `a pred b`, from the definitions (closed rectangles: touching counts).
fn holds(pred: Predicate, a: &Rect, b: &Rect) -> bool {
    match pred {
        Predicate::Intersects => {
            a.min.x <= b.max.x && b.min.x <= a.max.x && a.min.y <= b.max.y && b.min.y <= a.max.y
        }
        Predicate::Contains => {
            a.min.x <= b.min.x && a.min.y <= b.min.y && b.max.x <= a.max.x && b.max.y <= a.max.y
        }
        Predicate::Inside => holds(Predicate::Contains, b, a),
        Predicate::NorthEast => a.min.x >= b.max.x && a.min.y >= b.max.y,
        Predicate::SouthWest => holds(Predicate::NorthEast, b, a),
        Predicate::WithinDistance(eps) => {
            let gap = |a_lo: f64, a_hi: f64, b_lo: f64, b_hi: f64| {
                (b_lo - a_hi).max(a_lo - b_hi).max(0.0)
            };
            let dx = gap(a.min.x, a.max.x, b.min.x, b.max.x);
            let dy = gap(a.min.y, a.max.y, b.min.y, b.max.y);
            dx * dx + dy * dy <= eps * eps
        }
    }
}

/// An instance and its enumeration.
struct Oracle {
    name: String,
    rects: Vec<Vec<Rect>>,
    edges: Vec<(usize, usize, Predicate)>,
    /// `(violations, assignment)` of every assignment, in ascending order.
    all: Vec<(usize, Vec<usize>)>,
}

impl Oracle {
    fn new(name: String, rects: Vec<Vec<Rect>>, edges: Vec<(usize, usize, Predicate)>) -> Self {
        let mut oracle = Oracle {
            name,
            rects,
            edges,
            all: Vec::new(),
        };
        let mut assignment = vec![0; oracle.rects.len()];
        'odometer: loop {
            oracle
                .all
                .push((oracle.violations(&assignment), assignment.clone()));
            for (v, digit) in assignment.iter_mut().enumerate() {
                *digit += 1;
                if *digit < oracle.rects[v].len() {
                    continue 'odometer;
                }
                *digit = 0;
            }
            break;
        }
        oracle.all.sort();
        oracle
    }

    fn violations(&self, assignment: &[usize]) -> usize {
        let rect = |v: usize| &self.rects[v][assignment[v]];
        let violated = self
            .edges
            .iter()
            .filter(|&&(a, b, p)| !holds(p, rect(a), rect(b)));
        violated.count()
    }

    fn optimum(&self) -> usize {
        self.all[0].0
    }

    /// The exact assignments, in ascending order.
    fn exact(&self) -> Vec<Vec<usize>> {
        let exact = self
            .all
            .iter()
            .take_while(|(violations, _)| *violations == 0);
        exact.map(|(_, a)| a.clone()).collect()
    }

    /// The first assignment with exactly `violations` violations, if any.
    fn with_violations(&self, violations: usize) -> Option<Solution> {
        let found = self.all.iter().find(|(v, _)| *v == violations);
        found.map(|(_, a)| Solution::new(a.clone()))
    }

    fn overlap_only(&self) -> bool {
        self.edges.iter().all(|e| e.2 == Predicate::Intersects)
    }

    /// The instance on both backends.
    fn instances(&self) -> [Instance; 2] {
        let mut builder = QueryGraphBuilder::new(self.rects.len());
        for &(a, b, pred) in &self.edges {
            builder = builder.edge_with(a, b, pred);
        }
        let graph = builder.build().unwrap();
        let rtree = Instance::new(graph, self.rects.clone()).unwrap();
        let grid = rtree.clone().with_backend(BackendKind::Grid);
        [rtree, grid]
    }

    /// What every search outcome satisfies: the best and each top-list
    /// entry re-score as reported, the list is sorted, distinct and led by
    /// the best, and its `i`-th entry is no better than the `i`-th best
    /// assignment.
    fn check(&self, outcome: &RunOutcome, what: &str) {
        let what = format!("{}: {what}", self.name);
        let best = outcome.best.as_slice();
        assert_eq!(self.violations(best), outcome.best_violations, "{what}");
        let top = &outcome.top_solutions;
        assert_eq!(
            top[0],
            (outcome.best.clone(), outcome.best_violations),
            "{what}"
        );
        for (i, (sol, violations)) in top.iter().enumerate() {
            assert_eq!(
                self.violations(sol.as_slice()),
                *violations,
                "{what}: top {i}"
            );
            assert!(
                *violations >= self.all[i].0,
                "{what}: top {i} beats the enumeration"
            );
        }
        for pair in top.windows(2) {
            assert!(pair[0].1 <= pair[1].1, "{what}: top list out of order");
        }
        let mut distinct: Vec<&[usize]> = top.iter().map(|(s, _)| s.as_slice()).collect();
        distinct.sort();
        distinct.dedup();
        assert_eq!(
            distinct.len(),
            top.len(),
            "{what}: a solution twice in the top list"
        );
    }

    /// [`Oracle::check`] for a run that must have found and proven the
    /// optimum.
    fn check_optimal(&self, outcome: &RunOutcome, what: &str) {
        self.check(outcome, what);
        assert_eq!(
            outcome.best_violations,
            self.optimum(),
            "{}: {what}",
            self.name
        );
        assert!(outcome.proven_optimal, "{}: {what}: not proven", self.name);
    }
}

/// One rectangle with corners on the lattice of eighths, sides of 0 to 4
/// eighths.
fn lattice_rect(rng: &mut StdRng) -> Rect {
    let mut side = || {
        let lo = f64::from(rng.random_range(0..8u32)) / 8.0;
        (lo, lo + f64::from(rng.random_range(0..=4u32)) / 8.0)
    };
    let ((x0, x1), (y0, y1)) = (side(), side());
    Rect::new(x0, y0, x1, y1)
}

/// The edge lists of the six query graphs over four variables.
fn graphs() -> Vec<(&'static str, Vec<(usize, usize)>)> {
    let random = QueryGraph::random_connected(N_VARS, 0.4, &mut StdRng::seed_from_u64(7));
    vec![
        ("chain", vec![(0, 1), (1, 2), (2, 3)]),
        ("star", vec![(0, 1), (0, 2), (0, 3)]),
        ("cycle", vec![(0, 1), (1, 2), (2, 3), (3, 0)]),
        (
            "clique",
            vec![(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)],
        ),
        (
            "random",
            random.edges().iter().map(|e| (e.a, e.b)).collect(),
        ),
        ("disconnected", vec![(0, 1), (2, 3)]),
    ]
}

/// Every graph under each predicate alone and under a mix of all six, on
/// its own lattice data.
fn cases() -> Vec<Oracle> {
    let mut cases = Vec::new();
    for (g, (graph, edges)) in graphs().into_iter().enumerate() {
        for variant in 0..=PREDICATES.len() {
            let pred_of = |i: usize| match PREDICATES.get(variant) {
                Some(&pred) => pred,
                None => PREDICATES[(g + i) % PREDICATES.len()],
            };
            let labelled: Vec<_> = (edges.iter().enumerate())
                .map(|(i, &(a, b))| (a, b, pred_of(i)))
                .collect();
            let mut rng = StdRng::seed_from_u64(3_200 + 10 * g as u64 + variant as u64);
            let rects = (0..N_VARS)
                .map(|_| (0..CARDINALITY).map(|_| lattice_rect(&mut rng)).collect())
                .collect();
            let what = PREDICATES
                .get(variant)
                .map_or("mixed".into(), |p| p.to_string());
            cases.push(Oracle::new(format!("{graph}/{what}"), rects, labelled));
        }
    }
    cases
}

fn ibb(instance: &Instance, initial: Option<Solution>, stop_at_exact: bool) -> RunOutcome {
    let config = IbbConfig {
        initial,
        stop_at_exact,
    };
    Ibb::new(config).run(instance, &SearchBudget::iterations(UNLIMITED))
}

#[test]
fn ibb_returns_the_enumerated_optimum() {
    let (mut approximate, mut seeds) = (0, 0);
    for oracle in cases() {
        let edges = oracle.edges.len();
        approximate += usize::from(oracle.optimum() > 0);
        for inst in oracle.instances() {
            let backend = inst.backend().name();
            oracle.check_optimal(&ibb(&inst, None, true), &format!("{backend} ibb"));
            oracle.check_optimal(&ibb(&inst, None, false), &format!("{backend} exhaustive"));
            for violations in oracle.optimum()..=edges {
                let Some(seed) = oracle.with_violations(violations) else {
                    continue;
                };
                for stop in [true, false] {
                    let what = format!("{backend} seeded at {violations}, stop_at_exact {stop}");
                    oracle.check_optimal(&ibb(&inst, Some(seed.clone()), stop), &what);
                    seeds += 1;
                }
            }
        }
    }
    assert!(
        approximate >= 5,
        "only {approximate} instances have no exact solution"
    );
    assert!(seeds >= 300, "only {seeds} seeded runs");
}

#[test]
fn two_step_returns_the_optimum_and_no_heuristic_beats_it() {
    for oracle in cases() {
        for inst in oracle.instances() {
            let backend = inst.backend().name();
            let mut rng = StdRng::seed_from_u64(32);
            let sea = SeaConfig::default_for(&inst);
            for step_one in [
                TwoStepConfig::Ils(IlsConfig::default(), SearchBudget::iterations(20)),
                TwoStepConfig::Sea(sea.clone(), SearchBudget::iterations(2)),
            ] {
                let two_step = TwoStep::new(step_one).run(
                    &inst,
                    &SearchBudget::iterations(UNLIMITED),
                    &mut rng,
                );
                oracle.check_optimal(&two_step.best, &format!("{backend} two-step"));
            }
            let budget = SearchBudget::iterations(150);
            let generations = SearchBudget::iterations(4);
            let heuristics = [
                (
                    "ils",
                    Ils::new(IlsConfig::default()).run(&inst, &budget, &mut rng),
                ),
                (
                    "gils",
                    Gils::new(GilsConfig::default()).run(&inst, &budget, &mut rng),
                ),
                ("sea", Sea::new(sea).run(&inst, &generations, &mut rng)),
                (
                    "naive",
                    NaiveLocalSearch::default().run(&inst, &budget, &mut rng),
                ),
                ("ga", NaiveGa::default().run(&inst, &generations, &mut rng)),
                (
                    "sa",
                    SimulatedAnnealing::default().run(&inst, &budget, &mut rng),
                ),
            ];
            for (name, outcome) in heuristics {
                oracle.check(&outcome, &format!("{backend} {name}"));
            }
            let portfolio =
                Portfolio::new(Ils::new(IlsConfig::default()), 3).run(&inst, &budget, 32);
            oracle.check(&portfolio.merged, &format!("{backend} portfolio"));
            let restarts = portfolio.restarts.iter().map(|r| r.outcome.best_violations);
            assert_eq!(
                Some(portfolio.merged.best_violations),
                restarts.min(),
                "{}",
                oracle.name
            );
        }
    }
}

#[test]
fn exact_joins_return_the_enumerated_set_and_limits_keep_a_prefix() {
    let budget = SearchBudget::iterations(UNLIMITED);
    let mut satisfiable = 0;
    for oracle in cases() {
        let expected = oracle.exact();
        satisfiable += usize::from(expected.len() >= 2);
        for inst in oracle.instances() {
            let join = |algo: &str, limit: usize| match algo {
                "wr" => WindowReduction::new().run(&inst, &budget, limit),
                "st" => SynchronousTraversal::new().run(&inst, &budget, limit),
                _ => Pjm::default().run(&inst, &budget, limit),
            };
            let algos: &[&str] = if oracle.overlap_only() {
                &["wr", "st", "pjm"]
            } else {
                &["wr", "pjm"]
            };
            for &algo in algos {
                let what = format!("{}: {} {algo}", oracle.name, inst.backend().name());
                let full = join(algo, usize::MAX);
                assert!(full.complete, "{what}");
                let mut found: Vec<Vec<usize>> = full
                    .solutions
                    .iter()
                    .map(|s| s.as_slice().to_vec())
                    .collect();
                found.sort();
                assert_eq!(found, expected, "{what}");
                let n = full.solutions.len();
                for limit in [0, 1, 2, n / 2, n.saturating_sub(1)] {
                    let prefix = &full.solutions[..limit.min(n)];
                    assert_eq!(join(algo, limit).solutions, prefix, "{what} limit {limit}");
                }
            }
        }
    }
    assert!(
        satisfiable >= 10,
        "only {satisfiable} instances with two exact solutions"
    );
}

/// The mixed-predicate instance of `extended_predicates.rs` — `0 contains
/// 1`, `2 within 0.1 of 0`, `3 north-east of 2` over four uniform datasets
/// of twelve — exhausted by IBB on both backends.
#[test]
fn ibb_is_optimal_with_mixed_predicates() {
    let mut rng = StdRng::seed_from_u64(301);
    let rects = [0.8, 0.005, 0.02, 0.02]
        .map(|density| Dataset::uniform(12, density, &mut rng).rects().to_vec())
        .to_vec();
    let edges = vec![
        (0, 1, Predicate::Contains),
        (2, 0, Predicate::WithinDistance(0.1)),
        (3, 2, Predicate::NorthEast),
    ];
    let oracle = Oracle::new("mixed".into(), rects, edges);
    for inst in oracle.instances() {
        oracle.check_optimal(&ibb(&inst, None, false), inst.backend().name());
    }
}
