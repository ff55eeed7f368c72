//! Support bits: which objects of a neighbour some object can answer.
//!
//! In the paper's hard region most objects of a dataset satisfy no join
//! condition at all: on a chain of 100 000-object datasets an edge joins
//! about 2 500 pairs, 0.025 partners per object. So most *find best value*
//! questions have an empty answer, and the multi-window descent that
//! proves it costs as much as one that finds something. `support[var][slot]`
//! holds one bit per object of the neighbour `u` on that slot of
//! `graph().neighbors(var)`; a bit is clear only if no object of `var`
//! satisfies the slot's predicate against that object of `u`. A question
//! whose every window sits on a clear bit has the answer `None` without a
//! walk ([`Support::live`] is 0), and that is what the kernel would return:
//! a question with one set bit runs the kernel on all its windows, as
//! before. Answers, tie orders and trajectories do not change; only node
//! accesses fall.
//!
//! The same bits bound every answer: no object of `var` satisfies more of
//! its windows than [`Support::live`] counts set bits among them. ILS and
//! SEA use an answer only if it beats the variable's current count, so a
//! question whose live count is no higher is not asked
//! ([`WindowCache::improving_value_with`](crate::WindowCache)) — in the hard
//! region nearly all of theirs.
//!
//! One [`PairwiseJoin`] per edge sets the bits of both directions. It
//! joins on MBR intersection, which Intersects, Contains and Inside all
//! imply, and keeps a pair only if the edge's predicate holds, so the bits
//! of those three are the exact semi-join. The other predicates get no
//! bits: their partners do not intersect, and no join finds them.
//!
//! A variable keeps bits only where they can pay. The shortcut fires only
//! when *every* window of the variable is dead, so before any join a fixed
//! probe — [`PROBES`] evenly spaced objects of each neighbour, each an
//! existence query on the variable's tree — estimates each slot's dead
//! fraction. A variable whose product of dead fractions is below
//! [`MIN_DEAD`] keeps no bits (the dense cliques of Fig. 10a: with a live
//! fraction of 0.75 and 14 windows, the shortcut would never fire), and an
//! edge neither end keeps bits for is not joined. A join that finds more
//! than `N_a + N_b` pairs stops, and its two ends keep no bits, so that
//! dense data costs O(N).

use crate::instance::Instance;
use crate::pairwise::PairwiseJoin;
use mwsj_geom::Predicate;
use mwsj_query::VarId;
use mwsj_rtree::multiwindow;
use std::ops::ControlFlow;

/// Objects of a neighbour probed per slot to estimate its dead fraction.
const PROBES: usize = 64;

/// The least estimated chance that all of a variable's windows are dead
/// for which the variable keeps bits.
const MIN_DEAD: f64 = 0.25;

/// The support bits of one instance ([module docs](self)).
#[derive(Debug, Clone)]
pub(crate) struct Support {
    /// Per variable, one bit vector per slot of `graph().neighbors(var)`,
    /// indexed by the neighbour's object id; `None` = every bit set.
    vars: Vec<Option<Box<[Bits]>>>,
}

/// One bit per object id.
#[derive(Debug, Clone)]
struct Bits(Box<[u64]>);

impl Bits {
    fn clear(len: usize) -> Self {
        Bits(vec![0; len.div_ceil(64)].into_boxed_slice())
    }

    fn set(&mut self, i: u32) {
        self.0[i as usize / 64] |= 1 << (i % 64);
    }

    #[inline]
    fn get(&self, i: usize) -> bool {
        self.0[i / 64] & (1 << (i % 64)) != 0
    }
}

/// The predicates whose every satisfying pair intersects.
fn implies_intersection(pred: Predicate) -> bool {
    matches!(
        pred,
        Predicate::Intersects | Predicate::Contains | Predicate::Inside
    )
}

impl Support {
    /// Probes each variable, then joins the edges some end keeps bits for.
    pub(crate) fn build(instance: &Instance) -> Support {
        let keep: Vec<bool> = (0..instance.n_vars())
            .map(|var| worth_keeping(instance, var))
            .collect();
        Support::joined(instance, &keep)
    }

    /// The bits of every variable `keep` names whose slots all imply
    /// intersection (no join finds the partners of the others): one capped
    /// join per edge with such a variable at an end.
    fn joined(instance: &Instance, keep: &[bool]) -> Support {
        let graph = instance.graph();
        let mut vars: Vec<Option<Box<[Bits]>>> = (0..instance.n_vars())
            .map(|var| {
                let slots = graph.neighbors(var);
                let joinable = slots.iter().all(|&(_, pred)| implies_intersection(pred));
                let bits = slots
                    .iter()
                    .map(|&(u, _)| Bits::clear(instance.cardinality(u)));
                (keep[var] && joinable).then(|| bits.collect())
            })
            .collect();
        for edge in graph.edges() {
            let (a, b) = (edge.a, edge.b);
            let (mut at_a, mut at_b) = (vars[a].take(), vars[b].take());
            if at_a.is_none() && at_b.is_none() {
                continue;
            }
            let slot = |of: VarId, u: VarId| {
                let slot = graph.neighbors(of).iter().position(|n| n.0 == u);
                slot.expect("the ends of an edge are each other's neighbours")
            };
            let (b_in_a, a_in_b) = (slot(a, b), slot(b, a));
            let cap = instance.cardinality(a) + instance.cardinality(b);
            let mut pairs = 0;
            let (_, complete) =
                PairwiseJoin::visit(instance.tree(a), instance.tree(b), |oa, ob| {
                    pairs += 1;
                    if pairs > cap {
                        return ControlFlow::Break(());
                    }
                    let (ra, rb) = (instance.rect(a, oa as usize), instance.rect(b, ob as usize));
                    if edge.pred.eval(&ra, &rb) {
                        if let Some(slots) = &mut at_a {
                            slots[b_in_a].set(ob);
                        }
                        if let Some(slots) = &mut at_b {
                            slots[a_in_b].set(oa);
                        }
                    }
                    ControlFlow::Continue(())
                });
            if complete {
                (vars[a], vars[b]) = (at_a, at_b);
            }
        }
        Support { vars }
    }

    /// The number of windows of a question about `var` whose neighbour
    /// object — `assignments`, in `graph().neighbors(var)` order — has a
    /// set bit, or `None` if `var` keeps no bits. No object of `var`
    /// satisfies a window on a clear bit, so none satisfies more windows
    /// than this: at 0 the question has no answer, and no answer beats a
    /// count at or above it.
    #[inline]
    pub(crate) fn live(
        &self,
        var: VarId,
        assignments: impl IntoIterator<Item = usize>,
    ) -> Option<u32> {
        let slots = self.vars[var].as_deref()?;
        let live = (slots.iter().zip(assignments)).filter(|(bits, object)| bits.get(*object));
        Some(live.count() as u32)
    }

    /// Resident bytes of `var`'s bits, if it keeps any.
    pub(crate) fn bytes(&self, var: VarId) -> Option<u64> {
        let slots = self.vars[var].as_deref()?;
        Some(
            slots
                .iter()
                .map(|b| std::mem::size_of_val(&*b.0) as u64)
                .sum(),
        )
    }
}

/// Whether `var`'s bits can pay: the product of its slots' dead fractions
/// is at least [`MIN_DEAD`].
fn worth_keeping(instance: &Instance, var: VarId) -> bool {
    let neighbors = instance.graph().neighbors(var);
    let mut all_dead = 1.0;
    for &(u, pred) in neighbors {
        all_dead *= dead_fraction(instance, var, u, pred);
        if all_dead < MIN_DEAD {
            return false;
        }
    }
    !neighbors.is_empty()
}

/// The share of [`PROBES`] evenly spaced objects of `u` that no object of
/// `var` satisfies `pred` against; 0 for a predicate that gets no bits.
fn dead_fraction(instance: &Instance, var: VarId, u: VarId, pred: Predicate) -> f64 {
    if !implies_intersection(pred) {
        return 0.0;
    }
    let n = instance.cardinality(u);
    let probes = n.min(PROBES);
    let root = instance.tree(var).root_node();
    let dead = (0..probes)
        .filter(|i| {
            let window = [(pred, instance.rect(u, i * n / probes))];
            let any = multiwindow::find_best_leaf_leveled(
                root,
                &window,
                |_, count| count as f64,
                &mut 0,
                &mut [],
            );
            any.is_none()
        })
        .count();
    dead as f64 / probes as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::index;
    use crate::individual::Individual;
    use crate::instance::BackendKind;
    use crate::window_cache::WindowCache;
    use mwsj_datagen::Dataset;
    use mwsj_geom::Rect;
    use mwsj_query::{Edge, QueryGraph, Solution};
    use rand::rngs::StdRng;
    use rand::{RngExt, SeedableRng};

    const PREDICATES: [Predicate; 6] = [
        Predicate::Intersects,
        Predicate::Contains,
        Predicate::Inside,
        Predicate::NorthEast,
        Predicate::SouthWest,
        Predicate::WithinDistance(0.02),
    ];

    /// What a drawn instance is made of.
    #[derive(Debug, Clone, Copy)]
    struct Draw {
        seed: u64,
        vars: usize,
        clique: bool,
        /// An index into [`PREDICATES`], or 6: every edge its own.
        pred: usize,
        density: f64,
        /// 0: boxes, 1: points, 2: vertical lines, 3: horizontal lines.
        shape: u8,
        self_join: bool,
        grid: bool,
    }

    impl Draw {
        fn instance(&self) -> Instance {
            let mut rng = StdRng::seed_from_u64(self.seed);
            let n = self.vars;
            let pairs: Vec<(usize, usize)> = if self.clique {
                (0..n)
                    .flat_map(|a| (a + 1..n).map(move |b| (a, b)))
                    .collect()
            } else {
                (1..n).map(|b| (b - 1, b)).collect()
            };
            let edges = pairs.into_iter().enumerate().map(|(i, (a, b))| Edge {
                a,
                b,
                pred: PREDICATES[if self.pred == 6 { i % 6 } else { self.pred }],
            });
            let graph = QueryGraph::from_edges(n, edges.collect()).unwrap();
            let dataset = |rng: &mut StdRng| -> Vec<Rect> {
                let size = rng.random_range(1..80);
                let drawn = Dataset::uniform(size, self.density, rng);
                let shaped = drawn.rects().iter().map(|r| match self.shape {
                    1 => Rect::new(r.min.x, r.min.y, r.min.x, r.min.y),
                    2 => Rect::new(r.min.x, r.min.y, r.min.x, r.max.y),
                    3 => Rect::new(r.min.x, r.min.y, r.max.x, r.min.y),
                    _ => *r,
                });
                shaped.collect()
            };
            let instance = if self.self_join {
                Instance::self_join(graph, dataset(&mut rng)).unwrap()
            } else {
                let datasets: Vec<Vec<Rect>> = (0..n).map(|_| dataset(&mut rng)).collect();
                Instance::new(graph, datasets).unwrap()
            };
            if self.grid {
                instance.with_backend(BackendKind::Grid)
            } else {
                instance
            }
        }
    }

    /// Whether some object of `var` satisfies `pred` against `window`.
    fn partnered(inst: &Instance, var: VarId, pred: Predicate, window: &Rect) -> bool {
        inst.scan(var).any(|(_, r)| pred.eval(&r, window))
    }

    /// The support properties on one drawn instance:
    /// - a clear bit of the bits the instance builds means no partner;
    /// - the bits of every variable whose slots all imply intersection,
    ///   joined unconditionally, are the semi-join wherever the cap keeps
    ///   them;
    /// - `best` and `top_objects` answer every question as the kernel run
    ///   unconditionally does — value, count, rectangle, list and order —
    ///   and a question the joined bits rule out has no answer.
    fn check(draw: Draw) {
        let inst = draw.instance();
        let graph = inst.graph();
        let built = inst.support();
        let every = Support::joined(&inst, &vec![true; inst.n_vars()]);
        for var in 0..inst.n_vars() {
            let neighbors = graph.neighbors(var);
            for (support, exact) in [(built, false), (&every, true)] {
                let Some(slots) = support.vars[var].as_deref() else {
                    continue;
                };
                assert!(neighbors.iter().all(|&(_, p)| implies_intersection(p)));
                for (bits, &(u, pred)) in slots.iter().zip(neighbors) {
                    for (object, rect) in inst.scan(u) {
                        let partnered = partnered(&inst, var, pred, &rect);
                        assert!(bits.get(object) || !partnered, "{draw:?}: var {var}");
                        if exact {
                            assert_eq!(bits.get(object), partnered, "{draw:?}: var {var}");
                        }
                    }
                }
            }
        }
        let mut rng = StdRng::seed_from_u64(draw.seed ^ 0x5eed);
        for _ in 0..8 {
            let sol: Solution = inst.random_solution(&mut rng);
            for var in 0..inst.n_vars() {
                let neighbors = graph.neighbors(var);
                let assigned: Vec<usize> = neighbors.iter().map(|&(u, _)| sol.get(u)).collect();
                let windows: Vec<(Predicate, Rect)> = (neighbors.iter().zip(&assigned))
                    .map(|(&(u, pred), &object)| (pred, inst.rect(u, object)))
                    .collect();
                let (mut checked, mut walked) = (0, 0);
                let got = index::best(&inst, var, &windows, &assigned, &mut checked, &mut []);
                let kernel = index::walk_best(&inst, var, &windows, &mut walked, &mut []);
                assert_eq!(got, kernel, "{draw:?}: var {var}");
                assert!(checked <= walked);
                if every.live(var, assigned.iter().copied()) == Some(0) {
                    assert_eq!(kernel, None, "{draw:?}: var {var}");
                }
                for widen in [false, true] {
                    let (mut got, mut kernel) = (Vec::new(), Vec::new());
                    let mut acc = 0;
                    index::top_objects(
                        &inst,
                        var,
                        &windows,
                        &assigned,
                        widen,
                        &mut got,
                        &mut acc,
                        &mut [],
                    );
                    index::walk_top_objects(
                        &inst,
                        var,
                        &windows,
                        widen,
                        &mut kernel,
                        &mut acc,
                        &mut [],
                    );
                    assert_eq!(got, kernel, "{draw:?}: var {var}, widen {widen}");
                }
            }
        }
    }

    /// Every [`Draw`] over its whole range.
    fn draws() -> impl proptest::strategy::Strategy<Value = Draw> {
        use proptest::prelude::*;
        let graph = (any::<u64>(), 2usize..5, any::<bool>(), 0usize..7);
        let data = (0.005f64..0.6, 0u8..4, any::<bool>(), any::<bool>());
        (graph, data).prop_map(
            |((seed, vars, clique, pred), (density, shape, self_join, grid))| Draw {
                seed,
                vars,
                clique,
                pred,
                density,
                shape,
                self_join,
                grid,
            },
        )
    }

    /// The bound on one drawn instance, for every variable of eight random
    /// solutions:
    /// - where the variable keeps bits, `live` is the number of slots whose
    ///   neighbour object has a partner, by brute force;
    /// - `live ≤ satisfied` means no object of the variable satisfies more
    ///   than `satisfied` windows;
    /// - the asking method answers as the unconditional kernel filtered by
    ///   `> satisfied` does, a skipped question reads no node, and every
    ///   question is a hit, a miss or skipped.
    fn check_live(draw: Draw) {
        let inst = draw.instance();
        let graph = inst.graph();
        let every = Support::joined(&inst, &vec![true; inst.n_vars()]);
        let mut cache = WindowCache::new(&inst);
        let mut rng = StdRng::seed_from_u64(draw.seed ^ 0x11fe);
        for _ in 0..8 {
            let ind = Individual::new(&inst, inst.random_solution(&mut rng));
            let sol = &ind.sol;
            for var in 0..inst.n_vars() {
                let neighbors = graph.neighbors(var);
                let windows: Vec<(Predicate, Rect)> = (neighbors.iter())
                    .map(|&(u, pred)| (pred, inst.rect(u, sol.get(u))))
                    .collect();
                let partnered_slots = (windows.iter())
                    .filter(|(pred, window)| partnered(&inst, var, *pred, window))
                    .count() as u32;
                let most = (inst.scan(var))
                    .map(|(_, r)| windows.iter().filter(|(p, w)| p.eval(&r, w)).count() as u32)
                    .max()
                    .unwrap_or(0);
                let satisfied = ind.cs.satisfied_of(graph, var);
                for support in [inst.support(), &every] {
                    let assigned = neighbors.iter().map(|&(u, _)| sol.get(u));
                    let Some(live) = support.live(var, assigned) else {
                        continue;
                    };
                    assert_eq!(live, partnered_slots, "{draw:?}: var {var}");
                    if live <= satisfied {
                        assert!(most <= satisfied, "{draw:?}: var {var}");
                    }
                }
                let kernel = index::walk_best(&inst, var, &windows, &mut 0, &mut []);
                let skipped = cache.stats().per_var[var].skipped;
                let mut accesses = 0;
                let got = ind.improving_value(&mut cache, &inst, var, (&mut accesses, &mut []));
                let want = kernel.filter(|best| best.satisfied > satisfied);
                assert_eq!(got, want, "{draw:?}: var {var}");
                if cache.stats().per_var[var].skipped > skipped {
                    assert_eq!(accesses, 0, "{draw:?}: var {var}");
                }
            }
        }
        assert_eq!(cache.stats().questions(), 8 * inst.n_vars() as u64);
    }

    proptest::proptest! {
        #[test]
        fn live_bounds_every_answer_and_skips_only_what_cannot_improve(draw in draws()) {
            check_live(draw);
        }

        #[test]
        fn bits_are_sound_exact_and_change_no_answer(draw in draws()) {
            check(draw);
        }
    }

    /// A sparse chain keeps bits at every variable, and a question they
    /// rule out is answered `None` without a node read, by the free
    /// function as by the index.
    #[test]
    fn a_sparse_chain_answers_a_dead_question_without_a_walk() {
        let draw = |seed| Dataset::uniform(2_000, 0.05, &mut StdRng::seed_from_u64(seed));
        let inst = Instance::new(QueryGraph::chain(3), [draw(1), draw(2), draw(3)]).unwrap();
        let support = inst.support();
        assert!((0..3).all(|v| support.vars[v].is_some()));
        let mut rng = StdRng::seed_from_u64(4);
        let (sol, assigned) = std::iter::repeat_with(|| inst.random_solution(&mut rng))
            .map(|sol| {
                let assigned = vec![sol.get(0), sol.get(2)];
                (sol, assigned)
            })
            .find(|(_, assigned)| support.live(1, assigned.iter().copied()) == Some(0))
            .expect("most questions are dead");
        let mut accesses = 0;
        assert_eq!(
            crate::find_best_value(&inst, &sol, 1, None, &mut accesses),
            None
        );
        assert_eq!(accesses, 0);
        let windows: Vec<_> = (assigned.iter().zip([0, 2]))
            .map(|(&object, u)| (Predicate::Intersects, inst.rect(u, object)))
            .collect();
        assert_eq!(
            index::walk_best(&inst, 1, &windows, &mut accesses, &mut []),
            None
        );
        assert!(accesses > 0, "the kernel reads nodes to find nothing");
    }

    /// A join that finds more than `N_a + N_b` pairs stops, and its ends
    /// keep no bits.
    #[test]
    fn the_cap_stops_a_dense_join() {
        let same = vec![Rect::new(0.4, 0.4, 0.6, 0.6); 30];
        let inst = Instance::self_join(QueryGraph::chain(3), &same).unwrap();
        let joined = Support::joined(&inst, &[true; 3]);
        assert!(joined.vars.iter().all(Option::is_none));
        // ... and the probe would not have asked for the join.
        assert!((0..3).all(|v| !worth_keeping(&inst, v)));
    }

    /// The dense cliques of Fig. 10a: at n = 15 and the hard-region
    /// density about three objects in four have a partner, so with 14
    /// windows the shortcut would never fire — and no bits are built.
    #[test]
    fn a_dense_clique_keeps_no_bits() {
        use mwsj_datagen::{hard_region_density, QueryShape};
        let (n, card) = (15, 2_000);
        let density = hard_region_density(QueryShape::Clique, n, card, 1.0);
        let mut rng = StdRng::seed_from_u64(10);
        let datasets: Vec<Dataset> = (0..n)
            .map(|_| Dataset::uniform(card, density, &mut rng))
            .collect();
        let inst = Instance::new(QueryGraph::clique(n), datasets).unwrap();
        assert!(inst.support().vars.iter().all(Option::is_none));
        let mut report = mwsj_obs::ResourceReport::new();
        inst.fill_resource_report(&mut report);
        assert!(report
            .components()
            .iter()
            .all(|(name, _)| !name.starts_with("support")));
    }

    /// Only a predicate every satisfying pair of which intersects gets bits.
    #[test]
    fn a_variable_with_a_non_intersecting_slot_keeps_no_bits() {
        for pred in PREDICATES {
            let draw = Draw {
                seed: 12,
                vars: 3,
                clique: false,
                pred: PREDICATES.iter().position(|&p| p == pred).unwrap(),
                density: 0.01,
                shape: 0,
                self_join: false,
                grid: false,
            };
            let inst = draw.instance();
            let joined = Support::joined(&inst, &[true; 3]);
            assert_eq!(
                joined.vars[1].is_some(),
                implies_intersection(pred),
                "{pred}"
            );
        }
    }
}
