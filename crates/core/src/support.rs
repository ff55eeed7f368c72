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
//!
//! # Arc consistency for the exact joins
//!
//! The bits are one round of semi-joins. Iterated to a fixpoint they are
//! AC-3 over the edges whose predicate implies intersection: [`Domains`]
//! keeps, per variable, the objects that still have a surviving partner
//! on every such edge. No object of an exact solution is removed — each of
//! its partners survives with it — so WR enumerates the same
//! set on the *core*, the instance rebuilt from the survivors
//! ([`WindowReduction::run_with_obs`](crate::WindowReduction)). On trees
//! whose every edge implies intersection the fixpoint is the full reducer:
//! every survivor lies in some exact solution.
//!
//! - While both domains of an edge are whole, its revision is the capped
//!   join of the bits; past the cap the edge removes nothing for now.
//! - After that, each surviving object of the smaller domain asks the
//!   other side's tree for its partners, and both sides keep only the
//!   survivors that met one.
//! - A variable that loses objects re-queues its other edges. The pass
//!   stops when the queue is empty or a domain is.
//! - The pass runs only if the bits' probes ([`PROBES`] evenly spaced
//!   objects an end) find some edge that leaves at least [`PASS_MIN_DEAD`]
//!   of one of its ends without a partner. Where every join keeps most
//!   objects, the pass costs more than the smaller core saves.
//! - The budget of the run that builds the pass is checked before the
//!   probes and before every revision; a pass it stops is dropped, not
//!   kept.
//!
//! The heuristics and IBB score *partial* solutions: an object without a
//! partner may still be the best answer to a question, so they keep the
//! one-round bits and never see the core.

use crate::budget::BudgetClock;
use crate::instance::{IndexedDataset, Instance};
use crate::pairwise::PairwiseJoin;
use mwsj_geom::{Predicate, Rect};
use mwsj_query::{Edge, Solution, VarId};
use mwsj_rtree::multiwindow;
use std::collections::VecDeque;
use std::ops::ControlFlow;
use std::sync::Arc;

/// Objects of a neighbour probed per slot to estimate its dead fraction.
const PROBES: usize = 64;

/// The least estimated chance that all of a variable's windows are dead
/// for which the variable keeps bits.
const MIN_DEAD: f64 = 0.25;

/// The least estimated share of an edge end without a partner for which
/// the arc-consistency pass runs.
const PASS_MIN_DEAD: f64 = 0.75;

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

    fn count(&self) -> usize {
        self.0.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// The set indices, ascending.
    fn ones(&self) -> impl Iterator<Item = u32> + '_ {
        self.0.iter().zip(0u32..).flat_map(|(&word, at)| {
            let mut word = word;
            std::iter::from_fn(move || {
                let bit = (word != 0).then(|| word.trailing_zeros())?;
                word &= word - 1;
                Some(at * 64 + bit)
            })
        })
    }
}

/// The predicates whose every satisfying pair intersects.
pub(crate) fn implies_intersection(pred: Predicate) -> bool {
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
            if vars[a].is_none() && vars[b].is_none() {
                continue;
            }
            let Some([partnered_a, partnered_b]) = semi_join(instance, edge, &mut 0) else {
                (vars[a], vars[b]) = (None, None);
                continue;
            };
            let slot = |of: VarId, u: VarId| {
                let slot = graph.neighbors(of).iter().position(|n| n.0 == u);
                slot.expect("the ends of an edge are each other's neighbours")
            };
            if let Some(slots) = &mut vars[a] {
                slots[slot(a, b)] = partnered_b;
            }
            if let Some(slots) = &mut vars[b] {
                slots[slot(b, a)] = partnered_a;
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

/// The objects of `edge.a` and of `edge.b` that satisfy the edge's
/// predicate with some object of the other side: one pairwise join on MBR
/// intersection, `None` once it finds more than `N_a + N_b` pairs. Adds
/// the nodes it reads to `node_accesses`.
fn semi_join(instance: &Instance, edge: &Edge, node_accesses: &mut u64) -> Option<[Bits; 2]> {
    let (a, b) = (edge.a, edge.b);
    let (n_a, n_b) = (instance.cardinality(a), instance.cardinality(b));
    let mut partnered = [Bits::clear(n_a), Bits::clear(n_b)];
    let mut pairs = 0;
    let (read, complete) = PairwiseJoin::visit(instance.tree(a), instance.tree(b), |oa, ob| {
        pairs += 1;
        if pairs > n_a + n_b {
            return ControlFlow::Break(());
        }
        let (ra, rb) = (instance.rect(a, oa as usize), instance.rect(b, ob as usize));
        if edge.pred.eval(&ra, &rb) {
            partnered[0].set(oa);
            partnered[1].set(ob);
        }
        ControlFlow::Continue(())
    });
    *node_accesses += read;
    complete.then_some(partnered)
}

/// The arc-consistent domains of an instance ([module
/// docs](self#arc-consistency-for-the-exact-joins)), and the survivors of
/// every variable that lost objects as a dataset of their own.
#[derive(Debug)]
pub(crate) struct Domains {
    /// Per variable, the surviving object ids in ascending order, or
    /// `None` if the pass removed none.
    ids: Vec<Option<Box<[u32]>>>,
    /// Per variable with `ids`, the survivors' rectangles in `ids` order,
    /// indexed: object `j` of it is object `ids[v][j]` of the instance.
    /// None at all once a domain is empty.
    data: Vec<Option<Arc<IndexedDataset>>>,
    /// Index nodes the pass read.
    node_accesses: u64,
}

impl Domains {
    /// The fixpoint, if some edge that implies intersection is estimated to
    /// leave [`PASS_MIN_DEAD`] of an end without a partner; else domains
    /// that remove nothing. `None` if `clock` has run out before the
    /// estimate or a revision. Adds the nodes it reads to `node_accesses`.
    pub(crate) fn build(
        instance: &Instance,
        clock: &BudgetClock,
        node_accesses: &mut u64,
    ) -> Option<Domains> {
        if clock.exhausted() {
            return None;
        }
        let graph = instance.graph();
        let selective = |edge: &Edge| {
            let (a, b) = (edge.a, edge.b);
            let pred = |x, y| graph.predicate_between(x, y).expect("the ends of an edge");
            implies_intersection(edge.pred)
                && (dead_fraction(instance, a, b, pred(a, b), node_accesses) >= PASS_MIN_DEAD
                    || dead_fraction(instance, b, a, pred(b, a), node_accesses) >= PASS_MIN_DEAD)
        };
        if graph.edges().iter().any(selective) {
            Domains::fixpoint(instance, clock, node_accesses)
        } else {
            let whole = vec![None; instance.n_vars()];
            Some(Domains::ended(instance, whole, *node_accesses))
        }
    }

    /// Revises the edges that imply intersection until no domain shrinks
    /// or one is empty. `None` if `clock` runs out before a revision. Adds
    /// the nodes it reads to `node_accesses`.
    fn fixpoint(
        instance: &Instance,
        clock: &BudgetClock,
        node_accesses: &mut u64,
    ) -> Option<Domains> {
        let graph = instance.graph();
        let edges = graph.edges();
        let n = instance.n_vars();
        // `None`: every object survives.
        let mut domains: Vec<Option<Bits>> = vec![None; n];
        let mut sizes: Vec<usize> = (0..n).map(|v| instance.cardinality(v)).collect();
        let mut queued: Vec<bool> = edges.iter().map(|e| implies_intersection(e.pred)).collect();
        let mut queue: VecDeque<usize> = (0..edges.len()).filter(|&e| queued[e]).collect();
        while let Some(e) = queue.pop_front() {
            if clock.exhausted() {
                return None;
            }
            queued[e] = false;
            let edge = &edges[e];
            let revised = match (&domains[edge.a], &domains[edge.b]) {
                (None, None) => semi_join(instance, edge, node_accesses),
                _ => Some(probe(instance, edge, &domains, &sizes, node_accesses)),
            };
            for (v, kept) in [edge.a, edge.b]
                .into_iter()
                .zip(revised.into_iter().flatten())
            {
                let size = kept.count();
                if size == sizes[v] {
                    continue;
                }
                (domains[v], sizes[v]) = (Some(kept), size);
                if size == 0 {
                    return Some(Domains::ended(instance, domains, *node_accesses));
                }
                for &(u, pred) in graph.neighbors(v) {
                    let other = graph.edge_index(v, u).expect("neighbours share an edge");
                    if other != e && implies_intersection(pred) && !queued[other] {
                        queued[other] = true;
                        queue.push_back(other);
                    }
                }
            }
        }
        Some(Domains::ended(instance, domains, *node_accesses))
    }

    /// The domains the pass left, with the survivors' datasets unless one
    /// is empty.
    fn ended(instance: &Instance, domains: Vec<Option<Bits>>, node_accesses: u64) -> Domains {
        let ids: Vec<Option<Box<[u32]>>> = domains
            .iter()
            .map(|d| d.as_ref().map(|d| d.ones().collect()))
            .collect();
        let empty = ids.iter().flatten().any(|ids| ids.is_empty());
        let data = ids
            .iter()
            .enumerate()
            .map(|(v, ids)| {
                let ids = ids.as_ref().filter(|_| !empty)?;
                let rects: Vec<Rect> = ids.iter().map(|&o| instance.rect(v, o as usize)).collect();
                Some(Arc::new(IndexedDataset::build(&rects)))
            })
            .collect();
        Domains {
            ids,
            data,
            node_accesses,
        }
    }

    /// The index nodes the pass read.
    pub(crate) fn node_accesses(&self) -> u64 {
        self.node_accesses
    }

    /// Whether some domain is empty: the join has no solution.
    pub(crate) fn is_empty(&self) -> bool {
        self.ids.iter().flatten().any(|ids| ids.is_empty())
    }

    /// Whether some variable lost objects.
    pub(crate) fn pruned(&self) -> bool {
        self.ids.iter().any(Option::is_some)
    }

    /// The number of objects of `v` that survive, if it lost some.
    pub(crate) fn size(&self, v: VarId) -> Option<usize> {
        self.ids[v].as_ref().map(|ids| ids.len())
    }

    /// The survivors of `v` as a dataset, if it lost objects and no domain
    /// is empty.
    pub(crate) fn dataset(&self, v: VarId) -> Option<&Arc<IndexedDataset>> {
        self.data[v].as_ref()
    }

    /// Rewrites `sol`, a solution of the core, in the instance's object
    /// ids.
    pub(crate) fn to_original(&self, sol: &mut Solution) {
        for (v, ids) in self.ids.iter().enumerate() {
            if let Some(ids) = ids {
                sol.set(v, ids[sol.get(v)] as usize);
            }
        }
    }

    /// Resident bytes of `v`'s surviving ids and dataset, if it lost
    /// objects.
    pub(crate) fn bytes(&self, v: VarId) -> Option<u64> {
        let ids = self.ids[v].as_deref()?;
        let data = self.data[v].as_ref().map_or(0, |d| d.bytes());
        Some(std::mem::size_of_val(ids) as u64 + data)
    }
}

/// Revises `edge` once a side has lost objects: each surviving object of
/// the smaller domain asks the other side's tree for its partners, and
/// both sides keep the survivors that met one.
fn probe(
    instance: &Instance,
    edge: &Edge,
    domains: &[Option<Bits>],
    sizes: &[usize],
    node_accesses: &mut u64,
) -> [Bits; 2] {
    let (small, large) = if sizes[edge.a] <= sizes[edge.b] {
        (edge.a, edge.b)
    } else {
        (edge.b, edge.a)
    };
    let pred = (instance.graph())
        .predicate_between(large, small)
        .expect("the ends of an edge");
    let (n_small, n_large) = (instance.cardinality(small), instance.cardinality(large));
    let (mut kept_small, mut kept_large) = (Bits::clear(n_small), Bits::clear(n_large));
    let root = instance.tree(large).root_node();
    let large_alive = domains[large].as_ref();
    let revise = |x: u32| {
        let window = [(pred, instance.rect(small, x as usize))];
        let mut met = false;
        multiwindow::for_each_candidate(root, &window, 1, node_accesses, &mut [], |y, _| {
            if large_alive.is_none_or(|d| d.get(y as usize)) {
                kept_large.set(y);
                met = true;
            }
        });
        if met {
            kept_small.set(x);
        }
    };
    // Ascending ids either way; a shrunk domain is walked by its survivors.
    match &domains[small] {
        Some(alive) => alive.ones().for_each(revise),
        None => (0..n_small as u32).for_each(revise),
    }
    if small == edge.a {
        [kept_small, kept_large]
    } else {
        [kept_large, kept_small]
    }
}

/// Whether `var`'s bits can pay: the product of its slots' dead fractions
/// is at least [`MIN_DEAD`].
fn worth_keeping(instance: &Instance, var: VarId) -> bool {
    let neighbors = instance.graph().neighbors(var);
    let mut all_dead = 1.0;
    for &(u, pred) in neighbors {
        all_dead *= dead_fraction(instance, var, u, pred, &mut 0);
        if all_dead < MIN_DEAD {
            return false;
        }
    }
    !neighbors.is_empty()
}

/// The share of [`PROBES`] evenly spaced objects of `u` that no object of
/// `var` satisfies `pred` against; 0 for a predicate that gets no bits.
/// Adds the nodes it reads to `node_accesses`.
fn dead_fraction(
    instance: &Instance,
    var: VarId,
    u: VarId,
    pred: Predicate,
    node_accesses: &mut u64,
) -> f64 {
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
                node_accesses,
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
    use crate::budget::{BudgetClock, SearchBudget};
    use crate::index;
    use crate::individual::Individual;
    use crate::instance::BackendKind;
    use crate::window_cache::WindowCache;
    use crate::wr::ExactJoinOutcome;
    use crate::WindowReduction;
    use mwsj_datagen::Dataset;
    use mwsj_geom::Rect;
    use mwsj_obs::ObsHandle;
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
        /// A star in place of a chain (no effect on a clique).
        star: bool,
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
            } else if self.star {
                (1..n).map(|b| (0, b)).collect()
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
                star: false,
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

    /// Per variable and object, whether some exact solution assigns it:
    /// a backtracking search per object not yet seen in a solution, over
    /// the variables in breadth-first order from its own.
    fn in_some_solution(inst: &Instance) -> Vec<Vec<bool>> {
        let (graph, n) = (inst.graph(), inst.n_vars());
        let fits = |var: VarId, o: usize, assignment: &[usize]| {
            let placed = graph.neighbors(var).iter();
            let mut placed = placed.filter(|&&(u, _)| assignment[u] != usize::MAX);
            placed.all(|&(u, pred)| pred.eval(&inst.rect(var, o), &inst.rect(u, assignment[u])))
        };
        fn extend(
            inst: &Instance,
            fits: &dyn Fn(VarId, usize, &[usize]) -> bool,
            order: &[VarId],
            assignment: &mut [usize],
        ) -> bool {
            let Some((&var, rest)) = order.split_first() else {
                return true;
            };
            for o in 0..inst.cardinality(var) {
                if fits(var, o, assignment) {
                    assignment[var] = o;
                    if extend(inst, fits, rest, assignment) {
                        return true;
                    }
                }
            }
            assignment[var] = usize::MAX;
            false
        }
        let mut found: Vec<Vec<bool>> = (0..n).map(|v| vec![false; inst.cardinality(v)]).collect();
        for v in 0..n {
            let mut order = vec![v];
            for at in 0.. {
                let Some(&u) = order.get(at) else { break };
                let next: Vec<VarId> = (graph.neighbors(u).iter())
                    .map(|&(w, _)| w)
                    .filter(|w| !order.contains(w))
                    .collect();
                order.extend(next);
            }
            for o in 0..inst.cardinality(v) {
                let mut assignment = vec![usize::MAX; n];
                assignment[v] = o;
                if !found[v][o] && extend(inst, &fits, &order[1..], &mut assignment) {
                    for (u, &object) in assignment.iter().enumerate() {
                        found[u][object] = true;
                    }
                }
            }
        }
        found
    }

    /// The arc-consistency pass on one drawn instance:
    /// - the pass is the fixpoint, or removes nothing where its probes
    ///   find no selective edge;
    /// - every object of every exact solution survives the fixpoint;
    /// - on a chain or a star whose edges all imply intersection, once no
    ///   edge joins more pairs than its cap, every object the fixpoint
    ///   keeps lies in some exact solution;
    /// - the public WR enumerates the set its kernel does without the
    ///   pass, where that set is small enough to list, and as many
    ///   solutions as the independent backtracking counter finds.
    fn check_core(draw: Draw) {
        let inst = draw.instance();
        let graph = inst.graph();
        let unbounded = SearchBudget::iterations(u64::MAX);
        let clock = BudgetClock::start(&unbounded);
        let no_cut = "a step budget never runs out during the pass";
        let domains = Domains::fixpoint(&inst, &clock, &mut 0).expect(no_cut);
        let built = Domains::build(&inst, &clock, &mut 0).expect(no_cut);
        assert!(
            built.ids == domains.ids || !built.pruned(),
            "{draw:?}: the pass is the fixpoint or removes nothing"
        );
        let survives = |v: VarId, o: usize| match &domains.ids[v] {
            None => true,
            Some(ids) => ids.binary_search(&(o as u32)).is_ok(),
        };
        let in_solution = in_some_solution(&inst);
        for (v, objects) in in_solution.iter().enumerate() {
            for (o, &solved) in objects.iter().enumerate() {
                assert!(!solved || survives(v, o), "{draw:?}: var {v} object {o}");
            }
        }
        let uncapped = graph.edges().iter().all(|e| {
            let pairs = PairwiseJoin::join(inst.tree(e.a), inst.tree(e.b))
                .pairs
                .len();
            pairs <= inst.cardinality(e.a) + inst.cardinality(e.b)
        });
        let tree = !draw.clique || inst.n_vars() == 2;
        let joinable = graph.edges().iter().all(|e| implies_intersection(e.pred));
        if tree && joinable && uncapped && !domains.is_empty() {
            for (v, objects) in in_solution.iter().enumerate() {
                for (o, &solved) in objects.iter().enumerate() {
                    assert!(solved || !survives(v, o), "{draw:?}: var {v} object {o}");
                }
            }
        }

        let (budget, obs) = (unbounded, ObsHandle::disabled());
        let limit = 20_000;
        let sorted = |outcome: ExactJoinOutcome| {
            let mut solutions = outcome.solutions;
            solutions.sort_by(|a, b| a.as_slice().cmp(b.as_slice()));
            (solutions, outcome.complete)
        };
        let wr = sorted(ExactJoinOutcome::framed(&inst, &budget, &obs, |driver| {
            crate::wr::enumerate(crate::ibb::descend, &inst, limit, driver)
        }));
        if !wr.1 {
            return;
        }
        assert_eq!(
            sorted(WindowReduction::new().run(&inst, &budget, limit)),
            wr,
            "{draw:?}"
        );
        let datasets: Vec<Dataset> = (0..inst.n_vars())
            .map(|v| Dataset::from_rects(inst.scan(v).map(|(_, r)| r).collect()))
            .collect();
        let count = mwsj_datagen::count_exact_solutions(&datasets, graph, u64::MAX);
        assert_eq!(wr.0.len() as u64, count, "{draw:?}");
    }

    proptest::proptest! {
        #[test]
        fn the_core_keeps_every_solution_and_changes_no_join(
            draw in draws(),
            star in proptest::prelude::any::<bool>(),
        ) {
            check_core(Draw { star, ..draw });
        }

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
                star: false,
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
