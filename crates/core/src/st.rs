//! Synchronous Traversal (paper §2, \[PMT99\]): exact multiway join by
//! simultaneous descent of all R-trees.
//!
//! Starting from the roots, the algorithm enumerates combinations of node
//! entries (one per query variable) whose MBRs satisfy every join edge at
//! the MBR level, and recurses on the children of each qualifying
//! combination until the leaf level, where combinations are exact
//! solutions.
//!
//! Expanding a combination is \[PMT99\]'s two steps. *Search-space
//! restriction*: an entry of variable `v`'s node can belong to a qualifying
//! combination only if it meets the node MBR of every query neighbour of
//! `v`, so each node's entry list is cut to those entries first (of 32
//! entries, a handful survive). *Backtracking with forward checking* over
//! the cut lists, variables in index order, entries in node order: fixing a
//! variable's entry cuts the lists of its later neighbours to the entries
//! that meet it, and an emptied list abandons the entry at once. Neither
//! step changes which combinations qualify or the order they are reached
//! in — only how many entry pairs are tested on the way.
//!
//! `steps` counts expanded combinations. `node_accesses` counts the nodes
//! those combinations hold — one read per variable still inside a subtree,
//! the roots included, as \[PMT99\] costs ST — so it is a function of the
//! qualifying combinations alone: restriction, forward checking or a
//! different variable order cannot move it. (Until PR 23 a child was counted
//! once per *partial* choice, again under every partner that later failed.)
//!
//! Every list lives in one arena owned by the run and used as a stack, so
//! once it has grown an expanded combination allocates nothing; only an
//! emitted solution does.
//!
//! Restricted to *overlap* queries: MBR-level intersection of two subtree
//! MBRs is the correct (complete) filter for the intersect predicate.
//!
//! This is a traversal of the *trees*, not a question to an index, and
//! every [`Instance`] has its trees: the algorithm descends them whatever
//! [`BackendKind`](crate::BackendKind) is selected.

use crate::budget::{BudgetClock, SearchBudget};
use crate::instance::Instance;
use crate::result::RunStats;
use crate::wr::ExactJoinOutcome;
use mwsj_geom::{Predicate, Rect};
use mwsj_obs::ObsHandle;
use mwsj_query::Solution;
use mwsj_rtree::{EntryRef, NodeRef};

/// Synchronous traversal.
#[derive(Debug, Clone, Default)]
pub struct SynchronousTraversal {}

/// One variable's position during the descent: still inside a subtree, or
/// already fixed to a data object (trees can have different heights).
///
/// A node cursor carries the node's MBR — the rectangle of the entry that
/// led to it (STR writes the child's tight MBR there), the tree's bounding
/// box for a root — so a consistency check reads it instead of re-uniting
/// the node's entries.
#[derive(Clone, Copy)]
enum Cursor<'a> {
    Node(NodeRef<'a, u32>, Rect),
    Data(usize, Rect),
}

impl<'a> Cursor<'a> {
    /// The cursor an entry leads to.
    fn of(entry: EntryRef<'a, u32>) -> Self {
        match entry.child() {
            Some(child) => Cursor::Node(child, *entry.mbr()),
            None => Cursor::Data(*entry.value().expect("leaf") as usize, *entry.mbr()),
        }
    }

    fn mbr(&self) -> &Rect {
        match self {
            Cursor::Node(_, mbr) | Cursor::Data(_, mbr) => mbr,
        }
    }
}

impl SynchronousTraversal {
    /// Creates the algorithm.
    pub fn new() -> Self {
        SynchronousTraversal {}
    }

    /// Enumerates up to `limit` exact solutions within `budget`.
    ///
    /// # Panics
    /// Panics if the query uses a predicate other than
    /// [`Predicate::Intersects`].
    pub fn run(
        &self,
        instance: &Instance,
        budget: &SearchBudget,
        limit: usize,
    ) -> ExactJoinOutcome {
        self.run_with_obs(instance, budget, limit, &ObsHandle::disabled())
    }

    /// Like [`SynchronousTraversal::run`], additionally reporting counters
    /// and phase timings ("st") through `obs`.
    ///
    /// # Panics
    /// Panics if the query uses a predicate other than
    /// [`Predicate::Intersects`].
    pub fn run_with_obs(
        &self,
        instance: &Instance,
        budget: &SearchBudget,
        limit: usize,
        obs: &ObsHandle,
    ) -> ExactJoinOutcome {
        assert!(
            instance
                .graph()
                .edges()
                .iter()
                .all(|e| e.pred == Predicate::Intersects),
            "synchronous traversal supports overlap queries only"
        );
        ExactJoinOutcome::on_core(instance, budget, limit, obs, "st", |core, clock, stats| {
            enumerate(core, limit, clock, stats)
        })
    }
}

/// The traversal itself, descending the trees of the instance it is given:
/// up to `limit` solutions, and whether the enumeration completed.
pub(crate) fn enumerate(
    instance: &Instance,
    limit: usize,
    clock: &mut BudgetClock,
    stats: &mut RunStats,
) -> (Vec<Solution>, bool) {
    let mut state = StState {
        instance,
        clock,
        stats,
        solutions: Vec::new(),
        limit,
        truncated: false,
        chosen: Vec::new(),
        lists: Vec::new(),
        frames: Vec::new(),
    };
    // `limit = 0` asks for nothing: `expand` would push the first
    // solution before looking at the limit.
    if limit > 0 {
        state.chosen.extend((0..instance.n_vars()).map(|v| {
            let tree = instance.tree(v);
            Cursor::Node(tree.root_node(), tree.bounding_box())
        }));
        expand(&mut state, 0);
    }
    let complete = !state.truncated && state.solutions.len() < limit;
    (state.solutions, complete)
}

/// A run in progress. The three vectors are the run's arena, each used as a
/// stack that a recursion level grows and cuts back to where it found it.
struct StState<'a, 'r> {
    instance: &'a Instance,
    clock: &'r mut BudgetClock,
    stats: &'r mut RunStats,
    solutions: Vec<Solution>,
    limit: usize,
    truncated: bool,
    /// The entries fixed so far on the path from the roots, a combination
    /// after a combination: `n` cursors each, the last one possibly partial.
    chosen: Vec<Cursor<'a>>,
    /// The candidate lists, back to back.
    lists: Vec<Cursor<'a>>,
    /// Frames of `n` ranges into `lists` — one list per variable: the
    /// restricted lists of a combination, then one frame per variable fixed.
    frames: Vec<(usize, usize)>,
}

/// Processes the combination `chosen[combo..combo + n]`; returns `true` to
/// stop everything.
fn expand(state: &mut StState<'_, '_>, combo: usize) -> bool {
    if state.clock.exhausted() {
        state.truncated = true;
        return true;
    }
    state.clock.step();
    let instance = state.instance;
    let (graph, n) = (instance.graph(), instance.n_vars());

    let nodes = state.chosen[combo..combo + n]
        .iter()
        .filter(|c| matches!(c, Cursor::Node(..)))
        .count();
    state.stats.node_accesses += nodes as u64;
    // All fixed: a complete exact solution (MBR intersection is exact for
    // rectangle data under the overlap predicate).
    if nodes == 0 {
        let objects = state.chosen[combo..combo + n].iter().map(|c| match c {
            Cursor::Data(o, _) => *o,
            Cursor::Node(..) => unreachable!(),
        });
        state.solutions.push(Solution::new(objects.collect()));
        return state.solutions.len() >= state.limit;
    }

    // Restriction: per variable, the entries that meet the MBR of every
    // neighbour's cursor (a fixed object stays as it is).
    let (lists, frame) = (state.lists.len(), state.frames.len());
    let mut satisfiable = true;
    for var in 0..n {
        let start = state.lists.len();
        match state.chosen[combo + var] {
            data @ Cursor::Data(..) => state.lists.push(data),
            Cursor::Node(node, _) => {
                let neighbours = graph.neighbors(var);
                let meets_all = |mbr: &Rect| {
                    let mut cursors = neighbours.iter().map(|&(u, _)| &state.chosen[combo + u]);
                    cursors.all(|c| mbr.intersects(c.mbr()))
                };
                let survivors = node
                    .rects()
                    .iter()
                    .enumerate()
                    .filter(|(_, r)| meets_all(r));
                state
                    .lists
                    .extend(survivors.map(|(i, _)| Cursor::of(node.entry(i))));
            }
        }
        state.frames.push((start, state.lists.len()));
        if start == state.lists.len() {
            satisfiable = false;
            break;
        }
    }
    let stop = satisfiable && choose(state, frame, 0);
    state.lists.truncate(lists);
    state.frames.truncate(frame);
    stop
}

/// Backtracking over the variables `var..n`, picking for each an entry of
/// its list in `frames[frame..frame + n]` — every one of which meets the
/// entries already fixed — and forward-checking the lists of its later
/// neighbours against the pick.
fn choose(state: &mut StState<'_, '_>, frame: usize, var: usize) -> bool {
    let instance = state.instance;
    let (graph, n) = (instance.graph(), instance.n_vars());
    if var == n {
        return expand(state, state.chosen.len() - n);
    }
    let (start, end) = state.frames[frame + var];
    for at in start..end {
        let pick = state.lists[at];
        let (lists, next) = (state.lists.len(), state.frames.len());
        state.frames.extend_from_within(frame..frame + n);
        let later = graph.neighbors(var).iter().filter(|&&(u, _)| u > var);
        let consistent = later.into_iter().all(|&(u, _)| {
            let (from, to) = state.frames[next + u];
            let cut = state.lists.len();
            for k in from..to {
                if state.lists[k].mbr().intersects(pick.mbr()) {
                    state.lists.push(state.lists[k]);
                }
            }
            state.frames[next + u] = (cut, state.lists.len());
            cut < state.lists.len()
        });
        let stop = consistent && {
            state.chosen.push(pick);
            let stop = choose(state, next, var + 1);
            state.chosen.pop();
            stop
        };
        state.lists.truncate(lists);
        state.frames.truncate(next);
        if stop {
            return true;
        }
    }
    false
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::WindowReduction;
    use mwsj_datagen::{count_exact_solutions, Dataset, QueryShape};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn instance(
        seed: u64,
        shape: QueryShape,
        n: usize,
        cardinality: usize,
        density: f64,
    ) -> (Instance, Vec<Dataset>) {
        let mut rng = StdRng::seed_from_u64(seed);
        let datasets: Vec<Dataset> = (0..n)
            .map(|_| Dataset::uniform(cardinality, density, &mut rng))
            .collect();
        (
            Instance::new(shape.graph(n), datasets.clone()).unwrap(),
            datasets,
        )
    }

    /// Synchronous traversal before restriction and forward checking, kept
    /// as the reference: every entry of every node, checked only against
    /// the entries chosen so far. Counts nodes as the algorithm defines
    /// them, per expanded combination.
    struct Unrestricted<'a> {
        instance: &'a Instance,
        limit: usize,
        solutions: Vec<Solution>,
        steps: u64,
        node_accesses: u64,
    }

    impl<'a> Unrestricted<'a> {
        fn run(instance: &'a Instance, limit: usize) -> Self {
            let mut run = Unrestricted {
                instance,
                limit,
                solutions: Vec::new(),
                steps: 0,
                node_accesses: 0,
            };
            let roots: Vec<Cursor<'a>> = (0..instance.n_vars())
                .map(|v| instance.tree(v))
                .map(|tree| Cursor::Node(tree.root_node(), tree.bounding_box()))
                .collect();
            if limit > 0 {
                run.expand(&roots);
            }
            run
        }

        fn expand(&mut self, cursors: &[Cursor<'a>]) -> bool {
            self.steps += 1;
            let objects: Vec<usize> = cursors
                .iter()
                .filter_map(|c| match c {
                    Cursor::Data(o, _) => Some(*o),
                    Cursor::Node(..) => None,
                })
                .collect();
            self.node_accesses += (cursors.len() - objects.len()) as u64;
            if objects.len() == cursors.len() {
                self.solutions.push(Solution::new(objects));
                return self.solutions.len() >= self.limit;
            }
            self.choose(cursors, &mut Vec::new())
        }

        fn choose(&mut self, cursors: &[Cursor<'a>], chosen: &mut Vec<Cursor<'a>>) -> bool {
            let var = chosen.len();
            if var == cursors.len() {
                return self.expand(&chosen.clone());
            }
            let candidates: Vec<Cursor<'a>> = match cursors[var] {
                data @ Cursor::Data(..) => vec![data],
                Cursor::Node(node, _) => node.entries().map(Cursor::of).collect(),
            };
            let neighbours = self.instance.graph().neighbors(var);
            for candidate in candidates {
                let earlier = neighbours.iter().filter(|&&(u, _)| u < var);
                if earlier
                    .into_iter()
                    .all(|&(u, _)| candidate.mbr().intersects(chosen[u].mbr()))
                {
                    chosen.push(candidate);
                    let stop = self.choose(cursors, chosen);
                    chosen.pop();
                    if stop {
                        return true;
                    }
                }
            }
            false
        }
    }

    /// The traversal of `inst`'s own trees, without the arc-consistency
    /// pass that the public entry runs first.
    fn kernel(inst: &Instance, limit: usize) -> ExactJoinOutcome {
        let (budget, obs) = (SearchBudget::seconds(60.0), ObsHandle::disabled());
        ExactJoinOutcome::framed(&budget, &obs, "st", |clock, stats| {
            enumerate(inst, limit, clock, stats)
        })
    }

    /// Asserts that the traversal of `inst` finds the solutions of
    /// [`Unrestricted`] in its order, in as many steps and node reads, at
    /// every limit; returns how many there are.
    fn assert_equals_unrestricted(name: &str, inst: &Instance) -> usize {
        let mut found = 0;
        for limit in [usize::MAX, 5, 1, 0] {
            let got = kernel(inst, limit);
            let want = Unrestricted::run(inst, limit);
            assert_eq!(got.solutions, want.solutions, "{name}, limit {limit}");
            assert_eq!(got.stats.steps, want.steps, "{name}, limit {limit}");
            assert_eq!(
                got.stats.node_accesses, want.node_accesses,
                "{name}, limit {limit}"
            );
            assert_eq!(
                got.complete,
                want.solutions.len() < limit,
                "{name}, limit {limit}"
            );
            found = found.max(got.solutions.len());
        }
        found
    }

    #[test]
    fn st_equals_the_unrestricted_traversal() {
        let shapes = [
            (QueryShape::Chain, 3, 0.5),
            (QueryShape::Clique, 3, 0.5),
            (QueryShape::Cycle, 4, 0.4),
            // A variable with three neighbours.
            (QueryShape::Star, 4, 0.3),
        ];
        for (shape, n, density) in shapes {
            // 150 objects: two levels under the default node capacity.
            let (inst, _) = instance(136, shape, n, 150, density);
            assert!(assert_equals_unrestricted(shape.name(), &inst) > 0);
        }
        // Trees of one, two and three levels, in both variable orders: a
        // fixed object waits for the taller trees to reach their leaves.
        let mut rng = StdRng::seed_from_u64(137);
        let mut sized = |n| Dataset::uniform(n, 0.3, &mut rng).rects().to_vec();
        let (low, mid, tall) = (sized(20), sized(600), sized(1_500));
        for shape in [QueryShape::Chain, QueryShape::Clique] {
            for datasets in [[&low, &mid, &tall], [&tall, &low, &mid]] {
                let inst = Instance::new(shape.graph(3), datasets).unwrap();
                let heights: Vec<u32> = (0..3).map(|v| inst.tree(v).height()).collect();
                let mut sorted = heights.clone();
                sorted.sort_unstable();
                assert_eq!(sorted, [1, 2, 3]);
                let name = format!("{} over {heights:?}", shape.name());
                assert!(assert_equals_unrestricted(&name, &inst) > 0);
            }
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(32))]

        /// The same equality on drawn instances: any connected query graph
        /// over three or four datasets of any three sizes.
        #[test]
        fn st_equals_the_unrestricted_traversal_on_drawn_instances(
            seed in proptest::prelude::any::<u64>(),
            n in 3usize..=4,
            extra_edges in 0.0f64..=1.0,
            sizes in proptest::collection::vec(2usize..200, 4),
            density in 0.05f64..0.6,
        ) {
            let mut rng = StdRng::seed_from_u64(seed);
            let graph = mwsj_query::QueryGraph::random_connected(n, extra_edges, &mut rng);
            let datasets: Vec<Dataset> = sizes[..n]
                .iter()
                .map(|&size| Dataset::uniform(size, density, &mut rng))
                .collect();
            let inst = Instance::new(graph, datasets).unwrap();
            assert_equals_unrestricted("drawn", &inst);
        }
    }

    #[test]
    fn st_count_matches_brute_force() {
        for shape in [QueryShape::Chain, QueryShape::Clique] {
            let (inst, datasets) = instance(131, shape, 3, 60, 0.5);
            let outcome =
                SynchronousTraversal::new().run(&inst, &SearchBudget::seconds(30.0), usize::MAX);
            assert!(outcome.complete);
            let brute = count_exact_solutions(&datasets, inst.graph(), u64::MAX);
            assert_eq!(outcome.solutions.len() as u64, brute, "{}", shape.name());
        }
    }

    #[test]
    fn st_agrees_with_wr() {
        let (inst, _) = instance(132, QueryShape::Cycle, 4, 40, 0.4);
        let mut st: Vec<Solution> = SynchronousTraversal::new()
            .run(&inst, &SearchBudget::seconds(30.0), usize::MAX)
            .solutions;
        let mut wr: Vec<Solution> = WindowReduction::new()
            .run(&inst, &SearchBudget::seconds(30.0), usize::MAX)
            .solutions;
        st.sort_by(|a, b| a.as_slice().cmp(b.as_slice()));
        wr.sort_by(|a, b| a.as_slice().cmp(b.as_slice()));
        assert_eq!(st, wr);
    }

    /// ST descends the trees whatever backend is selected: the same
    /// solutions in the same order, and tree node accesses, on an instance
    /// switched to the grid.
    #[test]
    fn st_runs_on_the_trees_of_a_grid_instance() {
        let (inst, _) = instance(135, QueryShape::Clique, 3, 80, 0.6);
        let on_grid = inst.clone().with_backend(crate::BackendKind::Grid);
        let budget = SearchBudget::seconds(30.0);
        for limit in [usize::MAX, 5] {
            let tree = SynchronousTraversal::new().run(&inst, &budget, limit);
            let grid = SynchronousTraversal::new().run(&on_grid, &budget, limit);
            assert!(!tree.solutions.is_empty());
            assert_eq!(tree.solutions, grid.solutions, "limit {limit}");
            assert_eq!(tree.stats.node_accesses, grid.stats.node_accesses);
            assert_eq!(tree.stats.steps, grid.stats.steps);
            assert_eq!(tree.complete, grid.complete);
        }
    }

    #[test]
    fn st_respects_limit_and_budget() {
        let (inst, _) = instance(133, QueryShape::Chain, 3, 80, 1.2);
        let capped = SynchronousTraversal::new().run(&inst, &SearchBudget::seconds(30.0), 3);
        assert_eq!(capped.solutions.len(), 3);
        assert!(!capped.complete);
        let starved =
            SynchronousTraversal::new().run(&inst, &SearchBudget::iterations(2), usize::MAX);
        assert!(!starved.complete);
    }

    #[test]
    #[should_panic(expected = "overlap queries only")]
    fn st_rejects_non_overlap_predicates() {
        let mut rng = StdRng::seed_from_u64(134);
        let datasets: Vec<Dataset> = (0..2)
            .map(|_| Dataset::uniform(10, 0.1, &mut rng))
            .collect();
        let graph = mwsj_query::QueryGraphBuilder::new(2)
            .edge_with(0, 1, Predicate::NorthEast)
            .build()
            .unwrap();
        let inst = Instance::new(graph, datasets).unwrap();
        let _ = SynchronousTraversal::new().run(&inst, &SearchBudget::seconds(1.0), 1);
    }
}
