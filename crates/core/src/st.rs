//! Synchronous Traversal (paper §2, \[PMT99\]): exact multiway join by
//! simultaneous descent of all R-trees.
//!
//! Starting from the roots, the algorithm enumerates combinations of node
//! entries (one per query variable) whose MBRs satisfy every join edge at
//! the MBR level, and recurses on the children of each qualifying
//! combination until the leaf level, where combinations are exact
//! solutions. Combination enumeration is itself a backtracking search with
//! edge-consistency pruning, avoiding the naive `Cⁿ` blow-up.
//!
//! Restricted to *overlap* queries: MBR-level intersection of two subtree
//! MBRs is the correct (complete) filter for the intersect predicate.
//!
//! This is a traversal of the *trees*, not a question to an index, and
//! every [`Instance`] has its trees: the algorithm descends them whatever
//! [`BackendKind`](crate::BackendKind) is selected.

use crate::budget::{BudgetClock, SearchBudget, SearchContext};
use crate::instance::Instance;
use crate::result::RunStats;
use crate::wr::ExactJoinOutcome;
use mwsj_geom::{Predicate, Rect};
use mwsj_obs::ObsHandle;
use mwsj_query::Solution;
use mwsj_rtree::NodeRef;

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
#[derive(Clone)]
enum Cursor<'a> {
    Node(NodeRef<'a, u32>, Rect),
    Data(usize, Rect),
}

impl Cursor<'_> {
    fn mbr(&self) -> Rect {
        match self {
            Cursor::Node(_, mbr) | Cursor::Data(_, mbr) => *mbr,
        }
    }
    fn is_data(&self) -> bool {
        matches!(self, Cursor::Data(..))
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
        let ctx = SearchContext::local(*budget).with_obs(obs.clone());
        let clock = BudgetClock::from_context(&ctx);
        let _phase = clock.obs().timer.span("st");
        let mut state = StState {
            instance,
            clock,
            stats: RunStats::default(),
            solutions: Vec::new(),
            limit,
            truncated: false,
        };
        let roots: Vec<Cursor<'_>> = (0..instance.n_vars())
            .map(|v| {
                let tree = instance.tree(v);
                Cursor::Node(tree.root_node(), tree.bounding_box())
            })
            .collect();
        state.stats.node_accesses += instance.n_vars() as u64;
        // `limit = 0` asks for nothing: `expand` would push the first
        // solution before looking at the limit.
        if limit > 0 {
            expand(&mut state, &roots);
        }
        let mut stats = state.stats;
        state.clock.finish(&mut stats);
        let complete = !state.truncated && state.solutions.len() < state.limit;
        ExactJoinOutcome {
            solutions: state.solutions,
            stats,
            complete,
        }
    }
}

struct StState<'a> {
    instance: &'a Instance,
    clock: BudgetClock,
    stats: RunStats,
    solutions: Vec<Solution>,
    limit: usize,
    truncated: bool,
}

/// Processes one combination of cursors; returns `true` to stop everything.
fn expand(state: &mut StState<'_>, cursors: &[Cursor<'_>]) -> bool {
    if state.clock.exhausted() {
        state.truncated = true;
        return true;
    }
    state.clock.step();

    // All fixed: a complete exact solution (MBR intersection is exact for
    // rectangle data under the overlap predicate).
    if cursors.iter().all(Cursor::is_data) {
        let sol = Solution::new(
            cursors
                .iter()
                .map(|c| match c {
                    Cursor::Data(o, _) => *o,
                    _ => unreachable!(),
                })
                .collect(),
        );
        state.solutions.push(sol);
        return state.solutions.len() >= state.limit;
    }

    // Enumerate entry choices for every unfixed variable, backtracking with
    // edge-consistency checks against all already-chosen variables.
    let n = cursors.len();
    let mut chosen: Vec<Option<Cursor<'_>>> = vec![None; n];
    choose(state, cursors, &mut chosen, 0)
}

/// Backtracking over variables 0..n, picking a child (or keeping the data
/// object) for each, consistent with the query edges.
fn choose<'a>(
    state: &mut StState<'_>,
    cursors: &[Cursor<'a>],
    chosen: &mut Vec<Option<Cursor<'a>>>,
    var: usize,
) -> bool {
    let graph = state.instance.graph();
    let n = cursors.len();
    if var == n {
        let next: Vec<Cursor<'a>> = chosen.iter().map(|c| c.clone().expect("chosen")).collect();
        return expand(state, &next);
    }

    // Candidate cursors for this variable at the next level down.
    match &cursors[var] {
        Cursor::Data(o, r) => {
            if consistent(graph, chosen, var, r) {
                chosen[var] = Some(Cursor::Data(*o, *r));
                if choose(state, cursors, chosen, var + 1) {
                    return true;
                }
                chosen[var] = None;
            }
        }
        Cursor::Node(node, _) => {
            for entry in node.entries() {
                let mbr = *entry.mbr();
                if !consistent(graph, chosen, var, &mbr) {
                    continue;
                }
                let cursor = match entry.child() {
                    Some(child) => {
                        state.stats.node_accesses += 1;
                        Cursor::Node(child, mbr)
                    }
                    None => Cursor::Data(*entry.value().expect("leaf") as usize, mbr),
                };
                chosen[var] = Some(cursor);
                if choose(state, cursors, chosen, var + 1) {
                    return true;
                }
                chosen[var] = None;
            }
        }
    }
    false
}

/// MBR-level consistency of `var`'s candidate against all chosen earlier
/// variables (every join edge must remain possible).
fn consistent(
    graph: &mwsj_query::QueryGraph,
    chosen: &[Option<Cursor<'_>>],
    var: usize,
    mbr: &Rect,
) -> bool {
    graph.neighbors(var).iter().all(|&(u, _)| match &chosen[u] {
        Some(c) => mbr.intersects(&c.mbr()),
        None => true,
    })
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
