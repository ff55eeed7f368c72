//! A static, bulk-loaded R-tree.
//!
//! This crate implements the index substrate of the EDBT 2002 paper, which
//! assumes an R*-tree (Beckmann, Kriegel, Schneider and Seeger, SIGMOD
//! 1990) over every input dataset ("for the rest of the paper we consider
//! that all datasets are indexed by R*-trees on minimum bounding
//! rectangles"). The engine only ever *reads* its indexes, so the tree is
//! built once and is immutable: the R* insertion heuristics (choose-subtree,
//! topological split, forced re-insertion), deletion and k-NN search were
//! removed after measuring that they buy the search nothing over STR
//! packing (DESIGN.md §5f).
//!
//! Features:
//!
//! * **STR bulk loading** (Sort-Tile-Recursive), the one build path —
//!   an index over 10⁴–10⁵ objects per query variable in milliseconds.
//! * **One enumeration**: [`multiwindow::for_each_candidate`], every
//!   entry satisfying at least `min_count` of a list of
//!   ([`Predicate`](mwsj_geom::Predicate), window) pairs. A window query is
//!   that walk with one window and `min_count = 1`; there is no second
//!   traversal.
//! * A **multi-window branch-and-bound kernel** ([`find_best_leaf_leveled`]):
//!   the best-first, prune-by-potential traversal of the paper's *find
//!   best value* (Fig. 5) with a caller-supplied leaf scorer, shared by
//!   the raw (ILS/SEA/IBB) and λ-penalised (GILS) search paths. It and the
//!   enumeration are the tree's two traversals.
//! * A **read-only traversal API** ([`NodeRef`]/[`EntryRef`]) for the
//!   traversal `mwsj-core` writes itself (the pairwise join).
//! * **Access accounting by the caller**: every traversal bumps a `&mut
//!   u64` it is handed once per node it enters (the kernels also a
//!   per-level slice).
//! * An **invariant checker** ([`RTree::check_invariants`]) used by the test
//!   suite and property tests.
//!
//! The tree is one packed array per level: the leaf level is the dataset's
//! rectangles themselves, permuted once into STR order next to a parallel
//! payload array; each level above is an array of node MBRs; a `start`
//! table per level says where each node's run begins, and entry *j* of a
//! level **is** node *j* of the level below — no child ids, no per-node
//! allocation, no unsafe code (the `tree` module docs draw it).
//!
//! The hidden `legacy` module holds the names only the repository
//! benchmark's probes still call, each a shim over one of the paths above.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod bulk;
mod footprint;
#[doc(hidden)]
pub mod legacy;
pub mod multiwindow;
mod params;
mod stats;
mod tree;
mod validate;
mod visit;

// The benchmark's names at their old paths.
#[doc(hidden)]
pub use legacy::*;
pub use multiwindow::{find_best_leaf_leveled, BestLeaf};
pub use params::RTreeParams;
pub use stats::TreeStats;
pub use tree::RTree;
pub use visit::{EntryRef, NodeRef};
