//! Sort-Tile-Recursive (STR) bulk loading.
//!
//! STR packs a static dataset into a fully-built tree in `O(N log N)`:
//! sort by x-center, cut into `⌈√P⌉` vertical slices (P = number of leaves),
//! sort each slice by y-center and pack runs of `M` entries into leaves;
//! repeat one level up until a single node remains. It is the only way to
//! build an [`RTree`]: the engine indexes static datasets of 10⁴–10⁵
//! objects, and one-by-one R* insertion was measured 21–26× slower to build
//! for the same `find best value` access counts (DESIGN.md §5f).

use crate::node::{Entry, Node, NodeId};
use crate::params::RTreeParams;
use crate::tree::RTree;
use mwsj_geom::Rect;

impl<T> RTree<T> {
    /// Builds a tree over `items` using STR packing and default parameters.
    pub fn bulk_load(items: Vec<(Rect, T)>) -> Self {
        Self::bulk_load_with_params(RTreeParams::default(), items)
    }

    /// Builds a tree over `items` using STR packing.
    pub fn bulk_load_with_params(params: RTreeParams, items: Vec<(Rect, T)>) -> Self {
        debug_assert!(items.iter().all(|(r, _)| r.is_finite()));
        let cap = params.max_entries();
        let len = items.len();
        let mut nodes: Vec<Node<T>> = Vec::new();

        // Pack level by level until everything fits in one node; an empty
        // input yields a single empty leaf as root.
        let mut level = 0u32;
        let mut current: Vec<Entry<T>> = items
            .into_iter()
            .map(|(mbr, v)| Entry::data(mbr, v))
            .collect();
        while current.len() > cap {
            let groups = str_partition(current, cap);
            let mut parents: Vec<Entry<T>> = Vec::with_capacity(groups.len());
            for entries in groups {
                let node = Node { level, entries };
                parents.push(Entry::child(node.mbr(), NodeId(nodes.len() as u32)));
                nodes.push(node);
            }
            current = parents;
            level += 1;
        }
        let root = NodeId(nodes.len() as u32);
        nodes.push(Node {
            level,
            entries: current,
        });
        RTree {
            params,
            nodes,
            root,
            height: level + 1,
            len,
        }
    }

    /// [`RTree::bulk_load_with_params`] with node accesses recorded into
    /// `counter`: one access per node written during packing.
    pub fn bulk_load_with_params_counted(
        params: RTreeParams,
        items: Vec<(Rect, T)>,
        counter: &crate::AccessCounter,
    ) -> Self {
        let tree = Self::bulk_load_with_params(params, items);
        counter.add(tree.nodes.len() as u64);
        tree
    }
}

/// Partitions entries into groups of at most `cap` using the STR tiling.
///
/// Group sizes are distributed evenly (instead of filling nodes to `cap`
/// and leaving a short tail), which guarantees every group holds at least
/// `⌊cap/2⌋` members — the occupancy bound [`RTree::check_invariants`]
/// verifies.
fn str_partition<T>(mut entries: Vec<Entry<T>>, cap: usize) -> Vec<Vec<Entry<T>>> {
    let n = entries.len();
    debug_assert!(n > cap);
    let group_count = n.div_ceil(cap);
    let slice_count = (group_count as f64).sqrt().ceil() as usize;

    // Vertical slices by x-center.
    entries.sort_by(|a, b| {
        a.mbr
            .center()
            .x
            .partial_cmp(&b.mbr.center().x)
            .expect("finite MBRs")
    });

    let mut groups = Vec::with_capacity(group_count);
    for mut slice in even_chunks(entries, slice_count) {
        // Within the slice, horizontal runs by y-center.
        slice.sort_by(|a, b| {
            a.mbr
                .center()
                .y
                .partial_cmp(&b.mbr.center().y)
                .expect("finite MBRs")
        });
        let slice_groups = slice.len().div_ceil(cap);
        groups.extend(even_chunks(slice, slice_groups));
    }
    groups
}

/// Splits `items` into `k` contiguous chunks whose sizes differ by at most 1.
fn even_chunks<T>(mut items: Vec<T>, k: usize) -> Vec<Vec<T>> {
    let n = items.len();
    let k = k.clamp(1, n.max(1));
    let base = n / k;
    let extra = n % k;
    let mut chunks = Vec::with_capacity(k);
    for i in 0..k {
        let take = base + usize::from(i < extra);
        chunks.push(items.drain(..take).collect());
    }
    debug_assert!(items.is_empty());
    chunks
}

#[cfg(test)]
mod tests {
    use crate::{RTree, RTreeParams};
    use mwsj_geom::Rect;
    use rand::rngs::StdRng;
    use rand::{RngExt, SeedableRng};

    fn random_items(n: usize, seed: u64) -> Vec<(Rect, usize)> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..n)
            .map(|i| {
                let x: f64 = rng.random_range(0.0..1.0);
                let y: f64 = rng.random_range(0.0..1.0);
                (Rect::new(x, y, x + 0.01, y + 0.01), i)
            })
            .collect()
    }

    #[test]
    fn bulk_load_empty() {
        let tree: RTree<usize> = RTree::bulk_load(Vec::new());
        assert!(tree.is_empty());
        tree.check_invariants().unwrap();
    }

    #[test]
    fn bulk_load_single_leaf() {
        let items = random_items(10, 1);
        let tree = RTree::bulk_load_with_params(RTreeParams::new(16), items);
        assert_eq!(tree.len(), 10);
        assert_eq!(tree.height(), 1);
        tree.check_invariants().unwrap();
    }

    #[test]
    fn bulk_load_large_preserves_everything() {
        let items = random_items(10_000, 2);
        let tree = RTree::bulk_load_with_params(RTreeParams::new(32), items);
        assert_eq!(tree.len(), 10_000);
        tree.check_invariants().unwrap();
        let mut ids: Vec<usize> = tree.iter().map(|(_, v)| *v).collect();
        ids.sort_unstable();
        assert_eq!(ids, (0..10_000).collect::<Vec<_>>());
    }

    #[test]
    fn bulk_load_matches_linear_scan_at_every_capacity() {
        let items = random_items(2_000, 3);
        let window = Rect::new(0.2, 0.2, 0.4, 0.4);
        let expected: Vec<usize> = items
            .iter()
            .filter(|(r, _)| r.intersects(&window))
            .map(|(_, v)| *v)
            .collect();
        for cap in [4, 8, 32] {
            let tree = RTree::bulk_load_with_params(RTreeParams::new(cap), items.clone());
            tree.check_invariants().unwrap();
            let mut got: Vec<usize> = tree.window(&window).map(|(_, v)| *v).collect();
            got.sort_unstable();
            assert_eq!(got, expected, "capacity {cap}");
        }
    }

    #[test]
    fn bulk_load_exact_capacity_boundary() {
        // Exactly M entries => height 1; M+1 entries => height 2.
        let m = 16;
        let tree = RTree::bulk_load_with_params(RTreeParams::new(m), random_items(m, 4));
        assert_eq!(tree.height(), 1);
        let tree = RTree::bulk_load_with_params(RTreeParams::new(m), random_items(m + 1, 5));
        assert_eq!(tree.height(), 2);
        tree.check_invariants().unwrap();
    }

    #[test]
    fn counted_bulk_load_records_one_access_per_node() {
        use crate::AccessCounter;
        let counter = AccessCounter::new();
        let tree = RTree::bulk_load_with_params_counted(
            RTreeParams::new(8),
            random_items(2_000, 7),
            &counter,
        );
        assert_eq!(counter.get(), tree.node_count() as u64);
    }
}
