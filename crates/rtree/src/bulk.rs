//! Sort-Tile-Recursive (STR) bulk loading.
//!
//! STR packs a static dataset into a fully-built tree in `O(N log N)`:
//! sort by x-center, cut into `⌈√P⌉` vertical slices (P = number of leaves),
//! sort each slice by y-center and pack runs of `M` entries into leaves;
//! repeat one level up until a single node remains. It is the only way to
//! build an [`RTree`]: the engine indexes static datasets of 10⁴–10⁵
//! objects, and one-by-one R* insertion was measured 21–26× slower to build
//! for the same `find best value` access counts (DESIGN.md §5f).
//!
//! # Sort keys and the tie-break contract
//!
//! Neither sort moves an entry. Each sorts `(key, position)` pairs, where
//! `key` is the order-preserving integer image of a center coordinate
//! ([`sort_key`]: `a < b ⇔ key(a) < key(b)`, `-0.0` and `+0.0` share a key)
//! and `position` breaks ties:
//!
//! * the x-sort orders by *(x-center, position in the input)*;
//! * the y-sort of a slice orders by *(y-center, rank in the x-order)*.
//!
//! Both are total orders, so an unstable sort yields what a stable sort by
//! the coordinate alone would, and the tree is a function of the input
//! sequence alone: same items in the same order ⇒ same nodes, same entry
//! order, same node accesses for every query. Each node's entry vector is
//! then gathered once, at its final size.

use crate::node::{Entry, Node, NodeId};
use crate::params::RTreeParams;
use crate::tree::RTree;
use mwsj_geom::Rect;

/// An STR tiling: entries of one level in, one group per node out.
type Partition<T> = fn(Vec<Entry<T>>, usize) -> Vec<Vec<Entry<T>>>;

impl<T> RTree<T> {
    /// Builds a tree over `items` using STR packing and default parameters.
    pub fn bulk_load(items: Vec<(Rect, T)>) -> Self {
        Self::bulk_load_with_params(RTreeParams::default(), items)
    }

    /// Builds a tree over `items` using STR packing.
    pub fn bulk_load_with_params(params: RTreeParams, items: Vec<(Rect, T)>) -> Self {
        Self::pack(params, items.into_iter(), str_partition)
    }

    /// Packs level by level with `partition` until everything fits in one
    /// node; an empty input yields a single empty leaf as root. The items
    /// are collected once, as the leaf level's entries.
    fn pack(
        params: RTreeParams,
        items: impl Iterator<Item = (Rect, T)>,
        partition: Partition<T>,
    ) -> Self {
        let cap = params.max_entries();
        let mut nodes: Vec<Node<T>> = Vec::new();

        let mut level = 0u32;
        let mut current: Vec<Entry<T>> = items
            .map(|(mbr, v)| {
                debug_assert!(mbr.is_finite());
                Entry::data(mbr, v)
            })
            .collect();
        let len = current.len();
        while current.len() > cap {
            let groups = partition(current, cap);
            let mut parents: Vec<Entry<T>> = Vec::with_capacity(groups.len());
            nodes.reserve(groups.len() + 1);
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

/// STR packing with default parameters straight from an iterator, for
/// callers that hold the rectangles in another shape and would only build
/// the `Vec` of [`RTree::bulk_load`] to hand it over.
impl<T> FromIterator<(Rect, T)> for RTree<T> {
    fn from_iter<I: IntoIterator<Item = (Rect, T)>>(items: I) -> Self {
        Self::pack(RTreeParams::default(), items.into_iter(), str_partition)
    }
}

/// Order-preserving image of a non-NaN `f64` in the unsigned integers:
/// `a < b ⇔ sort_key(a) < sort_key(b)` and `a == b ⇔` equal keys (`+ 0.0`
/// turns `-0.0` into `+0.0`), `±∞` included. Negative floats order by
/// descending bit pattern, so all their bits flip; the others only gain
/// the top bit.
#[inline]
fn sort_key(x: f64) -> u64 {
    let bits = (x + 0.0).to_bits();
    bits ^ (((bits as i64 >> 63) as u64) | 1 << 63)
}

/// Sizes of the `k` contiguous chunks, differing by at most 1, that `n`
/// items split into (`k` clamped to `1..=n`).
fn even_sizes(n: usize, k: usize) -> impl Iterator<Item = usize> {
    let k = k.clamp(1, n.max(1));
    (0..k).map(move |i| n / k + usize::from(i < n % k))
}

/// Partitions entries into groups of at most `cap` using the STR tiling
/// (see the module docs for the two orders).
///
/// Group sizes are distributed evenly (instead of filling nodes to `cap`
/// and leaving a short tail), which guarantees every group holds at least
/// `⌊cap/2⌋` members — the occupancy bound [`RTree::check_invariants`]
/// verifies.
fn str_partition<T>(entries: Vec<Entry<T>>, cap: usize) -> Vec<Vec<Entry<T>>> {
    let n = entries.len();
    debug_assert!(n > cap);
    assert!(u32::try_from(n).is_ok(), "more than u32::MAX entries");
    let group_count = n.div_ceil(cap);
    let slice_count = (group_count as f64).sqrt().ceil() as usize;

    // Vertical slices by (x-center, input position).
    let mut by_x: Vec<(u64, u32)> = entries
        .iter()
        .zip(0u32..)
        .map(|(e, position)| (sort_key(e.mbr.center().x), position))
        .collect();
    by_x.sort_unstable();
    // Within a slice, horizontal runs by (y-center, rank in the x-order).
    let mut by_y: Vec<(u64, u32)> = by_x
        .iter()
        .zip(0u32..)
        .map(|(&(_, position), rank)| (sort_key(entries[position as usize].mbr.center().y), rank))
        .collect();

    let mut entries: Vec<Option<Entry<T>>> = entries.into_iter().map(Some).collect();
    let mut groups = Vec::with_capacity(group_count);
    let mut rest = by_y.as_mut_slice();
    for slice_len in even_sizes(n, slice_count) {
        let (slice, tail) = rest.split_at_mut(slice_len);
        rest = tail;
        slice.sort_unstable();
        let mut runs = &*slice;
        for group_len in even_sizes(slice_len, slice_len.div_ceil(cap)) {
            let (run, tail) = runs.split_at(group_len);
            runs = tail;
            groups.push(
                run.iter()
                    .map(|&(_, rank)| {
                        let (_, position) = by_x[rank as usize];
                        entries[position as usize]
                            .take()
                            .expect("every entry is in exactly one run")
                    })
                    .collect(),
            );
        }
    }
    groups
}

#[cfg(test)]
mod reference {
    //! The loader as it was before the integer keys: stable sorts that
    //! compare entries by recomputed centers, and chunking by
    //! drain-and-collect. The equality tests below hold
    //! [`super::str_partition`] to it node for node.

    use crate::node::Entry;

    pub(super) fn str_partition<T>(mut entries: Vec<Entry<T>>, cap: usize) -> Vec<Vec<Entry<T>>> {
        let n = entries.len();
        let group_count = n.div_ceil(cap);
        let slice_count = (group_count as f64).sqrt().ceil() as usize;
        entries.sort_by(|a, b| {
            a.mbr
                .center()
                .x
                .partial_cmp(&b.mbr.center().x)
                .expect("finite MBRs")
        });
        let mut groups = Vec::with_capacity(group_count);
        for mut slice in even_chunks(entries, slice_count) {
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
        chunks
    }
}

#[cfg(test)]
mod tests {
    use super::{reference, sort_key};
    use crate::node::Payload;
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

    #[test]
    fn sort_key_orders_like_partial_cmp() {
        let values = [
            f64::NEG_INFINITY,
            f64::MIN,
            -1.5,
            -f64::MIN_POSITIVE,
            -5e-324,
            -0.0,
            0.0,
            5e-324,
            f64::MIN_POSITIVE,
            0.1,
            1.0,
            f64::MAX,
            f64::INFINITY,
        ];
        for a in values {
            for b in values {
                assert_eq!(
                    sort_key(a).cmp(&sort_key(b)),
                    a.partial_cmp(&b).unwrap(),
                    "{a:?} vs {b:?}"
                );
            }
        }
    }

    /// Everything a tree is, in node order: level, then per entry the MBR
    /// bits and the payload (`Err(child id)` on internal levels).
    type Shape = Vec<(u32, Vec<([u64; 4], Result<usize, u32>)>)>;

    fn shape(tree: &RTree<usize>) -> Shape {
        let bits = |r: &Rect| [r.min.x, r.min.y, r.max.x, r.max.y].map(f64::to_bits);
        tree.nodes
            .iter()
            .map(|node| {
                let entries = node.entries.iter().map(|e| match e.payload {
                    Payload::Data(v) => (bits(&e.mbr), Ok(v)),
                    Payload::Child(id) => (bits(&e.mbr), Err(id.0)),
                });
                (node.level, entries.collect())
            })
            .collect()
    }

    /// Inputs on which a tie-break or a key could tell the two loaders
    /// apart, next to plain uniform data.
    fn tie_break_inputs(n: usize, seed: u64) -> Vec<(&'static str, Vec<Rect>)> {
        let mut rng = StdRng::seed_from_u64(seed);
        let uniform: Vec<Rect> = random_items(n, seed).into_iter().map(|(r, _)| r).collect();
        // Nine distinct centres, each under many extents.
        let duplicate_centres = (0..n)
            .map(|_| {
                let (cx, cy) = (rng.random_range(0..3) as f64, rng.random_range(0..3) as f64);
                let (hx, hy): (f64, f64) = (rng.random_range(0.0..0.5), rng.random_range(0.0..0.5));
                Rect::new(cx - hx, cy - hy, cx + hx, cy + hy)
            })
            .collect();
        // Centres that are +0.0 or -0.0 on either axis: equal under
        // `partial_cmp`, different bit patterns.
        let signed_zeros = (0..n)
            .map(|_| {
                let mut side = || match rng.random_range(0..3) {
                    0 => (-0.0, -0.0),
                    1 => (0.0, 0.0),
                    _ => (-1.0, 1.0),
                };
                let ((lo_x, hi_x), (lo_y, hi_y)) = (side(), side());
                Rect::new(lo_x, lo_y, hi_x, hi_y)
            })
            .collect();
        // `0.5 * (lo + hi)` overflows to ±∞ on a third of the axes each.
        let huge = (0..n)
            .map(|_| {
                let mut side = || match rng.random_range(0..3) {
                    0 => (-f64::MAX, -f64::MAX * rng.random_range(0.6..1.0)),
                    1 => (f64::MAX * rng.random_range(0.6..1.0), f64::MAX),
                    _ => (-f64::MAX, f64::MAX),
                };
                let ((lo_x, hi_x), (lo_y, hi_y)) = (side(), side());
                Rect::new(lo_x, lo_y, hi_x, hi_y)
            })
            .collect();
        vec![
            ("uniform", uniform),
            ("identical", vec![Rect::new(0.25, 0.25, 0.5, 0.75); n]),
            ("duplicate centres", duplicate_centres),
            ("signed zeros", signed_zeros),
            ("centres overflowing to infinity", huge),
        ]
    }

    #[test]
    fn integer_key_build_equals_the_stable_sort_reference() {
        for cap in [4, 8, 32] {
            for n in [0, 1, cap, cap + 1, 1_000, 20_000] {
                for (name, rects) in tie_break_inputs(n, (cap * 31 + n) as u64) {
                    let items = || rects.iter().copied().zip(0usize..).collect::<Vec<_>>();
                    let params = RTreeParams::new(cap);
                    let built = RTree::bulk_load_with_params(params, items());
                    let expected =
                        RTree::pack(params, items().into_iter(), reference::str_partition);
                    assert_eq!(built.height(), expected.height(), "{name}, N {n}, M {cap}");
                    assert_eq!(built.root, expected.root, "{name}, N {n}, M {cap}");
                    assert!(shape(&built) == shape(&expected), "{name}, N {n}, M {cap}");
                    built.check_invariants().unwrap();
                }
            }
        }
    }
}
