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
//! order, same node accesses for every query.
//!
//! # Three passes
//!
//! 1. **Topology, bottom-up, on positions.** Each level is tiled into
//!    nodes ([`Tiling`]: which entry positions each node holds, in entry
//!    order) and every node's MBR is united in that order; the MBRs are the
//!    entries of the next level up.
//! 2. **Layout, top-down.** A node's place in its level is its entry's
//!    place in the level above, so the final order of a level's nodes is
//!    the concatenation of its parents' member lists in *their* final
//!    order, starting from the root — which makes every node's children
//!    contiguous and turns child ids into positions.
//! 3. **Gather.** In that order each level's rectangles — and, on the leaf
//!    level, the payloads — are copied once into their arrays, each
//!    collected from an exact-size iterator straight into its shared
//!    allocation.

use crate::params::RTreeParams;
use crate::tree::{Level, RTree};
use mwsj_geom::Rect;

/// How one level's entries fall into nodes, by entry position.
struct Tiling {
    /// Entry positions, node after node, each node's in entry order.
    members: Vec<u32>,
    /// Node `k` holds `members[start[k]..start[k + 1]]`.
    start: Vec<u32>,
}

impl Tiling {
    /// All `n` entries in one node, in position order: the root.
    fn single(n: usize) -> Self {
        Tiling {
            members: (0..n as u32).collect(),
            start: vec![0, n as u32],
        }
    }

    fn nodes(&self) -> usize {
        self.start.len() - 1
    }

    fn members_of(&self, node: u32) -> &[u32] {
        &self.members[self.start[node as usize] as usize..self.start[node as usize + 1] as usize]
    }
}

impl<T: Copy> RTree<T> {
    /// Builds a tree over `items` using STR packing and default parameters.
    pub fn bulk_load(items: Vec<(Rect, T)>) -> Self {
        Self::bulk_load_with_params(RTreeParams::default(), items)
    }

    /// Builds a tree over `items` using STR packing.
    pub fn bulk_load_with_params(params: RTreeParams, items: Vec<(Rect, T)>) -> Self {
        Self::pack(params, items.len(), |i| items[i].0, |i| items[i].1)
    }

    /// Packs the `n` items `(rect_at(i), value_at(i))` (see the module docs
    /// for the passes); an empty input yields a single empty leaf as root.
    fn pack(
        params: RTreeParams,
        n: usize,
        rect_at: impl Fn(usize) -> Rect,
        value_at: impl Fn(usize) -> T,
    ) -> Self {
        assert!(u32::try_from(n).is_ok(), "more than u32::MAX entries");
        debug_assert!((0..n).all(|i| rect_at(i).is_finite()));
        let cap = params.max_entries();

        // Pass 1. `mbrs[l]` are the node MBRs of level `l` in the order the
        // tiling made them: the entries of level `l + 1`.
        let mut tilings: Vec<Tiling> = Vec::new();
        let mut mbrs: Vec<Vec<Rect>> = Vec::new();
        let mut count = n;
        while count > cap {
            let (tiling, node_mbrs) = match mbrs.last() {
                None => tile(count, cap, &rect_at),
                Some(below) => tile(count, cap, |i| below[i]),
            };
            count = tiling.nodes();
            tilings.push(tiling);
            mbrs.push(node_mbrs);
        }
        tilings.push(Tiling::single(count));

        // Passes 2 and 3, from the root down. `order` lists the level's
        // nodes, by tiling position, in their final order.
        let mut levels: Vec<Level> = Vec::with_capacity(tilings.len());
        let mut order: Vec<u32> = vec![0];
        for (level, tiling) in tilings.iter().enumerate().rev() {
            let mut start = Vec::with_capacity(order.len() + 1);
            let mut entries: Vec<u32> = Vec::with_capacity(tiling.members.len());
            start.push(0);
            for &node in &order {
                entries.extend_from_slice(tiling.members_of(node));
                start.push(entries.len() as u32);
            }
            let rects = match level.checked_sub(1) {
                None => entries.iter().map(|&p| rect_at(p as usize)).collect(),
                Some(below) => entries.iter().map(|&p| mbrs[below][p as usize]).collect(),
            };
            levels.push(Level { rects, start });
            order = entries;
        }
        levels.reverse();
        let values = order.iter().map(|&p| value_at(p as usize)).collect();
        RTree {
            params,
            levels,
            values,
        }
    }
}

impl RTree<u32> {
    /// STR packing with default parameters over rectangles held in a slice,
    /// each stored with its position in the slice as payload — for callers
    /// that would only build the item `Vec` of [`RTree::bulk_load`] to hand
    /// it over.
    pub fn from_rects(rects: &[Rect]) -> Self {
        Self::pack(
            RTreeParams::default(),
            rects.len(),
            |i| rects[i],
            |i| i as u32,
        )
    }
}

/// Tiles `n > cap` entries into nodes and unites each node's MBR, in entry
/// order.
fn tile(n: usize, cap: usize, rect_at: impl Fn(usize) -> Rect) -> (Tiling, Vec<Rect>) {
    let tiling = str_tiling(n, cap, &rect_at);
    let mbrs = (0..tiling.nodes() as u32)
        .map(|node| {
            let members = tiling.members_of(node).iter();
            members.fold(Rect::EMPTY, |acc, &p| acc.union(&rect_at(p as usize)))
        })
        .collect();
    (tiling, mbrs)
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

/// Tiles `n` entries into nodes of at most `cap` using the STR tiling (see
/// the module docs for the two orders).
///
/// Node sizes are distributed evenly (instead of filling nodes to `cap`
/// and leaving a short tail), which guarantees every node holds at least
/// `⌊cap/2⌋` members — the occupancy bound [`RTree::check_invariants`]
/// verifies.
fn str_tiling(n: usize, cap: usize, rect_at: impl Fn(usize) -> Rect) -> Tiling {
    debug_assert!(n > cap);
    let node_count = n.div_ceil(cap);
    let slice_count = (node_count as f64).sqrt().ceil() as usize;

    // Vertical slices by (x-center, input position).
    let mut by_x: Vec<(u64, u32)> = (0..n as u32)
        .map(|position| (sort_key(rect_at(position as usize).center().x), position))
        .collect();
    by_x.sort_unstable();
    // Within a slice, horizontal runs by (y-center, rank in the x-order).
    let mut by_y: Vec<(u64, u32)> = by_x
        .iter()
        .zip(0u32..)
        .map(|(&(_, position), rank)| (sort_key(rect_at(position as usize).center().y), rank))
        .collect();

    let mut members = Vec::with_capacity(n);
    let mut start = Vec::with_capacity(node_count + 1);
    start.push(0);
    let mut rest = by_y.as_mut_slice();
    for slice_len in even_sizes(n, slice_count) {
        let (slice, tail) = rest.split_at_mut(slice_len);
        rest = tail;
        slice.sort_unstable();
        let slice_start = members.len();
        members.extend(slice.iter().map(|&(_, rank)| by_x[rank as usize].1));
        let mut end = slice_start;
        for node_len in even_sizes(slice_len, slice_len.div_ceil(cap)) {
            end += node_len;
            start.push(end as u32);
        }
    }
    Tiling { members, start }
}

#[cfg(test)]
mod reference {
    //! The loader as it was before the packed layout and before the integer
    //! keys: a vector of nodes that own their entries and name their
    //! children by id, tiled by stable sorts that compare entries by
    //! recomputed centers and chunk by drain-and-collect. The equality test
    //! below holds the packed build to it node for node.

    use mwsj_geom::Rect;

    pub(super) enum Payload {
        Child(usize),
        Data(usize),
    }

    pub(super) struct Entry {
        pub mbr: Rect,
        pub payload: Payload,
    }

    pub(super) struct Node {
        pub level: u32,
        pub entries: Vec<Entry>,
    }

    /// The node vector and the root's id.
    pub(super) fn pack(items: Vec<(Rect, usize)>, cap: usize) -> (Vec<Node>, usize) {
        let mut nodes: Vec<Node> = Vec::new();
        let mut level = 0u32;
        let mut current: Vec<Entry> = items
            .into_iter()
            .map(|(mbr, v)| Entry {
                mbr,
                payload: Payload::Data(v),
            })
            .collect();
        while current.len() > cap {
            let mut parents = Vec::new();
            for entries in str_partition(current, cap) {
                parents.push(Entry {
                    mbr: Rect::union_all(entries.iter().map(|e| &e.mbr)),
                    payload: Payload::Child(nodes.len()),
                });
                nodes.push(Node { level, entries });
            }
            current = parents;
            level += 1;
        }
        nodes.push(Node {
            level,
            entries: current,
        });
        let root = nodes.len() - 1;
        (nodes, root)
    }

    fn str_partition(mut entries: Vec<Entry>, cap: usize) -> Vec<Vec<Entry>> {
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
    use crate::multiwindow::tests::window_hits;
    use crate::{NodeRef, RTree, RTreeParams};
    use mwsj_geom::{Predicate, Rect};
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
            let mut got = window_hits(&tree, Predicate::Intersects, &window);
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

    /// Holds `node` and everything below it to the reference node `id`:
    /// level, entry order, MBR bits and payloads.
    fn assert_same_subtree(node: NodeRef<'_, usize>, nodes: &[reference::Node], id: usize) {
        let bits = |r: &Rect| [r.min.x, r.min.y, r.max.x, r.max.y].map(f64::to_bits);
        let expected = &nodes[id];
        assert_eq!(node.level(), expected.level);
        assert_eq!(node.len(), expected.entries.len());
        for (entry, want) in node.entries().zip(&expected.entries) {
            assert_eq!(bits(entry.mbr()), bits(&want.mbr));
            match want.payload {
                reference::Payload::Data(v) => assert_eq!(entry.value(), Some(&v)),
                reference::Payload::Child(child) => {
                    assert_same_subtree(entry.child().expect("internal entry"), nodes, child)
                }
            }
        }
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
    fn packed_build_equals_the_node_vector_reference() {
        for cap in [4, 8, 32] {
            for n in [0, 1, cap, cap + 1, 1_000, 20_000] {
                for (name, rects) in tie_break_inputs(n, (cap * 31 + n) as u64) {
                    let items = || rects.iter().copied().zip(0usize..).collect::<Vec<_>>();
                    let built = RTree::bulk_load_with_params(RTreeParams::new(cap), items());
                    let (nodes, root) = reference::pack(items(), cap);
                    let what = format!("{name}, N {n}, M {cap}");
                    assert_eq!(built.node_count(), nodes.len(), "{what}");
                    assert_eq!(built.height(), nodes[root].level + 1, "{what}");
                    assert_same_subtree(built.root_node(), &nodes, root);
                    built.check_invariants().unwrap();
                }
            }
        }
    }

    /// The slice constructor builds the tree `bulk_load` builds from the
    /// same rectangles paired with their positions.
    #[test]
    fn from_rects_equals_bulk_load_of_positions() {
        let rects: Vec<Rect> = random_items(5_000, 9).into_iter().map(|(r, _)| r).collect();
        let sliced = RTree::from_rects(&rects);
        let loaded = RTree::bulk_load(rects.iter().copied().zip(0u32..).collect());
        assert_eq!(sliced.leaf_values(), loaded.leaf_values());
        for (a, b) in sliced.levels.iter().zip(&loaded.levels) {
            assert_eq!(a.start, b.start);
            assert_eq!(a.rects, b.rects);
        }
        // Leaf order pairs every rectangle with the position it came from.
        for (rect, &position) in sliced.iter() {
            assert_eq!(*rect, rects[position as usize]);
        }
    }
}
