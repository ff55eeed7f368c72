//! Pairwise R-tree spatial join (Brinkhoff, Kriegel & Seeger, SIGMOD 1993).
//!
//! Synchronous depth-first traversal of two R-trees producing all pairs of
//! objects whose MBRs intersect. This is the building block of the
//! pairwise join method ([`crate::Pjm`]) against which the paper positions
//! its multiway algorithms, and of the support bits of an instance and its
//! arc-consistency pass, whose build stops a join that outgrows its cap
//! ([`PairwiseJoin::visit`]).
//!
//! Every node pair of one level is first cut to the entries that meet the
//! other node's MBR. A pair of leaves, where nearly all of a join's
//! rectangle tests fall, then goes through a column kernel: the right
//! leaf's survivors are copied into four coordinate columns, and each
//! survivor of the left leaf first counts its hits over them as a plain
//! sum, which LLVM vectorises, and looks for the hits only when the count
//! is not zero. Both cuts and that scan keep entry order, so the pairs,
//! their order, the node reads and the point where a `visit` break stops
//! the join are those of the plain nested loop over the two nodes.

use mwsj_geom::Rect;
use mwsj_rtree::{NodeRef, RTree};
use std::ops::ControlFlow;

/// Result of a pairwise join: matching object id pairs plus node-access
/// counters.
#[derive(Debug, Clone, Default)]
pub struct PairwiseJoin {
    /// Matching `(left object, right object)` pairs.
    pub pairs: Vec<(u32, u32)>,
    /// R-tree nodes visited across both trees.
    pub node_accesses: u64,
}

impl PairwiseJoin {
    /// Joins two R-trees on MBR intersection.
    pub fn join(left: &RTree<u32>, right: &RTree<u32>) -> PairwiseJoin {
        let mut pairs = Vec::new();
        let (node_accesses, _) = Self::visit(left, right, |a, b| {
            pairs.push((a, b));
            ControlFlow::Continue(())
        });
        PairwiseJoin {
            pairs,
            node_accesses,
        }
    }

    /// Hands every pair [`PairwiseJoin::join`] would return to `visit`, in
    /// the same order, until `visit` breaks. Returns the nodes read and
    /// whether the join ran to its end (`false`: `visit` broke, and no node
    /// was entered after that).
    pub fn visit(
        left: &RTree<u32>,
        right: &RTree<u32>,
        visit: impl FnMut(u32, u32) -> ControlFlow<()>,
    ) -> (u64, bool) {
        if left.is_empty() || right.is_empty() {
            return (0, true);
        }
        let mut join = Join {
            visit,
            node_accesses: 2,
            stopped: false,
            survivors: Vec::new(),
            leaves: Leaves::default(),
        };
        join.pair(
            Cursor::Node(left.root_node(), left.bounding_box()),
            Cursor::Node(right.root_node(), right.bounding_box()),
        );
        (join.node_accesses, !join.stopped)
    }
}

/// Either a subtree still being descended, with its MBR — the rectangle of
/// the entry that led to it, the tree's bounding box for a root — or an
/// already-fixed data object (needed when the two trees have different
/// heights).
#[derive(Clone, Copy)]
enum Cursor<'a> {
    Node(NodeRef<'a, u32>, Rect),
    Data(u32, &'a Rect),
}

/// One join in progress: where its pairs go, the nodes it read, whether
/// `visit` stopped it, the entry positions that survived the restriction
/// of every node pair on the current descent path (a stack: a node pair
/// pushes its two lists and pops them when it is done) and the leaf-pair
/// kernel's scratch. The whole join allocates only while these grow.
struct Join<F> {
    visit: F,
    node_accesses: u64,
    stopped: bool,
    survivors: Vec<u32>,
    leaves: Leaves,
}

/// Scratch of [`Join::leaf_pair`]: the positions of the `a` survivors, and
/// the `b` survivors as positions plus four coordinate columns. Each vector
/// grows to the largest leaf seen and is never cleared: a leaf pair writes
/// the prefix it reads.
#[derive(Default)]
struct Leaves {
    a: Vec<u32>,
    b: Vec<u32>,
    lo_x: Vec<f64>,
    hi_x: Vec<f64>,
    lo_y: Vec<f64>,
    hi_y: Vec<f64>,
}

impl Leaves {
    /// Cuts `ra` to the positions meeting `mb` and `rb` to the columns
    /// meeting `ma`, both in entry order. Branch-free: every position is
    /// written, and the end advances only on a hit.
    #[inline]
    fn cut<'s>(
        &'s mut self,
        ra: &[Rect],
        mb: &Rect,
        rb: &[Rect],
        ma: &Rect,
    ) -> (&'s [u32], Columns<'s>) {
        let len = ra.len().max(rb.len());
        if self.a.len() < len {
            self.a.resize(len, 0);
            self.b.resize(len, 0);
            for column in [
                &mut self.lo_x,
                &mut self.hi_x,
                &mut self.lo_y,
                &mut self.hi_y,
            ] {
                column.resize(len, 0.0);
            }
        }
        // Sliced to the leaves' lengths, so one bound covers each loop's
        // writes.
        let (a, b) = (&mut self.a[..ra.len()], &mut self.b[..rb.len()]);
        let (lo_x, hi_x) = (&mut self.lo_x[..rb.len()], &mut self.hi_x[..rb.len()]);
        let (lo_y, hi_y) = (&mut self.lo_y[..rb.len()], &mut self.hi_y[..rb.len()]);
        let mut ka = 0;
        for (i, r) in (0u32..).zip(ra) {
            a[ka] = i;
            ka += usize::from(r.intersects(mb));
        }
        let mut kb = 0;
        for (j, r) in (0u32..).zip(rb) {
            b[kb] = j;
            lo_x[kb] = r.min.x;
            hi_x[kb] = r.max.x;
            lo_y[kb] = r.min.y;
            hi_y[kb] = r.max.y;
            kb += usize::from(r.intersects(ma));
        }
        let columns = Columns {
            positions: &b[..kb],
            lo_x: &lo_x[..kb],
            hi_x: &hi_x[..kb],
            lo_y: &lo_y[..kb],
            hi_y: &hi_y[..kb],
        };
        (&a[..ka], columns)
    }
}

/// The `b` survivors of a leaf pair, one slice per coordinate.
struct Columns<'s> {
    positions: &'s [u32],
    lo_x: &'s [f64],
    hi_x: &'s [f64],
    lo_y: &'s [f64],
    hi_y: &'s [f64],
}

impl Columns<'_> {
    /// How many survivors `r` meets: a plain sum over the columns, with no
    /// branch per entry, so LLVM vectorises it.
    #[inline]
    fn count(&self, r: &Rect) -> u32 {
        let x = self.lo_x.iter().zip(self.hi_x);
        let y = self.lo_y.iter().zip(self.hi_y);
        let meets = |((lo_x, hi_x), (lo_y, hi_y)): ((&f64, &f64), (&f64, &f64))| {
            (r.min.x <= *hi_x) & (*lo_x <= r.max.x) & (r.min.y <= *hi_y) & (*lo_y <= r.max.y)
        };
        x.zip(y).map(|c| u32::from(meets(c))).sum()
    }
}

impl<F: FnMut(u32, u32) -> ControlFlow<()>> Join<F> {
    fn pair(&mut self, a: Cursor<'_>, b: Cursor<'_>) {
        match (a, b) {
            (Cursor::Data(..), Cursor::Data(..)) => {
                unreachable!("`descend` reports a pair of objects itself")
            }
            (Cursor::Node(na, _), Cursor::Data(_, rb)) => {
                for ea in na.entries().filter(|e| e.mbr().intersects(rb)) {
                    self.descend(cursor_of(ea), b, 1);
                }
            }
            (Cursor::Data(_, ra), Cursor::Node(nb, _)) => {
                for eb in nb.entries().filter(|e| ra.intersects(e.mbr())) {
                    self.descend(a, cursor_of(eb), 1);
                }
            }
            // Descend the taller tree alone — the classic strategy for
            // trees of different heights.
            (Cursor::Node(na, _), Cursor::Node(nb, mb)) if na.level() > nb.level() => {
                for ea in na.entries().filter(|e| e.mbr().intersects(&mb)) {
                    self.descend(cursor_of(ea), b, 1);
                }
            }
            (Cursor::Node(na, ma), Cursor::Node(nb, _)) if nb.level() > na.level() => {
                for eb in nb.entries().filter(|e| e.mbr().intersects(&ma)) {
                    self.descend(a, cursor_of(eb), 1);
                }
            }
            (Cursor::Node(na, ma), Cursor::Node(nb, mb)) => self.node_pair(na, &ma, nb, &mb),
        }
    }

    /// Joins one qualifying entry pair: a result when both sides are data,
    /// otherwise the `read` nodes it opens are counted and joined.
    fn descend(&mut self, a: Cursor<'_>, b: Cursor<'_>, read: u64) {
        if self.stopped {
            return;
        }
        if let (Cursor::Data(va, _), Cursor::Data(vb, _)) = (a, b) {
            self.stopped = (self.visit)(va, vb).is_break();
        } else {
            self.node_accesses += read;
            self.pair(a, b);
        }
    }

    /// Two nodes of one level (\[BKS93\]'s search-space restriction): only an
    /// entry that meets the *other* node's MBR can meet one of its entries,
    /// so each side is cut to those entries first — of 32 × 32 entry pairs,
    /// about 8 × 8 are left to test. The survivors are joined in entry
    /// order, so the qualifying entry pairs, their order and the node pairs
    /// entered are those of the plain nested loop. Two leaves go to
    /// [`Join::leaf_pair`].
    fn node_pair(&mut self, na: NodeRef<'_, u32>, ma: &Rect, nb: NodeRef<'_, u32>, mb: &Rect) {
        if na.is_leaf() {
            return self.leaf_pair(na, ma, nb, mb);
        }
        let (ra, rb) = (na.rects(), nb.rects());
        let base = self.survivors.len();
        self.survivors.extend(positions_meeting(ra, mb));
        let mid = self.survivors.len();
        self.survivors.extend(positions_meeting(rb, ma));
        let end = self.survivors.len();
        for i in base..mid {
            let ia = self.survivors[i] as usize;
            for j in mid..end {
                let ib = self.survivors[j] as usize;
                if ra[ia].intersects(&rb[ib]) {
                    self.descend(cursor_of(na.entry(ia)), cursor_of(nb.entry(ib)), 2);
                }
            }
        }
        self.survivors.truncate(base);
    }

    /// Two leaves, restricted as in [`Join::node_pair`], with the `b`
    /// survivors as columns ([`Leaves::cut`]). Each `a` survivor counts its
    /// hits over all the columns first; a count of zero, the common case,
    /// ends it without a branch per entry, and otherwise the `b` survivors
    /// are scanned in entry order until that many hits went to `visit`. So
    /// the pairs come in the nested loop's order, a `visit` break stops the
    /// join at the nested loop's pair, and a pair of objects reads no node.
    fn leaf_pair(&mut self, na: NodeRef<'_, u32>, ma: &Rect, nb: NodeRef<'_, u32>, mb: &Rect) {
        let (ra, rb) = (na.rects(), nb.rects());
        let (va, vb) = (na.values(), nb.values());
        let (a, b) = self.leaves.cut(ra, mb, rb, ma);
        for &ia in a {
            let r = &ra[ia as usize];
            let mut hits = b.count(r);
            for &ib in b.positions {
                if hits == 0 {
                    break;
                }
                if r.intersects(&rb[ib as usize]) {
                    hits -= 1;
                    if (self.visit)(va[ia as usize], vb[ib as usize]).is_break() {
                        self.stopped = true;
                        return;
                    }
                }
            }
        }
    }
}

/// Positions of the `rects` that intersect `other`, ascending.
fn positions_meeting<'a>(rects: &'a [Rect], other: &'a Rect) -> impl Iterator<Item = u32> + 'a {
    let hits = rects
        .iter()
        .zip(0u32..)
        .filter(|(r, _)| r.intersects(other));
    hits.map(|(_, i)| i)
}

fn cursor_of<'a>(entry: mwsj_rtree::EntryRef<'a, u32>) -> Cursor<'a> {
    match entry.child() {
        Some(node) => Cursor::Node(node, *entry.mbr()),
        None => Cursor::Data(*entry.value().expect("leaf entry"), entry.mbr()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mwsj_datagen::Dataset;
    use mwsj_rtree::RTreeParams;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn tree_of(rects: &[Rect], cap: usize) -> RTree<u32> {
        RTree::bulk_load_with_params(
            RTreeParams::new(cap),
            rects.iter().copied().zip(0u32..).collect(),
        )
    }

    /// The join before restriction, kept as the reference: every entry of
    /// one node against every entry of the other. Returns the pairs in the
    /// order found and the nodes read.
    fn unrestricted(a: NodeRef<'_, u32>, b: NodeRef<'_, u32>, out: &mut (Vec<(u32, u32)>, u64)) {
        if a.level() > b.level() {
            for ea in a.entries().filter(|e| e.mbr().intersects(&b.mbr())) {
                out.1 += 1;
                unrestricted(ea.child().unwrap(), b, out);
            }
        } else if b.level() > a.level() {
            for eb in b.entries().filter(|e| e.mbr().intersects(&a.mbr())) {
                out.1 += 1;
                unrestricted(a, eb.child().unwrap(), out);
            }
        } else {
            for ea in a.entries() {
                for eb in b.entries().filter(|e| ea.mbr().intersects(e.mbr())) {
                    match (ea.child(), eb.child()) {
                        (Some(ca), Some(cb)) => {
                            out.1 += 2;
                            unrestricted(ca, cb, out);
                        }
                        _ => out.0.push((*ea.value().unwrap(), *eb.value().unwrap())),
                    }
                }
            }
        }
    }

    /// Asserts that the join of the two layouts returns the pair multiset
    /// of nested loops over the rectangles, in the order and with the node
    /// reads of [`unrestricted`].
    fn assert_join_is_exact(name: &str, left: &[Rect], right: &[Rect], cap: usize) {
        let (tl, tr) = (tree_of(left, cap), tree_of(right, cap));
        let got = PairwiseJoin::join(&tl, &tr);
        let mut reference = (Vec::new(), 2);
        unrestricted(tl.root_node(), tr.root_node(), &mut reference);
        assert_eq!(got.pairs, reference.0, "{name}, capacity {cap}: pairs");
        assert_eq!(got.node_accesses, reference.1, "{name}, capacity {cap}");
        let mut sorted = got.pairs;
        sorted.sort_unstable();
        let mut expected = Vec::new();
        for (i, ra) in left.iter().enumerate() {
            let hits = right.iter().enumerate().filter(|(_, rb)| ra.intersects(rb));
            expected.extend(hits.map(|(j, _)| (i as u32, j as u32)));
        }
        assert_eq!(
            sorted, expected,
            "{name}, capacity {cap}: against nested loops"
        );
    }

    #[test]
    fn join_equals_nested_loops_and_the_unrestricted_reference() {
        let mut rng = StdRng::seed_from_u64(111);
        let mut uniform = |n, density| Dataset::uniform(n, density, &mut rng).rects().to_vec();
        let (a, b) = (uniform(500, 0.2), uniform(700, 0.2));
        let (small, large) = (uniform(10, 0.3), uniform(3_000, 0.3));
        // Unit squares tiling a square: every neighbour touches on an edge
        // or in a corner, and so do the node MBRs above them.
        let tiles: Vec<Rect> = (0..400)
            .map(|i| ((i % 20) as f64, (i / 20) as f64))
            .map(|(x, y)| Rect::new(x, y, x + 1.0, y + 1.0))
            .collect();
        let duplicates = vec![Rect::new(0.3, 0.3, 0.4, 0.5); 200];
        let zero_width: Vec<Rect> = a
            .iter()
            .map(|r| Rect::new(r.min.x, r.min.y, r.min.x, r.max.y))
            .collect();
        let cases: [(&str, &[Rect], &[Rect]); 7] = [
            ("uniform", &a, &b),
            ("a short and a tall tree", &small, &large),
            ("a tall and a short tree", &large, &small),
            ("touching tiles", &tiles, &tiles),
            ("duplicates", &duplicates, &a),
            ("duplicates on both sides", &duplicates, &duplicates),
            ("zero width", &zero_width, &b),
        ];
        for (name, left, right) in cases {
            for cap in [4, 32, 64] {
                assert_join_is_exact(name, left, right, cap);
            }
        }
        assert!(tree_of(&large, 4).height() > tree_of(&small, 4).height());
    }

    proptest::proptest! {
        /// The same equality on drawn layouts: any two sizes (so any two
        /// heights), entry extent and node capacity. The capacities run to
        /// 96, so the leaf kernel's scratch meets leaves of many lengths,
        /// and grows within a join wherever a leaf pair is longer than
        /// every one before it.
        #[test]
        fn join_is_exact_on_drawn_layouts(
            seed in proptest::prelude::any::<u64>(),
            sizes in (2usize..400, 2usize..400),
            density in 0.0f64..0.8,
            cap in 4usize..=96,
        ) {
            let mut rng = StdRng::seed_from_u64(seed);
            let left = Dataset::uniform(sizes.0, density, &mut rng);
            let right = Dataset::uniform(sizes.1, density, &mut rng);
            assert_join_is_exact("drawn", left.rects(), right.rects(), cap);
        }
    }

    /// The leaf of every object of `tree`, leaves numbered in visit order.
    fn leaf_of(tree: &RTree<u32>) -> Vec<usize> {
        fn walk(node: NodeRef<'_, u32>, leaves: &mut usize, out: &mut [usize]) {
            if node.is_leaf() {
                for &v in node.values() {
                    out[v as usize] = *leaves;
                }
                *leaves += 1;
            } else {
                for e in node.entries() {
                    walk(e.child().unwrap(), leaves, out);
                }
            }
        }
        let mut out = vec![0; tree.len()];
        walk(tree.root_node(), &mut 0, &mut out);
        out
    }

    /// `visit` hands out the pairs of `join` in its order; broken after
    /// `k` pairs, it has handed out the first `k`, reports the join cut
    /// short and has read no more nodes than the whole join. One break
    /// falls between two pairs of one object and one leaf pair, where the
    /// leaf kernel is mid-scan.
    #[test]
    fn a_visit_stops_where_it_is_told() {
        let mut rng = StdRng::seed_from_u64(112);
        let left = tree_of(Dataset::uniform(400, 0.3, &mut rng).rects(), 8);
        let right = tree_of(Dataset::uniform(300, 0.3, &mut rng).rects(), 8);
        let whole = PairwiseJoin::join(&left, &right);
        assert!(whole.pairs.len() > 10);
        let leaf = leaf_of(&right);
        let mid_scan = (1..whole.pairs.len())
            .find(|&k| {
                let ((a0, b0), (a1, b1)) = (whole.pairs[k - 1], whole.pairs[k]);
                a0 == a1 && leaf[b0 as usize] == leaf[b1 as usize]
            })
            .expect("an object with two partners in one leaf");
        for k in [0, 1, 10, mid_scan, whole.pairs.len()] {
            let mut seen = Vec::new();
            let (accesses, complete) = PairwiseJoin::visit(&left, &right, |a, b| {
                if seen.len() == k {
                    return ControlFlow::Break(());
                }
                seen.push((a, b));
                ControlFlow::Continue(())
            });
            assert_eq!(seen, whole.pairs[..k], "k = {k}");
            assert_eq!(complete, k == whole.pairs.len(), "k = {k}");
            assert!(accesses <= whole.node_accesses);
        }
    }

    #[test]
    fn empty_inputs_yield_empty_result() {
        let empty: RTree<u32> = RTree::bulk_load(Vec::new());
        let mut rng = StdRng::seed_from_u64(113);
        let d = Dataset::uniform(10, 0.2, &mut rng);
        let t = tree_of(d.rects(), 8);
        assert!(PairwiseJoin::join(&empty, &t).pairs.is_empty());
        assert!(PairwiseJoin::join(&t, &empty).pairs.is_empty());
    }

    #[test]
    fn disjoint_datasets_produce_no_pairs() {
        let left = vec![Rect::new(0.0, 0.0, 0.1, 0.1)];
        let right = vec![Rect::new(0.9, 0.9, 1.0, 1.0)];
        let res = PairwiseJoin::join(&tree_of(&left, 4), &tree_of(&right, 4));
        assert!(res.pairs.is_empty());
    }
}
