//! Pairwise R-tree spatial join (Brinkhoff, Kriegel & Seeger, SIGMOD 1993).
//!
//! Synchronous depth-first traversal of two R-trees producing all pairs of
//! objects whose MBRs intersect. This is the building block of the
//! pairwise join method ([`crate::Pjm`]) against which the paper positions
//! its multiway algorithms.

use mwsj_geom::Rect;
use mwsj_rtree::{NodeRef, RTree};

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
        let mut result = PairwiseJoin::default();
        if left.is_empty() || right.is_empty() {
            return result;
        }
        result.node_accesses = 2;
        join_rec(
            Cursor::Node(left.root_node()),
            Cursor::Node(right.root_node()),
            &mut result,
        );
        result
    }
}

/// Either a subtree still being descended or an already-fixed data object
/// (needed when the two trees have different heights).
enum Cursor<'a> {
    Node(NodeRef<'a, u32>),
    Data(u32, &'a Rect),
}

fn join_rec(a: Cursor<'_>, b: Cursor<'_>, out: &mut PairwiseJoin) {
    match (a, b) {
        (Cursor::Data(va, ra), Cursor::Data(vb, rb)) => {
            if ra.intersects(rb) {
                out.pairs.push((va, vb));
            }
        }
        (Cursor::Node(na), Cursor::Data(vb, rb)) => {
            for ea in na.entries() {
                if ea.mbr().intersects(rb) {
                    match ea.child() {
                        Some(child) => {
                            out.node_accesses += 1;
                            join_rec(Cursor::Node(child), Cursor::Data(vb, rb), out);
                        }
                        None => out.pairs.push((*ea.value().expect("leaf"), vb)),
                    }
                }
            }
        }
        (Cursor::Data(va, ra), Cursor::Node(nb)) => {
            for eb in nb.entries() {
                if ra.intersects(eb.mbr()) {
                    match eb.child() {
                        Some(child) => {
                            out.node_accesses += 1;
                            join_rec(Cursor::Data(va, ra), Cursor::Node(child), out);
                        }
                        None => out.pairs.push((va, *eb.value().expect("leaf"))),
                    }
                }
            }
        }
        (Cursor::Node(na), Cursor::Node(nb)) => {
            // Descend the taller tree (or both when equal) — the classic
            // strategy for trees of different heights.
            if na.level() > nb.level() {
                for ea in na.entries() {
                    if ea.mbr().intersects(&nb.mbr()) {
                        out.node_accesses += 1;
                        join_rec(cursor_of(ea), Cursor::Node(nb), out);
                    }
                }
            } else if nb.level() > na.level() {
                for eb in nb.entries() {
                    if eb.mbr().intersects(&na.mbr()) {
                        out.node_accesses += 1;
                        join_rec(Cursor::Node(na), cursor_of(eb), out);
                    }
                }
            } else {
                for ea in na.entries() {
                    for eb in nb.entries() {
                        if ea.mbr().intersects(eb.mbr()) {
                            match (ea.child(), eb.child()) {
                                (None, None) => out
                                    .pairs
                                    .push((*ea.value().expect("leaf"), *eb.value().expect("leaf"))),
                                _ => {
                                    out.node_accesses += 2;
                                    join_rec(cursor_of(ea), cursor_of(eb), out);
                                }
                            }
                        }
                    }
                }
            }
        }
    }
}

fn cursor_of<'a>(entry: mwsj_rtree::EntryRef<'a, u32>) -> Cursor<'a> {
    match entry.child() {
        Some(node) => Cursor::Node(node),
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

    #[test]
    fn join_matches_nested_loops() {
        let mut rng = StdRng::seed_from_u64(111);
        let a = Dataset::uniform(500, 0.2, &mut rng);
        let b = Dataset::uniform(700, 0.2, &mut rng);
        let ta = tree_of(a.rects(), 8);
        let tb = tree_of(b.rects(), 8);
        let mut got = PairwiseJoin::join(&ta, &tb).pairs;
        got.sort_unstable();
        let mut expected = Vec::new();
        for (i, ra) in a.rects().iter().enumerate() {
            for (j, rb) in b.rects().iter().enumerate() {
                if ra.intersects(rb) {
                    expected.push((i as u32, j as u32));
                }
            }
        }
        expected.sort_unstable();
        assert_eq!(got, expected);
    }

    #[test]
    fn join_with_different_heights() {
        let mut rng = StdRng::seed_from_u64(112);
        let small = Dataset::uniform(10, 0.3, &mut rng);
        let large = Dataset::uniform(3_000, 0.3, &mut rng);
        let ts = tree_of(small.rects(), 4);
        let tl = tree_of(large.rects(), 4);
        assert!(tl.height() > ts.height());
        let mut got = PairwiseJoin::join(&ts, &tl).pairs;
        got.sort_unstable();
        let mut expected = Vec::new();
        for (i, ra) in small.rects().iter().enumerate() {
            for (j, rb) in large.rects().iter().enumerate() {
                if ra.intersects(rb) {
                    expected.push((i as u32, j as u32));
                }
            }
        }
        expected.sort_unstable();
        assert_eq!(got, expected);
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
