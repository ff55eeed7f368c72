//! Structural invariant checking, used heavily by the test suite.

use crate::node::{NodeId, Payload};
use crate::tree::RTree;
use std::collections::HashSet;

impl<T> RTree<T> {
    /// Verifies every structural invariant of the tree:
    ///
    /// 1. node levels decrease by exactly one along child edges, leaves sit
    ///    at level 0 and the root at `height - 1`;
    /// 2. every internal entry's MBR equals (within fp tolerance) the tight
    ///    union of its child's entries;
    /// 3. occupancy: every node holds at most `M` entries and every
    ///    non-root node at least `⌊M/2⌋` (the STR packing bound); an
    ///    internal root holds at least 2;
    /// 4. no node is reachable twice and every stored node is reachable;
    /// 5. the recorded `len` equals the number of reachable data entries.
    ///
    /// Returns a description of the first violation found.
    pub fn check_invariants(&self) -> Result<(), String> {
        let mut seen: HashSet<u32> = HashSet::new();
        let mut data_count = 0usize;

        let root = self.root;
        if self.node(root).level + 1 != self.height {
            return Err(format!(
                "root level {} inconsistent with height {}",
                self.node(root).level,
                self.height
            ));
        }

        let mut stack: Vec<NodeId> = vec![root];
        while let Some(id) = stack.pop() {
            if !seen.insert(id.0) {
                return Err(format!("node {} reachable twice", id.0));
            }
            let node = self.node(id);

            // Occupancy.
            let cap = self.params.max_entries();
            if node.entries.len() > cap {
                return Err(format!(
                    "node {} overflows: {} > M = {cap}",
                    id.0,
                    node.entries.len()
                ));
            }
            if id != root && node.entries.len() < cap / 2 {
                return Err(format!(
                    "node {} underflows: {} < M/2 = {}",
                    id.0,
                    node.entries.len(),
                    cap / 2
                ));
            }
            if id == root && !node.is_leaf() && node.entries.len() < 2 {
                return Err("internal root with fewer than 2 entries".into());
            }

            for (slot, e) in node.entries.iter().enumerate() {
                if !e.mbr.is_finite() && !e.mbr.is_empty() {
                    return Err(format!("node {} slot {slot}: non-finite MBR", id.0));
                }
                match &e.payload {
                    Payload::Data(_) => {
                        if !node.is_leaf() {
                            return Err(format!(
                                "data entry in internal node {} (level {})",
                                id.0, node.level
                            ));
                        }
                        data_count += 1;
                    }
                    Payload::Child(child_id) => {
                        if node.is_leaf() {
                            return Err(format!("child entry in leaf node {}", id.0));
                        }
                        let child = self.node(*child_id);
                        if child.level + 1 != node.level {
                            return Err(format!(
                                "child {} at level {} under parent {} at level {}",
                                child_id.0, child.level, id.0, node.level
                            ));
                        }
                        let tight = child.mbr();
                        if !rects_close(&e.mbr, &tight) {
                            return Err(format!(
                                "stale MBR for child {}: stored {} vs tight {}",
                                child_id.0, e.mbr, tight
                            ));
                        }
                        stack.push(*child_id);
                    }
                }
            }
        }

        if seen.len() != self.nodes.len() {
            return Err(format!(
                "{} of {} stored nodes are unreachable",
                self.nodes.len() - seen.len(),
                self.nodes.len()
            ));
        }
        if data_count != self.len {
            return Err(format!(
                "len mismatch: recorded {}, reachable {}",
                self.len, data_count
            ));
        }
        Ok(())
    }
}

/// Exact equality is expected — MBRs are recomputed as exact unions — but a
/// tiny tolerance guards against platform fp quirks in future refactors.
fn rects_close(a: &mwsj_geom::Rect, b: &mwsj_geom::Rect) -> bool {
    if a.is_empty() && b.is_empty() {
        return true;
    }
    const EPS: f64 = 1e-12;
    (a.min.x - b.min.x).abs() <= EPS
        && (a.min.y - b.min.y).abs() <= EPS
        && (a.max.x - b.max.x).abs() <= EPS
        && (a.max.y - b.max.y).abs() <= EPS
}

#[cfg(test)]
mod proptests {
    use crate::{RTree, RTreeParams};
    use mwsj_geom::Rect;
    use proptest::prelude::*;

    fn arb_rects(max: usize) -> impl Strategy<Value = Vec<Rect>> {
        prop::collection::vec(
            (0.0f64..1.0, 0.0f64..1.0, 0.0f64..0.1, 0.0f64..0.1)
                .prop_map(|(x, y, w, h)| Rect::new(x, y, x + w, y + h)),
            1..max,
        )
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Bulk loading any set of rectangles at any capacity keeps all
        /// invariants and makes every rectangle findable by a window
        /// query on itself.
        #[test]
        fn bulk_load_preserves_invariants(rects in arb_rects(300)) {
            for cap in [4, 8, 32] {
                let tree = RTree::bulk_load_with_params(
                    RTreeParams::new(cap),
                    rects.iter().copied().zip(0usize..).collect(),
                );
                prop_assert!(tree.check_invariants().is_ok());
                for (i, r) in rects.iter().enumerate() {
                    prop_assert!(
                        tree.window(r).any(|(_, v)| *v == i),
                        "rect {i} not found by self-window at capacity {cap}"
                    );
                }
            }
        }
    }
}
