//! Structural invariant checking, used heavily by the test suite.

use crate::tree::RTree;
use mwsj_geom::Rect;

impl<T> RTree<T> {
    /// Verifies every structural invariant of the tree:
    ///
    /// 1. every level's `start` table begins at 0, never decreases and ends
    ///    at the level's entry count; the top level is one node (the root)
    ///    and every other level has exactly as many nodes as the level
    ///    above has entries — so each node is the child of one entry,
    ///    reachable once, one level below its parent;
    /// 2. every internal entry's MBR equals (within fp tolerance) the tight
    ///    union of its child's entries;
    /// 3. occupancy: every node holds at most `M` entries and every
    ///    non-root node at least `⌊M/2⌋` (the STR packing bound); an
    ///    internal root holds at least 2;
    /// 4. the leaf level carries one payload per rectangle.
    ///
    /// Returns a description of the first violation found.
    pub fn check_invariants(&self) -> Result<(), String> {
        let cap = self.params.max_entries();
        let Some(top) = self.levels.len().checked_sub(1) else {
            return Err("no levels".into());
        };
        for (lvl, level) in self.levels.iter().enumerate() {
            let starts = &level.start;
            if starts.first() != Some(&0)
                || starts.last().map(|&end| end as usize) != Some(level.rects.len())
                || starts.windows(2).any(|w| w[0] > w[1])
            {
                return Err(format!(
                    "level {lvl}: start table does not tile its {} entries",
                    level.rects.len()
                ));
            }
            let expected_nodes = match self.levels.get(lvl + 1) {
                Some(above) => above.rects.len(),
                None => 1,
            };
            if level.nodes() != expected_nodes {
                return Err(format!(
                    "level {lvl}: {} nodes under {expected_nodes} parent entries",
                    level.nodes()
                ));
            }
            for node in 0..level.nodes() {
                let entries = &level.rects[level.span(node)];
                if entries.len() > cap {
                    return Err(format!(
                        "level {lvl} node {node} overflows: {} > M = {cap}",
                        entries.len()
                    ));
                }
                if lvl != top && entries.len() < cap / 2 {
                    return Err(format!(
                        "level {lvl} node {node} underflows: {} < M/2 = {}",
                        entries.len(),
                        cap / 2
                    ));
                }
                if lvl == top && lvl > 0 && entries.len() < 2 {
                    return Err("internal root with fewer than 2 entries".into());
                }
                if let Some(slot) = entries
                    .iter()
                    .position(|mbr| !mbr.is_finite() && !mbr.is_empty())
                {
                    return Err(format!(
                        "level {lvl} node {node} slot {slot}: non-finite MBR"
                    ));
                }
                if let Some(above) = self.levels.get(lvl + 1) {
                    let (stored, tight) = (&above.rects[node], Rect::union_all(entries));
                    if !rects_close(stored, &tight) {
                        return Err(format!(
                            "stale MBR for level {lvl} node {node}: stored {stored} vs tight {tight}"
                        ));
                    }
                }
            }
        }
        if self.values.len() != self.levels[0].rects.len() {
            return Err(format!(
                "len mismatch: {} payloads, {} leaf rectangles",
                self.values.len(),
                self.levels[0].rects.len()
            ));
        }
        Ok(())
    }
}

/// Exact equality is expected — MBRs are recomputed as exact unions — but a
/// tiny tolerance guards against platform fp quirks in future refactors.
fn rects_close(a: &Rect, b: &Rect) -> bool {
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
    use crate::multiwindow::tests::window_hits;
    use crate::{RTree, RTreeParams};
    use mwsj_geom::{Predicate, Rect};
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
                        window_hits(&tree, Predicate::Intersects, r).contains(&i),
                        "rect {i} not found by self-window at capacity {cap}"
                    );
                }
            }
        }
    }
}
