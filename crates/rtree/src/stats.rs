//! Structural statistics, useful for diagnosing index quality in the
//! experiment harness (node occupancy, per-level area/overlap).

use crate::tree::RTree;

/// Summary statistics of an R*-tree's structure.
#[derive(Debug, Clone, PartialEq)]
pub struct TreeStats {
    /// Number of data entries.
    pub len: usize,
    /// Number of levels.
    pub height: u32,
    /// Total number of nodes.
    pub nodes: usize,
    /// Number of leaf nodes.
    pub leaves: usize,
    /// Mean node occupancy as a fraction of capacity (0..=1).
    pub avg_fill: f64,
    /// Sum of node MBR areas per level, `[0] = leaf level`. Lower is better
    /// index quality for uniform data.
    pub area_per_level: Vec<f64>,
    /// Sum of pairwise sibling overlap areas per level, `[0] = leaf level`.
    pub overlap_per_level: Vec<f64>,
    /// Number of nodes per level, `[0] = leaf level`.
    pub nodes_per_level: Vec<usize>,
    /// Number of entries per level, `[0] = leaf level` (data entries at
    /// level 0, child pointers above).
    pub entries_per_level: Vec<usize>,
    /// Mean node occupancy per level as a fraction of capacity (0..=1),
    /// `[0] = leaf level`.
    pub fill_per_level: Vec<f64>,
    /// Sibling overlap factor per level: the summed pairwise sibling
    /// overlap area divided by the summed node MBR area of the level
    /// (`0.0` when the level covers no area). Lower is better; high values
    /// mean window queries must descend several subtrees.
    pub overlap_factor_per_level: Vec<f64>,
    /// Dead-space fraction per level: the share of node MBR area not
    /// covered by the node's entries, estimated per node by two-term
    /// inclusion–exclusion (`area − Σ entry areas + Σ pairwise entry
    /// overlaps`, clamped to ≥ 0) and normalised by the level's node area.
    /// In (0..=1); high values mean queries visit nodes whose interior
    /// cannot contain matches.
    pub dead_space_per_level: Vec<f64>,
    /// Sum of node MBR margins (width + height, the BKSS90 half-perimeter)
    /// per level, `[0] = leaf level`. Lower margins mean squarer, better
    /// clustered nodes.
    pub perimeter_per_level: Vec<f64>,
}

impl<T> RTree<T> {
    /// Computes structural statistics in one traversal (plus an O(M²) pass
    /// per node for sibling overlap).
    ///
    /// The float sums are taken in one fixed order — depth first from the
    /// root, the last child first — which is the order they were pinned in
    /// (`explain` sections of the committed snapshots), not array order.
    pub fn stats(&self) -> TreeStats {
        let height = self.levels.len();
        let cap = self.params.max_entries() as f64;
        let mut nodes = 0usize;
        let mut leaves = 0usize;
        let mut fill_sum = 0.0f64;
        let mut area_per_level = vec![0.0; height];
        let mut overlap_per_level = vec![0.0; height];
        let mut nodes_per_level = vec![0usize; height];
        let mut entries_per_level = vec![0usize; height];
        let mut fill_per_level = vec![0.0f64; height];
        let mut dead_area_per_level = vec![0.0f64; height];
        let mut perimeter_per_level = vec![0.0f64; height];

        let mut stack = vec![self.root_node()];
        while let Some(node) = stack.pop() {
            let rects = node.rects();
            nodes += 1;
            if node.is_leaf() {
                leaves += 1;
            }
            fill_sum += rects.len() as f64 / cap;
            let lvl = node.level() as usize;
            nodes_per_level[lvl] += 1;
            entries_per_level[lvl] += rects.len();
            let mbr = node.mbr();
            let node_area = mbr.area();
            area_per_level[lvl] += node_area;
            perimeter_per_level[lvl] += mbr.margin();
            let mut entry_area = 0.0f64;
            let mut entry_overlap = 0.0f64;
            for (i, a) in rects.iter().enumerate() {
                entry_area += a.area();
                for b in &rects[i + 1..] {
                    entry_overlap += a.overlap_area(b);
                }
            }
            stack.extend(node.entries().filter_map(|e| e.child()));
            overlap_per_level[lvl] += entry_overlap;
            // Two-term inclusion–exclusion estimate of the covered area;
            // clamp per node since triple-overlaps can overshoot it.
            dead_area_per_level[lvl] += (node_area - (entry_area - entry_overlap)).max(0.0);
        }

        for lvl in 0..height {
            fill_per_level[lvl] =
                entries_per_level[lvl] as f64 / (nodes_per_level[lvl] as f64 * cap);
        }
        let ratio_or_zero = |num: f64, den: f64| if den > 0.0 { num / den } else { 0.0 };
        let overlap_factor_per_level: Vec<f64> = (0..height)
            .map(|l| ratio_or_zero(overlap_per_level[l], area_per_level[l]))
            .collect();
        let dead_space_per_level: Vec<f64> = (0..height)
            .map(|l| ratio_or_zero(dead_area_per_level[l], area_per_level[l]).min(1.0))
            .collect();

        TreeStats {
            len: self.len(),
            height: self.height(),
            nodes,
            leaves,
            avg_fill: fill_sum / nodes as f64,
            area_per_level,
            overlap_per_level,
            nodes_per_level,
            entries_per_level,
            fill_per_level,
            overlap_factor_per_level,
            dead_space_per_level,
            perimeter_per_level,
        }
    }
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
    fn stats_counts_are_consistent() {
        let tree = RTree::bulk_load_with_params(RTreeParams::new(16), random_items(3_000, 31));
        let s = tree.stats();
        assert_eq!(s.len, 3_000);
        assert_eq!(s.height, tree.height());
        assert_eq!(s.nodes, tree.node_count());
        assert!(s.leaves <= s.nodes);
        assert!(s.avg_fill > 0.0 && s.avg_fill <= 1.0);
        assert_eq!(s.area_per_level.len(), tree.height() as usize);
    }

    #[test]
    fn per_level_breakdowns_are_consistent() {
        let tree = RTree::bulk_load_with_params(RTreeParams::new(16), random_items(3_000, 34));
        let s = tree.stats();
        let h = tree.height() as usize;
        assert_eq!(s.nodes_per_level.len(), h);
        assert_eq!(s.entries_per_level.len(), h);
        // Per-level node counts sum to the node total; leaves are level 0;
        // the root level holds exactly one node.
        assert_eq!(s.nodes_per_level.iter().sum::<usize>(), s.nodes);
        assert_eq!(s.nodes_per_level[0], s.leaves);
        assert_eq!(s.nodes_per_level[h - 1], 1);
        // Level-0 entries are the data entries; entries at level k+1 are
        // child pointers to the nodes of level k.
        assert_eq!(s.entries_per_level[0], s.len);
        for lvl in 1..h {
            assert_eq!(s.entries_per_level[lvl], s.nodes_per_level[lvl - 1]);
        }
    }

    #[test]
    fn str_packing_fills_nodes_well() {
        let tree = RTree::bulk_load_with_params(RTreeParams::new(16), random_items(5_000, 32));
        // Even distribution guarantees at least 50% fill; STR typically
        // achieves much more.
        assert!(
            tree.stats().avg_fill >= 0.5,
            "fill {}",
            tree.stats().avg_fill
        );
    }

    /// The quality metrics must be finite and sane at paper scale, and the
    /// structural invariants must be unaffected by the per-level columns.
    #[test]
    fn str_quality_metrics_are_sane_at_100k() {
        let tree = RTree::bulk_load_with_params(RTreeParams::new(16), random_items(100_000, 35));
        let s = tree.stats();
        let h = tree.height() as usize;
        assert_eq!(s.len, 100_000);
        assert_eq!(s.fill_per_level.len(), h);
        assert_eq!(s.overlap_factor_per_level.len(), h);
        assert_eq!(s.dead_space_per_level.len(), h);
        assert_eq!(s.perimeter_per_level.len(), h);
        for lvl in 0..h {
            let fill = s.fill_per_level[lvl];
            assert!(
                fill.is_finite() && fill > 0.0 && fill <= 1.0,
                "level {lvl} fill {fill}"
            );
            // Loose packing bound: at this density data rects overlap
            // heavily by construction, but a bulk-loaded tree must not
            // degenerate into near-total sibling overlap.
            let ov = s.overlap_factor_per_level[lvl];
            assert!((0.0..50.0).contains(&ov), "level {lvl} overlap factor {ov}");
            let dead = s.dead_space_per_level[lvl];
            assert!((0.0..=1.0).contains(&dead), "level {lvl} dead space {dead}");
            let per = s.perimeter_per_level[lvl];
            assert!(per.is_finite() && per > 0.0, "level {lvl} perimeter {per}");
        }
        // The whole-tree fill is the node-weighted mean of the per-level
        // fills.
        let weighted: f64 = (0..h)
            .map(|l| s.fill_per_level[l] * s.nodes_per_level[l] as f64)
            .sum::<f64>()
            / s.nodes as f64;
        assert!((weighted - s.avg_fill).abs() < 1e-9);
        assert_eq!(s.nodes_per_level.iter().sum::<usize>(), s.nodes);
        assert_eq!(s.entries_per_level[0], s.len);
    }
}
