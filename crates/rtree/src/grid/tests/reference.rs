//! The layout the packed slots replaced, kept as the reference, and the
//! tests that hold both packed builds — on arrays of the grid's own and
//! over an R*-tree's leaf level — to it.

use super::*;

/// The layout the packed slots replaced, kept as the reference: each
/// cell a run of *copies* of its entries — in item order, then stably
/// by `lo_x` — which is the packed layout over a replicated array with
/// one position per slot, in slot order.
fn replicated_reference(items: &[(Rect, u32)], target: f64) -> UniformGrid<u32> {
    let n = items.len();
    let bbox = match n {
        0 => Rect::new(0.0, 0.0, 1.0, 1.0),
        _ => Rect::union_all(items.iter().map(|(r, _)| r)),
    };
    let side = ((n as f64 / target.max(1.0)).sqrt().ceil() as usize).max(1);
    let mut grid = UniformGrid {
        x: Axis::over(bbox.min.x, bbox.max.x, bbox.width(), side),
        y: Axis::over(bbox.min.y, bbox.max.y, bbox.height(), side),
        rects: Arc::new([]),
        values: Arc::new([]),
        starts: vec![0],
        lo_x: Vec::new(),
        pos: Vec::new(),
        max_w: vec![0.0; side * side],
        straddles: Vec::new(),
    };
    let (mut cells, mut several) = (vec![Vec::new(); side * side], Vec::new());
    for (i, (r, _)) in items.iter().enumerate() {
        let s = grid.span_of(r);
        several.push((s.x0, s.y0) != (s.x1, s.y1));
        let w = r.max.x - r.min.x;
        let w = if r.min.x + w < r.max.x {
            w.next_up()
        } else {
            w
        };
        for cell in (s.y0..=s.y1).flat_map(|cy| (s.x0..=s.x1).map(move |cx| cy * side + cx)) {
            cells[cell].push(i);
            grid.max_w[cell] = grid.max_w[cell].max(w);
        }
    }
    let mut slots = Vec::new();
    for cell in &mut cells {
        cell.sort_by(|&a, &b| items[a].0.min.x.total_cmp(&items[b].0.min.x));
        slots.extend_from_slice(cell);
        grid.starts.push(slots.len() as u32);
    }
    grid.straddles = vec![0; slots.len().div_ceil(64)];
    for (slot, &i) in slots.iter().enumerate() {
        grid.straddles[slot / 64] |= (several[i] as u64) << (slot % 64);
    }
    grid.rects = slots.iter().map(|&i| items[i].0).collect();
    grid.values = slots.iter().map(|&i| items[i].1).collect();
    grid.lo_x = grid.rects.iter().map(|r| r.min.x).collect();
    grid.pos = (0..slots.len() as u32).collect();
    grid
}

/// A layout's grid three ways: on arrays of its own, over the leaf
/// level of its R*-tree (what an instance builds) and the reference.
fn three_grids(items: &[(Rect, u32)], target: f64) -> [UniformGrid<u32>; 3] {
    let (rects, values) = RTree::bulk_load(items.to_vec()).shared_leaves();
    [
        UniformGrid::with_target_occupancy(items, target),
        UniformGrid::index(rects, values, target),
        replicated_reference(items, target),
    ]
}

fn bits(r: &Rect) -> [u64; 4] {
    [r.min.x, r.min.y, r.max.x, r.max.y].map(f64::to_bits)
}

/// Holds both packed grids of `items` to the reference: slot for slot
/// the same `(rect bits, id)`, keys, bounds, bits and statistics (less
/// the unique count, which a replicated array inflates), and from every
/// kernel the same answer — bits, order and accesses — to `windows`
/// and, against the grids of `other`, from the join.
fn assert_packed_equals_replicated(
    name: &str,
    items: &[(Rect, u32)],
    other: &[(Rect, u32)],
    target: f64,
    windows: &[(Predicate, Rect)],
) {
    let (grids, others) = (three_grids(items, target), three_grids(other, 2.0 * target));
    let score = |v: &u32, c: u32| c as f64 + (*v % 3) as f64 * 0.25;
    let answers = |k: usize| {
        let g = &grids[k];
        let (mut acc, mut levels) = (0, [0u64; 1]);
        let best = best_in_windows(g, windows, score, &mut acc, &mut levels)
            .map(|b| (b.value, bits(&b.rect), b.satisfied, b.score.to_bits()));
        let hits: Vec<_> = (1..=windows.len() as u32)
            .map(|min| {
                let mut hits = Vec::new();
                candidates_with_counts(g, windows, min, &mut hits, &mut acc, &mut levels);
                hits
            })
            .collect();
        let mut pairs = Vec::new();
        for pred in JOIN_PREDS {
            join(g, &others[k], pred, &mut acc, |a, b| pairs.push((a, b)));
        }
        let cells: Vec<Vec<_>> = (0..g.x.n * g.y.n)
            .map(|c| g.cell_entries(c).map(|(r, &v)| (bits(r), v)).collect())
            .collect();
        let keys: Vec<u64> = g.lo_x.iter().chain(&g.max_w).map(|x| x.to_bits()).collect();
        let stats = GridStats {
            unique: 0,
            replication_factor: 0.0,
            ..g.stats()
        };
        let layout = (cells, keys, g.starts.clone(), g.straddles.clone(), stats);
        let answers = (best, hits, pairs, acc, levels, g.swept_slots(windows));
        (answers, layout, g.bbox())
    };
    let reference = answers(2);
    assert!(answers(0) == reference, "{name}, built: {windows:?}");
    assert!(
        answers(1) == reference,
        "{name}, over the leaves: {windows:?}"
    );
    assert_eq!(grids[1].len(), items.len(), "{name}");
}

#[test]
fn packed_grids_equal_the_replicated_reference_on_hostile_layouts() {
    let layouts = hostile_layouts();
    for (i, (name, items)) in layouts.iter().enumerate() {
        let (_, other) = &layouts[(i + 1) % layouts.len()];
        let windows = drawn_windows(items, &[0, 1, 2, 3, 4, 5], i as u64);
        for k in 1..=windows.len() {
            assert_packed_equals_replicated(name, items, other, 6.0, &windows[..k]);
        }
    }
}

/// Every coordinate rounded to a multiple of `1 / k` (as it is for 0):
/// equal `lo_x` keys, zero extents and edges on cell borders.
fn snapped(items: Vec<(Rect, u32)>, k: u32) -> Vec<(Rect, u32)> {
    let snap = |v: f64| {
        if k == 0 {
            v
        } else {
            (v * k as f64).round() / k as f64
        }
    };
    let snap_rect = |r: Rect| Rect::new(snap(r.min.x), snap(r.min.y), snap(r.max.x), snap(r.max.y));
    items.into_iter().map(|(r, v)| (snap_rect(r), v)).collect()
}

proptest::proptest! {
    #![proptest_config(proptest::prelude::ProptestConfig::with_cases(64))]

    /// The same on drawn layouts, snapped to a coarse lattice or not —
    /// ties on every key, zero extents, straddlers and entries on the
    /// bounding box's edges —, and with an empty join partner.
    #[test]
    fn packed_grids_equal_the_replicated_reference_on_drawn_layouts(
        seed in proptest::prelude::any::<u64>(),
        sizes in (1usize..400, 0usize..200),
        extent in 0.0f64..0.4,
        occupancy in 1.0f64..40.0,
        snap in 0u32..9,
        offset in -1.2f64..1.2,
        preds in proptest::collection::vec(0usize..ALL_PREDS.len(), 1..=5),
    ) {
        let items = snapped(random_items(seed, sizes.0, extent + 1e-9), snap);
        let other = snapped(random_items(!seed, sizes.1, extent + 1e-9), snap);
        let windows = drawn_windows(&items, &preds, seed);
        let other = shifted(&other, offset);
        assert_packed_equals_replicated("drawn", &items, &other, occupancy, &windows);
    }
}
