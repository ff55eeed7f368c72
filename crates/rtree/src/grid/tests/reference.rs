//! The layout the packed slots replaced, kept as the reference, and the
//! tests that hold both packed builds — on arrays of the grid's own and
//! over an R*-tree's leaf level — to it.

use super::*;

/// The layout the packed slots replaced, kept as the reference: each
/// cell a run of *copies* of its entries — in item order, then stably
/// by `lo_x` — which is the packed layout over a replicated array with
/// one position per slot, in slot order. Its keys and bounds are rounded
/// one at a time with the standard library's `next_down` / `next_up`.
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
        key: Vec::new(),
        pos: Vec::new(),
        max_w: vec![0.0; side * side],
        straddles: Vec::new(),
    };
    let (mut cells, mut several) = (vec![Vec::new(); side * side], Vec::new());
    for (i, (r, _)) in items.iter().enumerate() {
        let s = grid.span_of(r);
        several.push((s.x0, s.y0) != (s.x1, s.y1));
        for cell in (s.y0..=s.y1).flat_map(|cy| (s.x0..=s.x1).map(move |cx| cy * side + cx)) {
            cells[cell].push(i);
        }
    }
    let mut slots = Vec::new();
    for (c, cell) in cells.iter_mut().enumerate() {
        cell.sort_by(|&a, &b| items[a].0.min.x.total_cmp(&items[b].0.min.x));
        for &i in &*cell {
            let r = &items[i].0;
            let near = r.min.x as f32;
            let key = match f64::from(near) > r.min.x {
                true => near.next_down(),
                false => near,
            };
            let w = r.max.x - f64::from(key);
            let w = match f64::from(key) + w < r.max.x {
                true => w.next_up(),
                false => w,
            };
            let near = w as f32;
            let bound = match f64::from(near) < w {
                true => near.next_up(),
                false => near,
            };
            grid.key.push(key);
            grid.max_w[c] = grid.max_w[c].max(bound);
        }
        slots.extend_from_slice(cell);
        grid.starts.push(slots.len() as u32);
    }
    grid.straddles = vec![0; slots.len().div_ceil(64)];
    for (slot, &i) in slots.iter().enumerate() {
        grid.straddles[slot / 64] |= (several[i] as u64) << (slot % 64);
    }
    grid.rects = slots.iter().map(|&i| items[i].0).collect();
    grid.values = slots.iter().map(|&i| items[i].1).collect();
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
/// kernel the same answer — bits, order and accesses — to `windows`.
fn assert_packed_equals_replicated(
    name: &str,
    items: &[(Rect, u32)],
    target: f64,
    windows: &[(Predicate, Rect)],
) {
    let grids = three_grids(items, target);
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
        let cells: Vec<Vec<_>> = (0..g.x.n * g.y.n)
            .map(|c| g.cell_entries(c).map(|(r, &v)| (bits(r), v)).collect())
            .collect();
        let keys: Vec<u32> = g.key.iter().chain(&g.max_w).map(|x| x.to_bits()).collect();
        let stats = GridStats {
            unique: 0,
            replication_factor: 0.0,
            ..g.stats()
        };
        let layout = (cells, keys, g.starts.clone(), g.straddles.clone(), stats);
        let answers = (best, hits, acc, levels, g.swept_slots(windows));
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
        let windows = drawn_windows(items, &[0, 1, 2, 3, 4, 5], i as u64);
        for k in 1..=windows.len() {
            assert_packed_equals_replicated(name, items, 6.0, &windows[..k]);
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
    /// bounding box's edges.
    #[test]
    fn packed_grids_equal_the_replicated_reference_on_drawn_layouts(
        seed in proptest::prelude::any::<u64>(),
        size in 1usize..400,
        extent in 0.0f64..0.4,
        occupancy in 1.0f64..40.0,
        snap in 0u32..9,
        preds in proptest::collection::vec(0usize..ALL_PREDS.len(), 1..=5),
    ) {
        let items = snapped(random_items(seed, size, extent + 1e-9), snap);
        let windows = drawn_windows(&items, &preds, seed);
        assert_packed_equals_replicated("drawn", &items, occupancy, &windows);
    }
}

proptest::proptest! {
    #![proptest_config(proptest::prelude::ProptestConfig::with_cases(64))]

    /// Coordinates from the whole `f64` range ([`wide_items`]): ±1e300,
    /// beyond ±`f32::MAX`, subnormals, −0.0 and distinct `lo_x` values
    /// that round to one `f32` key. Both packed builds equal the
    /// reference — bits, order and accesses — and both kernels equal the
    /// full scan.
    #[test]
    fn rounded_keys_hold_across_the_whole_f64_range(
        seed in proptest::prelude::any::<u64>(),
        size in 1usize..300,
        occupancy in 1.0f64..40.0,
        preds in proptest::collection::vec(0usize..ALL_PREDS.len(), 1..=5),
    ) {
        let items = wide_items(seed, size);
        let windows = drawn_windows(&items, &preds, seed);
        assert_packed_equals_replicated("whole f64 range", &items, occupancy, &windows);
        let grid = UniformGrid::with_target_occupancy(&items, occupancy);
        assert_kernels_match_full_scan("whole f64 range", &grid, &windows);
    }
}
