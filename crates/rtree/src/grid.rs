//! PBSM-style uniform grid backend (Patel & DeWitt's *Partition Based
//! Spatial-Merge*, adapted to in-memory evaluation in the spirit of
//! Tsitsigkos & Mamoulis, *Parallel In-Memory Evaluation of Spatial
//! Joins*).
//!
//! The workspace bounding box is split into `nx × ny` uniform cells; every
//! MBR is **replicated** into each cell its rectangle overlaps, stored in
//! per-cell contiguous SoA coordinate arrays ordered by `lo_x`. Queries visit only
//! candidate cells and **sweep** a cell: two binary searches per window,
//! bounded by the cell's widest entry, find the slots whose x extent can
//! reach the window. Replicated hits are deduplicated with a
//! **reference-point rule**: every entry is *processed* in exactly one
//! deterministic cell — the row-major smallest cell where the entry's cell
//! span meets a query's candidate cell range — so each result is reported
//! exactly once without any hash set.
//!
//! **No cell arithmetic in the loops.** The rule needs an entry's cell
//! span, which the build knows: it keeps one bit per slot, *straddles* —
//! the span holds more than one cell. A clear bit decides the rule without
//! computing anything: the span is the scanned cell `c` alone and `c` is a
//! candidate cell, so the smallest cell where span and ranges meet is `c`.
//! Only straddlers (1.4 % of the swept slots on Zipf data, 7.4 % on
//! uniform: `a_replay_pays_the_rule_on_the_straddling_slots_only`) run
//! `dedup_cell`; [`join`] likewise takes a side's single-cell entry
//! without locating the pair's reference point, which lies in the entry
//! and so in its cell. A cell index is a division and a saturating cast,
//! no `floor` (`Axis::cell`). Measured in ISSUE 24's prototype and not
//! built: tallying a run window by window over the SoA slices
//! (`Predicate::tally_eval`, the R*-tree leaf's shape) read +9…+12 %
//! `solve_s` on uniform and +7 % on Zipf data — a run is 3–5 slots, too
//! short for a count buffer. The loop was read in the release binary's
//! assembly (DESIGN.md §5j).
//!
//! There are two query kernels over one plan → sweep → runs traversal:
//! [`best_in_windows`] (the best entry for a window list) and
//! [`candidates_with_counts`] (every entry satisfying at least `min_count`
//! of the windows; a single-window query is that with one window and
//! `min_count = 1`). The third kernel, [`join`], joins two whole grids cell
//! pair by cell pair, with a reference point of its own: the corner
//! `(max lo_x, max lo_y)` of a pair's intersection.
//!
//! Determinism contract: candidate cells are enumerated in ascending
//! row-major order and the entries of one cell rank by payload (item
//! order, for the ascending object ids every caller builds with). The
//! sweep does not visit a cell's slots in payload order, so
//! [`best_in_windows`] breaks score ties by `(cell, payload)` rank and
//! [`candidates_with_counts`] sorts each cell's hits by payload.
//!
//! Access accounting: one *access* per candidate cell scanned (the grid
//! analogue of one R*-tree node visit). The candidate cell set is a pure
//! function of the query windows.

use crate::multiwindow::BestLeaf;
use mwsj_geom::{Point, Predicate, Rect};
use mwsj_obs::MemoryFootprint;
use std::cell::RefCell;

// The benchmark's name for `best_in_windows`, with its ignored thread count.
#[doc(hidden)]
pub use crate::legacy::grid::*;

const INF: f64 = f64::INFINITY;

/// Default target number of (replicated) entries per occupied cell; the
/// grid resolution is chosen as `ceil(sqrt(n / target))` cells per axis.
pub const DEFAULT_TARGET_OCCUPANCY: f64 = 16.0;

/// Inclusive rectangle of grid cells `[x0..=x1] × [y0..=y1]`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct CellRange {
    x0: usize,
    y0: usize,
    x1: usize,
    y1: usize,
}

/// A uniform grid over 2-D MBRs with cell-replicated entries.
///
/// Build once ([`UniformGrid::build`]), query many times. Entries carry a
/// `Copy` payload (object ids in this codebase).
#[derive(Debug, Clone)]
pub struct UniformGrid<T> {
    bbox: Rect,
    nx: usize,
    ny: usize,
    cell_w: f64,
    cell_h: f64,
    /// Per-cell spans into the SoA arrays: cell `c` owns
    /// `starts[c]..starts[c+1]`, ordered by `(lo_x, item)`.
    starts: Vec<u32>,
    lo_x: Vec<f64>,
    lo_y: Vec<f64>,
    hi_x: Vec<f64>,
    hi_y: Vec<f64>,
    values: Vec<T>,
    /// Per-cell sweep bound: a width `w` with `lo_x + w ≥ hi_x` (as
    /// computed in `f64`) for every entry of the cell.
    max_w: Vec<f64>,
    /// One bit per slot, 64 slots a word: set iff the entry's cell span
    /// holds more than one cell (the entry has replicas).
    straddles: Vec<u64>,
    /// Number of unique indexed rectangles (before replication).
    unique: usize,
}

/// Structural statistics of a [`UniformGrid`] (cell-occupancy telemetry).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GridStats {
    /// Cells per axis (x).
    pub nx: u64,
    /// Cells per axis (y).
    pub ny: u64,
    /// Total number of cells (`nx · ny`).
    pub cells: u64,
    /// Cells holding at least one entry.
    pub occupied_cells: u64,
    /// Stored entries *including* replication.
    pub entries: u64,
    /// Unique indexed rectangles.
    pub unique: u64,
    /// `entries / unique` (1.0 when nothing straddles a cell boundary).
    pub replication_factor: f64,
    /// `entries / occupied_cells` (0.0 for an empty grid).
    pub avg_occupancy: f64,
    /// Largest per-cell entry count.
    pub max_occupancy: u64,
    /// `Σ len² / Σ len`, the occupancy of the cell a random entry lies in:
    /// what a window drawn from the data finds (skew lifts it far above
    /// `avg_occupancy`).
    pub seen_occupancy: f64,
    /// The widest entry of a cell — how far left of a window the in-cell
    /// sweep starts — averaged with the same `len²` weights.
    pub seen_max_width: f64,
}

impl<T: Copy> UniformGrid<T> {
    /// Builds a grid over `items` at the default target occupancy.
    pub fn build(items: &[(Rect, T)]) -> Self {
        Self::with_target_occupancy(items, DEFAULT_TARGET_OCCUPANCY)
    }

    /// Builds a grid sized for roughly `target` entries per cell.
    pub fn with_target_occupancy(items: &[(Rect, T)], target: f64) -> Self {
        let bbox = if items.is_empty() {
            Rect::new(0.0, 0.0, 1.0, 1.0)
        } else {
            Rect::union_all(items.iter().map(|(r, _)| r))
        };
        let side = if items.is_empty() {
            1
        } else {
            ((items.len() as f64 / target.max(1.0)).sqrt().ceil() as usize).max(1)
        };
        let (nx, ny) = (side, side);
        let cell_w = positive_step(bbox.width(), nx);
        let cell_h = positive_step(bbox.height(), ny);
        let mut grid = UniformGrid {
            bbox,
            nx,
            ny,
            cell_w,
            cell_h,
            starts: Vec::new(),
            lo_x: Vec::new(),
            lo_y: Vec::new(),
            hi_x: Vec::new(),
            hi_y: Vec::new(),
            values: Vec::new(),
            max_w: vec![0.0; nx * ny],
            straddles: Vec::new(),
            unique: items.len(),
        };
        // Every item's cell span, computed once for the three passes.
        let spans: Vec<CellRange> = items.iter().map(|(r, _)| grid.span_of(r)).collect();

        // Pass 1: per-cell replica counts.
        let mut counts = vec![0usize; nx * ny];
        for s in &spans {
            for cy in s.y0..=s.y1 {
                for cx in s.x0..=s.x1 {
                    counts[cy * nx + cx] += 1;
                }
            }
        }
        let mut starts = Vec::with_capacity(nx * ny + 1);
        let mut acc = 0usize;
        starts.push(0);
        for &c in &counts {
            acc += c;
            starts.push(u32::try_from(acc).expect("a grid holds at most u32::MAX replicas"));
        }

        // Pass 2: the items of each cell, in item order.
        let mut cursor: Vec<u32> = starts[..nx * ny].to_vec();
        let mut slots = vec![0usize; acc];
        for (i, ((r, _), s)) in items.iter().zip(&spans).enumerate() {
            let mut w = r.max.x - r.min.x;
            if r.min.x + w < r.max.x {
                w = w.next_up(); // the subtraction rounded down
            }
            for cy in s.y0..=s.y1 {
                for cx in s.x0..=s.x1 {
                    let cell = cy * nx + cx;
                    slots[cursor[cell] as usize] = i;
                    cursor[cell] += 1;
                    grid.max_w[cell] = grid.max_w[cell].max(w);
                }
            }
        }

        // Pass 3: order each cell by `lo_x` — stably, so ties keep item
        // order — and lay the entries out.
        for cell in starts.windows(2) {
            let run = &mut slots[cell[0] as usize..cell[1] as usize];
            run.sort_by(|&a, &b| items[a].0.min.x.total_cmp(&items[b].0.min.x));
        }
        let entries = || slots.iter().map(|&i| &items[i]);
        grid.lo_x = entries().map(|(r, _)| r.min.x).collect();
        grid.lo_y = entries().map(|(r, _)| r.min.y).collect();
        grid.hi_x = entries().map(|(r, _)| r.max.x).collect();
        grid.hi_y = entries().map(|(r, _)| r.max.y).collect();
        grid.values = entries().map(|(_, v)| *v).collect();
        grid.straddles = vec![0; acc.div_ceil(64)];
        for (slot, &i) in slots.iter().enumerate() {
            let s = &spans[i];
            let replicated = (s.x0, s.y0) != (s.x1, s.y1);
            grid.straddles[slot / 64] |= (replicated as u64) << (slot % 64);
        }
        grid.starts = starts;
        grid
    }
}

impl<T> UniformGrid<T> {
    /// Number of unique indexed rectangles.
    #[inline]
    pub fn len(&self) -> usize {
        self.unique
    }

    /// Returns `true` if the grid indexes no rectangles.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.unique == 0
    }

    /// The workspace bounding box the grid covers.
    #[inline]
    pub fn bbox(&self) -> Rect {
        self.bbox
    }

    /// Entry slots of cell `c` (indices into the SoA arrays).
    #[inline]
    fn cell_slots(&self, c: usize) -> std::ops::Range<usize> {
        self.starts[c] as usize..self.starts[c + 1] as usize
    }

    /// Whether the entry at SoA slot `i` lies in more than one cell.
    #[inline]
    fn straddles(&self, i: usize) -> bool {
        self.straddles[i / 64] >> (i % 64) & 1 != 0
    }

    /// The full rectangle stored at SoA slot `i`.
    #[inline]
    fn rect_at(&self, i: usize) -> Rect {
        Rect {
            min: Point::new(self.lo_x[i], self.lo_y[i]),
            max: Point::new(self.hi_x[i], self.hi_y[i]),
        }
    }

    /// Structural cell-occupancy statistics.
    pub fn stats(&self) -> GridStats {
        let cells = self.nx * self.ny;
        let entries = self.values.len() as u64;
        let mut occupied = 0u64;
        let mut max_occ = 0u64;
        let (mut len_sq, mut width) = (0.0, 0.0);
        for c in 0..cells {
            let n = self.cell_slots(c).len() as u64;
            if n > 0 {
                occupied += 1;
            }
            max_occ = max_occ.max(n);
            len_sq += (n * n) as f64;
            width += (n * n) as f64 * self.max_w[c];
        }
        GridStats {
            nx: self.nx as u64,
            ny: self.ny as u64,
            cells: cells as u64,
            occupied_cells: occupied,
            entries,
            unique: self.unique as u64,
            replication_factor: if self.unique == 0 {
                1.0
            } else {
                entries as f64 / self.unique as f64
            },
            avg_occupancy: if occupied == 0 {
                0.0
            } else {
                entries as f64 / occupied as f64
            },
            max_occupancy: max_occ,
            seen_occupancy: len_sq / (entries as f64).max(1.0),
            seen_max_width: width / len_sq.max(1.0),
        }
    }

    #[inline]
    fn x_axis(&self) -> Axis {
        Axis {
            min: self.bbox.min.x,
            max: self.bbox.max.x,
            step: self.cell_w,
            n: self.nx,
        }
    }

    #[inline]
    fn y_axis(&self) -> Axis {
        Axis {
            min: self.bbox.min.y,
            max: self.bbox.max.y,
            step: self.cell_h,
            n: self.ny,
        }
    }

    #[inline]
    fn cell_x(&self, x: f64) -> usize {
        self.x_axis().cell(x)
    }

    #[inline]
    fn cell_y(&self, y: f64) -> usize {
        self.y_axis().cell(y)
    }

    /// Cell span of a rectangle (clamped to the grid).
    #[inline]
    fn span_of(&self, r: &Rect) -> CellRange {
        CellRange {
            x0: self.cell_x(r.min.x),
            y0: self.cell_y(r.min.y),
            x1: self.cell_x(r.max.x),
            y1: self.cell_y(r.max.y),
        }
    }

    /// Plans one window: the cells covering its candidate region — a
    /// conservative cover, `pred.eval(r, w)` implies `r` intersects the
    /// region — and the region's x extent for the in-cell sweep. `None`
    /// when no indexed rectangle can qualify.
    fn plan_window(&self, pred: Predicate, w: &Rect) -> Option<WindowPlan> {
        let (region, pad) = match pred {
            // r must share a point with w (also necessary for Contains /
            // Inside: containment in either direction implies overlap).
            Predicate::Intersects | Predicate::Contains | Predicate::Inside => (*w, 0.0),
            // r.min ≥ w.max on both axes ⇒ r meets the quadrant NE of w.max.
            Predicate::NorthEast => (Rect::from_corners(w.max, Point::new(INF, INF)), 0.0),
            Predicate::SouthWest => (Rect::from_corners(Point::new(-INF, -INF), w.min), 0.0),
            // Evaluated on rounded squares, so an entry a few ulps outside
            // the rounded region can still satisfy it: pad the sweep.
            Predicate::WithinDistance(eps) => (
                w.inflate(eps.max(0.0)),
                4.0 * f64::EPSILON * (eps.abs() + w.min.x.abs().max(w.max.x.abs())),
            ),
        };
        let clamped = region.intersection(&self.bbox);
        (!clamped.is_empty()).then(|| WindowPlan {
            range: self.span_of(&clamped),
            x0: region.min.x - pad,
            x1: region.max.x + pad,
        })
    }

    /// Reference-point deduplication: the unique cell in which an entry
    /// with rectangle `r` is processed for a query with candidate cell
    /// ranges `plan` — the row-major smallest cell where `r`'s span meets
    /// any range. `None` when the spans are disjoint from every range (the
    /// entry can satisfy no window and is never scanned).
    #[inline]
    fn dedup_cell(&self, r: &Rect, plan: &[WindowPlan]) -> Option<usize> {
        let s = self.span_of(r);
        let mut best: Option<usize> = None;
        for WindowPlan { range: g, .. } in plan {
            let x0 = s.x0.max(g.x0);
            let y0 = s.y0.max(g.y0);
            if x0 > s.x1.min(g.x1) || y0 > s.y1.min(g.y1) {
                continue;
            }
            let idx = y0 * self.nx + x0;
            if best.is_none_or(|b| idx < b) {
                best = Some(idx);
            }
        }
        best
    }

    /// Calls `f` with the runs (some may be empty) of cell `c`'s slots that
    /// the x extent of a window's candidate region can reach: `lo_x ≤ x1`,
    /// and `lo_x + max_w(c) ≥ x0`, which `hi_x ≥ x0` implies for every
    /// entry of the cell. `plan` ascends in `x0`, so the runs' starts
    /// ascend too and overlapping runs merge in one pass. A cell whose
    /// widest entry spans it yields the whole cell.
    fn runs(&self, c: usize, plan: &[WindowPlan], mut f: impl FnMut(std::ops::Range<usize>)) {
        let (reach, end) = (self.max_w[c], self.starts[c + 1] as usize);
        let (mut a, mut run) = (self.starts[c] as usize, 0..0);
        for p in plan {
            a += self.lo_x[a..end].partition_point(|&x| x + reach < p.x0);
            let b = a + self.lo_x[a..end].partition_point(|&x| x <= p.x1);
            if a > run.end {
                f(std::mem::replace(&mut run, a..b));
            } else {
                run.end = run.end.max(b);
            }
        }
        f(run);
    }

    /// The one scan loop of both kernels: visits `(slot, rect)` for
    /// every entry of the plan's `pos`-th cell that lies in one of its
    /// [`runs`](Self::runs) and is processed in that cell under the
    /// reference-point rule — by construction when it lies in no other
    /// cell. The runs are those of **all** windows, not
    /// only of the windows whose range covers the cell: the rule can
    /// process an entry in a cell that lies only in another window's range.
    fn sweep(&self, plan: &Plan, pos: usize, mut visit: impl FnMut(usize, &Rect)) {
        let c = plan.cells[pos];
        self.runs(c, &plan.windows, |run| {
            for slot in run {
                let r = self.rect_at(slot);
                if !self.straddles(slot) || self.dedup_cell(&r, &plan.windows) == Some(c) {
                    visit(slot, &r);
                }
            }
        });
    }

    /// Number of slots the sweep tests for `windows` (before the
    /// reference-point rule and the exact predicate): the deterministic
    /// work count that `mwsj explain`'s grid cost predicts.
    pub fn swept_slots(&self, windows: &[(Predicate, Rect)]) -> u64 {
        let mut slots = 0;
        with_plan(self, windows, &mut 0, &mut [], |plan| {
            for &c in &plan.cells {
                self.runs(c, &plan.windows, |run| slots += run.len() as u64);
            }
        });
        slots
    }
}

/// One axis of a grid: `n` cells of width `step` over `[min, max]`.
#[derive(Clone, Copy)]
struct Axis {
    min: f64,
    max: f64,
    step: f64,
    n: usize,
}

impl Axis {
    /// The cell of coordinate `v`, clamped to the axis. The cast is the
    /// floor: it truncates toward zero, which is `floor` on `[0, ∞)`;
    /// negatives and NaN become cell 0 through the `max`, as they did
    /// through `floor` and `max`, and `+∞` saturates into the `min`. The
    /// division stays: a reciprocal multiply moves borders by an ulp.
    #[inline]
    fn cell(&self, v: f64) -> usize {
        (((v - self.min) / self.step).max(0.0) as usize).min(self.n - 1)
    }

    /// The smallest coordinate whose cell is `c` (`1 ≤ c < n`) or a later
    /// one: `min + c·step` moved by the few ulps the rounding in
    /// [`cell`](Self::cell) makes, found with `cell` itself. The walk stays
    /// inside the extent, so an axis too wide for `f64` (an infinite
    /// `step`: every coordinate in cell 0) ends it at once.
    fn first_of(&self, c: usize) -> f64 {
        let mut v = self.min + c as f64 * self.step;
        while self.cell(v) >= c && v > self.min {
            v = v.next_down();
        }
        while self.cell(v) < c && v < self.max {
            v = v.next_up();
        }
        v
    }

    /// For every cell of `self`, the cells `c0..=c1` of `other` that hold a
    /// coordinate of it lying in both extents, `None` when there is none.
    /// Exact, because [`cell`](Self::cell) is monotone: two grids over one
    /// bounding box pair each cell with one cell, not with three.
    fn covers(&self, other: &Axis) -> Vec<Option<(usize, usize)>> {
        let mut lo = self.min;
        let cover = |c: usize| {
            let next = if c + 1 < self.n {
                self.first_of(c + 1)
            } else {
                f64::INFINITY
            };
            let hi = next.next_down().min(self.max);
            let meets = lo <= hi && lo <= other.max && hi >= other.min;
            let cells = meets.then(|| (other.cell(lo), other.cell(hi)));
            lo = next;
            cells
        };
        (0..self.n).map(cover).collect()
    }
}

/// One window's share of a query plan.
struct WindowPlan {
    /// Candidate cell range.
    range: CellRange,
    /// X extent of the candidate region.
    x0: f64,
    x1: f64,
}

/// What a query derives from its windows before touching a cell.
#[derive(Default)]
struct Plan {
    /// The windows that have a candidate range, ascending in `x0`.
    windows: Vec<WindowPlan>,
    /// Ascending row-major union of the candidate cell ranges.
    cells: Vec<usize>,
}

thread_local! {
    /// The calling thread's plan buffers, reused so that a query allocates
    /// nothing for its plan once they have grown.
    static PLAN: RefCell<Plan> = RefCell::default();
}

/// Plans `windows` over `grid`, charges one access per candidate cell to
/// the shared counter and to the leaf row of the per-level attribution
/// slice (the grid is a flat, one-level structure: every access is a
/// "leaf" access) and runs `f` on the plan, unless no window has a
/// candidate range.
fn with_plan<T>(
    grid: &UniformGrid<T>,
    windows: &[(Predicate, Rect)],
    cell_accesses: &mut u64,
    level_accesses: &mut [u64],
    f: impl FnOnce(&Plan),
) {
    // Taken, not borrowed: `f` may run a query of its own on this thread.
    let mut plan = PLAN.take();
    plan.windows.clear();
    let planned = windows.iter().filter_map(|(p, w)| grid.plan_window(*p, w));
    plan.windows.extend(planned);
    plan.windows.sort_unstable_by(|a, b| a.x0.total_cmp(&b.x0));
    plan.cells.clear();
    for WindowPlan { range: g, .. } in &plan.windows {
        for cy in g.y0..=g.y1 {
            plan.cells.extend((g.x0..=g.x1).map(|cx| cy * grid.nx + cx));
        }
    }
    plan.cells.sort_unstable();
    plan.cells.dedup();
    if !plan.cells.is_empty() {
        let cells = plan.cells.len() as u64;
        *cell_accesses += cells;
        if let Some(slot) = level_accesses.get_mut(0) {
            *slot += cells;
        }
        f(&plan);
    }
    PLAN.set(plan);
}

/// Number of `windows` that `r` satisfies under the exact predicate.
#[inline]
fn satisfied_count(windows: &[(Predicate, Rect)], r: &Rect) -> u32 {
    windows.iter().filter(|(p, w)| p.eval(r, w)).count() as u32
}

/// Best-scoring entry seen so far, with its canonical `(cell, payload)`
/// rank.
struct CellBest<T> {
    score: f64,
    cell_pos: usize,
    /// Where the entry lies in the SoA arrays.
    slot: usize,
    value: T,
    satisfied: u32,
}

impl<T: Ord> CellBest<T> {
    /// Replaces `held` if `self` scores strictly higher, or the same at an
    /// earlier rank.
    fn offer_to(self, held: &mut Option<Self>) {
        let beats = |h: &Self| {
            self.score > h.score
                || (self.score == h.score && (self.cell_pos, &self.value) < (h.cell_pos, &h.value))
        };
        if held.as_ref().is_none_or(beats) {
            *held = Some(self);
        }
    }
}

/// Multi-window best-entry query over the grid — the grid analogue of the
/// R*-tree kernel
/// [`find_best_leaf_leveled`](crate::multiwindow::find_best_leaf_leveled).
///
/// Sweeps the union of the windows' candidate cell ranges in ascending
/// row-major order; each entry is evaluated at most once (reference-point
/// rule) against **all** windows with the exact [`Predicate::eval`] test
/// and scored by `score(&value, satisfied_count)`. The highest score wins,
/// ties going to the earliest `(cell, payload)` — the grid's canonical
/// order. Entries satisfying zero windows are skipped.
///
/// `cell_accesses` (and `level_accesses[0]`, when present) are bumped once
/// per candidate cell.
pub fn best_in_windows<T: Copy + Ord>(
    grid: &UniformGrid<T>,
    windows: &[(Predicate, Rect)],
    mut score: impl FnMut(&T, u32) -> f64,
    cell_accesses: &mut u64,
    level_accesses: &mut [u64],
) -> Option<BestLeaf<T>> {
    let mut winner: Option<CellBest<T>> = None;
    with_plan(grid, windows, cell_accesses, level_accesses, |plan| {
        for pos in 0..plan.cells.len() {
            grid.sweep(plan, pos, |slot, r| {
                let satisfied = satisfied_count(windows, r);
                if satisfied > 0 {
                    let value = grid.values[slot];
                    CellBest {
                        score: score(&value, satisfied),
                        cell_pos: pos,
                        slot,
                        value,
                        satisfied,
                    }
                    .offer_to(&mut winner);
                }
            });
        }
    });
    winner.map(|b| BestLeaf {
        value: b.value,
        rect: grid.rect_at(b.slot),
        satisfied: b.satisfied,
        score: b.score,
    })
}

/// Multi-window candidate enumeration — the grid analogue of the R*-tree
/// candidate walk ([`for_each_candidate`](crate::multiwindow::for_each_candidate))
/// used by WR, PJM and IBB: every `(value, satisfied_count)` with
/// `satisfied_count ≥ min_count`, each value exactly once, in canonical
/// `(cell, payload)` order. One access is charged per candidate cell.
///
/// The sweep covers the **union** of the windows' candidate ranges even for
/// conjunctive queries (`min_count == windows.len()`): an entry may
/// satisfy two windows whose candidate ranges are disjoint, so the range
/// intersection would not be a sound filter.
pub fn candidates_with_counts<T: Copy + Ord>(
    grid: &UniformGrid<T>,
    windows: &[(Predicate, Rect)],
    min_count: u32,
    cell_accesses: &mut u64,
    level_accesses: &mut [u64],
) -> Vec<(T, u32)> {
    debug_assert!(min_count >= 1);
    let mut out = Vec::new();
    with_plan(grid, windows, cell_accesses, level_accesses, |plan| {
        for pos in 0..plan.cells.len() {
            let start = out.len();
            grid.sweep(plan, pos, |slot, r| {
                let count = satisfied_count(windows, r);
                if count >= min_count {
                    out.push((grid.values[slot], count));
                }
            });
            out[start..].sort_unstable_by_key(|hit| hit.0);
        }
    });
    out
}

/// PBSM cell-pair join of two grids: calls `emit(a, b)` once for every pair
/// of an entry of `left` and an entry of `right` with `a pred b`, for the
/// three predicates that imply intersection (`Intersects`, `Contains`,
/// `Inside`).
///
/// Every occupied cell of `left` is joined with the cells of `right` it
/// overlaps — one when the two grids are aligned, 2 × 2 when their cells
/// are of a size and are not — by a forward scan over the two runs, which
/// both grids already store in `lo_x` order: the run that starts first
/// scans the other while its `lo_x` stays below the first's `hi_x`. A pair
/// of replicated rectangles meets in several cell pairs and is reported in
/// one, by the reference-point rule: the point `(max lo_x, max lo_y)` lies
/// in both rectangles, hence in a cell of each that holds them, and the
/// pair belongs to the cell pair whose two cells contain it — decided, for
/// a side whose entry straddles cells, with the `cell_x` / `cell_y` the
/// builds used, so the two grids need not be aligned (an entry in one cell
/// holds the point there). The exact predicate is evaluated last.
///
/// Pairs arrive in `left`'s row-major cell order, then `right`'s, then scan
/// order. One access is charged per occupied cell of `left` and one per
/// non-empty cell of `right` paired with it.
///
/// # Panics
/// Panics if `pred` is one of the other three predicates: a pair satisfying
/// them need not share a cell.
pub fn join<T: Copy, U: Copy>(
    left: &UniformGrid<T>,
    right: &UniformGrid<U>,
    pred: Predicate,
    cell_accesses: &mut u64,
    mut emit: impl FnMut(T, U),
) {
    assert!(
        matches!(
            pred,
            Predicate::Intersects | Predicate::Contains | Predicate::Inside
        ),
        "the cell-pair join needs a predicate that implies intersection, not {pred}"
    );
    let columns = left.x_axis().covers(&right.x_axis());
    let rows = left.y_axis().covers(&right.y_axis());
    for (cy, row) in rows.iter().enumerate() {
        let Some((y0, y1)) = *row else {
            continue;
        };
        for (cx, column) in columns.iter().enumerate() {
            let run = left.cell_slots(cy * left.nx + cx);
            let Some((x0, x1)) = column.filter(|_| !run.is_empty()) else {
                continue;
            };
            *cell_accesses += 1;
            for (by, bx) in (y0..=y1).flat_map(|by| (x0..=x1).map(move |bx| (by, bx))) {
                let other = right.cell_slots(by * right.nx + bx);
                if other.is_empty() {
                    continue;
                }
                *cell_accesses += 1;
                // `i`, `j`: slots of `left` and `right` that overlap in x;
                // `x` is the larger `lo_x` of the two.
                let mut visit = |i: usize, j: usize, x: f64| {
                    if left.lo_y[i] > right.hi_y[j] || right.lo_y[j] > left.hi_y[i] {
                        return;
                    }
                    let y = left.lo_y[i].max(right.lo_y[j]);
                    let here = (!left.straddles(i) || (left.cell_x(x), left.cell_y(y)) == (cx, cy))
                        && (!right.straddles(j) || (right.cell_x(x), right.cell_y(y)) == (bx, by));
                    if here && pred.eval(&left.rect_at(i), &right.rect_at(j)) {
                        emit(left.values[i], right.values[j]);
                    }
                };
                let (mut i, mut j) = (run.start, other.start);
                while i < run.end && j < other.end {
                    if left.lo_x[i] <= right.lo_x[j] {
                        let reach = left.hi_x[i];
                        let ahead = (j..other.end).take_while(|&k| right.lo_x[k] <= reach);
                        ahead.for_each(|k| visit(i, k, right.lo_x[k]));
                        i += 1;
                    } else {
                        let reach = right.hi_x[j];
                        let ahead = (i..run.end).take_while(|&k| left.lo_x[k] <= reach);
                        ahead.for_each(|k| visit(k, j, left.lo_x[k]));
                        j += 1;
                    }
                }
            }
        }
    }
}

/// Cell width/height that is strictly positive even for degenerate
/// bounding boxes (all data on one point or line).
#[inline]
fn positive_step(extent: f64, n: usize) -> f64 {
    let step = extent / n as f64;
    if step > 0.0 {
        step
    } else {
        1.0
    }
}

impl<T> MemoryFootprint for UniformGrid<T> {
    /// Length-based resident bytes: the four SoA coordinate streams, the
    /// value array, the per-cell span table and the per-cell sweep bounds.
    fn memory_bytes(&self) -> u64 {
        let coords = (self.lo_x.len() * 4 * std::mem::size_of::<f64>()) as u64;
        let values = (self.values.len() * std::mem::size_of::<T>()) as u64;
        let starts = (self.starts.len() * std::mem::size_of::<u32>()) as u64;
        let widths = (self.max_w.len() * std::mem::size_of::<f64>()) as u64;
        let bits = (self.straddles.len() * std::mem::size_of::<u64>()) as u64;
        coords + values + starts + widths + bits
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{RngExt, SeedableRng};

    fn random_items(seed: u64, n: usize, extent: f64) -> Vec<(Rect, u32)> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..n)
            .map(|i| {
                let x = rng.random_range(0.0..1.0);
                let y = rng.random_range(0.0..1.0);
                let w = rng.random_range(0.0..extent);
                let h = rng.random_range(0.0..extent);
                (Rect::new(x, y, x + w, y + h), i as u32)
            })
            .collect()
    }

    const ALL_PREDS: [Predicate; 6] = [
        Predicate::Intersects,
        Predicate::Contains,
        Predicate::Inside,
        Predicate::NorthEast,
        Predicate::SouthWest,
        Predicate::WithinDistance(0.2),
    ];

    /// A single-window query: the kernel with one window and `min_count` 1.
    fn query(grid: &UniformGrid<u32>, pred: Predicate, w: &Rect, accesses: &mut u64) -> Vec<u32> {
        let hits = candidates_with_counts(grid, &[(pred, *w)], 1, accesses, &mut []);
        hits.into_iter().map(|(v, _)| v).collect()
    }

    #[test]
    fn query_matches_brute_force_for_every_predicate() {
        let items = random_items(11, 600, 0.2);
        let grid = UniformGrid::build(&items);
        let windows = [
            Rect::new(0.2, 0.2, 0.5, 0.5),
            Rect::new(0.0, 0.0, 0.05, 0.05),
            Rect::new(0.9, 0.9, 1.4, 1.4),
        ];
        for pred in ALL_PREDS {
            for w in &windows {
                let mut acc = 0;
                let mut got = query(&grid, pred, w, &mut acc);
                got.sort_unstable();
                let mut expected: Vec<u32> = items
                    .iter()
                    .filter(|(r, _)| pred.eval(r, w))
                    .map(|&(_, v)| v)
                    .collect();
                expected.sort_unstable();
                assert_eq!(got, expected, "{pred} on {w}");
                assert!(acc > 0 || got.is_empty());
            }
        }
    }

    #[test]
    fn query_reports_each_boundary_straddler_exactly_once() {
        // Large rects spanning many cells plus duplicate-coordinate rects.
        let mut items = random_items(12, 300, 0.6);
        items.push((Rect::new(0.1, 0.1, 0.9, 0.9), 300));
        items.push((Rect::new(0.1, 0.1, 0.9, 0.9), 301));
        items.push((Rect::new(0.1, 0.1, 0.9, 0.9), 302));
        let grid = UniformGrid::with_target_occupancy(&items, 4.0);
        let w = Rect::new(0.0, 0.0, 1.0, 1.0);
        let got = query(&grid, Predicate::Intersects, &w, &mut 0);
        let mut sorted = got.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), got.len(), "replicated entries reported twice");
        assert_eq!(got.len(), items.len());
    }

    #[test]
    fn find_best_matches_brute_force() {
        let items = random_items(13, 500, 0.15);
        let grid = UniformGrid::build(&items);
        let windows = vec![
            (Predicate::Intersects, Rect::new(0.1, 0.1, 0.4, 0.4)),
            (Predicate::Intersects, Rect::new(0.3, 0.3, 0.6, 0.6)),
            (
                Predicate::WithinDistance(0.05),
                Rect::new(0.7, 0.7, 0.8, 0.8),
            ),
        ];
        let best = best_in_windows(&grid, &windows, |_, c| c as f64, &mut 0, &mut [])
            .expect("some entry satisfies a window");
        let brute = items
            .iter()
            .map(|(r, v)| {
                let c = windows.iter().filter(|(p, w)| p.eval(r, w)).count() as u32;
                (c, *v)
            })
            .max_by_key(|&(c, _)| c)
            .unwrap();
        assert_eq!(best.satisfied, brute.0);
        assert_eq!(best.score, brute.0 as f64);
    }

    #[test]
    fn candidates_match_brute_force_at_every_threshold() {
        let items = random_items(16, 700, 0.25);
        let grid = UniformGrid::build(&items);
        let windows = vec![
            (Predicate::Intersects, Rect::new(0.1, 0.1, 0.4, 0.4)),
            (Predicate::Intersects, Rect::new(0.3, 0.3, 0.6, 0.6)),
            (Predicate::NorthEast, Rect::new(0.1, 0.1, 0.2, 0.2)),
        ];
        for min in 1..=3 {
            let mut got = candidates_with_counts(&grid, &windows, min, &mut 0, &mut []);
            got.sort_unstable();
            let mut expected: Vec<(u32, u32)> = items
                .iter()
                .filter_map(|(r, v)| {
                    let c = windows.iter().filter(|(p, w)| p.eval(r, w)).count() as u32;
                    (c >= min).then_some((*v, c))
                })
                .collect();
            expected.sort_unstable();
            assert_eq!(got, expected, "min_count {min}");
        }
    }

    #[test]
    fn conjunctive_query_survives_disjoint_candidate_ranges() {
        // One big rect touching two far-apart windows: the windows' cell
        // ranges are disjoint, yet the entry satisfies both.
        let mut items = vec![(Rect::new(0.05, 0.05, 0.95, 0.95), 0u32)];
        for i in 1..200u32 {
            let t = i as f64 / 200.0;
            items.push((Rect::new(t, t, t + 0.002, t + 0.002), i));
        }
        let grid = UniformGrid::with_target_occupancy(&items, 2.0);
        let windows = vec![
            (Predicate::Intersects, Rect::new(0.0, 0.0, 0.1, 0.1)),
            (Predicate::Intersects, Rect::new(0.9, 0.9, 1.0, 1.0)),
        ];
        let got = candidates_with_counts(&grid, &windows, 2, &mut 0, &mut []);
        assert_eq!(got, vec![(0, 2)]);
    }

    /// The traversal the sweep replaced, kept as the reference: every slot
    /// of every candidate cell in item order (ids ascend in item order),
    /// filtered by the reference-point rule only. Returns the processed
    /// `(value, satisfied_count)` list, the candidate cell count and the
    /// number of slots scanned.
    fn full_scan(
        grid: &UniformGrid<u32>,
        windows: &[(Predicate, Rect)],
    ) -> (Vec<(u32, u32)>, u64, u64) {
        let plan: Vec<WindowPlan> = windows
            .iter()
            .filter_map(|(p, w)| grid.plan_window(*p, w))
            .collect();
        let mut cells = Vec::new();
        for WindowPlan { range: g, .. } in &plan {
            for cy in g.y0..=g.y1 {
                cells.extend((g.x0..=g.x1).map(|cx| cy * grid.nx + cx));
            }
        }
        cells.sort_unstable();
        cells.dedup();
        let (mut seen, mut scanned) = (Vec::new(), 0);
        for &c in &cells {
            let mut slots: Vec<usize> = grid.cell_slots(c).collect();
            slots.sort_by_key(|&slot| grid.values[slot]);
            scanned += slots.len() as u64;
            for slot in slots {
                let r = grid.rect_at(slot);
                if grid.dedup_cell(&r, &plan) == Some(c) {
                    seen.push((grid.values[slot], satisfied_count(windows, &r)));
                }
            }
        }
        (seen, cells.len() as u64, scanned)
    }

    /// Asserts that both kernels return exactly what [`full_scan`]
    /// implies: same winner, output order and accesses.
    fn assert_kernels_match_full_scan(
        name: &str,
        grid: &UniformGrid<u32>,
        windows: &[(Predicate, Rect)],
    ) {
        let (seen, cells, scanned) = full_scan(grid, windows);
        assert!(grid.swept_slots(windows) <= scanned, "{name}: {windows:?}");
        // A payload-dependent score, so that ties and their order matter.
        let score = |v: &u32, c: u32| c as f64 + (*v % 3) as f64 * 0.25;
        let mut best: Option<(u32, u32, f64)> = None;
        for &(v, c) in seen.iter().filter(|&&(_, c)| c > 0) {
            if best.is_none_or(|(_, _, s)| score(&v, c) > s) {
                best = Some((v, c, score(&v, c)));
            }
        }
        let (mut acc, mut levels) = (0, [0u64; 2]);
        let got = best_in_windows(grid, windows, score, &mut acc, &mut levels);
        let got = got.map(|b| (b.value, b.satisfied, b.score));
        assert_eq!(got, best, "{name}: find_best, {windows:?}");
        assert_eq!((acc, levels), (cells, [cells, 0]), "{name}: {windows:?}");
        for min in 1..=windows.len() as u32 {
            let (mut acc, mut levels) = (0, [0u64; 1]);
            let got = candidates_with_counts(grid, windows, min, &mut acc, &mut levels);
            let want: Vec<(u32, u32)> = seen.iter().copied().filter(|&(_, c)| c >= min).collect();
            assert_eq!(got, want, "{name}: candidates ≥ {min}, {windows:?}");
            assert_eq!((acc, levels), (cells, [cells]), "{name}: {windows:?}");
        }
        for (i, &(pred, w)) in windows.iter().enumerate() {
            let (seen, cells, _) = full_scan(grid, &windows[i..=i]);
            let want: Vec<u32> = seen.iter().filter(|h| h.1 > 0).map(|h| h.0).collect();
            let mut acc = 0;
            assert_eq!(
                query(grid, pred, &w, &mut acc),
                want,
                "{name}: {pred} on {w}"
            );
            assert_eq!(acc, cells, "{name}: query {pred} on {w}");
        }
    }

    fn zipf_items(seed: u64, n: usize, density: f64) -> Vec<(Rect, u32)> {
        use mwsj_datagen::{Dataset, DatasetSpec, Distribution};
        let spec = DatasetSpec {
            cardinality: n,
            density,
            distribution: Distribution::ZipfClustered {
                clusters: 16,
                sigma: 0.02,
                exponent: 1.1,
            },
            constant_extent: false,
        };
        let data = Dataset::generate(&spec, &mut StdRng::seed_from_u64(seed));
        data.rects().iter().copied().zip(0u32..).collect()
    }

    /// Data layouts chosen to defeat the sweep: hot cells, a maximal sweep
    /// bound in every cell, zero widths, equal sort keys, duplicates, the
    /// smallest grid, and the two ends of the straddle bit — every entry
    /// replicated, none replicated.
    fn hostile_layouts() -> Vec<(&'static str, Vec<(Rect, u32)>)> {
        let ids = |rects: Vec<Rect>| rects.into_iter().zip(0u32..).collect::<Vec<_>>();
        let mut covered = random_items(21, 400, 0.05);
        covered[7].0 = Rect::new(0.0, 0.0, 1.05, 1.05);
        let zero_width = random_items(22, 400, 0.1)
            .into_iter()
            .map(|(r, _)| Rect::new(r.min.x, r.min.y, r.min.x, r.max.y));
        let same_lo_x = random_items(23, 400, 0.1)
            .into_iter()
            .map(|(r, _)| Rect::new(0.25, r.min.y, r.max.x.max(0.25), r.max.y));
        // Wider than a cell at either occupancy the tests build with: the
        // bounding box is at most 1.45 wide and has at least 5 cells a side.
        let wide = random_items(29, 400, 0.1)
            .into_iter()
            .map(|(r, _)| Rect::new(r.min.x, r.min.y, r.max.x + 0.35, r.max.y));
        let points = random_items(30, 400, 0.1)
            .into_iter()
            .map(|(r, _)| Rect::new(r.min.x, r.min.y, r.min.x, r.min.y));
        vec![
            ("uniform", random_items(20, 1_500, 0.08)),
            ("zipf", zipf_items(24, 4_000, 0.05)),
            ("one rect covers the bbox", covered),
            ("zero width", ids(zero_width.collect())),
            ("equal lo_x", ids(same_lo_x.collect())),
            ("duplicates", ids(vec![Rect::new(0.3, 0.3, 0.4, 0.5); 200])),
            ("single object", ids(vec![Rect::new(0.2, 0.2, 0.6, 0.7)])),
            ("every rectangle wider than a cell", ids(wide.collect())),
            ("points", ids(points.collect())),
        ]
    }

    /// The bit is what it abbreviates: set iff the entry's span — the one
    /// `dedup_cell` would compute — holds more than one cell.
    #[test]
    fn straddle_bit_is_set_iff_the_span_holds_several_cells() {
        for (name, items) in hostile_layouts() {
            for occupancy in [6.0, 16.0] {
                let grid = UniformGrid::with_target_occupancy(&items, occupancy);
                let mut set = 0;
                for slot in 0..grid.values.len() {
                    let s = grid.span_of(&grid.rect_at(slot));
                    let several = (s.x0, s.y0) != (s.x1, s.y1);
                    assert_eq!(grid.straddles(slot), several, "{name}: slot {slot}");
                    set += several as usize;
                }
                match name {
                    "every rectangle wider than a cell" => assert_eq!(set, grid.values.len()),
                    "points" => assert_eq!(set, 0),
                    _ => {}
                }
            }
        }
    }

    #[test]
    fn kernels_equal_the_full_scan_on_hostile_layouts() {
        let mut rng = StdRng::seed_from_u64(25);
        for (name, items) in hostile_layouts() {
            let grid = UniformGrid::with_target_occupancy(&items, 6.0);
            // One to five windows: the first two far apart (disjoint
            // candidate ranges, as in the conjunctive test above), the rest
            // placed on data so that they land in the hot cells.
            let mut windows = vec![
                (Predicate::Intersects, Rect::new(0.0, 0.0, 0.1, 0.1)),
                (Predicate::Intersects, Rect::new(0.9, 0.9, 1.0, 1.0)),
            ];
            for _ in 2..5 {
                let (r, _) = items[rng.random_range(0..items.len())];
                let d = rng.random_range(0.0..0.05);
                windows.push((Predicate::Intersects, r.inflate(d)));
            }
            for pred in ALL_PREDS {
                windows.iter_mut().for_each(|(p, _)| *p = pred);
                for k in 1..=windows.len() {
                    assert_kernels_match_full_scan(name, &grid, &windows[..k]);
                }
                // Mixed predicates in one call.
                for (i, (p, _)) in windows.iter_mut().enumerate() {
                    *p = ALL_PREDS[i % ALL_PREDS.len()];
                }
                assert_kernels_match_full_scan(name, &grid, &windows);
            }
        }
    }

    /// The layout shrunk into `spots` tight clumps (as it is for 0).
    fn clumped(mut items: Vec<(Rect, u32)>, spots: usize) -> Vec<(Rect, u32)> {
        if spots == 0 {
            return items;
        }
        for (i, (r, _)) in items.iter_mut().enumerate() {
            let at = 0.1 + 0.25 * (i % spots) as f64;
            let shrink = |v: f64| at + 0.05 * v;
            *r = Rect::new(
                shrink(r.min.x),
                shrink(r.min.y),
                shrink(r.max.x),
                shrink(r.max.y),
            );
        }
        items
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(64))]

        /// The same equality on drawn layouts: any size, entry extent and
        /// cell occupancy, uniform or packed into a few spots, against one
        /// to five windows of drawn predicates.
        #[test]
        fn kernels_equal_the_full_scan_on_drawn_layouts(
            seed in proptest::prelude::any::<u64>(),
            n in 1usize..600,
            extent in 0.0f64..0.3,
            occupancy in 1.0f64..40.0,
            spots in 0usize..4,
            preds in proptest::collection::vec(0usize..ALL_PREDS.len(), 1..=5),
        ) {
            let mut rng = StdRng::seed_from_u64(seed);
            let items = clumped(random_items(seed, n, extent + 1e-9), spots);
            let grid = UniformGrid::with_target_occupancy(&items, occupancy);
            let windows: Vec<(Predicate, Rect)> = preds
                .iter()
                .map(|&p| {
                    let (r, _) = items[rng.random_range(0..items.len())];
                    (ALL_PREDS[p], r.inflate(rng.random_range(0.0..0.1)))
                })
                .collect();
            assert_kernels_match_full_scan("drawn", &grid, &windows);
        }
    }

    const JOIN_PREDS: [Predicate; 3] = [
        Predicate::Intersects,
        Predicate::Contains,
        Predicate::Inside,
    ];

    /// Asserts that the cell-pair join of the two layouts, under each of
    /// its three predicates, reports the pairs of brute force, every pair
    /// once, and reads at most every cell of `left` once and every cell of
    /// `right` once per cell of `left`.
    fn assert_join_matches_brute_force(
        name: &str,
        left: &[(Rect, u32)],
        right: &[(Rect, u32)],
        occupancy: (f64, f64),
    ) {
        let a = UniformGrid::with_target_occupancy(left, occupancy.0);
        let b = UniformGrid::with_target_occupancy(right, occupancy.1);
        for pred in JOIN_PREDS {
            let (mut got, mut cells) = (Vec::new(), 0);
            join(&a, &b, pred, &mut cells, |x, y| got.push((x, y)));
            got.sort_unstable();
            let mut expected = Vec::new();
            for (ra, x) in left {
                let hits = right.iter().filter(|(rb, _)| pred.eval(ra, rb));
                expected.extend(hits.map(|(_, y)| (*x, *y)));
            }
            expected.sort_unstable();
            assert_eq!(got, expected, "{name}: {pred}");
            let bound = (a.nx * a.ny) as u64 * (1 + (b.nx * b.ny) as u64);
            assert!(cells <= bound && (cells > 0 || got.is_empty()), "{name}");
        }
    }

    fn shifted(items: &[(Rect, u32)], by: f64) -> Vec<(Rect, u32)> {
        let moved = |r: &Rect| Rect::new(r.min.x + by, r.min.y + by, r.max.x + by, r.max.y + by);
        items.iter().map(|(r, v)| (moved(r), *v)).collect()
    }

    #[test]
    fn join_equals_brute_force_on_hostile_layouts() {
        let layouts = hostile_layouts();
        // Every ordered pair, self-pairs included (one grid on both sides,
        // and containment between equal rectangles), on two resolutions.
        for (left_name, left) in &layouts {
            for (right_name, right) in &layouts {
                let name = format!("{left_name} × {right_name}");
                assert_join_matches_brute_force(&name, left, right, (6.0, 16.0));
            }
        }
        // Bounding boxes that half overlap, touch in a corner and are
        // disjoint; an empty side.
        let (_, uniform) = &layouts[0];
        let (_, covered) = &layouts[2];
        for by in [0.5, 1.05, 2.0] {
            let name = format!("shifted by {by}");
            assert_join_matches_brute_force(&name, uniform, &shifted(covered, by), (6.0, 6.0));
            assert_join_matches_brute_force(&name, &shifted(covered, by), uniform, (16.0, 2.0));
        }
        // An extent wider than `f64`: the cell width is infinite and every
        // coordinate falls in cell 0.
        let far = |at: f64| Rect::new(at, at, at + 1e307, at + 1e307);
        let wide = [far(-1.5e308), far(1.5e308), far(0.0)].map(|r| (r, 0));
        assert_join_matches_brute_force("wider than f64", &wide, &wide, (1.0, 1.0));
        assert_join_matches_brute_force("wide × uniform", &wide, uniform, (1.0, 6.0));
        assert_join_matches_brute_force("empty right", uniform, &[], (6.0, 6.0));
        assert_join_matches_brute_force("empty left", &[], uniform, (6.0, 6.0));
    }

    /// Two grids over one bounding box pair each cell with one cell: the
    /// cover is exact, not padded to the neighbours.
    #[test]
    fn aligned_grids_join_cell_by_cell() {
        let mut items = random_items(27, 2_000, 0.01);
        items.push((Rect::new(0.0, 0.0, 1.0, 1.0), 2_000));
        let grid = UniformGrid::build(&items);
        let mut cells = 0;
        join(&grid, &grid, Predicate::Intersects, &mut cells, |_, _| {});
        assert_eq!(cells, 2 * grid.stats().occupied_cells);
    }

    #[test]
    #[should_panic(expected = "implies intersection")]
    fn join_rejects_a_predicate_that_need_not_share_a_cell() {
        let grid = UniformGrid::build(&random_items(28, 10, 0.1));
        join(&grid, &grid, Predicate::NorthEast, &mut 0, |_, _| {});
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(64))]

        /// The same equality on drawn layouts: any two sizes, entry
        /// extents, cell occupancies and offsets between the two bounding
        /// boxes, uniform or packed into a few spots.
        #[test]
        fn join_equals_brute_force_on_drawn_layouts(
            seed in proptest::prelude::any::<u64>(),
            sizes in (1usize..300, 1usize..300),
            extents in (0.0f64..0.3, 0.0f64..0.3),
            occupancy in (1.0f64..40.0, 1.0f64..40.0),
            offset in -1.2f64..1.2,
            spots in 0usize..4,
        ) {
            let left = clumped(random_items(seed, sizes.0, extents.0 + 1e-9), spots);
            let right = clumped(random_items(!seed, sizes.1, extents.1 + 1e-9), spots);
            assert_join_matches_brute_force("drawn", &left, &shifted(&right, offset), occupancy);
        }
    }

    /// The work bound the sweep exists for (it fails on a full-cell scan,
    /// whose ratio is 1): on the benchmark's Zipf row (distribution,
    /// cardinality and density of `zipf-50k-grid`), a window drawn from the
    /// data tests at most a tenth of the entries of its candidate cells.
    #[test]
    fn sweep_tests_a_tenth_of_the_candidate_cells_on_zipf_data() {
        use mwsj_datagen::{hard_region_density, QueryShape};
        let density = hard_region_density(QueryShape::Chain, 6, 50_000, 1e-10);
        let items = zipf_items(26, 50_000, density);
        let grid = UniformGrid::build(&items);
        let (mut swept, mut occupancy) = (0, 0);
        for (w, _) in items.iter().step_by(97) {
            let windows = [(Predicate::Intersects, *w)];
            swept += grid.swept_slots(&windows);
            occupancy += full_scan(&grid, &windows).2;
        }
        assert!(swept * 10 <= occupancy, "swept {swept} of {occupancy}");
    }

    /// `swept_slots`' own traversal, counting beside the swept slots those
    /// whose bit is set: the slots that still pay for `dedup_cell`.
    fn swept_and_straddling(grid: &UniformGrid<u32>, windows: &[(Predicate, Rect)]) -> (u64, u64) {
        let (mut swept, mut straddling) = (0, 0);
        with_plan(grid, windows, &mut 0, &mut [], |plan| {
            for &c in &plan.cells {
                grid.runs(c, &plan.windows, |run| {
                    swept += run.len() as u64;
                    straddling += run.filter(|&slot| grid.straddles(slot)).count() as u64;
                });
            }
        });
        assert_eq!(swept, grid.swept_slots(windows));
        (swept, straddling)
    }

    /// What the bit saves, in slots: a replay of 10 000 windows drawn from
    /// the data, on the benchmark's uniform row (`chain-100k-grid`) and on
    /// its Zipf row (`zipf-50k-grid`). Before the bit every swept slot ran
    /// the reference-point rule; now the straddling ones do.
    #[test]
    fn a_replay_pays_the_rule_on_the_straddling_slots_only() {
        use mwsj_datagen::{hard_region_density, Dataset, DatasetSpec, QueryShape};
        let uniform = DatasetSpec::uniform(
            100_000,
            hard_region_density(QueryShape::Chain, 6, 100_000, 1e-3),
        );
        let uniform = Dataset::generate(&uniform, &mut StdRng::seed_from_u64(31));
        let uniform: Vec<(Rect, u32)> = uniform.rects().iter().copied().zip(0u32..).collect();
        let density = hard_region_density(QueryShape::Chain, 6, 50_000, 1e-10);
        let rows = [
            ("uniform", uniform, (17_057, 1_254)),
            ("zipf", zipf_items(26, 50_000, density), (57_744, 819)),
        ];
        for (name, items, pinned) in rows {
            let grid = UniformGrid::build(&items);
            let mut rng = StdRng::seed_from_u64(32);
            let (mut swept, mut straddling) = (0, 0);
            for _ in 0..10_000 {
                let (w, _) = items[rng.random_range(0..items.len())];
                let counts = swept_and_straddling(&grid, &[(Predicate::Intersects, w)]);
                swept += counts.0;
                straddling += counts.1;
            }
            assert_eq!((swept, straddling), pinned, "{name}");
        }
    }

    /// The formula [`Axis::cell`] replaced, kept as the reference.
    fn floor_cell(axis: &Axis, v: f64) -> usize {
        let i = ((v - axis.min) / axis.step).floor();
        (i.max(0.0) as usize).min(axis.n - 1)
    }

    #[test]
    fn cell_is_the_floor_formula_at_every_border() {
        let axis = |min: f64, step: f64, n: usize| Axis {
            min,
            max: min,
            step,
            n,
        };
        let axes = [
            axis(0.25, 0.125, 8),
            axis(-0.0, 0.1, 10),
            axis(-3.0, 1.0 / 3.0, 4096),
            axis(-1.5e308, INF, 3), // an extent too wide for `f64`
            axis(0.0, 5e-324, 7),
            axis(1e300, 5e-324, 7),
            axis(0.5, 1.0, 1),
        ];
        for a in &axes {
            let mut values = vec![-0.0, 0.0, -1e-320, 1e-320, INF, -INF, f64::NAN];
            values.extend([a.min.next_down(), a.min, a.min.next_up()]);
            for k in 0..=a.n.min(9) {
                let at = a.min + k as f64 * a.step;
                values.extend([at.next_down(), at, at.next_up()]);
            }
            for v in values {
                assert_eq!(
                    a.cell(v),
                    floor_cell(a, v),
                    "{v:e} on {:e} + k·{:e}",
                    a.min,
                    a.step
                );
            }
            assert_eq!((a.cell(-INF), a.cell(f64::NAN)), (0, 0));
        }
        assert_eq!(axes[0].cell(0.25 + 3.0 * 0.125), 3);
        assert_eq!(axes[0].cell((0.25f64 + 3.0 * 0.125).next_down()), 2);
        assert_eq!((axes[0].cell(INF), axes[0].cell(1e300)), (7, 7));
        assert_eq!((axes[3].cell(1.5e308), axes[3].cell(INF)), (0, 0));
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(2048))]

        /// The same equality on any three bit patterns — negative, zero,
        /// subnormal, infinite and NaN origins, steps and coordinates — and
        /// within two ulps of the `k`-th border of the axis they make.
        #[test]
        fn cell_is_the_floor_formula_on_any_bits(
            v in proptest::prelude::any::<u64>(),
            min in proptest::prelude::any::<u64>(),
            step in proptest::prelude::any::<u64>(),
            n in 1usize..=4096,
            k in 0usize..5000,
            ulps in -2i32..=2,
        ) {
            let (min, step) = (f64::from_bits(min), f64::from_bits(step));
            let axis = Axis { min, max: min, step, n };
            let mut border = min + k as f64 * step;
            for _ in 0..ulps.abs() {
                border = if ulps < 0 { border.next_down() } else { border.next_up() };
            }
            for v in [f64::from_bits(v), border] {
                proptest::prop_assert_eq!(axis.cell(v), floor_cell(&axis, v));
            }
        }
    }

    #[test]
    fn stats_and_footprint_are_consistent() {
        let items = random_items(17, 400, 0.3);
        let grid = UniformGrid::build(&items);
        let stats = grid.stats();
        assert_eq!(stats.unique, 400);
        assert_eq!(stats.cells, stats.nx * stats.ny);
        assert!(stats.entries >= stats.unique, "replication only adds");
        assert!(stats.replication_factor >= 1.0);
        assert!(stats.occupied_cells <= stats.cells);
        assert!(stats.max_occupancy as f64 >= stats.avg_occupancy);
        // Every vector of the struct, at its element size, and nothing else.
        let vectors = [
            std::mem::size_of_val(&grid.starts[..]),
            std::mem::size_of_val(&grid.lo_x[..]),
            std::mem::size_of_val(&grid.lo_y[..]),
            std::mem::size_of_val(&grid.hi_x[..]),
            std::mem::size_of_val(&grid.hi_y[..]),
            std::mem::size_of_val(&grid.values[..]),
            std::mem::size_of_val(&grid.max_w[..]),
            std::mem::size_of_val(&grid.straddles[..]),
        ];
        assert_eq!(grid.memory_bytes(), vectors.iter().sum::<usize>() as u64);
        assert_eq!(grid.starts.len() as u64, stats.cells + 1);
        assert_eq!(grid.straddles.len() as u64, stats.entries.div_ceil(64));
        // Same logical grid, same bytes.
        let again = UniformGrid::build(&items);
        assert_eq!(grid.memory_bytes(), again.memory_bytes());
    }

    #[test]
    fn degenerate_and_empty_inputs() {
        // All items on a single point: degenerate bbox.
        let items: Vec<(Rect, u32)> = (0..10)
            .map(|i| (Rect::new(0.5, 0.5, 0.5, 0.5), i))
            .collect();
        let grid = UniformGrid::build(&items);
        let unit = Rect::new(0.0, 0.0, 1.0, 1.0);
        assert_eq!(query(&grid, Predicate::Intersects, &unit, &mut 0).len(), 10);

        let empty: Vec<(Rect, u32)> = Vec::new();
        let grid = UniformGrid::build(&empty);
        assert!(grid.is_empty());
        assert!(query(&grid, Predicate::Intersects, &unit, &mut 0).is_empty());
    }
}
