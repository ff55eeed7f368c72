//! PBSM-style uniform grid backend (Patel & DeWitt's *Partition Based
//! Spatial-Merge*, adapted to in-memory evaluation in the spirit of
//! Tsitsigkos & Mamoulis, *Parallel In-Memory Evaluation of Spatial
//! Joins*).
//!
//! The workspace bounding box is split into `nx × ny` uniform cells, and
//! every MBR is referenced from each cell it overlaps. A cell is a run of
//! *slots* in `lo_x` order; a slot is the entry's `lo_x` and its position
//! in the one rectangle array the grid indexes — an R*-tree's STR-ordered
//! leaf level ([`UniformGrid::over_leaves`]) or a copy of the grid's own
//! ([`UniformGrid::build`]). Queries visit only candidate cells and
//! **sweep** a cell: two binary searches per window over its `lo_x` keys,
//! bounded by the cell's widest entry, find the slots whose x extent can
//! reach the window, and only those read their rectangle. Replicated hits
//! are deduplicated with a **reference-point rule**: every entry is
//! *processed* in exactly one deterministic cell — the row-major smallest
//! cell where the entry's cell span meets a query's candidate cell range —
//! so each result is reported exactly once without any hash set.
//!
//! **No cell arithmetic in the loops.** The rule needs an entry's cell
//! span, which the build knows: it keeps one bit per slot, *straddles* —
//! the span holds more than one cell. A clear bit decides the rule without
//! computing anything: the span is the scanned cell `c` alone and `c` is a
//! candidate cell, so the smallest cell where span and ranges meet is `c`.
//! Only straddlers (1.4 % of the swept slots on Zipf data, 7.4 % on
//! uniform: `a_replay_pays_the_rule_on_the_straddling_slots_only`) run
//! `dedup_cell`. A cell index is a division and a saturating cast,
//! no `floor` (`Axis::cell`). DESIGN.md §5j records the layouts and loops
//! measured and not built.
//!
//! There are two query kernels over one plan → sweep → runs traversal:
//! [`best_in_windows`] (the best entry for a window list) and
//! [`candidates_with_counts`] (every entry satisfying at least `min_count`
//! of the windows; a single-window query is that with one window and
//! `min_count = 1`). A join of two whole datasets is not a grid question:
//! every instance joins its R*-trees (\[BKS93\]), on either backend.
//!
//! Determinism contract: candidate cells are enumerated in ascending
//! row-major order, and a cell's slots are ordered by `(lo_x, payload)`
//! whatever order the indexed arrays are in — a grid over a tree's leaves
//! has the slots of one built from the same objects in id order. The
//! entries of a cell rank by payload (object id), which the sweep does not
//! visit them in, so [`best_in_windows`] breaks score ties by `(cell,
//! payload)` rank and [`candidates_with_counts`] sorts each cell's hits.
//!
//! Access accounting: one *access* per candidate cell scanned (the grid
//! analogue of one R*-tree node visit). The candidate cell set is a pure
//! function of the query windows.

use crate::multiwindow::BestLeaf;
use crate::tree::RTree;
use mwsj_geom::{Point, Predicate, Rect};
use mwsj_obs::MemoryFootprint;
use std::cell::RefCell;
use std::sync::Arc;

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

/// A uniform grid over 2-D MBRs whose cells hold positions into one
/// rectangle array.
///
/// Build once ([`UniformGrid::over_leaves`] or [`UniformGrid::build`]),
/// query many times. Entries carry a `Copy` payload (object ids in this
/// codebase).
#[derive(Debug, Clone)]
pub struct UniformGrid<T> {
    /// The cells along x and along y, over the bounding box's extent.
    x: Axis,
    y: Axis,
    /// The indexed rectangles and, position for position, their payloads.
    rects: Arc<[Rect]>,
    values: Arc<[T]>,
    /// Per-cell spans into the slot arrays: cell `c` owns
    /// `starts[c]..starts[c+1]`, ordered by `(lo_x, payload, position)`.
    starts: Vec<u32>,
    /// Per slot, the entry's `lo_x` (the sweep's search key) …
    lo_x: Vec<f64>,
    /// … and its position in `rects` and `values`.
    pos: Vec<u32>,
    /// Per-cell sweep bound: a width `w` with `lo_x + w ≥ hi_x` (as
    /// computed in `f64`) for every entry of the cell.
    max_w: Vec<f64>,
    /// One bit per slot, 64 slots a word: set iff the entry's cell span
    /// holds more than one cell (the entry has replicas).
    straddles: Vec<u64>,
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

impl<T: Copy + Ord> UniformGrid<T> {
    /// Builds a grid over the leaf level of `tree` at the default target
    /// occupancy. The grid indexes the tree's rectangle and payload arrays
    /// themselves: it holds new handles on them, not copies.
    pub fn over_leaves(tree: &RTree<T>) -> Self {
        let (rects, values) = tree.shared_leaves();
        Self::index(rects, values, DEFAULT_TARGET_OCCUPANCY)
    }

    /// Builds a grid over `items` at the default target occupancy, on
    /// arrays of its own: a copy of the rectangles and one of the payloads.
    pub fn build(items: &[(Rect, T)]) -> Self {
        Self::with_target_occupancy(items, DEFAULT_TARGET_OCCUPANCY)
    }

    /// [`UniformGrid::build`] sized for roughly `target` entries per cell.
    pub fn with_target_occupancy(items: &[(Rect, T)], target: f64) -> Self {
        let rects = items.iter().map(|(r, _)| *r).collect();
        let values = items.iter().map(|(_, v)| *v).collect();
        Self::index(rects, values, target)
    }

    /// Indexes `rects` (paired with `values`) in cells sized for roughly
    /// `target` entries each.
    fn index(rects: Arc<[Rect]>, values: Arc<[T]>, target: f64) -> Self {
        debug_assert_eq!(rects.len(), values.len());
        let n = rects.len();
        let bbox = if n == 0 {
            Rect::new(0.0, 0.0, 1.0, 1.0)
        } else {
            Rect::union_all(rects.iter())
        };
        let side = if n == 0 {
            1
        } else {
            ((n as f64 / target.max(1.0)).sqrt().ceil() as usize).max(1)
        };
        let (nx, ny) = (side, side);
        let mut grid = UniformGrid {
            x: Axis::over(bbox.min.x, bbox.max.x, bbox.width(), nx),
            y: Axis::over(bbox.min.y, bbox.max.y, bbox.height(), ny),
            rects,
            values,
            starts: Vec::new(),
            lo_x: Vec::new(),
            pos: Vec::new(),
            max_w: vec![0.0; nx * ny],
            straddles: Vec::new(),
        };
        // Every entry's cell span, computed once for the three passes.
        let spans: Vec<CellRange> = grid.rects.iter().map(|r| grid.span_of(r)).collect();

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

        // Pass 2: the positions of each cell, in array order (every entry
        // lies in a cell, so positions fit the `u32` the replicas do).
        let mut cursor: Vec<u32> = starts[..nx * ny].to_vec();
        let mut pos = vec![0u32; acc];
        for (at, (r, s)) in grid.rects.iter().zip(&spans).enumerate() {
            let mut w = r.max.x - r.min.x;
            if r.min.x + w < r.max.x {
                w = w.next_up(); // the subtraction rounded down
            }
            for cy in s.y0..=s.y1 {
                for cx in s.x0..=s.x1 {
                    let cell = cy * nx + cx;
                    pos[cursor[cell] as usize] = at as u32;
                    cursor[cell] += 1;
                    grid.max_w[cell] = grid.max_w[cell].max(w);
                }
            }
        }

        // Pass 3: order each cell by `(lo_x, payload, position)` — a total
        // order, so the array order the entries came in cannot show — and
        // lay the slots out.
        let (rects, values) = (&grid.rects, &grid.values);
        for cell in starts.windows(2) {
            let run = &mut pos[cell[0] as usize..cell[1] as usize];
            run.sort_unstable_by(|&a, &b| {
                let (a, b) = (a as usize, b as usize);
                let by_x = rects[a].min.x.total_cmp(&rects[b].min.x);
                by_x.then(values[a].cmp(&values[b])).then(a.cmp(&b))
            });
        }
        grid.lo_x = pos.iter().map(|&at| rects[at as usize].min.x).collect();
        grid.straddles = vec![0; acc.div_ceil(64)];
        for (slot, &at) in pos.iter().enumerate() {
            let s = &spans[at as usize];
            let replicated = (s.x0, s.y0) != (s.x1, s.y1);
            grid.straddles[slot / 64] |= (replicated as u64) << (slot % 64);
        }
        grid.pos = pos;
        grid.starts = starts;
        grid
    }
}

impl<T> UniformGrid<T> {
    /// Number of unique indexed rectangles.
    #[inline]
    pub fn len(&self) -> usize {
        self.rects.len()
    }

    /// Returns `true` if the grid indexes no rectangles.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.rects.is_empty()
    }

    /// The workspace bounding box the grid covers.
    #[inline]
    pub fn bbox(&self) -> Rect {
        Rect {
            min: Point::new(self.x.min, self.y.min),
            max: Point::new(self.x.max, self.y.max),
        }
    }

    /// The entries of cell `c` (row-major, `c < nx · ny`) as `(rectangle,
    /// payload)`, in slot order: by `lo_x`, then payload.
    pub fn cell_entries(&self, c: usize) -> impl Iterator<Item = (&Rect, &T)> + '_ {
        self.cell_slots(c).map(|slot| {
            let at = self.pos[slot] as usize;
            (&self.rects[at], &self.values[at])
        })
    }

    /// Entry slots of cell `c` (indices into the slot arrays).
    #[inline]
    fn cell_slots(&self, c: usize) -> std::ops::Range<usize> {
        self.starts[c] as usize..self.starts[c + 1] as usize
    }

    /// Whether the entry at slot `i` lies in more than one cell.
    #[inline]
    fn straddles(&self, i: usize) -> bool {
        self.straddles[i / 64] >> (i % 64) & 1 != 0
    }

    /// Structural cell-occupancy statistics.
    pub fn stats(&self) -> GridStats {
        let cells = self.x.n * self.y.n;
        let entries = self.pos.len() as u64;
        let unique = self.rects.len() as u64;
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
            nx: self.x.n as u64,
            ny: self.y.n as u64,
            cells: cells as u64,
            occupied_cells: occupied,
            entries,
            unique,
            replication_factor: if unique == 0 {
                1.0
            } else {
                entries as f64 / unique as f64
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

    /// Cell span of a rectangle (clamped to the grid).
    #[inline]
    fn span_of(&self, r: &Rect) -> CellRange {
        CellRange {
            x0: self.x.cell(r.min.x),
            y0: self.y.cell(r.min.y),
            x1: self.x.cell(r.max.x),
            y1: self.y.cell(r.max.y),
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
        let clamped = region.intersection(&self.bbox());
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
            let idx = y0 * self.x.n + x0;
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

    /// The one scan loop of both kernels: visits `(position, rect)` for
    /// every entry of the plan's `cell_pos`-th cell that lies in one of its
    /// [`runs`](Self::runs) and is processed in that cell under the
    /// reference-point rule — by construction when it lies in no other
    /// cell. The runs are those of **all** windows, not
    /// only of the windows whose range covers the cell: the rule can
    /// process an entry in a cell that lies only in another window's range.
    fn sweep(&self, plan: &Plan, cell_pos: usize, mut visit: impl FnMut(usize, &Rect)) {
        let c = plan.cells[cell_pos];
        self.runs(c, &plan.windows, |run| {
            for slot in run {
                let at = self.pos[slot] as usize;
                let r = &self.rects[at];
                if !self.straddles(slot) || self.dedup_cell(r, &plan.windows) == Some(c) {
                    visit(at, r);
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
#[derive(Debug, Clone, Copy)]
struct Axis {
    min: f64,
    max: f64,
    step: f64,
    n: usize,
}

impl Axis {
    /// `n` cells over `[min, max]`, of width `extent / n` — or 1 when that
    /// is not positive (all data on one point or line).
    fn over(min: f64, max: f64, extent: f64, n: usize) -> Self {
        let step = extent / n as f64;
        let step = if step > 0.0 { step } else { 1.0 };
        Axis { min, max, step, n }
    }

    /// The cell of coordinate `v`, clamped to the axis. The cast is the
    /// floor: it truncates toward zero, which is `floor` on `[0, ∞)`;
    /// negatives and NaN become cell 0 through the `max`, as they did
    /// through `floor` and `max`, and `+∞` saturates into the `min`. The
    /// division stays: a reciprocal multiply moves borders by an ulp.
    #[inline]
    fn cell(&self, v: f64) -> usize {
        (((v - self.min) / self.step).max(0.0) as usize).min(self.n - 1)
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
            plan.cells
                .extend((g.x0..=g.x1).map(|cx| cy * grid.x.n + cx));
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
    /// Where the entry lies in the indexed arrays.
    at: usize,
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
        for cell_pos in 0..plan.cells.len() {
            grid.sweep(plan, cell_pos, |at, r| {
                let satisfied = satisfied_count(windows, r);
                if satisfied > 0 {
                    let value = grid.values[at];
                    CellBest {
                        score: score(&value, satisfied),
                        cell_pos,
                        at,
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
        rect: grid.rects[b.at],
        satisfied: b.satisfied,
        score: b.score,
    })
}

/// Multi-window candidate enumeration — the grid analogue of the R*-tree
/// candidate walk ([`for_each_candidate`](crate::multiwindow::for_each_candidate))
/// used by WR and IBB: every `(value, satisfied_count)` with
/// `satisfied_count ≥ min_count`, each value exactly once, in canonical
/// `(cell, payload)` order, appended to `out` (so a caller that reuses `out`
/// allocates nothing once it has grown). One access is charged per
/// candidate cell.
///
/// The sweep covers the **union** of the windows' candidate ranges even for
/// conjunctive queries (`min_count == windows.len()`): an entry may
/// satisfy two windows whose candidate ranges are disjoint, so the range
/// intersection would not be a sound filter.
pub fn candidates_with_counts<T: Copy + Ord>(
    grid: &UniformGrid<T>,
    windows: &[(Predicate, Rect)],
    min_count: u32,
    out: &mut Vec<(T, u32)>,
    cell_accesses: &mut u64,
    level_accesses: &mut [u64],
) {
    debug_assert!(min_count >= 1);
    with_plan(grid, windows, cell_accesses, level_accesses, |plan| {
        for cell_pos in 0..plan.cells.len() {
            let start = out.len();
            grid.sweep(plan, cell_pos, |at, r| {
                let count = satisfied_count(windows, r);
                if count >= min_count {
                    out.push((grid.values[at], count));
                }
            });
            out[start..].sort_unstable_by_key(|hit| hit.0);
        }
    });
}

impl<T> MemoryFootprint for UniformGrid<T> {
    /// Length-based resident bytes of the index alone: per slot its `lo_x`
    /// and position, per cell its span start and sweep bound, and the
    /// straddle bits. The indexed rectangles and payloads are counted by
    /// their owner — an R*-tree's leaf level, for a grid
    /// [`over_leaves`](UniformGrid::over_leaves).
    fn memory_bytes(&self) -> u64 {
        let slots = std::mem::size_of_val(&self.lo_x[..]) + std::mem::size_of_val(&self.pos[..]);
        let cells =
            std::mem::size_of_val(&self.starts[..]) + std::mem::size_of_val(&self.max_w[..]);
        (slots + cells + std::mem::size_of_val(&self.straddles[..])) as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    mod reference;
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
        let mut hits = Vec::new();
        candidates_with_counts(grid, &[(pred, *w)], 1, &mut hits, accesses, &mut []);
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
            let mut got = Vec::new();
            candidates_with_counts(&grid, &windows, min, &mut got, &mut 0, &mut []);
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
        let mut got = Vec::new();
        candidates_with_counts(&grid, &windows, 2, &mut got, &mut 0, &mut []);
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
                cells.extend((g.x0..=g.x1).map(|cx| cy * grid.x.n + cx));
            }
        }
        cells.sort_unstable();
        cells.dedup();
        let (mut seen, mut scanned) = (Vec::new(), 0);
        for &c in &cells {
            let mut entries: Vec<(&Rect, &u32)> = grid.cell_entries(c).collect();
            entries.sort_by_key(|&(_, v)| v);
            scanned += entries.len() as u64;
            for (r, &v) in entries {
                if grid.dedup_cell(r, &plan) == Some(c) {
                    seen.push((v, satisfied_count(windows, r)));
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
            let mut got = Vec::new();
            candidates_with_counts(grid, windows, min, &mut got, &mut acc, &mut levels);
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
                for slot in 0..grid.pos.len() {
                    let s = grid.span_of(&grid.rects[grid.pos[slot] as usize]);
                    let several = (s.x0, s.y0) != (s.x1, s.y1);
                    assert_eq!(grid.straddles(slot), several, "{name}: slot {slot}");
                    set += several as usize;
                }
                match name {
                    "every rectangle wider than a cell" => assert_eq!(set, grid.pos.len()),
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

    /// Windows of drawn predicates, each around a drawn entry of `items`.
    fn drawn_windows(items: &[(Rect, u32)], preds: &[usize], seed: u64) -> Vec<(Predicate, Rect)> {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut window = |&p: &usize| {
            let (r, _) = items[rng.random_range(0..items.len())];
            (ALL_PREDS[p], r.inflate(rng.random_range(0.0..0.1)))
        };
        preds.iter().map(&mut window).collect()
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
            let items = clumped(random_items(seed, n, extent + 1e-9), spots);
            let grid = UniformGrid::with_target_occupancy(&items, occupancy);
            assert_kernels_match_full_scan("drawn", &grid, &drawn_windows(&items, &preds, seed));
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

    /// The statistics agree, and the footprint is the index alone: 12 B a
    /// slot (`lo_x`, position), 12 B a cell (span start, sweep bound) and
    /// the closing start, and the straddle words — not a byte of the
    /// indexed arrays, shared or owned. A copy of them in the grid fails.
    #[test]
    fn stats_and_footprint_are_consistent() {
        let items = random_items(17, 3_000, 0.1);
        let tree = RTree::bulk_load(items.clone());
        let shared = UniformGrid::over_leaves(&tree);
        assert!(std::ptr::eq(tree.leaf_rects(), &shared.rects[..]));
        for grid in [shared, UniformGrid::build(&items)] {
            let stats = grid.stats();
            let GridStats { entries, cells, .. } = stats;
            assert_eq!((stats.unique, cells), (3_000, stats.nx * stats.ny));
            assert!(entries > stats.unique && stats.replication_factor > 1.0);
            assert!(stats.occupied_cells <= cells);
            assert!(stats.max_occupancy as f64 >= stats.avg_occupancy);
            let index = 12 * entries + 12 * cells + 4 + 8 * entries.div_ceil(64);
            assert_eq!(grid.memory_bytes(), index, "{entries} slots, {cells} cells");
        }
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
