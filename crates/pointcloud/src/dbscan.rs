//! DBSCAN density-based clustering (Ester et al., KDD'96).
//!
//! Used in two places, exactly as in the paper:
//! * on-vehicle, to segment the ground-free point cloud into objects for
//!   moving-object extraction (§II-B), and
//! * as the *baseline* pedestrian clustering that the crowd-clustering
//!   algorithm of §II-D improves upon (Fig. 4).
//!
//! The implementation bins points into a spatial grid stored flat in CSR
//! form (one offset table plus one contiguous index array), so a neighbour
//! query reads candidate points from a handful of contiguous slices with
//! zero hashing and no per-query allocation. Dense clouds use half-`eps`
//! cells, which shrink the scanned window from the classic 3×3 `eps`-cell
//! block (9 eps² of area) to a tight rectangle of about 6.25 eps² around
//! the query disk — roughly a third fewer distance checks in the hot loop.
//! The grid, labels, and traversal scratch live in a reusable
//! [`DbscanScratch`], so the vehicle-side hot path ([`crate::MovingObjectExtractor`])
//! clusters every frame without heap allocation in the steady state; the
//! [`dbscan`] function remains the one-shot convenience wrapper.
//!
//! The output is bit-identical to the original `HashMap`-grid
//! implementation — proved label-for-label by a differential suite against
//! that implementation while it was kept (since retired; the pipeline
//! fingerprints in `tests/stage_graph_determinism.rs` pin the labelling
//! end to end).
//! This does *not* require reproducing the old neighbour enumeration
//! order, because DBSCAN's labelling is enumeration-order-independent:
//! each cluster is the density-reachable closure of its seed (a fixed set
//! given which points earlier clusters absorbed), seeds are scanned in
//! ascending index, and a border point contested between two clusters
//! always goes to the earlier-numbered one since each frontier drains
//! fully before the next seed is considered. Distance checks are
//! independent of order, so the float predicate admits the same pairs
//! either way.

use crate::cloud::lane_bounds;
use erpd_geometry::Vec2;

/// DBSCAN parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DbscanParams {
    /// Neighbourhood radius, metres.
    pub eps: f64,
    /// Minimum neighbourhood size (including the point itself) for a core
    /// point.
    pub min_points: usize,
}

impl DbscanParams {
    /// Creates a parameter set.
    ///
    /// # Panics
    ///
    /// Panics if `eps` is not strictly positive and finite, or
    /// `min_points == 0`.
    pub fn new(eps: f64, min_points: usize) -> Self {
        assert!(eps.is_finite() && eps > 0.0, "invalid DBSCAN eps");
        assert!(min_points > 0, "min_points must be positive");
        DbscanParams { eps, min_points }
    }
}

impl Default for DbscanParams {
    /// `eps = 1.0 m`, `min_points = 4`: reasonable for vehicle-scale LiDAR
    /// clusters.
    fn default() -> Self {
        DbscanParams::new(1.0, 4)
    }
}

/// Result of a DBSCAN run.
#[derive(Debug, Clone, PartialEq)]
pub struct DbscanResult {
    labels: Vec<Option<usize>>,
    n_clusters: usize,
}

impl DbscanResult {
    /// Cluster label per input point; `None` marks noise.
    #[inline]
    pub fn labels(&self) -> &[Option<usize>] {
        &self.labels
    }

    /// Number of clusters found.
    #[inline]
    pub fn n_clusters(&self) -> usize {
        self.n_clusters
    }

    /// Indices of the points in each cluster.
    pub fn clusters(&self) -> Vec<Vec<usize>> {
        let mut out = vec![Vec::new(); self.n_clusters];
        for (i, l) in self.labels.iter().enumerate() {
            if let Some(c) = l {
                out[*c].push(i);
            }
        }
        out
    }

    /// Indices of noise points.
    pub fn noise(&self) -> Vec<usize> {
        self.labels
            .iter()
            .enumerate()
            .filter_map(|(i, l)| l.is_none().then_some(i))
            .collect()
    }
}

/// Internal label sentinels: real cluster labels count up from zero, so
/// the two sentinels sit at the top of the `u32` range and
/// `label >= NOISE` means "not yet in a cluster". Labels are `u32` rather
/// than `usize` on purpose — the expansion loop gathers labels for every
/// in-range point, and halving the element size halves that traffic.
const UNVISITED: u32 = u32::MAX;
const NOISE: u32 = u32::MAX - 1;

/// Dense-layout cell side as a fraction of eps when the cloud is dense
/// enough for free-core marking to fire (diagonal `0.7·√2 ≈ 0.99·eps`
/// stays under eps, so same-cell points remain mutual neighbours).
const BIG_CELL: f64 = 0.7;

/// Spatial grid stored flat in CSR form: all point indices live in one
/// `entries` array, grouped by cell, with an offset table `starts` marking
/// each cell's slice. Two layouts share the same arrays:
///
/// * **dense** — cells of the occupied bounding box are addressed directly
///   as `(kx - min_kx) * grid_h + (ky - min_ky)` and the grid is built with
///   a counting sort; chosen whenever the bounding box holds at most a few
///   cells per point, which is every realistic LiDAR cloud. Dense cells
///   are sub-eps on a side — `0.7·eps` when the cloud's occupancy lets
///   whole cells reach `min_points` (their diagonal stays under eps, so
///   free-core marking fires), else `eps/2`, whose query windows cover
///   about 6.25 eps² instead of the 9 eps² a 3×3 block of `eps`-cells
///   covers. Either side cuts distance checks at the price of a larger
///   (still cheap to memset) offset table;
/// * **sparse** — for far-flung clouds whose bounding box would dwarf the
///   point count, `eps`-sized cells, with only occupied cells kept
///   (`cell_keys`, sorted) and a probe that finds each of the 3×3
///   neighbouring cells by binary search.
///
/// Point coordinates are mirrored into `pts` in `entries` order, so the
/// distance loop streams one contiguous array instead of gather-loading
/// the caller's point slice.
#[derive(Debug, Clone, Default)]
struct FlatGrid {
    eps: f64,
    /// Cell side: `0.7·eps` or `eps/2` for the dense layout (chosen per
    /// cloud by occupancy, see [`build`](Self::build)), `eps` for sparse.
    cell: f64,
    /// `1.0 / cell`, the dense layout's keying factor. Every dense key is
    /// `floor(v * inv_cell)` — multiplication instead of division in the
    /// per-point hot loops. Any fixed positive factor yields a valid
    /// axis-aligned partition as long as *all* dense keying (binning and
    /// query windows) uses the same one, which is the invariant here.
    inv_cell: f64,
    /// Per-point cell key `(kx, ky)` at the current `cell` size
    /// (sparse layout only).
    keys_of: Vec<(i64, i64)>,
    /// Per-point flat cell index (dense layout only): half the width of a
    /// key pair, and saves re-deriving the row-major index every pass.
    cell_of: Vec<u32>,
    /// Occupied cell indices in row-major order (dense layout only).
    occupied: Vec<u32>,
    /// CSR offsets: `entries[starts[c]..starts[c + 1]]` is cell `c`.
    starts: Vec<u32>,
    /// Point indices grouped by cell, ascending within each cell.
    entries: Vec<u32>,
    /// Point coordinates in `entries` order (see type docs).
    pts: Vec<Vec2>,
    /// Occupied cell keys, sorted (sparse layout only).
    cell_keys: Vec<(i64, i64)>,
    /// Sort buffer for the sparse build.
    sort_buf: Vec<((i64, i64), u32)>,
    /// Dense-layout origin and dimensions (`grid_w == 0` means sparse).
    min_kx: i64,
    min_ky: i64,
    grid_w: usize,
    grid_h: usize,
}

impl FlatGrid {
    /// Rebuilds the grid over the points `(xs[i], ys[i])`, reusing all
    /// buffers. `min_pts` only steers the dense-layout cell-side choice
    /// (see below) — it never affects which points end up where.
    fn build(&mut self, xs: &[f64], ys: &[f64], eps: f64, min_pts: usize) {
        self.eps = eps;
        // Both scatter passes (dense and sparse) write every slot in
        // `0..len` exactly once before any read, so neither array needs
        // its stale contents cleared — only growing (or shrinking the
        // tail) to the new length.
        let len = xs.len();
        if self.entries.len() < len {
            self.entries.resize(len, 0);
        } else {
            self.entries.truncate(len);
        }
        if self.pts.len() < len {
            self.pts.resize(len, Vec2::ZERO);
        } else {
            self.pts.truncate(len);
        }
        self.cell_keys.clear();
        // The layout choice needs the cell-count of the candidate grid, and
        // `floor` is monotone, so the coordinate bounding box gives the key
        // bounding box at any cell size without materialising keys first.
        let (Some((min_x, max_x, _)), Some((min_y, max_y, _))) = (lane_bounds(xs), lane_bounds(ys))
        else {
            self.grid_w = 0;
            self.grid_h = 0;
            self.cell = eps;
            self.keys_of.clear();
            self.starts.clear();
            return;
        };
        let (min, max) = (Vec2::new(min_x, min_y), Vec2::new(max_x, max_y));
        let dims = |side: f64| -> (i64, i64, i128, i128) {
            // Same `floor(v * inv)` keying the per-point hot loops use.
            let inv = 1.0 / side;
            let min_kx = (min.x * inv).floor() as i64;
            let min_ky = (min.y * inv).floor() as i64;
            // i128: the key span of a degenerate cloud can overflow i64.
            // Saturating: a coordinate beyond i128 saturates its cast, and
            // the span must still come out huge, not wrap.
            let span = |max: f64, min_k: i64| {
                ((max * inv).floor() as i128)
                    .saturating_sub(min_k as i128)
                    .saturating_add(1)
            };
            (min_kx, min_ky, span(max.x, min_kx), span(max.y, min_ky))
        };
        // The dense layout wins whenever the offset table stays small
        // enough to rebuild (one memset + counting sort) cheaply relative
        // to the query work. 64 cells/point admits every vehicular cloud
        // (tens of thousands of points over a few hundred metres, even at
        // sub-eps cell granularity) while the truly degenerate clouds
        // (points kilometres apart) fall back to the sorted sparse layout.
        let dense_cap = (len as i128 * 64).max(4096);
        let (bkx, bky, bw, bh) = dims(eps * BIG_CELL);
        let fits_dense = |w: i128, h: i128| {
            let cells = w.saturating_mul(h);
            cells <= dense_cap && cells < u32::MAX as i128
        };
        if fits_dense(bw, bh) {
            // Any cell side with diagonal under eps gives identical labels,
            // so the side is purely a speed knob with a density-dependent
            // optimum. Big 0.7·eps cells win when they reach `min_points`:
            // Phase A then marks the whole cell core with zero distance
            // checks. Under-filled big cells lose — their query windows
            // cover ~25% more area than eps/2 windows. So: count occupancy
            // at 0.7·eps (that pass is the first half of the dense build
            // and is kept either way), and fall back to eps/2 cells unless
            // at least half the points sit in cells that reach
            // `min_points`.
            self.cell = eps * BIG_CELL;
            self.inv_cell = 1.0 / self.cell;
            self.count_cells(xs, ys, bkx, bky, bw as usize, bh as usize);
            let free_pts: u32 = self.starts[1..]
                .iter()
                .filter(|&&cnt| cnt as usize >= min_pts)
                .sum();
            if (free_pts as usize) * 2 < len {
                let (skx, sky, sw, sh) = dims(eps * 0.5);
                if fits_dense(sw, sh) {
                    self.cell = eps * 0.5;
                    self.inv_cell = 1.0 / self.cell;
                    self.count_cells(xs, ys, skx, sky, sw as usize, sh as usize);
                }
            }
            self.finish_dense(xs, ys);
        } else {
            self.cell = eps;
            self.inv_cell = 1.0 / eps;
            self.keys_of.clear();
            self.keys_of.extend(
                xs.iter()
                    .zip(ys)
                    .map(|(&x, &y)| ((x / eps).floor() as i64, (y / eps).floor() as i64)),
            );
            self.build_sparse(xs, ys);
        }
    }

    /// First half of the dense build: bins every point (`cell_of`) and
    /// leaves the per-cell *count* in `starts[c + 1]`. Kept separate from
    /// [`finish_dense`](Self::finish_dense) so [`build`](Self::build) can
    /// inspect the occupancy histogram to pick the cell side before
    /// committing to the scatter.
    fn count_cells(
        &mut self,
        xs: &[f64],
        ys: &[f64],
        min_kx: i64,
        min_ky: i64,
        w: usize,
        h: usize,
    ) {
        self.min_kx = min_kx;
        self.min_ky = min_ky;
        self.grid_w = w;
        self.grid_h = h;
        let inv = self.inv_cell;
        self.cell_of.clear();
        self.cell_of.extend(xs.iter().zip(ys).map(|(&x, &y)| {
            let kx = ((x * inv).floor() as i64 - min_kx) as usize;
            let ky = ((y * inv).floor() as i64 - min_ky) as usize;
            (kx * h + ky) as u32
        }));
        self.starts.clear();
        self.starts.resize(w * h + 1, 0);
        for &c in &self.cell_of {
            self.starts[c as usize + 1] += 1;
        }
    }

    /// Counting sort over the occupied bounding grid, from the counts left
    /// by [`count_cells`](Self::count_cells). The `starts` table doubles
    /// as the scatter cursor — after the exclusive prefix pass
    /// `starts[c + 1]` holds cell `c`'s begin offset, and the scatter
    /// advances it to the end offset, which *is* cell `c + 1`'s begin —
    /// so the table lands in its final `starts[c]..starts[c + 1]` shape
    /// without a second cells-sized array to memset and copy.
    fn finish_dense(&mut self, xs: &[f64], ys: &[f64]) {
        let cells = self.grid_w * self.grid_h;
        self.occupied.clear();
        let mut sum = 0u32;
        for c in 0..cells {
            let cnt = self.starts[c + 1];
            if cnt > 0 {
                self.occupied.push(c as u32);
            }
            self.starts[c + 1] = sum;
            sum += cnt;
        }
        for (i, &c) in self.cell_of.iter().enumerate() {
            let pos = self.starts[c as usize + 1];
            self.entries[pos as usize] = i as u32;
            self.pts[pos as usize] = Vec2::new(xs[i], ys[i]);
            self.starts[c as usize + 1] = pos + 1;
        }
    }

    /// Sort-by-key into per-cell runs; occupied cells only.
    fn build_sparse(&mut self, xs: &[f64], ys: &[f64]) {
        self.grid_w = 0;
        self.grid_h = 0;
        self.sort_buf.clear();
        self.sort_buf
            .extend(self.keys_of.iter().enumerate().map(|(i, &k)| (k, i as u32)));
        // Unstable is fine: the (key, index) pairs are unique and the index
        // tiebreak keeps each cell's run ascending.
        self.sort_buf.sort_unstable();
        self.starts.clear();
        for (pos, &(k, i)) in self.sort_buf.iter().enumerate() {
            if self.cell_keys.last() != Some(&k) {
                self.cell_keys.push(k);
                self.starts.push(pos as u32);
            }
            self.entries[pos] = i;
            self.pts[pos] = Vec2::new(xs[i as usize], ys[i as usize]);
        }
        self.starts.push(xs.len() as u32);
    }

    /// Exact window of dense-layout cells overlapping the padded query
    /// square `[p ± eps]²`, clamped to the grid, as inclusive
    /// `(x0, x1, y0, y1)` cell coordinates relative to the grid origin.
    /// The pad is far above rounding error (`eps * 1e-9` versus ~1 ulp),
    /// so the window provably contains every point that can pass the
    /// float distance predicate: a pass forces `|q.x - p.x| <= eps` and
    /// `|q.y - p.y| <= eps` up to a couple of ulps, and widening only
    /// ever adds cells — it can never exclude a true neighbour.
    #[inline]
    fn window(&self, p: Vec2) -> (i64, i64, i64, i64) {
        let r = self.eps * (1.0 + 1e-9);
        let inv = self.inv_cell;
        let x0 = (((p.x - r) * inv).floor() as i64 - self.min_kx).max(0);
        let x1 = (((p.x + r) * inv).floor() as i64 - self.min_kx).min(self.grid_w as i64 - 1);
        let y0 = (((p.y - r) * inv).floor() as i64 - self.min_ky).max(0);
        let y1 = (((p.y + r) * inv).floor() as i64 - self.min_ky).min(self.grid_h as i64 - 1);
        (x0, x1, y0, y1)
    }

    /// Probes the eps-neighbourhood of point `idx`, at `p`, in one fused
    /// pass (sparse layout only): returns the neighbour *count* (the core
    /// test's input) and pushes onto `frontier` every neighbour that can
    /// still change state (`labels[j] >= NOISE`). No neighbour list is
    /// ever materialised.
    fn probe(&self, p: Vec2, idx: usize, labels: &[u32], frontier: &mut Vec<u32>) -> usize {
        let (cx, cy) = self.keys_of[idx];
        let mut count = 0;
        for dx in -1..=1 {
            for dy in -1..=1 {
                // A coordinate beyond the i64 key range saturates its key,
                // and a saturated key has no neighbour cell on that side.
                let (Some(kx), Some(ky)) = (cx.checked_add(dx), cy.checked_add(dy)) else {
                    continue;
                };
                let Ok(c) = self.cell_keys.binary_search(&(kx, ky)) else {
                    continue;
                };
                let lo = self.starts[c] as usize;
                let hi = self.starts[c + 1] as usize;
                count += self.scan_range(p, lo, hi, labels, frontier);
            }
        }
        count
    }

    /// Distance-tests the entry range `[lo, hi)` against `p`; counts every
    /// hit and pushes the still-labelable ones onto `frontier` in range
    /// order. The loop is branchless: in a dense cluster the distance test
    /// passes about half the time, which is the worst case for a branch
    /// predictor, so hits are compacted with an unconditional write plus a
    /// conditional cursor advance instead.
    #[inline]
    fn scan_range(
        &self,
        p: Vec2,
        lo: usize,
        hi: usize,
        labels: &[u32],
        frontier: &mut Vec<u32>,
    ) -> usize {
        let eps2 = self.eps * self.eps;
        let n = hi - lo;
        let pts = &self.pts[lo..hi];
        let entries = &self.entries[lo..hi];
        let base = frontier.len();
        frontier.resize(base + n, 0);
        let out = &mut frontier[base..];
        let mut count = 0usize;
        let mut w = 0usize;
        for k in 0..n {
            let dx = pts[k].x - p.x;
            let dy = pts[k].y - p.y;
            let inside = (dx * dx + dy * dy <= eps2) as usize;
            count += inside;
            let j = entries[k];
            let open = (labels[j as usize] >= NOISE) as usize;
            out[w] = j;
            w += inside & open;
        }
        frontier.truncate(base + w);
        count
    }
}

/// Sentinel for [`DbscanScratch::cell_state`]: cell examined, no cores.
const NO_CORE: u32 = u32::MAX - 1;

/// Reusable DBSCAN state: the flat CSR grid plus the label, neighbour,
/// and frontier buffers. [`run_lanes`](Self::run_lanes) overwrites
/// everything, so one scratch can serve an unbounded stream of frames with
/// no steady-state heap allocation; read the outcome through
/// [`label`](Self::label) and [`n_clusters`](Self::n_clusters).
///
/// # Examples
///
/// ```
/// use erpd_pointcloud::{DbscanParams, DbscanScratch};
///
/// let xs: Vec<f64> = (0..6).map(|i| i as f64 * 0.1).collect();
/// let ys = vec![0.0; 6];
/// let mut scratch = DbscanScratch::new();
/// scratch.run_lanes(&xs, &ys, DbscanParams::new(0.5, 3));
/// assert_eq!(scratch.n_clusters(), 1);
/// assert_eq!(scratch.label(0), Some(0));
/// ```
#[derive(Debug, Clone, Default)]
pub struct DbscanScratch {
    labels: Vec<u32>,
    n_clusters: usize,
    grid: FlatGrid,
    /// Sparse path: BFS frontier of point indices. Dense path: BFS stack
    /// of cell indices during component formation.
    frontier: Vec<u32>,
    /// Core flag per entry *position* (grid order; dense path only).
    core_pos: Vec<u8>,
    /// Core flag per point *index* (dense path only).
    core_pt: Vec<u8>,
    /// Per-cell component id; `u32::MAX` = unexamined or unassigned,
    /// [`NO_CORE`] = examined, holds no core points (dense path only).
    cell_state: Vec<u32>,
    /// Per-cell bounding box of *core* points as `[min_x, min_y, max_x,
    /// max_y]` (dense path only). Written for every occupied cell during
    /// core marking and read only for cells that hold cores, so entries
    /// of cells untouched this run are stale by construction, never read.
    core_bbox: Vec<[f64; 4]>,
    /// Number of core points per cell (dense path only; same staleness
    /// contract as `core_bbox`). Makes the "does this cell hold a core?"
    /// test O(1) instead of a scan of the cell's entries.
    core_cnt: Vec<u32>,
    /// Final cluster number per component, assigned in ascending order of
    /// each component's first core point index (dense path only).
    comp_number: Vec<u32>,
    /// Entry positions of the current BFS cell's cores (dense path only).
    dcores: Vec<u32>,
}

impl DbscanScratch {
    /// An empty scratch; buffers grow on first use and are reused after.
    pub fn new() -> Self {
        DbscanScratch::default()
    }

    /// Clusters the points `(xs[i], ys[i])` — the SoA coordinate lanes of
    /// a [`crate::PointCloud`]'s planar projection — overwriting any
    /// previous run's state.
    ///
    /// # Panics
    ///
    /// Panics if the lanes differ in length, or hold `u32::MAX - 1` points
    /// or more (labels are `u32` with two sentinel values).
    pub fn run_lanes(&mut self, xs: &[f64], ys: &[f64], params: DbscanParams) {
        assert_eq!(xs.len(), ys.len(), "coordinate lanes must match");
        let n = xs.len();
        assert!(n < NOISE as usize, "point count exceeds the u32 label space");
        self.grid.build(xs, ys, params.eps, params.min_points);
        self.n_clusters = 0;
        self.frontier.clear();
        if n == 0 {
            self.labels.clear();
            return;
        }
        if self.grid.grid_w > 0 {
            // Dense phases C and D together write every label before any
            // read, so only growth needs initialising; the stale prefix
            // is fully overwritten.
            if self.labels.len() < n {
                self.labels.resize(n, UNVISITED);
            } else {
                self.labels.truncate(n);
            }
            self.run_dense(params);
        } else {
            // The sparse BFS reads `UNVISITED` to pick seeds, so labels
            // must start clean.
            self.labels.clear();
            self.labels.resize(n, UNVISITED);
            self.run_sparse(xs, ys, params);
        }
    }

    /// Classic seeded BFS over the sparse grid layout. Far-flung clouds
    /// only: per-point neighbourhood scans are cheap when nearly every
    /// cell is empty.
    fn run_sparse(&mut self, xs: &[f64], ys: &[f64], params: DbscanParams) {
        // The probe pushes frontier candidates while it counts, so no
        // neighbour list is ever materialised. Only points that can still
        // change state go on the frontier (`labels >= NOISE`): an
        // already-clustered point would pop as a no-op, so skipping it
        // stops duplicate re-expansion without changing any label. A
        // non-core probe's speculative pushes are rolled back by
        // truncating to the pre-probe mark, which no pop can observe.
        let at = |i: usize| Vec2::new(xs[i], ys[i]);
        for i in 0..xs.len() {
            if self.labels[i] != UNVISITED {
                continue;
            }
            let count = self.grid.probe(at(i), i, &self.labels, &mut self.frontier);
            if count < params.min_points {
                self.frontier.clear(); // roll back this probe's pushes
                self.labels[i] = NOISE;
                continue;
            }
            let cluster = self.n_clusters as u32;
            self.n_clusters += 1;
            // The probe ran while `i` was unvisited, so `i` is on the
            // frontier; labelling it afterwards turns that entry into a
            // no-op pop.
            self.labels[i] = cluster;
            while let Some(j) = self.frontier.pop() {
                let j = j as usize;
                if self.labels[j] == NOISE {
                    self.labels[j] = cluster; // border point reached from a core
                    continue;
                }
                if self.labels[j] != UNVISITED {
                    continue;
                }
                self.labels[j] = cluster;
                let mark = self.frontier.len();
                let count = self.grid.probe(at(j), j, &self.labels, &mut self.frontier);
                if count < params.min_points {
                    self.frontier.truncate(mark); // border point: no expansion
                }
            }
        }
    }

    /// Exact grid DBSCAN over the dense sub-eps layout (after Gunawan's
    /// grid formulation): same labels as the seeded BFS, a fraction of the
    /// distance checks.
    ///
    /// * **Core marking** — any cell holding `min_points` points makes all
    ///   of them core with zero distance checks (the cell diagonal stays
    ///   under eps, so same-cell points are mutual neighbours);
    ///   points in smaller cells count their window with an early exit at
    ///   `min_points`.
    /// * **Components** — cells with cores are BFS-connected when any
    ///   core-core pair between them is within eps (early exit on the
    ///   first hit); a cell's cores are mutually connected for free.
    /// * **Labels** — components are numbered in ascending order of their
    ///   first core's point index, which is exactly the cluster order the
    ///   ascending seed scan produces; each border point joins the
    ///   lowest-numbered cluster with a core in range, which is the
    ///   cluster whose (fully-drained) expansion would have popped it
    ///   first; the rest is noise.
    fn run_dense(&mut self, params: DbscanParams) {
        let min_pts = params.min_points;
        let eps2 = params.eps * params.eps;
        let n = self.labels.len();
        let h = self.grid.grid_h as i64;
        let w = self.grid.grid_w as i64;

        // Phase A: core marking. Alongside the core flags, record each
        // occupied cell's core count (Phase B's and D's O(1) "holds a
        // core?" test) and its bounding box over *core* points — Phase
        // B's cheap separation certificate. Stale entries (cells not
        // occupied this run) are never read: later phases only consult
        // occupied cells, and every occupied cell is rewritten here.
        // Likewise the per-position / per-point core flags: every point
        // lies in exactly one occupied cell, so both flag arrays are
        // written in full before any read and only need growing.
        if self.core_pos.len() < n {
            self.core_pos.resize(n, 0);
        } else {
            self.core_pos.truncate(n);
        }
        if self.core_pt.len() < n {
            self.core_pt.resize(n, 0);
        } else {
            self.core_pt.truncate(n);
        }
        let cells = self.grid.starts.len() - 1;
        if self.core_bbox.len() < cells {
            self.core_bbox.resize(cells, [0.0; 4]);
        }
        if self.core_cnt.len() < cells {
            self.core_cnt.resize(cells, 0);
        }
        for &c in &self.grid.occupied {
            let c = c as usize;
            let lo = self.grid.starts[c] as usize;
            let hi = self.grid.starts[c + 1] as usize;
            let mut bb = [f64::MAX, f64::MAX, f64::MIN, f64::MIN];
            if hi - lo >= min_pts {
                for k in lo..hi {
                    self.core_pos[k] = 1;
                    self.core_pt[self.grid.entries[k] as usize] = 1;
                    let q = self.grid.pts[k];
                    bb[0] = bb[0].min(q.x);
                    bb[1] = bb[1].min(q.y);
                    bb[2] = bb[2].max(q.x);
                    bb[3] = bb[3].max(q.y);
                }
                self.core_bbox[c] = bb;
                self.core_cnt[c] = (hi - lo) as u32;
                continue;
            }
            let mut cores = 0u32;
            for k in lo..hi {
                let p = self.grid.pts[k];
                let (x0, x1, y0, y1) = self.grid.window(p);
                let mut count = 0usize;
                'cols: for x in x0..=x1 {
                    let a = self.grid.starts[(x * h + y0) as usize] as usize;
                    let b = self.grid.starts[(x * h + y1) as usize + 1] as usize;
                    for q in &self.grid.pts[a..b] {
                        let dx = q.x - p.x;
                        let dy = q.y - p.y;
                        count += (dx * dx + dy * dy <= eps2) as usize;
                    }
                    if count >= min_pts {
                        break 'cols;
                    }
                }
                let is_core = count >= min_pts;
                self.core_pos[k] = is_core as u8;
                self.core_pt[self.grid.entries[k] as usize] = is_core as u8;
                if is_core {
                    cores += 1;
                    bb[0] = bb[0].min(p.x);
                    bb[1] = bb[1].min(p.y);
                    bb[2] = bb[2].max(p.x);
                    bb[3] = bb[3].max(p.y);
                }
            }
            self.core_bbox[c] = bb;
            self.core_cnt[c] = cores;
        }

        // Phase B: connected components over cells that hold cores. Two
        // cells `ring` apart in either axis have a gap of at least
        // `(ring - 1) * cell` between them, so any ring beyond
        // `floor(eps_pad / cell) + 1` can never hold a linkable pair —
        // ±2 at `0.7·eps` cells, ±3 at `eps/2`. The pad (same as
        // [`FlatGrid::window`]) keeps the bound provably conservative
        // against the float distance predicate.
        let eps_pad = params.eps * (1.0 + 1e-9);
        let ring = (eps_pad / self.grid.cell).floor() as i64 + 1;
        self.cell_state.clear();
        self.cell_state.resize(cells, u32::MAX);
        let mut n_comps = 0u32;
        for oi in 0..self.grid.occupied.len() {
            let seed = self.grid.occupied[oi] as usize;
            if self.cell_state[seed] != u32::MAX {
                continue;
            }
            if !self.cell_has_core(seed) {
                self.cell_state[seed] = NO_CORE;
                continue;
            }
            let comp = n_comps;
            n_comps += 1;
            self.cell_state[seed] = comp;
            self.frontier.clear();
            self.frontier.push(seed as u32);
            while let Some(d) = self.frontier.pop() {
                let d = d as usize;
                let dx_cell = d as i64 / h;
                let dy_cell = d as i64 % h;
                self.dcores.clear();
                let lo = self.grid.starts[d] as usize;
                let hi = self.grid.starts[d + 1] as usize;
                if self.core_cnt[d] as usize == hi - lo {
                    // Saturated cell (the common dense case): every entry
                    // is core, no flag scan needed.
                    self.dcores.extend(lo as u32..hi as u32);
                } else {
                    for k in lo..hi {
                        if self.core_pos[k] == 1 {
                            self.dcores.push(k as u32);
                        }
                    }
                }
                let dbb = self.core_bbox[d];
                for x in (dx_cell - ring).max(0)..=(dx_cell + ring).min(w - 1) {
                    for y in (dy_cell - ring).max(0)..=(dy_cell + ring).min(h - 1) {
                        let e = (x * h + y) as usize;
                        if e == d || self.cell_state[e] != u32::MAX {
                            continue;
                        }
                        let elo = self.grid.starts[e] as usize;
                        let ehi = self.grid.starts[e + 1] as usize;
                        if elo == ehi {
                            continue;
                        }
                        if !self.cell_has_core(e) {
                            self.cell_state[e] = NO_CORE;
                            continue;
                        }
                        // Separation certificate: if the two cells' core
                        // bounding boxes are more than eps apart, no
                        // core-core pair can link them and the quadratic
                        // scan is skipped. The pad dwarfs the rounding of
                        // the box-gap arithmetic, so a pair the distance
                        // predicate would admit is never pruned.
                        let ebb = self.core_bbox[e];
                        let gx = (ebb[0] - dbb[2]).max(dbb[0] - ebb[2]).max(0.0);
                        let gy = (ebb[1] - dbb[3]).max(dbb[1] - ebb[3]).max(0.0);
                        if gx * gx + gy * gy > eps_pad * eps_pad {
                            continue;
                        }
                        if self.cells_linked(e, eps2) {
                            self.cell_state[e] = comp;
                            self.frontier.push(e as u32);
                        }
                    }
                }
            }
        }

        // Phase C: number components by ascending first core index and
        // label every core point.
        self.comp_number.clear();
        self.comp_number.resize(n_comps as usize, u32::MAX);
        let mut next = 0u32;
        for i in 0..n {
            if self.core_pt[i] == 0 {
                continue;
            }
            let comp = self.cell_state[self.grid.cell_of[i] as usize] as usize;
            if self.comp_number[comp] == u32::MAX {
                self.comp_number[comp] = next;
                next += 1;
            }
            self.labels[i] = self.comp_number[comp];
        }
        self.n_clusters = next as usize;

        // Phase D: border and noise assignment. Iterated in grid order
        // for locality — each point's label depends only on the cores in
        // its own window, not on any scan order.
        for oi in 0..self.grid.occupied.len() {
            let c = self.grid.occupied[oi] as usize;
            let lo = self.grid.starts[c] as usize;
            let hi = self.grid.starts[c + 1] as usize;
            for k in lo..hi {
                let i = self.grid.entries[k] as usize;
                if self.core_pt[i] == 1 {
                    continue;
                }
                let p = self.grid.pts[k];
                let (x0, x1, y0, y1) = self.grid.window(p);
                let mut best = u32::MAX;
                for x in x0..=x1 {
                    for y in y0..=y1 {
                        let e = (x * h + y) as usize;
                        let state = self.cell_state[e];
                        if state >= NO_CORE {
                            continue;
                        }
                        let num = self.comp_number[state as usize];
                        if num >= best {
                            continue;
                        }
                        // Same separation certificate as Phase B, point
                        // against cell: farther than eps from the cell's
                        // core bounding box means no core in it can adopt
                        // this border point.
                        let ebb = self.core_bbox[e];
                        let gx = (ebb[0] - p.x).max(p.x - ebb[2]).max(0.0);
                        let gy = (ebb[1] - p.y).max(p.y - ebb[3]).max(0.0);
                        if gx * gx + gy * gy > eps_pad * eps_pad {
                            continue;
                        }
                        let elo = self.grid.starts[e] as usize;
                        let ehi = self.grid.starts[e + 1] as usize;
                        for kk in elo..ehi {
                            if self.core_pos[kk] == 0 {
                                continue;
                            }
                            let q = self.grid.pts[kk];
                            let dx = q.x - p.x;
                            let dy = q.y - p.y;
                            if dx * dx + dy * dy <= eps2 {
                                best = num;
                                break;
                            }
                        }
                    }
                }
                self.labels[i] = if best != u32::MAX { best } else { NOISE };
            }
        }
    }

    /// Does cell `c` hold at least one core point? O(1) off Phase A's
    /// per-cell core counts (valid for occupied cells only).
    #[inline]
    fn cell_has_core(&self, c: usize) -> bool {
        self.core_cnt[c] > 0
    }

    /// Is any core of the current BFS cell (`dcores`) within eps of any
    /// core of cell `e`? Early exit on the first hit.
    #[inline]
    fn cells_linked(&self, e: usize, eps2: f64) -> bool {
        let elo = self.grid.starts[e] as usize;
        let ehi = self.grid.starts[e + 1] as usize;
        for kk in elo..ehi {
            if self.core_pos[kk] == 0 {
                continue;
            }
            let q = self.grid.pts[kk];
            for &dk in &self.dcores {
                let d = self.grid.pts[dk as usize];
                let dx = d.x - q.x;
                let dy = d.y - q.y;
                if dx * dx + dy * dy <= eps2 {
                    return true;
                }
            }
        }
        false
    }

    /// Number of clusters found by the last run.
    #[inline]
    pub fn n_clusters(&self) -> usize {
        self.n_clusters
    }

    /// Cluster label of point `i`; `None` marks noise.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range for the last run's input.
    #[inline]
    pub fn label(&self, i: usize) -> Option<usize> {
        let l = self.labels[i];
        (l < NOISE).then_some(l as usize)
    }

    /// Materialises the last run as an owned [`DbscanResult`].
    pub(crate) fn to_result(&self) -> DbscanResult {
        DbscanResult {
            labels: self
                .labels
                .iter()
                .map(|&l| (l < NOISE).then_some(l as usize))
                .collect(),
            n_clusters: self.n_clusters,
        }
    }
}

/// Runs DBSCAN on planar points.
///
/// One-shot wrapper around [`DbscanScratch`] for small inputs: it splits
/// the points into two coordinate lanes. Hot paths that cluster every
/// frame should hold a scratch and call [`DbscanScratch::run_lanes`]
/// instead.
///
/// # Examples
///
/// ```
/// use erpd_pointcloud::{dbscan, DbscanParams};
/// use erpd_geometry::Vec2;
///
/// let mut pts = Vec::new();
/// for i in 0..5 {
///     pts.push(Vec2::new(i as f64 * 0.1, 0.0));       // cluster A
///     pts.push(Vec2::new(100.0 + i as f64 * 0.1, 0.0)); // cluster B
/// }
/// let result = dbscan(&pts, DbscanParams::new(0.5, 3));
/// assert_eq!(result.n_clusters(), 2);
/// ```
pub fn dbscan(points: &[Vec2], params: DbscanParams) -> DbscanResult {
    let xs: Vec<f64> = points.iter().map(|p| p.x).collect();
    let ys: Vec<f64> = points.iter().map(|p| p.y).collect();
    let mut scratch = DbscanScratch::new();
    scratch.run_lanes(&xs, &ys, params);
    scratch.to_result()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn blob(center: Vec2, n: usize, spread: f64) -> Vec<Vec2> {
        // Deterministic ring-shaped blob.
        (0..n)
            .map(|i| {
                let a = i as f64 / n as f64 * std::f64::consts::TAU;
                center + Vec2::from_angle(a) * spread * (0.3 + 0.7 * ((i % 3) as f64 / 3.0))
            })
            .collect()
    }

    #[test]
    fn two_well_separated_blobs() {
        let mut pts = blob(Vec2::ZERO, 12, 0.4);
        pts.extend(blob(Vec2::new(50.0, 0.0), 12, 0.4));
        let r = dbscan(&pts, DbscanParams::new(1.0, 3));
        assert_eq!(r.n_clusters(), 2);
        assert!(r.noise().is_empty());
        // All points in the first blob share a label.
        let l0 = r.labels()[0];
        assert!(r.labels()[..12].iter().all(|l| *l == l0));
    }

    #[test]
    fn isolated_points_are_noise() {
        let pts = vec![Vec2::ZERO, Vec2::new(100.0, 0.0), Vec2::new(0.0, 100.0)];
        let r = dbscan(&pts, DbscanParams::new(1.0, 2));
        assert_eq!(r.n_clusters(), 0);
        assert_eq!(r.noise().len(), 3);
    }

    #[test]
    fn chain_connectivity() {
        // A chain of points each within eps of the next forms one cluster.
        let pts: Vec<Vec2> = (0..20).map(|i| Vec2::new(i as f64 * 0.9, 0.0)).collect();
        let r = dbscan(&pts, DbscanParams::new(1.0, 2));
        assert_eq!(r.n_clusters(), 1);
        assert_eq!(r.clusters()[0].len(), 20);
    }

    #[test]
    fn border_points_join_cluster() {
        // Dense core plus one reachable border point that is itself not core.
        let mut pts = vec![
            Vec2::new(0.0, 0.0),
            Vec2::new(0.1, 0.0),
            Vec2::new(0.0, 0.1),
            Vec2::new(0.1, 0.1),
        ];
        pts.push(Vec2::new(0.9, 0.0)); // border: within eps of core, alone otherwise
        let r = dbscan(&pts, DbscanParams::new(1.0, 4));
        assert_eq!(r.n_clusters(), 1);
        assert_eq!(r.labels()[4], r.labels()[0]);
    }

    #[test]
    fn min_points_controls_density() {
        let pts: Vec<Vec2> = (0..3).map(|i| Vec2::new(i as f64 * 0.1, 0.0)).collect();
        assert_eq!(dbscan(&pts, DbscanParams::new(1.0, 3)).n_clusters(), 1);
        assert_eq!(dbscan(&pts, DbscanParams::new(1.0, 4)).n_clusters(), 0);
    }

    #[test]
    fn empty_input() {
        let r = dbscan(&[], DbscanParams::default());
        assert_eq!(r.n_clusters(), 0);
        assert!(r.labels().is_empty());
        assert!(r.clusters().is_empty());
    }

    #[test]
    fn labels_align_with_input_order() {
        let pts = vec![Vec2::new(0.0, 0.0), Vec2::new(50.0, 0.0), Vec2::new(0.1, 0.0)];
        let r = dbscan(&pts, DbscanParams::new(1.0, 2));
        assert_eq!(r.labels().len(), 3);
        assert_eq!(r.labels()[0], r.labels()[2]);
        assert!(r.labels()[1].is_none());
    }

    #[test]
    #[should_panic(expected = "invalid DBSCAN eps")]
    fn rejects_bad_eps() {
        let _ = DbscanParams::new(0.0, 3);
    }

    #[test]
    #[should_panic(expected = "min_points must be positive")]
    fn rejects_zero_min_points() {
        let _ = DbscanParams::new(1.0, 0);
    }

    #[test]
    fn grid_handles_negative_coordinates() {
        let mut pts = blob(Vec2::new(-40.0, -40.0), 10, 0.3);
        pts.extend(blob(Vec2::new(40.0, 40.0), 10, 0.3));
        let r = dbscan(&pts, DbscanParams::new(1.0, 3));
        assert_eq!(r.n_clusters(), 2);
    }

    #[test]
    fn scratch_reuse_matches_one_shot_runs() {
        // The same scratch run over different frames (growing, shrinking,
        // empty) must always agree with a fresh one-shot run.
        let frames: Vec<Vec<Vec2>> = vec![
            blob(Vec2::ZERO, 30, 0.4),
            Vec::new(),
            {
                let mut p = blob(Vec2::new(-40.0, -40.0), 12, 0.3);
                p.extend(blob(Vec2::new(12.0, 9.0), 25, 0.5));
                p.push(Vec2::new(500.0, 500.0));
                p
            },
            blob(Vec2::new(3.0, 3.0), 5, 0.2),
        ];
        let params = DbscanParams::new(1.0, 3);
        let mut scratch = DbscanScratch::new();
        for pts in &frames {
            let xs: Vec<f64> = pts.iter().map(|p| p.x).collect();
            let ys: Vec<f64> = pts.iter().map(|p| p.y).collect();
            scratch.run_lanes(&xs, &ys, params);
            let expected = dbscan(pts, params);
            assert_eq!(scratch.to_result(), expected);
        }
    }

    #[test]
    fn sparse_layout_matches_dense_semantics() {
        // Far-flung blobs force the sparse (binary-search) layout; labels
        // must still come out in first-seen order with noise preserved.
        let mut pts = blob(Vec2::new(-1e7, 3e6), 12, 0.4);
        pts.push(Vec2::new(0.0, 0.0)); // lone noise point
        pts.extend(blob(Vec2::new(2e7, -8e6), 12, 0.4));
        let r = dbscan(&pts, DbscanParams::new(1.0, 3));
        assert_eq!(r.n_clusters(), 2);
        assert_eq!(r.labels()[0], Some(0));
        assert!(r.labels()[12].is_none());
        assert_eq!(r.labels()[13], Some(1));
    }

    #[test]
    fn degenerate_extent_does_not_overflow() {
        // Key span near the i64 range: the grid must fall back to the
        // sparse layout instead of sizing a dense table.
        let pts = vec![
            Vec2::new(-1e17, -1e17),
            Vec2::new(1e17, 1e17),
            Vec2::new(1e17 + 0.1, 1e17),
        ];
        let r = dbscan(&pts, DbscanParams::new(1.0, 2));
        assert_eq!(r.n_clusters(), 1);
        assert!(r.labels()[0].is_none());
    }

    #[test]
    fn saturated_keys_do_not_overflow() {
        // Coordinates beyond the i64 key range saturate their cell keys
        // to i64::MAX / i64::MIN; probing the neighbour cells past them
        // must neither overflow nor link the two extremes.
        let pts = vec![
            Vec2::new(1e300, 1e300),
            Vec2::new(1e300, 1e300),
            Vec2::new(-1e300, -1e300),
        ];
        let r = dbscan(&pts, DbscanParams::new(1.0, 2));
        assert_eq!(r.n_clusters(), 1);
        assert_eq!(r.labels(), &[Some(0), Some(0), None]);
    }
}

