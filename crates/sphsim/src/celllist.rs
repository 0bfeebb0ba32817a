//! Cell-list neighbour search — the large-`n` fast path of `FindNeighbors`.
//!
//! The octree query costs a tree descent per particle; at bench scale that
//! walk (not the distance math) dominates the stage. A **cell list** removes
//! it: particles are binned into a uniform grid whose cell side is at least
//! the largest interaction radius (`KERNEL_SUPPORT · h_max`), so every
//! neighbour of a particle lives in the 27-cell stencil around its own cell
//! and the per-particle query becomes a flat sweep over a handful of packed
//! coordinate runs.
//!
//! The sweep emits the *final symmetric* CSR rows in a single pass: a cell
//! side ≥ the largest support radius means the stencil contains every `j`
//! with `d² ≤ r_i²` **or** `d² ≤ r_j²`, so the union test replaces the
//! octree builder's separate symmetrisation pass (its extras arrays stay
//! empty here). Membership decisions evaluate the identical expressions the
//! octree leaf test and the symmetrisation pass use — the open path sums
//! `dx² + dy² + dz²` in the same order, the periodic path goes through the
//! same [`MinImage::dist_sq`] — and `MinImage::map` is odd (per-axis `round`
//! is odd, negation and multiplication are exact), so evaluating in the
//! `j − i` direction is bit-identical to every other pass. The two builders
//! therefore produce the same row *sets* (row order differs: stencil-scan
//! here, tree-traversal there), which the `celllist_equivalence` suite pins
//! on every registered scenario.
//!
//! The grid anchors to the periodic box when the set's boundary is periodic
//! (stencil indices wrap; distances are minimum-image) and to the bounding
//! box otherwise. All buffers are owned by the grid and reused across steps:
//! after a warm-up step both the rebuild and the CSR emit are allocation-free
//! (covered by the `alloc_free_neighbors` counting-allocator gate).
//!
//! The octree remains the general path: gravity still needs it, and a grid
//! is only worth building when smoothing lengths are fairly uniform — above
//! [`POLYDISPERSITY_LIMIT`] (or on an empty set) [`CellGrid::rebuild`]
//! declines and the caller falls back to the octree builder.

use crate::boundary::{Boundary, MinImage};
use crate::kernels::KERNEL_SUPPORT;
use crate::particle::ParticleSet;
use crate::physics::neighbors::{finish_csr, NeighborLists, NeighborScratch, SERIAL_CUTOFF};

/// Below this particle count the octree query is already cheap and the
/// [`crate::workspace::StepWorkspace`] `Auto` policy keeps using it; the grid
/// only pays off once there are enough particles to amortise its rebuild.
pub const CELL_LIST_CUTOFF: usize = 1024;

/// Above this `h_max / h_min` ratio a uniform grid sized by `h_max` scans far
/// more candidates than the adaptive octree prunes, so
/// [`CellGrid::rebuild`] declines and the caller falls back to the octree.
pub const POLYDISPERSITY_LIMIT: f64 = 2.0;

/// Safety margin on the minimum cell side, so ulp-level rounding in the
/// binning arithmetic can never push a true neighbour out of the stencil.
const SIDE_MARGIN: f64 = 1.0 + 1e-9;

/// A uniform spatial grid over the particle set, rebuilt once per step and
/// swept by [`find_neighbors_cells_into`]. Owns every buffer it needs
/// (counting-sort arrays plus packed per-entry coordinates), so steady-state
/// rebuilds allocate nothing.
#[derive(Debug, Default)]
pub struct CellGrid {
    /// Grid dimensions (cells per axis).
    dims: (usize, usize, usize),
    /// Lower corner the binning anchors to (periodic box min, or bounding
    /// box min for open sets).
    lo: (f64, f64, f64),
    /// Inverse cell side per axis (`0` on a degenerate axis).
    inv_cell: (f64, f64, f64),
    /// Whether stencil indices wrap (periodic boundary).
    periodic: bool,
    /// CSR cell starts into `entries` (`total_cells + 1` entries).
    starts: Vec<u32>,
    /// Counting-sort write cursors (scratch, one per cell).
    cursor: Vec<u32>,
    /// Cell index of each particle (scratch, one per particle).
    cell_of: Vec<u32>,
    /// Particle indices grouped by cell (counting-sort output).
    entries: Vec<u32>,
    /// Packed coordinates in `entries` order, so the sweep reads them as
    /// contiguous runs instead of gathering through `entries`.
    px: Vec<f64>,
    py: Vec<f64>,
    pz: Vec<f64>,
    /// Packed squared support radius `(KERNEL_SUPPORT · h_j)²` in `entries`
    /// order — the exact expression the octree symmetrisation pass squares,
    /// so the union membership test is bit-compatible.
    pr2: Vec<f64>,
    /// Max of `pr2` over each cell's entries (`0` for empty cells): the
    /// largest reach *into* the cell any of its particles has, used to prune
    /// whole stencil cells that can touch neither `r_i` nor any `r_j`.
    cell_pr2_max: Vec<f64>,
    /// All smoothing lengths bit-identical: `r_i² == r_j²` for every pair, so
    /// the union membership test collapses to the own-support test and the
    /// sweep skips the `pr2` loads entirely.
    uniform_h: bool,
    /// Number of non-empty cells after the last rebuild.
    occupied: usize,
}

impl CellGrid {
    /// Fresh (empty) grid; buffers grow to steady-state size on first use.
    pub fn new() -> Self {
        Self::default()
    }

    /// Total number of grid cells after the last successful rebuild.
    pub fn total_cells(&self) -> usize {
        self.dims.0 * self.dims.1 * self.dims.2
    }

    /// Number of non-empty cells after the last successful rebuild.
    pub fn occupied_cells(&self) -> usize {
        self.occupied
    }

    /// Mean particles per *occupied* cell after the last successful rebuild.
    pub fn mean_occupancy(&self) -> f64 {
        if self.occupied == 0 {
            0.0
        } else {
            self.entries.len() as f64 / self.occupied as f64
        }
    }

    /// Re-bin the particle set into the grid. Returns `false` — leaving the
    /// grid unusable and the caller on the octree path — when the set is
    /// empty or the smoothing lengths are too polydisperse for a uniform
    /// grid ([`POLYDISPERSITY_LIMIT`]).
    ///
    /// # Panics
    ///
    /// Panics when `2 · KERNEL_SUPPORT · h_max` reaches a periodic box edge:
    /// the minimum-image convention is ambiguous there (the same condition
    /// the octree query asserts per particle).
    pub fn rebuild(&mut self, particles: &ParticleSet) -> bool {
        let n = particles.len();
        if n == 0 {
            return false;
        }
        let mut h_min = f64::INFINITY;
        let mut h_max = 0.0f64;
        for &h in &particles.h {
            h_min = h_min.min(h);
            h_max = h_max.max(h);
        }
        if h_min <= 0.0 || !h_min.is_finite() || h_max / h_min > POLYDISPERSITY_LIMIT {
            return false;
        }
        self.uniform_h = h_min == h_max;
        let side_min = KERNEL_SUPPORT * h_max * SIDE_MARGIN;
        let (lo, extent, periodic) = match particles.boundary {
            Boundary::Periodic { box_min, box_max } => {
                let lx = box_max.0 - box_min.0;
                let ly = box_max.1 - box_min.1;
                let lz = box_max.2 - box_min.2;
                let min_edge = lx.min(ly).min(lz);
                assert!(
                    2.0 * KERNEL_SUPPORT * h_max < min_edge,
                    "interaction diameter {} reaches the periodic box edge {} — the minimum-image \
                     convention is ambiguous; shrink the smoothing length or grow the box",
                    2.0 * KERNEL_SUPPORT * h_max,
                    min_edge
                );
                (box_min, (lx, ly, lz), true)
            }
            Boundary::Open => {
                let (min, max) = particles.bounding_box();
                (min, (max.0 - min.0, max.1 - min.1, max.2 - min.2), false)
            }
        };
        let dim = |l: f64| ((l / side_min).floor() as usize).max(1);
        let (mut gx, mut gy, mut gz) = (dim(extent.0), dim(extent.1), dim(extent.2));
        // Cap the grid at O(n) cells: on very dilute sets halve the largest
        // dimension until the cell arrays stay proportional to the particle
        // count. Halving only *grows* cells, so the stencil stays sufficient.
        while gx * gy * gz > 4 * n + 1024 {
            if gx >= gy && gx >= gz {
                gx = (gx / 2).max(1);
            } else if gy >= gz {
                gy = (gy / 2).max(1);
            } else {
                gz = (gz / 2).max(1);
            }
        }
        let inv = |l: f64, g: usize| {
            let cell = l / g as f64;
            if cell > 0.0 {
                1.0 / cell
            } else {
                0.0
            }
        };
        self.dims = (gx, gy, gz);
        self.lo = lo;
        self.inv_cell = (inv(extent.0, gx), inv(extent.1, gy), inv(extent.2, gz));
        self.periodic = periodic;

        // Counting sort: bin, prefix-sum, scatter.
        let total = gx * gy * gz;
        self.cell_of.clear();
        self.cell_of.resize(n, 0);
        self.starts.clear();
        self.starts.resize(total + 1, 0);
        for i in 0..n {
            let (cx, cy, cz) = self.cell_coords(particles.x[i], particles.y[i], particles.z[i]);
            let c = (cz * gy + cy) * gx + cx;
            self.cell_of[i] = c as u32;
            self.starts[c + 1] += 1;
        }
        for c in 0..total {
            self.starts[c + 1] += self.starts[c];
        }
        self.cursor.clear();
        self.cursor.extend_from_slice(&self.starts[..total]);
        self.entries.clear();
        self.entries.resize(n, 0);
        for (i, &c) in self.cell_of.iter().enumerate() {
            let c = c as usize;
            self.entries[self.cursor[c] as usize] = i as u32;
            self.cursor[c] += 1;
        }

        // Pack coordinates and squared supports in entries order.
        self.px.clear();
        self.px.resize(n, 0.0);
        self.py.clear();
        self.py.resize(n, 0.0);
        self.pz.clear();
        self.pz.resize(n, 0.0);
        self.pr2.clear();
        self.pr2.resize(n, 0.0);
        for (slot, &e) in self.entries.iter().enumerate() {
            let j = e as usize;
            self.px[slot] = particles.x[j];
            self.py[slot] = particles.y[j];
            self.pz[slot] = particles.z[j];
            let support_j = KERNEL_SUPPORT * particles.h[j];
            self.pr2[slot] = support_j * support_j;
        }
        self.cell_pr2_max.clear();
        self.cell_pr2_max.resize(total, 0.0);
        for c in 0..total {
            let (s, e) = (self.starts[c] as usize, self.starts[c + 1] as usize);
            let mut m = 0.0f64;
            for &r2 in &self.pr2[s..e] {
                m = m.max(r2);
            }
            self.cell_pr2_max[c] = m;
        }
        self.occupied = (0..total).filter(|&c| self.starts[c + 1] > self.starts[c]).count();
        true
    }

    /// Per-axis cell coordinates of a position. Periodic axes wrap the index
    /// (a particle binned one-off across the seam lands in the adjacent cell,
    /// which the ±1 stencil still covers); open axes clamp into range.
    #[inline]
    fn cell_coords(&self, xi: f64, yi: f64, zi: f64) -> (usize, usize, usize) {
        let axis = |v: f64, lo: f64, inv: f64, g: usize| -> usize {
            let t = ((v - lo) * inv).floor() as i64;
            if self.periodic {
                t.rem_euclid(g as i64) as usize
            } else {
                t.clamp(0, g as i64 - 1) as usize
            }
        };
        (
            axis(xi, self.lo.0, self.inv_cell.0, self.dims.0),
            axis(yi, self.lo.1, self.inv_cell.1, self.dims.1),
            axis(zi, self.lo.2, self.inv_cell.2, self.dims.2),
        )
    }

    /// [`Self::cell_coords`] plus the in-cell fractional position per axis
    /// (cell units, relative to the *returned* index), from which the sweep
    /// derives lower-bound distances to the adjacent stencil slabs. Outside
    /// a clamped open grid the fraction runs out of `[0, 1)`; the gap
    /// arithmetic tolerates that (negative gaps clamp to zero).
    #[inline]
    #[allow(clippy::type_complexity)] // a coordinate triple and its fractions
    fn cell_coords_frac(&self, xi: f64, yi: f64, zi: f64) -> ((usize, usize, usize), (f64, f64, f64)) {
        let axis = |v: f64, lo: f64, inv: f64, g: usize| -> (usize, f64) {
            let tf = (v - lo) * inv;
            let t = tf.floor() as i64;
            if self.periodic {
                (t.rem_euclid(g as i64) as usize, tf - t as f64)
            } else {
                let idx = t.clamp(0, g as i64 - 1);
                (idx as usize, tf - idx as f64)
            }
        };
        let (cx, fx) = axis(xi, self.lo.0, self.inv_cell.0, self.dims.0);
        let (cy, fy) = axis(yi, self.lo.1, self.inv_cell.1, self.dims.1);
        let (cz, fz) = axis(zi, self.lo.2, self.inv_cell.2, self.dims.2);
        ((cx, cy, cz), (fx, fy, fz))
    }
}

/// Conservative shrink applied to the squared cell-gap lower bound before
/// the prune comparison, so ulp-level rounding in the gap arithmetic can
/// never discard a cell holding a true boundary-distance neighbour.
const PRUNE_SLACK: f64 = 1.0 - 1e-9;

/// Candidate-scan batch width: distances for this many packed slots are
/// computed branch-free into a stack buffer before the accept loop runs, so
/// the compiler can vectorise the arithmetic over the contiguous SoA runs.
const SCAN_LANES: usize = 8;

/// The up-to-3 distinct cell indices of the ±1 stencil along one axis, each
/// with a lower bound on the axis distance from the query position to that
/// cell's slab (`0` for the own cell): periodic axes wrap (and deduplicate
/// when the axis has ≤ 2 cells, keeping the smaller gap), open axes drop
/// out-of-range offsets. `frac` is the in-cell fraction from
/// [`CellGrid::cell_coords_frac`]; `cell` the cell side (`0` on a degenerate
/// axis disables the bound).
#[inline]
fn stencil_axis(c: usize, g: usize, periodic: bool, frac: f64, cell: f64) -> ([usize; 3], [f64; 3], usize) {
    let mut out = [0usize; 3];
    let mut gap = [0.0f64; 3];
    let mut m = 0usize;
    let mut d = -1i64;
    while d <= 1 {
        let t = c as i64 + d;
        let slab_gap = match d {
            -1 => (frac * cell).max(0.0),
            1 => ((1.0 - frac) * cell).max(0.0),
            _ => 0.0,
        };
        d += 1;
        let idx = if periodic {
            t.rem_euclid(g as i64) as usize
        } else if t < 0 || t >= g as i64 {
            continue;
        } else {
            t as usize
        };
        match out[..m].iter().position(|&o| o == idx) {
            Some(p) => gap[p] = gap[p].min(slab_gap),
            None => {
                out[m] = idx;
                gap[m] = slab_gap;
                m += 1;
            }
        }
    }
    (out, gap, m)
}

/// Sweep worker: emit the final symmetric CSR row of every particle of the
/// block into `row`, recording the union row size in `counts` and the
/// own-support neighbour count (self excluded — the same quantity the octree
/// builder's gather pass records) in `diag`. The block is either the
/// contiguous particle range starting at `first` (full build,
/// `rows_block` empty) or an explicit slice of particle indices (subset
/// build — the active rows of an individual-timestep substep).
#[allow(clippy::too_many_arguments)] // mirrors the flat SoA particle layout
#[inline(always)] // must inline into the AVX2 wrapper to compile at that width
fn gather_cell_rows<const PERIODIC: bool, const UNIFORM: bool>(
    grid: &CellGrid,
    mi: &MinImage,
    x: &[f64],
    y: &[f64],
    z: &[f64],
    h: &[f64],
    first: usize,
    rows_block: &[u32],
    counts: &mut [u32],
    diag: &mut [u32],
    row: &mut Vec<u32>,
    avx512: bool,
) {
    let _ = avx512; // only read on x86_64
    row.clear();
    let (gx, gy, _) = grid.dims;
    let cell_side = |inv: f64| if inv > 0.0 { 1.0 / inv } else { 0.0 };
    let (csx, csy, csz) = (
        cell_side(grid.inv_cell.0),
        cell_side(grid.inv_cell.1),
        cell_side(grid.inv_cell.2),
    );
    let mut ld2 = [0.0f64; SCAN_LANES];
    for (k, (count, diag)) in counts.iter_mut().zip(diag.iter_mut()).enumerate() {
        let i = if rows_block.is_empty() {
            first + k
        } else {
            rows_block[k] as usize
        };
        let (xi, yi, zi) = (x[i], y[i], z[i]);
        let radius = KERNEL_SUPPORT * h[i];
        let ri2 = radius * radius;
        let ((cx, cy, cz), (fx, fy, fz)) = grid.cell_coords_frac(xi, yi, zi);
        let (sx, gpx, mx) = stencil_axis(cx, grid.dims.0, PERIODIC, fx, csx);
        let (sy, gpy, my) = stencil_axis(cy, grid.dims.1, PERIODIC, fy, csy);
        let (sz, gpz, mz) = stencil_axis(cz, grid.dims.2, PERIODIC, fz, csz);
        let before = row.len();
        let mut own = 0u32;
        for (az, gz) in sz[..mz].iter().zip(&gpz) {
            for (ay, gy_) in sy[..my].iter().zip(&gpy) {
                let base = (az * gy + ay) * gx;
                let gap_zy = gz * gz + gy_ * gy_;
                for (ax, gx_) in sx[..mx].iter().zip(&gpx) {
                    let c = base + ax;
                    // Cell prune: `gap` lower-bounds the distance from `i` to
                    // any point of this stencil cell (exact geometric slab
                    // gaps, valid under index wrapping because the stencil
                    // cell *is* the geometrically adjacent slab). If even
                    // that bound exceeds both `r_i` and the longest reach of
                    // the cell's own particles, no candidate in it can pass
                    // the union test. The slack keeps the bound conservative
                    // against rounding in the gap arithmetic.
                    let d2min = gap_zy + gx_ * gx_;
                    let threshold = ri2.max(grid.cell_pr2_max[c]);
                    if d2min * PRUNE_SLACK > threshold {
                        continue;
                    }
                    let s = grid.starts[c] as usize;
                    let e = grid.starts[c + 1] as usize;
                    // Candidate scan. On AVX-512 hosts the open-boundary
                    // path drops into a compress-store kernel (the distance
                    // test and the "pack accepted ids contiguously" step are
                    // single instructions there). The portable path batches
                    // the distance arithmetic into lanes (contiguous packed
                    // runs, no data-dependent branch), then pushes
                    // qualifying entries in slot order via a compaction
                    // store — push unconditionally, then truncate away a
                    // reject — so the unpredictable accept decision becomes
                    // a length update instead of a mispredicted branch.
                    // Inclusion arithmetic is identical to the
                    // octree leaf test (open: same summation order;
                    // periodic: the same minimum-image expression, whose
                    // oddness makes the j − i direction bit-equivalent).
                    // With bit-uniform smoothing lengths `r_j² == r_i²`, so
                    // the union test collapses to the own-support compare
                    // and the `pr2` lane is never read.
                    #[cfg(target_arch = "x86_64")]
                    if !PERIODIC && avx512 {
                        // SAFETY: `avx512` is only true when runtime feature
                        // detection reported AVX512F+VL support on this CPU.
                        own += unsafe { scan_cell_open_avx512::<UNIFORM>(grid, s, e, xi, yi, zi, ri2, row) };
                        continue;
                    }
                    let mut slot = s;
                    while slot + SCAN_LANES <= e {
                        for (l, d2) in ld2.iter_mut().enumerate() {
                            let dx = grid.px[slot + l] - xi;
                            let dy = grid.py[slot + l] - yi;
                            let dz = grid.pz[slot + l] - zi;
                            *d2 = if PERIODIC {
                                mi.dist_sq(dx, dy, dz)
                            } else {
                                dx * dx + dy * dy + dz * dz
                            };
                        }
                        for (l, &d2) in ld2.iter().enumerate() {
                            let in_own = d2 <= ri2;
                            let keep = if UNIFORM {
                                in_own
                            } else {
                                in_own || d2 <= grid.pr2[slot + l]
                            };
                            let base = row.len();
                            row.push(grid.entries[slot + l]);
                            row.truncate(base + keep as usize);
                            own += in_own as u32;
                        }
                        slot += SCAN_LANES;
                    }
                    for slot in slot..e {
                        let dx = grid.px[slot] - xi;
                        let dy = grid.py[slot] - yi;
                        let dz = grid.pz[slot] - zi;
                        let d2 = if PERIODIC {
                            mi.dist_sq(dx, dy, dz)
                        } else {
                            dx * dx + dy * dy + dz * dz
                        };
                        let in_own = d2 <= ri2;
                        let keep = if UNIFORM {
                            in_own
                        } else {
                            in_own || d2 <= grid.pr2[slot]
                        };
                        let base = row.len();
                        row.push(grid.entries[slot]);
                        row.truncate(base + keep as usize);
                        own += in_own as u32;
                    }
                }
            }
        }
        *count = (row.len() - before) as u32;
        *diag = own.saturating_sub(1);
    }
}

/// AVX-512 candidate scan of one open-boundary stencil cell: the distance
/// test runs eight doubles per compare and `vpcompressd` packs the accepted
/// ids contiguously in one instruction — the hardware form of the portable
/// path's compaction store. The arithmetic is plain IEEE sub/mul/add in the
/// scalar association order `(dx² + dy²) + dz²` with no FMA contraction, and
/// mask-compression preserves lane order, so the emitted row bytes are
/// identical to the portable path's.
///
/// Returns the own-support hit count (self included, like the portable scan).
///
/// # Safety
/// The caller must have verified at runtime that the CPU supports AVX512F
/// and AVX512VL.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f,avx512vl")]
#[allow(clippy::too_many_arguments)] // mirrors the flat SoA particle layout
unsafe fn scan_cell_open_avx512<const UNIFORM: bool>(
    grid: &CellGrid,
    s: usize,
    e: usize,
    xi: f64,
    yi: f64,
    zi: f64,
    ri2: f64,
    row: &mut Vec<u32>,
) -> u32 {
    use std::arch::x86_64::*;
    row.reserve(e - s);
    let (vxi, vyi, vzi, vri2) = (
        _mm512_set1_pd(xi),
        _mm512_set1_pd(yi),
        _mm512_set1_pd(zi),
        _mm512_set1_pd(ri2),
    );
    let mut own = 0u32;
    let mut len = row.len();
    let mut slot = s;
    while slot + 8 <= e {
        // SAFETY: `slot + 8 <= e` and the packed lanes are `n >= e` long, so
        // every (unaligned) load below stays in bounds; the `reserve(e - s)`
        // above leaves room past `len` for every candidate of this cell, and
        // compress-store writes exactly `keep.count_ones()` packed elements.
        unsafe {
            let px = _mm512_loadu_pd(grid.px.as_ptr().add(slot));
            let py = _mm512_loadu_pd(grid.py.as_ptr().add(slot));
            let pz = _mm512_loadu_pd(grid.pz.as_ptr().add(slot));
            let dx = _mm512_sub_pd(px, vxi);
            let dy = _mm512_sub_pd(py, vyi);
            let dz = _mm512_sub_pd(pz, vzi);
            let d2 = _mm512_add_pd(
                _mm512_add_pd(_mm512_mul_pd(dx, dx), _mm512_mul_pd(dy, dy)),
                _mm512_mul_pd(dz, dz),
            );
            let m_own = _mm512_cmp_pd_mask::<_CMP_LE_OQ>(d2, vri2);
            own += m_own.count_ones();
            let keep = if UNIFORM {
                m_own
            } else {
                let vpr2 = _mm512_loadu_pd(grid.pr2.as_ptr().add(slot));
                m_own | _mm512_cmp_pd_mask::<_CMP_LE_OQ>(d2, vpr2)
            };
            let ids = _mm256_loadu_si256(grid.entries.as_ptr().add(slot) as *const __m256i);
            _mm256_mask_compressstoreu_epi32(row.as_mut_ptr().add(len) as *mut _, keep, ids);
            len += keep.count_ones() as usize;
        }
        slot += 8;
    }
    // SAFETY: `len` grew only by elements compress-stored into reserved
    // capacity above.
    unsafe { row.set_len(len) };
    for slot in slot..e {
        let dx = grid.px[slot] - xi;
        let dy = grid.py[slot] - yi;
        let dz = grid.pz[slot] - zi;
        let d2 = dx * dx + dy * dy + dz * dz;
        let in_own = d2 <= ri2;
        let keep = if UNIFORM {
            in_own
        } else {
            in_own || d2 <= grid.pr2[slot]
        };
        let base = row.len();
        row.push(grid.entries[slot]);
        row.truncate(base + keep as usize);
        own += in_own as u32;
    }
    own
}

/// AVX2 instantiation of [`gather_cell_rows`]: the body is the same code,
/// but the widened target feature lets the autovectorizer run the candidate
/// d² lanes four doubles per instruction instead of baseline SSE2 pairs.
/// Per-lane arithmetic stays plain IEEE mul/add (no contraction), so the
/// emitted rows are bit-identical to the portable path — the specialization
/// only changes how many lanes retire per cycle.
///
/// # Safety
/// The caller must have verified at runtime that the CPU supports AVX2.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
#[allow(clippy::too_many_arguments)] // mirrors the flat SoA particle layout
unsafe fn gather_cell_rows_avx2<const PERIODIC: bool, const UNIFORM: bool>(
    grid: &CellGrid,
    mi: &MinImage,
    x: &[f64],
    y: &[f64],
    z: &[f64],
    h: &[f64],
    first: usize,
    rows_block: &[u32],
    counts: &mut [u32],
    diag: &mut [u32],
    row: &mut Vec<u32>,
    avx512: bool,
) {
    gather_cell_rows::<PERIODIC, UNIFORM>(grid, mi, x, y, z, h, first, rows_block, counts, diag, row, avx512);
}

/// The `(avx2, avx512)` SIMD tiers the running CPU offers the sweep (the
/// grouped gravity walk uses the AVX2 one); both off on other architectures.
/// `SPHSIM_FORCE_PORTABLE_SWEEP` turns both off regardless of CPU features —
/// the lever the cross-implementation equivalence tests use to cover the
/// portable paths on wide-SIMD hosts. It is read once and cached so the warm
/// path stays allocation-free.
pub(crate) fn simd_tiers() -> (bool, bool) {
    #[cfg(target_arch = "x86_64")]
    {
        static FORCE: std::sync::OnceLock<bool> = std::sync::OnceLock::new();
        if !*FORCE.get_or_init(|| std::env::var_os("SPHSIM_FORCE_PORTABLE_SWEEP").is_some()) {
            return (
                std::arch::is_x86_feature_detected!("avx2"),
                std::arch::is_x86_feature_detected!("avx512f") && std::arch::is_x86_feature_detected!("avx512vl"),
            );
        }
    }
    (false, false)
}

/// Pick the widest sweep instantiation the running CPU supports. The choice
/// only affects vector width, never results: both instantiations execute the
/// identical per-candidate arithmetic.
#[allow(clippy::too_many_arguments)] // mirrors the flat SoA particle layout
#[inline]
fn gather_cell_rows_dispatch<const PERIODIC: bool, const UNIFORM: bool>(
    simd: (bool, bool),
    grid: &CellGrid,
    mi: &MinImage,
    x: &[f64],
    y: &[f64],
    z: &[f64],
    h: &[f64],
    first: usize,
    rows_block: &[u32],
    counts: &mut [u32],
    diag: &mut [u32],
    row: &mut Vec<u32>,
) {
    let (avx2, avx512) = simd;
    #[cfg(target_arch = "x86_64")]
    if avx2 {
        // SAFETY: `avx2` is only true when runtime feature detection
        // reported AVX2 support on this CPU.
        unsafe {
            gather_cell_rows_avx2::<PERIODIC, UNIFORM>(
                grid, mi, x, y, z, h, first, rows_block, counts, diag, row, avx512,
            )
        };
        return;
    }
    let _ = avx2;
    gather_cell_rows::<PERIODIC, UNIFORM>(grid, mi, x, y, z, h, first, rows_block, counts, diag, row, avx512);
}

/// Build the CSR neighbour lists by sweeping the cell grid — the cell-list
/// counterpart of [`crate::physics::neighbors::find_neighbors_into`], writing
/// through the same [`NeighborScratch`] buffers and producing the same row
/// *sets* (each row here is already the symmetric union, so the octree
/// builder's symmetrisation extras stay empty).
///
/// The grid must have been [`CellGrid::rebuild`]-ed on this particle set.
pub fn find_neighbors_cells_into(
    particles: &mut ParticleSet,
    grid: &CellGrid,
    out: &mut NeighborLists,
    scratch: &mut NeighborScratch,
) {
    let n = particles.len();
    assert_eq!(
        particles.neighbor_count.len(),
        n,
        "particle set inconsistent: neighbor_count lane out of sync"
    );
    scratch.counts.clear();
    scratch.counts.resize(n, 0);
    out.offsets.clear();
    out.offsets.resize(n + 1, 0);
    let threads = if n < SERIAL_CUTOFF {
        1
    } else {
        scratch.threads.min(n).max(1)
    };
    let chunk = n.div_ceil(threads).max(1);
    let blocks = n.div_ceil(chunk);
    if scratch.rows.len() < blocks {
        scratch.rows.resize_with(blocks, Vec::new);
    }
    let mi = MinImage::of(&particles.boundary);
    let periodic = !mi.is_identity();
    let (x, y, z, h) = (&particles.x, &particles.y, &particles.z, &particles.h);

    // Single gather pass: each block's rows are already the symmetric union
    // (the stencil sees every j with d² ≤ r_i² or d² ≤ r_j²), with the
    // neighbour-count diagnostic recorded alongside.
    {
        let count_chunks = scratch.counts.chunks_mut(chunk);
        let diag_chunks = particles.neighbor_count.chunks_mut(chunk);
        let row_bufs = scratch.rows.iter_mut();
        let uniform = grid.uniform_h;
        let simd = simd_tiers();
        let dispatch = |t: usize, counts: &mut [u32], diag: &mut [u32], row: &mut Vec<u32>, mi: &MinImage| match (
            periodic, uniform,
        ) {
            (true, true) => {
                gather_cell_rows_dispatch::<true, true>(simd, grid, mi, x, y, z, h, t * chunk, &[], counts, diag, row)
            }
            (true, false) => {
                gather_cell_rows_dispatch::<true, false>(simd, grid, mi, x, y, z, h, t * chunk, &[], counts, diag, row)
            }
            (false, true) => {
                gather_cell_rows_dispatch::<false, true>(simd, grid, mi, x, y, z, h, t * chunk, &[], counts, diag, row)
            }
            (false, false) => {
                gather_cell_rows_dispatch::<false, false>(simd, grid, mi, x, y, z, h, t * chunk, &[], counts, diag, row)
            }
        };
        if threads == 1 {
            for (t, ((counts, diag), row)) in count_chunks.zip(diag_chunks).zip(row_bufs).enumerate() {
                dispatch(t, counts, diag, row, &mi);
            }
        } else {
            std::thread::scope(|scope| {
                for (t, ((counts, diag), row)) in count_chunks.zip(diag_chunks).zip(row_bufs).enumerate() {
                    let mi = &mi;
                    let dispatch = &dispatch;
                    scope.spawn(move || dispatch(t, counts, diag, row, mi));
                }
            });
        }
    }

    // No symmetrisation pass: the union rows are final. Zero the extras so
    // the shared offsets/fill tail sees empty per-row extra ranges.
    scratch.extras_flat.clear();
    scratch.extra_starts.clear();
    scratch.extra_starts.resize(n + 1, 0);
    finish_csr(out, scratch, n, chunk, blocks);
}

/// [`find_neighbors_cells_into`] restricted to a sorted subset of rows — the
/// cell-list counterpart of
/// [`crate::physics::neighbors::find_neighbors_rows_into`], sweeping only the
/// requested rows' stencils. `out` still covers the full particle set (rows
/// off the subset come out zero-length) and the neighbour-count diagnostic is
/// refreshed only at the subset's slots.
///
/// The grid must have been [`CellGrid::rebuild`]-ed on this particle set.
pub fn find_neighbors_cells_rows_into(
    particles: &mut ParticleSet,
    grid: &CellGrid,
    rows: &[u32],
    out: &mut NeighborLists,
    scratch: &mut NeighborScratch,
) {
    let n = particles.len();
    let m = rows.len();
    assert_eq!(
        particles.neighbor_count.len(),
        n,
        "particle set inconsistent: neighbor_count lane out of sync"
    );
    debug_assert!(rows.windows(2).all(|w| w[0] < w[1]), "subset rows must ascend");
    debug_assert!(rows.last().is_none_or(|&i| (i as usize) < n), "subset row out of range");
    scratch.counts.clear();
    scratch.counts.resize(m, 0);
    scratch.diag.clear();
    scratch.diag.resize(m, 0);
    out.offsets.clear();
    out.offsets.resize(n + 1, 0);
    let threads = if m < SERIAL_CUTOFF {
        1
    } else {
        scratch.threads.min(m).max(1)
    };
    let chunk = m.div_ceil(threads).max(1);
    let blocks = m.div_ceil(chunk);
    if scratch.rows.len() < blocks {
        scratch.rows.resize_with(blocks, Vec::new);
    }
    let mi = MinImage::of(&particles.boundary);
    let periodic = !mi.is_identity();
    let (x, y, z, h) = (&particles.x, &particles.y, &particles.z, &particles.h);
    {
        let count_chunks = scratch.counts.chunks_mut(chunk);
        let diag_chunks = scratch.diag.chunks_mut(chunk);
        let row_chunks = rows.chunks(chunk);
        let row_bufs = scratch.rows.iter_mut();
        let uniform = grid.uniform_h;
        let simd = simd_tiers();
        let dispatch =
            |rows_block: &[u32], counts: &mut [u32], diag: &mut [u32], row: &mut Vec<u32>, mi: &MinImage| match (
                periodic, uniform,
            ) {
                (true, true) => gather_cell_rows_dispatch::<true, true>(
                    simd, grid, mi, x, y, z, h, 0, rows_block, counts, diag, row,
                ),
                (true, false) => gather_cell_rows_dispatch::<true, false>(
                    simd, grid, mi, x, y, z, h, 0, rows_block, counts, diag, row,
                ),
                (false, true) => gather_cell_rows_dispatch::<false, true>(
                    simd, grid, mi, x, y, z, h, 0, rows_block, counts, diag, row,
                ),
                (false, false) => gather_cell_rows_dispatch::<false, false>(
                    simd, grid, mi, x, y, z, h, 0, rows_block, counts, diag, row,
                ),
            };
        if threads == 1 {
            for (((counts, diag), rows_block), row) in count_chunks.zip(diag_chunks).zip(row_chunks).zip(row_bufs) {
                dispatch(rows_block, counts, diag, row, &mi);
            }
        } else {
            std::thread::scope(|scope| {
                for (((counts, diag), rows_block), row) in count_chunks.zip(diag_chunks).zip(row_chunks).zip(row_bufs) {
                    let mi = &mi;
                    let dispatch = &dispatch;
                    scope.spawn(move || dispatch(rows_block, counts, diag, row, mi));
                }
            });
        }
    }
    crate::physics::neighbors::finish_subset_csr(out, scratch, rows, n, blocks, &mut particles.neighbor_count);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::init::lattice_cube;
    use crate::physics::neighbors::{build_tree, find_neighbors};

    fn cell_rows(p: &mut ParticleSet) -> NeighborLists {
        let mut grid = CellGrid::new();
        assert!(grid.rebuild(p), "grid rebuild should accept this set");
        let mut out = NeighborLists::default();
        let mut scratch = NeighborScratch::new();
        find_neighbors_cells_into(p, &grid, &mut out, &mut scratch);
        out
    }

    fn sorted_rows(nl: &NeighborLists) -> Vec<Vec<u32>> {
        (0..nl.len())
            .map(|i| {
                let mut r = nl.neighbors(i).to_vec();
                r.sort_unstable();
                r
            })
            .collect()
    }

    #[test]
    fn open_lattice_matches_the_octree_builder() {
        let mut a = lattice_cube(6, 1.0, 1.0, 1.2);
        let mut b = a.clone();
        let tree = build_tree(&a, 16);
        let octree_nl = find_neighbors(&mut a, &tree);
        let cell_nl = cell_rows(&mut b);
        assert_eq!(sorted_rows(&cell_nl), sorted_rows(&octree_nl));
        assert_eq!(a.neighbor_count, b.neighbor_count);
    }

    #[test]
    fn periodic_lattice_matches_the_octree_builder() {
        let mut a = lattice_cube(6, 1.0, 1.0, 1.2);
        a.boundary = Boundary::unit_box();
        let mut b = a.clone();
        let tree = build_tree(&a, 16);
        let octree_nl = find_neighbors(&mut a, &tree);
        let cell_nl = cell_rows(&mut b);
        assert_eq!(sorted_rows(&cell_nl), sorted_rows(&octree_nl));
        assert_eq!(a.neighbor_count, b.neighbor_count);
    }

    #[test]
    fn polydisperse_h_declines_the_grid() {
        let mut p = lattice_cube(4, 1.0, 1.0, 1.2);
        p.h[0] *= 3.0;
        let mut grid = CellGrid::new();
        assert!(!grid.rebuild(&p), "h_max/h_min > {POLYDISPERSITY_LIMIT} must decline");
    }

    #[test]
    fn empty_set_declines_the_grid() {
        let p = ParticleSet::default();
        let mut grid = CellGrid::new();
        assert!(!grid.rebuild(&p));
    }

    #[test]
    fn grid_reports_occupancy() {
        let mut p = lattice_cube(6, 1.0, 1.0, 1.2);
        p.boundary = Boundary::unit_box();
        let mut grid = CellGrid::new();
        assert!(grid.rebuild(&p));
        assert!(grid.total_cells() >= 1);
        assert!(grid.occupied_cells() >= 1);
        assert!(grid.occupied_cells() <= grid.total_cells());
        assert!(grid.mean_occupancy() > 0.0);
        // Every particle is binned exactly once.
        let mut seen: Vec<u32> = grid.entries.clone();
        seen.sort_unstable();
        assert_eq!(seen, (0..p.len() as u32).collect::<Vec<_>>());
    }

    #[test]
    fn subset_sweep_matches_the_full_sweep_rows() {
        // Mildly non-uniform h inside the grid's limit, periodic box: the
        // subset sweep must emit byte-identical rows for the requested subset
        // (same stencil order) and empty rows elsewhere.
        let mut a = lattice_cube(6, 1.0, 1.0, 1.2);
        a.boundary = Boundary::unit_box();
        for (i, h) in a.h.iter_mut().enumerate() {
            *h *= 1.0 + 0.3 * ((i % 5) as f64) / 5.0;
        }
        let mut b = a.clone();
        let full = cell_rows(&mut a);
        let mut grid = CellGrid::new();
        assert!(grid.rebuild(&b));
        let rows: Vec<u32> = (0..b.len() as u32).filter(|i| i % 4 != 2).collect();
        let mut out = NeighborLists::default();
        let mut scratch = NeighborScratch::new();
        b.neighbor_count.fill(u32::MAX);
        find_neighbors_cells_rows_into(&mut b, &grid, &rows, &mut out, &mut scratch);
        let mut cursor = 0usize;
        for i in 0..b.len() {
            if cursor < rows.len() && rows[cursor] as usize == i {
                cursor += 1;
                assert_eq!(out.neighbors(i), full.neighbors(i), "subset sweep row {i}");
                assert_eq!(b.neighbor_count[i], a.neighbor_count[i]);
            } else {
                assert_eq!(out.count(i), 0, "off-subset row {i} must be empty");
                assert_eq!(b.neighbor_count[i], u32::MAX);
            }
        }
    }

    #[test]
    fn mildly_nonuniform_h_still_matches_the_octree_builder() {
        // Perturb h inside the polydispersity limit so one-sided pairs exist:
        // the union test must reproduce the octree's symmetrised rows.
        let mut a = lattice_cube(5, 1.0, 1.0, 1.2);
        for (i, h) in a.h.iter_mut().enumerate() {
            *h *= 1.0 + 0.6 * ((i % 7) as f64) / 7.0;
        }
        let mut b = a.clone();
        let tree = build_tree(&a, 8);
        let octree_nl = find_neighbors(&mut a, &tree);
        let cell_nl = cell_rows(&mut b);
        assert_eq!(sorted_rows(&cell_nl), sorted_rows(&octree_nl));
        assert_eq!(a.neighbor_count, b.neighbor_count);
    }
}
