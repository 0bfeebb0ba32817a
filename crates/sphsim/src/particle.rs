//! Particle storage.
//!
//! Structure-of-arrays layout, as used by SPH-EXA and every performance-minded
//! particle code: one contiguous `Vec<f64>` per field, so that kernels stream
//! through memory and parallel chunking is trivial.

use crate::boundary::Boundary;

/// Structure-of-arrays particle set.
#[derive(Clone, Debug, Default)]
pub struct ParticleSet {
    /// Boundary condition of the box the particles live in. Travels with the
    /// set so every consumer — neighbour search, pair kernels, Morton keys,
    /// domain decomposition — agrees on the same geometry.
    pub boundary: Boundary,
    /// Position, x component.
    pub x: Vec<f64>,
    /// Position, y component.
    pub y: Vec<f64>,
    /// Position, z component.
    pub z: Vec<f64>,
    /// Velocity, x component.
    pub vx: Vec<f64>,
    /// Velocity, y component.
    pub vy: Vec<f64>,
    /// Velocity, z component.
    pub vz: Vec<f64>,
    /// Particle masses.
    pub m: Vec<f64>,
    /// Smoothing lengths.
    pub h: Vec<f64>,
    /// Densities.
    pub rho: Vec<f64>,
    /// Specific internal energies.
    pub u: Vec<f64>,
    /// Pressures.
    pub p: Vec<f64>,
    /// Sound speeds.
    pub c: Vec<f64>,
    /// Grad-h normalisation terms (Omega).
    pub omega: Vec<f64>,
    /// Velocity divergence.
    pub div_v: Vec<f64>,
    /// Velocity curl magnitude.
    pub curl_v: Vec<f64>,
    /// Artificial-viscosity switch per particle.
    pub alpha: Vec<f64>,
    /// Acceleration, x component.
    pub ax: Vec<f64>,
    /// Acceleration, y component.
    pub ay: Vec<f64>,
    /// Acceleration, z component.
    pub az: Vec<f64>,
    /// Rate of change of internal energy.
    pub du: Vec<f64>,
    /// Number of neighbours within the particle's **own** `2h` support
    /// (diagnostic; what smoothing-length control consumes). Since the CSR
    /// builder symmetrises its rows, a row can hold *more* entries than this
    /// count — partners whose larger support reaches back — so do not equate
    /// the diagnostic with the row width; see `physics::neighbors`.
    pub neighbor_count: Vec<u32>,
    /// Individual-timestep rung `k`: the particle advances on
    /// `dt = dt_base / 2^k` (see `physics::timestep::TimestepBins`). `0` for
    /// every particle when block timesteps are disabled — the global-dt path
    /// never reads the lane. Travels with the particle through reorders,
    /// migration and ghost exchange, because the neighbour-rung limiter and
    /// the active-set schedule are defined over it.
    pub rung: Vec<u8>,
}

/// Reusable scratch buffers for [`ParticleSet::reorder_with`] (one `f64`
/// lane, one `u32` lane and one `u8` lane — the permuted field is built here
/// and then swapped in, so a steady-state reorder allocates nothing).
#[derive(Clone, Debug, Default)]
pub struct ReorderScratch {
    f: Vec<f64>,
    u: Vec<u32>,
    b: Vec<u8>,
}

impl ParticleSet {
    /// Create an empty particle set with reserved capacity.
    pub fn with_capacity(n: usize) -> Self {
        let mut s = Self::default();
        s.reserve(n);
        s
    }

    /// Reserve capacity in every field.
    pub fn reserve(&mut self, n: usize) {
        self.x.reserve(n);
        self.y.reserve(n);
        self.z.reserve(n);
        self.vx.reserve(n);
        self.vy.reserve(n);
        self.vz.reserve(n);
        self.m.reserve(n);
        self.h.reserve(n);
        self.rho.reserve(n);
        self.u.reserve(n);
        self.p.reserve(n);
        self.c.reserve(n);
        self.omega.reserve(n);
        self.div_v.reserve(n);
        self.curl_v.reserve(n);
        self.alpha.reserve(n);
        self.ax.reserve(n);
        self.ay.reserve(n);
        self.az.reserve(n);
        self.du.reserve(n);
        self.neighbor_count.reserve(n);
        self.rung.reserve(n);
    }

    /// Number of particles.
    pub fn len(&self) -> usize {
        self.x.len()
    }

    /// True if the set holds no particles.
    pub fn is_empty(&self) -> bool {
        self.x.is_empty()
    }

    /// Append one particle with position, velocity, mass, smoothing length and
    /// internal energy; derived fields start at zero.
    #[allow(clippy::too_many_arguments)]
    pub fn push(&mut self, x: f64, y: f64, z: f64, vx: f64, vy: f64, vz: f64, m: f64, h: f64, u: f64) {
        self.x.push(x);
        self.y.push(y);
        self.z.push(z);
        self.vx.push(vx);
        self.vy.push(vy);
        self.vz.push(vz);
        self.m.push(m);
        self.h.push(h);
        self.u.push(u);
        self.rho.push(0.0);
        self.p.push(0.0);
        self.c.push(0.0);
        self.omega.push(1.0);
        self.div_v.push(0.0);
        self.curl_v.push(0.0);
        self.alpha.push(1.0);
        self.ax.push(0.0);
        self.ay.push(0.0);
        self.az.push(0.0);
        self.du.push(0.0);
        self.neighbor_count.push(0);
        self.rung.push(0);
    }

    /// Verify that every field has the same length (structure invariant).
    pub fn is_consistent(&self) -> bool {
        let n = self.len();
        [
            self.y.len(),
            self.z.len(),
            self.vx.len(),
            self.vy.len(),
            self.vz.len(),
            self.m.len(),
            self.h.len(),
            self.rho.len(),
            self.u.len(),
            self.p.len(),
            self.c.len(),
            self.omega.len(),
            self.div_v.len(),
            self.curl_v.len(),
            self.alpha.len(),
            self.ax.len(),
            self.ay.len(),
            self.az.len(),
            self.du.len(),
            self.neighbor_count.len(),
            self.rung.len(),
        ]
        .iter()
        .all(|&l| l == n)
    }

    /// Total mass.
    pub fn total_mass(&self) -> f64 {
        self.m.iter().sum()
    }

    /// Total kinetic energy `Σ ½ m v²`.
    pub fn kinetic_energy(&self) -> f64 {
        (0..self.len())
            .map(|i| 0.5 * self.m[i] * (self.vx[i].powi(2) + self.vy[i].powi(2) + self.vz[i].powi(2)))
            .sum()
    }

    /// Total internal energy `Σ m u`.
    pub fn internal_energy(&self) -> f64 {
        (0..self.len()).map(|i| self.m[i] * self.u[i]).sum()
    }

    /// Axis-aligned bounding box `((xmin,ymin,zmin),(xmax,ymax,zmax))`.
    pub fn bounding_box(&self) -> ((f64, f64, f64), (f64, f64, f64)) {
        let mut min = (f64::INFINITY, f64::INFINITY, f64::INFINITY);
        let mut max = (f64::NEG_INFINITY, f64::NEG_INFINITY, f64::NEG_INFINITY);
        for i in 0..self.len() {
            min.0 = min.0.min(self.x[i]);
            min.1 = min.1.min(self.y[i]);
            min.2 = min.2.min(self.z[i]);
            max.0 = max.0.max(self.x[i]);
            max.1 = max.1.max(self.y[i]);
            max.2 = max.2.max(self.z[i]);
        }
        (min, max)
    }

    /// Number of per-particle SoA fields (20 × `f64`, the `u32`
    /// neighbour-count diagnostic and the `u8` timestep rung).
    pub const fn field_count() -> usize {
        22
    }

    /// Resident bytes of the particle payload: the sum over all SoA fields at
    /// the current length (capacity slack excluded). Reported by the
    /// step-throughput benchmark.
    pub fn memory_bytes(&self) -> usize {
        let n = self.len();
        (Self::field_count() - 2) * n * std::mem::size_of::<f64>()
            + n * std::mem::size_of::<u32>()
            + n * std::mem::size_of::<u8>()
    }

    /// Apply the permutation `perm` to every field: after the call, slot `k`
    /// holds the particle that was previously at `perm[k]`. Used by the
    /// propagator to sort the storage into Morton order.
    pub fn reorder(&mut self, perm: &[u32]) {
        self.reorder_with(perm, &mut ReorderScratch::default());
    }

    /// [`ParticleSet::reorder`] through caller-owned scratch buffers, so a
    /// steady-state reorder performs no heap allocation.
    ///
    /// # Panics
    ///
    /// Panics if `perm.len()` differs from the particle count (and, in debug
    /// builds, if `perm` is not a permutation of `0..len`).
    pub fn reorder_with(&mut self, perm: &[u32], scratch: &mut ReorderScratch) {
        let n = self.len();
        assert_eq!(perm.len(), n, "permutation length mismatch");
        scratch.f.resize(n, 0.0);
        scratch.u.resize(n, 0);
        #[cfg(debug_assertions)]
        {
            // Validate that `perm` is a permutation through the (about to be
            // overwritten) u32 scratch lane — no allocation even in debug.
            scratch.u.fill(0);
            for &p in perm {
                assert!(
                    std::mem::replace(&mut scratch.u[p as usize], 1) == 0,
                    "index {p} repeated in permutation"
                );
            }
        }
        for field in [
            &mut self.x,
            &mut self.y,
            &mut self.z,
            &mut self.vx,
            &mut self.vy,
            &mut self.vz,
            &mut self.m,
            &mut self.h,
            &mut self.rho,
            &mut self.u,
            &mut self.p,
            &mut self.c,
            &mut self.omega,
            &mut self.div_v,
            &mut self.curl_v,
            &mut self.alpha,
            &mut self.ax,
            &mut self.ay,
            &mut self.az,
            &mut self.du,
        ] {
            for (dst, &src) in scratch.f.iter_mut().zip(perm) {
                *dst = field[src as usize];
            }
            std::mem::swap(field, &mut scratch.f);
        }
        for (dst, &src) in scratch.u.iter_mut().zip(perm) {
            *dst = self.neighbor_count[src as usize];
        }
        std::mem::swap(&mut self.neighbor_count, &mut scratch.u);
        scratch.b.resize(n, 0);
        for (dst, &src) in scratch.b.iter_mut().zip(perm) {
            *dst = self.rung[src as usize];
        }
        std::mem::swap(&mut self.rung, &mut scratch.b);
    }

    /// Extract the particles at `indices` into a new set, copying the *full*
    /// per-particle state — every SoA lane, including accelerations, energy
    /// rates and the neighbour-count diagnostic. Used by the domain
    /// decomposition to shard, migrate and ghost particles without losing
    /// state mid-pipeline.
    pub fn gather(&self, indices: &[usize]) -> ParticleSet {
        let mut out = ParticleSet::with_capacity(indices.len());
        out.boundary = self.boundary;
        for &i in indices {
            out.push_copy_of(self, i);
        }
        out
    }

    /// Append a full copy of particle `i` of `src` (every SoA lane).
    pub fn push_copy_of(&mut self, src: &ParticleSet, i: usize) {
        self.push(
            src.x[i], src.y[i], src.z[i], src.vx[i], src.vy[i], src.vz[i], src.m[i], src.h[i], src.u[i],
        );
        let j = self.len() - 1;
        self.rho[j] = src.rho[i];
        self.p[j] = src.p[i];
        self.c[j] = src.c[i];
        self.omega[j] = src.omega[i];
        self.div_v[j] = src.div_v[i];
        self.curl_v[j] = src.curl_v[i];
        self.alpha[j] = src.alpha[i];
        self.ax[j] = src.ax[i];
        self.ay[j] = src.ay[i];
        self.az[j] = src.az[i];
        self.du[j] = src.du[i];
        self.neighbor_count[j] = src.neighbor_count[i];
        self.rung[j] = src.rung[i];
    }

    /// Append a full copy of every particle of `other`.
    pub fn append_set(&mut self, other: &ParticleSet) {
        self.reserve(other.len());
        for i in 0..other.len() {
            self.push_copy_of(other, i);
        }
    }

    /// Shorten the set to its first `n` particles (every lane). No-op when the
    /// set is already at most `n` long. Used by the distributed propagator to
    /// drop the ghost tail before rebuilding it.
    pub fn truncate(&mut self, n: usize) {
        self.x.truncate(n);
        self.y.truncate(n);
        self.z.truncate(n);
        self.vx.truncate(n);
        self.vy.truncate(n);
        self.vz.truncate(n);
        self.m.truncate(n);
        self.h.truncate(n);
        self.rho.truncate(n);
        self.u.truncate(n);
        self.p.truncate(n);
        self.c.truncate(n);
        self.omega.truncate(n);
        self.div_v.truncate(n);
        self.curl_v.truncate(n);
        self.alpha.truncate(n);
        self.ax.truncate(n);
        self.ay.truncate(n);
        self.az.truncate(n);
        self.du.truncate(n);
        self.neighbor_count.truncate(n);
        self.rung.truncate(n);
    }

    /// The values of one evolved lane.
    pub fn lane(&self, lane: Lane) -> &[f64] {
        match lane {
            Lane::X => &self.x,
            Lane::Y => &self.y,
            Lane::Z => &self.z,
            Lane::Vx => &self.vx,
            Lane::Vy => &self.vy,
            Lane::Vz => &self.vz,
            Lane::H => &self.h,
            Lane::Rho => &self.rho,
            Lane::U => &self.u,
            Lane::P => &self.p,
            Lane::C => &self.c,
            Lane::Omega => &self.omega,
            Lane::DivV => &self.div_v,
            Lane::CurlV => &self.curl_v,
            Lane::Alpha => &self.alpha,
            Lane::Ax => &self.ax,
            Lane::Ay => &self.ay,
            Lane::Az => &self.az,
            Lane::Du => &self.du,
        }
    }

    /// The first non-finite value of `lanes` over `rows`, as `(row, lane)`:
    /// the earliest such row in `rows` order, and within it the first of
    /// `lanes`. `None` when every value is finite. Nothing outside `rows` and
    /// `lanes` is reported — the propagators pass what a stage wrote.
    ///
    /// When `rows` covers at least half the set (a cycle start checks every
    /// row), whole lanes are scanned first: contiguous and vectorised, that
    /// settles the common all-finite case for less than gathering the rows
    /// costs, and the rows are searched only when some value is not finite.
    pub fn first_non_finite(&self, rows: &[u32], lanes: &[Lane]) -> Option<(usize, Lane)> {
        if 2 * rows.len() >= self.len() && self.all_finite(self.len(), lanes) {
            return None;
        }
        self.first_non_finite_by(lanes, |values| {
            rows.iter().position(|&i| !values[i as usize].is_finite())
        })
        .map(|(k, lane)| (rows[k] as usize, lane))
    }

    /// [`ParticleSet::first_non_finite`] over the first `n` rows.
    pub fn first_non_finite_prefix(&self, n: usize, lanes: &[Lane]) -> Option<(usize, Lane)> {
        if self.all_finite(n, lanes) {
            return None;
        }
        self.first_non_finite_by(lanes, |values| values[..n].iter().position(|v| !v.is_finite()))
    }

    /// Whether `lanes` are finite over the first `n` rows (no early exit, so
    /// each lane's scan vectorises).
    fn all_finite(&self, n: usize, lanes: &[Lane]) -> bool {
        lanes
            .iter()
            .all(|&lane| self.lane(lane)[..n].iter().fold(true, |finite, v| finite & v.is_finite()))
    }

    /// The smallest `(first_bad(lane), lane)` over `lanes`, ties to the
    /// earlier lane.
    fn first_non_finite_by(
        &self,
        lanes: &[Lane],
        first_bad: impl Fn(&[f64]) -> Option<usize>,
    ) -> Option<(usize, Lane)> {
        lanes
            .iter()
            .filter_map(|&lane| first_bad(self.lane(lane)).map(|k| (k, lane)))
            .min_by_key(|&(k, _)| k)
    }
}

/// An evolved `f64` lane of a [`ParticleSet`] — what the propagators' finite
/// guards check (mass is set once and never evolved).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Lane {
    X,
    Y,
    Z,
    Vx,
    Vy,
    Vz,
    H,
    Rho,
    U,
    P,
    C,
    Omega,
    DivV,
    CurlV,
    Alpha,
    Ax,
    Ay,
    Az,
    Du,
}

impl Lane {
    /// Every evolved lane, in storage order.
    pub const ALL: [Lane; 19] = [
        Lane::X,
        Lane::Y,
        Lane::Z,
        Lane::Vx,
        Lane::Vy,
        Lane::Vz,
        Lane::H,
        Lane::Rho,
        Lane::U,
        Lane::P,
        Lane::C,
        Lane::Omega,
        Lane::DivV,
        Lane::CurlV,
        Lane::Alpha,
        Lane::Ax,
        Lane::Ay,
        Lane::Az,
        Lane::Du,
    ];

    /// The position lanes — what a drift writes.
    pub const POSITION: [Lane; 3] = [Lane::X, Lane::Y, Lane::Z];

    /// The field's name in [`ParticleSet`].
    pub fn name(self) -> &'static str {
        match self {
            Lane::X => "x",
            Lane::Y => "y",
            Lane::Z => "z",
            Lane::Vx => "vx",
            Lane::Vy => "vy",
            Lane::Vz => "vz",
            Lane::H => "h",
            Lane::Rho => "rho",
            Lane::U => "u",
            Lane::P => "p",
            Lane::C => "c",
            Lane::Omega => "omega",
            Lane::DivV => "div_v",
            Lane::CurlV => "curl_v",
            Lane::Alpha => "alpha",
            Lane::Ax => "ax",
            Lane::Ay => "ay",
            Lane::Az => "az",
            Lane::Du => "du",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_set() -> ParticleSet {
        let mut p = ParticleSet::with_capacity(4);
        p.push(0.0, 0.0, 0.0, 1.0, 0.0, 0.0, 2.0, 0.1, 1.5);
        p.push(1.0, 0.0, 0.0, 0.0, 2.0, 0.0, 3.0, 0.1, 0.5);
        p.push(0.0, 1.0, 0.0, 0.0, 0.0, -1.0, 1.0, 0.1, 1.0);
        p
    }

    #[test]
    fn push_keeps_fields_consistent() {
        let p = sample_set();
        assert_eq!(p.len(), 3);
        assert!(!p.is_empty());
        assert!(p.is_consistent());
    }

    #[test]
    fn energies_and_mass() {
        let p = sample_set();
        assert!((p.total_mass() - 6.0).abs() < 1e-12);
        // KE = 0.5*(2*1 + 3*4 + 1*1) = 0.5*15 = 7.5
        assert!((p.kinetic_energy() - 7.5).abs() < 1e-12);
        // IE = 2*1.5 + 3*0.5 + 1*1 = 5.5
        assert!((p.internal_energy() - 5.5).abs() < 1e-12);
    }

    #[test]
    fn bounding_box_covers_all() {
        let p = sample_set();
        let (min, max) = p.bounding_box();
        assert_eq!(min, (0.0, 0.0, 0.0));
        assert_eq!(max, (1.0, 1.0, 0.0));
    }

    #[test]
    fn gather_extracts_subset() {
        let p = sample_set();
        let sub = p.gather(&[2, 0]);
        assert_eq!(sub.len(), 2);
        assert_eq!(sub.x[0], 0.0);
        assert_eq!(sub.y[0], 1.0);
        assert_eq!(sub.m[1], 2.0);
        assert!(sub.is_consistent());
    }

    #[test]
    fn gather_copies_the_full_state() {
        let mut p = sample_set();
        p.ax = vec![1.0, 2.0, 3.0];
        p.du = vec![-0.1, 0.2, -0.3];
        p.alpha = vec![0.3, 0.6, 0.9];
        p.neighbor_count = vec![4, 5, 6];
        p.rung = vec![0, 1, 2];
        let sub = p.gather(&[1, 2]);
        assert_eq!(sub.ax, vec![2.0, 3.0]);
        assert_eq!(sub.du, vec![0.2, -0.3]);
        assert_eq!(sub.alpha, vec![0.6, 0.9]);
        assert_eq!(sub.neighbor_count, vec![5, 6]);
        assert_eq!(sub.rung, vec![1, 2]);
    }

    #[test]
    fn append_and_truncate_round_trip() {
        let mut p = sample_set();
        p.ax = vec![1.0, 2.0, 3.0];
        p.rung = vec![2, 0, 1];
        let q = p.clone();
        let extra = p.gather(&[0, 1]);
        p.append_set(&extra);
        assert_eq!(p.len(), 5);
        assert!(p.is_consistent());
        assert_eq!(p.ax[3], 1.0);
        assert_eq!(p.rung[3], 2);
        p.truncate(3);
        assert_eq!(p.len(), 3);
        assert!(p.is_consistent());
        assert_eq!(p.x, q.x);
        assert_eq!(p.ax, q.ax);
        assert_eq!(p.neighbor_count, q.neighbor_count);
        assert_eq!(p.rung, q.rung);
    }

    #[test]
    fn reorder_permutes_every_field() {
        let mut p = sample_set();
        p.neighbor_count = vec![5, 6, 7];
        p.rung = vec![1, 2, 3];
        p.rho = vec![1.0, 2.0, 3.0];
        let q = p.clone();
        p.reorder(&[2, 0, 1]);
        assert!(p.is_consistent());
        for (k, &src) in [2usize, 0, 1].iter().enumerate() {
            assert_eq!(p.x[k], q.x[src]);
            assert_eq!(p.vy[k], q.vy[src]);
            assert_eq!(p.m[k], q.m[src]);
            assert_eq!(p.rho[k], q.rho[src]);
            assert_eq!(p.u[k], q.u[src]);
            assert_eq!(p.neighbor_count[k], q.neighbor_count[src]);
            assert_eq!(p.rung[k], q.rung[src]);
        }
        // Applying the inverse permutation restores the original order.
        p.reorder(&[1, 2, 0]);
        assert_eq!(p.x, q.x);
        assert_eq!(p.neighbor_count, q.neighbor_count);
        assert_eq!(p.rung, q.rung);
    }

    #[test]
    #[should_panic(expected = "permutation length mismatch")]
    fn reorder_rejects_wrong_length() {
        let mut p = sample_set();
        p.reorder(&[0, 1]);
    }

    #[test]
    fn field_count_and_memory_bytes() {
        let p = sample_set();
        assert_eq!(ParticleSet::field_count(), 22);
        // 3 particles × (20 f64 + 1 u32 + 1 u8).
        assert_eq!(p.memory_bytes(), 3 * (20 * 8 + 4 + 1));
        assert_eq!(ParticleSet::default().memory_bytes(), 0);
    }

    #[test]
    fn first_non_finite_reports_the_first_row_and_lane_inside_the_given_rows() {
        let mut p = sample_set();
        p.push(2.0, 0.0, 0.0, 0.0, 0.0, 0.0, 1.0, 0.1, 1.0);
        let all = [0, 1, 2, 3];
        assert_eq!(p.first_non_finite(&all, &Lane::ALL), None);
        // Row 1 carries two bad lanes: the earlier of the given lanes is named.
        p.du[1] = f64::NAN;
        p.rho[1] = f64::INFINITY;
        p.vy[3] = f64::NEG_INFINITY;
        assert_eq!(p.first_non_finite(&all, &Lane::ALL), Some((1, Lane::Rho)));
        assert_eq!(p.first_non_finite(&all, &[Lane::Du, Lane::Rho]), Some((1, Lane::Du)));
        // Rows come in the given order, not storage order.
        assert_eq!(p.first_non_finite(&[3, 1], &Lane::ALL), Some((3, Lane::Vy)));
        assert_eq!(p.first_non_finite(&[0, 2, 3], &Lane::ALL), Some((3, Lane::Vy)));
        // Rows and lanes outside the given sets are never reported.
        assert_eq!(p.first_non_finite(&[0, 2], &Lane::ALL), None);
        assert_eq!(p.first_non_finite(&all, &[Lane::X, Lane::U]), None);
        assert_eq!(p.first_non_finite(&[], &Lane::ALL), None);
        // Mass is not an evolved lane.
        p.m[0] = f64::NAN;
        assert_eq!(p.first_non_finite(&[0], &Lane::ALL), None);
        assert_eq!(Lane::Vy.name(), "vy");
        assert_eq!(p.lane(Lane::CurlV), &p.curl_v[..]);
    }

    #[test]
    fn first_non_finite_prefix_stops_at_the_prefix() {
        let mut p = sample_set();
        p.u[0] = f64::NAN;
        assert_eq!(p.first_non_finite_prefix(3, &Lane::POSITION), None);
        p.z[2] = f64::NAN;
        p.y[1] = f64::INFINITY;
        assert_eq!(p.first_non_finite_prefix(3, &Lane::POSITION), Some((1, Lane::Y)));
        assert_eq!(p.first_non_finite_prefix(1, &Lane::POSITION), None);
        assert_eq!(p.first_non_finite_prefix(3, &Lane::ALL), Some((0, Lane::U)));
    }

    #[test]
    fn empty_set_behaves() {
        let p = ParticleSet::default();
        assert!(p.is_empty());
        assert_eq!(p.total_mass(), 0.0);
        assert_eq!(p.kinetic_energy(), 0.0);
        assert!(p.is_consistent());
    }
}
