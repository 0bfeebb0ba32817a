//! Self-gravity (`Gravity` stage).
//!
//! Barnes–Hut tree gravity using the octree monopoles, with `G = 1` in code
//! units (the convention of the Evrard collapse test). The walk that gives a
//! particle its acceleration also gives its potential `φᵢ`, so every stage
//! function returns the potential energy `E_pot = ½ Σ mᵢ φᵢ` of the rows it
//! walked at no extra cost.

use crate::octree::{GravityField, GravityTargets, Octree, GRAVITY_LANES};
use crate::parallel::{parallel_map_from, MIN_PARALLEL_ITEMS};
use crate::particle::ParticleSet;
use crate::physics::neighbors::build_tree;
use crate::propagator::MAX_LEAF_SIZE;

/// Default Barnes–Hut opening angle.
pub const DEFAULT_THETA: f64 = 0.5;

/// The coordinate and mass arrays a Barnes–Hut tree was built over, and the
/// index in them of the walker's slot 0. Single-rank that is the particle set
/// itself; a shard walks the allgathered global arrays, where its owned slot
/// `i` sits at `offset + i`.
pub struct Sources<'a> {
    /// Source x coordinates.
    pub x: &'a [f64],
    /// Source y coordinates.
    pub y: &'a [f64],
    /// Source z coordinates.
    pub z: &'a [f64],
    /// Source masses.
    pub m: &'a [f64],
    /// Index of the walker's slot 0 in the arrays.
    pub offset: usize,
}

impl<'a> Sources<'a> {
    /// The particle set's own arrays.
    pub fn of(p: &'a ParticleSet) -> Self {
        Self {
            x: &p.x,
            y: &p.y,
            z: &p.z,
            m: &p.m,
            offset: 0,
        }
    }

    /// Walk `tree` from `count` slots — walk `k` starts at slot `slot(k)`,
    /// which is left out of its own sum. The walks run [`GRAVITY_LANES`] at a
    /// time ([`gravity_group`]) in the tree's leaf order, so the
    /// targets of one group are neighbours and share most of their walk, and
    /// the groups run on [`parallel_map_from`] (scoped threads spawned per
    /// call) from [`MIN_PARALLEL_ITEMS`] rows up, as a per-row loop would.
    /// Returns the accelerations in walk order and `½ Σ mᵢ φᵢ` summed in walk
    /// order, so neither depends on the grouping or the thread count.
    ///
    /// `tree` must have been built over these arrays: the targets come from
    /// them, the sources from the tree's own leaf-order copy.
    pub fn walk(
        &self,
        tree: &Octree,
        theta: f64,
        softening: f64,
        count: usize,
        slot: impl Fn(usize) -> usize + Sync,
    ) -> (Vec<(f64, f64, f64)>, f64) {
        debug_assert_eq!(tree.particle_count(), self.x.len(), "tree built over other sources");
        // The walks in leaf order: mark each walked source with its walk index,
        // then read the marks off in the order the tree lays its leaves out.
        let mut walk_of = vec![u32::MAX; self.x.len()];
        for k in 0..count {
            walk_of[self.offset + slot(k)] = k as u32;
        }
        let order: Vec<u32> = tree
            .leaf_order()
            .iter()
            .map(|&j| walk_of[j as usize])
            .filter(|&k| k != u32::MAX)
            .collect();
        debug_assert_eq!(order.len(), count, "walk slots must be distinct");
        // A group is GRAVITY_LANES rows of work: go parallel at as many rows
        // as a per-row loop would.
        let groups = count.div_ceil(GRAVITY_LANES);
        let fields = parallel_map_from(groups, MIN_PARALLEL_ITEMS.div_ceil(GRAVITY_LANES), |b| {
            let group = &order[b * GRAVITY_LANES..count.min((b + 1) * GRAVITY_LANES)];
            let mut targets = GravityTargets {
                x: [0.0; GRAVITY_LANES],
                y: [0.0; GRAVITY_LANES],
                z: [0.0; GRAVITY_LANES],
                skip: [u32::MAX; GRAVITY_LANES],
                len: group.len(),
            };
            for (l, &k) in group.iter().enumerate() {
                let j = self.offset + slot(k as usize);
                targets.x[l] = self.x[j];
                targets.y[l] = self.y[j];
                targets.z[l] = self.z[j];
                targets.skip[l] = j as u32;
            }
            gravity_group(tree, &targets, theta, softening)
        });
        let mut acc = vec![(0.0, 0.0, 0.0); count];
        let mut phi = vec![0.0; count];
        for (group, g) in order.chunks(GRAVITY_LANES).zip(&fields) {
            for (l, &k) in group.iter().enumerate() {
                acc[k as usize] = (g.ax[l], g.ay[l], g.az[l]);
                phi[k as usize] = g.phi[l];
            }
        }
        let mut twice_e_pot = 0.0;
        for (k, phi) in phi.into_iter().enumerate() {
            twice_e_pot += self.m[self.offset + slot(k)] * phi;
        }
        (acc, 0.5 * twice_e_pot)
    }
}

/// [`Octree::gravity_lanes`] for one group of targets, through the AVX2
/// instantiation when the CPU has AVX2, else the portable build
/// (`SPHSIM_FORCE_PORTABLE_SWEEP` pins the latter). The choice changes only
/// how many lanes retire per instruction, never a result: both tiers run the
/// same per-lane IEEE arithmetic, with no contraction into fused
/// multiply-adds.
pub fn gravity_group(
    tree: &Octree,
    targets: &GravityTargets<GRAVITY_LANES>,
    theta: f64,
    eps: f64,
) -> GravityField<GRAVITY_LANES> {
    #[cfg(target_arch = "x86_64")]
    if crate::celllist::simd_tiers().0 {
        // SAFETY: the AVX2 tier is only on when runtime detection reported
        // AVX2 on this CPU.
        return unsafe { walk_group_avx2(tree, targets, theta, eps) };
    }
    tree.gravity_lanes(targets, theta, eps)
}

/// AVX2 instantiation of [`Octree::gravity_lanes`]: the always-inlined
/// generic body compiled at this width (sixteen lanes in four registers).
///
/// # Safety
/// The caller must have verified at runtime that the CPU supports AVX2.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn walk_group_avx2(
    tree: &Octree,
    targets: &GravityTargets<GRAVITY_LANES>,
    theta: f64,
    eps: f64,
) -> GravityField<GRAVITY_LANES> {
    tree.gravity_lanes(targets, theta, eps)
}

/// Add walked accelerations (walk order, walk `k` at slot `slot(k)`) onto
/// `ax/ay/az`.
pub(crate) fn kick(particles: &mut ParticleSet, acc: &[(f64, f64, f64)], slot: impl Fn(usize) -> usize) {
    for (k, &(gx, gy, gz)) in acc.iter().enumerate() {
        let i = slot(k);
        particles.ax[i] += gx;
        particles.ay[i] += gy;
        particles.az[i] += gz;
    }
}

/// Add the gravitational acceleration of each particle of `rows` onto
/// `ax/ay/az`, in place — frozen particles of an individual-timestep substep
/// keep their accelerations from their own last kick. Returns `½ Σ mᵢ φᵢ`
/// over `rows` only, which is the set's potential energy when every row is
/// active.
///
/// `tree` must have been built over the current positions and masses of
/// `particles`: the leaf terms read the copy the tree took when it was built,
/// so a tree over other positions gives other forces. The propagator's
/// `DomainDecompAndSync` rebuilds it on every substep of a self-gravitating
/// run, before this stage.
pub fn add_gravity_rows(particles: &mut ParticleSet, tree: &Octree, theta: f64, softening: f64, rows: &[u32]) -> f64 {
    let slot = |k: usize| rows[k] as usize;
    let (acc, e_pot) = Sources::of(particles).walk(tree, theta, softening, rows.len(), slot);
    kick(particles, &acc, slot);
    e_pot
}

/// Gravitational potential energy `½ Σ mᵢ φᵢ` of the current positions, from
/// one Barnes–Hut walk at [`DEFAULT_THETA`] over a freshly built tree —
/// O(N log N), and the same approximation the `Gravity` stage makes.
pub fn potential_energy_tree(particles: &ParticleSet, softening: f64) -> f64 {
    let tree = build_tree(particles, MAX_LEAF_SIZE);
    Sources::of(particles)
        .walk(&tree, DEFAULT_THETA, softening, particles.len(), |k| k)
        .1
}

/// Exact gravitational potential energy `E_pot = -Σ_{i<j} m_i m_j / |r_ij|`
/// by direct pair summation. O(N²): the test oracle the Barnes–Hut energy is
/// checked against, not for use on a step path.
pub fn potential_energy_direct(particles: &ParticleSet, softening: f64) -> f64 {
    let (x, y, z, m) = (&particles.x, &particles.y, &particles.z, &particles.m);
    let n = particles.len();
    let mut e = 0.0;
    for i in 0..n {
        for j in (i + 1)..n {
            let dx = x[i] - x[j];
            let dy = y[i] - y[j];
            let dz = z[i] - z[j];
            let r = (dx * dx + dy * dy + dz * dz + softening * softening).sqrt();
            e -= m[i] * m[j] / r;
        }
    }
    e
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::init::evrard::evrard_sphere;
    use crate::init::lattice_cube;

    #[test]
    fn gravity_pulls_towards_the_centre_of_mass() {
        let mut p = lattice_cube(6, 1.0, 1.0, 1.3);
        let tree = build_tree(&p, 16);
        let rows: Vec<u32> = (0..p.len() as u32).collect();
        add_gravity_rows(&mut p, &tree, DEFAULT_THETA, 0.01, &rows);
        // The particle closest to the corner must be pulled towards the centre
        // (positive components of acceleration).
        let i = (0..p.len())
            .min_by(|&a, &b| (p.x[a] + p.y[a] + p.z[a]).total_cmp(&(p.x[b] + p.y[b] + p.z[b])))
            .unwrap();
        assert!(p.ax[i] > 0.0 && p.ay[i] > 0.0 && p.az[i] > 0.0);
    }

    #[test]
    fn two_body_acceleration_matches_newton() {
        let mut p = ParticleSet::with_capacity(2);
        p.push(0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 3.0, 0.1, 0.0);
        p.push(2.0, 0.0, 0.0, 0.0, 0.0, 0.0, 5.0, 0.1, 0.0);
        let tree = build_tree(&p, 4);
        add_gravity_rows(&mut p, &tree, 0.0, 0.0, &[0, 1]);
        // a_0 = G m_1 / r² = 5/4, pointing towards +x; a_1 = 3/4 towards -x.
        assert!((p.ax[0] - 1.25).abs() < 1e-9);
        assert!((p.ax[1] + 0.75).abs() < 1e-9);
        assert!(p.ay[0].abs() < 1e-12 && p.az[0].abs() < 1e-12);
    }

    #[test]
    fn potential_energy_of_pair() {
        let mut p = ParticleSet::with_capacity(2);
        p.push(0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 2.0, 0.1, 0.0);
        p.push(4.0, 0.0, 0.0, 0.0, 0.0, 0.0, 3.0, 0.1, 0.0);
        let e = potential_energy_direct(&p, 0.0);
        assert!((e + 6.0 / 4.0).abs() < 1e-12);
    }

    fn relative_error(tree: f64, direct: f64) -> f64 {
        (tree - direct).abs() / direct.abs()
    }

    #[test]
    fn tree_potential_matches_the_direct_sum_with_every_node_opened() {
        // θ = 0 opens every internal node, so the walk is the exact pair sum
        // up to summation order.
        let p = evrard_sphere(800, 3);
        let softening = 0.02;
        let tree = build_tree(&p, MAX_LEAF_SIZE);
        let (_, e_pot) = Sources::of(&p).walk(&tree, 0.0, softening, p.len(), |k| k);
        let direct = potential_energy_direct(&p, softening);
        assert!(
            relative_error(e_pot, direct) <= 1e-12,
            "θ = 0 tree potential {e_pot} vs direct {direct}"
        );
    }

    #[test]
    fn tree_potential_error_at_the_default_opening_angle_is_pinned() {
        // Measured 1.22e-4 on this sphere; seeds 1–12 at N = 2000 span
        // 2.8e-5 … 1.8e-4. The bound keeps ~2× headroom over the pinned case.
        let p = evrard_sphere(2000, 1);
        let direct = potential_energy_direct(&p, 0.02);
        let err = relative_error(potential_energy_tree(&p, 0.02), direct);
        assert!(
            err < 2.5e-4,
            "Barnes–Hut potential error {err:e} at θ = {DEFAULT_THETA}"
        );
    }

    #[test]
    fn stage_functions_return_the_walked_potential_energy() {
        let mut p = evrard_sphere(600, 5);
        let tree = build_tree(&p, MAX_LEAF_SIZE);
        let e_tree = potential_energy_tree(&p, 0.02);
        let mut q = p.clone();
        let rows: Vec<u32> = (0..q.len() as u32).collect();
        let e_all = add_gravity_rows(&mut p, &tree, DEFAULT_THETA, 0.02, &rows);
        let e_rows = add_gravity_rows(&mut q, &tree, DEFAULT_THETA, 0.02, &rows);
        assert_eq!(e_all.to_bits(), e_tree.to_bits());
        assert_eq!(e_rows.to_bits(), e_all.to_bits());
        assert_eq!(p.ax, q.ax);
        // A subset walks only its own rows' share.
        let mut r = p.clone();
        let half = &rows[..rows.len() / 2];
        let e_half = add_gravity_rows(&mut r, &tree, DEFAULT_THETA, 0.02, half);
        assert!(e_half < 0.0 && e_half > e_all);
    }
}
