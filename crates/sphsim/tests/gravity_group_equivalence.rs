//! Grouped-gravity equivalence: the Barnes–Hut walk that evaluates
//! `GRAVITY_LANES` targets at once, one SIMD lane each, must give every
//! target bit for bit what the plain single-target depth-first walk gives it.
//! [`scalar_walk`] below is that walk, kept here as the reference. Every case
//! compares, for θ ∈ {0, 0.5} and ε ∈ {0, 0.02}:
//!
//! - the stage walk (`Sources::walk`, grouped in leaf order and dispatched to
//!   the widest SIMD tier): accelerations and the returned `E_pot`;
//! - `gravity_group` on groups taken in slot order: acceleration and `φ` per
//!   lane;
//! - the one-lane `Octree::gravity_at`.
//!
//! `gravity_group_portable_equivalence` runs the same cases with
//! `SPHSIM_FORCE_PORTABLE_SWEEP` set, so the portable build of the walk is
//! pinned as well as the tier this host dispatches to.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sphsim::init::evrard::evrard_sphere;
use sphsim::octree::{GravityTargets, Octree, GRAVITY_LANES};
use sphsim::physics::gravity::{add_gravity, add_gravity_rows, gravity_group, potential_energy_tree, Sources};
use sphsim::{scenario, ParticleSet, Simulation};

/// The propagator's leaf size.
const LEAF: usize = 32;

const THETAS: [f64; 2] = [0.0, 0.5];
const SOFTENINGS: [f64; 2] = [0.0, 0.02];

/// The single-target Barnes–Hut walk the grouped walk replaced: depth-first
/// from the root, children pushed in octant order, leaves summed in leaf
/// order, `self_idx` left out.
#[allow(clippy::too_many_arguments)] // mirrors the flat SoA particle layout
fn scalar_walk(
    tree: &Octree,
    pos: (f64, f64, f64),
    theta: f64,
    eps: f64,
    x: &[f64],
    y: &[f64],
    z: &[f64],
    m: &[f64],
    self_idx: usize,
) -> ((f64, f64, f64), f64) {
    let nodes = tree.nodes();
    let ids = tree.leaf_order();
    let mut acc = (0.0, 0.0, 0.0);
    let mut phi = 0.0;
    let mut stack = vec![0usize];
    while let Some(i) = stack.pop() {
        let node = &nodes[i];
        if node.count() == 0 || node.mass <= 0.0 {
            continue;
        }
        let dx = node.com.0 - pos.0;
        let dy = node.com.1 - pos.1;
        let dz = node.com.2 - pos.2;
        let dist2 = dx * dx + dy * dy + dz * dz + eps * eps;
        let dist = dist2.sqrt();
        let size = node.bounds.longest_edge();
        if node.is_leaf() || (size / dist) < theta {
            if node.is_leaf() {
                for &p in &ids[node.start..node.end] {
                    let p = p as usize;
                    if p == self_idx {
                        continue;
                    }
                    let dx = x[p] - pos.0;
                    let dy = y[p] - pos.1;
                    let dz = z[p] - pos.2;
                    let d2 = dx * dx + dy * dy + dz * dz + eps * eps;
                    let d = d2.sqrt();
                    let f = m[p] / (d2 * d);
                    acc.0 += f * dx;
                    acc.1 += f * dy;
                    acc.2 += f * dz;
                    phi -= f * d2;
                }
            } else {
                let f = node.mass / (dist2 * dist);
                acc.0 += f * dx;
                acc.1 += f * dy;
                acc.2 += f * dz;
                phi -= f * dist2;
            }
        } else if let Some(children) = node.children {
            stack.extend(children);
        }
    }
    (acc, phi)
}

fn bits(v: (f64, f64, f64)) -> [u64; 3] {
    [v.0.to_bits(), v.1.to_bits(), v.2.to_bits()]
}

fn sources_of<'a>(x: &'a [f64], y: &'a [f64], z: &'a [f64], m: &'a [f64], offset: usize) -> Sources<'a> {
    Sources { x, y, z, m, offset }
}

/// Every walk form against the oracle, for walks from `slots` (offset by
/// `src.offset`) over a tree built on all of `src`, on the whole θ × ε grid.
fn assert_walks_match(label: &str, src: &Sources, slots: &[usize]) {
    let tree = Octree::build(src.x, src.y, src.z, src.m, LEAF);
    for theta in THETAS {
        for eps in SOFTENINGS {
            let case = format!("{label}, θ = {theta}, ε = {eps}");
            let mut want = Vec::with_capacity(slots.len());
            let mut twice_e_pot = 0.0;
            for &s in slots {
                let j = src.offset + s;
                let pos = (src.x[j], src.y[j], src.z[j]);
                let (acc, phi) = scalar_walk(&tree, pos, theta, eps, src.x, src.y, src.z, src.m, j);
                twice_e_pot += src.m[j] * phi;
                want.push((acc, phi));
            }

            let (acc, e_pot) = src.walk(&tree, theta, eps, slots.len(), |k| slots[k]);
            for (k, (got, (expect, _))) in acc.iter().zip(&want).enumerate() {
                assert_eq!(bits(*got), bits(*expect), "{case}: stage walk {k} acceleration");
            }
            assert_eq!(e_pot.to_bits(), (0.5 * twice_e_pot).to_bits(), "{case}: E_pot");

            for (g, group) in slots.chunks(GRAVITY_LANES).enumerate() {
                let mut t = GravityTargets {
                    x: [0.0; GRAVITY_LANES],
                    y: [0.0; GRAVITY_LANES],
                    z: [0.0; GRAVITY_LANES],
                    skip: [u32::MAX; GRAVITY_LANES],
                    len: group.len(),
                };
                for (l, &s) in group.iter().enumerate() {
                    let j = src.offset + s;
                    (t.x[l], t.y[l], t.z[l], t.skip[l]) = (src.x[j], src.y[j], src.z[j], j as u32);
                }
                let field = gravity_group(&tree, &t, theta, eps);
                for l in 0..group.len() {
                    let (acc, phi) = want[g * GRAVITY_LANES + l];
                    let got = (field.ax[l], field.ay[l], field.az[l]);
                    assert_eq!(bits(got), bits(acc), "{case}: group {g} lane {l} acceleration");
                    assert_eq!(field.phi[l].to_bits(), phi.to_bits(), "{case}: group {g} lane {l} φ");
                }
            }

            for (&s, &(acc, phi)) in slots.iter().zip(&want) {
                let j = src.offset + s;
                let (got, got_phi) = tree.gravity_at((src.x[j], src.y[j], src.z[j]), theta, eps, j);
                assert_eq!(bits(got), bits(acc), "{case}: gravity_at {j} acceleration");
                assert_eq!(got_phi.to_bits(), phi.to_bits(), "{case}: gravity_at {j} φ");
            }
        }
    }
}

fn all_slots(p: &ParticleSet) -> Vec<usize> {
    (0..p.len()).collect()
}

fn evrard_after(steps: usize) -> ParticleSet {
    let mut sim = Simulation::from_scenario(scenario::get("Evr").expect("Evr is registered"), 800, 3);
    for _ in 0..steps {
        sim.step();
    }
    sim.particles().clone()
}

pub fn evrard_states_full_and_sparse() {
    for steps in [0, 2] {
        let p = evrard_after(steps);
        let src = Sources::of(&p);
        assert_walks_match(&format!("Evrard after {steps} steps, every row"), &src, &all_slots(&p));
        // The binned active set: a sparse, sorted row subset.
        let sparse: Vec<usize> = (0..p.len()).filter(|i| i % 7 == 3 || i % 11 == 0).collect();
        assert_walks_match(&format!("Evrard after {steps} steps, sparse rows"), &src, &sparse);
    }
}

/// A random cloud plus `dups` exact copies of one point, and a cluster of 40
/// points within 1e-12 of another with geometric trails of points closing in
/// on it. The copies stop splitting as one leaf; the trails keep every level
/// of the cluster's branch splitting, so its leaf closes only at the depth
/// limit. Both leaves hold more than the leaf size.
fn cloud_with_duplicates(n: usize, dups: usize, seed: u64) -> (Vec<f64>, Vec<f64>, Vec<f64>, Vec<f64>) {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut c: [Vec<f64>; 4] = Default::default();
    let mut push = |x: f64, y: f64, z: f64, m: f64| {
        for (v, a) in c.iter_mut().zip([x, y, z, m]) {
            v.push(a);
        }
    };
    for _ in 0..n {
        push(rng.gen(), rng.gen(), rng.gen(), rng.gen_range(0.5..1.5));
    }
    for _ in 0..dups {
        push(0.25, 0.5, 0.75, 1.0);
    }
    let (ax, ay, az) = (0.7, 0.3, 0.6);
    for _ in 0..40 {
        let mut jitter = || 1e-12 * rng.gen::<f64>();
        push(ax + jitter(), ay + jitter(), az + jitter(), 0.8);
    }
    // Every sign pattern, at √2 spacing: whichever side of a split plane the
    // cluster lies, some trail point sits across it inside the node.
    for k in 1..50 {
        let s = 0.3 * 0.5f64.powf(0.5 * k as f64);
        for oct in 0..8 {
            let sign = |bit: usize| if oct & bit == 0 { -s } else { s };
            push(ax + sign(1), ay + sign(2), az + sign(4), 0.6);
        }
    }
    let [x, y, z, m] = c;
    (x, y, z, m)
}

/// Depth of every leaf, and its node.
fn leaf_depths(tree: &Octree) -> Vec<(usize, usize)> {
    let mut out = Vec::new();
    let mut stack = vec![(0usize, 0usize)];
    while let Some((i, depth)) = stack.pop() {
        match tree.nodes()[i].children {
            Some(children) => stack.extend(children.iter().map(|&c| (c, depth + 1))),
            None => out.push((i, depth)),
        }
    }
    out
}

pub fn clouds_with_duplicate_points() {
    // Coincident points are singular without softening (their pair term is
    // 0/0 → NaN, which has no bit pattern to pin), so the cloud with exact
    // copies is walked only by the softened cases.
    for (dups, label) in [(0, "depth-limit cloud"), (40, "duplicate cloud")] {
        let (x, y, z, m) = cloud_with_duplicates(600, dups, 11);
        let tree = Octree::build(&x, &y, &z, &m, LEAF);
        let big: Vec<(usize, usize)> = leaf_depths(&tree)
            .into_iter()
            .filter(|&(i, _)| tree.nodes()[i].count() > LEAF)
            .collect();
        assert!(
            big.iter().any(|&(_, depth)| depth == tree.depth()) && tree.depth() >= 21,
            "{label}: expected a leaf past the leaf size at the depth limit, got {big:?} (depth {})",
            tree.depth()
        );
        if dups > 0 {
            assert!(big.len() >= 2, "{label}: expected the copies' leaf too, got {big:?}");
        }
        let src = sources_of(&x, &y, &z, &m, 0);
        let slots: Vec<usize> = (0..x.len()).collect();
        if dups == 0 {
            assert_walks_match(label, &src, &slots);
        } else {
            for theta in THETAS {
                let (acc, e_pot) = src.walk(&tree, theta, 0.02, slots.len(), |k| slots[k]);
                let mut twice = 0.0;
                for (k, got) in acc.iter().enumerate() {
                    let (want, phi) = scalar_walk(&tree, (x[k], y[k], z[k]), theta, 0.02, &x, &y, &z, &m, k);
                    assert_eq!(bits(*got), bits(want), "{label}, θ = {theta}: walk {k}");
                    twice += m[k] * phi;
                }
                assert_eq!(e_pot.to_bits(), (0.5 * twice).to_bits(), "{label}, θ = {theta}: E_pot");
            }
        }
    }
}

pub fn shard_offset_and_target_counts() {
    let p = evrard_sphere(700, 5);
    // A shard's owned rows sit at an offset inside the gathered global
    // arrays; its walk slots count from 0.
    let offset = 137;
    let whole = Sources::of(&p);
    let shard = sources_of(&p.x, &p.y, &p.z, &p.m, offset);
    assert_walks_match("shard block at offset 137", &shard, &(0..300).collect::<Vec<_>>());
    for count in [1, 15, 16, 17] {
        let slots: Vec<usize> = (0..count).map(|k| (k * 41 + 9) % (p.len() - offset)).collect();
        assert_walks_match(&format!("{count} targets"), &whole, &slots);
        assert_walks_match(&format!("{count} targets at offset {offset}"), &shard, &slots);
    }
}

pub fn targets_without_self_exclusion() {
    // `usize::MAX` / `u32::MAX` leave nothing out: probe points off the
    // particles, plus a particle position that must see its own term.
    let p = evrard_sphere(500, 7);
    let tree = Octree::build(&p.x, &p.y, &p.z, &p.m, LEAF);
    let mut rng = StdRng::seed_from_u64(3);
    let mut probes: Vec<(f64, f64, f64)> = (0..GRAVITY_LANES + 1)
        .map(|_| {
            (
                rng.gen_range(-1.2..1.2),
                rng.gen_range(-1.2..1.2),
                rng.gen_range(-1.2..1.2),
            )
        })
        .collect();
    probes[4] = (p.x[10], p.y[10], p.z[10]);
    for theta in THETAS {
        // Softened only: the probe on particle 10 meets its own term at d = 0.
        let eps = 0.02;
        let want: Vec<_> = probes
            .iter()
            .map(|&pos| scalar_walk(&tree, pos, theta, eps, &p.x, &p.y, &p.z, &p.m, usize::MAX))
            .collect();
        for (i, &pos) in probes.iter().enumerate() {
            let (acc, phi) = tree.gravity_at(pos, theta, eps, usize::MAX);
            assert_eq!(bits(acc), bits(want[i].0), "θ = {theta}: probe {i} acceleration");
            assert_eq!(phi.to_bits(), want[i].1.to_bits(), "θ = {theta}: probe {i} φ");
        }
        for (g, group) in probes.chunks(GRAVITY_LANES).enumerate() {
            let mut t = GravityTargets {
                x: [0.0; GRAVITY_LANES],
                y: [0.0; GRAVITY_LANES],
                z: [0.0; GRAVITY_LANES],
                skip: [u32::MAX; GRAVITY_LANES],
                len: group.len(),
            };
            for (l, &(x, y, z)) in group.iter().enumerate() {
                (t.x[l], t.y[l], t.z[l]) = (x, y, z);
            }
            let field = gravity_group(&tree, &t, theta, eps);
            for l in 0..group.len() {
                let (acc, phi) = want[g * GRAVITY_LANES + l];
                assert_eq!(
                    bits((field.ax[l], field.ay[l], field.az[l])),
                    bits(acc),
                    "group {g} lane {l}"
                );
                assert_eq!(field.phi[l].to_bits(), phi.to_bits(), "group {g} lane {l} φ");
            }
        }
    }
}

pub fn stage_functions_match_the_oracle() {
    let p0 = evrard_after(2);
    let eps = 0.02;
    let tree = Octree::build(&p0.x, &p0.y, &p0.z, &p0.m, LEAF);
    let oracle = |i: usize, theta: f64| {
        let pos = (p0.x[i], p0.y[i], p0.z[i]);
        scalar_walk(&tree, pos, theta, eps, &p0.x, &p0.y, &p0.z, &p0.m, i)
    };
    let zeroed = || {
        let mut p = p0.clone();
        for a in [&mut p.ax, &mut p.ay, &mut p.az] {
            a.fill(0.0);
        }
        p
    };
    for theta in THETAS {
        let mut full = zeroed();
        let e_full = add_gravity(&mut full, &tree, theta, eps);
        let mut twice = 0.0;
        for i in 0..full.len() {
            let (acc, phi) = oracle(i, theta);
            assert_eq!(
                bits((full.ax[i], full.ay[i], full.az[i])),
                bits(acc),
                "θ = {theta}: add_gravity {i}"
            );
            twice += p0.m[i] * phi;
        }
        assert_eq!(
            e_full.to_bits(),
            (0.5 * twice).to_bits(),
            "θ = {theta}: add_gravity E_pot"
        );

        let rows: Vec<u32> = (0..full.len() as u32).filter(|i| i % 5 == 1).collect();
        let mut sparse = zeroed();
        let e_rows = add_gravity_rows(&mut sparse, &tree, theta, eps, &rows);
        let mut twice = 0.0;
        for &r in &rows {
            let i = r as usize;
            let (acc, phi) = oracle(i, theta);
            assert_eq!(
                bits((sparse.ax[i], sparse.ay[i], sparse.az[i])),
                bits(acc),
                "θ = {theta}: rows {i}"
            );
            twice += p0.m[i] * phi;
        }
        assert_eq!(
            e_rows.to_bits(),
            (0.5 * twice).to_bits(),
            "θ = {theta}: add_gravity_rows E_pot"
        );
        assert!(
            (0..sparse.len()).filter(|i| i % 5 != 1).all(|i| sparse.ax[i] == 0.0),
            "θ = {theta}: rows off the subset were kicked"
        );
    }
    // The diagnostic's fresh tree is the same tree, so the same walk.
    let mut twice = 0.0;
    for i in 0..p0.len() {
        let tree_phi = oracle(i, sphsim::physics::gravity::DEFAULT_THETA).1;
        twice += p0.m[i] * tree_phi;
    }
    assert_eq!(potential_energy_tree(&p0, eps).to_bits(), (0.5 * twice).to_bits());
}

#[test]
fn evrard_states_match_the_scalar_walk() {
    evrard_states_full_and_sparse();
}

#[test]
fn duplicate_point_clouds_match_the_scalar_walk() {
    clouds_with_duplicate_points();
}

#[test]
fn shard_offsets_and_group_sizes_match_the_scalar_walk() {
    shard_offset_and_target_counts();
}

#[test]
fn unexcluded_targets_match_the_scalar_walk() {
    targets_without_self_exclusion();
}

#[test]
fn stage_functions_match_the_scalar_walk() {
    stage_functions_match_the_oracle();
}
