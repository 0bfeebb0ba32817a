//! Artificial-viscosity switches (`AVSwitches` stage).
//!
//! The Balsara (1995) limiter suppresses artificial viscosity in shear-dominated
//! flow: `f_i = |∇·v| / (|∇·v| + |∇×v| + ε c/h)`, and the per-particle
//! viscosity coefficient relaxes towards `α_min + (α_max − α_min)·f` with
//! compression (negative divergence) pushing it up faster.

use crate::parallel::parallel_map;
use crate::particle::ParticleSet;

/// Lower bound of the per-particle viscosity coefficient.
pub const ALPHA_MIN: f64 = 0.05;
/// Upper bound of the per-particle viscosity coefficient.
pub const ALPHA_MAX: f64 = 1.0;

/// Balsara limiter value for one particle.
pub fn balsara_limiter(div_v: f64, curl_v: f64, c: f64, h: f64) -> f64 {
    let eps = 1e-4 * c / h.max(1e-30);
    let abs_div = div_v.abs();
    abs_div / (abs_div + curl_v.abs() + eps)
}

/// One row of the viscosity-switch relaxation (purely row-local).
#[inline]
fn av_switch_row(particles: &ParticleSet, dt: f64, i: usize) -> f64 {
    let f = balsara_limiter(
        particles.div_v[i],
        particles.curl_v[i],
        particles.c[i].max(1e-12),
        particles.h[i],
    );
    let target = if particles.div_v[i] < 0.0 {
        // Compression: raise viscosity proportionally to the limiter.
        ALPHA_MIN + (ALPHA_MAX - ALPHA_MIN) * f
    } else {
        ALPHA_MIN
    };
    let current = particles.alpha[i];
    // Relax towards the target on a few-sound-crossing timescale.
    let decay_time = 5.0 * particles.h[i] / particles.c[i].max(1e-12);
    let w = (dt / decay_time.max(1e-30)).clamp(0.0, 1.0);
    (current + (target - current) * w).clamp(ALPHA_MIN, ALPHA_MAX)
}

/// Update the per-particle artificial-viscosity coefficients of `rows`, in
/// place, relaxing each over `dt`.
pub fn update_av_switches_rows(particles: &mut ParticleSet, dt: f64, rows: &[u32]) {
    let out: Vec<f64> = parallel_map(rows.len(), |k| av_switch_row(particles, dt, rows[k] as usize));
    for (k, &i) in rows.iter().enumerate() {
        particles.alpha[i as usize] = out[k];
    }
}

/// The individual-timestep form: each row relaxes over the time since its own
/// last kick — its rung's dt, not the substep dt — so `rows` (the active rows
/// of this substep) is processed one active rung at a time. Before the first
/// cycle plan (`dt_base == 0`) no rung schedule exists yet; every row falls
/// back to `last_dt`. With one bin every row was kicked on the last substep,
/// so `last_dt` is its rung dt and the per-rung split is skipped.
/// `scratch` is the caller's reused per-rung row buffer.
pub fn update_av_switches_binned(
    particles: &mut ParticleSet,
    bins: &crate::physics::timestep::TimestepBins,
    last_dt: f64,
    rows: &[u32],
    scratch: &mut Vec<u32>,
) {
    if bins.dt_base() == 0.0 || bins.n_bins() == 1 {
        update_av_switches_rows(particles, last_dt, rows);
        return;
    }
    for k in 0..bins.n_bins() as u8 {
        if !bins.is_active(k) {
            continue;
        }
        scratch.clear();
        scratch.extend(rows.iter().copied().filter(|&i| particles.rung[i as usize] == k));
        if scratch.is_empty() {
            continue;
        }
        update_av_switches_rows(particles, bins.rung_dt(k), scratch);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn limiter_is_one_for_pure_compression() {
        let f = balsara_limiter(-5.0, 0.0, 1.0, 0.1);
        assert!(f > 0.99);
    }

    #[test]
    fn limiter_is_small_for_pure_shear() {
        let f = balsara_limiter(-0.01, 10.0, 1.0, 0.1);
        assert!(f < 0.01);
    }

    #[test]
    fn limiter_is_bounded() {
        for &(d, c) in &[(0.0, 0.0), (-3.0, 2.0), (4.0, 0.5), (-1e6, 1e6)] {
            let f = balsara_limiter(d, c, 1.0, 0.1);
            assert!((0.0..=1.0).contains(&f));
        }
    }

    #[test]
    fn alpha_rises_under_compression_and_decays_otherwise() {
        let mut p = ParticleSet::with_capacity(2);
        p.push(0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 1.0, 0.1, 1.0);
        p.push(1.0, 0.0, 0.0, 0.0, 0.0, 0.0, 1.0, 0.1, 1.0);
        p.c = vec![1.0, 1.0];
        p.alpha = vec![ALPHA_MIN, ALPHA_MAX];
        p.div_v = vec![-10.0, 1.0]; // particle 0 compressing, particle 1 expanding
        p.curl_v = vec![0.0, 0.0];
        // Integrate a few steps.
        for _ in 0..50 {
            update_av_switches_rows(&mut p, 0.05, &[0, 1]);
        }
        assert!(
            p.alpha[0] > 0.5,
            "compressing particle should gain viscosity: {}",
            p.alpha[0]
        );
        assert!(
            p.alpha[1] < 0.2,
            "expanding particle should relax to the floor: {}",
            p.alpha[1]
        );
        assert!(p.alpha.iter().all(|&a| (ALPHA_MIN..=ALPHA_MAX).contains(&a)));
    }
}
