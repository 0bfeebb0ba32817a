//! Lane-vectorisation smoke tests: the fixed-width lane loops of the pair
//! kernels and of the grouped gravity walk are only a win if the compiler
//! actually emits packed-double SIMD for them. Each probe is an
//! `#[no_mangle] #[inline(never)]` function with the exact shape of the code
//! it stands for; the tests disassemble it out of the test binary and fail if
//! it fell back to scalar-only code. CI runs them in release (`cargo test
//! --release -p sphsim --test simd_lanes`); debug builds skip — `opt-level=0`
//! never vectorises and that is not a regression.

use sphsim::kernels::{sphsim_lane_probe_q, LANE_WIDTH};
use sphsim::octree::{GravityField, GravityTargets, Octree, GRAVITY_LANES};
use std::process::Command;

/// The body of `symbol` in this test binary's disassembly, or `None` (with a
/// notice) where the opcode check does not apply: debug builds, other
/// architectures, no `objdump`.
fn disassembly_of(symbol: &str) -> Option<String> {
    if cfg!(debug_assertions) {
        eprintln!("skipping: debug build never vectorises");
        return None;
    }
    if !cfg!(target_arch = "x86_64") {
        eprintln!("skipping: packed-double opcode check is x86_64-specific");
        return None;
    }
    let exe = std::env::current_exe().expect("test binary path");
    let Ok(dump) = Command::new("objdump").arg("-d").arg(&exe).output() else {
        eprintln!("skipping: objdump not available");
        return None;
    };
    assert!(dump.status.success(), "objdump failed on {}", exe.display());
    let asm = String::from_utf8_lossy(&dump.stdout);

    // Isolate the probe's body: from its label to the next symbol label.
    let label = format!("<{symbol}>:");
    let start = asm
        .find(&label)
        .unwrap_or_else(|| panic!("{symbol} present in disassembly (it was just called)"));
    let body = &asm[start..];
    let end = body[label.len()..].find(">:").map_or(body.len(), |e| e + label.len());
    Some(body[..end].to_string())
}

#[test]
fn lane_probe_compiles_to_packed_double_simd() {
    // Keep the probe alive in this binary (and sanity-check its output).
    let dx = [1.0f64; LANE_WIDTH];
    let dy = [2.0f64; LANE_WIDTH];
    let dz = [2.0f64; LANE_WIDTH];
    let mut out = [0.0f64; LANE_WIDTH];
    sphsim_lane_probe_q(&dx, &dy, &dz, 0.5, &mut out);
    assert!(out.iter().all(|&q| (q - 1.5).abs() < 1e-12));

    let Some(body) = disassembly_of("sphsim_lane_probe_q") else {
        return;
    };
    // The probe multiplies, adds and square-roots f64 lanes; packed-double
    // forms of those (SSE2 `mulpd`/`addpd`/`sqrtpd` or their AVX `v…`
    // spellings) mean the lane loop vectorised. Scalar-only output
    // (`mulsd`/`sqrtsd`) means the restructure regressed to one lane at a
    // time and the kernels lost their throughput win.
    let packed = ["mulpd", "addpd", "sqrtpd"];
    let found: Vec<&str> = packed.iter().copied().filter(|op| body.contains(op)).collect();
    assert!(
        !found.is_empty(),
        "sphsim_lane_probe_q contains no packed-double instructions ({packed:?}) — \
         the lane loops compiled to scalar code:\n{body}"
    );
}

/// The grouped gravity walk instantiated for AVX2, as the `Gravity` stage's
/// AVX2 tier instantiates it: the generic body must inline into the
/// target-feature function to be compiled at that width.
///
/// # Safety
/// The caller must have verified at runtime that the CPU supports AVX2.
#[cfg(target_arch = "x86_64")]
#[no_mangle]
#[inline(never)]
#[target_feature(enable = "avx2")]
unsafe fn sphsim_gravity_probe(
    tree: &Octree,
    targets: &GravityTargets<GRAVITY_LANES>,
    theta: f64,
    eps: f64,
) -> GravityField<GRAVITY_LANES> {
    tree.gravity_lanes(targets, theta, eps)
}

#[cfg(target_arch = "x86_64")]
#[test]
fn gravity_probe_compiles_to_packed_sqrt_and_divide() {
    if !std::arch::is_x86_feature_detected!("avx2") {
        eprintln!("skipping: this CPU has no AVX2");
        return;
    }
    // Keep the probe alive in this binary (and sanity-check it against the
    // one-lane walk).
    let x: Vec<f64> = (0..64).map(|i| (i % 4) as f64).collect();
    let y: Vec<f64> = (0..64).map(|i| ((i / 4) % 4) as f64).collect();
    let z: Vec<f64> = (0..64).map(|i| (i / 16) as f64).collect();
    let m = vec![1.0; 64];
    let tree = Octree::build(&x, &y, &z, &m, 4);
    let targets = GravityTargets {
        x: std::array::from_fn(|l| x[l]),
        y: std::array::from_fn(|l| y[l]),
        z: std::array::from_fn(|l| z[l]),
        skip: std::array::from_fn(|l| l as u32),
        len: GRAVITY_LANES,
    };
    // SAFETY: AVX2 support was detected above.
    let field = unsafe { sphsim_gravity_probe(&tree, &targets, 0.5, 0.1) };
    for l in 0..GRAVITY_LANES {
        let ((ax, _, _), phi) = tree.gravity_at((x[l], y[l], z[l]), 0.5, 0.1, l);
        assert_eq!(
            (field.ax[l].to_bits(), field.phi[l].to_bits()),
            (ax.to_bits(), phi.to_bits())
        );
    }

    let Some(body) = disassembly_of("sphsim_gravity_probe") else {
        return;
    };
    // A leaf term is one square root and one divide per lane. If the generic
    // walk is not inlined into the AVX2 function it compiles at the baseline
    // width, where these come out as scalar `sqrtsd`/`divsd` and the grouped
    // walk loses its whole gain.
    let missing: Vec<&str> = ["vsqrtpd", "vdivpd"].into_iter().filter(|op| !body.contains(op)).collect();
    assert!(
        missing.is_empty(),
        "sphsim_gravity_probe lacks packed {missing:?} — the gravity lane loops compiled to \
         scalar code:\n{body}"
    );
}
