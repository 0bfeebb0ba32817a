//! Portable grouped-gravity equivalence: every case of
//! `gravity_group_equivalence` again, with `SPHSIM_FORCE_PORTABLE_SWEEP` set,
//! so the portable build of the walk is pinned to the scalar oracle even on
//! hosts whose runtime dispatch would always take AVX2.
//!
//! Its own test binary without the libtest harness: the force flag is read
//! once per process, so `main` sets it before the first walk, and the cases
//! run one after another with no other test racing them to that read.

#[path = "gravity_group_equivalence.rs"]
mod cases;

fn main() {
    std::env::set_var("SPHSIM_FORCE_PORTABLE_SWEEP", "1");
    let all: [(&str, fn()); 5] = [
        ("evrard states", cases::evrard_states_full_and_sparse),
        ("duplicate-point clouds", cases::clouds_with_duplicate_points),
        ("shard offsets and group sizes", cases::shard_offset_and_target_counts),
        ("targets without self-exclusion", cases::targets_without_self_exclusion),
        ("stage functions", cases::stage_functions_match_the_oracle),
    ];
    for (name, case) in all {
        case();
        println!("portable gravity walk: {name} ... ok");
    }
}
