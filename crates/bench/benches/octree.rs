//! Micro-benchmark: octree construction, neighbour search (the
//! DomainDecompAndSync / FindNeighbors substrate) and the Barnes–Hut gravity
//! walk — one point, and every particle of the cloud in leaf-order groups,
//! the shape the Gravity stage runs.

use criterion::{criterion_group, criterion_main, Criterion};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sphsim::physics::gravity::Sources;
use sphsim::Octree;

fn cloud(n: usize) -> (Vec<f64>, Vec<f64>, Vec<f64>, Vec<f64>) {
    let mut rng = StdRng::seed_from_u64(7);
    let x = (0..n).map(|_| rng.gen_range(0.0..1.0)).collect();
    let y = (0..n).map(|_| rng.gen_range(0.0..1.0)).collect();
    let z = (0..n).map(|_| rng.gen_range(0.0..1.0)).collect();
    let m = vec![1.0; n];
    (x, y, z, m)
}

fn bench(c: &mut Criterion) {
    let mut group = c.benchmark_group("octree");
    group.sample_size(15);
    let (x, y, z, m) = cloud(20_000);

    group.bench_function("build_20k", |b| b.iter(|| Octree::build(&x, &y, &z, &m, 32)));

    let tree = Octree::build(&x, &y, &z, &m, 32);
    group.bench_function("neighbor_query_20k", |b| {
        let mut out = Vec::new();
        b.iter(|| {
            tree.neighbors_within((0.5, 0.5, 0.5), 0.05, &x, &y, &z, &mut out);
            out.len()
        })
    });
    group.bench_function("gravity_walk_20k", |b| {
        b.iter(|| tree.gravity_at((0.5, 0.5, 0.5), 0.5, 0.01, usize::MAX))
    });
    let sources = Sources {
        x: &x,
        y: &y,
        z: &z,
        m: &m,
        offset: 0,
    };
    group.bench_function("gravity_all_20k", |b| {
        b.iter(|| sources.walk(&tree, 0.5, 0.01, x.len(), |k| k).1)
    });
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
