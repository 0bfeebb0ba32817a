//! Counting-allocator proof of the flat hot path: after warm-up, the whole
//! neighbour pipeline (Morton reorder + octree rebuild + CSR neighbour-list
//! build) performs **zero** heap allocations per step.
//!
//! This file is its own test binary so the counting global allocator cannot
//! interfere with any other test, and it contains exactly one test so no
//! concurrent test thread can perturb the allocation counter. The particle
//! count stays below the parallel cutoff on purpose: thread spawns allocate,
//! and what this test pins down is the *pipeline's* allocation behaviour, not
//! the threading substrate's.

use sphsim::init::lattice_cube;
use sphsim::{NeighborBuilder, StepWorkspace};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

struct CountingAllocator;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: caller upholds GlobalAlloc's contract; we delegate as-is.
        unsafe { System.alloc(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: caller upholds GlobalAlloc's contract; we delegate as-is.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: caller upholds GlobalAlloc's contract; we delegate as-is.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: CountingAllocator = CountingAllocator;

#[test]
fn neighbour_pipeline_allocates_nothing_after_warmup() {
    // 216 particles: serial path, realistic neighbour counts (~60 interior).
    let mut particles = lattice_cube(6, 1.0, 1.0, 1.2);
    let mut origin: Vec<u32> = (0..particles.len() as u32).collect();
    let mut workspace = StepWorkspace::new();
    // Exercise the distributed row partition too: treat the lower half as
    // "owned" so both interior and halo classifications occur every step.
    let n_owned = particles.len() / 2;
    let rows: Vec<u32> = (0..particles.len() as u32).collect();

    // Warm-up: buffers grow to steady-state capacity.
    for _ in 0..3 {
        workspace.reorder_by_morton(&mut particles, &mut origin);
        workspace.rebuild_tree(&particles, 32);
        workspace.find_neighbors(&mut particles);
        workspace.partition_rows(&rows, n_owned);
    }

    // The counting allocator is process-global, so a libtest harness thread
    // (e.g. the timeout monitor) can allocate inside the measurement window
    // under scheduler load. Pipeline allocations are deterministic and would
    // dirty every attempt; harness noise is transient — so retry, and demand
    // one attempt whose 25 *consecutive* steps are all allocation-free (a
    // five-fold longer window than the original test, so even low-period
    // amortised-growth regressions land inside it).
    let clean_attempt = (0..5).any(|_| {
        let before = ALLOCATIONS.load(Ordering::SeqCst);
        for _ in 0..25 {
            workspace.reorder_by_morton(&mut particles, &mut origin);
            workspace.rebuild_tree(&particles, 32);
            workspace.find_neighbors(&mut particles);
            workspace.partition_rows(&rows, n_owned);
        }
        ALLOCATIONS.load(Ordering::SeqCst) == before
    });
    assert!(
        clean_attempt,
        "the warm neighbour pipeline must not touch the heap: every 25-step attempt saw allocations"
    );

    // Sanity: the pipeline actually produced neighbour lists.
    let nl = workspace.neighbors();
    assert_eq!(nl.len(), particles.len());
    assert!(nl.mean_count() > 10.0);

    // Same gate for the cell-list builder. 216 particles sit below
    // `CELL_LIST_CUTOFF`, so Auto would stay on the octree — force the grid
    // path to prove its warm sweep (rebuild + counting sort + SoA pack +
    // stencil gather) is just as allocation-free.
    workspace.set_neighbor_builder(NeighborBuilder::CellList);
    for _ in 0..3 {
        workspace.reorder_by_morton(&mut particles, &mut origin);
        workspace.rebuild_tree(&particles, 32);
        workspace.find_neighbors(&mut particles);
        workspace.partition_rows(&rows, n_owned);
    }
    assert!(
        workspace.neighbor_build_stats().used_cells,
        "the forced cell-list builder should accept this uniform-h lattice"
    );

    let clean_cell_attempt = (0..5).any(|_| {
        let before = ALLOCATIONS.load(Ordering::SeqCst);
        for _ in 0..25 {
            workspace.reorder_by_morton(&mut particles, &mut origin);
            workspace.rebuild_tree(&particles, 32);
            workspace.find_neighbors(&mut particles);
            workspace.partition_rows(&rows, n_owned);
        }
        ALLOCATIONS.load(Ordering::SeqCst) == before
    });
    assert!(
        clean_cell_attempt,
        "the warm cell-list pipeline must not touch the heap: every 25-step attempt saw allocations"
    );
    let nl = workspace.neighbors();
    assert_eq!(nl.len(), particles.len());
    assert!(nl.mean_count() > 10.0);
}
