//! Reusable per-step buffers of the CPU propagator's hot path.
//!
//! [`crate::propagator::Simulation::step`] used to rebuild its octree and
//! neighbour lists from scratch every timestep — a fresh node arena plus one
//! `Vec` per particle per step. The [`StepWorkspace`] owns all of those
//! buffers across steps (octree arena, CSR neighbour lists and their build
//! scratch, Morton keys, sort permutation and reorder lanes), so that after a
//! warm-up step the whole neighbour pipeline performs zero heap allocations
//! (asserted by the `alloc_free_neighbors` integration test).

use crate::boundary::Boundary;
use crate::celllist::{find_neighbors_cells_into, find_neighbors_cells_rows_into, CellGrid, CELL_LIST_CUTOFF};
use crate::morton;
use crate::octree::Octree;
use crate::particle::{ParticleSet, ReorderScratch};
use crate::physics::neighbors::{find_neighbors_into, find_neighbors_rows_into, NeighborLists, NeighborScratch};

/// Which CSR neighbour-list builder [`StepWorkspace::find_neighbors`] runs.
/// Both builders produce the same row sets (pinned by the
/// `celllist_equivalence` suite); they differ in row order and in cost
/// profile, so the policy is a workspace knob rather than a physics one.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum NeighborBuilder {
    /// Cell list from [`CELL_LIST_CUTOFF`] particles up (when the grid
    /// accepts the set), octree below it — the production default.
    #[default]
    Auto,
    /// Always the octree builder (the bit-pinned reference path).
    Octree,
    /// The cell-list builder whenever the grid accepts the set (still falls
    /// back to the octree on empty or too-polydisperse sets).
    CellList,
}

/// What the last [`StepWorkspace::find_neighbors`] call did — the builder
/// telemetry the propagator publishes each step.
#[derive(Clone, Copy, Debug, Default)]
pub struct NeighborBuildStats {
    /// True when the cell-list builder ran (false: octree).
    pub used_cells: bool,
    /// Non-empty grid cells (0 on the octree path).
    pub occupied_cells: usize,
    /// Total grid cells (0 on the octree path).
    pub total_cells: usize,
    /// Mean particles per occupied cell (0 on the octree path).
    pub mean_occupancy: f64,
    /// Total CSR neighbour entries emitted.
    pub rows: usize,
}

/// The reusable buffers threaded through every stage of one timestep.
pub struct StepWorkspace {
    tree: Octree,
    /// False when the last [`StepWorkspace::domain_sync`] skipped the tree
    /// (or none was ever built): `tree` then describes older positions.
    tree_current: bool,
    neighbors: NeighborLists,
    neighbor_scratch: NeighborScratch,
    grid: CellGrid,
    builder: NeighborBuilder,
    build_stats: NeighborBuildStats,
    keys: Vec<u64>,
    perm: Vec<u32>,
    reorder_scratch: ReorderScratch,
    origin_scratch: Vec<u32>,
    interior_rows: Vec<u32>,
    halo_rows: Vec<u32>,
}

impl StepWorkspace {
    /// A fresh workspace; every buffer grows to its steady-state size during
    /// the first step it is used on.
    pub fn new() -> Self {
        Self {
            tree: Octree::empty(),
            tree_current: false,
            neighbors: NeighborLists::default(),
            neighbor_scratch: NeighborScratch::new(),
            grid: CellGrid::new(),
            builder: NeighborBuilder::default(),
            build_stats: NeighborBuildStats::default(),
            keys: Vec::new(),
            perm: Vec::new(),
            reorder_scratch: ReorderScratch::default(),
            origin_scratch: Vec::new(),
            interior_rows: Vec::new(),
            halo_rows: Vec::new(),
        }
    }

    /// Select the CSR builder policy (default: [`NeighborBuilder::Auto`]).
    pub fn set_neighbor_builder(&mut self, builder: NeighborBuilder) {
        self.builder = builder;
    }

    /// What the last [`StepWorkspace::find_neighbors`] call did.
    pub fn neighbor_build_stats(&self) -> NeighborBuildStats {
        self.build_stats
    }

    /// The octree of the current step. Valid after
    /// [`StepWorkspace::rebuild_tree`], or after a
    /// [`StepWorkspace::domain_sync`] or [`StepWorkspace::refresh_tree`]
    /// that returned `true` — one told that gravity walks the tree, or one
    /// whose substep takes the octree neighbour builder. After one that
    /// returned `false` it still describes the positions of the last build,
    /// and nothing of this substep may walk it.
    pub fn tree(&self) -> &Octree {
        &self.tree
    }

    /// The CSR neighbour lists of the current step (valid after
    /// [`StepWorkspace::find_neighbors`]).
    pub fn neighbors(&self) -> &NeighborLists {
        &self.neighbors
    }

    /// Rebuild the octree over the current particle positions into the reused
    /// node arena.
    pub fn rebuild_tree(&mut self, particles: &ParticleSet, max_leaf_size: usize) {
        self.tree
            .rebuild(&particles.x, &particles.y, &particles.z, &particles.m, max_leaf_size);
        self.tree_current = true;
    }

    /// Rebuild the octree when a stage of the substep over `particles` walks
    /// it: `gravity` (the caller's Barnes–Hut walk uses this tree), or the
    /// neighbour build takes the octree path — the builder is forced to
    /// [`NeighborBuilder::Octree`], `Auto` is below [`CELL_LIST_CUTOFF`], or
    /// the grid declines the set ([`CellGrid::accepts`], the test
    /// [`CellGrid::rebuild`] applies). Otherwise leave the arena as it is and
    /// mark the tree stale. Returns whether the tree was rebuilt.
    pub fn refresh_tree(&mut self, particles: &ParticleSet, gravity: bool, max_leaf_size: usize) -> bool {
        let walked = gravity || !self.sweeps_cells(particles);
        if walked {
            self.rebuild_tree(particles, max_leaf_size);
        } else {
            self.tree_current = false;
        }
        walked
    }

    /// Whether the neighbour build over `particles` sweeps the cell grid.
    fn sweeps_cells(&self, particles: &ParticleSet) -> bool {
        match self.builder {
            NeighborBuilder::Octree => false,
            NeighborBuilder::CellList => CellGrid::accepts(particles),
            NeighborBuilder::Auto => particles.len() >= CELL_LIST_CUTOFF && CellGrid::accepts(particles),
        }
    }

    /// Bin the grid when the neighbour build sweeps it; on the octree path,
    /// insist the tree was built on the current positions.
    fn prepare_builder(&mut self, particles: &ParticleSet) -> bool {
        let use_cells = self.sweeps_cells(particles) && self.grid.rebuild(particles);
        assert!(
            use_cells || self.tree_current,
            "the octree neighbour builder needs a tree built on the current positions \
             (domain_sync skipped it, or it was never built)"
        );
        use_cells
    }

    /// Record what the neighbour build just did.
    fn record_build(&mut self, use_cells: bool) {
        self.build_stats = NeighborBuildStats {
            used_cells: use_cells,
            occupied_cells: if use_cells { self.grid.occupied_cells() } else { 0 },
            total_cells: if use_cells { self.grid.total_cells() } else { 0 },
            mean_occupancy: if use_cells { self.grid.mean_occupancy() } else { 0.0 },
            rows: self.neighbors.total_entries(),
        };
    }

    /// Build the CSR neighbour lists, recording the per-particle neighbour
    /// counts in the same pass. Honours the particle set's [`Boundary`]
    /// (periodic boxes search wrapped images / minimum-image distances).
    ///
    /// The builder follows the configured [`NeighborBuilder`] policy: `Auto`
    /// sweeps the cell grid from [`CELL_LIST_CUTOFF`] particles up and walks
    /// the octree below it; either forced path still falls back to the
    /// octree when [`CellGrid::rebuild`] declines the set (empty, or
    /// smoothing lengths too polydisperse for a uniform grid).
    ///
    /// # Panics
    ///
    /// Panics on the octree path when the tree is stale: the last
    /// [`StepWorkspace::domain_sync`] skipped it, or none was ever built.
    pub fn find_neighbors(&mut self, particles: &mut ParticleSet) {
        let use_cells = self.prepare_builder(particles);
        if use_cells {
            find_neighbors_cells_into(particles, &self.grid, &mut self.neighbors, &mut self.neighbor_scratch);
        } else {
            find_neighbors_into(particles, &self.tree, &mut self.neighbors, &mut self.neighbor_scratch);
        }
        self.record_build(use_cells);
    }

    /// [`StepWorkspace::find_neighbors`] restricted to a sorted subset of
    /// rows — the active-set build of an individual-timestep substep. The
    /// resulting lists still cover the full particle set (off-subset rows are
    /// zero-length), so every row-subset kernel keeps indexing by absolute
    /// particle id. Follows the same builder policy as the full build. The
    /// octree path queries the tree, so it needs one built on the current
    /// positions — by [`StepWorkspace::rebuild_tree`], or by a
    /// [`StepWorkspace::domain_sync`], which builds it exactly when this
    /// path will be taken (and panics like the full build when it is stale);
    /// the cell path bins its own grid and reads no tree.
    pub fn find_neighbors_rows(&mut self, particles: &mut ParticleSet, rows: &[u32]) {
        let use_cells = self.prepare_builder(particles);
        if use_cells {
            find_neighbors_cells_rows_into(
                particles,
                &self.grid,
                rows,
                &mut self.neighbors,
                &mut self.neighbor_scratch,
            );
        } else {
            find_neighbors_rows_into(
                particles,
                &self.tree,
                rows,
                &mut self.neighbors,
                &mut self.neighbor_scratch,
            );
        }
        self.record_build(use_cells);
    }

    /// Split `rows` of the current CSR lists (valid after
    /// [`StepWorkspace::find_neighbors`] or
    /// [`StepWorkspace::find_neighbors_rows`]) into **interior** rows — owned
    /// rows (`< n_owned`) referencing no slot at or past `n_owned` — and
    /// **halo** rows (everything else: owned rows that read a ghost, plus any
    /// ghost rows given). Both keep the order of `rows`. The distributed
    /// propagator runs the momentum kernel over the interior rows while the
    /// mid-step ghost refresh is in flight and finishes the halo rows after it
    /// completes. Both buffers are reused across steps, so a warm call
    /// performs no heap allocation (part of the `alloc_free_neighbors` gate).
    pub fn partition_rows(&mut self, rows: &[u32], n_owned: usize) {
        self.interior_rows.clear();
        self.halo_rows.clear();
        self.interior_rows.reserve(rows.len());
        self.halo_rows.reserve(rows.len());
        for &i in rows {
            let interior =
                (i as usize) < n_owned && self.neighbors.neighbors(i as usize).iter().all(|&j| (j as usize) < n_owned);
            if interior {
                self.interior_rows.push(i);
            } else {
                self.halo_rows.push(i);
            }
        }
    }

    /// Rows whose pair sums read no ghost slot (valid after
    /// [`StepWorkspace::partition_rows`]).
    pub fn interior_rows(&self) -> &[u32] {
        &self.interior_rows
    }

    /// Rows whose pair sums read at least one ghost slot, plus any ghost rows
    /// (valid after [`StepWorkspace::partition_rows`]).
    pub fn halo_rows(&self) -> &[u32] {
        &self.halo_rows
    }

    /// The whole `DomainDecompAndSync` body of the single-rank propagator:
    /// wrap positions back into a periodic box, re-sort the storage into
    /// Morton order when the reorder cadence says so, and rebuild the octree
    /// when a stage of the substep walks it ([`StepWorkspace::refresh_tree`]:
    /// `gravity`, or the octree neighbour builder). Returns whether the tree
    /// was rebuilt; when it was not, [`StepWorkspace::tree`] is stale until
    /// the next build, and the octree neighbour path refuses to walk it.
    ///
    /// The `reorder_due` decision is **hoisted above the Morton-key
    /// recompute**: a non-reorder step never touches the key/perm lanes — it
    /// pays only the (cheap, periodic-only) wrap pass and the tree rebuild.
    /// An earlier layout regenerated keys every step to decide, which is what
    /// the `DomainDecompAndSync` row of `BENCH_step_throughput.json` gates.
    pub fn domain_sync(
        &mut self,
        particles: &mut ParticleSet,
        origin: &mut Vec<u32>,
        reorder_due: bool,
        gravity: bool,
        max_leaf_size: usize,
    ) -> bool {
        particles.wrap_positions();
        if reorder_due {
            self.reorder_by_morton(particles, origin);
        }
        self.refresh_tree(particles, gravity, max_leaf_size)
    }

    /// Sort the particle storage into Morton (Z-order) order, so that octree
    /// leaves — and therefore CSR neighbour rows — cover contiguous memory.
    /// `origin` (the map `origin[current] = original` from storage slot to
    /// construction-order index) is permuted alongside, keeping
    /// externally-held indices resolvable across reorders.
    ///
    /// Keys anchor to the periodic box when the set's boundary is periodic
    /// (wrapped coordinates then key stably regardless of how the occupied
    /// volume breathes), and to the instantaneous bounding box otherwise.
    pub fn reorder_by_morton(&mut self, particles: &mut ParticleSet, origin: &mut Vec<u32>) {
        let n = particles.len();
        assert_eq!(origin.len(), n, "origin map out of sync with particle count");
        if n == 0 {
            return;
        }
        let (min, max) = match particles.boundary {
            Boundary::Periodic { box_min, box_max } => (box_min, box_max),
            Boundary::Open => particles.bounding_box(),
        };
        self.keys.clear();
        self.keys.reserve(n);
        for ((&x, &y), &z) in particles.x.iter().zip(&particles.y).zip(&particles.z) {
            self.keys.push(morton::encode_position((x, y, z), min, max));
        }
        self.perm.clear();
        self.perm.extend(0..n as u32);
        let keys = &self.keys;
        self.perm.sort_unstable_by_key(|&i| keys[i as usize]);
        particles.reorder_with(&self.perm, &mut self.reorder_scratch);
        self.origin_scratch.clear();
        self.origin_scratch.reserve(n);
        for &src in &self.perm {
            self.origin_scratch.push(origin[src as usize]);
        }
        std::mem::swap(origin, &mut self.origin_scratch);
    }
}

impl Default for StepWorkspace {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::init::lattice_cube;
    use crate::physics::neighbors::{build_tree, find_neighbors};

    #[test]
    fn workspace_pipeline_matches_the_allocating_path() {
        let mut a = lattice_cube(5, 1.0, 1.0, 1.2);
        let mut b = a.clone();
        let tree = crate::physics::neighbors::build_tree(&a, 16);
        let fresh = find_neighbors(&mut a, &tree);
        let mut ws = StepWorkspace::new();
        ws.rebuild_tree(&b, 16);
        ws.find_neighbors(&mut b);
        assert_eq!(ws.neighbors().offsets, fresh.offsets);
        assert_eq!(ws.neighbors().indices, fresh.indices);
        assert_eq!(a.neighbor_count, b.neighbor_count);
    }

    /// Move every particle by a smooth position-dependent swirl of amplitude
    /// `by`, so a tree built before the move no longer bounds its leaves.
    fn swirl(p: &mut ParticleSet, by: f64) {
        for i in 0..p.len() {
            let (x, y, z) = (p.x[i], p.y[i], p.z[i]);
            p.x[i] += by * (7.0 * y).sin();
            p.y[i] += by * (5.0 * z).cos();
            p.z[i] += by * (6.0 * x).sin();
        }
    }

    /// A lattice above [`CELL_LIST_CUTOFF`] whose smoothing lengths span a
    /// factor of 3, past [`crate::celllist::POLYDISPERSITY_LIMIT`].
    fn polydisperse_lattice() -> ParticleSet {
        let mut p = lattice_cube(11, 1.0, 1.0, 1.2);
        for i in 0..p.len() {
            p.h[i] *= 0.6 + 1.2 * p.x[i];
        }
        assert!(p.len() >= CELL_LIST_CUTOFF && !CellGrid::accepts(&p));
        p
    }

    #[test]
    fn octree_neighbour_paths_never_walk_a_stale_tree() {
        // Two sets the Auto builder serves from the octree: one below the
        // cell-list cutoff, one the grid declines. Neither has gravity, so
        // only the neighbour build can make `domain_sync` keep the tree.
        for mut p in [lattice_cube(5, 1.0, 1.0, 1.2), polydisperse_lattice()] {
            let mut origin: Vec<u32> = (0..p.len() as u32).collect();
            let mut ws = StepWorkspace::new();
            assert!(ws.domain_sync(&mut p, &mut origin, false, false, 16));
            ws.find_neighbors(&mut p);
            let rows: Vec<u32> = (0..p.len() as u32).step_by(3).collect();
            for full in [true, false] {
                let before_move = build_tree(&p, 16);
                swirl(&mut p, 0.06);
                assert!(ws.domain_sync(&mut p, &mut origin, false, false, 16));
                let mut q = p.clone();
                let mut stale = p.clone();
                let fresh = build_tree(&q, 16);
                let (mut want, mut was) = (NeighborLists::default(), NeighborLists::default());
                let mut scratch = NeighborScratch::new();
                if full {
                    ws.find_neighbors(&mut p);
                    find_neighbors_into(&mut q, &fresh, &mut want, &mut scratch);
                    find_neighbors_into(&mut stale, &before_move, &mut was, &mut scratch);
                } else {
                    ws.find_neighbors_rows(&mut p, &rows);
                    find_neighbors_rows_into(&mut q, &fresh, &rows, &mut want, &mut scratch);
                    find_neighbors_rows_into(&mut stale, &before_move, &rows, &mut was, &mut scratch);
                }
                assert!(!ws.neighbor_build_stats().used_cells);
                assert_eq!(ws.neighbors().offsets, want.offsets);
                assert_eq!(ws.neighbors().indices, want.indices);
                assert_eq!(p.neighbor_count, q.neighbor_count);
                // The move matters: the tree of the old positions misses pairs.
                assert_ne!(
                    was.indices, want.indices,
                    "the swirl must change what a stale tree finds"
                );
            }
        }
    }

    #[test]
    fn a_grid_accepted_set_without_gravity_leaves_the_tree_unbuilt() {
        let mut p = lattice_cube(11, 1.0, 1.0, 1.2);
        assert!(p.len() >= CELL_LIST_CUTOFF && CellGrid::accepts(&p));
        let mut origin: Vec<u32> = (0..p.len() as u32).collect();
        let mut ws = StepWorkspace::new();
        assert!(!ws.domain_sync(&mut p, &mut origin, false, false, 16));
        assert_eq!(
            ws.tree().nodes()[0].count(),
            0,
            "no stage walks the tree, so none is built"
        );
        ws.find_neighbors(&mut p);
        assert!(ws.neighbor_build_stats().used_cells);
        // Gravity walks the tree, and so does a builder forced onto it.
        assert!(ws.domain_sync(&mut p, &mut origin, false, true, 16));
        ws.set_neighbor_builder(NeighborBuilder::Octree);
        assert!(ws.domain_sync(&mut p, &mut origin, false, false, 16));
    }

    #[test]
    #[should_panic(expected = "needs a tree built on the current positions")]
    fn the_octree_builder_refuses_a_tree_domain_sync_skipped() {
        let mut p = lattice_cube(11, 1.0, 1.0, 1.2);
        let mut origin: Vec<u32> = (0..p.len() as u32).collect();
        let mut ws = StepWorkspace::new();
        ws.rebuild_tree(&p, 16);
        swirl(&mut p, 0.06);
        assert!(!ws.domain_sync(&mut p, &mut origin, false, false, 16));
        ws.set_neighbor_builder(NeighborBuilder::Octree);
        ws.find_neighbors(&mut p);
    }

    #[test]
    fn morton_reorder_sorts_keys_and_tracks_origins() {
        let mut p = lattice_cube(4, 1.0, 1.0, 1.2);
        // Tag each particle through its internal energy so we can recognise it.
        for (i, u) in p.u.iter_mut().enumerate() {
            *u = i as f64 + 1.0;
        }
        let before = p.clone();
        let mut origin: Vec<u32> = (0..p.len() as u32).collect();
        let mut ws = StepWorkspace::new();
        ws.reorder_by_morton(&mut p, &mut origin);
        // Keys are non-decreasing after the sort.
        let (min, max) = p.bounding_box();
        let keys: Vec<u64> = (0..p.len())
            .map(|i| morton::encode_position((p.x[i], p.y[i], p.z[i]), min, max))
            .collect();
        assert!(keys.windows(2).all(|w| w[0] <= w[1]));
        // The origin map resolves every slot back to its construction index.
        for (current, &orig) in origin.iter().enumerate() {
            assert_eq!(p.u[current], before.u[orig as usize]);
            assert_eq!(p.x[current], before.x[orig as usize]);
        }
        // A second reorder keeps the composition correct.
        ws.reorder_by_morton(&mut p, &mut origin);
        for (current, &orig) in origin.iter().enumerate() {
            assert_eq!(p.u[current], before.u[orig as usize]);
        }
    }

    #[test]
    fn reorder_on_empty_set_is_a_noop() {
        let mut p = ParticleSet::default();
        let mut origin = Vec::new();
        let mut ws = StepWorkspace::new();
        ws.reorder_by_morton(&mut p, &mut origin);
        assert!(p.is_empty() && origin.is_empty());
    }
}
