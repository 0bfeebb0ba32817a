//! Octree for neighbour search and Barnes–Hut gravity.
//!
//! A pointer-free octree over particle positions, in the spirit of SPH-EXA's
//! Cornerstone octree (Keller et al. 2023), reduced to what the mini-framework
//! needs: ball (fixed-radius) neighbour queries for the SPH sums and
//! node monopoles (mass + centre of mass) for the gravity traversal.
//!
//! The node arena, the particle index permutation and the build scratch are
//! all owned by the tree and reused across [`Octree::rebuild`] calls, and the
//! traversals run iteratively over fixed-size stacks — so a time-stepping loop
//! that rebuilds the tree every step performs no heap allocation once the
//! arena has warmed up to its steady-state size.
//!
//! Barnes–Hut gravity reads a packed view the rebuild fills alongside the
//! arena: one record per node with everything the walk needs, and the
//! particles' `(x, y, z, m)` copied into leaf order so a leaf's sources are
//! contiguous. [`Octree::gravity_lanes`] walks it for up to 32 targets at
//! once, one SIMD lane per target, and adds each lane exactly the terms of
//! that target's own walk in the same order.
//!
//! Periodic boxes are searched through
//! [`Octree::for_each_within_periodic`]: the tree itself always covers the
//! wrapped (in-box) positions, and a query whose sphere crosses a box face
//! additionally prunes against the sphere's wrapped images, while the leaf
//! inclusion test is the *minimum-image* distance — the exact same formula
//! the pair kernels use, so inclusion decisions agree to the last bit.

use crate::boundary::{Boundary, MinImage};

/// Axis-aligned bounding box.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Aabb {
    /// Minimum corner.
    pub min: (f64, f64, f64),
    /// Maximum corner.
    pub max: (f64, f64, f64),
}

impl Aabb {
    /// Create a box; panics if any max < min.
    pub fn new(min: (f64, f64, f64), max: (f64, f64, f64)) -> Self {
        assert!(max.0 >= min.0 && max.1 >= min.1 && max.2 >= min.2, "invalid AABB");
        Self { min, max }
    }

    /// Bounding box of a point cloud, slightly padded.
    pub fn of_points(x: &[f64], y: &[f64], z: &[f64]) -> Self {
        let mut min = (f64::INFINITY, f64::INFINITY, f64::INFINITY);
        let mut max = (f64::NEG_INFINITY, f64::NEG_INFINITY, f64::NEG_INFINITY);
        for i in 0..x.len() {
            min.0 = min.0.min(x[i]);
            min.1 = min.1.min(y[i]);
            min.2 = min.2.min(z[i]);
            max.0 = max.0.max(x[i]);
            max.1 = max.1.max(y[i]);
            max.2 = max.2.max(z[i]);
        }
        if x.is_empty() {
            return Self::new((0.0, 0.0, 0.0), (1.0, 1.0, 1.0));
        }
        let pad = 1e-9 + 1e-9 * (max.0 - min.0).abs().max((max.1 - min.1).abs()).max((max.2 - min.2).abs());
        Self::new(
            (min.0 - pad, min.1 - pad, min.2 - pad),
            (max.0 + pad, max.1 + pad, max.2 + pad),
        )
    }

    /// Geometric centre.
    pub fn center(&self) -> (f64, f64, f64) {
        (
            0.5 * (self.min.0 + self.max.0),
            0.5 * (self.min.1 + self.max.1),
            0.5 * (self.min.2 + self.max.2),
        )
    }

    /// Longest edge length.
    pub fn longest_edge(&self) -> f64 {
        (self.max.0 - self.min.0)
            .max(self.max.1 - self.min.1)
            .max(self.max.2 - self.min.2)
    }

    /// True if the point is inside (inclusive).
    pub fn contains(&self, p: (f64, f64, f64)) -> bool {
        p.0 >= self.min.0
            && p.0 <= self.max.0
            && p.1 >= self.min.1
            && p.1 <= self.max.1
            && p.2 >= self.min.2
            && p.2 <= self.max.2
    }

    /// Squared distance from a point to the box (0 if inside).
    pub fn distance_sq(&self, p: (f64, f64, f64)) -> f64 {
        let dx = (self.min.0 - p.0).max(0.0).max(p.0 - self.max.0);
        let dy = (self.min.1 - p.1).max(0.0).max(p.1 - self.max.1);
        let dz = (self.min.2 - p.2).max(0.0).max(p.2 - self.max.2);
        dx * dx + dy * dy + dz * dz
    }

    /// True if a sphere overlaps the box.
    pub fn overlaps_sphere(&self, center: (f64, f64, f64), radius: f64) -> bool {
        self.distance_sq(center) <= radius * radius
    }

    /// The `octant`-th child box (octant bits: x = 1, y = 2, z = 4).
    pub fn octant(&self, octant: usize) -> Aabb {
        let c = self.center();
        let (min, max) = (self.min, self.max);
        let x = if octant & 1 == 0 { (min.0, c.0) } else { (c.0, max.0) };
        let y = if octant & 2 == 0 { (min.1, c.1) } else { (c.1, max.1) };
        let z = if octant & 4 == 0 { (min.2, c.2) } else { (c.2, max.2) };
        Aabb::new((x.0, y.0, z.0), (x.1, y.1, z.1))
    }
}

/// One octree node.
#[derive(Clone, Debug)]
pub struct OctreeNode {
    /// Spatial extent of the node.
    pub bounds: Aabb,
    /// Indices into the tree's `indices` array covered by this node.
    pub start: usize,
    /// One past the last index covered by this node.
    pub end: usize,
    /// Indices of the eight children in the node array, or `None` for leaves.
    pub children: Option<[usize; 8]>,
    /// Total mass of the particles in the node (for gravity).
    pub mass: f64,
    /// Centre of mass of the particles in the node.
    pub com: (f64, f64, f64),
}

impl OctreeNode {
    /// Number of particles in this node.
    pub fn count(&self) -> usize {
        self.end - self.start
    }

    /// True if the node has no children.
    pub fn is_leaf(&self) -> bool {
        self.children.is_none()
    }
}

/// Number of targets the `Gravity` stage walks at once, one SIMD lane each
/// ([`Octree::gravity_lanes`]).
pub const GRAVITY_LANES: usize = 16;

/// One node of the packed gravity view: everything the Barnes–Hut walk reads
/// of a node, in one record.
#[derive(Clone, Copy, Debug)]
struct GravityNode {
    com: (f64, f64, f64),
    mass: f64,
    longest_edge: f64,
    start: u32,
    end: u32,
    /// The first of the node's eight (contiguous) children, or 0 for a leaf —
    /// the root is nobody's child.
    first_child: u32,
}

/// The targets of a grouped gravity walk ([`Octree::gravity_lanes`]), one
/// lane each: the position, and the source id the lane leaves out of its own
/// sum (`u32::MAX` leaves out nothing). Lanes from `len` on are idle.
#[derive(Clone, Copy, Debug)]
pub struct GravityTargets<const L: usize> {
    /// Target x coordinates.
    pub x: [f64; L],
    /// Target y coordinates.
    pub y: [f64; L],
    /// Target z coordinates.
    pub z: [f64; L],
    /// Source id excluded from each lane's sum.
    pub skip: [u32; L],
    /// Number of lanes in use.
    pub len: usize,
}

/// Per-lane result of a grouped gravity walk: acceleration and potential `φ`.
#[derive(Clone, Copy, Debug)]
pub struct GravityField<const L: usize> {
    /// Acceleration, x component.
    pub ax: [f64; L],
    /// Acceleration, y component.
    pub ay: [f64; L],
    /// Acceleration, z component.
    pub az: [f64; L],
    /// Potential `φ`.
    pub phi: [f64; L],
}

impl<const L: usize> GravityField<L> {
    /// Add the term `f · (dx, dy, dz)` (and `-f · d²` to `φ`) on lane `l`
    /// when `on`. A select, not a branch, so the lane loop vectorises — and
    /// an off lane keeps its bits even when its term is not finite.
    #[allow(clippy::too_many_arguments)] // one scalar per lane quantity
    #[inline(always)]
    fn add(&mut self, l: usize, on: bool, f: f64, dx: f64, dy: f64, dz: f64, d2: f64) {
        self.ax[l] = if on { self.ax[l] + f * dx } else { self.ax[l] };
        self.ay[l] = if on { self.ay[l] + f * dy } else { self.ay[l] };
        self.az[l] = if on { self.az[l] + f * dz } else { self.az[l] };
        // m / d, as a multiply on the force factor.
        self.phi[l] = if on { self.phi[l] - f * d2 } else { self.phi[l] };
    }
}

/// Octree over a set of particle positions.
pub struct Octree {
    nodes: Vec<OctreeNode>,
    /// Particle ids in leaf order: node `start..end` ranges index into it.
    indices: Vec<u32>,
    max_leaf_size: usize,
    /// Reusable scratch for the in-place octant partition of one node segment.
    partition_scratch: Vec<u32>,
    /// Reusable work stack of `(node index, depth)` pairs of the iterative build.
    build_stack: Vec<(usize, usize)>,
    /// Packed gravity view of `nodes`, index for index.
    gravity_nodes: Vec<GravityNode>,
    /// `(x, y, z, m)` of the particle at each position of `indices`.
    leaf_sources: Vec<[f64; 4]>,
}

impl Octree {
    /// An empty tree (unit root box, no particles) — an arena waiting for its
    /// first [`Octree::rebuild`].
    pub fn empty() -> Self {
        Self::build(&[], &[], &[], &[], 1)
    }

    /// Build an octree over the given positions with at most `max_leaf_size`
    /// particles per leaf.
    pub fn build(x: &[f64], y: &[f64], z: &[f64], m: &[f64], max_leaf_size: usize) -> Self {
        let mut tree = Self {
            nodes: Vec::new(),
            indices: Vec::new(),
            max_leaf_size,
            partition_scratch: Vec::new(),
            build_stack: Vec::new(),
            gravity_nodes: Vec::new(),
            leaf_sources: Vec::new(),
        };
        tree.rebuild(x, y, z, m, max_leaf_size);
        tree
    }

    /// Rebuild the tree over new positions, reusing the node arena, the index
    /// permutation, the gravity view and the build scratch (no allocation
    /// once their capacity has reached the steady-state size).
    pub fn rebuild(&mut self, x: &[f64], y: &[f64], z: &[f64], m: &[f64], max_leaf_size: usize) {
        assert!(max_leaf_size >= 1);
        assert_eq!(x.len(), y.len());
        assert_eq!(x.len(), z.len());
        assert_eq!(x.len(), m.len());
        // Particle ids are u32, and `u32::MAX` is the gravity walk's "no one".
        assert!(x.len() < u32::MAX as usize, "octree exceeds u32 particle ids");
        self.max_leaf_size = max_leaf_size;
        let bounds = Aabb::of_points(x, y, z);
        self.nodes.clear();
        self.indices.clear();
        self.indices.extend(0..x.len() as u32);
        self.nodes.push(OctreeNode {
            bounds,
            start: 0,
            end: x.len(),
            children: None,
            mass: 0.0,
            com: (0.0, 0.0, 0.0),
        });
        self.build_stack.clear();
        self.build_stack.push((0, 0));
        while let Some((node_idx, depth)) = self.build_stack.pop() {
            self.split(node_idx, x, y, z, depth);
        }
        // The traversal stacks index nodes as u32.
        assert!(
            self.nodes.len() <= u32::MAX as usize,
            "octree arena exceeds u32 node indices"
        );
        self.compute_moments(x, y, z, m);
        self.gravity_nodes.clear();
        self.gravity_nodes.extend(self.nodes.iter().map(|node| GravityNode {
            com: node.com,
            mass: node.mass,
            longest_edge: node.bounds.longest_edge(),
            start: node.start as u32,
            end: node.end as u32,
            first_child: node.children.map_or(0, |c| c[0] as u32),
        }));
        self.leaf_sources.clear();
        self.leaf_sources.extend(self.indices.iter().map(|&p| {
            let p = p as usize;
            [x[p], y[p], z[p], m[p]]
        }));
    }

    /// All nodes (root is node 0).
    pub fn nodes(&self) -> &[OctreeNode] {
        &self.nodes
    }

    /// Particle ids in leaf order: each node covers the ids at positions
    /// `start..end`, and a leaf's particles are walked in this order.
    pub fn leaf_order(&self) -> &[u32] {
        &self.indices
    }

    /// Number of particles indexed by the tree.
    pub fn particle_count(&self) -> usize {
        self.indices.len()
    }

    /// Root bounding box.
    pub fn bounds(&self) -> Aabb {
        self.nodes[0].bounds
    }

    /// Number of leaf nodes.
    pub fn leaf_count(&self) -> usize {
        self.nodes.iter().filter(|n| n.is_leaf()).count()
    }

    /// Maximum depth of the tree (root = depth 0).
    pub fn depth(&self) -> usize {
        fn depth_of(tree: &Octree, node: usize) -> usize {
            match tree.nodes[node].children {
                None => 0,
                Some(children) => 1 + children.iter().map(|&c| depth_of(tree, c)).max().unwrap_or(0),
            }
        }
        depth_of(self, 0)
    }

    const MAX_DEPTH: usize = 21;

    /// Upper bound on the DFS stack of a traversal: popping an internal node
    /// pushes its 8 children, so at most 8 entries live per tree level and the
    /// tree is at most `MAX_DEPTH` levels deep.
    const TRAVERSAL_STACK: usize = 8 * (Self::MAX_DEPTH + 2);

    fn split(&mut self, node_idx: usize, x: &[f64], y: &[f64], z: &[f64], depth: usize) {
        let (start, end, bounds) = {
            let node = &self.nodes[node_idx];
            (node.start, node.end, node.bounds)
        };
        let count = end - start;
        if count <= self.max_leaf_size || depth >= Self::MAX_DEPTH {
            return;
        }
        let center = bounds.center();
        let octant_of = |p: u32| {
            let p = p as usize;
            let mut oct = 0usize;
            if x[p] > center.0 {
                oct |= 1;
            }
            if y[p] > center.1 {
                oct |= 2;
            }
            if z[p] > center.2 {
                oct |= 4;
            }
            oct
        };
        // Counting sort of the segment into the eight octants, through the
        // reusable scratch buffer — no per-node allocation.
        let mut counts = [0usize; 8];
        for &p in &self.indices[start..end] {
            counts[octant_of(p)] += 1;
        }
        // Degenerate case: all points identical -> stop splitting.
        if counts.iter().filter(|&&c| c > 0).count() <= 1 && depth > 0 {
            return;
        }
        let mut child_start = [0usize; 8];
        let mut cursor = start;
        for (oct, &c) in counts.iter().enumerate() {
            child_start[oct] = cursor;
            cursor += c;
        }
        self.partition_scratch.clear();
        self.partition_scratch.extend_from_slice(&self.indices[start..end]);
        let mut write = child_start;
        for k in 0..count {
            let p = self.partition_scratch[k];
            let oct = octant_of(p);
            self.indices[write[oct]] = p;
            write[oct] += 1;
        }
        // The eight children are pushed contiguously: the gravity view keeps
        // only the first.
        let mut children = [0usize; 8];
        for (oct, &cs) in child_start.iter().enumerate() {
            self.nodes.push(OctreeNode {
                bounds: bounds.octant(oct),
                start: cs,
                end: cs + counts[oct],
                children: None,
                mass: 0.0,
                com: (0.0, 0.0, 0.0),
            });
            children[oct] = self.nodes.len() - 1;
        }
        self.nodes[node_idx].children = Some(children);
        for &child in &children {
            self.build_stack.push((child, depth + 1));
        }
    }

    fn compute_moments(&mut self, x: &[f64], y: &[f64], z: &[f64], m: &[f64]) {
        // Process nodes in reverse creation order: children always come after
        // their parent, so reverse order sees children first.
        for i in (0..self.nodes.len()).rev() {
            let (mass, com) = match self.nodes[i].children {
                None => {
                    let mut mass = 0.0;
                    let mut cx = 0.0;
                    let mut cy = 0.0;
                    let mut cz = 0.0;
                    for &p in &self.indices[self.nodes[i].start..self.nodes[i].end] {
                        let p = p as usize;
                        mass += m[p];
                        cx += m[p] * x[p];
                        cy += m[p] * y[p];
                        cz += m[p] * z[p];
                    }
                    if mass > 0.0 {
                        (mass, (cx / mass, cy / mass, cz / mass))
                    } else {
                        (0.0, self.nodes[i].bounds.center())
                    }
                }
                Some(children) => {
                    let mut mass = 0.0;
                    let mut cx = 0.0;
                    let mut cy = 0.0;
                    let mut cz = 0.0;
                    for &c in &children {
                        let child = &self.nodes[c];
                        mass += child.mass;
                        cx += child.mass * child.com.0;
                        cy += child.mass * child.com.1;
                        cz += child.mass * child.com.2;
                    }
                    if mass > 0.0 {
                        (mass, (cx / mass, cy / mass, cz / mass))
                    } else {
                        (0.0, self.nodes[i].bounds.center())
                    }
                }
            };
            self.nodes[i].mass = mass;
            self.nodes[i].com = com;
        }
    }

    /// Visit the index of every particle within `radius` of `center`
    /// (including the particle at the centre itself, if any), in tree order.
    ///
    /// Iterative, allocation-free traversal over a fixed-size stack: this is
    /// the primitive the CSR neighbour-list build writes through.
    pub fn for_each_within(
        &self,
        center: (f64, f64, f64),
        radius: f64,
        x: &[f64],
        y: &[f64],
        z: &[f64],
        mut visit: impl FnMut(u32),
    ) {
        let r2 = radius * radius;
        let mut stack = [0u32; Self::TRAVERSAL_STACK];
        let mut top = 1usize;
        while top > 0 {
            top -= 1;
            let node = &self.nodes[stack[top] as usize];
            if node.count() == 0 || !node.bounds.overlaps_sphere(center, radius) {
                continue;
            }
            match node.children {
                Some(children) => {
                    debug_assert!(top + 8 <= Self::TRAVERSAL_STACK);
                    for &c in &children {
                        stack[top] = c as u32;
                        top += 1;
                    }
                }
                None => {
                    for &p in &self.indices[node.start..node.end] {
                        let i = p as usize;
                        let dx = x[i] - center.0;
                        let dy = y[i] - center.1;
                        let dz = z[i] - center.2;
                        if dx * dx + dy * dy + dz * dz <= r2 {
                            visit(p);
                        }
                    }
                }
            }
        }
    }

    /// [`Octree::for_each_within`] under a [`Boundary`]: for an open box this
    /// delegates to the plain traversal (bit-identical path); for a periodic
    /// box the query additionally covers the wrapped images of a search
    /// sphere that crosses a box face, and the leaf test is the
    /// **minimum-image** squared distance — the same expression every pair
    /// kernel and the CSR symmetrisation pass evaluate, so a pair is included
    /// here exactly when the kernels consider it in range.
    ///
    /// A single traversal visits every particle at most once; node pruning
    /// tests the (up to 8) image spheres with a conservatively inflated
    /// radius so ulp-level disagreement between shifted-centre and
    /// minimum-image arithmetic can never drop a borderline node.
    ///
    /// # Panics
    ///
    /// Panics if `2 · radius` reaches a periodic box edge: the minimum-image
    /// convention is ambiguous there (a particle could interact with two
    /// images of the same partner).
    #[allow(clippy::too_many_arguments)] // mirrors the flat SoA particle layout
    pub fn for_each_within_periodic(
        &self,
        center: (f64, f64, f64),
        radius: f64,
        x: &[f64],
        y: &[f64],
        z: &[f64],
        boundary: &Boundary,
        mut visit: impl FnMut(u32),
    ) {
        let Boundary::Periodic { box_min, box_max } = *boundary else {
            return self.for_each_within(center, radius, x, y, z, visit);
        };
        let (lx, ly, lz) = (box_max.0 - box_min.0, box_max.1 - box_min.1, box_max.2 - box_min.2);
        assert!(
            2.0 * radius < lx.min(ly).min(lz),
            "interaction diameter {} reaches the periodic box edge {} — the minimum-image \
             convention is ambiguous; shrink the smoothing length or grow the box",
            2.0 * radius,
            lx.min(ly).min(lz)
        );
        // Per-dimension image shifts of the query centre: a sphere crossing
        // the lower face must also be searched shifted up by +L (images near
        // the upper face), and vice versa. With 2r < L at most one extra
        // shift per dimension applies.
        let axis_shifts = |c: f64, r: f64, lo: f64, hi: f64, l: f64| -> (f64, usize) {
            if c - r <= lo {
                (l, 2)
            } else if c + r >= hi {
                (-l, 2)
            } else {
                (0.0, 1)
            }
        };
        let (sx, nx) = axis_shifts(center.0, radius, box_min.0, box_max.0, lx);
        let (sy, ny) = axis_shifts(center.1, radius, box_min.1, box_max.1, ly);
        let (sz, nz) = axis_shifts(center.2, radius, box_min.2, box_max.2, lz);
        let mut centers = [(0.0f64, 0.0f64, 0.0f64); 8];
        let mut m = 0usize;
        for ix in 0..nx {
            for iy in 0..ny {
                for iz in 0..nz {
                    centers[m] = (
                        center.0 + if ix == 1 { sx } else { 0.0 },
                        center.1 + if iy == 1 { sy } else { 0.0 },
                        center.2 + if iz == 1 { sz } else { 0.0 },
                    );
                    m += 1;
                }
            }
        }
        // Conservative prune radius: shifted-centre arithmetic can differ
        // from the minimum-image expression by a few ulps.
        let prune_r = radius * (1.0 + 1e-12);
        let mi = MinImage::of(boundary);
        let r2 = radius * radius;
        let mut stack = [0u32; Self::TRAVERSAL_STACK];
        let mut top = 1usize;
        while top > 0 {
            top -= 1;
            let node = &self.nodes[stack[top] as usize];
            if node.count() == 0 || !centers[..m].iter().any(|&c| node.bounds.overlaps_sphere(c, prune_r)) {
                continue;
            }
            match node.children {
                Some(children) => {
                    debug_assert!(top + 8 <= Self::TRAVERSAL_STACK);
                    for &c in &children {
                        stack[top] = c as u32;
                        top += 1;
                    }
                }
                None => {
                    for &p in &self.indices[node.start..node.end] {
                        let i = p as usize;
                        if mi.dist_sq(x[i] - center.0, y[i] - center.1, z[i] - center.2) <= r2 {
                            visit(p);
                        }
                    }
                }
            }
        }
    }

    /// Collect the indices of all particles within `radius` of `center`
    /// (including the particle at the centre itself, if any).
    pub fn neighbors_within(
        &self,
        center: (f64, f64, f64),
        radius: f64,
        x: &[f64],
        y: &[f64],
        z: &[f64],
        out: &mut Vec<usize>,
    ) {
        out.clear();
        self.for_each_within(center, radius, x, y, z, |p| out.push(p as usize));
    }

    /// Barnes–Hut gravitational acceleration and potential `φ` at `pos` with
    /// opening angle `theta` and softening `eps`, excluding the particle
    /// `self_idx` (pass `usize::MAX` to include everything) — the one-lane
    /// [`Octree::gravity_lanes`].
    pub fn gravity_at(&self, pos: (f64, f64, f64), theta: f64, eps: f64, self_idx: usize) -> ((f64, f64, f64), f64) {
        let target = GravityTargets {
            x: [pos.0],
            y: [pos.1],
            z: [pos.2],
            skip: [u32::try_from(self_idx).unwrap_or(u32::MAX)],
            len: 1,
        };
        let g = self.gravity_lanes(&target, theta, eps);
        ((g.ax[0], g.ay[0], g.az[0]), g.phi[0])
    }

    /// Barnes–Hut gravity for `L ≤ 32` targets at once, one lane per target,
    /// with opening angle `theta` and softening `eps`.
    ///
    /// One depth-first walk carries a lane mask on every stack entry: at an
    /// internal node the lanes that accept it add its monopole and the lanes
    /// that open it push the children under their own mask; at a leaf every
    /// live lane adds each particle but its `skip` id, in leaf order. Each lane
    /// therefore sums exactly the terms of its own single-target walk in the
    /// same order, so results are bit-identical whatever the lane count.
    /// `φ = -Σ m / sqrt(d² + eps²)` over the same terms the acceleration sums.
    ///
    /// Always inlined: a caller compiled with wider SIMD target features gets
    /// the lane loops at that width.
    #[inline(always)]
    pub fn gravity_lanes<const L: usize>(&self, targets: &GravityTargets<L>, theta: f64, eps: f64) -> GravityField<L> {
        const { assert!(L <= 32, "lane masks are u32") };
        assert!(targets.len <= L, "more live lanes than lanes");
        let t = targets;
        let eps2 = eps * eps;
        let mut out = GravityField {
            ax: [0.0; L],
            ay: [0.0; L],
            az: [0.0; L],
            phi: [0.0; L],
        };
        let mut stack = [(0u32, 0u32); Self::TRAVERSAL_STACK];
        stack[0] = (0, ((1u64 << t.len) - 1) as u32);
        let mut top = usize::from(t.len > 0);
        while top > 0 {
            top -= 1;
            let (index, lanes) = stack[top];
            let node = self.gravity_nodes[index as usize];
            if node.start == node.end || node.mass <= 0.0 {
                continue;
            }
            let live: [bool; L] = std::array::from_fn(|l| lanes >> l & 1 != 0);
            if node.first_child == 0 {
                let (s, e) = (node.start as usize, node.end as usize);
                for (&[sx, sy, sz, sm], &id) in self.leaf_sources[s..e].iter().zip(&self.indices[s..e]) {
                    for (l, &on) in live.iter().enumerate() {
                        let dx = sx - t.x[l];
                        let dy = sy - t.y[l];
                        let dz = sz - t.z[l];
                        let d2 = dx * dx + dy * dy + dz * dz + eps2;
                        let d = d2.sqrt();
                        let f = sm / (d2 * d);
                        out.add(l, on & (t.skip[l] != id), f, dx, dy, dz, d2);
                    }
                }
            } else {
                let mut open = 0u32;
                for (l, &on) in live.iter().enumerate() {
                    let dx = node.com.0 - t.x[l];
                    let dy = node.com.1 - t.y[l];
                    let dz = node.com.2 - t.z[l];
                    let dist2 = dx * dx + dy * dy + dz * dz + eps2;
                    let dist = dist2.sqrt();
                    let accept = (node.longest_edge / dist) < theta;
                    let f = node.mass / (dist2 * dist);
                    out.add(l, on & accept, f, dx, dy, dz, dist2);
                    open |= u32::from(on & !accept) << l;
                }
                if open != 0 {
                    debug_assert!(top + 8 <= Self::TRAVERSAL_STACK);
                    for child in node.first_child..node.first_child + 8 {
                        stack[top] = (child, open);
                        top += 1;
                    }
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn random_cloud(n: usize, seed: u64) -> (Vec<f64>, Vec<f64>, Vec<f64>, Vec<f64>) {
        let mut rng = StdRng::seed_from_u64(seed);
        let x: Vec<f64> = (0..n).map(|_| rng.gen_range(0.0..1.0)).collect();
        let y: Vec<f64> = (0..n).map(|_| rng.gen_range(0.0..1.0)).collect();
        let z: Vec<f64> = (0..n).map(|_| rng.gen_range(0.0..1.0)).collect();
        let m: Vec<f64> = (0..n).map(|_| 1.0).collect();
        (x, y, z, m)
    }

    #[test]
    fn aabb_octants_partition_volume() {
        let b = Aabb::new((0.0, 0.0, 0.0), (2.0, 2.0, 2.0));
        let vol: f64 = (0..8)
            .map(|o| {
                let c = b.octant(o);
                (c.max.0 - c.min.0) * (c.max.1 - c.min.1) * (c.max.2 - c.min.2)
            })
            .sum();
        assert!((vol - 8.0).abs() < 1e-12);
        assert!(b.contains((1.0, 1.0, 1.0)));
        assert!(!b.contains((3.0, 0.0, 0.0)));
    }

    #[test]
    fn sphere_overlap_detection() {
        let b = Aabb::new((0.0, 0.0, 0.0), (1.0, 1.0, 1.0));
        assert!(b.overlaps_sphere((0.5, 0.5, 0.5), 0.1));
        assert!(b.overlaps_sphere((1.5, 0.5, 0.5), 0.6));
        assert!(!b.overlaps_sphere((2.0, 2.0, 2.0), 0.5));
    }

    #[test]
    fn tree_indexes_every_particle_once() {
        let (x, y, z, m) = random_cloud(500, 1);
        let tree = Octree::build(&x, &y, &z, &m, 16);
        assert_eq!(tree.particle_count(), 500);
        // Leaves must partition the index set.
        let mut seen = vec![false; 500];
        for node in tree.nodes().iter().filter(|n| n.is_leaf()) {
            for &p in &tree.indices[node.start..node.end] {
                let p = p as usize;
                assert!(!seen[p], "particle {p} appears in two leaves");
                seen[p] = true;
            }
        }
        assert!(seen.iter().all(|&s| s));
        assert!(tree.depth() >= 1);
        assert!(tree.leaf_count() >= 500 / 16);
    }

    #[test]
    fn leaves_respect_max_size() {
        let (x, y, z, m) = random_cloud(2000, 2);
        let tree = Octree::build(&x, &y, &z, &m, 32);
        for node in tree.nodes().iter().filter(|n| n.is_leaf()) {
            assert!(node.count() <= 32, "leaf with {} particles", node.count());
        }
    }

    #[test]
    fn leaf_particles_lie_inside_leaf_bounds() {
        let (x, y, z, m) = random_cloud(300, 3);
        let tree = Octree::build(&x, &y, &z, &m, 8);
        for node in tree.nodes().iter().filter(|n| n.is_leaf()) {
            for p in tree.indices[node.start..node.end].iter().map(|&p| p as usize) {
                // Allow boundary tolerance: points exactly on a split plane may
                // land in the lower octant.
                let eps = 1e-9;
                assert!(x[p] >= node.bounds.min.0 - eps && x[p] <= node.bounds.max.0 + eps);
                assert!(y[p] >= node.bounds.min.1 - eps && y[p] <= node.bounds.max.1 + eps);
                assert!(z[p] >= node.bounds.min.2 - eps && z[p] <= node.bounds.max.2 + eps);
            }
        }
    }

    #[test]
    fn neighbor_search_matches_brute_force() {
        let (x, y, z, m) = random_cloud(400, 4);
        let tree = Octree::build(&x, &y, &z, &m, 8);
        let mut found = Vec::new();
        for i in (0..400).step_by(37) {
            let center = (x[i], y[i], z[i]);
            let radius = 0.15;
            tree.neighbors_within(center, radius, &x, &y, &z, &mut found);
            let mut expected: Vec<usize> = (0..400)
                .filter(|&j| {
                    let d2 = (x[j] - center.0).powi(2) + (y[j] - center.1).powi(2) + (z[j] - center.2).powi(2);
                    d2 <= radius * radius
                })
                .collect();
            let mut got = found.clone();
            got.sort_unstable();
            expected.sort_unstable();
            assert_eq!(got, expected, "neighbour mismatch for particle {i}");
        }
    }

    #[test]
    fn root_mass_is_total_mass() {
        let (x, y, z, m) = random_cloud(100, 5);
        let tree = Octree::build(&x, &y, &z, &m, 10);
        assert!((tree.nodes()[0].mass - 100.0).abs() < 1e-9);
        let com = tree.nodes()[0].com;
        assert!(com.0 > 0.3 && com.0 < 0.7);
    }

    #[test]
    fn gravity_matches_direct_sum_for_small_theta() {
        let (x, y, z, m) = random_cloud(200, 6);
        let tree = Octree::build(&x, &y, &z, &m, 8);
        let eps = 0.01;
        let pos = (0.5, 0.5, 0.5);
        let (tree_acc, _) = tree.gravity_at(pos, 0.0, eps, usize::MAX);
        let mut direct = (0.0, 0.0, 0.0);
        for j in 0..200 {
            let dx = x[j] - pos.0;
            let dy = y[j] - pos.1;
            let dz = z[j] - pos.2;
            let d2 = dx * dx + dy * dy + dz * dz + eps * eps;
            let d = d2.sqrt();
            let f = m[j] / (d2 * d);
            direct.0 += f * dx;
            direct.1 += f * dy;
            direct.2 += f * dz;
        }
        // theta = 0 forces full opening, so the tree walk must equal direct sum.
        assert!((tree_acc.0 - direct.0).abs() < 1e-9);
        assert!((tree_acc.1 - direct.1).abs() < 1e-9);
        assert!((tree_acc.2 - direct.2).abs() < 1e-9);
    }

    #[test]
    fn gravity_with_moderate_theta_is_close_to_direct() {
        let (x, y, z, m) = random_cloud(500, 7);
        let tree = Octree::build(&x, &y, &z, &m, 16);
        let eps = 0.02;
        let pos = (0.1, 0.9, 0.2);
        let (approx, _) = tree.gravity_at(pos, 0.5, eps, usize::MAX);
        let (exact, _) = tree.gravity_at(pos, 0.0, eps, usize::MAX);
        let mag = (exact.0 * exact.0 + exact.1 * exact.1 + exact.2 * exact.2).sqrt();
        let err = ((approx.0 - exact.0).powi(2) + (approx.1 - exact.1).powi(2) + (approx.2 - exact.2).powi(2)).sqrt();
        assert!(err / mag < 0.05, "relative BH error {}", err / mag);
    }

    #[test]
    fn empty_and_singleton_trees() {
        let tree = Octree::build(&[], &[], &[], &[], 8);
        assert_eq!(tree.particle_count(), 0);
        let mut out = Vec::new();
        tree.neighbors_within((0.0, 0.0, 0.0), 1.0, &[], &[], &[], &mut out);
        assert!(out.is_empty());

        let tree = Octree::build(&[0.5], &[0.5], &[0.5], &[2.0], 8);
        assert_eq!(tree.particle_count(), 1);
        assert!((tree.nodes()[0].mass - 2.0).abs() < 1e-12);
    }

    #[test]
    fn rebuild_reuses_the_arena_and_matches_a_fresh_build() {
        let (x, y, z, m) = random_cloud(800, 9);
        let fresh = Octree::build(&x, &y, &z, &m, 16);
        // Warm the arena on a different (smaller) problem, then rebuild.
        let mut reused = Octree::build(&x[..200], &y[..200], &z[..200], &m[..200], 8);
        reused.rebuild(&x, &y, &z, &m, 16);
        assert_eq!(reused.particle_count(), 800);
        assert_eq!(reused.nodes().len(), fresh.nodes().len());
        assert!((reused.nodes()[0].mass - fresh.nodes()[0].mass).abs() < 1e-12);
        let mut a = Vec::new();
        let mut b = Vec::new();
        fresh.neighbors_within((0.5, 0.5, 0.5), 0.2, &x, &y, &z, &mut a);
        reused.neighbors_within((0.5, 0.5, 0.5), 0.2, &x, &y, &z, &mut b);
        a.sort_unstable();
        b.sort_unstable();
        assert_eq!(a, b);
    }

    #[test]
    fn empty_arena_answers_queries_without_a_rebuild() {
        let tree = Octree::empty();
        assert_eq!(tree.particle_count(), 0);
        let mut out = vec![7];
        tree.neighbors_within((0.5, 0.5, 0.5), 10.0, &[], &[], &[], &mut out);
        assert!(out.is_empty());
    }

    #[test]
    fn periodic_search_finds_wrapped_neighbours() {
        use crate::boundary::{Boundary, MinImage};
        let (x, y, z, m) = random_cloud(600, 21);
        let tree = Octree::build(&x, &y, &z, &m, 8);
        let boundary = Boundary::unit_box();
        let mi = MinImage::of(&boundary);
        let radius = 0.2;
        let mut wrapped_pairs = 0usize;
        for i in (0..600).step_by(29) {
            let center = (x[i], y[i], z[i]);
            let mut found = Vec::new();
            tree.for_each_within_periodic(center, radius, &x, &y, &z, &boundary, |j| found.push(j as usize));
            found.sort_unstable();
            // No duplicates: each particle is visited at most once even when
            // the query sphere crosses several faces.
            let mut dedup = found.clone();
            dedup.dedup();
            assert_eq!(found, dedup, "duplicate visits for particle {i}");
            let mut expected: Vec<usize> = (0..600)
                .filter(|&j| mi.dist_sq(x[j] - center.0, y[j] - center.1, z[j] - center.2) <= radius * radius)
                .collect();
            expected.sort_unstable();
            assert_eq!(found, expected, "periodic neighbour mismatch for particle {i}");
            // Count pairs only reachable through the wrap.
            wrapped_pairs += expected
                .iter()
                .filter(|&&j| {
                    let d2 = (x[j] - center.0).powi(2) + (y[j] - center.1).powi(2) + (z[j] - center.2).powi(2);
                    d2 > radius * radius
                })
                .count();
        }
        assert!(wrapped_pairs > 0, "test should exercise wrapped images");
    }

    #[test]
    fn periodic_search_with_open_boundary_matches_plain_traversal() {
        use crate::boundary::Boundary;
        let (x, y, z, m) = random_cloud(300, 22);
        let tree = Octree::build(&x, &y, &z, &m, 8);
        for i in (0..300).step_by(41) {
            let center = (x[i], y[i], z[i]);
            let mut plain = Vec::new();
            tree.for_each_within(center, 0.15, &x, &y, &z, |j| plain.push(j));
            let mut open = Vec::new();
            tree.for_each_within_periodic(center, 0.15, &x, &y, &z, &Boundary::Open, |j| open.push(j));
            assert_eq!(plain, open);
        }
    }

    #[test]
    #[should_panic(expected = "minimum-image")]
    fn oversized_periodic_radius_panics() {
        use crate::boundary::Boundary;
        let (x, y, z, m) = random_cloud(50, 23);
        let tree = Octree::build(&x, &y, &z, &m, 8);
        tree.for_each_within_periodic((0.5, 0.5, 0.5), 0.6, &x, &y, &z, &Boundary::unit_box(), |_| {});
    }

    #[test]
    fn identical_points_do_not_recurse_forever() {
        let n = 50;
        let x = vec![0.5; n];
        let y = vec![0.5; n];
        let z = vec![0.5; n];
        let m = vec![1.0; n];
        let tree = Octree::build(&x, &y, &z, &m, 4);
        assert_eq!(tree.particle_count(), n);
        assert!(tree.depth() <= 21);
    }
}
