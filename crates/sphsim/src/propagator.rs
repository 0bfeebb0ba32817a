//! The CPU reference propagator: a real (small-scale) SPH time-stepping loop
//! with the same named stages and the same profiling hooks as the paper-scale
//! runs.
//!
//! This is what validates the physics (energy conservation, collapse dynamics)
//! and what demonstrates the instrumentation on an actually executing code; the
//! billion-particle campaigns use the workload model in [`crate::gpu_offload`].

use crate::observables::neighbor_count_stats;
use crate::particle::{Lane, ParticleSet};
use crate::physics::avswitches::update_av_switches_binned;
use crate::physics::density::{compute_density_rows, update_smoothing_length_rows};
use crate::physics::eos::apply_eos_rows;
use crate::physics::gradh::compute_gradh_rows;
use crate::physics::gravity::{add_gravity_rows, potential_energy_tree, DEFAULT_THETA};
use crate::physics::iad::compute_div_curl_rows;
use crate::physics::momentum::compute_momentum_energy_rows;
use crate::physics::timestep::{courant_timestep, update_quantities, TimestepBins};
use crate::physics::turbulence::TurbulenceDriver;
use crate::scenario::{self, ScenarioRef};
use crate::stages::SphStage;
use crate::workspace::StepWorkspace;
use pmt::ProfilingHooks;
use std::sync::Arc;
use telemetry::Telemetry;

/// Bucket bounds of the `health.neighbor_count` histogram (CSR row widths).
pub(crate) const NEIGHBOR_HISTOGRAM_BOUNDS: [f64; 9] = [8.0, 16.0, 32.0, 48.0, 64.0, 96.0, 128.0, 192.0, 256.0];

/// Bucket bounds of the `health.dt_bins` occupancy histogram: one bucket per
/// power-of-two timestep rung (rung `k` lands in bucket `k`; rungs past 7
/// share the overflow bucket).
pub(crate) const DT_BINS_HISTOGRAM_BOUNDS: [f64; 8] = [0.5, 1.5, 2.5, 3.5, 4.5, 5.5, 6.5, 7.5];

/// Default number of timesteps between Morton re-sorts of the particle
/// storage (see [`Simulation::with_reorder_interval`]).
pub const DEFAULT_REORDER_INTERVAL: u64 = 8;

/// Maximum octree leaf size used by the propagator (and by the distributed
/// propagator, which must mirror it exactly for the single-vs-multi-rank
/// agreement gate to hold).
pub(crate) const MAX_LEAF_SIZE: usize = 32;

/// Shared physics defaults of both propagators. The distributed shards reuse
/// these verbatim: any drift between the two would surface as a per-particle
/// divergence in the rank-agreement tests, masquerading as a decomposition
/// bug.
pub(crate) const DEFAULT_TARGET_NEIGHBORS: f64 = 60.0;
/// Upper bound on the Courant timestep.
pub(crate) const DEFAULT_MAX_DT: f64 = 0.05;
/// Gravitational softening length.
pub(crate) const DEFAULT_SOFTENING: f64 = 0.02;
/// `last_dt` seed used by the AV-switch relaxation on the first step.
pub(crate) const DEFAULT_INITIAL_DT: f64 = 1e-3;

/// The stirring driver used by both propagators for stirred scenarios.
pub(crate) fn default_turbulence_driver() -> TurbulenceDriver {
    TurbulenceDriver::new(1.0, 0.8, 42)
}

/// The lanes `stage` writes, which its finite guard checks over the rows it
/// wrote. FindNeighbors writes none, but the one all-rows check after it at a
/// cycle start covers the incoming state, so it (like any stage not listed)
/// names every lane. UpdateQuantities' kick writes velocities and `u`; its
/// drift's positions are checked over every row on top.
pub(crate) fn written_lanes(stage: SphStage) -> &'static [Lane] {
    use Lane::*;
    match stage {
        SphStage::XMass => &[Rho, H],
        SphStage::NormalizationGradh => &[Omega],
        SphStage::EquationOfState => &[P, C],
        SphStage::IADVelocityDivCurl => &[DivV, CurlV],
        SphStage::AVSwitches => &[Alpha],
        SphStage::MomentumEnergy => &[Ax, Ay, Az, Du],
        SphStage::Gravity | SphStage::Turbulence => &[Ax, Ay, Az],
        SphStage::UpdateQuantities => &[Vx, Vy, Vz, U],
        _ => &Lane::ALL,
    }
}

/// The first non-finite value `stage` left in `p`: its [`written_lanes`] over
/// `rows`, then the positions of the first `drifted` rows. Both propagators'
/// finite guards run this.
pub(crate) fn first_non_finite_written(
    p: &ParticleSet,
    stage: SphStage,
    rows: &[u32],
    drifted: usize,
) -> Option<(usize, Lane)> {
    p.first_non_finite(rows, written_lanes(stage))
        .or_else(|| p.first_non_finite_prefix(drifted, &Lane::POSITION))
}

/// Summary of one completed timestep.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct StepSummary {
    /// Step index (0-based, value after the step completed).
    pub step: u64,
    /// Timestep size used.
    pub dt: f64,
    /// Simulation time after the step.
    pub time: f64,
    /// Total energy (kinetic + internal [+ potential]) of the synchronised
    /// state the step's `Gravity` stage saw: kinetic and internal energy
    /// from the velocities and `u` before the step's kick, and the potential
    /// energy `½ Σ mᵢ φᵢ` from the stage's own Barnes–Hut walk. At θ = 0.5
    /// that is ~1e-4 relative to the exact pair sum on an Evrard sphere (the
    /// bound is pinned in `physics::gravity`'s tests). With timestep bins this
    /// is the state at the start of the current cycle, carried unchanged
    /// through its mid-cycle substeps.
    pub total_energy: f64,
}

/// Conserved-quantity reference captured after the first completed step; the
/// per-step health gauges report drift relative to these values.
#[derive(Clone, Copy, Debug)]
pub(crate) struct HealthBaseline {
    pub(crate) energy: f64,
    pub(crate) mass: f64,
    pub(crate) momentum: [f64; 3],
    /// Σ m·|v| — the scale momentum drift is normalised by (total momentum is
    /// often ~0 by symmetry, so a relative-to-|P₀| drift would blow up).
    pub(crate) momentum_scale: f64,
}

/// Total momentum and its magnitude scale Σ m·|v| of a particle set.
pub(crate) fn momentum_and_scale(p: &ParticleSet) -> ([f64; 3], f64) {
    let mut mom = [0.0f64; 3];
    let mut scale = 0.0f64;
    for i in 0..p.len() {
        mom[0] += p.m[i] * p.vx[i];
        mom[1] += p.m[i] * p.vy[i];
        mom[2] += p.m[i] * p.vz[i];
        scale += p.m[i] * (p.vx[i] * p.vx[i] + p.vy[i] * p.vy[i] + p.vz[i] * p.vz[i]).sqrt();
    }
    (mom, scale)
}

/// A real SPH simulation running on the CPU.
pub struct Simulation {
    particles: ParticleSet,
    scenario: ScenarioRef,
    driver: Option<TurbulenceDriver>,
    hooks: Option<ProfilingHooks>,
    telemetry: Option<Arc<Telemetry>>,
    health_baseline: Option<HealthBaseline>,
    workspace: StepWorkspace,
    /// `origin[current] = original`: construction-order index of the particle
    /// currently stored in each slot (identity until the first Morton reorder).
    origin: Vec<u32>,
    /// `position[original] = current`: inverse of `origin`.
    position: Vec<u32>,
    reorder_interval: u64,
    /// Individual-timestep state; one bin is the global-dt scheme (the
    /// default). See [`Simulation::with_timestep_bins`].
    timestep_bins: TimestepBins,
    /// Active-row scratch of the binned substep (reused across substeps).
    active_rows: Vec<u32>,
    /// Per-rung row scratch of the binned AV-switch update.
    rung_rows: Vec<u32>,
    /// Total energy of the current cycle's start.
    cycle_energy: f64,
    time: f64,
    step: u64,
    last_dt: f64,
    target_neighbors: f64,
    max_dt: f64,
    softening: f64,
}

impl Simulation {
    /// Create a simulation of `scenario` over an existing particle set. The
    /// scenario's [`crate::boundary::Boundary`] is stamped onto the particle
    /// set, so the whole pipeline (neighbour search, pair kernels, Morton
    /// keys, position wrapping) agrees on the box geometry.
    pub fn new(scenario: ScenarioRef, mut particles: ParticleSet) -> Self {
        particles.boundary = scenario.boundary();
        let driver = scenario.has_stirring().then(default_turbulence_driver);
        let identity: Vec<u32> = (0..particles.len() as u32).collect();
        Self {
            particles,
            scenario,
            driver,
            hooks: None,
            telemetry: telemetry::from_env(),
            health_baseline: None,
            workspace: StepWorkspace::new(),
            origin: identity.clone(),
            position: identity,
            reorder_interval: DEFAULT_REORDER_INTERVAL,
            timestep_bins: TimestepBins::new(1),
            active_rows: Vec::new(),
            rung_rows: Vec::new(),
            cycle_energy: 0.0,
            time: 0.0,
            step: 0,
            last_dt: DEFAULT_INITIAL_DT,
            target_neighbors: DEFAULT_TARGET_NEIGHBORS,
            max_dt: DEFAULT_MAX_DT,
            softening: DEFAULT_SOFTENING,
        }
    }

    /// Create a simulation from a scenario's own initial-condition generator
    /// with approximately `n_target` particles.
    pub fn from_scenario(scenario: ScenarioRef, n_target: usize, seed: u64) -> Self {
        let particles = scenario.initial_conditions(n_target, seed);
        Self::new(scenario, particles)
    }

    /// A small Evrard-collapse run with roughly `n` particles.
    pub fn evrard(n: usize, seed: u64) -> Self {
        Self::from_scenario(scenario::get("Evr").expect("built-in scenario"), n, seed)
    }

    /// A small subsonic-turbulence run with `n³` particles.
    pub fn turbulence(n_per_dim: usize, seed: u64) -> Self {
        Self::from_scenario(
            scenario::get("Turb").expect("built-in scenario"),
            n_per_dim * n_per_dim * n_per_dim,
            seed,
        )
    }

    /// Attach measurement hooks (the PMT instrumentation of the paper).
    pub fn with_hooks(mut self, hooks: ProfilingHooks) -> Self {
        self.hooks = Some(hooks);
        self
    }

    /// Attach a telemetry sink: every pipeline stage of [`Simulation::step`]
    /// emits a `"stage"` span nested under a per-step `"Step"` span, and each
    /// completed step publishes the simulation-health gauges
    /// (`health.energy_drift`, `health.momentum_drift`, `health.mass_drift`,
    /// `health.dt`, the `health.neighbor_count` histogram) plus `sim.reorder`
    /// events. Overrides the `SPHSIM_TRACE` environment hook picked up by
    /// [`Simulation::new`].
    ///
    /// When the sink is disabled the per-stage cost is one relaxed atomic
    /// load (enforced ≤ 2% of step time by the `telemetry_overhead` test).
    pub fn with_telemetry(mut self, sink: Arc<Telemetry>) -> Self {
        self.telemetry = Some(sink);
        self
    }

    /// The attached telemetry sink, if any (explicit or via `SPHSIM_TRACE`).
    pub fn telemetry(&self) -> Option<&Arc<Telemetry>> {
        self.telemetry.as_ref()
    }

    /// Register a region observer (e.g. an `autotune` DVFS governor) on the
    /// attached hooks' meter, so every pipeline stage of [`Simulation::step`]
    /// runs under its control.
    ///
    /// # Panics
    ///
    /// Panics if called before [`Simulation::with_hooks`]: without hooks no
    /// stage regions exist for the observer to govern.
    pub fn with_region_observer(self, observer: std::sync::Arc<dyn pmt::RegionObserver>) -> Self {
        let hooks = self
            .hooks
            .as_ref()
            .expect("attach hooks (with_hooks) before registering a region observer");
        hooks.meter().add_region_observer(observer);
        self
    }

    /// Set how often (in timestep cycles, which are steps on the global-dt
    /// scheme) the particle storage is re-sorted into Morton order inside
    /// `DomainDecompAndSync`; `0` disables reordering entirely
    /// (particles stay in construction order). Defaults to
    /// [`DEFAULT_REORDER_INTERVAL`].
    pub fn with_reorder_interval(mut self, every_n_steps: u64) -> Self {
        self.reorder_interval = every_n_steps;
        self
    }

    /// Run individual (block) timesteps with `max(n_bins, 1)` power-of-two
    /// rungs: each particle is assigned a rung `k` with `dt_k = dt_base / 2^k` from
    /// its local Courant criterion, neighbouring rungs are limited to differ
    /// by at most one level, and each [`Simulation::step`] call advances one
    /// hierarchical substep — only the particles whose rung is active get the
    /// full density/gradh/IAD/momentum update, everyone else just drifts.
    ///
    /// A new simulation runs one bin, which is the global-dt scheme: every
    /// substep is a whole cycle at the Courant minimum. `n_bins <= 1` keeps
    /// that one bin, bit-identical to not calling this at all (pinned by the
    /// conservation-digest tests).
    pub fn with_timestep_bins(mut self, n_bins: usize) -> Self {
        self.timestep_bins = TimestepBins::new(n_bins.max(1));
        self
    }

    /// The individual-timestep state when more than one bin was enabled via
    /// [`Simulation::with_timestep_bins`]; `None` on the global-dt scheme.
    pub fn timestep_bins(&self) -> Option<&TimestepBins> {
        (self.timestep_bins.n_bins() > 1).then_some(&self.timestep_bins)
    }

    /// Construction-order index of the particle currently stored in slot
    /// `current`. Identity until the first Morton reorder.
    pub fn original_index_of(&self, current: usize) -> usize {
        self.origin[current] as usize
    }

    /// Current storage slot of the particle that was constructed as index
    /// `original` — how externally-held indices (scenario validation,
    /// observables) stay correct across Morton reorders.
    pub fn current_index_of(&self, original: usize) -> usize {
        self.position[original] as usize
    }

    /// The whole slot → construction-order map (`[current] = original`).
    pub fn original_indices(&self) -> &[u32] {
        &self.origin
    }

    /// The attached profiling hooks, if any.
    pub fn hooks(&self) -> Option<&ProfilingHooks> {
        self.hooks.as_ref()
    }

    /// The scenario being simulated.
    pub fn scenario(&self) -> &ScenarioRef {
        &self.scenario
    }

    /// The particle data.
    pub fn particles(&self) -> &ParticleSet {
        &self.particles
    }

    /// Simulation time.
    pub fn time(&self) -> f64 {
        self.time
    }

    /// Completed step count.
    pub fn step_count(&self) -> u64 {
        self.step
    }

    /// Total energy of the current state: kinetic + internal, plus the
    /// gravitational potential for self-gravitating runs from one Barnes–Hut
    /// walk over a fresh tree (O(N log N)).
    pub fn total_energy(&self) -> f64 {
        let mut e = self.particles.kinetic_energy() + self.particles.internal_energy();
        if self.scenario.has_gravity() {
            e += potential_energy_tree(&self.particles, self.softening);
        }
        e
    }

    /// Wrap a stage body in the pmt power region (when hooks are attached)
    /// and a telemetry `"stage"` span (when a sink is attached). With a
    /// disabled sink the span cost is a single relaxed atomic load.
    fn instrument<R>(
        hooks: &Option<ProfilingHooks>,
        telemetry: &Option<Arc<Telemetry>>,
        label: &str,
        f: impl FnOnce() -> R,
    ) -> R {
        let _span = telemetry.as_ref().map(|t| t.span("stage", label, 0));
        match hooks {
            Some(h) => h.instrument(label, f),
            None => f(),
        }
    }

    /// Fail loudly — naming the offending stage — if a stage left a non-finite
    /// value in what it wrote: its [`written_lanes`] over `rows`, plus the
    /// position of each of the first `drifted` particles. A bare `NaN` would
    /// otherwise surface many stages later as an opaque panic (or, worse, as
    /// silently wrong energy attribution in the measurement pipeline).
    fn assert_finite_after(&self, stage: SphStage, rows: &[u32], drifted: usize) {
        let Some((i, lane)) = first_non_finite_written(&self.particles, stage, rows, drifted) else {
            return;
        };
        let p = &self.particles;
        panic!(
            "stage {} produced a non-finite quantity ({}) for particle {i} at step {} of scenario {} \
             (pos=({}, {}, {}), v=({}, {}, {}), a=({}, {}, {}), rho={}, u={}, du={})",
            stage.label(),
            lane.name(),
            self.step,
            self.scenario.short_name(),
            p.x[i],
            p.y[i],
            p.z[i],
            p.vx[i],
            p.vy[i],
            p.vz[i],
            p.ax[i],
            p.ay[i],
            p.az[i],
            p.rho[i],
            p.u[i],
            p.du[i],
        );
    }

    /// Execute one timestep through the full named pipeline.
    ///
    /// Every call advances one hierarchical substep of the block-timestep
    /// scheme; the global-dt scheme is its one-bin case.
    ///
    /// At a *cycle start* (`phase == 0`) every particle is active: the full
    /// pipeline runs, the cycle is re-planned from the global Courant minimum,
    /// rungs are reassigned and limited (`|k_i − k_j| ≤ 1` across neighbour
    /// rows) and the deepest rung fixes the substep `dt_sub = dt_base /
    /// 2^k_deep`, so the summary's `dt` is the substep size and a full cycle
    /// of `2^k_deep` calls advances time by `dt_base`. *Mid-cycle* only the
    /// rows whose rung is active are rebuilt (subset CSR) and re-accelerated;
    /// frozen particles keep their accelerations and just drift. With one
    /// bin every call is a cycle start whose `dt_base` is the Courant minimum
    /// itself, and the rung bookkeeping (assignment, limiter, per-rung
    /// AV-switch split, bin telemetry) is skipped: every rung is 0.
    ///
    /// A substep pays for the rows and structures it uses: each finite guard
    /// checks what its stage wrote (the stage's lanes over the active rows,
    /// the drift's positions over every row, and one all-rows check after
    /// the cycle-start `FindNeighbors`), and the octree is built only when
    /// Gravity or the octree neighbour builder walks it
    /// ([`StepWorkspace::domain_sync`]).
    pub fn step(&mut self) -> StepSummary {
        let mut active = std::mem::take(&mut self.active_rows);
        let mut rung_rows = std::mem::take(&mut self.rung_rows);

        let hooks = self.hooks.clone();
        if let Some(h) = &hooks {
            h.set_iteration(Some(self.step));
        }
        let tel = self.telemetry.clone();
        let step_span = tel.as_ref().map(|t| {
            let mut span = t.span("step", "Step", 0);
            span.arg("step", self.step as f64);
            span
        });

        // DomainDecompAndSync: wrap positions back into a periodic box, every
        // `reorder_interval` cycles sort the particle storage into Morton
        // order (so octree leaves and CSR neighbour rows cover contiguous
        // memory), then (re)build the global tree into the workspace's node
        // arena when a stage of this substep walks it (Gravity, or the octree
        // neighbour builder) — the single-rank equivalent of domain
        // decomposition + halo sync. The interval decision is made here,
        // before any Morton-key work, so non-reorder steps skip key
        // generation entirely. Reorders
        // are paced by *cycles*, not substeps (a deep cycle would otherwise
        // re-sort 2^k_deep times per dt_base), and happen only at a cycle
        // start — mid-cycle the frozen particles' CSR rows must stay aligned
        // with their stale accelerations.
        let n = self.particles.len();
        let sync = self.timestep_bins.at_cycle_start();
        let reorder_due =
            sync && self.reorder_interval > 0 && self.timestep_bins.cycles().is_multiple_of(self.reorder_interval);
        {
            let ws = &mut self.workspace;
            let particles = &mut self.particles;
            let origin = &mut self.origin;
            let gravity = self.scenario.has_gravity();
            Self::instrument(&hooks, &tel, SphStage::DomainDecompAndSync.label(), || {
                ws.domain_sync(particles, origin, reorder_due, gravity, MAX_LEAF_SIZE);
            });
        }
        if reorder_due {
            for (current, &original) in self.origin.iter().enumerate() {
                self.position[original as usize] = current as u32;
            }
        }

        // The active set of this substep. At a cycle start everyone is active
        // (phase 0 activates every rung); mid-cycle it is the rows whose rung
        // divides the phase. Rows ascend — the subset CSR builders need that.
        if sync {
            active.clear();
            active.extend(0..n as u32);
        } else {
            self.timestep_bins.collect_active_rows(&self.particles, n, &mut active);
        }

        {
            let ws = &mut self.workspace;
            let particles = &mut self.particles;
            let rows = &active;
            Self::instrument(&hooks, &tel, SphStage::FindNeighbors.label(), || {
                if sync {
                    ws.find_neighbors(particles);
                } else {
                    ws.find_neighbors_rows(particles, rows);
                }
            });
        }
        // The finite guards check what each stage wrote: its lanes over the
        // active rows. The one all-rows check runs here at a cycle start
        // (every row is active), covering the incoming state; mid-cycle,
        // FindNeighbors writes no floating-point lane.
        if sync {
            self.assert_finite_after(SphStage::FindNeighbors, &active, 0);
        }
        let neighbors = self.workspace.neighbors();

        Self::instrument(&hooks, &tel, SphStage::XMass.label(), || {
            compute_density_rows(&mut self.particles, neighbors, &active);
            update_smoothing_length_rows(&mut self.particles, self.target_neighbors, &active);
        });
        self.assert_finite_after(SphStage::XMass, &active, 0);

        Self::instrument(&hooks, &tel, SphStage::NormalizationGradh.label(), || {
            compute_gradh_rows(&mut self.particles, neighbors, &active)
        });
        self.assert_finite_after(SphStage::NormalizationGradh, &active, 0);

        Self::instrument(&hooks, &tel, SphStage::EquationOfState.label(), || {
            apply_eos_rows(&mut self.particles, &active)
        });
        self.assert_finite_after(SphStage::EquationOfState, &active, 0);

        Self::instrument(&hooks, &tel, SphStage::IADVelocityDivCurl.label(), || {
            compute_div_curl_rows(&mut self.particles, neighbors, &active)
        });
        self.assert_finite_after(SphStage::IADVelocityDivCurl, &active, 0);

        // The AV switch relaxes alpha over the time since the particle's last
        // kick — its own rung dt, not the substep dt. Before the first plan
        // (dt_base == 0) the helper falls back to the `last_dt` seed.
        {
            let particles = &mut self.particles;
            let last_dt = self.last_dt;
            let rows = &active;
            let rung_scratch = &mut rung_rows;
            let b = &self.timestep_bins;
            Self::instrument(&hooks, &tel, SphStage::AVSwitches.label(), || {
                update_av_switches_binned(particles, b, last_dt, rows, rung_scratch)
            });
        }
        self.assert_finite_after(SphStage::AVSwitches, &active, 0);

        Self::instrument(&hooks, &tel, SphStage::MomentumEnergy.label(), || {
            compute_momentum_energy_rows(&mut self.particles, neighbors, &active)
        });
        self.assert_finite_after(SphStage::MomentumEnergy, &active, 0);

        let mut e_pot = 0.0;
        if self.scenario.has_gravity() {
            let tree = self.workspace.tree();
            e_pot = Self::instrument(&hooks, &tel, SphStage::Gravity.label(), || {
                add_gravity_rows(&mut self.particles, tree, DEFAULT_THETA, self.softening, &active)
            });
            self.assert_finite_after(SphStage::Gravity, &active, 0);
        }

        if let Some(driver) = &self.driver {
            let time = self.time;
            Self::instrument(&hooks, &tel, SphStage::Turbulence.label(), || {
                driver.apply_rows(&mut self.particles, time, &active)
            });
            self.assert_finite_after(SphStage::Turbulence, &active, 0);
        }

        let dt = {
            let particles = &mut self.particles;
            let ws = &self.workspace;
            let max_dt = self.max_dt;
            let rows = &active;
            let b = &mut self.timestep_bins;
            Self::instrument(&hooks, &tel, SphStage::Timestep.label(), || {
                if sync {
                    let dt_min = courant_timestep(particles, max_dt);
                    b.plan(dt_min, max_dt);
                    if b.n_bins() > 1 {
                        b.assign_rungs(particles, n);
                        while b.limiter_round(particles, ws.neighbors(), n) {}
                        b.seal(b.max_rung(particles, n));
                    }
                } else {
                    b.deepen(particles, rows);
                }
                b.dt_sub()
            })
        };
        assert!(
            dt.is_finite() && dt > 0.0,
            "stage {} produced an invalid timestep {dt} at step {} of scenario {}",
            SphStage::Timestep.label(),
            self.step,
            self.scenario.short_name()
        );

        // Every row was walked at the cycle start, so e_pot is the whole
        // set's there; mid-cycle it covers the active rows only.
        if sync {
            self.cycle_energy = self.particles.kinetic_energy() + self.particles.internal_energy() + e_pot;
        }
        Self::instrument(&hooks, &tel, SphStage::UpdateQuantities.label(), || {
            update_quantities(&mut self.particles, &self.timestep_bins)
        });
        // The kick wrote the active rows; the drift moved every particle.
        self.assert_finite_after(SphStage::UpdateQuantities, &active, n);

        self.time += dt;
        self.step += 1;
        self.last_dt = dt;
        let summary = StepSummary {
            step: self.step,
            dt,
            time: self.time,
            total_energy: self.cycle_energy,
        };
        drop(step_span);
        self.emit_bins_telemetry(sync);
        self.emit_step_telemetry(&summary, reorder_due);
        self.timestep_bins.advance();

        self.active_rows = active;
        self.rung_rows = rung_rows;
        summary
    }

    /// Publish the per-substep bin diagnostics: the `health.dt_bins` rung
    /// occupancy histogram every substep, plus a `sim.timestep` instant and
    /// the `sim.timestep.events` counter whenever a new cycle was planned.
    /// The flush rides on [`Simulation::emit_step_telemetry`], which runs
    /// right after. No-op without an enabled sink or with a single bin.
    fn emit_bins_telemetry(&self, planned: bool) {
        let bins = &self.timestep_bins;
        let Some(tel) = &self.telemetry else {
            return;
        };
        if !tel.enabled() || bins.n_bins() == 1 {
            return;
        }
        let rank = 0;
        // One observation per particle at its rung's bucket index.
        let histogram = tel.metrics().histogram("health.dt_bins", &DT_BINS_HISTOGRAM_BOUNDS);
        let n = self.particles.len();
        for &k in &self.particles.rung[..n] {
            histogram.observe(k as f64);
        }
        if planned {
            tel.instant(
                "sim",
                "timestep",
                rank,
                &[
                    ("k_deep", bins.k_deep() as f64),
                    ("dt_base", bins.dt_base()),
                    ("cycle_len", bins.cycle_len() as f64),
                ],
            );
            tel.metrics().counter("sim.timestep.events").inc();
        }
    }

    /// Publish the per-step simulation-health gauges and flush the exporters.
    /// No-op without an enabled sink.
    fn emit_step_telemetry(&mut self, summary: &StepSummary, reordered: bool) {
        let Some(tel) = &self.telemetry else {
            return;
        };
        if !tel.enabled() {
            return;
        }
        let rank = 0;
        let mass = self.particles.total_mass();
        let (momentum, momentum_scale) = momentum_and_scale(&self.particles);
        let baseline = *self.health_baseline.get_or_insert(HealthBaseline {
            energy: summary.total_energy,
            mass,
            momentum,
            momentum_scale,
        });
        let momentum_drift = {
            let d = [
                momentum[0] - baseline.momentum[0],
                momentum[1] - baseline.momentum[1],
                momentum[2] - baseline.momentum[2],
            ];
            let norm = (d[0] * d[0] + d[1] * d[1] + d[2] * d[2]).sqrt();
            norm / baseline.momentum_scale.max(momentum_scale).max(1e-12)
        };
        tel.gauge("health", "health.total_energy", rank, summary.total_energy);
        tel.gauge(
            "health",
            "health.energy_drift",
            rank,
            (summary.total_energy - baseline.energy).abs() / baseline.energy.abs().max(1e-12),
        );
        tel.gauge(
            "health",
            "health.mass_drift",
            rank,
            (mass - baseline.mass).abs() / baseline.mass.abs().max(1e-12),
        );
        tel.gauge("health", "health.momentum_drift", rank, momentum_drift);
        tel.gauge("health", "health.dt", rank, summary.dt);
        let lists = self.workspace.neighbors();
        let (min, mean, max) = neighbor_count_stats(lists);
        tel.gauge("health", "health.neighbor_mean", rank, mean);
        tel.gauge("health", "health.neighbor_min", rank, min as f64);
        tel.gauge("health", "health.neighbor_max", rank, max as f64);
        let histogram = tel.metrics().histogram("health.neighbor_count", &NEIGHBOR_HISTOGRAM_BOUNDS);
        for i in 0..lists.len() {
            histogram.observe(lists.count(i).saturating_sub(1) as f64);
        }
        if reordered {
            tel.instant("sim", "reorder", rank, &[("step", (summary.step - 1) as f64)]);
            tel.metrics().counter("sim.reorder.events").inc();
        }
        let build = self.workspace.neighbor_build_stats();
        tel.gauge("health", "health.cell_occupancy", rank, build.mean_occupancy);
        tel.gauge("health", "health.neighbor_rows", rank, build.rows as f64);
        tel.instant(
            "sim",
            "neighbors",
            rank,
            &[("rows", build.rows as f64), ("cells", build.occupied_cells as f64)],
        );
        tel.metrics().counter("sim.neighbors.events").inc();
        tel.flush();
    }

    /// Run `n` timesteps and return the per-step summaries.
    pub fn run(&mut self, n: u64) -> Vec<StepSummary> {
        (0..n).map(|_| self.step()).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::ScenarioRegistry;

    #[test]
    fn evrard_sphere_collapses_and_heats() {
        let mut sim = Simulation::evrard(600, 1);
        let e0_internal = sim.particles().internal_energy();
        let summaries = sim.run(15);
        assert_eq!(sim.step_count(), 15);
        assert!(sim.time() > 0.0);
        // Gravity should accelerate particles inwards -> kinetic energy appears.
        assert!(sim.particles().kinetic_energy() > 0.0);
        // Compression heats the gas.
        assert!(sim.particles().internal_energy() >= e0_internal * 0.99);
        // Timesteps are positive and bounded by the configured cap — not a
        // magic number that would silently diverge from DEFAULT_MAX_DT.
        assert!(summaries.iter().all(|s| s.dt > 0.0 && s.dt <= DEFAULT_MAX_DT));
    }

    #[test]
    fn evrard_total_energy_is_roughly_conserved() {
        let mut sim = Simulation::evrard(500, 2);
        // Let the state settle one step (density/EOS defined after first step).
        sim.step();
        let e_start = sim.total_energy();
        sim.run(10);
        let e_end = sim.total_energy();
        let scale = e_start.abs().max(1e-3);
        let drift = (e_end - e_start).abs() / scale;
        assert!(drift < 0.25, "energy drift {drift} too large ({e_start} -> {e_end})");
    }

    #[test]
    fn summary_energy_is_the_state_before_the_kick() {
        // The Gravity stage walks the same tree a fresh `total_energy()`
        // builds, so without reorders the two agree bit for bit.
        let mut sim = Simulation::evrard(500, 4).with_reorder_interval(0);
        for _ in 0..3 {
            let before = sim.total_energy();
            assert_eq!(sim.step().total_energy.to_bits(), before.to_bits());
        }
    }

    #[test]
    fn binned_mid_cycle_substeps_carry_the_cycle_start_energy() {
        let mut sim = Simulation::evrard(500, 4).with_reorder_interval(0).with_timestep_bins(4);
        let mut cycle_energy = f64::NAN;
        let (mut starts, mut mids) = (0, 0);
        for _ in 0..24 {
            let at_start = sim.timestep_bins().unwrap().at_cycle_start();
            let before = sim.total_energy();
            let summary = sim.step();
            if at_start {
                assert_eq!(summary.total_energy.to_bits(), before.to_bits());
                cycle_energy = summary.total_energy;
                starts += 1;
            } else {
                assert_eq!(summary.total_energy.to_bits(), cycle_energy.to_bits());
                mids += 1;
            }
        }
        assert!(
            starts >= 2 && mids >= 2,
            "{starts} cycle starts, {mids} mid-cycle substeps"
        );
    }

    #[test]
    fn turbulence_box_stays_subsonic_and_stirred() {
        let mut sim = Simulation::turbulence(6, 3);
        sim.run(5);
        let p = sim.particles();
        let v_rms = (2.0 * p.kinetic_energy() / p.total_mass()).sqrt();
        assert!(v_rms > 0.0);
        assert!(v_rms < 1.5, "flow should stay subsonic-ish, v_rms = {v_rms}");
        assert_eq!(sim.scenario().short_name(), "Turb");
    }

    #[test]
    fn traced_step_emits_stage_spans_and_health_gauges() {
        let sink = Arc::new(Telemetry::new());
        let scenario = crate::scenario::get("Sedov").unwrap();
        let mut sim = Simulation::from_scenario(scenario.clone(), 400, 7).with_telemetry(Arc::clone(&sink));
        sim.run(2);
        let events = sink.events_snapshot();
        assert!(events.windows(2).all(|w| w[0].seq < w[1].seq));
        assert_eq!(events.iter().filter(|e| e.cat == "step" && e.name == "Step").count(), 2);
        for stage in scenario.pipeline() {
            assert_eq!(
                events.iter().filter(|e| e.cat == "stage" && e.name == stage.label()).count(),
                2,
                "stage {} must be spanned once per step",
                stage.label()
            );
        }
        let snapshot = sink.metrics().snapshot();
        for gauge in [
            "health.total_energy",
            "health.energy_drift",
            "health.mass_drift",
            "health.momentum_drift",
            "health.dt",
            "health.neighbor_mean",
            "health.neighbor_min",
            "health.neighbor_max",
            "health.cell_occupancy",
            "health.neighbor_rows",
        ] {
            assert_eq!(
                events.iter().filter(|e| e.name == gauge).count(),
                2,
                "gauge {gauge} must be sampled once per step"
            );
        }
        // The neighbour-build instant and its counter fire every step.
        assert_eq!(
            events.iter().filter(|e| e.cat == "sim" && e.name == "neighbors").count(),
            2
        );
        assert_eq!(snapshot.counter("sim.neighbors.events"), Some(2));
        let hist = snapshot.histogram("health.neighbor_count").expect("histogram present");
        assert_eq!(hist.count, 2 * sim.particles().len() as u64);
        // First-step drift against the first-step baseline is identically 0.
        let first_drift = events
            .iter()
            .find(|e| e.name == "health.energy_drift")
            .and_then(|e| match e.kind {
                telemetry::EventKind::Gauge { value } => Some(value),
                _ => None,
            })
            .unwrap();
        assert_eq!(first_drift, 0.0);
    }

    #[test]
    fn disabled_sink_adds_no_events_to_a_step() {
        let sink = Arc::new(Telemetry::disabled());
        let scenario = crate::scenario::get("Sedov").unwrap();
        let mut sim = Simulation::from_scenario(scenario, 300, 7).with_telemetry(Arc::clone(&sink));
        sim.run(2);
        assert_eq!(sink.event_count(), 0);
        assert!(sink.metrics().snapshot().histograms.is_empty());
    }

    #[test]
    fn one_step_over_every_registered_scenario_stays_finite() {
        // The per-stage non-finite guard must stay silent on valid ICs for
        // every scenario in the registry — including registrations this crate
        // has never seen, which is exactly what makes the guard trustworthy.
        for scenario in ScenarioRegistry::builtin().scenarios() {
            let mut sim = Simulation::from_scenario(scenario.clone(), 400, 7);
            let summary = sim.step();
            assert!(summary.dt > 0.0, "{}", scenario.short_name());
            assert!(summary.total_energy.is_finite(), "{}", scenario.short_name());
        }
    }

    #[test]
    #[should_panic(expected = "produced a non-finite quantity")]
    fn corrupted_state_panics_with_the_offending_stage_name() {
        let mut sim = Simulation::turbulence(6, 4);
        // Inject a NaN as if a kernel had misbehaved; the next step's guard
        // must catch it and name the stage instead of propagating it.
        let mut particles = sim.particles().clone();
        particles.u[0] = f64::NAN;
        sim = Simulation::new(sim.scenario().clone(), particles);
        sim.step();
    }

    #[test]
    #[should_panic(expected = "stage FindNeighbors produced a non-finite quantity (u)")]
    fn binned_corrupted_state_panics_with_the_offending_stage_name() {
        // With bins the row stages check only their active rows; the
        // cycle-start check after FindNeighbors still covers every row.
        let sim = Simulation::turbulence(6, 4);
        let mut particles = sim.particles().clone();
        particles.u[0] = f64::NAN;
        let mut sim = Simulation::new(sim.scenario().clone(), particles).with_timestep_bins(4);
        sim.step();
    }

    #[test]
    fn morton_reorder_keeps_the_index_maps_consistent() {
        // Tag every particle through its mass (masses never evolve), with a
        // perturbation far too small to affect the dynamics.
        let scenario = crate::scenario::get("Turb").unwrap();
        let mut particles = scenario.initial_conditions(400, 3);
        for (i, m) in particles.m.iter_mut().enumerate() {
            *m *= 1.0 + 1e-12 * i as f64;
        }
        let tags = particles.m.clone();
        let mut sim = Simulation::new(scenario, particles).with_reorder_interval(1);
        sim.run(3);
        let p = sim.particles();
        let n = p.len();
        let mut seen = vec![false; n];
        for current in 0..n {
            let original = sim.original_index_of(current);
            assert!(!seen[original], "origin map is not a permutation");
            seen[original] = true;
            assert_eq!(sim.current_index_of(original), current);
            assert_eq!(p.m[current], tags[original]);
        }
    }

    #[test]
    fn disabling_reorder_keeps_construction_order() {
        let mut sim = Simulation::evrard(400, 6).with_reorder_interval(0);
        sim.run(2);
        assert!((0..400).all(|i| sim.original_index_of(i) == i && sim.current_index_of(i) == i));
    }

    #[test]
    fn region_observer_governs_cpu_pipeline_stages() {
        use pmt::backends::DummySensor;
        use pmt::{Domain, PowerMeter, RegionObserver};
        use std::sync::{Arc, Mutex};

        struct Counter(Mutex<usize>);
        impl RegionObserver for Counter {
            fn on_region_start(&self, _label: &str, _time_s: f64) {
                *self.0.lock().unwrap() += 1;
            }
            fn on_region_end(&self, _record: &pmt::MeasurementRecord) {}
        }

        let meter = Arc::new(PowerMeter::builder().sensor(DummySensor::new(Domain::gpu(0), 100.0)).build());
        let counter = Arc::new(Counter(Mutex::new(0)));
        let mut sim = Simulation::turbulence(6, 4)
            .with_hooks(ProfilingHooks::new(meter))
            .with_region_observer(counter.clone());
        sim.step();
        let stages = crate::scenario::get("Turb").unwrap().pipeline().len();
        assert_eq!(*counter.0.lock().unwrap(), stages);
        assert!(sim.hooks().is_some());
    }

    #[test]
    fn hooks_record_every_pipeline_stage() {
        use pmt::backends::DummySensor;
        use pmt::clock::ManualClock;
        use pmt::{Domain, PowerMeter};
        use std::sync::Arc;

        let clock = ManualClock::new();
        let meter = Arc::new(
            PowerMeter::builder()
                .sensor(DummySensor::new(Domain::gpu(0), 100.0))
                .clock(clock.clone())
                .build(),
        );
        let hooks = ProfilingHooks::new(meter.clone());
        let mut sim = Simulation::turbulence(6, 4).with_hooks(hooks);
        sim.run(2);
        let records = meter.records();
        let labels: std::collections::BTreeSet<String> = records.iter().map(|r| r.label.clone()).collect();
        for stage in crate::scenario::get("Turb").unwrap().pipeline() {
            assert!(labels.contains(stage.label()), "missing record for {}", stage.label());
        }
        // Two steps -> two records per stage.
        let me_count = records.iter().filter(|r| r.label == "MomentumEnergy").count();
        assert_eq!(me_count, 2);
        assert!(records.iter().any(|r| r.iteration == Some(1)));
    }

    // -- individual (block) timesteps ---------------------------------------

    #[test]
    fn one_timestep_bin_is_the_global_scheme_bitwise() {
        // `with_timestep_bins(1)` is the default one-bin scheme: the
        // evolution stays bit-identical to not calling it at all.
        let scenario = crate::scenario::get("Sedov").unwrap();
        let mut plain = Simulation::from_scenario(scenario.clone(), 400, 7);
        let mut binned = Simulation::from_scenario(scenario, 400, 7).with_timestep_bins(1);
        assert!(binned.timestep_bins().is_none());
        for _ in 0..4 {
            let a = plain.step();
            let b = binned.step();
            assert_eq!(a, b);
        }
        let (p, q) = (plain.particles(), binned.particles());
        for i in 0..p.len() {
            assert_eq!(p.x[i].to_bits(), q.x[i].to_bits());
            assert_eq!(p.vx[i].to_bits(), q.vx[i].to_bits());
            assert_eq!(p.u[i].to_bits(), q.u[i].to_bits());
        }
    }

    #[test]
    fn binned_sedov_runs_hierarchical_cycles() {
        let scenario = crate::scenario::get("Sedov").unwrap();
        let mut sim = Simulation::from_scenario(scenario, 400, 7).with_timestep_bins(4);
        let mut planned_cycles = 0u64;
        for _ in 0..12 {
            let was_sync = sim.timestep_bins().unwrap().at_cycle_start();
            let s = sim.step();
            let bins = sim.timestep_bins().unwrap();
            // Every substep advances by the sealed substep dt of its cycle.
            assert_eq!(s.dt, bins.dt_sub());
            assert!(s.dt > 0.0 && s.dt <= DEFAULT_MAX_DT);
            assert!(s.total_energy.is_finite());
            if was_sync {
                planned_cycles += 1;
                // Right after a plan, the neighbour-rung limiter must hold
                // over the freshly built full CSR rows.
                let p = sim.particles();
                let nl = sim.workspace.neighbors();
                for i in 0..p.len() {
                    for &j in nl.neighbors(i) {
                        assert!(
                            (p.rung[i] as i32 - p.rung[j as usize] as i32).abs() <= 1,
                            "limiter violated between {i} and {j}"
                        );
                    }
                }
            }
        }
        assert!(planned_cycles >= 1);
        // A blast wave has a genuine timestep contrast: the cycle must
        // actually use more than one rung (otherwise the whole scheme
        // degenerated to global stepping and the test is vacuous).
        let bins = sim.timestep_bins().unwrap();
        assert!(bins.k_deep() >= 1, "Sedov should populate at least two rungs");
        assert_eq!(sim.step_count(), 12);
    }

    #[test]
    fn binned_step_emits_the_bin_telemetry() {
        let sink = Arc::new(Telemetry::new());
        let scenario = crate::scenario::get("Sedov").unwrap();
        let mut sim = Simulation::from_scenario(scenario.clone(), 400, 7)
            .with_telemetry(Arc::clone(&sink))
            .with_timestep_bins(4);
        // First step is a cycle start; run through at least one full cycle.
        let first_cycle = {
            sim.step();
            sim.timestep_bins().unwrap().cycle_len() as u64
        };
        for _ in 0..first_cycle {
            sim.step();
        }
        let steps = 1 + first_cycle;
        let events = sink.events_snapshot();
        // Stage spans keep the exact global-dt labels (traces comparable).
        for stage in scenario.pipeline() {
            assert_eq!(
                events.iter().filter(|e| e.cat == "stage" && e.name == stage.label()).count() as u64,
                steps,
                "stage {} must be spanned once per substep",
                stage.label()
            );
        }
        let snapshot = sink.metrics().snapshot();
        // The rung-occupancy histogram sees every particle every substep.
        let hist = snapshot.histogram("health.dt_bins").expect("dt_bins histogram");
        assert_eq!(hist.count, steps * sim.particles().len() as u64);
        // One planning event per cycle start (step 0 and the wrap-around).
        let planned = snapshot.counter("sim.timestep.events").expect("timestep counter");
        assert!(planned >= 2, "expected at least two planned cycles, saw {planned}");
        assert_eq!(
            events.iter().filter(|e| e.cat == "sim" && e.name == "timestep").count() as u64,
            planned
        );
    }
}
