//! The benchmark's workloads, one repetition of each, and set-up timing.
//!
//! A repetition sets a workload up anew, advances it a fixed number of base
//! steps through the public step functions with pmt hooks attached on
//! every rank, and checks the final state. A base step is one `step()` call
//! under a global dt, and one full `dt_base` cycle of substeps with timestep
//! bins. Traced repetitions also attach one in-memory telemetry sink and
//! collect what the program and the benchmark recorded into it.

use cluster::{CommStatsSnapshot, RankContext, RankMapping, RankPlacement, TransportKind};
use hwmodel::arch::SystemKind;
use hwmodel::GpuHandle;
use pmt::{MeasurementRecord, PowerMeter, ProfilingHooks};
use sphsim::init::sedov::{sedov_shock_radius, SEDOV_E0, SEDOV_RHO0};
use sphsim::physics::gravity::potential_energy_direct;
use sphsim::{scenario, DistributedSimulation, OverlapStats, ParticleSet, ScenarioRef, Simulation};
use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Instant;
use telemetry::{Event, Telemetry};

/// Gravitational softening of both propagators (`sphsim`'s default), used by
/// the benchmark's own energy-drift check.
const SOFTENING: f64 = 0.02;

/// One benchmark workload.
#[derive(Clone, Debug, PartialEq)]
pub struct Workload {
    pub name: &'static str,
    /// Registered scenario short name.
    pub scenario: &'static str,
    /// Target particle count.
    pub n: usize,
    pub ranks: usize,
    /// Worker threads per rank; `None` means one per available core.
    pub threads_per_rank: Option<usize>,
    /// Timestep bins; 1 runs the global-dt scheme.
    pub bins: usize,
    pub base_steps: u64,
    /// Largest accepted relative drift of total energy from t = 0.
    pub drift_bound: f64,
}

/// Every workload, in the order `BENCHMARK.json` lists them.
///
/// * `evrard-1r` is the only single-rank self-gravitating case: gravity and
///   the energy diagnostic dominate its step.
/// * `sedov-bins-1r` has no gravity and no communication; its step is pair
///   kernels and neighbour search over the active rows of the binned scheme.
///   It runs one worker thread: its kernels are short fork-joins, and on a
///   2-vCPU VM shared with other tenants a busy sibling core stalls every
///   join; at two threads its time to solution moved by a quarter between
///   runs.
/// * `evrard-2r` is the same problem as `evrard-1r` on two shm ranks of one
///   thread each, driving ghost exchange, migration and the collectives.
pub const WORKLOADS: [Workload; 3] = [
    Workload {
        name: "evrard-1r",
        scenario: "Evr",
        n: 20_000,
        ranks: 1,
        threads_per_rank: None,
        bins: 1,
        base_steps: 6,
        drift_bound: 0.05,
    },
    Workload {
        name: "sedov-bins-1r",
        scenario: "Sedov",
        n: 50_653,
        ranks: 1,
        threads_per_rank: Some(1),
        bins: 4,
        base_steps: 4,
        drift_bound: 0.2,
    },
    Workload {
        name: "evrard-2r",
        scenario: "Evr",
        n: 20_000,
        ranks: 2,
        threads_per_rank: Some(1),
        bins: 1,
        base_steps: 5,
        drift_bound: 0.05,
    },
];

impl Workload {
    /// Look a workload up by name.
    pub fn by_name(name: &str) -> Option<Workload> {
        WORKLOADS.iter().find(|w| w.name == name).cloned()
    }

    /// The same workload at a size that runs in well under a second, for the
    /// benchmark's own tests.
    pub fn smoke(&self) -> Workload {
        Workload {
            n: if self.scenario == "Sedov" { 2_197 } else { 1_500 },
            base_steps: 2,
            ..self.clone()
        }
    }

    /// Worker threads per rank on a host with `nproc` cores.
    pub fn threads(&self, nproc: usize) -> usize {
        self.threads_per_rank.unwrap_or(nproc)
    }

    fn scenario_ref(&self) -> ScenarioRef {
        scenario::get(self.scenario).expect("workload names a registered scenario")
    }

    fn is_sedov(&self) -> bool {
        self.scenario == "Sedov"
    }
}

/// What every repetition is checked against: the initial conditions in
/// construction order, generated once per run from the seed.
pub struct Reference {
    pub n: usize,
    mass: f64,
    energy: f64,
    with_gravity: bool,
}

impl Reference {
    pub fn new(w: &Workload, seed: u64) -> Self {
        let sc = w.scenario_ref();
        let ic = sc.initial_conditions(w.n, seed);
        let with_gravity = sc.has_gravity();
        Self {
            n: ic.len(),
            mass: ic.m.iter().sum(),
            energy: conserved_energy(&ic, with_gravity),
            with_gravity,
        }
    }
}

fn conserved_energy(p: &ParticleSet, with_gravity: bool) -> f64 {
    let mut e = p.kinetic_energy() + p.internal_energy();
    if with_gravity {
        e += potential_energy_direct(p, SOFTENING);
    }
    e
}

/// Tally of output checks. A failed check is recorded, never panicked on.
#[derive(Clone, Debug, Default)]
pub struct Checks {
    pub attempted: u64,
    pub failed: Vec<String>,
}

impl Checks {
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed.push(what());
        }
    }

    pub fn merge(&mut self, other: Checks) {
        self.attempted += other.attempted;
        self.failed.extend(other.failed);
    }
}

/// Everything a traced repetition collected.
pub struct Trace {
    pub sink: Arc<Telemetry>,
    pub events: Vec<Event>,
    /// pmt records per rank.
    pub records: BTreeMap<u32, Vec<MeasurementRecord>>,
    pub dropped: u64,
    /// Communicator traffic over the stepping window, per rank.
    pub comm: Vec<CommStatsSnapshot>,
    pub overlap: Vec<OverlapStats>,
    /// Benchmark-timed `total_energy()` on the final state (rank 0).
    pub energy_diag_s: f64,
    /// Active rows summed over substeps and ranks.
    pub active_rows: u64,
    pub substeps: u64,
}

/// One repetition's measurements.
pub struct Rep {
    /// First step to horizon, on rank 0.
    pub tts_s: f64,
    /// Wall time of each base step, on rank 0.
    pub base_step_s: Vec<f64>,
    /// Modelled die energy over the stepping window, summed over ranks.
    pub energy_j: f64,
    pub final_time: f64,
    /// Relative drift of total energy from t = 0.
    pub drift: f64,
    pub checks: Checks,
    pub trace: Option<Trace>,
}

/// What one rank hands back from its thread.
struct RankOutcome {
    tts_s: f64,
    base_step_s: Vec<f64>,
    energy_j: f64,
    time: f64,
    /// Global (construction-order) id of each owned particle.
    ids: Vec<u32>,
    particles: ParticleSet,
    records: Vec<MeasurementRecord>,
    dropped: u64,
    comm: Option<CommStatsSnapshot>,
    overlap: OverlapStats,
    energy_diag_s: f64,
    active_rows: u64,
    substeps: u64,
}

impl RankOutcome {
    fn new(
        stepped: Stepped,
        energy_diag_s: f64,
        time: f64,
        ids: Vec<u32>,
        particles: ParticleSet,
        meter: &PowerMeter,
    ) -> Self {
        Self {
            tts_s: stepped.tts_s,
            base_step_s: stepped.base_step_s,
            energy_j: stepped.energy_j,
            time,
            ids,
            particles,
            records: meter.records(),
            dropped: meter.dropped_measurements(),
            comm: None,
            overlap: OverlapStats::default(),
            energy_diag_s,
            active_rows: stepped.active_rows,
            substeps: stepped.substeps,
        }
    }
}

/// The rank's pmt meter: one modelled GPU die busy at load 1.0, integrated
/// over the wall clock — the wiring of `sphsim::run_distributed_campaign`.
fn rank_meter(gpu: &GpuHandle, placement: &RankPlacement) -> Arc<PowerMeter> {
    gpu.set_load(1.0);
    Arc::new(
        PowerMeter::builder()
            .sensor(cluster::GpuDiePowerSensor::new(gpu.clone()))
            .rank(placement.rank)
            .hostname(placement.hostname.clone())
            .build(),
    )
}

/// Modelled joules the meter has integrated so far, after a fresh poll.
fn meter_joules(meter: &PowerMeter) -> f64 {
    meter.poll().expect("modelled die sensor samples");
    meter.total_energy_by_domain().values().sum()
}

/// A span the benchmark records around its own call into the program. Its
/// category is the benchmark's own: the fold charges only `step` and `stage`.
fn bench_span(sink: &Option<Arc<Telemetry>>, name: &str, rank: u32) -> Option<telemetry::SpanGuard> {
    // sphlint::allow(telemetry-naming, "perfbench's own spans; only its Chrome trace and fold read them")
    sink.as_ref().map(|t| t.span("bench", name, rank))
}

/// The stepping surface both propagators share.
trait Stepper {
    fn step(&mut self);
    fn bins(&self) -> Option<&sphsim::TimestepBins>;
    fn rungs(&self) -> &[u8];
    fn total_energy(&self) -> f64;
}

impl Stepper for Simulation {
    fn step(&mut self) {
        Simulation::step(self);
    }
    fn bins(&self) -> Option<&sphsim::TimestepBins> {
        self.timestep_bins()
    }
    fn rungs(&self) -> &[u8] {
        &self.particles().rung
    }
    fn total_energy(&self) -> f64 {
        Simulation::total_energy(self)
    }
}

impl Stepper for DistributedSimulation {
    fn step(&mut self) {
        DistributedSimulation::step(self);
    }
    fn bins(&self) -> Option<&sphsim::TimestepBins> {
        self.timestep_bins()
    }
    fn rungs(&self) -> &[u8] {
        &self.particles().rung[..self.n_owned()]
    }
    fn total_energy(&self) -> f64 {
        DistributedSimulation::total_energy(self)
    }
}

/// Timings of the stepping window of one rank.
struct Stepped {
    tts_s: f64,
    base_step_s: Vec<f64>,
    energy_j: f64,
    active_rows: u64,
    substeps: u64,
}

/// Advance `base_steps` base steps. Active rows are counted only when
/// traced, so untraced repetitions time nothing but the step calls.
fn advance(
    sim: &mut impl Stepper,
    w: &Workload,
    meter: &PowerMeter,
    sink: &Option<Arc<Telemetry>>,
    rank: u32,
) -> Stepped {
    let joules_before = meter_joules(meter);
    let run_span = bench_span(sink, "Run", rank);
    let started = Instant::now();
    let mut base_step_s = Vec::with_capacity(w.base_steps as usize);
    let (mut active_rows, mut substeps) = (0u64, 0u64);
    for _ in 0..w.base_steps {
        let _span = bench_span(sink, "BaseStep", rank);
        let step_started = Instant::now();
        loop {
            if sink.is_some() {
                active_rows += match sim.bins() {
                    Some(b) if !b.at_cycle_start() => sim.rungs().iter().filter(|&&k| b.is_active(k)).count(),
                    _ => sim.rungs().len(),
                } as u64;
            }
            sim.step();
            substeps += 1;
            if sim.bins().is_none_or(|b| b.at_cycle_start()) {
                break;
            }
        }
        base_step_s.push(step_started.elapsed().as_secs_f64());
    }
    let tts_s = started.elapsed().as_secs_f64();
    drop(run_span);
    Stepped {
        tts_s,
        base_step_s,
        energy_j: meter_joules(meter) - joules_before,
        active_rows,
        substeps,
    }
}

/// Time the program's own energy diagnostic on the final state; traced
/// repetitions only, so untraced ones stay comparable to the parent's.
fn energy_diagnostic(sim: &impl Stepper, sink: &Option<Arc<Telemetry>>, rank: u32) -> f64 {
    if sink.is_none() {
        return 0.0;
    }
    let _span = bench_span(sink, "TotalEnergy", rank);
    let started = Instant::now();
    std::hint::black_box(sim.total_energy());
    started.elapsed().as_secs_f64()
}

/// Build the single rank's meter and simulation.
fn build_single(
    w: &Workload,
    seed: u64,
    gpu: &GpuHandle,
    placement: &RankPlacement,
    sink: &Option<Arc<Telemetry>>,
) -> (Simulation, Arc<PowerMeter>) {
    let meter = rank_meter(gpu, placement);
    let _span = bench_span(sink, "Setup", placement.rank);
    let mut sim = Simulation::from_scenario(w.scenario_ref(), w.n, seed)
        .with_hooks(ProfilingHooks::new(Arc::clone(&meter)))
        .with_timestep_bins(w.bins);
    if let Some(s) = sink {
        sim = sim.with_telemetry(Arc::clone(s));
    }
    (sim, meter)
}

/// Build one rank's meter and shard: the initial conditions, their
/// decomposition, and a barrier so every rank is ready.
fn build_shard(
    w: &Workload,
    seed: u64,
    ctx: RankContext,
    sink: &Option<Arc<Telemetry>>,
) -> (DistributedSimulation, Arc<PowerMeter>) {
    let meter = rank_meter(&ctx.gpu, &ctx.placement);
    let _span = bench_span(sink, "Setup", ctx.rank);
    let mut sim = DistributedSimulation::from_scenario(ctx.comm, w.scenario_ref(), w.n, seed)
        .with_hooks(ProfilingHooks::new(Arc::clone(&meter)))
        .with_timestep_bins(w.bins);
    if let Some(s) = sink {
        sim = sim.with_telemetry(Arc::clone(s));
    }
    sim.comm().barrier();
    (sim, meter)
}

/// Time `count` set-ups of `w`, one after the other: cluster, comm world on
/// several ranks, initial conditions, construction and decomposition.
pub fn time_setups(w: &Workload, seed: u64, count: usize) -> Vec<f64> {
    (0..count)
        .map(|_| {
            let started = Instant::now();
            let cluster = cluster::Cluster::with_gpu_dies(SystemKind::CscsA100, w.ranks);
            let mapping = RankMapping::one_rank_per_die_limited(&cluster, w.ranks);
            if w.ranks == 1 {
                let gpu = mapping.gpu(&cluster, 0).expect("rank 0 has a die");
                let placement = mapping.placement(0).expect("rank 0 is placed");
                let built = build_single(w, seed, gpu, placement, &None);
                let elapsed = started.elapsed().as_secs_f64();
                drop(built);
                elapsed
            } else {
                cluster::run_ranks_with(&cluster, &mapping, TransportKind::Shm, |ctx| {
                    let built = build_shard(w, seed, ctx, &None);
                    let elapsed = started.elapsed().as_secs_f64();
                    drop(built);
                    elapsed
                })
                .into_iter()
                .fold(0.0, f64::max)
            }
        })
        .collect()
}

/// One single-rank repetition: set up, advance, and (traced) time the
/// energy diagnostic.
fn run_single(
    w: &Workload,
    seed: u64,
    gpu: &GpuHandle,
    placement: &RankPlacement,
    sink: &Option<Arc<Telemetry>>,
) -> RankOutcome {
    let rank = placement.rank;
    let (mut sim, meter) = build_single(w, seed, gpu, placement, sink);
    let stepped = advance(&mut sim, w, &meter, sink, rank);
    let energy_diag_s = energy_diagnostic(&sim, sink, rank);
    let ids = sim.original_indices().to_vec();
    RankOutcome::new(stepped, energy_diag_s, sim.time(), ids, sim.particles().clone(), &meter)
}

/// One rank's share of a sharded repetition; every rank calls it together.
fn run_shard(w: &Workload, seed: u64, ctx: RankContext, sink: &Option<Arc<Telemetry>>) -> RankOutcome {
    let rank = ctx.rank;
    let (mut sim, meter) = build_shard(w, seed, ctx, sink);
    let comm_before = sim.comm().stats();
    let stepped = advance(&mut sim, w, &meter, sink, rank);
    let comm_after = sim.comm().stats();
    let energy_diag_s = energy_diagnostic(&sim, sink, rank);
    let comm = CommStatsSnapshot {
        rows: comm_after
            .rows
            .iter()
            .zip(&comm_before.rows)
            .map(|(a, b)| cluster::CommStatsRow {
                kind: a.kind,
                calls: a.calls - b.calls,
                messages: a.messages - b.messages,
                bytes: a.bytes - b.bytes,
            })
            .collect(),
    };
    let overlap = sim.overlap_stats();
    let time = sim.time();
    let (ids, particles) = sim.into_shard();
    RankOutcome {
        comm: Some(comm),
        overlap,
        ..RankOutcome::new(stepped, energy_diag_s, time, ids, particles, &meter)
    }
}

/// Run one repetition of `w`. `horizon` is the physical time the run's first
/// repetition reached; every later one must reach it bit for bit.
pub fn run_rep(w: &Workload, seed: u64, reference: &Reference, traced: bool, horizon: Option<f64>) -> Rep {
    let sink = traced.then(|| Arc::new(Telemetry::new()));
    let cluster = cluster::Cluster::with_gpu_dies(SystemKind::CscsA100, w.ranks);
    let mapping = RankMapping::one_rank_per_die_limited(&cluster, w.ranks);
    // A single rank runs on the calling thread, as a user drives a
    // `Simulation`.
    let outcomes = if w.ranks == 1 {
        let gpu = mapping.gpu(&cluster, 0).expect("rank 0 has a die");
        let placement = mapping.placement(0).expect("rank 0 is placed");
        vec![run_single(w, seed, gpu, placement, &sink)]
    } else {
        cluster::run_ranks_with(&cluster, &mapping, TransportKind::Shm, |ctx| {
            run_shard(w, seed, ctx, &sink)
        })
    };
    let (checks, drift) = check_outputs(w, reference, &outcomes, horizon);
    let rank0 = &outcomes[0];
    let trace = sink.map(|sink| Trace {
        events: sink.events_snapshot(),
        sink,
        records: outcomes
            .iter()
            .enumerate()
            .map(|(r, o)| (r as u32, o.records.clone()))
            .collect(),
        dropped: outcomes.iter().map(|o| o.dropped).sum(),
        comm: outcomes.iter().filter_map(|o| o.comm.clone()).collect(),
        overlap: outcomes.iter().map(|o| o.overlap).collect(),
        energy_diag_s: rank0.energy_diag_s,
        active_rows: outcomes.iter().map(|o| o.active_rows).sum(),
        substeps: rank0.substeps,
    });
    Rep {
        tts_s: rank0.tts_s,
        base_step_s: rank0.base_step_s.clone(),
        energy_j: outcomes.iter().map(|o| o.energy_j).sum(),
        final_time: rank0.time,
        drift,
        checks,
        trace,
    }
}

/// Density-weighted radius of the outward-streaming shell: the shock-front
/// locator of the `timestep_bins_smoke` gate and Sedov's `validate()`.
fn shock_front_radius(p: &ParticleSet) -> f64 {
    let mut weighted_r = 0.0;
    let mut weight = 0.0;
    for i in 0..p.len() {
        let dx = p.x[i] - 0.5;
        let dy = p.y[i] - 0.5;
        let dz = p.z[i] - 0.5;
        let r = (dx * dx + dy * dy + dz * dz).sqrt().max(1e-9);
        let v_r = (p.vx[i] * dx + p.vy[i] * dy + p.vz[i] * dz) / r;
        let w = (p.m[i] * v_r).max(0.0);
        weighted_r += w * r;
        weight += w;
    }
    if weight > 0.0 {
        weighted_r / weight
    } else {
        f64::NAN
    }
}

fn all_fields_finite(p: &ParticleSet) -> bool {
    [
        &p.x, &p.y, &p.z, &p.vx, &p.vy, &p.vz, &p.m, &p.h, &p.rho, &p.u, &p.p, &p.c, &p.omega, &p.div_v, &p.curl_v,
        &p.alpha, &p.ax, &p.ay, &p.az, &p.du,
    ]
    .iter()
    .all(|field| field.iter().all(|v| v.is_finite()))
}

/// The output checks of one repetition, over the final state of every rank.
/// Also returns the energy drift from t = 0.
fn check_outputs(w: &Workload, reference: &Reference, outcomes: &[RankOutcome], horizon: Option<f64>) -> (Checks, f64) {
    let mut checks = Checks::default();
    let finite = outcomes.iter().all(|o| all_fields_finite(&o.particles));
    checks.check(finite, || "a particle field is not finite".to_string());

    // Reassemble the global state in construction order.
    let owned: usize = outcomes.iter().map(|o| o.ids.len()).sum();
    checks.check(owned == reference.n, || {
        format!("{owned} particles at the horizon, {} at t = 0", reference.n)
    });
    // (rank, slot) holding each global id, and how many ranks own it.
    let mut slot_of = vec![(0, 0); reference.n];
    let mut owner_count = vec![0u32; reference.n];
    for (r, o) in outcomes.iter().enumerate() {
        for (i, &id) in o.ids.iter().enumerate() {
            if let Some(c) = owner_count.get_mut(id as usize) {
                *c += 1;
                slot_of[id as usize] = (r, i);
            }
        }
    }
    let owned_once = owner_count.iter().all(|&c| c == 1);
    if w.ranks > 1 {
        checks.check(owned_once, || "a global id is not owned exactly once".to_string());
    }
    let mut global = ParticleSet::with_capacity(reference.n);
    if owned_once {
        for &(r, i) in &slot_of {
            let p = &outcomes[r].particles;
            global.push(
                p.x[i], p.y[i], p.z[i], p.vx[i], p.vy[i], p.vz[i], p.m[i], p.h[i], p.u[i],
            );
        }
    }
    let mass: f64 = global.m.iter().sum();
    checks.check(owned_once && mass == reference.mass, || {
        format!("total mass {mass} at the horizon, {} at t = 0", reference.mass)
    });

    let t = outcomes[0].time;
    let same_time = outcomes.iter().all(|o| o.time.to_bits() == t.to_bits());
    let horizon_ok = same_time && t.is_finite() && t > 0.0 && horizon.is_none_or(|h| h.to_bits() == t.to_bits());
    checks.check(horizon_ok, || {
        format!("reached t = {t}, the run's horizon is {horizon:?} (ranks agree: {same_time})")
    });

    let energy = conserved_energy(&global, reference.with_gravity);
    let drift = (energy - reference.energy).abs() / reference.energy.abs().max(1e-12);
    checks.check(owned_once && drift <= w.drift_bound, || {
        format!("energy drift {drift:.4} from t = 0 exceeds {}", w.drift_bound)
    });

    if w.is_sedov() {
        let front = shock_front_radius(&global);
        let expected = sedov_shock_radius(SEDOV_E0, SEDOV_RHO0, t);
        let band = 0.6 * expected..=1.4 * expected;
        checks.check(front.is_finite() && band.contains(&front), || {
            format!(
                "shock front r = {front:.4} outside [{:.4}, {:.4}]",
                band.start(),
                band.end()
            )
        });
    }
    (checks, drift)
}
