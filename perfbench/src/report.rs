//! Metrics from repetitions: the end-to-end set from untraced repetitions and
//! the per-layer set from traced ones, plus the result line.

use crate::fold::{exclusive_times, stage_energy, step_times};
use crate::workload::{Checks, Rep, Workload};
use sphsim::SphStage;

/// One named measurement.
#[derive(Clone, Debug, PartialEq)]
pub struct Metric {
    pub name: String,
    pub unit: &'static str,
    pub value: f64,
}

fn metric(name: impl Into<String>, unit: &'static str, value: f64) -> Metric {
    Metric {
        name: name.into(),
        unit,
        value,
    }
}

/// Median of a non-empty sample (mean of the middle pair for even sizes).
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of an empty sample");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        0.5 * (v[mid - 1] + v[mid])
    }
}

/// Peak resident set of this process (`VmHWM`), in MiB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(f64::NAN, |kib| kib / 1024.0)
}

/// End-to-end metrics over untraced repetitions, with tracing off.
/// `setup_s` takes the median over the run's set-ups; `peak_rss_mb` is
/// the process's high-water mark after its first repetition.
pub fn end_to_end(reps: &[Rep], setups_s: &[f64], peak_rss_mb: f64, checks: &Checks) -> Vec<Metric> {
    let tts: Vec<f64> = reps.iter().map(|r| r.tts_s).collect();
    let steps: Vec<f64> = reps.iter().flat_map(|r| r.base_step_s.iter().copied()).collect();
    let energy: Vec<f64> = reps.iter().map(|r| r.energy_j).collect();
    let passed = checks.attempted - checks.failed.len() as u64;
    vec![
        metric("time_to_solution_s", "s", median(&tts)),
        metric("step_s_p50", "s", median(&steps)),
        metric("energy_j", "J", median(&energy)),
        metric("setup_s", "s", median(setups_s)),
        metric("peak_rss_mb", "MiB", peak_rss_mb),
        metric(
            "checks_passed_frac",
            "fraction",
            passed as f64 / checks.attempted.max(1) as f64,
        ),
    ]
}

/// Every stage label the per-layer metrics name: the pipeline stages both
/// propagators span, plus the spans the sharded propagator nests in
/// `MomentumEnergy` and opens around the mid-step ghost exchange.
pub fn stage_labels() -> Vec<&'static str> {
    let mut labels: Vec<&'static str> = SphStage::all()
        .into_iter()
        .filter(|s| *s != SphStage::Turbulence)
        .map(|s| s.label())
        .collect();
    labels.extend([
        "MomentumInterior",
        "MomentumHalo",
        "GhostExchangePost",
        "GhostExchangeWait",
    ]);
    labels
}

/// Stages whose work is a pass over rows, which get a `rows_per_s` rate.
const ROW_STAGES: [&str; 6] = [
    "FindNeighbors",
    "XMass",
    "NormalizationGradh",
    "IADVelocityDivCurl",
    "MomentumEnergy",
    "Gravity",
];

/// Stages that spend their time communicating rather than computing.
fn is_comm_stage(label: &str) -> bool {
    SphStage::from_label(label).is_some_and(|s| s.is_communication()) || label.starts_with("GhostExchange")
}

/// Per-layer metrics over traced repetitions of a run of `n_particles`
/// particles; `untraced_tts` gives the base of the tracing overhead. Problems
/// found while folding (a pmt record that no stage span lines up with, a fold
/// that does not close) are added to `checks`.
pub fn per_layer(
    w: &Workload,
    n_particles: usize,
    traced: &[Rep],
    untraced_tts: &[f64],
    checks: &mut Checks,
) -> Vec<Metric> {
    let mut spans = Vec::new();
    let mut energy_by_label = std::collections::BTreeMap::<String, f64>::new();
    let mut overhead_us = Vec::new();
    let (mut active_rows, mut substeps, mut records, mut dropped) = (0u64, 0u64, 0u64, 0u64);
    let (mut messages, mut calls) = (0u64, 0u64);
    let mut overlap = sphsim::OverlapStats::default();
    let mut hist_sum = 0.0;
    let mut diag = Vec::new();
    for rep in traced {
        let trace = rep.trace.as_ref().expect("traced repetition carries its trace");
        let folded = exclusive_times(&trace.events);
        match stage_energy(&folded, &trace.records) {
            Ok(e) => {
                for (label, j) in e.energy_j {
                    *energy_by_label.entry(label).or_default() += j;
                }
                overhead_us.extend(e.overhead_us);
            }
            Err(why) => checks.check(false, || format!("pmt records vs stage spans: {why}")),
        }
        spans.extend(folded);
        active_rows += trace.active_rows;
        substeps += trace.substeps;
        records += trace.records.values().map(|r| r.len() as u64).sum::<u64>();
        dropped += trace.dropped;
        for snapshot in &trace.comm {
            messages += snapshot.total_messages();
            calls += snapshot.rows.iter().map(|r| r.calls).sum::<u64>();
        }
        for o in &trace.overlap {
            overlap.merge(o);
        }
        if let Some(h) = trace.sink.metrics().snapshot().histogram("health.neighbor_count") {
            hist_sum += h.sum;
        }
        diag.push(trace.energy_diag_s);
    }

    let times = step_times(&spans);
    let ranks = w.ranks as f64;
    let base_steps = (w.base_steps * traced.len() as u64) as f64;
    // Time metrics are per base step and per rank (the mean rank).
    let per_step = |us: f64| us * 1e-6 / (base_steps * ranks);
    let step_us: u64 = times.step_us.values().sum();
    let unattributed_us: i64 = times.unattributed_us.values().sum();
    let stage_us: i64 = times.stage_self_us.values().sum();
    let closes = (stage_us + unattributed_us - step_us as i64).abs() as f64 <= 0.01 * step_us as f64;
    checks.check(closes && step_us > 0, || {
        format!("stage self time {stage_us} us + unattributed {unattributed_us} us != Step spans {step_us} us")
    });

    let mut out = vec![
        metric("step.span_s", "s", per_step(step_us as f64)),
        metric("step.unattributed_s", "s", per_step(unattributed_us as f64)),
        metric("energy_diag_s", "s", median(&diag)),
    ];
    for label in stage_labels() {
        let self_us = times.self_us(label) as f64;
        out.push(metric(format!("stage.{label}.self_s"), "s", per_step(self_us)));
        let joules = energy_by_label.get(label).copied().unwrap_or(0.0);
        out.push(metric(format!("stage.{label}.energy_j"), "J", joules / base_steps));
    }
    for label in ROW_STAGES {
        // Inclusive span time: on shards MomentumEnergy's kernels run in its
        // nested Interior/Halo spans.
        let busy_s = times.dur_us(label) as f64 * 1e-6;
        let rate = if busy_s > 0.0 { active_rows as f64 / busy_s } else { 0.0 };
        out.push(metric(format!("stage.{label}.rows_per_s"), "rows/s", rate));
    }

    out.push(metric(
        "bins.active_row_frac",
        "fraction",
        active_rows as f64 / (substeps as f64 * n_particles as f64).max(1.0),
    ));
    out.push(metric("bins.substeps_per_cycle", "count", substeps as f64 / base_steps));
    out.push(metric(
        "neighbors.mean",
        "count",
        hist_sum / (active_rows as f64).max(1.0),
    ));

    // The comm-layer names are the benchmark's own metric names, under the
    // `comm.` root BENCHMARK.json gives them; no telemetry stream carries them.
    let rank_steps = base_steps * ranks;
    // sphlint::allow(telemetry-naming, "BENCHMARK.json per-layer metric name, not a telemetry name")
    out.push(metric("comm.messages_per_step", "count", messages as f64 / base_steps));
    // sphlint::allow(telemetry-naming, "BENCHMARK.json per-layer metric name, not a telemetry name")
    out.push(metric("comm.calls_per_step", "count", calls as f64 / base_steps));
    // sphlint::allow(telemetry-naming, "BENCHMARK.json per-layer metric name, not a telemetry name")
    out.push(metric("comm.waited_s", "s", overlap.waited_s / rank_steps));
    // sphlint::allow(telemetry-naming, "BENCHMARK.json per-layer metric name, not a telemetry name")
    out.push(metric("comm.overlapped_s", "s", overlap.overlapped_s / rank_steps));
    // sphlint::allow(telemetry-naming, "BENCHMARK.json per-layer metric name, not a telemetry name")
    out.push(metric("comm.hidden_frac", "fraction", overlap.hidden_fraction()));
    out.push(metric("rank.imbalance", "ratio", rank_imbalance(&times)));

    out.push(metric("pmt.records_per_step", "count", records as f64 / base_steps));
    out.push(metric("pmt.dropped", "count", dropped as f64));
    let region_overhead = if overhead_us.is_empty() {
        0.0
    } else {
        overhead_us.iter().sum::<f64>() / overhead_us.len() as f64
    };
    out.push(metric("pmt.region_overhead_us", "us", region_overhead));

    let traced_tts: Vec<f64> = traced.iter().map(|r| r.tts_s).collect();
    out.push(metric(
        "telemetry.overhead_frac",
        "fraction",
        median(&traced_tts) / median(untraced_tts) - 1.0,
    ));
    out
}

/// Slowest rank's compute self time over the mean rank's.
fn rank_imbalance(times: &crate::fold::StepTimes) -> f64 {
    let mut per_rank = std::collections::BTreeMap::<u32, i64>::new();
    for ((rank, label), &us) in &times.stage_self_us {
        if !is_comm_stage(label) {
            *per_rank.entry(*rank).or_default() += us;
        }
    }
    if per_rank.is_empty() {
        return 1.0;
    }
    let max = per_rank.values().copied().max().unwrap_or(0) as f64;
    let mean = per_rank.values().sum::<i64>() as f64 / per_rank.len() as f64;
    if mean > 0.0 {
        max / mean
    } else {
        1.0
    }
}

/// The result line: the contract's four keys, metrics in the order given.
pub fn result_json(correct: bool, checks: &Checks, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            let value = if m.value.is_finite() {
                format!("{:?}", m.value)
            } else {
                "null".to_string()
            };
            format!("\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}", m.name, m.unit)
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        checks.attempted,
        checks.failed.len(),
        body.join(", ")
    )
}
