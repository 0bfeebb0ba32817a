//! Exclusive-time fold over a telemetry span stream.
//!
//! A span's *self time* is its duration minus the durations of its direct
//! children (spans whose `parent` id is its id). Summed over a span and all
//! its descendants, self times give back the span's duration exactly, so
//! every microsecond of a `Step` span is charged to exactly one span: a stage
//! nested in another stage (`MomentumInterior`/`MomentumHalo`/
//! `GhostExchangeWait` inside `MomentumEnergy` on shards), or the `Step`
//! span itself — the unattributed remainder.
//!
//! Stage energies follow the same rule. A pmt record measures one stage
//! region; its joules are split over the stage span that opened the region
//! and the telemetry-only spans nested in it, in proportion to their self
//! times, so the per-label energies are exclusive too and add up to the
//! recorded total.

use pmt::MeasurementRecord;
use std::collections::{BTreeMap, HashMap};
use telemetry::{Event, EventKind};

/// Category of the per-step span both propagators open.
const STEP_CAT: &str = "step";
/// Category of the per-stage spans both propagators open.
const STAGE_CAT: &str = "stage";

/// One completed span with its exclusive time.
#[derive(Clone, Debug, PartialEq)]
pub struct FoldedSpan {
    pub id: u64,
    pub parent: Option<u64>,
    pub seq: u64,
    pub rank: u32,
    pub cat: &'static str,
    pub name: String,
    pub dur_us: u64,
    /// `dur_us` minus the summed `dur_us` of the direct children. Signed:
    /// microsecond rounding can make children cover a hair more than the
    /// parent, and keeping the sign keeps the sums exact.
    pub self_us: i64,
}

/// Fold every span event of `events` into its exclusive time.
pub fn exclusive_times(events: &[Event]) -> Vec<FoldedSpan> {
    let mut children_us: HashMap<u64, u64> = HashMap::new();
    for e in events {
        if let EventKind::Span {
            parent: Some(p),
            dur_us,
            ..
        } = e.kind
        {
            *children_us.entry(p).or_default() += dur_us;
        }
    }
    events
        .iter()
        .filter_map(|e| match e.kind {
            EventKind::Span { id, parent, dur_us } => Some(FoldedSpan {
                id,
                parent,
                seq: e.seq,
                rank: e.rank,
                cat: e.cat,
                name: e.name.clone(),
                dur_us,
                self_us: dur_us as i64 - children_us.get(&id).copied().unwrap_or(0) as i64,
            }),
            _ => None,
        })
        .collect()
}

/// Per-rank totals of the step and stage spans, in microseconds.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct StepTimes {
    /// Summed `Step` span duration per rank.
    pub step_us: BTreeMap<u32, u64>,
    /// Summed `Step` self time per rank: the part no stage span covers.
    pub unattributed_us: BTreeMap<u32, i64>,
    /// Summed stage self time per `(rank, label)`.
    pub stage_self_us: BTreeMap<(u32, String), i64>,
    /// Summed stage span duration (inclusive of nested stages) per `(rank, label)`.
    pub stage_dur_us: BTreeMap<(u32, String), u64>,
}

impl StepTimes {
    /// Total over ranks of the self time of `label`.
    pub fn self_us(&self, label: &str) -> i64 {
        self.stage_self_us
            .iter()
            .filter(|((_, l), _)| l == label)
            .map(|(_, &us)| us)
            .sum()
    }

    /// Total over ranks of the inclusive span time of `label`.
    pub fn dur_us(&self, label: &str) -> u64 {
        self.stage_dur_us
            .iter()
            .filter(|((_, l), _)| l == label)
            .map(|(_, &us)| us)
            .sum()
    }
}

/// Sum the step and stage spans of a fold per rank.
pub fn step_times(spans: &[FoldedSpan]) -> StepTimes {
    let mut out = StepTimes::default();
    for s in spans {
        match s.cat {
            STEP_CAT => {
                *out.step_us.entry(s.rank).or_default() += s.dur_us;
                *out.unattributed_us.entry(s.rank).or_default() += s.self_us;
            }
            STAGE_CAT => {
                let key = (s.rank, s.name.clone());
                *out.stage_self_us.entry(key.clone()).or_default() += s.self_us;
                *out.stage_dur_us.entry(key).or_default() += s.dur_us;
            }
            _ => {}
        }
    }
    out
}

/// Exclusive stage energies, matched from pmt records onto stage spans.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct StageEnergy {
    /// Joules per stage label, summed over ranks.
    pub energy_j: BTreeMap<String, f64>,
    /// Per matched region: stage-span duration minus record duration, in µs
    /// (the time the span covers that the pmt region does not).
    pub overhead_us: Vec<f64>,
}

/// Match each rank's pmt records to its stage spans and split the recorded
/// joules into exclusive per-label energies.
///
/// Records do not nest on a rank, and a stage span closes right after its
/// region ends, so within one rank the spans whose label some record carries
/// appear in the same order as the records. A count or label mismatch is
/// reported as an error: the two streams no longer describe the same work.
pub fn stage_energy(
    spans: &[FoldedSpan],
    records: &BTreeMap<u32, Vec<MeasurementRecord>>,
) -> Result<StageEnergy, String> {
    let by_id: HashMap<u64, &FoldedSpan> = spans.iter().map(|s| (s.id, s)).collect();
    // Span id -> (joules, duration) of the record measured inside it.
    let mut measured: HashMap<u64, (f64, u64)> = HashMap::new();
    let mut out = StageEnergy::default();
    for (&rank, recs) in records {
        let labels: std::collections::BTreeSet<&str> = recs.iter().map(|r| r.label.as_str()).collect();
        let mut matched: Vec<&FoldedSpan> = spans
            .iter()
            .filter(|s| s.rank == rank && s.cat == STAGE_CAT && labels.contains(s.name.as_str()))
            .collect();
        matched.sort_by_key(|s| s.seq);
        if matched.len() != recs.len() {
            return Err(format!(
                "rank {rank}: {} pmt records but {} matching stage spans",
                recs.len(),
                matched.len()
            ));
        }
        for (span, rec) in matched.iter().zip(recs) {
            if span.name != rec.label {
                return Err(format!(
                    "rank {rank}: stage span {} lines up with pmt record {}",
                    span.name, rec.label
                ));
            }
            measured.insert(span.id, (rec.energy_j.values().sum(), span.dur_us));
            out.overhead_us.push(span.dur_us as f64 - rec.duration_s() * 1e6);
        }
    }
    for s in spans.iter().filter(|s| s.cat == STAGE_CAT) {
        // The nearest enclosing span (or the span itself) that a record measured.
        let mut cursor = Some(s);
        while let Some(c) = cursor {
            if let Some(&(joules, dur_us)) = measured.get(&c.id) {
                let share = if dur_us == 0 {
                    if c.id == s.id {
                        1.0
                    } else {
                        0.0
                    }
                } else {
                    s.self_us as f64 / dur_us as f64
                };
                *out.energy_j.entry(s.name.clone()).or_default() += joules * share;
                break;
            }
            cursor = c.parent.and_then(|p| by_id.get(&p).copied());
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use pmt::Domain;

    fn span(seq: u64, id: u64, parent: Option<u64>, rank: u32, cat: &'static str, name: &str, dur_us: u64) -> Event {
        Event {
            seq,
            ts_us: 0,
            rank,
            thread: rank,
            cat,
            name: name.to_string(),
            args: Vec::new(),
            kind: EventKind::Span { id, parent, dur_us },
        }
    }

    /// One sharded step per rank, in completion order: the pre-momentum
    /// stages run twice (exported rows, then the rest), the momentum halves
    /// and the exchange wait nest in `MomentumEnergy`, and a benchmark span
    /// encloses the `Step`.
    fn sharded_step(rank: u32, base: u64) -> Vec<Event> {
        let id = |k: u64| base + k;
        vec![
            span(base, id(2), Some(id(1)), rank, STAGE_CAT, "XMass", 20),
            span(base + 1, id(3), Some(id(1)), rank, STAGE_CAT, "GhostExchangePost", 4),
            span(base + 2, id(4), Some(id(1)), rank, STAGE_CAT, "XMass", 10),
            span(base + 3, id(6), Some(id(5)), rank, STAGE_CAT, "MomentumInterior", 20),
            span(base + 4, id(7), Some(id(5)), rank, STAGE_CAT, "GhostExchangeWait", 5),
            span(base + 5, id(8), Some(id(5)), rank, STAGE_CAT, "MomentumHalo", 15),
            span(base + 6, id(5), Some(id(1)), rank, STAGE_CAT, "MomentumEnergy", 50),
            span(base + 7, id(1), Some(id(0)), rank, STEP_CAT, "Step", 100),
            span(base + 8, id(0), None, rank, "bench", "BaseStep", 130),
        ]
    }

    fn record(label: &str, joules: f64, dur_s: f64) -> MeasurementRecord {
        MeasurementRecord {
            label: label.to_string(),
            rank: 0,
            iteration: None,
            start_s: 0.0,
            end_s: dur_s,
            energy_j: [(Domain::gpu(0), joules)].into_iter().collect(),
        }
    }

    #[test]
    fn nested_and_repeated_stages_fold_to_exclusive_time() {
        let mut events = sharded_step(0, 0);
        events.extend(sharded_step(1, 100));
        let spans = exclusive_times(&events);
        let times = step_times(&spans);
        for rank in 0..2 {
            assert_eq!(times.step_us[&rank], 100);
            assert_eq!(times.unattributed_us[&rank], 100 - 20 - 4 - 10 - 50);
            let at = |label: &str| times.stage_self_us[&(rank, label.to_string())];
            assert_eq!(at("XMass"), 30, "both passes count");
            assert_eq!(at("MomentumEnergy"), 10, "nested halves and wait excluded");
            assert_eq!(at("MomentumInterior"), 20);
            assert_eq!(at("GhostExchangeWait"), 5);
            assert_eq!(at("MomentumHalo"), 15);
            assert_eq!(times.stage_dur_us[&(rank, "MomentumEnergy".to_string())], 50);
        }
        // Every microsecond of the Step spans lands in exactly one bucket.
        let stage_total: i64 = times.stage_self_us.values().sum();
        let unattributed: i64 = times.unattributed_us.values().sum();
        let step_total: u64 = times.step_us.values().sum();
        assert_eq!(stage_total + unattributed, step_total as i64);
        // The benchmark span's own time is what the Step span leaves.
        let bench = spans.iter().find(|s| s.name == "BaseStep" && s.rank == 0).unwrap();
        assert_eq!(bench.self_us, 30);
    }

    #[test]
    fn record_energy_splits_over_nested_spans_by_self_time() {
        let events = sharded_step(0, 0);
        let spans = exclusive_times(&events);
        let records: BTreeMap<u32, Vec<MeasurementRecord>> = [(
            0,
            vec![
                record("XMass", 2.0, 19e-6),
                record("GhostExchangePost", 0.4, 4e-6),
                record("XMass", 1.0, 9e-6),
                record("MomentumEnergy", 5.0, 48e-6),
            ],
        )]
        .into_iter()
        .collect();
        let energy = stage_energy(&spans, &records).unwrap();
        let j = |label: &str| energy.energy_j[label];
        assert!((j("XMass") - 3.0).abs() < 1e-12);
        assert!((j("GhostExchangePost") - 0.4).abs() < 1e-12);
        assert!((j("MomentumEnergy") - 1.0).abs() < 1e-12);
        assert!((j("MomentumInterior") - 2.0).abs() < 1e-12);
        assert!((j("GhostExchangeWait") - 0.5).abs() < 1e-12);
        assert!((j("MomentumHalo") - 1.5).abs() < 1e-12);
        let total: f64 = energy.energy_j.values().sum();
        assert!((total - 8.4).abs() < 1e-12, "exclusive energies add up to the records");
        let mean_overhead = energy.overhead_us.iter().sum::<f64>() / energy.overhead_us.len() as f64;
        assert!((mean_overhead - 1.0).abs() < 1e-6);
    }

    #[test]
    fn mismatched_records_are_reported() {
        let spans = exclusive_times(&sharded_step(0, 0));
        let records: BTreeMap<u32, Vec<MeasurementRecord>> = [(
            0,
            vec![record("MomentumEnergy", 5.0, 48e-6), record("XMass", 2.0, 19e-6)],
        )]
        .into_iter()
        .collect();
        assert!(stage_energy(&spans, &records).is_err());
    }
}
