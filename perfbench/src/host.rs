//! Host fingerprint and the benchmark's result history.
//!
//! Every result is appended to a JSONL history with the fingerprint of the
//! host that produced it. Timings from different hosts are not comparable,
//! so the history summary only ever groups entries of the current host.

use crate::report::{median, Metric};
use std::collections::BTreeMap;
use std::io::Write as _;
use std::path::Path;

/// What a result depends on besides the code: cores, the SIMD path the
/// neighbour search takes, threads, compiler and commit.
#[derive(Clone, Debug, PartialEq)]
pub struct Host {
    pub nproc: usize,
    pub simd: &'static str,
    pub worker_threads: usize,
    pub rustc: String,
    pub commit: String,
}

impl Host {
    pub fn detect(worker_threads: usize, rustc: &str, commit: &str) -> Self {
        Self {
            nproc: nproc(),
            simd: simd_path(),
            worker_threads,
            rustc: rustc.to_string(),
            commit: commit.to_string(),
        }
    }

    /// The part of the fingerprint that decides whether two results may be
    /// compared (the commit is what a comparison varies).
    pub fn key(&self) -> String {
        format!("nproc={} simd={} rustc={}", self.nproc, self.simd, self.rustc)
    }

    pub fn to_json(&self) -> String {
        format!(
            "{{\"key\": {}, \"nproc\": {}, \"simd\": \"{}\", \"worker_threads\": {}, \"rustc\": {}, \"commit\": {}}}",
            json_str(&self.key()),
            self.nproc,
            self.simd,
            self.worker_threads,
            json_str(&self.rustc),
            json_str(&self.commit)
        )
    }
}

pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// The SIMD path `sphsim::celllist` selects at run time.
fn simd_path() -> &'static str {
    #[cfg(target_arch = "x86_64")]
    {
        if std::arch::is_x86_feature_detected!("avx512f") && std::arch::is_x86_feature_detected!("avx512vl") {
            return "avx512";
        }
        if std::arch::is_x86_feature_detected!("avx2") {
            return "avx2";
        }
    }
    "portable"
}

fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// One history line: host, workload, seed, repetition count and metrics.
pub fn history_line(
    host: &Host,
    workload: &str,
    seed: u64,
    trace: bool,
    reps: usize,
    correct: bool,
    metrics: &[Metric],
) -> String {
    let body: Vec<String> = metrics
        .iter()
        .filter(|m| m.value.is_finite())
        .map(|m| format!("{}: {:?}", json_str(&m.name), m.value))
        .collect();
    format!(
        "{{\"host\": {}, \"workload\": {}, \"seed\": {seed}, \"trace\": {}, \"reps\": {reps}, \"correct\": {correct}, \"metrics\": {{{}}}}}",
        host.to_json(),
        json_str(workload),
        u8::from(trace),
        body.join(", ")
    )
}

pub fn append_history(path: &Path, line: &str) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut f = std::fs::OpenOptions::new().create(true).append(true).open(path)?;
    f.write_all(line.as_bytes())?;
    f.write_all(b"\n")?;
    f.sync_all()
}

/// Medians of every metric per (commit, workload, trace) over the history
/// entries of the host `key`, as printable lines. Entries of other hosts are
/// counted and skipped.
pub fn summarize_history(text: &str, key: &str) -> Vec<String> {
    type Group = BTreeMap<String, Vec<f64>>;
    let mut groups: BTreeMap<(String, String, u8), Group> = BTreeMap::new();
    let mut other_hosts = 0usize;
    for line in text.lines().filter(|l| !l.trim().is_empty()) {
        let Ok(entry) = telemetry::json::parse(line) else {
            continue;
        };
        let host = entry.get("host");
        if host.and_then(|h| h.get("key")).and_then(|k| k.as_str()) != Some(key) {
            other_hosts += 1;
            continue;
        }
        let commit = host.and_then(|h| h.get("commit")).and_then(|c| c.as_str()).unwrap_or("?");
        let workload = entry.get("workload").and_then(|w| w.as_str()).unwrap_or("?");
        let trace = entry.get("trace").and_then(|t| t.as_f64()).unwrap_or(0.0) as u8;
        let group = groups.entry((commit.to_string(), workload.to_string(), trace)).or_default();
        if let Some(metrics) = entry.get("metrics").and_then(|m| m.as_object()) {
            for (name, value) in metrics {
                if let Some(v) = value.as_f64() {
                    group.entry(name.clone()).or_default().push(v);
                }
            }
        }
    }
    let mut out = vec![format!("host {key}: {other_hosts} entries from other hosts skipped")];
    for ((commit, workload, trace), metrics) in groups {
        let runs = metrics.values().map(Vec::len).max().unwrap_or(0);
        out.push(format!("{workload} trace={trace} commit={commit} ({runs} runs)"));
        for (name, values) in metrics {
            out.push(format!("  {name:<40} {:>14.6}", median(&values)));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn history_summary_keeps_to_one_host() {
        let here = Host {
            nproc: 2,
            simd: "avx2",
            worker_threads: 2,
            rustc: "rustc 1.0".to_string(),
            commit: "abc".to_string(),
        };
        let elsewhere = Host {
            nproc: 64,
            ..here.clone()
        };
        let m = |v: f64| {
            vec![Metric {
                name: "time_to_solution_s".to_string(),
                unit: "s",
                value: v,
            }]
        };
        let text = [
            history_line(&here, "evrard-1r", 1, false, 3, true, &m(1.0)),
            history_line(&here, "evrard-1r", 2, false, 3, true, &m(3.0)),
            history_line(&elsewhere, "evrard-1r", 1, false, 3, true, &m(100.0)),
        ]
        .join("\n");
        let lines = summarize_history(&text, &here.key());
        assert!(lines[0].contains("1 entries from other hosts skipped"));
        assert!(lines[1].contains("evrard-1r trace=0 commit=abc (2 runs)"));
        assert!(lines[2].contains("time_to_solution_s") && lines[2].trim_end().ends_with("2.000000"));
        assert_eq!(lines.len(), 3);
    }
}
