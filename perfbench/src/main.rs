//! `perfbench` — run one workload of the whole-step benchmark.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//!           [--out-dir <dir>] [--rustc <version>] [--commit <id>]
//! perfbench --history [--out-dir <dir>] [--rustc <version>]
//! ```
//!
//! Repeats the workload for `--seconds`, starting no repetition that would
//! end past them (but running at least one, and one traced with `--trace 1`).
//! With `--trace 0` every repetition runs with tracing off and the end-to-end
//! metrics are printed; with `--trace 1` untraced and traced repetitions
//! alternate, the per-layer metrics come from the traced ones, and the last
//! traced repetition's Chrome trace is written to
//! `<out-dir>/<workload>.trace.json`. Every metric is printed by name with
//! its unit; the last line of standard output is the JSON result. Each
//! result is also appended to `<out-dir>/history.jsonl` with the host
//! fingerprint; `--history` summarises that file for the current host only.

use perfbench::host::{self, Host};
use perfbench::report::{self, Metric};
use perfbench::workload::{run_rep, time_setups, Checks, Reference, Rep, Workload};
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

/// Set-ups timed per run; `setup_s` is their median.
const SETUPS: usize = 25;

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    history: bool,
    out_dir: PathBuf,
    rustc: String,
    commit: String,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: 1,
        seconds: 10.0,
        trace: false,
        history: false,
        out_dir: PathBuf::from("perfbench/out"),
        rustc: "unknown".to_string(),
        commit: "unknown".to_string(),
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        if flag == "--history" {
            args.history = true;
            continue;
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag}: {what}, got {value:?}");
        match flag.as_str() {
            "--workload" => args.workload = Some(value.clone()),
            "--seed" => args.seed = value.parse().map_err(|_| bad("expected an unsigned integer"))?,
            "--seconds" => {
                args.seconds = value.parse().map_err(|_| bad("expected a number"))?;
                if !(args.seconds >= 0.0 && args.seconds <= 3600.0) {
                    return Err(bad("expected 0..=3600"));
                }
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("expected 0 or 1")),
                }
            }
            "--out-dir" => args.out_dir = PathBuf::from(&value),
            "--rustc" => args.rustc = value.clone(),
            "--commit" => args.commit = value.clone(),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(args)
}

fn print_metrics(title: &str, metrics: &[Metric]) {
    println!("{title}");
    for m in metrics {
        println!("  {:<36} {:>16.6} {}", m.name, m.value, m.unit);
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(why) => {
            eprintln!("perfbench: {why}");
            return ExitCode::from(2);
        }
    };
    if args.history {
        let path = args.out_dir.join("history.jsonl");
        let text = std::fs::read_to_string(&path).unwrap_or_default();
        let key = Host::detect(0, &args.rustc, &args.commit).key();
        for line in host::summarize_history(&text, &key) {
            println!("{line}");
        }
        return ExitCode::SUCCESS;
    }
    let Some(w) = args.workload.as_deref().and_then(Workload::by_name) else {
        eprintln!("perfbench: --workload must name one of: evrard-1r, sedov-bins-1r, evrard-2r");
        return ExitCode::from(2);
    };

    // The worker count is resolved once per process, at the first kernel
    // call: fix it before anything runs, then confirm what was resolved.
    let nproc = host::nproc();
    let threads = w.threads(nproc);
    if w.ranks * threads > nproc {
        eprintln!(
            "perfbench: {} needs {} ranks x {threads} threads but the host has {nproc} cores",
            w.name, w.ranks
        );
        return ExitCode::from(2);
    }
    std::env::set_var("SPHSIM_THREADS", threads.to_string());
    std::env::remove_var("SPHSIM_TRACE");
    let resolved = sphsim::parallel::worker_threads();
    assert_eq!(
        resolved, threads,
        "sphsim resolved {resolved} worker threads, expected {threads}"
    );
    let host = Host::detect(threads, &args.rustc, &args.commit);

    // Set-ups are timed first, while the process is as fresh as a user's
    // process is when it sets up: a few-millisecond set-up moves by a quarter
    // with the allocator state that stepping leaves behind.
    let setups = time_setups(&w, args.seed, SETUPS);
    let reference = Reference::new(&w, args.seed);
    let mut untraced: Vec<Rep> = Vec::new();
    let mut traced: Vec<Rep> = Vec::new();
    let mut checks = Checks::default();
    let mut horizon = None;
    let mut peak_rss_mb = None;
    let started = Instant::now();
    loop {
        // Traced runs alternate untraced and traced repetitions, untraced first.
        let trace_this = args.trace && untraced.len() > traced.len();
        let rep = run_rep(&w, args.seed, &reference, trace_this, horizon);
        horizon.get_or_insert(rep.final_time);
        // Later repetitions only add allocator growth across repetitions.
        peak_rss_mb.get_or_insert_with(report::peak_rss_mb);
        if trace_this {
            traced.push(rep);
        } else {
            untraced.push(rep);
        }
        // Stop before a repetition that would run past the measuring window.
        let elapsed = started.elapsed().as_secs_f64();
        let per_rep = elapsed / (untraced.len() + traced.len()) as f64;
        let enough = !args.trace || !traced.is_empty();
        if enough && elapsed + per_rep > args.seconds {
            break;
        }
    }
    for rep in untraced.iter_mut().chain(traced.iter_mut()) {
        checks.merge(std::mem::take(&mut rep.checks));
    }
    let tts_ms: Vec<String> = untraced.iter().map(|r| format!("{:.0}", r.tts_s * 1e3)).collect();
    println!("untraced time to solution per repetition (ms): {}", tts_ms.join(" "));
    let max_drift = untraced.iter().chain(&traced).map(|r| r.drift).fold(0.0, f64::max);
    println!(
        "{}: N = {}, {} base steps to t = {:.6}, energy drift from t = 0 at most {max_drift:.4} (bound {})",
        w.name,
        reference.n,
        w.base_steps,
        horizon.unwrap_or(f64::NAN),
        w.drift_bound
    );

    // Per-layer folding adds its own checks, so it runs before the
    // end-to-end set counts them. Both tables are printed; the result line
    // carries the set `--trace` selects.
    let layers = args.trace.then(|| {
        let tts: Vec<f64> = untraced.iter().map(|r| r.tts_s).collect();
        report::per_layer(&w, reference.n, &traced, &tts, &mut checks)
    });
    let e2e = report::end_to_end(&untraced, &setups, peak_rss_mb.unwrap_or(f64::NAN), &checks);
    print_metrics(
        &format!("{} end-to-end metrics ({} untraced reps)", w.name, untraced.len()),
        &e2e,
    );
    if let Some(m) = &layers {
        print_metrics(
            &format!("{} per-layer metrics ({} traced reps)", w.name, traced.len()),
            m,
        );
    }
    let metrics = layers.unwrap_or(e2e);
    for why in &checks.failed {
        println!("  FAILED check: {why}");
    }
    let correct = checks.failed.is_empty() && metrics.iter().all(|m| m.value.is_finite());

    if let Some(rep) = traced.last() {
        let trace = rep.trace.as_ref().expect("traced repetition carries its trace");
        let path = args.out_dir.join(format!("{}.trace.json", w.name));
        let written = std::fs::create_dir_all(&args.out_dir)
            .and_then(|()| std::fs::write(&path, telemetry::trace::chrome_trace_json(&trace.events)));
        match written {
            Ok(()) => println!("chrome trace: {}", path.display()),
            Err(err) => eprintln!("perfbench: cannot write {}: {err}", path.display()),
        }
    }
    let reps = untraced.len() + traced.len();
    let line = host::history_line(&host, w.name, args.seed, args.trace, reps, correct, &metrics);
    if let Err(err) = host::append_history(&args.out_dir.join("history.jsonl"), &line) {
        eprintln!("perfbench: cannot append to the history: {err}");
    }
    println!("host: {}", host.to_json());
    println!("seed: {} reps: {reps}", args.seed);
    println!("{}", report::result_json(correct, &checks, &metrics));
    ExitCode::SUCCESS
}
