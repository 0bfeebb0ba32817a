//! Smoke-size run of every workload: each metric `BENCHMARK.json` names is
//! produced, under its name, and finite.

use perfbench::report::{end_to_end, per_layer, Metric};
use perfbench::workload::{run_rep, time_setups, Checks, Reference, WORKLOADS};
use telemetry::json::{self, Value};

fn declared(doc: &Value, section: &str) -> Vec<(String, String)> {
    doc.get(section)
        .and_then(Value::as_array)
        .expect("section present")
        .iter()
        .map(|m| {
            let field = |k: &str| m.get(k).and_then(Value::as_str).expect("name and unit").to_string();
            (field("name"), field("unit"))
        })
        .collect()
}

fn assert_matches(workload: &str, section: &str, declared: &[(String, String)], produced: &[Metric]) {
    let got: Vec<(String, String)> = produced.iter().map(|m| (m.name.clone(), m.unit.to_string())).collect();
    assert_eq!(
        got, declared,
        "{workload}: {section} metrics differ from BENCHMARK.json"
    );
    for m in produced {
        assert!(m.value.is_finite(), "{workload}: {} = {}", m.name, m.value);
    }
}

#[test]
fn every_workload_reports_every_declared_metric() {
    let text = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
        .expect("BENCHMARK.json at the repository root");
    let doc = json::parse(&text).expect("BENCHMARK.json parses");
    let names: Vec<&str> = doc
        .get("workloads")
        .and_then(Value::as_array)
        .expect("workloads")
        .iter()
        .map(|w| w.get("name").and_then(Value::as_str).expect("workload name"))
        .collect();
    assert_eq!(names, WORKLOADS.iter().map(|w| w.name).collect::<Vec<_>>());
    let (e2e, layers) = (declared(&doc, "end_to_end"), declared(&doc, "per_layer"));

    for full in &WORKLOADS {
        let w = full.smoke();
        let reference = Reference::new(&w, 5);
        let untraced = run_rep(&w, 5, &reference, false, None);
        let horizon = Some(untraced.final_time);
        let traced = run_rep(&w, 5, &reference, true, horizon);
        assert!(traced.trace.is_some());
        let mut checks = Checks::default();
        checks.merge(untraced.checks.clone());
        checks.merge(traced.checks.clone());
        assert!(checks.attempted >= 5, "{}: {} checks", w.name, checks.attempted);

        let setups = time_setups(&w, 5, 2);
        assert!(setups.iter().all(|&t| t > 0.0), "{}: set-ups {setups:?}", w.name);
        let m = end_to_end(std::slice::from_ref(&untraced), &setups, 1.0, &checks);
        assert_matches(w.name, "end_to_end", &e2e, &m);
        let m = per_layer(
            &w,
            reference.n,
            std::slice::from_ref(&traced),
            &[untraced.tts_s],
            &mut checks,
        );
        assert_matches(w.name, "per_layer", &layers, &m);
        let value = |name: &str| m.iter().find(|x| x.name == name).unwrap().value;
        assert!(
            value("step.span_s") > 0.0 && value("pmt.records_per_step") > 0.0,
            "{}",
            w.name
        );
        if w.ranks > 1 {
            assert!(value("comm.messages_per_step") > 0.0, "{}", w.name);
        }
    }
}
