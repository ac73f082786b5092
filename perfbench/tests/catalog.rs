//! `BENCHMARK.json` and the code's metric catalog name the same metrics
//! with the same units, and every layer metric carries its prediction.

use mmc_perfbench::report::{END_TO_END, LAYERS};
use serde::Value;

fn benchmark_json() -> Value {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    serde_json::from_str(&text).expect("BENCHMARK.json parses")
}

fn entries<'v>(v: &'v Value, key: &str) -> Vec<(&'v str, &'v str, &'v str)> {
    v.get(key)
        .and_then(Value::as_array)
        .expect("metric list")
        .iter()
        .map(|m| {
            let f = |k: &str| m.get(k).and_then(Value::as_str).expect("string field");
            (f("name"), f("unit"), f("better"))
        })
        .collect()
}

#[test]
fn end_to_end_metrics_match() {
    let json = benchmark_json();
    let want: Vec<_> = END_TO_END.to_vec();
    assert_eq!(entries(&json, "end_to_end"), want);
    let setup = json.get("end_to_end").and_then(Value::as_array).unwrap()[0].clone();
    let bounds: Vec<f64> = json
        .get("end_to_end")
        .and_then(Value::as_array)
        .unwrap()
        .iter()
        .map(|m| m.get("bound").and_then(Value::as_f64).unwrap())
        .collect();
    assert!(bounds.iter().all(|&b| b > 0.0 && b <= 0.25), "{bounds:?}");
    // Set-up time gets the largest bound.
    let setup_bound = setup.get("bound").and_then(Value::as_f64).unwrap();
    assert!(bounds.iter().all(|&b| b <= setup_bound));
}

#[test]
fn per_layer_metrics_match() {
    let json = benchmark_json();
    let want: Vec<_> = LAYERS.iter().map(|l| (l.name, l.unit, l.better)).collect();
    assert_eq!(entries(&json, "per_layer"), want);
}

#[test]
fn every_layer_metric_names_what_it_should_move() {
    let workloads = ["gemm_ladder", "ooc_stream", "serve_mixed"];
    let e2e: Vec<&str> = END_TO_END.iter().map(|m| m.0).collect();
    for l in LAYERS {
        assert!(e2e.contains(&l.moves) || l.moves == "validity", "{l:?}");
        let listed =
            |s: &str| s.split(',').filter(|w| !w.is_empty()).all(|w| workloads.contains(&w));
        assert!(!l.on.is_empty() && listed(l.on) && listed(l.flat_on), "{l:?}");
        assert!(l.better == "higher" || l.better == "lower", "{l:?}");
    }
    let mut names: Vec<&str> = LAYERS.iter().map(|l| l.name).collect();
    names.sort();
    names.dedup();
    assert_eq!(names.len(), LAYERS.len(), "layer metric names are unique");
}

#[test]
fn workloads_match() {
    let json = benchmark_json();
    let names: Vec<&str> = json
        .get("workloads")
        .and_then(Value::as_array)
        .unwrap()
        .iter()
        .map(|w| w.get("name").and_then(Value::as_str).unwrap())
        .collect();
    assert_eq!(names, ["gemm_ladder", "ooc_stream", "serve_mixed"]);
}
