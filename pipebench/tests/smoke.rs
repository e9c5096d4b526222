//! Smoke-sized runs of every workload, untraced and traced: each must
//! pass its correctness gates and print every metric `BENCHMARK.json`
//! names on its result line (`ingest_durable` too, though the contract
//! leaves it out).

use std::path::Path;
use std::process::Command;

use serde_json::Value;

fn names(spec: &Value, key: &str) -> Vec<String> {
    spec.as_object()
        .and_then(|spec| spec.get(key))
        .and_then(Value::as_array)
        .expect("BENCHMARK.json lists metrics")
        .iter()
        .map(|metric| {
            metric
                .as_object()
                .and_then(|m| m.get("name"))
                .and_then(Value::as_str)
                .expect("every metric has a name")
                .to_string()
        })
        .collect()
}

#[test]
fn every_workload_prints_every_named_metric() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("the benchmark sits in the repository");
    let spec: Value = serde_json::parse(
        &std::fs::read_to_string(root.join("BENCHMARK.json")).expect("BENCHMARK.json exists"),
    )
    .expect("BENCHMARK.json parses");
    let workloads = ["ingest_hot", "ingest_durable", "fleet_query"];
    for listed in names(&spec, "workloads") {
        assert!(
            workloads.contains(&listed.as_str()),
            "unknown workload {listed}"
        );
    }
    for workload in workloads {
        for (trace, key) in [("0", "end_to_end"), ("1", "per_layer")] {
            let out = Command::new(env!("CARGO_BIN_EXE_pipebench"))
                .args(["--workload", workload, "--seed", "5", "--seconds", "1"])
                .args(["--trace", trace, "--smoke"])
                .current_dir(root)
                .output()
                .expect("pipebench runs");
            let stdout = String::from_utf8_lossy(&out.stdout);
            assert!(out.status.success(), "{workload} trace {trace}: {stdout}");
            let last: Value = serde_json::parse(stdout.lines().last().expect("a result line"))
                .expect("the result line is JSON");
            let result = last.as_object().expect("an object");
            assert_eq!(result.get("correct"), Some(&Value::Bool(true)));
            let metrics = result
                .get("metrics")
                .and_then(Value::as_object)
                .expect("metrics");
            for name in names(&spec, key) {
                let value = metrics
                    .get(&name)
                    .and_then(Value::as_object)
                    .and_then(|m| m.get("value"))
                    .unwrap_or_else(|| panic!("{workload} trace {trace} lacks {name}"));
                assert!(matches!(value, Value::Number(_)), "{name} is {value:?}");
                // The store probe screens sequenced lines on every
                // workload, so it keeps one cursor per vehicle.
                if let ("store.cursor_entries", Value::Number(n)) = (name.as_str(), value) {
                    assert!(n.as_f64() > 0.0, "{workload} kept no store cursors");
                }
            }
        }
    }
}
