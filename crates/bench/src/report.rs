//! Result persistence: every experiment binary prints its rows to stdout
//! *and* writes a JSON artefact under the workspace `results/` directory,
//! so EXPERIMENTS.md entries are regenerable.

use std::fs;
use std::path::PathBuf;

use serde::Serialize;

/// The workspace `results/` directory (created if missing).
///
/// # Panics
///
/// Panics if the directory cannot be created — an experiment without a
/// writable results directory has nowhere to put its evidence.
pub fn results_dir() -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("../../results")
        .canonicalize()
        .unwrap_or_else(|_| PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../results"));
    fs::create_dir_all(&dir).expect("results directory must be creatable");
    dir
}

/// Inserts `{prefix}_p25`, `_median` and `_p75` of `samples` into the
/// JSON object `row` and returns the median: the spread every
/// machine-local `BENCH_*.json` timing carries.
///
/// # Panics
///
/// Panics if `samples` is empty or `row` is not a JSON object.
pub fn insert_quartiles(row: &mut serde_json::Value, prefix: &str, mut samples: Vec<f64>) -> f64 {
    samples.sort_by(f64::total_cmp);
    let at = |q: f64| samples[((samples.len() - 1) as f64 * q).round() as usize];
    let serde_json::Value::Object(row) = row else {
        panic!("rows are objects");
    };
    for (suffix, value) in [("p25", at(0.25)), ("median", at(0.5)), ("p75", at(0.75))] {
        row.insert(format!("{prefix}_{suffix}"), serde_json::json!(value));
    }
    at(0.5)
}

/// Serialises `value` as pretty JSON to `results/<name>.json`.
///
/// # Panics
///
/// Panics on serialisation or I/O failure: experiments must not silently
/// lose their evidence.
pub fn save_json<T: Serialize>(name: &str, value: &T) {
    let path = results_dir().join(format!("{name}.json"));
    let json = serde_json::to_string_pretty(value).expect("experiment results are serialisable");
    fs::write(&path, json).expect("results file must be writable");
    println!("\n[saved {}]", path.display());
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn results_dir_exists_after_call() {
        let dir = results_dir();
        assert!(dir.is_dir());
    }

    #[test]
    fn quartiles_are_ordered_and_the_median_is_returned() {
        let mut row = serde_json::json!({});
        let median = insert_quartiles(&mut row, "t", vec![5.0, 1.0, 3.0, 2.0, 4.0]);
        assert_eq!(median, 3.0);
        let row = row.as_object().unwrap();
        for (key, value) in [("t_p25", 2.0), ("t_median", 3.0), ("t_p75", 4.0)] {
            assert_eq!(row[key], serde_json::json!(value), "{key}");
        }
    }

    #[test]
    fn save_json_round_trips() {
        save_json("selftest", &serde_json::json!({"ok": true}));
        let path = results_dir().join("selftest.json");
        let text = fs::read_to_string(&path).unwrap();
        assert!(text.contains("ok"));
        fs::remove_file(path).ok();
    }
}
