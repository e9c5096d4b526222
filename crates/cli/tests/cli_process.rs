//! End-to-end tests of the real `qrn` binary: spawn the process, check
//! stdout and exit codes — the contract a CI pipeline relies on.

use std::path::PathBuf;
use std::process::{Command, Output};

fn qrn(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_qrn"))
        .args(args)
        .output()
        .expect("binary spawns")
}

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("qrn-process-{tag}"));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

#[test]
fn help_exits_zero_and_prints_usage() {
    let out = qrn(&["--help"]);
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("USAGE"));
    assert!(text.contains("safety-case"));
}

#[test]
fn unknown_command_exits_two() {
    let out = qrn(&["conjure"]);
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown command"));
}

#[test]
fn full_artefact_pipeline_through_the_binary() {
    let dir = temp_dir("pipeline");
    let dir_s = dir.to_str().unwrap();

    let out = qrn(&["example", "emit", "--dir", dir_s]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );

    let norm = dir.join("norm.json");
    let classification = dir.join("classification.json");
    let allocation = dir.join("allocation.json");

    let out = qrn(&["norm", "check", norm.to_str().unwrap()]);
    assert!(out.status.success());
    assert!(String::from_utf8_lossy(&out.stdout).contains("norm is valid"));

    let out = qrn(&["mece", classification.to_str().unwrap()]);
    assert!(out.status.success());
    assert!(String::from_utf8_lossy(&out.stdout).contains("MECE"));

    let out = qrn(&["eq1", norm.to_str().unwrap(), allocation.to_str().unwrap()]);
    assert!(out.status.success());

    let out = qrn(&[
        "classify",
        classification.to_str().unwrap(),
        "--collision",
        "vru",
        "35",
    ]);
    assert!(out.status.success());
    assert!(String::from_utf8_lossy(&out.stdout).contains("I3"));

    // Simulate a short fleet and verify; the harsh world against the tiny
    // paper budgets must exit 1 (check failed), not 2 (error).
    let records = dir.join("records.json");
    let out = qrn(&[
        "simulate",
        "--scenario",
        "urban",
        "--policy",
        "reactive",
        "--hours",
        "60",
        "--seed",
        "3",
        "--out",
        records.to_str().unwrap(),
    ]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );

    let out = qrn(&[
        "verify",
        norm.to_str().unwrap(),
        classification.to_str().unwrap(),
        allocation.to_str().unwrap(),
        records.to_str().unwrap(),
    ]);
    assert!(
        matches!(out.status.code(), Some(0) | Some(1)),
        "unexpected exit {:?}",
        out.status.code()
    );

    let out = qrn(&[
        "safety-case",
        "ci ADS",
        norm.to_str().unwrap(),
        classification.to_str().unwrap(),
        allocation.to_str().unwrap(),
        records.to_str().unwrap(),
    ]);
    assert!(matches!(out.status.code(), Some(0) | Some(1)));
    assert!(String::from_utf8_lossy(&out.stdout).contains("[G0]"));
}

#[test]
fn missing_artefact_exits_two() {
    let out = qrn(&["norm", "check", "/definitely/not/there.json"]);
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&out.stderr).contains("cannot read"));
}

#[test]
fn serve_rejects_unknown_flags_naming_them() {
    let dir = temp_dir("serve-flags");
    let dir_s = dir.to_str().unwrap();
    assert!(qrn(&["example", "emit", "--dir", dir_s]).status.success());
    let norm = dir.join("norm.json");
    let classification = dir.join("classification.json");
    let allocation = dir.join("allocation.json");
    // A typo'd durability flag and a removed flag both fail before the
    // server starts, instead of serving without what was asked for.
    for flag in ["--stor", "--checkpoint-every"] {
        let out = qrn(&[
            "serve",
            norm.to_str().unwrap(),
            classification.to_str().unwrap(),
            allocation.to_str().unwrap(),
            "--port",
            "0",
            flag,
            "1",
        ]);
        assert_eq!(out.status.code(), Some(2), "{flag}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(
            stderr.contains(&format!("unknown serve flag \"{flag}\"")),
            "{stderr}"
        );
    }
}
