//! Golden bytes of the by-context burn-down report.
//!
//! The fixtures under `tests/fixtures/burndown_golden/` were rendered by
//! the burn-down code as it stood *before* the per-report quantile memo,
//! the selector pushdown and the sequential lower-bound skip went in, and
//! no test rewrites them. The other byte-identity tests compare today's
//! code with today's code (live ≡ offline, shard 1 ≡ shard 8); this one
//! pins today's bytes to the earlier implementation's.
//!
//! The evidence is a fixed ODD-banded telemetry log merged with a
//! hand-built weighted campaign ledger, so every report mixes unit-weight
//! goal rows (exact integer Garwood path), weighted rows (Kish effective
//! counts, fractional degrees of freedom), banded context keys and bare
//! legacy zone names.

use qrn::core::examples::{paper_allocation, paper_classification, paper_norm};
use qrn::core::incident::IncidentRecord;
use qrn::core::object::{Involvement, ObjectType};
use qrn::fleet::burndown::{
    burn_down_evidence_filtered, burn_down_filtered, BurnDownConfig, ContextFilter,
};
use qrn::fleet::ingest::ingest_str;
use qrn::fleet::telemetry::{Scenario, TelemetryConfig};
use qrn::stats::evidence::EvidenceLedger;
use qrn::stats::special::QuantileMemo;
use qrn::units::{Hours, Speed};

/// The banded fleet log: six vehicles over 4096 h, with a few injected
/// severe VRU collisions so some goals carry non-zero counts.
fn banded_log() -> String {
    let crash = IncidentRecord::collision(
        Involvement::ego_with(ObjectType::Vru),
        Speed::from_kmh(40.0).unwrap(),
    );
    TelemetryConfig::new(6)
        .hours(Hours::new(4096.0).unwrap())
        .scenario(Scenario::Banded)
        .seed(4242)
        .inject(crash, 3)
        .generate_jsonl()
        .unwrap()
}

/// A design-time campaign ledger with importance weights, refinement rows
/// under bare zone names and one row under a banded key.
fn campaign_ledger() -> EvidenceLedger {
    let mut ledger = EvidenceLedger::new();
    ledger.add_exposure(None, 65536.0);
    ledger.add_exposure(Some("urban"), 16384.0);
    ledger.add_exposure(Some("highway"), 49152.0);
    for (i, weight) in [0.125, 0.375, 0.0625, 0.25, 0.125, 0.5].iter().enumerate() {
        let zone = if i % 2 == 0 { "urban" } else { "highway" };
        ledger.add_incident(None, "I3", *weight);
        ledger.add_incident(Some(zone), "I3", *weight);
        ledger.add_incident(None, "I1", 1.0);
        ledger.add_incident(Some(zone), "I1", 1.0);
    }
    for _ in 0..40 {
        ledger.add_incident(None, "I2", 0.75);
        ledger.add_incident(Some("highway"), "I2", 0.75);
    }
    ledger
}

fn config(sequential: bool) -> BurnDownConfig {
    BurnDownConfig {
        by_zone: true,
        sequential,
        ..BurnDownConfig::default()
    }
}

/// The canonical JSON of the fleet-only report, with its fleet metadata.
fn render_fleet(sequential: bool) -> String {
    let norm = paper_norm().unwrap();
    let classification = paper_classification().unwrap();
    let allocation = paper_allocation(&classification).unwrap();
    let state = ingest_str(&banded_log(), &classification, 2).unwrap();
    burn_down_filtered(
        &norm,
        &allocation,
        &state,
        &config(sequential),
        &ContextFilter::all(),
    )
    .unwrap()
    .to_canonical_json()
}

/// The canonical JSON of one report over the fleet log merged with the
/// campaign ledger.
fn render_merged(sequential: bool, clauses: &[&str]) -> String {
    let norm = paper_norm().unwrap();
    let classification = paper_classification().unwrap();
    let allocation = paper_allocation(&classification).unwrap();
    let state = ingest_str(&banded_log(), &classification, 2).unwrap();
    let evidence = state.evidence().clone().merged(&campaign_ledger());
    let filter = ContextFilter::parse(clauses).unwrap();
    burn_down_evidence_filtered(
        &norm,
        &allocation,
        &evidence,
        &config(sequential),
        &filter,
        &QuantileMemo::new(),
    )
    .unwrap()
    .to_canonical_json()
}

fn assert_golden(name: &str, actual: &str) {
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures/burndown_golden")
        .join(name);
    let expected = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("missing golden fixture {}: {e}", path.display()));
    if actual != expected {
        let line = actual
            .lines()
            .zip(expected.lines())
            .position(|(a, e)| a != e)
            .map_or(actual.lines().count().min(expected.lines().count()), |i| i);
        panic!(
            "{name} drifted from its golden bytes at line {}: got {:?}, want {:?}",
            line + 1,
            actual.lines().nth(line),
            expected.lines().nth(line),
        );
    }
}

#[test]
fn fleet_by_context_reports_match_golden_bytes() {
    assert_golden("fleet_by_context.json", &render_fleet(false));
    assert_golden("fleet_by_context_sequential.json", &render_fleet(true));
}

#[test]
fn merged_by_context_reports_match_golden_bytes() {
    assert_golden("merged_by_context.json", &render_merged(false, &[]));
    assert_golden(
        "merged_by_context_sequential.json",
        &render_merged(true, &[]),
    );
}

#[test]
fn where_filtered_reports_match_golden_bytes() {
    assert_golden(
        "merged_where_weather_fog.json",
        &render_merged(false, &["weather=fog"]),
    );
    assert_golden(
        "merged_where_weather_fog_sequential.json",
        &render_merged(true, &["weather=fog"]),
    );
}
