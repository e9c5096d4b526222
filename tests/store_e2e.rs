//! End-to-end tests of the store-backed evidence server over real
//! localhost TCP: store recovery versus offline ingest (byte identity,
//! no state checkpoint written), and `?as_of=` time travel versus the
//! offline report pipeline (byte identity, no SPRT look spent).

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::PathBuf;
use std::time::Duration;

use qrn::core::examples::{paper_allocation, paper_classification, paper_norm};
use qrn::fleet::burndown::{
    burn_down, burn_down_filtered, BurnDownConfig, ContextFilter, FleetReport,
};
use qrn::fleet::ingest::{ingest_str, FleetState};
use qrn::fleet::looks::LookBook;
use qrn::fleet::telemetry::{Scenario, TelemetryConfig};
use qrn::serve::{ServeConfig, Server};
use qrn::store::StoreReader;
use qrn::units::Hours;

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("qrn-store-e2e-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn test_config(store: &std::path::Path) -> ServeConfig {
    let classification = paper_classification().unwrap();
    let allocation = paper_allocation(&classification).unwrap();
    let mut config = ServeConfig::new(paper_norm().unwrap(), classification, allocation);
    config.port = 0;
    config.workers = 2;
    config.io_timeout = Duration::from_secs(5);
    config.shards = 2;
    config.store = Some(store.to_path_buf());
    config
}

/// One raw HTTP exchange; returns (status, body).
fn request(addr: SocketAddr, raw: &str) -> (u16, String) {
    let mut stream = TcpStream::connect(addr).unwrap();
    stream.write_all(raw.as_bytes()).unwrap();
    let mut reply = String::new();
    stream.read_to_string(&mut reply).unwrap();
    let status = reply
        .split(' ')
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(0);
    let body = reply
        .split_once("\r\n\r\n")
        .map(|(_, b)| b.to_string())
        .unwrap_or_default();
    (status, body)
}

fn get(addr: SocketAddr, target: &str) -> (u16, String) {
    request(addr, &format!("GET {target} HTTP/1.1\r\nHost: x\r\n\r\n"))
}

fn post(addr: SocketAddr, target: &str, body: &str) -> (u16, String) {
    request(
        addr,
        &format!(
            "POST {target} HTTP/1.1\r\nHost: x\r\nContent-Length: {}\r\n\r\n{body}",
            body.len()
        ),
    )
}

/// One sequenced telemetry log split into three upload batches.
fn sequenced_batches() -> Vec<String> {
    split_in_three(
        &TelemetryConfig::new(4)
            .hours(Hours::new(96.0).unwrap())
            .seed(5)
            .stamp_seq(true)
            .generate_jsonl()
            .unwrap(),
    )
}

/// Splits a log into three upload batches. Splitting *after* seq
/// stamping keeps every vehicle's sequence monotone across batches, so
/// the store's screening accepts them all.
fn split_in_three(log: &str) -> Vec<String> {
    let lines: Vec<&str> = log.lines().collect();
    let per_batch = lines.len().div_ceil(3);
    lines
        .chunks(per_batch)
        .map(|chunk| {
            let mut batch = String::new();
            for line in chunk {
                batch.push_str(line);
                batch.push('\n');
            }
            batch
        })
        .collect()
}

/// The offline fold of the same batches: `qrn fleet ingest` semantics.
fn offline_state(batches: &[String]) -> FleetState {
    let classification = paper_classification().unwrap();
    let mut state = FleetState::default();
    for batch in batches {
        state.merge(&ingest_str(batch, &classification, 4).unwrap());
    }
    state
}

fn offline_report(batches: &[String]) -> String {
    let norm = paper_norm().unwrap();
    let classification = paper_classification().unwrap();
    let allocation = paper_allocation(&classification).unwrap();
    burn_down(
        &norm,
        &allocation,
        &offline_state(batches),
        &BurnDownConfig::default(),
    )
    .unwrap()
    .to_canonical_json()
}

fn now_millis() -> u64 {
    std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| u64::try_from(d.as_millis()).unwrap_or(u64::MAX))
        .unwrap_or(0)
}

/// The time of the newest stored record: the `ts` of the live point that
/// closes `/v1/history`'s timeline.
fn live_point_ts(addr: SocketAddr) -> u64 {
    let (status, body) = get(addr, "/v1/history");
    assert_eq!(status, 200, "{body}");
    let history = serde_json::parse(&body).unwrap();
    let live = history
        .as_object()
        .and_then(|h| h.get("points"))
        .and_then(|points| points.as_array())
        .and_then(|points| points.last())
        .and_then(|point| point.as_object())
        .expect("a non-empty store has a live point");
    assert_eq!(
        live.get("live"),
        Some(&serde_json::Value::Bool(true)),
        "{body}"
    );
    match live.get("ts") {
        Some(serde_json::Value::Number(ts)) => ts.as_u64().expect("ts is a u64"),
        other => panic!("live point has no numeric ts: {other:?}"),
    }
}

#[test]
fn store_recovery_is_byte_identical_to_offline_ingest() {
    let dir = temp_dir("recovery");
    let store_dir = dir.join("store");
    let mut config = test_config(&store_dir);
    // With a store, the checkpoint path keeps only the look sidecar: the
    // store is the state's one durability path.
    let checkpoint = dir.join("live-state.json");
    config.checkpoint = Some(checkpoint.clone());

    let batches = sequenced_batches();
    let handle = Server::start(config.clone()).unwrap();
    let addr = handle.addr();
    for batch in &batches {
        let (status, body) = post(addr, "/v1/ingest", batch);
        assert_eq!(status, 200, "{body}");
        assert!(body.contains("\"stored\": true"), "{body}");
    }
    handle.stop().unwrap();
    assert!(
        !checkpoint.exists(),
        "a store-backed server wrote a state file"
    );
    assert!(LookBook::sidecar_path(&checkpoint).exists());

    // The store's full replay folds to exactly the bytes offline ingest
    // of the same batches produces.
    let reader = StoreReader::open(
        &store_dir.join("default"),
        paper_classification().unwrap(),
        3,
    )
    .unwrap();
    let replayed = reader.fold_as_of(None).unwrap();
    assert_eq!(
        serde_json::to_string_pretty(&replayed.state).unwrap(),
        serde_json::to_string_pretty(&offline_state(&batches)).unwrap(),
        "store replay differs from offline ingest"
    );

    // A restarted server recovers from the store alone and serves the
    // identical burn-down. The sidecar holds no look yet, so the first
    // look matches the offline report's one and only look.
    let handle = Server::start(config).unwrap();
    let addr = handle.addr();
    let (status, body) = get(addr, "/v1/burndown");
    assert_eq!(status, 200, "{body}");
    assert_eq!(body, offline_report(&batches));
    handle.stop().unwrap();
    assert!(
        !checkpoint.exists(),
        "a store-backed server wrote a state file"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn as_of_context_reads_match_the_offline_rows() {
    let dir = temp_dir("as-of-context");
    let store_dir = dir.join("store");
    let batches = split_in_three(
        &TelemetryConfig::new(6)
            .hours(Hours::new(128.0).unwrap())
            .scenario(Scenario::Banded)
            .seed(8)
            .stamp_seq(true)
            .generate_jsonl()
            .unwrap(),
    );
    let handle = Server::start(test_config(&store_dir)).unwrap();
    let addr = handle.addr();
    for batch in &batches {
        let (status, body) = post(addr, "/v1/ingest", batch);
        assert_eq!(status, 200, "{body}");
    }
    let norm = paper_norm().unwrap();
    let allocation = paper_allocation(&paper_classification().unwrap()).unwrap();
    let config = BurnDownConfig {
        by_zone: true,
        ..BurnDownConfig::default()
    };
    let offline = burn_down_filtered(
        &norm,
        &allocation,
        &offline_state(&batches),
        &config,
        &ContextFilter::all(),
    )
    .unwrap();
    assert!(offline.zones.len() > 2);
    // A historical read spends no look, so every `?as_of=&context=K`
    // body is byte-equal to K's offline row, looks included.
    for row in &offline.zones {
        let target = format!("/v1/burndown?as_of={}&context={}", u64::MAX, row.zone);
        let (status, body) = get(addr, &target);
        assert_eq!(status, 200, "{body}");
        assert_eq!(body, serde_json::to_string_pretty(row).unwrap());
    }
    let target = format!("/v1/burndown?as_of={}&context=zone%3Datlantis", u64::MAX);
    assert_eq!(get(addr, &target).0, 404);
    handle.stop().unwrap();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn as_of_time_travel_matches_the_offline_report_and_spends_no_look() {
    let dir = temp_dir("as-of");
    let store_dir = dir.join("store");
    let batches = sequenced_batches();
    let handle = Server::start(test_config(&store_dir)).unwrap();
    let addr = handle.addr();

    // First batch, then a cut at its record's timestamp. Record times
    // come from the server's clock and are forced monotone, so two
    // records can share a millisecond: wait until the clock passes the
    // cut, and every later record is stamped after it.
    let (status, body) = post(addr, "/v1/ingest", &batches[0]);
    assert_eq!(status, 200, "{body}");
    let cut = live_point_ts(addr);
    while now_millis() <= cut {
        std::thread::yield_now();
    }
    for batch in &batches[1..] {
        assert_eq!(post(addr, "/v1/ingest", batch).0, 200);
    }

    // Time travel to the cut sees exactly the first batch, rendered
    // byte-identically to the offline `fleet report` pipeline; the far
    // future sees everything.
    let (status, body) = get(addr, &format!("/v1/burndown?as_of={cut}"));
    assert_eq!(status, 200, "{body}");
    assert_eq!(body, offline_report(&batches[..1]));
    let (status, body) = get(addr, &format!("/v1/burndown?as_of={}", u64::MAX));
    assert_eq!(status, 200, "{body}");
    assert_eq!(body, offline_report(&batches));

    // The history timeline is served and non-trivial.
    let (status, body) = get(addr, "/v1/history");
    assert_eq!(status, 200, "{body}");
    assert!(body.contains("\"points\""), "{body}");

    // Historical replays are audits, not decisions: the live burn-down
    // below is still the *first* SPRT look.
    let (status, body) = get(addr, "/v1/burndown");
    assert_eq!(status, 200, "{body}");
    let report: FleetReport = serde_json::from_str(&body).unwrap();
    assert!(report.goals.iter().all(|g| g.looks == 1), "{body}");

    // Malformed cuts are client errors, not replays.
    assert_eq!(get(addr, "/v1/burndown?as_of=yesterday").0, 400);
    handle.stop().unwrap();
    let _ = std::fs::remove_dir_all(&dir);
}
