//! End-to-end tests of the live evidence server over real localhost TCP:
//! concurrent ingest determinism, checkpoint byte-identity with the
//! offline pipeline, protocol defence (413/400-skip/429) and graceful
//! drain with look-counter persistence.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::PathBuf;
use std::time::{Duration, Instant};

use qrn::core::examples::{paper_allocation, paper_classification, paper_norm};
use qrn::core::incident::IncidentRecord;
use qrn::core::object::{Involvement, ObjectType};
use qrn::fleet::burndown::{
    burn_down, burn_down_filtered, BurnDownConfig, ContextFilter, FleetReport,
};
use qrn::fleet::event::{to_jsonl, FleetEvent};
use qrn::fleet::ingest::{ingest_str, FleetState};
use qrn::fleet::telemetry::{Scenario, TelemetryConfig};
use qrn::serve::{ServeConfig, Server};
use qrn::stats::prometheus::validate_exposition;
use qrn::units::{Hours, Speed};

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("qrn-serve-e2e-{tag}"));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn test_config(tag: &str) -> (ServeConfig, PathBuf) {
    let classification = paper_classification().unwrap();
    let allocation = paper_allocation(&classification).unwrap();
    let mut config = ServeConfig::new(paper_norm().unwrap(), classification, allocation);
    config.port = 0;
    config.workers = 3;
    config.io_timeout = Duration::from_secs(5);
    config.shards = 2;
    let checkpoint = temp_dir(tag).join("live-state.json");
    let _ = std::fs::remove_file(&checkpoint);
    let _ = std::fs::remove_file(temp_dir(tag).join("live-state.json.looks.json"));
    config.checkpoint = Some(checkpoint.clone());
    (config, checkpoint)
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

/// Three disjoint telemetry segments with dyadic exposure chunks, so
/// float folds are exact and merge order cannot matter.
fn segments() -> Vec<String> {
    [3u64, 4, 5]
        .iter()
        .map(|&seed| {
            TelemetryConfig::new(4)
                .hours(Hours::new(32.0).unwrap())
                .seed(seed)
                .generate_jsonl()
                .unwrap()
        })
        .collect()
}

/// The offline fold of the same segments: `qrn fleet ingest` semantics.
fn offline_state(segments: &[String]) -> FleetState {
    let classification = paper_classification().unwrap();
    let mut state = FleetState::default();
    for segment in segments {
        state.merge(&ingest_str(segment, &classification, 4).unwrap());
    }
    state
}

#[test]
fn concurrent_ingest_matches_offline_pipeline_byte_for_byte() {
    // The state-shard count must never change a single byte of any
    // served or checkpointed artefact: the cross-shard fold reuses the
    // dyadic merge order of offline ingest, and this sweep enforces it
    // for the shard counts named in the acceptance criteria.
    for state_shards in [1usize, 2, 4, 8] {
        let tag = format!("determinism-{state_shards}");
        let (mut config, checkpoint) = test_config(&tag);
        config.state_shards = state_shards;
        let handle = Server::start(config).unwrap();
        let addr = handle.addr();

        // Concurrent clients upload disjoint segments in whatever order
        // the scheduler produces.
        let segments = segments();
        let uploads: Vec<_> = segments
            .iter()
            .cloned()
            .map(|segment| {
                std::thread::spawn(move || {
                    let (status, body) = post(addr, "/v1/ingest", &segment);
                    assert_eq!(status, 200, "{body}");
                })
            })
            .collect();
        for upload in uploads {
            upload.join().unwrap();
        }

        // The served burn-down must be byte-identical to the offline
        // pipeline: ingest the same segments, run the same analysis,
        // print canonical JSON. (First server look == offline's one and
        // only look.)
        let offline = offline_state(&segments);
        let norm = paper_norm().unwrap();
        let classification = paper_classification().unwrap();
        let allocation = paper_allocation(&classification).unwrap();
        let offline_report =
            burn_down(&norm, &allocation, &offline, &BurnDownConfig::default()).unwrap();
        let (status, served) = get(addr, "/v1/burndown");
        assert_eq!(status, 200);
        assert_eq!(
            served,
            offline_report.to_canonical_json(),
            "state_shards={state_shards}"
        );

        // Graceful shutdown writes the final checkpoint; its bytes equal
        // the offline `fleet ingest --checkpoint` artefact of the same
        // segments.
        let (status, _) = post(addr, "/v1/shutdown", "");
        assert_eq!(status, 200);
        handle.wait().unwrap();
        assert_eq!(
            std::fs::read_to_string(&checkpoint).unwrap(),
            serde_json::to_string_pretty(&offline).unwrap(),
            "state_shards={state_shards}"
        );
    }
}

#[test]
fn multi_item_server_keeps_items_fully_isolated() {
    let (mut config, checkpoint) = test_config("multi-item");
    let classification = paper_classification().unwrap();
    let allocation = paper_allocation(&classification).unwrap();
    config.add_item("vru", paper_norm().unwrap(), classification, allocation);
    let vru_checkpoint = qrn::fleet::checkpoint::item_checkpoint_path(&checkpoint, "vru");
    let _ = std::fs::remove_file(&vru_checkpoint);
    let mut vru_sidecar = vru_checkpoint.clone().into_os_string();
    vru_sidecar.push(".looks.json");
    let _ = std::fs::remove_file(PathBuf::from(vru_sidecar));
    let handle = Server::start(config).unwrap();
    let addr = handle.addr();

    let segments = segments();
    // Default item gets segments 0 and 1; the vru item gets segment 2.
    assert_eq!(post(addr, "/v1/ingest", &segments[0]).0, 200);
    assert_eq!(post(addr, "/v1/default/ingest", &segments[1]).0, 200);
    assert_eq!(post(addr, "/v1/vru/ingest", &segments[2]).0, 200);

    // Each item's burn-down sees only its own evidence, and looks are
    // counted per item: the vru look below must not move the default
    // item's counters.
    let (status, body) = get(addr, "/v1/vru/burndown");
    assert_eq!(status, 200, "{body}");
    let vru_report: FleetReport = serde_json::from_str(&body).unwrap();
    assert_eq!(vru_report.exposure_hours, 32.0);
    assert!(vru_report.goals.iter().all(|g| g.looks == 1), "{body}");

    let (_, body) = get(addr, "/v1/burndown");
    let default_report: FleetReport = serde_json::from_str(&body).unwrap();
    assert_eq!(default_report.exposure_hours, 64.0);
    assert!(default_report.goals.iter().all(|g| g.looks == 1), "{body}");

    // Metrics label both items and keep the exposition valid.
    let (_, metrics) = get(addr, "/metrics");
    validate_exposition(&metrics).unwrap_or_else(|e| panic!("invalid exposition: {e}\n{metrics}"));
    assert!(
        metrics.contains("qrn_evidence_exposure_hours{item=\"default\"} 64"),
        "{metrics}"
    );
    assert!(
        metrics.contains("qrn_evidence_exposure_hours{item=\"vru\"} 32"),
        "{metrics}"
    );

    // The drain writes one checkpoint per item; each matches the offline
    // ingest of only that item's segments, byte for byte.
    handle.stop().unwrap();
    assert_eq!(
        std::fs::read_to_string(&checkpoint).unwrap(),
        serde_json::to_string_pretty(&offline_state(&segments[..2])).unwrap()
    );
    assert_eq!(
        std::fs::read_to_string(&vru_checkpoint).unwrap(),
        serde_json::to_string_pretty(&offline_state(&segments[2..])).unwrap()
    );
}

#[test]
fn look_counters_survive_restart_via_sidecar() {
    let (config, checkpoint) = test_config("looks");
    let segments = segments();

    // First server: one segment, two looks.
    let handle = Server::start(config.clone()).unwrap();
    let addr = handle.addr();
    assert_eq!(post(addr, "/v1/ingest", &segments[0]).0, 200);
    for expected in [1u64, 2] {
        let (_, body) = get(addr, "/v1/burndown");
        let report: FleetReport = serde_json::from_str(&body).unwrap();
        assert!(report.goals.iter().all(|g| g.looks == expected), "{body}");
    }
    handle.stop().unwrap();
    let mut sidecar = checkpoint.clone().into_os_string();
    sidecar.push(".looks.json");
    assert!(PathBuf::from(&sidecar).exists());

    // Second server resumes both the state and the look counters: the
    // next look is the third, not a fresh first.
    let handle = Server::start(config).unwrap();
    let addr = handle.addr();
    let (_, body) = get(addr, "/v1/burndown");
    let report: FleetReport = serde_json::from_str(&body).unwrap();
    assert!(report.goals.iter().all(|g| g.looks == 3), "{body}");
    assert_eq!(report.exposure_hours, 32.0);
    handle.stop().unwrap();
}

#[test]
fn metrics_are_valid_prometheus_exposition() {
    let (config, _) = test_config("metrics");
    let handle = Server::start(config).unwrap();
    let addr = handle.addr();
    assert_eq!(post(addr, "/v1/ingest", &segments()[0]).0, 200);
    let _ = get(addr, "/v1/burndown");
    let (status, body) = get(addr, "/metrics");
    assert_eq!(status, 200);
    validate_exposition(&body).unwrap_or_else(|e| panic!("invalid exposition: {e}\n{body}"));
    assert!(
        body.contains("qrn_evidence_exposure_hours{item=\"default\"} 32"),
        "{body}"
    );
    assert!(body.contains("qrn_http_request_seconds_bucket"), "{body}");
    assert!(body.contains("qrn_goal_budget_consumed"), "{body}");
    handle.stop().unwrap();
}

#[test]
fn oversized_body_answers_413_without_reading_it() {
    let (mut config, _) = test_config("oversized");
    config.max_body_bytes = 1024;
    let handle = Server::start(config).unwrap();
    let addr = handle.addr();

    // Declare a 10 MiB body but never send it: the server must answer
    // from the headers alone.
    let mut stream = TcpStream::connect(addr).unwrap();
    stream
        .write_all(b"POST /v1/ingest HTTP/1.1\r\nHost: x\r\nContent-Length: 10485760\r\n\r\n")
        .unwrap();
    let mut reply = String::new();
    stream.read_to_string(&mut reply).unwrap();
    assert!(reply.starts_with("HTTP/1.1 413 "), "{reply}");

    // A fitting body still works afterwards.
    let log = "{\"v\":1,\"event\":\"exposure\",\"vehicle\":\"V1\",\"hours\":1.0}";
    assert_eq!(post(addr, "/v1/ingest", log).0, 200);
    handle.stop().unwrap();
}

#[test]
fn bad_jsonl_is_skipped_per_line_not_rejected() {
    let (config, _) = test_config("badlines");
    let handle = Server::start(config).unwrap();
    let addr = handle.addr();
    let log = "{\"v\":1,\"event\":\"exposure\",\"vehicle\":\"V1\",\"hours\":2.0}\n\
               this is not json\n\
               {\"v\":99,\"event\":\"exposure\",\"vehicle\":\"V2\",\"hours\":1.0}\n\
               {\"v\":1,\"event\":\"warp\",\"vehicle\":\"V3\"}\n";
    let (status, body) = post(addr, "/v1/ingest", log);
    assert_eq!(status, 200, "{body}");
    assert!(body.contains("\"segment_events\": 1"), "{body}");
    assert!(body.contains("\"bad_json\": 1"), "{body}");
    assert!(body.contains("\"unsupported_version\": 1"), "{body}");
    assert!(body.contains("\"unknown_kind\": 1"), "{body}");
    handle.stop().unwrap();
}

#[test]
fn full_queue_sheds_load_with_429() {
    let (mut config, _) = test_config("backpressure");
    config.workers = 1;
    config.queue_depth = 1;
    config.io_timeout = Duration::from_secs(10);
    let handle = Server::start(config).unwrap();
    let addr = handle.addr();

    // Occupy the single worker with a held-open connection (no request
    // head yet), wait until the worker has claimed it, then fill the
    // one-slot queue with a second held connection. The lone worker is
    // blocked, so the gauges are read through the handle, not /metrics.
    let mut held_a = TcpStream::connect(addr).unwrap();
    held_a.write_all(b"GET /healthz").unwrap();
    wait_until("the worker holds the first connection", || {
        handle.workers_busy() == 1
    });
    let mut held_b = TcpStream::connect(addr).unwrap();
    held_b.write_all(b"GET /healthz").unwrap();
    wait_until("the second connection is queued", || {
        handle.queue_depth() == 1
    });

    // Worker busy + queue full: the accept thread itself answers 429.
    let (status, body) = get(addr, "/healthz");
    assert_eq!(status, 429, "{body}");

    // Releasing the held connections lets the backlog drain: finish the
    // first request and the server serves both, then new requests pass.
    held_a.write_all(b" HTTP/1.1\r\nHost: x\r\n\r\n").unwrap();
    let mut reply = String::new();
    held_a.read_to_string(&mut reply).unwrap();
    assert!(reply.starts_with("HTTP/1.1 200 "), "{reply}");
    held_b.write_all(b" HTTP/1.1\r\nHost: x\r\n\r\n").unwrap();
    let mut reply = String::new();
    held_b.read_to_string(&mut reply).unwrap();
    assert!(reply.starts_with("HTTP/1.1 200 "), "{reply}");
    assert_eq!(get(addr, "/healthz").0, 200);

    // The shed connection is visible in the metrics, and the backlog is
    // gone: only the scrape itself holds the worker.
    let (_, metrics) = get(addr, "/metrics");
    assert!(
        metrics.contains("qrn_http_rejected_total{reason=\"queue_full\"} 1"),
        "{metrics}"
    );
    assert!(metrics.contains("qrn_http_workers_busy 1\n"), "{metrics}");
    assert!(metrics.contains("qrn_http_queue_depth 0\n"), "{metrics}");
    handle.stop().unwrap();
}

/// Spins until `holds` is true; panics naming `what` after ten seconds.
fn wait_until(what: &str, holds: impl Fn() -> bool) {
    let deadline = Instant::now() + Duration::from_secs(10);
    while !holds() {
        assert!(Instant::now() < deadline, "timed out waiting until {what}");
        std::thread::yield_now();
    }
}

/// The server's quantile-memo lookups so far, `(hits, misses)`, read from
/// `/metrics` (whose own report adds its lookups first).
fn memo_lookups(addr: SocketAddr) -> (u64, u64) {
    let (status, metrics) = get(addr, "/metrics");
    assert_eq!(status, 200, "{metrics}");
    let sample = |result: &str| -> u64 {
        let name = format!("qrn_quantile_memo_lookups_total{{result=\"{result}\"}} ");
        metrics
            .lines()
            .find_map(|line| line.strip_prefix(name.as_str()))
            .unwrap_or_else(|| panic!("no {name} sample in\n{metrics}"))
            .parse()
            .unwrap()
    };
    (sample("hit"), sample("miss"))
}

#[test]
fn repeated_reads_compute_no_quantile_until_a_count_changes() {
    let (config, _) = test_config("quantile-memo");
    let handle = Server::start(config).unwrap();
    let addr = handle.addr();
    assert_eq!(post(addr, "/v1/ingest", &segments()[0]).0, 200);
    assert_eq!(get(addr, "/v1/burndown").0, 200);
    let (_, misses) = memo_lookups(addr);
    assert!(misses > 0);

    // No upload in between: every quantile of the second read, and of
    // the scrapes, is served from the server's memo.
    assert_eq!(get(addr, "/v1/burndown").0, 200);
    let (hits, repeat_misses) = memo_lookups(addr);
    assert_eq!(
        repeat_misses, misses,
        "an unchanged read computed quantiles"
    );
    assert!(hits > 0);

    // A new incident changes one goal's count, so its bounds are new
    // inputs; exposure alone would not be.
    let incident = FleetEvent::Incident {
        vehicle: "V-new".into(),
        record: IncidentRecord::collision(
            Involvement::ego_with(ObjectType::Vru),
            Speed::from_kmh(30.0).unwrap(),
        ),
    };
    let (status, body) = post(addr, "/v1/ingest", &to_jsonl(&[incident]));
    assert_eq!(status, 200, "{body}");
    assert!(body.contains("\"segment_events\": 1"), "{body}");
    assert_eq!(get(addr, "/v1/burndown").0, 200);
    let (_, new_misses) = memo_lookups(addr);
    assert!(new_misses > misses, "{new_misses} <= {misses}");
    handle.stop().unwrap();
}

/// A scrape body without its timing samples (uptime and request
/// latency), which differ between any two servers.
fn untimed(metrics: &str) -> String {
    metrics
        .lines()
        .filter(|line| {
            !line.starts_with("qrn_server_uptime_seconds ")
                && !line.starts_with("qrn_http_request_seconds")
        })
        .map(|line| format!("{line}\n"))
        .collect()
}

#[test]
fn metrics_scrape_computes_no_context_rows() {
    let segments: Vec<String> = [31u64, 32]
        .iter()
        .map(|&seed| {
            TelemetryConfig::new(4)
                .hours(Hours::new(64.0).unwrap())
                .scenario(Scenario::Banded)
                .seed(seed)
                .generate_jsonl()
                .unwrap()
        })
        .collect();
    // The same uploads to a plain and a by-context server: a scrape
    // renders only goal and class rows, so neither computes context
    // rows, and the memo counters agree too.
    let scrapes: Vec<String> = [false, true]
        .iter()
        .map(|&by_context| {
            let (mut config, _) = test_config(&format!("scrape-by-context-{by_context}"));
            config.burndown.by_zone = by_context;
            let handle = Server::start(config).unwrap();
            let addr = handle.addr();
            for segment in &segments {
                let (status, body) = post(addr, "/v1/ingest", segment);
                assert_eq!(status, 200, "{body}");
            }
            let (status, metrics) = get(addr, "/metrics");
            assert_eq!(status, 200, "{metrics}");
            handle.stop().unwrap();
            untimed(&metrics)
        })
        .collect();
    assert!(
        scrapes[0].contains("qrn_goal_budget_consumed"),
        "{}",
        scrapes[0]
    );
    assert_eq!(scrapes[0], scrapes[1]);
}

#[test]
fn zone_queries_serve_refinement_rows() {
    let (mut config, _) = test_config("zones");
    // A design-time campaign ledger with an "urban" refinement row.
    let mut ledger = qrn::stats::evidence::EvidenceLedger::new();
    ledger.add_exposure(None, 1024.0);
    ledger.add_exposure(Some("urban"), 256.0);
    ledger.add_incident(None, "I2", 0.5);
    ledger.add_incident(Some("urban"), "I2", 0.5);
    config.push_evidence(ledger.clone());
    let handle = Server::start(config).unwrap();
    let addr = handle.addr();

    let (status, body) = get(addr, "/v1/burndown?zone=urban");
    assert_eq!(status, 200, "{body}");
    let zone: qrn::fleet::burndown::ZoneBurnDown = serde_json::from_str(&body).unwrap();
    assert_eq!(zone.zone, "urban");
    assert_eq!(zone.exposure_hours, 256.0);
    assert!(!zone.goals.is_empty());
    // The bare name selects by equality: the body is the ledger's
    // offline "urban" row (this first read is look 1, as offline).
    let offline = qrn::fleet::burndown::burn_down_evidence_filtered(
        &paper_norm().unwrap(),
        &paper_allocation(&paper_classification().unwrap()).unwrap(),
        &ledger,
        &BurnDownConfig {
            by_zone: true,
            ..BurnDownConfig::default()
        },
        &qrn::fleet::burndown::ContextFilter::all(),
        &qrn::stats::special::QuantileMemo::new(),
    )
    .unwrap();
    assert_eq!(
        body,
        serde_json::to_string_pretty(&offline.zones[0]).unwrap()
    );

    assert_eq!(get(addr, "/v1/burndown?zone=nowhere").0, 404);
    handle.stop().unwrap();
}

#[test]
fn context_reads_match_the_offline_by_context_rows() {
    // A banded fleet: every line carries an ODD-band context key.
    let segments: Vec<String> = [21u64, 22, 23]
        .iter()
        .map(|&seed| {
            TelemetryConfig::new(4)
                .hours(Hours::new(64.0).unwrap())
                .scenario(Scenario::Banded)
                .seed(seed)
                .generate_jsonl()
                .unwrap()
        })
        .collect();
    for sequential in [false, true] {
        let (mut config, _) = test_config(&format!("context-rows-{sequential}"));
        config.burndown.sequential = sequential;
        let burndown = config.burndown;
        let handle = Server::start(config).unwrap();
        let addr = handle.addr();
        for segment in &segments {
            let (status, body) = post(addr, "/v1/ingest", segment);
            assert_eq!(status, 200, "{body}");
        }
        let offline = burn_down_filtered(
            &paper_norm().unwrap(),
            &paper_allocation(&paper_classification().unwrap()).unwrap(),
            &offline_state(&segments),
            &BurnDownConfig {
                by_zone: true,
                ..burndown
            },
            &ContextFilter::all(),
        )
        .unwrap();
        assert!(offline.zones.len() > 2);
        // Each read spends one look; apart from that counter, the
        // `?context=K` body is K's row of the offline by-context report.
        for (look, row) in (1u64..).zip(&offline.zones) {
            let (status, body) = get(addr, &format!("/v1/burndown?context={}", row.zone));
            assert_eq!(status, 200, "{body}");
            let mut expected = row.clone();
            for goal in &mut expected.goals {
                goal.looks = look;
            }
            assert_eq!(body, serde_json::to_string_pretty(&expected).unwrap());
        }
        // A where clause the selected context fails empties the
        // selection: 404, as before the selector reached the filter.
        let key = &offline.zones[0].zone;
        let failing = offline.zones[1..]
            .iter()
            .flat_map(|row| row.zone.split(','))
            .find(|pair| !key.split(',').any(|own| own == *pair))
            .unwrap()
            .replace('=', "%3D");
        let (status, body) = get(addr, &format!("/v1/burndown?context={key}&where={failing}"));
        assert_eq!(status, 404, "{body}");
        handle.stop().unwrap();
    }
}

#[test]
fn corrupt_checkpoint_fails_startup_with_clear_error() {
    let (config, checkpoint) = test_config("corrupt");
    std::fs::write(&checkpoint, "{\"schema_ver").unwrap();
    let err = match Server::start(config) {
        Err(e) => e.to_string(),
        Ok(_) => panic!("corrupt checkpoint must not start silently"),
    };
    assert!(err.contains("corrupt checkpoint"), "{err}");
    assert!(err.contains("live-state.json"), "{err}");
}
