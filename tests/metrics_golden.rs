//! Golden bytes of the `/metrics` scrape.
//!
//! The fixtures under `tests/fixtures/metrics_golden/` were scraped from
//! the server as it stood *before* its item-labelled families were
//! rendered from one table, and no test rewrites them. Since then only
//! the `qrn_server_checkpoints_written_total` HELP line has changed, when
//! that counter moved from uploads to spent looks and drains; its sample
//! reads 3 either way (three uploads then, three looks now). The other
//! `/metrics` tests check single lines or the format's structure; this
//! one pins every family, label and value of a whole scrape.
//!
//! Four servers take the same fixed uploads and reads: in memory or with
//! an evidence store, each plain or sequential. Each serves two items
//! (`default` and `vru`), and the uploads hold ODD `ctx` bands,
//! incidents, a sequence duplicate and gap, and `bad_json` and
//! `not_an_object` lines. Both items' burn-downs are read before the
//! scrape, so the look counters move. Requests run one at a time, so
//! every counter is reproducible; only the uptime sample and the
//! request-latency histogram are timing, and those values are
//! normalised. Hours are dyadic, so every float is exact.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::{Path, PathBuf};
use std::time::Duration;

use qrn::core::examples::{paper_allocation, paper_classification, paper_norm};
use qrn::core::incident::IncidentRecord;
use qrn::core::object::{Involvement, ObjectType};
use qrn::fleet::event::FleetEvent;
use qrn::serve::{ServeConfig, Server};
use qrn::stats::prometheus::validate_exposition;
use qrn::units::{Hours, Speed};

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("qrn-metrics-golden-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn config(dir: &Path, store: bool, sequential: bool) -> ServeConfig {
    let classification = paper_classification().unwrap();
    let allocation = paper_allocation(&classification).unwrap();
    let mut config = ServeConfig::new(
        paper_norm().unwrap(),
        classification.clone(),
        allocation.clone(),
    );
    config.add_item("vru", paper_norm().unwrap(), classification, allocation);
    config.port = 0;
    config.workers = 2;
    config.io_timeout = Duration::from_secs(5);
    config.shards = 2;
    config.state_shards = 2;
    config.checkpoint = Some(dir.join("live-state.json"));
    config.burndown.sequential = sequential;
    if store {
        config.store = Some(dir.join("store"));
        config.store_snapshot_every = 2;
        config.store_roll_bytes = 512;
    }
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

fn get(addr: SocketAddr, target: &str) -> String {
    let (status, body) = request(addr, &format!("GET {target} HTTP/1.1\r\nHost: x\r\n\r\n"));
    assert_eq!(status, 200, "GET {target}: {body}");
    body
}

fn post(addr: SocketAddr, target: &str, body: &str) {
    let (status, reply) = request(
        addr,
        &format!(
            "POST {target} HTTP/1.1\r\nHost: x\r\nContent-Length: {}\r\n\r\n{body}",
            body.len()
        ),
    );
    assert_eq!(status, 200, "POST {target}: {reply}");
}

fn exposure(vehicle: &str, hours: f64) -> FleetEvent {
    FleetEvent::Exposure {
        vehicle: vehicle.into(),
        hours: Hours::new(hours).unwrap(),
    }
}

fn crash(vehicle: &str, kmh: f64) -> FleetEvent {
    FleetEvent::Incident {
        vehicle: vehicle.into(),
        record: IncidentRecord::collision(
            Involvement::ego_with(ObjectType::Vru),
            Speed::from_kmh(kmh).unwrap(),
        ),
    }
}

/// The upload batches, as `(route, body)`.
fn uploads() -> Vec<(&'static str, String)> {
    const FOG: Option<&str> = Some("weather=fog,zone=urban");
    const HIGHWAY: Option<&str> = Some("weather=clear,zone=highway");
    let line = |event: FleetEvent, seq: u64, ctx: Option<&str>| {
        event.to_line_with_meta(Some(seq), ctx) + "\n"
    };
    let resent = line(exposure("V1", 2.0), 3, None);
    vec![
        (
            "/v1/ingest",
            [
                line(exposure("V1", 8.0), 1, FOG),
                line(exposure("V2", 4.0), 1, None),
                line(crash("V1", 40.0), 2, FOG),
                "{broken json\n".to_string(),
                "[1,2,3]\n".to_string(),
            ]
            .concat(),
        ),
        (
            "/v1/ingest",
            [
                resent.clone(),
                resent,
                // V2 skips seq 2: a gap.
                line(exposure("V2", 0.5), 3, FOG),
                line(exposure("V3", 1.25), 1, HIGHWAY),
            ]
            .concat(),
        ),
        (
            "/v1/vru/ingest",
            [
                line(exposure("V7", 16.0), 1, HIGHWAY),
                line(crash("V7", 25.0), 2, HIGHWAY),
                "42\n".to_string(),
            ]
            .concat(),
        ),
    ]
}

/// Replaces the value of every timing sample with `<t>`.
fn normalise(scrape: &str) -> String {
    scrape
        .lines()
        .map(|line| {
            if line.starts_with("qrn_server_uptime_seconds ")
                || line.starts_with("qrn_http_request_seconds_")
            {
                let (series, _) = line.rsplit_once(' ').unwrap();
                format!("{series} <t>\n")
            } else {
                format!("{line}\n")
            }
        })
        .collect()
}

/// Drives one server through the fixed uploads and reads and returns
/// its normalised scrape.
fn scrape(store: bool, sequential: bool) -> String {
    let dir = temp_dir(&format!("{store}-{sequential}"));
    let handle = Server::start(config(&dir, store, sequential)).unwrap();
    let addr = handle.addr();
    for (route, body) in uploads() {
        post(addr, route, &body);
    }
    get(addr, "/healthz");
    get(addr, "/v1/burndown");
    get(addr, "/v1/vru/burndown");
    get(addr, "/v1/burndown");
    let body = get(addr, "/metrics");
    handle.stop().unwrap();
    let _ = std::fs::remove_dir_all(&dir);
    validate_exposition(&body).unwrap();
    normalise(&body)
}

fn assert_golden(name: &str, actual: &str) {
    let path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures/metrics_golden")
        .join(name);
    let expected = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("missing golden fixture {}: {e}", path.display()));
    if actual != expected {
        let line = actual
            .lines()
            .zip(expected.lines())
            .position(|(a, e)| a != e)
            .unwrap_or(actual.lines().count().min(expected.lines().count()));
        panic!(
            "{name} drifted from its golden bytes at line {}: got {:?}, want {:?}",
            line + 1,
            actual.lines().nth(line),
            expected.lines().nth(line),
        );
    }
}

#[test]
fn in_memory_scrape_matches_golden_bytes() {
    assert_golden("memory.txt", &scrape(false, false));
}

#[test]
fn in_memory_sequential_scrape_matches_golden_bytes() {
    assert_golden("memory_sequential.txt", &scrape(false, true));
}

#[test]
fn store_scrape_matches_golden_bytes() {
    assert_golden("store.txt", &scrape(true, false));
}

#[test]
fn store_sequential_scrape_matches_golden_bytes() {
    assert_golden("store_sequential.txt", &scrape(true, true));
}
