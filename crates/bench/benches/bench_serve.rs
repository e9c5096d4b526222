//! Criterion bench of the live evidence server: end-to-end HTTP
//! round-trips against a real listener on 127.0.0.1 — segment ingest
//! throughput, burn-down query latency and the metrics scrape — a
//! read-cost sweep over the fleet size (the ledger snapshot plus report
//! that burn-down and `/metrics` run, against the full roster fold that
//! checkpoints run, at 1k and 100k vehicles), plus an ingest-saturation
//! sweep over the live-state shard count.
//!
//! After the criterion groups run, the harness writes the machine-local
//! perf baseline `results/BENCH_serve.json`: the read-cost sweep, the
//! report cost per read shape (plain, `?where=`, `?context=` and the
//! full by-context report) on a 27-band ledger, and accepted
//! events/second under concurrent client POSTs for
//! `state_shards` ∈ {1, 2, 4, 8}. Every timing carries its repeat count
//! and its quartiles. It asserts the sharded path is never
//! slower than the single-lock baseline (within a 10 % noise margin).
//! As with `BENCH_sim`'s worker scaling, the *shape* of the curve is
//! machine-local: on a 1-CPU container every shard shares one core, so
//! the sweep shows contention removal (flat-to-modest gains), not the
//! multi-core scaling a fleet ingestion host would see.

use criterion::{criterion_group, BenchmarkId, Criterion};
use std::hint::black_box;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Instant;

use qrn_bench::report::{insert_quartiles, save_json};
use qrn_core::allocation::Allocation;
use qrn_core::examples::{paper_allocation, paper_classification, paper_norm};
use qrn_core::incident::IncidentRecord;
use qrn_core::norm::QuantitativeRiskNorm;
use qrn_core::object::{Involvement, ObjectType};
use qrn_fleet::burndown::{BurnDownConfig, ContextFilter, FleetReport};
use qrn_fleet::event::FleetEvent;
use qrn_fleet::ingest::{ingest_str, FleetState};
use qrn_fleet::telemetry::TelemetryConfig;
use qrn_serve::{LedgerSnapshot, ServeConfig, Server, ServerHandle, ShardedState};
use qrn_stats::evidence::EvidenceLedger;
use qrn_stats::rng::{poisson, seeded};
use qrn_stats::special::QuantileMemo;
use qrn_units::{Hours, Speed};

fn quick() -> bool {
    std::env::var("QRN_BENCH_QUICK").is_ok_and(|v| v != "0" && !v.is_empty())
}

fn server_config() -> ServeConfig {
    let classification = paper_classification().expect("paper example");
    let allocation = paper_allocation(&classification).expect("paper example");
    let mut config = ServeConfig::new(
        paper_norm().expect("paper example"),
        classification,
        allocation,
    );
    config.port = 0;
    config.workers = 2;
    config.shards = 2;
    config.state_shards = 2;
    config
}

fn start_server() -> ServerHandle {
    Server::start(server_config()).expect("bind 127.0.0.1:0")
}

fn roundtrip(addr: SocketAddr, raw: &[u8]) -> usize {
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream.write_all(raw).expect("send");
    let mut reply = Vec::new();
    stream.read_to_end(&mut reply).expect("recv");
    assert!(reply.starts_with(b"HTTP/1.1 200 "), "non-200 reply");
    reply.len()
}

fn segment_jsonl() -> String {
    TelemetryConfig::new(8)
        .hours(Hours::new(64.0).expect("positive"))
        .seed(11)
        .generate_jsonl()
        .expect("telemetry generates")
}

fn ingest_request(segment: &str) -> String {
    format!(
        "POST /v1/ingest HTTP/1.1\r\nHost: x\r\nContent-Length: {}\r\n\r\n{segment}",
        segment.len()
    )
}

fn bench_ingest(c: &mut Criterion) {
    let handle = start_server();
    let addr = handle.addr();
    let segment = segment_jsonl();
    let request = ingest_request(&segment);
    let lines = segment.lines().count();
    c.bench_function(format!("serve/ingest_{lines}_lines").as_str(), |b| {
        b.iter(|| roundtrip(addr, black_box(request.as_bytes())))
    });
    handle.stop().expect("drain");
}

fn bench_burndown_query(c: &mut Criterion) {
    let handle = start_server();
    let addr = handle.addr();
    let segment = segment_jsonl();
    roundtrip(addr, ingest_request(&segment).as_bytes());
    let query = b"GET /v1/burndown HTTP/1.1\r\nHost: x\r\n\r\n";
    c.bench_function("serve/burndown_query", |b| {
        b.iter(|| roundtrip(addr, black_box(query)))
    });
    let scrape = b"GET /metrics HTTP/1.1\r\nHost: x\r\n\r\n";
    c.bench_function("serve/metrics_scrape", |b| {
        b.iter(|| roundtrip(addr, black_box(scrape)))
    });
    handle.stop().expect("drain");

    // The read path without HTTP, swept over the fleet size: what a
    // burn-down or scrape costs (snapshot + report) against what a
    // checkpoint costs (the roster fold).
    let reads = ReadFixture::new();
    let mut group = c.benchmark_group("serve/read");
    for vehicles in ROSTER_SWEEP {
        let state = roster_state(vehicles);
        group.bench_with_input(
            BenchmarkId::new("snapshot_report", vehicles),
            &state,
            |b, state| b.iter(|| reads.snapshot_report(state)),
        );
        group.bench_with_input(BenchmarkId::new("fold", vehicles), &state, |b, state| {
            b.iter(|| state.fold())
        });
    }
    group.finish();
}

/// Fleet sizes of the read-cost sweep.
const ROSTER_SWEEP: [usize; 2] = [1_000, 100_000];

/// Vehicles per pre-ingested segment, as in a fleet upload.
const VEHICLES_PER_SEGMENT: usize = 8;

/// ODD bands the sweep's telemetry reports in (canonical context keys).
const BANDS: [&str; 4] = [
    "lighting=day,zone=urban",
    "lighting=night,zone=urban",
    "lighting=day,zone=rural",
    "lighting=night,zone=rural",
];

/// Live state with `vehicles` distinct vehicles, ingested as
/// 8-vehicle segments of banded telemetry: two dyadic exposure lines per
/// vehicle, and a VRU collision in every fourth segment.
fn roster_state(vehicles: usize) -> ShardedState {
    let classification = paper_classification().expect("paper example");
    let state = ShardedState::new(2, FleetState::default());
    let mut body = String::new();
    for first in (0..vehicles).step_by(VEHICLES_PER_SEGMENT) {
        body.clear();
        let segment = first / VEHICLES_PER_SEGMENT;
        for vehicle in first..(first + VEHICLES_PER_SEGMENT).min(vehicles) {
            let band = Some(BANDS[vehicle % BANDS.len()]);
            for quarters in [1, 3] {
                let event = FleetEvent::Exposure {
                    vehicle: format!("V{vehicle:06}"),
                    hours: Hours::new(0.25 * f64::from(quarters)).expect("positive"),
                };
                body.push_str(&event.to_line_with_meta(None, band));
                body.push('\n');
            }
        }
        if segment.is_multiple_of(4) {
            let event = FleetEvent::Incident {
                vehicle: format!("V{first:06}"),
                record: IncidentRecord::collision(
                    Involvement::ego_with(ObjectType::Vru),
                    Speed::from_kmh(5.0 + (segment % 40) as f64).expect("valid speed"),
                ),
            };
            body.push_str(&event.to_line_with_meta(None, Some(BANDS[first % BANDS.len()])));
            body.push('\n');
        }
        state.ingest(&ingest_str(&body, &classification, 1).expect("segment ingests"));
    }
    assert_eq!(state.vehicle_count(), vehicles as u64);
    state
}

/// The norm and allocation a served item reports against.
struct ReadFixture {
    norm: QuantitativeRiskNorm,
    allocation: Allocation,
    config: BurnDownConfig,
}

impl ReadFixture {
    fn new() -> Self {
        let classification = paper_classification().expect("paper example");
        ReadFixture {
            norm: paper_norm().expect("paper example"),
            allocation: paper_allocation(&classification).expect("paper example"),
            config: BurnDownConfig::default(),
        }
    }

    /// What `GET /v1/burndown` and `/metrics` compute per item, through
    /// a fresh quantile memo: the cost of a read whose counts changed.
    fn snapshot_report(&self, state: &ShardedState) -> FleetReport {
        state
            .snapshot()
            .report(
                &self.norm,
                &self.allocation,
                &self.config,
                &ContextFilter::all(),
                &QuantileMemo::new(),
            )
            .expect("report computes")
    }
}

/// Wall times of `repeats` runs of `f`, in `scale` units per second.
fn timed<O>(repeats: usize, scale: f64, mut f: impl FnMut() -> O) -> Vec<f64> {
    (0..repeats)
        .map(|_| {
            let start = Instant::now();
            black_box(f());
            start.elapsed().as_secs_f64() * scale
        })
        .collect()
}

/// The read-cost rows of `results/BENCH_serve.json`: per fleet size, the
/// snapshot + report time and the roster-fold time.
fn read_cost_rows() -> Vec<serde_json::Value> {
    let reads = ReadFixture::new();
    let repeats = if quick() { 5 } else { 21 };
    ROSTER_SWEEP
        .iter()
        .map(|&vehicles| {
            let state = roster_state(vehicles);
            let mut row = serde_json::json!({
                "vehicles": vehicles,
                "repeats": repeats,
            });
            let report = insert_quartiles(
                &mut row,
                "snapshot_report_us",
                timed(repeats, 1e6, || reads.snapshot_report(&state)),
            );
            let fold = insert_quartiles(&mut row, "fold_ms", timed(repeats, 1e3, || state.fold()));
            println!(
                "serve/read vehicles={vehicles}: snapshot+report {report:.1} us, fold {fold:.2} ms"
            );
            row
        })
        .collect()
}

/// The 27 ODD bands of the read-shape ledger: lighting × weather × zone,
/// the band keys a banded fleet upload reports in.
fn shape_bands() -> Vec<String> {
    let mut bands = Vec::new();
    for lighting in ["day", "dusk", "night"] {
        for weather in ["clear", "fog", "rain"] {
            for zone in ["highway", "rural", "urban"] {
                bands.push(format!("lighting={lighting},weather={weather},zone={zone}"));
            }
        }
    }
    bands
}

/// A 27-band ledger shaped like a banded fleet after a few thousand
/// uploads: 25k hours of exposure spread over the bands in dyadic
/// chunks, and per band and goal a small Poisson incident count whose
/// mean runs from about 0.3 to 40 across the goals — so the report's
/// context × goal cells repeat a few dozen distinct counts, as a
/// live fleet's do.
fn shape_snapshot(allocation: &Allocation) -> LedgerSnapshot {
    let mut evidence = EvidenceLedger::new();
    let mut rng = seeded(27);
    let kinds: Vec<&str> = allocation.budgets().map(|(id, _)| id.as_str()).collect();
    for (b, band) in shape_bands().iter().enumerate() {
        let hours = 0.25 * (3000 + 97 * b) as f64;
        evidence.add_exposure(None, hours);
        evidence.add_exposure(Some(band), hours);
        for (k, kind) in kinds.iter().enumerate() {
            let mean = 0.3 * 1.25f64.powi(k as i32);
            for _ in 0..poisson(&mut rng, mean) {
                evidence.add_incident(None, kind, 1.0);
                evidence.add_incident(Some(band), kind, 1.0);
            }
        }
    }
    LedgerSnapshot {
        evidence,
        vehicles: 100_000,
        lines: 0,
        events: 0,
        skipped: Default::default(),
    }
}

/// A plain-read ledger shaped like the end state of a hot ingest run:
/// one count per goal spread from about 500 to 23k, not in goal order,
/// over a million fleet hours, so every Garwood bisection runs at a
/// large count.
fn large_count_snapshot(allocation: &Allocation) -> LedgerSnapshot {
    let mut evidence = EvidenceLedger::new();
    evidence.add_exposure(None, 1.0e6);
    let kinds: Vec<&str> = allocation.budgets().map(|(id, _)| id.as_str()).collect();
    let spread = (kinds.len() - 1).max(1) as f64;
    for (k, kind) in kinds.iter().enumerate() {
        // Every seventh rank modulo the goal count: a permutation, so
        // the counts do not grow with the goal order.
        let rank = (7 * k) % kinds.len();
        let count = (500.0 * 46f64.powf(rank as f64 / spread)).round() as u64;
        for _ in 0..count {
            evidence.add_incident(None, kind, 1.0);
        }
    }
    LedgerSnapshot {
        evidence,
        vehicles: 1_000,
        lines: 0,
        events: 0,
        skipped: Default::default(),
    }
}

/// The read-shape rows of `results/BENCH_serve.json`: the report cost of
/// each burn-down read shape in sequential mode — the global report
/// (`plain`), a one-dimension `?where=` (9 rows), a `?context=` (1 row)
/// and the full by-context report (27 rows) — plus a non-sequential
/// plain read at large counts (`large_counts`), whose upper and lower
/// Garwood bounds are both computed. Each row times the report *cold*,
/// through a fresh quantile memo per repeat (a read whose counts
/// changed), and *warm*, through one memo shared across the repeats on
/// the unchanged ledger (a server's repeated read), and counts the
/// quantiles each computes.
fn read_shape_rows() -> Vec<serde_json::Value> {
    let reads = ReadFixture::new();
    let snapshot = shape_snapshot(&reads.allocation);
    let large = large_count_snapshot(&reads.allocation);
    // Distinct goal counts over every row, the global one included.
    let distinct_counts = |snapshot: &LedgerSnapshot| {
        let counts: std::collections::BTreeSet<u64> = snapshot
            .evidence
            .contexts()
            .flat_map(|(_, row)| {
                reads
                    .allocation
                    .budgets()
                    .map(move |(id, _)| row.count(id.as_str()).observations())
            })
            .collect();
        counts.len()
    };
    let repeats = if quick() { 7 } else { 41 };
    let where_fog = ContextFilter::parse(["weather=fog"]).expect("valid clause");
    let context = ContextFilter::all().only(&shape_bands()[13]);
    let all = ContextFilter::all();
    let shapes: [(&str, bool, bool, &LedgerSnapshot, &ContextFilter); 5] = [
        ("plain", false, true, &snapshot, &all),
        ("where", true, true, &snapshot, &where_fog),
        ("context", true, true, &snapshot, &context),
        ("by_context", true, true, &snapshot, &all),
        ("large_counts", false, false, &large, &all),
    ];
    shapes
        .iter()
        .map(|&(shape, by_zone, sequential, snapshot, filter)| {
            let config = BurnDownConfig {
                by_zone,
                sequential,
                ..BurnDownConfig::default()
            };
            let report = |memo: &QuantileMemo| {
                snapshot
                    .report(&reads.norm, &reads.allocation, &config, filter, memo)
                    .expect("report computes")
            };
            let warm = QuantileMemo::new();
            let rows = report(&warm).zones.len();
            let cold_quantiles = warm.misses();
            let cold = timed(repeats, 1e6, || report(&QuantileMemo::new()));
            let warm_times = timed(repeats, 1e6, || report(&warm));
            let warm_quantiles = warm.misses() - cold_quantiles;
            let mut row = serde_json::json!({
                "shape": shape,
                "sequential": sequential,
                "context_rows": rows,
                "distinct_counts": distinct_counts(snapshot),
                "repeats": repeats,
                "cold_quantiles_computed": cold_quantiles,
                "warm_quantiles_computed": warm_quantiles,
            });
            let cold = insert_quartiles(&mut row, "report_us", cold);
            let warm_cost = insert_quartiles(&mut row, "warm_report_us", warm_times);
            println!(
                "serve/read_shape {shape} ({rows} context rows): report {cold:.1} us cold \
                 ({cold_quantiles} quantiles), {warm_cost:.1} us warm ({warm_quantiles} quantiles)"
            );
            row
        })
        .collect()
}

/// One saturation measurement: `clients` concurrent threads each POST
/// `posts_per_client` pre-built segments to a server with the given
/// live-state shard count; returns accepted events per wall-clock
/// second.
fn timed_saturation(state_shards: usize, clients: usize, posts_per_client: usize) -> f64 {
    let mut config = server_config();
    config.workers = clients;
    config.queue_depth = clients * 4;
    // Parse sharding off: the sweep isolates the state-merge handoff,
    // not the (already parallel) parser.
    config.shards = 1;
    config.state_shards = state_shards;
    let handle = Server::start(config).expect("bind 127.0.0.1:0");
    let addr = handle.addr();

    // Distinct dyadic segments per client so uploads hit different
    // vehicles, as fleet traffic does.
    let requests: Vec<Vec<String>> = (0..clients)
        .map(|client| {
            (0..posts_per_client)
                .map(|post| {
                    let segment = TelemetryConfig::new(4)
                        .hours(Hours::new(8.0).expect("positive"))
                        .seed((client * posts_per_client + post) as u64 + 1)
                        .generate_jsonl()
                        .expect("telemetry generates");
                    ingest_request(&segment)
                })
                .collect()
        })
        .collect();
    let events: u64 = requests
        .iter()
        .flatten()
        .map(|req| req.lines().count() as u64)
        .sum();

    let start = Instant::now();
    let uploads: Vec<_> = requests
        .into_iter()
        .map(|client_requests| {
            std::thread::spawn(move || {
                for request in client_requests {
                    roundtrip(addr, request.as_bytes());
                }
            })
        })
        .collect();
    for upload in uploads {
        upload.join().expect("client thread");
    }
    let secs = start.elapsed().as_secs_f64();
    handle.stop().expect("drain");
    events as f64 / secs
}

/// Writes `results/BENCH_serve.json` and asserts the sharded path is
/// never slower than the single-lock baseline (10 % noise margin: the
/// measurement rides on scheduler jitter, especially on 1-CPU hosts).
fn emit_serve_baseline() {
    let host_cpus = std::thread::available_parallelism()
        .map(usize::from)
        .unwrap_or(1);
    let (clients, posts_per_client) = if quick() { (4, 6) } else { (4, 24) };
    let saturation_repeats = if quick() { 1 } else { 5 };
    let read_cost = read_cost_rows();
    let read_shapes = read_shape_rows();

    let mut rows = Vec::new();
    let mut baseline = 0.0f64;
    let mut best_sharded = 0.0f64;
    for state_shards in [1usize, 2, 4, 8] {
        let mut rates: Vec<f64> = (0..saturation_repeats)
            .map(|_| timed_saturation(state_shards, clients, posts_per_client))
            .collect();
        rates.sort_by(f64::total_cmp);
        let rate = rates[rates.len() / 2];
        if state_shards == 1 {
            baseline = rate;
        } else {
            best_sharded = best_sharded.max(rate);
        }
        println!("serve/saturation state_shards={state_shards}: {rate:.0} events/s (median)");
        rows.push(serde_json::json!({
            "state_shards": state_shards,
            "repeats": saturation_repeats,
            "events_per_second": rate,
            "events_per_second_min": rates[0],
            "events_per_second_max": rates[rates.len() - 1],
        }));
    }

    save_json(
        "BENCH_serve",
        &serde_json::json!({
            "host_cpus": host_cpus,
            "clients": clients,
            "posts_per_client": posts_per_client,
            "quick": quick(),
            "read_cost": read_cost,
            "read_shapes": read_shapes,
            "saturation": rows,
            "note": "read_cost: a burn-down/scrape read (ledger snapshot + report) stays \
                     flat in the fleet size while the checkpoint fold grows with it; \
                     read_shapes: sequential report cost per read shape on a 27-band \
                     ledger — one global row, plus the context rows served, plus one \
                     Garwood quantile per distinct count, so ?context= (1 row) costs \
                     least after plain and the full by-context report most — and a \
                     non-sequential plain read at counts of 500-23k (large_counts); \
                     report_us is cold (a fresh quantile memo per repeat, as a read \
                     whose counts changed), warm_report_us shares one memo across the \
                     repeats on the unchanged ledger, as a server's repeated read does, \
                     and computes no quantile; \
                     saturation: median (and min/max) events/second under concurrent \
                     ingest POSTs vs live-state shard count; on a 1-CPU container all \
                     shards share one core, so the curve shows lock-contention removal, \
                     not multi-core scaling",
        }),
    );

    assert!(
        best_sharded >= baseline * 0.9,
        "sharded ingest ({best_sharded:.0} events/s) fell more than 10% below the \
         single-lock baseline ({baseline:.0} events/s)"
    );
}

criterion_group!(benches, bench_ingest, bench_burndown_query);

fn main() {
    benches();
    emit_serve_baseline();
}
