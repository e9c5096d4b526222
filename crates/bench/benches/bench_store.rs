//! Criterion bench of the append-only evidence store: durable batch
//! append throughput (screen + fold + fsync per batch) and historical
//! replay latency, with and without snapshot records bounding the tail.
//!
//! After the criterion groups run, the harness writes the machine-local
//! perf baseline `results/BENCH_store.json`: append rate, `as_of`
//! replay cost and writer reopen cost for a store that never snapshots
//! versus one that snapshots every 512 events (quartiles over repeated
//! builds), and the in-memory cost of one append against 1k and 100k
//! sequence cursors. The *timings* are machine-local; the structural
//! claims are not, and are asserted here: both stores fold to
//! byte-identical fleet states, and the snapshotted store answers the
//! same `as_of` query, and recovers on reopen, by folding strictly fewer
//! records (snapshot + tail instead of the whole log).

use criterion::{criterion_group, Criterion};
use std::hint::black_box;
use std::path::PathBuf;
use std::time::Instant;

use qrn_bench::report::{insert_quartiles, save_json};
use qrn_core::examples::paper_classification;
use qrn_fleet::event::FleetEvent;
use qrn_fleet::telemetry::TelemetryConfig;
use qrn_store::{Store, StoreConfig, StoreReader};
use qrn_units::Hours;

fn quick() -> bool {
    std::env::var("QRN_BENCH_QUICK").is_ok_and(|v| v != "0" && !v.is_empty())
}

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("qrn-bench-store-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// One sequenced telemetry log split into `lines_per_batch`-line upload
/// batches. Splitting *after* seq stamping keeps every vehicle's
/// sequence monotone across batches, as a well-behaved uplink would.
fn sequenced_batches(hours: f64, lines_per_batch: usize) -> Vec<String> {
    let log = TelemetryConfig::new(8)
        .hours(Hours::new(hours).expect("positive"))
        .seed(7)
        .stamp_seq(true)
        .generate_jsonl()
        .expect("telemetry generates");
    let lines: Vec<&str> = log.lines().collect();
    lines
        .chunks(lines_per_batch)
        .map(|chunk| {
            let mut batch = String::with_capacity(chunk.iter().map(|l| l.len() + 1).sum());
            for line in chunk {
                batch.push_str(line);
                batch.push('\n');
            }
            batch
        })
        .collect()
}

fn store_config(snapshot_every_events: u64) -> StoreConfig {
    StoreConfig {
        snapshot_every_events,
        roll_bytes: 256 * 1024,
        compact_after_segments: 0,
        parse_shards: 1,
    }
}

/// Appends every batch at 1 ms spacing; returns the elapsed seconds.
fn append_all(store: &mut Store, batches: &[String]) -> f64 {
    let start = Instant::now();
    for (i, batch) in batches.iter().enumerate() {
        store
            .append_batch(batch, (i as u64 + 1) * 1_000)
            .expect("append");
    }
    start.elapsed().as_secs_f64()
}

fn bench_append(c: &mut Criterion) {
    let dir = temp_dir("append");
    let mut store = Store::open(
        &dir,
        paper_classification().expect("paper example"),
        store_config(512),
    )
    .expect("store opens");
    // Unsequenced lines: repeated appends of the same batch must not be
    // screened out as duplicates, so the bench measures the full
    // screen + fold + fsync path on every iteration.
    let batch = TelemetryConfig::new(8)
        .hours(Hours::new(64.0).expect("positive"))
        .seed(11)
        .generate_jsonl()
        .expect("telemetry generates");
    let lines = batch.lines().count();
    let mut ts = 0u64;
    c.bench_function(format!("store/append_{lines}_lines").as_str(), |b| {
        b.iter(|| {
            ts += 1_000;
            store.append_batch(black_box(&batch), ts).expect("append")
        })
    });
    drop(store);
    let _ = std::fs::remove_dir_all(&dir);
}

fn bench_replay(c: &mut Criterion) {
    let dir = temp_dir("replay");
    let classification = paper_classification().expect("paper example");
    let mut store =
        Store::open(&dir, classification.clone(), store_config(512)).expect("store opens");
    let batches = sequenced_batches(256.0, 64);
    append_all(&mut store, &batches);
    let last_ts = batches.len() as u64 * 1_000;
    drop(store);

    let reader = StoreReader::open(&dir, classification, 1).expect("reader opens");
    c.bench_function("store/replay_full", |b| {
        b.iter(|| reader.fold_as_of(black_box(None)).expect("fold"))
    });
    c.bench_function("store/replay_as_of_mid", |b| {
        b.iter(|| {
            reader
                .fold_as_of(black_box(Some(last_ts / 2)))
                .expect("fold")
        })
    });
    drop(reader);
    let _ = std::fs::remove_dir_all(&dir);
}

/// One timed build of a store with the given snapshot cadence.
struct TimedStore {
    append_secs: f64,
    fold_secs: f64,
    /// Records the `as_of` query folded.
    fold_records: u64,
    reopen_secs: f64,
    /// Records the writer's reopen folded.
    reopen_records: u64,
    /// Canonical JSON of the `as_of` state.
    state: String,
}

/// Builds a store with the given snapshot cadence from `batches`, then
/// times an `as_of` query at the newest batch and a writer reopen.
fn timed_store(snapshot_every_events: u64, batches: &[String]) -> TimedStore {
    let dir = temp_dir(&format!("baseline-{snapshot_every_events}"));
    let classification = paper_classification().expect("paper example");
    let config = store_config(snapshot_every_events);
    let mut store = Store::open(&dir, classification.clone(), config).expect("store opens");
    let append_secs = append_all(&mut store, batches);
    drop(store);

    let reader = StoreReader::open(&dir, classification.clone(), 1).expect("reader opens");
    let last_ts = batches.len() as u64 * 1_000;
    let start = Instant::now();
    let summary = reader.fold_as_of(Some(last_ts)).expect("fold");
    let fold_secs = start.elapsed().as_secs_f64();

    let start = Instant::now();
    let store = Store::open(&dir, classification, config).expect("store reopens");
    let reopen_secs = start.elapsed().as_secs_f64();
    let status = store.status();
    drop(store);
    let _ = std::fs::remove_dir_all(&dir);
    TimedStore {
        append_secs,
        fold_secs,
        fold_records: summary.records,
        reopen_secs,
        reopen_records: status.batches + status.snapshots,
        state: serde_json::to_string(&summary.state).expect("state serialises"),
    }
}

/// The append-cost rows: the in-memory cost of one deferred append (the
/// fsync is paid separately, outside the timing) of an 8-line sequenced
/// batch into a store already holding a seq cursor per vehicle of a
/// 1k- or 100k-vehicle roster.
fn append_cost_rows(repeats: usize) -> Vec<serde_json::Value> {
    const LINES_PER_BATCH: u64 = 8;
    [1_000u64, 100_000]
        .iter()
        .map(|&cursors| {
            let dir = temp_dir(&format!("append-cost-{cursors}"));
            let config = StoreConfig {
                snapshot_every_events: 0,
                roll_bytes: 1 << 30,
                compact_after_segments: 0,
                parse_shards: 1,
            };
            let mut store =
                Store::open(&dir, paper_classification().expect("paper example"), config)
                    .expect("store opens");
            let line = |vehicle: u64, seq: u64| {
                FleetEvent::Exposure {
                    vehicle: format!("V{vehicle:06}"),
                    hours: Hours::new(0.25).expect("positive"),
                }
                .to_line_with_seq(seq)
            };
            let mut roster = String::new();
            for vehicle in 0..cursors {
                roster.push_str(&line(vehicle, 1));
                roster.push('\n');
            }
            store.append_batch(&roster, 1).expect("roster appends");
            assert_eq!(store.cursors().len() as u64, cursors);
            let mut micros = Vec::with_capacity(repeats);
            for repeat in 0..repeats as u64 {
                let mut batch = String::new();
                for i in 0..LINES_PER_BATCH {
                    let vehicle = (repeat * LINES_PER_BATCH + i) * 7919 % cursors;
                    batch.push_str(&line(vehicle, 2 + repeat));
                    batch.push('\n');
                }
                let start = Instant::now();
                let receipt = store
                    .append_batch_deferred(&batch, 2 + repeat)
                    .expect("append");
                micros.push(start.elapsed().as_secs_f64() * 1e6);
                assert_eq!(receipt.duplicates, 0);
                store.sync().expect("sync");
            }
            drop(store);
            let _ = std::fs::remove_dir_all(&dir);
            let mut row = serde_json::json!({
                "cursors": cursors,
                "lines_per_batch": LINES_PER_BATCH,
                "repeats": repeats,
            });
            let median = insert_quartiles(&mut row, "append_us", micros);
            println!(
                "store/append_cost cursors={cursors}: {median:.1} us per deferred append (median)"
            );
            row
        })
        .collect()
}

/// Writes `results/BENCH_store.json` and asserts the structural claims
/// that hold on any machine: snapshot cadence never changes the folded
/// state (byte-identical JSON), and a snapshotted store answers the same
/// `as_of` query — and recovers on reopen — by folding strictly fewer
/// records. Timings are quartiles over repeated builds.
fn emit_store_baseline() {
    let host_cpus = std::thread::available_parallelism()
        .map(usize::from)
        .unwrap_or(1);
    let hours = if quick() { 256.0 } else { 1024.0 };
    let repeats = if quick() { 3 } else { 7 };
    let batches = sequenced_batches(hours, 32);
    let events: usize = batches.iter().map(|b| b.lines().count()).sum();

    let mut rows = Vec::new();
    let mut fold_records = Vec::new();
    let mut reopen_records = Vec::new();
    let mut states = Vec::new();
    for snapshot_every in [0u64, 512] {
        let runs: Vec<TimedStore> = (0..repeats)
            .map(|_| timed_store(snapshot_every, &batches))
            .collect();
        let first = &runs[0];
        assert!(
            runs.iter().all(|run| run.state == first.state
                && run.fold_records == first.fold_records
                && run.reopen_records == first.reopen_records),
            "repeated builds of one store differ"
        );
        let mut row = serde_json::json!({
            "snapshot_every_events": snapshot_every,
            "repeats": repeats,
            "as_of_records_folded": first.fold_records,
            "reopen_records_folded": first.reopen_records,
        });
        let append_rate = insert_quartiles(
            &mut row,
            "append_events_per_second",
            runs.iter()
                .map(|run| events as f64 / run.append_secs)
                .collect(),
        );
        let fold_ms = insert_quartiles(
            &mut row,
            "as_of_fold_millis",
            runs.iter().map(|run| run.fold_secs * 1e3).collect(),
        );
        let reopen_ms = insert_quartiles(
            &mut row,
            "reopen_millis",
            runs.iter().map(|run| run.reopen_secs * 1e3).collect(),
        );
        println!(
            "store/baseline snapshot_every={snapshot_every}: {append_rate:.0} events/s appended, \
             as_of fold {fold_ms:.2} ms over {} record(s), reopen {reopen_ms:.2} ms over {} \
             record(s) (medians)",
            first.fold_records, first.reopen_records,
        );
        fold_records.push(first.fold_records);
        reopen_records.push(first.reopen_records);
        states.push(first.state.clone());
        rows.push(row);
    }
    let append_cost = append_cost_rows(if quick() { 9 } else { 41 });

    save_json(
        "BENCH_store",
        &serde_json::json!({
            "host_cpus": host_cpus,
            "events": events,
            "batches": batches.len(),
            "quick": quick(),
            "baseline": rows,
            "append_cost": append_cost,
            "note": "baseline: durable append rate, as_of replay cost and writer reopen cost \
                     without vs with snapshot records, quartiles over repeated builds; \
                     append_cost: one deferred (unsynced) append of an 8-line batch against \
                     1k and 100k seq cursors. Timings are machine-local, but the snapshotted \
                     store must fold strictly fewer records for the same query and at reopen, \
                     and both must fold to byte-identical states",
        }),
    );

    assert_eq!(
        states[0], states[1],
        "snapshot cadence changed the folded state"
    );
    assert!(
        fold_records[1] < fold_records[0],
        "snapshotted as_of replay folded {} record(s), not fewer than the \
         snapshot-free store's {}",
        fold_records[1],
        fold_records[0],
    );
    assert!(
        reopen_records[1] < reopen_records[0],
        "the snapshotted store's reopen folded {} record(s), not fewer than the \
         snapshot-free store's {}",
        reopen_records[1],
        reopen_records[0],
    );
}

criterion_group!(benches, bench_append, bench_replay);

fn main() {
    benches();
    emit_store_baseline();
}
