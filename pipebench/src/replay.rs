//! The traced run: the workload's own seeded operations replayed
//! in-process through each layer's public functions, with a span around
//! every call, plus probes of the layers a workload's server path does
//! not reach (so every layer metric is defined on every workload).

use std::collections::BTreeMap;
use std::hint::black_box;
use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

use qrn_fleet::burndown::{burn_down_filtered, BurnDownConfig, ContextFilter, FleetReport};
use qrn_fleet::event::fastpath::{parse_line_hybrid, ParsedLine};
use qrn_fleet::ingest::{ingest_str, FleetState};
use qrn_serve::ShardedState;
use qrn_stats::prometheus::{render_ledgers, TextFamilies};
use qrn_store::segment::SnapshotPayload;
use qrn_store::writer::{spawn_with, DEFAULT_GROUP_COMMIT};
use qrn_store::{Store, StoreConfig, StoreReader};

use crate::drive::{Case, Outcome, SHARDS};
use crate::stats::{mean, median, percentile};
use crate::trace::Tracer;
use crate::workload::{
    store_probe_inputs, Inputs, Op, Query, StoreProbeInputs, Workload, SEGMENT_LINES,
};

/// Reads the replay keeps from a closed loop's probe list.
const REPLAY_BURNDOWNS: usize = 20;
const REPLAY_METRICS: usize = 5;
/// Uploads timed against a concurrent fold, and the pause between them:
/// enough for the p99 and to span many folds at 100k vehicles.
const CONTENDED_UPLOADS: usize = 1000;
const CONTENDED_PAUSE: Duration = Duration::from_millis(2);
/// `?as_of=` folds and snapshots the store probe times.
const READER_CUTS: usize = 10;
const SNAPSHOTS: usize = 3;
/// Appends each of two threads sends through the store writer.
const WRITER_APPENDS_PER_THREAD: usize = 25;

/// One per-layer metric: name, value, unit.
pub type Metric = (&'static str, f64, &'static str);

fn store_config() -> StoreConfig {
    StoreConfig {
        parse_shards: SHARDS,
        ..StoreConfig::default()
    }
}

fn open_store(case: &Case, dir: &Path) -> Result<Store, String> {
    if dir.exists() {
        std::fs::remove_dir_all(dir).map_err(|e| format!("cannot clear {}: {e}", dir.display()))?;
    }
    Store::open(dir, case.classification.clone(), store_config()).map_err(|e| e.to_string())
}

/// The operations the layer pass replays: the first uploads, burn-downs
/// and metrics reads of the timed list and then of the read probe, in
/// list order.
fn replay_ops(workload: &Workload, inputs: &Inputs) -> Vec<Op> {
    let mut quota = [workload.replay_uploads, REPLAY_BURNDOWNS, REPLAY_METRICS];
    let timed = inputs.timed.iter().map(|scheduled| &scheduled.op);
    timed
        .chain(&inputs.probe)
        .filter(|op| {
            let left = match op {
                Op::Upload { .. } => &mut quota[0],
                Op::Burndown(_) => &mut quota[1],
                Op::Metrics => &mut quota[2],
            };
            let keep = *left > 0;
            *left = left.saturating_sub(1);
            keep
        })
        .cloned()
        .collect()
}

fn upload_bodies<'a>(ops: &'a [Op], inputs: &'a Inputs) -> impl Iterator<Item = &'a str> + 'a {
    ops.iter().filter_map(|op| match op {
        Op::Upload { body, .. } => Some(inputs.bodies[*body].as_str()),
        _ => None,
    })
}

/// The live route's handling of one read: the config and filter it
/// folds with, and the body it renders.
fn read_config(workload: &Workload, query: Option<&Query>) -> (BurnDownConfig, ContextFilter) {
    let mut config = BurnDownConfig {
        sequential: workload.sequential,
        ..BurnDownConfig::default()
    };
    let filter = match query {
        Some(Query::Where(clause)) => {
            ContextFilter::parse(clause.split(',')).expect("generated clauses parse")
        }
        _ => ContextFilter::all(),
    };
    if matches!(query, Some(Query::Where(_) | Query::Context(_))) {
        config.by_zone = true;
    }
    (config, filter)
}

fn render(report: &FleetReport, query: &Query) -> String {
    match query {
        Query::Context(key) => report
            .zones
            .iter()
            .find(|row| &row.zone == key)
            .map(|row| serde_json::to_string_pretty(row).expect("rows serialise"))
            .unwrap_or_default(),
        _ => report.to_canonical_json(),
    }
}

/// The state (and, for store workloads, the store) after seeding the
/// roster and the warm-up uploads, none of it traced.
fn seeded(
    case: &Case,
    workload: &Workload,
    inputs: &Inputs,
    store_dir: &Path,
    ts: &mut u64,
) -> Result<(ShardedState, Option<Store>), String> {
    let state = ShardedState::new(SHARDS, FleetState::default());
    let mut store = if workload.store {
        Some(open_store(case, store_dir)?)
    } else {
        None
    };
    let warmup = inputs
        .warmup
        .iter()
        .map(|&body| inputs.bodies[body].as_str());
    for body in inputs
        .roster_bodies
        .iter()
        .map(String::as_str)
        .chain(warmup)
    {
        *ts += 1;
        let segment = match &mut store {
            Some(store) => {
                store
                    .append_batch(body, *ts)
                    .map_err(|e| e.to_string())?
                    .segment
            }
            None => ingest_str(body, &case.classification, SHARDS).map_err(|e| e.to_string())?,
        };
        state.ingest(&segment);
    }
    Ok((state, store))
}

/// What one layer pass leaves behind.
struct Pass {
    state: ShardedState,
    elapsed: Duration,
    /// Bytes of each rendered burn-down body.
    rendered: Vec<f64>,
    /// `burn_down_filtered` time per read shape, microseconds.
    report_us: BTreeMap<&'static str, Vec<f64>>,
}

/// One pass of the operations through the layers the server runs for
/// this workload.
fn layer_pass(
    case: &Case,
    workload: &Workload,
    inputs: &Inputs,
    ops: &[Op],
    store_dir: &Path,
    tracer: &mut Tracer,
) -> Result<Pass, String> {
    let mut ts = 0u64;
    let mut rendered = Vec::new();
    let mut report_us: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
    let (state, mut store) = seeded(case, workload, inputs, store_dir, &mut ts)?;
    let start = Instant::now();
    for (id, op) in ops.iter().enumerate() {
        let id = id as u64;
        match op {
            Op::Upload { body, retry } => {
                let text = inputs.bodies[*body].as_str();
                for _ in 0..=usize::from(*retry) {
                    let root = tracer.open("op.upload", id);
                    let segment = match &mut store {
                        Some(store) => {
                            ts += 1;
                            let receipt = tracer
                                .span("store.append", id, || store.append_batch_deferred(text, ts))
                                .map_err(|e| e.to_string())?;
                            tracer
                                .span("store.sync", id, || store.sync())
                                .map_err(|e| e.to_string())?;
                            receipt.segment
                        }
                        None => tracer
                            .span("fleet.ingest", id, || {
                                ingest_str(text, &case.classification, SHARDS)
                            })
                            .map_err(|e| e.to_string())?,
                    };
                    tracer.span("serve.state.ingest", id, || state.ingest(&segment));
                    tracer.close(root);
                }
            }
            Op::Burndown(query) => {
                let root = tracer.open("op.burndown", id);
                let fleet = tracer.span("serve.state.fold", id, || state.fold());
                let (config, filter) = read_config(workload, Some(query));
                let start = Instant::now();
                let report = tracer
                    .span("fleet.burndown.report", id, || {
                        burn_down_filtered(&case.norm, &case.allocation, &fleet, &config, &filter)
                    })
                    .map_err(|e| e.to_string())?;
                report_us
                    .entry(query.shape())
                    .or_default()
                    .push(start.elapsed().as_secs_f64() * 1e6);
                let body = tracer.span("fleet.burndown.render", id, || render(&report, query));
                tracer.close(root);
                rendered.push(black_box(body).len() as f64);
            }
            Op::Metrics => {
                let root = tracer.open("op.metrics", id);
                let fleet = tracer.span("serve.state.fold", id, || state.fold());
                let (config, filter) = read_config(workload, None);
                let report = tracer
                    .span("fleet.burndown.report", id, || {
                        burn_down_filtered(&case.norm, &case.allocation, &fleet, &config, &filter)
                    })
                    .map_err(|e| e.to_string())?;
                let text = tracer.span("stats.prometheus.render", id, || {
                    let mut out = TextFamilies::new();
                    render_ledgers(&mut out, "qrn_evidence", &[("default", fleet.evidence())]);
                    out.finish()
                });
                tracer.close(root);
                black_box((report, text));
            }
        }
    }
    Ok(Pass {
        state,
        elapsed: start.elapsed(),
        rendered,
        report_us,
    })
}

/// p99 of `ShardedState::ingest` while another thread folds the same
/// state in a loop, ms.
fn contended_ingest_p99_ms(case: &Case, state: &ShardedState, bodies: &[&str]) -> f64 {
    let segments: Vec<FleetState> = bodies
        .iter()
        .cycle()
        .take(CONTENDED_UPLOADS)
        .map(|body| ingest_str(body, &case.classification, SHARDS).expect("bodies ingest"))
        .collect();
    let stop = AtomicBool::new(false);
    let mut samples = Vec::with_capacity(segments.len());
    std::thread::scope(|scope| {
        let folder = scope.spawn(|| {
            while !stop.load(Ordering::Relaxed) {
                black_box(state.fold());
            }
        });
        for segment in &segments {
            let start = Instant::now();
            state.ingest(segment);
            samples.push(start.elapsed().as_secs_f64() * 1e3);
            std::thread::sleep(CONTENDED_PAUSE);
        }
        stop.store(true, Ordering::Relaxed);
        folder.join().expect("fold thread");
    });
    percentile(&samples, 99.0).value
}

/// The store probe: the workload's roster and first uploads, seq-stamped
/// and with verbatim retries, appended to a scratch store, then snapshot,
/// reader, reopen and group-commit measurements on it. Fails unless the
/// store kept a cursor per vehicle and screened every retried line.
fn store_probe(
    case: &Case,
    probe: &StoreProbeInputs,
    dir: &Path,
    tracer: &mut Tracer,
) -> Result<Vec<Metric>, String> {
    let err = |e: qrn_store::StoreError| e.to_string();
    let mut store = open_store(case, dir)?;
    let mut ts = 0u64;
    for body in &probe.roster_bodies {
        ts += 1;
        store.append_batch(body, ts).map_err(err)?;
    }
    let first_timed_ts = ts + 1;
    let half = probe.bodies.len() / 2;
    let (probed, rest) = probe.bodies.split_at(half);
    // Per upload: its first append, and the same batch's parse alone.
    let mut first_append_ms = Vec::new();
    let mut parse_ms = Vec::new();
    let mut retried_lines = 0u64;
    for (id, (text, &retry)) in probed.iter().zip(&probe.retry).enumerate() {
        let id = id as u64;
        for attempt in 0..=usize::from(retry) {
            ts += 1;
            let root = tracer.open("op.store_upload", id);
            let start = Instant::now();
            tracer
                .span("store.append", id, || store.append_batch_deferred(text, ts))
                .map_err(err)?;
            if attempt == 0 {
                first_append_ms.push(start.elapsed().as_secs_f64() * 1e3);
            } else {
                retried_lines += text.lines().count() as u64;
            }
            tracer
                .span("store.sync", id, || store.sync())
                .map_err(err)?;
            tracer.close(root);
        }
        let root = tracer.open("probe.parse", id);
        let start = Instant::now();
        tracer
            .span("fleet.ingest", id, || {
                ingest_str(text, &case.classification, SHARDS)
            })
            .map_err(|e| e.to_string())?;
        parse_ms.push(start.elapsed().as_secs_f64() * 1e3);
        tracer.close(root);
    }
    let cursor_entries = store.cursors().len();
    let status = store.status();
    if cursor_entries == 0 || status.duplicates != retried_lines {
        return Err(format!(
            "store probe: {cursor_entries} cursors, {} duplicates rejected for {retried_lines} \
             retried lines",
            status.duplicates
        ));
    }
    let append_ms: Vec<f64> = tracer
        .durations("store.append")
        .iter()
        .map(|ns| ns / 1e6)
        .collect();
    let sync_ms: Vec<f64> = tracer
        .durations("store.sync")
        .iter()
        .map(|ns| ns / 1e6)
        .collect();
    // Screen and cursor clone: append minus parse on the same batch; the
    // median keeps the appends that also wrote a snapshot out.
    let excl_parse_ms: Vec<f64> = first_append_ms
        .iter()
        .zip(&parse_ms)
        .map(|(append, parse)| append - parse)
        .collect();

    let snapshot_bytes = serde_json::to_string(&SnapshotPayload {
        state: store.state().clone(),
        cursors: store.cursors().clone(),
        duplicates: status.duplicates,
        gap_events: status.gap_events,
        missing_seqs: status.missing_seqs,
    })
    .map_err(|e| e.to_string())?
    .len() as f64;
    let mut snapshot_ms = Vec::new();
    for _ in 0..SNAPSHOTS {
        ts += 1;
        let start = Instant::now();
        tracer
            .span("store.snapshot", 0, || store.write_snapshot(ts))
            .map_err(err)?;
        snapshot_ms.push(start.elapsed().as_secs_f64() * 1e3);
    }

    let reader = StoreReader::open(dir, case.classification.clone(), SHARDS).map_err(err)?;
    let mut fold_ms = Vec::new();
    let mut records = Vec::new();
    for i in 0..READER_CUTS {
        let cut = first_timed_ts + (ts - first_timed_ts) * (i as u64 + 1) / READER_CUTS as u64;
        let start = Instant::now();
        let summary = tracer
            .span("store.reader.fold_as_of", i as u64, || {
                reader.fold_as_of(Some(cut))
            })
            .map_err(err)?;
        fold_ms.push(start.elapsed().as_secs_f64() * 1e3);
        records.push(summary.records as f64);
    }

    drop(store);
    let start = Instant::now();
    let store = tracer
        .span("store.open", 0, || {
            Store::open(dir, case.classification.clone(), store_config())
        })
        .map_err(err)?;
    let open_s = start.elapsed().as_secs_f64();
    let reopened = store.status();
    let open_records = (reopened.batches + reopened.snapshots) as f64;

    // Group commit under two concurrent appenders, as the server's
    // workers append through its writer thread.
    let writer = spawn_with(
        vec![("default".to_string(), store, None)],
        DEFAULT_GROUP_COMMIT,
    )
    .map_err(err)?;
    let next_ts = std::sync::atomic::AtomicU64::new(ts + 1);
    std::thread::scope(|scope| {
        for half in rest.chunks(rest.len().div_ceil(2).max(1)).take(2) {
            let (writer, next_ts) = (&writer, &next_ts);
            scope.spawn(move || {
                for body in half.iter().take(WRITER_APPENDS_PER_THREAD) {
                    let ts = next_ts.fetch_add(1, Ordering::Relaxed);
                    let _ = writer.append("default", body.clone(), ts);
                }
            });
        }
    });
    let stats = writer.stats("default").expect("the probe item exists");
    let groups = stats.group_commits.load(Ordering::Relaxed) as f64;
    let grouped = stats.group_commit_batches.load(Ordering::Relaxed) as f64;
    writer.close();

    Ok(vec![
        (
            "store.append_p50_ms",
            percentile(&append_ms, 50.0).value,
            "ms",
        ),
        (
            "store.append_p99_ms",
            percentile(&append_ms, 99.0).value,
            "ms",
        ),
        ("store.append_excl_parse_ms", median(&excl_parse_ms), "ms"),
        ("store.cursor_entries", cursor_entries as f64, "count"),
        ("store.snapshot_ms", median(&snapshot_ms), "ms"),
        ("store.snapshot_bytes", snapshot_bytes, "bytes"),
        ("store.sync_ms", median(&sync_ms), "ms"),
        (
            "store.writer.group_size_mean",
            grouped / groups.max(1.0),
            "batches",
        ),
        ("store.reader.fold_as_of_ms", median(&fold_ms), "ms"),
        ("store.reader.records_folded", mean(&records), "count"),
        ("store.open_s", open_s, "s"),
        ("store.open_records", open_records, "count"),
    ])
}

/// Lines the fast path took, over all lines of `bodies`.
fn fast_ratio<'a>(bodies: impl Iterator<Item = &'a str>) -> f64 {
    let (mut fast, mut all) = (0u64, 0u64);
    for body in bodies {
        for line in body.lines() {
            all += 1;
            if let ParsedLine::Fast(..) = parse_line_hybrid(line) {
                fast += 1;
            }
        }
    }
    fast as f64 / all.max(1) as f64
}

/// Mean time the layer spans under each root operation span named
/// `root` account for (the root's duration minus its self time), ms.
fn mean_layer_ms(tracer: &Tracer, root: &str) -> f64 {
    let whole = tracer.durations(root);
    let own = tracer.self_times(root);
    let layers: Vec<f64> = whole.iter().zip(&own).map(|(w, o)| w - o).collect();
    mean(&layers) / 1e6
}

/// Runs the traced replay and returns every per-layer metric and a few
/// detail figures, writing the spans to `spans_path`.
pub fn replay(
    case: &Case,
    workload: &Workload,
    inputs: &Inputs,
    seed: u64,
    drive: &Outcome,
    work: &Path,
    spans_path: &Path,
) -> Result<(Vec<Metric>, Vec<Metric>), String> {
    let ops = replay_ops(workload, inputs);

    // Untraced, traced, untraced: the overhead compares the traced pass
    // with the mean of the passes either side of it.
    let untraced_pass = || {
        layer_pass(
            case,
            workload,
            inputs,
            &ops,
            &work.join("replay-untraced"),
            &mut Tracer::new(false),
        )
        .map(|pass| pass.elapsed.as_secs_f64())
    };
    let before = untraced_pass()?;
    let mut tracer = Tracer::new(true);
    let traced = layer_pass(
        case,
        workload,
        inputs,
        &ops,
        &work.join("replay"),
        &mut tracer,
    )?;
    let untraced_s = (before + untraced_pass()?) / 2.0;
    let fold_vehicles = traced.state.fold().vehicle_count() as f64;
    let bodies: Vec<&str> = upload_bodies(&ops, inputs).collect();
    let ingest_p99_ms = contended_ingest_p99_ms(case, &traced.state, &bodies);

    let us = |name: &str| median(&tracer.self_times(name)) / 1e3;

    let mut store_tracer = Tracer::new(true);
    let probe = store_probe_inputs(workload, seed, workload.replay_store_uploads);
    let store_metrics = store_probe(
        case,
        &probe,
        &work.join("replay-store"),
        &mut store_tracer,
    )?;
    // Store workloads parse inside the append, so their parse is the
    // store probe's, timed on the same batches on its own.
    let parses = if workload.store {
        store_tracer.self_times("fleet.ingest")
    } else {
        tracer.self_times("fleet.ingest")
    };
    let ns_per_line = parses.iter().sum::<f64>() / (parses.len() * SEGMENT_LINES).max(1) as f64;

    // The traced layers' share of the server's own service time, over
    // the request mix the timed phase sent.
    let weights = drive.timed_counts.map(|c| c as f64);
    let per_kind = [
        mean_layer_ms(&tracer, "op.upload"),
        mean_layer_ms(&tracer, "op.burndown"),
        mean_layer_ms(&tracer, "op.metrics"),
    ];
    let traced_ms: f64 = weights
        .iter()
        .zip(per_kind)
        .filter(|(w, _)| **w > 0.0)
        .map(|(w, ms)| w * ms)
        .sum::<f64>()
        / weights.iter().sum::<f64>();

    let mut jsonl = tracer.to_jsonl();
    jsonl.push_str(&store_tracer.to_jsonl());
    std::fs::write(spans_path, jsonl).map_err(|e| format!("cannot write spans: {e}"))?;

    let mut metrics: Vec<Metric> = vec![
        (
            "serve.http.residual_ms",
            drive.client_rtt_ms_mean - drive.service_ms_mean,
            "ms",
        ),
        ("serve.server.service_ms_mean", drive.service_ms_mean, "ms"),
        ("serve.server.shed_total", drive.shed_total, "count"),
        (
            "fleet.event.fast_ratio",
            fast_ratio(bodies.iter().copied()),
            "ratio",
        ),
        ("fleet.ingest.ns_per_line", ns_per_line, "ns"),
        ("serve.state.ingest_p50_us", us("serve.state.ingest"), "us"),
        ("serve.state.ingest_p99_ms", ingest_p99_ms, "ms"),
        ("serve.state.fold_ms", us("serve.state.fold") / 1e3, "ms"),
        ("serve.state.fold_vehicles", fold_vehicles, "count"),
        (
            "fleet.burndown.report_us",
            us("fleet.burndown.report"),
            "us",
        ),
        (
            "fleet.burndown.render_us",
            us("fleet.burndown.render"),
            "us",
        ),
        (
            "fleet.burndown.render_bytes",
            mean(&traced.rendered),
            "bytes",
        ),
        (
            "stats.prometheus.render_us",
            us("stats.prometheus.render"),
            "us",
        ),
    ];
    metrics.extend(store_metrics);
    metrics.extend([
        (
            "bench.generator_lag_p99_ms",
            percentile(&drive.lag_ms, 99.0).value,
            "ms",
        ),
        (
            "bench.trace_overhead_frac",
            traced.elapsed.as_secs_f64() / untraced_s - 1.0,
            "ratio",
        ),
        (
            "bench.traced_share_of_service",
            traced_ms / drive.service_ms_mean,
            "ratio",
        ),
    ]);
    let details = traced
        .report_us
        .iter()
        .map(|(shape, us)| {
            let name = match *shape {
                "plain" => "fleet.burndown.report_us.plain",
                "where" => "fleet.burndown.report_us.where",
                _ => "fleet.burndown.report_us.context",
            };
            (name, median(us), "us")
        })
        .collect();
    Ok((metrics, details))
}
