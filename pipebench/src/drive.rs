//! The untraced run: drives a real `qrn serve` process over loopback HTTP
//! through set-up, the timed phase and reads, then checks its answers
//! against the offline pipeline. Store workloads also run `?as_of=`
//! queries and a timed restart on the same store.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant, SystemTime, UNIX_EPOCH};

use qrn_core::allocation::Allocation;
use qrn_core::norm::QuantitativeRiskNorm;
use qrn_core::IncidentClassification;
use qrn_fleet::burndown::{burn_down, BurnDownConfig};
use qrn_fleet::ingest::{ingest_str, FleetState};

use crate::server::{request, Reply, Scrape, ServerProc};
use crate::workload::{generate, Inputs, LoopKind, Op, Workload, SEGMENT_LINES};

/// Parse shards `qrn serve` uses on a two-CPU host, and the offline
/// reference uses too (the count never changes results).
pub const SHARDS: usize = 2;
/// Load-generator threads, and so the most requests in flight.
const CLIENT_THREADS: usize = 2;

/// The paper-example artefacts, loaded from the files the server reads.
pub struct Case {
    pub dir: PathBuf,
    pub norm: QuantitativeRiskNorm,
    pub classification: IncidentClassification,
    pub allocation: Allocation,
}

impl Case {
    pub fn load(dir: &Path) -> Result<Case, String> {
        let read = |name: &str| {
            std::fs::read_to_string(dir.join(name)).map_err(|e| format!("cannot read {name}: {e}"))
        };
        let parse_err = |name: &str, e: serde_json::Error| format!("{name} does not parse: {e}");
        Ok(Case {
            dir: dir.to_path_buf(),
            norm: serde_json::from_str(&read("norm.json")?).map_err(|e| parse_err("norm", e))?,
            classification: serde_json::from_str(&read("classification.json")?)
                .map_err(|e| parse_err("classification", e))?,
            allocation: serde_json::from_str(&read("allocation.json")?)
                .map_err(|e| parse_err("allocation", e))?,
        })
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    Upload,
    Burndown,
    Metrics,
}

/// One request as the client saw it.
#[derive(Debug, Clone)]
struct Sample {
    kind: Kind,
    /// From the due time (open loop) or the send (closed loop) to the
    /// end of the reply.
    latency_ms: f64,
    /// From the send to the end of the reply.
    rtt_ms: f64,
    /// How late the send was: behind its due time (open loop) or behind
    /// the same uploader's previous reply (closed loop).
    lag_ms: f64,
    /// When the reply ended.
    end: Instant,
    ok: bool,
    events: u64,
    body: Option<usize>,
}

/// What one untraced run measured.
#[derive(Debug, Default)]
pub struct Outcome {
    pub setup_s: Vec<f64>,
    pub ingest_ms: Vec<f64>,
    pub burndown_ms: Vec<f64>,
    pub metrics_ms: Vec<f64>,
    pub as_of_ms: Vec<f64>,
    /// Restart until `/healthz` answers (store workloads).
    pub recover_s: Option<f64>,
    pub lag_ms: Vec<f64>,
    pub accepted_events: u64,
    pub phase_s: f64,
    /// Accepted events in each whole second of the timed phase (a
    /// trailing partial second is dropped), as detail for the provenance.
    pub window_rates: Vec<f64>,
    pub server_cpu_s: f64,
    pub peak_rss_mb: f64,
    pub attempted: u64,
    pub failed: u64,
    /// Client mean round trip over the timed phase, ms.
    pub client_rtt_ms_mean: f64,
    /// Server's own mean service time over the timed phase, ms.
    pub service_ms_mean: f64,
    pub shed_total: f64,
    /// Timed-phase requests per kind: uploads, burn-downs, metrics.
    pub timed_counts: [u64; 3],
    pub duplicates_rejected: f64,
    pub retried_lines: u64,
    /// Correctness gates: name, passed, detail.
    pub gates: Vec<(String, bool, String)>,
    /// Wall time of each stage of the run, seconds.
    pub stages: Vec<(&'static str, f64)>,
}

fn now_millis() -> u64 {
    SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .map(|d| d.as_millis() as u64)
        .unwrap_or(0)
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// `"segment_events": N` from an ingest reply.
fn reply_events(reply: &Reply) -> u64 {
    let text = reply.text();
    text.find("\"segment_events\":")
        .and_then(|at| {
            text[at + 17..]
                .trim_start()
                .split(|c: char| !c.is_ascii_digit())
                .next()
                .and_then(|n| n.parse().ok())
        })
        .unwrap_or(0)
}

fn perform(addr: std::net::SocketAddr, op: &Op, inputs: &Inputs) -> (Kind, bool, u64) {
    let (kind, reply) = match op {
        Op::Upload { body, .. } => (
            Kind::Upload,
            request(
                addr,
                "POST",
                "/v1/ingest",
                Some(inputs.bodies[*body].as_bytes()),
            ),
        ),
        Op::Burndown(query) => (Kind::Burndown, request(addr, "GET", &query.target(), None)),
        Op::Metrics => (Kind::Metrics, request(addr, "GET", "/metrics", None)),
    };
    match reply {
        Ok(reply) if reply.status == 200 => {
            let events = if kind == Kind::Upload {
                reply_events(&reply)
            } else {
                0
            };
            (kind, true, events)
        }
        _ => (kind, false, 0),
    }
}

/// One request of the list: performed, timed from `due` (or the send).
fn timed_request(
    addr: std::net::SocketAddr,
    op: &Op,
    inputs: &Inputs,
    due: Option<Instant>,
    previous_end: Option<Instant>,
) -> Sample {
    let send = Instant::now();
    let (kind, ok, events) = perform(addr, op, inputs);
    let end = Instant::now();
    let (latency_ms, lag_ms) = match due {
        Some(due) => (ms(end - due), ms(send.saturating_duration_since(due))),
        None => (
            ms(end - send),
            previous_end.map_or(0.0, |prev| ms(send - prev)),
        ),
    };
    Sample {
        kind,
        latency_ms,
        rtt_ms: ms(end - send),
        lag_ms,
        end,
        ok,
        events,
        body: match op {
            Op::Upload { body, .. } => Some(*body),
            _ => None,
        },
    }
}

/// Runs the timed list with `CLIENT_THREADS` threads: closed loops take
/// the next operation when their reply arrives, open loops sleep until it
/// is due.
fn run_timed(addr: std::net::SocketAddr, workload: &Workload, inputs: &Inputs) -> Vec<Sample> {
    let next = AtomicUsize::new(0);
    let start = Instant::now() + Duration::from_millis(20);
    let open = workload.loop_kind == LoopKind::Open;
    std::thread::scope(|scope| {
        let workers: Vec<_> = (0..CLIENT_THREADS)
            .map(|_| {
                scope.spawn(|| {
                    let mut samples = Vec::new();
                    let mut previous_end = None;
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        let Some(scheduled) = inputs.timed.get(i) else {
                            break;
                        };
                        let due = open.then(|| start + scheduled.due);
                        if let Some(due) = due {
                            let now = Instant::now();
                            if due > now {
                                std::thread::sleep(due - now);
                            }
                        }
                        let sample = timed_request(addr, &scheduled.op, inputs, due, previous_end);
                        previous_end = Some(Instant::now());
                        samples.push(sample);
                        if let Op::Upload { retry: true, .. } = scheduled.op {
                            samples.push(timed_request(
                                addr,
                                &scheduled.op,
                                inputs,
                                None,
                                previous_end,
                            ));
                            previous_end = Some(Instant::now());
                        }
                    }
                    samples
                })
            })
            .collect();
        workers
            .into_iter()
            .flat_map(|w| w.join().expect("load generator thread"))
            .collect()
    })
}

/// Server flags of `workload`, with its state under `work`.
pub fn server_flags(workload: &Workload, work: &Path) -> Vec<String> {
    let mut flags = vec!["--workers".to_string(), "2".to_string()];
    if workload.store {
        flags.push("--store".into());
        flags.push(work.join("store").display().to_string());
    }
    if workload.sequential {
        flags.push("--sequential".into());
    }
    flags
}

fn wipe_store(work: &Path) -> Result<(), String> {
    let path = work.join("store");
    if path.is_dir() {
        std::fs::remove_dir_all(&path)
            .map_err(|e| format!("cannot clear {}: {e}", path.display()))?;
    }
    Ok(())
}

fn post_ok(addr: std::net::SocketAddr, body: &str) -> Result<(), String> {
    match request(addr, "POST", "/v1/ingest", Some(body.as_bytes())) {
        Ok(reply) if reply.status == 200 => Ok(()),
        Ok(reply) => Err(format!("set-up upload answered {}", reply.status)),
        Err(e) => Err(format!("set-up upload failed: {e}")),
    }
}

/// Set-up: input generation, server start, roster seeding and warm-up.
fn set_up(
    qrn: &Path,
    case: &Case,
    workload: &Workload,
    work: &Path,
    seed: u64,
    seconds: u64,
) -> Result<(ServerProc, Inputs), String> {
    wipe_store(work)?;
    let inputs = generate(workload, seed, seconds);
    let server = ServerProc::start(qrn, &case.dir, &server_flags(workload, work))?;
    for body in &inputs.roster_bodies {
        post_ok(server.addr, body)?;
    }
    for &body in &inputs.warmup {
        post_ok(server.addr, &inputs.bodies[body])?;
    }
    Ok((server, inputs))
}

/// Normalises the look counters a live report stamps, which offline
/// reports never spend.
fn without_looks(report: &str) -> String {
    report
        .lines()
        .map(|line| match line.find("\"looks\": ") {
            Some(at) => format!("{}\"looks\": _", &line[..at]),
            None => line.to_string(),
        })
        .collect::<Vec<_>>()
        .join("\n")
}

/// The offline report of what the server accepted: roster, warm-up and
/// every accepted timed upload, each body ingested with `ingest_str` and
/// folded (exposure is dyadic, so fold order cannot change a byte).
fn offline_report(
    case: &Case,
    workload: &Workload,
    inputs: &Inputs,
    accepted: &[u64],
) -> Result<String, String> {
    let ingest = |text: &str| {
        ingest_str(text, &case.classification, SHARDS).map_err(|e| format!("offline ingest: {e}"))
    };
    let mut state = FleetState::default();
    for body in &inputs.roster_bodies {
        state.merge(&ingest(body)?);
    }
    for (body, &times) in inputs.bodies.iter().zip(accepted) {
        if times > 0 {
            let segment = ingest(body)?;
            for _ in 0..times {
                state.merge(&segment);
            }
        }
    }
    let config = BurnDownConfig {
        sequential: workload.sequential,
        ..BurnDownConfig::default()
    };
    burn_down(&case.norm, &case.allocation, &state, &config)
        .map(|report| report.to_canonical_json())
        .map_err(|e| format!("offline burn-down: {e}"))
}

/// The whole untraced run.
pub fn drive(
    qrn: &Path,
    case: &Case,
    workload: &Workload,
    work: &Path,
    seed: u64,
    seconds: u64,
) -> Result<(Outcome, Inputs), String> {
    let mut out = Outcome::default();

    let mut stage = Instant::now();
    let mut lap = |out: &mut Outcome, name: &'static str| {
        out.stages.push((name, stage.elapsed().as_secs_f64()));
        stage = Instant::now();
    };
    let mut ready = None;
    for _ in 0..workload.setups.max(1) {
        if let Some((server, _)) = ready.take() {
            ServerProc::stop(server)?;
        }
        let start = Instant::now();
        ready = Some(set_up(qrn, case, workload, work, seed, seconds)?);
        out.setup_s.push(start.elapsed().as_secs_f64());
    }
    let (server, inputs) = ready.expect("at least one set-up ran");
    let addr = server.addr;
    lap(&mut out, "setup");

    // Timed phase.
    let before = Scrape::fetch(addr)?;
    let cpu_before = server.cpu_seconds().unwrap_or(0.0);
    let wall_start = now_millis();
    let phase_start = Instant::now();
    let mut samples = run_timed(addr, workload, &inputs);
    samples.sort_by_key(|sample| sample.end);
    out.phase_s = phase_start.elapsed().as_secs_f64();
    let wall_end = now_millis();
    out.server_cpu_s = server.cpu_seconds().unwrap_or(0.0) - cpu_before;
    let after = Scrape::fetch(addr)?;
    let served = after.service_count - before.service_count;
    out.service_ms_mean = 1e3 * (after.service_seconds_sum - before.service_seconds_sum) / served;
    out.client_rtt_ms_mean = samples.iter().map(|s| s.rtt_ms).sum::<f64>() / samples.len() as f64;

    let mut accepted = vec![0u64; inputs.bodies.len()];
    for &body in &inputs.warmup {
        accepted[body] += 1;
    }
    let mut seen_retry = vec![false; inputs.bodies.len()];
    out.window_rates = vec![0.0; out.phase_s as usize];
    for sample in &samples {
        let second = (sample.end - phase_start).as_secs_f64() as usize;
        if let Some(window) = out.window_rates.get_mut(second) {
            *window += sample.events as f64;
        }
        out.attempted += 1;
        if !sample.ok {
            out.failed += 1;
        }
        out.lag_ms.push(sample.lag_ms);
        match sample.kind {
            Kind::Upload => {
                out.timed_counts[0] += 1;
                out.ingest_ms.push(sample.latency_ms);
                out.accepted_events += sample.events;
                if let (true, Some(body)) = (sample.ok, sample.body) {
                    // A sequenced body re-sent as a retry adds nothing:
                    // the store screens every line of it as a duplicate.
                    if workload.seq_stamped && accepted[body] > 0 {
                        seen_retry[body] = true;
                    } else {
                        accepted[body] += 1;
                    }
                }
            }
            Kind::Burndown => {
                out.timed_counts[1] += 1;
                out.burndown_ms.push(sample.latency_ms);
            }
            Kind::Metrics => {
                out.timed_counts[2] += 1;
                out.metrics_ms.push(sample.latency_ms);
            }
        }
    }
    out.retried_lines = seen_retry.iter().filter(|&&r| r).count() as u64 * SEGMENT_LINES as u64;
    lap(&mut out, "timed");

    // Reads one at a time (closed loops), then `?as_of=` queries.
    for op in &inputs.probe {
        let sample = timed_request(addr, op, &inputs, None, None);
        out.attempted += 1;
        out.failed += u64::from(!sample.ok);
        match sample.kind {
            Kind::Burndown => out.burndown_ms.push(sample.latency_ms),
            _ => out.metrics_ms.push(sample.latency_ms),
        }
    }
    lap(&mut out, "reads");
    for i in 0..workload.as_of_queries {
        let cut =
            wall_start + (wall_end - wall_start) * (i as u64 + 1) / workload.as_of_queries as u64;
        let start = Instant::now();
        let reply = request(addr, "GET", &format!("/v1/burndown?as_of={cut}"), None);
        out.as_of_ms.push(ms(start.elapsed()));
        out.attempted += 1;
        out.failed += u64::from(!matches!(reply, Ok(ref r) if r.status == 200));
    }

    out.peak_rss_mb = server.peak_rss_mb().unwrap_or(f64::NAN);
    let last = Scrape::fetch(addr)?;
    out.shed_total = last.queue_full + last.client_gone;
    out.duplicates_rejected = last.duplicates_rejected;

    // Correctness gates. In memory, the live burn-down; with a store,
    // the `?as_of=` body after a timed restart on the same store.
    let expected = offline_report(case, workload, &inputs, &accepted)?;
    if !workload.store {
        let live = request(addr, "GET", "/v1/burndown", None).map_err(|e| e.to_string())?;
        let equal = live.status == 200 && without_looks(live.text()) == without_looks(&expected);
        out.gates.push((
            "burndown_equals_offline".into(),
            equal,
            format!(
                "status {}, {} vs {} bytes",
                live.status,
                live.body.len(),
                expected.len()
            ),
        ));
        server.stop()?;
        lap(&mut out, "gates_and_stop");
        return Ok((out, inputs));
    }
    server.stop()?;
    lap(&mut out, "as_of_and_stop");

    let start = Instant::now();
    let server = ServerProc::start(qrn, &case.dir, &server_flags(workload, work))?;
    server.wait_healthy(Duration::from_secs(120))?;
    out.recover_s = Some(start.elapsed().as_secs_f64());
    lap(&mut out, "restart");

    let target = format!("/v1/burndown?as_of={}", now_millis() + 1);
    let live = request(server.addr, "GET", &target, None).map_err(|e| e.to_string())?;
    let equal = live.status == 200 && live.body == expected.as_bytes();
    out.gates.push((
        "as_of_equals_offline".into(),
        equal,
        format!(
            "status {}, {} vs {} bytes",
            live.status,
            live.body.len(),
            expected.len()
        ),
    ));
    out.gates.push((
        "duplicates_equal_retried_lines".into(),
        out.duplicates_rejected == out.retried_lines as f64,
        format!(
            "{} rejected, {} retried",
            out.duplicates_rejected, out.retried_lines
        ),
    ));
    server.stop()?;
    lap(&mut out, "gates");
    Ok((out, inputs))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn look_counters_are_set_aside() {
        let a = "{\n  \"looks\": 7,\n  \"x\": 1\n}";
        let b = "{\n  \"looks\": 1,\n  \"x\": 1\n}";
        assert_eq!(without_looks(a), without_looks(b));
        assert_ne!(
            without_looks(a),
            without_looks("{\n  \"looks\": 1,\n  \"x\": 2\n}")
        );
    }
}
