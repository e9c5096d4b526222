//! The benchmark's workloads and the seeded inputs each one runs.
//!
//! Every input is a pure function of the workload and the seed: the
//! roster-seeding bodies, the upload segments (8 vehicles × 54 lines, the
//! `bench_serve` shape) and the ordered operation list. Upload bodies are
//! rendered with [`FleetEvent::render_line_meta_into`], the writer the
//! fleet layer itself uses, so the server sees canonical wire bytes except
//! where a workload asks for non-canonical lines on purpose.

use std::time::Duration;

use qrn_core::incident::{IncidentKind, IncidentRecord};
use qrn_core::object::{Involvement, ObjectType};
use qrn_fleet::event::FleetEvent;
use qrn_units::{Hours, Meters, Speed};

/// Vehicles reporting in one upload segment.
pub const VEHICLES_PER_SEGMENT: usize = 8;
/// Lines each of those vehicles contributes to a segment.
pub const LINES_PER_VEHICLE: usize = 54;
/// Lines in one upload segment.
pub const SEGMENT_LINES: usize = VEHICLES_PER_SEGMENT * LINES_PER_VEHICLE;
/// Lines per roster-seeding upload (one line per vehicle).
const ROSTER_CHUNK: usize = 25_000;
/// Distinct upload bodies kept for in-memory workloads, whose uploads
/// carry no sequence numbers and may therefore repeat a body.
const POOL_LIMIT: usize = 512;

const LIGHTING: [&str; 3] = ["day", "dusk", "night"];
const WEATHER: [&str; 3] = ["clear", "fog", "rain"];
const ZONE: [&str; 3] = ["highway", "school", "urban"];
const OBJECTS: [ObjectType; 6] = [
    ObjectType::Vru,
    ObjectType::Car,
    ObjectType::Truck,
    ObjectType::Animal,
    ObjectType::StaticObject,
    ObjectType::Other,
];

/// SplitMix64: a small, seedable generator with good statistical
/// quality, so the benchmark needs no random-number crate.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator for one stream of `seed`, independent of the order in
    /// which streams are drawn.
    pub fn stream(seed: u64, stream: u64) -> Self {
        let mut mixer = Rng(seed ^ stream.wrapping_mul(0x9e37_79b9_7f4a_7c15));
        Rng(mixer.next_u64())
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    pub fn per_mille(&mut self, rate: u32) -> bool {
        self.below(1000) < rate as usize
    }
}

/// How the load generator paces requests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LoopKind {
    /// Each uploader waits for its reply before sending the next request.
    Closed,
    /// Requests are sent on a fixed schedule whatever the server does.
    Open,
}

/// One workload: the server flags, the traffic shape and the sizes.
#[derive(Debug, Clone)]
pub struct Workload {
    pub name: &'static str,
    pub loop_kind: LoopKind,
    /// Vehicles seeded before timing starts.
    pub roster: usize,
    /// Run the server with `--store`.
    pub store: bool,
    /// Run the server with `--sequential`.
    pub sequential: bool,
    /// Stamp lines with an ODD-band `ctx` key.
    pub banded: bool,
    /// Stamp lines with per-vehicle sequence numbers.
    pub seq_stamped: bool,
    /// Lines (per mille) rendered in a non-canonical shape, so they take
    /// the tolerant parser.
    pub noncanonical_per_mille: u32,
    /// Uploads (per mille) re-sent verbatim after their reply.
    pub retry_per_mille: u32,
    /// Closed loops: uploads in the timed list per `--seconds`.
    pub uploads_per_second: usize,
    /// Uploads sent after roster seeding and before timing.
    pub warmup_uploads: usize,
    /// Open loop: request rates per second.
    pub upload_hz: usize,
    pub burndown_hz: usize,
    pub metrics_hz: usize,
    /// Closed loops: burn-down and metrics reads issued one at a time
    /// after the uploads.
    pub probe_burndowns: usize,
    pub probe_metrics: usize,
    /// `?as_of=` queries after the timed phase (store workloads).
    pub as_of_queries: usize,
    /// Set-ups per run; `setup_s` is their median.
    pub setups: usize,
    /// Uploads the traced replay pushes through the layers.
    pub replay_uploads: usize,
    /// Uploads the traced replay appends to its probe store.
    pub replay_store_uploads: usize,
}

pub const WORKLOAD_NAMES: [&str; 3] = ["ingest_hot", "ingest_durable", "fleet_query"];

impl Workload {
    /// The named workload at full size, or shrunk to a few seconds of
    /// work when `smoke` is set.
    pub fn named(name: &str, smoke: bool) -> Option<Workload> {
        let mut w = match name {
            "ingest_hot" => Workload {
                name: "ingest_hot",
                loop_kind: LoopKind::Closed,
                roster: 1_000,
                store: false,
                sequential: false,
                banded: true,
                seq_stamped: false,
                noncanonical_per_mille: 10,
                retry_per_mille: 0,
                uploads_per_second: 3_000,
                warmup_uploads: 1_000,
                upload_hz: 0,
                burndown_hz: 0,
                metrics_hz: 0,
                probe_burndowns: 200,
                probe_metrics: 200,
                as_of_queries: 0,
                setups: 5,
                replay_uploads: 3_000,
                replay_store_uploads: 100,
            },
            "ingest_durable" => Workload {
                name: "ingest_durable",
                loop_kind: LoopKind::Closed,
                roster: 100_000,
                store: true,
                sequential: false,
                banded: false,
                seq_stamped: true,
                noncanonical_per_mille: 0,
                retry_per_mille: 20,
                uploads_per_second: 25,
                warmup_uploads: 40,
                upload_hz: 0,
                burndown_hz: 0,
                metrics_hz: 0,
                probe_burndowns: 40,
                probe_metrics: 20,
                as_of_queries: 20,
                setups: 3,
                replay_uploads: 60,
                replay_store_uploads: 60,
            },
            "fleet_query" => Workload {
                name: "fleet_query",
                loop_kind: LoopKind::Open,
                roster: 100_000,
                store: false,
                sequential: true,
                banded: true,
                seq_stamped: false,
                noncanonical_per_mille: 0,
                retry_per_mille: 0,
                uploads_per_second: 0,
                warmup_uploads: 200,
                upload_hz: 100,
                burndown_hz: 1,
                metrics_hz: 1,
                probe_burndowns: 0,
                probe_metrics: 0,
                as_of_queries: 0,
                setups: 5,
                replay_uploads: 1_000,
                replay_store_uploads: 100,
            },
            _ => return None,
        };
        if smoke {
            w.roster = (w.roster / 100).max(256);
            w.uploads_per_second = w.uploads_per_second.min(20);
            w.warmup_uploads = w.warmup_uploads.min(10);
            w.probe_burndowns = w.probe_burndowns.min(5);
            w.probe_metrics = w.probe_metrics.min(2);
            w.as_of_queries = w.as_of_queries.min(3);
            w.setups = 1;
            w.replay_uploads = w.replay_uploads.min(20);
            w.replay_store_uploads = w.replay_store_uploads.min(10);
        }
        Some(w)
    }
}

/// A burn-down read, in the three shapes the live route serves.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Query {
    Plain,
    Where(String),
    Context(String),
}

impl Query {
    pub fn shape(&self) -> &'static str {
        match self {
            Query::Plain => "plain",
            Query::Where(_) => "where",
            Query::Context(_) => "context",
        }
    }

    pub fn target(&self) -> String {
        match self {
            Query::Plain => "/v1/burndown".to_string(),
            Query::Where(clause) => format!("/v1/burndown?where={}", url_encode(clause)),
            Query::Context(key) => format!("/v1/burndown?context={}", url_encode(key)),
        }
    }
}

fn url_encode(text: &str) -> String {
    text.replace('=', "%3D").replace(',', "%2C")
}

/// One operation of a workload's list.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Op {
    /// POST the upload body with this index; `retry` re-sends it
    /// verbatim once its reply arrived.
    Upload {
        body: usize,
        retry: bool,
    },
    Burndown(Query),
    Metrics,
}

/// An operation with the time, from the start of the timed phase, at
/// which an open loop sends it.
#[derive(Debug, Clone)]
pub struct Scheduled {
    pub due: Duration,
    pub op: Op,
}

/// Everything a run sends, generated from the seed.
#[derive(Debug)]
pub struct Inputs {
    /// Roster-seeding bodies (one line per vehicle).
    pub roster_bodies: Vec<String>,
    /// Upload bodies; `Op::Upload::body` indexes here.
    pub bodies: Vec<String>,
    /// Bodies uploaded after roster seeding, before timing.
    pub warmup: Vec<usize>,
    /// The timed operation list, in the order it is issued.
    pub timed: Vec<Scheduled>,
    /// Reads issued one at a time after the timed phase (closed loops).
    pub probe: Vec<Op>,
}

/// The ODD band a vehicle reports in for one segment.
fn band(rng: &mut Rng) -> String {
    format!(
        "lighting={},weather={},zone={}",
        LIGHTING[rng.below(3)],
        WEATHER[rng.below(3)],
        ZONE[rng.below(3)]
    )
}

/// The band a vehicle's roster line reports in; present in every
/// seeded state, so `?context=` reads of it never answer 404.
fn roster_band(seed: u64, vehicle: usize) -> String {
    band(&mut Rng::stream(seed, 0x5eed_0000_0000 + vehicle as u64))
}

pub fn vehicle_id(vehicle: usize) -> String {
    format!("V{vehicle:06}")
}

fn incident(rng: &mut Rng) -> IncidentRecord {
    let object = OBJECTS[rng.below(OBJECTS.len())];
    let involvement = if rng.per_mille(100) {
        Involvement::Induced(object, OBJECTS[rng.below(OBJECTS.len())])
    } else {
        Involvement::EgoWith(object)
    };
    let speed = Speed::from_mps((1 + rng.below(20)) as f64).expect("positive speed");
    let kind = if rng.per_mille(300) {
        IncidentKind::Collision {
            impact_speed: speed,
        }
    } else {
        IncidentKind::NearMiss {
            distance: Meters::new(0.25 * (1 + rng.below(8)) as f64).expect("positive distance"),
            relative_speed: speed,
        }
    };
    IncidentRecord::new(involvement, kind)
}

/// Renders one line, optionally in a non-canonical (but valid) shape: a
/// space after the first colon makes the fast scanner refuse the line.
fn push_line(
    out: &mut String,
    event: &FleetEvent,
    seq: Option<u64>,
    ctx: Option<&str>,
    noncanonical: bool,
) {
    let start = out.len();
    event.render_line_meta_into(out, seq, ctx);
    if noncanonical {
        let colon = out[start..].find(':').expect("rendered lines hold a colon") + start;
        out.insert(colon + 1, ' ');
    }
    out.push('\n');
}

/// The order in which vehicle groups report, drawn first from `rng`.
fn group_order(workload: &Workload, rng: &mut Rng) -> Vec<usize> {
    let groups = (workload.roster / VEHICLES_PER_SEGMENT).max(2);
    let mut order: Vec<usize> = (0..groups).collect();
    for i in (1..groups).rev() {
        order.swap(i, rng.below(i + 1));
    }
    order
}

/// What the traced run's store probe appends: the workload's roster and
/// first upload segments, seq-stamped whether or not the workload's own
/// lines are, so the store screens every line against a vehicle cursor.
#[derive(Debug)]
pub struct StoreProbeInputs {
    pub roster_bodies: Vec<String>,
    pub bodies: Vec<String>,
    /// Whether each body is re-sent verbatim once appended.
    pub retry: Vec<bool>,
}

/// Every this many probe uploads, one is re-sent verbatim, so the store's
/// duplicate screen runs on every workload.
const PROBE_RETRY_EVERY: usize = 25;

/// The store probe's inputs for `uploads` segments of `workload`. On a
/// seq-stamped workload the bodies equal the workload's own.
pub fn store_probe_inputs(workload: &Workload, seed: u64, uploads: usize) -> StoreProbeInputs {
    let stamped = Workload {
        seq_stamped: true,
        ..workload.clone()
    };
    let order = group_order(&stamped, &mut Rng::stream(seed, 1));
    StoreProbeInputs {
        roster_bodies: roster_bodies(&stamped, seed),
        bodies: (0..uploads)
            .map(|k| segment(&stamped, seed, k, order[k % order.len()], k / order.len()))
            .collect(),
        retry: (0..uploads).map(|k| k % PROBE_RETRY_EVERY == 0).collect(),
    }
}

/// Generates the seeded inputs of `workload`. `seconds` sizes the timed
/// list: closed loops get `uploads_per_second × seconds` uploads, open
/// loops a schedule `seconds` long.
pub fn generate(workload: &Workload, seed: u64, seconds: u64) -> Inputs {
    let mut rng = Rng::stream(seed, 1);
    let order = group_order(workload, &mut rng);
    let groups = order.len();

    let roster_bodies = roster_bodies(workload, seed);

    // The timed list, before bodies are assigned.
    let seconds = seconds.max(1) as usize;
    let mut timed_ops: Vec<(Duration, Op)> = Vec::new();
    let mut upload_slots = 0usize;
    let mut queries = query_rotation(workload, seed);
    match workload.loop_kind {
        LoopKind::Closed => {
            upload_slots = workload.uploads_per_second * seconds;
            for _ in 0..upload_slots {
                timed_ops.push((Duration::ZERO, placeholder_upload()));
            }
        }
        LoopKind::Open => {
            // Burn-downs fall a quarter of the way into their period and
            // scrapes three quarters, so at equal rates no read waits
            // behind another read's fold.
            let every = |hz: usize, i: usize, offset: f64| {
                Duration::from_secs_f64((i as f64 + offset) / hz as f64)
            };
            for i in 0..workload.upload_hz * seconds {
                timed_ops.push((every(workload.upload_hz, i, 0.0), placeholder_upload()));
                upload_slots += 1;
            }
            for i in 0..workload.burndown_hz * seconds {
                timed_ops.push((
                    every(workload.burndown_hz, i, 0.25),
                    Op::Burndown(queries.next()),
                ));
            }
            for i in 0..workload.metrics_hz * seconds {
                timed_ops.push((every(workload.metrics_hz, i, 0.75), Op::Metrics));
            }
            timed_ops.sort_by_key(|(due, _)| *due);
        }
    }

    // Upload bodies: warm-up first, then the timed uploads, so sequence
    // numbers rise in the order the uploads are sent.
    let total_uploads = workload.warmup_uploads + upload_slots;
    // In-memory workloads re-post a bounded pool of bodies; sequenced
    // uploads must all be new, or the store screens them as duplicates.
    let distinct = if !workload.seq_stamped {
        total_uploads.min(POOL_LIMIT)
    } else {
        total_uploads
    };
    let bodies: Vec<String> = (0..distinct)
        .map(|k| segment(workload, seed, k, order[k % groups], k / groups))
        .collect();
    let body_of = |k: usize| k % distinct.max(1);
    let warmup = (0..workload.warmup_uploads).map(body_of).collect();
    let mut next_upload = workload.warmup_uploads;
    let timed = timed_ops
        .into_iter()
        .map(|(due, op)| {
            let op = match op {
                Op::Upload { .. } => {
                    let body = body_of(next_upload);
                    next_upload += 1;
                    Op::Upload {
                        body,
                        retry: rng.per_mille(workload.retry_per_mille),
                    }
                }
                other => other,
            };
            Scheduled { due, op }
        })
        .collect();

    let mut probe = Vec::new();
    for _ in 0..workload.probe_burndowns {
        probe.push(Op::Burndown(queries.next()));
    }
    probe.extend((0..workload.probe_metrics).map(|_| Op::Metrics));

    Inputs {
        roster_bodies,
        bodies,
        warmup,
        timed,
        probe,
    }
}

fn placeholder_upload() -> Op {
    Op::Upload {
        body: 0,
        retry: false,
    }
}

/// Burn-down reads rotate plain, `?where=` and `?context=` on banded
/// workloads; without bands only the plain report has rows to serve.
struct QueryRotation {
    shapes: Vec<Query>,
    next: usize,
}

impl QueryRotation {
    fn next(&mut self) -> Query {
        let query = self.shapes[self.next % self.shapes.len()].clone();
        self.next += 1;
        query
    }
}

fn query_rotation(workload: &Workload, seed: u64) -> QueryRotation {
    let mut rng = Rng::stream(seed, 2);
    let shapes = if workload.banded {
        vec![
            Query::Plain,
            Query::Where(format!("weather={}", WEATHER[rng.below(3)])),
            Query::Context(roster_band(seed, rng.below(workload.roster))),
        ]
    } else {
        vec![Query::Plain]
    };
    QueryRotation {
        next: rng.below(shapes.len()),
        shapes,
    }
}

fn roster_bodies(workload: &Workload, seed: u64) -> Vec<String> {
    let hours = Hours::new(0.25).expect("positive hours");
    let mut bodies = Vec::new();
    let mut body = String::new();
    for vehicle in 0..workload.roster {
        let event = FleetEvent::Exposure {
            vehicle: vehicle_id(vehicle),
            hours,
        };
        let ctx = workload.banded.then(|| roster_band(seed, vehicle));
        let seq = workload.seq_stamped.then_some(1);
        push_line(&mut body, &event, seq, ctx.as_deref(), false);
        if (vehicle + 1) % ROSTER_CHUNK == 0 {
            bodies.push(std::mem::take(&mut body));
        }
    }
    if !body.is_empty() {
        bodies.push(body);
    }
    bodies
}

/// Upload segment `k`: vehicle group `group` reporting for the
/// `round`-th time. Lines interleave the group's vehicles; sequence
/// numbers continue after the roster line (`seq` 1).
fn segment(workload: &Workload, seed: u64, k: usize, group: usize, round: usize) -> String {
    let mut rng = Rng::stream(seed, 0x1000_0000 + k as u64);
    let bands: Vec<String> = (0..VEHICLES_PER_SEGMENT).map(|_| band(&mut rng)).collect();
    let mut body = String::with_capacity(SEGMENT_LINES * 100);
    for i in 0..SEGMENT_LINES {
        let slot = i % VEHICLES_PER_SEGMENT;
        let vehicle = vehicle_id((group * VEHICLES_PER_SEGMENT + slot) % workload.roster.max(1));
        let event = if rng.per_mille(15) {
            FleetEvent::Incident {
                vehicle,
                record: incident(&mut rng),
            }
        } else {
            FleetEvent::Exposure {
                vehicle,
                hours: Hours::new(0.25 * (1 + rng.below(4)) as f64).expect("positive hours"),
            }
        };
        let seq = workload
            .seq_stamped
            .then(|| (2 + round * LINES_PER_VEHICLE + i / VEHICLES_PER_SEGMENT) as u64);
        let ctx = workload.banded.then_some(bands[slot].as_str());
        let noncanonical = rng.per_mille(workload.noncanonical_per_mille);
        push_line(&mut body, &event, seq, ctx, noncanonical);
    }
    body
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn inputs_repeat_for_a_seed_and_differ_across_seeds() {
        let w = Workload::named("ingest_durable", true).unwrap();
        let a = generate(&w, 7, 1);
        let b = generate(&w, 7, 1);
        let c = generate(&w, 8, 1);
        assert_eq!(a.bodies, b.bodies);
        assert_eq!(a.roster_bodies, b.roster_bodies);
        assert_ne!(a.bodies, c.bodies);
    }

    #[test]
    fn store_probe_bodies_are_sequenced_and_match_a_sequenced_workload() {
        let hot = Workload::named("ingest_hot", true).unwrap();
        let probe = store_probe_inputs(&hot, 7, 4);
        assert!(probe.bodies[0].contains("\"seq\":"));
        assert!(probe.roster_bodies[0].contains("\"seq\":"));
        assert_eq!(probe.retry, [true, false, false, false]);
        let durable = Workload::named("ingest_durable", true).unwrap();
        let own = generate(&durable, 7, 1);
        let probe = store_probe_inputs(&durable, 7, 4);
        assert_eq!(probe.bodies[..], own.bodies[..4]);
        assert_eq!(probe.roster_bodies, own.roster_bodies);
    }

    #[test]
    fn segments_have_the_serve_bench_shape() {
        let w = Workload::named("ingest_hot", true).unwrap();
        let inputs = generate(&w, 3, 1);
        for body in &inputs.bodies {
            assert_eq!(body.lines().count(), SEGMENT_LINES);
        }
    }
}
