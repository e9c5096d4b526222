//! Property tests for the store's central contracts:
//!
//! * **snapshot + tail ≡ full replay** — the fast-path fold that starts
//!   at the newest snapshot is byte-identical to sequentially replaying
//!   every record, which is in turn byte-identical to the live writer's
//!   replica and to a reopened store's recovered state;
//! * **compacted ≡ replay** — compaction rewrites closed segments into
//!   a snapshot without changing a single byte of any queryable state;
//! * **`as_of` ≡ offline prefix** — the time-travelled state at T
//!   equals the batch-wise fold of exactly the batches with ts ≤ T, and
//!   equals a one-shot offline ingest of the accepted (screened) log
//!   prefix.
//!
//! Hours are dyadic (multiples of 0.25 h, as the telemetry layer
//! emits), so every floating-point sum in play is exact and
//! byte-comparisons are legitimate for arbitrary groupings.

use std::sync::atomic::{AtomicU64, Ordering};

use proptest::prelude::*;

use qrn_core::examples::paper_classification;
use qrn_core::incident::IncidentRecord;
use qrn_core::object::{Involvement, ObjectType};
use qrn_fleet::event::FleetEvent;
use qrn_fleet::ingest::{fold_states, ingest_str, FleetState};
use qrn_store::{AppendReceipt, Store, StoreConfig, StoreReader};
use qrn_units::{Hours, Speed};

static DIR_COUNTER: AtomicU64 = AtomicU64::new(0);

fn temp_dir() -> std::path::PathBuf {
    let n = DIR_COUNTER.fetch_add(1, Ordering::Relaxed);
    std::env::temp_dir().join(format!("qrn-store-prop-{}-{n}", std::process::id()))
}

fn json(state: &FleetState) -> String {
    serde_json::to_string(state).unwrap()
}

/// Renders the generated events as sequenced JSONL lines, injecting a
/// duplicate after every `dup_stride`-th line and a sequence gap before
/// every `gap_stride`-th line.
fn render_lines(
    events: &[(usize, u32)],
    incident_stride: usize,
    dup_stride: usize,
    gap_stride: usize,
) -> Vec<String> {
    let mut counters = std::collections::BTreeMap::new();
    let mut lines = Vec::new();
    for (i, (vehicle_idx, quarter_hours)) in events.iter().enumerate() {
        let vehicle = format!("V{vehicle_idx:02}");
        let event = if (i + 1) % incident_stride == 0 {
            FleetEvent::Incident {
                vehicle: vehicle.clone(),
                record: IncidentRecord::collision(
                    Involvement::ego_with(ObjectType::Vru),
                    Speed::from_kmh(5.0 + (i % 40) as f64).unwrap(),
                ),
            }
        } else {
            FleetEvent::Exposure {
                vehicle: vehicle.clone(),
                hours: Hours::new(*quarter_hours as f64 * 0.25).unwrap(),
            }
        };
        let counter = counters.entry(vehicle).or_insert(0u64);
        // A gap: the source "lost" one event before this line.
        if (i + 1) % gap_stride == 0 {
            *counter += 1;
        }
        *counter += 1;
        let line = event.to_line_with_seq(*counter);
        // A duplicate: at-least-once delivery re-sends the same line.
        if (i + 1) % dup_stride == 0 {
            lines.push(line.clone());
        }
        lines.push(line);
    }
    lines
}

/// The snapshot cadence of one store, modelled from its receipts.
///
/// `count` is the writer's count of events since its newest snapshot.
/// Every snapshot record restarts it, a cadence snapshot and a
/// compaction snapshot alike, so a reopen, which folds from the newest
/// snapshot, resumes it exactly.
#[derive(Debug)]
struct Cadence {
    every: u64,
    count: u64,
}

impl Cadence {
    fn new(every: u64) -> Cadence {
        Cadence { every, count: 0 }
    }

    /// Appends `text` at `ts`, checks the receipt's snapshot decision
    /// against the model, and advances the model.
    fn append(&mut self, store: &mut Store, text: &str, ts: u64) -> AppendReceipt {
        let compactions = store.status().compactions;
        let receipt = store.append_batch(text, ts).unwrap();
        let events = receipt.segment.events();
        prop_assert_eq!(
            receipt.snapshot_written,
            self.every > 0 && self.count + events >= self.every,
            "{} events since the newest snapshot, {} more, cadence {}",
            self.count,
            events,
            self.every
        );
        self.count += events;
        if receipt.snapshot_written || store.status().compactions > compactions {
            self.count = 0;
        }
        receipt
    }

    /// Compacts `store` on demand and advances the model.
    fn compact(&mut self, store: &mut Store) -> bool {
        let compacted = store.compact().unwrap();
        if compacted {
            self.count = 0;
        }
        compacted
    }
}

/// Reopens the store at `dir` and checks it against `twin`, a store fed
/// the same batches that never closed: the same state, cursors and
/// screening tallies, the same state as a sequential replay of every
/// record, and the same snapshot decision on the next append, `probe`.
fn reopen_and_probe(
    dir: &std::path::Path,
    config: StoreConfig,
    cadence: &mut Cadence,
    twin: &mut Store,
    twin_cadence: &mut Cadence,
    probe: &str,
    ts: u64,
) -> Store {
    let classification = paper_classification().unwrap();
    let mut store = Store::open(dir, classification.clone(), config).unwrap();
    prop_assert_eq!(json(store.state()), json(twin.state()));
    prop_assert_eq!(store.cursors(), twin.cursors());
    let (reopened, live) = (store.status(), twin.status());
    prop_assert_eq!(
        (
            reopened.duplicates,
            reopened.gap_events,
            reopened.missing_seqs
        ),
        (live.duplicates, live.gap_events, live.missing_seqs)
    );
    prop_assert_eq!(reopened.last_ts, live.last_ts);
    let sequential = StoreReader::open(dir, classification, 2)
        .unwrap()
        .replay_sequential()
        .unwrap();
    prop_assert_eq!(json(store.state()), json(&sequential.state));
    prop_assert_eq!(store.cursors(), &sequential.cursors);

    let receipt = cadence.append(&mut store, probe, ts);
    let twin_receipt = twin_cadence.append(twin, probe, ts);
    prop_assert_eq!(receipt.snapshot_written, twin_receipt.snapshot_written);
    prop_assert_eq!(json(store.state()), json(twin.state()));
    store
}

/// A probe batch of `events` unsequenced exposure lines.
fn probe_batch(events: usize) -> String {
    let line = FleetEvent::Exposure {
        vehicle: "P".into(),
        hours: Hours::new(0.5).unwrap(),
    }
    .to_line();
    format!("{line}\n").repeat(events)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn snapshot_tail_compaction_and_time_travel_are_byte_identical(
        events in proptest::collection::vec((0usize..4, 1u32..40), 4..100),
        cut_permilles in proptest::collection::vec(1usize..1000, 0..24),
        snapshot_every in prop_oneof![Just(0u64), Just(1u64), Just(3u64), Just(7u64)],
        roll_bytes in prop_oneof![Just(1u64), Just(900u64), Just(8u64 * 1024 * 1024)],
        compact_after in prop_oneof![Just(0u64), Just(1u64), Just(2u64), Just(3u64)],
        probe_events in (1usize..9, 1usize..9),
        incident_stride in 3usize..9,
        dup_stride in 4usize..11,
        gap_stride in 5usize..13,
    ) {
        let classification = paper_classification().unwrap();
        let lines = render_lines(&events, incident_stride, dup_stride, gap_stride);

        // Split the line stream into batches at the generated cuts.
        let mut cuts: Vec<usize> = cut_permilles
            .iter()
            .map(|p| p * lines.len() / 1000)
            .filter(|c| *c > 0 && *c < lines.len())
            .collect();
        cuts.sort_unstable();
        cuts.dedup();
        cuts.push(lines.len());
        let mut batches = Vec::new();
        let mut start = 0;
        for cut in cuts {
            if cut > start {
                batches.push(lines[start..cut].join("\n") + "\n");
                start = cut;
            }
        }

        let config = StoreConfig {
            snapshot_every_events: snapshot_every,
            roll_bytes,
            compact_after_segments: compact_after,
            parse_shards: 2,
        };
        // `twin` takes every batch `store` takes but is never closed.
        let (dir, twin_dir) = (temp_dir(), temp_dir());
        let mut store = Store::open(&dir, classification.clone(), config).unwrap();
        let mut twin = Store::open(&twin_dir, classification.clone(), config).unwrap();
        let mut cadence = Cadence::new(snapshot_every);
        let mut twin_cadence = Cadence::new(snapshot_every);
        let mut receipts = Vec::new();
        let mut timestamps = Vec::new();
        for (b, batch) in batches.iter().enumerate() {
            let ts = (b as u64 + 1) * 1_000;
            receipts.push(cadence.append(&mut store, batch, ts));
            twin_cadence.append(&mut twin, batch, ts);
            timestamps.push(ts);
        }
        let live = json(store.state());
        let live_cursors = store.cursors().clone();

        // Screening actually fired: the injected duplicates were all
        // rejected.
        let injected_dups = (1..=events.len()).filter(|i| i % dup_stride == 0).count() as u64;
        let total_dups: u64 = receipts.iter().map(|r| r.duplicates).sum();
        prop_assert_eq!(total_dups, injected_dups);

        let reader = StoreReader::open(&dir, classification.clone(), 3).unwrap();

        // Fast path (snapshot + tail) ≡ sequential full replay ≡ live.
        let fast = reader.fold_as_of(None).unwrap();
        let full = reader.replay_sequential().unwrap();
        prop_assert_eq!(&json(&fast.state), &live);
        prop_assert_eq!(&json(&full.state), &live);
        prop_assert_eq!(&fast.cursors, &live_cursors);
        prop_assert_eq!(&full.cursors, &live_cursors);

        // Time travel: as_of each batch timestamp ≡ the batch-wise fold
        // of the receipts up to it. A cut older than an automatic
        // compaction finds no record left to fold: the compaction
        // snapshot replaced those batches.
        let compacted = store.status().compactions > 0;
        for (k, ts) in timestamps.iter().enumerate() {
            let at = reader.fold_as_of(Some(*ts)).unwrap();
            if at.records == 0 {
                prop_assert!(compacted, "as_of {} folded no record", ts);
                continue;
            }
            let expected = fold_states(receipts[..=k].iter().map(|r| r.segment.clone()));
            prop_assert_eq!(&json(&at.state), &json(&expected));
        }
        // …and the accepted-log prefix one-shot ingests to the same
        // bytes (hours are dyadic, so grouping cannot round).
        if !compacted {
            let mid_ts = timestamps[timestamps.len() / 2];
            let dump = reader.dump_log(Some(mid_ts)).unwrap();
            let offline = ingest_str(&dump, &classification, 1).unwrap();
            let at = reader.fold_as_of(Some(mid_ts)).unwrap();
            prop_assert_eq!(&json(&offline), &json(&at.state));
        }

        // The store verifies: every stored snapshot matches independent
        // replay.
        let report = reader.verify().unwrap();
        prop_assert!(report.ok(), "{:?}", report.mismatches);

        // Reopen ≡ the store that never closed, and the next append's
        // snapshot decision resumes the cadence.
        drop(store);
        let mut ts = timestamps.last().copied().unwrap_or(0);
        ts += 1_000;
        let mut store = reopen_and_probe(
            &dir,
            config,
            &mut cadence,
            &mut twin,
            &mut twin_cadence,
            &probe_batch(probe_events.0),
            ts,
        );
        let live = json(twin.state());
        let live_cursors = twin.cursors().clone();

        // Compaction changes no queryable byte. The twin compacts too,
        // so both keep one snapshot cadence.
        prop_assert_eq!(
            cadence.compact(&mut store),
            twin_cadence.compact(&mut twin)
        );
        let fast = reader.fold_as_of(None).unwrap();
        prop_assert_eq!(&json(&fast.state), &live);
        prop_assert_eq!(&fast.cursors, &live_cursors);
        let full = reader.replay_sequential().unwrap();
        prop_assert_eq!(&json(&full.state), &live);
        prop_assert_eq!(&full.cursors, &live_cursors);
        drop(store);
        ts += 1_000;
        let store = reopen_and_probe(
            &dir,
            config,
            &mut cadence,
            &mut twin,
            &mut twin_cadence,
            &probe_batch(probe_events.1),
            ts,
        );
        let report = reader.verify().unwrap();
        prop_assert!(report.ok(), "{:?}", report.mismatches);

        drop((store, twin));
        std::fs::remove_dir_all(&dir).ok();
        std::fs::remove_dir_all(&twin_dir).ok();
    }
}
