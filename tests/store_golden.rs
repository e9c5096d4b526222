//! Golden bytes of the evidence store.
//!
//! The fixtures under `tests/fixtures/store_golden/` were written by the
//! store code as it stood *before* recovery started from the newest
//! snapshot, compaction stopped keeping a sealed copy of the state and
//! screening stopped staging its cursors on a copy. No test rewrites
//! them. The store's other byte-identity tests compare today's code with
//! today's code (live ≡ reopened ≡ compacted); this one pins every
//! segment file and every recovered tally to the earlier implementation.
//!
//! Two stores take the same fixed batches: `history/` never compacts, so
//! every batch and cadence snapshot record stays on disk, and
//! `compacted/` compacts after two closed segments, so automatic
//! compactions land mid-stream with appends after them. Both are
//! reopened mid-stream (recovery must resume the snapshot cadence where
//! the writer left it) and once more at the end; the final reopen's
//! state, cursors and tallies are pinned as JSON. The batches hold
//! sequence duplicates, gaps, a `seq` 0 line, unsequenced, blank and
//! malformed lines, incidents and ODD `ctx` bands. Hours are dyadic and
//! timestamps fixed, so every byte is reproducible.

use std::fs;
use std::path::{Path, PathBuf};

use qrn::core::examples::paper_classification;
use qrn::core::incident::IncidentRecord;
use qrn::core::object::{Involvement, ObjectType};
use qrn::fleet::event::FleetEvent;
use qrn::store::{Store, StoreConfig};
use qrn::units::{Hours, Speed};

const BANDS: [&str; 3] = [
    "weather=clear,zone=urban",
    "weather=fog,zone=urban",
    "weather=clear,zone=highway",
];

/// Batches appended before the mid-stream reopen.
const FIRST_PHASE: usize = 14;

/// The fixed upload batches: a small deterministic generator over four
/// vehicles with a per-vehicle seq counter, injecting each anomaly on
/// its own stride.
fn batches() -> Vec<String> {
    let mut seqs = [0u64; 4];
    let mut state = 0x2545_f491_u64;
    let mut next = move || {
        state = state
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        (state >> 33) as usize
    };
    let mut out = Vec::new();
    let mut line_no = 0usize;
    for batch in 0..29usize {
        let mut text = String::new();
        for _ in 0..1 + next() % 3 {
            line_no += 1;
            let v = next() % 4;
            let vehicle = format!("V{v}");
            let event = if line_no.is_multiple_of(7) {
                FleetEvent::Incident {
                    vehicle,
                    record: IncidentRecord::collision(
                        Involvement::ego_with(ObjectType::Vru),
                        Speed::from_kmh(10.0 + (line_no % 30) as f64).unwrap(),
                    ),
                }
            } else {
                FleetEvent::Exposure {
                    vehicle,
                    hours: Hours::new(0.25 * (1 + next() % 8) as f64).unwrap(),
                }
            };
            let ctx = (!line_no.is_multiple_of(5)).then(|| BANDS[next() % BANDS.len()]);
            if line_no.is_multiple_of(11) {
                // Unsequenced: passes screening verbatim.
                text.push_str(&event.to_line_with_meta(None, ctx));
                text.push('\n');
                continue;
            }
            if line_no.is_multiple_of(9) {
                // A gap: the source lost two events before this one.
                seqs[v] += 2;
            }
            seqs[v] += 1;
            let line = event.to_line_with_meta(Some(seqs[v]), ctx);
            text.push_str(&line);
            text.push('\n');
            if line_no.is_multiple_of(6) {
                // At-least-once delivery re-sends the line.
                text.push_str(&line);
                text.push('\n');
            }
        }
        match batch {
            3 => text.push_str("{broken json\n"),
            8 => text.push('\n'),
            12 => text.push_str("{\"v\":99,\"event\":\"exposure\"}\n"),
            17 => text.push_str(
                &FleetEvent::Exposure {
                    vehicle: "V9".into(),
                    hours: Hours::new(0.5).unwrap(),
                }
                .to_line_with_seq(0),
            ),
            _ => {}
        }
        out.push(text);
    }
    out
}

fn config(compact_after_segments: u64) -> StoreConfig {
    StoreConfig {
        snapshot_every_events: 4,
        roll_bytes: 2048,
        compact_after_segments,
        parse_shards: 2,
    }
}

fn open(dir: &Path, config: StoreConfig) -> Store {
    Store::open(dir, paper_classification().unwrap(), config).unwrap()
}

/// Drives one store through both phases and returns the final reopen's
/// state, cursors and tallies as JSON.
fn drive(dir: &Path, config: StoreConfig) -> String {
    let _ = fs::remove_dir_all(dir);
    let batches = batches();
    let mut store = open(dir, config);
    for (i, batch) in batches.iter().enumerate() {
        if i == FIRST_PHASE {
            drop(store);
            store = open(dir, config);
        }
        store.append_batch(batch, (i as u64 + 1) * 1_000).unwrap();
    }
    drop(store);
    let store = open(dir, config);
    let status = store.status();
    format!(
        "{{\"state\":{},\"cursors\":{},\"duplicates\":{},\"gap_events\":{},\
         \"missing_seqs\":{},\"last_ts\":{},\"closed_segments\":{},\"open_bytes\":{},\
         \"appended_bytes\":{}}}\n",
        serde_json::to_string(store.state()).unwrap(),
        serde_json::to_string(store.cursors()).unwrap(),
        status.duplicates,
        status.gap_events,
        status.missing_seqs,
        status.last_ts,
        status.closed_segments,
        status.open_bytes,
        status.appended_bytes,
    )
}

/// Segment files of `dir` by name (the lock file is not a segment).
fn segment_files(dir: &Path) -> Vec<(String, Vec<u8>)> {
    let mut files: Vec<(String, Vec<u8>)> = fs::read_dir(dir)
        .unwrap()
        .map(|entry| entry.unwrap())
        .filter(|entry| entry.file_name().to_string_lossy().ends_with(".seg"))
        .map(|entry| {
            (
                entry.file_name().to_string_lossy().into_owned(),
                fs::read(entry.path()).unwrap(),
            )
        })
        .collect();
    files.sort();
    files
}

fn fixture_dir(name: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures/store_golden")
        .join(name)
}

fn assert_golden(name: &str, compact_after_segments: u64) {
    let dir = std::env::temp_dir().join(format!("qrn-store-golden-{name}-{}", std::process::id()));
    let reopened = drive(&dir, config(compact_after_segments));
    let fixtures = fixture_dir(name);
    let expected_reopened = fs::read_to_string(fixtures.join("reopened.json"))
        .unwrap_or_else(|e| panic!("missing golden fixture {name}/reopened.json: {e}"));
    assert!(
        reopened == expected_reopened,
        "{name}: the reopened state, cursors or tallies drifted from the golden JSON:\n\
         got  {reopened}\nwant {expected_reopened}"
    );
    let actual = segment_files(&dir);
    let expected = segment_files(&fixtures);
    let names = |files: &[(String, Vec<u8>)]| -> Vec<String> {
        files.iter().map(|(name, _)| name.clone()).collect()
    };
    assert_eq!(
        names(&actual),
        names(&expected),
        "{name}: segment files differ"
    );
    for ((file, bytes), (_, want)) in actual.iter().zip(&expected) {
        if let Some(at) = bytes.iter().zip(want).position(|(a, b)| a != b) {
            panic!("{name}/{file} drifted from its golden bytes at byte {at}");
        }
        assert_eq!(
            bytes.len(),
            want.len(),
            "{name}/{file}: length differs from its golden bytes"
        );
    }
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn uncompacted_store_writes_golden_segments_and_reopens_to_golden_state() {
    assert_golden("history", 0);
}

#[test]
fn auto_compacting_store_writes_golden_segments_and_reopens_to_golden_state() {
    assert_golden("compacted", 2);
}
