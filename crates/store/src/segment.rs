//! Segment files: naming, listing, scanning and the shared replay fold.
//!
//! A store directory holds one *open* segment (`open.seg`, appended in
//! place) and any number of *closed* segments (`seg-00000001.seg`, …),
//! which are immutable from the moment the atomic rename that closed
//! them becomes visible. Closed segments are decoded *strictly* — any
//! damage is [`StoreError::Corrupt`] — while the open segment is scanned
//! *tolerantly*: a crash can only ever tear its tail, so everything
//! after the first undecodable position is treated as the torn tail and
//! (by the writer on reopen) truncated away.
//!
//! [`ReplayState`] is the one fold both the writer's recovery and every
//! reader query use: batches are re-ingested batch-by-batch and merged
//! in append order — the exact fold the live writer performed — and
//! snapshots *replace* the running state with their stored payload.
//! [`ReplayState::fold`] starts at the newest snapshot of the records it
//! is given, so a reopen and a `fold_as_of` both cost the tail since
//! that snapshot. Byte-identity of recovery, time travel and compaction
//! all reduce to this single code path.
//!
//! Sequence cursors have one walk too: `screen_line` is the per-line
//! advance the writer screens each batch with, and replay rebuilds the
//! cursors by walking each stored batch with the same function.

use std::collections::BTreeMap;
use std::fs;
use std::path::{Path, PathBuf};

use serde::{Deserialize, Serialize};

use qrn_core::IncidentClassification;
use qrn_fleet::event::fastpath::{parse_line_hybrid, ParsedLine};
use qrn_fleet::ingest::{ingest_str, FleetState};

use crate::record::{decode, Decoded, Record, RecordKind, MAGIC};
use crate::StoreError;

/// File name of the open (appending) segment.
pub const OPEN_SEGMENT: &str = "open.seg";

/// File name of the closed segment with 1-based `index`.
pub fn closed_segment_name(index: u64) -> String {
    format!("seg-{index:08}.seg")
}

/// Parses a closed-segment file name back to its index.
pub fn parse_segment_index(name: &str) -> Option<u64> {
    let rest = name.strip_prefix("seg-")?.strip_suffix(".seg")?;
    if rest.len() != 8 || !rest.bytes().all(|b| b.is_ascii_digit()) {
        return None;
    }
    rest.parse().ok()
}

/// Lists the closed segments of `dir`, ascending by index.
///
/// # Errors
///
/// Returns [`StoreError::Io`] when the directory cannot be read and
/// [`StoreError::Corrupt`] when the surviving indices are not
/// contiguous — compaction deletes oldest-first precisely so that a
/// crash mid-compaction leaves a contiguous suffix.
pub fn list_closed(dir: &Path) -> Result<Vec<(u64, PathBuf)>, StoreError> {
    let entries = fs::read_dir(dir)
        .map_err(|e| StoreError::Io(format!("cannot list {}: {e}", dir.display())))?;
    let mut segments = Vec::new();
    for entry in entries {
        let entry =
            entry.map_err(|e| StoreError::Io(format!("cannot list {}: {e}", dir.display())))?;
        let name = entry.file_name();
        if let Some(index) = name.to_str().and_then(parse_segment_index) {
            segments.push((index, entry.path()));
        }
    }
    segments.sort_unstable_by_key(|(index, _)| *index);
    for pair in segments.windows(2) {
        if pair[1].0 != pair[0].0 + 1 {
            return Err(StoreError::Corrupt(format!(
                "closed segments are not contiguous in {}: {} is followed by {}",
                dir.display(),
                pair[0].1.display(),
                pair[1].1.display()
            )));
        }
    }
    Ok(segments)
}

/// Decodes a *closed* segment strictly: the magic must match and every
/// byte must belong to a checksum-valid record — the tolerant scan of
/// [`scan_open`] must find no torn tail.
///
/// # Errors
///
/// Returns [`StoreError::Corrupt`] for a bad magic, a damaged record or
/// a truncated file — closed segments were fully synced before the
/// rename that closed them, so none of these can be a crash artefact.
pub fn decode_closed(bytes: &[u8], path: &Path) -> Result<Vec<Record>, StoreError> {
    let scan = scan_open(bytes, path)?;
    let offset = scan.valid_len as usize;
    if offset < MAGIC.len() {
        return Err(StoreError::Corrupt(format!(
            "{} does not start with the segment magic",
            path.display()
        )));
    }
    if scan.torn_bytes == 0 {
        return Ok(scan.records);
    }
    Err(StoreError::Corrupt(match decode(&bytes[offset..]) {
        Err(StoreError::Corrupt(msg)) => format!("{} at byte {offset}: {msg}", path.display()),
        _ => format!(
            "{} is truncated at byte {offset} (closed segments are immutable)",
            path.display()
        ),
    }))
}

/// Outcome of tolerantly scanning the open segment.
#[derive(Debug)]
pub struct OpenScan {
    /// The checksum-valid record prefix.
    pub records: Vec<Record>,
    /// Byte length of the valid prefix (magic included). Anything past
    /// this is the torn tail; the writer truncates to this length on
    /// reopen.
    pub valid_len: u64,
    /// Bytes past the valid prefix.
    pub torn_bytes: u64,
}

/// Scans open-segment `bytes` tolerantly: decoding stops at the first
/// position that does not hold a complete, checksum-valid record, and
/// everything from there on is reported as the torn tail. A file too
/// short to hold the magic (a crash during segment creation) is an
/// entirely-torn scan with `valid_len` 0.
///
/// # Errors
///
/// Returns [`StoreError::Corrupt`] only when the file is long enough to
/// hold the magic but holds *different* bytes — that is never a crash
/// artefact of this store and must not be silently overwritten.
pub fn scan_open(bytes: &[u8], path: &Path) -> Result<OpenScan, StoreError> {
    if bytes.len() < MAGIC.len() {
        return Ok(OpenScan {
            records: Vec::new(),
            valid_len: 0,
            torn_bytes: bytes.len() as u64,
        });
    }
    if &bytes[..MAGIC.len()] != MAGIC {
        return Err(StoreError::Corrupt(format!(
            "{} does not start with the segment magic",
            path.display()
        )));
    }
    let mut records = Vec::new();
    let mut offset = MAGIC.len();
    loop {
        if offset >= bytes.len() {
            break;
        }
        match decode(&bytes[offset..]) {
            Ok(Decoded::Record(record, consumed)) => {
                records.push(record);
                offset += consumed;
            }
            // A short or damaged tail: the crash frontier. The scan is
            // sequential, so every record before `offset` is intact.
            Ok(Decoded::Truncated) | Err(StoreError::Corrupt(_)) => break,
            Err(other) => return Err(other),
        }
    }
    Ok(OpenScan {
        records,
        valid_len: offset as u64,
        torn_bytes: (bytes.len() - offset) as u64,
    })
}

/// Screens one telemetry line against the per-source sequence cursors.
///
/// Returns `None` for a **duplicate** — a sequenced line whose `seq` is
/// at or below its vehicle's cursor — and otherwise the count of
/// sequence numbers the line skipped past `cursor + 1` (0 when it is in
/// order), having moved the cursor up to its `seq`. Unsequenced, blank
/// and malformed lines return `Some(0)` and touch no cursor. A vehicle's
/// cursor is created at 0 on its first sequenced line (interning its id
/// once; later lines allocate nothing), so `seq` 0 is always a
/// duplicate.
///
/// This is the store's only cursor walk: the writer screens batches
/// with it and [`ReplayState::apply`] rebuilds cursors with it.
pub(crate) fn screen_line(line: &str, cursors: &mut BTreeMap<String, u64>) -> Option<u64> {
    match parse_line_hybrid(line) {
        ParsedLine::Fast(event, Some(seq), _) => advance(cursors, event.vehicle(), seq),
        ParsedLine::Owned(event, Some(seq), _) => advance(cursors, event.vehicle(), seq),
        _ => Some(0),
    }
}

fn advance(cursors: &mut BTreeMap<String, u64>, vehicle: &str, seq: u64) -> Option<u64> {
    if !cursors.contains_key(vehicle) {
        cursors.insert(vehicle.to_string(), 0);
    }
    let cursor = cursors.get_mut(vehicle).expect("cursor was just ensured");
    if seq <= *cursor {
        return None;
    }
    let missing = seq - *cursor - 1;
    *cursor = seq;
    Some(missing)
}

/// The payload of a snapshot record: the cumulative fold state and the
/// sequence-screening bookkeeping at one point of the log. On replay it
/// *replaces* the running [`ReplayState`] — it is the literal serialised
/// intermediate of the same fold, which is what makes snapshot + tail
/// byte-identical to full replay.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct SnapshotPayload {
    /// The cumulative fold state.
    pub state: FleetState,
    /// Per-source sequence cursors (highest accepted `seq` per vehicle).
    pub cursors: BTreeMap<String, u64>,
    /// Cumulative duplicate lines rejected.
    pub duplicates: u64,
    /// Cumulative sequence gaps detected.
    pub gap_events: u64,
    /// Cumulative sequence numbers missing across those gaps.
    pub missing_seqs: u64,
}

/// The running state of a replay fold — shared by writer recovery and
/// every reader query.
#[derive(Debug, Clone, Default)]
pub struct ReplayState {
    /// The cumulative fold state.
    pub state: FleetState,
    /// Per-source sequence cursors.
    pub cursors: BTreeMap<String, u64>,
    /// Cumulative duplicates rejected.
    pub duplicates: u64,
    /// Cumulative gaps detected.
    pub gap_events: u64,
    /// Cumulative sequence numbers missing.
    pub missing_seqs: u64,
    /// Timestamp of the last record applied.
    pub last_ts: u64,
    /// Batch records applied (or replaced-over) so far.
    pub batches: u64,
    /// Snapshot records applied so far.
    pub snapshots: u64,
    /// Events folded since the last snapshot (drives the writer's
    /// snapshot cadence across restarts).
    pub events_since_snapshot: u64,
}

impl ReplayState {
    /// Folds `records` (in append order) from the newest snapshot among
    /// them, or from the first record when there is none. A snapshot
    /// replaces everything folded before it, so this equals a fold of
    /// every record byte for byte, except that `batches` and
    /// `snapshots` count only the records actually folded.
    ///
    /// # Errors
    ///
    /// As [`ReplayState::apply`].
    pub fn fold(
        records: &[Record],
        classification: &IncidentClassification,
        shards: usize,
    ) -> Result<ReplayState, StoreError> {
        let start = records
            .iter()
            .rposition(|r| r.kind == RecordKind::Snapshot)
            .unwrap_or(0);
        let mut replay = ReplayState::default();
        for record in &records[start..] {
            replay.apply(record, classification, shards)?;
        }
        Ok(replay)
    }

    /// Applies one record: a batch is re-ingested from its stored text
    /// and merged (the same fold the live writer performed), a snapshot
    /// replaces the running state with its payload.
    ///
    /// # Errors
    ///
    /// Returns [`StoreError::Corrupt`] for a snapshot payload that does
    /// not parse, and propagates fleet errors from batch ingestion.
    pub fn apply(
        &mut self,
        record: &Record,
        classification: &IncidentClassification,
        shards: usize,
    ) -> Result<(), StoreError> {
        match record.kind {
            RecordKind::Batch => {
                let text = std::str::from_utf8(&record.payload).map_err(|_| {
                    StoreError::Corrupt("batch payload is not valid UTF-8".to_string())
                })?;
                let segment = ingest_str(text, classification, shards)?;
                self.events_since_snapshot += segment.events();
                self.state.merge(&segment);
                // The stored text is the *screened* batch: screening it
                // again from the cursors it was screened against keeps
                // every line and rebuilds the exact cursors.
                for line in text.lines() {
                    screen_line(line, &mut self.cursors);
                }
                self.duplicates += u64::from(record.duplicates);
                self.gap_events += u64::from(record.gap_events);
                self.missing_seqs += u64::from(record.missing_seqs);
                self.batches += 1;
            }
            RecordKind::Snapshot => {
                let text = std::str::from_utf8(&record.payload).map_err(|_| {
                    StoreError::Corrupt("snapshot payload is not valid UTF-8".to_string())
                })?;
                let payload: SnapshotPayload = serde_json::from_str(text).map_err(|e| {
                    StoreError::Corrupt(format!("snapshot payload does not parse: {e}"))
                })?;
                self.state = payload.state;
                self.cursors = payload.cursors;
                self.duplicates = payload.duplicates;
                self.gap_events = payload.gap_events;
                self.missing_seqs = payload.missing_seqs;
                self.snapshots += 1;
                self.events_since_snapshot = 0;
            }
        }
        self.last_ts = self.last_ts.max(record.ts);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn segment_names_round_trip() {
        assert_eq!(closed_segment_name(1), "seg-00000001.seg");
        assert_eq!(parse_segment_index("seg-00000001.seg"), Some(1));
        assert_eq!(parse_segment_index("seg-12345678.seg"), Some(12_345_678));
        assert_eq!(parse_segment_index("open.seg"), None);
        assert_eq!(parse_segment_index("seg-1.seg"), None);
        assert_eq!(parse_segment_index("seg-0000000x.seg"), None);
        assert_eq!(parse_segment_index("seg-00000001.seg.tmp"), None);
    }

    #[test]
    fn tolerant_scan_stops_at_the_tear_and_counts_it() {
        let record = Record {
            kind: RecordKind::Batch,
            ts: 5,
            duplicates: 0,
            gap_events: 0,
            missing_seqs: 0,
            payload: b"{\"v\":1}\n".to_vec(),
        };
        let mut bytes = MAGIC.to_vec();
        bytes.extend_from_slice(&record.encode());
        let valid = bytes.len() as u64;
        // Tear: half of a second record.
        let second = record.encode();
        bytes.extend_from_slice(&second[..second.len() / 2]);
        let scan = scan_open(&bytes, Path::new("open.seg")).unwrap();
        assert_eq!(scan.records.len(), 1);
        assert_eq!(scan.valid_len, valid);
        assert_eq!(scan.torn_bytes, (second.len() / 2) as u64);
    }

    #[test]
    fn closed_segments_reject_what_open_segments_tolerate() {
        let record = Record {
            kind: RecordKind::Batch,
            ts: 5,
            duplicates: 0,
            gap_events: 0,
            missing_seqs: 0,
            payload: b"x".to_vec(),
        };
        let mut bytes = MAGIC.to_vec();
        let encoded = record.encode();
        bytes.extend_from_slice(&encoded[..encoded.len() - 1]);
        assert!(scan_open(&bytes, Path::new("open.seg")).is_ok());
        assert!(matches!(
            decode_closed(&bytes, Path::new("seg-00000001.seg")),
            Err(StoreError::Corrupt(_))
        ));
    }

    #[test]
    fn a_wrong_magic_is_never_silently_overwritten() {
        let bytes = b"NOTSTORE-some-other-file".to_vec();
        assert!(matches!(
            scan_open(&bytes, Path::new("open.seg")),
            Err(StoreError::Corrupt(_))
        ));
        // But a file shorter than the magic is a crash artefact of
        // segment creation and scans as entirely torn.
        let scan = scan_open(b"QRN", Path::new("open.seg")).unwrap();
        assert_eq!(scan.valid_len, 0);
        assert_eq!(scan.torn_bytes, 3);
    }
}
