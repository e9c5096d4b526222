//! Read-side access: time-travel folds, history, verification.
//!
//! A [`StoreReader`] holds no file handles and takes no locks — every
//! query lists the directory, reads the segments it needs into memory
//! and folds them with the shared [`ReplayState`] fold. That makes
//! reads safe to run concurrently with the single writer: closed
//! segments are immutable, the open segment only ever grows by whole
//! fsynced records (a partially-visible append looks like a torn tail
//! and is simply not folded), and the one genuine race — a roll or
//! compaction renaming files between the directory listing and the
//! reads — is absorbed by one re-list retry.
//!
//! # Time travel
//!
//! Record timestamps are forced non-decreasing by the writer, so "the
//! state as of T" is a prefix of the record sequence.
//! [`StoreReader::fold_as_of`] starts from the newest snapshot at or
//! before T — a snapshot is the serialised intermediate of the same
//! fold, so this is a pure fast path — and replays only the batch tail
//! after it, batch-by-batch in append order. The result is
//! byte-identical to folding the whole prefix from scratch, floats
//! included (enforced by this crate's property tests).

use std::collections::BTreeMap;
use std::fs;
use std::path::{Path, PathBuf};

use serde::Serialize;

use qrn_core::IncidentClassification;
use qrn_fleet::ingest::FleetState;

use crate::record::{Record, RecordKind};
use crate::segment::{
    closed_segment_name, decode_closed, list_closed, scan_open, OpenScan, ReplayState,
    SnapshotPayload, OPEN_SEGMENT,
};
use crate::StoreError;

/// The outcome of a replay fold: the state plus everything an auditor
/// wants to know about how it was derived.
#[derive(Debug, Clone, Serialize)]
pub struct ReplaySummary {
    /// The folded state.
    pub state: FleetState,
    /// Per-source sequence cursors at the fold point.
    pub cursors: BTreeMap<String, u64>,
    /// Cumulative duplicates rejected up to the fold point.
    pub duplicates: u64,
    /// Cumulative sequence gaps detected.
    pub gap_events: u64,
    /// Cumulative sequence numbers missing.
    pub missing_seqs: u64,
    /// Records folded (batches + snapshots).
    pub records: u64,
    /// Batch records folded.
    pub batches: u64,
    /// Snapshot records folded (0 or 1 on the fast path).
    pub snapshots: u64,
    /// Timestamp of the newest folded record.
    pub last_ts: u64,
    /// Bytes of torn tail observed on the open segment (a reader never
    /// repairs; the writer truncates on its next open).
    pub torn_tail_bytes: u64,
}

/// Shape of one segment file, as [`StoreReader::history`] reports it.
#[derive(Debug, Clone, PartialEq, Eq, Serialize)]
pub struct SegmentInfo {
    /// File name within the store directory.
    pub file: String,
    /// File size in bytes.
    pub bytes: u64,
    /// Records in the segment.
    pub records: u64,
    /// Batch records in the segment.
    pub batches: u64,
    /// Snapshot records in the segment.
    pub snapshots: u64,
    /// Timestamp of the oldest record (None for an empty segment).
    pub first_ts: Option<u64>,
    /// Timestamp of the newest record (None for an empty segment).
    pub last_ts: Option<u64>,
}

/// One point of the evidence history: the cumulative state as of `ts`.
#[derive(Debug, Clone, Serialize)]
pub struct HistoryPoint {
    /// Timestamp of this point (a snapshot's record time, or the newest
    /// record for the live point).
    pub ts: u64,
    /// The cumulative fold state at this point.
    pub state: FleetState,
    /// Whether this is the live endpoint (the fold of everything stored)
    /// rather than a stored snapshot.
    pub live: bool,
}

/// The store's queryable history: its segment shape and its snapshot
/// timeline.
#[derive(Debug, Clone, Serialize)]
pub struct StoreHistory {
    /// Per-segment shape, oldest first, open segment last.
    pub segments: Vec<SegmentInfo>,
    /// Snapshot points in record order, closed by the live state.
    pub points: Vec<HistoryPoint>,
}

/// The outcome of [`StoreReader::verify`].
#[derive(Debug, Clone, Default, Serialize)]
pub struct VerifyReport {
    /// Records examined.
    pub records: u64,
    /// Batch records examined.
    pub batches: u64,
    /// Snapshot records examined.
    pub snapshots: u64,
    /// Snapshots that could be checked against an independently
    /// replayed state (every snapshot with at least one record before
    /// it).
    pub snapshots_verified: u64,
    /// Torn bytes at the open segment's tail (informational: the writer
    /// repairs this on its next open).
    pub torn_tail_bytes: u64,
    /// Human-readable descriptions of every mismatch found. Empty means
    /// the store is internally consistent.
    pub mismatches: Vec<String>,
}

impl VerifyReport {
    /// `true` when no mismatch was found.
    pub fn ok(&self) -> bool {
        self.mismatches.is_empty()
    }
}

/// Read-only access to a store directory, safe to use concurrently with
/// the single writer.
#[derive(Debug, Clone)]
pub struct StoreReader {
    dir: PathBuf,
    classification: IncidentClassification,
    shards: usize,
}

impl StoreReader {
    /// Creates a reader over the store at `dir`, classifying batch
    /// payloads with `classification` on `shards` parse shards.
    ///
    /// # Errors
    ///
    /// Returns [`StoreError::Config`] for zero shards and
    /// [`StoreError::Io`] when `dir` is not a directory.
    pub fn open(
        dir: &Path,
        classification: IncidentClassification,
        shards: usize,
    ) -> Result<StoreReader, StoreError> {
        if shards == 0 {
            return Err(StoreError::Config("shards must be at least 1".to_string()));
        }
        if !dir.is_dir() {
            return Err(StoreError::Io(format!(
                "{} is not a store directory",
                dir.display()
            )));
        }
        Ok(StoreReader {
            dir: dir.to_path_buf(),
            classification,
            shards,
        })
    }

    /// Folds the state as of `as_of` milliseconds (inclusive), or the
    /// full stored history when `None`. Starts from the newest snapshot
    /// at or before the cut and replays only the batch tail after it —
    /// byte-identical to a full-prefix fold.
    ///
    /// # Errors
    ///
    /// Propagates listing/read failures and corruption outside the open
    /// segment's torn tail.
    pub fn fold_as_of(&self, as_of: Option<u64>) -> Result<ReplaySummary, StoreError> {
        let (records, torn) = self.collect()?;
        let cut = as_of.unwrap_or(u64::MAX);
        // Timestamps are non-decreasing, so the queryable prefix ends at
        // the first record past the cut.
        let prefix_len = records.iter().take_while(|r| r.ts <= cut).count();
        let replay = ReplayState::fold(&records[..prefix_len], &self.classification, self.shards)?;
        Ok(summary(replay, torn))
    }

    /// Folds every stored record sequentially, snapshot replacement
    /// included — the reference fold the fast path is tested against.
    ///
    /// # Errors
    ///
    /// Propagates listing/read failures and corruption outside the open
    /// segment's torn tail.
    pub fn replay_sequential(&self) -> Result<ReplaySummary, StoreError> {
        let (records, torn) = self.collect()?;
        let mut replay = ReplayState::default();
        for record in &records {
            replay.apply(record, &self.classification, self.shards)?;
        }
        Ok(summary(replay, torn))
    }

    /// Reports the store's segment shape and its snapshot timeline, each
    /// snapshot materialised as a [`HistoryPoint`] and closed by the
    /// live fold of everything stored.
    ///
    /// # Errors
    ///
    /// Propagates listing/read failures and corruption outside the open
    /// segment's torn tail.
    pub fn history(&self) -> Result<StoreHistory, StoreError> {
        let files = self.collect_files()?;
        let segments = files
            .closed
            .iter()
            .map(|s| (closed_segment_name(s.index), s.bytes, &s.records))
            .chain(files.open.iter().map(|scan| {
                (
                    OPEN_SEGMENT.to_string(),
                    scan.valid_len + scan.torn_bytes,
                    &scan.records,
                )
            }));
        let mut infos = Vec::new();
        let mut points = Vec::new();
        let mut replay = ReplayState::default();
        for (name, bytes_len, records) in segments {
            let mut info = SegmentInfo {
                file: name,
                bytes: bytes_len,
                records: records.len() as u64,
                batches: 0,
                snapshots: 0,
                first_ts: records.first().map(|r| r.ts),
                last_ts: records.last().map(|r| r.ts),
            };
            for record in records {
                match record.kind {
                    RecordKind::Batch => info.batches += 1,
                    RecordKind::Snapshot => info.snapshots += 1,
                }
                replay.apply(record, &self.classification, self.shards)?;
                if record.kind == RecordKind::Snapshot {
                    points.push(HistoryPoint {
                        ts: replay.last_ts,
                        state: replay.state.clone(),
                        live: false,
                    });
                }
            }
            infos.push(info);
        }
        if replay.batches + replay.snapshots > 0 {
            points.push(HistoryPoint {
                ts: replay.last_ts,
                state: replay.state.clone(),
                live: true,
            });
        }
        Ok(StoreHistory {
            segments: infos,
            points,
        })
    }

    /// Verifies the store's internal consistency: replays every record
    /// sequentially and checks each snapshot against the independently
    /// replayed state — serialised state, cursors, screening tallies and
    /// the ledger's canonical byte representation must all match.
    ///
    /// Returns a report rather than an error for mismatches: an auditor
    /// wants the full list, not the first failure.
    ///
    /// # Errors
    ///
    /// Propagates listing/read failures and structural corruption
    /// (damaged records, missing segments) — those make verification
    /// itself impossible.
    pub fn verify(&self) -> Result<VerifyReport, StoreError> {
        let (records, torn) = self.collect()?;
        let mut report = VerifyReport {
            torn_tail_bytes: torn,
            ..VerifyReport::default()
        };
        let mut replay = ReplayState::default();
        let mut have_base = false;
        for (index, record) in records.iter().enumerate() {
            report.records += 1;
            match record.kind {
                RecordKind::Batch => {
                    report.batches += 1;
                    replay.apply(record, &self.classification, self.shards)?;
                }
                RecordKind::Snapshot => {
                    report.snapshots += 1;
                    if have_base {
                        let text = std::str::from_utf8(&record.payload).map_err(|_| {
                            StoreError::Corrupt("snapshot payload is not valid UTF-8".to_string())
                        })?;
                        let stored: SnapshotPayload = serde_json::from_str(text).map_err(|e| {
                            StoreError::Corrupt(format!("snapshot payload does not parse: {e}"))
                        })?;
                        check_snapshot(&mut report, index, &replay, &stored);
                        report.snapshots_verified += 1;
                    }
                    replay.apply(record, &self.classification, self.shards)?;
                }
            }
            have_base = true;
        }
        Ok(report)
    }

    /// Concatenates the stored (screened) batch texts with timestamps at
    /// or before `as_of` — the accepted event log, ready for offline
    /// `fleet ingest` cross-checks. After a compaction only the batches
    /// newer than the compaction snapshot remain, so the dump covers the
    /// retained tail, not all of history.
    ///
    /// # Errors
    ///
    /// Propagates listing/read failures and corruption outside the open
    /// segment's torn tail.
    pub fn dump_log(&self, as_of: Option<u64>) -> Result<String, StoreError> {
        let (records, _) = self.collect()?;
        let cut = as_of.unwrap_or(u64::MAX);
        let mut out = String::new();
        for record in records.iter().take_while(|r| r.ts <= cut) {
            if record.kind == RecordKind::Batch {
                out.push_str(std::str::from_utf8(&record.payload).map_err(|_| {
                    StoreError::Corrupt("batch payload is not valid UTF-8".to_string())
                })?);
            }
        }
        Ok(out)
    }

    /// Reads all records in global order (closed segments ascending,
    /// then the open segment), and the open segment's torn bytes.
    fn collect(&self) -> Result<(Vec<Record>, u64), StoreError> {
        let files = self.collect_files()?;
        let torn = files.torn_bytes();
        Ok((files.into_records(), torn))
    }

    /// Reads all segments. Retries once: a roll renames `open.seg`
    /// between listing and reading, a compaction deletes just-listed
    /// segments — both surface as read/decode failures that a fresh
    /// listing resolves.
    fn collect_files(&self) -> Result<StoreFiles, StoreError> {
        try_collect_segments(&self.dir).or_else(|_| try_collect_segments(&self.dir))
    }
}

/// One closed segment, decoded.
pub(crate) struct ClosedSegment {
    /// The segment's index.
    pub index: u64,
    /// File size in bytes.
    pub bytes: u64,
    /// Its records, all checksum-valid.
    pub records: Vec<Record>,
}

/// A store directory's segments, decoded: closed segments strictly, the
/// open segment tolerantly.
pub(crate) struct StoreFiles {
    /// Closed segments, ascending by index (contiguous).
    pub closed: Vec<ClosedSegment>,
    /// The open segment's scan, or `None` when the file is missing (a
    /// reader can list the directory mid-roll).
    pub open: Option<OpenScan>,
}

impl StoreFiles {
    /// Bytes of torn tail on the open segment.
    pub fn torn_bytes(&self) -> u64 {
        self.open.as_ref().map_or(0, |scan| scan.torn_bytes)
    }

    /// Every record in global order: closed segments ascending, then the
    /// open segment.
    pub fn into_records(self) -> Vec<Record> {
        self.closed
            .into_iter()
            .flat_map(|segment| segment.records)
            .chain(self.open.into_iter().flat_map(|scan| scan.records))
            .collect()
    }
}

/// Lists and decodes every segment of the store at `dir` once, without
/// retrying. Readers retry on failure (a writer may roll or compact
/// under them); the writer's recovery holds the lock, so nothing moves
/// under it.
///
/// # Errors
///
/// Propagates listing/read failures and corruption outside the open
/// segment's torn tail.
pub(crate) fn try_collect_segments(dir: &Path) -> Result<StoreFiles, StoreError> {
    let mut closed = Vec::new();
    for (index, path) in list_closed(dir)? {
        let bytes = fs::read(&path)
            .map_err(|e| StoreError::Io(format!("cannot read {}: {e}", path.display())))?;
        closed.push(ClosedSegment {
            index,
            bytes: bytes.len() as u64,
            records: decode_closed(&bytes, &path)?,
        });
    }
    let open_path = dir.join(OPEN_SEGMENT);
    let open = match fs::read(&open_path) {
        Ok(bytes) => Some(scan_open(&bytes, &open_path)?),
        // The open segment may be missing mid-roll; its records are then
        // in the just-closed segment already read (or will be on retry).
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => None,
        Err(e) => {
            return Err(StoreError::Io(format!(
                "cannot read {}: {e}",
                open_path.display()
            )));
        }
    };
    Ok(StoreFiles { closed, open })
}

/// Compares one snapshot record against the independently replayed
/// state, appending a mismatch description per disagreeing facet.
fn check_snapshot(
    report: &mut VerifyReport,
    index: usize,
    replayed: &ReplayState,
    stored: &SnapshotPayload,
) {
    let replayed_json =
        serde_json::to_string(&replayed.state).expect("fleet state is serialisable");
    let stored_json = serde_json::to_string(&stored.state).expect("fleet state is serialisable");
    if replayed_json != stored_json {
        report.mismatches.push(format!(
            "record {index}: snapshot state differs from replayed state"
        ));
    }
    if replayed.state.evidence().canonical_json() != stored.state.evidence().canonical_json() {
        report.mismatches.push(format!(
            "record {index}: snapshot evidence ledger differs from replayed ledger"
        ));
    }
    if replayed.cursors != stored.cursors {
        report.mismatches.push(format!(
            "record {index}: snapshot sequence cursors differ from replayed cursors"
        ));
    }
    if (
        replayed.duplicates,
        replayed.gap_events,
        replayed.missing_seqs,
    ) != (stored.duplicates, stored.gap_events, stored.missing_seqs)
    {
        report.mismatches.push(format!(
            "record {index}: snapshot screening tallies {}/{}/{} differ from replayed {}/{}/{}",
            stored.duplicates,
            stored.gap_events,
            stored.missing_seqs,
            replayed.duplicates,
            replayed.gap_events,
            replayed.missing_seqs
        ));
    }
}

fn summary(replay: ReplayState, torn: u64) -> ReplaySummary {
    ReplaySummary {
        records: replay.batches + replay.snapshots,
        state: replay.state,
        cursors: replay.cursors,
        duplicates: replay.duplicates,
        gap_events: replay.gap_events,
        missing_seqs: replay.missing_seqs,
        batches: replay.batches,
        snapshots: replay.snapshots,
        last_ts: replay.last_ts,
        torn_tail_bytes: torn,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::MAGIC;
    use crate::store::{Store, StoreConfig};
    use qrn_core::examples::paper_classification;
    use qrn_fleet::event::FleetEvent;
    use qrn_fleet::ingest::ingest_str;
    use qrn_units::Hours;

    fn temp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("qrn-reader-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    fn line(vehicle: &str, quarter_hours: u32, seq: u64) -> String {
        FleetEvent::Exposure {
            vehicle: vehicle.into(),
            hours: Hours::new(quarter_hours as f64 * 0.25).unwrap(),
        }
        .to_line_with_seq(seq)
    }

    fn reader(dir: &Path) -> StoreReader {
        StoreReader::open(dir, paper_classification().unwrap(), 2).unwrap()
    }

    fn store(dir: &Path, config: StoreConfig) -> Store {
        Store::open(dir, paper_classification().unwrap(), config).unwrap()
    }

    #[test]
    fn fold_as_of_cuts_at_the_timestamp() {
        let dir = temp_dir("asof");
        let mut s = store(&dir, StoreConfig::default());
        s.append_batch(&line("A", 4, 1), 100).unwrap();
        s.append_batch(&line("A", 8, 2), 200).unwrap();
        s.append_batch(&line("A", 2, 3), 300).unwrap();
        let r = reader(&dir);
        // Inclusive cut between records.
        let at = r.fold_as_of(Some(200)).unwrap();
        assert!((at.state.exposure().value() - 3.0).abs() < 1e-12);
        assert_eq!(at.batches, 2);
        assert_eq!(at.last_ts, 200);
        // Before everything: the empty state.
        let at = r.fold_as_of(Some(99)).unwrap();
        assert_eq!(at.state.exposure().value(), 0.0);
        assert_eq!(at.batches, 0);
        // No cut: everything, equal to the live replica.
        let at = r.fold_as_of(None).unwrap();
        assert_eq!(
            serde_json::to_string(&at.state).unwrap(),
            serde_json::to_string(s.state()).unwrap()
        );
    }

    #[test]
    fn ctx_stamped_logs_replay_to_the_same_bytes_as_offline_ingest() {
        let dir = temp_dir("ctx");
        let bands = ["weather=clear,zone=urban", "weather=fog,zone=urban"];
        let mut lines = Vec::new();
        for seq in 1..=8u64 {
            let ctx = bands[(seq % 2) as usize];
            lines.push(
                FleetEvent::Exposure {
                    vehicle: "A".into(),
                    hours: Hours::new(0.25 * seq as f64).unwrap(),
                }
                .to_line_with_meta(Some(seq), Some(ctx)),
            );
        }
        let config = StoreConfig {
            snapshot_every_events: 3,
            ..StoreConfig::default()
        };
        let mut s = store(&dir, config);
        for (i, line) in lines.iter().enumerate() {
            s.append_batch(line, (i as u64 + 1) * 100).unwrap();
        }
        let live = serde_json::to_string(s.state()).unwrap();
        drop(s);

        // Snapshot fast path, sequential replay and an offline ingest of
        // the raw lines all agree byte-for-byte, named context rows
        // included.
        let r = reader(&dir);
        let fast = r.fold_as_of(None).unwrap();
        let full = r.replay_sequential().unwrap();
        let offline = ingest_str(
            &(lines.join("\n") + "\n"),
            &paper_classification().unwrap(),
            3,
        )
        .unwrap();
        assert_eq!(serde_json::to_string(&fast.state).unwrap(), live);
        assert_eq!(serde_json::to_string(&full.state).unwrap(), live);
        assert_eq!(serde_json::to_string(&offline).unwrap(), live);
        assert_eq!(fast.state.evidence().named_contexts().count(), 2);

        // An as_of cut attributes exactly the accepted prefix per band
        // (the cut lands on a snapshot, so the fold may resume from it
        // rather than re-reading raw batches — the bytes must not care).
        let at = r.fold_as_of(Some(300)).unwrap();
        let prefix = ingest_str(
            &(lines[..3].join("\n") + "\n"),
            &paper_classification().unwrap(),
            1,
        )
        .unwrap();
        assert_eq!(
            serde_json::to_string(&at.state).unwrap(),
            serde_json::to_string(&prefix).unwrap()
        );
    }

    #[test]
    fn fast_path_equals_sequential_replay_across_snapshots_and_rolls() {
        let dir = temp_dir("fastpath");
        let config = StoreConfig {
            snapshot_every_events: 2,
            roll_bytes: 600,
            ..StoreConfig::default()
        };
        let mut s = store(&dir, config);
        for seq in 1..=9u64 {
            s.append_batch(&line("A", seq as u32, seq), seq * 10)
                .unwrap();
        }
        let live = serde_json::to_string(s.state()).unwrap();
        let r = reader(&dir);
        let fast = r.fold_as_of(None).unwrap();
        let full = r.replay_sequential().unwrap();
        assert!(fast.snapshots <= 1, "fast path folds at most one snapshot");
        assert!(full.snapshots > 1, "cadence should have written snapshots");
        assert_eq!(serde_json::to_string(&fast.state).unwrap(), live);
        assert_eq!(serde_json::to_string(&full.state).unwrap(), live);
        assert_eq!(fast.cursors, full.cursors);
    }

    #[test]
    fn history_lists_segments_and_snapshot_points() {
        let dir = temp_dir("history");
        let config = StoreConfig {
            snapshot_every_events: 1,
            roll_bytes: 400,
            ..StoreConfig::default()
        };
        let mut s = store(&dir, config);
        for seq in 1..=3u64 {
            s.append_batch(&line("A", 4, seq), seq * 100).unwrap();
        }
        let history = reader(&dir).history().unwrap();
        assert_eq!(history.segments.last().unwrap().file, OPEN_SEGMENT);
        let total_records: u64 = history.segments.iter().map(|s| s.records).sum();
        assert_eq!(total_records, 6); // 3 batches + 3 snapshots
        assert_eq!(history.points.len(), 4); // 3 snapshots + live
        assert!(history.points.last().unwrap().live);
        // Points are cumulative and time-ordered.
        let hours: Vec<f64> = history
            .points
            .iter()
            .map(|p| p.state.exposure().value())
            .collect();
        assert_eq!(hours, vec![1.0, 2.0, 3.0, 3.0]);
    }

    #[test]
    fn verify_passes_on_a_healthy_store_and_flags_a_doctored_snapshot() {
        let dir = temp_dir("verify");
        let config = StoreConfig {
            snapshot_every_events: 1,
            ..StoreConfig::default()
        };
        let mut s = store(&dir, config);
        for seq in 1..=3u64 {
            s.append_batch(&line("A", 4, seq), seq * 100).unwrap();
        }
        drop(s);
        let report = reader(&dir).verify().unwrap();
        assert!(report.ok(), "{:?}", report.mismatches);
        assert_eq!(report.snapshots, 3);
        assert_eq!(report.snapshots_verified, 3);

        // Doctor the newest snapshot's payload in place, fixing its CRC
        // so only the *semantics* are wrong — verify must catch it.
        let open_path = dir.join(OPEN_SEGMENT);
        let bytes = fs::read(&open_path).unwrap();
        let scan = scan_open(&bytes, &open_path).unwrap();
        let mut doctored_records = scan.records.clone();
        let last = doctored_records.last_mut().unwrap();
        assert_eq!(last.kind, RecordKind::Snapshot);
        let text = String::from_utf8(last.payload.clone()).unwrap();
        last.payload = text
            .replacen("\"duplicates\":0", "\"duplicates\":7", 1)
            .into_bytes();
        let mut rewritten = MAGIC.to_vec();
        for record in &doctored_records {
            rewritten.extend_from_slice(&record.encode());
        }
        fs::write(&open_path, rewritten).unwrap();
        let report = reader(&dir).verify().unwrap();
        assert!(!report.ok());
        assert!(
            report.mismatches.iter().any(|m| m.contains("tallies")),
            "{:?}",
            report.mismatches
        );
    }

    #[test]
    fn dump_log_returns_the_accepted_text() {
        let dir = temp_dir("dump");
        let mut s = store(&dir, StoreConfig::default());
        let a = line("A", 4, 1);
        let dup = line("A", 4, 1);
        let b = line("B", 2, 1);
        s.append_batch(&format!("{a}\n"), 100).unwrap();
        s.append_batch(&format!("{dup}\n{b}\n"), 200).unwrap();
        let r = reader(&dir);
        // The duplicate was screened out: the dump holds accepted lines
        // only.
        assert_eq!(r.dump_log(None).unwrap(), format!("{a}\n{b}\n"));
        assert_eq!(r.dump_log(Some(100)).unwrap(), format!("{a}\n"));
        // Offline ingest over the dump equals the live replica.
        let offline = qrn_fleet::ingest::ingest_str(
            &r.dump_log(None).unwrap(),
            &paper_classification().unwrap(),
            1,
        )
        .unwrap();
        assert_eq!(
            serde_json::to_string(&offline).unwrap(),
            serde_json::to_string(s.state()).unwrap()
        );
    }

    #[test]
    fn missing_directory_is_an_error() {
        assert!(StoreReader::open(
            Path::new("/definitely/not/a/store"),
            paper_classification().unwrap(),
            1
        )
        .is_err());
    }
}
