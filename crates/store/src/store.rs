//! The single-writer store: append, screen, snapshot, roll, compact.
//!
//! A [`Store`] owns one directory of segment files and is the only
//! writer to it — multi-threaded servers funnel through
//! [`crate::writer::StoreWriterHandle`]. Appending a batch is:
//!
//! 1. **Screen** the batch line-by-line against per-source sequence
//!    cursors, advancing them in place: duplicate `seq`s are dropped
//!    (counted), gaps are counted but the jumped-to line is kept,
//!    unsequenced and malformed lines pass through verbatim so replay
//!    re-derives the exact skip tallies.
//! 2. **Ingest** the surviving text into a [`FleetState`] segment and
//!    **append** it — screened text, screening deltas and a monotone
//!    timestamp — as one checksummed record, fsynced before the call
//!    returns. What is acknowledged is durable. Any failure leaves the
//!    cursors ahead of the disk, so a failed append abandons the store
//!    until a reopen.
//! 3. **Fold** the segment into the in-memory replica (the same
//!    `merge` fold every other layer uses), and, on cadence, write a
//!    snapshot record, roll the open segment, and compact closed ones.
//!    Compaction runs only while the open segment is empty, when the
//!    replica is exactly the closed segments' state, so it snapshots
//!    the replica itself.
//!
//! # Recovery
//!
//! [`Store::open`] reads the directory with the reader's segment
//! collection and folds it with the reader's fold, from the newest
//! snapshot on; only the lock, the torn-tail repair and the append
//! handle are the writer's own. Each piece of the replica — state,
//! cursors, tallies — is held once, in one [`ReplayState`].
//!
//! # Durability discipline
//!
//! Records are appended then `fsync`ed; segment rolls and compactions go
//! through `qrn_fleet::checkpoint`'s write-temp + fsync + rename +
//! [`directory-fsync`](qrn_fleet::checkpoint::fsync_dir) protocol, so a
//! power cut never drops a just-closed segment and never exposes a
//! half-written one. The open segment is the only file a crash can
//! damage, and only by tearing its tail — which reopen detects,
//! truncates and reports.
//!
//! # Writer exclusivity
//!
//! [`Store::open`] takes an exclusive advisory lock on a `.lock` file in
//! the store directory and holds it for the store's lifetime, so two
//! writers (say, `qrn store compact` against a live `qrn serve --store`)
//! can never interleave appends or renames in one directory. The lock is
//! released when the store drops — and by the OS when the process dies,
//! even by SIGKILL or power loss, so crash recovery is never wedged by a
//! stale lock. Readers ([`crate::StoreReader`]) take no lock: closed
//! segments are immutable and the open segment is scanned tolerantly.

use std::collections::BTreeMap;
use std::fs;
use std::io::Write;
use std::path::{Path, PathBuf};

use qrn_core::IncidentClassification;
use qrn_fleet::checkpoint::fsync_dir;
use qrn_fleet::ingest::{ingest_str, FleetState};

use crate::reader::try_collect_segments;
use crate::record::{Record, RecordKind, MAGIC};
use crate::segment::{
    closed_segment_name, screen_line, ReplayState, SnapshotPayload, OPEN_SEGMENT,
};
use crate::StoreError;

/// File name of the advisory writer lock inside a store directory.
pub const LOCK_FILE: &str = ".lock";

/// Tuning knobs of a [`Store`]. The defaults suit a live server; tests
/// shrink them to force rolls and snapshots quickly.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StoreConfig {
    /// Write a snapshot record after this many folded events
    /// (0 = never). Snapshots bound the tail a historical query must
    /// replay.
    pub snapshot_every_events: u64,
    /// Roll the open segment once it reaches this many bytes.
    pub roll_bytes: u64,
    /// Compact once this many closed segments accumulate (0 = only on
    /// explicit request).
    pub compact_after_segments: u64,
    /// Shard count for parsing batch payloads (never affects results,
    /// only wall-clock time).
    pub parse_shards: usize,
}

impl Default for StoreConfig {
    fn default() -> Self {
        StoreConfig {
            snapshot_every_events: 4096,
            roll_bytes: 8 * 1024 * 1024,
            compact_after_segments: 0,
            parse_shards: 1,
        }
    }
}

impl StoreConfig {
    fn validate(&self) -> Result<(), StoreError> {
        if self.roll_bytes == 0 {
            return Err(StoreError::Config(
                "roll_bytes must be at least 1".to_string(),
            ));
        }
        if self.parse_shards == 0 {
            return Err(StoreError::Config(
                "parse_shards must be at least 1".to_string(),
            ));
        }
        Ok(())
    }
}

/// What one [`Store::append_batch`] did.
#[derive(Debug, Clone)]
pub struct AppendReceipt {
    /// The folded state of this batch alone (after screening). The
    /// serving layer merges it into its live view — via the writer
    /// thread's append hook, in append order — so the live state and a
    /// store replay agree byte for byte.
    pub segment: FleetState,
    /// Duplicate sequenced lines rejected from this batch.
    pub duplicates: u64,
    /// Sequence gaps detected in this batch.
    pub gap_events: u64,
    /// Sequence numbers missing across those gaps.
    pub missing_seqs: u64,
    /// The timestamp stored on the record (caller-supplied, forced
    /// non-decreasing).
    pub ts: u64,
    /// Whether this append also wrote a snapshot record.
    pub snapshot_written: bool,
    /// Whether this append rolled the open segment.
    pub rolled: bool,
    /// Bytes this batch's record occupies on disk.
    pub stored_bytes: u64,
}

/// A point-in-time summary of a [`Store`]'s shape and tallies.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StoreStatus {
    /// Closed segments currently on disk.
    pub closed_segments: u64,
    /// Bytes in the open segment (magic included).
    pub open_bytes: u64,
    /// Total record bytes appended or replayed this process (monotone).
    pub appended_bytes: u64,
    /// Batch records folded at open (the tail after the newest
    /// snapshot) or written since.
    pub batches: u64,
    /// Snapshot records folded at open (0 or 1) or written since.
    pub snapshots: u64,
    /// Duplicate sequenced lines rejected, cumulatively.
    pub duplicates: u64,
    /// Sequence gaps detected, cumulatively.
    pub gap_events: u64,
    /// Sequence numbers missing, cumulatively.
    pub missing_seqs: u64,
    /// Timestamp of the newest record.
    pub last_ts: u64,
    /// Segments created this process (monotone: counts rolls and
    /// compaction outputs, never decreases when compaction deletes).
    pub segments_created: u64,
    /// Compactions performed this process.
    pub compactions: u64,
}

/// Per-batch outcome of sequence screening.
struct Screened {
    kept: String,
    duplicates: u32,
    gap_events: u32,
    missing_seqs: u32,
}

/// Screens one batch against the per-source cursors, advancing them in
/// place (see [`screen_line`]).
///
/// * a sequenced line with `seq` at or below its vehicle's cursor is a
///   **duplicate**: dropped and counted — at-least-once delivery must
///   never double-count evidence;
/// * a sequenced line jumping past `cursor + 1` is a **gap**: kept (its
///   evidence is real) but counted, with the number of skipped `seq`s
///   added to `missing_seqs` — silent loss becomes an audited number;
/// * unsequenced, blank and malformed lines pass through verbatim, so
///   replaying the stored text re-derives the same line, event and
///   skip tallies the live ingest saw.
///
/// Sequence numbers start at 1; a first sighting that starts above 1 is
/// itself a gap (the source lost data before we ever heard from it), and
/// `seq` 0 is always a duplicate by construction.
fn screen(text: &str, cursors: &mut BTreeMap<String, u64>) -> Screened {
    let mut kept = String::with_capacity(text.len());
    let mut duplicates = 0u32;
    let mut gap_events = 0u32;
    let mut missing = 0u64;
    for line in text.lines() {
        match screen_line(line, cursors) {
            None => duplicates = duplicates.saturating_add(1),
            Some(skipped) => {
                if skipped > 0 {
                    gap_events = gap_events.saturating_add(1);
                    missing += skipped;
                }
                kept.push_str(line);
                kept.push('\n');
            }
        }
    }
    Screened {
        kept,
        duplicates,
        gap_events,
        missing_seqs: u32::try_from(missing).unwrap_or(u32::MAX),
    }
}

/// The single-writer segment store of one item's evidence history.
#[derive(Debug)]
pub struct Store {
    dir: PathBuf,
    classification: IncidentClassification,
    config: StoreConfig,
    /// Holds the exclusive advisory lock on [`LOCK_FILE`] for the
    /// store's lifetime; dropping it (or process death) releases it.
    _lock: fs::File,
    open_file: fs::File,
    open_bytes: u64,
    /// Index the *next* roll will assign; closed segments on disk are
    /// `first_closed..next_segment`.
    next_segment: u64,
    first_closed: u64,
    replay: ReplayState,
    appended_bytes: u64,
    segments_created: u64,
    compactions: u64,
    /// Whether the open segment holds records written with deferred
    /// durability ([`Store::append_batch_deferred`]) that have not been
    /// fsynced yet. [`Store::sync`] clears it.
    dirty: bool,
}

impl Store {
    /// Opens (or creates) the store at `dir` and recovers the live
    /// replica: every segment is decoded — closed segments strictly, the
    /// open segment tolerantly with its torn tail (if any) truncated away
    /// — and the records are folded from the newest snapshot, exactly as
    /// [`crate::StoreReader::fold_as_of`] folds them.
    ///
    /// # Errors
    ///
    /// Returns [`StoreError::Config`] for an invalid configuration or a
    /// directory another process holds the writer lock on,
    /// [`StoreError::Io`] for filesystem failures and
    /// [`StoreError::Corrupt`] for damage outside the open segment's
    /// tail.
    pub fn open(
        dir: &Path,
        classification: IncidentClassification,
        config: StoreConfig,
    ) -> Result<Store, StoreError> {
        config.validate()?;
        fs::create_dir_all(dir)
            .map_err(|e| StoreError::Io(format!("cannot create {}: {e}", dir.display())))?;
        let lock = acquire_lock(dir)?;

        let files = try_collect_segments(dir)?;
        let magic = MAGIC.len() as u64;
        let (first_closed, next_segment) = match (files.closed.first(), files.closed.last()) {
            (Some(first), Some(last)) => (first.index, last.index + 1),
            _ => (1, 1),
        };
        let closed_bytes: u64 = files.closed.iter().map(|s| s.bytes - magic).sum();
        let segments_created = files.closed.len() as u64 + 1;
        let open_scan = files.open.as_ref().map(|s| (s.valid_len, s.torn_bytes));
        let replay =
            ReplayState::fold(&files.into_records(), &classification, config.parse_shards)?;

        let open_path = dir.join(OPEN_SEGMENT);
        let open_bytes = match open_scan {
            Some((valid_len, torn_bytes)) if valid_len >= magic => {
                if torn_bytes > 0 {
                    truncate(&open_path, valid_len)?;
                }
                valid_len
            }
            // Missing, or a crash during segment creation: no records
            // can exist, so (re-)initialise the file.
            _ => {
                write_fresh_segment(&open_path)?;
                magic
            }
        };
        let open_file = fs::OpenOptions::new()
            .append(true)
            .open(&open_path)
            .map_err(|e| StoreError::Io(format!("cannot open {}: {e}", open_path.display())))?;

        Ok(Store {
            dir: dir.to_path_buf(),
            classification,
            config,
            _lock: lock,
            open_file,
            open_bytes,
            next_segment,
            first_closed,
            replay,
            appended_bytes: closed_bytes + open_bytes - magic,
            segments_created,
            compactions: 0,
            dirty: false,
        })
    }

    /// The recovered (and since-appended) cumulative fold state.
    pub fn state(&self) -> &FleetState {
        &self.replay.state
    }

    /// Per-source sequence cursors (highest accepted `seq` per vehicle).
    pub fn cursors(&self) -> &BTreeMap<String, u64> {
        &self.replay.cursors
    }

    /// Current shape and tallies.
    pub fn status(&self) -> StoreStatus {
        StoreStatus {
            closed_segments: self.next_segment - self.first_closed,
            open_bytes: self.open_bytes,
            appended_bytes: self.appended_bytes,
            batches: self.replay.batches,
            snapshots: self.replay.snapshots,
            duplicates: self.replay.duplicates,
            gap_events: self.replay.gap_events,
            missing_seqs: self.replay.missing_seqs,
            last_ts: self.replay.last_ts,
            segments_created: self.segments_created,
            compactions: self.compactions,
        }
    }

    /// Screens, ingests and durably appends one telemetry batch stamped
    /// `ts_millis` (forced non-decreasing against the store's newest
    /// record), then applies the configured snapshot, roll and
    /// compaction cadences.
    ///
    /// The append is fsynced before this returns: an acknowledged batch
    /// survives any crash. An empty post-screening batch still writes a
    /// record — the duplicate/gap tallies must be as durable as the
    /// evidence they audit.
    ///
    /// # Errors
    ///
    /// Returns [`StoreError::Io`] when the append cannot be made durable.
    /// Screening advances the cursors in place before the record is
    /// written, and the open segment may then hold a torn record, so
    /// after *any* error callers must stop using the store
    /// ([`crate::writer::StoreWriterHandle`] poisons the item until a
    /// reopen re-derives consistent state from disk). With the
    /// configuration validated at [`Store::open`], i/o is the only step
    /// after screening that can fail.
    pub fn append_batch(
        &mut self,
        text: &str,
        ts_millis: u64,
    ) -> Result<AppendReceipt, StoreError> {
        self.append_batch_inner(text, ts_millis, true)
    }

    /// Like [`Store::append_batch`] but with the fsync *deferred*: the
    /// record (and any cadence snapshot) is written to the open segment
    /// without syncing, and becomes durable only at the next
    /// [`Store::sync`] (or at a roll, which syncs first). The group-commit
    /// writer ([`crate::writer`]) uses this to write a whole queue of
    /// batches and pay one fsync for the group — callers must not
    /// acknowledge a batch before its covering `sync` succeeds.
    ///
    /// In-memory state (cursors, fold, tallies) commits immediately, as
    /// with the durable variant; if the covering sync later fails, the
    /// store must be abandoned until a reopen re-derives state from disk
    /// — exactly the existing i/o-error poisoning contract.
    ///
    /// # Errors
    ///
    /// As [`Store::append_batch`].
    pub fn append_batch_deferred(
        &mut self,
        text: &str,
        ts_millis: u64,
    ) -> Result<AppendReceipt, StoreError> {
        self.append_batch_inner(text, ts_millis, false)
    }

    /// Fsyncs the open segment if deferred appends left it dirty. No-op
    /// on a clean store.
    ///
    /// # Errors
    ///
    /// Returns [`StoreError::Io`] when the fsync fails; the deferred
    /// records' durability is then unknown and the store must be
    /// abandoned until reopen.
    pub fn sync(&mut self) -> Result<(), StoreError> {
        if self.dirty {
            self.open_file
                .sync_all()
                .map_err(|e| StoreError::Io(format!("cannot sync open segment: {e}")))?;
            self.dirty = false;
        }
        Ok(())
    }

    fn append_batch_inner(
        &mut self,
        text: &str,
        ts_millis: u64,
        sync_now: bool,
    ) -> Result<AppendReceipt, StoreError> {
        let ts = ts_millis.max(self.replay.last_ts);
        // Screening advances the cursors in place: a failed append
        // leaves them ahead of the disk, which is why any error abandons
        // the store until a reopen.
        let screened = screen(text, &mut self.replay.cursors);
        let segment = ingest_str(
            &screened.kept,
            &self.classification,
            self.config.parse_shards,
        )?;
        let record = Record {
            kind: RecordKind::Batch,
            ts,
            duplicates: screened.duplicates,
            gap_events: screened.gap_events,
            missing_seqs: screened.missing_seqs,
            payload: screened.kept.into_bytes(),
        };
        let stored_bytes = self.write_record(&record, sync_now)?;
        self.replay.fold_batch(&segment, &record);

        let mut snapshot_written = false;
        if self.config.snapshot_every_events > 0
            && self.replay.events_since_snapshot >= self.config.snapshot_every_events
        {
            self.write_snapshot_inner(ts, sync_now)?;
            snapshot_written = true;
        }
        let mut rolled = false;
        if self.open_bytes >= self.config.roll_bytes {
            self.roll()?;
            rolled = true;
            if self.config.compact_after_segments > 0
                && self.next_segment - self.first_closed >= self.config.compact_after_segments
            {
                self.compact_closed()?;
            }
        }
        Ok(AppendReceipt {
            segment,
            duplicates: u64::from(screened.duplicates),
            gap_events: u64::from(screened.gap_events),
            missing_seqs: u64::from(screened.missing_seqs),
            ts,
            snapshot_written,
            rolled,
            stored_bytes,
        })
    }

    /// Writes a snapshot record of the current cumulative state. Called
    /// on cadence by [`Store::append_batch`]; also useful before a
    /// planned shutdown to make the next open O(tail).
    ///
    /// # Errors
    ///
    /// Returns [`StoreError::Io`] when the record cannot be made
    /// durable.
    pub fn write_snapshot(&mut self, ts: u64) -> Result<(), StoreError> {
        self.write_snapshot_inner(ts, true)
    }

    fn write_snapshot_inner(&mut self, ts: u64, sync_now: bool) -> Result<(), StoreError> {
        let record = self.snapshot_record(ts.max(self.replay.last_ts));
        self.write_record(&record, sync_now)?;
        self.snapshot_taken(record.ts);
        Ok(())
    }

    /// The bookkeeping of a durable snapshot record, written on cadence
    /// or by a compaction alike: the snapshot cadence restarts from it,
    /// as it does for a reopen that folds from it.
    fn snapshot_taken(&mut self, ts: u64) {
        self.replay.snapshots += 1;
        self.replay.events_since_snapshot = 0;
        self.replay.last_ts = ts;
    }

    /// Compacts the store: seals the open segment (if it holds records)
    /// and rewrites all closed segments into one snapshot segment.
    /// Returns `false` when there was nothing to compact.
    ///
    /// # Errors
    ///
    /// Returns [`StoreError::Io`] when sealing or rewriting fails.
    pub fn compact(&mut self) -> Result<bool, StoreError> {
        if self.open_bytes > MAGIC.len() as u64 {
            self.roll()?;
        }
        if self.next_segment - self.first_closed < 1 {
            return Ok(false);
        }
        self.compact_closed()?;
        Ok(true)
    }

    /// A snapshot record of the replica as it stands, stamped `ts`.
    fn snapshot_record(&self, ts: u64) -> Record {
        let payload = SnapshotPayload {
            state: self.replay.state.clone(),
            cursors: self.replay.cursors.clone(),
            duplicates: self.replay.duplicates,
            gap_events: self.replay.gap_events,
            missing_seqs: self.replay.missing_seqs,
        };
        Record {
            kind: RecordKind::Snapshot,
            ts,
            duplicates: 0,
            gap_events: 0,
            missing_seqs: 0,
            payload: serde_json::to_string(&payload)
                .expect("snapshot payload is serialisable")
                .into_bytes(),
        }
    }

    /// Appends `record` to the open segment, fsyncing it immediately
    /// when `sync_now` and marking the store dirty for a later
    /// [`Store::sync`] otherwise.
    fn write_record(&mut self, record: &Record, sync_now: bool) -> Result<u64, StoreError> {
        let bytes = record.encode();
        let io_err = |what: &str, e: std::io::Error| {
            StoreError::Io(format!("cannot {what} open segment: {e}"))
        };
        self.open_file
            .write_all(&bytes)
            .map_err(|e| io_err("append to", e))?;
        if sync_now {
            self.open_file.sync_all().map_err(|e| io_err("sync", e))?;
            self.dirty = false;
        } else {
            self.dirty = true;
        }
        self.open_bytes += bytes.len() as u64;
        self.appended_bytes += bytes.len() as u64;
        Ok(bytes.len() as u64)
    }

    /// Closes the open segment under the next index and starts a fresh
    /// one. The rename + directory-fsync makes the closed segment
    /// durable under its final name before any new record can land.
    fn roll(&mut self) -> Result<(), StoreError> {
        // Deferred appends must be durable before the segment is sealed
        // under its closed name; for immediate-sync appends this is a
        // no-op. The rename itself is made durable by the directory
        // fsync.
        self.sync()?;
        let open_path = self.dir.join(OPEN_SEGMENT);
        let closed_path = self.dir.join(closed_segment_name(self.next_segment));
        fs::rename(&open_path, &closed_path).map_err(|e| {
            StoreError::Io(format!(
                "cannot close segment as {}: {e}",
                closed_path.display()
            ))
        })?;
        fsync_dir(&self.dir).map_err(|e| StoreError::Io(e.to_string()))?;
        write_fresh_segment(&open_path)?;
        self.open_file = fs::OpenOptions::new()
            .append(true)
            .open(&open_path)
            .map_err(|e| StoreError::Io(format!("cannot open {}: {e}", open_path.display())))?;
        self.open_bytes = MAGIC.len() as u64;
        self.next_segment += 1;
        self.segments_created += 1;
        Ok(())
    }

    /// Rewrites all closed segments into a single snapshot segment under
    /// the *newest* closed index, then deletes the older ones
    /// oldest-first. Readers racing this see either the old batch
    /// segments, or the snapshot preceded by some not-yet-deleted batch
    /// segments — both replay to the same state, because the snapshot
    /// *replaces* whatever folded before it.
    ///
    /// Called only while the open segment is empty — right after a roll,
    /// or from [`Store::compact`] once it sealed or found the open
    /// segment empty — so the replica *is* the state the closed segments
    /// replay to, and the snapshot is taken from it directly.
    fn compact_closed(&mut self) -> Result<(), StoreError> {
        assert_eq!(
            self.open_bytes,
            MAGIC.len() as u64,
            "compaction needs an empty open segment"
        );
        let last = self.next_segment - 1;
        if last < self.first_closed {
            return Ok(());
        }
        let record = self.snapshot_record(self.replay.last_ts);
        let mut bytes = MAGIC.to_vec();
        bytes.extend_from_slice(&record.encode());
        let target = self.dir.join(closed_segment_name(last));
        // Atomic replace with the checkpoint discipline (its `.tmp`
        // suffix never parses as a segment name, so a crash mid-write
        // leaves no phantom segment).
        qrn_fleet::checkpoint::save_bytes(&target, &bytes)
            .map_err(|e| StoreError::Io(e.to_string()))?;
        self.appended_bytes += (bytes.len() - MAGIC.len()) as u64;
        self.snapshot_taken(record.ts);
        // Oldest-first, so a crash part-way leaves a contiguous suffix
        // whose replay still REPLACEs into the same state.
        for index in self.first_closed..last {
            let path = self.dir.join(closed_segment_name(index));
            fs::remove_file(&path)
                .map_err(|e| StoreError::Io(format!("cannot remove {}: {e}", path.display())))?;
        }
        fsync_dir(&self.dir).map_err(|e| StoreError::Io(e.to_string()))?;
        self.first_closed = last;
        self.compactions += 1;
        Ok(())
    }
}

/// Takes the exclusive advisory writer lock on `dir`'s [`LOCK_FILE`].
/// The lock is bound to the returned handle: dropping it — or the
/// process dying, however abruptly — releases it, so a crashed writer
/// never wedges reopen.
fn acquire_lock(dir: &Path) -> Result<fs::File, StoreError> {
    let path = dir.join(LOCK_FILE);
    let file = fs::OpenOptions::new()
        .create(true)
        .write(true)
        .truncate(false)
        .open(&path)
        .map_err(|e| StoreError::Io(format!("cannot open {}: {e}", path.display())))?;
    match file.try_lock() {
        Ok(()) => Ok(file),
        Err(fs::TryLockError::WouldBlock) => Err(StoreError::Config(format!(
            "store {} is locked by another writer (a live `qrn serve --store`?); \
             stop it before opening this store for writing",
            dir.display()
        ))),
        Err(fs::TryLockError::Error(e)) => Err(StoreError::Io(format!(
            "cannot lock {}: {e}",
            path.display()
        ))),
    }
}

/// Cuts the open segment at `path` back to `len` bytes — past its last
/// intact record — and syncs it.
fn truncate(path: &Path, len: u64) -> Result<(), StoreError> {
    let io_err = |what: &str, e: std::io::Error| {
        StoreError::Io(format!("cannot {what} {}: {e}", path.display()))
    };
    let file = fs::OpenOptions::new()
        .write(true)
        .open(path)
        .map_err(|e| io_err("open", e))?;
    file.set_len(len).map_err(|e| io_err("truncate", e))?;
    file.sync_all().map_err(|e| io_err("sync", e))
}

/// Creates (or truncates) a segment file holding just the magic, synced
/// and with its directory entry synced.
fn write_fresh_segment(path: &Path) -> Result<(), StoreError> {
    let io_err = |what: &str, e: std::io::Error| {
        StoreError::Io(format!("cannot {what} {}: {e}", path.display()))
    };
    let mut file = fs::File::create(path).map_err(|e| io_err("create", e))?;
    file.write_all(MAGIC).map_err(|e| io_err("write", e))?;
    file.sync_all().map_err(|e| io_err("sync", e))?;
    if let Some(parent) = path.parent() {
        fsync_dir(parent).map_err(|e| StoreError::Io(e.to_string()))?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use qrn_core::examples::paper_classification;
    use qrn_fleet::event::FleetEvent;
    use qrn_units::Hours;

    fn temp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("qrn-store-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    fn line(vehicle: &str, hours: f64, seq: Option<u64>) -> String {
        let event = FleetEvent::Exposure {
            vehicle: vehicle.into(),
            hours: Hours::new(hours).unwrap(),
        };
        match seq {
            Some(seq) => event.to_line_with_seq(seq),
            None => event.to_line(),
        }
    }

    fn open(dir: &Path, config: StoreConfig) -> Store {
        Store::open(dir, paper_classification().unwrap(), config).unwrap()
    }

    #[test]
    fn screening_rejects_duplicates_and_counts_gaps() {
        let mut cursors = BTreeMap::new();
        let text = format!(
            "{}\n{}\n{}\n{}\n{}\n",
            line("A", 1.0, Some(1)),
            line("A", 1.0, Some(1)), // duplicate
            line("A", 1.0, Some(4)), // gap: 2 and 3 missing
            line("B", 1.0, Some(3)), // first sighting above 1: gap of 2
            line("C", 1.0, None),    // unsequenced: passes through
        );
        let screened = screen(&text, &mut cursors);
        assert_eq!(screened.duplicates, 1);
        assert_eq!(screened.gap_events, 2);
        assert_eq!(screened.missing_seqs, 4);
        assert_eq!(cursors.get("A"), Some(&4));
        assert_eq!(cursors.get("B"), Some(&3));
        assert_eq!(cursors.get("C"), None);
        assert_eq!(screened.kept.lines().count(), 4);
        // seq 0 can never be accepted: cursors start at 0.
        let screened = screen(&line("D", 1.0, Some(0)), &mut cursors);
        assert_eq!(screened.duplicates, 1);
        assert_eq!(screened.kept, "");
    }

    #[test]
    fn screening_keeps_malformed_lines_verbatim() {
        let mut cursors = BTreeMap::new();
        let text = "{broken json\n\n{\"v\":99,\"event\":\"exposure\"}\n";
        let screened = screen(text, &mut cursors);
        assert_eq!(screened.kept, text);
        assert_eq!(screened.duplicates, 0);
    }

    #[test]
    fn append_then_reopen_recovers_identical_state() {
        let dir = temp_dir("reopen");
        let mut store = open(&dir, StoreConfig::default());
        store
            .append_batch(
                &format!(
                    "{}\n{}\n",
                    line("A", 2.5, Some(1)),
                    line("B", 1.25, Some(1))
                ),
                100,
            )
            .unwrap();
        store
            .append_batch(&format!("{}\n", line("A", 0.25, Some(2))), 200)
            .unwrap();
        let live = serde_json::to_string(store.state()).unwrap();
        let cursors = store.cursors().clone();
        drop(store);
        let store = open(&dir, StoreConfig::default());
        assert_eq!(serde_json::to_string(store.state()).unwrap(), live);
        assert_eq!(store.cursors(), &cursors);
        assert_eq!(store.status().batches, 2);
        assert_eq!(store.status().last_ts, 200);
    }

    #[test]
    fn duplicates_across_batches_and_restarts_are_rejected() {
        let dir = temp_dir("dups");
        let mut store = open(&dir, StoreConfig::default());
        let receipt = store
            .append_batch(&format!("{}\n", line("A", 1.0, Some(1))), 10)
            .unwrap();
        assert_eq!(receipt.duplicates, 0);
        // Same seq again in a later batch.
        let receipt = store
            .append_batch(&format!("{}\n", line("A", 9.0, Some(1))), 20)
            .unwrap();
        assert_eq!(receipt.duplicates, 1);
        assert_eq!(receipt.segment.events(), 0);
        drop(store);
        // And again after a restart: cursors are recovered from disk.
        let mut store = open(&dir, StoreConfig::default());
        let receipt = store
            .append_batch(&format!("{}\n", line("A", 9.0, Some(1))), 30)
            .unwrap();
        assert_eq!(receipt.duplicates, 1);
        assert!((store.state().exposure().value() - 1.0).abs() < 1e-12);
        assert_eq!(store.status().duplicates, 2);
    }

    #[test]
    fn timestamps_are_forced_monotone() {
        let dir = temp_dir("monotone-ts");
        let mut store = open(&dir, StoreConfig::default());
        let a = store.append_batch(&line("A", 1.0, Some(1)), 500).unwrap();
        assert_eq!(a.ts, 500);
        let b = store.append_batch(&line("A", 1.0, Some(2)), 400).unwrap();
        assert_eq!(
            b.ts, 500,
            "a clock going backwards must not reorder history"
        );
        assert_eq!(store.status().last_ts, 500);
    }

    #[test]
    fn rolls_close_segments_and_survive_reopen() {
        let dir = temp_dir("roll");
        let config = StoreConfig {
            roll_bytes: 1, // every append rolls
            snapshot_every_events: 0,
            ..StoreConfig::default()
        };
        let mut store = open(&dir, config);
        for seq in 1..=3u64 {
            let receipt = store
                .append_batch(&line("A", 0.5, Some(seq)), seq * 10)
                .unwrap();
            assert!(receipt.rolled);
        }
        assert_eq!(store.status().closed_segments, 3);
        assert!(dir.join(closed_segment_name(3)).exists());
        let live = serde_json::to_string(store.state()).unwrap();
        drop(store);
        let store = open(&dir, config);
        assert_eq!(serde_json::to_string(store.state()).unwrap(), live);
        assert_eq!(store.status().closed_segments, 3);
    }

    #[test]
    fn torn_tail_is_truncated_and_replay_keeps_the_intact_prefix() {
        let dir = temp_dir("torn");
        let mut store = open(&dir, StoreConfig::default());
        store.append_batch(&line("A", 1.0, Some(1)), 10).unwrap();
        let intact = serde_json::to_string(store.state()).unwrap();
        store.append_batch(&line("A", 1.0, Some(2)), 20).unwrap();
        drop(store);
        // Tear the last record: keep all but its final byte.
        let open_path = dir.join(OPEN_SEGMENT);
        let bytes = fs::read(&open_path).unwrap();
        fs::write(&open_path, &bytes[..bytes.len() - 1]).unwrap();
        let store = open(&dir, StoreConfig::default());
        assert_eq!(serde_json::to_string(store.state()).unwrap(), intact);
        assert_eq!(store.status().batches, 1);
        // The tear is gone from disk: a further reopen sees a clean file.
        assert_eq!(
            fs::read(&open_path).unwrap().len() as u64,
            store.status().open_bytes
        );
        // And the freed seq is accepted again — it was never durable.
        drop(store); // release the writer lock before reopening
        let mut store = open(&dir, StoreConfig::default());
        let receipt = store.append_batch(&line("A", 1.0, Some(2)), 30).unwrap();
        assert_eq!(receipt.duplicates, 0);
    }

    #[test]
    fn compaction_rewrites_closed_segments_and_preserves_state() {
        let dir = temp_dir("compact");
        let config = StoreConfig {
            roll_bytes: 1,
            snapshot_every_events: 0,
            ..StoreConfig::default()
        };
        let mut store = open(&dir, config);
        for seq in 1..=4u64 {
            store
                .append_batch(&line("A", 0.25, Some(seq)), seq)
                .unwrap();
        }
        let live = serde_json::to_string(store.state()).unwrap();
        assert_eq!(store.status().closed_segments, 4);
        assert!(store.compact().unwrap());
        let status = store.status();
        assert_eq!(status.closed_segments, 1);
        assert_eq!(status.compactions, 1);
        assert!(!dir.join(closed_segment_name(1)).exists());
        assert!(dir.join(closed_segment_name(4)).exists());
        // State unchanged by compaction, and recovered identically.
        assert_eq!(serde_json::to_string(store.state()).unwrap(), live);
        drop(store);
        let store = open(&dir, config);
        assert_eq!(serde_json::to_string(store.state()).unwrap(), live);
        // Appending after compaction continues the numbering.
        let mut store = store;
        store.append_batch(&line("A", 0.25, Some(5)), 50).unwrap();
        assert_eq!(store.status().closed_segments, 2);
    }

    #[test]
    fn auto_compaction_triggers_on_the_configured_cadence() {
        let dir = temp_dir("auto-compact");
        let config = StoreConfig {
            roll_bytes: 1,
            snapshot_every_events: 0,
            compact_after_segments: 3,
            ..StoreConfig::default()
        };
        let mut store = open(&dir, config);
        for seq in 1..=7u64 {
            store
                .append_batch(&line("A", 0.25, Some(seq)), seq)
                .unwrap();
        }
        let status = store.status();
        assert!(status.compactions >= 2, "{status:?}");
        assert!(status.closed_segments < 3);
        assert!((store.state().exposure().value() - 7.0 * 0.25).abs() < 1e-12);
    }

    #[test]
    fn snapshot_cadence_resets_and_is_recovered() {
        let dir = temp_dir("snapshot");
        let config = StoreConfig {
            snapshot_every_events: 2,
            ..StoreConfig::default()
        };
        let mut store = open(&dir, config);
        let receipt = store
            .append_batch(
                &format!("{}\n{}\n", line("A", 1.0, Some(1)), line("A", 1.0, Some(2))),
                10,
            )
            .unwrap();
        assert!(receipt.snapshot_written);
        let receipt = store.append_batch(&line("A", 1.0, Some(3)), 20).unwrap();
        assert!(!receipt.snapshot_written);
        let live = serde_json::to_string(store.state()).unwrap();
        drop(store);
        let store = open(&dir, config);
        assert_eq!(store.status().snapshots, 1);
        assert_eq!(serde_json::to_string(store.state()).unwrap(), live);
    }

    #[test]
    fn recovery_folds_only_the_tail_since_the_newest_snapshot() {
        let dir = temp_dir("tail-recovery");
        let config = StoreConfig {
            snapshot_every_events: 3,
            roll_bytes: 700,
            ..StoreConfig::default()
        };
        let mut store = open(&dir, config);
        for seq in 1..=10u64 {
            store.append_batch(&line("A", 0.5, Some(seq)), seq).unwrap();
        }
        let live = serde_json::to_string(store.state()).unwrap();
        assert!(store.status().closed_segments > 0);
        drop(store);
        // Snapshots after events 3, 6 and 9: the reopen folds the
        // newest one and the one batch after it, across segments.
        let mut store = open(&dir, config);
        assert_eq!(serde_json::to_string(store.state()).unwrap(), live);
        assert_eq!((store.status().snapshots, store.status().batches), (1, 1));
        assert_eq!(store.cursors().get("A"), Some(&10));
        // The cadence resumes where the writer left it.
        let receipt = store.append_batch(&line("A", 0.5, Some(11)), 11).unwrap();
        assert!(!receipt.snapshot_written);
        let receipt = store.append_batch(&line("A", 0.5, Some(12)), 12).unwrap();
        assert!(receipt.snapshot_written);
    }

    #[test]
    fn second_writer_is_locked_out_until_the_first_drops() {
        let dir = temp_dir("lock");
        let store = open(&dir, StoreConfig::default());
        // A concurrent writer (e.g. `qrn store compact` against a live
        // server) is refused while the first holds the lock.
        match Store::open(
            &dir,
            paper_classification().unwrap(),
            StoreConfig::default(),
        ) {
            Err(StoreError::Config(msg)) => assert!(msg.contains("locked"), "{msg}"),
            other => panic!("expected a lock refusal, got {other:?}"),
        }
        // Readers are never locked out.
        crate::StoreReader::open(&dir, paper_classification().unwrap(), 1).unwrap();
        drop(store);
        open(&dir, StoreConfig::default());
    }

    #[test]
    fn deferred_appends_replay_identically_after_sync_and_reopen() {
        let dir = temp_dir("deferred");
        let reference_dir = temp_dir("deferred-ref");
        {
            let mut store = open(&dir, StoreConfig::default());
            let mut reference = open(&reference_dir, StoreConfig::default());
            for i in 0..20u64 {
                let text = format!("{}\n", line("A", 0.25, Some(i + 1)));
                store.append_batch_deferred(&text, 1000 + i).unwrap();
                reference.append_batch(&text, 1000 + i).unwrap();
            }
            store.sync().unwrap();
            // sync is idempotent on a clean store.
            store.sync().unwrap();
            assert_eq!(
                serde_json::to_string(store.state()).unwrap(),
                serde_json::to_string(reference.state()).unwrap()
            );
        }
        // Both directories replay to the same state byte for byte.
        let store = open(&dir, StoreConfig::default());
        let reference = open(&reference_dir, StoreConfig::default());
        assert_eq!(
            serde_json::to_string(store.state()).unwrap(),
            serde_json::to_string(reference.state()).unwrap()
        );
        assert_eq!(store.cursors(), reference.cursors());
        assert_eq!(store.status().batches, reference.status().batches);
    }

    #[test]
    fn a_roll_syncs_deferred_appends_before_sealing() {
        let dir = temp_dir("deferred-roll");
        let mut store = open(
            &dir,
            StoreConfig {
                roll_bytes: 256,
                snapshot_every_events: 0,
                ..StoreConfig::default()
            },
        );
        let mut rolled = false;
        for i in 0..50u64 {
            let text = format!("{}\n", line("A", 0.25, Some(i + 1)));
            let receipt = store.append_batch_deferred(&text, 1000 + i).unwrap();
            rolled |= receipt.rolled;
        }
        assert!(rolled, "the roll cadence should have triggered");
        store.sync().unwrap();
        let expected = serde_json::to_string(store.state()).unwrap();
        drop(store);
        let store = open(&dir, StoreConfig::default());
        assert_eq!(serde_json::to_string(store.state()).unwrap(), expected);
        assert_eq!(store.cursors().get("A"), Some(&50));
    }

    #[test]
    fn invalid_configs_are_rejected() {
        let dir = temp_dir("bad-config");
        for config in [
            StoreConfig {
                roll_bytes: 0,
                ..StoreConfig::default()
            },
            StoreConfig {
                parse_shards: 0,
                ..StoreConfig::default()
            },
        ] {
            assert!(matches!(
                Store::open(&dir, paper_classification().unwrap(), config),
                Err(StoreError::Config(_))
            ));
        }
    }
}
