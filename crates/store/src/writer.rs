//! The writer thread: serialising a multi-threaded server onto the
//! single-writer [`Store`]s, with group commit.
//!
//! A [`Store`] is deliberately `&mut self` for every mutation — one
//! owner, one append order, one fold. A server with a worker pool gets
//! that owner here: [`spawn_with`] moves the stores of all items into one
//! background thread, and [`StoreWriterHandle::append`] sends each
//! batch over a channel and blocks on a per-call reply. Appends across
//! items interleave in one total order, and no segment file is ever
//! touched from two threads.
//!
//! # Group commit
//!
//! The fsync at the end of each append dominates its cost, and under
//! concurrent producers the queue holds several batches by the time one
//! fsync finishes. The writer therefore *group-commits*: it drains every
//! queued append (up to the cap passed to [`spawn_with`]), writes each
//! batch in arrival order with the sync deferred
//! ([`Store::append_batch_deferred`]), then issues **one fsync per item**
//! for the whole group and only then replies to each caller — in arrival
//! order, hooks first. Durability is unchanged: no caller is ever
//! acknowledged before the fsync covering its batch returned. Append
//! order is unchanged: batches hit the log, the hooks and the replies in
//! exactly the order they left the channel. Only the *number* of fsyncs
//! drops, from one per batch to one per group per item.
//!
//! Read paths never go through the writer: metrics sample the
//! lock-free [`StoreStats`] the writer publishes after every group
//! fsync, and historical queries use [`crate::StoreReader`] directly
//! against the directory.
//!
//! Each store may carry an [`AppendHook`] the writer invokes after each
//! batch's covering fsync — on the writer thread, before the caller's
//! reply is sent, hence in exact append order. The server merges each
//! receipt's segment into its live state there, which keeps the live
//! state byte-identical to a store replay even under concurrent ingest.
//!
//! An append that fails **poisons** its item, whatever the error:
//! screening advanced the cursors in place and the failed write may have
//! left a torn record in the open segment, so every later append for
//! that item is refused with a clear error instead of being screened
//! (and possibly acknowledged) against state the disk never saw. Batches of the same group staged earlier on
//! the poisoned item were written but never covered by an fsync and
//! never will be, so they fail too — none of them was acknowledged. A
//! process restart reopens the store and re-derives consistent cursors
//! from what was actually persisted.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::thread::JoinHandle;

use crate::store::{AppendReceipt, Store};
use crate::StoreError;

/// The default cap on how many queued appends one group commit may
/// cover. Each group costs one fsync per item it touches, so the cap
/// bounds the worst-case latency a queued batch can accrue behind a
/// large group; 64 batches is far past the point where the fsync stops
/// dominating. The server's `--store-group-commit` defaults to it.
pub const DEFAULT_GROUP_COMMIT: usize = 64;

/// Lock-free, monotone counters one store's writer publishes for
/// observability (the `/metrics` families). Loaded with relaxed
/// ordering: metrics tolerate a stale read, appends must not pay a
/// fence.
#[derive(Debug, Default)]
pub struct StoreStats {
    /// Segments created this process (rolls and compaction outputs).
    pub segments_created: AtomicU64,
    /// Record bytes appended or replayed this process.
    pub appended_bytes: AtomicU64,
    /// Duplicate sequenced lines rejected, cumulatively.
    pub duplicates: AtomicU64,
    /// Sequence gaps detected, cumulatively.
    pub gap_events: AtomicU64,
    /// Compactions performed this process.
    pub compactions: AtomicU64,
    /// Group commits performed this process: one per item per writer
    /// drain cycle that synced at least one batch. Maintained by the
    /// writer thread directly (the store does not know about groups).
    pub group_commits: AtomicU64,
    /// Batches covered by those group commits, cumulatively. Divided by
    /// [`StoreStats::group_commits`] this gives the mean batches
    /// amortised per fsync.
    pub group_commit_batches: AtomicU64,
    /// Batches covered by the most recent group commit.
    pub last_group_commit_size: AtomicU64,
}

impl StoreStats {
    fn publish(&self, store: &Store) {
        let status = store.status();
        self.segments_created
            .store(status.segments_created, Ordering::Relaxed);
        self.appended_bytes
            .store(status.appended_bytes, Ordering::Relaxed);
        self.duplicates.store(status.duplicates, Ordering::Relaxed);
        self.gap_events.store(status.gap_events, Ordering::Relaxed);
        self.compactions
            .store(status.compactions, Ordering::Relaxed);
    }
}

/// A callback the writer thread invokes after each batch's covering
/// group fsync — still on the writer thread, before the caller's reply
/// is sent, so invocations across all callers happen in exact append
/// order. Servers use it to merge the receipt's segment into their live
/// state: ordering the live merge identically to the on-disk log is
/// what keeps the live state and a store replay byte-identical under
/// concurrent ingest.
pub type AppendHook = Box<dyn Fn(&AppendReceipt) + Send>;

enum Command {
    Append {
        item: String,
        text: String,
        ts_millis: u64,
        reply: mpsc::Sender<Result<AppendReceipt, StoreError>>,
    },
    Shutdown,
}

/// One item's store as the writer thread owns it.
struct OwnedStore {
    /// `None` once a failed append poisoned the store: its cursors may
    /// be ahead of the disk and the failed write may have torn the open
    /// segment, so appends are refused until a process restart reopens
    /// and recovers from disk.
    store: Option<Store>,
    hook: Option<AppendHook>,
    stats: Arc<StoreStats>,
}

/// A batch written (sync deferred) but not yet covered by its group's
/// fsync. The caller is still blocked on `reply`.
struct PendingAppend {
    item: String,
    receipt: AppendReceipt,
    reply: mpsc::Sender<Result<AppendReceipt, StoreError>>,
}

/// Handle to the writer thread owning every item's [`Store`]. Cloneable
/// across workers via `Arc`; dropping the last handle shuts the thread
/// down.
#[derive(Debug)]
pub struct StoreWriterHandle {
    tx: Mutex<mpsc::Sender<Command>>,
    thread: Mutex<Option<JoinHandle<()>>>,
    stats: BTreeMap<String, Arc<StoreStats>>,
}

/// Moves `stores` (item name → opened store, plus an optional per-item
/// [`AppendHook`]) into a background writer thread and returns the
/// handle the server appends through. Each drain cycle group-commits up
/// to `group_commit_max` queued batches under one fsync per item (see
/// the module docs); `1` disables grouping and restores one fsync per
/// batch, and [`DEFAULT_GROUP_COMMIT`] is the server's default.
///
/// # Errors
///
/// Returns [`StoreError::Config`] for an empty store list or a zero
/// `group_commit_max`.
pub fn spawn_with(
    stores: Vec<(String, Store, Option<AppendHook>)>,
    group_commit_max: usize,
) -> Result<StoreWriterHandle, StoreError> {
    if stores.is_empty() {
        return Err(StoreError::Config(
            "the store writer needs at least one store".to_string(),
        ));
    }
    if group_commit_max == 0 {
        return Err(StoreError::Config(
            "the store group commit cap must be at least 1".to_string(),
        ));
    }
    let mut stats = BTreeMap::new();
    let mut owned: BTreeMap<String, OwnedStore> = BTreeMap::new();
    for (item, store, hook) in stores {
        let shared = Arc::new(StoreStats::default());
        shared.publish(&store);
        stats.insert(item.clone(), Arc::clone(&shared));
        owned.insert(
            item,
            OwnedStore {
                store: Some(store),
                hook,
                stats: shared,
            },
        );
    }
    let (tx, rx) = mpsc::channel::<Command>();
    let thread = std::thread::Builder::new()
        .name("qrn-store-writer".to_string())
        .spawn(move || {
            let mut staged: Vec<PendingAppend> = Vec::new();
            'writer: loop {
                // Block for the first command of the group, then drain
                // whatever else is already queued, up to the cap.
                let first = match rx.recv() {
                    Ok(command) => command,
                    Err(_) => break,
                };
                let mut shutdown = false;
                let mut next = Some(first);
                loop {
                    let command = match next.take() {
                        Some(command) => command,
                        None if staged.len() < group_commit_max => match rx.try_recv() {
                            Ok(command) => command,
                            Err(_) => break,
                        },
                        None => break,
                    };
                    match command {
                        Command::Append {
                            item,
                            text,
                            ts_millis,
                            reply,
                        } => stage_append(&mut owned, &mut staged, item, &text, ts_millis, reply),
                        // A shutdown mid-drain still commits the group:
                        // those callers are blocked on their replies.
                        Command::Shutdown => {
                            shutdown = true;
                            break;
                        }
                    }
                }
                commit_group(&mut owned, &mut staged);
                if shutdown {
                    break 'writer;
                }
            }
            // Stores drop here: every acknowledged append was covered
            // by a group fsync, so shutdown needs no final flush.
        })
        .map_err(|e| StoreError::Io(format!("cannot spawn store writer thread: {e}")))?;
    Ok(StoreWriterHandle {
        tx: Mutex::new(tx),
        thread: Mutex::new(Some(thread)),
        stats,
    })
}

fn poisoned_error(item: &str) -> StoreError {
    StoreError::Io(format!(
        "the store for item {item:?} is poisoned by an earlier write failure; \
         restart the server to reopen it and recover from disk"
    ))
}

/// Pass 1 of a group commit: write one batch with its sync deferred and
/// stage the pending reply, or fail the caller, poison the item and fail
/// every batch of this group staged earlier on it — their records were
/// written but will never be covered by an fsync.
fn stage_append(
    owned: &mut BTreeMap<String, OwnedStore>,
    staged: &mut Vec<PendingAppend>,
    item: String,
    text: &str,
    ts_millis: u64,
    reply: mpsc::Sender<Result<AppendReceipt, StoreError>>,
) {
    let entry = match owned.get_mut(&item) {
        Some(entry) => entry,
        None => {
            // A dropped receiver means the requesting worker gave up
            // (shutdown); nothing to do — here and below.
            let _ = reply.send(Err(StoreError::Config(format!(
                "no store for item {item:?}"
            ))));
            return;
        }
    };
    let store = match entry.store.as_mut() {
        Some(store) => store,
        None => {
            let _ = reply.send(Err(poisoned_error(&item)));
            return;
        }
    };
    match store.append_batch_deferred(text, ts_millis) {
        Ok(receipt) => staged.push(PendingAppend {
            item,
            receipt,
            reply,
        }),
        Err(error) => {
            // Screening advanced the cursors and the failed write may
            // have torn the open segment: poison the store so no later
            // append is screened against state disk never saw.
            entry.store = None;
            staged.retain(|pending| {
                if pending.item != item {
                    return true;
                }
                let _ = pending.reply.send(Err(StoreError::Io(format!(
                    "a later append in the same commit group failed before the \
                     fsync covering this batch; the store for item {item:?} is \
                     poisoned until a restart reopens it"
                ))));
                false
            });
            let _ = reply.send(Err(error));
        }
    }
}

/// Pass 2 of a group commit: one fsync per distinct staged item (in
/// first-appearance order), then hooks and replies in exact arrival
/// order. No caller is acknowledged before the fsync covering its batch
/// succeeded; a failed fsync poisons the item and fails its whole group
/// (hooks not run — the live state must not get ahead of the disk).
fn commit_group(owned: &mut BTreeMap<String, OwnedStore>, staged: &mut Vec<PendingAppend>) {
    if staged.is_empty() {
        return;
    }
    let mut outcomes: BTreeMap<String, Result<(), String>> = BTreeMap::new();
    for index in 0..staged.len() {
        let item = staged[index].item.clone();
        if outcomes.contains_key(&item) {
            continue;
        }
        let entry = owned
            .get_mut(&item)
            .expect("staged appends only exist for known items");
        let outcome = match entry.store.as_mut() {
            Some(store) => match store.sync() {
                Ok(()) => {
                    entry.stats.publish(store);
                    Ok(())
                }
                Err(error) => {
                    entry.store = None;
                    Err(error.to_string())
                }
            },
            // Unreachable: a pass-1 poisoning already drained this
            // item's staged batches. Refuse defensively anyway.
            None => Err(format!("the store for item {item:?} is poisoned")),
        };
        if outcome.is_ok() {
            let size = staged.iter().filter(|p| p.item == item).count() as u64;
            entry.stats.group_commits.fetch_add(1, Ordering::Relaxed);
            entry
                .stats
                .group_commit_batches
                .fetch_add(size, Ordering::Relaxed);
            entry
                .stats
                .last_group_commit_size
                .store(size, Ordering::Relaxed);
        }
        outcomes.insert(item, outcome);
    }
    for pending in staged.drain(..) {
        match &outcomes[&pending.item] {
            Ok(()) => {
                let entry = owned
                    .get(&pending.item)
                    .expect("staged appends only exist for known items");
                if let Some(hook) = &entry.hook {
                    hook(&pending.receipt);
                }
                let _ = pending.reply.send(Ok(pending.receipt));
            }
            Err(message) => {
                let _ = pending.reply.send(Err(StoreError::Io(format!(
                    "the group fsync covering this batch failed ({message}); the store \
                     for item {:?} is poisoned until a restart reopens it",
                    pending.item
                ))));
            }
        }
    }
}

impl StoreWriterHandle {
    /// Appends one batch to `item`'s store, blocking until it is durable
    /// (or failed). Safe to call from any number of threads; appends are
    /// serialised in channel order, and the reply only arrives after the
    /// group fsync covering this batch returned.
    ///
    /// # Errors
    ///
    /// Returns [`StoreError::Config`] for an unknown item,
    /// [`StoreError::Io`] when the writer thread is gone, the item's
    /// store was poisoned by an earlier write failure, or this batch's
    /// covering fsync failed, and whatever [`Store::append_batch`]
    /// returned otherwise.
    pub fn append(
        &self,
        item: &str,
        text: String,
        ts_millis: u64,
    ) -> Result<AppendReceipt, StoreError> {
        let (reply_tx, reply_rx) = mpsc::channel();
        let command = Command::Append {
            item: item.to_string(),
            text,
            ts_millis,
            reply: reply_tx,
        };
        self.tx
            .lock()
            .expect("store writer sender lock never poisoned")
            .send(command)
            .map_err(|_| StoreError::Io("store writer thread is gone".to_string()))?;
        reply_rx
            .recv()
            .map_err(|_| StoreError::Io("store writer thread dropped the reply".to_string()))?
    }

    /// The live stats of `item`'s store, or `None` for an unknown item.
    pub fn stats(&self, item: &str) -> Option<&Arc<StoreStats>> {
        self.stats.get(item)
    }

    /// Stops the writer thread and waits for it to finish. Idempotent;
    /// also invoked by `Drop`. Every acknowledged append is already
    /// covered by its group fsync, so close loses nothing.
    pub fn close(&self) {
        let _ = self
            .tx
            .lock()
            .expect("store writer sender lock never poisoned")
            .send(Command::Shutdown);
        if let Some(thread) = self
            .thread
            .lock()
            .expect("store writer thread lock never poisoned")
            .take()
        {
            let _ = thread.join();
        }
    }
}

impl Drop for StoreWriterHandle {
    fn drop(&mut self) {
        self.close();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::store::StoreConfig;
    use qrn_core::examples::paper_classification;
    use qrn_fleet::event::FleetEvent;
    use qrn_fleet::FleetState;
    use qrn_units::Hours;

    fn temp_dir(tag: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("qrn-writer-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn line(vehicle: &str, seq: u64) -> String {
        FleetEvent::Exposure {
            vehicle: vehicle.into(),
            hours: Hours::new(0.25).unwrap(),
        }
        .to_line_with_seq(seq)
    }

    fn spawn_one(dir: &std::path::Path) -> StoreWriterHandle {
        let store =
            Store::open(dir, paper_classification().unwrap(), StoreConfig::default()).unwrap();
        spawn_with(
            vec![("default".to_string(), store, None)],
            DEFAULT_GROUP_COMMIT,
        )
        .unwrap()
    }

    #[test]
    fn concurrent_appends_serialise_and_persist() {
        let dir = temp_dir("concurrent");
        let handle = Arc::new(spawn_one(&dir));
        let workers: Vec<_> = (0..4u64)
            .map(|w| {
                let handle = Arc::clone(&handle);
                std::thread::spawn(move || {
                    for i in 0..8u64 {
                        let vehicle = format!("W{w}");
                        handle
                            .append("default", format!("{}\n", line(&vehicle, i + 1)), 1000 + i)
                            .unwrap();
                    }
                })
            })
            .collect();
        for w in workers {
            w.join().unwrap();
        }
        let stats = handle.stats("default").unwrap();
        assert_eq!(stats.duplicates.load(Ordering::Relaxed), 0);
        // Every batch was covered by some group commit.
        assert_eq!(stats.group_commit_batches.load(Ordering::Relaxed), 32);
        assert!(stats.group_commits.load(Ordering::Relaxed) >= 1);
        handle.close();
        // All 32 batches are on disk.
        let store = Store::open(
            &dir,
            paper_classification().unwrap(),
            StoreConfig::default(),
        )
        .unwrap();
        assert_eq!(store.status().batches, 32);
        assert!((store.state().exposure().value() - 32.0 * 0.25).abs() < 1e-12);
    }

    #[test]
    fn unknown_items_are_a_config_error() {
        let dir = temp_dir("unknown");
        let handle = spawn_one(&dir);
        assert!(matches!(
            handle.append("nope", String::new(), 0),
            Err(StoreError::Config(_))
        ));
        assert!(handle.stats("nope").is_none());
        assert!(handle.stats("default").is_some());
    }

    #[test]
    fn close_is_idempotent_and_appends_after_close_fail_cleanly() {
        let dir = temp_dir("close");
        let handle = spawn_one(&dir);
        handle
            .append("default", format!("{}\n", line("A", 1)), 1)
            .unwrap();
        handle.close();
        handle.close();
        assert!(matches!(
            handle.append("default", String::new(), 2),
            Err(StoreError::Io(_))
        ));
    }

    #[test]
    fn spawning_without_stores_is_rejected() {
        assert!(matches!(
            spawn_with(Vec::new(), DEFAULT_GROUP_COMMIT),
            Err(StoreError::Config(_))
        ));
    }

    #[test]
    fn a_zero_group_commit_cap_is_rejected() {
        let dir = temp_dir("zero-cap");
        let store = Store::open(
            &dir,
            paper_classification().unwrap(),
            StoreConfig::default(),
        )
        .unwrap();
        assert!(matches!(
            spawn_with(vec![("default".to_string(), store, None)], 0),
            Err(StoreError::Config(_))
        ));
    }

    #[test]
    fn io_errors_poison_the_store_until_reopen() {
        let dir = temp_dir("poison");
        let store = Store::open(
            &dir,
            paper_classification().unwrap(),
            StoreConfig {
                roll_bytes: 1, // every append rolls
                snapshot_every_events: 0,
                ..StoreConfig::default()
            },
        )
        .unwrap();
        let handle = spawn_with(
            vec![("default".to_string(), store, None)],
            DEFAULT_GROUP_COMMIT,
        )
        .unwrap();
        handle
            .append("default", format!("{}\n", line("A", 1)), 1)
            .unwrap();
        // Sabotage the next roll: with the open segment gone, the rename
        // that closes it fails with an i/o error.
        std::fs::remove_file(dir.join(crate::segment::OPEN_SEGMENT)).unwrap();
        assert!(matches!(
            handle.append("default", format!("{}\n", line("A", 2)), 2),
            Err(StoreError::Io(_))
        ));
        // Poisoned: even a clean later batch is refused — it must not be
        // screened (and acknowledged) against cursors disk never saw.
        match handle.append("default", format!("{}\n", line("A", 3)), 3) {
            Err(StoreError::Io(msg)) => assert!(msg.contains("poisoned"), "{msg}"),
            other => panic!("expected a poisoned-store error, got {other:?}"),
        }
        handle.close();
        // A reopen recovers from what was actually persisted, and the
        // never-acknowledged seq 2 is accepted again.
        let mut store = Store::open(
            &dir,
            paper_classification().unwrap(),
            StoreConfig::default(),
        )
        .unwrap();
        let receipt = store
            .append_batch(&format!("{}\n", line("A", 2)), 10)
            .unwrap();
        assert_eq!(receipt.duplicates, 0);
    }

    #[test]
    fn append_hooks_run_in_append_order_before_the_reply() {
        let dir = temp_dir("hook");
        let store = Store::open(
            &dir,
            paper_classification().unwrap(),
            StoreConfig::default(),
        )
        .unwrap();
        let seen: Arc<Mutex<Vec<u64>>> = Arc::new(Mutex::new(Vec::new()));
        let hook_seen = Arc::clone(&seen);
        let hook: AppendHook = Box::new(move |receipt| {
            hook_seen.lock().unwrap().push(receipt.ts);
        });
        let handle = spawn_with(
            vec![("default".to_string(), store, Some(hook))],
            DEFAULT_GROUP_COMMIT,
        )
        .unwrap();
        for i in 1..=3u64 {
            handle
                .append("default", format!("{}\n", line("A", i)), i * 100)
                .unwrap();
            // The hook ran before the reply was sent.
            assert_eq!(seen.lock().unwrap().len() as u64, i);
        }
        assert_eq!(*seen.lock().unwrap(), vec![100, 200, 300]);
        handle.close();
    }

    #[test]
    fn group_commit_preserves_append_order_durability_and_live_identity() {
        let dir = temp_dir("group");
        let store = Store::open(
            &dir,
            paper_classification().unwrap(),
            StoreConfig::default(),
        )
        .unwrap();
        // The hook records each durable batch's folded segment in hook
        // order, standing in for the server's live merge.
        let segments: Arc<Mutex<Vec<FleetState>>> = Arc::new(Mutex::new(Vec::new()));
        let hook_segments = Arc::clone(&segments);
        let hook: AppendHook = Box::new(move |receipt| {
            hook_segments.lock().unwrap().push(receipt.segment.clone());
        });
        let handle =
            Arc::new(spawn_with(vec![("default".to_string(), store, Some(hook))], 8).unwrap());
        let workers: Vec<_> = (0..4u64)
            .map(|w| {
                let handle = Arc::clone(&handle);
                let segments = Arc::clone(&segments);
                std::thread::spawn(move || {
                    for i in 0..8u64 {
                        let vehicle = format!("W{w}");
                        let receipt = handle
                            .append("default", format!("{}\n", line(&vehicle, i + 1)), 1000 + i)
                            .unwrap();
                        // At reply time this batch's hook has already
                        // fired: its segment is in the recorded list.
                        let json = serde_json::to_string(&receipt.segment).unwrap();
                        let seen = segments.lock().unwrap();
                        assert!(
                            seen.iter()
                                .any(|s| serde_json::to_string(s).unwrap() == json),
                            "reply arrived before the batch's hook ran"
                        );
                    }
                })
            })
            .collect();
        for w in workers {
            w.join().unwrap();
        }
        let stats = handle.stats("default").unwrap();
        assert_eq!(stats.group_commit_batches.load(Ordering::Relaxed), 32);
        let groups = stats.group_commits.load(Ordering::Relaxed);
        assert!((1..=32).contains(&groups), "groups: {groups}");
        assert!(stats.last_group_commit_size.load(Ordering::Relaxed) >= 1);
        handle.close();
        // Folding the hook's segments in hook order reproduces the
        // reopened (replayed) store state byte for byte: the live view
        // a server maintains through the hook agrees with disk.
        let mut live = FleetState::default();
        for segment in segments.lock().unwrap().iter() {
            live.merge(segment);
        }
        let store = Store::open(
            &dir,
            paper_classification().unwrap(),
            StoreConfig::default(),
        )
        .unwrap();
        assert_eq!(store.status().batches, 32);
        assert_eq!(
            serde_json::to_string(&live).unwrap(),
            serde_json::to_string(store.state()).unwrap()
        );
    }
}
