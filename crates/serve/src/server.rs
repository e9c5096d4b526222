//! The server proper: bounded accept queue, worker pool, routing, the
//! sharded live state, look accounting and durability.
//!
//! # Threading model
//!
//! One **accept thread** owns the listener. Every accepted connection is
//! offered to a *bounded* queue; when the queue is full the accept thread
//! itself answers `429 Too Many Requests` and closes — overload becomes
//! an explicit protocol answer instead of unbounded memory growth or a
//! mysterious kernel backlog stall. A fixed pool of **worker threads**
//! drains the queue: read one request (with socket timeouts and a body
//! cap), route it, write the response, close. One request per
//! connection keeps the worker loop allocation-light and trivially
//! correct.
//!
//! # State and determinism
//!
//! Each served *item* (a norm + classification + allocation triple) owns
//! a [`ShardedState`]: N ledger shards behind their own locks and one
//! striped vehicle roster. Ingested segments are parsed *outside* any
//! lock (the expensive part) and handed to one shard, so concurrent
//! uploads only contend when every shard is busy. Burn-down queries and
//! metrics scrapes read a ledger-only snapshot, whose cost is flat in
//! fleet size; the drain's store-less state file folds the shards and
//! the roster. Both merge the shards in ascending index order with the
//! exact dyadic merge `ingest_str` uses for its block partials, so every
//! state file and burn-down artefact stays byte-identical to an offline
//! `qrn fleet ingest` of the same segments (see [`crate::state`] for the
//! argument and the property test).
//!
//! Every report the server computes — each item's burn-down, `?as_of=`
//! and `/metrics` — takes its Garwood quantiles through one
//! [`QuantileMemo`] owned by the server for its lifetime. A quantile
//! depends only on its inputs, never on the item or the ledger, and the
//! memo returns the bits a fresh bisection would, so sharing it changes
//! no byte; a read whose counts did not change since an earlier read
//! computes no quantile at all.
//!
//! # Durability
//!
//! No upload writes a file. With an evidence store configured, the
//! store is the one crash-durable mode: ingest funnels through the
//! store's single writer thread, which appends and fsyncs each segment
//! and whose append hook merges it into the live state *in append
//! order* before the upload is acknowledged — so the live state agrees
//! byte for byte with a store replay even under concurrent uploads of
//! arbitrary (non-dyadic) float payloads. The state is recovered from
//! the store at start, and a configured checkpoint path then holds only
//! the look sidecar. Without a store, the checkpoint is a
//! graceful-restart file: the folded state is written at drain and
//! resumed at start, so a crash loses the uploads since the start. The
//! look sidecar is saved whenever a look is spent, and at drain.
//!
//! # Multi-item serving
//!
//! One server can host several items: `/v1/<item>/ingest` and
//! `/v1/<item>/burndown` address them by name, the bare `/v1/ingest` and
//! `/v1/burndown` routes alias the item named [`DEFAULT_ITEM`], metrics
//! carry an `item` label, and each item checkpoints to its own path
//! (the default item on the bare configured path — name-compatible with
//! a single-item deployment — and every other item on
//! [`checkpoint::item_checkpoint_path`]).
//!
//! # Look accounting
//!
//! Every burn-down evaluation is one more *look* at that item's
//! sequential test. The server counts looks per goal per item, stamps
//! them into served reports
//! ([`GoalBurnDown::looks`](qrn_fleet::burndown::GoalBurnDown)), and
//! persists them in a sidecar next to the item's checkpoint
//! (`<checkpoint>.looks.json`) before the report is answered, so counts
//! and alert transitions survive restarts and crashes. A look is spent
//! only for a report that was computed. The sidecar is
//! deliberately *not* part of the [`FleetState`] checkpoint or the
//! store: the evidence must stay byte-identical to offline ingest, which
//! never consults the test, and a store record per look would put an
//! fsync on every live read.

use std::collections::VecDeque;
use std::io::Read;
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use serde::{Deserialize, Serialize};

use qrn_core::allocation::Allocation;
use qrn_core::norm::QuantitativeRiskNorm;
use qrn_core::IncidentClassification;
use qrn_fleet::burndown::{AlertLevel, BurnDownConfig, ContextFilter, FleetReport, GoalBurnDown};
use qrn_fleet::checkpoint;
use qrn_fleet::event::SkipCounts;
use qrn_fleet::ingest::{ingest_str, FleetState};
use qrn_fleet::looks::LookBook;
use qrn_stats::evidence::EvidenceLedger;
use qrn_stats::prometheus::{render_ledgers, MetricKind, TextFamilies};
use qrn_stats::special::QuantileMemo;
use qrn_store::{
    AppendHook, AppendReceipt, Store, StoreConfig, StoreReader, StoreStats, StoreWriterHandle,
};
use MetricKind::{Counter, Gauge};

use crate::http::{read_request, Request, Response};
use crate::metrics::ServerMetrics;
use crate::state::{LedgerSnapshot, ShardedState};
use crate::ServeError;

/// Name of the item the bare `/v1/ingest` and `/v1/burndown` routes
/// address, and the item [`ServeConfig::new`] creates.
pub const DEFAULT_ITEM: &str = "default";

/// One served norm/allocation item: the verification target a stream of
/// telemetry is checked against.
#[derive(Debug, Clone)]
pub struct ItemConfig {
    /// Item name, as it appears in routes (`/v1/<name>/…`), metric
    /// labels and checkpoint file names. Restricted to
    /// `[A-Za-z0-9_-]+` so it is always safe in all three places.
    pub name: String,
    /// The risk norm served reports are checked against.
    pub norm: QuantitativeRiskNorm,
    /// Incident classification applied to ingested telemetry.
    pub classification: IncidentClassification,
    /// Budget allocation the burn-down rows are computed from.
    pub allocation: Allocation,
    /// Design-time campaign evidence ledgers merged into burn-down and
    /// metrics queries (never into the checkpointed fleet state).
    pub extra_evidence: Vec<EvidenceLedger>,
}

/// Route endpoints that can never be item names: an item named `ingest`
/// would make `/v1/ingest` ambiguous.
const RESERVED_ITEM_NAMES: [&str; 4] = ["ingest", "burndown", "history", "shutdown"];

impl ItemConfig {
    fn validate(&self) -> Result<(), ServeError> {
        if self.name.is_empty() {
            return Err(ServeError::Config("item name must not be empty".into()));
        }
        if !self
            .name
            .bytes()
            .all(|b| b.is_ascii_alphanumeric() || b == b'_' || b == b'-')
        {
            return Err(ServeError::Config(format!(
                "item name {:?} is invalid: only ASCII letters, digits, '_' and '-' are allowed",
                self.name
            )));
        }
        if RESERVED_ITEM_NAMES.contains(&self.name.as_str()) {
            return Err(ServeError::Config(format!(
                "item name {:?} is reserved (it is a route endpoint)",
                self.name
            )));
        }
        Ok(())
    }
}

/// Configuration of one [`Server`].
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// The served items, in declaration order (at least one). The item
    /// named [`DEFAULT_ITEM`], when present, is also reachable through
    /// the bare un-prefixed routes.
    pub items: Vec<ItemConfig>,
    /// Address to bind (default `127.0.0.1`). Binding anything
    /// non-loopback logs a loud warning: the server speaks plaintext
    /// HTTP with no authentication.
    pub bind: String,
    /// TCP port to bind (`0` = ephemeral, for tests).
    pub port: u16,
    /// Worker threads serving requests.
    pub workers: usize,
    /// Bounded connection-queue depth; overflow answers `429`.
    pub queue_depth: usize,
    /// Maximum accepted request-body size in bytes; larger uploads
    /// answer `413` before the body is read.
    pub max_body_bytes: usize,
    /// Per-connection socket read/write timeout.
    pub io_timeout: Duration,
    /// Parse shard count for each uploaded segment (see [`ingest_str`]).
    pub shards: usize,
    /// Live-state shards per item: independent evidence ledgers the
    /// ingest handoff distributes over, merged deterministically for
    /// queries and the drain's state file.
    pub state_shards: usize,
    /// Base checkpoint path. Each item's look sidecar
    /// (`<path>.looks.json`) is rewritten whenever a look is spent and
    /// at shutdown. Without a store, the item's state is written to the
    /// path at shutdown only (a graceful-restart file); with a store,
    /// which is then the one crash-durable path, it holds no state.
    /// Both files are resumed at start.
    pub checkpoint: Option<PathBuf>,
    /// Burn-down analysis parameters for burn-down and metrics queries.
    pub burndown: BurnDownConfig,
    /// Evidence-store base directory. When set, every ingested segment
    /// is first appended — durably, with per-source sequence screening —
    /// to `<store>/<item>`'s append-only log, the live state is recovered
    /// from the store on restart, and the `?as_of=` and `/history`
    /// routes come alive.
    pub store: Option<PathBuf>,
    /// Store snapshot cadence: write a snapshot record after this many
    /// ingested events (0 = only at compaction).
    pub store_snapshot_every: u64,
    /// Store segment roll threshold in bytes (≥ 1).
    pub store_roll_bytes: u64,
    /// Compact automatically once this many closed segments accumulate
    /// (0 = never compact automatically).
    pub store_compact_after: u64,
    /// Store group-commit cap (≥ 1): how many queued ingest batches the
    /// writer thread may cover with one fsync per drain cycle. `1`
    /// restores one fsync per batch; durability is identical either way
    /// (no request is acknowledged before the fsync covering its batch).
    pub store_group_commit: usize,
}

impl ServeConfig {
    /// A configuration serving one item named [`DEFAULT_ITEM`], with
    /// production-shaped defaults: loopback bind, port 7878, 4 workers,
    /// queue depth 64, 4 MiB body cap, 10 s socket timeouts, one state
    /// shard per available core.
    pub fn new(
        norm: QuantitativeRiskNorm,
        classification: IncidentClassification,
        allocation: Allocation,
    ) -> Self {
        let parallelism = std::thread::available_parallelism()
            .map(usize::from)
            .unwrap_or(1);
        ServeConfig {
            items: vec![ItemConfig {
                name: DEFAULT_ITEM.to_string(),
                norm,
                classification,
                allocation,
                extra_evidence: Vec::new(),
            }],
            bind: "127.0.0.1".to_string(),
            port: 7878,
            workers: 4,
            queue_depth: 64,
            max_body_bytes: 4 * 1024 * 1024,
            io_timeout: Duration::from_secs(10),
            shards: parallelism,
            state_shards: parallelism,
            checkpoint: None,
            burndown: BurnDownConfig::default(),
            store: None,
            store_snapshot_every: StoreConfig::default().snapshot_every_events,
            store_roll_bytes: StoreConfig::default().roll_bytes,
            store_compact_after: 0,
            store_group_commit: qrn_store::writer::DEFAULT_GROUP_COMMIT,
        }
    }

    /// Adds a design-time evidence ledger to the *first* item (the
    /// default item of a [`ServeConfig::new`] configuration).
    pub fn push_evidence(&mut self, ledger: EvidenceLedger) {
        self.items
            .first_mut()
            .expect("ServeConfig::new always creates one item")
            .extra_evidence
            .push(ledger);
    }

    /// Adds another served item.
    pub fn add_item(
        &mut self,
        name: impl Into<String>,
        norm: QuantitativeRiskNorm,
        classification: IncidentClassification,
        allocation: Allocation,
    ) {
        self.items.push(ItemConfig {
            name: name.into(),
            norm,
            classification,
            allocation,
            extra_evidence: Vec::new(),
        });
    }

    fn validate(&self) -> Result<(), ServeError> {
        if self.workers == 0 {
            return Err(ServeError::Config("workers must be at least 1".into()));
        }
        if self.queue_depth == 0 {
            return Err(ServeError::Config("queue depth must be at least 1".into()));
        }
        if self.max_body_bytes == 0 {
            return Err(ServeError::Config("max body size must be positive".into()));
        }
        if self.shards == 0 {
            return Err(ServeError::Config("shards must be at least 1".into()));
        }
        if self.state_shards == 0 {
            return Err(ServeError::Config("state shards must be at least 1".into()));
        }
        if self.store.is_some() && self.store_roll_bytes == 0 {
            return Err(ServeError::Config(
                "store roll threshold must be at least 1 byte".into(),
            ));
        }
        if self.store.is_some() && self.store_group_commit == 0 {
            return Err(ServeError::Config(
                "store group commit cap must be at least 1 batch".into(),
            ));
        }
        if self.bind.is_empty() {
            return Err(ServeError::Config("bind address must not be empty".into()));
        }
        if self.items.is_empty() {
            return Err(ServeError::Config(
                "at least one served item is required".into(),
            ));
        }
        for item in &self.items {
            item.validate()?;
        }
        for (i, item) in self.items.iter().enumerate() {
            if self.items[..i].iter().any(|other| other.name == item.name) {
                return Err(ServeError::Config(format!(
                    "duplicate item name {:?}",
                    item.name
                )));
            }
        }
        Ok(())
    }
}

/// A queued unit of worker work.
enum Job {
    /// Serve one accepted connection.
    Conn(TcpStream),
    /// Drain sentinel: the worker exits.
    Stop,
}

/// The bounded connection queue: a `Mutex<VecDeque>` + `Condvar`,
/// `try_push` refuses when full (the caller sheds load with `429`),
/// `push_unbounded` bypasses the cap for drain sentinels.
struct ConnQueue {
    jobs: Mutex<VecDeque<Job>>,
    available: Condvar,
    capacity: usize,
}

impl ConnQueue {
    fn new(capacity: usize) -> Self {
        ConnQueue {
            jobs: Mutex::new(VecDeque::new()),
            available: Condvar::new(),
            capacity,
        }
    }

    /// Enqueues unless the queue is at capacity; returns the job back to
    /// the caller when full.
    fn try_push(&self, job: Job) -> Result<(), Job> {
        let mut jobs = self.jobs.lock().expect("queue mutex poisoned");
        if jobs.len() >= self.capacity {
            return Err(job);
        }
        jobs.push_back(job);
        drop(jobs);
        self.available.notify_one();
        Ok(())
    }

    /// Enqueues regardless of capacity (drain sentinels only).
    fn push_unbounded(&self, job: Job) {
        self.jobs
            .lock()
            .expect("queue mutex poisoned")
            .push_back(job);
        self.available.notify_one();
    }

    /// Jobs waiting for a worker.
    fn len(&self) -> usize {
        self.jobs.lock().expect("queue mutex poisoned").len()
    }

    /// Blocks until a job is available.
    fn pop(&self) -> Job {
        let mut jobs = self.jobs.lock().expect("queue mutex poisoned");
        loop {
            if let Some(job) = jobs.pop_front() {
                return job;
            }
            jobs = self.available.wait(jobs).expect("queue mutex poisoned");
        }
    }
}

/// One served item at runtime: its configuration, sharded live state,
/// look counters and file paths.
struct Item {
    config: ItemConfig,
    /// The live sharded state. Shared (`Arc`) with the store writer
    /// thread's append hook when a store is configured: the hook merges
    /// each durably-appended segment in append order, so the live state
    /// stays byte-identical to a store replay under concurrent ingest.
    state: Arc<ShardedState>,
    /// Per-goal look ledger: completed looks plus `Ok → Watch → Burned`
    /// transition timestamps. Its mutex serialises the sidecar's writes.
    looks: Mutex<LookBook>,
    /// This item's checkpoint path (the default item keeps the bare
    /// configured base path).
    checkpoint: Option<PathBuf>,
    /// This item's evidence-store directory (`<store>/<item name>`),
    /// when a store is configured. Readers for `?as_of=` and `/history`
    /// open it directly; only the writer thread ever writes to it.
    store_dir: Option<PathBuf>,
}

/// Validated query of a burn-down route: the optional historical cut,
/// the optional single-row selector (`?context=`, or its pre-0.8 alias
/// `?zone=`), and the dimension filter parsed from `?where=`.
struct BurndownQuery {
    as_of: Option<String>,
    selector: Option<String>,
    filter: ContextFilter,
}

/// Where an item-labelled `/metrics` family takes its samples from.
#[derive(Clone, Copy)]
enum Source {
    /// One counter of the item's evidence view.
    Count(fn(&LedgerSnapshot) -> u64),
    /// The tolerant parser's skip tallies, one sample per reason.
    Skipped,
    /// One of the store writer's published counters. The family is
    /// rendered only with `--store`.
    Store(fn(&StoreStats) -> &AtomicU64),
    /// One column of every goal row. Reading it is *not* a look: the
    /// SPRT is not consulted for a decision, the last burn-down's
    /// counters are re-exposed.
    Goal(fn(&GoalBurnDown, &LookBook) -> Value),
    /// A goal column only sequential reports carry. The family is
    /// rendered only in sequential mode.
    SequentialGoal(fn(&GoalBurnDown) -> Option<f64>),
    /// The `consumed` column of every consequence-class row.
    ClassConsumed,
    /// The evidence-ledger gauges under this prefix, through
    /// [`render_ledgers`], over the same merged view burn-down sees.
    Ledgers,
}

/// One sample value: a float, or a count rendered through the integer
/// path.
#[derive(Clone, Copy)]
enum Value {
    Float(f64),
    Count(u64),
}

/// One item-labelled `/metrics` family: name, kind, sample source and
/// help text.
struct Family(&'static str, MetricKind, Source, &'static str);

/// Every item-labelled `/metrics` family, in exposition order. A scrape
/// writes each family's `HELP`/`TYPE` header once and then every item's
/// samples, so each family is contiguous and carries an `item` label by
/// construction; a new family is a new row.
#[rustfmt::skip]
const ITEM_FAMILIES: [Family; 18] = [
    Family("qrn_fleet_lines_total", Counter, Source::Count(|view| view.lines),
        "Telemetry lines offered to the parser"),
    Family("qrn_fleet_events_total", Counter, Source::Count(|view| view.events),
        "Telemetry events accepted"),
    Family("qrn_fleet_vehicles", Gauge, Source::Count(|view| view.vehicles),
        "Distinct vehicles that reported"),
    Family("qrn_fleet_skipped_lines_total", Counter, Source::Skipped,
        "Telemetry lines skipped by the tolerant parser, by reason"),
    Family("qrn_store_segments_total", Counter, Source::Store(|s| &s.segments_created),
        "Evidence-store segment files created (rolls and compactions)"),
    Family("qrn_store_appended_bytes_total", Counter, Source::Store(|s| &s.appended_bytes),
        "Record bytes appended to the evidence store"),
    Family("qrn_store_duplicates_rejected_total", Counter, Source::Store(|s| &s.duplicates),
        "Duplicate sequenced telemetry lines rejected by store screening"),
    Family("qrn_store_gaps_detected_total", Counter, Source::Store(|s| &s.gap_events),
        "Sequence gaps detected in ingested telemetry"),
    Family("qrn_store_compactions_total", Counter, Source::Store(|s| &s.compactions),
        "Evidence-store compactions performed"),
    Family("qrn_store_group_commits_total", Counter, Source::Store(|s| &s.group_commits),
        "Evidence-store group commits (one fsync each, per item)"),
    Family("qrn_store_group_commit_size", Gauge, Source::Store(|s| &s.last_group_commit_size),
        "Batches covered by the most recent group commit"),
    Family("qrn_evidence", Gauge, Source::Ledgers,
        "Prefix of the evidence-ledger families render_ledgers writes"),
    Family("qrn_goal_budget_consumed", Gauge, Source::Goal(|goal, _| Value::Float(goal.consumed)),
        "Point-estimate share of each safety goal's frequency budget"),
    Family("qrn_goal_alert_level", Gauge, Source::Goal(alert_level),
        "Alert level per goal: 0 ok, 1 watch, 2 burned"),
    Family("qrn_goal_sprt_looks_total", Counter,
        Source::Goal(|goal, looks| Value::Count(looks.looks(goal.incident.as_str()))),
        "Completed SPRT looks per goal (burn-down evaluations served)"),
    Family("qrn_goal_e_value", Gauge, Source::SequentialGoal(|goal| goal.e_value),
        "Running budget e-process value per goal (anytime-valid; reaching 1/alpha rejects the budget)"),
    Family("qrn_goal_seq_upper", Gauge,
        Source::SequentialGoal(|goal| goal.seq_upper.map(|rate| rate.as_per_hour())),
        "Upper endpoint of the anytime-valid confidence sequence on each goal's rate, per hour"),
    Family("qrn_class_budget_consumed", Gauge, Source::ClassConsumed,
        "Point-estimate share of each consequence-class budget"),
];

/// The `qrn_goal_alert_level` sample of one goal row.
fn alert_level(goal: &GoalBurnDown, _: &LookBook) -> Value {
    Value::Count(match goal.alert {
        AlertLevel::Ok => 0,
        AlertLevel::Watch => 1,
        AlertLevel::Burned => 2,
    })
}

/// Everything threads share.
struct Inner {
    config: ServeConfig,
    items: Vec<Item>,
    addr: SocketAddr,
    metrics: ServerMetrics,
    /// The Garwood quantiles of every report this server computes, for
    /// all items and routes (see the module docs).
    quantiles: QuantileMemo,
    shutdown: AtomicBool,
    started: Instant,
    queue: ConnQueue,
    /// The single-writer evidence-store thread, when `--store` is
    /// configured. Workers append through it; metrics sample its
    /// lock-free per-item stats.
    store: Option<StoreWriterHandle>,
}

/// JSON body answered by `POST /v1/ingest` and `POST /v1/<item>/ingest`.
#[derive(Debug, Serialize, Deserialize)]
struct IngestReply {
    /// Item the segment was ingested into.
    item: String,
    /// Lines in the posted segment.
    segment_lines: u64,
    /// Events accepted from the posted segment.
    segment_events: u64,
    /// Per-reason skip tallies of the posted segment.
    segment_skipped: SkipCounts,
    /// Duplicate sequenced lines the store's screening rejected from
    /// this segment (always 0 without a configured store).
    duplicates_rejected: u64,
    /// Sequence gaps the store detected in this segment (0 without a
    /// store).
    gaps_detected: u64,
    /// Sequence numbers missing across those gaps (0 without a store).
    missing_seqs: u64,
    /// Whether the segment was durably appended to the evidence store
    /// before this reply.
    stored: bool,
    /// Lines folded into this item's live state so far (all segments).
    total_lines: u64,
    /// Events folded into this item's live state so far.
    total_events: u64,
    /// Total fleet exposure hours in this item's live state.
    total_exposure_hours: f64,
    /// Distinct vehicles seen by this item so far.
    vehicles: u64,
}

impl Inner {
    fn item(&self, name: &str) -> Option<&Item> {
        self.items.iter().find(|item| item.config.name == name)
    }

    /// Saves `looks`, the item's locked look book, to its sidecar when a
    /// checkpoint path is configured. The caller holds the look mutex,
    /// which serialises the sidecar's writes.
    fn save_looks(&self, item: &Item, looks: &LookBook) -> Result<(), ServeError> {
        if let Some(path) = &item.checkpoint {
            looks.save(&LookBook::sidecar_path(path))?;
            self.metrics.count_checkpoint();
        }
        Ok(())
    }

    fn handle_ingest(&self, item: &Item, req: &Request) -> Response {
        let text = match std::str::from_utf8(&req.body) {
            Ok(text) => text,
            Err(_) => return Response::text(400, "Bad Request", "body is not valid UTF-8"),
        };
        // With a store, the batch goes through the writer thread:
        // screened for duplicates/gaps, appended and fsynced, and merged
        // into the live state by the append hook — still on the writer
        // thread, so live merges happen in exact append order and an
        // acknowledged segment is always recoverable. Without one, parse
        // outside any state lock as before: sharded parsing is the
        // expensive part and must not serialise concurrent uploads.
        let (segment, duplicates_rejected, gaps_detected, missing_seqs, stored) = match &self.store
        {
            Some(writer) => {
                match writer.append(&item.config.name, text.to_string(), now_millis()) {
                    Ok(receipt) => (
                        receipt.segment,
                        receipt.duplicates,
                        receipt.gap_events,
                        receipt.missing_seqs,
                        true,
                    ),
                    Err(e) => {
                        return Response::text(
                            500,
                            "Internal Server Error",
                            &format!("store append failed: {e}"),
                        )
                    }
                }
            }
            None => match ingest_str(text, &item.config.classification, self.config.shards) {
                Ok(segment) => {
                    item.state.ingest(&segment);
                    (segment, 0, 0, 0, false)
                }
                Err(e) => {
                    return Response::text(400, "Bad Request", &format!("ingest failed: {e}"))
                }
            },
        };
        self.metrics.count_segment();
        let reply = IngestReply {
            item: item.config.name.clone(),
            segment_lines: segment.lines(),
            segment_events: segment.events(),
            segment_skipped: segment.skipped(),
            duplicates_rejected,
            gaps_detected,
            missing_seqs,
            stored,
            total_lines: item.state.lines(),
            total_events: item.state.events(),
            total_exposure_hours: item.state.exposure_hours(),
            vehicles: item.state.vehicle_count(),
        };
        Response::json(serde_json::to_string_pretty(&reply).expect("reply is serialisable"))
    }

    /// One item's evidence view: `snapshot` with any configured
    /// design-time evidence merged into its owned ledger — the same join
    /// `qrn fleet report --evidence` performs offline.
    fn evidence_view(item: &Item, mut snapshot: LedgerSnapshot) -> LedgerSnapshot {
        for ledger in &item.config.extra_evidence {
            snapshot.evidence.merge(ledger);
        }
        snapshot
    }

    /// Computes one item's burn-down report from its evidence view,
    /// through the server's quantile memo. The filter restricts which
    /// named contexts get refinement rows, and a selector narrows them to
    /// the one context it names, so a `?context=` read computes one
    /// refinement row, not all of them. A filter or a selector turns the
    /// refinement rows on; pass [`ContextFilter::all`] and no selector
    /// for the configured report.
    fn compute_report(
        &self,
        item: &Item,
        view: &LedgerSnapshot,
        config: &BurnDownConfig,
        filter: &ContextFilter,
        selector: Option<&str>,
    ) -> Result<FleetReport, qrn_fleet::FleetError> {
        let mut config = *config;
        if selector.is_some() || !filter.is_empty() {
            config.by_zone = true;
        }
        let filter = match selector {
            Some(name) => filter.clone().only(name),
            None => filter.clone(),
        };
        view.report(
            &item.config.norm,
            &item.config.allocation,
            &config,
            &filter,
            &self.quantiles,
        )
    }

    /// Parses the query string shared by both burn-down routes. Unknown
    /// keys are a hard 400 naming the offender, so a typo like
    /// `?whre=weather=fog` fails loudly instead of silently returning
    /// the unfiltered report. `context` selects a single refinement row;
    /// `zone` remains as its documented pre-0.8 alias. `where` restricts
    /// the refinement rows to contexts matching every comma-separated
    /// `dim=value` clause.
    fn parse_burndown_query(req: &Request) -> Result<BurndownQuery, Response> {
        let mut seen: Vec<String> = Vec::new();
        for (key, _) in req.query_pairs() {
            if !matches!(key.as_str(), "as_of" | "context" | "zone" | "where") {
                return Err(Response::text(
                    400,
                    "Bad Request",
                    &format!(
                        "unknown query parameter {key:?}; supported: as_of, context, zone, where"
                    ),
                ));
            }
            if seen.contains(&key) {
                return Err(Response::text(
                    400,
                    "Bad Request",
                    &format!("query parameter {key:?} given more than once; pass it once"),
                ));
            }
            seen.push(key);
        }
        let context = req.query_param("context");
        let zone = req.query_param("zone");
        let selector = match (context, zone) {
            (Some(context), Some(zone)) if context != zone => {
                return Err(Response::text(
                    400,
                    "Bad Request",
                    "context and zone select different rows; pass only one (zone is an alias)",
                ))
            }
            (Some(context), _) => Some(context),
            (None, zone) => zone,
        };
        let filter = match req.query_param("where") {
            None => ContextFilter::all(),
            Some(clauses) => match ContextFilter::parse(clauses.split(',')) {
                Ok(filter) => filter,
                Err(e) => {
                    return Err(Response::text(
                        400,
                        "Bad Request",
                        &format!("bad where filter: {e}"),
                    ))
                }
            },
        };
        Ok(BurndownQuery {
            as_of: req.query_param("as_of"),
            selector,
            filter,
        })
    }

    /// Renders the report body: the full report, or — when a selector
    /// was given — just the named refinement row, 404 if absent.
    fn render_burndown(report: &FleetReport, selector: Option<&str>) -> Response {
        match selector {
            None => Response::json(report.to_canonical_json()),
            Some(name) => match report.zones.iter().find(|z| z.zone == name) {
                Some(row) => Response::json(
                    serde_json::to_string_pretty(row).expect("zone rows are serialisable"),
                ),
                None => Response::text(
                    404,
                    "Not Found",
                    &format!("no evidence context named {name:?}"),
                ),
            },
        }
    }

    /// Serves `burndown?as_of=T`: the report against the state replayed
    /// from the evidence store up to T. A historical replay is an audit,
    /// not a sequential-test decision, so — unlike the live route — it
    /// spends no look and stamps no look counters, which also keeps the
    /// body byte-identical to an offline `qrn fleet report` over the
    /// same accepted prefix.
    fn handle_burndown_as_of(&self, item: &Item, query: &BurndownQuery, as_of: &str) -> Response {
        let dir = match &item.store_dir {
            Some(dir) => dir,
            None => {
                return Response::text(
                    400,
                    "Bad Request",
                    "as_of queries need a server started with an evidence store (--store)",
                )
            }
        };
        let cut: u64 = match as_of.parse() {
            Ok(cut) => cut,
            Err(_) => {
                return Response::text(
                    400,
                    "Bad Request",
                    "as_of must be a unix timestamp in milliseconds",
                )
            }
        };
        let summary =
            match StoreReader::open(dir, item.config.classification.clone(), self.config.shards)
                .and_then(|reader| reader.fold_as_of(Some(cut)))
            {
                Ok(summary) => summary,
                Err(e) => {
                    return Response::text(
                        500,
                        "Internal Server Error",
                        &format!("store replay failed: {e}"),
                    )
                }
            };
        let view = Self::evidence_view(item, LedgerSnapshot::from(summary.state));
        let report = match self.compute_report(
            item,
            &view,
            &self.config.burndown,
            &query.filter,
            query.selector.as_deref(),
        ) {
            Ok(report) => report,
            Err(e) => {
                return Response::text(
                    500,
                    "Internal Server Error",
                    &format!("burn-down failed: {e}"),
                )
            }
        };
        Self::render_burndown(&report, query.selector.as_deref())
    }

    /// Serves `GET /v1/<item>/history`: the store's segment shape and
    /// snapshot timeline. Like `as_of`, reading history is not a look.
    fn handle_history(&self, item: &Item) -> Response {
        let dir = match &item.store_dir {
            Some(dir) => dir,
            None => {
                return Response::text(
                    400,
                    "Bad Request",
                    "history needs a server started with an evidence store (--store)",
                )
            }
        };
        match StoreReader::open(dir, item.config.classification.clone(), self.config.shards)
            .and_then(|reader| reader.history())
        {
            Ok(history) => Response::json(
                serde_json::to_string_pretty(&history).expect("store history is serialisable"),
            ),
            Err(e) => Response::text(
                500,
                "Internal Server Error",
                &format!("store history failed: {e}"),
            ),
        }
    }

    fn handle_burndown(&self, item: &Item, req: &Request) -> Response {
        let query = match Self::parse_burndown_query(req) {
            Ok(query) => query,
            Err(response) => return response,
        };
        if let Some(as_of) = query.as_of.clone() {
            return self.handle_burndown_as_of(item, &query, &as_of);
        }
        let view = Self::evidence_view(item, item.state.snapshot());
        let mut report = match self.compute_report(
            item,
            &view,
            &self.config.burndown,
            &query.filter,
            query.selector.as_deref(),
        ) {
            Ok(report) => report,
            Err(e) => {
                return Response::text(
                    500,
                    "Internal Server Error",
                    &format!("burn-down failed: {e}"),
                )
            }
        };
        // The report is computed outside the look lock; only a computed
        // report spends a look, and the look is saved before it is
        // answered.
        let mut looks = item.looks.lock().expect("look mutex poisoned");
        looks.look(&mut report, now_millis());
        if let Err(e) = self.save_looks(item, &looks) {
            return Response::text(
                500,
                "Internal Server Error",
                &format!("look sidecar write failed: {e}"),
            );
        }
        drop(looks);
        Self::render_burndown(&report, query.selector.as_deref())
    }

    fn handle_metrics(&self) -> Response {
        // One ledger snapshot per item, then every family rendered once
        // with the item label varying inside it — the exposition format
        // requires a family's samples to be contiguous.
        struct ItemView<'a> {
            name: &'a str,
            evidence: LedgerSnapshot,
            looks: LookBook,
            report: FleetReport,
        }
        // A scrape renders only the goal and class rows, so it computes
        // no context rows, whatever the server's configured report holds.
        let scrape_config = BurnDownConfig {
            by_zone: false,
            ..self.config.burndown
        };
        let mut views = Vec::with_capacity(self.items.len());
        for item in &self.items {
            let evidence = Self::evidence_view(item, item.state.snapshot());
            let looks = item.looks.lock().expect("look mutex poisoned").clone();
            let all = ContextFilter::all();
            let report = match self.compute_report(item, &evidence, &scrape_config, &all, None) {
                Ok(report) => report,
                Err(e) => {
                    return Response::text(
                        500,
                        "Internal Server Error",
                        &format!("metrics failed: {e}"),
                    )
                }
            };
            views.push(ItemView {
                name: &item.config.name,
                evidence,
                looks,
                report,
            });
        }

        let mut out = TextFamilies::new();
        out.family(
            "qrn_server_uptime_seconds",
            "Seconds since the server started",
            MetricKind::Gauge,
        );
        out.sample(
            "qrn_server_uptime_seconds",
            &[],
            self.started.elapsed().as_secs_f64(),
        );

        self.metrics.render(&mut out);
        out.family(
            "qrn_http_queue_depth",
            "Accepted connections waiting for a worker",
            MetricKind::Gauge,
        );
        out.sample_u64("qrn_http_queue_depth", &[], self.queue.len() as u64);
        out.family(
            "qrn_quantile_memo_lookups_total",
            "Garwood quantile lookups in the server-lifetime memo, by result (a miss runs a bisection)",
            MetricKind::Counter,
        );
        for (result, count) in [
            ("hit", self.quantiles.hits()),
            ("miss", self.quantiles.misses()),
        ] {
            out.sample_u64(
                "qrn_quantile_memo_lookups_total",
                &[("result", result)],
                count,
            );
        }

        for &Family(name, kind, source, help) in &ITEM_FAMILIES {
            match source {
                Source::Ledgers => {
                    let ledgers: Vec<(&str, &EvidenceLedger)> = views
                        .iter()
                        .map(|view| (view.name, &view.evidence.evidence))
                        .collect();
                    render_ledgers(&mut out, name, &ledgers);
                    continue;
                }
                Source::Store(_) if self.store.is_none() => continue,
                Source::SequentialGoal(_) if !self.config.burndown.sequential => continue,
                _ => {
                    out.family(name, help, kind);
                }
            }
            for view in &views {
                let item = ("item", view.name);
                match source {
                    Source::Count(value) => {
                        out.sample_u64(name, &[item], value(&view.evidence));
                    }
                    Source::Skipped => {
                        let skipped = view.evidence.skipped;
                        for (reason, count) in [
                            ("bad_json", skipped.bad_json),
                            ("not_an_object", skipped.not_an_object),
                            ("unsupported_version", skipped.unsupported_version),
                            ("unknown_kind", skipped.unknown_kind),
                            ("missing_field", skipped.missing_field),
                            ("invalid_value", skipped.invalid_value),
                        ] {
                            out.sample_u64(name, &[item, ("reason", reason)], count);
                        }
                    }
                    Source::Store(value) => {
                        if let Some(stats) = self.store.as_ref().and_then(|w| w.stats(item.1)) {
                            out.sample_u64(name, &[item], value(stats).load(Ordering::Relaxed));
                        }
                    }
                    Source::Goal(value) => {
                        for goal in &view.report.goals {
                            let labels = [item, ("goal", goal.incident.as_str())];
                            match value(goal, &view.looks) {
                                Value::Float(v) => out.sample(name, &labels, v),
                                Value::Count(v) => out.sample_u64(name, &labels, v),
                            };
                        }
                    }
                    Source::SequentialGoal(value) => {
                        for goal in &view.report.goals {
                            if let Some(v) = value(goal) {
                                out.sample(name, &[item, ("goal", goal.incident.as_str())], v);
                            }
                        }
                    }
                    Source::ClassConsumed => {
                        for class in &view.report.classes {
                            out.sample(
                                name,
                                &[item, ("class", class.class.as_str())],
                                class.consumed,
                            );
                        }
                    }
                    Source::Ledgers => unreachable!("rendered for every item at once"),
                }
            }
        }
        Response::prometheus(out.finish())
    }

    fn handle_shutdown(&self) -> Response {
        self.request_shutdown();
        Response::text(200, "OK", "shutting down: draining in-flight requests")
    }

    /// Raises the shutdown flag and nudges the accept loop awake with a
    /// throwaway connection (the std listener has no other wakeup).
    fn request_shutdown(&self) {
        self.shutdown.store(true, Ordering::SeqCst);
        let _ = TcpStream::connect(self.addr);
    }

    /// Splits a path into its item routing: `/v1/ingest` →
    /// `(DEFAULT_ITEM, "ingest")`, `/v1/<item>/burndown` →
    /// `(<item>, "burndown")`, anything else → `None`.
    fn parse_item_route(path: &str) -> Option<(&str, &str)> {
        let rest = path.strip_prefix("/v1/")?;
        match rest.split_once('/') {
            None => match rest {
                "ingest" | "burndown" | "history" => Some((DEFAULT_ITEM, rest)),
                _ => None,
            },
            Some((item, endpoint)) => match endpoint {
                "ingest" | "burndown" | "history" if !item.is_empty() => Some((item, endpoint)),
                _ => None,
            },
        }
    }

    fn route(&self, req: &Request) -> Response {
        match (req.method.as_str(), req.path.as_str()) {
            ("GET", "/healthz") => Response::text(200, "OK", "ok"),
            ("GET", "/metrics") => self.handle_metrics(),
            ("POST", "/v1/shutdown") => self.handle_shutdown(),
            (_, "/healthz" | "/metrics" | "/v1/shutdown") => {
                Response::text(405, "Method Not Allowed", "wrong method for this endpoint")
            }
            (method, path) => match Self::parse_item_route(path) {
                Some((name, endpoint)) => match self.item(name) {
                    None => Response::text(404, "Not Found", &format!("no item named {name:?}")),
                    Some(item) => match (method, endpoint) {
                        ("POST", "ingest") => self.handle_ingest(item, req),
                        ("GET", "burndown") => self.handle_burndown(item, req),
                        ("GET", "history") => self.handle_history(item),
                        _ => Response::text(
                            405,
                            "Method Not Allowed",
                            "wrong method for this endpoint",
                        ),
                    },
                },
                None => Response::text(404, "Not Found", &format!("no route for {path}")),
            },
        }
    }

    fn worker_loop(self: &Arc<Self>) {
        loop {
            match self.queue.pop() {
                Job::Stop => break,
                Job::Conn(mut stream) => {
                    self.metrics.worker_busy();
                    self.serve_connection(&mut stream);
                    // Idle before the close: a client that has read its
                    // whole reply finds this worker idle again.
                    self.metrics.worker_idle();
                }
            }
        }
    }

    /// Reads, routes and answers the one request of a connection.
    fn serve_connection(&self, stream: &mut TcpStream) {
        let start = Instant::now();
        let response = match read_request(stream, self.config.max_body_bytes) {
            Ok(req) => {
                self.metrics.count_request(&req.path);
                self.route(&req)
            }
            Err(e) => match e.response() {
                Some(response) => response,
                None => {
                    self.metrics.count_dropped();
                    return;
                }
            },
        };
        self.metrics.count_response(response.status);
        let _ = response.write_to(stream);
        self.metrics.observe_latency(start.elapsed());
    }

    /// Accepts connections and offers each to the bounded queue. When
    /// the queue is full the connection is shed here: the accept thread
    /// writes `429 Too Many Requests`, half-closes its side, and reads
    /// and discards the client's pending request bytes (at most
    /// [`SHED_DRAIN_BYTES`], for at most [`SHED_DRAIN_TIMEOUT`]) before
    /// closing. Closing a socket with unread input makes the kernel
    /// send RST, which can destroy the 429 before the client reads it;
    /// the drain makes the close orderly.
    fn accept_loop(self: &Arc<Self>, listener: &TcpListener) {
        for conn in listener.incoming() {
            if self.shutdown.load(Ordering::SeqCst) {
                break;
            }
            let stream = match conn {
                Ok(stream) => stream,
                Err(_) => continue,
            };
            let _ = stream.set_read_timeout(Some(self.config.io_timeout));
            let _ = stream.set_write_timeout(Some(self.config.io_timeout));
            if let Err(Job::Conn(mut stream)) = self.queue.try_push(Job::Conn(stream)) {
                // Back-pressure: the queue is full, shed this connection
                // with an explicit protocol answer from the accept
                // thread itself.
                self.metrics.count_queue_full();
                let response = Response::text(
                    429,
                    "Too Many Requests",
                    "request queue is full, retry later",
                );
                self.metrics.count_response(429);
                let _ = response.write_to(&mut stream);
                drain_and_close(stream);
            }
        }
    }
}

/// Most request bytes the accept thread reads and discards from a shed
/// connection.
const SHED_DRAIN_BYTES: usize = 64 * 1024;

/// Longest the accept thread spends draining one shed connection.
const SHED_DRAIN_TIMEOUT: Duration = Duration::from_millis(50);

/// Closes a shed connection without a reset: half-closes the write side
/// (the client sees the reply, then EOF) and discards pending input
/// within the [`SHED_DRAIN_BYTES`] / [`SHED_DRAIN_TIMEOUT`] budget.
fn drain_and_close(mut stream: TcpStream) {
    let _ = stream.shutdown(Shutdown::Write);
    let deadline = Instant::now() + SHED_DRAIN_TIMEOUT;
    let mut scratch = [0u8; 4096];
    let mut drained = 0;
    while drained < SHED_DRAIN_BYTES {
        let left = deadline.saturating_duration_since(Instant::now());
        if left.is_zero() || stream.set_read_timeout(Some(left)).is_err() {
            break;
        }
        match stream.read(&mut scratch) {
            Ok(0) | Err(_) => break,
            Ok(n) => drained += n,
        }
    }
}

/// Milliseconds since the Unix epoch, for stamping store records. The
/// store writer forces record times non-decreasing, so a clock stepping
/// backwards cannot break the `as_of` prefix property.
fn now_millis() -> u64 {
    std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| u64::try_from(d.as_millis()).unwrap_or(u64::MAX))
        .unwrap_or(0)
}

/// Whether an address string names the loopback interface.
fn is_loopback(bind: &str) -> bool {
    if bind == "localhost" {
        return true;
    }
    bind.parse::<std::net::IpAddr>()
        .map(|ip| ip.is_loopback())
        .unwrap_or(false)
}

/// The evidence server. [`Server::start`] binds, resumes any checkpoints
/// and spawns the thread pool; the returned [`ServerHandle`] owns the
/// threads.
pub struct Server;

impl Server {
    /// Starts a server on `{config.bind}:{config.port}`.
    ///
    /// Each item's fleet state is recovered from its store when a store
    /// is configured, and otherwise from its checkpoint file when a
    /// checkpoint path is configured; the look sidecar is resumed from
    /// the checkpoint path in either mode. A corrupt checkpoint or
    /// sidecar is a startup error, never a silent fresh start. Binding a
    /// non-loopback address logs a loud warning to stderr.
    ///
    /// # Errors
    ///
    /// Returns [`ServeError`] for invalid configuration, an unbindable
    /// address, or an unreadable/corrupt checkpoint.
    pub fn start(config: ServeConfig) -> Result<ServerHandle, ServeError> {
        config.validate()?;
        let store_config = StoreConfig {
            snapshot_every_events: config.store_snapshot_every,
            roll_bytes: config.store_roll_bytes,
            compact_after_segments: config.store_compact_after,
            parse_shards: config.shards,
        };
        let mut items = Vec::with_capacity(config.items.len());
        let mut stores: Vec<(String, Store, Option<AppendHook>)> = Vec::new();
        for item_config in &config.items {
            let path = config.checkpoint.as_ref().map(|base| {
                if item_config.name == DEFAULT_ITEM {
                    base.clone()
                } else {
                    checkpoint::item_checkpoint_path(base, &item_config.name)
                }
            });
            let store_dir = config
                .store
                .as_ref()
                .map(|base| base.join(&item_config.name));
            // One durability path per mode: a store item recovers from
            // its store alone; a store-less item from its checkpoint.
            let (fleet, opened_store) = match (&store_dir, &path) {
                (Some(dir), _) => {
                    let store = Store::open(dir, item_config.classification.clone(), store_config)?;
                    (store.state().clone(), Some(store))
                }
                (None, Some(path)) => (
                    checkpoint::load_state_if_exists(path)?.unwrap_or_default(),
                    None,
                ),
                (None, None) => (FleetState::default(), None),
            };
            let state = Arc::new(ShardedState::new(config.state_shards, fleet));
            if let Some(store) = opened_store {
                // The append hook runs on the writer thread before each
                // append is acknowledged, so live merges happen in the
                // log's append order — the determinism argument in
                // [`crate::state`] then makes the live fold byte-equal
                // to a store replay, for any float payloads.
                let live = Arc::clone(&state);
                let hook: AppendHook =
                    Box::new(move |receipt: &AppendReceipt| live.ingest(&receipt.segment));
                stores.push((item_config.name.clone(), store, Some(hook)));
            }
            let looks: LookBook = match &path {
                Some(path) => {
                    let sidecar = LookBook::sidecar_path(path);
                    LookBook::load_if_exists(&sidecar)
                        .map_err(|e| {
                            ServeError::Io(format!(
                                "{} is not a valid look sidecar ({e}); \
                                 delete it to reset look accounting",
                                sidecar.display()
                            ))
                        })?
                        .unwrap_or_default()
                }
                None => LookBook::new(),
            };
            items.push(Item {
                config: item_config.clone(),
                state,
                looks: Mutex::new(looks),
                checkpoint: path,
                store_dir,
            });
        }
        let store = if stores.is_empty() {
            None
        } else {
            Some(qrn_store::writer::spawn_with(
                stores,
                config.store_group_commit,
            )?)
        };

        if !is_loopback(&config.bind) {
            eprintln!(
                "qrn-serve: WARNING: binding non-loopback address {}:{} — the server speaks \
                 plaintext HTTP with no authentication; restrict access at the network layer",
                config.bind, config.port
            );
        }
        let listener = TcpListener::bind((config.bind.as_str(), config.port)).map_err(|e| {
            ServeError::Io(format!("cannot bind {}:{}: {e}", config.bind, config.port))
        })?;
        let addr = listener
            .local_addr()
            .map_err(|e| ServeError::Io(format!("cannot read bound address: {e}")))?;

        let workers = config.workers;
        let queue_depth = config.queue_depth;
        let inner = Arc::new(Inner {
            addr,
            items,
            metrics: ServerMetrics::new(),
            quantiles: QuantileMemo::new(),
            shutdown: AtomicBool::new(false),
            started: Instant::now(),
            queue: ConnQueue::new(queue_depth),
            store,
            config,
        });

        let mut worker_handles = Vec::with_capacity(workers);
        for i in 0..workers {
            let inner = Arc::clone(&inner);
            let handle = std::thread::Builder::new()
                .name(format!("qrn-serve-worker-{i}"))
                .spawn(move || inner.worker_loop())
                .map_err(|e| ServeError::Io(format!("cannot spawn worker thread: {e}")))?;
            worker_handles.push(handle);
        }
        let accept_handle = {
            let inner = Arc::clone(&inner);
            std::thread::Builder::new()
                .name("qrn-serve-accept".into())
                .spawn(move || inner.accept_loop(&listener))
                .map_err(|e| ServeError::Io(format!("cannot spawn accept thread: {e}")))?
        };

        Ok(ServerHandle {
            inner,
            accept_thread: Some(accept_handle),
            workers: worker_handles,
        })
    }
}

/// Handle to a running server: its address, a shutdown trigger, and the
/// join point that drains and checkpoints.
pub struct ServerHandle {
    inner: Arc<Inner>,
    accept_thread: Option<JoinHandle<()>>,
    workers: Vec<JoinHandle<()>>,
}

impl ServerHandle {
    /// The bound address (useful with an ephemeral port).
    pub fn addr(&self) -> SocketAddr {
        self.inner.addr
    }

    /// The bound port.
    pub fn port(&self) -> u16 {
        self.inner.addr.port()
    }

    /// Workers serving a connection right now, as `qrn_http_workers_busy`
    /// reports it. Readable while every worker is blocked, when
    /// `/metrics` cannot be served.
    pub fn workers_busy(&self) -> u64 {
        self.inner.metrics.workers_busy()
    }

    /// Accepted connections waiting for a worker, as
    /// `qrn_http_queue_depth` reports it.
    pub fn queue_depth(&self) -> usize {
        self.inner.queue.len()
    }

    /// Raises the shutdown flag, as `POST /v1/shutdown` does. Returns
    /// immediately; pair with [`ServerHandle::wait`].
    pub fn request_shutdown(&self) {
        self.inner.request_shutdown();
    }

    /// Blocks until shutdown is requested (via [`request_shutdown`] or
    /// `POST /v1/shutdown`), then drains: queued connections are served,
    /// workers joined, and — when a checkpoint is configured — a final
    /// atomic checkpoint written per item (the state file without a
    /// store, then the look sidecar).
    ///
    /// [`request_shutdown`]: ServerHandle::request_shutdown
    ///
    /// # Errors
    ///
    /// Returns the first [`ServeError`] of the final checkpoint writes;
    /// every item's files are attempted, and the store closed, either way.
    pub fn wait(mut self) -> Result<(), ServeError> {
        if let Some(accept) = self.accept_thread.take() {
            let _ = accept.join();
        }
        // The accept thread is gone: nothing enqueues conns any more.
        // One sentinel per worker lets each drain the backlog and exit.
        for _ in 0..self.workers.len() {
            self.inner.queue.push_unbounded(Job::Stop);
        }
        for worker in self.workers.drain(..) {
            let _ = worker.join();
        }
        // The drain is a store-less item's only state write, so one
        // failed write skips no other: every item's files are attempted
        // and the first error is returned.
        let mut drained = Ok(());
        for item in &self.inner.items {
            if let (Some(path), None) = (&item.checkpoint, &item.store_dir) {
                let saved = checkpoint::save_state(path, &item.state.fold());
                drained = drained.and(saved.map_err(ServeError::from));
            }
            let looks = item.looks.lock().expect("look mutex poisoned");
            drained = drained.and(self.inner.save_looks(item, &looks));
        }
        // Every acknowledged append is already durable; closing just
        // joins the writer thread so the store directory is quiescent
        // when wait() returns.
        if let Some(writer) = &self.inner.store {
            writer.close();
        }
        drained
    }

    /// [`request_shutdown`](ServerHandle::request_shutdown) +
    /// [`wait`](ServerHandle::wait).
    ///
    /// # Errors
    ///
    /// Returns [`ServeError`] when a final checkpoint cannot be written.
    pub fn stop(self) -> Result<(), ServeError> {
        self.request_shutdown();
        self.wait()
    }
}

impl Drop for ServerHandle {
    fn drop(&mut self) {
        // A dropped handle must not leave threads parked forever; raise
        // the flag and let them unwind detached (no join in drop).
        if self.accept_thread.is_some() {
            self.inner.request_shutdown();
            for _ in 0..self.workers.len() {
                self.inner.queue.push_unbounded(Job::Stop);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qrn_core::examples::{paper_allocation, paper_classification, paper_norm};
    use std::io::{Read, Write};

    fn test_config() -> ServeConfig {
        let classification = paper_classification().unwrap();
        let allocation = paper_allocation(&classification).unwrap();
        let mut config = ServeConfig::new(paper_norm().unwrap(), classification, allocation);
        config.port = 0;
        config.workers = 2;
        config.io_timeout = Duration::from_secs(2);
        config.shards = 2;
        config.state_shards = 2;
        config
    }

    fn request(addr: SocketAddr, head_and_body: &str) -> (u16, String) {
        let mut stream = TcpStream::connect(addr).unwrap();
        stream.write_all(head_and_body.as_bytes()).unwrap();
        let mut reply = String::new();
        stream.read_to_string(&mut reply).unwrap();
        let status: u16 = reply
            .split(' ')
            .nth(1)
            .and_then(|s| s.parse().ok())
            .unwrap_or(0);
        let body = reply
            .split_once("\r\n\r\n")
            .map(|(_, b)| b.to_string())
            .unwrap_or_default();
        (status, body)
    }

    fn get(addr: SocketAddr, target: &str) -> (u16, String) {
        request(addr, &format!("GET {target} HTTP/1.1\r\nHost: x\r\n\r\n"))
    }

    fn post(addr: SocketAddr, target: &str, body: &str) -> (u16, String) {
        request(
            addr,
            &format!(
                "POST {target} HTTP/1.1\r\nHost: x\r\nContent-Length: {}\r\n\r\n{body}",
                body.len()
            ),
        )
    }

    #[test]
    fn healthz_and_404_and_405() {
        let handle = Server::start(test_config()).unwrap();
        let addr = handle.addr();
        assert_eq!(get(addr, "/healthz"), (200, "ok\n".to_string()));
        assert_eq!(get(addr, "/nope").0, 404);
        assert_eq!(post(addr, "/healthz", "").0, 405);
        assert_eq!(get(addr, "/v1/ingest").0, 405);
        // Item routes: wrong method is 405, unknown item is 404.
        assert_eq!(get(addr, "/v1/default/ingest").0, 405);
        assert_eq!(post(addr, "/v1/ghost/ingest", "").0, 404);
        assert_eq!(get(addr, "/v1/ghost/burndown").0, 404);
        handle.stop().unwrap();
    }

    #[test]
    fn ingest_then_burndown_and_metrics() {
        let handle = Server::start(test_config()).unwrap();
        let addr = handle.addr();
        let log = "{\"v\":1,\"event\":\"exposure\",\"vehicle\":\"V1\",\"hours\":8.0}\n\
                   not json at all\n";
        let (status, body) = post(addr, "/v1/ingest", log);
        assert_eq!(status, 200, "{body}");
        let reply: IngestReply = serde_json::from_str(&body).unwrap();
        assert_eq!(reply.item, DEFAULT_ITEM);
        assert_eq!(reply.segment_lines, 2);
        assert_eq!(reply.segment_events, 1);
        assert_eq!(reply.segment_skipped.bad_json, 1);
        assert_eq!(reply.total_exposure_hours, 8.0);

        let (status, body) = get(addr, "/v1/burndown");
        assert_eq!(status, 200);
        let report: FleetReport = serde_json::from_str(&body).unwrap();
        assert_eq!(report.exposure_hours, 8.0);
        assert!(report.goals.iter().all(|g| g.looks == 1));

        // The named route aliases the same item: one more look.
        let (status, body) = get(addr, "/v1/default/burndown");
        assert_eq!(status, 200);
        let report: FleetReport = serde_json::from_str(&body).unwrap();
        assert!(report.goals.iter().all(|g| g.looks == 2));

        let (status, metrics) = get(addr, "/metrics");
        assert_eq!(status, 200);
        assert!(
            metrics.contains("qrn_evidence_exposure_hours{item=\"default\"} 8"),
            "{metrics}"
        );
        assert!(metrics
            .contains("qrn_fleet_skipped_lines_total{item=\"default\",reason=\"bad_json\"} 1"));
        assert!(
            metrics.contains("qrn_goal_sprt_looks_total{item=\"default\",goal=\"I1\"} 2"),
            "{metrics}"
        );
        // Sequential families exist only in sequential mode.
        assert!(!metrics.contains("qrn_goal_e_value"), "{metrics}");
        assert!(!metrics.contains("qrn_goal_seq_upper"), "{metrics}");
        handle.stop().unwrap();
    }

    /// One severe VRU collision line (classifies as I3 under the paper
    /// classification) in fleet-event JSONL.
    fn crash_lines(n: usize) -> String {
        let events: Vec<qrn_fleet::FleetEvent> = (0..n)
            .map(|i| qrn_fleet::FleetEvent::Incident {
                vehicle: format!("V{i:03}"),
                record: qrn_core::incident::IncidentRecord::collision(
                    qrn_core::object::Involvement::ego_with(qrn_core::object::ObjectType::Vru),
                    qrn_units::Speed::from_kmh(30.0).unwrap(),
                ),
            })
            .collect();
        qrn_fleet::to_jsonl(&events)
    }

    #[test]
    fn sequential_hammering_never_moves_the_verdict_columns() {
        // The tentpole E2E property: in sequential mode the anytime-valid
        // columns are functions of the evidence alone. Hammering the
        // burn-down route with no new data moves `looks` and nothing
        // else — the validity accounting cannot be flipped by polling.
        let mut config = test_config();
        config.burndown.sequential = true;
        let handle = Server::start(config).unwrap();
        let addr = handle.addr();
        let log = format!(
            "{{\"v\":1,\"event\":\"exposure\",\"vehicle\":\"V1\",\"hours\":50.0}}\n{}",
            crash_lines(1)
        );
        assert_eq!(post(addr, "/v1/ingest", &log).0, 200);

        let (status, body) = get(addr, "/v1/burndown");
        assert_eq!(status, 200, "{body}");
        let first: FleetReport = serde_json::from_str(&body).unwrap();
        assert_eq!(
            first.schema_version,
            qrn_fleet::burndown::SEQUENTIAL_REPORT_SCHEMA_VERSION
        );
        for g in &first.goals {
            assert!(g.seq_lower.is_some() && g.seq_upper.is_some() && g.e_value.is_some());
        }
        for look in 2..=20u64 {
            let (status, body) = get(addr, "/v1/burndown");
            assert_eq!(status, 200);
            let report: FleetReport = serde_json::from_str(&body).unwrap();
            for (g, f) in report.goals.iter().zip(&first.goals) {
                assert_eq!(g.looks, look, "{}", g.incident);
                assert_eq!(g.alert, f.alert, "{}", g.incident);
                assert_eq!(g.e_value, f.e_value, "{}", g.incident);
                assert_eq!(g.seq_lower, f.seq_lower, "{}", g.incident);
                assert_eq!(g.seq_upper, f.seq_upper, "{}", g.incident);
            }
        }

        let (status, metrics) = get(addr, "/metrics");
        assert_eq!(status, 200);
        qrn_stats::prometheus::validate_exposition(&metrics).unwrap();
        assert!(
            metrics.contains("qrn_goal_e_value{item=\"default\",goal=\"I1\"}"),
            "{metrics}"
        );
        assert!(
            metrics.contains("qrn_goal_seq_upper{item=\"default\",goal=\"I1\"}"),
            "{metrics}"
        );
        handle.stop().unwrap();
    }

    #[test]
    fn alert_transitions_survive_in_the_look_sidecar() {
        // Checkpoint only, then checkpoint + store: in store mode the
        // checkpoint path holds the look sidecar alone.
        for with_store in [false, true] {
            let dir = std::env::temp_dir().join(format!(
                "qrn-serve-transitions-{with_store}-{}",
                std::process::id()
            ));
            let _ = std::fs::remove_dir_all(&dir);
            std::fs::create_dir_all(&dir).unwrap();
            let ckpt = dir.join("fleet.ckpt");
            let sidecar = LookBook::sidecar_path(&ckpt);
            let mut config = test_config();
            config.burndown.sequential = true;
            config.checkpoint = Some(ckpt.clone());
            if with_store {
                config.store = Some(dir.join("store"));
            }
            let handle = Server::start(config.clone()).unwrap();
            let addr = handle.addr();
            // Uploads write nothing: no state file before the drain, no
            // sidecar before the first look.
            let exposure = "{\"v\":1,\"event\":\"exposure\",\"vehicle\":\"V1\",\"hours\":8.0}\n";
            assert_eq!(post(addr, "/v1/ingest", exposure).0, 200);
            assert!(!ckpt.exists(), "an upload wrote the state file");
            assert!(!sidecar.exists(), "an upload wrote the look sidecar");
            let written = |n: u64| format!("qrn_server_checkpoints_written_total {n}\n");
            assert!(get(addr, "/metrics").1.contains(&written(0)));
            // First look over clean exposure: everything Ok, no
            // transitions, and the look is in the sidecar while the
            // server still runs.
            let (status, body) = get(addr, "/v1/burndown");
            assert_eq!(status, 200);
            let report: FleetReport = serde_json::from_str(&body).unwrap();
            let book = LookBook::load_if_exists(&sidecar)
                .unwrap()
                .expect("a spent look writes the sidecar");
            for goal in &report.goals {
                assert_eq!(book.looks(goal.incident.as_str()), 1, "{book:?}");
            }
            assert!(!ckpt.exists(), "a look wrote the state file");
            assert!(get(addr, "/metrics").1.contains(&written(1)));
            // 40 severe VRU collisions: I3 burns; the second look records
            // the Ok → Burned edge, durable before the drain.
            assert_eq!(post(addr, "/v1/ingest", &crash_lines(40)).0, 200);
            let (status, body) = get(addr, "/v1/burndown");
            assert_eq!(status, 200);
            let report: FleetReport = serde_json::from_str(&body).unwrap();
            let i3 = report.goal(&"I3".into()).unwrap();
            assert_eq!(i3.alert, qrn_fleet::AlertLevel::Burned, "{body}");
            let running = LookBook::load_if_exists(&sidecar).unwrap().unwrap();
            handle.stop().unwrap();
            assert_eq!(ckpt.exists(), !with_store, "store mode wrote a state file");

            let book = LookBook::load_if_exists(&sidecar)
                .unwrap()
                .expect("final checkpoint writes the sidecar");
            assert_eq!(book, running, "the drain changed the saved looks");
            let entry = book.goal("I3").unwrap();
            assert_eq!(entry.looks, 2);
            assert_eq!(entry.alert, qrn_fleet::AlertLevel::Burned);
            assert_eq!(entry.transitions.len(), 1);
            assert_eq!(entry.transitions[0].to, qrn_fleet::AlertLevel::Burned);
            assert!(entry.transitions[0].at_unix_millis > 0);
            // A restarted server resumes both counts and history, and its
            // evidence from whichever path the mode keeps.
            let handle = Server::start(config).unwrap();
            let (status, body) = get(handle.addr(), "/v1/burndown");
            assert_eq!(status, 200);
            let report: FleetReport = serde_json::from_str(&body).unwrap();
            assert!(report.goals.iter().all(|g| g.looks == 3), "{body}");
            handle.stop().unwrap();
            assert_eq!(ckpt.exists(), !with_store, "store mode wrote a state file");
            let book = LookBook::load_if_exists(&sidecar).unwrap().unwrap();
            // The burned edge is still the only transition: the restart's
            // look observed the same level.
            assert_eq!(book.goal("I3").unwrap().transitions.len(), 1);
            std::fs::remove_dir_all(&dir).unwrap();
        }
    }

    #[test]
    fn a_failed_sidecar_save_answers_500_naming_it() {
        let dir = std::env::temp_dir().join(format!("qrn-serve-badsidecar-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        // A directory where the atomic write puts its temp file makes
        // every sidecar save fail.
        std::fs::create_dir_all(dir.join("fleet.ckpt.looks.json.tmp")).unwrap();
        let mut config = test_config();
        let classification = paper_classification().unwrap();
        let allocation = paper_allocation(&classification).unwrap();
        config.add_item("vru", paper_norm().unwrap(), classification, allocation);
        config.checkpoint = Some(dir.join("fleet.ckpt"));
        let handle = Server::start(config).unwrap();
        let (status, body) = get(handle.addr(), "/v1/burndown");
        assert_eq!(status, 500, "{body}");
        assert!(body.contains("look sidecar write failed"), "{body}");
        let log = "{\"v\":1,\"event\":\"exposure\",\"vehicle\":\"V1\",\"hours\":4.0}";
        assert_eq!(post(handle.addr(), "/v1/vru/ingest", log).0, 200);
        assert!(handle.stop().is_err(), "the drain saved the sidecar");
        // The default item's failure costs the other item no write.
        let vru = checkpoint::item_checkpoint_path(&dir.join("fleet.ckpt"), "vru");
        let state = checkpoint::load_state_if_exists(&vru).unwrap().unwrap();
        assert_eq!(state.events(), 1);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn named_ingest_reaches_the_named_item_only() {
        let mut config = test_config();
        let classification = paper_classification().unwrap();
        let allocation = paper_allocation(&classification).unwrap();
        config.add_item("vru", paper_norm().unwrap(), classification, allocation);
        let handle = Server::start(config).unwrap();
        let addr = handle.addr();

        let log = "{\"v\":1,\"event\":\"exposure\",\"vehicle\":\"V1\",\"hours\":4.0}";
        let (status, body) = post(addr, "/v1/vru/ingest", log);
        assert_eq!(status, 200, "{body}");
        let reply: IngestReply = serde_json::from_str(&body).unwrap();
        assert_eq!(reply.item, "vru");
        assert_eq!(reply.total_exposure_hours, 4.0);

        // The default item saw nothing.
        let (_, body) = get(addr, "/v1/burndown");
        let report: FleetReport = serde_json::from_str(&body).unwrap();
        assert_eq!(report.exposure_hours, 0.0);
        // The named item serves its own burn-down.
        let (_, body) = get(addr, "/v1/vru/burndown");
        let report: FleetReport = serde_json::from_str(&body).unwrap();
        assert_eq!(report.exposure_hours, 4.0);

        // Both items are present, separately labelled, in the metrics.
        let (_, metrics) = get(addr, "/metrics");
        assert!(
            metrics.contains("qrn_evidence_exposure_hours{item=\"default\"} 0"),
            "{metrics}"
        );
        assert!(
            metrics.contains("qrn_evidence_exposure_hours{item=\"vru\"} 4"),
            "{metrics}"
        );
        handle.stop().unwrap();
    }

    #[test]
    fn store_backed_server_screens_recovers_and_time_travels() {
        let dir = std::env::temp_dir().join(format!("qrn-serve-store-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let mut config = test_config();
        config.store = Some(dir.clone());
        let handle = Server::start(config.clone()).unwrap();
        let addr = handle.addr();

        // Sequenced batch; one duplicate line; one gap (seq 2 → 4).
        let log = "{\"v\":1,\"event\":\"exposure\",\"vehicle\":\"V1\",\"hours\":8.0,\"seq\":1}\n\
                   {\"v\":1,\"event\":\"exposure\",\"vehicle\":\"V1\",\"hours\":2.0,\"seq\":1}\n\
                   {\"v\":1,\"event\":\"exposure\",\"vehicle\":\"V1\",\"hours\":4.0,\"seq\":2}\n\
                   {\"v\":1,\"event\":\"exposure\",\"vehicle\":\"V1\",\"hours\":1.0,\"seq\":4}\n";
        let (status, body) = post(addr, "/v1/ingest", log);
        assert_eq!(status, 200, "{body}");
        let reply: IngestReply = serde_json::from_str(&body).unwrap();
        assert!(reply.stored);
        assert_eq!(reply.duplicates_rejected, 1);
        assert_eq!(reply.gaps_detected, 1);
        assert_eq!(reply.missing_seqs, 1);
        assert_eq!(reply.total_exposure_hours, 13.0);

        // Historical query: everything so far, no look spent.
        let (status, body) = get(addr, &format!("/v1/burndown?as_of={}", u64::MAX));
        assert_eq!(status, 200, "{body}");
        let report: FleetReport = serde_json::from_str(&body).unwrap();
        assert_eq!(report.exposure_hours, 13.0);
        // The live route afterwards sees its *first* look: as_of spent
        // none.
        let (_, body) = get(addr, "/v1/burndown");
        let report: FleetReport = serde_json::from_str(&body).unwrap();
        assert!(report.goals.iter().all(|g| g.looks == 1));

        let (status, body) = get(addr, "/v1/history");
        assert_eq!(status, 200, "{body}");
        assert!(body.contains("\"segments\""), "{body}");

        let (status, metrics) = get(addr, "/metrics");
        assert_eq!(status, 200);
        qrn_stats::prometheus::validate_exposition(&metrics).unwrap();
        assert!(
            metrics.contains("qrn_store_segments_total{item=\"default\"} 1"),
            "{metrics}"
        );
        assert!(
            metrics.contains("qrn_store_duplicates_rejected_total{item=\"default\"} 1"),
            "{metrics}"
        );
        assert!(
            metrics.contains("qrn_store_gaps_detected_total{item=\"default\"} 1"),
            "{metrics}"
        );
        assert!(
            metrics.contains("qrn_store_appended_bytes_total"),
            "{metrics}"
        );
        assert!(metrics.contains("qrn_store_compactions_total"), "{metrics}");
        // One sequential ingest → one group commit of one batch.
        assert!(
            metrics.contains("qrn_store_group_commits_total{item=\"default\"} 1"),
            "{metrics}"
        );
        assert!(
            metrics.contains("qrn_store_group_commit_size{item=\"default\"} 1"),
            "{metrics}"
        );
        handle.stop().unwrap();

        // Restart on the same store: the state is recovered from the log
        // and the duplicate screen still remembers every cursor.
        let handle = Server::start(config).unwrap();
        let addr = handle.addr();
        let (_, body) = get(addr, "/v1/burndown");
        let report: FleetReport = serde_json::from_str(&body).unwrap();
        assert_eq!(report.exposure_hours, 13.0);
        let replayed =
            "{\"v\":1,\"event\":\"exposure\",\"vehicle\":\"V1\",\"hours\":4.0,\"seq\":2}\n";
        let (_, body) = post(addr, "/v1/ingest", replayed);
        let reply: IngestReply = serde_json::from_str(&body).unwrap();
        assert_eq!(reply.duplicates_rejected, 1);
        assert_eq!(reply.total_exposure_hours, 13.0);
        handle.stop().unwrap();
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn as_of_and_history_without_a_store_are_400() {
        let handle = Server::start(test_config()).unwrap();
        let addr = handle.addr();
        assert_eq!(get(addr, "/v1/burndown?as_of=123").0, 400);
        assert_eq!(get(addr, "/v1/history").0, 400);
        handle.stop().unwrap();
    }

    #[test]
    fn unknown_zone_is_404() {
        let handle = Server::start(test_config()).unwrap();
        let addr = handle.addr();
        assert_eq!(get(addr, "/v1/burndown?zone=atlantis").0, 404);
        handle.stop().unwrap();
    }

    #[test]
    fn unknown_query_params_are_400_naming_the_key() {
        let handle = Server::start(test_config()).unwrap();
        let addr = handle.addr();
        let (status, body) = get(addr, "/v1/burndown?foo=bar");
        assert_eq!(status, 400, "{body}");
        assert!(body.contains("\"foo\""), "{body}");
        // A typo'd filter key fails loudly instead of silently serving
        // the unfiltered report.
        let (status, body) = get(addr, "/v1/burndown?whre=weather%3Dfog");
        assert_eq!(status, 400, "{body}");
        assert!(body.contains("\"whre\""), "{body}");
        // Conflicting selector spellings are a client error too.
        let (status, body) = get(addr, "/v1/burndown?context=a=b&zone=c");
        assert_eq!(status, 400, "{body}");
        assert!(body.contains("alias"), "{body}");
        // A malformed where clause names the route's own parameter.
        let (status, body) = get(addr, "/v1/burndown?where=nonsense");
        assert_eq!(status, 400, "{body}");
        assert!(body.contains("where"), "{body}");
        handle.stop().unwrap();
    }

    #[test]
    fn repeated_query_keys_are_400_naming_the_key() {
        let handle = Server::start(test_config()).unwrap();
        let addr = handle.addr();
        // The second selector used to be dropped silently, serving the
        // fog row.
        let (status, body) = get(
            addr,
            "/v1/burndown?context=weather=fog,zone=urban&context=weather=clear,zone=urban",
        );
        assert_eq!(status, 400, "{body}");
        assert!(body.contains("\"context\""), "{body}");
        for query in [
            "as_of=1&as_of=2",
            "zone=a&zone=a",
            "where=zone%3Durban&%77here=zone%3Drural",
        ] {
            let (status, body) = get(addr, &format!("/v1/burndown?{query}"));
            assert_eq!(status, 400, "{query}: {body}");
            assert!(body.contains("more than once"), "{query}: {body}");
        }
        handle.stop().unwrap();
    }

    /// A pair of `context` that `other` lacks, as a `?where=` clause.
    fn clause_failing(context: &str, other: &str) -> String {
        other
            .split(',')
            .find(|pair| !context.split(',').any(|p| p == *pair))
            .expect("distinct contexts differ in some pair")
            .replace('=', "%3D")
    }

    #[test]
    fn context_reads_serve_by_context_rows_byte_for_byte() {
        let log = qrn_fleet::telemetry::TelemetryConfig::new(8)
            .hours(qrn_units::Hours::new(512.0).unwrap())
            .scenario(qrn_fleet::telemetry::Scenario::Banded)
            .seed(31)
            .generate_jsonl()
            .unwrap();
        for sequential in [false, true] {
            let mut config = test_config();
            config.burndown.by_zone = true;
            config.burndown.sequential = sequential;
            let handle = Server::start(config).unwrap();
            let addr = handle.addr();
            let (status, body) = post(addr, "/v1/ingest", &log);
            assert_eq!(status, 200, "{body}");

            // The first read is the whole by-context report, at look 1.
            let (status, body) = get(addr, "/v1/burndown");
            assert_eq!(status, 200, "{body}");
            let full: FleetReport = serde_json::from_str(&body).unwrap();
            assert!(full.zones.len() > 2, "{body}");
            // Every later read spends one more look; apart from that
            // counter, `?context=K` answers exactly K's row of the full
            // report.
            let mut look = 1;
            for row in &full.zones {
                look += 1;
                let (status, body) = get(addr, &format!("/v1/burndown?context={}", row.zone));
                assert_eq!(status, 200, "{body}");
                let mut expected = row.clone();
                for goal in &mut expected.goals {
                    goal.looks = look;
                }
                assert_eq!(body, serde_json::to_string_pretty(&expected).unwrap());
            }

            // The selector and the where filter must both hold: a clause K
            // fails is still a 404, although it matches other rows.
            let key = &full.zones[0].zone;
            let clause = clause_failing(key, &full.zones[1].zone);
            let (status, body) = get(addr, &format!("/v1/burndown?where={clause}"));
            assert_eq!(status, 200, "{body}");
            let (status, body) = get(addr, &format!("/v1/burndown?context={key}&where={clause}"));
            assert_eq!(status, 404, "{body}");
            let own = key.split(',').next().unwrap().replace('=', "%3D");
            let (status, body) = get(addr, &format!("/v1/burndown?context={key}&where={own}"));
            assert_eq!(status, 200, "{body}");
            handle.stop().unwrap();
        }
    }

    #[test]
    fn context_selector_zone_alias_and_where_filter() {
        let handle = Server::start(test_config()).unwrap();
        let addr = handle.addr();
        let log = "{\"ctx\":\"weather=clear,zone=urban\",\"event\":\"exposure\",\"hours\":2.0,\"v\":2,\"vehicle\":\"V1\"}\n\
                   {\"ctx\":\"weather=fog,zone=urban\",\"event\":\"exposure\",\"hours\":1.0,\"v\":2,\"vehicle\":\"V1\"}\n\
                   {\"ctx\":\"weather=fog,zone=highway\",\"event\":\"exposure\",\"hours\":4.0,\"v\":2,\"vehicle\":\"V2\"}\n";
        let (status, body) = post(addr, "/v1/ingest", log);
        assert_eq!(status, 200, "{body}");

        // `?context=` selects one refinement row by its canonical key.
        let (status, body) = get(addr, "/v1/burndown?context=weather=fog,zone=urban");
        assert_eq!(status, 200, "{body}");
        let row: qrn_fleet::burndown::ZoneBurnDown = serde_json::from_str(&body).unwrap();
        assert_eq!(row.zone, "weather=fog,zone=urban");
        assert_eq!(row.exposure_hours, 1.0);

        // `?zone=` is the documented pre-0.8 alias: same row (only the
        // look counters advance between the two requests).
        let (status, body) = get(addr, "/v1/burndown?zone=weather=fog,zone=urban");
        assert_eq!(status, 200, "{body}");
        let aliased: qrn_fleet::burndown::ZoneBurnDown = serde_json::from_str(&body).unwrap();
        assert_eq!(aliased.zone, row.zone);
        assert_eq!(aliased.exposure_hours, row.exposure_hours);

        // `?where=` keeps the global report but restricts refinement
        // rows to matching contexts across *both* zones.
        let (status, body) = get(addr, "/v1/burndown?where=weather%3Dfog");
        assert_eq!(status, 200, "{body}");
        let report: FleetReport = serde_json::from_str(&body).unwrap();
        assert_eq!(report.exposure_hours, 7.0);
        let names: Vec<&str> = report.zones.iter().map(|z| z.zone.as_str()).collect();
        assert_eq!(
            names,
            ["weather=fog,zone=highway", "weather=fog,zone=urban"],
            "{body}"
        );

        // Two clauses intersect; an unmatched filter yields no rows.
        let (_, body) = get(addr, "/v1/burndown?where=weather%3Dfog,zone%3Durban");
        let report: FleetReport = serde_json::from_str(&body).unwrap();
        assert_eq!(report.zones.len(), 1);
        let (_, body) = get(addr, "/v1/burndown?where=weather%3Dsnow");
        let report: FleetReport = serde_json::from_str(&body).unwrap();
        assert!(report.zones.is_empty());

        // The metrics page labels every named context (the `zone` label
        // carries the full canonical key).
        let (status, metrics) = get(addr, "/metrics");
        assert_eq!(status, 200);
        qrn_stats::prometheus::validate_exposition(&metrics).unwrap();
        assert!(
            metrics.contains(
                "qrn_evidence_exposure_hours{item=\"default\",zone=\"weather=fog,zone=highway\"} 4"
            ),
            "{metrics}"
        );
        handle.stop().unwrap();
    }

    #[test]
    fn percent_encoded_query_keys_are_the_keys_they_spell() {
        // `%77here` decodes to `where`: it must filter exactly as
        // `where` does, not pass validation and then miss the lookup.
        // One fresh server per read, so both bodies are at look 1.
        let log = "{\"ctx\":\"weather=clear,zone=urban\",\"event\":\"exposure\",\"hours\":2.0,\"v\":2,\"vehicle\":\"V1\"}\n\
                   {\"ctx\":\"weather=fog,zone=urban\",\"event\":\"exposure\",\"hours\":1.0,\"v\":2,\"vehicle\":\"V1\"}\n";
        let bodies: Vec<String> = ["where", "%77here"]
            .iter()
            .map(|key| {
                let handle = Server::start(test_config()).unwrap();
                let addr = handle.addr();
                let (status, body) = post(addr, "/v1/ingest", log);
                assert_eq!(status, 200, "{body}");
                let (status, body) = get(addr, &format!("/v1/burndown?{key}=weather%3Dfog"));
                assert_eq!(status, 200, "{body}");
                handle.stop().unwrap();
                body
            })
            .collect();
        assert_eq!(bodies[0], bodies[1]);
        let report: FleetReport = serde_json::from_str(&bodies[1]).unwrap();
        let names: Vec<&str> = report.zones.iter().map(|z| z.zone.as_str()).collect();
        assert_eq!(names, ["weather=fog,zone=urban"]);
    }

    #[test]
    fn post_shutdown_drains_and_wait_returns() {
        let handle = Server::start(test_config()).unwrap();
        let addr = handle.addr();
        let (status, body) = post(addr, "/v1/shutdown", "");
        assert_eq!(status, 200, "{body}");
        handle.wait().unwrap();
        // The port is released after the drain.
        assert!(TcpListener::bind(addr).is_ok());
    }

    #[test]
    fn invalid_configs_are_rejected() {
        for mutate in [
            (|c: &mut ServeConfig| c.workers = 0) as fn(&mut ServeConfig),
            |c| c.queue_depth = 0,
            |c| c.max_body_bytes = 0,
            |c| c.shards = 0,
            |c| c.state_shards = 0,
            |c| c.bind = String::new(),
            |c| c.items.clear(),
            |c| c.items[0].name = String::new(),
            |c| c.items[0].name = "has space".into(),
            |c| c.items[0].name = "ingest".into(),
            |c| {
                let dup = c.items[0].clone();
                c.items.push(dup);
            },
            |c| {
                c.store = Some(std::env::temp_dir());
                c.store_roll_bytes = 0;
            },
            |c| {
                c.store = Some(std::env::temp_dir());
                c.store_group_commit = 0;
            },
            |c| c.items[0].name = "history".into(),
        ] {
            let mut config = test_config();
            mutate(&mut config);
            assert!(matches!(Server::start(config), Err(ServeError::Config(_))));
        }
    }

    #[test]
    fn item_routes_parse() {
        assert_eq!(
            Inner::parse_item_route("/v1/ingest"),
            Some((DEFAULT_ITEM, "ingest"))
        );
        assert_eq!(
            Inner::parse_item_route("/v1/burndown"),
            Some((DEFAULT_ITEM, "burndown"))
        );
        assert_eq!(
            Inner::parse_item_route("/v1/vru/ingest"),
            Some(("vru", "ingest"))
        );
        assert_eq!(
            Inner::parse_item_route("/v1/vru/burndown"),
            Some(("vru", "burndown"))
        );
        assert_eq!(
            Inner::parse_item_route("/v1/history"),
            Some((DEFAULT_ITEM, "history"))
        );
        assert_eq!(
            Inner::parse_item_route("/v1/vru/history"),
            Some(("vru", "history"))
        );
        assert_eq!(Inner::parse_item_route("/v1/shutdown"), None);
        assert_eq!(Inner::parse_item_route("/v1//ingest"), None);
        assert_eq!(Inner::parse_item_route("/v1/a/b/ingest"), None);
        assert_eq!(Inner::parse_item_route("/v2/ingest"), None);
    }

    #[test]
    fn loopback_detection() {
        assert!(is_loopback("127.0.0.1"));
        assert!(is_loopback("::1"));
        assert!(is_loopback("localhost"));
        assert!(!is_loopback("0.0.0.0"));
        assert!(!is_loopback("192.168.1.10"));
    }
}
