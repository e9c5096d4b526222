//! The sharded live state: N ledger shards behind their own locks, one
//! striped vehicle roster, a lock-free ingest handoff, and two reads —
//! a ledger-only [`ShardedState::snapshot`] for burn-down and `/metrics`
//! and the full [`ShardedState::fold`] for checkpoints.
//!
//! # Why sharding preserves byte-identity
//!
//! `ingest_str` already parses in parallel and merges its per-block
//! partials in ascending block order; the server used to funnel every
//! merged segment through one `Mutex<FleetState>`, so a fleet's worth of
//! concurrent uploads serialised on a single lock. This module removes
//! the funnel: each ingested segment lands in *one* of N shard states,
//! chosen round-robin with a `try_lock` fallback scan, so two uploads
//! only contend when every shard is busy.
//!
//! Correctness rests on the same contract the parallel parser uses
//! (DESIGN §10): [`FleetState::merge`] is bit-exactly commutative and
//! associative for integer tallies, and its floating-point exposure sums
//! are exact — hence order- and grouping-insensitive byte for byte —
//! whenever the summands are dyadic rationals of bounded magnitude,
//! which is what the telemetry layer emits (bounded chunks in multiples
//! of 0.25 h). Routing a segment to *any* shard and folding the shards
//! in ascending index order (built on [`fold_states`]) therefore yields
//! the same bytes as merging the segments in arrival order — which is
//! itself byte-identical to offline `qrn fleet ingest` of the same
//! segments. The same argument covers the per-vehicle sums kept in the
//! registry. The property test at the bottom machine-checks this for
//! arbitrary segmentations and shard counts.
//!
//! # Reads fold ledgers; the roster lives once in the registry
//!
//! A burn-down verdict depends only on exposure and per-type counts —
//! the [`EvidenceLedger`], O(kinds × contexts) rows — never on which
//! vehicle reported what. So a shard holds ledger plus counters only (a
//! roster-free [`FleetState`], built with [`FleetState::merge_totals`]),
//! and the per-vehicle tallies live exactly once, in the striped
//! vehicle registry. [`ShardedState::snapshot`] merges the shard
//! ledgers and takes the vehicle count from the registry's atomic, so
//! its cost is flat in fleet size. [`ShardedState::fold`], which
//! checkpoints and the graceful drain need, adds the roster assembled
//! from the stripes and serialises exactly as the per-shard rosters did.
//!
//! Lock order is always shard → stripe. Ingest takes one shard lock,
//! merges the segment's totals into that shard and — still holding it —
//! adds the segment's vehicles to the registry stripes. Reads take
//! every shard lock in ascending order first and only then look at the
//! registry. Ingest holds at most one shard lock and nothing ever waits
//! for a shard while holding a stripe, so no deadlock is possible.
//!
//! The same order makes every read consistent. The registry changes
//! only under some shard lock, and a read holds all of them, so the
//! registry it sees matches the merged ledgers exactly: a snapshot never
//! counts a vehicle whose evidence it does not yet include, nor misses
//! one whose evidence it does.
//!
//! # Totals for the ingest reply
//!
//! The ingest reply reports running totals (lines, events, exposure,
//! distinct vehicles). Locking every shard per upload would reintroduce
//! the serialisation the shards exist to remove, so those totals are
//! kept separately: plain atomic adds for lines/events, a
//! compare-exchange loop over the f64 bit pattern for exposure (exact
//! for the same dyadic chunks, so it agrees with the fold once
//! quiescent), and the registry's atomic distinct-vehicle count. Totals
//! are monotone and exact; mid-upload they may momentarily run ahead of
//! a concurrent read, which is the usual meaning of a live counter.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Mutex, MutexGuard};

use qrn_core::allocation::Allocation;
use qrn_core::norm::QuantitativeRiskNorm;
use qrn_fleet::burndown::{
    burn_down_evidence_filtered, BurnDownConfig, ContextFilter, FleetReport,
};
use qrn_fleet::event::SkipCounts;
use qrn_fleet::ingest::{fold_states, FleetState, VehicleState};
use qrn_fleet::FleetError;
use qrn_stats::evidence::EvidenceLedger;

/// Stripes in the vehicle registry. Enough that concurrent uploads from
/// different vehicles rarely share a stripe lock; small enough to be
/// negligible memory.
const VEHICLE_STRIPES: usize = 16;

/// FNV-1a over the vehicle id: a stable, dependency-free hash to pick a
/// registry stripe. Only intra-process stability matters here.
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// The live roster, held once: per-vehicle tallies striped across
/// [`VEHICLE_STRIPES`] locked maps by id hash, plus an atomic count of
/// distinct vehicles, so reading the count never locks anything.
#[derive(Debug)]
struct VehicleRegistry {
    stripes: Vec<Mutex<BTreeMap<String, VehicleState>>>,
    distinct: AtomicU64,
}

impl VehicleRegistry {
    /// A registry holding `roster`, whose ids move in without a copy.
    fn from_roster(roster: BTreeMap<String, VehicleState>) -> Self {
        let registry = VehicleRegistry {
            stripes: (0..VEHICLE_STRIPES)
                .map(|_| Mutex::new(BTreeMap::new()))
                .collect(),
            distinct: AtomicU64::new(roster.len() as u64),
        };
        for (vehicle, tally) in roster {
            // Re-add to zero, as every merge does, so the fold's bytes
            // match a merge of the resumed state.
            let mut entry = VehicleState::default();
            entry.absorb(&tally);
            registry.stripe(&vehicle).insert(vehicle, entry);
        }
        registry
    }

    fn stripe(&self, vehicle: &str) -> MutexGuard<'_, BTreeMap<String, VehicleState>> {
        let stripe = (fnv1a(vehicle.as_bytes()) as usize) % self.stripes.len();
        self.stripes[stripe]
            .lock()
            .expect("vehicle registry mutex poisoned")
    }

    /// Adds one vehicle's tally, allocating the id only on first sight.
    /// Callers hold a shard lock (see the module docs).
    fn add(&self, vehicle: &str, tally: &VehicleState) {
        let mut roster = self.stripe(vehicle);
        match roster.get_mut(vehicle) {
            Some(entry) => entry.absorb(tally),
            None => {
                let mut entry = VehicleState::default();
                entry.absorb(tally);
                roster.insert(vehicle.to_string(), entry);
                self.distinct.fetch_add(1, Ordering::Relaxed);
            }
        }
    }

    /// A copy of the whole roster. The stripes are sorted runs, so the
    /// map is bulk-built from their concatenation.
    fn roster(&self) -> BTreeMap<String, VehicleState> {
        let mut entries = Vec::with_capacity(self.count() as usize);
        for stripe in &self.stripes {
            let roster = stripe.lock().expect("vehicle registry mutex poisoned");
            entries.extend(
                roster
                    .iter()
                    .map(|(vehicle, tally)| (vehicle.clone(), *tally)),
            );
        }
        entries.into_iter().collect()
    }

    fn count(&self) -> u64 {
        self.distinct.load(Ordering::Relaxed)
    }
}

/// One consistent read of an item's evidence without its roster: the
/// ledger, the distinct-vehicle count and the log counters — everything
/// a burn-down report or a `/metrics` scrape needs. The ledger is owned,
/// so callers merge design-time evidence into it without a clone.
#[derive(Debug, Clone, PartialEq)]
pub struct LedgerSnapshot {
    /// Exposure and per-type incident counts, global and per context.
    pub evidence: EvidenceLedger,
    /// Distinct vehicles that reported.
    pub vehicles: u64,
    /// Lines seen, including blank and skipped ones.
    pub lines: u64,
    /// Events successfully parsed.
    pub events: u64,
    /// Skipped-line tallies.
    pub skipped: SkipCounts,
}

impl LedgerSnapshot {
    /// The snapshot of `totals` (whose own roster is ignored) with
    /// `vehicles` distinct vehicles.
    fn from_totals(totals: FleetState, vehicles: u64) -> Self {
        LedgerSnapshot {
            vehicles,
            lines: totals.lines(),
            events: totals.events(),
            skipped: totals.skipped(),
            evidence: totals.into_evidence(),
        }
    }

    /// The burn-down report of this snapshot: byte-identical to
    /// [`burn_down_filtered`](qrn_fleet::burndown::burn_down_filtered)
    /// on a [`FleetState`] with the same ledger, counters and roster
    /// size.
    ///
    /// # Errors
    ///
    /// As [`burn_down_evidence_filtered`].
    pub fn report(
        &self,
        norm: &QuantitativeRiskNorm,
        allocation: &Allocation,
        config: &BurnDownConfig,
        filter: &ContextFilter,
    ) -> Result<FleetReport, FleetError> {
        let mut report =
            burn_down_evidence_filtered(norm, allocation, &self.evidence, config, filter)?;
        report.vehicles = self.vehicles;
        report.events = self.events;
        report.skipped = self.skipped;
        Ok(report)
    }
}

impl From<FleetState> for LedgerSnapshot {
    /// The snapshot of a whole state — a store replay, say — counting
    /// its roster.
    fn from(state: FleetState) -> Self {
        let vehicles = state.vehicle_count();
        LedgerSnapshot::from_totals(state, vehicles)
    }
}

/// N roster-free [`FleetState`] shards behind independent locks, the
/// vehicle registry, and the atomic running totals served in ingest
/// replies. See the module docs for the determinism and consistency
/// arguments.
#[derive(Debug)]
pub struct ShardedState {
    shards: Vec<Mutex<FleetState>>,
    /// Round-robin start shard for the next ingest handoff.
    cursor: AtomicUsize,
    lines: AtomicU64,
    events: AtomicU64,
    /// Total exposure hours as an f64 bit pattern, accumulated with a
    /// compare-exchange loop — exact for dyadic chunk sums.
    exposure_bits: AtomicU64,
    vehicles: VehicleRegistry,
}

impl ShardedState {
    /// Creates `shard_count` shards seeded with `resume` (a checkpointed
    /// state, or [`FleetState::default`] for a fresh server). The
    /// resumed totals occupy shard 0, so the ascending-index fold merges
    /// them first — the same append-order position they have in offline
    /// checkpointed ingest — and the resumed roster moves into the
    /// vehicle registry.
    ///
    /// # Panics
    ///
    /// Panics when `shard_count` is zero (configs validate this before
    /// construction).
    pub fn new(shard_count: usize, mut resume: FleetState) -> Self {
        assert!(shard_count >= 1, "shard count must be at least 1");
        let vehicles = VehicleRegistry::from_roster(resume.take_vehicles());
        let lines = AtomicU64::new(resume.lines());
        let events = AtomicU64::new(resume.events());
        let exposure_bits = AtomicU64::new(resume.exposure().value().to_bits());
        let mut shards = Vec::with_capacity(shard_count);
        shards.push(Mutex::new(resume));
        for _ in 1..shard_count {
            shards.push(Mutex::new(FleetState::default()));
        }
        ShardedState {
            shards,
            cursor: AtomicUsize::new(0),
            lines,
            events,
            exposure_bits,
            vehicles,
        }
    }

    /// Number of shards.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// Hands a parsed segment to one shard. The shard is picked round-
    /// robin; if that shard's lock is held the scan moves on to the next
    /// free one, so concurrent ingests only block when *every* shard is
    /// busy — and then on the original pick, keeping the wait set small.
    pub fn ingest(&self, segment: &FleetState) {
        self.lines.fetch_add(segment.lines(), Ordering::Relaxed);
        self.events.fetch_add(segment.events(), Ordering::Relaxed);
        self.add_exposure(segment.exposure().value());
        let n = self.shards.len();
        let start = self.cursor.fetch_add(1, Ordering::Relaxed) % n;
        let mut shard = (0..n)
            .find_map(|i| self.shards[(start + i) % n].try_lock().ok())
            .unwrap_or_else(|| self.shards[start].lock().expect("shard mutex poisoned"));
        shard.merge_totals(segment);
        // The roster changes while the shard lock is still held, so a
        // read (which holds every shard lock) sees both halves or
        // neither.
        for (vehicle, tally) in segment.vehicles() {
            self.vehicles.add(vehicle, tally);
        }
    }

    /// Locks every shard in ascending index order and merges their
    /// totals with [`fold_states`] — the exact reduce `ingest_str`
    /// applies to its block partials. Returns the guards too, so the
    /// caller can read the registry before any ingest resumes.
    fn fold_totals(&self) -> (Vec<MutexGuard<'_, FleetState>>, FleetState) {
        let guards: Vec<MutexGuard<'_, FleetState>> = self
            .shards
            .iter()
            .map(|shard| shard.lock().expect("shard mutex poisoned"))
            .collect();
        let totals = fold_states(guards.iter().map(|guard| &**guard));
        (guards, totals)
    }

    /// A consistent read of the evidence without the roster: the merged
    /// shard ledgers and counters, plus the registry's vehicle count.
    /// Its cost depends on the ledger's size, not the fleet's, which
    /// is what burn-down queries and `/metrics` scrapes use.
    pub fn snapshot(&self) -> LedgerSnapshot {
        let (guards, totals) = self.fold_totals();
        let vehicles = self.vehicles.count();
        drop(guards);
        LedgerSnapshot::from_totals(totals, vehicles)
    }

    /// Folds every shard and the roster into one [`FleetState`],
    /// byte-identical to merging every ingested segment in arrival
    /// order. Holding all shard locks while the roster is assembled
    /// makes the fold consistent (no segment is half-visible). Costs
    /// O(vehicles); checkpoints and the graceful drain need it, reads do
    /// not (see [`ShardedState::snapshot`]).
    pub fn fold(&self) -> FleetState {
        let (_guards, mut state) = self.fold_totals();
        state.set_vehicles(self.vehicles.roster());
        state
    }

    /// Total lines across all ingested segments (including the resumed
    /// checkpoint).
    pub fn lines(&self) -> u64 {
        self.lines.load(Ordering::Relaxed)
    }

    /// Total accepted events across all ingested segments.
    pub fn events(&self) -> u64 {
        self.events.load(Ordering::Relaxed)
    }

    /// Total exposure hours across all ingested segments; agrees with
    /// [`ShardedState::fold`] exactly for dyadic telemetry chunks.
    pub fn exposure_hours(&self) -> f64 {
        f64::from_bits(self.exposure_bits.load(Ordering::Relaxed))
    }

    /// Distinct vehicles seen across all ingested segments.
    pub fn vehicle_count(&self) -> u64 {
        self.vehicles.count()
    }

    fn add_exposure(&self, hours: f64) {
        let mut current = self.exposure_bits.load(Ordering::Relaxed);
        loop {
            let next = (f64::from_bits(current) + hours).to_bits();
            match self.exposure_bits.compare_exchange_weak(
                current,
                next,
                Ordering::Relaxed,
                Ordering::Relaxed,
            ) {
                Ok(_) => return,
                Err(actual) => current = actual,
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qrn_core::examples::{paper_allocation, paper_classification, paper_norm};
    use qrn_core::incident::IncidentRecord;
    use qrn_core::object::{Involvement, ObjectType};
    use qrn_fleet::burndown::burn_down_filtered;
    use qrn_fleet::event::FleetEvent;
    use qrn_fleet::ingest::ingest_str;
    use qrn_units::{Hours, Speed};
    use std::sync::atomic::AtomicBool;
    use std::sync::Arc;

    /// Renders the events as JSONL, stamping each line with one of two
    /// ODD bands so the ledgers carry named context rows too.
    fn to_jsonl(events: &[FleetEvent]) -> String {
        const BANDS: [&str; 2] = ["zone=rural", "zone=urban"];
        let mut out = String::new();
        for (i, event) in events.iter().enumerate() {
            out.push_str(&event.to_line_with_meta(None, Some(BANDS[i % 2])));
            out.push('\n');
        }
        out
    }

    /// A deterministic log of `n` events with dyadic exposure chunks and
    /// periodic VRU collisions, spread over five vehicles.
    fn sample_events(n: usize) -> Vec<FleetEvent> {
        (0..n)
            .map(|i| {
                let vehicle = format!("V{:03}", i % 5);
                if i % 7 == 0 {
                    FleetEvent::Incident {
                        vehicle,
                        record: IncidentRecord::collision(
                            Involvement::ego_with(ObjectType::Vru),
                            Speed::from_kmh(5.0 + (i % 40) as f64).unwrap(),
                        ),
                    }
                } else {
                    FleetEvent::Exposure {
                        vehicle,
                        hours: Hours::new(((i % 13) + 1) as f64 * 0.25).unwrap(),
                    }
                }
            })
            .collect()
    }

    #[test]
    fn resume_state_seeds_shard_zero_and_totals() {
        let classification = paper_classification().unwrap();
        let log = to_jsonl(&sample_events(50));
        let resume = ingest_str(&log, &classification, 2).unwrap();
        let expected_json = serde_json::to_string(&resume).unwrap();

        let state = ShardedState::new(4, resume.clone());
        assert_eq!(state.shard_count(), 4);
        assert_eq!(state.lines(), resume.lines());
        assert_eq!(state.events(), resume.events());
        assert_eq!(state.exposure_hours(), resume.exposure().value());
        assert_eq!(state.vehicle_count(), resume.vehicle_count());
        // An ingest-free fold returns the resumed state byte-identically,
        // its roster now assembled from the registry.
        assert_eq!(serde_json::to_string(&state.fold()).unwrap(), expected_json);
        assert_eq!(state.snapshot(), LedgerSnapshot::from(resume));
    }

    /// The snapshot's consistency argument, exercised: every segment adds
    /// one new vehicle with exactly one event, so a snapshot that counted
    /// a vehicle before merging its evidence (or the reverse) would see
    /// `vehicles != events`.
    #[test]
    fn snapshots_count_exactly_the_vehicles_whose_evidence_they_hold() {
        const WRITERS: usize = 3;
        const SEGMENTS_PER_WRITER: usize = 400;
        const MIN_SNAPSHOTS: usize = 200;
        let classification = paper_classification().unwrap();
        let segments: Vec<Vec<FleetState>> = (0..WRITERS)
            .map(|writer| {
                (0..SEGMENTS_PER_WRITER)
                    .map(|i| {
                        let event = FleetEvent::Exposure {
                            vehicle: format!("W{writer}-{i:04}"),
                            hours: Hours::new(0.25).unwrap(),
                        };
                        ingest_str(&event.to_line(), &classification, 1).unwrap()
                    })
                    .collect()
            })
            .collect();

        let state = Arc::new(ShardedState::new(4, FleetState::default()));
        let writers_done = Arc::new(AtomicBool::new(false));
        let readers: Vec<_> = (0..2)
            .map(|_| {
                let state = Arc::clone(&state);
                let writers_done = Arc::clone(&writers_done);
                std::thread::spawn(move || {
                    let mut taken = 0;
                    while taken < MIN_SNAPSHOTS || !writers_done.load(Ordering::Acquire) {
                        let snapshot = state.snapshot();
                        assert_eq!(snapshot.vehicles, snapshot.events, "snapshot {taken}");
                        assert_eq!(snapshot.lines, snapshot.events, "snapshot {taken}");
                        taken += 1;
                    }
                })
            })
            .collect();
        let writers: Vec<_> = segments
            .into_iter()
            .map(|segments| {
                let state = Arc::clone(&state);
                std::thread::spawn(move || {
                    for segment in &segments {
                        state.ingest(segment);
                    }
                })
            })
            .collect();
        for writer in writers {
            writer.join().unwrap();
        }
        writers_done.store(true, Ordering::Release);
        for reader in readers {
            reader.join().unwrap();
        }
        let total = (WRITERS * SEGMENTS_PER_WRITER) as u64;
        let snapshot = state.snapshot();
        assert_eq!((snapshot.vehicles, snapshot.events), (total, total));
        assert_eq!(state.fold().vehicle_count(), total);
    }

    #[test]
    fn concurrent_ingest_totals_are_exact() {
        let classification = paper_classification().unwrap();
        let segments: Vec<FleetState> = (0..8)
            .map(|i| {
                let events = sample_events(40 + i);
                ingest_str(&to_jsonl(&events), &classification, 2).unwrap()
            })
            .collect();
        let mut reference = FleetState::default();
        for segment in &segments {
            reference.merge(segment);
        }

        let state = Arc::new(ShardedState::new(4, FleetState::default()));
        let handles: Vec<_> = segments
            .into_iter()
            .map(|segment| {
                let state = Arc::clone(&state);
                std::thread::spawn(move || state.ingest(&segment))
            })
            .collect();
        for handle in handles {
            handle.join().unwrap();
        }

        assert_eq!(state.lines(), reference.lines());
        assert_eq!(state.events(), reference.events());
        assert_eq!(state.exposure_hours(), reference.exposure().value());
        assert_eq!(state.vehicle_count(), reference.vehicle_count());
        // The fold has the same bytes as the in-order merge.
        assert_eq!(
            serde_json::to_string(&state.fold()).unwrap(),
            serde_json::to_string(&reference).unwrap()
        );
    }

    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// The sharding contract, machine-checked: for any event log with
        /// dyadic exposure chunks, any segmentation, and any shard count,
        /// routing the segments across shards and folding — ledgers from
        /// the shards, roster from the registry — is byte-identical to
        /// one-shot offline `ingest_str` of the whole log, and the report
        /// of the ledger-only snapshot is byte-identical to the offline
        /// report. The round-robin cursor plus `try_lock` scan means the
        /// actual shard each segment lands in is scheduler-dependent —
        /// the property holds regardless, which is the whole point.
        #[test]
        fn any_sharding_folds_byte_identical_to_one_shot_ingest(
            event_count in 1usize..300,
            cut_permilles in proptest::collection::vec(0usize..=1000, 0..6),
            shard_count in 1usize..9,
            parse_shards in 1usize..5,
        ) {
            let classification = paper_classification().unwrap();
            let log = to_jsonl(&sample_events(event_count));
            let whole = ingest_str(&log, &classification, parse_shards).unwrap();

            // Split the log at the requested permille marks into
            // contiguous segments (empty segments allowed).
            let lines: Vec<&str> = log.lines().collect();
            let mut cuts: Vec<usize> = cut_permilles
                .iter()
                .map(|p| lines.len() * p / 1000)
                .collect();
            cuts.sort_unstable();
            let mut segments = Vec::new();
            let mut prev = 0;
            for cut in cuts.into_iter().chain(std::iter::once(lines.len())) {
                segments.push(lines[prev..cut].join("\n"));
                prev = cut;
            }

            let state = ShardedState::new(shard_count, FleetState::default());
            for segment in &segments {
                let parsed = ingest_str(segment, &classification, parse_shards).unwrap();
                state.ingest(&parsed);
            }

            prop_assert_eq!(
                serde_json::to_string(&state.fold()).unwrap(),
                serde_json::to_string(&whole).unwrap()
            );
            let norm = paper_norm().unwrap();
            let allocation = paper_allocation(&classification).unwrap();
            let config = BurnDownConfig { by_zone: true, ..BurnDownConfig::default() };
            let filter = ContextFilter::all();
            let live = state.snapshot().report(&norm, &allocation, &config, &filter).unwrap();
            let offline = burn_down_filtered(&norm, &allocation, &whole, &config, &filter).unwrap();
            prop_assert_eq!(live.to_canonical_json(), offline.to_canonical_json());
            prop_assert_eq!(state.lines(), whole.lines());
            prop_assert_eq!(state.events(), whole.events());
            prop_assert_eq!(state.exposure_hours(), whole.exposure().value());
            prop_assert_eq!(state.vehicle_count(), whole.vehicle_count());
        }
    }
}
