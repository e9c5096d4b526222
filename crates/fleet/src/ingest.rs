//! Sharded streaming ingestion: JSONL event log → [`FleetState`].
//!
//! # Execution model
//!
//! The log's lines are split into fixed-size *blocks* of consecutive line
//! indices, and worker shards claim blocks from a shared atomic counter —
//! the same work-stealing queue as `qrn-sim`'s campaign engine, with no
//! per-shard striping: a shard that draws cheap (blank, short) lines
//! simply claims more blocks. The calling thread is one of the shards and
//! spawns only the rest, so a log of at most one block spawns no thread.
//! Each block is parsed, classified and folded into a `ShardAccumulator`
//! partial; after the queue drains, partials are merged **in ascending
//! block order**. Because the block partition depends only on the line
//! count (never on the shard count or scheduling), the merged
//! [`FleetState`] — including its floating-point exposure sums — is
//! byte-identical for any number of shards.
//!
//! Within a block, exposure goes into the ledger once per row, not once
//! per line. The accumulator keeps a block-local table of the ODD-band
//! context keys its lines carry, looked up by the key's bytes (a linear
//! scan, then a hashed index past 16 keys). A key is checked against
//! the canonical grammar the first time the block sees it, and a key
//! that fails sends its line to the tolerant parser. Each row's exposure,
//! and the global row's, is summed in line order from `0.0` and written
//! into the block's ledger when the block ends; `0 + x = x`, so every
//! row holds the bits a per-line add leaves.
//!
//! Memory is O(vehicles + incident types + shards·block): raw events are
//! never materialised for the whole log, so a log of a billion lines
//! streams through a fixed-size working set per shard.

use std::borrow::Cow;
use std::collections::{BTreeMap, HashMap};
use std::sync::atomic::{AtomicU64, Ordering};

use serde::{Deserialize, Serialize};

use qrn_core::incident::{IncidentRecord, IncidentTypeId};
use qrn_core::verification::MeasuredIncidents;
use qrn_core::IncidentClassification;
use qrn_odd::key::is_canonical_key;
use qrn_stats::evidence::EvidenceLedger;
use qrn_units::Hours;

use crate::error::FleetError;
use crate::event::fastpath::{self, FastEvent, ScratchParser};
use crate::event::{parse_line_with_meta, SkipCounts};

/// Lines per work-queue block. Large enough to amortise the atomic claim
/// over real parsing work, small enough that short logs still spread over
/// several blocks.
const LINES_PER_BLOCK: usize = 512;

/// Per-vehicle running state.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct VehicleState {
    /// Operating hours this vehicle reported.
    pub exposure_hours: f64,
    /// Raw incident observations this vehicle reported (classified or
    /// not).
    pub observations: u64,
}

impl VehicleState {
    /// Adds a later tally of the same vehicle: exposure hours and
    /// observation counts both sum.
    pub fn absorb(&mut self, later: &VehicleState) {
        self.exposure_hours += later.exposure_hours;
        self.observations += later.observations;
    }
}

/// The live, mergeable state of fleet evidence: everything the burn-down
/// tracker needs, nothing per-event.
///
/// The statistical payload — exposure and classified incident counts — is
/// an [`EvidenceLedger`], the same evidence currency `qrn-sim` campaigns
/// emit. Fleet observations enter as unit-weight (weight-1.0) evidence in
/// the ledger's global row, so a fleet state merges losslessly with
/// weighted design-time campaign ledgers. Around the ledger the state
/// keeps the operational bookkeeping a ledger has no business knowing:
/// per-vehicle tallies, line/event counts and skip tallies of the
/// underlying log.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct FleetState {
    /// All statistical evidence: exposure and per-type incident counts,
    /// unit-weight, in the ledger's global context.
    evidence: EvidenceLedger,
    /// Per-vehicle state, in vehicle-id order.
    vehicles: BTreeMap<String, VehicleState>,
    /// Lines seen (including blank and skipped).
    lines: u64,
    /// Events successfully parsed.
    events: u64,
    /// Skipped-line tallies, by reason.
    skipped: SkipCounts,
}

impl FleetState {
    /// Total fleet exposure.
    pub fn exposure(&self) -> Hours {
        Hours::new(self.evidence.exposure()).expect("accumulated exposure is non-negative")
    }

    /// The classified count of one incident type (zero when never seen).
    pub fn count(&self, id: &IncidentTypeId) -> u64 {
        self.evidence.count(id.as_str()).observations()
    }

    /// Classified counts per incident type, in id order.
    pub fn counts(&self) -> impl Iterator<Item = (IncidentTypeId, u64)> + '_ {
        self.evidence.kinds().into_iter().map(|kind| {
            (
                IncidentTypeId::from(kind),
                self.evidence.count(kind).observations(),
            )
        })
    }

    /// Raw observations that were not incidents under the classification.
    pub fn unclassified(&self) -> u64 {
        self.evidence.unclassified().observations()
    }

    /// The state's statistical evidence as an [`EvidenceLedger`] — the
    /// mergeable currency shared with `qrn-sim` campaign results. Fleet
    /// evidence lives in the ledger's global context at unit weight.
    pub fn evidence(&self) -> &EvidenceLedger {
        &self.evidence
    }

    /// Merges another state into this one (checkpointed incremental
    /// ingest: the fold over log segments). Associative and commutative in
    /// the integer tallies; exposure sums are floats, so byte-identical
    /// resume guarantees hold for *append-order* merges, which is how
    /// segment ingestion uses it.
    ///
    /// The merge is [`FleetState::merge_totals`] followed by a
    /// per-vehicle add for each of `later`'s vehicles; callers that keep
    /// the roster elsewhere (the live server's vehicle registry) merge
    /// totals only and hand the roster over with
    /// [`FleetState::take_vehicles`] / [`FleetState::set_vehicles`].
    pub fn merge(&mut self, later: &FleetState) {
        self.merge_totals(later);
        for (vehicle, tally) in &later.vehicles {
            self.vehicle_entry(vehicle).absorb(tally);
        }
    }

    /// Merges everything but the roster: the evidence ledger, line and
    /// event counts and skip tallies. A state only ever built this way
    /// holds no vehicles.
    pub fn merge_totals(&mut self, later: &FleetState) {
        self.evidence.merge(&later.evidence);
        self.lines += later.lines;
        self.events += later.events;
        self.skipped.merge(&later.skipped);
    }

    /// Moves the roster out, leaving this state with no vehicles.
    pub fn take_vehicles(&mut self) -> BTreeMap<String, VehicleState> {
        std::mem::take(&mut self.vehicles)
    }

    /// Replaces the roster: the inverse of
    /// [`FleetState::take_vehicles`].
    pub fn set_vehicles(&mut self, roster: BTreeMap<String, VehicleState>) {
        self.vehicles = roster;
    }

    /// Consumes the state, keeping only its evidence ledger.
    pub fn into_evidence(self) -> EvidenceLedger {
        self.evidence
    }

    /// Looks up a vehicle's state without cloning the id, interning (and
    /// allocating) the key only on first sight of a new vehicle — the hot
    /// path for a known vehicle performs zero allocations.
    fn vehicle_entry(&mut self, vehicle: &str) -> &mut VehicleState {
        if !self.vehicles.contains_key(vehicle) {
            self.vehicles
                .insert(vehicle.to_string(), VehicleState::default());
        }
        self.vehicles
            .get_mut(vehicle)
            .expect("vehicle was just ensured")
    }

    /// Folds one incident observation, classifying against
    /// `classification`. A context-stamped incident counts in the global
    /// row and in its band's refinement row.
    fn fold_incident(
        &mut self,
        vehicle: &str,
        record: &IncidentRecord,
        classification: &IncidentClassification,
        ctx: Option<&str>,
    ) {
        self.vehicle_entry(vehicle).observations += 1;
        match classification.classify(record) {
            Some(leaf) => {
                self.evidence.add_incident(None, leaf.id().as_str(), 1.0);
                if let Some(ctx) = ctx {
                    self.evidence
                        .add_incident(Some(ctx), leaf.id().as_str(), 1.0);
                }
            }
            None => {
                self.evidence.add_unclassified(None, 1.0);
                if let Some(ctx) = ctx {
                    self.evidence.add_unclassified(Some(ctx), 1.0);
                }
            }
        }
    }

    /// Number of distinct vehicles that reported at least one event.
    pub fn vehicle_count(&self) -> u64 {
        self.vehicles.len() as u64
    }

    /// Per-vehicle state, in vehicle-id order.
    pub fn vehicles(&self) -> impl Iterator<Item = (&str, &VehicleState)> {
        self.vehicles.iter().map(|(id, v)| (id.as_str(), v))
    }

    /// Lines seen, including blank and skipped ones.
    pub fn lines(&self) -> u64 {
        self.lines
    }

    /// Events successfully parsed.
    pub fn events(&self) -> u64 {
        self.events
    }

    /// Skipped-line tallies.
    pub fn skipped(&self) -> SkipCounts {
        self.skipped
    }

    /// The state's counts and exposure as a [`MeasuredIncidents`], the
    /// integer-count interface of `qrn_core::verification`. Prefer
    /// [`FleetState::evidence`] with
    /// [`verify_evidence`](qrn_core::verification::verify_evidence) when
    /// merging with weighted campaign ledgers.
    pub fn measured(&self) -> MeasuredIncidents {
        let counts: BTreeMap<IncidentTypeId, u64> = self.counts().collect();
        MeasuredIncidents::new(counts, self.exposure())
    }
}

/// Folds a sequence of partial [`FleetState`]s into one, merging in
/// **iteration order** — bit for bit the reduce [`ingest_str`] applies
/// to its per-block partials (it starts from its first partial instead
/// of an empty state, which `0 + x = x` makes equal), exposed so other
/// layers (checkpointed segment ingest, the sharded live server's
/// cross-shard fold) perform the same fold and inherit the same
/// determinism argument.
///
/// Integer tallies merge associatively and commutatively without
/// qualification. The floating-point exposure sums are exact — and the
/// fold therefore independent of grouping *and* order, byte for byte —
/// whenever the summands are dyadic rationals of bounded magnitude, which
/// is what the telemetry layer emits (bounded chunks in multiples of
/// 0.25 h). For arbitrary floats the fold is still deterministic for a
/// fixed iteration order, which is why every caller fixes one (block
/// index, segment arrival, shard index).
pub fn fold_states<I>(states: I) -> FleetState
where
    I: IntoIterator,
    I::Item: std::borrow::Borrow<FleetState>,
{
    use std::borrow::Borrow;
    let mut merged = FleetState::default();
    for state in states {
        merged.merge(state.borrow());
    }
    merged
}

/// Distinct context keys a block's table scans linearly; past this many
/// it switches to a hashed index. A banded upload carries one key per
/// vehicle, a handful per block.
const LINEAR_CONTEXTS: usize = 16;

/// One block's partial state: the ledger, roster and tallies folded so
/// far, plus the exposure sums of the ledger rows the block touches,
/// which are written into the ledger once, when the block ends.
#[derive(Debug, Default)]
struct ShardAccumulator<'t> {
    state: FleetState,
    /// The global row's exposure sum, once an exposure line was folded.
    global: Option<f64>,
    contexts: ContextTable<'t>,
}

/// The named context rows one block touches, each with its exposure sum
/// in line order, keyed by the bytes of its canonical ODD-band key.
#[derive(Debug, Default)]
struct ContextTable<'t> {
    /// Rows in first-sight order.
    rows: Vec<ContextRow<'t>>,
    /// Key → row, filled once the block holds more than
    /// `LINEAR_CONTEXTS` keys.
    index: HashMap<Cow<'t, str>, usize>,
}

#[derive(Debug)]
struct ContextRow<'t> {
    /// Borrowed from the line for the fast path, owned for a key the
    /// tolerant parser decoded.
    key: Cow<'t, str>,
    exposure: f64,
}

impl<'t> ContextTable<'t> {
    /// The row of `key`, or `None` when `key` is not a canonical context
    /// key. A key is checked with [`is_canonical_key`] only the first
    /// time the block sees it: whether a key is canonical depends on its
    /// bytes alone, so a key that is in the table passed.
    fn row(&mut self, key: Cow<'t, str>) -> Option<&mut ContextRow<'t>> {
        let hit = if self.rows.len() <= LINEAR_CONTEXTS {
            self.rows.iter().position(|row| row.key == key)
        } else {
            self.index.get(&*key).copied()
        };
        let at = match hit {
            Some(at) => at,
            None => {
                if !is_canonical_key(&key) {
                    return None;
                }
                self.rows.push(ContextRow { key, exposure: 0.0 });
                if self.rows.len() > LINEAR_CONTEXTS {
                    // Every row when the table first outgrows the scan,
                    // only the new one after.
                    for (at, row) in self.rows.iter().enumerate().skip(self.index.len()) {
                        self.index.insert(row.key.clone(), at);
                    }
                }
                self.rows.len() - 1
            }
        };
        Some(&mut self.rows[at])
    }
}

impl<'t> ShardAccumulator<'t> {
    /// Folds one line, in line order within the block. Canonical lines
    /// take the zero-allocation fast path — the vehicle id and the
    /// context key borrow from the input all the way into the lookups —
    /// and everything else goes through the tolerant fallback with
    /// identical semantics: a line whose context key is not canonical
    /// falls back exactly as under [`fastpath::try_parse_strict`].
    fn absorb_line(&mut self, line: &'t str, classification: &IncidentClassification) {
        self.state.lines += 1;
        let line = line.trim();
        if line.is_empty() {
            return;
        }
        if let Some((event, _seq, ctx)) = fastpath::scan_canonical(line) {
            if self.fold(event, ctx.map(Cow::Borrowed), classification) {
                return;
            }
        }
        match parse_line_with_meta(line) {
            Ok(None) => {}
            Ok(Some((event, _seq, ctx))) => {
                let folded = self.fold((&event).into(), ctx.map(Cow::Owned), classification);
                assert!(folded, "the tolerant parser returns canonical keys only");
            }
            Err(reason) => self.state.skipped.count(reason),
        }
    }

    /// Folds one event. Context-stamped events are double-entry: the
    /// global row keeps the fleet total (so ctx-less consumers see
    /// unchanged sums) and the named row attributes the same hours or
    /// incident to its ODD band. Returns `false`, folding nothing, when
    /// `ctx` is not a canonical key.
    fn fold(
        &mut self,
        event: FastEvent<'_>,
        ctx: Option<Cow<'t, str>>,
        classification: &IncidentClassification,
    ) -> bool {
        let row = match ctx {
            None => None,
            Some(key) => match self.contexts.row(key) {
                Some(row) => Some(row),
                None => return false,
            },
        };
        let state = &mut self.state;
        state.events += 1;
        match event {
            FastEvent::Exposure { vehicle, hours } => {
                let hours = hours.value();
                *self.global.get_or_insert(0.0) += hours;
                if let Some(row) = row {
                    row.exposure += hours;
                }
                state.vehicle_entry(vehicle).exposure_hours += hours;
            }
            FastEvent::Incident { vehicle, record } => {
                let ctx = row.map(|row| &*row.key);
                state.fold_incident(vehicle, &record, classification, ctx);
            }
        }
        true
    }

    /// Writes each touched row's exposure sum into the block's ledger.
    /// Every sum ran in line order from `0.0` and lands on a row whose
    /// exposure is still `0.0`, and `0 + x = x`: each row holds the bits
    /// a per-line add would have left, and the block touches the same
    /// rows. A sum of finite hours can round to `+inf`, as the per-line
    /// adds could, so only their sign is checked.
    fn finish(self) -> FleetState {
        let mut state = self.state;
        if let Some(hours) = self.global {
            state.evidence.add_exposure_sum(None, hours);
        }
        for row in self.contexts.rows {
            state
                .evidence
                .add_exposure_sum(Some(&row.key), row.exposure);
        }
        state
    }
}

/// Ingests a JSONL event log on `shards` parallel shards, classifying
/// incident records against `classification`. The calling thread counts
/// as one of the shards; at most `shards - 1` helper threads are spawned,
/// and none for a log of at most 512 lines.
///
/// The shard count never affects the resulting state — only wall-clock
/// time — and the result is byte-identical (including floating-point
/// exposure sums) for any shard count.
///
/// # Errors
///
/// Returns [`FleetError::InvalidConfig`] for zero shards. Malformed lines
/// are not errors; they are skipped and counted in
/// [`FleetState::skipped`].
pub fn ingest_str(
    text: &str,
    classification: &IncidentClassification,
    shards: usize,
) -> Result<FleetState, FleetError> {
    SPLIT_SCRATCH.with(|scratch| {
        ingest_str_with_scratch(text, classification, shards, &mut scratch.borrow_mut())
    })
}

thread_local! {
    /// Per-thread splitter scratch for [`ingest_str`], reused across
    /// segments so steady-state callers in a loop (the serve workers, the
    /// store writer thread, replay) stop allocating a fresh line table
    /// per segment.
    static SPLIT_SCRATCH: std::cell::RefCell<ScratchParser> =
        std::cell::RefCell::new(ScratchParser::new());
}

/// Like [`ingest_str`] with an explicit, caller-owned [`ScratchParser`] —
/// for callers that manage per-worker scratch reuse themselves instead of
/// relying on the thread-local.
pub fn ingest_str_with_scratch(
    text: &str,
    classification: &IncidentClassification,
    shards: usize,
    scratch: &mut ScratchParser,
) -> Result<FleetState, FleetError> {
    if shards == 0 {
        return Err(FleetError::InvalidConfig(
            "ingestion needs at least one shard".into(),
        ));
    }
    // Line spans are computed from `text.lines()` itself, so the block
    // partition by line index — and with it the float fold grouping — is
    // exactly what collecting `Vec<&str>` produced before.
    let spans = scratch.split_lines(text);
    let blocks = spans.len().div_ceil(LINES_PER_BLOCK).max(1) as u64;

    let queue = AtomicU64::new(0);
    let claim_blocks = || {
        let mut local = Vec::new();
        loop {
            let block = queue.fetch_add(1, Ordering::Relaxed);
            if block >= blocks {
                break;
            }
            let first = block as usize * LINES_PER_BLOCK;
            let last = (first + LINES_PER_BLOCK).min(spans.len());
            let mut acc = ShardAccumulator::default();
            for &(start, end) in &spans[first..last] {
                acc.absorb_line(&text[start..end], classification);
            }
            local.push((block, acc.finish()));
        }
        local
    };
    // The caller is one of the workers: a one-block log spawns no thread.
    let workers = shards.min(blocks as usize);
    let mut partials: Vec<(u64, FleetState)> = std::thread::scope(|scope| {
        let helpers: Vec<_> = (1..workers).map(|_| scope.spawn(claim_blocks)).collect();
        let mut partials = claim_blocks();
        for helper in helpers {
            partials.extend(helper.join().expect("ingest shard panicked"));
        }
        partials
    });

    // The reduce: ascending block order restores the sequential fold
    // regardless of which worker parsed which block. It starts from the
    // first block's own partial rather than merging it into an empty
    // state: every tally is a non-negative sum from zero, so
    // `0 + x = x` makes the two bit-identical.
    partials.sort_unstable_by_key(|(block, _)| *block);
    let mut states = partials.into_iter().map(|(_, state)| state);
    let mut merged = states.next().unwrap_or_default();
    for state in states {
        merged.merge(&state);
    }
    Ok(merged)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::fastpath::ParsedLine;
    use crate::event::{to_jsonl, FleetEvent};
    use qrn_core::examples::paper_classification;
    use qrn_core::incident::IncidentRecord;
    use qrn_core::object::{Involvement, ObjectType};
    use qrn_units::Speed;

    fn sample_log(vehicles: usize, lines_per_vehicle: usize) -> String {
        let mut events = Vec::new();
        for i in 0..lines_per_vehicle {
            for v in 0..vehicles {
                let vehicle = format!("V{v:04}");
                if i % 7 == 3 {
                    events.push(FleetEvent::Incident {
                        vehicle,
                        record: IncidentRecord::collision(
                            Involvement::ego_with(ObjectType::Vru),
                            Speed::from_kmh(5.0 + (i % 60) as f64).unwrap(),
                        ),
                    });
                } else {
                    events.push(FleetEvent::Exposure {
                        vehicle,
                        hours: Hours::new(0.25 + (i % 5) as f64).unwrap(),
                    });
                }
            }
        }
        to_jsonl(&events)
    }

    #[test]
    fn ingest_matches_sequential_reference() {
        let classification = paper_classification().unwrap();
        let log = sample_log(5, 400); // 2000 lines: several blocks
        let state = ingest_str(&log, &classification, 3).unwrap();

        let (events, skipped) = crate::event::parse_jsonl(&log);
        assert_eq!(skipped.total(), 0);
        let mut exposure = 0.0;
        let mut incidents = 0u64;
        for event in &events {
            match event {
                FleetEvent::Exposure { hours, .. } => exposure += hours.value(),
                FleetEvent::Incident { .. } => incidents += 1,
            }
        }
        assert_eq!(state.events(), events.len() as u64);
        assert_eq!(state.lines(), log.lines().count() as u64);
        assert_eq!(state.vehicle_count(), 5);
        let classified: u64 = state.counts().map(|(_, n)| n).sum();
        assert_eq!(classified + state.unclassified(), incidents);
        // The engine sums per block and merges in block order; that float
        // grouping differs from a flat left-to-right sum, so compare to
        // tolerance here. Bit-identity is guaranteed (and asserted below)
        // across shard counts, where the block grouping is unchanged.
        assert!((state.exposure().value() - exposure).abs() < 1e-9 * exposure);
    }

    #[test]
    fn state_is_bit_identical_for_any_shard_count() {
        let classification = paper_classification().unwrap();
        let log = sample_log(7, 300);
        let reference = ingest_str(&log, &classification, 1).unwrap();
        for shards in [2, 5, 8, 64] {
            let other = ingest_str(&log, &classification, shards).unwrap();
            assert_eq!(reference, other, "shards={shards}");
            assert_eq!(
                reference.exposure().value().to_bits(),
                other.exposure().value().to_bits(),
                "shards={shards}"
            );
            assert_eq!(
                serde_json::to_string(&reference).unwrap(),
                serde_json::to_string(&other).unwrap(),
                "shards={shards}"
            );
        }
    }

    /// A ctx-stamped log of exactly `n` lines with dyadic exposure
    /// chunks: an incident every 29th line, a non-canonical (spaced)
    /// line for the tolerant parser every 41st, a corrupt line every 97th.
    fn boundary_log(n: usize) -> String {
        const BANDS: [&str; 3] = [
            "weather=clear,zone=rural",
            "weather=clear,zone=urban",
            "weather=fog,zone=urban",
        ];
        let mut log = String::new();
        for i in 1..=n {
            let vehicle = format!("V{:03}", i % 11);
            let band = Some(BANDS[i % BANDS.len()]);
            let line = if i % 97 == 0 {
                "{corrupt".to_string()
            } else if i % 29 == 0 {
                let record = IncidentRecord::collision(
                    Involvement::ego_with(ObjectType::Vru),
                    Speed::from_kmh(5.0 + (i % 60) as f64).unwrap(),
                );
                FleetEvent::Incident { vehicle, record }.to_line_with_meta(None, band)
            } else {
                let hours = Hours::new(0.25 * (1 + i % 9) as f64).unwrap();
                let line = FleetEvent::Exposure { vehicle, hours }.to_line_with_meta(None, band);
                if i % 41 == 0 {
                    line.replacen("\"hours\":", "\"hours\": ", 1)
                } else {
                    line
                }
            };
            log.push_str(&line);
            log.push('\n');
        }
        log
    }

    /// Pins both sides of the one-block / many-block boundary: a log of
    /// at most `LINES_PER_BLOCK` lines is parsed by the calling thread
    /// alone, a longer one spreads over helpers, and either way every
    /// shard count yields the bytes of shard count 1.
    #[test]
    fn block_boundary_logs_are_byte_identical_for_any_shard_count() {
        let classification = paper_classification().unwrap();
        for n in [0, 1, 511, 512, 513, 1024, 1025] {
            let log = boundary_log(n);
            let reference = ingest_str(&log, &classification, 1).unwrap();
            assert_eq!(reference.lines(), n as u64);
            let bytes = serde_json::to_string(&reference).unwrap();
            for shards in 2..=8 {
                let other = ingest_str(&log, &classification, shards).unwrap();
                assert_eq!(
                    serde_json::to_string(&other).unwrap(),
                    bytes,
                    "lines={n} shards={shards}"
                );
            }
        }
        // The inputs reach the tolerant parser, the skip tally and the
        // classifier, not only the fast path.
        let log = boundary_log(1025);
        assert!(log
            .lines()
            .any(|line| matches!(fastpath::parse_line_hybrid(line), ParsedLine::Owned(..))));
        let state = ingest_str(&log, &classification, 1).unwrap();
        assert_eq!(state.skipped().bad_json, 10);
        assert!(state.counts().map(|(_, n)| n).sum::<u64>() + state.unclassified() > 0);
    }

    #[test]
    fn dirty_lines_do_not_poison_the_rest() {
        let classification = paper_classification().unwrap();
        let mut log = sample_log(2, 50);
        log.push_str("{corrupt\n");
        log.push_str(&sample_log(2, 50));
        let state = ingest_str(&log, &classification, 4).unwrap();
        assert_eq!(state.skipped().bad_json, 1);
        assert_eq!(state.events(), 200);
    }

    /// A ctx-less (schema v1) log must leave no trace of context
    /// attribution: the ledger carries only the global row, so the
    /// serialized state is byte-identical to what the pre-context
    /// ingester produced.
    #[test]
    fn ctx_less_logs_fold_only_the_global_ledger_row() {
        let classification = paper_classification().unwrap();
        let log = sample_log(3, 100);
        let state = ingest_str(&log, &classification, 4).unwrap();
        assert_eq!(state.evidence().named_contexts().count(), 0);
        assert!((state.evidence().exposure() - state.exposure().value()).abs() < 1e-12);
    }

    /// Ctx-stamped lines fold double-entry: the global row keeps the
    /// fleet total while each canonical key accumulates its own
    /// refinement row, and the named rows partition the total exactly
    /// (the MECE invariant — exposures are 0.25 h multiples, so the
    /// dyadic sums are bit-exact).
    #[test]
    fn ctx_stamped_lines_fold_named_ledger_rows() {
        let classification = paper_classification().unwrap();
        let bands = ["weather=clear,zone=urban", "weather=fog,zone=urban"];
        let mut log = String::new();
        let mut per_band = [0.0f64; 2];
        for i in 0..40 {
            let band = i % 2;
            let event = FleetEvent::Exposure {
                vehicle: format!("V{:04}", i % 4),
                hours: Hours::new(0.25 * (1 + i % 3) as f64).unwrap(),
            };
            per_band[band] += 0.25 * (1 + i % 3) as f64;
            log.push_str(&event.to_line_with_meta(None, Some(bands[band])));
            log.push('\n');
        }
        let incident = FleetEvent::Incident {
            vehicle: "V0000".into(),
            record: IncidentRecord::collision(
                Involvement::ego_with(ObjectType::Vru),
                Speed::from_kmh(30.0).unwrap(),
            ),
        };
        log.push_str(&incident.to_line_with_meta(None, Some(bands[1])));
        log.push('\n');

        for shards in [1, 4] {
            let state = ingest_str(&log, &classification, shards).unwrap();
            let named: Vec<&str> = state.evidence().named_contexts().map(|(n, _)| n).collect();
            assert_eq!(named, bands.to_vec(), "shards={shards}");
            for (band, expected) in bands.iter().zip(per_band) {
                assert_eq!(state.evidence().exposure_in(band), expected);
            }
            // double entry: the global row still carries the fleet total,
            // and the named rows sum to it exactly
            let total: f64 = bands.iter().map(|b| state.evidence().exposure_in(b)).sum();
            assert_eq!(state.evidence().exposure(), total);
            assert_eq!(state.exposure().value(), total);
            // the incident lands in the global row and its band row
            let kind = state
                .evidence()
                .kinds()
                .first()
                .copied()
                .unwrap()
                .to_string();
            assert_eq!(state.evidence().count(&kind).total(), 1.0);
            assert_eq!(state.evidence().count_in(bands[1], &kind).total(), 1.0);
            assert_eq!(state.evidence().count_in(bands[0], &kind).total(), 0.0);
        }
    }

    #[test]
    fn zero_shards_is_an_error() {
        let classification = paper_classification().unwrap();
        assert!(ingest_str("", &classification, 0).is_err());
    }

    #[test]
    fn empty_log_ingests_to_empty_state() {
        let classification = paper_classification().unwrap();
        let state = ingest_str("", &classification, 8).unwrap();
        assert_eq!(state.lines(), 0);
        assert_eq!(state.events(), 0);
        assert_eq!(state.exposure(), Hours::ZERO);
        assert_eq!(state.vehicle_count(), 0);
    }

    #[test]
    fn merged_segments_equal_one_shot_ingest() {
        let classification = paper_classification().unwrap();
        let log = sample_log(4, 200);
        let whole = ingest_str(&log, &classification, 3).unwrap();

        let lines: Vec<&str> = log.lines().collect();
        let cut = lines.len() / 3;
        let (first, rest) = (lines[..cut].join("\n"), lines[cut..].join("\n"));
        let mut merged = ingest_str(&first, &classification, 2).unwrap();
        merged.merge(&ingest_str(&rest, &classification, 5).unwrap());

        assert_eq!(merged.events(), whole.events());
        assert_eq!(merged.vehicle_count(), whole.vehicle_count());
        for (id, n) in whole.counts() {
            assert_eq!(merged.count(&id), n, "{id}");
        }
        // Exposure grouping differs (blocks are per segment), so compare
        // to tolerance here; byte-identity under segmenting is proven with
        // grouping-insensitive (dyadic) hours below.
        let expected = whole.exposure().value();
        assert!((merged.exposure().value() - expected).abs() < 1e-9 * expected);
    }

    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Checkpointed incremental ingest must be lossless: splitting a
        /// log into segments, ingesting each and merging in order yields
        /// the same state — byte-identically — as ingesting the whole log
        /// at once. Hours are dyadic (multiples of 0.25) so every float
        /// sum is exact and the block re-grouping cannot round
        /// differently.
        #[test]
        fn segmented_ingest_is_byte_identical(
            quarter_hours in proptest::collection::vec(1u32..200, 1..600),
            incident_stride in 2usize..9,
            cut_permille in 0usize..=1000,
            shards_a in 1usize..6,
            shards_b in 1usize..6,
        ) {
            let classification = paper_classification().unwrap();
            let mut events = Vec::new();
            for (i, q) in quarter_hours.iter().enumerate() {
                let vehicle = format!("V{:03}", i % 5);
                if i % incident_stride == 0 {
                    events.push(FleetEvent::Incident {
                        vehicle,
                        record: IncidentRecord::collision(
                            Involvement::ego_with(ObjectType::Vru),
                            Speed::from_kmh(5.0 + (i % 50) as f64).unwrap(),
                        ),
                    });
                } else {
                    events.push(FleetEvent::Exposure {
                        vehicle,
                        hours: Hours::new(*q as f64 * 0.25).unwrap(),
                    });
                }
            }
            let log = to_jsonl(&events);
            let whole = ingest_str(&log, &classification, shards_a).unwrap();

            let lines: Vec<&str> = log.lines().collect();
            let cut = lines.len() * cut_permille / 1000;
            let first = lines[..cut].join("\n");
            let rest = lines[cut..].join("\n");
            let mut merged = ingest_str(&first, &classification, shards_b).unwrap();
            merged.merge(&ingest_str(&rest, &classification, shards_a).unwrap());

            prop_assert_eq!(&merged, &whole);
            prop_assert_eq!(
                serde_json::to_string(&merged).unwrap(),
                serde_json::to_string(&whole).unwrap()
            );
        }
    }

    /// The per-line fold the block context table replaced: each line
    /// parsed by the tolerant parser alone and each event added to the
    /// ledger rows on its own, in blocks of `LINES_PER_BLOCK` lines
    /// merged in block order.
    fn reference_fold(text: &str, classification: &IncidentClassification) -> FleetState {
        let lines: Vec<&str> = text.lines().collect();
        let mut blocks = lines.chunks(LINES_PER_BLOCK).map(|block| {
            let mut s = FleetState::default();
            for line in block {
                s.lines += 1;
                let (event, ctx) = match parse_line_with_meta(line) {
                    Ok(Some((event, _seq, ctx))) => (event, ctx),
                    Ok(None) => continue,
                    Err(reason) => {
                        s.skipped.count(reason);
                        continue;
                    }
                };
                s.events += 1;
                let rows = [None, ctx.as_deref()];
                let rows = &rows[..if ctx.is_some() { 2 } else { 1 }];
                match event {
                    FleetEvent::Exposure { vehicle, hours } => {
                        for &row in rows {
                            s.evidence.add_exposure(row, hours.value());
                        }
                        s.vehicle_entry(&vehicle).exposure_hours += hours.value();
                    }
                    FleetEvent::Incident { vehicle, record } => {
                        s.vehicle_entry(&vehicle).observations += 1;
                        let leaf = classification.classify(&record);
                        for &row in rows {
                            match leaf {
                                Some(leaf) => s.evidence.add_incident(row, leaf.id().as_str(), 1.0),
                                None => s.evidence.add_unclassified(row, 1.0),
                            }
                        }
                    }
                }
            }
            s
        });
        let mut merged = blocks.next().unwrap_or_default();
        for block in blocks {
            merged.merge(&block);
        }
        merged
    }

    /// Keys outside the canonical grammar: dimensions out of order, an
    /// empty key, an upper-case dimension, a pair without `=`.
    const INVALID_KEYS: [&str; 4] = ["zone=urban,lighting=day", "", "Zone=urban", "zone"];

    /// One line of a fold-differential log. `shape` picks the form:
    /// canonical ctx-stamped or ctx-less exposure, canonical incident,
    /// the same key in a tolerant form (a space in the line, an escaped
    /// `=` in the key, a spaced incident), an invalid or non-string key,
    /// a blank or a corrupt line.
    fn fold_line(shape: u8, key: &str, vehicle: usize, hours: f64, speed: u32) -> String {
        let vehicle = format!("V{vehicle:02}");
        let exposure = FleetEvent::Exposure {
            vehicle: vehicle.clone(),
            hours: Hours::new(hours).unwrap(),
        };
        let incident = FleetEvent::Incident {
            vehicle,
            record: IncidentRecord::collision(
                Involvement::ego_with(ObjectType::Vru),
                Speed::from_kmh(f64::from(speed)).unwrap(),
            ),
        };
        let stamped = exposure.to_line_with_meta(None, Some(key));
        match shape {
            0..=3 => stamped,
            4 => exposure.to_line(),
            5 => incident.to_line_with_meta(None, Some(key)),
            6 => stamped.replacen("\"hours\":", "\"hours\": ", 1),
            7 => stamped.replacen('=', "\\u003d", 1),
            8 => incident.to_line_with_meta(None, Some(key)).replacen(
                "\"record\":",
                "\"record\": ",
                1,
            ),
            9 => exposure.to_line_with_meta(None, Some(INVALID_KEYS[speed as usize % 4])),
            10 => stamped.replacen(&format!("\"{key}\""), "7", 1),
            11 => " ".repeat(speed as usize % 3),
            _ => "{corrupt".to_string(),
        }
    }

    /// Asserts `ingest_str` at 1–8 shards gives the reference fold's
    /// serde bytes.
    fn assert_fold_matches_reference(log: &str) {
        let classification = paper_classification().unwrap();
        let reference = serde_json::to_string(&reference_fold(log, &classification)).unwrap();
        for shards in 1..=8 {
            let state = ingest_str(log, &classification, shards).unwrap();
            prop_assert_eq!(
                &serde_json::to_string(&state).unwrap(),
                &reference,
                "shards={}",
                shards
            );
        }
    }

    /// Hours spread over twenty binary orders of magnitude, so a sum
    /// regrouped anywhere rounds differently, with exact zeros and a
    /// negative zero in the mix: `0 + x = x` must hold for every exposure
    /// the scanner accepts.
    fn arb_hours() -> impl Strategy<Value = f64> {
        (0i32..22, 0.0f64..1.0).prop_map(|(scale, mantissa)| match scale {
            0 => 0.0,
            1 => -0.0,
            _ => mantissa * 2f64.powi(scale - 12),
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        /// The block table folds a log of several blocks to the reference
        /// fold's bytes: canonical, tolerant and invalid keys, blank and
        /// corrupt lines and incidents, with arbitrary (not dyadic) hours,
        /// so any change of summation order would show.
        #[test]
        fn fast_path_differential_fold_on_mixed_logs(
            lines in proptest::collection::vec(
                (0u8..13, 0usize..5, 0usize..6, arb_hours(), 1u32..90),
                513..1300,
            ),
        ) {
            const KEYS: [&str; 5] = [
                "zone=urban",
                "weather=fog,zone=urban",
                "lighting=dusk,weather=rain,zone=highway",
                "speed_limit_kmh=50.0,zone=urban",
                "lighting=day,time_of_day=rush,weather=clear,zone=arterial",
            ];
            let mut log = String::new();
            for (shape, key, vehicle, hours, speed) in lines {
                log.push_str(&fold_line(shape, KEYS[key], vehicle, hours, speed));
                log.push('\n');
            }
            assert_fold_matches_reference(&log);
        }

        /// A first block of 512 distinct keys, past the linear table into
        /// the hashed index, some first seen in a tolerant form; later
        /// blocks draw 64 of the same keys again in every form, so each
        /// key is looked up many times per block.
        #[test]
        fn fast_path_differential_fold_on_distinct_keys(
            later in proptest::collection::vec(
                (0u8..13, 0usize..64, 0usize..6, arb_hours(), 1u32..90),
                1..700,
            ),
            hours in proptest::collection::vec(arb_hours(), LINES_PER_BLOCK),
        ) {
            let key = |i: usize| format!("lane=l{i},zone=urban");
            let mut log = String::new();
            for (i, hours) in hours.into_iter().enumerate() {
                let shape = [0, 5, 6, 7, 8][i % 5];
                log.push_str(&fold_line(shape, &key(i), i % 6, hours, 30));
                log.push('\n');
            }
            for (shape, i, vehicle, hours, speed) in later {
                log.push_str(&fold_line(shape, &key(i), vehicle, hours, speed));
                log.push('\n');
            }
            let classification = paper_classification().unwrap();
            let state = ingest_str(&log, &classification, 1).unwrap();
            prop_assert!(state.evidence().named_contexts().count() >= LINES_PER_BLOCK);
            assert_fold_matches_reference(&log);
        }
    }

    /// Hours near `f64::MAX` pass the scanner one by one, but two of them
    /// sum to `+inf`. The fold must take the upload, as per-line adds did,
    /// whether both lines share a block or straddle two.
    #[test]
    fn fast_path_differential_fold_on_overflowing_sums() {
        let line = r#"{"ctx":"zone=urban","event":"exposure","hours":1e308,"v":1,"vehicle":"V1"}"#;
        let bare = r#"{"event":"exposure","hours":1e308,"v":1,"vehicle":"V1"}"#;
        for lead in [0, LINES_PER_BLOCK - 1] {
            let log = format!("{}{line}\n{line}\n{bare}\n{bare}\n", "\n".repeat(lead));
            assert_fold_matches_reference(&log);
            let classification = paper_classification().unwrap();
            let state = ingest_str(&log, &classification, 1).unwrap();
            assert_eq!(state.evidence().exposure(), f64::INFINITY);
            assert_eq!(state.evidence().exposure_in("zone=urban"), f64::INFINITY);
        }
    }

    #[test]
    fn fold_states_equals_pairwise_merge_and_accepts_refs_and_owned() {
        let classification = paper_classification().unwrap();
        let log = sample_log(3, 120);
        let lines: Vec<&str> = log.lines().collect();
        let thirds: Vec<FleetState> = lines
            .chunks(lines.len() / 3 + 1)
            .map(|chunk| ingest_str(&chunk.join("\n"), &classification, 2).unwrap())
            .collect();

        let mut reference = FleetState::default();
        for part in &thirds {
            reference.merge(part);
        }
        // By reference and by value, the fold is the same left-to-right
        // merge.
        assert_eq!(fold_states(thirds.iter()), reference);
        assert_eq!(fold_states(thirds), reference);
        // The empty fold is the identity state.
        assert_eq!(
            fold_states(std::iter::empty::<FleetState>()),
            FleetState::default()
        );
    }

    /// `merge` is `merge_totals` plus a per-vehicle add, so a roster
    /// kept elsewhere and handed back later (the live server's registry)
    /// reproduces the merged state byte for byte.
    #[test]
    fn totals_then_roster_equals_merge() {
        let classification = paper_classification().unwrap();
        let first = ingest_str(&sample_log(3, 40), &classification, 2).unwrap();
        let later = ingest_str(&sample_log(5, 30), &classification, 2).unwrap();
        let mut merged = first.clone();
        merged.merge(&later);

        let mut totals = first.clone();
        let mut roster = totals.take_vehicles();
        totals.merge_totals(&later);
        assert_eq!(totals.vehicle_count(), 0);
        assert_eq!(totals.evidence(), merged.evidence());
        for (vehicle, tally) in later.vehicles() {
            roster.entry(vehicle.to_string()).or_default().absorb(tally);
        }
        totals.set_vehicles(roster);
        assert_eq!(
            serde_json::to_string(&totals).unwrap(),
            serde_json::to_string(&merged).unwrap()
        );
    }

    #[test]
    fn explicit_scratch_reuse_is_byte_identical_across_segments() {
        let classification = paper_classification().unwrap();
        let mut scratch = crate::event::fastpath::ScratchParser::new();
        let logs = [sample_log(3, 90), sample_log(5, 40), String::new()];
        for log in &logs {
            let reused = ingest_str_with_scratch(log, &classification, 3, &mut scratch).unwrap();
            let fresh = ingest_str(log, &classification, 3).unwrap();
            assert_eq!(reused, fresh);
            assert_eq!(
                serde_json::to_string(&reused).unwrap(),
                serde_json::to_string(&fresh).unwrap()
            );
        }
    }

    #[test]
    fn measured_bridges_to_core_verification() {
        let classification = paper_classification().unwrap();
        let log = sample_log(3, 100);
        let state = ingest_str(&log, &classification, 2).unwrap();
        let measured = state.measured();
        assert_eq!(measured.exposure(), state.exposure());
        assert_eq!(
            measured.total(),
            state.counts().map(|(_, n)| n).sum::<u64>()
        );
    }
}
