//! Multilevel-splitting rare-event campaigns: estimating tail incident
//! rates (budgets like `f_I2 ≤ 1e-7/h`) at compute budgets where crude
//! Monte Carlo would observe nothing at all.
//!
//! # Why
//!
//! The QRN's safety goals bound *rare* frequencies; demonstrating
//! `≤ 1e-7/h` by crude simulation needs ~1e8 simulated hours per expected
//! event, which raw parallelism cannot buy. Multilevel splitting attacks
//! the variance instead: trajectories that progress towards a collision
//! are *cloned* at intermediate severity levels, and every clone carries a
//! likelihood weight so all estimates stay unbiased. The estimator's
//! effective exposure grows by orders of magnitude while the simulated
//! hours do not.
//!
//! # Levels
//!
//! The importance function is [`EncounterSim::severity`]: the running
//! maximum of the kinematic danger ratio `closing² / (2·gap·capability)`
//! (the deceleration a full stop within the remaining gap would need, as a
//! fraction of the braking capability). Comfortable resolutions stay below
//! ~0.5, so the default levels start there and grow geometrically
//! ([`SplittingConfig::geometric`]); a collision crosses every finite
//! level on the way in, which is what makes the levels valid splitting
//! waypoints.
//!
//! # Cloning and weighting
//!
//! Each encounter starts as one *root* particle with weight 1. When a
//! particle's severity crosses the next level it is frozen as an
//! *entrance state*; once every particle of the stage has either entered
//! or terminated, the fixed per-stage budget of
//! [`effort`](SplittingConfig::effort) continuations is divided over the
//! undetected entrances: entrance `i` receives `n_i` clones of weight
//! `wᵢ / n_i` (deterministic proportional allocation — no randomness is
//! consumed by cloning). Detected entrances are *not* cloned: detection
//! latches and the remaining dynamics are deterministic, so clones would
//! be perfectly correlated copies that inflate the effective sample size
//! without adding information; they continue alone at full weight. Total
//! weight is conserved exactly at every stage, so for any event `E`,
//! `E[Σ w·1{E}]` equals the crude probability of `E` — the estimator is
//! unbiased by construction, and every terminating particle emits its
//! (weighted) collision or near-miss record just like the crude engine,
//! including the induced rear-end roll behind hard braking.
//!
//! # Determinism
//!
//! A splitting campaign is bit-identical for any worker count. Per shift,
//! the zone walk and challenge arrivals consume the shift's substream
//! exactly as the crude engine does; each encounter then draws one `u64`
//! seed from the shift stream, and every particle of its cascade runs on
//! an [`Substreams`] child stream of that seed, indexed by a deterministic
//! spawn counter. Cloning consumes no randomness, so the whole cascade is
//! a pure function of `(master seed, shift index, encounter ordinal)`; the
//! block-ordered merge of the campaign engine does the rest.
//!
//! # Statistics
//!
//! Weighted masses are folded per *encounter* (one observation = the mass
//! one cascade contributed) into [`WeightedCount`]s, because particles of
//! one cascade are correlated — per-particle observations would overstate
//! the information content. [`SplittingResult::rate`] wraps them into
//! [`WeightedPoissonRate`]s: Garwood intervals on the effective
//! observation `k_eff = (Σw)²/Σw²` over `T_eff = T·Σw/Σw²`.

use std::collections::BTreeMap;
use std::fmt;

use rand::rngs::StdRng;
use serde::{Deserialize, Serialize};

use qrn_core::classification::IncidentClassification;
use qrn_core::incident::{IncidentKind, IncidentRecord, IncidentTypeId};
use qrn_core::object::Involvement;
use qrn_stats::evidence::EvidenceLedger;
use qrn_stats::poisson::{WeightedCount, WeightedPoissonRate};
use qrn_stats::rng::Substreams;
use qrn_stats::summary::WeightedOnlineStats;
use qrn_units::{Hours, UnitError};

use crate::encounter::{Challenge, EncounterOutcome, EncounterSim, STEP_SECONDS};
use crate::faults::ActiveFaults;
use crate::monte_carlo::{sample_induced, InducedParams, ShiftAccumulator, Throughput};
use crate::perception::PerceptionParams;
use crate::policy::TacticalPolicy;
use crate::vehicle::VehicleParams;

/// First severity level of the default geometric ladder. Comfortable
/// resolutions under the built-in policies peak below ~0.5, so cascades
/// only start on trajectories that are genuinely heading somewhere bad.
const FIRST_LEVEL: f64 = 0.5;
/// Ratio between consecutive default levels.
const LEVEL_RATIO: f64 = 1.4;
/// Default per-stage continuation budget.
const DEFAULT_EFFORT: usize = 8;

/// Configuration of a multilevel-splitting campaign: the severity levels
/// and the fixed per-stage effort.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SplittingConfig {
    levels: Vec<f64>,
    effort: usize,
}

impl SplittingConfig {
    /// Creates a configuration from explicit severity levels (strictly
    /// increasing, positive, finite) and a per-stage effort (≥ 1).
    ///
    /// An empty level list is allowed and degenerates to crude Monte
    /// Carlo with unit weights — useful for validating the estimator.
    ///
    /// # Errors
    ///
    /// Returns [`UnitError`] for a malformed ladder or zero effort.
    pub fn new(levels: Vec<f64>, effort: usize) -> Result<Self, UnitError> {
        let increasing = levels.windows(2).all(|w| w[0] < w[1]);
        let positive = levels.iter().all(|l| l.is_finite() && *l > 0.0);
        if !increasing || !positive {
            return Err(UnitError::OutOfRange {
                quantity: "splitting levels",
                value: f64::NAN,
                min: 0.0,
                max: f64::MAX,
            });
        }
        if effort == 0 {
            return Err(UnitError::OutOfRange {
                quantity: "splitting effort",
                value: 0.0,
                min: 1.0,
                max: f64::MAX,
            });
        }
        Ok(SplittingConfig { levels, effort })
    }

    /// The default ladder: `count` levels growing geometrically from
    /// `FIRST_LEVEL` = 0.5 by `LEVEL_RATIO` = 1.4 per step, with the
    /// default effort of 8. This is what `--splitting-levels N` selects.
    pub fn geometric(count: usize) -> Self {
        let levels = (0..count)
            .map(|i| FIRST_LEVEL * LEVEL_RATIO.powi(i as i32))
            .collect();
        SplittingConfig {
            levels,
            effort: DEFAULT_EFFORT,
        }
    }

    /// Replaces the per-stage effort.
    ///
    /// # Errors
    ///
    /// Returns [`UnitError`] for zero effort.
    pub fn with_effort(self, effort: usize) -> Result<Self, UnitError> {
        SplittingConfig::new(self.levels, effort)
    }

    /// The severity levels, in increasing order.
    pub fn levels(&self) -> &[f64] {
        &self.levels
    }

    /// The per-stage continuation budget.
    pub fn effort(&self) -> usize {
        self.effort
    }
}

/// One weighted event a splitting shift produced.
#[derive(Debug, Clone)]
pub struct WeightedRecord {
    /// Ordinal of the originating encounter within its shift — the
    /// correlation group: records of one cascade are not independent.
    pub encounter: u64,
    /// Likelihood weight of the emitting particle.
    pub weight: f64,
    /// Zone index the originating encounter happened in — the evidence
    /// context of the record.
    pub zone: usize,
    /// The event, exactly as the crude engine would have recorded it.
    pub record: IncidentRecord,
}

/// Everything one splitting shift produced. The engine reuses one scratch
/// instance per worker ([`reset`](SplittingShift::reset) + refill), so the
/// hot loop allocates nothing once the record buffer has warmed up.
#[derive(Debug, Default)]
pub struct SplittingShift {
    /// Simulated duration of this shift, hours.
    pub hours: f64,
    /// Challenges encountered (each one root cascade).
    pub encounters: u64,
    /// Particles simulated across all cascades (roots + clones).
    pub particles: u64,
    /// Integrated encounter-simulation time, seconds of 10 ms stepping —
    /// the deterministic compute-cost proxy for matched-compute
    /// comparisons against the crude engine.
    pub encounter_seconds: f64,
    /// Weighted events, grouped by encounter ordinal in simulation order.
    pub records: Vec<WeightedRecord>,
    /// Time spent per zone index, hours — the exposure refinement the
    /// campaign's evidence ledger attributes to each zone.
    pub zone_hours: Vec<f64>,
}

impl SplittingShift {
    /// An empty shift buffer for a world with `zones` zones.
    pub fn empty(zones: usize) -> Self {
        SplittingShift {
            zone_hours: vec![0.0; zones],
            ..SplittingShift::default()
        }
    }

    /// Clears the buffer for the next shift, keeping allocations.
    pub fn reset(&mut self, hours: f64) {
        self.hours = hours;
        self.encounters = 0;
        self.particles = 0;
        self.encounter_seconds = 0.0;
        self.records.clear();
        for h in &mut self.zone_hours {
            *h = 0.0;
        }
    }
}

/// One live trajectory of a cascade: the simulation state, its likelihood
/// weight, and its private RNG substream.
struct Particle {
    sim: EncounterSim,
    weight: f64,
    rng: StdRng,
}

/// Runs one encounter as a fixed-effort splitting cascade, appending
/// weighted records (and tallies) to `out`.
///
/// The cascade is a pure function of `encounter_seed`: every particle runs
/// on `Substreams::new(encounter_seed).stream(k)` for a deterministic
/// spawn counter `k`, and cloning consumes no randomness.
#[allow(clippy::too_many_arguments)]
pub(crate) fn run_encounter_splitting(
    challenge: &Challenge,
    cruise: qrn_units::Speed,
    policy: &dyn TacticalPolicy,
    vehicle: &VehicleParams,
    perception: &PerceptionParams,
    faults: &ActiveFaults,
    induced: &InducedParams,
    config: &SplittingConfig,
    encounter_seed: u64,
    involvement: Involvement,
    zone: usize,
    out: &mut SplittingShift,
) {
    let streams = Substreams::new(encounter_seed);
    let mut spawned: u64 = 0;
    let fresh_stream = |spawned: &mut u64| {
        let rng = streams.stream(*spawned);
        *spawned += 1;
        rng
    };

    let encounter = out.encounters;
    out.encounters += 1;

    let root = Particle {
        sim: EncounterSim::new(challenge, cruise, vehicle, perception, faults),
        weight: 1.0,
        rng: fresh_stream(&mut spawned),
    };
    let mut particles = vec![root];
    let mut entrances: Vec<Particle> = Vec::new();

    for stage in 0..=config.levels.len() {
        let threshold = config.levels.get(stage).copied();
        for mut p in particles.drain(..) {
            out.particles += 1;
            loop {
                if let Some(level) = threshold {
                    if p.sim.severity() >= level {
                        entrances.push(p);
                        break;
                    }
                }
                let stepped = p.sim.step(policy, vehicle, &mut p.rng);
                out.encounter_seconds += STEP_SECONDS;
                if let Some(outcome) = stepped {
                    terminate(p, outcome, induced, involvement, encounter, zone, out);
                    break;
                }
            }
        }
        if entrances.is_empty() {
            break;
        }
        // Fixed-effort cloning: divide the stage budget proportionally
        // over the undetected entrances (detected ones continue alone —
        // their dynamics hold no randomness worth resampling). Integer
        // allocation, no RNG: clone counts depend only on entrance order.
        let undetected = entrances.iter().filter(|p| !p.sim.is_detected()).count();
        let base = config.effort.checked_div(undetected).unwrap_or(0);
        let extra = config.effort.checked_rem(undetected).unwrap_or(0);
        let mut next_undetected = 0;
        for p in entrances.drain(..) {
            if p.sim.is_detected() {
                particles.push(p);
                continue;
            }
            let clones = (base + usize::from(next_undetected < extra)).max(1);
            next_undetected += 1;
            let weight = p.weight / clones as f64;
            for _ in 0..clones {
                particles.push(Particle {
                    sim: p.sim.clone(),
                    weight,
                    rng: fresh_stream(&mut spawned),
                });
            }
        }
    }
}

/// Terminates one particle: emits its weighted primary record and rolls
/// the induced rear-end model on the particle's own stream.
fn terminate(
    mut p: Particle,
    outcome: EncounterOutcome,
    induced: &InducedParams,
    involvement: Involvement,
    encounter: u64,
    zone: usize,
    out: &mut SplittingShift,
) {
    let stats = p.sim.stats();
    let record = match outcome {
        EncounterOutcome::Collision { impact_speed } => {
            IncidentRecord::collision(involvement, impact_speed)
        }
        EncounterOutcome::Resolved {
            min_gap,
            closing_at_min,
        } => IncidentRecord::near_miss(involvement, min_gap, closing_at_min),
    };
    out.records.push(WeightedRecord {
        encounter,
        weight: p.weight,
        zone,
        record,
    });
    if let Some(record) = sample_induced(stats.max_commanded_brake, induced, &mut p.rng) {
        out.records.push(WeightedRecord {
            encounter,
            weight: p.weight,
            zone,
            record,
        });
    }
}

/// Streaming accumulator for splitting shifts: classifies weighted records
/// on the fly and folds per-encounter masses into per-type
/// [`WeightedCount`]s. Memory is O(incident types), independent of the
/// exposure.
#[derive(Debug)]
pub struct SplittingAccumulator<'c> {
    classification: &'c IncidentClassification,
    hours: f64,
    encounters: u64,
    particles: u64,
    encounter_seconds: f64,
    counts: BTreeMap<IncidentTypeId, WeightedCount>,
    unclassified: WeightedCount,
    impact_speed_kmh: WeightedOnlineStats,
    // Per-encounter mass staging, drained on every encounter boundary.
    // Indexed by leaf position; the last slot is the unclassified mass.
    staging: Vec<f64>,
    // Zone of the encounter currently staged (a cascade happens entirely
    // inside one zone, so one zone per staging flush suffices).
    staging_zone: usize,
    leaf_order: Vec<IncidentTypeId>,
    // Zone refinements: exposure per zone index, and weighted masses per
    // (zone, staging slot) — the last slot is the unclassified mass.
    zone_hours: Vec<f64>,
    zone_counts: Vec<Vec<WeightedCount>>,
}

impl<'c> SplittingAccumulator<'c> {
    /// An empty partial classifying with `classification`, for a world
    /// with `zones` zones. Every leaf gets a (possibly empty) count, so
    /// never-observed types still report zero-event upper bounds.
    pub fn new(classification: &'c IncidentClassification, zones: usize) -> Self {
        let leaf_order: Vec<IncidentTypeId> = classification
            .leaves()
            .iter()
            .map(|leaf| leaf.id().clone())
            .collect();
        let counts = leaf_order
            .iter()
            .map(|id| (id.clone(), WeightedCount::new()))
            .collect();
        SplittingAccumulator {
            classification,
            hours: 0.0,
            encounters: 0,
            particles: 0,
            encounter_seconds: 0.0,
            counts,
            unclassified: WeightedCount::new(),
            impact_speed_kmh: WeightedOnlineStats::new(),
            staging: vec![0.0; leaf_order.len() + 1],
            staging_zone: 0,
            zone_hours: vec![0.0; zones],
            zone_counts: vec![vec![WeightedCount::new(); leaf_order.len() + 1]; zones],
            leaf_order,
        }
    }

    fn flush_staging(&mut self) {
        let unclassified = self.staging.len() - 1;
        for (slot, mass) in self.staging.iter_mut().enumerate() {
            if *mass > 0.0 {
                if slot == unclassified {
                    self.unclassified.push(*mass);
                } else {
                    self.counts
                        .get_mut(&self.leaf_order[slot])
                        .expect("staging slots mirror the leaf order")
                        .push(*mass);
                }
                self.zone_counts[self.staging_zone][slot].push(*mass);
                *mass = 0.0;
            }
        }
    }

    /// Finalises into a result. `zone_names` maps zone indices to the
    /// world's zone names for the evidence ledger's refinement rows.
    pub(crate) fn finish(
        self,
        policy_name: &str,
        config: &SplittingConfig,
        zone_names: &[&str],
        throughput: Option<Throughput>,
    ) -> Result<SplittingResult, UnitError> {
        // The campaign's unified evidence: weighted per-encounter masses
        // in the global row (pre-seeded with every leaf), plus refinement
        // rows for every visited zone.
        let mut evidence = EvidenceLedger::new();
        evidence.add_exposure(None, self.hours);
        for (id, count) in &self.counts {
            evidence.add_count(None, id.as_str(), count);
        }
        evidence.add_unclassified_count(None, &self.unclassified);
        let unclassified_slot = self.leaf_order.len();
        for (idx, &name) in zone_names.iter().enumerate() {
            if self.zone_hours[idx] > 0.0 {
                evidence.add_exposure(Some(name), self.zone_hours[idx]);
                for (slot, id) in self.leaf_order.iter().enumerate() {
                    evidence.add_count(Some(name), id.as_str(), &self.zone_counts[idx][slot]);
                }
                evidence
                    .add_unclassified_count(Some(name), &self.zone_counts[idx][unclassified_slot]);
            }
        }
        Ok(SplittingResult {
            policy_name: policy_name.to_string(),
            exposure: Hours::new(self.hours)?,
            levels: config.levels.clone(),
            effort: config.effort,
            counts: self.counts,
            unclassified: self.unclassified,
            evidence,
            encounters: self.encounters,
            particles: self.particles,
            encounter_seconds: self.encounter_seconds,
            impact_speed_kmh: self.impact_speed_kmh,
            throughput,
        })
    }
}

impl ShiftAccumulator for SplittingAccumulator<'_> {
    type Shift = SplittingShift;

    fn absorb(&mut self, shift: &mut SplittingShift) {
        self.hours += shift.hours;
        self.encounters += shift.encounters;
        self.particles += shift.particles;
        self.encounter_seconds += shift.encounter_seconds;
        for (sum, h) in self.zone_hours.iter_mut().zip(&shift.zone_hours) {
            *sum += h;
        }
        // Records arrive grouped by encounter ordinal; fold one weighted
        // observation per (encounter, type) — particles of one cascade are
        // correlated, so they must not count as independent events.
        let mut current: Option<u64> = None;
        for wr in &shift.records {
            if current != Some(wr.encounter) {
                self.flush_staging();
                current = Some(wr.encounter);
                self.staging_zone = wr.zone;
            }
            match self.classification.classify(&wr.record) {
                Some(leaf) => {
                    let slot = self
                        .leaf_order
                        .iter()
                        .position(|id| id == leaf.id())
                        .expect("classify returns a leaf of this classification");
                    self.staging[slot] += wr.weight;
                }
                None => {
                    let last = self.staging.len() - 1;
                    self.staging[last] += wr.weight;
                }
            }
            if let IncidentKind::Collision { impact_speed } = &wr.record.kind {
                self.impact_speed_kmh.push(wr.weight, impact_speed.as_kmh());
            }
        }
        self.flush_staging();
    }

    fn merge(&mut self, later: Self) {
        self.hours += later.hours;
        self.encounters += later.encounters;
        self.particles += later.particles;
        self.encounter_seconds += later.encounter_seconds;
        for (id, count) in &later.counts {
            self.counts
                .get_mut(id)
                .expect("both partials cover every leaf")
                .merge(count);
        }
        self.unclassified.merge(&later.unclassified);
        self.impact_speed_kmh.merge(&later.impact_speed_kmh);
        for (sum, h) in self.zone_hours.iter_mut().zip(&later.zone_hours) {
            *sum += h;
        }
        for (mine, theirs) in self.zone_counts.iter_mut().zip(&later.zone_counts) {
            for (count, other) in mine.iter_mut().zip(theirs) {
                count.merge(other);
            }
        }
    }
}

/// The outcome of a multilevel-splitting campaign: per-type weighted event
/// masses over the simulated exposure, plus the cost accounting needed for
/// matched-compute comparisons.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SplittingResult {
    /// Name of the policy that drove.
    pub policy_name: String,
    /// Total simulated (nominal) exposure.
    exposure: Hours,
    /// The severity levels used.
    pub levels: Vec<f64>,
    /// The per-stage effort used.
    pub effort: usize,
    /// Weighted event mass per incident type (every leaf present).
    counts: BTreeMap<IncidentTypeId, WeightedCount>,
    /// Weighted mass of records no leaf claims.
    pub unclassified: WeightedCount,
    /// The campaign's unified evidence: the same weighted masses and
    /// exposure as above in ledger form (global row plus one refinement
    /// row per visited zone) — what fleet burn-down and Eq. (1)
    /// verification merge and consume.
    pub evidence: EvidenceLedger,
    /// Challenges encountered (root cascades).
    pub encounters: u64,
    /// Particles simulated (roots + clones).
    pub particles: u64,
    /// Integrated encounter-simulation time, seconds — the deterministic
    /// compute-cost proxy ([`crate::monte_carlo::CampaignResult`] reports
    /// the same quantity for crude campaigns).
    pub encounter_seconds: f64,
    /// Weighted distribution of collision impact speeds, km/h.
    pub impact_speed_kmh: WeightedOnlineStats,
    /// Wall-clock statistics, excluded from equality. (The vendored
    /// serde derive ignores field attributes, so the CLI nulls this
    /// before writing artefacts — written results must be reproducible
    /// from `(config, policy, seed, hours)` alone, and `Option` fields
    /// deserialize as `None` when absent.)
    pub throughput: Option<Throughput>,
}

/// Equality covers the simulated outcome only, never the throughput.
impl PartialEq for SplittingResult {
    fn eq(&self, other: &Self) -> bool {
        self.policy_name == other.policy_name
            && self.exposure == other.exposure
            && self.levels == other.levels
            && self.effort == other.effort
            && self.counts == other.counts
            && self.unclassified == other.unclassified
            && self.evidence == other.evidence
            && self.encounters == other.encounters
            && self.particles == other.particles
            && self.encounter_seconds == other.encounter_seconds
            && self.impact_speed_kmh == other.impact_speed_kmh
    }
}

impl SplittingResult {
    /// Total simulated (nominal) exposure.
    pub fn exposure(&self) -> Hours {
        self.exposure
    }

    /// The weighted observation for one incident type, or `None` for an
    /// id outside the classification.
    pub fn rate(&self, id: &IncidentTypeId) -> Option<WeightedPoissonRate> {
        self.counts
            .get(id)
            .map(|count| WeightedPoissonRate::new(*count, self.exposure))
    }

    /// The raw weighted count for one incident type.
    pub fn count(&self, id: &IncidentTypeId) -> Option<&WeightedCount> {
        self.counts.get(id)
    }

    /// Iterates over every `(type, weighted count)` pair in id order.
    pub fn counts(&self) -> impl Iterator<Item = (&IncidentTypeId, &WeightedCount)> {
        self.counts.iter()
    }
}

impl fmt::Display for SplittingResult {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let observed: f64 = self.counts.values().map(WeightedCount::total).sum();
        write!(
            f,
            "{}: splitting over {} ({} levels, effort {}): {} encounters, {} particles, weighted incident mass {:.3e}",
            self.policy_name,
            self.exposure,
            self.levels.len(),
            self.effort,
            self.encounters,
            self.particles,
            observed,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::OnceLock;

    use proptest::prelude::*;

    use qrn_core::object::ObjectType;
    use qrn_stats::rng::Substreams;
    use qrn_units::{Meters, Probability, Speed};

    use crate::encounter::run_encounter;
    use crate::faults::ActiveFaults;
    use crate::monte_carlo::{Campaign, CountingResult};
    use crate::policy::ReactivePolicy;
    use crate::scenario::urban_scenario;

    fn vru_challenge(gap: f64) -> Challenge {
        Challenge {
            object: ObjectType::Vru,
            initial_gap: Meters::new(gap).unwrap(),
            object_speed: Speed::ZERO,
            object_decel: 0.0,
            clears_after_s: f64::INFINITY,
        }
    }

    fn flaky_perception() -> PerceptionParams {
        PerceptionParams {
            detection_range: Meters::new(60.0).unwrap(),
            miss_probability: Probability::new(0.4).unwrap(),
            scan_period_s: 0.1,
        }
    }

    fn perfect_perception() -> PerceptionParams {
        PerceptionParams {
            detection_range: Meters::new(200.0).unwrap(),
            miss_probability: Probability::ZERO,
            scan_period_s: 0.1,
        }
    }

    fn run_cascade(
        config: &SplittingConfig,
        perception: &PerceptionParams,
        seed: u64,
        out: &mut SplittingShift,
    ) {
        run_encounter_splitting(
            &vru_challenge(30.0),
            Speed::from_kmh(50.0).unwrap(),
            &ReactivePolicy::default(),
            &VehicleParams::typical(),
            perception,
            &ActiveFaults::healthy(),
            &InducedParams::default(),
            config,
            seed,
            Involvement::ego_with(ObjectType::Vru),
            0,
            out,
        );
    }

    fn primary_mass(shift: &SplittingShift, encounter: u64) -> f64 {
        shift
            .records
            .iter()
            .filter(|wr| {
                wr.encounter == encounter
                    && matches!(wr.record.involvement, Involvement::EgoWith(_))
            })
            .map(|wr| wr.weight)
            .sum()
    }

    #[test]
    fn config_rejects_bad_ladders() {
        assert!(SplittingConfig::new(vec![0.5, 0.5], 8).is_err());
        assert!(SplittingConfig::new(vec![1.0, 0.5], 8).is_err());
        assert!(SplittingConfig::new(vec![-0.5, 0.5], 8).is_err());
        assert!(SplittingConfig::new(vec![0.5, f64::INFINITY], 8).is_err());
        assert!(SplittingConfig::new(vec![0.5, 1.0], 0).is_err());
        assert!(SplittingConfig::new(vec![], 1).is_ok());
    }

    #[test]
    fn geometric_ladder_grows_from_half() {
        let config = SplittingConfig::geometric(4);
        assert_eq!(config.levels().len(), 4);
        assert!((config.levels()[0] - 0.5).abs() < 1e-12);
        for pair in config.levels().windows(2) {
            assert!((pair[1] / pair[0] - LEVEL_RATIO).abs() < 1e-12);
        }
        assert_eq!(config.effort(), DEFAULT_EFFORT);
        assert_eq!(config.clone().with_effort(16).unwrap().effort(), 16);
    }

    /// The invariant the whole estimator rests on: every cascade's primary
    /// (ego-involved) record weights sum to exactly the one encounter that
    /// spawned it, whatever the levels did.
    #[test]
    fn cascade_conserves_total_weight() {
        let config = SplittingConfig::geometric(5);
        let mut shift = SplittingShift::empty(1);
        shift.reset(1.0);
        for seed in 0..200 {
            run_cascade(&config, &flaky_perception(), seed, &mut shift);
        }
        assert_eq!(shift.encounters, 200);
        assert!(shift.particles >= 200);
        for encounter in 0..200 {
            let mass = primary_mass(&shift, encounter);
            assert!((mass - 1.0).abs() < 1e-9, "encounter {encounter}: {mass}");
        }
    }

    /// A cascade is a pure function of its seed: cloning consumes no
    /// randomness and every particle has its own substream.
    #[test]
    fn cascade_is_pure_function_of_seed() {
        let config = SplittingConfig::geometric(4);
        let run = |seed| {
            let mut shift = SplittingShift::empty(1);
            shift.reset(1.0);
            run_cascade(&config, &flaky_perception(), seed, &mut shift);
            shift
        };
        for seed in [0u64, 7, 42] {
            let (a, b) = (run(seed), run(seed));
            assert_eq!(a.particles, b.particles, "seed {seed}");
            assert_eq!(a.records.len(), b.records.len(), "seed {seed}");
            assert_eq!(
                a.encounter_seconds.to_bits(),
                b.encounter_seconds.to_bits(),
                "seed {seed}"
            );
            for (ra, rb) in a.records.iter().zip(&b.records) {
                assert_eq!(ra.weight.to_bits(), rb.weight.to_bits(), "seed {seed}");
                assert_eq!(ra.record, rb.record, "seed {seed}");
            }
        }
    }

    /// With no levels the cascade degenerates to crude Monte Carlo with
    /// unit weight: one particle, and record-for-record the crude outcome
    /// computed on the same substream.
    #[test]
    fn empty_levels_reproduce_crude_outcome() {
        let config = SplittingConfig::new(vec![], 1).unwrap();
        let induced = InducedParams::default();
        for seed in 0..50u64 {
            let mut shift = SplittingShift::empty(1);
            shift.reset(1.0);
            run_cascade(&config, &flaky_perception(), seed, &mut shift);
            assert_eq!(shift.particles, 1);

            let mut rng = Substreams::new(seed).stream(0);
            let (outcome, stats) = run_encounter(
                &vru_challenge(30.0),
                Speed::from_kmh(50.0).unwrap(),
                &ReactivePolicy::default(),
                &VehicleParams::typical(),
                &flaky_perception(),
                &ActiveFaults::healthy(),
                &mut rng,
            );
            let mut expected = vec![match outcome {
                EncounterOutcome::Collision { impact_speed } => {
                    IncidentRecord::collision(Involvement::ego_with(ObjectType::Vru), impact_speed)
                }
                EncounterOutcome::Resolved {
                    min_gap,
                    closing_at_min,
                } => IncidentRecord::near_miss(
                    Involvement::ego_with(ObjectType::Vru),
                    min_gap,
                    closing_at_min,
                ),
            }];
            expected.extend(crate::monte_carlo::sample_induced(
                stats.max_commanded_brake,
                &induced,
                &mut rng,
            ));
            let got: Vec<_> = shift.records.iter().map(|wr| wr.record).collect();
            assert_eq!(got, expected, "seed {seed}");
            assert!(shift.records.iter().all(|wr| wr.weight == 1.0));
        }
    }

    /// Detected entrances continue alone at full weight instead of being
    /// cloned: their remaining dynamics are deterministic, so clones would
    /// be perfectly correlated copies. With perfect perception the root
    /// crosses the first level before its first scan (still undetected →
    /// cloned once), but every clone is detected by the second crossing —
    /// so the particle count stays 1 + effort + effort, not 1 + effort +
    /// effort².
    #[test]
    fn detected_entrances_are_not_cloned() {
        // 50 km/h at 30 m: initial danger ratio ≈ 0.40, peak ≈ 0.51 for a
        // detected reactive stop — so 0.2 is crossed at t = 0 and 0.45
        // only after detection.
        let config = SplittingConfig::new(vec![0.2, 0.45], 8).unwrap();
        let mut shift = SplittingShift::empty(1);
        shift.reset(1.0);
        run_cascade(&config, &perfect_perception(), 3, &mut shift);
        assert_eq!(shift.particles, 1 + 8 + 8);
        let primaries: Vec<_> = shift
            .records
            .iter()
            .filter(|wr| matches!(wr.record.involvement, Involvement::EgoWith(_)))
            .collect();
        assert_eq!(primaries.len(), 8);
        for wr in primaries {
            assert_eq!(wr.weight.to_bits(), 0.125f64.to_bits());
        }
        assert!((primary_mass(&shift, 0) - 1.0).abs() < 1e-12);
    }

    fn splitting_campaign(seed: u64, workers: usize, hours: f64) -> SplittingResult {
        let classification = qrn_core::examples::paper_classification().unwrap();
        Campaign::new(urban_scenario().unwrap(), ReactivePolicy::default())
            .perception(flaky_perception())
            .hours(Hours::new(hours).unwrap())
            .seed(seed)
            .workers(workers)
            .run_splitting(&classification, &SplittingConfig::geometric(5))
            .unwrap()
    }

    #[test]
    fn splitting_campaign_is_bit_identical_for_any_worker_count() {
        let reference = splitting_campaign(11, 1, 130.0);
        for workers in [2, 8] {
            let other = splitting_campaign(11, workers, 130.0);
            assert_eq!(reference, other, "workers={workers}");
            assert_eq!(
                reference.encounter_seconds.to_bits(),
                other.encounter_seconds.to_bits(),
                "workers={workers}"
            );
            for ((id_a, count_a), (id_b, count_b)) in reference.counts().zip(other.counts()) {
                assert_eq!(id_a, id_b, "workers={workers}");
                assert_eq!(
                    count_a.total().to_bits(),
                    count_b.total().to_bits(),
                    "workers={workers} type={id_a:?}"
                );
                assert_eq!(
                    count_a.total_sq().to_bits(),
                    count_b.total_sq().to_bits(),
                    "workers={workers} type={id_a:?}"
                );
            }
        }
    }

    #[test]
    fn splitting_result_reports_and_serialises() {
        let result = splitting_campaign(5, 2, 60.0);
        assert!(result.encounters > 0);
        assert!(result.particles >= result.encounters);
        assert!(result.encounter_seconds > 0.0);
        assert_eq!(result.levels.len(), 5);
        assert_eq!(result.effort, 8);
        assert!(result.throughput.is_some());
        let classification = qrn_core::examples::paper_classification().unwrap();
        for leaf in classification.leaves() {
            let rate = result.rate(leaf.id()).expect("every leaf has a count");
            assert_eq!(rate.exposure, result.exposure());
        }
        assert!(result.to_string().contains("splitting"));
        let back: SplittingResult =
            serde_json::from_str(&serde_json::to_string(&result).unwrap()).unwrap();
        assert_eq!(back, result);
    }

    #[test]
    fn splitting_evidence_mirrors_weighted_counts() {
        let result = splitting_campaign(5, 2, 60.0);
        let ev = &result.evidence;
        assert_eq!(ev.exposure().to_bits(), result.exposure().value().to_bits());
        for (id, count) in result.counts() {
            let ledger_count = ev.count(id.as_str());
            assert_eq!(ledger_count.total().to_bits(), count.total().to_bits());
            assert_eq!(
                ledger_count.total_sq().to_bits(),
                count.total_sq().to_bits()
            );
            assert_eq!(ledger_count.observations(), count.observations());
        }
        // Zone refinement rows partition the exposure and (up to f64
        // summation order) the incident mass.
        let zone_exposure: f64 = ev
            .named_contexts()
            .map(|(_, row)| row.exposure_hours())
            .sum();
        assert!((zone_exposure - result.exposure().value()).abs() < 1e-6);
        for (id, count) in result.counts() {
            let zone_mass: f64 = ev
                .named_contexts()
                .map(|(_, row)| row.count(id.as_str()).total())
                .sum();
            let err = (zone_mass - count.total()).abs();
            assert!(err <= 1e-9 * count.total().max(1.0), "type={id:?}");
        }
    }

    #[test]
    fn empty_ladder_evidence_is_exact_unit_weight() {
        // With no splitting levels every particle carries weight 1.0, so the
        // ledger must collapse to crude, unit-weight evidence: integer
        // observation counts whose mass equals the count exactly, which is
        // what routes downstream consumers onto the exact Garwood path.
        let classification = qrn_core::examples::paper_classification().unwrap();
        let split = Campaign::new(urban_scenario().unwrap(), ReactivePolicy::default())
            .perception(flaky_perception())
            .hours(Hours::new(150.0).unwrap())
            .seed(21)
            .workers(3)
            .run_splitting(&classification, &SplittingConfig::new(vec![], 1).unwrap())
            .unwrap();
        assert!(split.encounters > 0);
        assert_eq!(split.particles, split.encounters);
        for leaf in classification.leaves() {
            let count = split.evidence.count(leaf.id().as_str());
            assert!(count.is_unweighted(), "{}", leaf.id());
            assert_eq!(
                count.total().to_bits(),
                split.count(leaf.id()).unwrap().total().to_bits(),
                "{}",
                leaf.id()
            );
        }
        // Unclassified records fold per encounter (primary + induced may
        // share one staging slot), so the mass is a whole number of weight-1
        // particles even where the observation grouping differs.
        let unclassified = split.evidence.unclassified();
        assert_eq!(unclassified.total().fract(), 0.0);
        assert!(unclassified.total() >= unclassified.observations() as f64);
        // The verification consumer takes the exact integer branch.
        let norm = qrn_core::examples::paper_norm().unwrap();
        let allocation = qrn_core::examples::paper_allocation(&classification).unwrap();
        let report =
            qrn_core::verification::verify_evidence(&norm, &allocation, &split.evidence, 0.95)
                .unwrap();
        assert!(report.goals.iter().all(|g| g.weighted.is_none()));
    }

    /// Crude reference rates for the unbiasedness check, computed once at
    /// an event rate (~1e-3..1e-1 per hour) where crude Monte Carlo
    /// converges in test-sized exposures.
    fn crude_reference() -> &'static CountingResult {
        static REFERENCE: OnceLock<CountingResult> = OnceLock::new();
        REFERENCE.get_or_init(|| {
            let classification = qrn_core::examples::paper_classification().unwrap();
            Campaign::new(urban_scenario().unwrap(), ReactivePolicy::default())
                .perception(flaky_perception())
                .hours(Hours::new(4_000.0).unwrap())
                .seed(987_654_321)
                .run_counting(&classification)
                .unwrap()
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(5))]

        /// Unbiasedness: for every incident type the crude engine observes
        /// often, an independent splitting campaign's 99.9% confidence
        /// interval must overlap the crude 99.9% interval. Cloning with
        /// likelihood weights must not move any rate.
        #[test]
        fn splitting_estimates_match_crude_rates(seed in 0u64..500) {
            let classification = qrn_core::examples::paper_classification().unwrap();
            let reference = crude_reference();
            let split = splitting_campaign(seed, 2, 400.0);
            for leaf in classification.leaves() {
                let crude_count = reference.measured.count(leaf.id());
                if crude_count < 5 {
                    continue;
                }
                let crude_ci = qrn_stats::poisson::PoissonRate::new(
                    crude_count,
                    reference.exposure(),
                )
                .confidence_interval(0.999)
                .unwrap();
                let split_ci = split
                    .rate(leaf.id())
                    .unwrap()
                    .confidence_interval(0.999)
                    .unwrap();
                prop_assert!(
                    split_ci.lower.as_per_hour() <= crude_ci.upper.as_per_hour()
                        && crude_ci.lower.as_per_hour() <= split_ci.upper.as_per_hour(),
                    "type {:?}: crude [{:.5}, {:.5}]/h vs splitting [{:.5}, {:.5}]/h",
                    leaf.id(),
                    crude_ci.lower.as_per_hour(),
                    crude_ci.upper.as_per_hour(),
                    split_ci.lower.as_per_hour(),
                    split_ci.upper.as_per_hour(),
                );
            }
        }
    }
}
