//! The unified incident-evidence ledger: one mergeable accounting of
//! weighted incident mass and exposure, shared by every producer and
//! consumer of QRN evidence.
//!
//! The QRN loop is one pipeline — incidents observed somewhere, counted
//! against per-incident-type budgets, checked against Eq. (1) — but
//! evidence arrives from heterogeneous sources: crude Monte-Carlo
//! campaigns (unit-weight events), multilevel-splitting campaigns
//! (importance-weighted events), and operational fleet logs (unit-weight
//! events with no simulation context). An [`EvidenceLedger`] holds all of
//! them in a single structure keyed by *evidence key*: incident kind ×
//! optional context (an ODD zone name, for instance), mapping to a
//! [`WeightedCount`] of incident mass plus the exposure hours the mass
//! was observed over.
//!
//! # Context semantics
//!
//! The empty context name ([`GLOBAL_CONTEXT`]) is the ledger's *total*
//! row: it aggregates the entire evidence stream. Named contexts are
//! refinements — the slice of the stream that could be attributed to a
//! specific context (a zone of the exposure model, say). Producers that
//! attribute evidence to a named context are expected to record the same
//! evidence in the global row too, so global queries never depend on
//! which refinements a producer happened to know about. Sources with no
//! context information (fleet logs) simply fill only the global row.
//!
//! This convention keeps [`EvidenceLedger::merge`] a plain component-wise
//! union: exposures add, weighted counts merge, rows present in either
//! operand are present in the result. Merging is therefore
//! **commutative** (f64 addition commutes bit-exactly) and
//! **associative** whenever the sums involved are exact — and always
//! associative and commutative up to floating-point rounding. The
//! proptests below pin the exact case.
//!
//! # Examples
//!
//! ```
//! use qrn_stats::evidence::EvidenceLedger;
//!
//! let mut sim = EvidenceLedger::new();
//! sim.add_exposure(None, 1000.0);
//! sim.add_exposure(Some("urban-core"), 400.0);
//! sim.add_incident(None, "I2", 0.125); // importance-weighted
//! sim.add_incident(Some("urban-core"), "I2", 0.125);
//!
//! let mut fleet = EvidenceLedger::new();
//! fleet.add_exposure(None, 5000.0);
//! fleet.add_incident(None, "I2", 1.0); // operational, unit weight
//!
//! let mut combined = sim.clone();
//! combined.merge(&fleet);
//! assert_eq!(combined.exposure(), 6000.0);
//! assert_eq!(combined.count("I2").observations(), 2);
//! // Merge is commutative:
//! let mut other = fleet.clone();
//! other.merge(&sim);
//! assert_eq!(combined, other);
//! ```

use std::collections::BTreeMap;

use serde::{Deserialize, Serialize};

use qrn_units::Hours;

use crate::poisson::{WeightedCount, WeightedPoissonRate};

/// Name of the ledger row that aggregates the whole evidence stream.
pub const GLOBAL_CONTEXT: &str = "";

fn context_key(context: Option<&str>) -> &str {
    context.unwrap_or(GLOBAL_CONTEXT)
}

fn check_hours(hours: f64) -> f64 {
    assert!(
        hours.is_finite() && hours >= 0.0,
        "exposure must be finite and non-negative, got {hours}"
    );
    hours
}

/// The evidence accumulated for one context: exposure plus weighted
/// incident mass per incident kind.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct ContextEvidence {
    /// Exposure hours observed in this context.
    exposure_hours: f64,
    /// Weighted incident mass per incident kind.
    counts: BTreeMap<String, WeightedCount>,
    /// Weighted mass of observed events that no incident kind claimed.
    unclassified: WeightedCount,
}

impl ContextEvidence {
    /// Exposure hours observed in this context.
    pub fn exposure_hours(&self) -> f64 {
        self.exposure_hours
    }

    /// Exposure as a typed duration.
    pub fn exposure(&self) -> Hours {
        Hours::new(self.exposure_hours).expect("accumulated exposure is non-negative")
    }

    /// Weighted mass recorded for `kind` (empty if never recorded).
    pub fn count(&self, kind: &str) -> WeightedCount {
        self.counts.get(kind).copied().unwrap_or_default()
    }

    /// All recorded kinds with their weighted masses, in kind order.
    pub fn counts(&self) -> impl Iterator<Item = (&str, &WeightedCount)> {
        self.counts.iter().map(|(k, c)| (k.as_str(), c))
    }

    /// Weighted mass of events no incident kind claimed.
    pub fn unclassified(&self) -> WeightedCount {
        self.unclassified
    }

    /// The context's weighted rate observation for `kind`.
    pub fn rate(&self, kind: &str) -> WeightedPoissonRate {
        WeightedPoissonRate::new(self.count(kind), self.exposure())
    }

    /// True when the row carries no exposure and no mass.
    pub fn is_empty(&self) -> bool {
        self.exposure_hours == 0.0
            && self.unclassified.observations() == 0
            && self.counts.values().all(|c| c.observations() == 0)
    }

    fn merge(&mut self, other: &ContextEvidence) {
        self.exposure_hours += other.exposure_hours;
        for (kind, count) in &other.counts {
            self.counts.entry(kind.clone()).or_default().merge(count);
        }
        self.unclassified.merge(&other.unclassified);
    }
}

/// A serializable, mergeable map from evidence key (incident kind ×
/// optional context) to weighted incident mass and exposure.
///
/// See the [module documentation](self) for the context semantics and
/// the merge laws.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct EvidenceLedger {
    /// Per-context evidence rows; [`GLOBAL_CONTEXT`] is the total row.
    contexts: BTreeMap<String, ContextEvidence>,
}

impl EvidenceLedger {
    /// Creates an empty ledger (the identity of [`EvidenceLedger::merge`]).
    pub fn new() -> Self {
        EvidenceLedger::default()
    }

    /// Adds exposure hours to a context row (`None` for the global row).
    ///
    /// # Panics
    ///
    /// Panics if `hours` is negative or not finite.
    pub fn add_exposure(&mut self, context: Option<&str>, hours: f64) {
        self.row(context).exposure_hours += check_hours(hours);
    }

    /// Folds an already-accumulated exposure sum into a context row, the
    /// way [`EvidenceLedger::merge`] adds another ledger's row. The hours
    /// in the sum were checked one by one, but a sum of finite hours can
    /// still round to `+inf`, so only its sign is checked here.
    ///
    /// # Panics
    ///
    /// Panics if `hours` is negative or NaN.
    pub fn add_exposure_sum(&mut self, context: Option<&str>, hours: f64) {
        assert!(
            hours >= 0.0,
            "an exposure sum must be non-negative, got {hours}"
        );
        self.row(context).exposure_hours += hours;
    }

    /// Records one incident observation of weighted mass `weight` for
    /// `kind` in a context row. A producer attributing evidence to a
    /// named context should record the same observation in the global
    /// row too (see the module documentation).
    ///
    /// # Panics
    ///
    /// Panics if `weight` is negative or not finite.
    pub fn add_incident(&mut self, context: Option<&str>, kind: &str, weight: f64) {
        self.row(context)
            .counts
            .entry(kind.to_string())
            .or_default()
            .push(weight);
    }

    /// Folds an already-accumulated weighted mass for `kind` into a
    /// context row. Pre-seeding with an empty count pins the row's key
    /// set, which keeps serialised artefacts independent of which kinds
    /// happened to observe mass.
    pub fn add_count(&mut self, context: Option<&str>, kind: &str, count: &WeightedCount) {
        self.row(context)
            .counts
            .entry(kind.to_string())
            .or_default()
            .merge(count);
    }

    /// Records one unclassified observation of weighted mass `weight`.
    ///
    /// # Panics
    ///
    /// Panics if `weight` is negative or not finite.
    pub fn add_unclassified(&mut self, context: Option<&str>, weight: f64) {
        self.row(context).unclassified.push(weight);
    }

    /// Folds an already-accumulated unclassified mass into a context row.
    pub fn add_unclassified_count(&mut self, context: Option<&str>, count: &WeightedCount) {
        self.row(context).unclassified.merge(count);
    }

    /// Merges another ledger into this one: exposures add, weighted
    /// counts merge, context rows union. Deterministic; commutative
    /// bit-exactly; associative whenever the floating-point sums are
    /// exact (and up to rounding otherwise).
    pub fn merge(&mut self, other: &EvidenceLedger) {
        for (name, row) in &other.contexts {
            self.contexts.entry(name.clone()).or_default().merge(row);
        }
    }

    /// Returns the merge of two ledgers.
    pub fn merged(mut self, other: &EvidenceLedger) -> EvidenceLedger {
        self.merge(other);
        self
    }

    /// Exposure hours in the global row — the total exposure of the
    /// evidence stream.
    pub fn exposure(&self) -> f64 {
        self.context(GLOBAL_CONTEXT)
            .map_or(0.0, ContextEvidence::exposure_hours)
    }

    /// Exposure hours attributed to a named context.
    pub fn exposure_in(&self, context: &str) -> f64 {
        self.context(context)
            .map_or(0.0, ContextEvidence::exposure_hours)
    }

    /// The global weighted mass recorded for `kind`.
    pub fn count(&self, kind: &str) -> WeightedCount {
        self.context(GLOBAL_CONTEXT)
            .map_or_else(WeightedCount::new, |row| row.count(kind))
    }

    /// The weighted mass recorded for `kind` in a named context.
    pub fn count_in(&self, context: &str, kind: &str) -> WeightedCount {
        self.context(context)
            .map_or_else(WeightedCount::new, |row| row.count(kind))
    }

    /// The global unclassified mass.
    pub fn unclassified(&self) -> WeightedCount {
        self.context(GLOBAL_CONTEXT)
            .map_or_else(WeightedCount::new, ContextEvidence::unclassified)
    }

    /// The global weighted rate observation for `kind` — what Eq. (1)
    /// verification and burn-down monitoring consume.
    pub fn rate(&self, kind: &str) -> WeightedPoissonRate {
        WeightedPoissonRate::new(self.count(kind), self.exposure_hours_typed())
    }

    /// The weighted rate observation for `kind` within a named context.
    pub fn rate_in(&self, context: &str, kind: &str) -> WeightedPoissonRate {
        let exposure =
            Hours::new(self.exposure_in(context)).expect("accumulated exposure is non-negative");
        WeightedPoissonRate::new(self.count_in(context, kind), exposure)
    }

    /// One row of the ledger, if present (`GLOBAL_CONTEXT` for the total
    /// row).
    pub fn context(&self, name: &str) -> Option<&ContextEvidence> {
        self.contexts.get(name)
    }

    /// All context rows in name order, the global row (if present) first.
    pub fn contexts(&self) -> impl Iterator<Item = (&str, &ContextEvidence)> {
        self.contexts.iter().map(|(name, row)| (name.as_str(), row))
    }

    /// The named (non-global) context rows in name order.
    pub fn named_contexts(&self) -> impl Iterator<Item = (&str, &ContextEvidence)> {
        self.contexts().filter(|(name, _)| !name.is_empty())
    }

    /// Sum of the named (non-global) rows' exposures, in name order.
    ///
    /// When every observation was attributed to exactly one named context
    /// (a MECE band partition, as the banded telemetry generator
    /// produces), this equals [`EvidenceLedger::exposure`] — bit-exactly
    /// when the chunks are dyadic (e.g. 0.25 h multiples), since dyadic
    /// partial sums never round. A mismatch means the named rows do not
    /// partition the evidence: hours were double-attributed, or some
    /// lines carried no context.
    pub fn named_exposure_total(&self) -> f64 {
        self.named_contexts()
            .map(|(_, row)| row.exposure_hours())
            .sum()
    }

    /// Union of the incident kinds recorded in any context, in kind order.
    pub fn kinds(&self) -> Vec<&str> {
        let mut kinds: Vec<&str> = self
            .contexts
            .values()
            .flat_map(|row| row.counts.keys().map(String::as_str))
            .collect();
        kinds.sort_unstable();
        kinds.dedup();
        kinds
    }

    /// True when no row carries any exposure or mass.
    pub fn is_empty(&self) -> bool {
        self.contexts.values().all(ContextEvidence::is_empty)
    }

    /// The ledger's canonical byte representation: compact JSON with
    /// contexts and kinds in key order (the ledger's maps are ordered)
    /// and floats rendered round-trip exactly. Two ledgers are equal as
    /// evidence if and only if their canonical JSON is byte-identical,
    /// which is what snapshot stores (`qrn-store`) compare when
    /// verifying that a stored ledger snapshot matches an independent
    /// replay.
    pub fn canonical_json(&self) -> String {
        serde_json::to_string(self).expect("evidence ledger is serialisable")
    }

    fn row(&mut self, context: Option<&str>) -> &mut ContextEvidence {
        self.contexts
            .entry(context_key(context).to_string())
            .or_default()
    }

    fn exposure_hours_typed(&self) -> Hours {
        Hours::new(self.exposure()).expect("accumulated exposure is non-negative")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn empty_ledger_is_identity() {
        let mut ledger = EvidenceLedger::new();
        ledger.add_exposure(None, 10.0);
        ledger.add_incident(None, "I2", 1.0);
        let merged = ledger.clone().merged(&EvidenceLedger::new());
        assert_eq!(merged, ledger);
        let merged = EvidenceLedger::new().merged(&ledger);
        assert_eq!(merged, ledger);
        assert!(EvidenceLedger::new().is_empty());
        assert!(!ledger.is_empty());
    }

    #[test]
    fn named_exposure_total_detects_mece_partitions() {
        let mut ledger = EvidenceLedger::new();
        // double-entry band attribution: each chunk lands in the global
        // row and exactly one named row
        for (key, hours) in [
            ("weather=clear,zone=urban", 12.25),
            ("weather=fog,zone=urban", 3.75),
            ("weather=fog,zone=highway", 7.5),
        ] {
            ledger.add_exposure(None, hours);
            ledger.add_exposure(Some(key), hours);
        }
        // dyadic chunks: the partition sums bit-exactly
        assert_eq!(ledger.named_exposure_total(), ledger.exposure());
        // unattributed hours break the partition
        ledger.add_exposure(None, 1.0);
        assert!(ledger.named_exposure_total() < ledger.exposure());
        // an empty ledger partitions trivially
        assert_eq!(EvidenceLedger::new().named_exposure_total(), 0.0);
    }

    #[test]
    fn global_and_named_rows_are_independent() {
        let mut ledger = EvidenceLedger::new();
        ledger.add_exposure(None, 100.0);
        ledger.add_exposure(Some("urban"), 40.0);
        ledger.add_incident(None, "I2", 1.0);
        ledger.add_incident(Some("urban"), "I2", 1.0);
        assert_eq!(ledger.exposure(), 100.0);
        assert_eq!(ledger.exposure_in("urban"), 40.0);
        assert_eq!(ledger.count("I2").observations(), 1);
        assert_eq!(ledger.count_in("urban", "I2").observations(), 1);
        assert_eq!(ledger.count_in("rural", "I2").observations(), 0);
        assert_eq!(ledger.named_contexts().count(), 1);
        assert_eq!(ledger.kinds(), vec!["I2"]);
    }

    #[test]
    fn an_exposure_sum_adds_like_a_merged_row() {
        let mut summed = EvidenceLedger::new();
        summed.add_exposure_sum(Some("urban"), f64::MAX + f64::MAX);
        let mut row = EvidenceLedger::new();
        row.add_exposure(Some("urban"), f64::MAX);
        let merged = row.clone().merged(&row);
        assert_eq!(summed, merged);
        assert_eq!(summed.exposure_in("urban"), f64::INFINITY);
    }

    #[test]
    fn some_empty_context_is_the_global_row() {
        let mut a = EvidenceLedger::new();
        a.add_exposure(Some(""), 5.0);
        let mut b = EvidenceLedger::new();
        b.add_exposure(None, 5.0);
        assert_eq!(a, b);
    }

    #[test]
    fn rates_use_the_matching_exposure() {
        let mut ledger = EvidenceLedger::new();
        ledger.add_exposure(None, 1000.0);
        ledger.add_exposure(Some("urban"), 250.0);
        for _ in 0..4 {
            ledger.add_incident(None, "I2", 1.0);
        }
        ledger.add_incident(Some("urban"), "I2", 1.0);
        let global = ledger.rate("I2");
        assert!((global.point_estimate().unwrap().as_per_hour() - 4e-3).abs() < 1e-15);
        let urban = ledger.rate_in("urban", "I2");
        assert!((urban.point_estimate().unwrap().as_per_hour() - 4e-3).abs() < 1e-15);
    }

    #[test]
    fn unit_weight_evidence_stays_unweighted() {
        let mut ledger = EvidenceLedger::new();
        ledger.add_exposure(None, 10.0);
        for _ in 0..3 {
            ledger.add_incident(None, "I1", 1.0);
        }
        assert!(ledger.count("I1").is_unweighted());
        ledger.add_incident(None, "I1", 0.5);
        assert!(!ledger.count("I1").is_unweighted());
        // The empty count is unweighted (the crude zero-event case).
        assert!(ledger.count("never").is_unweighted());
    }

    #[test]
    fn pre_seeded_kinds_survive_serde() {
        let mut ledger = EvidenceLedger::new();
        ledger.add_exposure(None, 1.0);
        ledger.add_count(None, "I3", &WeightedCount::new());
        let json = serde_json::to_string(&ledger).unwrap();
        let back: EvidenceLedger = serde_json::from_str(&json).unwrap();
        assert_eq!(back, ledger);
        assert_eq!(back.kinds(), vec!["I3"]);
    }

    #[test]
    fn canonical_json_is_deterministic_and_separates_distinct_evidence() {
        let mut ledger = EvidenceLedger::new();
        ledger.add_exposure(Some("urban"), 0.1 + 0.2); // non-dyadic float
        ledger.add_incident(None, "I2", 1.0);
        // Deterministic: same ledger, same bytes — and round-trippable,
        // so the representation loses nothing (floats included).
        assert_eq!(ledger.canonical_json(), ledger.canonical_json());
        let back: EvidenceLedger = serde_json::from_str(&ledger.canonical_json()).unwrap();
        assert_eq!(back, ledger);
        assert_eq!(back.canonical_json(), ledger.canonical_json());
        // Distinct evidence has distinct bytes.
        let mut other = ledger.clone();
        other.add_incident(None, "I2", 1.0);
        assert_ne!(other.canonical_json(), ledger.canonical_json());
    }

    #[test]
    fn serde_round_trip_with_weighted_mass() {
        let mut ledger = EvidenceLedger::new();
        ledger.add_exposure(None, 123.5);
        ledger.add_exposure(Some("highway"), 23.5);
        ledger.add_incident(None, "I2", 0.125);
        ledger.add_incident(Some("highway"), "I2", 0.125);
        ledger.add_unclassified(None, 1.0);
        let back: EvidenceLedger =
            serde_json::from_str(&serde_json::to_string(&ledger).unwrap()).unwrap();
        assert_eq!(back, ledger);
    }

    #[test]
    fn negative_inputs_panic() {
        let mut ledger = EvidenceLedger::new();
        assert!(std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            ledger.add_exposure(None, -1.0)
        }))
        .is_err());
        let mut ledger = EvidenceLedger::new();
        assert!(std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            ledger.add_incident(None, "I1", f64::NAN)
        }))
        .is_err());
    }

    /// A dyadic weight in `[0.25, 64]`: sums of a few hundred of these are
    /// exact in f64, so merge associativity must hold bit-for-bit.
    fn dyadic() -> impl Strategy<Value = f64> {
        (1u32..=256).prop_map(|i| i as f64 * 0.25)
    }

    fn arb_ledger() -> impl Strategy<Value = EvidenceLedger> {
        let contexts = proptest::sample::select(vec![None, Some("urban"), Some("rural")]);
        let kinds = proptest::sample::select(vec!["I1", "I2", "I3"]);
        let entry = (contexts.clone(), kinds, dyadic());
        let exposure = (contexts, dyadic());
        (
            proptest::collection::vec(entry, 0..12),
            proptest::collection::vec(exposure, 0..4),
        )
            .prop_map(|(incidents, exposures)| {
                let mut ledger = EvidenceLedger::new();
                for (context, kind, weight) in incidents {
                    ledger.add_incident(context, kind, weight);
                }
                for (context, hours) in exposures {
                    ledger.add_exposure(context, hours);
                }
                ledger
            })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// With exactly-representable (dyadic, bounded) masses, merge is
        /// associative bit-for-bit.
        #[test]
        fn merge_is_associative(a in arb_ledger(), b in arb_ledger(), c in arb_ledger()) {
            let left = a.clone().merged(&b).merged(&c);
            let right = a.clone().merged(&b.clone().merged(&c));
            prop_assert_eq!(left, right);
        }

        /// Merge commutes bit-for-bit for any inputs (f64 addition
        /// commutes exactly).
        #[test]
        fn merge_is_commutative(a in arb_ledger(), b in arb_ledger()) {
            prop_assert_eq!(a.clone().merged(&b), b.clone().merged(&a));
        }

        /// The empty ledger is a two-sided identity.
        #[test]
        fn merge_identity(a in arb_ledger()) {
            prop_assert_eq!(a.clone().merged(&EvidenceLedger::new()), a.clone());
            prop_assert_eq!(EvidenceLedger::new().merged(&a), a);
        }

        /// Merging preserves total mass and exposure (exact for dyadic
        /// inputs).
        #[test]
        fn merge_conserves_mass(a in arb_ledger(), b in arb_ledger()) {
            let m = a.clone().merged(&b);
            prop_assert_eq!(m.exposure(), a.exposure() + b.exposure());
            for kind in ["I1", "I2", "I3"] {
                prop_assert_eq!(
                    m.count(kind).total(),
                    a.count(kind).total() + b.count(kind).total()
                );
                prop_assert_eq!(
                    m.count(kind).observations(),
                    a.count(kind).observations() + b.count(kind).observations()
                );
            }
        }
    }
}
