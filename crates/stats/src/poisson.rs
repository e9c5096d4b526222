//! Exact inference for Poisson rates: the statistical core of demonstrating
//! a quantitative safety goal.
//!
//! A safety goal produced by the QRN method has the form "incident type `I`
//! occurs at a rate below `f_I` per operating hour". The natural model for
//! rare incident counts over an exposure is a Poisson process, and the
//! standard exact interval for its rate is **Garwood's** chi-square
//! construction:
//!
//! * lower bound: `χ²(α/2; 2k) / (2T)`
//! * upper bound: `χ²(1 − α/2; 2k + 2) / (2T)`
//!
//! for `k` observed events over exposure `T`. The one-sided upper bound
//! `χ²(γ; 2k + 2) / (2T)` is what a demonstration argument uses: if it lies
//! below the budget, the rate is shown to be below the budget with
//! confidence `γ`.

use serde::{Deserialize, Serialize};

use qrn_units::{Frequency, Hours};

use crate::error::{check_confidence, StatsError};
use crate::special::{chi_square_quantile, QuantileMemo};

/// An observed event count over an exposure, modelling a Poisson process.
///
/// # Examples
///
/// ```
/// use qrn_stats::poisson::PoissonRate;
/// use qrn_units::Hours;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let obs = PoissonRate::new(5, Hours::new(1.0e6)?);
/// let ci = obs.confidence_interval(0.95)?;
/// assert!(ci.lower < obs.point_estimate()?);
/// assert!(ci.upper > obs.point_estimate()?);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct PoissonRate {
    /// Number of observed events.
    pub count: u64,
    /// Exposure over which the events were observed.
    pub exposure: Hours,
}

/// A two-sided confidence interval for a Poisson rate.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct RateInterval {
    /// Lower confidence bound.
    pub lower: Frequency,
    /// Upper confidence bound.
    pub upper: Frequency,
    /// Two-sided confidence level in `(0, 1)`.
    pub confidence: f64,
}

impl RateInterval {
    /// Returns `true` when `rate` lies inside the interval (inclusive).
    pub fn contains(&self, rate: Frequency) -> bool {
        self.lower <= rate && rate <= self.upper
    }

    /// Interval width in events per hour.
    pub fn width(&self) -> Frequency {
        self.upper.saturating_sub(self.lower)
    }
}

/// Garwood's upper endpoint `χ²(p; 2k + 2) / (2t)` for `k` (possibly
/// effective, fractional) events over `t` hours, at upper-tail
/// probability `p`. Every upper bound in this module comes from here.
fn garwood_upper(k: f64, t: f64, p: f64, memo: &QuantileMemo) -> Result<Frequency, StatsError> {
    Frequency::per_hour(memo.chi_square_quantile(2.0 * k + 2.0, p)? / (2.0 * t))
        .map_err(StatsError::from)
}

/// Garwood's lower endpoint `χ²(p; 2k) / (2t)` at lower-tail probability
/// `p`; exactly zero when no events were observed.
fn garwood_lower(k: f64, t: f64, p: f64, memo: &QuantileMemo) -> Result<Frequency, StatsError> {
    if k == 0.0 {
        return Ok(Frequency::ZERO);
    }
    Frequency::per_hour(memo.chi_square_quantile(2.0 * k, p)? / (2.0 * t)).map_err(StatsError::from)
}

impl PoissonRate {
    /// Creates an observation of `count` events over `exposure`.
    pub fn new(count: u64, exposure: Hours) -> Self {
        PoissonRate { count, exposure }
    }

    /// An observation of zero events over zero exposure (identity for
    /// [`PoissonRate::merged`]).
    pub fn empty() -> Self {
        PoissonRate {
            count: 0,
            exposure: Hours::ZERO,
        }
    }

    /// Pools two independent observations of the same process.
    pub fn merged(self, other: PoissonRate) -> PoissonRate {
        PoissonRate {
            count: self.count + other.count,
            exposure: self.exposure + other.exposure,
        }
    }

    /// Maximum-likelihood point estimate `k / T`.
    ///
    /// # Errors
    ///
    /// Returns [`StatsError`] if the exposure is zero.
    pub fn point_estimate(&self) -> Result<Frequency, StatsError> {
        Frequency::from_count(self.count as f64, self.exposure).map_err(StatsError::from)
    }

    /// Exact two-sided Garwood confidence interval at the given confidence
    /// level.
    ///
    /// # Errors
    ///
    /// Returns [`StatsError`] for zero exposure or a confidence level
    /// outside `(0, 1)`.
    pub fn confidence_interval(&self, confidence: f64) -> Result<RateInterval, StatsError> {
        let confidence = check_confidence(confidence)?;
        self.require_exposure()?;
        let alpha = 1.0 - confidence;
        let t = self.exposure.value();
        let k = self.count as f64;
        let memo = &QuantileMemo::new();
        Ok(RateInterval {
            lower: garwood_lower(k, t, alpha / 2.0, memo)?,
            upper: garwood_upper(k, t, 1.0 - alpha / 2.0, memo)?,
            confidence,
        })
    }

    /// One-sided upper confidence bound at level `confidence`: the largest
    /// rate still plausible given the observation.
    ///
    /// This is the bound a demonstration argument compares against a budget.
    ///
    /// # Errors
    ///
    /// Returns [`StatsError`] for zero exposure or invalid confidence.
    pub fn upper_bound(&self, confidence: f64) -> Result<Frequency, StatsError> {
        self.upper_bound_with(confidence, &QuantileMemo::new())
    }

    /// [`PoissonRate::upper_bound`] taking its quantile through `memo`:
    /// bit-identical, and free when the memo already holds the quantile
    /// for this count and confidence.
    ///
    /// # Errors
    ///
    /// As [`PoissonRate::upper_bound`].
    pub fn upper_bound_with(
        &self,
        confidence: f64,
        memo: &QuantileMemo,
    ) -> Result<Frequency, StatsError> {
        let confidence = check_confidence(confidence)?;
        self.require_exposure()?;
        garwood_upper(self.count as f64, self.exposure.value(), confidence, memo)
    }

    /// One-sided lower confidence bound at level `confidence`.
    ///
    /// Useful for showing that a *violation* is statistically established
    /// (the lower bound already exceeds the budget).
    ///
    /// # Errors
    ///
    /// Returns [`StatsError`] for zero exposure or invalid confidence.
    pub fn lower_bound(&self, confidence: f64) -> Result<Frequency, StatsError> {
        self.lower_bound_with(confidence, &QuantileMemo::new())
    }

    /// [`PoissonRate::lower_bound`] taking its quantile through `memo`.
    ///
    /// # Errors
    ///
    /// As [`PoissonRate::lower_bound`].
    pub fn lower_bound_with(
        &self,
        confidence: f64,
        memo: &QuantileMemo,
    ) -> Result<Frequency, StatsError> {
        let confidence = check_confidence(confidence)?;
        self.require_exposure()?;
        garwood_lower(
            self.count as f64,
            self.exposure.value(),
            1.0 - confidence,
            memo,
        )
    }

    /// Returns `true` when the observation demonstrates that the true rate
    /// is below `budget` with the given one-sided confidence.
    ///
    /// # Errors
    ///
    /// Returns [`StatsError`] for zero exposure or invalid confidence.
    pub fn demonstrates_below(
        &self,
        budget: Frequency,
        confidence: f64,
    ) -> Result<bool, StatsError> {
        Ok(self.upper_bound(confidence)? <= budget)
    }

    /// Returns `true` when the observation establishes that the true rate
    /// *exceeds* `budget` with the given one-sided confidence.
    ///
    /// # Errors
    ///
    /// Returns [`StatsError`] for zero exposure or invalid confidence.
    pub fn establishes_violation(
        &self,
        budget: Frequency,
        confidence: f64,
    ) -> Result<bool, StatsError> {
        Ok(self.lower_bound(confidence)? > budget)
    }

    fn require_exposure(&self) -> Result<(), StatsError> {
        if self.exposure.value() == 0.0 {
            return Err(StatsError::InvalidParameter {
                name: "exposure",
                value: 0.0,
                expected: "a strictly positive exposure",
            });
        }
        Ok(())
    }
}

/// A sum of importance-weighted event observations, as produced by a
/// variance-reduced (e.g. multilevel-splitting) campaign.
///
/// Each observation is the weighted event mass one independent exposure
/// unit (an encounter) contributed: `Σ w_particle · 1{event}` over the
/// particles spawned from that unit. Tracking `Σw` and `Σw²` is enough to
/// recover the unbiased total, Kish's effective sample size, and the
/// variance-reduction factor relative to crude Monte Carlo at the same
/// exposure.
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct WeightedCount {
    total: f64,
    total_sq: f64,
    observations: u64,
}

impl WeightedCount {
    /// Creates an empty weighted count.
    pub fn new() -> Self {
        WeightedCount::default()
    }

    /// Creates a count of `count` unit-weight observations — the crude
    /// Monte-Carlo / operational-fleet special case. For such counts
    /// [`WeightedCount::is_unweighted`] holds and the effective count
    /// equals `count` exactly (for counts below 2⁵³).
    pub fn unit(count: u64) -> Self {
        WeightedCount {
            total: count as f64,
            total_sq: count as f64,
            observations: count,
        }
    }

    /// True when every folded observation carried weight exactly 1.0 (or
    /// the count is empty): the evidence is statistically equivalent to a
    /// plain integer event count, and consumers may take the exact
    /// [`PoissonRate`] path instead of the effective-sample-size one.
    pub fn is_unweighted(&self) -> bool {
        self.total == self.observations as f64 && self.total_sq == self.total
    }

    /// Adds one observation of weighted event mass `weight`. Zero-weight
    /// observations are ignored.
    ///
    /// # Panics
    ///
    /// Panics if `weight` is negative or not finite.
    pub fn push(&mut self, weight: f64) {
        assert!(
            weight.is_finite() && weight >= 0.0,
            "weights must be finite and non-negative, got {weight}"
        );
        if weight == 0.0 {
            return;
        }
        self.total += weight;
        self.total_sq += weight * weight;
        self.observations += 1;
    }

    /// Merges another weighted count into this one (parallel reduction).
    pub fn merge(&mut self, other: &WeightedCount) {
        self.total += other.total;
        self.total_sq += other.total_sq;
        self.observations += other.observations;
    }

    /// Unbiased estimate of the expected event count, `Σw`.
    pub fn total(&self) -> f64 {
        self.total
    }

    /// Sum of squared observation weights, `Σw²`.
    pub fn total_sq(&self) -> f64 {
        self.total_sq
    }

    /// Number of non-zero observations folded.
    pub fn observations(&self) -> u64 {
        self.observations
    }

    /// Kish's effective sample size `(Σw)² / Σw²` — how many *unit-weight*
    /// events this weighted mass is statistically worth.
    pub fn effective_count(&self) -> f64 {
        if self.total_sq > 0.0 {
            self.total * self.total / self.total_sq
        } else {
            0.0
        }
    }

    /// Variance-reduction factor vs. crude Monte Carlo at the *same
    /// exposure*: `Σw / Σw²`.
    ///
    /// A crude campaign observing the same expected mass `Σw` as unit-weight
    /// events has estimator variance `∝ Σw`; the weighted estimator's is
    /// `∝ Σw²`. Unit weights give exactly 1. This is a per-exposure factor —
    /// multiply by (crude cost / weighted cost) to get the matched-compute
    /// figure.
    pub fn variance_reduction(&self) -> f64 {
        if self.total_sq > 0.0 {
            self.total / self.total_sq
        } else {
            1.0
        }
    }
}

/// A weighted event mass over an exposure: the splitting-aware analogue of
/// [`PoissonRate`].
///
/// Confidence intervals use Garwood's construction on the *effective*
/// observation: `k_eff = (Σw)²/Σw²` events over `T_eff = T·Σw/Σw²` hours.
/// This pair preserves the point estimate (`k_eff/T_eff = Σw/T`) while the
/// interval width reflects the information actually carried by the weighted
/// sample ([`chi_square_quantile`] accepts the fractional degrees of freedom
/// this produces). With unit weights it reduces exactly to [`PoissonRate`].
///
/// # Examples
///
/// ```
/// use qrn_stats::poisson::{PoissonRate, WeightedCount, WeightedPoissonRate};
/// use qrn_units::Hours;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut count = WeightedCount::new();
/// for _ in 0..5 {
///     count.push(1.0); // unit weights ≙ crude MC
/// }
/// let weighted = WeightedPoissonRate::new(count, Hours::new(1.0e4)?);
/// let crude = PoissonRate::new(5, Hours::new(1.0e4)?);
/// let a = weighted.confidence_interval(0.95)?;
/// let b = crude.confidence_interval(0.95)?;
/// assert!((a.upper.as_per_hour() - b.upper.as_per_hour()).abs() < 1e-12);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct WeightedPoissonRate {
    /// The weighted event observations.
    pub count: WeightedCount,
    /// Exposure over which the observations were collected.
    pub exposure: Hours,
}

impl WeightedPoissonRate {
    /// Creates a weighted observation of `count` over `exposure`.
    pub fn new(count: WeightedCount, exposure: Hours) -> Self {
        WeightedPoissonRate { count, exposure }
    }

    /// Maximum-likelihood point estimate `Σw / T`.
    ///
    /// # Errors
    ///
    /// Returns [`StatsError`] if the exposure is zero.
    pub fn point_estimate(&self) -> Result<Frequency, StatsError> {
        Frequency::from_count(self.count.total(), self.exposure).map_err(StatsError::from)
    }

    /// Effective number of events and effective exposure `(k_eff, T_eff)`.
    ///
    /// With no events observed, falls back to `(0, T)` — the weights are
    /// unknown, so the zero-event bound is taken at face (unit-weight)
    /// exposure, which is the conservative choice.
    pub fn effective(&self) -> (f64, Hours) {
        if self.count.total_sq() == 0.0 {
            return (0.0, self.exposure);
        }
        let scale = self.count.total() / self.count.total_sq();
        let t_eff = Hours::new(self.exposure.value() * scale)
            .expect("scaling a valid exposure by a positive finite factor");
        (self.count.effective_count(), t_eff)
    }

    /// Exact two-sided Garwood interval on the effective observation.
    ///
    /// # Errors
    ///
    /// Returns [`StatsError`] for zero exposure or a confidence level
    /// outside `(0, 1)`.
    pub fn confidence_interval(&self, confidence: f64) -> Result<RateInterval, StatsError> {
        let confidence = check_confidence(confidence)?;
        self.require_exposure()?;
        let alpha = 1.0 - confidence;
        let (k, t_eff) = self.effective();
        let t = t_eff.value();
        let memo = &QuantileMemo::new();
        Ok(RateInterval {
            lower: garwood_lower(k, t, alpha / 2.0, memo)?,
            upper: garwood_upper(k, t, 1.0 - alpha / 2.0, memo)?,
            confidence,
        })
    }

    /// One-sided upper confidence bound on the effective observation — the
    /// bound a demonstration argument compares against a budget.
    ///
    /// # Errors
    ///
    /// Returns [`StatsError`] for zero exposure or invalid confidence.
    pub fn upper_bound(&self, confidence: f64) -> Result<Frequency, StatsError> {
        self.upper_bound_with(confidence, &QuantileMemo::new())
    }

    /// [`WeightedPoissonRate::upper_bound`] taking its quantile through
    /// `memo`: bit-identical, and free when the memo already holds the
    /// quantile for this effective count and confidence.
    ///
    /// # Errors
    ///
    /// As [`WeightedPoissonRate::upper_bound`].
    pub fn upper_bound_with(
        &self,
        confidence: f64,
        memo: &QuantileMemo,
    ) -> Result<Frequency, StatsError> {
        let confidence = check_confidence(confidence)?;
        self.require_exposure()?;
        let (k, t_eff) = self.effective();
        garwood_upper(k, t_eff.value(), confidence, memo)
    }

    /// One-sided lower confidence bound on the effective observation.
    ///
    /// Useful for showing that a *violation* is statistically established
    /// even by weighted evidence (the lower bound already exceeds the
    /// budget).
    ///
    /// # Errors
    ///
    /// Returns [`StatsError`] for zero exposure or invalid confidence.
    pub fn lower_bound(&self, confidence: f64) -> Result<Frequency, StatsError> {
        self.lower_bound_with(confidence, &QuantileMemo::new())
    }

    /// [`WeightedPoissonRate::lower_bound`] taking its quantile through
    /// `memo`.
    ///
    /// # Errors
    ///
    /// As [`WeightedPoissonRate::lower_bound`].
    pub fn lower_bound_with(
        &self,
        confidence: f64,
        memo: &QuantileMemo,
    ) -> Result<Frequency, StatsError> {
        let confidence = check_confidence(confidence)?;
        self.require_exposure()?;
        let (k, t_eff) = self.effective();
        garwood_lower(k, t_eff.value(), 1.0 - confidence, memo)
    }

    /// Returns `true` when the weighted observation demonstrates the true
    /// rate below `budget` with the given one-sided confidence.
    ///
    /// # Errors
    ///
    /// Returns [`StatsError`] for zero exposure or invalid confidence.
    pub fn demonstrates_below(
        &self,
        budget: Frequency,
        confidence: f64,
    ) -> Result<bool, StatsError> {
        Ok(self.upper_bound(confidence)? <= budget)
    }

    /// Returns `true` when the weighted observation establishes that the
    /// true rate *exceeds* `budget` with the given one-sided confidence.
    ///
    /// # Errors
    ///
    /// Returns [`StatsError`] for zero exposure or invalid confidence.
    pub fn establishes_violation(
        &self,
        budget: Frequency,
        confidence: f64,
    ) -> Result<bool, StatsError> {
        Ok(self.lower_bound(confidence)? > budget)
    }

    fn require_exposure(&self) -> Result<(), StatsError> {
        if self.exposure.value() == 0.0 {
            return Err(StatsError::InvalidParameter {
                name: "exposure",
                value: 0.0,
                expected: "a strictly positive exposure",
            });
        }
        Ok(())
    }
}

/// Exposure (in hours) of *failure-free* operation needed to demonstrate a
/// rate below `budget` with one-sided confidence `confidence`.
///
/// With zero events the Garwood upper bound is `−ln(1 − γ) / T`, so the
/// requirement solves to `T = −ln(1 − γ) / budget`. For γ = 0.95 this is the
/// familiar "3/budget" rule (`−ln 0.05 ≈ 3.0`).
///
/// # Errors
///
/// Returns [`StatsError`] for a zero budget or invalid confidence.
///
/// # Examples
///
/// ```
/// use qrn_stats::poisson::required_exposure_zero_events;
/// use qrn_units::Frequency;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let t = required_exposure_zero_events(Frequency::per_hour(1e-7)?, 0.95)?;
/// assert!((t.value() - 2.9957e7).abs() / 2.9957e7 < 1e-3);
/// # Ok(())
/// # }
/// ```
pub fn required_exposure_zero_events(
    budget: Frequency,
    confidence: f64,
) -> Result<Hours, StatsError> {
    let confidence = check_confidence(confidence)?;
    if budget.as_per_hour() == 0.0 {
        return Err(StatsError::InvalidParameter {
            name: "budget",
            value: 0.0,
            expected: "a strictly positive budget",
        });
    }
    Hours::new(-(1.0 - confidence).ln() / budget.as_per_hour()).map_err(StatsError::from)
}

/// Exposure needed to demonstrate `budget` when `events` incidents are
/// anticipated during the campaign.
///
/// Solves `χ²(γ; 2k + 2) / (2T) = budget` for `T`. With `events = 0` this
/// reduces to [`required_exposure_zero_events`].
///
/// # Errors
///
/// Returns [`StatsError`] for a zero budget or invalid confidence.
pub fn required_exposure_with_events(
    budget: Frequency,
    events: u64,
    confidence: f64,
) -> Result<Hours, StatsError> {
    let confidence = check_confidence(confidence)?;
    if budget.as_per_hour() == 0.0 {
        return Err(StatsError::InvalidParameter {
            name: "budget",
            value: 0.0,
            expected: "a strictly positive budget",
        });
    }
    let q = chi_square_quantile(2.0 * events as f64 + 2.0, confidence)?;
    Hours::new(q / (2.0 * budget.as_per_hour())).map_err(StatsError::from)
}

/// Exact conditional test that two Poisson processes have the same rate.
///
/// Conditioned on the total count `k1 + k2`, the first process's count is
/// binomial with success probability `T1 / (T1 + T2)` under the null of
/// equal rates; the returned two-sided p-value is the doubled smaller tail
/// of that binomial (capped at 1). This is the classical exact comparison
/// used to claim, e.g., that a policy change *significantly* altered an
/// incident rate.
///
/// # Errors
///
/// Returns [`StatsError`] when either exposure is zero or both counts are
/// zero (no information about a ratio).
///
/// # Examples
///
/// ```
/// use qrn_stats::poisson::{rate_equality_p_value, PoissonRate};
/// use qrn_units::Hours;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let a = PoissonRate::new(50, Hours::new(1000.0)?);
/// let b = PoissonRate::new(10, Hours::new(1000.0)?);
/// assert!(rate_equality_p_value(a, b)? < 0.001); // clearly different
/// # Ok(())
/// # }
/// ```
pub fn rate_equality_p_value(a: PoissonRate, b: PoissonRate) -> Result<f64, StatsError> {
    let t1 = a.exposure.value();
    let t2 = b.exposure.value();
    if t1 <= 0.0 || t2 <= 0.0 {
        return Err(StatsError::InvalidParameter {
            name: "exposure",
            value: t1.min(t2),
            expected: "strictly positive exposures for both observations",
        });
    }
    let n = a.count + b.count;
    if n == 0 {
        return Err(StatsError::InvalidParameter {
            name: "total count",
            value: 0.0,
            expected: "at least one event across the two observations",
        });
    }
    let p = t1 / (t1 + t2);
    // Binomial tails via the regularized incomplete beta:
    // P(X ≤ k) = I_{1-p}(n-k, k+1).
    let cdf = |k: u64| -> Result<f64, StatsError> {
        if k >= n {
            return Ok(1.0);
        }
        crate::special::beta_inc((n - k) as f64, k as f64 + 1.0, 1.0 - p)
    };
    let k = a.count;
    let lower = cdf(k)?;
    let upper = 1.0 - if k == 0 { 0.0 } else { cdf(k - 1)? };
    Ok((2.0 * lower.min(upper)).min(1.0))
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn hours(h: f64) -> Hours {
        Hours::new(h).unwrap()
    }

    fn fph(f: f64) -> Frequency {
        Frequency::per_hour(f).unwrap()
    }

    #[test]
    fn garwood_zero_count_reference() {
        // k=0, T=1: upper 95% two-sided bound = chi2(0.975, 2)/2 = 3.68887945
        let obs = PoissonRate::new(0, hours(1.0));
        let ci = obs.confidence_interval(0.95).unwrap();
        assert_eq!(ci.lower, Frequency::ZERO);
        assert!((ci.upper.as_per_hour() - 3.68887945).abs() < 1e-6);
    }

    #[test]
    fn garwood_five_count_reference() {
        // k=5, T=1: lower = chi2(0.025, 10)/2 = 1.623486, upper = chi2(0.975, 12)/2 = 11.66833
        let obs = PoissonRate::new(5, hours(1.0));
        let ci = obs.confidence_interval(0.95).unwrap();
        assert!((ci.lower.as_per_hour() - 1.623486).abs() < 1e-5);
        assert!((ci.upper.as_per_hour() - 11.668332).abs() < 1e-5);
    }

    #[test]
    fn interval_scales_with_exposure() {
        let a = PoissonRate::new(5, hours(1.0))
            .confidence_interval(0.9)
            .unwrap();
        let b = PoissonRate::new(5, hours(10.0))
            .confidence_interval(0.9)
            .unwrap();
        assert!((a.upper.as_per_hour() / b.upper.as_per_hour() - 10.0).abs() < 1e-9);
    }

    #[test]
    fn one_sided_upper_bound_zero_events() {
        // -ln(0.05) = 2.9957
        let obs = PoissonRate::new(0, hours(1.0));
        let ub = obs.upper_bound(0.95).unwrap();
        assert!((ub.as_per_hour() - 2.9957323).abs() < 1e-6);
    }

    #[test]
    fn demonstration_flips_with_enough_exposure() {
        let budget = fph(1e-5);
        let short = PoissonRate::new(0, hours(1e4));
        let long = PoissonRate::new(0, hours(1e6));
        assert!(!short.demonstrates_below(budget, 0.95).unwrap());
        assert!(long.demonstrates_below(budget, 0.95).unwrap());
    }

    #[test]
    fn violation_established_with_many_events() {
        let budget = fph(1e-5);
        // 100 events in 1e5 hours -> rate ~1e-3 >> budget
        let obs = PoissonRate::new(100, hours(1e5));
        assert!(obs.establishes_violation(budget, 0.95).unwrap());
        // 1 event in 1e5 hours -> rate 1e-5, not established above budget
        let obs = PoissonRate::new(1, hours(1e5));
        assert!(!obs.establishes_violation(budget, 0.95).unwrap());
    }

    #[test]
    fn merged_pools_counts_and_exposure() {
        let a = PoissonRate::new(2, hours(10.0));
        let b = PoissonRate::new(3, hours(30.0));
        let m = a.merged(b);
        assert_eq!(m.count, 5);
        assert!((m.exposure.value() - 40.0).abs() < 1e-12);
        assert_eq!(PoissonRate::empty().merged(a), a);
    }

    #[test]
    fn required_exposure_rule_of_three() {
        let t = required_exposure_zero_events(fph(1e-6), 0.95).unwrap();
        assert!((t.value() - 2.9957323e6).abs() / 2.9957323e6 < 1e-6);
    }

    #[test]
    fn required_exposure_grows_with_anticipated_events() {
        let b = fph(1e-6);
        let t0 = required_exposure_with_events(b, 0, 0.95).unwrap();
        let t3 = required_exposure_with_events(b, 3, 0.95).unwrap();
        assert!(t3 > t0);
        // with 0 events both formulas agree
        let tz = required_exposure_zero_events(b, 0.95).unwrap();
        assert!((t0.value() - tz.value()).abs() / tz.value() < 1e-9);
    }

    #[test]
    fn zero_exposure_is_an_error() {
        let obs = PoissonRate::new(0, Hours::ZERO);
        assert!(obs.point_estimate().is_err());
        assert!(obs.confidence_interval(0.95).is_err());
        assert!(obs.upper_bound(0.95).is_err());
    }

    #[test]
    fn invalid_confidence_is_an_error() {
        let obs = PoissonRate::new(1, hours(10.0));
        assert!(obs.confidence_interval(0.0).is_err());
        assert!(obs.confidence_interval(1.0).is_err());
        assert!(required_exposure_zero_events(fph(1e-6), 1.5).is_err());
    }

    #[test]
    fn interval_contains_point_estimate() {
        for k in [1u64, 2, 10, 100, 1000] {
            let obs = PoissonRate::new(k, hours(1e4));
            let ci = obs.confidence_interval(0.99).unwrap();
            assert!(ci.contains(obs.point_estimate().unwrap()), "k={k}");
        }
    }

    #[test]
    fn serde_round_trip() {
        let obs = PoissonRate::new(7, hours(123.0));
        let back: PoissonRate =
            serde_json::from_str(&serde_json::to_string(&obs).unwrap()).unwrap();
        assert_eq!(obs, back);
    }

    #[test]
    fn rate_comparison_detects_clear_differences() {
        let a = PoissonRate::new(100, hours(1000.0));
        let b = PoissonRate::new(20, hours(1000.0));
        assert!(rate_equality_p_value(a, b).unwrap() < 1e-6);
        // symmetric
        let p_ab = rate_equality_p_value(a, b).unwrap();
        let p_ba = rate_equality_p_value(b, a).unwrap();
        assert!((p_ab - p_ba).abs() < 1e-9);
    }

    #[test]
    fn rate_comparison_accepts_equal_rates() {
        let a = PoissonRate::new(50, hours(1000.0));
        let b = PoissonRate::new(52, hours(1000.0));
        assert!(rate_equality_p_value(a, b).unwrap() > 0.5);
    }

    #[test]
    fn rate_comparison_handles_unequal_exposures() {
        // 10/100h vs 100/1000h: identical rates.
        let a = PoissonRate::new(10, hours(100.0));
        let b = PoissonRate::new(100, hours(1000.0));
        assert!(rate_equality_p_value(a, b).unwrap() > 0.5);
    }

    #[test]
    fn rate_comparison_rejects_degenerate_inputs() {
        let a = PoissonRate::new(0, hours(100.0));
        let b = PoissonRate::new(0, hours(100.0));
        assert!(rate_equality_p_value(a, b).is_err());
        let c = PoissonRate::new(5, Hours::ZERO);
        assert!(rate_equality_p_value(a, c).is_err());
    }

    #[test]
    fn weighted_count_with_unit_weights_matches_plain_count() {
        let mut w = WeightedCount::new();
        for _ in 0..7 {
            w.push(1.0);
        }
        assert_eq!(w.observations(), 7);
        assert!((w.total() - 7.0).abs() < 1e-12);
        assert!((w.effective_count() - 7.0).abs() < 1e-12);
        assert!((w.variance_reduction() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn weighted_rate_with_unit_weights_reduces_to_garwood() {
        let mut count = WeightedCount::new();
        for _ in 0..5 {
            count.push(1.0);
        }
        let weighted = WeightedPoissonRate::new(count, hours(1e4));
        let crude = PoissonRate::new(5, hours(1e4));
        let a = weighted.confidence_interval(0.95).unwrap();
        let b = crude.confidence_interval(0.95).unwrap();
        assert!((a.lower.as_per_hour() - b.lower.as_per_hour()).abs() < 1e-15);
        assert!((a.upper.as_per_hour() - b.upper.as_per_hour()).abs() < 1e-15);
        let ua = weighted.upper_bound(0.99).unwrap();
        let ub = crude.upper_bound(0.99).unwrap();
        assert!((ua.as_per_hour() - ub.as_per_hour()).abs() < 1e-15);
    }

    #[test]
    fn small_weights_reduce_variance() {
        // 100 observations of weight 1e-2 carry the same total mass as one
        // unit event but the ESS of 100 events: the interval must be tighter.
        let mut small = WeightedCount::new();
        for _ in 0..100 {
            small.push(1e-2);
        }
        assert!((small.total() - 1.0).abs() < 1e-9);
        assert!((small.effective_count() - 100.0).abs() < 1e-6);
        assert!((small.variance_reduction() - 100.0).abs() < 1e-6);
        let weighted = WeightedPoissonRate::new(small, hours(1e3));
        let crude = PoissonRate::new(1, hours(1e3));
        let wi = weighted.confidence_interval(0.95).unwrap();
        let ci = crude.confidence_interval(0.95).unwrap();
        assert!(wi.width() < ci.width());
        // Point estimates agree: both saw total mass 1 over 1e3 h.
        assert!(
            (weighted.point_estimate().unwrap().as_per_hour()
                - crude.point_estimate().unwrap().as_per_hour())
            .abs()
                < 1e-12
        );
    }

    #[test]
    fn one_dominant_weight_collapses_ess() {
        let mut w = WeightedCount::new();
        w.push(1.0);
        for _ in 0..50 {
            w.push(1e-6);
        }
        assert!(w.effective_count() < 1.01);
    }

    #[test]
    fn weighted_zero_events_matches_crude_zero_bound() {
        let weighted = WeightedPoissonRate::new(WeightedCount::new(), hours(100.0));
        let crude = PoissonRate::new(0, hours(100.0));
        let a = weighted.upper_bound(0.95).unwrap();
        let b = crude.upper_bound(0.95).unwrap();
        assert!((a.as_per_hour() - b.as_per_hour()).abs() < 1e-15);
        let ci = weighted.confidence_interval(0.95).unwrap();
        assert_eq!(ci.lower, Frequency::ZERO);
    }

    #[test]
    fn weighted_count_merge_is_associative_sum() {
        let mut a = WeightedCount::new();
        a.push(0.5);
        a.push(0.25);
        let mut b = WeightedCount::new();
        b.push(1.0);
        let mut m = a;
        m.merge(&b);
        assert!((m.total() - 1.75).abs() < 1e-12);
        assert!((m.total_sq() - (0.25 + 0.0625 + 1.0)).abs() < 1e-12);
        assert_eq!(m.observations(), 3);
    }

    #[test]
    fn weighted_demonstration_flips_with_enough_effective_exposure() {
        let budget = fph(1e-5);
        // 10 observations of weight 1e-3 over 1e4 h: rate 1e-6, but the
        // effective exposure is 1e4 * 1e3 = 1e7 h with k_eff = 10 events —
        // enough to demonstrate a 1e-5 budget.
        let mut count = WeightedCount::new();
        for _ in 0..10 {
            count.push(1e-3);
        }
        let weighted = WeightedPoissonRate::new(count, hours(1e4));
        assert!(weighted.demonstrates_below(budget, 0.95).unwrap());
        // The crude equivalent (10 events in 1e4 h → rate 1e-3) cannot.
        assert!(!PoissonRate::new(10, hours(1e4))
            .demonstrates_below(budget, 0.95)
            .unwrap());
    }

    #[test]
    fn unit_count_is_unweighted_and_exact() {
        let unit = WeightedCount::unit(7);
        assert!(unit.is_unweighted());
        assert_eq!(unit.observations(), 7);
        assert_eq!(unit.total(), 7.0);
        assert_eq!(unit.effective_count(), 7.0);
        let mut pushed = WeightedCount::new();
        for _ in 0..7 {
            pushed.push(1.0);
        }
        assert_eq!(unit, pushed);
        assert!(WeightedCount::unit(0).is_unweighted());
        let mut weighted = WeightedCount::new();
        weighted.push(0.5);
        assert!(!weighted.is_unweighted());
    }

    #[test]
    fn weighted_lower_bound_with_unit_weights_reduces_to_garwood() {
        let weighted = WeightedPoissonRate::new(WeightedCount::unit(5), hours(1e4));
        let crude = PoissonRate::new(5, hours(1e4));
        let a = weighted.lower_bound(0.95).unwrap();
        let b = crude.lower_bound(0.95).unwrap();
        assert!((a.as_per_hour() - b.as_per_hour()).abs() < 1e-15);
        // Zero events: lower bound is exactly zero.
        let none = WeightedPoissonRate::new(WeightedCount::new(), hours(1e4));
        assert_eq!(none.lower_bound(0.95).unwrap(), Frequency::ZERO);
    }

    #[test]
    fn weighted_violation_established_with_heavy_mass() {
        let budget = fph(1e-5);
        // 100 unit events in 1e5 hours -> rate ~1e-3 >> budget.
        let obs = WeightedPoissonRate::new(WeightedCount::unit(100), hours(1e5));
        assert!(obs.establishes_violation(budget, 0.95).unwrap());
        let obs = WeightedPoissonRate::new(WeightedCount::unit(1), hours(1e5));
        assert!(!obs.establishes_violation(budget, 0.95).unwrap());
    }

    #[test]
    fn weighted_rejects_degenerate_inputs() {
        let weighted = WeightedPoissonRate::new(WeightedCount::new(), Hours::ZERO);
        assert!(weighted.point_estimate().is_err());
        assert!(weighted.confidence_interval(0.95).is_err());
        let mut count = WeightedCount::new();
        count.push(1.0);
        let weighted = WeightedPoissonRate::new(count, hours(10.0));
        assert!(weighted.confidence_interval(0.0).is_err());
        assert!(weighted.confidence_interval(1.0).is_err());
    }

    #[test]
    fn weighted_serde_round_trip() {
        let mut count = WeightedCount::new();
        count.push(0.125);
        count.push(2.0);
        let obs = WeightedPoissonRate::new(count, hours(123.0));
        let back: WeightedPoissonRate =
            serde_json::from_str(&serde_json::to_string(&obs).unwrap()).unwrap();
        assert_eq!(obs, back);
    }

    #[test]
    fn rate_comparison_p_value_is_a_probability() {
        for (k1, k2) in [(1u64, 1u64), (3, 9), (0, 5), (40, 4)] {
            let p = rate_equality_p_value(
                PoissonRate::new(k1, hours(500.0)),
                PoissonRate::new(k2, hours(700.0)),
            )
            .unwrap();
            assert!((0.0..=1.0).contains(&p), "p={p} for ({k1},{k2})");
        }
    }

    /// Garwood's upper and lower bounds straight from
    /// [`chi_square_quantile`], with no memo in between.
    fn direct_bounds(k: f64, t: f64, confidence: f64) -> (u64, u64) {
        let upper = chi_square_quantile(2.0 * k + 2.0, confidence).unwrap() / (2.0 * t);
        let lower = if k == 0.0 {
            0.0
        } else {
            chi_square_quantile(2.0 * k, 1.0 - confidence).unwrap() / (2.0 * t)
        };
        (upper.to_bits(), lower.to_bits())
    }

    fn bits(f: Frequency) -> u64 {
        f.as_per_hour().to_bits()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        #[test]
        fn memo_bounds_are_bit_equal_to_direct_quantiles(
            k in 0u64..1_000_000,
            t in 1.0f64..1.0e9,
            confidence in 0.5f64..0.999,
        ) {
            let obs = PoissonRate::new(k, hours(t));
            let (upper, lower) = direct_bounds(k as f64, t, confidence);
            let memo = QuantileMemo::new();
            // The first call fills the memo, the second is served from it.
            for _ in 0..2 {
                prop_assert_eq!(bits(obs.upper_bound_with(confidence, &memo).unwrap()), upper);
                prop_assert_eq!(bits(obs.lower_bound_with(confidence, &memo).unwrap()), lower);
            }
            prop_assert_eq!(memo.len(), if k == 0 { 1 } else { 2 });
            prop_assert_eq!(bits(obs.upper_bound(confidence).unwrap()), upper);
            prop_assert_eq!(bits(obs.lower_bound(confidence).unwrap()), lower);
        }

        #[test]
        fn weighted_memo_bounds_are_bit_equal_to_direct_quantiles(
            weights in proptest::collection::vec(0.01f64..4.0, 1..40),
            t in 1.0f64..1.0e9,
            confidence in 0.5f64..0.999,
        ) {
            let mut count = WeightedCount::new();
            for w in &weights {
                count.push(*w);
            }
            let obs = WeightedPoissonRate::new(count, hours(t));
            let (k_eff, t_eff) = obs.effective();
            let (upper, lower) = direct_bounds(k_eff, t_eff.value(), confidence);
            let memo = QuantileMemo::new();
            for _ in 0..2 {
                prop_assert_eq!(bits(obs.upper_bound_with(confidence, &memo).unwrap()), upper);
                prop_assert_eq!(bits(obs.lower_bound_with(confidence, &memo).unwrap()), lower);
            }
            prop_assert_eq!(memo.len(), 2);
            prop_assert_eq!(bits(obs.upper_bound(confidence).unwrap()), upper);
            prop_assert_eq!(bits(obs.lower_bound(confidence).unwrap()), lower);
        }

        #[test]
        fn memo_repeats_bits_and_never_stores_errors(
            dof in 0.5f64..2.0e6,
            p in 0.001f64..0.999,
            bad_p in 1.0f64..10.0,
            bad_dof in -10.0f64..0.0,
        ) {
            let memo = QuantileMemo::new();
            let first = memo.chi_square_quantile(dof, p).unwrap();
            prop_assert_eq!(first.to_bits(), chi_square_quantile(dof, p).unwrap().to_bits());
            prop_assert_eq!(memo.chi_square_quantile(dof, p).unwrap().to_bits(), first.to_bits());
            prop_assert_eq!(memo.len(), 1);
            // Both halves of the key count: the same dof at another
            // probability, and another dof at the same probability, are
            // new entries with their own values.
            let other_p = 1.0 - p;
            prop_assert_eq!(
                memo.chi_square_quantile(dof, other_p).unwrap().to_bits(),
                chi_square_quantile(dof, other_p).unwrap().to_bits()
            );
            prop_assert_eq!(
                memo.chi_square_quantile(dof + 2.0, p).unwrap().to_bits(),
                chi_square_quantile(dof + 2.0, p).unwrap().to_bits()
            );
            prop_assert_eq!(memo.len(), 3);
            for _ in 0..2 {
                prop_assert!(memo.chi_square_quantile(dof, bad_p).is_err());
                prop_assert!(memo.chi_square_quantile(bad_dof, p).is_err());
                prop_assert!(memo.chi_square_quantile(f64::NAN, p).is_err());
            }
            prop_assert_eq!(memo.len(), 3);
        }
    }
}
