//! Special functions: log-gamma, regularized incomplete gamma and beta, and
//! quantile (inverse) routines.
//!
//! These are the numerical bedrock under exact Poisson and binomial
//! intervals. Implementations follow the classical series / continued
//! fraction decompositions (Lanczos approximation for `ln Γ`, Lentz's
//! algorithm for the continued fractions) with accuracy targets around
//! `1e-12` relative error over the parameter ranges a safety case needs
//! (counts up to ~1e9, probabilities down to ~1e-15).

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard, PoisonError};

use crate::error::StatsError;

/// Natural log of the gamma function `ln Γ(x)` for `x > 0`.
///
/// Uses the Lanczos approximation (g = 7, 9 coefficients), accurate to
/// about 15 significant digits.
///
/// # Errors
///
/// Returns [`StatsError::InvalidParameter`] for `x ≤ 0`, NaN or infinity.
///
/// # Examples
///
/// ```
/// use qrn_stats::special::ln_gamma;
///
/// // Γ(5) = 24
/// assert!((ln_gamma(5.0).unwrap() - 24f64.ln()).abs() < 1e-12);
/// ```
pub fn ln_gamma(x: f64) -> Result<f64, StatsError> {
    if !(x.is_finite() && x > 0.0) {
        return Err(StatsError::InvalidParameter {
            name: "x",
            value: x,
            expected: "a finite positive number",
        });
    }
    Ok(ln_gamma_unchecked(x))
}

/// Lanczos coefficients for g = 7.
const LANCZOS: [f64; 9] = [
    0.999_999_999_999_809_9,
    676.520_368_121_885_1,
    -1_259.139_216_722_402_8,
    771.323_428_777_653_1,
    -176.615_029_162_140_6,
    12.507_343_278_686_905,
    -0.138_571_095_265_720_12,
    9.984_369_578_019_572e-6,
    1.505_632_735_149_311_6e-7,
];

fn ln_gamma_unchecked(x: f64) -> f64 {
    if x < 0.5 {
        // Reflection formula: Γ(x)Γ(1−x) = π / sin(πx)
        let pi = std::f64::consts::PI;
        return (pi / (pi * x).sin()).ln() - ln_gamma_unchecked(1.0 - x);
    }
    let x = x - 1.0;
    let mut acc = LANCZOS[0];
    for (i, &c) in LANCZOS.iter().enumerate().skip(1) {
        acc += c / (x + i as f64);
    }
    let t = x + 7.5;
    0.5 * (2.0 * std::f64::consts::PI).ln() + (x + 0.5) * t.ln() - t + acc.ln()
}

/// Regularized lower incomplete gamma `P(a, x) = γ(a, x) / Γ(a)`.
///
/// `P(ν/2, x/2)` is the chi-square CDF with `ν` degrees of freedom, which
/// underlies the Garwood interval for Poisson rates.
///
/// # Errors
///
/// Returns [`StatsError`] for `a ≤ 0` or `x < 0`, or if the continued
/// fraction fails to converge.
pub fn gamma_p(a: f64, x: f64) -> Result<f64, StatsError> {
    if !(a.is_finite() && a > 0.0) {
        return Err(StatsError::InvalidParameter {
            name: "a",
            value: a,
            expected: "a finite positive shape",
        });
    }
    if !(x.is_finite() && x >= 0.0) {
        return Err(StatsError::InvalidParameter {
            name: "x",
            value: x,
            expected: "a finite non-negative argument",
        });
    }
    if x == 0.0 {
        return Ok(0.0);
    }
    if x < a + 1.0 {
        gamma_p_series(a, x)
    } else {
        Ok(1.0 - gamma_q_cf(a, x)?)
    }
}

/// Regularized upper incomplete gamma `Q(a, x) = 1 − P(a, x)`.
///
/// # Errors
///
/// Same domain as [`gamma_p`].
pub fn gamma_q(a: f64, x: f64) -> Result<f64, StatsError> {
    if x < a + 1.0 {
        Ok(1.0 - gamma_p(a, x)?)
    } else {
        if !(a.is_finite() && a > 0.0) {
            return Err(StatsError::InvalidParameter {
                name: "a",
                value: a,
                expected: "a finite positive shape",
            });
        }
        if !(x.is_finite() && x >= 0.0) {
            return Err(StatsError::InvalidParameter {
                name: "x",
                value: x,
                expected: "a finite non-negative argument",
            });
        }
        gamma_q_cf(a, x)
    }
}

const MAX_ITER: usize = 500;
const EPS: f64 = 1e-15;

/// Iteration budget for the incomplete-gamma expansions. Near the
/// series/fraction transition point `x ≈ a` both need O(√a) terms, so the
/// fixed floor is topped up with the shape — event counts from a large
/// fleet put `a` in the 1e4..1e9 range.
fn gamma_max_iter(a: f64) -> usize {
    MAX_ITER + (70.0 * a).sqrt() as usize
}

/// Series expansion of `P(a, x)`, converges fast for `x < a + 1`.
fn gamma_p_series(a: f64, x: f64) -> Result<f64, StatsError> {
    let ln_ga = ln_gamma_unchecked(a);
    let mut ap = a;
    let mut sum = 1.0 / a;
    let mut del = sum;
    for _ in 0..gamma_max_iter(a) {
        ap += 1.0;
        del *= x / ap;
        sum += del;
        if del.abs() < sum.abs() * EPS {
            return Ok(sum * (-x + a * x.ln() - ln_ga).exp());
        }
    }
    Err(StatsError::NoConvergence {
        routine: "gamma_p_series",
    })
}

/// Continued fraction for `Q(a, x)` (modified Lentz), converges fast for
/// `x ≥ a + 1`.
fn gamma_q_cf(a: f64, x: f64) -> Result<f64, StatsError> {
    let ln_ga = ln_gamma_unchecked(a);
    let tiny = 1e-300;
    let mut b = x + 1.0 - a;
    let mut c = 1.0 / tiny;
    let mut d = 1.0 / b;
    let mut h = d;
    for i in 1..=gamma_max_iter(a) {
        let an = -(i as f64) * (i as f64 - a);
        b += 2.0;
        d = an * d + b;
        if d.abs() < tiny {
            d = tiny;
        }
        c = b + an / c;
        if c.abs() < tiny {
            c = tiny;
        }
        d = 1.0 / d;
        let del = d * c;
        h *= del;
        if (del - 1.0).abs() < EPS {
            return Ok((-x + a * x.ln() - ln_ga).exp() * h);
        }
    }
    Err(StatsError::NoConvergence {
        routine: "gamma_q_cf",
    })
}

/// Inverse of the regularized lower incomplete gamma in its second argument:
/// finds `x` with `P(a, x) = p`.
///
/// Solved by bisection with an exponentially expanded bracket; monotonicity
/// of `P(a, ·)` makes this robust (if slower than Newton).
///
/// # Errors
///
/// Returns [`StatsError`] for invalid `a`, `p` outside `[0, 1)`, or
/// non-convergence.
pub fn gamma_p_inv(a: f64, p: f64) -> Result<f64, StatsError> {
    if !(a.is_finite() && a > 0.0) {
        return Err(StatsError::InvalidParameter {
            name: "a",
            value: a,
            expected: "a finite positive shape",
        });
    }
    if !(p.is_finite() && (0.0..1.0).contains(&p)) {
        return Err(StatsError::InvalidParameter {
            name: "p",
            value: p,
            expected: "a probability in [0, 1)",
        });
    }
    if p == 0.0 {
        return Ok(0.0);
    }
    // Bracket the root: P(a, x) is increasing in x.
    let mut lo = 0.0;
    let mut hi = a.max(1.0);
    let mut expand = 0;
    while gamma_p(a, hi)? < p {
        lo = hi;
        hi *= 2.0;
        expand += 1;
        if expand > 200 {
            return Err(StatsError::NoConvergence {
                routine: "gamma_p_inv bracket",
            });
        }
    }
    for _ in 0..200 {
        let mid = 0.5 * (lo + hi);
        if gamma_p(a, mid)? < p {
            lo = mid;
        } else {
            hi = mid;
        }
        if (hi - lo) <= 1e-14 * hi.max(1.0) {
            break;
        }
    }
    Ok(0.5 * (lo + hi))
}

/// Chi-square quantile: the `p`-quantile of the chi-square distribution with
/// `dof` degrees of freedom.
///
/// # Errors
///
/// Returns [`StatsError`] for `dof ≤ 0` or `p` outside `[0, 1)`.
///
/// # Examples
///
/// ```
/// use qrn_stats::special::chi_square_quantile;
///
/// let q = chi_square_quantile(2.0, 0.95).unwrap();
/// assert!((q - 5.991464547).abs() < 1e-6);
/// ```
pub fn chi_square_quantile(dof: f64, p: f64) -> Result<f64, StatsError> {
    if !(dof.is_finite() && dof > 0.0) {
        return Err(StatsError::InvalidParameter {
            name: "dof",
            value: dof,
            expected: "a finite positive number of degrees of freedom",
        });
    }
    Ok(2.0 * gamma_p_inv(dof / 2.0, p)?)
}

/// Most distinct quantiles a [`QuantileMemo`] holds: two generations of
/// `QUANTILE_MEMO_CAPACITY / 2` entries each.
pub const QUANTILE_MEMO_CAPACITY: usize = 4096;

/// Entries in one generation of a [`QuantileMemo`].
const GENERATION_CAPACITY: usize = QUANTILE_MEMO_CAPACITY / 2;

/// A bounded, shareable memo of [`chi_square_quantile`] results, keyed by
/// the exact bit patterns of `(dof, p)`.
///
/// Each quantile is a bisection of about 60 incomplete-gamma steps, while
/// the event counts behind a burn-down report are small repeated
/// integers, and they rarely change between two reads of the same
/// ledger. A memo shared by every computation that asks for those
/// quantiles pays for each distinct input once. A hit returns the bits a
/// fresh call would, because the key is the exact input; failed calls
/// are not stored, so an erroring input errors every time.
///
/// The memo is `Sync`: lookups take `&self` and hold an internal lock
/// only to read or insert, never while a quantile is computed, so
/// threads sharing it never wait on each other's bisections. Two
/// threads missing the same input at once both compute it, to the same
/// bits. Memory is bounded by [`QUANTILE_MEMO_CAPACITY`] with
/// two-generation eviction: when the current generation is full it
/// becomes the previous one, and the old previous generation is
/// dropped. A hit in the previous generation moves the entry back into
/// the current one. An entry therefore survives at least
/// `QUANTILE_MEMO_CAPACITY / 2` later insertions, so a computation that
/// asks for fewer distinct quantiles than that never loses one of its
/// own entries. Hit and miss counters record how often lookups were
/// served.
///
/// # Examples
///
/// ```
/// use qrn_stats::special::{chi_square_quantile, QuantileMemo};
///
/// let memo = QuantileMemo::new();
/// let q = memo.chi_square_quantile(6.0, 0.95).unwrap();
/// assert_eq!(q.to_bits(), chi_square_quantile(6.0, 0.95).unwrap().to_bits());
/// assert_eq!(memo.chi_square_quantile(6.0, 0.95).unwrap().to_bits(), q.to_bits());
/// assert_eq!(memo.len(), 1);
/// assert_eq!((memo.hits(), memo.misses()), (1, 1));
/// ```
#[derive(Debug, Default)]
pub struct QuantileMemo {
    generations: Mutex<Generations>,
    hits: AtomicU64,
    misses: AtomicU64,
}

/// The two generations of a [`QuantileMemo`]; no key is in both.
#[derive(Debug, Default)]
struct Generations {
    current: HashMap<(u64, u64), f64>,
    previous: HashMap<(u64, u64), f64>,
}

impl Generations {
    /// The stored quantile, promoted into the current generation when it
    /// was found in the previous one.
    fn get(&mut self, key: (u64, u64)) -> Option<f64> {
        if let Some(&q) = self.current.get(&key) {
            return Some(q);
        }
        let q = self.previous.remove(&key)?;
        self.insert(key, q);
        Some(q)
    }

    /// Stores `q` in the current generation, first retiring a full one.
    fn insert(&mut self, key: (u64, u64), q: f64) {
        if self.current.contains_key(&key) {
            return;
        }
        self.previous.remove(&key);
        if self.current.len() >= GENERATION_CAPACITY {
            self.previous = std::mem::take(&mut self.current);
        }
        self.current.insert(key, q);
    }
}

impl QuantileMemo {
    /// An empty memo.
    pub fn new() -> Self {
        QuantileMemo::default()
    }

    /// The generations, even if a panicking thread poisoned the lock:
    /// no code path leaves them inconsistent.
    fn generations(&self) -> MutexGuard<'_, Generations> {
        self.generations
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
    }

    /// [`chi_square_quantile`]`(dof, p)`, computed on the first request
    /// for these exact inputs and recalled afterwards while it stays in
    /// the memo.
    ///
    /// # Errors
    ///
    /// As [`chi_square_quantile`]; the error is not remembered.
    pub fn chi_square_quantile(&self, dof: f64, p: f64) -> Result<f64, StatsError> {
        let key = (dof.to_bits(), p.to_bits());
        if let Some(q) = self.generations().get(key) {
            self.hits.fetch_add(1, Ordering::Relaxed);
            return Ok(q);
        }
        self.misses.fetch_add(1, Ordering::Relaxed);
        let q = chi_square_quantile(dof, p)?;
        self.generations().insert(key, q);
        Ok(q)
    }

    /// Number of distinct quantiles held, at most
    /// [`QUANTILE_MEMO_CAPACITY`].
    pub fn len(&self) -> usize {
        let generations = self.generations();
        generations.current.len() + generations.previous.len()
    }

    /// True when no quantile is held.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Lookups served from the memo so far.
    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// Lookups that had to compute their quantile so far, erroring ones
    /// included.
    pub fn misses(&self) -> u64 {
        self.misses.load(Ordering::Relaxed)
    }
}

/// Regularized incomplete beta function `I_x(a, b)`.
///
/// `I_p(a, b)` is the CDF of the Beta(a, b) distribution, which underlies
/// Clopper–Pearson binomial intervals.
///
/// # Errors
///
/// Returns [`StatsError`] for `a ≤ 0`, `b ≤ 0`, `x` outside `[0, 1]`, or
/// non-convergence of the continued fraction.
pub fn beta_inc(a: f64, b: f64, x: f64) -> Result<f64, StatsError> {
    if !(a.is_finite() && a > 0.0) {
        return Err(StatsError::InvalidParameter {
            name: "a",
            value: a,
            expected: "a finite positive shape",
        });
    }
    if !(b.is_finite() && b > 0.0) {
        return Err(StatsError::InvalidParameter {
            name: "b",
            value: b,
            expected: "a finite positive shape",
        });
    }
    if !(x.is_finite() && (0.0..=1.0).contains(&x)) {
        return Err(StatsError::InvalidParameter {
            name: "x",
            value: x,
            expected: "an argument in [0, 1]",
        });
    }
    if x == 0.0 {
        return Ok(0.0);
    }
    if x == 1.0 {
        return Ok(1.0);
    }
    let ln_front = ln_gamma_unchecked(a + b) - ln_gamma_unchecked(a) - ln_gamma_unchecked(b)
        + a * x.ln()
        + b * (1.0 - x).ln();
    let front = ln_front.exp();
    if x < (a + 1.0) / (a + b + 2.0) {
        Ok(front * beta_cf(a, b, x)? / a)
    } else {
        Ok(1.0 - front * beta_cf(b, a, 1.0 - x)? / b)
    }
}

/// Continued fraction for the incomplete beta (modified Lentz).
fn beta_cf(a: f64, b: f64, x: f64) -> Result<f64, StatsError> {
    let tiny = 1e-300;
    let qab = a + b;
    let qap = a + 1.0;
    let qam = a - 1.0;
    let mut c = 1.0;
    let mut d = 1.0 - qab * x / qap;
    if d.abs() < tiny {
        d = tiny;
    }
    d = 1.0 / d;
    let mut h = d;
    for m in 1..=MAX_ITER {
        let m = m as f64;
        let m2 = 2.0 * m;
        // Even step
        let aa = m * (b - m) * x / ((qam + m2) * (a + m2));
        d = 1.0 + aa * d;
        if d.abs() < tiny {
            d = tiny;
        }
        c = 1.0 + aa / c;
        if c.abs() < tiny {
            c = tiny;
        }
        d = 1.0 / d;
        h *= d * c;
        // Odd step
        let aa = -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2));
        d = 1.0 + aa * d;
        if d.abs() < tiny {
            d = tiny;
        }
        c = 1.0 + aa / c;
        if c.abs() < tiny {
            c = tiny;
        }
        d = 1.0 / d;
        let del = d * c;
        h *= del;
        if (del - 1.0).abs() < EPS {
            return Ok(h);
        }
    }
    Err(StatsError::NoConvergence { routine: "beta_cf" })
}

/// Inverse of the regularized incomplete beta in `x`: finds `x` with
/// `I_x(a, b) = p`.
///
/// # Errors
///
/// Returns [`StatsError`] for invalid shapes or `p` outside `[0, 1]`.
pub fn beta_inc_inv(a: f64, b: f64, p: f64) -> Result<f64, StatsError> {
    if !(p.is_finite() && (0.0..=1.0).contains(&p)) {
        return Err(StatsError::InvalidParameter {
            name: "p",
            value: p,
            expected: "a probability in [0, 1]",
        });
    }
    if p == 0.0 {
        return Ok(0.0);
    }
    if p == 1.0 {
        return Ok(1.0);
    }
    let mut lo = 0.0;
    let mut hi = 1.0;
    for _ in 0..200 {
        let mid = 0.5 * (lo + hi);
        if beta_inc(a, b, mid)? < p {
            lo = mid;
        } else {
            hi = mid;
        }
        if hi - lo <= 1e-15 {
            break;
        }
    }
    Ok(0.5 * (lo + hi))
}

/// CDF of the standard normal distribution.
///
/// Computed via the complementary error function expressed through the
/// incomplete gamma: `Φ(z) = Q(1/2, z²/2) / 2` for `z < 0`.
pub fn std_normal_cdf(z: f64) -> f64 {
    if z.is_nan() {
        return f64::NAN;
    }
    let half = 0.5;
    if z == 0.0 {
        return half;
    }
    let tail = gamma_q(0.5, z * z / 2.0).unwrap_or(0.0) * half;
    if z > 0.0 {
        1.0 - tail
    } else {
        tail
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn close(a: f64, b: f64, tol: f64) -> bool {
        (a - b).abs() <= tol * b.abs().max(1.0)
    }

    #[test]
    fn ln_gamma_matches_factorials() {
        for (n, fact) in [(1u64, 1.0f64), (2, 1.0), (5, 24.0), (10, 362880.0)] {
            assert!(close(ln_gamma(n as f64).unwrap(), fact.ln(), 1e-12));
        }
    }

    #[test]
    fn ln_gamma_half_integer() {
        // Γ(1/2) = sqrt(pi)
        let expect = std::f64::consts::PI.sqrt().ln();
        assert!(close(ln_gamma(0.5).unwrap(), expect, 1e-12));
    }

    #[test]
    fn ln_gamma_rejects_nonpositive() {
        assert!(ln_gamma(0.0).is_err());
        assert!(ln_gamma(-1.0).is_err());
        assert!(ln_gamma(f64::NAN).is_err());
    }

    #[test]
    fn gamma_p_exponential_family() {
        for x in [0.1f64, 1.0, 5.0, 20.0] {
            let expect = 1.0 - (-x).exp();
            assert!(close(gamma_p(1.0, x).unwrap(), expect, 1e-12));
        }
    }

    #[test]
    fn gamma_p_q_complement() {
        for a in [0.5, 1.0, 3.5, 10.0, 100.0] {
            for x in [0.01, 0.5, 1.0, 5.0, 50.0, 200.0] {
                let p = gamma_p(a, x).unwrap();
                let q = gamma_q(a, x).unwrap();
                assert!((p + q - 1.0).abs() < 1e-10, "a={a} x={x} p+q={}", p + q);
            }
        }
    }

    #[test]
    fn chi_square_quantiles_reference() {
        // Reference values from standard chi-square tables.
        let cases = [
            (2.0, 0.95, 5.991464547),
            (2.0, 0.975, 7.377758908),
            (4.0, 0.975, 11.14328678),
            (10.0, 0.025, 3.246972565),
            (12.0, 0.975, 23.33666416),
            (1.0, 0.5, 0.454936423),
        ];
        for (dof, p, expect) in cases {
            let q = chi_square_quantile(dof, p).unwrap();
            assert!(
                close(q, expect, 1e-7),
                "dof={dof} p={p}: got {q}, want {expect}"
            );
        }
    }

    #[test]
    fn gamma_p_inv_round_trips() {
        for a in [0.5, 1.0, 2.0, 7.5, 40.0] {
            for p in [1e-6, 0.025, 0.5, 0.975, 1.0 - 1e-9] {
                let x = gamma_p_inv(a, p).unwrap();
                let back = gamma_p(a, x).unwrap();
                assert!((back - p).abs() < 1e-9, "a={a} p={p} back={back}");
            }
        }
    }

    #[test]
    fn beta_inc_symmetry_point() {
        // I_{0.5}(a, a) = 0.5
        for a in [0.5, 1.0, 2.0, 10.0] {
            assert!(close(beta_inc(a, a, 0.5).unwrap(), 0.5, 1e-12));
        }
    }

    #[test]
    fn beta_inc_uniform_case() {
        // I_x(1, 1) = x
        for x in [0.0, 0.25, 0.5, 0.75, 1.0] {
            assert!(close(beta_inc(1.0, 1.0, x).unwrap(), x, 1e-12));
        }
    }

    #[test]
    fn beta_inc_reference_value() {
        // I_{0.3}(2, 5): Beta(2,5) CDF at 0.3 = 1-(1-x)^5(1+5x) + ... use known
        // closed form: for integer a,b the CDF is a binomial tail:
        // I_x(2,5) = P(Bin(6, x) >= 2)
        let x: f64 = 0.3;
        let n = 6;
        let mut tail = 0.0;
        for k in 2..=n {
            let comb = (1..=n).product::<u64>() as f64
                / ((1..=k).product::<u64>() as f64 * (1..=(n - k)).product::<u64>() as f64);
            tail += comb * x.powi(k as i32) * (1.0 - x).powi((n - k) as i32);
        }
        assert!(close(beta_inc(2.0, 5.0, x).unwrap(), tail, 1e-10));
    }

    #[test]
    fn beta_inc_inv_round_trips() {
        for (a, b) in [(1.0, 1.0), (2.0, 5.0), (0.5, 0.5), (20.0, 3.0)] {
            for p in [0.01, 0.3, 0.5, 0.9, 0.999] {
                let x = beta_inc_inv(a, b, p).unwrap();
                let back = beta_inc(a, b, x).unwrap();
                assert!((back - p).abs() < 1e-9, "a={a} b={b} p={p}");
            }
        }
    }

    #[test]
    fn gamma_large_shape_converges() {
        // A 100k-hour fleet easily sees tens of thousands of events of a
        // frequent incident type; the Garwood bound then evaluates the
        // incomplete gamma at shapes ≈ the count, where both expansions
        // need O(√a) terms.
        for a in [3.0e4, 1.0e6] {
            let p = gamma_p(a, a).unwrap();
            // CLT: P(a, a) → 1/2 up to an O(a^{-1/2}) skew correction.
            assert!((p - 0.5).abs() < 0.01, "a={a} p={p}");
            let x = gamma_p_inv(a, 0.975).unwrap();
            assert!((gamma_p(a, x).unwrap() - 0.975).abs() < 1e-9, "a={a}");
        }
    }

    #[test]
    fn std_normal_cdf_reference() {
        assert!((std_normal_cdf(0.0) - 0.5).abs() < 1e-12);
        assert!((std_normal_cdf(1.959963985) - 0.975).abs() < 1e-8);
        assert!((std_normal_cdf(-1.959963985) - 0.025).abs() < 1e-8);
        assert!((std_normal_cdf(1.0) - 0.841344746).abs() < 1e-8);
    }

    #[test]
    fn domain_errors() {
        assert!(gamma_p(-1.0, 1.0).is_err());
        assert!(gamma_p(1.0, -1.0).is_err());
        assert!(beta_inc(0.0, 1.0, 0.5).is_err());
        assert!(beta_inc(1.0, 1.0, 1.5).is_err());
        assert!(chi_square_quantile(0.0, 0.5).is_err());
    }

    #[test]
    fn memo_stays_bounded_and_keeps_recent_entries() {
        let memo = QuantileMemo::new();
        let inputs = QUANTILE_MEMO_CAPACITY + GENERATION_CAPACITY + 7;
        for i in 0..inputs {
            memo.chi_square_quantile(2.0 + i as f64, 0.5).unwrap();
            assert!(memo.len() <= QUANTILE_MEMO_CAPACITY, "len {}", memo.len());
        }
        assert_eq!(memo.misses(), inputs as u64);
        // The most recent half-capacity of inputs survived the two
        // rotations; the oldest were dropped and are computed again.
        for i in inputs - GENERATION_CAPACITY..inputs {
            memo.chi_square_quantile(2.0 + i as f64, 0.5).unwrap();
        }
        assert_eq!(memo.hits(), GENERATION_CAPACITY as u64);
        let q = memo.chi_square_quantile(2.0, 0.5).unwrap();
        assert_eq!(memo.misses(), inputs as u64 + 1);
        assert_eq!(
            q.to_bits(),
            chi_square_quantile(2.0, 0.5).unwrap().to_bits()
        );
    }

    #[test]
    fn memo_hit_in_the_previous_generation_survives_the_next_rotation() {
        let memo = QuantileMemo::new();
        memo.chi_square_quantile(1.0, 0.9).unwrap();
        // Fill the rest of the first generation and rotate it out.
        for i in 0..GENERATION_CAPACITY {
            memo.chi_square_quantile(2.0 + i as f64, 0.9).unwrap();
        }
        // A hit in the previous generation moves the entry forward, so
        // a second rotation does not drop it.
        memo.chi_square_quantile(1.0, 0.9).unwrap();
        for i in 0..GENERATION_CAPACITY {
            memo.chi_square_quantile(1.0e4 + i as f64, 0.9).unwrap();
        }
        let misses = memo.misses();
        memo.chi_square_quantile(1.0, 0.9).unwrap();
        assert_eq!(memo.misses(), misses);
    }

    #[test]
    fn memo_is_shared_across_threads() {
        let memo = QuantileMemo::new();
        std::thread::scope(|scope| {
            for _ in 0..2 {
                scope.spawn(|| {
                    for k in 0..64 {
                        let dof = 2.0 * f64::from(k) + 2.0;
                        let q = memo.chi_square_quantile(dof, 0.95).unwrap();
                        assert_eq!(
                            q.to_bits(),
                            chi_square_quantile(dof, 0.95).unwrap().to_bits()
                        );
                    }
                });
            }
        });
        assert_eq!(memo.len(), 64);
        assert_eq!(memo.hits() + memo.misses(), 128);
        assert!(memo.misses() >= 64);
    }
}
