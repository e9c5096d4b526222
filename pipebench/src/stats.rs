//! Order statistics with the sample-count rule the benchmark reports by:
//! a percentile is reported only where at least ten samples lie beyond
//! it, otherwise the highest percentile that has ten beyond it. Every
//! percentile is taken over all of a run's timed samples.

/// Samples needed beyond a reported percentile.
const BEYOND: usize = 10;

/// A percentile as reported: its value, the percentile actually used and
/// the sample count it came from.
#[derive(Debug, Clone, Copy)]
pub struct Reported {
    pub value: f64,
    pub percentile: f64,
    pub samples: usize,
}

/// The `wanted` percentile (0–100) of `samples` by nearest rank, lowered
/// to the highest one with ten samples beyond it, and never below the
/// median.
pub fn percentile(samples: &[f64], wanted: f64) -> Reported {
    let n = samples.len();
    if n == 0 {
        return Reported {
            value: f64::NAN,
            percentile: wanted,
            samples: 0,
        };
    }
    let supported = 100.0 * n.saturating_sub(BEYOND) as f64 / n as f64;
    let percentile = wanted.min(supported).max(50.0);
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = ((percentile / 100.0) * n as f64).ceil().max(1.0) as usize;
    Reported {
        value: sorted[rank.min(n) - 1],
        percentile,
        samples: n,
    }
}

pub fn median(samples: &[f64]) -> f64 {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    match n {
        0 => f64::NAN,
        _ if n % 2 == 1 => sorted[n / 2],
        _ => (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0,
    }
}

pub fn mean(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        f64::NAN
    } else {
        samples.iter().sum::<f64>() / samples.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_falls_back_when_the_tail_is_thin() {
        let samples: Vec<f64> = (1..=100).map(f64::from).collect();
        let p90 = percentile(&samples, 90.0);
        assert_eq!((p90.value, p90.percentile), (90.0, 90.0));
        let p99 = percentile(&samples, 99.0);
        assert_eq!((p99.value, p99.percentile), (90.0, 90.0));
        assert_eq!(percentile(&samples[..12], 99.0).percentile, 50.0);
        assert_eq!(percentile(&samples, 50.0).value, 50.0);
        assert_eq!(median(&[3.0, 1.0, 2.0, 10.0]), 2.5);
    }
}
