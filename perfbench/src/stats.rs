//! Latency statistics.
//!
//! Failed or refused requests enter a sample as `f64::INFINITY`, so they
//! count as missing every latency limit. A tail percentile is reported
//! only when at least [`MIN_BEYOND`] samples lie beyond it; the median is
//! always reported, with its sample count.

/// Samples that must lie strictly beyond a tail percentile's rank.
pub const MIN_BEYOND: usize = 10;

/// Nearest-rank `p`-quantile (`0 < p < 1`) of `samples`, or `None` when
/// fewer than [`MIN_BEYOND`] samples lie beyond its rank (or there are no
/// samples). `+∞` entries sort last, so failures push tails up.
pub fn percentile(samples: &[f64], p: f64) -> Option<f64> {
    let (rank, sorted) = ranked(samples, p)?;
    (sorted.len() - rank >= MIN_BEYOND).then(|| sorted[rank - 1])
}

/// The nearest-rank median of `samples` (`None` when empty). Unlike tail
/// percentiles it needs no samples beyond it.
pub fn median(samples: &[f64]) -> Option<f64> {
    ranked(samples, 0.5).map(|(rank, sorted)| sorted[rank - 1])
}

fn ranked(samples: &[f64], p: f64) -> Option<(usize, Vec<f64>)> {
    if samples.is_empty() || !(p > 0.0 && p < 1.0) {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = ((p * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    Some((rank, sorted))
}
