//! Sample summaries: medians, nearest-rank percentiles, and the tail
//! guard that refuses a tail percentile the sample cannot support.

/// Samples a tail percentile must leave beyond it before it is reported.
pub const TAIL_MIN_BEYOND: usize = 10;

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// The median (mean of the middle pair for an even count); NaN when empty.
pub fn median(values: &[f64]) -> f64 {
    let v = sorted(values);
    let n = v.len();
    match n {
        0 => f64::NAN,
        _ if n % 2 == 1 => v[n / 2],
        _ => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// The smallest value; NaN when empty.
pub fn min(values: &[f64]) -> f64 {
    values.iter().copied().reduce(f64::min).unwrap_or(f64::NAN)
}

/// 1-based nearest rank of percentile `p` in a sample of `n`.
fn rank(n: usize, p: f64) -> usize {
    ((p / 100.0) * n as f64).ceil().clamp(1.0, n as f64) as usize
}

/// Nearest-rank percentile `p` (0–100); NaN when empty.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    let v = sorted(values);
    if v.is_empty() {
        return f64::NAN;
    }
    v[rank(v.len(), p) - 1]
}

/// A latency sample: its median and one fixed tail percentile.
pub struct Summary {
    pub n: usize,
    pub p50: f64,
    pub tail_p: f64,
    pub tail: f64,
    /// Samples strictly beyond the tail percentile's rank.
    pub beyond: usize,
}

/// Summarizes `values` with the tail at percentile `tail_p`. Fails when
/// fewer than [`TAIL_MIN_BEYOND`] samples lie beyond it: such a "tail"
/// is a handful of points and would read like the median.
pub fn summarize(values: &[f64], tail_p: f64) -> Result<Summary, String> {
    let n = values.len();
    if n == 0 {
        return Err("no latency samples".to_owned());
    }
    let beyond = n - rank(n, tail_p);
    if beyond < TAIL_MIN_BEYOND {
        return Err(format!(
            "p{tail_p} over {n} samples leaves {beyond} beyond it (need {TAIL_MIN_BEYOND})"
        ));
    }
    Ok(Summary {
        n,
        p50: median(values),
        tail_p,
        tail: percentile(values, tail_p),
        beyond,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_and_guard() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 90.0), 90.0);
        assert_eq!(median(&v), 50.5);
        let s = summarize(&v, 90.0).unwrap();
        assert_eq!(s.beyond, 10);
        assert!(summarize(&v, 95.0).is_err());
    }
}
