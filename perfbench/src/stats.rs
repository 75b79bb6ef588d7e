//! Order statistics used by every metric: nearest-rank percentiles,
//! the tail-percentile rule, medians and geometric means.

/// Percentiles a tail latency may be reported at, highest last.
pub const TAIL_LADDER: [f64; 4] = [90.0, 99.0, 99.9, 99.99];

/// Samples that must lie beyond a reported tail percentile.
pub const TAIL_MIN_BEYOND: usize = 10;

/// Nearest-rank percentile `p` (0–100] of `sorted`, which must be in
/// ascending order. `None` when there are no samples.
pub fn percentile(sorted: &[f64], p: f64) -> Option<f64> {
    if sorted.is_empty() {
        return None;
    }
    Some(sorted[rank(sorted.len(), p) - 1])
}

/// 1-based nearest rank of percentile `p` among `n > 0` samples. The
/// epsilon keeps `99.9% of 10,000` at rank 9,990 despite rounding.
fn rank(n: usize, p: f64) -> usize {
    let r = (p / 100.0 * n as f64 - 1e-9).ceil() as usize;
    r.clamp(1, n)
}

/// Samples strictly beyond the nearest-rank percentile `p` of `n`.
pub fn beyond(n: usize, p: f64) -> usize {
    if n == 0 {
        return 0;
    }
    n - rank(n, p)
}

/// The highest percentile of [`TAIL_LADDER`] that leaves at least
/// [`TAIL_MIN_BEYOND`] samples beyond it, or `None` if `n` is too
/// small for even the lowest rung.
pub fn tail_percentile(n: usize) -> Option<f64> {
    TAIL_LADDER
        .iter()
        .copied()
        .rev()
        .find(|&p| beyond(n, p) >= TAIL_MIN_BEYOND)
}

/// Sort a sample set ascending (NaN-free input assumed).
pub fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Median by nearest rank (the lower middle for even counts), or 0 for
/// an empty set.
pub fn median(values: &[f64]) -> f64 {
    percentile(&sorted(values), 50.0).unwrap_or(0.0)
}

/// Geometric mean of positive values, or 0 for an empty set.
pub fn geomean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let log_sum: f64 = values.iter().map(|v| v.ln()).sum();
    (log_sum / values.len() as f64).exp()
}

/// The typical cost of a step repeated many times: its fastest run.
/// Other work on a shared host only ever adds time, in bursts, so the
/// fastest of many repetitions estimates the step's own cost far more
/// steadily than the median does.
pub fn typical(values: &[f64]) -> f64 {
    values.iter().copied().reduce(f64::min).unwrap_or(0.0)
}

/// Host times of a unit of work repeated with the same steps (a pass
/// over an op sequence): the [`typical`] time of each step position.
#[derive(Debug, Default)]
pub struct Positions {
    fastest: Vec<f64>,
}

impl Positions {
    pub fn push(&mut self, pos: usize, s: f64) {
        if self.fastest.len() <= pos {
            self.fastest.resize(pos + 1, f64::INFINITY);
        }
        self.fastest[pos] = self.fastest[pos].min(s);
    }

    /// Steps in one repetition.
    pub fn len(&self) -> usize {
        self.fastest.len()
    }

    /// Each position's typical time.
    pub fn typicals(&self) -> &[f64] {
        &self.fastest
    }

    /// Seconds of a typical repetition: the sum of the positions'
    /// typical times.
    pub fn typical_s(&self) -> f64 {
        self.fastest.iter().sum()
    }
}

/// `part / whole`, or 0 when `whole` is 0.
pub fn ratio(part: f64, whole: f64) -> f64 {
    if whole == 0.0 {
        0.0
    } else {
        part / whole
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), Some(50.0));
        assert_eq!(percentile(&v, 99.0), Some(99.0));
        assert_eq!(percentile(&v, 100.0), Some(100.0));
        assert_eq!(percentile(&v, 0.1), Some(1.0));
        assert_eq!(percentile(&[], 50.0), None);
        assert_eq!(percentile(&[7.0], 99.0), Some(7.0));
    }

    #[test]
    fn tail_rule_needs_ten_samples_beyond() {
        // 99 samples: p90 leaves 9 beyond — not enough.
        assert_eq!(beyond(99, 90.0), 9);
        assert_eq!(tail_percentile(99), None);
        // 100 samples: p90 leaves exactly 10.
        assert_eq!(beyond(100, 90.0), 10);
        assert_eq!(tail_percentile(100), Some(90.0));
        // p99 needs 1,000 samples, p99.9 needs 10,000.
        assert_eq!(tail_percentile(999), Some(90.0));
        assert_eq!(tail_percentile(1_000), Some(99.0));
        assert_eq!(tail_percentile(9_999), Some(99.0));
        assert_eq!(tail_percentile(10_000), Some(99.9));
        assert_eq!(tail_percentile(100_000), Some(99.99));
        assert_eq!(tail_percentile(0), None);
        // Whatever rung is chosen really has ten samples beyond it.
        for n in [100, 257, 1_000, 4_321, 10_000, 123_456] {
            let p = tail_percentile(n).expect("enough samples");
            assert!(beyond(n, p) >= TAIL_MIN_BEYOND, "n={n} p={p}");
        }
    }

    #[test]
    fn geomean_and_median() {
        assert!((geomean(&[1.0, 100.0]) - 10.0).abs() < 1e-12);
        assert!((geomean(&[2.0, 8.0, 4.0]) - 4.0).abs() < 1e-12);
        assert_eq!(geomean(&[]), 0.0);
        assert!((geomean(&[3.5]) - 3.5).abs() < 1e-12);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.0);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn typical_is_the_fastest() {
        assert_eq!(typical(&[5.0, 3.0, 9.0]), 3.0);
        assert_eq!(typical(&[]), 0.0);
    }

    #[test]
    fn positions_sum_per_position_typicals() {
        let mut p = Positions::default();
        for (rep, noisy) in [(0, 1.0), (1, 9.0), (2, 1.5)] {
            p.push(0, 2.0 + rep as f64 * 0.1);
            p.push(1, noisy);
        }
        assert_eq!(p.len(), 2);
        assert_eq!(p.typicals(), &[2.0, 1.0]);
        assert!((p.typical_s() - 3.0).abs() < 1e-12);
        assert_eq!(Positions::default().typical_s(), 0.0);
    }

    #[test]
    fn ratio_guards_zero() {
        assert_eq!(ratio(1.0, 0.0), 0.0);
        assert_eq!(ratio(1.0, 4.0), 0.25);
    }
}
