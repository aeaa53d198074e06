//! Order statistics over timing samples.

/// The median of `xs` (mean of the two middle values for an even count);
/// `NaN` for an empty slice.
pub fn median(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return f64::NAN;
    }
    let s = sorted(xs);
    let n = s.len();
    if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    }
}

/// The tail of a latency sample: the highest whole percentile that still
/// has at least ten samples beyond it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// The percentile, 1–100 (100 when the sample is too small to leave
    /// ten beyond any percentile; the value is then the maximum).
    pub percentile: u32,
    /// The sample value at that percentile (nearest rank).
    pub value: f64,
    /// How many samples lie beyond it.
    pub beyond: usize,
}

/// [`Tail`] of `xs` by the nearest-rank rule; `None` for an empty slice.
pub fn tail(xs: &[f64]) -> Option<Tail> {
    let s = sorted(xs);
    let n = s.len();
    if n == 0 {
        return None;
    }
    let at = |p: u32| {
        // Nearest rank: the smallest index covering p% of the sample.
        let rank = (p as usize * n).div_ceil(100).max(1);
        Tail { percentile: p, value: s[rank - 1], beyond: n - rank }
    };
    Some((1..=99).rev().map(at).find(|t| t.beyond >= 10).unwrap_or_else(|| at(100)))
}

/// First and third quartile by the same rule as Python's
/// `statistics.quantiles(xs, n=4)` (the default "exclusive" method);
/// `None` for fewer than two samples.
pub fn quartiles(xs: &[f64]) -> Option<(f64, f64)> {
    let s = sorted(xs);
    let n = s.len();
    if n < 2 {
        return None;
    }
    let m = n + 1;
    let q = |i: usize| {
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (s[j - 1] * (4.0 - delta) + s[j] * delta) / 4.0
    };
    Some((q(1), q(3)))
}

fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut s = xs.to_vec();
    s.sort_by(f64::total_cmp);
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_odd_and_even() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn tail_keeps_ten_beyond() {
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        let t = tail(&xs).unwrap();
        assert_eq!((t.percentile, t.value, t.beyond), (90, 90.0, 10));
        let few: Vec<f64> = (1..=5).map(f64::from).collect();
        let t = tail(&few).unwrap();
        assert_eq!((t.percentile, t.value, t.beyond), (100, 5.0, 0));
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&xs), Some((2.75, 8.25)));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), Some((0.75, 2.25)));
    }
}
