//! The benchmark's own arithmetic: medians, quartiles and the VR
//! speed-up h-mean.

use vr_core::SimStats;

/// Median of `v` (mean of the middle two for an even count); `NaN`
/// for an empty slice.
pub fn median(v: &[f64]) -> f64 {
    let s = sorted(v);
    match s.len() {
        0 => f64::NAN,
        n if n % 2 == 1 => s[n / 2],
        n => (s[n / 2 - 1] + s[n / 2]) / 2.0,
    }
}

/// First and third quartiles by the exclusive method, as Python's
/// `statistics.quantiles(v, n=4)` computes them; `None` below two
/// values.
pub fn quartiles(v: &[f64]) -> Option<(f64, f64)> {
    let s = sorted(v);
    let len = s.len();
    if len < 2 {
        return None;
    }
    let m = len + 1;
    let q = |i: usize| {
        let j = (i * m / 4).clamp(1, len - 1);
        // Negative at the clamped low end: Python extrapolates there.
        let delta = (i * m) as f64 - (j * 4) as f64;
        (s[j - 1] * (4.0 - delta) + s[j] * delta) / 4.0
    };
    Some((q(1), q(3)))
}

/// Index of the median element of `v` (the lower one for an even
/// count): the sample whose breakdown stands for the set.
pub fn median_index(v: &[f64]) -> Option<usize> {
    let mut idx: Vec<usize> = (0..v.len()).collect();
    idx.sort_by(|&a, &b| v[a].total_cmp(&v[b]));
    idx.get(v.len().saturating_sub(1) / 2).copied()
}

fn sorted(v: &[f64]) -> Vec<f64> {
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    s
}

/// Harmonic mean of the VR/OoO IPC speed-ups of paired runs (the
/// paper's aggregate), via the simulator's own `harmonic_mean`.
pub fn vr_speedup_hmean<'a>(pairs: impl IntoIterator<Item = (&'a SimStats, &'a SimStats)>) -> f64 {
    let speedups: Vec<f64> = pairs.into_iter().map(|(ooo, vr)| vr.speedup_over(ooo)).collect();
    vr_core::harmonic_mean(&speedups)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn quartiles_match_pythons_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&ten), Some((2.75, 8.25)));
        // statistics.quantiles([1, 2, 3, 4], n=4) == [1.25, 2.5, 3.75]
        assert_eq!(quartiles(&[4.0, 2.0, 1.0, 3.0]), Some((1.25, 3.75)));
        // statistics.quantiles([5, 7], n=4) == [4.5, 6.0, 7.5]
        assert_eq!(quartiles(&[7.0, 5.0]), Some((4.5, 7.5)));
        // statistics.quantiles([1, 2, 3], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), Some((1.0, 3.0)));
        assert_eq!(quartiles(&[1.0]), None);
    }

    #[test]
    fn median_index_picks_the_middle_sample() {
        assert_eq!(median_index(&[9.0, 1.0, 5.0]), Some(2));
        assert_eq!(median_index(&[4.0, 3.0, 2.0, 1.0]), Some(2));
        assert_eq!(median_index(&[]), None);
    }

    #[test]
    fn speedup_hmean_is_harmonic_over_ipc_ratios() {
        let run = |cycles| SimStats { cycles, instructions: 1000, ..SimStats::default() };
        let (ooo, fast, slow) = (run(1000), run(500), run(2000));
        // Speed-ups 2.0 and 0.5: harmonic mean 2 / (1/2 + 2) = 0.8.
        let hm = vr_speedup_hmean([(&ooo, &fast), (&ooo, &slow)]);
        assert!((hm - 0.8).abs() < 1e-12, "{hm}");
    }
}
