//! Order statistics and correlation used to summarise a run.
//!
//! Percentiles follow one rule: a timing is reported as its median plus
//! the highest percentile that still has at least [`TAIL_MIN_BEYOND`]
//! samples beyond it, always together with the sample count. A run of
//! fewer than `2 * TAIL_MIN_BEYOND + 1` samples therefore reports its
//! median only.

/// Samples a tail percentile must have beyond it to be reported.
pub const TAIL_MIN_BEYOND: usize = 10;

/// Candidate tail percentiles with their labels, highest first.
const TAILS: [(f64, &str); 4] = [(0.999, "p99.9"), (0.99, "p99"), (0.9, "p90"), (0.5, "p50")];

/// Median, optional tail percentile and sample count of one population.
#[derive(Clone, Debug, PartialEq)]
pub struct Summary {
    /// Number of samples.
    pub count: usize,
    /// Median (mean of the middle two for an even count).
    pub p50: f64,
    /// `(q, value)` of the highest percentile in [`TAILS`] with at least
    /// [`TAIL_MIN_BEYOND`] samples beyond it, if any.
    pub tail: Option<(f64, f64)>,
    sorted: Vec<f64>,
}

impl Summary {
    /// Summarises `values`; `None` when empty.
    pub fn of(values: &[f64]) -> Option<Summary> {
        if values.is_empty() {
            return None;
        }
        let mut sorted = values.to_vec();
        sorted.sort_by(f64::total_cmp);
        let n = sorted.len();
        let tail = TAILS
            .iter()
            .find(|&&(q, _)| beyond(n, q) >= TAIL_MIN_BEYOND)
            .map(|&(q, _)| (q, nearest_rank(&sorted, q)));
        Some(Summary {
            count: n,
            p50: median_sorted(&sorted),
            tail,
            sorted,
        })
    }

    /// Percentile `q` (e.g. `0.99`), if it has at least
    /// [`TAIL_MIN_BEYOND`] samples beyond it.
    pub fn at(&self, q: f64) -> Option<f64> {
        (beyond(self.count, q) >= TAIL_MIN_BEYOND).then(|| nearest_rank(&self.sorted, q))
    }

    /// Label of the tail percentile, e.g. `p99`, `p99.9`.
    pub fn tail_label(&self) -> Option<&'static str> {
        let (q, _) = self.tail?;
        TAILS
            .iter()
            .find(|&&(t, _)| t == q)
            .map(|&(_, label)| label)
    }
}

/// Samples strictly above the nearest-rank `q` percentile of `n` samples.
fn beyond(n: usize, q: f64) -> usize {
    n - rank(n, q)
}

/// 1-based nearest rank: the smallest rank `r` with `r / n >= q`.
fn rank(n: usize, q: f64) -> usize {
    // The epsilon keeps `0.999 * 10_000` from rounding up past 9990.
    ((q * n as f64 - 1e-9).ceil() as usize).clamp(1, n)
}

/// Nearest-rank percentile of an ascending slice.
pub fn nearest_rank(sorted: &[f64], q: f64) -> f64 {
    sorted[rank(sorted.len(), q) - 1]
}

fn median_sorted(sorted: &[f64]) -> f64 {
    let n = sorted.len();
    if n % 2 == 1 {
        sorted[n / 2]
    } else {
        (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0
    }
}

/// Median of `values` (mean of the middle two for an even count); `NaN`
/// when empty.
pub fn median(values: &[f64]) -> f64 {
    Summary::of(values).map_or(f64::NAN, |s| s.p50)
}

/// Pearson correlation of two equal-length series; `None` when either is
/// constant or they differ in length.
pub fn pearson(a: &[f64], b: &[f64]) -> Option<f64> {
    if a.len() != b.len() || a.len() < 2 {
        return None;
    }
    let n = a.len() as f64;
    let (ma, mb) = (a.iter().sum::<f64>() / n, b.iter().sum::<f64>() / n);
    let (mut sab, mut saa, mut sbb) = (0.0, 0.0, 0.0);
    for (&x, &y) in a.iter().zip(b) {
        let (dx, dy) = (x - ma, y - mb);
        sab += dx * dy;
        saa += dx * dx;
        sbb += dy * dy;
    }
    (saa > 0.0 && sbb > 0.0).then(|| sab / (saa * sbb).sqrt())
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
    fn small_samples_report_the_median_only() {
        let s = Summary::of(&[5.0, 7.0]).unwrap();
        assert_eq!((s.count, s.p50, s.tail), (2, 6.0, None));
        assert_eq!(s.at(0.5), None);
        // 20 samples: p50 has exactly 10 beyond it, so it is the tail.
        let v: Vec<f64> = (1..=20).map(f64::from).collect();
        let s = Summary::of(&v).unwrap();
        assert_eq!(s.tail, Some((0.5, 10.0)));
        assert_eq!(s.tail_label(), Some("p50"));
    }

    #[test]
    fn tail_percentile_needs_ten_samples_beyond_it() {
        // 999 samples: p99 would leave 9 beyond it, so p90 is the tail.
        let v: Vec<f64> = (1..=999).map(f64::from).collect();
        let s = Summary::of(&v).unwrap();
        assert_eq!(s.count, 999);
        assert_eq!(s.tail, Some((0.9, 900.0)));
        assert_eq!(s.at(0.99), None);
        // 1000 samples: p99 has exactly 10 beyond it.
        let v: Vec<f64> = (1..=1000).map(f64::from).collect();
        let s = Summary::of(&v).unwrap();
        assert_eq!(s.at(0.99), Some(990.0));
        assert_eq!(s.tail_label(), Some("p99"));
        // 10 000 samples: p99.9 qualifies.
        let v: Vec<f64> = (1..=10_000).map(f64::from).collect();
        let s = Summary::of(&v).unwrap();
        assert_eq!(s.tail, Some((0.999, 9990.0)));
        assert_eq!(s.at(0.99), Some(9900.0));
    }

    #[test]
    fn pearson_matches_hand_computation() {
        let r = pearson(&[1.0, 2.0, 3.0, 4.0], &[2.0, 4.0, 6.0, 8.0]).unwrap();
        assert!((r - 1.0).abs() < 1e-15);
        let r = pearson(&[1.0, 2.0, 3.0], &[3.0, 1.0, 2.0]).unwrap();
        assert!((r + 0.5).abs() < 1e-15);
        assert_eq!(pearson(&[1.0, 1.0, 1.0], &[1.0, 2.0, 3.0]), None);
        assert_eq!(pearson(&[1.0, 2.0], &[1.0]), None);
    }

    #[test]
    fn pearson_agrees_with_the_library_statistic() {
        let a = [0.61, 0.72, 0.55, 0.90, 0.33, 0.47];
        let b = [0.12, 0.30, 0.05, 0.41, -0.2, 0.11];
        let ours = pearson(&a, &b).unwrap();
        let lib = tg_linalg::stats::pearson(&a, &b).unwrap();
        assert!((ours - lib).abs() < 1e-12, "{ours} vs {lib}");
    }
}
