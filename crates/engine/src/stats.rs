//! Statistics primitives: the exact-bucket latency histogram and the JSON
//! rendering of the run snapshot's metrics.
//!
//! The paper's Figure 6 is a latency CDF; [`Histogram::cdf`] regenerates it
//! directly from simulation samples.

use crate::json::Json;

/// A count rendered as a run-snapshot metric:
/// `{"type": "counter", "value": n}`.
pub fn counter_json(value: u64) -> Json {
    Json::object([
        ("type", Json::from("counter")),
        ("value", Json::from(value)),
    ])
}

/// A fixed-bucket histogram of `u64` samples (one bucket per value up to a
/// cap, plus an overflow bucket).
///
/// Coherence-request latencies are small integers (tens of cycles), so an
/// exact per-value histogram is cheap and lets us print the precise CDF the
/// paper plots in Figure 6.
///
/// # Example
///
/// ```
/// use sim_engine::Histogram;
/// let mut h = Histogram::new(100);
/// h.record(17);
/// h.record(17);
/// h.record(43);
/// assert_eq!(h.count(), 3);
/// assert_eq!(h.median(), Some(17));
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Histogram {
    buckets: Vec<u64>,
    overflow: u64,
    count: u64,
    sum: u64,
    min: u64,
    max: u64,
}

impl Histogram {
    /// Creates a histogram with exact buckets for values `0..cap`; larger
    /// samples land in a single overflow bucket.
    pub fn new(cap: usize) -> Self {
        Histogram {
            buckets: vec![0; cap],
            overflow: 0,
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
        }
    }

    /// Captures the extrema so a later [`unrecord`](Self::unrecord) can
    /// restore them; take the mark immediately before the paired `record`.
    pub fn mark(&self) -> HistogramMark {
        HistogramMark {
            min: self.min,
            max: self.max,
        }
    }

    /// Reverses one [`record`](Self::record) of `value`, restoring the
    /// extrema from the mark taken just before that record. Only valid in
    /// LIFO order: the most recent un-undone record must be undone first,
    /// otherwise the restored extrema are meaningless.
    pub fn unrecord(&mut self, value: u64, mark: HistogramMark) {
        match self.buckets.get_mut(value as usize) {
            Some(b) => *b -= 1,
            None => self.overflow -= 1,
        }
        self.count -= 1;
        self.sum -= value;
        self.min = mark.min;
        self.max = mark.max;
    }

    /// Records one sample.
    pub fn record(&mut self, value: u64) {
        match self.buckets.get_mut(value as usize) {
            Some(b) => *b += 1,
            None => self.overflow += 1,
        }
        self.count += 1;
        self.sum += value;
        self.min = self.min.min(value);
        self.max = self.max.max(value);
    }

    /// Number of recorded samples.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of all samples.
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Arithmetic mean, or `None` when empty.
    pub fn mean(&self) -> Option<f64> {
        (self.count > 0).then(|| self.sum as f64 / self.count as f64)
    }

    /// Smallest recorded sample, or `None` when empty.
    pub fn min(&self) -> Option<u64> {
        (self.count > 0).then_some(self.min)
    }

    /// Largest recorded sample, or `None` when empty.
    pub fn max(&self) -> Option<u64> {
        (self.count > 0).then_some(self.max)
    }

    /// Number of samples that exceeded the bucket cap.
    pub fn overflow(&self) -> u64 {
        self.overflow
    }

    /// The `q`-quantile (0 ≤ q ≤ 1) over the exact buckets, or `None` when
    /// empty. Overflow samples count as "≥ cap" and are returned as the cap.
    ///
    /// # Panics
    ///
    /// Panics if `q` is not within `[0, 1]`.
    pub fn quantile(&self, q: f64) -> Option<u64> {
        assert!((0.0..=1.0).contains(&q), "quantile {q} out of [0,1]");
        if self.count == 0 {
            return None;
        }
        let target = ((self.count as f64) * q).ceil().max(1.0) as u64;
        let mut seen = 0;
        for (value, &n) in self.buckets.iter().enumerate() {
            seen += n;
            if seen >= target {
                return Some(value as u64);
            }
        }
        Some(self.buckets.len() as u64)
    }

    /// Median sample.
    pub fn median(&self) -> Option<u64> {
        self.quantile(0.5)
    }

    /// The empirical CDF as `(value, cumulative_fraction)` points, one per
    /// non-empty bucket — exactly the series plotted in the paper's Fig. 6.
    pub fn cdf(&self) -> Vec<(u64, f64)> {
        let mut points = Vec::new();
        if self.count == 0 {
            return points;
        }
        let mut seen = 0u64;
        for (value, &n) in self.buckets.iter().enumerate() {
            if n > 0 {
                seen += n;
                points.push((value as u64, seen as f64 / self.count as f64));
            }
        }
        if self.overflow > 0 {
            points.push((self.buckets.len() as u64, 1.0));
        }
        points
    }

    /// Iterates over `(value, count)` pairs of non-empty exact buckets,
    /// ascending by value (the overflow bucket is not included; see
    /// [`Histogram::overflow`]).
    pub fn nonzero_buckets(&self) -> impl Iterator<Item = (u64, u64)> + '_ {
        self.buckets
            .iter()
            .enumerate()
            .filter(|(_, &n)| n > 0)
            .map(|(value, &n)| (value as u64, n))
    }

    /// Merges another histogram's samples into this one.
    ///
    /// # Panics
    ///
    /// Panics if the bucket caps differ.
    pub fn merge(&mut self, other: &Histogram) {
        assert_eq!(
            self.buckets.len(),
            other.buckets.len(),
            "merging histograms with different caps"
        );
        for (a, b) in self.buckets.iter_mut().zip(&other.buckets) {
            *a += b;
        }
        self.overflow += other.overflow;
        self.count += other.count;
        self.sum += other.sum;
        if other.count > 0 {
            self.min = self.min.min(other.min);
            self.max = self.max.max(other.max);
        }
    }

    /// The histogram as a run-snapshot metric: count, sum, extrema,
    /// p50/p90/p99, the overflow count and every non-empty exact bucket as
    /// a `[value, count]` pair (`null` summaries when empty).
    pub fn to_json(&self) -> Json {
        let opt = |v: Option<u64>| v.map_or(Json::Null, Json::from);
        Json::object([
            ("type", Json::from("histogram")),
            ("count", Json::from(self.count)),
            ("sum", Json::from(self.sum)),
            ("mean", self.mean().map_or(Json::Null, Json::from)),
            ("min", opt(self.min())),
            ("max", opt(self.max())),
            ("p50", opt(self.quantile(0.5))),
            ("p90", opt(self.quantile(0.9))),
            ("p99", opt(self.quantile(0.99))),
            ("overflow", Json::from(self.overflow)),
            (
                "buckets",
                Json::array(
                    self.nonzero_buckets()
                        .map(|(value, n)| Json::array([Json::from(value), Json::from(n)])),
                ),
            ),
        ])
    }
}

/// Pre-record extrema captured by [`Histogram::mark`], consumed by
/// [`Histogram::unrecord`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HistogramMark {
    min: u64,
    max: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_mean_min_max() {
        let mut h = Histogram::new(50);
        for v in [10, 20, 30] {
            h.record(v);
        }
        assert_eq!(h.mean(), Some(20.0));
        assert_eq!(h.min(), Some(10));
        assert_eq!(h.max(), Some(30));
        assert_eq!(h.sum(), 60);
    }

    #[test]
    fn histogram_empty() {
        let h = Histogram::new(10);
        assert_eq!(h.mean(), None);
        assert_eq!(h.median(), None);
        assert!(h.cdf().is_empty());
    }

    #[test]
    fn histogram_overflow_bucket() {
        let mut h = Histogram::new(5);
        h.record(100);
        assert_eq!(h.overflow(), 1);
        assert_eq!(h.max(), Some(100));
        let cdf = h.cdf();
        assert_eq!(cdf, vec![(5, 1.0)]);
    }

    #[test]
    fn histogram_quantiles() {
        let mut h = Histogram::new(100);
        for v in 1..=100u64 {
            h.record(v);
        }
        assert_eq!(h.quantile(0.5), Some(50));
        assert_eq!(h.quantile(0.0), Some(1));
        // Value 100 overflows a cap-100 histogram, so the top quantile
        // reports the cap itself ("≥ cap").
        assert_eq!(h.quantile(1.0), Some(100));
    }

    #[test]
    fn histogram_cdf_is_monotone_and_ends_at_one() {
        let mut h = Histogram::new(64);
        let mut rng = crate::DetRng::new(3);
        for _ in 0..1000 {
            h.record(rng.below(60));
        }
        let cdf = h.cdf();
        let mut prev = 0.0;
        for &(_, f) in &cdf {
            assert!(f >= prev);
            prev = f;
        }
        assert!((cdf.last().unwrap().1 - 1.0).abs() < 1e-12);
    }

    #[test]
    fn histogram_merge() {
        let mut a = Histogram::new(10);
        let mut b = Histogram::new(10);
        a.record(1);
        b.record(3);
        b.record(20); // overflow
        a.merge(&b);
        assert_eq!(a.count(), 3);
        assert_eq!(a.min(), Some(1));
        assert_eq!(a.max(), Some(20));
        assert_eq!(a.overflow(), 1);
    }

    #[test]
    #[should_panic(expected = "different caps")]
    fn histogram_merge_cap_mismatch_panics() {
        let mut a = Histogram::new(10);
        let b = Histogram::new(20);
        a.merge(&b);
    }

    #[test]
    fn histogram_unrecord_reverses_record_lifo() {
        let mut h = Histogram::new(10);
        h.record(3);
        let reference = h.clone();
        let m1 = h.mark();
        h.record(7);
        let m2 = h.mark();
        h.record(100); // overflow
        h.unrecord(100, m2);
        h.unrecord(7, m1);
        assert_eq!(h, reference);
    }

    #[test]
    fn histogram_json_has_quantiles_and_buckets() {
        let mut h = Histogram::new(64);
        for v in [17, 17, 43] {
            h.record(v);
        }
        let j = h.to_json();
        assert_eq!(j.get("type").and_then(Json::as_str), Some("histogram"));
        assert_eq!(j.get("count").and_then(Json::as_u64), Some(3));
        assert_eq!(j.get("p50").and_then(Json::as_u64), Some(17));
        assert_eq!(j.get("max").and_then(Json::as_u64), Some(43));
        let buckets = j.get("buckets").and_then(Json::as_array).unwrap();
        assert_eq!(buckets.len(), 2, "two distinct values");
        assert_eq!(Json::parse(&j.to_string()).unwrap(), j);

        let empty = Histogram::new(8).to_json();
        assert_eq!(empty.get("mean"), Some(&Json::Null));
        assert_eq!(empty.get("p50"), Some(&Json::Null));
    }
}
