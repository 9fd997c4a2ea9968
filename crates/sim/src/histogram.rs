//! Logarithmic response-time histograms.
//!
//! Mean response time hides exactly the tail behaviour QoS management
//! cares about (the paper's admission-control motivation is per-request
//! response-time *guarantees*). Each telemetry interval carries a
//! fixed-size log-bucketed histogram, cheap to record, merge, and query
//! for quantiles.

use serde::{Deserialize, Serialize};

/// Number of buckets.
const BUCKETS: usize = 48;
/// Lower edge of bucket 0, seconds.
const MIN_S: f64 = 0.001;
/// Upper edge of the last finite bucket, seconds; larger values clamp.
const MAX_S: f64 = 120.0;

/// A fixed-size logarithmic histogram of response times.
///
/// Buckets are geometrically spaced between 1 ms and 120 s; values outside
/// that range clamp to the outer buckets. Quantiles are resolved to the
/// geometric midpoint of the containing bucket (≤ ~13% relative error,
/// plenty for knee detection).
/// The bucket array lives inline (`[u32; BUCKETS]`, no heap allocation),
/// so creating or resetting a histogram is free — the simulator makes one
/// per telemetry interval. Serde serializes a fixed array exactly like a
/// `Vec` of the same length, so the wire/JSON shape is unchanged.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct RtHistogram {
    counts: [u32; BUCKETS],
    total: u64,
}

impl RtHistogram {
    /// Number of buckets — the length [`bucket_counts`] always has and
    /// [`from_raw_parts`] always requires.
    ///
    /// [`bucket_counts`]: RtHistogram::bucket_counts
    /// [`from_raw_parts`]: RtHistogram::from_raw_parts
    pub const BUCKET_COUNT: usize = BUCKETS;

    /// An empty histogram.
    pub fn new() -> RtHistogram {
        RtHistogram {
            counts: [0; BUCKETS],
            total: 0,
        }
    }

    /// The raw per-bucket counts, index-aligned with the fixed
    /// log-spaced buckets — what a compact wire codec serializes
    /// instead of the JSON field map.
    pub fn bucket_counts(&self) -> &[u32] {
        &self.counts
    }

    /// Rebuild a histogram from raw parts (the inverse of
    /// [`bucket_counts`] + [`len`]). `None` unless `counts` has exactly
    /// [`BUCKET_COUNT`] entries. `total` is carried verbatim so a
    /// decoder round-trips any histogram value bit-for-bit, even one
    /// whose total a hostile peer set inconsistently — equality and
    /// quantiles then behave exactly as they would have on the sender.
    ///
    /// [`bucket_counts`]: RtHistogram::bucket_counts
    /// [`len`]: RtHistogram::len
    /// [`BUCKET_COUNT`]: RtHistogram::BUCKET_COUNT
    pub fn from_raw_parts(counts: &[u32], total: u64) -> Option<RtHistogram> {
        let counts: [u32; BUCKETS] = counts.try_into().ok()?;
        Some(RtHistogram { counts, total })
    }

    fn bucket_of(seconds: f64) -> usize {
        if seconds.is_nan() || seconds <= MIN_S {
            return 0;
        }
        let ratio = (MAX_S / MIN_S).ln();
        let frac = ((seconds / MIN_S).ln() / ratio).clamp(0.0, 1.0);
        ((frac * BUCKETS as f64) as usize).min(BUCKETS - 1)
    }

    /// Lower edge of bucket `i`, seconds.
    fn bucket_low(i: usize) -> f64 {
        MIN_S * (MAX_S / MIN_S).powf(i as f64 / BUCKETS as f64)
    }

    /// Record one response time.
    pub fn record(&mut self, seconds: f64) {
        self.counts[Self::bucket_of(seconds)] += 1;
        self.total += 1;
    }

    /// Number of recorded samples.
    pub fn len(&self) -> u64 {
        self.total
    }

    /// `true` when nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.total == 0
    }

    /// Merge another histogram into this one. Counts saturate: a
    /// histogram that arrived off the wire may hold any value, and an
    /// honest one never nears the limits.
    pub fn merge(&mut self, other: &RtHistogram) {
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a = a.saturating_add(*b);
        }
        self.total = self.total.saturating_add(other.total);
    }

    /// The `q`-quantile (0 < q ≤ 1) as the geometric midpoint of the
    /// containing bucket; `None` when empty.
    ///
    /// # Panics
    ///
    /// Panics if `q` is outside `(0, 1]`.
    pub fn quantile(&self, q: f64) -> Option<f64> {
        assert!(q > 0.0 && q <= 1.0, "quantile must be in (0,1]");
        if self.total == 0 {
            return None;
        }
        let rank = (q * self.total as f64).ceil() as u64;
        let mut seen = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            seen += u64::from(c);
            if seen >= rank {
                let low = Self::bucket_low(i);
                let high = Self::bucket_low(i + 1);
                return Some((low * high).sqrt());
            }
        }
        Some(MAX_S)
    }

    /// Fraction of recorded samples strictly above the bucket containing
    /// `seconds` — the SLO "error rate" for a response-time deadline.
    ///
    /// Resolution is one bucket (≤ ~13% relative on the threshold): a
    /// sample counts as "above" only when its whole bucket lies above the
    /// threshold's bucket, so the estimate is conservative by at most one
    /// bucket. Returns 0 when empty.
    pub fn fraction_above(&self, seconds: f64) -> f64 {
        if self.total == 0 {
            return 0.0;
        }
        let cut = Self::bucket_of(seconds);
        let above: u64 = self
            .counts
            .iter()
            .skip(cut + 1)
            .map(|&c| u64::from(c))
            .sum();
        above as f64 / self.total as f64
    }

    /// Convenience: the 95th percentile.
    pub fn p95(&self) -> Option<f64> {
        self.quantile(0.95)
    }

    /// Convenience: the 99th percentile.
    pub fn p99(&self) -> Option<f64> {
        self.quantile(0.99)
    }

    /// Reset all counts.
    pub fn clear(&mut self) {
        self.counts.iter_mut().for_each(|c| *c = 0);
        self.total = 0;
    }
}

impl Default for RtHistogram {
    fn default() -> RtHistogram {
        RtHistogram::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    #[test]
    fn quantiles_of_a_point_mass() {
        let mut h = RtHistogram::new();
        for _ in 0..100 {
            h.record(0.25);
        }
        let p50 = h.quantile(0.5).unwrap();
        // Bucket resolution: within ~15%.
        assert!((p50 - 0.25).abs() / 0.25 < 0.15, "p50 {p50}");
        assert_eq!(h.len(), 100);
    }

    #[test]
    fn tail_is_visible_where_the_mean_hides_it() {
        let mut h = RtHistogram::new();
        for _ in 0..95 {
            h.record(0.1);
        }
        for _ in 0..5 {
            h.record(10.0);
        }
        // Mean would be ~0.6 s; p95 must expose the multi-second tail.
        assert!(h.p99().unwrap() > 5.0);
        assert!(h.quantile(0.5).unwrap() < 0.2);
    }

    #[test]
    fn clamping_and_empty_behaviour() {
        let mut h = RtHistogram::new();
        assert!(h.is_empty());
        assert_eq!(h.p95(), None);
        h.record(1e-9);
        h.record(1e9);
        assert_eq!(h.len(), 2);
        assert!(h.quantile(1.0).unwrap() <= MAX_S * 1.01);
    }

    #[test]
    fn json_shape_matches_a_plain_sequence() {
        // The inline bucket array must keep serializing as a JSON array,
        // byte-compatible with the previous `Vec<u32>` field.
        let mut h = RtHistogram::new();
        h.record(0.05);
        let json = serde_json::to_string(&h).unwrap();
        assert!(json.starts_with("{\"counts\":[0,"), "json {json}");
        let back: RtHistogram = serde_json::from_str(&json).unwrap();
        assert_eq!(back, h);
    }

    #[test]
    fn merge_is_additive() {
        let mut a = RtHistogram::new();
        let mut b = RtHistogram::new();
        for _ in 0..10 {
            a.record(0.05);
            b.record(2.0);
        }
        a.merge(&b);
        assert_eq!(a.len(), 20);
        assert!(a.quantile(0.5).unwrap() < 0.5);
        assert!(a.quantile(0.99).unwrap() > 1.0);
    }

    #[test]
    #[should_panic(expected = "quantile must be in")]
    fn zero_quantile_panics() {
        let _ = RtHistogram::new().quantile(0.0);
    }

    #[test]
    fn raw_parts_round_trip() {
        let mut h = RtHistogram::new();
        for v in [0.002, 0.05, 1.5, 80.0] {
            h.record(v);
        }
        let back = RtHistogram::from_raw_parts(h.bucket_counts(), h.len()).unwrap();
        assert_eq!(back, h);
        assert_eq!(h.bucket_counts().len(), RtHistogram::BUCKET_COUNT);
        assert!(RtHistogram::from_raw_parts(&[1, 2, 3], 6).is_none());
    }

    #[test]
    fn fraction_above_splits_a_bimodal_distribution() {
        let mut h = RtHistogram::new();
        for _ in 0..90 {
            h.record(0.05);
        }
        for _ in 0..10 {
            h.record(8.0);
        }
        let f = h.fraction_above(1.0);
        assert!((f - 0.1).abs() < 1e-12, "fraction {f}");
        assert_eq!(h.fraction_above(100.0), 0.0, "nothing above the range");
        assert_eq!(RtHistogram::new().fraction_above(1.0), 0.0, "empty");
    }

    /// Cases per seeded property; a failing assertion names its seed.
    const CASES: u64 = 256;

    fn values(rng: &mut StdRng, len: std::ops::Range<usize>, hi: f64) -> Vec<f64> {
        let n = rng.random_range(len);
        (0..n).map(|_| rng.random_range(0.001f64..hi)).collect()
    }

    fn recorded(values: &[f64]) -> RtHistogram {
        let mut h = RtHistogram::new();
        for &v in values {
            h.record(v);
        }
        h
    }

    /// Quantiles are monotone in q and bounded by the recorded range
    /// up to bucket resolution.
    #[test]
    fn quantiles_are_monotone() {
        for seed in 0..CASES {
            let mut rng = StdRng::seed_from_u64(seed);
            let values = values(&mut rng, 1..200, 100.0);
            let h = recorded(&values);
            let mut last = 0.0;
            for q in [0.1, 0.25, 0.5, 0.75, 0.9, 0.99, 1.0] {
                let v = h
                    .quantile(q)
                    .unwrap_or_else(|| panic!("seed {seed}: no quantile at {q}"));
                assert!(v >= last, "seed {seed}: quantile not monotone at {q}");
                last = v;
            }
            let max = values.iter().copied().fold(0.0f64, f64::max);
            assert!(
                last <= max * 1.3 + 1e-3,
                "seed {seed}: q1.0 {last} vs max {max}"
            );
        }
    }

    /// `fraction_above` is monotone non-increasing in the threshold
    /// and bounded by [0, 1].
    #[test]
    fn fraction_above_is_monotone() {
        for seed in 0..CASES {
            let mut rng = StdRng::seed_from_u64(seed);
            let h = recorded(&values(&mut rng, 1..200, 100.0));
            let n = rng.random_range(2usize..10);
            let mut thresholds: Vec<f64> =
                (0..n).map(|_| rng.random_range(0.0005f64..150.0)).collect();
            thresholds.sort_by(f64::total_cmp);
            let mut last = 1.0f64;
            for t in thresholds {
                let f = h.fraction_above(t);
                assert!((0.0..=1.0).contains(&f), "seed {seed}: fraction {f} at {t}");
                assert!(f <= last + 1e-12, "seed {seed}: not monotone at {t}");
                last = f;
            }
        }
    }

    /// Total count always equals the number of records after any merge
    /// sequence.
    #[test]
    fn counts_are_conserved() {
        for seed in 0..CASES {
            let mut rng = StdRng::seed_from_u64(seed);
            let a = values(&mut rng, 0..100, 50.0);
            let b = values(&mut rng, 0..100, 50.0);
            let mut ha = recorded(&a);
            ha.merge(&recorded(&b));
            assert_eq!(ha.len(), (a.len() + b.len()) as u64, "seed {seed}");
        }
    }
}
