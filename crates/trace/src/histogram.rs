//! Log-bucketed latency histograms, HDR-style.
//!
//! Values (nanoseconds, but any `u64` works) are bucketed into 64
//! power-of-two octaves, each split into [`SUB_BUCKETS`] linear
//! sub-buckets: bucket boundaries grow geometrically while staying
//! within a bounded *relative* width, so a quantile read off the
//! histogram is within [`RELATIVE_ERROR_BOUND`] of the exact sample
//! quantile (values below `2 * SUB_BUCKETS` are bucketed exactly).
//! Histograms are mergeable (bucket-wise addition — associative and
//! commutative, so shard snapshots can be combined in any order) and
//! round-trip through JSON with a sparse `[index, count]` bucket
//! encoding.
//!
//! This module is also the workspace's *only* percentile rule:
//! [`percentile_rank`] defines the rank for a given quantile, and both
//! [`percentile_sorted`] (exact, over raw samples) and
//! [`Histogram::quantile`] (approximate, over buckets) apply it.

use serde::{Deserialize, Serialize, Value};
use std::sync::Mutex;

/// log2 of the number of linear sub-buckets per power-of-two octave.
pub const SUB_BUCKET_BITS: u32 = 2;
/// Linear sub-buckets per octave (4).
pub const SUB_BUCKETS: usize = 1 << SUB_BUCKET_BITS;
/// Total bucket count: 64 octaves × `SUB_BUCKETS` (the top octaves of
/// the full `u64` range alias into the tail, which never matters for
/// nanosecond latencies).
pub const NUM_BUCKETS: usize = 64 * SUB_BUCKETS;
/// Worst-case relative width of a bucket: a value `v` and the bucket
/// representative returned by [`Histogram::quantile`] differ by at
/// most `RELATIVE_ERROR_BOUND * v` (plus one for integer rounding).
pub const RELATIVE_ERROR_BOUND: f64 = 1.0 / SUB_BUCKETS as f64;

/// Bucket index for a value: exact below `2 * SUB_BUCKETS`, then the
/// octave of the value's most significant bit refined by the next
/// `SUB_BUCKET_BITS` bits.
pub fn bucket_index(v: u64) -> usize {
    if v < (2 * SUB_BUCKETS) as u64 {
        return v as usize;
    }
    let e = 63 - v.leading_zeros(); // e >= SUB_BUCKET_BITS + 1
    let shift = e - SUB_BUCKET_BITS;
    let sub = ((v >> shift) & (SUB_BUCKETS as u64 - 1)) as usize;
    (e as usize + 1 - SUB_BUCKET_BITS as usize) * SUB_BUCKETS + sub
}

/// Smallest value mapping to `index` (inverse of [`bucket_index`]).
pub fn bucket_lo(index: usize) -> u64 {
    if index < 2 * SUB_BUCKETS {
        return index as u64;
    }
    let octave = index / SUB_BUCKETS; // >= 2
    let sub = (index % SUB_BUCKETS) as u64;
    let e = octave as u32 + SUB_BUCKET_BITS - 1;
    if e >= 64 {
        // Indices past bucket_index(u64::MAX) are unreachable.
        return u64::MAX;
    }
    (1u64 << e) + (sub << (e - SUB_BUCKET_BITS))
}

/// Largest value mapping to `index`.
pub fn bucket_hi(index: usize) -> u64 {
    if index + 1 >= NUM_BUCKETS {
        return u64::MAX;
    }
    match bucket_lo(index + 1) {
        u64::MAX => u64::MAX,
        lo_next => lo_next - 1,
    }
}

/// Midpoint representative of a bucket — what quantile queries return.
pub fn bucket_mid(index: usize) -> u64 {
    let lo = bucket_lo(index);
    let hi = bucket_hi(index);
    lo + (hi - lo) / 2
}

/// The workspace percentile rule: for `len` sorted samples, quantile
/// `q` is the sample at rank `min(floor(len * q), len - 1)`. `None`
/// for an empty sample set.
pub fn percentile_rank(len: usize, q: f64) -> Option<usize> {
    if len == 0 {
        return None;
    }
    Some(((len as f64 * q) as usize).min(len - 1))
}

/// Exact percentile of an ascending-sorted slice under
/// [`percentile_rank`]; `0.0` for an empty slice (so latency reports
/// over zero completed requests render as zeros instead of panicking).
pub fn percentile_sorted(sorted: &[f64], q: f64) -> f64 {
    match percentile_rank(sorted.len(), q) {
        Some(rank) => sorted[rank],
        None => 0.0,
    }
}

/// A mergeable log-bucketed histogram of `u64` values.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Histogram {
    counts: Vec<u64>,
    count: u64,
    sum: u64,
    min: u64,
    max: u64,
}

impl Default for Histogram {
    fn default() -> Self {
        Self::new()
    }
}

impl Histogram {
    /// An empty histogram.
    pub fn new() -> Self {
        Histogram {
            counts: vec![0; NUM_BUCKETS],
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
        }
    }

    /// Record one value.
    pub fn record(&mut self, v: u64) {
        self.record_n(v, 1);
    }

    /// Record `n` occurrences of `v`.
    pub fn record_n(&mut self, v: u64, n: u64) {
        if n == 0 {
            return;
        }
        self.counts[bucket_index(v)] += n;
        self.count += n;
        self.sum = self.sum.saturating_add(v.saturating_mul(n));
        self.min = self.min.min(v);
        self.max = self.max.max(v);
    }

    /// Total recorded values.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// True when nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Sum of recorded values (saturating).
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Smallest recorded value (`None` when empty) — exact, not bucketed.
    pub fn min(&self) -> Option<u64> {
        if self.count == 0 {
            None
        } else {
            Some(self.min)
        }
    }

    /// Largest recorded value (`None` when empty) — exact, not bucketed.
    pub fn max(&self) -> Option<u64> {
        if self.count == 0 {
            None
        } else {
            Some(self.max)
        }
    }

    /// Mean of recorded values, `0.0` when empty.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Quantile under the workspace [`percentile_rank`] rule, as the
    /// midpoint of the bucket holding that rank (clamped to the exact
    /// observed min/max, which the histogram tracks precisely). `0`
    /// when empty. Error bound: within [`RELATIVE_ERROR_BOUND`] of the
    /// exact sample quantile, plus one for integer rounding.
    pub fn quantile(&self, q: f64) -> u64 {
        let Some(rank) = percentile_rank(self.count as usize, q) else {
            return 0;
        };
        let mut seen: u64 = 0;
        for (i, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen > rank as u64 {
                return bucket_mid(i).clamp(self.min, self.max);
            }
        }
        self.max
    }

    /// Bucket-wise merge of `other` into `self`.
    pub fn merge(&mut self, other: &Histogram) {
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
        self.count += other.count;
        self.sum = self.sum.saturating_add(other.sum);
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
        if self.count == 0 {
            self.min = u64::MAX;
            self.max = 0;
        }
    }

    /// Bucket-wise difference `self - earlier`, for reading the
    /// distribution of a window between two cumulative snapshots.
    /// Saturating: if `earlier` is not actually a prefix of `self`
    /// (e.g. a counter reset in between), excess counts clamp to zero
    /// rather than underflowing. Min/max of the window are not
    /// recoverable and fall back to the bucket bounds of the diff.
    pub fn saturating_diff(&self, earlier: &Histogram) -> Histogram {
        let mut out = Histogram::new();
        for (i, (&a, &b)) in self.counts.iter().zip(&earlier.counts).enumerate() {
            let c = a.saturating_sub(b);
            if c > 0 {
                out.counts[i] = c;
                out.count += c;
                out.sum = out.sum.saturating_add(bucket_mid(i).saturating_mul(c));
                out.min = out.min.min(bucket_lo(i));
                out.max = out.max.max(bucket_hi(i));
            }
        }
        out
    }

    /// Non-empty buckets as `(index, count)` pairs, ascending.
    pub fn nonzero_buckets(&self) -> impl Iterator<Item = (usize, u64)> + '_ {
        self.counts
            .iter()
            .enumerate()
            .filter(|(_, &c)| c > 0)
            .map(|(i, &c)| (i, c))
    }

    /// Serialize to JSON (sparse bucket encoding).
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).expect("histogram serialization is infallible")
    }

    /// Parse a histogram back from [`Histogram::to_json`] output.
    pub fn from_json(text: &str) -> Result<Histogram, String> {
        serde_json::from_str(text).map_err(|e| e.to_string())
    }
}

impl Serialize for Histogram {
    fn serialize_value(&self) -> Value {
        let buckets = self
            .nonzero_buckets()
            .map(|(i, c)| Value::Array(vec![Value::Num(i as f64), Value::Num(c as f64)]))
            .collect();
        Value::Object(vec![
            ("count".to_string(), Value::Num(self.count as f64)),
            ("sum".to_string(), Value::Num(self.sum as f64)),
            (
                "min".to_string(),
                if self.count == 0 {
                    Value::Null
                } else {
                    Value::Num(self.min as f64)
                },
            ),
            (
                "max".to_string(),
                if self.count == 0 {
                    Value::Null
                } else {
                    Value::Num(self.max as f64)
                },
            ),
            ("buckets".to_string(), Value::Array(buckets)),
        ])
    }
}

impl Deserialize for Histogram {
    fn deserialize_value(value: &Value) -> Result<Self, String> {
        let field = |k: &str| {
            value
                .get(k)
                .ok_or_else(|| format!("histogram: missing field `{k}`"))
        };
        let mut h = Histogram::new();
        let count = u64::deserialize_value(field("count")?)?;
        h.sum = u64::deserialize_value(field("sum")?)?;
        let Value::Array(buckets) = field("buckets")? else {
            return Err("histogram: `buckets` must be an array".to_string());
        };
        for pair in buckets {
            let Value::Array(pair) = pair else {
                return Err("histogram: bucket entry must be [index, count]".to_string());
            };
            if pair.len() != 2 {
                return Err("histogram: bucket entry must be [index, count]".to_string());
            }
            let i = usize::deserialize_value(&pair[0])?;
            let c = u64::deserialize_value(&pair[1])?;
            if i >= NUM_BUCKETS {
                return Err(format!("histogram: bucket index {i} out of range"));
            }
            h.counts[i] += c;
            h.count += c;
        }
        if h.count != count {
            return Err(format!(
                "histogram: declared count {count} != bucket sum {}",
                h.count
            ));
        }
        match field("min")? {
            Value::Null => {}
            v => h.min = u64::deserialize_value(v)?,
        }
        match field("max")? {
            Value::Null => {}
            v => h.max = u64::deserialize_value(v)?,
        }
        if h.count == 0 {
            h.min = u64::MAX;
            h.max = 0;
            h.sum = 0;
        }
        Ok(h)
    }
}

/// One labeled histogram — the unit engine/fleet stats ship around.
/// Labels are `"<shape-class>/<dtype>"` by convention, but the type
/// does not interpret them.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct HistogramRow {
    /// Free-form key (by convention `"<shape-class>/<dtype>"`).
    pub label: String,
    /// The distribution recorded under that key.
    pub hist: Histogram,
}

/// Merge `from` rows into `into`, matching by label (rows new to
/// `into` are appended; the result stays sorted by label).
pub fn merge_rows(into: &mut Vec<HistogramRow>, from: &[HistogramRow]) {
    for row in from {
        match into.iter_mut().find(|r| r.label == row.label) {
            Some(existing) => existing.hist.merge(&row.hist),
            None => into.push(row.clone()),
        }
    }
    into.sort_by(|a, b| a.label.cmp(&b.label));
}

/// Collapse labeled rows into one overall histogram.
pub fn merged_total(rows: &[HistogramRow]) -> Histogram {
    let mut out = Histogram::new();
    for row in rows {
        out.merge(&row.hist);
    }
    out
}

/// Thread-safe collection of labeled histograms for live recording
/// (engine request latencies, router forward latencies). A single
/// uncontended mutex: recording sites are millisecond-scale request
/// paths, not per-leaf hot loops. Rows are keyed by the two static
/// halves of their label, so a warm [`HistogramSet::record`] makes no
/// heap allocation; the `"<class>/<dtype>"` label is formatted only by
/// [`HistogramSet::snapshot`].
#[derive(Debug, Default)]
pub struct HistogramSet {
    rows: Mutex<Vec<((&'static str, &'static str), Histogram)>>,
}

impl HistogramSet {
    /// An empty set.
    pub fn new() -> Self {
        Self::default()
    }

    /// Record `value` under the label `"<class>/<dtype>"`, creating the
    /// row on first use.
    pub fn record(&self, class: &'static str, dtype: &'static str, value: u64) {
        let key = (class, dtype);
        let mut rows = self.rows.lock().unwrap_or_else(|e| e.into_inner());
        match rows.iter_mut().find(|(k, _)| *k == key) {
            Some((_, h)) => h.record(value),
            None => {
                let mut h = Histogram::new();
                h.record(value);
                rows.push((key, h));
            }
        }
    }

    /// Snapshot all rows, sorted by label.
    pub fn snapshot(&self) -> Vec<HistogramRow> {
        let rows = self.rows.lock().unwrap_or_else(|e| e.into_inner());
        let mut out: Vec<HistogramRow> = rows
            .iter()
            .map(|((class, dtype), hist)| HistogramRow {
                label: format!("{class}/{dtype}"),
                hist: hist.clone(),
            })
            .collect();
        out.sort_by(|a, b| a.label.cmp(&b.label));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_values_bucket_exactly() {
        for v in 0..(2 * SUB_BUCKETS as u64) {
            assert_eq!(bucket_index(v), v as usize);
            assert_eq!(bucket_lo(v as usize), v);
            assert_eq!(bucket_hi(v as usize), v);
        }
    }

    #[test]
    fn bucket_bounds_are_consistent() {
        // Only indices up to bucket_index(u64::MAX) are reachable.
        for i in 0..bucket_index(u64::MAX) {
            let lo = bucket_lo(i);
            let hi = bucket_hi(i);
            assert!(lo <= hi, "bucket {i}: lo {lo} > hi {hi}");
            assert_eq!(bucket_index(lo), i);
            assert_eq!(bucket_index(hi), i);
            assert_eq!(bucket_lo(i + 1), hi + 1);
        }
    }

    #[test]
    fn percentile_rule_matches_historical_behaviour() {
        let v: Vec<f64> = (1..=100).map(|i| i as f64).collect();
        assert_eq!(percentile_sorted(&v, 0.50), 51.0);
        assert_eq!(percentile_sorted(&v, 0.99), 100.0);
        // A single sample answers every quantile, tails included.
        assert_eq!(percentile_sorted(&[7.0], 0.5), 7.0);
        assert_eq!(percentile_sorted(&[7.0], 0.99), 7.0);
        assert_eq!(percentile_sorted(&[7.0], 0.999), 7.0);
        assert_eq!(percentile_sorted(&[], 0.5), 0.0);
        assert_eq!(percentile_rank(0, 0.5), None);
    }

    #[test]
    fn quantile_tracks_exact_within_bound() {
        let mut h = Histogram::new();
        let values: Vec<u64> = (0..1000).map(|i| (i * i) % 100_000 + 1).collect();
        let mut sorted = values.clone();
        sorted.sort_unstable();
        for &v in &values {
            h.record(v);
        }
        for &q in &[0.0, 0.5, 0.9, 0.99, 0.999, 1.0] {
            let exact = sorted[percentile_rank(sorted.len(), q).unwrap()];
            let est = h.quantile(q);
            let bound = (exact as f64 * RELATIVE_ERROR_BOUND) as u64 + 1;
            assert!(
                est.abs_diff(exact) <= bound,
                "q={q}: est {est} vs exact {exact} (bound {bound})"
            );
        }
    }

    #[test]
    fn empty_histogram_is_all_zeros() {
        let h = Histogram::new();
        assert_eq!(h.count(), 0);
        assert_eq!(h.quantile(0.5), 0);
        assert_eq!(h.mean(), 0.0);
        assert_eq!(h.min(), None);
        assert_eq!(h.max(), None);
        let back = Histogram::from_json(&h.to_json()).unwrap();
        assert_eq!(back, h);
    }

    #[test]
    fn diff_recovers_a_window() {
        let mut early = Histogram::new();
        early.record_n(100, 5);
        let mut late = early.clone();
        late.record_n(5000, 3);
        let window = late.saturating_diff(&early);
        assert_eq!(window.count(), 3);
        let est = window.quantile(0.5);
        assert!(est.abs_diff(5000) <= 5000 / SUB_BUCKETS as u64 + 1);
    }

    #[test]
    fn rows_merge_by_label() {
        let set = HistogramSet::new();
        set.record("b", "f64", 10);
        set.record("a", "f64", 20);
        set.record("a", "f64", 30);
        let snap = set.snapshot();
        assert_eq!(snap.len(), 2);
        assert_eq!(snap[0].label, "a/f64");
        assert_eq!(snap[0].hist.count(), 2);
        let mut merged = snap.clone();
        merge_rows(&mut merged, &snap);
        assert_eq!(merged[0].hist.count(), 4);
        assert_eq!(merged_total(&merged).count(), 6);
        let row_json = serde_json::to_string_pretty(&snap).unwrap();
        let back: Vec<HistogramRow> = serde_json::from_str(&row_json).unwrap();
        assert_eq!(back, snap);
    }

    #[test]
    fn corrupt_json_is_rejected() {
        assert!(Histogram::from_json("not json").is_err());
        assert!(Histogram::from_json("{\"count\": 3}").is_err());
        // Declared count disagreeing with bucket contents is caught.
        let mut h = Histogram::new();
        h.record(42);
        let json = h.to_json().replace("\"count\": 1", "\"count\": 2");
        assert!(Histogram::from_json(&json).is_err());
    }
}
