//! Measurement collection: time series and summary statistics.
//!
//! The benchmark harness reproduces the paper's figures from data recorded
//! through these types. Error bars in the paper are standard deviations, so
//! [`Summary`] exposes mean/std directly.

use std::fmt;

use crate::time::SimTime;

/// A time-stamped series of scalar measurements (one figure line).
///
/// # Examples
///
/// ```
/// use elan_sim::{Series, SimTime};
///
/// let mut s = Series::new("gpu-utilization");
/// s.record(SimTime::from_secs(0), 0.4);
/// s.record(SimTime::from_secs(60), 0.9);
/// assert_eq!(s.len(), 2);
/// assert!((s.time_weighted_mean() - 0.4).abs() < 1e-12);
/// ```
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Series {
    name: String,
    points: Vec<(SimTime, f64)>,
}

impl Series {
    /// Creates an empty, named series.
    pub fn new(name: impl Into<String>) -> Self {
        Series {
            name: name.into(),
            points: Vec::new(),
        }
    }

    /// The series name (figure legend entry).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Appends a measurement.
    ///
    /// # Panics
    ///
    /// Panics if `at` precedes the last recorded timestamp — series are
    /// recorded in simulation order.
    pub fn record(&mut self, at: SimTime, value: f64) {
        if let Some(&(last, _)) = self.points.last() {
            assert!(at >= last, "series {} recorded out of order", self.name);
        }
        self.points.push((at, value));
    }

    /// The recorded points in time order.
    pub fn points(&self) -> &[(SimTime, f64)] {
        &self.points
    }

    /// Number of points.
    pub fn len(&self) -> usize {
        self.points.len()
    }

    /// True if nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }

    /// Mean of the recorded values (0 if empty).
    fn mean_value(&self) -> f64 {
        if self.points.is_empty() {
            return 0.0;
        }
        self.points.iter().map(|&(_, v)| v).sum::<f64>() / self.points.len() as f64
    }

    /// Time-weighted average over the recorded span, treating each value as
    /// holding until the next timestamp (0 if fewer than 2 points).
    pub fn time_weighted_mean(&self) -> f64 {
        if self.points.len() < 2 {
            return self.points.first().map_or(0.0, |&(_, v)| v);
        }
        let mut acc = 0.0;
        let mut span = 0.0;
        for pair in self.points.windows(2) {
            let (t0, v) = pair[0];
            let (t1, _) = pair[1];
            let dt = t1.duration_since(t0).as_secs_f64();
            acc += v * dt;
            span += dt;
        }
        if span == 0.0 {
            self.mean_value()
        } else {
            acc / span
        }
    }

    /// Downsamples to at most `n` points by uniform stride, for printing.
    pub fn downsample(&self, n: usize) -> Series {
        if n == 0 || self.points.len() <= n {
            return self.clone();
        }
        let stride = self.points.len().div_ceil(n);
        Series {
            name: self.name.clone(),
            points: self.points.iter().step_by(stride).copied().collect(),
        }
    }
}

/// Summary statistics over a set of repeated measurements.
///
/// The paper reports mean with standard-deviation error bars; this type
/// computes both, plus min/max and percentiles for the scheduling metrics.
///
/// # Examples
///
/// ```
/// use elan_sim::Summary;
///
/// let s = Summary::from_values(&[1.0, 2.0, 3.0, 4.0]);
/// assert_eq!(s.mean(), 2.5);
/// assert_eq!(s.min(), 1.0);
/// assert_eq!(s.max(), 4.0);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Summary {
    values: Vec<f64>,
    mean: f64,
    std: f64,
    min: f64,
    max: f64,
}

impl Summary {
    /// Computes statistics over `values`.
    ///
    /// # Panics
    ///
    /// Panics if `values` is empty or contains non-finite numbers.
    pub fn from_values(values: &[f64]) -> Self {
        assert!(!values.is_empty(), "summary of no values");
        assert!(
            values.iter().all(|v| v.is_finite()),
            "summary of non-finite values"
        );
        let n = values.len() as f64;
        let mean = values.iter().sum::<f64>() / n;
        let var = values.iter().map(|v| (v - mean).powi(2)).sum::<f64>() / n;
        let mut sorted = values.to_vec();
        sorted.sort_by(|a, b| a.partial_cmp(b).expect("finite values"));
        Summary {
            min: sorted[0],
            max: *sorted.last().expect("non-empty"),
            values: sorted,
            mean,
            std: var.sqrt(),
        }
    }

    /// Arithmetic mean.
    pub fn mean(&self) -> f64 {
        self.mean
    }

    /// Population standard deviation (the paper's error bars).
    pub fn std(&self) -> f64 {
        self.std
    }

    /// Smallest observation.
    pub fn min(&self) -> f64 {
        self.min
    }

    /// Largest observation.
    pub fn max(&self) -> f64 {
        self.max
    }

    /// Number of observations.
    pub fn count(&self) -> usize {
        self.values.len()
    }

    /// Linear-interpolated percentile, `p` in [0, 100].
    ///
    /// # Panics
    ///
    /// Panics if `p` is outside [0, 100].
    pub fn percentile(&self, p: f64) -> f64 {
        assert!((0.0..=100.0).contains(&p), "percentile out of range: {p}");
        if self.values.len() == 1 {
            return self.values[0];
        }
        let rank = p / 100.0 * (self.values.len() - 1) as f64;
        let lo = rank.floor() as usize;
        let hi = rank.ceil() as usize;
        let frac = rank - lo as f64;
        self.values[lo] * (1.0 - frac) + self.values[hi] * frac
    }

    /// Median (50th percentile).
    pub fn median(&self) -> f64 {
        self.percentile(50.0)
    }
}

impl fmt::Display for Summary {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{:.4} ± {:.4} (min {:.4}, max {:.4}, n={})",
            self.mean,
            self.std,
            self.min,
            self.max,
            self.values.len()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn series_statistics() {
        let mut s = Series::new("x");
        s.record(SimTime::from_secs(0), 1.0);
        s.record(SimTime::from_secs(10), 3.0);
        s.record(SimTime::from_secs(20), 3.0);
        assert!((s.mean_value() - 7.0 / 3.0).abs() < 1e-12);
        // value 1.0 holds 10s, 3.0 holds 10s -> weighted mean 2.0
        assert!((s.time_weighted_mean() - 2.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "out of order")]
    fn series_rejects_unordered() {
        let mut s = Series::new("x");
        s.record(SimTime::from_secs(5), 1.0);
        s.record(SimTime::from_secs(4), 1.0);
    }

    #[test]
    fn series_downsample_keeps_name_and_bounds() {
        let mut s = Series::new("big");
        for i in 0..1000 {
            s.record(SimTime::from_secs(i), i as f64);
        }
        let d = s.downsample(10);
        assert!(d.len() <= 10);
        assert_eq!(d.name(), "big");
        assert_eq!(d.points()[0].1, 0.0);
    }

    #[test]
    fn summary_mean_std() {
        let s = Summary::from_values(&[2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0]);
        assert_eq!(s.mean(), 5.0);
        assert_eq!(s.std(), 2.0);
        assert_eq!(s.count(), 8);
    }

    #[test]
    fn summary_percentiles_interpolate() {
        let s = Summary::from_values(&[10.0, 20.0, 30.0, 40.0]);
        assert_eq!(s.percentile(0.0), 10.0);
        assert_eq!(s.percentile(100.0), 40.0);
        assert_eq!(s.median(), 25.0);
    }

    #[test]
    #[should_panic(expected = "summary of no values")]
    fn summary_rejects_empty() {
        let _ = Summary::from_values(&[]);
    }
}
