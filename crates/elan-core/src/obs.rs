//! Observability primitives shared across the Elan crates.
//!
//! The live runtime (`elan-rt`) builds its structured event journal and
//! adjustment traces on top of the types in this module:
//!
//! - [`AdjustmentPhase`] names the five steps of the paper's adjustment
//!   pipeline (§V-B): *request → report → coordinate → replicate →
//!   adjust*. Latency attributions everywhere in the workspace use this
//!   taxonomy, so a live trace, a simulated run, and a bench report all
//!   speak the same phase names.
//! - [`MetricsRegistry`] is a process-wide registry of named
//!   [`Counter`]s and [`Histogram`]s. Handles are cheap
//!   `Arc`-backed atomics: registering is locked, *recording is
//!   lock-free*, which is what lets the hot paths of the runtime count
//!   resends and chunks without serializing on a metrics mutex.
//! - [`MetricsSnapshot`] is the point-in-time copy a shutdown report (or
//!   a scrape) carries, with a dependency-free JSON emitter.
//!
//! # Examples
//!
//! ```
//! use elan_core::obs::{AdjustmentPhase, MetricsRegistry};
//!
//! let registry = MetricsRegistry::new();
//! let resends = registry.counter("rt.resends");
//! resends.inc();
//! resends.add(2);
//! let lat = registry.histogram("adjust.total_us");
//! lat.record(1_500);
//! let snap = registry.snapshot();
//! assert_eq!(snap.counter("rt.resends"), 3);
//! assert_eq!(snap.histograms["adjust.total_us"].count, 1);
//! assert_eq!(AdjustmentPhase::ALL.len(), 5);
//! ```

use std::collections::BTreeMap;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// One step of the 5-step adjustment pipeline (§V-B).
///
/// Every adjustment — scale-out, scale-in, migration, or a
/// failure-driven scale-in — moves through these phases in order; the
/// runtime's `AdjustmentTrace` records one wall-clock window per phase.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum AdjustmentPhase {
    /// Step ①: the controller (or failure detector) requests the
    /// adjustment and the AM accepts it.
    Request,
    /// Step ②: newly launched workers initialize and report readiness.
    Report,
    /// Step ③: the AM waits for every live worker to park at a common
    /// iteration boundary.
    Coordinate,
    /// Step ④: training state replicates to the joiners in
    /// contention-free transfer waves.
    Replicate,
    /// Step ⑤: the communication group reconfigures and training resumes
    /// under the new membership.
    Adjust,
}

impl AdjustmentPhase {
    /// All five phases, in pipeline order.
    pub const ALL: [AdjustmentPhase; 5] = [
        AdjustmentPhase::Request,
        AdjustmentPhase::Report,
        AdjustmentPhase::Coordinate,
        AdjustmentPhase::Replicate,
        AdjustmentPhase::Adjust,
    ];

    /// Stable lowercase name (used in JSON exports and metric names).
    pub fn name(self) -> &'static str {
        match self {
            AdjustmentPhase::Request => "request",
            AdjustmentPhase::Report => "report",
            AdjustmentPhase::Coordinate => "coordinate",
            AdjustmentPhase::Replicate => "replicate",
            AdjustmentPhase::Adjust => "adjust",
        }
    }

    /// Position in the pipeline, `0..5`.
    pub fn index(self) -> usize {
        match self {
            AdjustmentPhase::Request => 0,
            AdjustmentPhase::Report => 1,
            AdjustmentPhase::Coordinate => 2,
            AdjustmentPhase::Replicate => 3,
            AdjustmentPhase::Adjust => 4,
        }
    }
}

impl fmt::Display for AdjustmentPhase {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// A half-open wall-clock window `[start_us, end_us]` on the journal's
/// microsecond time axis.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PhaseWindow {
    /// Phase entry, µs since the journal epoch.
    pub start_us: u64,
    /// Phase exit, µs since the journal epoch.
    pub end_us: u64,
}

impl PhaseWindow {
    /// Window length in microseconds.
    pub fn micros(&self) -> u64 {
        self.end_us.saturating_sub(self.start_us)
    }

    /// Window length in milliseconds.
    pub fn ms(&self) -> f64 {
        self.micros() as f64 / 1e3
    }
}

/// A monotonically increasing named counter. Handles are cheap to clone
/// and record lock-free.
#[derive(Debug, Clone, Default)]
pub struct Counter(Arc<AtomicU64>);

impl Counter {
    /// Adds one.
    pub fn inc(&self) {
        self.0.fetch_add(1, Ordering::Relaxed);
    }

    /// Adds `n`.
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

#[derive(Debug)]
struct HistInner {
    count: AtomicU64,
    sum: AtomicU64,
    min: AtomicU64,
    max: AtomicU64,
}

/// A lock-free summary (count, sum, min, max) of `u64` samples
/// (typically microsecond latencies).
#[derive(Debug, Clone)]
pub struct Histogram(Arc<HistInner>);

impl Default for Histogram {
    fn default() -> Self {
        Histogram(Arc::new(HistInner {
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            min: AtomicU64::new(u64::MAX),
            max: AtomicU64::new(0),
        }))
    }
}

impl Histogram {
    /// Records one sample.
    pub fn record(&self, v: u64) {
        self.0.count.fetch_add(1, Ordering::Relaxed);
        self.0.sum.fetch_add(v, Ordering::Relaxed);
        self.0.min.fetch_min(v, Ordering::Relaxed);
        self.0.max.fetch_max(v, Ordering::Relaxed);
    }

    /// Point-in-time summary.
    pub fn summary(&self) -> HistogramSummary {
        let count = self.0.count.load(Ordering::Relaxed);
        HistogramSummary {
            count,
            sum: self.0.sum.load(Ordering::Relaxed),
            min: if count == 0 {
                0
            } else {
                self.0.min.load(Ordering::Relaxed)
            },
            max: self.0.max.load(Ordering::Relaxed),
        }
    }
}

/// A point-in-time summary of a [`Histogram`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct HistogramSummary {
    /// Samples recorded.
    pub count: u64,
    /// Sum of all samples.
    pub sum: u64,
    /// Smallest sample (0 when empty).
    pub min: u64,
    /// Largest sample (0 when empty).
    pub max: u64,
}

impl HistogramSummary {
    /// Arithmetic mean, or 0.0 when empty.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }
}

#[derive(Debug, Default)]
struct RegistryInner {
    counters: BTreeMap<String, Counter>,
    histograms: BTreeMap<String, Histogram>,
}

/// A registry of named metrics.
///
/// `counter`/`histogram` are get-or-create: every caller asking
/// for the same name shares the same underlying atomic, so subsystems
/// can be wired independently and still aggregate. Registration takes a
/// short lock; recording through the returned handles is lock-free.
#[derive(Debug, Default)]
pub struct MetricsRegistry {
    inner: Mutex<RegistryInner>,
}

impl MetricsRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        MetricsRegistry::default()
    }

    /// Returns (creating if needed) the counter named `name`.
    pub fn counter(&self, name: impl Into<String>) -> Counter {
        let mut inner = self
            .inner
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        inner.counters.entry(name.into()).or_default().clone()
    }

    /// Returns (creating if needed) the histogram named `name`.
    pub fn histogram(&self, name: impl Into<String>) -> Histogram {
        let mut inner = self
            .inner
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        inner.histograms.entry(name.into()).or_default().clone()
    }

    /// A point-in-time copy of every registered metric.
    pub fn snapshot(&self) -> MetricsSnapshot {
        let inner = self
            .inner
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        MetricsSnapshot {
            counters: inner
                .counters
                .iter()
                .map(|(k, v)| (k.clone(), v.get()))
                .collect(),
            histograms: inner
                .histograms
                .iter()
                .map(|(k, v)| (k.clone(), v.summary()))
                .collect(),
        }
    }
}

/// A point-in-time copy of a [`MetricsRegistry`].
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MetricsSnapshot {
    /// Counter values by name.
    pub counters: BTreeMap<String, u64>,
    /// Histogram summaries by name.
    pub histograms: BTreeMap<String, HistogramSummary>,
}

impl MetricsSnapshot {
    /// Counter value, or 0 when absent.
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// Serializes the snapshot as a JSON object (dependency-free).
    pub fn to_json(&self) -> String {
        let mut s = String::from("{\n  \"counters\": {");
        for (i, (k, v)) in self.counters.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            s.push_str(&format!("\n    \"{}\": {}", json_escape(k), v));
        }
        s.push_str("\n  },\n  \"histograms\": {");
        for (i, (k, h)) in self.histograms.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            s.push_str(&format!(
                "\n    \"{}\": {{\"count\": {}, \"sum\": {}, \"min\": {}, \"max\": {}, \"mean\": {:.3}}}",
                json_escape(k),
                h.count,
                h.sum,
                h.min,
                h.max,
                h.mean()
            ));
        }
        s.push_str("\n  }\n}\n");
        s
    }
}

/// Escapes a string for embedding in a JSON document.
pub fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn phases_are_ordered_and_named() {
        let names: Vec<_> = AdjustmentPhase::ALL.iter().map(|p| p.name()).collect();
        assert_eq!(
            names,
            ["request", "report", "coordinate", "replicate", "adjust"]
        );
        for (i, p) in AdjustmentPhase::ALL.iter().enumerate() {
            assert_eq!(p.index(), i);
        }
    }

    #[test]
    fn counters_are_shared_by_name() {
        let reg = MetricsRegistry::new();
        let a = reg.counter("x");
        let b = reg.counter("x");
        a.inc();
        b.add(4);
        assert_eq!(reg.counter("x").get(), 5);
        assert_eq!(reg.snapshot().counter("x"), 5);
        assert_eq!(reg.snapshot().counter("missing"), 0);
    }

    #[test]
    fn histogram_summary_tracks_extremes() {
        let h = Histogram::default();
        assert_eq!(h.summary(), HistogramSummary::default());
        h.record(10);
        h.record(1000);
        h.record(1);
        let s = h.summary();
        assert_eq!(s.count, 3);
        assert_eq!(s.sum, 1011);
        assert_eq!(s.min, 1);
        assert_eq!(s.max, 1000);
        assert!((s.mean() - 337.0).abs() < 1.0);
    }

    #[test]
    fn snapshot_json_is_wellformed() {
        let reg = MetricsRegistry::new();
        reg.counter("a.b").inc();
        reg.histogram("h").record(7);
        let json = reg.snapshot().to_json();
        assert!(json.contains("\"a.b\": 1"));
        assert!(json.contains("\"count\": 1"));
    }

    #[test]
    fn phase_window_lengths() {
        let w = PhaseWindow {
            start_us: 1_000,
            end_us: 3_500,
        };
        assert_eq!(w.micros(), 2_500);
        assert!((w.ms() - 2.5).abs() < 1e-9);
        let inverted = PhaseWindow {
            start_us: 5,
            end_us: 1,
        };
        assert_eq!(inverted.micros(), 0);
    }

    #[test]
    fn json_escape_handles_specials() {
        assert_eq!(json_escape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
    }
}
