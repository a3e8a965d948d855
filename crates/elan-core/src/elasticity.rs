//! The elasticity-system abstraction shared by Elan and the baselines.
//!
//! A resource adjustment is described by an [`AdjustmentRequest`] (which
//! GPUs the job runs on before and after); an [`ElasticitySystem`] turns a
//! request into an [`AdjustmentCost`]: how long training *pauses* and how
//! long until the new configuration is fully *in effect*. Elan implements
//! the trait in [`crate::adjustment`]; Shutdown-&-Restart and Litz
//! implement it in `elan-baselines`, making the Fig. 15/16 comparisons
//! apples-to-apples.

use std::error::Error;
use std::fmt;

use elan_sim::SimDuration;
use elan_topology::{BandwidthModel, GpuId, Topology};

use elan_models::{ModelSpec, PerfModel};

/// The three kinds of resource adjustment (§II).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AdjustmentKind {
    /// Add workers to a running job.
    ScaleOut,
    /// Remove workers from a running job.
    ScaleIn,
    /// Move the job to a disjoint (or overlapping) set of workers.
    Migration,
}

impl fmt::Display for AdjustmentKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            AdjustmentKind::ScaleOut => "scale-out",
            AdjustmentKind::ScaleIn => "scale-in",
            AdjustmentKind::Migration => "migration",
        };
        f.write_str(s)
    }
}

/// Errors constructing an [`AdjustmentRequest`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RequestError {
    /// A placement list is empty.
    EmptyPlacement,
    /// The same GPU appears twice in a placement.
    DuplicateGpu(GpuId),
    /// The request does not change anything.
    NoChange,
}

impl fmt::Display for RequestError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RequestError::EmptyPlacement => write!(f, "placement must not be empty"),
            RequestError::DuplicateGpu(g) => write!(f, "{g} appears twice in a placement"),
            RequestError::NoChange => write!(f, "request changes nothing"),
        }
    }
}

impl Error for RequestError {}

/// A resource-adjustment request: the job's placement before and after.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AdjustmentRequest {
    kind: AdjustmentKind,
    current: Vec<GpuId>,
    target: Vec<GpuId>,
}

impl AdjustmentRequest {
    /// Builds a request, inferring the kind from the placements:
    /// a superset target is a scale-out, a subset is a scale-in, anything
    /// else is a migration.
    ///
    /// # Errors
    ///
    /// Returns [`RequestError`] for empty placements, duplicate GPUs, or a
    /// target identical to the current placement.
    pub fn new(current: Vec<GpuId>, target: Vec<GpuId>) -> Result<Self, RequestError> {
        if current.is_empty() || target.is_empty() {
            return Err(RequestError::EmptyPlacement);
        }
        for list in [&current, &target] {
            let mut sorted = list.clone();
            sorted.sort_unstable();
            for w in sorted.windows(2) {
                if w[0] == w[1] {
                    return Err(RequestError::DuplicateGpu(w[0]));
                }
            }
        }
        let mut cur_sorted = current.clone();
        cur_sorted.sort_unstable();
        let mut tgt_sorted = target.clone();
        tgt_sorted.sort_unstable();
        if cur_sorted == tgt_sorted {
            return Err(RequestError::NoChange);
        }
        let target_is_superset = cur_sorted
            .iter()
            .all(|g| tgt_sorted.binary_search(g).is_ok());
        let target_is_subset = tgt_sorted
            .iter()
            .all(|g| cur_sorted.binary_search(g).is_ok());
        let kind = if target_is_superset {
            AdjustmentKind::ScaleOut
        } else if target_is_subset {
            AdjustmentKind::ScaleIn
        } else {
            AdjustmentKind::Migration
        };
        Ok(AdjustmentRequest {
            kind,
            current,
            target,
        })
    }

    /// Convenience constructor: grow from `n_before` to `n_after` workers
    /// on contiguously numbered GPUs — the layout of the Fig. 15 scales.
    ///
    /// # Panics
    ///
    /// Panics if the counts are equal or zero (use [`AdjustmentRequest::new`]
    /// for irregular placements).
    #[expect(
        clippy::expect_used,
        reason = "the helper builds contiguous 0..n placements itself, which satisfy AdjustmentRequest::new's validator by construction."
    )]
    pub fn contiguous(n_before: u32, n_after: u32) -> Self {
        assert!(n_before > 0 && n_after > 0 && n_before != n_after);
        let current = (0..n_before).map(GpuId).collect();
        let target = (0..n_after).map(GpuId).collect();
        AdjustmentRequest::new(current, target).expect("contiguous placements are valid")
    }

    /// Convenience constructor: migrate `n` workers from GPUs
    /// `[0, n)` to GPUs `[offset, offset + n)`.
    ///
    /// # Panics
    ///
    /// Panics if the placements overlap into identity (`offset == 0`).
    #[expect(
        clippy::expect_used,
        reason = "the helper builds disjoint placements itself, which satisfy AdjustmentRequest::new's validator by construction."
    )]
    pub fn migration(n: u32, offset: u32) -> Self {
        assert!(n > 0 && offset > 0);
        let current = (0..n).map(GpuId).collect();
        let target = (offset..offset + n).map(GpuId).collect();
        AdjustmentRequest::new(current, target).expect("disjoint placements are valid")
    }

    /// The adjustment kind.
    pub fn kind(&self) -> AdjustmentKind {
        self.kind
    }

    /// Placement before the adjustment.
    pub fn current(&self) -> &[GpuId] {
        &self.current
    }

    /// Placement after the adjustment.
    pub fn target(&self) -> &[GpuId] {
        &self.target
    }

    /// GPUs that join: in the target but not the current placement.
    pub fn joining(&self) -> Vec<GpuId> {
        self.target
            .iter()
            .copied()
            .filter(|g| !self.current.contains(g))
            .collect()
    }

    /// GPUs that leave: in the current but not the target placement.
    pub fn leaving(&self) -> Vec<GpuId> {
        self.current
            .iter()
            .copied()
            .filter(|g| !self.target.contains(g))
            .collect()
    }

    /// Worker count before.
    pub fn n_before(&self) -> u32 {
        self.current.len() as u32
    }

    /// Worker count after.
    pub fn n_after(&self) -> u32 {
        self.target.len() as u32
    }
}

impl fmt::Display for AdjustmentRequest {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} {}→{}", self.kind, self.n_before(), self.n_after())
    }
}

/// What an adjustment costs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AdjustmentCost {
    /// Wall time during which training makes no progress — what Fig. 15
    /// reports (Elan hides everything else off the critical path).
    pub pause: SimDuration,
    /// Wall time from the request until the new configuration is training
    /// (includes hidden start/initialization).
    pub completion: SimDuration,
}

impl AdjustmentCost {
    /// A free adjustment (the "Ideal" system of Fig. 22).
    pub(crate) const FREE: AdjustmentCost = AdjustmentCost {
        pause: SimDuration::ZERO,
        completion: SimDuration::ZERO,
    };
}

/// Everything an elasticity system needs to price an adjustment.
#[derive(Debug, Clone, Copy)]
pub struct AdjustmentContext<'a> {
    /// The cluster topology (placements index into it).
    pub topology: &'a Topology,
    /// Link bandwidth/latency model.
    pub bandwidth: &'a BandwidthModel,
    /// Iteration-time model (for coordination-boundary math).
    pub perf: &'a PerfModel,
    /// The model being trained.
    pub model: &'a ModelSpec,
    /// Total batch size at the time of the adjustment.
    pub total_batch: u32,
    /// Workers coordinate with the AM every this many iterations.
    pub coordination_interval: u32,
    /// Seed for the deterministic start/init samples.
    pub seed: u64,
}

impl<'a> AdjustmentContext<'a> {
    /// Duration between coordination boundaries for `n_workers`.
    pub fn coordination_period(&self, n_workers: u32) -> SimDuration {
        self.perf
            .iteration_time(self.model, n_workers, self.total_batch)
            * self.coordination_interval as u64
    }

    /// Time from `at` to the next coordination boundary (boundaries fall at
    /// integer multiples of the coordination period).
    pub fn next_boundary_after(&self, at: SimDuration, n_workers: u32) -> SimDuration {
        let period = self.coordination_period(n_workers).as_nanos();
        let at_ns = at.as_nanos();
        let k = at_ns.div_ceil(period.max(1));
        SimDuration::from_nanos(k * period)
    }
}

/// A system providing elastic resource adjustments.
///
/// Implemented by Elan ([`crate::adjustment::ElanSystem`]) and the
/// baselines (`elan-baselines`).
pub trait ElasticitySystem {
    /// Human-readable system name for reports.
    fn name(&self) -> &'static str;

    /// Prices one adjustment.
    fn adjust(&self, request: &AdjustmentRequest, ctx: &AdjustmentContext<'_>) -> AdjustmentCost;

    /// Fraction of iteration time wasted on elasticity maintenance when no
    /// adjustments happen (Fig. 14's runtime overhead), for a job of
    /// `n_workers`.
    fn runtime_overhead(&self, ctx: &AdjustmentContext<'_>, n_workers: u32) -> f64;

    /// Training throughput relative to plain collective training (1.0 for
    /// systems that train natively; Litz pays context-switch costs).
    fn relative_throughput(&self, ctx: &AdjustmentContext<'_>, n_workers: u32) -> f64 {
        let _ = (ctx, n_workers);
        1.0
    }
}

/// The "Ideal" elasticity system of Fig. 22: zero overhead, instantaneous
/// adjustments.
#[derive(Debug, Clone, Copy, Default)]
pub struct IdealSystem;

impl ElasticitySystem for IdealSystem {
    fn name(&self) -> &'static str {
        "Ideal"
    }

    fn adjust(&self, _request: &AdjustmentRequest, _ctx: &AdjustmentContext<'_>) -> AdjustmentCost {
        AdjustmentCost::FREE
    }

    fn runtime_overhead(&self, _ctx: &AdjustmentContext<'_>, _n_workers: u32) -> f64 {
        0.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kind_inference() {
        let out = AdjustmentRequest::contiguous(4, 8);
        assert_eq!(out.kind(), AdjustmentKind::ScaleOut);
        assert_eq!(out.joining().len(), 4);
        assert!(out.leaving().is_empty());

        let inn = AdjustmentRequest::contiguous(8, 4);
        assert_eq!(inn.kind(), AdjustmentKind::ScaleIn);
        assert_eq!(inn.leaving().len(), 4);

        let mig = AdjustmentRequest::migration(4, 8);
        assert_eq!(mig.kind(), AdjustmentKind::Migration);
        assert_eq!(mig.joining().len(), 4);
        assert_eq!(mig.leaving().len(), 4);
    }

    #[test]
    fn partial_overlap_is_migration() {
        let req =
            AdjustmentRequest::new(vec![GpuId(0), GpuId(1)], vec![GpuId(1), GpuId(2)]).unwrap();
        assert_eq!(req.kind(), AdjustmentKind::Migration);
        assert_eq!(req.joining(), vec![GpuId(2)]);
        assert_eq!(req.leaving(), vec![GpuId(0)]);
    }

    #[test]
    fn invalid_requests_rejected() {
        assert_eq!(
            AdjustmentRequest::new(vec![], vec![GpuId(0)]),
            Err(RequestError::EmptyPlacement)
        );
        assert_eq!(
            AdjustmentRequest::new(vec![GpuId(0), GpuId(0)], vec![GpuId(1)]),
            Err(RequestError::DuplicateGpu(GpuId(0)))
        );
        assert_eq!(
            AdjustmentRequest::new(vec![GpuId(0)], vec![GpuId(0)]),
            Err(RequestError::NoChange)
        );
    }

    #[test]
    fn ideal_system_is_free() {
        use elan_models::zoo;
        let topo = elan_topology::ClusterSpec::paper_testbed().build();
        let bw = BandwidthModel::paper_default();
        let perf = PerfModel::paper_default();
        let model = zoo::resnet50();
        let ctx = AdjustmentContext {
            topology: &topo,
            bandwidth: &bw,
            perf: &perf,
            model: &model,
            total_batch: 512,
            coordination_interval: 10,
            seed: 1,
        };
        let req = AdjustmentRequest::contiguous(4, 8);
        assert_eq!(IdealSystem.adjust(&req, &ctx), AdjustmentCost::FREE);
        assert_eq!(IdealSystem.runtime_overhead(&ctx, 8), 0.0);
        assert_eq!(IdealSystem.relative_throughput(&ctx, 8), 1.0);
    }

    #[test]
    fn boundary_math_rounds_up() {
        use elan_models::zoo;
        let topo = elan_topology::ClusterSpec::paper_testbed().build();
        let bw = BandwidthModel::paper_default();
        let perf = PerfModel::paper_default();
        let model = zoo::resnet50();
        let ctx = AdjustmentContext {
            topology: &topo,
            bandwidth: &bw,
            perf: &perf,
            model: &model,
            total_batch: 512,
            coordination_interval: 10,
            seed: 1,
        };
        let period = ctx.coordination_period(16);
        let b = ctx.next_boundary_after(period + SimDuration::from_nanos(1), 16);
        assert_eq!(b, period * 2);
        let exact = ctx.next_boundary_after(period, 16);
        assert_eq!(exact, period);
    }

    #[test]
    fn display_formats() {
        let req = AdjustmentRequest::contiguous(16, 32);
        assert_eq!(req.to_string(), "scale-out 16→32");
    }
}
