//! Elan's adjustment cost model — the ⑤-step procedure priced on virtual
//! time (§II, §IV, §V-B).
//!
//! For Elan, the only time training actually stalls is the *pause*:
//! state replication (topology-aware, concurrent, IO-free) plus the state
//! adjustment (data repartition — one integer under serial semantics —
//! communication-group reconstruction, and the hybrid-scaling decision).
//! Everything else — new-worker start and initialization — happens in
//! parallel with ongoing training thanks to the asynchronous coordination
//! mechanism, and only stretches the *completion* time.

use elan_sim::{Bytes, SeedStream, SimDuration};
use elan_topology::ReplicationPlanner;

use rand::Rng;

use crate::elasticity::{
    AdjustmentContext, AdjustmentCost, AdjustmentKind, AdjustmentRequest, ElasticitySystem,
};

/// Cost constants for the non-replication parts of an adjustment.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct ElanCosts {
    /// Rebuilding the collective-communication group: fixed part.
    pub comm_reconstruct_base: SimDuration,
    /// Rebuilding the collective-communication group: per-worker part.
    pub comm_reconstruct_per_worker: SimDuration,
    /// Data repartition under serial semantics (replicating one integer).
    pub data_repartition: SimDuration,
    /// Evaluating the hybrid-scaling decision.
    pub scaling_decision: SimDuration,
    /// Worker process start (container/process launch), drawn per worker.
    pub start_min: SimDuration,
    /// Upper bound of the start draw.
    pub start_max: SimDuration,
    /// Framework/runtime initialization (CUDA context, libraries), drawn
    /// per worker.
    pub init_min: SimDuration,
    /// Upper bound of the init draw.
    pub init_max: SimDuration,
    /// AM processing per coordination message.
    pub am_processing: SimDuration,
}

impl ElanCosts {
    /// Values calibrated to the paper's Fig. 11 breakdown: start ≈ 10 s,
    /// initialization ≈ 15–25 s, while the in-band costs are sub-second.
    pub(crate) fn paper_default() -> Self {
        ElanCosts {
            comm_reconstruct_base: SimDuration::from_millis(400),
            comm_reconstruct_per_worker: SimDuration::from_millis(8),
            data_repartition: SimDuration::from_millis(2),
            scaling_decision: SimDuration::from_micros(100),
            start_min: SimDuration::from_secs(8),
            start_max: SimDuration::from_secs(12),
            init_min: SimDuration::from_secs(15),
            init_max: SimDuration::from_secs(25),
            am_processing: SimDuration::from_micros(10),
        }
    }
}

impl Default for ElanCosts {
    fn default() -> Self {
        ElanCosts::paper_default()
    }
}

/// The Elan elasticity system.
///
/// # Examples
///
/// ```
/// use elan_core::{AdjustmentContext, AdjustmentRequest, ElanSystem, ElasticitySystem};
/// use elan_models::{perf::PerfModel, zoo};
/// use elan_topology::{BandwidthModel, ClusterSpec};
///
/// let topo = ClusterSpec::paper_testbed().build();
/// let bw = BandwidthModel::paper_default();
/// let perf = PerfModel::paper_default();
/// let model = zoo::resnet50();
/// let ctx = AdjustmentContext {
///     topology: &topo, bandwidth: &bw, perf: &perf, model: &model,
///     total_batch: 512, coordination_interval: 10, seed: 7,
/// };
/// let cost = ElanSystem::new().adjust(&AdjustmentRequest::contiguous(16, 32), &ctx);
/// // Elan's visible pause is about a second (Fig. 15).
/// assert!(cost.pause.as_secs_f64() < 2.0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct ElanSystem {
    costs: ElanCosts,
}

impl ElanSystem {
    /// Creates the system with paper-calibrated costs.
    pub fn new() -> Self {
        ElanSystem {
            costs: ElanCosts::paper_default(),
        }
    }

    /// Per-worker start+init durations for the joining workers, drawn
    /// deterministically from the context seed. The *maximum* gates when
    /// the adjustment can begin — but off the critical path.
    pub(crate) fn start_init_times(
        &self,
        request: &AdjustmentRequest,
        ctx: &AdjustmentContext<'_>,
    ) -> Vec<SimDuration> {
        let seeds = SeedStream::new(ctx.seed);
        request
            .joining()
            .iter()
            .map(|g| {
                let mut rng = seeds.rng_indexed("start-init", g.0 as u64);
                let start_span = self
                    .costs
                    .start_max
                    .saturating_sub(self.costs.start_min)
                    .as_nanos();
                let init_span = self
                    .costs
                    .init_max
                    .saturating_sub(self.costs.init_min)
                    .as_nanos();
                let start = self.costs.start_min
                    + SimDuration::from_nanos(rng.gen_range(0..=start_span.max(1)));
                let init = self.costs.init_min
                    + SimDuration::from_nanos(rng.gen_range(0..=init_span.max(1)));
                start + init
            })
            .collect()
    }

    /// The replication part of the pause: plans transfers with the
    /// concurrent IO-free mechanism and prices them on the link model.
    /// The payload is parameters + optimizer slots (gradients are
    /// recomputed); CPU state overlaps on the side channel.
    #[expect(
        clippy::expect_used,
        reason = "plan() inputs come from an AdjustmentRequest, whose constructor already rejected empty/overlapping placements; a PlanError here means the request validator is broken, which must be loud."
    )]
    pub fn replication_time(
        &self,
        request: &AdjustmentRequest,
        ctx: &AdjustmentContext<'_>,
    ) -> SimDuration {
        let joining = request.joining();
        if joining.is_empty() {
            return SimDuration::ZERO;
        }
        let plan = ReplicationPlanner::new(ctx.topology)
            .plan(request.current(), &joining)
            .expect("valid adjustment placements");
        let gpu_payload = Bytes::new(ctx.model.parameters * 4 * 2); // params + momentum
        plan.duration(ctx.bandwidth, gpu_payload, ctx.model.cpu_state_bytes())
    }

    /// The state-adjustment part of the pause (step ⑤).
    pub fn state_adjustment_time(&self, n_after: u32) -> SimDuration {
        self.costs.data_repartition
            + self.costs.scaling_decision
            + self.costs.comm_reconstruct_base
            + self.costs.comm_reconstruct_per_worker * n_after as u64
    }
}

impl ElasticitySystem for ElanSystem {
    fn name(&self) -> &'static str {
        "Elan"
    }

    fn adjust(&self, request: &AdjustmentRequest, ctx: &AdjustmentContext<'_>) -> AdjustmentCost {
        let pause = match request.kind() {
            AdjustmentKind::ScaleOut | AdjustmentKind::Migration => {
                self.replication_time(request, ctx) + self.state_adjustment_time(request.n_after())
            }
            AdjustmentKind::ScaleIn => self.state_adjustment_time(request.n_after()),
        };

        // Completion: new workers start+init asynchronously while training
        // continues; the adjustment triggers at the first coordination
        // boundary after the slowest report, then the pause applies.
        let slowest_init = self
            .start_init_times(request, ctx)
            .into_iter()
            .fold(SimDuration::ZERO, SimDuration::max);
        let boundary = ctx.next_boundary_after(slowest_init, request.n_before());
        AdjustmentCost {
            pause,
            completion: boundary + pause,
        }
    }

    fn runtime_overhead(&self, ctx: &AdjustmentContext<'_>, n_workers: u32) -> f64 {
        // Per coordination round: one RPC round trip on the side channel
        // plus AM processing of every worker's message.
        let rpc = ctx.bandwidth.side_channel.latency * 2;
        let processing = self.costs.am_processing * n_workers as u64;
        let per_round = rpc + processing;
        let period = ctx.coordination_period(n_workers);
        per_round.as_secs_f64() / period.as_secs_f64()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use elan_models::{zoo, PerfModel};
    use elan_topology::{BandwidthModel, ClusterSpec, Topology};

    fn fixtures() -> (Topology, BandwidthModel, PerfModel) {
        (
            ClusterSpec::paper_testbed().build(),
            BandwidthModel::paper_default(),
            PerfModel::paper_default(),
        )
    }

    fn ctx<'a>(
        topo: &'a Topology,
        bw: &'a BandwidthModel,
        perf: &'a PerfModel,
        model: &'a elan_models::ModelSpec,
    ) -> AdjustmentContext<'a> {
        AdjustmentContext {
            topology: topo,
            bandwidth: bw,
            perf,
            model,
            total_batch: 512,
            coordination_interval: 10,
            seed: 7,
        }
    }

    #[test]
    fn pause_is_about_a_second_for_all_models() {
        // Fig. 15: Elan achieves ~1s on migration and scaling for every
        // model (A-E) at every scale.
        let (topo, bw, perf) = fixtures();
        for model in zoo::evaluation_models() {
            let c = ctx(&topo, &bw, &perf, &model);
            for req in [
                AdjustmentRequest::contiguous(16, 32),
                AdjustmentRequest::contiguous(32, 16),
                AdjustmentRequest::migration(16, 32),
            ] {
                let cost = ElanSystem::new().adjust(&req, &c);
                assert!(
                    cost.pause.as_secs_f64() < 3.5,
                    "{} {} pause {}",
                    model.name,
                    req,
                    cost.pause
                );
                assert!(cost.pause > SimDuration::ZERO);
            }
        }
    }

    #[test]
    fn scale_in_is_cheapest() {
        // No replication needed when workers leave.
        let (topo, bw, perf) = fixtures();
        let model = zoo::resnet50();
        let c = ctx(&topo, &bw, &perf, &model);
        let sys = ElanSystem::new();
        let out = sys.adjust(&AdjustmentRequest::contiguous(16, 32), &c);
        let inn = sys.adjust(&AdjustmentRequest::contiguous(32, 16), &c);
        assert!(inn.pause < out.pause);
    }

    #[test]
    fn completion_hides_init_off_critical_path() {
        // Completion includes the ~25-35s start+init wait, but pause does
        // not — the asynchronous coordination headline.
        let (topo, bw, perf) = fixtures();
        let model = zoo::resnet50();
        let c = ctx(&topo, &bw, &perf, &model);
        let cost = ElanSystem::new().adjust(&AdjustmentRequest::contiguous(16, 32), &c);
        assert!(cost.completion.as_secs_f64() > 20.0);
        assert!(cost.pause.as_secs_f64() < 2.0);
    }

    #[test]
    fn start_init_draws_are_deterministic_and_bounded() {
        let (topo, bw, perf) = fixtures();
        let model = zoo::resnet50();
        let c = ctx(&topo, &bw, &perf, &model);
        let sys = ElanSystem::new();
        let req = AdjustmentRequest::contiguous(8, 16);
        let a = sys.start_init_times(&req, &c);
        let b = sys.start_init_times(&req, &c);
        assert_eq!(a, b);
        for t in &a {
            let s = t.as_secs_f64();
            assert!((23.0..=37.0).contains(&s), "draw out of range: {s}");
        }
    }

    #[test]
    fn replication_payload_prefers_fast_links() {
        // Scaling out within one node must beat scaling out across nodes.
        let (topo, bw, perf) = fixtures();
        let model = zoo::vgg19(); // big payload amplifies the difference
        let c = ctx(&topo, &bw, &perf, &model);
        let sys = ElanSystem::new();
        let near = AdjustmentRequest::new(
            vec![elan_topology::GpuId(0)],
            vec![elan_topology::GpuId(0), elan_topology::GpuId(1)],
        )
        .unwrap();
        let far = AdjustmentRequest::new(
            vec![elan_topology::GpuId(0)],
            vec![elan_topology::GpuId(0), elan_topology::GpuId(8)],
        )
        .unwrap();
        assert!(sys.replication_time(&near, &c) < sys.replication_time(&far, &c));
    }

    #[test]
    fn runtime_overhead_below_three_permille() {
        // Fig. 14: < 3‰ for every model on 2-64 workers.
        let (topo, bw, perf) = fixtures();
        let sys = ElanSystem::new();
        for model in zoo::evaluation_models() {
            let c = ctx(&topo, &bw, &perf, &model);
            for n in [2u32, 4, 8, 16, 32, 64] {
                let o = sys.runtime_overhead(&c, n);
                assert!(o < 0.003, "{} at {n} workers: {o:.5}", model.name);
                assert!(o > 0.0);
            }
        }
    }

    #[test]
    fn overhead_shrinks_with_longer_interval() {
        let (topo, bw, perf) = fixtures();
        let model = zoo::resnet50();
        let mut c = ctx(&topo, &bw, &perf, &model);
        let sys = ElanSystem::new();
        let o10 = sys.runtime_overhead(&c, 16);
        c.coordination_interval = 100;
        let o100 = sys.runtime_overhead(&c, 16);
        assert!(o100 < o10);
    }
}
