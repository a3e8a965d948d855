//! The hybrid scaling mechanism (§III-3, Algorithm 1).
//!
//! Strong scaling (fixed total batch) is algorithm-transparent but has
//! diminishing throughput gains; weak scaling (fixed per-worker batch) has
//! constant marginal gains but risks accuracy. Hybrid scaling finds the
//! *minimum* total batch size whose strong-scaling optimum worker count
//! covers the new allocation, doubling the batch only when necessary, and
//! pairs every batch increase with a *progressive linear scaling* of the
//! learning rate (Equations 2–3).

use std::fmt;

/// How an adjustment changed the batch size.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ScalingMode {
    /// Total batch size unchanged — algorithm-transparent.
    Strong,
    /// Total batch size multiplied by the contained factor.
    Weak {
        /// The batch scaling factor `k` (> 1).
        factor: f64,
    },
}

impl fmt::Display for ScalingMode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ScalingMode::Strong => write!(f, "strong"),
            ScalingMode::Weak { factor } => write!(f, "weak(x{factor})"),
        }
    }
}

/// The output of the hybrid scaling decision.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ScalingDecision {
    /// Total batch size after the adjustment.
    pub new_total_batch: u32,
    /// Multiplier to apply to the learning rate (the `k` of Equation 2).
    pub lr_factor: f64,
    /// Which regime the decision landed in.
    pub mode: ScalingMode,
}

/// Algorithm 1, `GETTOTALBATCHSIZE`: picks the total batch size for an
/// adjustment from `n_before` to `n_after` workers.
///
/// `n_opt(tbs)` must return the optimal worker count under strong scaling
/// with total batch `tbs` (see `PerfModel::optimal_workers` in
/// `elan-models`).
///
/// Behaviour:
/// - tries strong scaling first (`k = 1`);
/// - otherwise doubles the batch (`k *= 2`) until the strong-scaling
///   optimum covers `n_after`, stopping at `k ≤ n_after / n_before`;
/// - if every trial fails, falls back to plain weak scaling with
///   `k = n_after / n_before`.
/// - scaling **in** (or unchanged size) keeps the batch — strong scaling
///   is always sufficient when removing workers.
///
/// # Panics
///
/// Panics if any worker count or the batch size is zero.
///
/// # Examples
///
/// ```
/// use elan_core::scaling::hybrid_scale;
///
/// // With an optimum of ~2 workers per 64 batch elements:
/// let n_opt = |tbs: u32| (tbs / 64).max(1);
/// // 4 -> 8 workers at TBS 256: N_opt(256)=4 < 8, N_opt(512)=8 >= 8.
/// let d = hybrid_scale(256, 4, 8, n_opt);
/// assert_eq!(d.new_total_batch, 512);
/// ```
#[expect(
    clippy::expect_used,
    reason = "checked_mul overflow guards: batch sizes near u64::MAX are unrepresentable training configs; panicking beats silently wrapping the global batch size."
)]
pub fn hybrid_scale(
    total_batch: u32,
    n_before: u32,
    n_after: u32,
    mut n_opt: impl FnMut(u32) -> u32,
) -> ScalingDecision {
    assert!(total_batch > 0, "batch size must be positive");
    assert!(
        n_before > 0 && n_after > 0,
        "worker counts must be positive"
    );

    // Scaling in (or no change): strong scaling never under-utilizes fewer
    // workers, so the batch stays put.
    if n_after <= n_before {
        return ScalingDecision {
            new_total_batch: total_batch,
            lr_factor: 1.0,
            mode: ScalingMode::Strong,
        };
    }

    let ratio = n_after as f64 / n_before as f64;
    let mut k = 1u32;
    while (k as f64) <= ratio {
        let candidate = total_batch
            .checked_mul(k)
            .expect("batch size overflow while scaling");
        if n_opt(candidate) >= n_after {
            return ScalingDecision {
                new_total_batch: candidate,
                lr_factor: k as f64,
                mode: if k == 1 {
                    ScalingMode::Strong
                } else {
                    ScalingMode::Weak { factor: k as f64 }
                },
            };
        }
        k = k.checked_mul(2).expect("scaling factor overflow");
    }

    // All trials failed: plain weak scaling by the resource ratio.
    let new_total_batch = ((total_batch as f64) * ratio).round() as u32;
    ScalingDecision {
        new_total_batch,
        lr_factor: ratio,
        mode: ScalingMode::Weak { factor: ratio },
    }
}

/// The progressive linear scaling rule (Equations 2–3): ramps the learning
/// rate linearly from `lr0` to `lr0 * k` over `ramp_iters` iterations
/// starting at iteration `t0`, avoiding the divergence a sharp change can
/// cause.
///
/// # Examples
///
/// ```
/// use elan_core::scaling::ProgressiveLrRamp;
///
/// let ramp = ProgressiveLrRamp::new(0.1, 2.0, 1000, 100);
/// assert_eq!(ramp.lr_at(1000), 0.1);        // start
/// assert!((ramp.lr_at(1050) - 0.15).abs() < 1e-12); // halfway
/// assert_eq!(ramp.lr_at(1100), 0.2);        // target reached
/// assert_eq!(ramp.lr_at(99_999), 0.2);      // stays at target
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ProgressiveLrRamp {
    lr0: f64,
    lr_target: f64,
    t0: u64,
    ramp_iters: u32,
}

impl ProgressiveLrRamp {
    /// Creates a ramp from `lr0` to `lr0 * k` over `ramp_iters` iterations
    /// beginning at iteration `t0`.
    ///
    /// # Panics
    ///
    /// Panics if `lr0` or `k` is not positive, or `ramp_iters` is zero.
    pub fn new(lr0: f64, k: f64, t0: u64, ramp_iters: u32) -> Self {
        assert!(lr0 > 0.0, "learning rate must be positive");
        assert!(k > 0.0, "scale factor must be positive");
        assert!(ramp_iters > 0, "ramp needs at least one iteration");
        ProgressiveLrRamp {
            lr0,
            lr_target: lr0 * k,
            t0,
            ramp_iters,
        }
    }

    /// The learning rate at iteration `t` (Equation 3).
    ///
    /// Before `t0` the rate is `lr0`; between `t0` and `t0 + ramp_iters`
    /// it interpolates linearly; afterwards it is the target.
    pub fn lr_at(&self, t: u64) -> f64 {
        if t <= self.t0 {
            return self.lr0;
        }
        let progress = (t - self.t0) as f64 / self.ramp_iters as f64;
        if progress >= 1.0 {
            self.lr_target
        } else {
            self.lr0 + progress * (self.lr_target - self.lr0)
        }
    }

    /// The target learning rate (Equation 2).
    pub fn target(&self) -> f64 {
        self.lr_target
    }

    /// Chains a new adjustment onto this ramp: the next ramp starts from
    /// whatever rate is in effect at `t0_next`.
    pub fn then(&self, k: f64, t0_next: u64, ramp_iters: u32) -> ProgressiveLrRamp {
        ProgressiveLrRamp::new(self.lr_at(t0_next), k, t0_next, ramp_iters)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A synthetic optimum: roughly one worker per 32 batch elements.
    fn toy_n_opt(tbs: u32) -> u32 {
        (tbs / 32).max(1)
    }

    #[test]
    fn strong_scaling_when_optimum_covers_target() {
        // N_opt(512) = 16 >= 8 target: keep the batch.
        let d = hybrid_scale(512, 4, 8, toy_n_opt);
        assert_eq!(d.new_total_batch, 512);
        assert_eq!(d.mode, ScalingMode::Strong);
        assert_eq!(d.lr_factor, 1.0);
    }

    #[test]
    fn doubles_until_optimum_reached() {
        // N_opt(128)=4 < 16, N_opt(256)=8 < 16, N_opt(512)=16 >= 16.
        let d = hybrid_scale(128, 4, 16, toy_n_opt);
        assert_eq!(d.new_total_batch, 512);
        assert_eq!(d.mode, ScalingMode::Weak { factor: 4.0 });
        assert_eq!(d.lr_factor, 4.0);
    }

    #[test]
    fn minimum_sufficient_batch_is_chosen() {
        // N_opt(256)=8 >= 8: one doubling suffices, not two.
        let d = hybrid_scale(128, 4, 8, toy_n_opt);
        assert_eq!(d.new_total_batch, 256);
        assert_eq!(d.lr_factor, 2.0);
    }

    #[test]
    fn falls_back_to_resource_ratio() {
        // An optimum that never covers the target: k caps at N'/N.
        let d = hybrid_scale(128, 4, 16, |_| 1);
        assert_eq!(d.new_total_batch, 512);
        assert_eq!(d.mode, ScalingMode::Weak { factor: 4.0 });
    }

    #[test]
    fn fractional_ratio_fallback_rounds() {
        // 4 -> 6 workers, optimum never satisfied: k = 1.5.
        let d = hybrid_scale(128, 4, 6, |_| 1);
        assert_eq!(d.new_total_batch, 192);
        assert!((d.lr_factor - 1.5).abs() < 1e-12);
    }

    #[test]
    fn scale_in_keeps_batch() {
        let d = hybrid_scale(512, 16, 8, toy_n_opt);
        assert_eq!(d.new_total_batch, 512);
        assert_eq!(d.mode, ScalingMode::Strong);
    }

    #[test]
    fn paper_elastic_configuration() {
        // With the calibrated ResNet-50 performance model, Algorithm 1
        // reproduces the paper's §VI-B configuration: 16→32 workers doubles
        // 512→1024; 32→64 doubles 1024→2048.
        use elan_models::{perf::PerfModel, zoo};
        let perf = PerfModel::paper_default();
        let model = zoo::resnet50();
        let n_opt = |tbs: u32| perf.optimal_workers(&model, tbs, 256);
        let d1 = hybrid_scale(512, 16, 32, n_opt);
        assert_eq!(d1.new_total_batch, 1024);
        let d2 = hybrid_scale(1024, 32, 64, n_opt);
        assert_eq!(d2.new_total_batch, 2048);
    }

    #[test]
    fn ramp_is_monotone_and_bounded() {
        let ramp = ProgressiveLrRamp::new(0.1, 4.0, 0, 100);
        let mut prev = 0.0;
        for t in 0..=200 {
            let lr = ramp.lr_at(t);
            assert!(lr >= prev);
            assert!(lr <= ramp.target() + 1e-12);
            prev = lr;
        }
        assert_eq!(ramp.lr_at(100), 0.4);
    }

    #[test]
    fn unit_factor_ramp_is_flat() {
        let ramp = ProgressiveLrRamp::new(0.25, 1.0, 50, 1);
        assert_eq!(ramp.lr_at(0), 0.25);
        assert_eq!(ramp.lr_at(1_000_000), 0.25);
    }

    #[test]
    fn chained_ramps_compose() {
        // Double at t=0 over 100 iters, then double again at t=150.
        let r1 = ProgressiveLrRamp::new(0.1, 2.0, 0, 100);
        let r2 = r1.then(2.0, 150, 100);
        assert_eq!(r2.lr_at(150), 0.2);
        assert_eq!(r2.lr_at(250), 0.4);
        // Chaining mid-ramp starts from the interpolated value.
        let r3 = r1.then(2.0, 50, 100);
        assert!((r3.lr_at(50) - 0.15).abs() < 1e-12);
        assert!((r3.target() - 0.3).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "worker counts must be positive")]
    fn zero_workers_rejected() {
        let _ = hybrid_scale(128, 0, 4, toy_n_opt);
    }
}
