//! The Elan elastic training system — the paper's primary contribution.
//!
//! Elan provides elasticity (scaling in, scaling out, migration) for
//! data-parallel deep-learning training with collective communication,
//! built from three mechanisms:
//!
//! - **Hybrid scaling** ([`scaling`], §III): when resources change, choose
//!   between strong scaling (keep the total batch size) and weak scaling
//!   (grow it), picking the *minimum* batch whose strong-scaling optimum
//!   covers the new worker count, and ramping the learning rate with the
//!   progressive linear scaling rule.
//! - **Concurrent IO-free state replication** (§IV, implemented in
//!   `elan-topology` and driven from [`adjustment`]): topology-aware
//!   source selection and contention-free concurrent transfer waves.
//! - **Asynchronous coordination** (§V-B): an application master
//!   coordinates workers at iteration boundaries; new workers start and
//!   initialize in parallel with ongoing training; no existing worker
//!   ever shuts down. The one application master is the live one in
//!   `elan-rt`; this crate supplies its wire [`protocol`], [`codec`] and
//!   [`messages`], and prices the procedure analytically in
//!   [`adjustment`].
//!
//! Supporting pieces: worker identity ([`state`]), the serial data-loading
//! semantics ([`data`], §V-C), the message retry machinery backing AM
//! fault tolerance ([`messages`], §V-D), the elasticity-system abstraction
//! shared with the baselines ([`elasticity`]), and the elastic-training
//! experiment driver ([`job`], §VI-B).
//!
//! # Examples
//!
//! Hybrid scaling reproducing the paper's elastic configuration:
//!
//! ```
//! use elan_core::scaling::hybrid_scale;
//! use elan_models::{perf::PerfModel, zoo};
//!
//! let perf = PerfModel::paper_default();
//! let model = zoo::resnet50();
//! let n_opt = |tbs: u32| perf.optimal_workers(&model, tbs, 256);
//! // Scaling a 16-worker, TBS-512 job out to 32 workers doubles the batch.
//! let d = hybrid_scale(512, 16, 32, n_opt);
//! assert_eq!(d.new_total_batch, 1024);
//! assert_eq!(d.lr_factor, 2.0);
//! ```

#![forbid(unsafe_code)]
// Panic hygiene (DESIGN.md §11): no unwrap/expect/panic! outside tests. A
// panic that guards a checked invariant carries `#[expect(.., reason)]` on
// its function; `#[allow]` is denied so no exception goes unexplained.
#![cfg_attr(
    not(test),
    deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)
)]
#![deny(clippy::allow_attributes, clippy::allow_attributes_without_reason)]

pub mod adjustment;
pub mod codec;
pub mod data;
pub mod elasticity;
pub mod error;
pub mod job;
pub mod messages;
pub mod obs;
pub mod protocol;
pub mod scaling;
pub mod state;

pub use adjustment::ElanSystem;
pub use elasticity::{
    AdjustmentContext, AdjustmentCost, AdjustmentKind, AdjustmentRequest, ElasticitySystem,
};
pub use error::ElanError;
pub use obs::{
    AdjustmentPhase, Counter, Histogram, HistogramSummary, MetricsRegistry, MetricsSnapshot,
    PhaseWindow,
};
pub use scaling::{hybrid_scale, ProgressiveLrRamp, ScalingDecision, ScalingMode};
pub use state::WorkerId;
