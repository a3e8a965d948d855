//! Deep-learning workload, performance, and convergence models.
//!
//! The paper's evaluation runs on a production GPU cluster we do not have;
//! this crate substitutes an analytic model calibrated to the paper's
//! testbed (GeForce 1080Ti servers, 56 Gb/s InfiniBand, PyTorch 1.3):
//!
//! - [`zoo`] — the model zoo of Table I plus ResNet-50,
//! - [`gpu`] — GPU specifications with a batch-dependent efficiency curve,
//! - [`interconnect`] — ring-allreduce cost model over the cluster fabric,
//! - [`perf`] — per-iteration time and throughput; strong/weak scaling and
//!   the "optimal number of workers" search used by hybrid scaling (§III),
//! - [`convergence`] — accuracy as a function of total batch size and the
//!   learning-rate rule (Figs. 5 and 18), plus epoch-wise accuracy curves,
//! - [`schedule`] — batch-size schedules (AdaBatch) and LR schedules.
//!
//! # Examples
//!
//! ```
//! use elan_models::{perf::PerfModel, zoo};
//!
//! let perf = PerfModel::paper_default();
//! let resnet = zoo::resnet50();
//! // Strong scaling: the optimum worker count grows with the batch size.
//! let n512 = perf.optimal_workers(&resnet, 512, 128);
//! let n2048 = perf.optimal_workers(&resnet, 2048, 128);
//! assert!(n512 < n2048);
//! ```

#![forbid(unsafe_code)]

pub mod convergence;
pub mod gpu;
pub mod interconnect;
pub mod perf;
pub mod schedule;
pub mod zoo;

pub use convergence::{AccuracyModel, ScalingRule};
pub use gpu::GpuSpec;
pub use interconnect::InterconnectModel;
pub use perf::PerfModel;
pub use schedule::{BatchSchedule, LrSchedule};
pub use zoo::{ModelKind, ModelSpec};
