//! Elastic DL training job scheduling (§VI-C).
//!
//! A deterministic, event-driven cluster simulator executes job traces
//! under four policies:
//!
//! - **FIFO** — strict arrival order, jobs get exactly their requested
//!   workers,
//! - **Backfill (BF)** — EASY backfilling: later jobs may start early if
//!   they do not delay the head job's reservation (Slurm's default),
//! - **Elastic-FIFO (E-FIFO)** and **Elastic-Backfill (E-BF)** — the
//!   paper's elastic policy layered on each: jobs are admitted once their
//!   `min_res` fits, then all resources are re-divided by repeatedly
//!   granting one worker to the job with the largest marginal gain,
//!   bounded by `max_res`, with the hybrid scaling mechanism adjusting
//!   each job's batch size (and the elasticity system charging each
//!   adjustment).
//!
//! [`trace`] generates the down-sampled two-day trace with diurnal load
//! fluctuation standing in for the proprietary SenseTime trace; metrics
//! (JPT, JCT, makespan, utilization) reproduce Figs. 20–22 and Fig. 1.

#![forbid(unsafe_code)]

pub mod capacity;
pub mod job;
pub mod metrics;
pub mod policy;
pub mod sim;
pub mod trace;

pub use job::{JobOutcome, JobSpec};
pub use metrics::TraceMetrics;
pub use policy::PolicyKind;
pub use sim::{run_trace, SimConfig, SimResult};
pub use trace::{generate_trace, TraceConfig};
