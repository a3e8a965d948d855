//! # Elan — elastic deep-learning training, reproduced in Rust
//!
//! This facade crate re-exports the whole reproduction of *"Elan: Towards
//! Generic and Efficient Elastic Training for Deep Learning"* (ICDCS 2020):
//!
//! - [`sim`] — deterministic virtual-time, RNG and metrics substrate of the
//!   analytic experiments,
//! - [`topology`] — cluster model and the concurrent IO-free replication
//!   planner (§IV),
//! - [`models`] — DL workload, performance, and convergence models (§III),
//! - [`core`] — the Elan system's shared pieces: hybrid scaling, serial
//!   data loading, the replicated store, control-plane messages and codec,
//!   and the analytic pricing of adjustments (§III–§V),
//! - [`rt`] — the live runtime and its application master (§V-B, §V-D):
//!   worker threads or processes, state replication, AM failover, on the
//!   real clock or a seeded virtual one,
//! - [`baselines`] — Shutdown-&-Restart and Litz-style baselines (§VI),
//! - [`sched`] — elastic job scheduling simulation (§VI-C).
//!
//! The most common entry points are re-exported at the root: build a live
//! job with [`ElasticRuntime::builder`], observe it through [`EventSink`]s
//! and the [`MetricsRegistry`], and handle every failure as one
//! [`ElanError`].
//!
//! # Examples
//!
//! ```
//! use elan::topology::{ClusterSpec, GpuId, ReplicationPlanner};
//!
//! let topo = ClusterSpec::paper_testbed().build();
//! let plan = ReplicationPlanner::new(&topo).plan(&[GpuId(0)], &[GpuId(1)])?;
//! assert_eq!(plan.transfers().len(), 1);
//! # Ok::<(), elan::topology::PlanError>(())
//! ```
//!
//! Launching a live elastic job through the facade:
//!
//! ```
//! let mut rt = elan::ElasticRuntime::builder().workers(2).start()?;
//! rt.run_until_iteration(10);
//! let report = rt.shutdown();
//! assert!(report.states_consistent());
//! # Ok::<(), elan::ElanError>(())
//! ```

#![forbid(unsafe_code)]

pub use elan_baselines as baselines;
pub use elan_core as core;
pub use elan_models as models;
pub use elan_rt as rt;
pub use elan_sched as sched;
pub use elan_sim as sim;
pub use elan_topology as topology;

pub use elan_core::codec::{DecodeError, WireFrame};
pub use elan_core::obs::{MetricsRegistry, MetricsSnapshot};
pub use elan_core::ElanError;
pub use elan_rt::{
    render_trace_report, run_remote_worker, AdjustmentTrace, CommTopology, ElasticRuntime, Event,
    EventKind, EventSink, JournalSummary, MemoryTransport, ReducePath, RemoteRole, RingBufferSink,
    RuntimeBuilder, RuntimeConfig, ShutdownReport, SocketTransport, Transport, TuningProfile,
};
