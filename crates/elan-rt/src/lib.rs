//! A live, multi-threaded runtime speaking the Elan coordination protocol.
//!
//! It runs the protocol on *real* concurrency (or, under
//! [`TimeSource::virtual_seeded`], on a deterministic virtual-time
//! schedule of the same threads): worker threads train a synthetic
//! data-parallel workload with a genuine allreduce ([`comm::CommGroup`]),
//! an application-master thread serves reports and coordinations over a
//! channel [`bus`], and resource adjustments replicate real state buffers
//! between threads along the topology planner's source selection — all
//! without ever stopping the existing workers outside the adjustment
//! pause.
//!
//! Everything the runtime does is observable: a structured
//! [`EventJournal`](obs::EventJournal) records bus faults, replication
//! waves, allreduce rounds, and the adjustment pipeline itself, while a
//! trace recorder spans each adjustment's five phases (request → report →
//! coordinate → replicate → adjust) for the latency breakdown of
//! [`ElasticRuntime::trace_report`].
//!
//! # Examples
//!
//! ```
//! use elan_rt::ElasticRuntime;
//!
//! let mut rt = ElasticRuntime::builder().workers(2).start().unwrap();
//! rt.run_until_iteration(20);
//! rt.scale_out(2);           // two workers join without a restart
//! rt.run_until_iteration(40);
//! let report = rt.shutdown();
//! assert_eq!(report.final_world_size, 4);
//! assert!(report.states_consistent());
//! assert!(report.traces.iter().all(|t| t.is_well_formed()));
//! println!("{}", report.trace_report());
//! ```

// Panic hygiene (DESIGN.md §11): runtime code must not unwrap/expect
// outside tests. Every exception carries a per-function `#[allow]` whose
// justification lives in the workspace-root `verify-allow.toml`, and
// `elan-verify` re-checks the same sites structurally in CI.
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

mod am;
pub mod bus;
pub mod chaos;
pub mod comm;
pub mod epoch;
pub mod liveness;
pub mod obs;
pub mod reliable;
pub mod remote;
pub mod runtime;
pub mod safety;
pub mod time;
pub mod transport;
pub mod worker;

pub use bus::{Bus, Endpoint, EndpointId, Envelope, RtMsg};
pub use chaos::ChaosPolicy;
pub use comm::{
    reference_sum, AllreduceOutcome, CommGroup, CommTopology, ReducePath, TuningProfile,
};
pub use epoch::{run_churn, shard_checksum, ChurnConfig, EpochConfig};
pub use liveness::CrashPoint;
pub use obs::{
    render_trace_report, AdjustmentTrace, Event, EventKind, EventSink, JournalSummary,
    RingBufferSink, TraceKind,
};
pub use reliable::RtMetricsSnapshot;
pub use remote::{run_remote_worker, RemoteRole};
pub use runtime::{
    CheckpointSnapshot, ElasticRuntime, RuntimeBuilder, RuntimeConfig, ShutdownReport,
};
pub use safety::audit;
pub use time::TimeSource;
pub use transport::{MemoryTransport, SocketTransport, Transport};
