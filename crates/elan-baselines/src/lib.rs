//! Baseline elastic-training systems for the §VI comparisons.
//!
//! - [`snr`] — **Shutdown-&-Restart**, the common practice of Gandiva and
//!   Optimus: checkpoint all training states to the parallel filesystem,
//!   shut every worker down, restart with the new resource configuration,
//!   and load the checkpoint. The shutdown/restart of *existing* workers
//!   sits on the critical path, so S&R cannot benefit from asynchronous
//!   new-worker start (except for migration, where existing workers are
//!   discarded anyway).
//! - [`litz`] — a **Litz-style** programming-model system: several
//!   executors share each GPU worker and context-switch between micro-
//!   batches, with local gradient aggregation. Context switches move GPU
//!   state to CPU memory and back, devastating throughput for models with
//!   large parameter tensors (Fig. 16).
//!
//! Both implement [`ElasticitySystem`], so every experiment compares the
//! same quantities under the same workload models.

#![forbid(unsafe_code)]

pub mod litz;
pub mod snr;

pub use litz::Litz;
pub use snr::ShutdownRestart;

// Re-exported for convenience in benches and tests.
pub use elan_core::elasticity::ElasticitySystem;
