//! Deterministic virtual-time substrate for the Elan reproduction.
//!
//! Every analytic experiment in this repository is priced on virtual time
//! so that results are exactly reproducible across machines and runs (the
//! live runtime in `elan-rt` has its own seeded virtual clock, which counts
//! in these same units). The crate provides:
//!
//! - [`SimTime`] / [`SimDuration`]: integer-nanosecond virtual clock types,
//! - [`SeedStream`]: deterministic derivation of per-component RNG seeds,
//! - [`metrics`]: time series, summary statistics, and histograms used to
//!   produce the paper's figures,
//! - [`units`]: byte/bandwidth quantities with human-readable formatting.
//!
//! # Examples
//!
//! ```
//! use elan_sim::{Bandwidth, Bytes, SimDuration, SimTime};
//!
//! // 200 MiB over a 10 GB/s link takes ~21 ms of virtual time.
//! let transfer = Bandwidth::from_gbytes_per_sec(10.0).transfer_time(Bytes::from_mib(200));
//! let done = SimTime::ZERO + transfer;
//! assert!(transfer > SimDuration::from_millis(20));
//! assert!(done < SimTime::ZERO + SimDuration::from_millis(22));
//! ```

pub mod metrics;
pub mod rng;
pub mod time;
pub mod units;

pub use metrics::{Histogram, Series, Summary};
pub use rng::SeedStream;
pub use time::{SimDuration, SimTime};
pub use units::{Bandwidth, Bytes};
