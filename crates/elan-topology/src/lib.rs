//! Cluster/device topology model and the concurrent IO-free replication
//! planner from §IV of the Elan paper.
//!
//! A training cluster is modelled as nodes → CPU sockets → PCIe switches →
//! GPUs, with one NIC per node. The link between any two GPUs is classified
//! into the paper's four levels:
//!
//! - **L1** — traverses only PCIe switches (same switch): `P2P` capable,
//! - **L2** — traverses a PCIe host bridge (same socket): `SHM`,
//! - **L3** — traverses a socket-level link such as QPI (same node): `SHM`,
//! - **L4** — traverses the network: `NET`.
//!
//! [`ReplicationPlanner`] chooses, for every newly added worker, the nearest
//! existing worker as its replication source (P2P > SHM > NET), runs
//! non-contending transfers concurrently, and serializes transfers that
//! would contend on a socket link or a NIC — exactly the policy of §IV-3.
//!
//! # Examples
//!
//! ```
//! use elan_topology::{BandwidthModel, ClusterSpec, GpuId, ReplicationPlanner};
//! use elan_sim::Bytes;
//!
//! // 2 nodes x 2 sockets x 2 switches x 2 GPUs = 8 GPUs per node.
//! let topo = ClusterSpec::new(2, 2, 2, 2).build();
//! let existing = vec![GpuId(0), GpuId(1)];
//! let joining = vec![GpuId(2), GpuId(3)];
//! let plan = ReplicationPlanner::new(&topo).plan(&existing, &joining)?;
//! assert_eq!(plan.transfers().len(), 2);
//! let d = plan.duration(
//!     &BandwidthModel::paper_default(),
//!     Bytes::from_mib(100),
//!     Bytes::from_kib(4),
//! );
//! assert!(d.as_secs_f64() > 0.0);
//! # Ok::<(), elan_topology::PlanError>(())
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

pub mod bandwidth;
pub mod cluster;
pub mod link;
pub mod placement;
pub mod planner;
pub mod tree;

pub use bandwidth::BandwidthModel;
pub use cluster::{ClusterSpec, GpuId, GpuLocation, NodeId, Topology};
pub use link::{LinkLevel, Transport};
pub use placement::{Placement, SocketDomain};
pub use planner::{PlanError, ReplicationPlan, ReplicationPlanner, Transfer};
pub use tree::{TopologyTree, TreeNode};
