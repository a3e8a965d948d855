//! The large-world path: two-level, topology-aware reduction.
//!
//! A single shared chunk cursor treats a 16-worker round on a two-node
//! cluster exactly like 16 threads on one socket: every claim bounces the
//! cursor cache line across sockets (and, in the real deployment, the
//! interconnect), which is where the measured world 8 → 16 speedup
//! collapse came from. This path instead consults a [`CommTopology`] and
//! splits the round **by elements, not by arithmetic**:
//!
//! 1. Contributors are partitioned into groups by the node/socket
//!    locality domain of their placed GPU ([`SocketDomain`]).
//! 2. The element space `[0, len)` is sharded into one contiguous
//!    [`Span`] per group, sized proportionally to the group's member
//!    count, each with its own chunk plan and claim cursor. (A chunked
//!    round is the same plan with one member-less span.)
//! 3. Every helper drains its **own group's** cursor first — intra-group,
//!    cache-blocked work with zero cross-socket cursor traffic. Each
//!    group's min-id member is its elected *leader*: once its group's
//!    span drains, a leader moves on to steal from the other groups'
//!    cursors (the leaders run the work-stealing tail among themselves),
//!    while non-leaders go back to waiting. The helper that completes the
//!    final chunk publishes the result, and the round-completion
//!    broadcast (condvar + virtual-time wake) releases every parked
//!    member — the "broadcast down" of the two-level scheme.
//!
//! Crucially, **every chunk still reduces all `world` contributions** in
//! ascending worker-id order over its span — only the *ownership* of
//! elements is hierarchical, never the arithmetic. A classic two-level
//! scheme (per-group partial sums combined across groups) would change
//! the f32 addition order: `(a+b)+(c+d)` is not `((a+b)+c)+d`, so it
//! could never be bit-identical to [`super::reference_sum`]. Element
//! sharding gives the same cross-socket contention win — each socket's
//! threads hammer only their own cursor and write only their own span of
//! the accumulator — while keeping the reduction bit-deterministic.
//!
//! Group plans are **rebuilt at every round publish** from the
//! contributors actually present, so adjustments and mid-round evictions
//! re-plan automatically; there is no cached plan to invalidate.

use std::collections::BTreeMap;

use elan_core::state::WorkerId;
use elan_topology::{ClusterSpec, Placement, SocketDomain};

use super::chunked::{Span, DEFAULT_CHUNK_ELEMS};

/// Worker → cluster-position map consumed by the hierarchical path.
///
/// Wraps an [`elan_topology`] [`Placement`] (worker id = rank) and
/// answers the only question the data plane asks: which node/socket
/// locality domain does a worker live in? The runtime uses
/// [`CommTopology::default`]; a bare group takes any topology through
/// [`CommGroup::with_tuning`](super::CommGroup::with_tuning).
#[derive(Debug, Clone)]
pub struct CommTopology {
    placement: Placement,
}

/// Planning-default cluster shape: nodes of 2 sockets × 2 switches × 2
/// GPUs (8 GPUs per node, 4 per socket), big enough that any realistic
/// elastic world fits without wrapping.
const PLANNING_NODES: u32 = 64;
const PLANNING_SOCKETS: u32 = 2;
const PLANNING_SWITCHES: u32 = 2;
const PLANNING_GPUS: u32 = 2;

impl CommTopology {
    /// A topology from an explicit rank placement.
    pub fn new(placement: Placement) -> Self {
        CommTopology { placement }
    }

    /// The planning-default topology: workers laid out linearly over the
    /// same 64-node cluster shape the replication planner assumes
    /// (8 GPUs per node, 4 per socket), so worker `w` lives on
    /// `GpuId(w)`.
    pub(crate) fn planning_default() -> Self {
        CommTopology {
            placement: Placement::linear(
                ClusterSpec::new(
                    PLANNING_NODES,
                    PLANNING_SOCKETS,
                    PLANNING_SWITCHES,
                    PLANNING_GPUS,
                )
                .build(),
            ),
        }
    }

    /// The locality domain hosting `worker`.
    pub fn domain_of(&self, worker: WorkerId) -> SocketDomain {
        self.placement.domain_of(worker.0)
    }
}

impl Default for CommTopology {
    fn default() -> Self {
        Self::planning_default()
    }
}

/// Number of distinct locality domains across `workers` — the dispatch
/// predicate for the hierarchical path (needs at least two).
pub(super) fn domain_count(
    topo: &CommTopology,
    workers: impl IntoIterator<Item = WorkerId>,
) -> usize {
    workers
        .into_iter()
        .map(|w| topo.domain_of(w))
        .collect::<std::collections::BTreeSet<_>>()
        .len()
}

/// Plans a hierarchical round into `spans` (replacing its contents):
/// partitions `workers` (ascending, non-empty) by locality domain, then
/// shards `[0, len)` into one contiguous span per group, proportional to
/// group size and drained first by the group's members. Groups whose span
/// rounds to zero elements are dropped (their members sweep as span-less
/// helpers); the spans are ordered by domain, ascending and disjoint,
/// covering `[0, len)` exactly.
pub(super) fn plan_groups(
    topo: &CommTopology,
    workers: impl IntoIterator<Item = WorkerId>,
    len: usize,
    spans: &mut Vec<Span>,
) {
    let mut domains: BTreeMap<SocketDomain, Vec<WorkerId>> = BTreeMap::new();
    for w in workers {
        domains.entry(topo.domain_of(w)).or_default().push(w);
    }
    let total: usize = domains.values().map(Vec::len).sum();
    debug_assert!(total > 0);
    spans.clear();
    let mut seen = 0usize;
    for (_, members) in domains {
        let start = len * seen / total;
        seen += members.len();
        let end = len * seen / total;
        if start == end {
            continue;
        }
        // L1-sized tiles, not the world-coupled formula: the private
        // per-group cursor already bounds claim traffic to the group's
        // members, so the hierarchical path keeps the cache-blocking win
        // of small chunks without the shared-cursor cost that forced the
        // chunked path onto `adaptive_chunk_elems`.
        spans.push(Span::new(members, start, end - start, DEFAULT_CHUNK_ELEMS));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_topo() -> CommTopology {
        // 4 GPUs per socket, 8 per node.
        CommTopology::new(Placement::linear(ClusterSpec::new(4, 2, 2, 2).build()))
    }

    fn plan(topo: &CommTopology, workers: &[WorkerId], len: usize) -> Vec<Span> {
        let mut spans = Vec::new();
        plan_groups(topo, workers.iter().copied(), len, &mut spans);
        spans
    }

    #[test]
    fn groups_follow_socket_domains() {
        let topo = small_topo();
        let workers: Vec<WorkerId> = (0..10).map(WorkerId).collect();
        // Ranks 0-3 → (node0, socket0), 4-7 → (node0, socket1),
        // 8-9 → (node1, socket0).
        assert_eq!(domain_count(&topo, workers.iter().copied()), 3);
        let groups = plan(&topo, &workers, 100_000);
        assert_eq!(groups.len(), 3);
        assert_eq!(groups[0].leader(), Some(WorkerId(0)));
        assert_eq!(groups[1].leader(), Some(WorkerId(4)));
        assert_eq!(groups[2].leader(), Some(WorkerId(8)));
        assert!(groups[0].has_member(WorkerId(3)));
        assert!(!groups[0].has_member(WorkerId(4)));
    }

    #[test]
    fn spans_are_contiguous_proportional_and_exhaustive() {
        let topo = small_topo();
        let workers: Vec<WorkerId> = (0..10).map(WorkerId).collect();
        let len = 100_001; // deliberately not divisible
        let groups = plan(&topo, &workers, len);
        let mut cursor = 0usize;
        for g in &groups {
            assert_eq!(g.range().start, cursor, "spans must be contiguous");
            cursor = g.range().end;
        }
        assert_eq!(cursor, len, "spans must cover the vector exactly");
        // 4-member groups get twice the span of the 2-member group (±1).
        let s0 = groups[0].range().len();
        let s2 = groups[2].range().len();
        assert!(s0 >= 2 * s2 - 2 && s0 <= 2 * s2 + 2, "{s0} vs {s2}");
    }

    #[test]
    fn tiny_vectors_collapse_to_fewer_groups() {
        let topo = small_topo();
        let workers: Vec<WorkerId> = (0..10).map(WorkerId).collect();
        // One element: only one group can own a non-empty span.
        let groups = plan(&topo, &workers, 1);
        assert_eq!(groups.len(), 1);
        assert_eq!(groups[0].range(), 0..1);
    }

    #[test]
    fn planning_default_matches_the_replication_planner_shape() {
        let topo = CommTopology::planning_default();
        // 8 GPUs per node, 4 per socket: workers 0 and 3 share a domain,
        // 0 and 4 do not, 8 starts the second node.
        assert_eq!(topo.domain_of(WorkerId(0)), topo.domain_of(WorkerId(3)));
        assert_ne!(topo.domain_of(WorkerId(0)), topo.domain_of(WorkerId(4)));
        assert_ne!(
            topo.domain_of(WorkerId(7)).node,
            topo.domain_of(WorkerId(8)).node
        );
    }
}
