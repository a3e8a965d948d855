//! Control-plane protocol types shared by every transport.
//!
//! The live runtime (`elan-rt`) speaks this protocol over a pluggable
//! `Transport`: the in-memory chaos bus delivers [`Envelope`]s through
//! crossbeam channels, while the socket transport frames the same
//! envelopes onto TCP or Unix-domain streams via [`crate::codec`]. The
//! types live here — below both transports — so the wire codec can
//! encode them without `elan-core` depending on the runtime.
//!
//! Nothing in this module does IO; it is pure data. Wire stability is the
//! codec's concern ([`crate::codec::encode_frame`]): adding an `RtMsg`
//! variant means adding a row with the next free tag to the codec's
//! `wire_msgs!` table, whose encoder does not compile without one.

use std::fmt;
use std::sync::Arc;

use crate::messages::{MsgId, StateKind};
use crate::state::WorkerId;

/// Identifies a bus endpoint.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum EndpointId {
    /// The application master.
    Am,
    /// A training worker.
    Worker(WorkerId),
    /// The external controller (the `ElasticRuntime` handle).
    Controller,
}

impl fmt::Display for EndpointId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EndpointId::Am => write!(f, "am"),
            EndpointId::Worker(w) => write!(f, "{w}"),
            EndpointId::Controller => write!(f, "controller"),
        }
    }
}

/// Control-plane messages of the live runtime.
#[derive(Debug, Clone)]
pub enum RtMsg {
    /// Worker → AM: ready to join after start+initialization (step ②).
    Report {
        /// The new worker.
        worker: WorkerId,
    },
    /// Worker → AM: parked at a coordination boundary (step ③), because
    /// the AM ordered a park there or the worker ran more than one
    /// interval past the last release.
    Coordinate {
        /// The parked worker.
        worker: WorkerId,
        /// Its current iteration (the boundary).
        iteration: u64,
    },
    /// AM → worker: every member reached this boundary; a worker parked
    /// there trains on. Also the skew token: a worker passes boundaries
    /// up to one interval past the highest `Proceed` it has seen. Tagged
    /// with the boundary so a chaos-delayed release cannot un-park a
    /// later round.
    Proceed {
        /// The boundary iteration being released.
        boundary: u64,
        /// The sending AM's fencing term.
        term: u64,
    },
    /// AM → worker: replicate state to `dst` (step ④), then report done.
    TransferOrder {
        /// Destination worker.
        dst: WorkerId,
        /// The sending AM's fencing term.
        term: u64,
    },
    /// Worker → AM: the ordered transfer finished.
    TransferDone {
        /// The source that completed its transfer.
        src: WorkerId,
        /// The destination it served (src == dst marks a checkpoint).
        dst: WorkerId,
    },
    /// Source worker → new worker: one chunk of the replicated training
    /// state. Replication is streamed — parameter ("GPU-state") and
    /// momentum ("CPU-state") chunks interleave on the wire so the two
    /// streams overlap per §IV, and because every chunk rides its own
    /// reliable envelope (id + ack + resend), a lossy bus retransmits
    /// only the missing chunks: the transfer is resumable per-chunk
    /// rather than all-or-nothing.
    StateChunk {
        /// Which state buffer this chunk belongs to.
        kind: StateKind,
        /// Iteration the snapshot was taken at (also the stream id — all
        /// chunks of one snapshot carry the same boundary iteration).
        iteration: u64,
        /// Serial data-loading cursor (§V-C: one integer).
        data_cursor: u64,
        /// Chunk index within this `kind`'s stream.
        index: u32,
        /// Total chunks in this `kind`'s stream.
        total: u32,
        /// Element offset of this chunk within the full buffer.
        offset: u64,
        /// The chunk payload — `Arc`-shared across destinations, so a
        /// boundary with several joiners copies the state once, not once
        /// per joiner.
        data: Arc<Vec<f32>>,
    },
    /// AM → worker: training resumes under the new membership (step ⑤).
    Resume {
        /// The new communication-group generation.
        generation: u64,
        /// The sending AM's fencing term.
        term: u64,
    },
    /// AM → worker: leave the job (scale-in / migration / shutdown).
    Leave {
        /// The sending AM's fencing term.
        term: u64,
    },
    /// Controller → AM: adjust to this membership.
    AdjustTo {
        /// Controller-side operation sequence number (idempotence across
        /// AM failovers).
        seq: u64,
        /// Workers after the adjustment.
        target: Vec<WorkerId>,
    },
    /// Controller → AM: stop the job at the next boundary.
    Stop {
        /// Operation sequence number.
        seq: u64,
    },
    /// Controller → AM: snapshot the training state at the next boundary.
    Checkpoint {
        /// Operation sequence number.
        seq: u64,
    },
    /// AM → worker: send your state to the controller (checkpoint), then
    /// report `TransferDone` with `src == dst`.
    CheckpointOrder {
        /// The checkpoint request being served.
        seq: u64,
        /// The sending AM's fencing term.
        term: u64,
    },
    /// AM → controller: operation `seq` finished.
    Ack {
        /// The completed operation.
        seq: u64,
    },
    /// Transport-level acknowledgement of one received message.
    MsgAck {
        /// The message being acknowledged.
        of: MsgId,
    },
    /// Worker → AM: liveness beacon (unreliable by design).
    Heartbeat {
        /// The beaconing worker.
        worker: WorkerId,
        /// Its current iteration.
        iteration: u64,
    },
    /// Replacement AM → everyone: a new AM epoch has begun; parked workers
    /// re-send `Coordinate`, workers blocked in an allreduce re-send their
    /// last `Passed`, joining workers re-send `Report`.
    AmReset {
        /// The new AM epoch.
        epoch: u64,
        /// The sending AM's fencing term.
        term: u64,
    },
    /// Restarted worker → AM: request re-admission after a crash,
    /// presenting the last term it observed and the boundary iteration of
    /// its last applied state (its snapshot version). The AM either admits
    /// it (re-replicating state at the next boundary) or fences it via the
    /// term in its reply traffic.
    Rejoin {
        /// The worker asking back in.
        worker: WorkerId,
        /// Highest AM term the worker saw before crashing.
        term: u64,
        /// Boundary iteration of its last applied snapshot/state.
        iteration: u64,
    },
    /// Open joiner → AM: ask to enter the job at the next epoch boundary.
    /// Sent without a digest while announcing (re-sent every heartbeat
    /// period until acknowledged by replication), and re-sent *with* the
    /// warmup digest once the joiner has applied its streamed snapshot —
    /// the digest is the joiner's claimed checksum over the replicated
    /// state, which the witness step asks peers to recompute.
    JoinRequest {
        /// The worker asking to join.
        worker: WorkerId,
        /// The training epoch the joiner last observed (0 if none).
        epoch: u64,
        /// Claimed warmup checksum; `None` while merely announcing.
        digest: Option<u64>,
    },
    /// AM → everyone: the epoch machine moved. Broadcast at every phase
    /// transition so members and pending joiners track the training epoch
    /// without polling.
    EpochAdvance {
        /// The training epoch the machine is now in.
        epoch: u64,
        /// The phase just entered.
        phase: EpochPhase,
        /// The sending AM's fencing term.
        term: u64,
    },
    /// AM → sampled member: recompute your state checksum and vote on
    /// `subject`'s admission. The probe is the joiner's claimed warmup
    /// digest; an honest replica parked at the same boundary holds
    /// identical state and reproduces it exactly.
    WitnessQuery {
        /// The joiner under audit.
        subject: WorkerId,
        /// The training epoch of the admission.
        epoch: u64,
        /// The joiner's claimed warmup digest.
        probe: u64,
        /// The sending AM's fencing term.
        term: u64,
    },
    /// Witness member → AM: the admit/evict verdict for one subject,
    /// carrying the witness's own recomputed digest for the journal.
    WitnessVote {
        /// The voting member.
        witness: WorkerId,
        /// The joiner under audit.
        subject: WorkerId,
        /// The training epoch of the admission.
        epoch: u64,
        /// True when the recomputed digest matched the probe.
        admit: bool,
        /// The witness's recomputed digest.
        digest: u64,
    },
    /// AM → worker: park at `boundary` — the next boundary after the
    /// highest any member has reached — because work waits on every
    /// member parking at one boundary. A worker already parked short of
    /// `boundary` takes it as its release: it trains on and parks there.
    Park {
        /// The boundary iteration to park at.
        boundary: u64,
        /// The sending AM's fencing term.
        term: u64,
    },
    /// Worker → AM: passed a coordination boundary without parking (no
    /// park ordered there, and within one interval of the last release).
    Passed {
        /// The reporting worker.
        worker: WorkerId,
        /// The boundary iteration it passed.
        boundary: u64,
    },
}

/// The phases of the open-membership epoch machine (DESIGN.md §17),
/// ticked by the AM on the shared `TimeSource`:
/// `WaitingForMembers → Warmup → Train → Cooldown → WaitingForMembers`
/// (the last transition rolls the epoch counter).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum EpochPhase {
    /// The join window is open; pending members accumulate until the
    /// min-member threshold is met and the window elapses.
    WaitingForMembers,
    /// Admitted joiners replicate state over the chunked transfer path
    /// and the witness step audits their warmup digests.
    Warmup,
    /// Members train; membership is frozen within min/max bounds.
    Train,
    /// The epoch settles: departures are processed, shards re-assigned,
    /// and the next epoch's join window opens.
    Cooldown,
}

impl fmt::Display for EpochPhase {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EpochPhase::WaitingForMembers => write!(f, "waiting_for_members"),
            EpochPhase::Warmup => write!(f, "warmup"),
            EpochPhase::Train => write!(f, "train"),
            EpochPhase::Cooldown => write!(f, "cooldown"),
        }
    }
}

/// One message in flight on the bus: the body plus the reliable-messaging
/// metadata every send carries.
#[derive(Debug, Clone)]
pub struct Envelope {
    /// Unique message id (stable across resends).
    pub id: MsgId,
    /// The sending endpoint.
    pub from: EndpointId,
    /// Send attempt, starting at 1; resends increment it so fault
    /// injection rolls fresh dice.
    pub attempt: u32,
    /// The payload.
    pub body: RtMsg,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn endpoint_ids_display_and_order() {
        assert_eq!(EndpointId::Am.to_string(), "am");
        assert_eq!(EndpointId::Controller.to_string(), "controller");
        assert_eq!(EndpointId::Worker(WorkerId(3)).to_string(), "w3");
        let mut v = [
            EndpointId::Controller,
            EndpointId::Worker(WorkerId(0)),
            EndpointId::Am,
        ];
        v.sort();
        assert_eq!(v[0], EndpointId::Am);
    }
}
