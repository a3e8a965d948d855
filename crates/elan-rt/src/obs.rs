//! Observability for the live runtime: the structured event journal, the
//! adjustment-latency tracer, and the metrics registry wiring (§VI).
//!
//! The paper's evaluation hinges on attributing elastic overhead to the
//! phases of the 5-step adjustment pipeline (§V-B: request → report →
//! coordinate → replicate → adjust) and to the replication waves of §IV.
//! This module is that instrumentation spine:
//!
//! - every interesting runtime action emits a structured [`Event`] into an
//!   [`EventJournal`] (a bounded [`RingBufferSink`] plus optional extra
//!   [`EventSink`]s),
//! - the in-flight adjustment is traced span-style by [`Obs`]
//!   into an [`AdjustmentTrace`] with one
//!   [`PhaseWindow`] per pipeline phase —
//!   idempotent under AM failover, so a replacement AM continues its
//!   predecessor's trace instead of opening a new one,
//! - counters live in a shared
//!   [`MetricsRegistry`] that absorbs the
//!   old ad-hoc `RtMetrics` struct (its fields are now registry-backed
//!   [`Counter`](elan_core::obs::Counter) handles).
//!
//! [`render_trace_report`] turns recorded traces into the per-phase
//! latency breakdown printed by `examples/fault_tolerance.rs` and exported
//! as JSON for the `bench` crate.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::Mutex;

use elan_core::obs::{json_escape, AdjustmentPhase, MetricsRegistry, MetricsSnapshot, PhaseWindow};
use elan_core::protocol::EpochPhase;
use elan_core::state::WorkerId;

use crate::bus::EndpointId;
use crate::reliable::RtMetrics;
use crate::time::TimeSource;

/// What a chaos engine did to one message (mirrors
/// [`ChaosStats`](crate::chaos::ChaosStats) fates).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ChaosFate {
    /// The message vanished.
    Dropped,
    /// An extra copy was injected.
    Duplicated,
    /// The message was held back and reordered.
    Delayed,
    /// The message crossed an open partition cut and was discarded.
    Partitioned,
}

impl ChaosFate {
    /// Stable lowercase name.
    pub fn name(self) -> &'static str {
        match self {
            ChaosFate::Dropped => "dropped",
            ChaosFate::Duplicated => "duplicated",
            ChaosFate::Delayed => "delayed",
            ChaosFate::Partitioned => "partitioned",
        }
    }
}

/// What the AM did at a boundary every live member was parked at.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BoundaryAct {
    /// The `Resume`/`Leave` wave that ends an adjustment (step ⑤).
    Resume,
    /// A `CheckpointOrder`.
    Checkpoint,
    /// A stop's `Leave` to every member.
    Stop,
}

/// Why an adjustment ran — the service-API verb, or the failure detector.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraceKind {
    /// Controller-requested growth.
    ScaleOut,
    /// Controller-requested shrink.
    ScaleIn,
    /// Controller-requested migration.
    Migrate,
    /// Failure-driven scale-in after missed heartbeats / give-ups.
    FailureScaleIn,
}

impl TraceKind {
    /// Stable lowercase name.
    pub fn name(self) -> &'static str {
        match self {
            TraceKind::ScaleOut => "scale-out",
            TraceKind::ScaleIn => "scale-in",
            TraceKind::Migrate => "migrate",
            TraceKind::FailureScaleIn => "failure-scale-in",
        }
    }
}

/// One structured journal entry.
///
/// The variant set is `#[non_exhaustive]`: match with a wildcard arm.
#[non_exhaustive]
#[derive(Debug, Clone, PartialEq)]
pub enum EventKind {
    /// The controller (or failure detector) requested an adjustment.
    AdjustmentRequested {
        /// Trace id this adjustment is recorded under.
        trace: u64,
        /// Why.
        kind: TraceKind,
        /// Controller op sequence, `None` for failure-driven ops.
        seq: Option<u64>,
        /// World size being adjusted to.
        target_world: u32,
    },
    /// A pipeline phase of the in-flight adjustment opened.
    PhaseStarted {
        /// The trace being extended.
        trace: u64,
        /// Which of the five phases.
        phase: AdjustmentPhase,
    },
    /// A pipeline phase of the in-flight adjustment closed.
    PhaseEnded {
        /// The trace being extended.
        trace: u64,
        /// Which of the five phases.
        phase: AdjustmentPhase,
    },
    /// The adjustment finished: membership switched, training resumed.
    AdjustmentCompleted {
        /// The finished trace.
        trace: u64,
        /// New communication-group generation.
        generation: u64,
        /// New world size.
        world: u32,
    },
    /// A joining worker reported readiness (step ②).
    WorkerReported {
        /// The reporting worker.
        worker: WorkerId,
    },
    /// Every live member parked at the same boundary and was released
    /// unchanged (no adjustment pending).
    BoundaryReleased {
        /// The released boundary iteration.
        boundary: u64,
        /// Members released.
        world: u32,
        /// The AM term that released it (fencing audit trail).
        term: u64,
    },
    /// Work waits on every member parking at one boundary: the AM
    /// ordered a park at the next boundary after the highest reached.
    ParkOrdered {
        /// The boundary every member is to park at.
        boundary: u64,
        /// The AM term that ordered it.
        term: u64,
        /// True when a member had passed the previous order's boundary
        /// before the order reached it (a missed park).
        retarget: bool,
    },
    /// A worker parked at a coordination boundary.
    WorkerParked {
        /// The parked worker.
        worker: WorkerId,
        /// The boundary it parked at.
        boundary: u64,
    },
    /// Every live, non-rejoining member was parked at `boundary`, and
    /// the AM acted on it.
    BoundaryActed {
        /// The boundary the members were parked at.
        boundary: u64,
        /// What the AM ordered.
        act: BoundaryAct,
        /// The members the AM found parked there, each with whether it
        /// stays in the job (a `false` one was told to leave). One boxed
        /// list keeps every journal entry as small as before.
        quorum: Box<[(WorkerId, bool)]>,
    },
    /// The topology planner produced a replication schedule (§IV).
    ReplicationPlanned {
        /// Contention-free waves in the schedule.
        waves: u32,
        /// Total point-to-point transfers.
        transfers: u32,
    },
    /// One wave of transfer orders went out.
    WaveIssued {
        /// Wave index (0-based).
        wave: u32,
        /// Transfers in this wave.
        transfers: u32,
    },
    /// A source finished streaming state to a destination.
    TransferDone {
        /// Source worker.
        src: WorkerId,
        /// Destination worker (== `src` for checkpoints).
        dst: WorkerId,
    },
    /// A source finished chunking + sending one snapshot.
    SnapshotStreamed {
        /// The streaming source.
        worker: WorkerId,
        /// Chunks sent (params + momentum).
        chunks: u32,
    },
    /// A destination finished assembling + applying one snapshot.
    SnapshotApplied {
        /// The receiving worker.
        worker: WorkerId,
        /// Iteration the snapshot was taken at.
        iteration: u64,
    },
    /// One allreduce round completed.
    AllreduceRound {
        /// The finished round number.
        round: u64,
        /// Contributors reduced over.
        world: u32,
    },
    /// An allreduce round was published with a chosen reduction strategy
    /// (the adaptive dispatcher's per-round decision).
    AllreducePath {
        /// The round being published.
        round: u64,
        /// The strategy serving it.
        path: crate::comm::ReducePath,
        /// Contributors in the round.
        world: u32,
        /// Parallel work groups (1 unless hierarchical).
        groups: u32,
    },
    /// The communication group was rebuilt (step ⑤).
    CommReconfigured {
        /// The new generation.
        generation: u64,
        /// The new world size.
        world: u32,
    },
    /// A member was evicted from the collective mid-generation.
    WorkerEvicted {
        /// The evicted member.
        worker: WorkerId,
    },
    /// The reliable layer resent an unacked message.
    MessageResent {
        /// The destination being retried.
        to: EndpointId,
        /// The attempt number of the resend.
        attempt: u32,
    },
    /// The reliable layer gave up on a peer (attempt budget exhausted).
    MessageGaveUp {
        /// The presumed-dead destination.
        to: EndpointId,
    },
    /// A receiver suppressed a duplicate delivery.
    DuplicateSuppressed {
        /// Where the duplicate came from.
        from: EndpointId,
    },
    /// A send addressed an unregistered or departed endpoint.
    DeadLetter {
        /// The missing destination.
        to: EndpointId,
    },
    /// The chaos engine interfered with a message.
    ChaosInjected {
        /// What it did.
        fate: ChaosFate,
        /// The edge destination.
        to: EndpointId,
    },
    /// The failure detector declared a worker dead.
    WorkerDeclaredDead {
        /// The victim.
        worker: WorkerId,
    },
    /// The watchdog elected a replacement AM.
    AmElected {
        /// The new AM epoch.
        epoch: u64,
    },
    /// A scripted partition window opened: the named edge cut is live.
    PartitionStart {
        /// The window's name from the [`ChaosPolicy`](crate::chaos::ChaosPolicy).
        name: String,
    },
    /// A scripted partition window healed: the cut edges flow again.
    PartitionHeal {
        /// The window's name.
        name: String,
    },
    /// An AM incarnation won the term CAS and now owns the job.
    TermBump {
        /// The new (strictly higher) term.
        term: u64,
    },
    /// Stale-term traffic was fenced (store write or worker-side message).
    StaleTermRejected {
        /// The current term at the rejecting side.
        term: u64,
        /// The stale term that was rejected.
        stale: u64,
    },
    /// A crashed-and-restarted worker was re-admitted via the Rejoin
    /// handshake.
    WorkerRejoin {
        /// The rejoining worker.
        worker: WorkerId,
        /// The term that admitted it.
        term: u64,
    },
    /// The epoch machine was configured — journalled once at startup so
    /// the epoch-safety auditor can read the thresholds from the journal
    /// alone.
    EpochConfigured {
        /// Minimum members required to leave `WaitingForMembers`.
        min_members: u64,
        /// Maximum members admitted into any epoch.
        max_members: u64,
        /// The bounded join window, in milliseconds of virtual time.
        join_window_ms: u64,
    },
    /// The epoch machine entered a phase.
    EpochPhaseEntered {
        /// The training epoch.
        epoch: u64,
        /// The phase just entered.
        phase: EpochPhase,
        /// Member count at the transition.
        members: u64,
    },
    /// An epoch's join window closed.
    JoinWindowClosed {
        /// The training epoch whose window closed.
        epoch: u64,
        /// Join requests pending when it closed.
        pending: u64,
    },
    /// An open joiner announced itself inside a join window.
    JoinRequested {
        /// The joiner.
        worker: WorkerId,
        /// The epoch whose window it landed in.
        epoch: u64,
    },
    /// A join request arrived outside a window (or over the member cap)
    /// and was deferred to a later epoch; the joiner re-announces.
    JoinDeferred {
        /// The deferred joiner.
        worker: WorkerId,
        /// The epoch that deferred it.
        epoch: u64,
    },
    /// A witness's admit/evict verdict on a joiner was recorded.
    WitnessVoteCast {
        /// The voting member.
        witness: WorkerId,
        /// The joiner under audit.
        subject: WorkerId,
        /// The epoch of the admission.
        epoch: u64,
        /// The verdict.
        admit: bool,
    },
    /// A joiner completed warmup and the witness vote admitted it.
    JoinAdmitted {
        /// The admitted worker.
        worker: WorkerId,
        /// The epoch it joined in.
        epoch: u64,
        /// Admit votes received.
        votes_for: u64,
        /// Evict votes received.
        votes_against: u64,
    },
    /// The witness vote rejected a joiner's warmup claim; it was evicted
    /// before entering `Train`.
    WitnessEvicted {
        /// The evicted worker.
        worker: WorkerId,
        /// The epoch that evicted it.
        epoch: u64,
        /// Admit votes received.
        votes_for: u64,
        /// Evict votes received.
        votes_against: u64,
    },
    /// Data shards were re-partitioned over the epoch's membership (a
    /// pure function of seed, epoch, and member set — the checksum pins
    /// the assignment without journalling the full map).
    ShardsReassigned {
        /// The epoch the assignment serves.
        epoch: u64,
        /// Members sharing the shards.
        members: u64,
        /// FNV-style checksum of the full shard→member map.
        checksum: u64,
    },
}

impl EventKind {
    /// Stable snake_case name of the variant (used for summary counts and
    /// JSON export).
    pub fn name(&self) -> &'static str {
        match self {
            EventKind::AdjustmentRequested { .. } => "adjustment_requested",
            EventKind::PhaseStarted { .. } => "phase_started",
            EventKind::PhaseEnded { .. } => "phase_ended",
            EventKind::AdjustmentCompleted { .. } => "adjustment_completed",
            EventKind::WorkerReported { .. } => "worker_reported",
            EventKind::BoundaryReleased { .. } => "boundary_released",
            EventKind::ParkOrdered { .. } => "park_ordered",
            EventKind::WorkerParked { .. } => "worker_parked",
            EventKind::BoundaryActed { .. } => "boundary_acted",
            EventKind::ReplicationPlanned { .. } => "replication_planned",
            EventKind::WaveIssued { .. } => "wave_issued",
            EventKind::TransferDone { .. } => "transfer_done",
            EventKind::SnapshotStreamed { .. } => "snapshot_streamed",
            EventKind::SnapshotApplied { .. } => "snapshot_applied",
            EventKind::AllreduceRound { .. } => "allreduce_round",
            EventKind::AllreducePath { .. } => "allreduce_path",
            EventKind::CommReconfigured { .. } => "comm_reconfigured",
            EventKind::WorkerEvicted { .. } => "worker_evicted",
            EventKind::MessageResent { .. } => "message_resent",
            EventKind::MessageGaveUp { .. } => "message_gave_up",
            EventKind::DuplicateSuppressed { .. } => "duplicate_suppressed",
            EventKind::DeadLetter { .. } => "dead_letter",
            EventKind::ChaosInjected { .. } => "chaos_injected",
            EventKind::WorkerDeclaredDead { .. } => "worker_declared_dead",
            EventKind::AmElected { .. } => "am_elected",
            EventKind::PartitionStart { .. } => "partition_start",
            EventKind::PartitionHeal { .. } => "partition_heal",
            EventKind::TermBump { .. } => "term_bump",
            EventKind::StaleTermRejected { .. } => "stale_term_rejected",
            EventKind::WorkerRejoin { .. } => "worker_rejoin",
            EventKind::EpochConfigured { .. } => "epoch_configured",
            EventKind::EpochPhaseEntered { .. } => "epoch_phase_entered",
            EventKind::JoinWindowClosed { .. } => "join_window_closed",
            EventKind::JoinRequested { .. } => "join_requested",
            EventKind::JoinDeferred { .. } => "join_deferred",
            EventKind::WitnessVoteCast { .. } => "witness_vote_cast",
            EventKind::JoinAdmitted { .. } => "join_admitted",
            EventKind::WitnessEvicted { .. } => "witness_evicted",
            EventKind::ShardsReassigned { .. } => "shards_reassigned",
        }
    }
}

/// One recorded event: a sequence number, a timestamp on the journal's
/// microsecond clock, and the structured payload.
#[derive(Debug, Clone, PartialEq)]
pub struct Event {
    /// Global emission order (gapless per journal).
    pub seq: u64,
    /// Microseconds since the journal's epoch.
    pub at_us: u64,
    /// What happened.
    pub kind: EventKind,
}

impl Event {
    /// The event as one JSON object.
    pub fn to_json(&self) -> String {
        format!(
            "{{\"seq\":{},\"at_us\":{},\"kind\":\"{}\",\"detail\":\"{}\"}}",
            self.seq,
            self.at_us,
            self.kind.name(),
            json_escape(&format!("{:?}", self.kind)),
        )
    }
}

/// A consumer of journal events. Implementations must be cheap and
/// non-blocking: sinks run inline on runtime threads.
pub trait EventSink: Send + Sync {
    /// Called once per emitted event, in emission order per thread.
    fn record(&self, event: &Event);
}

/// The default sink: a bounded ring buffer with overwrite semantics.
///
/// Holding the last `capacity` events bounds memory under chaos storms;
/// [`JournalSummary::overwritten`] counts what was lost.
#[derive(Debug)]
pub struct RingBufferSink {
    capacity: usize,
    events: Mutex<std::collections::VecDeque<Event>>,
    overwritten: AtomicU64,
}

impl RingBufferSink {
    /// A ring holding at most `capacity` events (min 1).
    pub fn new(capacity: usize) -> Self {
        RingBufferSink {
            capacity: capacity.max(1),
            events: Mutex::new(std::collections::VecDeque::with_capacity(capacity.max(1))),
            overwritten: AtomicU64::new(0),
        }
    }

    /// A copy of the retained events, oldest first.
    pub fn events(&self) -> Vec<Event> {
        self.events.lock().iter().cloned().collect()
    }

    /// Events discarded to make room.
    pub(crate) fn overwritten(&self) -> u64 {
        self.overwritten.load(Ordering::Relaxed)
    }
}

impl EventSink for RingBufferSink {
    fn record(&self, event: &Event) {
        let mut q = self.events.lock();
        if q.len() == self.capacity {
            q.pop_front();
            self.overwritten.fetch_add(1, Ordering::Relaxed);
        }
        q.push_back(event.clone());
    }
}

/// Journal totals for post-mortem assertions (rides the shutdown report,
/// so tests never race the teardown).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct JournalSummary {
    /// Events ever emitted.
    pub total: u64,
    /// Events the ring discarded to make room.
    pub overwritten: u64,
    /// Emission counts per [`EventKind::name`].
    pub counts: BTreeMap<String, u64>,
}

impl JournalSummary {
    /// Count for one kind name (0 when never emitted).
    pub fn count(&self, kind: &str) -> u64 {
        self.counts.get(kind).copied().unwrap_or(0)
    }

    /// The summary as one JSON object.
    pub fn to_json(&self) -> String {
        let counts: Vec<String> = self
            .counts
            .iter()
            .map(|(k, v)| format!("\"{}\":{}", json_escape(k), v))
            .collect();
        format!(
            "{{\"total\":{},\"overwritten\":{},\"counts\":{{{}}}}}",
            self.total,
            self.overwritten,
            counts.join(",")
        )
    }
}

/// The event journal: stamps events with the runtime's shared clock and
/// fans them out to the ring sink plus any extra sinks.
///
/// The timestamp axis is whatever [`TimeSource`] the journal was built
/// with. Under a seeded `VirtualClock` the stamps are logical, which makes
/// *same seed ⇒ byte-identical journal* a checkable invariant (the
/// `seedsweep` fuzzer and the chaos e2e suite both assert it).
pub struct EventJournal {
    time: TimeSource,
    seq: AtomicU64,
    ring: RingBufferSink,
    extra: Vec<Arc<dyn EventSink>>,
    counts: Mutex<BTreeMap<&'static str, u64>>,
}

impl std::fmt::Debug for EventJournal {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("EventJournal")
            .field("total", &self.seq.load(Ordering::Relaxed))
            .field("extra_sinks", &self.extra.len())
            .finish()
    }
}

impl EventJournal {
    /// A journal whose ring retains `ring_capacity` events, teeing every
    /// event to `extra` sinks after the ring. Ticks on a private real-time
    /// epoch; the runtime builder uses `EventJournal::with_time` so the
    /// journal shares the runtime's clock instead.
    pub fn new(ring_capacity: usize, extra: Vec<Arc<dyn EventSink>>) -> Self {
        EventJournal::with_time(ring_capacity, extra, TimeSource::real())
    }

    /// A journal stamping events from the given [`TimeSource`] — the old
    /// construction-time wall-clock epoch coupling is gone: the journal
    /// holds no clock of its own.
    pub(crate) fn with_time(
        ring_capacity: usize,
        extra: Vec<Arc<dyn EventSink>>,
        time: TimeSource,
    ) -> Self {
        EventJournal {
            time,
            seq: AtomicU64::new(0),
            ring: RingBufferSink::new(ring_capacity),
            extra,
            counts: Mutex::new(BTreeMap::new()),
        }
    }

    /// Microseconds since the runtime epoch — the timestamp axis every
    /// event and [`PhaseWindow`] shares.
    pub(crate) fn now_us(&self) -> u64 {
        self.time.now().as_nanos() / 1_000
    }

    /// Records `kind` now; returns the stamped event's sequence number.
    pub fn emit(&self, kind: EventKind) -> u64 {
        self.emit_at(self.now_us(), kind)
    }

    /// Records `kind` with an explicit timestamp (for callers that already
    /// read the clock).
    pub(crate) fn emit_at(&self, at_us: u64, kind: EventKind) -> u64 {
        let seq = self.seq.fetch_add(1, Ordering::Relaxed);
        *self.counts.lock().entry(kind.name()).or_insert(0) += 1;
        let event = Event { seq, at_us, kind };
        self.ring.record(&event);
        for sink in &self.extra {
            sink.record(&event);
        }
        seq
    }

    /// A copy of the ring's retained events, oldest first.
    pub fn events(&self) -> Vec<Event> {
        self.ring.events()
    }

    /// Totals and per-kind counts since launch.
    pub fn summary(&self) -> JournalSummary {
        JournalSummary {
            total: self.seq.load(Ordering::Relaxed),
            overwritten: self.ring.overwritten(),
            counts: self
                .counts
                .lock()
                .iter()
                .map(|(&k, &v)| (k.to_string(), v))
                .collect(),
        }
    }
}

impl Default for EventJournal {
    fn default() -> Self {
        EventJournal::new(DEFAULT_RING_CAPACITY, Vec::new())
    }
}

/// Where a pure state machine's journal events go: straight into an
/// [`EventJournal`], or onto a decision core's action list, which its
/// driver journals in order with the rest of the step's effects.
pub(crate) trait Emit {
    /// Records `kind` with the timestamp `at_us`.
    fn emit_at(&mut self, at_us: u64, kind: EventKind);
}

impl Emit for EventJournal {
    fn emit_at(&mut self, at_us: u64, kind: EventKind) {
        EventJournal::emit_at(self, at_us, kind);
    }
}

/// Default ring capacity: generous enough that a chaotic e2e run keeps
/// every adjustment-relevant event.
pub(crate) const DEFAULT_RING_CAPACITY: usize = 16_384;

/// One adjustment's span: per-phase windows on the journal's microsecond
/// clock, plus outcome metadata.
#[derive(Debug, Clone, PartialEq)]
pub struct AdjustmentTrace {
    /// Trace id (1-based, in request order).
    pub id: u64,
    /// Why the adjustment ran.
    pub kind: TraceKind,
    /// Controller op sequence (`None` for failure-driven ops).
    pub seq: Option<u64>,
    /// World size requested.
    pub target_world: u32,
    /// World size after completion (0 until completed).
    pub final_world: u32,
    /// Communication-group generation after completion.
    pub generation: u64,
    /// Whether the adjustment ran to completion.
    pub completed: bool,
    /// Replication waves planned (§IV).
    pub waves: u32,
    /// Point-to-point transfers planned.
    pub transfers: u32,
    phases: [Option<PhaseWindow>; 5],
}

impl AdjustmentTrace {
    fn new(id: u64, kind: TraceKind, seq: Option<u64>, target_world: u32) -> Self {
        AdjustmentTrace {
            id,
            kind,
            seq,
            target_world,
            final_world: 0,
            generation: 0,
            completed: false,
            waves: 0,
            transfers: 0,
            phases: [None; 5],
        }
    }

    /// The recorded window of one phase, if it opened.
    pub fn phase(&self, phase: AdjustmentPhase) -> Option<PhaseWindow> {
        self.phases[phase.index()]
    }

    /// Microseconds spent in one phase (0 when the phase never opened).
    pub fn phase_us(&self, phase: AdjustmentPhase) -> u64 {
        self.phase(phase).map(|w| w.micros()).unwrap_or(0)
    }

    /// End-to-end microseconds: first phase start to last phase end.
    pub fn total_us(&self) -> u64 {
        let start = self
            .phases
            .iter()
            .flatten()
            .map(|w| w.start_us)
            .min()
            .unwrap_or(0);
        let end = self
            .phases
            .iter()
            .flatten()
            .map(|w| w.end_us)
            .max()
            .unwrap_or(0);
        end.saturating_sub(start)
    }

    /// Structural validity: every opened phase has `start <= end`, a
    /// completed trace has all five phases, and phase *starts* are ordered
    /// along the pipeline (request ≤ report ≤ coordinate ≤ … ≤ adjust).
    pub fn is_well_formed(&self) -> bool {
        for w in self.phases.iter().flatten() {
            if w.start_us > w.end_us {
                return false;
            }
        }
        if self.completed && self.phases.iter().any(|p| p.is_none()) {
            return false;
        }
        let starts: Vec<u64> = self.phases.iter().flatten().map(|w| w.start_us).collect();
        starts.windows(2).all(|p| p[0] <= p[1])
    }

    /// The trace as one JSON object with per-phase millisecond fields.
    pub fn to_json(&self) -> String {
        let phases: Vec<String> = AdjustmentPhase::ALL
            .iter()
            .map(|&p| {
                format!(
                    "\"{}_ms\":{:.3}",
                    p.name(),
                    self.phase_us(p) as f64 / 1000.0
                )
            })
            .collect();
        format!(
            "{{\"id\":{},\"kind\":\"{}\",\"seq\":{},\"target_world\":{},\"final_world\":{},\"generation\":{},\"completed\":{},\"waves\":{},\"transfers\":{},{},\"total_ms\":{:.3}}}",
            self.id,
            self.kind.name(),
            self.seq.map(|s| s.to_string()).unwrap_or_else(|| "null".into()),
            self.target_world,
            self.final_world,
            self.generation,
            self.completed,
            self.waves,
            self.transfers,
            phases.join(","),
            self.total_us() as f64 / 1000.0,
        )
    }
}

#[derive(Debug, Default)]
struct TraceState {
    traces: Vec<AdjustmentTrace>,
    /// Index of the in-flight trace, if any.
    active: Option<usize>,
}

/// A zero-length window at `at_us`.
fn point(at_us: u64) -> PhaseWindow {
    PhaseWindow {
        start_us: at_us,
        end_us: at_us,
    }
}

/// Ends a phase at `at_us` (max-wins), opening it zero-length if it never
/// started, so no end is orphaned.
fn stretch(slot: &mut Option<PhaseWindow>, at_us: u64) {
    match slot {
        Some(w) => w.end_us = w.end_us.max(at_us),
        None => *slot = Some(point(at_us)),
    }
}

/// The runtime's observability bundle: one journal, one trace recorder,
/// one metrics registry, and the registry-backed `RtMetrics` handles.
///
/// Shared by the controller handle, every AM incarnation, the watchdog,
/// and all workers (through `SharedControl` and the bus).
#[derive(Debug)]
pub struct Obs {
    /// The structured event journal.
    pub journal: Arc<EventJournal>,
    /// Adjustment spans. Shared by the controller, every AM incarnation
    /// and the watchdog, so a replacement AM *continues* the in-flight
    /// trace: a phase start is first-wins, a phase end is max-wins, and
    /// completion is one-shot. Only the span methods below touch it, so
    /// every transition is journalled.
    traces: Mutex<TraceState>,
    /// Named counters/gauges/histograms.
    pub registry: MetricsRegistry,
    /// Reliable-messaging counters, registered in `registry` under
    /// `rt.*` names.
    pub(crate) rt: Arc<RtMetrics>,
}

impl Obs {
    /// Builds the bundle on the runtime's clock (the builder's entry
    /// point): journal timestamps, trace phase windows, and metrics all
    /// share one time axis.
    pub(crate) fn with_time(
        ring_capacity: usize,
        sinks: Vec<Arc<dyn EventSink>>,
        time: TimeSource,
    ) -> Arc<Self> {
        let registry = MetricsRegistry::default();
        let rt = Arc::new(RtMetrics::registered(&registry));
        Arc::new(Obs {
            journal: Arc::new(EventJournal::with_time(ring_capacity, sinks, time)),
            traces: Mutex::default(),
            registry,
            rt,
        })
    }

    /// A default bundle on a private real-time epoch (for tests).
    #[cfg(test)]
    pub(crate) fn new_default() -> Arc<Self> {
        Obs::with_time(DEFAULT_RING_CAPACITY, Vec::new(), TimeSource::real())
    }

    /// Point-in-time snapshot of the metrics registry.
    pub fn metrics(&self) -> MetricsSnapshot {
        self.registry.snapshot()
    }

    /// Everything as one JSON object: registry snapshot, journal summary,
    /// and every adjustment trace (consumed by `crates/bench`).
    pub fn to_json(&self) -> String {
        let traces: Vec<String> = self.traces().iter().map(|t| t.to_json()).collect();
        format!(
            "{{\"metrics\":{},\"journal\":{},\"traces\":[{}]}}",
            self.metrics().to_json(),
            self.journal.summary().to_json(),
            traces.join(",")
        )
    }

    /// Copies of every trace recorded so far (completed and in-flight).
    pub(crate) fn traces(&self) -> Vec<AdjustmentTrace> {
        self.traces.lock().traces.clone()
    }

    /// Applies `f` to the in-flight trace; returns its id, if any.
    fn active(&self, f: impl FnOnce(&mut AdjustmentTrace)) -> Option<u64> {
        let mut st = self.traces.lock();
        let i = st.active?;
        f(&mut st.traces[i]);
        Some(st.traces[i].id)
    }

    /// Opens an adjustment span and journals `AdjustmentRequested` and
    /// the request phase's `PhaseStarted` — unless a trace is already in
    /// flight, which journals nothing. A failure-driven op (`seq: None`)
    /// has no controller round trip and no joiners: its request phase
    /// closes and its report phase opens at once, so the journal still
    /// carries the full bracket.
    pub(crate) fn begin(&self, kind: TraceKind, seq: Option<u64>, target_world: u32, at_us: u64) {
        let trace = {
            let mut st = self.traces.lock();
            if st.active.is_some() {
                // A failover replaying the same request, or a new request
                // (a failure-driven scale-in, say) folding into the span.
                return;
            }
            let id = st.traces.len() as u64 + 1;
            let mut trace = AdjustmentTrace::new(id, kind, seq, target_world);
            trace.phases[AdjustmentPhase::Request.index()] = Some(point(at_us));
            st.active = Some(st.traces.len());
            st.traces.push(trace);
            id
        };
        let requested = EventKind::AdjustmentRequested {
            trace,
            kind,
            seq,
            target_world,
        };
        self.journal.emit_at(at_us, requested);
        let phase = AdjustmentPhase::Request;
        self.journal
            .emit_at(at_us, EventKind::PhaseStarted { trace, phase });
        if seq.is_none() {
            self.phase_end(AdjustmentPhase::Request, at_us);
            self.phase_start(AdjustmentPhase::Report, at_us);
        }
    }

    /// Opens `phase` of the in-flight span (first-wins: a replay keeps
    /// the original timestamp) and journals `PhaseStarted`.
    pub(crate) fn phase_start(&self, phase: AdjustmentPhase, at_us: u64) {
        let opened = self.active(|t| {
            t.phases[phase.index()].get_or_insert(point(at_us));
        });
        if let Some(trace) = opened {
            self.journal
                .emit_at(at_us, EventKind::PhaseStarted { trace, phase });
        }
    }

    /// Closes `phase` of the in-flight span and journals `PhaseEnded`.
    pub(crate) fn phase_end(&self, phase: AdjustmentPhase, at_us: u64) {
        let closed = self.active(|t| stretch(&mut t.phases[phase.index()], at_us));
        if let Some(trace) = closed {
            self.journal
                .emit_at(at_us, EventKind::PhaseEnded { trace, phase });
        }
    }

    /// Completes the in-flight span — every phase that never started
    /// opens zero-length at `at_us`, where the adjust phase ends — and
    /// journals `AdjustmentCompleted`. One-shot: a failover replay is a
    /// no-op.
    pub(crate) fn complete(&self, generation: u64, world: u32, at_us: u64) {
        let trace = {
            let mut st = self.traces.lock();
            let Some(i) = st.active.take() else {
                return;
            };
            let t = &mut st.traces[i];
            for slot in &mut t.phases {
                slot.get_or_insert(point(at_us));
            }
            if let Some(w) = t.phases[AdjustmentPhase::Adjust.index()].as_mut() {
                w.end_us = at_us;
            }
            t.completed = true;
            t.generation = generation;
            t.final_world = world;
            t.id
        };
        let completed = EventKind::AdjustmentCompleted {
            trace,
            generation,
            world,
        };
        self.journal.emit_at(at_us, completed);
    }

    /// Applies one span transition a decision core ordered.
    pub(crate) fn span(&self, span: Span, at_us: u64) {
        match span {
            Span::Begin {
                kind,
                seq,
                target_world,
            } => self.begin(kind, seq, target_world, at_us),
            Span::PhaseStart(phase) => self.phase_start(phase, at_us),
            Span::PhaseEnd(phase) => self.phase_end(phase, at_us),
            // Joiners may report before the AM even sees the request:
            // the report phase clamps rather than going backwards.
            Span::Report(worker) => {
                let report = AdjustmentPhase::Report.index();
                self.active(|t| stretch(&mut t.phases[report], at_us));
                self.journal
                    .emit_at(at_us, EventKind::WorkerReported { worker });
            }
            Span::Plan { waves, transfers } => {
                self.active(|t| {
                    t.waves = t.waves.max(waves);
                    t.transfers = t.transfers.max(transfers);
                });
                self.journal
                    .emit_at(at_us, EventKind::ReplicationPlanned { waves, transfers });
            }
            Span::Complete { generation, world } => self.complete(generation, world, at_us),
        }
    }
}

/// One transition of the in-flight adjustment span; [`Obs::span`]
/// records it and journals the matching event at the same timestamp.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) enum Span {
    /// Open a span ([`Obs::begin`]).
    Begin {
        kind: TraceKind,
        seq: Option<u64>,
        target_world: u32,
    },
    /// Open a phase.
    PhaseStart(AdjustmentPhase),
    /// Close a phase.
    PhaseEnd(AdjustmentPhase),
    /// A joiner reported ready: stretch the report phase over it.
    Report(WorkerId),
    /// The replication schedule's shape.
    Plan { waves: u32, transfers: u32 },
    /// Close the span at the generation and world it ended with.
    Complete { generation: u64, world: u32 },
}

/// Renders the per-phase adjustment-latency breakdown (§VI style) from
/// recorded traces — the table `trace_report()` returns and
/// `examples/fault_tolerance.rs` prints.
///
/// Columns are milliseconds per pipeline phase; `total` is first phase
/// start to last phase end, directly comparable against the end-to-end
/// adjustment costs of the S&R and Litz baselines in `elan-baselines`.
pub fn render_trace_report(traces: &[AdjustmentTrace]) -> String {
    let mut out =
        String::from("adjustment latency breakdown (from the event journal; ms per phase)\n");
    out.push_str(&format!(
        "{:<4} {:<17} {:<7} {:>9} {:>9} {:>11} {:>10} {:>8} {:>9}\n",
        "#", "kind", "world", "request", "report", "coordinate", "replicate", "adjust", "total"
    ));
    for t in traces {
        let world = if t.completed {
            format!("->{}", t.final_world)
        } else {
            format!("->{}?", t.target_world)
        };
        out.push_str(&format!(
            "{:<4} {:<17} {:<7} {:>9.2} {:>9.2} {:>11.2} {:>10.2} {:>8.2} {:>9.2}\n",
            t.id,
            t.kind.name(),
            world,
            t.phase_us(AdjustmentPhase::Request) as f64 / 1000.0,
            t.phase_us(AdjustmentPhase::Report) as f64 / 1000.0,
            t.phase_us(AdjustmentPhase::Coordinate) as f64 / 1000.0,
            t.phase_us(AdjustmentPhase::Replicate) as f64 / 1000.0,
            t.phase_us(AdjustmentPhase::Adjust) as f64 / 1000.0,
            t.total_us() as f64 / 1000.0,
        ));
    }
    if traces.is_empty() {
        out.push_str("(no adjustments recorded)\n");
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ring_sink_overwrites_oldest() {
        let sink = RingBufferSink::new(2);
        let journal = EventJournal::new(2, Vec::new());
        for epoch in 0..3 {
            journal.emit(EventKind::AmElected { epoch });
        }
        let events = journal.events();
        assert_eq!(events.len(), 2);
        assert!(matches!(events[0].kind, EventKind::AmElected { epoch: 1 }));
        assert_eq!(journal.summary().total, 3);
        assert_eq!(journal.summary().overwritten, 1);
        drop(sink);
    }

    #[test]
    fn journal_seq_is_gapless_and_counts_by_kind() {
        let journal = EventJournal::default();
        journal.emit(EventKind::WorkerReported {
            worker: WorkerId(1),
        });
        journal.emit(EventKind::WorkerReported {
            worker: WorkerId(2),
        });
        journal.emit(EventKind::AmElected { epoch: 1 });
        let events = journal.events();
        assert_eq!(
            events.iter().map(|e| e.seq).collect::<Vec<_>>(),
            vec![0, 1, 2]
        );
        let summary = journal.summary();
        assert_eq!(summary.count("worker_reported"), 2);
        assert_eq!(summary.count("am_elected"), 1);
        assert_eq!(summary.count("dead_letter"), 0);
    }

    #[test]
    fn extra_sinks_see_every_event() {
        let tee = Arc::new(RingBufferSink::new(8));
        let journal = EventJournal::new(4, vec![tee.clone() as Arc<dyn EventSink>]);
        journal.emit(EventKind::AmElected { epoch: 9 });
        assert_eq!(tee.events().len(), 1);
    }

    #[test]
    fn trace_lifecycle_produces_well_formed_spans() {
        let obs = Obs::new_default();
        obs.begin(TraceKind::ScaleOut, Some(1), 4, 10);
        obs.phase_end(AdjustmentPhase::Request, 20);
        obs.phase_start(AdjustmentPhase::Report, 20);
        obs.span(Span::Report(WorkerId(4)), 35);
        obs.phase_start(AdjustmentPhase::Coordinate, 40);
        obs.phase_start(AdjustmentPhase::Replicate, 45);
        let plan = Span::Plan {
            waves: 2,
            transfers: 2,
        };
        obs.span(plan, 45);
        obs.phase_end(AdjustmentPhase::Replicate, 60);
        obs.phase_end(AdjustmentPhase::Coordinate, 62);
        obs.phase_start(AdjustmentPhase::Adjust, 62);
        obs.complete(1, 4, 70);
        let traces = obs.traces();
        assert_eq!(traces.len(), 1);
        let t = &traces[0];
        assert!(t.completed);
        assert!(t.is_well_formed(), "trace not well-formed: {t:?}");
        assert_eq!(t.phase_us(AdjustmentPhase::Report), 15);
        assert_eq!(t.total_us(), 60);
        assert_eq!(t.waves, 2);
        // Every transition journalled itself, at its own timestamp.
        let kinds: Vec<&str> = obs.journal.events().iter().map(|e| e.kind.name()).collect();
        assert_eq!(kinds.first(), Some(&"adjustment_requested"));
        assert_eq!(kinds.last(), Some(&"adjustment_completed"));
        assert_eq!(kinds.len(), 12);
        let last = obs.journal.events().pop().unwrap();
        assert_eq!(last.at_us, 70);
    }

    #[test]
    fn begin_is_idempotent_across_failover() {
        let obs = Obs::new_default();
        obs.begin(TraceKind::ScaleOut, Some(7), 4, 5);
        // The replacement AM replays the same op: no new trace, and
        // nothing journalled.
        obs.begin(TraceKind::ScaleOut, Some(7), 4, 99);
        assert_eq!(obs.traces().len(), 1);
        assert_eq!(obs.journal.summary().count("adjustment_requested"), 1);
        // phase_start replays keep the original timestamp.
        obs.phase_start(AdjustmentPhase::Report, 10);
        obs.phase_start(AdjustmentPhase::Report, 50);
        obs.complete(1, 4, 60);
        let t = &obs.traces()[0];
        assert_eq!(t.phase(AdjustmentPhase::Report).unwrap().start_us, 10);
        // complete is one-shot.
        obs.complete(2, 8, 99);
        assert_eq!(obs.journal.summary().count("adjustment_completed"), 1);
    }

    #[test]
    fn early_reports_clamp_instead_of_orphaning() {
        let obs = Obs::new_default();
        obs.begin(TraceKind::ScaleOut, Some(1), 3, 100);
        // A joiner reports before the AM saw AdjustTo.
        obs.span(Span::Report(WorkerId(3)), 90);
        obs.phase_start(AdjustmentPhase::Report, 110); // first-wins loses to 90
        let t = &obs.traces()[0];
        let w = t.phase(AdjustmentPhase::Report).unwrap();
        assert!(w.start_us <= w.end_us);
    }

    #[test]
    fn incomplete_trace_renders_with_question_mark() {
        let obs = Obs::new_default();
        obs.begin(TraceKind::Migrate, Some(3), 2, 0);
        let report = render_trace_report(&obs.traces());
        assert!(report.contains("migrate"));
        assert!(report.contains("->2?"));
        assert!(render_trace_report(&[]).contains("no adjustments"));
    }

    #[test]
    fn obs_json_export_is_wellformed() {
        let obs = Obs::new_default();
        obs.journal.emit(EventKind::AmElected { epoch: 1 });
        obs.rt.resends.inc();
        obs.begin(TraceKind::ScaleOut, Some(1), 2, 0);
        obs.complete(1, 2, 10);
        let json = obs.to_json();
        assert!(json.starts_with('{') && json.ends_with('}'));
        assert!(json.contains("\"metrics\""));
        assert!(json.contains("\"traces\""));
        assert!(json.contains("\"request_ms\""));
        assert_eq!(json.matches('{').count(), json.matches('}').count());
    }

    #[test]
    fn failure_driven_begin_does_not_shadow_active_trace() {
        let obs = Obs::new_default();
        obs.begin(TraceKind::ScaleOut, Some(1), 4, 0);
        obs.begin(TraceKind::FailureScaleIn, None, 3, 5);
        assert_eq!(obs.traces().len(), 1, "folded into the active span");
        obs.complete(1, 3, 10);
        // Now a failure-driven op opens its own trace, with its request
        // phase closed and its report phase open at detection time.
        obs.begin(TraceKind::FailureScaleIn, None, 2, 20);
        let traces = obs.traces();
        assert_eq!(traces.len(), 2);
        assert_eq!(traces[1].id, 2);
        let report = traces[1].phase(AdjustmentPhase::Report).unwrap();
        assert_eq!((report.start_us, report.end_us), (20, 20));
        let tail: Vec<String> = obs.journal.events()[3..]
            .iter()
            .map(|e| format!("{:?}", e.kind))
            .collect();
        assert_eq!(
            tail,
            [
                "AdjustmentRequested { trace: 2, kind: FailureScaleIn, seq: None, target_world: 2 }",
                "PhaseStarted { trace: 2, phase: Request }",
                "PhaseEnded { trace: 2, phase: Request }",
                "PhaseStarted { trace: 2, phase: Report }",
            ]
        );
    }
}
