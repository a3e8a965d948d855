//! The training-worker thread.
//!
//! Each worker owns real parameter and momentum buffers, computes a
//! deterministic synthetic gradient for its data shard, sums gradients
//! through the [`CommGroup`] allreduce, applies
//! SGD-with-momentum, and checks in with the AM at every coordination
//! boundary — the per-iteration structure of Fig. 7 with the Elan hooks
//! attached.
//!
//! Coordination is asynchronous (§V-B). At a boundary the worker reads
//! what the AM sent while it trained, without waiting, and then either
//! reports `Passed` and trains on, or parks: it sends `Coordinate` and
//! waits for a release. It parks only where the AM ordered a park
//! (`Park`), or when it is past the highest boundary the AM released
//! (`Proceed`) by more than its slack, which bounds how far any worker
//! runs ahead of the slowest. The slack is one interval when the
//! worker's allreduce group holds other members and none when it trains
//! alone. DESIGN.md §19 has the whole rule.
//!
//! Because every worker applies the identical reduced gradient to
//! identical starting parameters, all live workers hold bit-identical
//! state at every iteration — the invariant the shutdown report checks
//! and the property state replication relies on (§IV-1).
//!
//! Fault tolerance (§V-D): every control message travels through a
//! `ReliableEndpoint` (ids, acks, resends, dedup), the worker beacons a
//! `Heartbeat` every `hb_period` — including from *inside* a blocked
//! allreduce, via `CommGroup::allreduce_with` — and an `AmReset` from a
//! replacement application master makes the worker re-send whatever
//! request it is parked on, so an AM crash can never strand it.
//!
//! Partition tolerance: every AM-originated control message carries a
//! monotonic fencing *term*; the worker tracks the highest term it has
//! seen and silently drops (journalling `StaleTermRejected`) anything
//! older, so a partitioned-but-alive predecessor AM cannot steer it. A
//! crashed worker restarts as `WorkerRole::Rejoin`, presenting its
//! last-known term and boundary iteration, and re-enters through the
//! same chunked state-replication path a joiner uses.
//!
//! Every wait on the AM is one pump. The worker's IO half (`Link`: its
//! endpoint, heartbeat timer and term fence) offers two steps: `beat`
//! stops a crashed worker, runs the retry tracker and beacons a due
//! heartbeat; `pump` returns one message past the term fence, either
//! blocking up to one tick or reading only what already arrived. The
//! admission wait, the allreduce callback, the boundary drain and the
//! park loop are all built from these two. Every step returns its exit
//! as an error, so the run ends in one place: a worker that left
//! publishes its final not-alive view there, and a crashed one exits
//! without a word.

use std::collections::HashMap;
use std::convert::Infallible;
use std::sync::Arc;
use std::time::Duration;

use parking_lot::Mutex;

use elan_core::messages::{ChunkAssembler, ChunkPlan, StateKind};
use elan_core::state::WorkerId;
use elan_sim::{SimDuration, SimTime};

use crate::bus::{Bus, EndpointId, RtMsg};
use crate::comm::{AllreduceOutcome, CommGroup};
use crate::liveness::SharedControl;
use crate::obs::EventKind;
use crate::reliable::ReliableEndpoint;
use crate::runtime::{RuntimeConfig, HB_PERIOD, RETRY_TIMEOUT, TICK};
use crate::time::{sim_to_std, std_to_sim, TimeSource};

/// Per-worker observable state, published after every iteration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WorkerView {
    /// Completed iterations.
    pub iteration: u64,
    /// Serial data-loading cursor.
    pub data_cursor: u64,
    /// Bit-exact [`checksum`] of the parameter buffer as it stood at the
    /// worker's latest coordination boundary, or at its exit in a final
    /// (not-alive) view. Between boundaries the value is carried, not
    /// recomputed: views are only compared at boundaries and at exit,
    /// and hashing a large buffer on every step is a large share of the
    /// step.
    pub params_checksum: u64,
    /// False once the worker has left the job.
    pub alive: bool,
    /// Real wall time spent parked at coordination boundaries: waits for
    /// a release where the AM ordered a park or the worker ran ahead of
    /// the last release, plus adjustment pauses — the live counterpart of
    /// Fig. 15's pause. A boundary the worker passes adds nothing.
    pub stalled: std::time::Duration,
}

/// Shared telemetry map read by the controller.
pub(crate) type Telemetry = Arc<Mutex<HashMap<WorkerId, WorkerView>>>;

/// How a worker enters the job.
#[derive(Debug, Clone)]
pub(crate) enum WorkerRole {
    /// Present at job start: begins training immediately.
    Founding,
    /// Launched by an adjustment: initializes, reports, and waits for
    /// state replication before training (§II steps ② and ④).
    Joining,
    /// Restarted from a checkpoint (the Shutdown-&-Restart path, live).
    Restored {
        /// Parameter buffer to restore.
        params: Arc<Vec<f32>>,
        /// Momentum buffer to restore.
        momentum: Arc<Vec<f32>>,
        /// Iteration to resume from.
        iteration: u64,
        /// Serial data cursor to resume from.
        data_cursor: u64,
    },
    /// Restarted after a crash: runs the `Rejoin` handshake — presents
    /// the crash incarnation's last-known term and boundary iteration,
    /// gets fenced or admitted, and re-fetches state through the same
    /// chunked replication path a joiner uses.
    Rejoin {
        /// Fencing term the worker last observed before crashing.
        term: u64,
        /// Boundary iteration of the last state it had applied.
        iteration: u64,
    },
    /// Open-membership joiner (DESIGN.md §17): announces itself with
    /// `JoinRequest`, is admitted at an epoch boundary by the AM's epoch
    /// machine, warms up over the chunked replication path, then claims
    /// its state digest for the witness vote.
    OpenJoin {
        /// Fault injection: mis-claim the warmup digest so the witness
        /// vote must evict this joiner.
        corrupt: bool,
    },
}

/// Computes the synthetic gradient for `(worker, iteration)` — each
/// worker's "data shard" yields a different, deterministic gradient.
fn gradient(worker: WorkerId, iteration: u64, out: &mut [f32]) {
    let w = worker.0 as u64;
    for (j, g) in out.iter_mut().enumerate() {
        let x = (iteration
            .wrapping_mul(6364136223846793005)
            .wrapping_add(w.wrapping_mul(1442695040888963407))
            .wrapping_add(j as u64))
            % 2048;
        *g = (x as f32 / 2048.0) - 0.5;
    }
}

/// Reference replay of the training computation: the parameters,
/// momentum, and data cursor after `iterations` of data-parallel training
/// on `world_size` workers — single-threaded, for verifying that the live
/// runtime (and checkpoint/restore) is bit-exact.
pub fn simulate_training(
    world_size: u32,
    iterations: u64,
    param_elems: usize,
    learning_rate: f32,
    total_batch: u32,
) -> (Vec<f32>, Vec<f32>, u64) {
    let mut params = vec![0.5f32; param_elems];
    let mut momentum = vec![0.0f32; param_elems];
    let mut grad = vec![0.0f32; param_elems];
    let mut sum = vec![0.0f32; param_elems];
    for iter in 0..iterations {
        sum.iter_mut().for_each(|v| *v = 0.0);
        // Same order as CommGroup: ascending worker id.
        for w in 0..world_size {
            gradient(WorkerId(w), iter, &mut grad);
            for (s, &g) in sum.iter_mut().zip(&grad) {
                *s += g;
            }
        }
        let world = world_size as f32;
        for ((w, m), &s) in params.iter_mut().zip(momentum.iter_mut()).zip(&sum) {
            *m = 0.9 * *m + s / world;
            *w -= learning_rate * *m;
        }
    }
    (params, momentum, iterations * total_batch as u64)
}

/// Bit-exact checksum of a float buffer.
pub fn checksum(buf: &[f32]) -> u64 {
    buf.iter()
        .fold(0u64, |acc, &v| acc.rotate_left(7) ^ u64::from(v.to_bits()))
}

/// The warmup digest an open-membership joiner claims (and a witness
/// recomputes over its own boundary state): a bit-exact fold over both
/// training buffers. At a coordination boundary every data-parallel
/// member holds identical state, so an honestly warmed-up joiner's
/// digest matches every witness's.
pub(crate) fn state_digest(params: &[f32], momentum: &[f32]) -> u64 {
    checksum(params) ^ checksum(momentum).rotate_left(1)
}

/// One prepared state chunk: `(kind, index, total, offset, payload)`.
pub(crate) type PreparedChunk = (StateKind, u32, u32, u64, Arc<Vec<f32>>);

/// Splits the two state buffers into *interleaved* chunk messages
/// (params chunk `i`, then momentum chunk `i`, …) so the "GPU-state" and
/// "CPU-state" streams overlap on the wire instead of serializing one
/// whole buffer after the other (§IV). The result is built **once per
/// boundary** and `Arc`-shared: each additional destination costs chunk
/// headers plus `Arc` clones, not another full copy of the state.
pub fn build_state_chunks(
    params: &[f32],
    momentum: &[f32],
    chunk_elems: usize,
) -> Vec<PreparedChunk> {
    let plan = ChunkPlan::new(params.len(), chunk_elems);
    let total = plan.n_chunks() as u32;
    let mut out = Vec::with_capacity(2 * plan.n_chunks());
    for (i, range) in plan.ranges() {
        out.push((
            StateKind::Params,
            i as u32,
            total,
            range.start as u64,
            Arc::new(params[range.clone()].to_vec()),
        ));
        out.push((
            StateKind::Momentum,
            i as u32,
            total,
            range.start as u64,
            Arc::new(momentum[range].to_vec()),
        ));
    }
    out
}

/// Streams a prepared snapshot to `to`, one reliable envelope per chunk —
/// per-chunk acks and resends make the transfer resumable: a lossy bus
/// retransmits only the chunks that actually went missing.
pub(crate) fn send_snapshot(
    rep: &mut ReliableEndpoint,
    to: EndpointId,
    chunks: &[PreparedChunk],
    iteration: u64,
    data_cursor: u64,
) {
    for &(kind, index, total, offset, ref data) in chunks {
        rep.send(
            to,
            RtMsg::StateChunk {
                kind,
                iteration,
                data_cursor,
                index,
                total,
                offset,
                data: Arc::clone(data),
            },
        );
    }
}

/// Reassembles a streamed snapshot from [`RtMsg::StateChunk`] messages.
///
/// Tracks one snapshot at a time, keyed by its boundary iteration:
/// chunks of a *newer* snapshot restart the assembly, chunks of an older
/// one (an AM-recovery replay) are ignored, and duplicates are absorbed
/// by the per-kind [`ChunkAssembler`]s. [`offer`](Self::offer) returns
/// the completed snapshot's `(iteration, data_cursor)` exactly once,
/// when both streams are whole.
#[derive(Debug, Default)]
pub struct SnapshotAssembly {
    assembling: Option<u64>,
    done: bool,
    params: Option<ChunkAssembler>,
    momentum: Option<ChunkAssembler>,
}

impl SnapshotAssembly {
    pub fn new() -> Self {
        Self::default()
    }

    /// Applies one chunk to the destination buffers.
    #[allow(clippy::too_many_arguments)]
    pub fn offer(
        &mut self,
        kind: StateKind,
        iteration: u64,
        data_cursor: u64,
        index: u32,
        total: u32,
        offset: u64,
        data: &[f32],
        params: &mut [f32],
        momentum: &mut [f32],
    ) -> Option<(u64, u64)> {
        match self.assembling {
            Some(cur) if iteration < cur => return None, // stale replay
            Some(cur) if iteration == cur => {
                if self.done {
                    return None; // late duplicate of a finished stream
                }
            }
            _ => {
                // First chunk seen, or a newer snapshot: restart.
                self.assembling = Some(iteration);
                self.params = None;
                self.momentum = None;
                self.done = false;
            }
        }
        let asm = match kind {
            StateKind::Params => self
                .params
                .get_or_insert_with(|| ChunkAssembler::new(total as usize)),
            StateKind::Momentum => self
                .momentum
                .get_or_insert_with(|| ChunkAssembler::new(total as usize)),
        };
        if asm.accept(index as usize) {
            let off = offset as usize;
            let dst = match kind {
                StateKind::Params => params,
                StateKind::Momentum => momentum,
            };
            dst[off..off + data.len()].copy_from_slice(data);
        }
        let complete = self.params.as_ref().is_some_and(|a| a.is_complete())
            && self.momentum.as_ref().is_some_and(|a| a.is_complete());
        if complete {
            self.done = true;
            Some((iteration, data_cursor))
        } else {
            None
        }
    }
}

/// The message-id owner of one worker incarnation. A restarted worker
/// must not reuse its crashed incarnation's ids: the AM's dedup filter
/// still holds them and would drop the new incarnation's messages as
/// duplicates. The incarnation takes bits 24–30 (bit 31 marks the AM).
fn sender_owner(id: WorkerId, incarnation: u32) -> u32 {
    (16 + id.0) | ((incarnation & 0x7f) << 24)
}

/// Registers worker `id`'s bus endpoint and wraps it in the reliable
/// layer for incarnation `incarnation`. Call on the spawning side, so the
/// endpoint exists before the AM can address the worker. Workers retry
/// forever; the AM decides who is dead.
pub(crate) fn worker_endpoint(
    bus: &Bus,
    id: WorkerId,
    incarnation: u32,
    ctrl: &SharedControl,
) -> ReliableEndpoint {
    ReliableEndpoint::new(
        bus.clone(),
        bus.register(EndpointId::Worker(id)),
        sender_owner(id, incarnation),
        RETRY_TIMEOUT,
        None,
        Arc::clone(&ctrl.obs.rt),
    )
}

/// The fencing term carried by an AM-originated control message, if any.
fn msg_term(msg: &RtMsg) -> Option<u64> {
    match msg {
        RtMsg::Proceed { term, .. }
        | RtMsg::Park { term, .. }
        | RtMsg::TransferOrder { term, .. }
        | RtMsg::Resume { term, .. }
        | RtMsg::Leave { term }
        | RtMsg::CheckpointOrder { term, .. }
        | RtMsg::WitnessQuery { term, .. }
        | RtMsg::EpochAdvance { term, .. }
        | RtMsg::AmReset { term, .. } => Some(*term),
        _ => None,
    }
}

/// Applies the term fence to one received message: anything carrying a
/// term older than the highest this worker has seen came from a
/// superseded (possibly partitioned-but-alive) AM and is dropped with a
/// [`EventKind::StaleTermRejected`] journal entry; newer terms advance
/// the fence. Messages with no term (data plane, peer traffic) pass.
fn fence(highest_term: &mut u64, msg: RtMsg, rep: &ReliableEndpoint) -> Option<RtMsg> {
    match msg_term(&msg) {
        Some(t) if t < *highest_term => {
            if let Some(journal) = rep.bus().journal() {
                journal.emit(EventKind::StaleTermRejected {
                    term: *highest_term,
                    stale: t,
                });
            }
            None
        }
        Some(t) => {
            *highest_term = t;
            Some(msg)
        }
        None => Some(msg),
    }
}

/// True (and rearms the timer) when a heartbeat is due.
///
/// A fresh timer (`None`) fires immediately — which is how the worker
/// beacons at startup *without* back-dating a timestamp. (The old code
/// subtracted `hb_period` from the current wall-clock reading to fake an
/// overdue timer, which underflows near the epoch and reads the clock
/// twice; on a virtual clock at t=0 it would simply panic.)
fn heartbeat_due(last: &mut Option<SimTime>, now: SimTime, period: SimDuration) -> bool {
    match *last {
        Some(at) if now.saturating_duration_since(at) < period => false,
        _ => {
            *last = Some(now);
            true
        }
    }
}

/// Runs worker `id` until it leaves the job (or until a chaos test
/// orders it to play dead, in which case it exits *silently* — a crashed
/// process does not say goodbye).
///
/// The worker publishes [`WorkerView`]s into `telemetry` every iteration
/// and marks itself not-alive when it leaves.
pub(crate) fn run_worker(
    id: WorkerId,
    cfg: RuntimeConfig,
    rep: ReliableEndpoint,
    comm: Arc<CommGroup>,
    telemetry: Telemetry,
    role: WorkerRole,
    ctrl: Arc<SharedControl>,
) {
    let mut worker = Worker {
        link: Link {
            id,
            time: rep.time().clone(),
            rep,
            ctrl,
            hb_period: std_to_sim(HB_PERIOD),
            tick: TICK,
            last_hb: None,
            highest_term: 0,
        },
        params: vec![0.5; cfg.param_elems],
        momentum: vec![0.0; cfg.param_elems],
        grad: vec![0.0; cfg.param_elems],
        iteration: 0,
        data_cursor: 0,
        params_checksum: 0,
        stalled: Duration::ZERO,
        last_seen_gen: comm.generation(),
        bounds: Bounds::new(cfg.coordination_interval, 0),
        cfg,
        comm,
        telemetry,
    };
    match &role {
        WorkerRole::Restored {
            params,
            momentum,
            iteration,
            data_cursor,
        } => {
            worker.params.copy_from_slice(params);
            worker.momentum.copy_from_slice(momentum);
            worker.iteration = *iteration;
            worker.data_cursor = *data_cursor;
        }
        WorkerRole::Rejoin { term, iteration } => {
            worker.link.highest_term = *term;
            worker.iteration = *iteration;
        }
        _ => {}
    }
    if let Err(Exit::Left) = worker.work(&role) {
        worker.publish(false);
    }
}

/// How a worker's run ends.
enum Exit {
    /// It left the job — a `Leave`, an eviction, or a shutdown while it
    /// still waited for admission — and publishes its final view.
    Left,
    /// Chaos killed it: it vanishes without a word.
    Crashed,
}

/// The worker's IO half: its endpoint, its liveness beacon and its term
/// fence. Every wait on the AM is a loop of [`beat`](Self::beat) then
/// [`pump`](Self::pump)`(true)`; a drain of what already arrived is
/// `pump(false)` until it returns `None`.
struct Link {
    id: WorkerId,
    rep: ReliableEndpoint,
    time: TimeSource,
    ctrl: Arc<SharedControl>,
    hb_period: SimDuration,
    /// Receive-poll granularity (also paces retry ticks while parked).
    tick: Duration,
    /// A fresh (`None`) timer beacons immediately so the failure
    /// detector sees the worker early.
    last_hb: Option<SimTime>,
    /// Highest fencing term observed; stale-term AM traffic is dropped.
    highest_term: u64,
}

impl Link {
    fn crashed(&self) -> bool {
        self.ctrl.worker_crashed(self.id)
    }

    /// Keeps the worker alive on the wire: stops a crashed worker, runs
    /// the retry tracker (a joiner owed dropped `StateChunk`s may be the
    /// very member an allreduce waits on), and beacons a `Heartbeat` when
    /// one is due.
    fn beat(&mut self, iteration: u64) -> Result<(), Exit> {
        if self.crashed() {
            return Err(Exit::Crashed);
        }
        let _ = self.rep.tick();
        if heartbeat_due(&mut self.last_hb, self.time.now(), self.hb_period) {
            let beacon = RtMsg::Heartbeat {
                worker: self.id,
                iteration,
            };
            self.rep.send_unreliable(EndpointId::Am, beacon);
        }
        Ok(())
    }

    /// The next message past the term fence. With `wait` it blocks up to
    /// one tick and returns `None` on a timeout or a fenced message, so
    /// the caller beats again; without, it reads only what already
    /// arrived and returns `None` once the inbox is empty.
    fn pump(&mut self, wait: bool) -> Option<RtMsg> {
        loop {
            let (_, msg) = if wait {
                self.rep.recv_timeout(self.tick)?
            } else {
                self.rep.try_recv()?
            };
            let msg = fence(&mut self.highest_term, msg, &self.rep);
            if msg.is_some() || wait {
                return msg;
            }
        }
    }

    /// Sends `msg` to the AM, reliably.
    fn tell_am(&mut self, msg: RtMsg) {
        self.rep.send(EndpointId::Am, msg);
    }

    /// Time elapsed on this worker's clock since `at`.
    fn since(&self, at: SimTime) -> SimDuration {
        self.time.now().saturating_duration_since(at)
    }

    fn note(&self, kind: EventKind) {
        if let Some(journal) = self.rep.bus().journal() {
            journal.emit(kind);
        }
    }
}

/// One worker incarnation: its IO half and the training state each SGD
/// step advances.
struct Worker {
    link: Link,
    cfg: RuntimeConfig,
    comm: Arc<CommGroup>,
    telemetry: Telemetry,
    params: Vec<f32>,
    momentum: Vec<f32>,
    grad: Vec<f32>,
    iteration: u64,
    data_cursor: u64,
    /// See [`WorkerView::params_checksum`].
    params_checksum: u64,
    /// See [`WorkerView::stalled`].
    stalled: Duration,
    /// Resume-wave staleness guard: only newer generations un-park us.
    last_seen_gen: u64,
    bounds: Bounds,
}

impl Worker {
    /// Enters the job, then trains until it exits. Only returns an exit.
    fn work(&mut self, role: &WorkerRole) -> Result<Infallible, Exit> {
        if matches!(
            role,
            WorkerRole::Joining | WorkerRole::Rejoin { .. } | WorkerRole::OpenJoin { .. }
        ) {
            self.enter(role)?;
        }
        self.publish(true);
        // Training starts (or resumes) at a boundary the AM has released.
        self.bounds.released = self.iteration;
        // AM messages read while blocked in an allreduce, served at the
        // next boundary.
        let mut held = Vec::new();
        loop {
            let recalled = self.iterate(&mut held)?;
            if self
                .iteration
                .is_multiple_of(self.cfg.coordination_interval)
            {
                self.at_boundary(recalled, &mut held)?;
            }
        }
    }

    /// Step ②: reports readiness after "initialization" (the buffer
    /// allocation), then waits for state replication (step ④) and the
    /// `Resume` that starts training. Rejoiners announce with their crash
    /// credentials instead.
    fn enter(&mut self, role: &WorkerRole) -> Result<(), Exit> {
        let open_join = matches!(role, WorkerRole::OpenJoin { .. });
        // The epoch the AM last announced; JoinRequests carry it so the
        // machine can tell a fresh announce from a stale one.
        let mut known_epoch: u64 = 0;
        let mut have_state = false;
        let mut last_announce = self.announce(role, known_epoch, have_state);
        let mut pending_resume: Option<u64> = None;
        let mut assembly = SnapshotAssembly::new();
        loop {
            if open_join && self.link.ctrl.shutting_down() {
                // A deferred or window-parked joiner is not a member: the
                // AM's `Stop` never sends it a `Leave`, so it must notice
                // the shutdown itself or the teardown join would hang.
                return Err(if self.link.crashed() {
                    Exit::Crashed
                } else {
                    Exit::Left
                });
            }
            self.link.beat(self.iteration)?;
            // Re-announce at heartbeat cadence until state arrives. The
            // transport retries each announce, but its budget is finite: a
            // joiner whose one-shot Report falls inside a partition window
            // longer than the retry budget would otherwise wait silently
            // forever — the AM that eventually serves the adjustment has
            // never heard of it (the joiner predates the AM's AmReset
            // audience). Report/Rejoin/JoinRequest are idempotent at the
            // AM, so fresh announces are always safe. An open joiner keeps
            // announcing even after state lands: its digest claim may have
            // died with a failed-over AM, and a deferred joiner must
            // re-present itself at the next epoch's window.
            if (!have_state || open_join) && self.link.since(last_announce) >= self.link.hb_period {
                last_announce = self.announce(role, known_epoch, have_state);
            }
            let Some(msg) = self.link.pump(true) else {
                continue;
            };
            match msg {
                RtMsg::StateChunk {
                    kind,
                    iteration,
                    data_cursor,
                    index,
                    total,
                    offset,
                    data,
                } => {
                    // Chunks assemble incrementally; a duplicate stream
                    // from an AM-recovery replay is harmless (state is
                    // bit-identical at a boundary) and dedup'd per chunk.
                    // Never step backwards.
                    let Some((it, dc)) = assembly.offer(
                        kind,
                        iteration,
                        data_cursor,
                        index,
                        total,
                        offset,
                        &data,
                        &mut self.params,
                        &mut self.momentum,
                    ) else {
                        continue;
                    };
                    self.link.note(EventKind::SnapshotApplied {
                        worker: self.link.id,
                        iteration: it,
                    });
                    if it >= self.iteration {
                        self.iteration = it;
                        self.data_cursor = dc;
                        have_state = true;
                    }
                    if open_join && have_state {
                        // Claim the warmup digest right away — the
                        // witness round gates the whole cohort's resume,
                        // so don't wait out a heartbeat.
                        last_announce = self.announce(role, known_epoch, have_state);
                    }
                    if let Some(generation) = pending_resume.take() {
                        self.last_seen_gen = generation;
                        return Ok(());
                    }
                }
                RtMsg::Resume { generation, .. } if generation > self.last_seen_gen => {
                    if have_state {
                        self.last_seen_gen = generation;
                        return Ok(());
                    }
                    // Resume overtook the transfer (reordered bus): hold it
                    // until the state lands.
                    pending_resume = Some(pending_resume.map_or(generation, |g| g.max(generation)));
                }
                RtMsg::Leave { .. } => return Err(Exit::Left),
                // Track the AM's announced epoch so (re-)announces carry a
                // current window reference.
                RtMsg::EpochAdvance { epoch, .. } => known_epoch = known_epoch.max(epoch),
                // An admitted joiner is a member of the epoch machine
                // before its `Resume`, so it can be sampled as a witness:
                // it holds the boundary state it was sent.
                RtMsg::WitnessQuery {
                    subject,
                    epoch,
                    probe,
                    ..
                } if have_state => self.witness(subject, epoch, probe),
                // A replacement AM solicits state afresh (§V-D).
                RtMsg::AmReset { .. } => {
                    last_announce = self.announce(role, known_epoch, have_state);
                }
                _ => {}
            }
        }
    }

    /// (Re-)announces this worker to the AM: joiners report readiness,
    /// rejoiners present their crash incarnation's credentials, and
    /// open-membership joiners send `JoinRequest` — carrying their warmup
    /// digest claim once state has landed. Returns when it announced.
    fn announce(&mut self, role: &WorkerRole, epoch: u64, have_state: bool) -> SimTime {
        let worker = self.link.id;
        let msg = match role {
            WorkerRole::Rejoin { .. } => RtMsg::Rejoin {
                worker,
                term: self.link.highest_term,
                iteration: self.iteration,
            },
            WorkerRole::OpenJoin { corrupt } => RtMsg::JoinRequest {
                worker,
                epoch,
                digest: have_state.then(|| {
                    // Fault injection: flip digest bits so witnesses
                    // must evict.
                    let mask = if *corrupt { 0xdead_beef_u64 } else { 0 };
                    state_digest(&self.params, &self.momentum) ^ mask
                }),
            },
            _ => RtMsg::Report { worker },
        };
        self.link.tell_am(msg);
        self.link.time.now()
    }

    /// One training iteration: the synthetic forward/backward, the
    /// gradient allreduce and the SGD step. Returns whether the AM
    /// recalled the worker to the boundary this round followed.
    fn iterate(&mut self, held: &mut Vec<RtMsg>) -> Result<bool, Exit> {
        self.link.beat(self.iteration)?;
        // Forward/backward: the synthetic kernel. The optional compute
        // cost parks this worker so the virtual clock can advance while
        // the cohort trains (time.sleep may return early on a wake; that
        // only shortens the pause, never blocks progress).
        if self.cfg.compute_us != 0 {
            self.link
                .time
                .sleep(Duration::from_micros(self.cfg.compute_us));
        }
        gradient(self.link.id, self.iteration, &mut self.grad);
        // Gradient aggregation over the collective group. The group picks
        // the engine (flat / chunked / hierarchical) per round from the
        // contributor set and vector length; workers just contribute and
        // help. While blocked on slower members we keep heartbeating so
        // the failure detector can tell a victim from its hostages, and
        // read the AM's messages (served at the next boundary): a park
        // order at the boundary this round follows recalls us to it,
        // because a member that crashed there holds the round forever.
        let (iteration, interval) = (self.iteration, self.cfg.coordination_interval);
        let outcome = self.comm.allreduce_with(self.link.id, &self.grad, || {
            if self.link.beat(iteration).is_err() {
                return false;
            }
            let mut recall = false;
            while let Some(msg) = self.link.pump(false) {
                match msg {
                    RtMsg::Park { boundary, .. } => {
                        recall |= boundary == iteration && iteration.is_multiple_of(interval);
                    }
                    // A successor never saw the boundary we passed.
                    RtMsg::AmReset { .. } if iteration >= interval => {
                        let passed = RtMsg::Passed {
                            worker: self.link.id,
                            boundary: iteration - iteration % interval,
                        };
                        self.link.tell_am(passed);
                    }
                    _ => {}
                }
                held.push(msg);
            }
            recall
        });
        match outcome {
            AllreduceOutcome::Sum { sum, world } => {
                self.bounds.coupled(world);
                // Optimizer step: SGD with momentum on the averaged
                // gradient. The world size is the one captured with this
                // round's sum, so an eviction mid-round cannot skew the
                // average.
                let world = world.max(1) as f32;
                let lr = self.cfg.learning_rate;
                for ((w, m), &s) in self.params.iter_mut().zip(&mut self.momentum).zip(&*sum) {
                    *m = 0.9 * *m + s / world;
                    *w -= lr * *m;
                }
                self.iteration += 1;
                self.data_cursor += self.cfg.total_batch as u64;
                if self.link.crashed() {
                    return Err(Exit::Crashed);
                }
                self.publish(true);
                Ok(false)
            }
            // Recalled: back to the boundary this round followed, where
            // the AM ordered us to park.
            AllreduceOutcome::Withdrawn => Ok(true),
            // Evicted (declared dead) or membership changed without a
            // Leave: exit quietly rather than deadlock the group.
            AllreduceOutcome::NotMember if self.link.crashed() => Err(Exit::Crashed),
            // Or we already contributed to this round — a protocol bug (or
            // a replayed thread). The group rejected the second
            // contribution rather than overwriting the first; exit rather
            // than train on a sum we never observed.
            AllreduceOutcome::NotMember | AllreduceOutcome::DuplicateContribution => {
                Err(Exit::Left)
            }
        }
    }

    /// Coordination boundary (step ③): serves what the AM sent while the
    /// worker trained, then passes or parks.
    fn at_boundary(&mut self, recalled: bool, held: &mut Vec<RtMsg>) -> Result<(), Exit> {
        let (id, iteration) = (self.link.id, self.iteration);
        let term = self.link.highest_term;
        if !recalled && self.link.ctrl.fire_boundary_crash(id, term, iteration) {
            // Chaos-injected crash: die silently after the SGD step but
            // before reporting, leaving the boundary hanging. The
            // restarted incarnation presents the recorded credentials.
            return Err(Exit::Crashed);
        }
        // Transfers and checkpoints at this boundary share one snapshot.
        let mut chunks = None;
        let mut held = held.drain(..);
        while let Some(msg) = held.next().or_else(|| self.link.pump(false)) {
            self.serve(msg, false, &mut chunks)?;
        }
        // A recall stands until the AM releases the boundary; a recalled
        // worker already reported passing it.
        let park = if recalled {
            self.bounds.released < iteration
        } else {
            self.bounds.parks_at(iteration)
        };
        if !park {
            if !recalled {
                let passed = RtMsg::Passed {
                    worker: id,
                    boundary: iteration,
                };
                self.link.tell_am(passed);
            }
            return Ok(());
        }
        let parked_at = self.link.time.now();
        self.link.note(EventKind::WorkerParked {
            worker: id,
            boundary: iteration,
        });
        self.link.tell_am(RtMsg::Coordinate {
            worker: id,
            iteration,
        });
        let mut released = Ok(false);
        while let Ok(false) = released {
            self.link.beat(iteration)?;
            if let Some(msg) = self.link.pump(true) {
                released = self.serve(msg, true, &mut chunks);
            }
        }
        self.stalled += sim_to_std(self.link.since(parked_at));
        released.map(drop)
    }

    /// Serves one AM message at this boundary. Release tokens update
    /// `bounds`; a parked worker is released (`Ok(true)`) by the
    /// `Proceed` of its own boundary, a park order further on, or a fresh
    /// `Resume`. `chunks` is the boundary's snapshot, built on the first
    /// transfer or checkpoint order and `Arc`-shared across destinations.
    fn serve(
        &mut self,
        msg: RtMsg,
        parked: bool,
        chunks: &mut Option<Vec<PreparedChunk>>,
    ) -> Result<bool, Exit> {
        let (id, iteration) = (self.link.id, self.iteration);
        match msg {
            // Only the release of *this* boundary counts — a
            // chaos-delayed Proceed from an earlier round is stale.
            RtMsg::Proceed { boundary, .. } => {
                self.bounds.released = self.bounds.released.max(boundary);
                return Ok(boundary == iteration);
            }
            RtMsg::Park { boundary, .. } => {
                self.bounds.park_at = self.bounds.park_at.max(boundary);
                return Ok(boundary > iteration);
            }
            RtMsg::Resume { generation, .. } if generation > self.last_seen_gen => {
                self.last_seen_gen = generation;
                self.bounds.released = self.bounds.released.max(iteration);
                return Ok(true);
            }
            RtMsg::TransferOrder { dst, .. } => {
                // Step ④: stream training state to the joiner as
                // interleaved params/momentum chunks.
                self.stream(EndpointId::Worker(dst), chunks);
                self.link.tell_am(RtMsg::TransferDone { src: id, dst });
            }
            RtMsg::CheckpointOrder { .. } => {
                // The S&R path, live: stream the snapshot to the
                // controller, chunked like any other replication.
                self.stream(EndpointId::Controller, chunks);
                self.link.tell_am(RtMsg::TransferDone { src: id, dst: id });
            }
            // Witness step: every member is parked at the boundary the
            // joiner's state was streamed from, so an honest claim matches
            // our boundary state bit-exactly.
            RtMsg::WitnessQuery {
                subject,
                epoch,
                probe,
                ..
            } => self.witness(subject, epoch, probe),
            RtMsg::Leave { .. } => return Err(Exit::Left),
            RtMsg::AmReset { .. } if parked => {
                // A replacement AM lost its predecessor's inbox:
                // re-announce that we are parked at this boundary.
                self.link.tell_am(RtMsg::Coordinate {
                    worker: id,
                    iteration,
                });
            }
            _ => {}
        }
        Ok(false)
    }

    /// Streams this boundary's snapshot to `to`, building its chunks on
    /// first use.
    fn stream(&mut self, to: EndpointId, chunks: &mut Option<Vec<PreparedChunk>>) {
        let chunks = chunks.get_or_insert_with(|| {
            build_state_chunks(
                &self.params,
                &self.momentum,
                self.cfg.replication_chunk_elems,
            )
        });
        send_snapshot(
            &mut self.link.rep,
            to,
            chunks,
            self.iteration,
            self.data_cursor,
        );
        self.link.note(EventKind::SnapshotStreamed {
            worker: self.link.id,
            chunks: chunks.len() as u32,
        });
    }

    /// Votes on a joiner's claimed digest `probe` with the digest of the
    /// state this worker holds.
    fn witness(&mut self, subject: WorkerId, epoch: u64, probe: u64) {
        let held = state_digest(&self.params, &self.momentum);
        let vote = RtMsg::WitnessVote {
            witness: self.link.id,
            subject,
            epoch,
            admit: probe == held,
            digest: held,
        };
        self.link.tell_am(vote);
    }

    fn publish(&mut self, alive: bool) {
        if !alive
            || self
                .iteration
                .is_multiple_of(self.cfg.coordination_interval)
        {
            self.params_checksum = checksum(&self.params);
        }
        let view = WorkerView {
            iteration: self.iteration,
            data_cursor: self.data_cursor,
            params_checksum: self.params_checksum,
            alive,
            stalled: self.stalled,
        };
        self.telemetry.lock().insert(self.link.id, view);
    }
}

/// What the AM has said about the boundaries ahead of one worker.
#[derive(Debug, Clone, Copy)]
struct Bounds {
    /// Iterations between coordination boundaries.
    interval: u64,
    /// The highest boundary the AM released (`Proceed`) or resumed
    /// training at.
    released: u64,
    /// The boundary of the latest park order (`Park`); 0 before any.
    park_at: u64,
    /// How far past the last release the worker may pass boundaries.
    slack: u64,
}

impl Bounds {
    fn new(interval: u64, released: u64) -> Self {
        Bounds {
            interval,
            released,
            park_at: 0,
            slack: 0,
        }
    }

    /// Sets the slack from the world of the last allreduce round. A
    /// collective shared with other members holds every member within one
    /// iteration of the slowest, so one interval of slack covers the
    /// release's round trip. A worker that trains alone (a worker
    /// process's own group) has only the release to hold it to the
    /// others, and gets none: a lead over the slowest member is what an
    /// adjustment would have to wait out (DESIGN.md §19).
    fn coupled(&mut self, world: u32) {
        self.slack = if world > 1 { self.interval } else { 0 };
    }

    /// Whether the worker parks at boundary `b`: where a park is
    /// ordered, or past the last release by more than the slack. A park
    /// order further on lets the worker pass every boundary short of it.
    fn parks_at(&self, b: u64) -> bool {
        if self.park_at >= b {
            self.park_at == b
        } else {
            b > self.released + self.slack
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gradient_is_deterministic_and_shard_specific() {
        let mut a = vec![0.0; 16];
        let mut b = vec![0.0; 16];
        gradient(WorkerId(0), 5, &mut a);
        gradient(WorkerId(0), 5, &mut b);
        assert_eq!(a, b);
        gradient(WorkerId(1), 5, &mut b);
        assert_ne!(a, b);
        gradient(WorkerId(0), 6, &mut b);
        assert_ne!(a, b);
    }

    #[test]
    fn checksum_detects_differences() {
        let a = vec![1.0f32, 2.0, 3.0];
        let mut b = a.clone();
        assert_eq!(checksum(&a), checksum(&b));
        b[1] = 2.0000002;
        assert_ne!(checksum(&a), checksum(&b));
    }

    #[test]
    fn gradient_values_are_bounded() {
        let mut g = vec![0.0; 256];
        gradient(WorkerId(3), 99, &mut g);
        assert!(g.iter().all(|v| (-0.5..=0.5).contains(v)));
    }

    #[test]
    fn chunked_snapshot_roundtrips_out_of_order_with_duplicates() {
        let params: Vec<f32> = (0..100).map(|i| i as f32).collect();
        let momentum: Vec<f32> = (0..100).map(|i| -(i as f32)).collect();
        let chunks = build_state_chunks(&params, &momentum, 33);
        assert_eq!(chunks.len(), 2 * 4); // ceil(100/33) chunks per stream
        let mut p = vec![0.0f32; 100];
        let mut m = vec![0.0f32; 100];
        let mut asm = SnapshotAssembly::new();
        let mut finished = None;
        // Deliver in reverse order, every chunk twice (chaos reorder+dup).
        for &(kind, index, total, offset, ref data) in chunks.iter().rev() {
            for _ in 0..2 {
                if let Some(done) =
                    asm.offer(kind, 7, 42, index, total, offset, data, &mut p, &mut m)
                {
                    assert!(finished.is_none(), "completed twice");
                    finished = Some(done);
                }
            }
        }
        assert_eq!(finished, Some((7, 42)));
        assert_eq!(p, params);
        assert_eq!(m, momentum);
    }

    #[test]
    fn snapshot_assembly_restarts_on_newer_and_ignores_stale() {
        let old = vec![1.0f32; 10];
        let new = vec![2.0f32; 10];
        let mut p = vec![0.0f32; 10];
        let mut m = vec![0.0f32; 10];
        let mut asm = SnapshotAssembly::new();
        let old_chunks = build_state_chunks(&old, &old, 10);
        let new_chunks = build_state_chunks(&new, &new, 10);
        // One chunk of the old snapshot lands first…
        let (k, i, t, o, ref d) = old_chunks[0];
        assert!(asm.offer(k, 5, 0, i, t, o, d, &mut p, &mut m).is_none());
        // …then the new snapshot completes…
        let mut done = None;
        for &(k, i, t, o, ref d) in &new_chunks {
            if let Some(f) = asm.offer(k, 10, 99, i, t, o, d, &mut p, &mut m) {
                done = Some(f);
            }
        }
        assert_eq!(done, Some((10, 99)));
        assert_eq!(p, new);
        // …and a stale replay of the old one cannot clobber it.
        for &(k, i, t, o, ref d) in &old_chunks {
            assert!(asm.offer(k, 5, 0, i, t, o, d, &mut p, &mut m).is_none());
        }
        assert_eq!(p, new);
        assert_eq!(m, new);
    }

    #[test]
    fn workers_park_where_ordered_or_a_whole_interval_ahead() {
        let mut b = Bounds::new(5, 10);
        // Alone, every boundary past the last release is a park.
        assert!(b.parks_at(15));
        b.coupled(2);
        // Within one interval of the last release: pass.
        assert!(!b.parks_at(15));
        // More than one interval past it: park on skew.
        assert!(b.parks_at(20));
        // A park order ahead authorises every boundary short of it...
        b.park_at = 30;
        assert!(!b.parks_at(20));
        assert!(!b.parks_at(25));
        // ...and the worker parks exactly at it.
        assert!(b.parks_at(30));
        // A missed order (already passed) falls back to the skew rule.
        assert!(b.parks_at(35));
        b.released = 30;
        assert!(!b.parks_at(35));
    }

    #[test]
    fn a_stale_term_park_is_dropped_and_journalled() {
        use crate::bus::Bus;
        use crate::obs::EventJournal;
        use crate::reliable::RtMetrics;
        use crate::transport::MemoryTransport;

        let journal = Arc::new(EventJournal::new(16, Vec::new()));
        let transport = MemoryTransport::new(None, Some(Arc::clone(&journal)), TimeSource::real());
        let bus = Bus::with_transport(Arc::new(transport));
        let rep = ReliableEndpoint::new(
            bus.clone(),
            bus.register(EndpointId::Worker(WorkerId(0))),
            16,
            Duration::from_millis(20),
            None,
            Arc::new(RtMetrics::default()),
        );
        let mut highest = 3;
        let stale = RtMsg::Park {
            boundary: 40,
            term: 2,
        };
        assert!(fence(&mut highest, stale, &rep).is_none());
        assert_eq!(highest, 3);
        let current = RtMsg::Park {
            boundary: 45,
            term: 3,
        };
        assert!(matches!(
            fence(&mut highest, current, &rep),
            Some(RtMsg::Park { boundary: 45, .. })
        ));
        let rejected: Vec<EventKind> = journal.events().into_iter().map(|e| e.kind).collect();
        assert_eq!(
            rejected,
            [EventKind::StaleTermRejected { term: 3, stale: 2 }]
        );
    }

    #[test]
    fn heartbeat_timer_rearms() {
        let period = SimDuration::from_millis(50);
        let mut last = Some(SimTime::ZERO);
        // 100ms after the last beacon: due, and the timer rearms to `now`.
        let now = SimTime::ZERO + SimDuration::from_millis(100);
        assert!(heartbeat_due(&mut last, now, period));
        assert_eq!(last, Some(now));
        assert!(!heartbeat_due(&mut last, now, period));
        // Exactly one period later: due again.
        assert!(heartbeat_due(&mut last, now + period, period));
    }

    #[test]
    fn fresh_heartbeat_timer_fires_immediately_even_at_the_epoch() {
        // Regression: the worker used to fake "already overdue" by
        // back-dating a wall-clock reading one period into the past — on a
        // clock whose epoch is t=0 (the virtual clock) that subtraction
        // underflows. A `None` timer must be due at t=0 with no arithmetic.
        let period = SimDuration::from_millis(50);
        let mut last: Option<SimTime> = None;
        assert!(heartbeat_due(&mut last, SimTime::ZERO, period));
        assert_eq!(last, Some(SimTime::ZERO));
        assert!(!heartbeat_due(&mut last, SimTime::ZERO, period));
    }
}
