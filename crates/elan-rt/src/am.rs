//! The application master's decision core (§V-B, §V-D).
//!
//! [`AmCore`] is the AM as a pure state machine: [`AmCore::step`] takes
//! one [`Event`] plus what the driver read just before it ([`Now`]) and
//! appends the [`Action`]s the AM takes, in order. It drives the 5-step
//! adjustment, failure-driven scale-ins, checkpoints, stops, rejoins and
//! (with open membership) the [`EpochMachine`] it owns. It holds no
//! clock, lock, channel, bus or communication group: its driver
//! (`am/driver.rs`) owns those and runs each action list in order.
//!
//! Persist-before-act and term fencing are properties of the action list,
//! checked by the unit tests below on seeded random event sequences.

use std::collections::{BTreeMap, BTreeSet};

use elan_core::obs::AdjustmentPhase;
use elan_core::protocol::EpochPhase;
use elan_core::state::WorkerId;
use elan_sim::SimTime;
use elan_topology::{ClusterSpec, GpuId, ReplicationPlanner, Topology};

use crate::bus::{EndpointId, RtMsg};
use crate::epoch::{EpochCmd, EpochConfig, EpochMachine};
use crate::liveness::{AmDurable, AmPhase, CrashPoint, HeartbeatMonitor, PendingOp};
use crate::obs::{BoundaryAct, Emit, EventKind, Span, TraceKind};

pub(crate) mod driver;

/// What the driver read just before a step.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Now {
    /// The runtime clock (heartbeats, journal timestamps).
    pub(crate) at: SimTime,
    /// The store's fencing term: a core whose own term is older was
    /// superseded, so every persist it orders will be rejected.
    pub(crate) term: u64,
    /// The collective's generation.
    pub(crate) generation: u64,
}

impl Now {
    fn us(&self) -> u64 {
        self.at.as_nanos() / 1_000
    }
}

/// An input to the AM.
#[derive(Debug)]
pub(crate) enum Event {
    /// A message arrived.
    Message(EndpointId, RtMsg),
    /// The reliable layer gave up on a send to this worker.
    GaveUp(WorkerId),
    /// Heartbeat-silence verdicts, the epoch machine's timers, then
    /// pipeline progress.
    Tick,
    /// The drain ordered by [`Action::DrainAndStop`] finished.
    Drained,
}

/// An effect the AM orders.
#[derive(Debug, Clone)]
pub(crate) enum Action {
    /// Write the record through the term fence. `checked`: the actions
    /// after this one depend on the write, so when the store rejects it
    /// (a successor bumped the term after the step began) the step ends
    /// here. Any other rejection only latches the fence.
    Persist { record: AmDurable, checked: bool },
    /// Send over the reliable layer.
    Send(EndpointId, RtMsg),
    /// Journal an event at a timestamp (µs).
    Emit(u64, EventKind),
    /// Record (and journal) an adjustment-span transition at a timestamp.
    Trace(u64, Span),
    /// Evict a dead worker from the collective so no survivor blocks.
    Evict(WorkerId),
    /// Move the collective to these members at this generation, unless
    /// an earlier incarnation already did.
    Reconfigure(u64, Vec<WorkerId>),
    /// Publish the authoritative membership to the controller.
    PublishMembers(Vec<WorkerId>),
    /// Count a failure- (or rejoin-) driven adjustment.
    CountFailureScaleIn,
    /// If this crash point is armed, die here without cleanup.
    Crash(CrashPoint),
    /// Drain outstanding sends (a stop's `Leave`s), step
    /// [`Event::Drained`], and end the incarnation — surrendering the
    /// lease unless the fence rejected the stop.
    DrainAndStop,
}

/// One step's actions, in order; the driver reuses one list for every
/// step.
#[derive(Debug, Default)]
pub(crate) struct Actions(Vec<Action>);

impl Actions {
    pub(crate) fn drain(&mut self) -> std::vec::Drain<'_, Action> {
        self.0.drain(..)
    }

    fn push(&mut self, action: Action) {
        self.0.push(action);
    }

    fn send(&mut self, to: EndpointId, msg: RtMsg) {
        self.0.push(Action::Send(to, msg));
    }

    fn trace(&mut self, at_us: u64, span: Span) {
        self.0.push(Action::Trace(at_us, span));
    }
}

impl Emit for Actions {
    fn emit_at(&mut self, at_us: u64, kind: EventKind) {
        self.0.push(Action::Emit(at_us, kind));
    }
}

/// The replication planner's cluster: 512 GPU slots, more than any one
/// adjustment involves (see [`place_past_capacity`]).
fn planning_topology() -> Topology {
    ClusterSpec::new(64, 2, 2, 2).build() // 512 GPU slots
}

/// Moves the workers of one replication plan whose ids lie past the
/// planning topology's `capacity` onto the lowest slots no other worker of
/// the plan holds, and returns `(slot, worker)` for each one moved. Every
/// id below `capacity` keeps the slot of the same number, so no plan (and
/// no journal) of a job that never allocated that many ids changes. Ids
/// are never reused, so a long-lived job outgrows the slot count without
/// ever holding that many workers at once.
fn place_past_capacity(
    sources: &mut [GpuId],
    dests: &mut [GpuId],
    capacity: u32,
) -> Vec<(GpuId, WorkerId)> {
    let mut moved = Vec::new();
    let taken: BTreeSet<u32> = sources.iter().chain(dests.iter()).map(|g| g.0).collect();
    let mut free = (0..capacity).filter(|slot| !taken.contains(slot));
    for gpu in sources.iter_mut().chain(dests.iter_mut()) {
        // With every slot held the id stays out of the topology, and the
        // planner reports it as unknown.
        if gpu.0 >= capacity {
            if let Some(slot) = free.next() {
                moved.push((GpuId(slot), WorkerId(gpu.0)));
                *gpu = GpuId(slot);
            }
        }
    }
    moved
}

/// The worker a planned transfer endpoint stands for (see
/// [`place_past_capacity`]).
fn slot_owner(moved: &[(GpuId, WorkerId)], slot: GpuId) -> WorkerId {
    moved
        .iter()
        .find(|&&(s, _)| s == slot)
        .map_or(WorkerId(slot.0), |&(_, w)| w)
}

/// One AM incarnation's protocol state machine and failure detector.
#[derive(Debug)]
pub(crate) struct AmCore {
    /// The driver's readings for the step in progress.
    now: Now,
    /// The persist-before-act record (authoritative copy in the store).
    durable: AmDurable,
    hb: HeartbeatMonitor,
    /// Members declared dead this incarnation (volatile; re-detected by
    /// heartbeat silence after a failover).
    dead: BTreeSet<WorkerId>,
    /// Latched when a persist is rejected by the term fence: a successor
    /// owns the record and this incarnation must abdicate.
    fenced: bool,
    /// Crashed-and-restarted workers mid-`Rejoin` handshake: admitted,
    /// exempt from the boundary quorum, and owed a state transfer in
    /// the adjustment that folds them back in.
    rejoining: BTreeSet<WorkerId>,
    /// Iterations between coordination boundaries.
    interval: u64,
    /// Boundary iteration each live member is parked at, as far as the
    /// core knows: a park the core has already released (by `Proceed`
    /// or by a `Park` further on) is not in here.
    coordinated: BTreeMap<WorkerId, u64>,
    /// Highest boundary each member reported reaching, parked or passed.
    reached: BTreeMap<WorkerId, u64>,
    /// Boundary of the latest `Park` order. A park short of it is
    /// released by that order, so it never counts as parked.
    park_target: u64,
    /// The boundary a rejoining member crashed at, until the recall to it
    /// is ordered (see `order_park`).
    recall: Option<u64>,
    /// Boundary of the latest `Resume` wave. No park is ordered until
    /// every member reports a boundary past it: an order must not
    /// overtake a `Resume` on its way and release the park it ends.
    resumed_at: u64,
    /// Joiners that have reported readiness (step ②).
    reported: BTreeSet<WorkerId>,
    /// Transfer orders in flight: (src, dst).
    outstanding: BTreeSet<(WorkerId, WorkerId)>,
    /// The planner's wave schedule for the current `Transferring` phase:
    /// transfers within a wave share no contended link (GPU, same-node
    /// QPI/L3, NIC) and run concurrently; waves are issued in turn.
    transfer_waves: Vec<Vec<(WorkerId, WorkerId)>>,
    /// Next wave of `transfer_waves` to issue.
    next_wave: usize,
    /// False until this incarnation has issued the transfer orders of the
    /// current `Transferring` phase (a recovered AM re-issues them only
    /// once the boundary has been re-established by `AmReset` replies).
    transfers_started: bool,
    /// Last boundary released or adjusted at — stale `Coordinate`s at or
    /// below it are ignored.
    last_boundary: u64,
    /// A `Checkpoint{seq}` waiting for the next boundary.
    checkpoint_req: Option<u64>,
    /// A `CheckpointOrder{seq}` whose snapshot has not landed yet.
    awaiting_checkpoint: Option<u64>,
    topology: Topology,
    /// Open-membership epoch machine (`Some` iff the runtime was built
    /// with open membership): decides *when* joiners are admitted; the
    /// adjustment pipeline remains the mechanism that warms them up and
    /// folds them in.
    machine: Option<EpochMachine>,
}

impl AmCore {
    /// The incarnation at `epoch`, from the record its term bump returned.
    /// A successor rebuilds the epoch machine from the record and
    /// broadcasts `AmReset`, so parked workers re-send `Coordinate`,
    /// workers blocked in an allreduce re-send their last `Passed`, and
    /// joiners re-send `Report` (the paper's re-solicitation on restart).
    pub(crate) fn incarnate(
        epoch: u64,
        durable: AmDurable,
        interval: u64,
        open_membership: Option<EpochConfig>,
        hb: HeartbeatMonitor,
        now: Now,
        out: &mut Actions,
    ) -> Self {
        let (us, d) = (now.us(), &durable);
        let machine = open_membership.map(|cfg| match epoch {
            0 => EpochMachine::new(cfg, us, &d.members, out),
            _ => EpochMachine::recover(cfg, d.train_epoch, d.epoch_phase, &d.members, us),
        });
        let core = AmCore {
            now,
            durable,
            hb,
            dead: BTreeSet::new(),
            fenced: false,
            rejoining: BTreeSet::new(),
            interval,
            coordinated: BTreeMap::new(),
            reached: BTreeMap::new(),
            park_target: 0,
            resumed_at: 0,
            recall: None,
            reported: BTreeSet::new(),
            outstanding: BTreeSet::new(),
            transfer_waves: Vec::new(),
            next_wave: 0,
            transfers_started: false,
            last_boundary: 0,
            checkpoint_req: None,
            awaiting_checkpoint: None,
            topology: planning_topology(),
            machine,
        };
        if epoch > 0 {
            // The predecessor's inbox died with it.
            let term = core.durable.term;
            for w in core.audience() {
                out.send(EndpointId::Worker(w), RtMsg::AmReset { epoch, term });
            }
        }
        core
    }

    /// Whether the term fence rejected (or will reject) a persist: the
    /// incarnation must abdicate.
    pub(crate) fn fenced(&self) -> bool {
        self.fenced
    }

    /// Latches the fence after the store rejected a persist.
    pub(crate) fn fence(&mut self) {
        self.fenced = true;
    }

    pub(crate) fn step(&mut self, event: Event, now: Now, out: &mut Actions) {
        self.now = now;
        match event {
            Event::Message(from, msg) => {
                if let EndpointId::Worker(w) = from {
                    // Any traffic proves liveness, not just heartbeats.
                    self.hb.note(w, now.at);
                }
                self.handle(msg, out);
            }
            Event::GaveUp(w) => self.declare_dead(w, out),
            Event::Tick => {
                for w in self.hb.dead(&self.live(), now.at) {
                    self.declare_dead(w, out);
                }
                self.epoch_tick(out);
                self.try_progress(out);
            }
            Event::Drained => self.finish_stop(out),
        }
    }

    fn alive(&self, workers: &[WorkerId]) -> Vec<WorkerId> {
        workers
            .iter()
            .copied()
            .filter(|w| !self.dead.contains(w))
            .collect()
    }

    fn live(&self) -> Vec<WorkerId> {
        self.alive(&self.durable.members)
    }

    /// The in-flight and the queued op's targets.
    fn targets(&self) -> impl Iterator<Item = &WorkerId> {
        let in_flight = match &self.durable.phase {
            AmPhase::Transferring { target, .. } | AmPhase::Resuming { target, .. } => &target[..],
            AmPhase::Steady => &[],
        };
        in_flight
            .iter()
            .chain(self.durable.pending.iter().flat_map(|p| &p.target))
    }

    /// A broadcast's audience: members and targets, minus the dead.
    fn audience(&self) -> BTreeSet<WorkerId> {
        let all = self.durable.members.iter().chain(self.targets());
        all.filter(|w| !self.dead.contains(w)).copied().collect()
    }

    /// Drops `w` from the queued and the in-flight target.
    fn prune(&mut self, w: WorkerId) {
        if let Some(p) = &mut self.durable.pending {
            p.target.retain(|x| *x != w);
        }
        if let AmPhase::Transferring { target, .. } | AmPhase::Resuming { target, .. } =
            &mut self.durable.phase
        {
            target.retain(|x| *x != w);
        }
    }

    /// Forgets `w`'s volatile protocol state.
    fn forget(&mut self, w: WorkerId) {
        self.reported.remove(&w);
        self.rejoining.remove(&w);
        self.coordinated.remove(&w);
        self.reached.remove(&w);
        self.hb.forget(w);
    }

    /// Persist-before-act through the term fence, for a caller that acts
    /// on the outcome: false when a successor owns the record — the write
    /// will be rejected, the fence is latched, and the caller must not
    /// take the action the write guards.
    #[must_use]
    fn persist_fenced(&mut self, out: &mut Actions) -> bool {
        self.fence_write(out, true)
    }

    /// The same write for a caller that goes on either way; a rejection
    /// still latches the fence, and the next check abdicates.
    fn persist(&mut self, out: &mut Actions) {
        self.fence_write(out, false);
    }

    /// A core that knows its term is stale expects the rejection, so
    /// nothing it orders next depends on the write.
    fn fence_write(&mut self, out: &mut Actions, guards: bool) -> bool {
        if self.now.term > self.durable.term {
            self.fenced = true;
        }
        out.push(Action::Persist {
            record: self.durable.clone(),
            checked: guards && !self.fenced,
        });
        !self.fenced
    }

    /// Ticks the epoch machine's time-gated transitions. While the AM is
    /// busy (mid-adjustment, a queued op, a stop, or an outstanding
    /// checkpoint) the `WaitingForMembers` window is held open — a join
    /// cohort must never arm its warmup op under an in-flight one — but
    /// `Warmup` keeps ticking so deadline evictions still fire and a
    /// silent joiner cannot wedge the pipeline.
    fn epoch_tick(&mut self, out: &mut Actions) {
        let busy = !matches!(self.durable.phase, AmPhase::Steady)
            || self.durable.pending.is_some()
            || self.durable.stopping.is_some()
            || self.awaiting_checkpoint.is_some();
        let us = self.now.us();
        let Some(m) = self.machine.as_mut() else {
            return;
        };
        if busy && m.phase() == EpochPhase::WaitingForMembers {
            return;
        }
        let cmds = m.tick(us, out);
        self.epoch_cmds(cmds, out);
    }

    /// Carries out the epoch machine's decisions: warmup cohorts become
    /// pending adjustment ops, witness queries go out to members,
    /// evictions prune the joiner from every in-flight target and `Leave`
    /// it, and phase announcements persist the epoch record and fan out
    /// `EpochAdvance`.
    fn epoch_cmds(&mut self, cmds: Vec<EpochCmd>, out: &mut Actions) {
        for cmd in cmds {
            match cmd {
                EpochCmd::StartWarmup { joiners, .. } => {
                    let mut target: Vec<WorkerId> = self.durable.members.clone();
                    for w in joiners {
                        if !target.contains(&w) {
                            target.push(w);
                        }
                    }
                    target.sort_unstable();
                    self.durable.pending = Some(PendingOp { seq: None, target });
                    self.persist(out);
                }
                EpochCmd::QueryWitnesses {
                    epoch,
                    subject,
                    probe,
                    witnesses,
                } => {
                    let term = self.durable.term;
                    for w in witnesses {
                        let query = RtMsg::WitnessQuery {
                            subject,
                            epoch,
                            probe,
                            term,
                        };
                        out.send(EndpointId::Worker(w), query);
                    }
                }
                EpochCmd::Admit { .. } => {
                    // Admission is effected by the warmup op's `Resume`:
                    // the joiner is already in the op target.
                }
                EpochCmd::Evict { subject, .. } => {
                    self.prune(subject);
                    self.forget(subject);
                    // Persist the pruned targets before the externally
                    // visible dismissal.
                    if !self.persist_fenced(out) {
                        return;
                    }
                    let term = self.durable.term;
                    out.send(EndpointId::Worker(subject), RtMsg::Leave { term });
                }
                EpochCmd::Announce { epoch, phase } => {
                    self.durable.train_epoch = epoch;
                    self.durable.epoch_phase = phase;
                    if !self.persist_fenced(out) {
                        return;
                    }
                    let term = self.durable.term;
                    for w in self.audience() {
                        let advance = RtMsg::EpochAdvance { epoch, phase, term };
                        out.send(EndpointId::Worker(w), advance);
                    }
                }
            }
        }
    }

    fn handle(&mut self, msg: RtMsg, out: &mut Actions) {
        let us = self.now.us();
        match msg {
            RtMsg::AdjustTo { seq, target } => {
                if seq <= self.durable.seq_done {
                    // Duplicate of a completed op (AM failover replay).
                    out.send(EndpointId::Controller, RtMsg::Ack { seq });
                } else if self.in_flight_seq() == Some(seq)
                    || self
                        .durable
                        .pending
                        .as_ref()
                        .is_some_and(|p| p.seq == Some(seq))
                {
                    // Already queued or executing: ignore the duplicate.
                } else {
                    let target = self.alive(&target);
                    self.durable.pending = Some(PendingOp {
                        seq: Some(seq),
                        target,
                    });
                    if !self.persist_fenced(out) {
                        return;
                    }
                    // Step ① done: the AM owns the request; joiner reports
                    // (step ②) are what we wait for next.
                    out.trace(us, Span::PhaseEnd(AdjustmentPhase::Request));
                    out.trace(us, Span::PhaseStart(AdjustmentPhase::Report));
                }
            }
            RtMsg::Stop { seq } => {
                if seq <= self.durable.seq_done {
                    out.send(EndpointId::Controller, RtMsg::Ack { seq });
                } else if self.durable.stopping != Some(seq) {
                    self.durable.stopping = Some(seq);
                    self.persist(out);
                }
            }
            RtMsg::Checkpoint { seq } if self.awaiting_checkpoint.is_none() => {
                self.checkpoint_req = Some(seq);
            }
            // Joiners re-announce at heartbeat cadence until admitted; only
            // the first delivery is a protocol event (the guard's insert
            // returns false for repeats, which then fall through harmlessly).
            RtMsg::Report { worker } if self.reported.insert(worker) => {
                out.trace(us, Span::Report(worker));
            }
            RtMsg::Coordinate { worker, iteration } if iteration > self.last_boundary => {
                let fresh = self.reach(worker, iteration);
                // A park short of the standing order is released by it.
                if fresh && iteration >= self.park_target {
                    self.coordinated.insert(worker, iteration);
                }
            }
            RtMsg::Passed { worker, boundary } => {
                self.reach(worker, boundary);
                // A recalled worker parks at the boundary it passed, so
                // only a later boundary ends a park.
                if self
                    .coordinated
                    .get(&worker)
                    .is_some_and(|&at| at < boundary)
                {
                    self.coordinated.remove(&worker);
                }
            }
            RtMsg::TransferDone { src, dst } => {
                out.emit_at(us, EventKind::TransferDone { src, dst });
                if src == dst {
                    self.awaiting_checkpoint = None;
                } else {
                    self.outstanding.remove(&(src, dst));
                }
            }
            RtMsg::Rejoin {
                worker, iteration, ..
            } => self.handle_rejoin(worker, iteration, out),
            // An open-membership joiner announced itself (or re-claimed
            // its warmup digest). Pending joiners are marked `reported` so
            // the warmup adjustment can arm without a separate `Report`
            // round-trip. With open membership off this is a stray.
            RtMsg::JoinRequest { worker, digest, .. } => {
                if let Some(m) = self.machine.as_mut() {
                    let cmds = m.join_request(worker, digest, us, out);
                    self.epoch_cmds(cmds, out);
                    if self.machine.as_ref().is_some_and(|m| m.is_pending(worker)) {
                        self.reported.insert(worker);
                    }
                }
            }
            RtMsg::WitnessVote {
                witness,
                subject,
                epoch,
                admit,
                ..
            } => {
                if let Some(m) = self.machine.as_mut() {
                    let cmds = m.witness_vote(witness, subject, epoch, admit, us, out);
                    self.epoch_cmds(cmds, out);
                }
            }
            _ => {}
        }
    }

    /// Admits (or defers) a crashed-and-restarted worker's `Rejoin`
    /// handshake. Admission is deferred — the worker re-announces on a
    /// timer — unless the AM is steady with nothing queued, so a rejoin
    /// can never interleave with an in-flight adjustment; a duplicated
    /// or reordered `Rejoin` envelope is absorbed by the `rejoining`
    /// set, admitting the worker exactly once. The credentials a
    /// `Rejoin` presents are the crash incarnation's last knowledge;
    /// admission always replicates fresh state under the *current* term.
    /// Only the boundary it crashed at is used: the members are recalled
    /// to it, and an announce that predates the wave which readmitted
    /// the worker is dropped.
    fn handle_rejoin(&mut self, worker: WorkerId, iteration: u64, out: &mut Actions) {
        if self.rejoining.contains(&worker) {
            return; // duplicate envelope: already admitted
        }
        if self.durable.members.contains(&worker) && iteration > 0 && iteration <= self.resumed_at {
            // A late announce from before the wave that readmitted it: a
            // fresh crash would present a boundary past that wave.
            return;
        }
        if !matches!(self.durable.phase, AmPhase::Steady)
            || self.durable.pending.is_some()
            || self.durable.stopping.is_some()
        {
            return; // busy: the worker's resend timer will try again
        }
        let mut target = self.durable.members.clone();
        if !target.contains(&worker) {
            // Declared dead and scaled out meanwhile: rejoin as a fresh
            // joiner (the Rejoin doubles as its readiness report).
            target.push(worker);
        }
        self.rejoining.insert(worker);
        self.reported.insert(worker);
        self.dead.remove(&worker);
        self.hb.note(worker, self.now.at);
        self.durable.pending = Some(PendingOp { seq: None, target });
        if !self.persist_fenced(out) {
            return;
        }
        let term = self.durable.term;
        out.emit_at(self.now.us(), EventKind::WorkerRejoin { worker, term });
        if self.durable.members.contains(&worker)
            && iteration > 0
            && iteration.is_multiple_of(self.interval)
        {
            // Its crashed incarnation still holds a place in the
            // collective: members that passed the boundary it died at
            // wait in the next round for a contribution that never comes.
            self.recall = Some(iteration);
        }
    }

    /// Records that `w` reached boundary `b`; false for a report older
    /// than one already seen (a reordered delivery).
    fn reach(&mut self, w: WorkerId, b: u64) -> bool {
        let r = self.reached.entry(w).or_insert(b);
        if *r > b {
            return false;
        }
        *r = b;
        true
    }

    fn in_flight_seq(&self) -> Option<u64> {
        match &self.durable.phase {
            AmPhase::Transferring { seq, .. } | AmPhase::Resuming { seq, .. } => *seq,
            AmPhase::Steady => None,
        }
    }

    /// A boundary is actionable when every live member is parked at the
    /// same iteration, newer than the last released boundary. Workers
    /// mid-`Rejoin` are exempt from the quorum: they are parked in the
    /// handshake, not at a boundary, and get their state replicated by
    /// the adjustment the survivors' boundary triggers.
    fn boundary_ready(&self) -> Option<u64> {
        let mut parked = self.quorum().map(|w| self.coordinated.get(&w).copied());
        let first = parked.next()??;
        let agreed = parked.all(|at| at == Some(first));
        (agreed && first > self.last_boundary).then_some(first)
    }

    /// The members a boundary needs: live and not mid-`Rejoin`.
    fn quorum(&self) -> impl Iterator<Item = WorkerId> + '_ {
        let members = self.durable.members.iter().copied();
        members.filter(|w| !self.dead.contains(w) && !self.rejoining.contains(w))
    }

    /// The lowest and highest boundary the quorum has reached, once every
    /// quorum member has reported one.
    fn reach_span(&self) -> Option<(u64, u64)> {
        let mut reached = self.quorum().map(|w| self.reached.get(&w).copied());
        let first = reached.next()??;
        reached.try_fold((first, first), |(lo, hi), r| {
            let r = r?;
            Some((lo.min(r), hi.max(r)))
        })
    }

    /// Whether a queued op can start: every joiner in its target has
    /// reported.
    fn op_ready(&self, op: &PendingOp) -> bool {
        op.target
            .iter()
            .filter(|w| !self.durable.members.contains(w))
            .all(|w| self.reported.contains(w))
    }

    /// Whether work waits on every member parking at one boundary: a
    /// checkpoint, a stop, or a queued op that can start.
    fn work_ready(&self) -> bool {
        self.checkpoint_req.is_some()
            || self.durable.stopping.is_some()
            || self
                .durable
                .pending
                .as_ref()
                .is_some_and(|op| self.op_ready(op))
    }

    /// Orders every member to park at the next boundary after the highest
    /// one reached (at the highest itself when every member there is
    /// parked), unless an earlier order still stands: every member is
    /// short of its boundary or parked there. A member that passed it (the
    /// order reached it too late) moves the target on.
    ///
    /// A rejoin recalls instead: members that passed the boundary the
    /// rejoiner crashed at are held in the round after it, so they are
    /// ordered back to that boundary. A worker blocked in that round
    /// takes its contribution back and parks there. Until then it looks
    /// as if it passed the boundary, so during a recall only a member
    /// reported beyond the target moves it on.
    fn order_park(&mut self, out: &mut Actions) {
        let Some((lowest, highest)) = self.reach_span() else {
            return;
        };
        if lowest <= self.resumed_at {
            return;
        }
        let target = self.park_target;
        let quorum: Vec<WorkerId> = self.quorum().collect();
        let held = self
            .rejoining
            .iter()
            .any(|w| self.durable.members.contains(w));
        let passed = |w: &WorkerId| match self.reached.get(w) {
            Some(&r) => {
                r > target || (!held && r == target && self.coordinated.get(w) != Some(&target))
            }
            None => false,
        };
        // Members that ran a whole interval ahead wait parked at the
        // highest boundary, so the others can park there too.
        let ahead_parked = quorum.iter().all(|w| {
            self.reached.get(w) != Some(&highest) || self.coordinated.get(w) == Some(&highest)
        });
        let next = if ahead_parked {
            highest
        } else {
            highest + self.interval
        };
        let (boundary, retarget) = match self.recall.take() {
            Some(at) => (at, false),
            None if quorum.iter().any(passed) => (next, target > self.last_boundary),
            None => return,
        };
        self.park_target = boundary;
        // The order releases every park short of it.
        self.coordinated.retain(|_, at| *at >= boundary);
        if !self.persist_fenced(out) {
            return;
        }
        let term = self.durable.term;
        let ordered = EventKind::ParkOrdered {
            boundary,
            term,
            retarget,
        };
        out.emit_at(self.now.us(), ordered);
        for w in quorum {
            out.send(EndpointId::Worker(w), RtMsg::Park { boundary, term });
        }
    }

    /// Releases every boundary up to `upto` the quorum has reached that
    /// is still unreleased.
    fn release_reached(&mut self, upto: u64, out: &mut Actions) {
        match self.reach_span() {
            Some((lowest, _)) if lowest.min(upto) > self.last_boundary => {
                self.release(lowest.min(upto), out)
            }
            _ => {}
        }
    }

    /// Releases the boundaries up to `upto` with `Proceed`, the skew token
    /// workers pass boundaries on. The release is an externally visible
    /// action, so it goes through the persist-before-act fence first — a
    /// superseded incarnation abdicates here instead of racing its
    /// successor's release. Each boundary is journalled; an
    /// incarnation's first release counts from the boundary it first sees.
    fn release(&mut self, upto: u64, out: &mut Actions) {
        if !self.persist_fenced(out) {
            return;
        }
        let (us, term) = (self.now.us(), self.durable.term);
        let live = self.live();
        let world = live.len() as u32;
        let from = match self.last_boundary {
            0 => upto,
            last => last + self.interval,
        };
        let released = (from..=upto).step_by(self.interval as usize);
        for boundary in released.clone() {
            let event = EventKind::BoundaryReleased {
                boundary,
                world,
                term,
            };
            out.emit_at(us, event);
        }
        for w in live {
            out.send(
                EndpointId::Worker(w),
                RtMsg::Proceed {
                    boundary: upto,
                    term,
                },
            );
        }
        self.coordinated.retain(|_, at| *at > upto);
        self.last_boundary = upto;
        // Plain training boundaries pace the epoch: adjustment boundaries
        // (resume_wave) deliberately don't count.
        for _ in released {
            if let Some(m) = self.machine.as_mut() {
                let cmds = m.boundary_released(us, out);
                self.epoch_cmds(cmds, out);
            }
        }
    }

    /// Journals an act on a boundary the quorum is parked at; `members`
    /// are the members after it.
    fn acted(&self, boundary: u64, act: BoundaryAct, members: &[WorkerId], out: &mut Actions) {
        let quorum = self.quorum().map(|w| (w, members.contains(&w))).collect();
        let event = EventKind::BoundaryActed {
            boundary,
            act,
            quorum,
        };
        out.emit_at(self.now.us(), event);
    }

    /// Drives the adjustment pipeline as far as it can go right now.
    fn try_progress(&mut self, out: &mut Actions) {
        loop {
            if self.fenced {
                return;
            }
            let us = self.now.us();
            match &self.durable.phase {
                AmPhase::Transferring { target, seq } => {
                    if !self.transfers_started {
                        // (Recovered incarnation.) Wait until AmReset
                        // replies re-establish the boundary, then re-derive
                        // and re-send the orders — transfers at a boundary
                        // are idempotent, so replaying is safe.
                        if self.boundary_ready().is_none() {
                            return;
                        }
                        self.start_transfers(out);
                        continue;
                    }
                    if !self.outstanding.is_empty() {
                        return; // waiting on TransferDone
                    }
                    if self.next_wave < self.transfer_waves.len() {
                        // The current wave drained: issue the next one.
                        // Link-conflicting transfers never overlap.
                        self.issue_next_wave(out);
                        continue;
                    }
                    // Witness gate: a warmup op's transfers are done, but
                    // the joiners' digests are still being audited by the
                    // sampled witnesses. Hold the resume until the epoch
                    // machine leaves `Warmup` (admitting or evicting every
                    // joiner) so an evicted joiner is pruned from the
                    // target before `Resume` fans out — an un-witnessed
                    // worker never trains.
                    if self
                        .machine
                        .as_ref()
                        .is_some_and(|m| m.phase() == EpochPhase::Warmup)
                    {
                        return;
                    }
                    let Some(boundary) = self.boundary_ready() else {
                        return;
                    };
                    let (target, seq) = (self.alive(target), *seq);
                    if target.is_empty() {
                        // Everyone in the target died: drop the op.
                        self.durable.phase = AmPhase::Steady;
                        self.persist(out);
                        continue;
                    }
                    let generation = self.now.generation + 1;
                    self.durable.phase = AmPhase::Resuming {
                        target,
                        seq,
                        generation,
                    };
                    if !self.persist_fenced(out) {
                        return;
                    }
                    // Steps ③+④ done (replication drained at a coherent
                    // boundary); step ⑤ (adjust) begins.
                    out.trace(us, Span::PhaseEnd(AdjustmentPhase::Replicate));
                    out.trace(us, Span::PhaseEnd(AdjustmentPhase::Coordinate));
                    out.trace(us, Span::PhaseStart(AdjustmentPhase::Adjust));
                    out.push(Action::Crash(CrashPoint::OnResume));
                    self.resume_wave(boundary, out);
                }
                AmPhase::Resuming { .. } => {
                    // (Recovered incarnation: the resume wave never went
                    // out.) Once the boundary is re-established, replay it.
                    let Some(boundary) = self.boundary_ready() else {
                        return;
                    };
                    self.resume_wave(boundary, out);
                }
                AmPhase::Steady => {
                    // A pending stop with no live members can never see a
                    // boundary again (the quorum is empty — typically a
                    // successor elected mid-shutdown after every worker
                    // already left); serve it directly so the controller's
                    // ack is not stranded behind a vacuous boundary wait.
                    if self.durable.stopping.is_some() && self.live().is_empty() {
                        return self.execute_stop(out);
                    }
                    let Some(boundary) = self.boundary_ready() else {
                        // Not every member is parked at one boundary:
                        // order the park waiting work needs, and release
                        // what every member has reached short of it.
                        let mut upto = u64::MAX;
                        if self.work_ready() {
                            self.order_park(out);
                            if self.park_target > self.last_boundary {
                                upto = self.park_target - self.interval;
                            }
                        }
                        return self.release_reached(upto, out);
                    };
                    let live = self.live();
                    if self.awaiting_checkpoint.is_some() {
                        return; // snapshot in flight
                    }
                    let term = self.durable.term;
                    if let Some(seq) = self.checkpoint_req.take() {
                        self.acted(boundary, BoundaryAct::Checkpoint, &live, out);
                        let order = RtMsg::CheckpointOrder { seq, term };
                        out.send(EndpointId::Worker(live[0]), order);
                        self.awaiting_checkpoint = Some(seq);
                        return;
                    }
                    if self.durable.stopping.is_some() {
                        self.acted(boundary, BoundaryAct::Stop, &[], out);
                        return self.execute_stop(out);
                    }
                    if let Some(op) = self.durable.pending.clone() {
                        if self.op_ready(&op) {
                            self.durable.pending = None;
                            self.durable.phase = AmPhase::Transferring {
                                target: op.target,
                                seq: op.seq,
                            };
                            if !self.persist_fenced(out) {
                                return;
                            }
                            // Step ② done, step ③ (coordinate at the
                            // boundary) begins.
                            out.trace(us, Span::PhaseEnd(AdjustmentPhase::Report));
                            out.trace(us, Span::PhaseStart(AdjustmentPhase::Coordinate));
                            out.push(Action::Crash(CrashPoint::OnAdjustStart));
                            self.start_transfers(out);
                            continue;
                        }
                    }
                    // Nothing to adjust: release the boundary.
                    return self.release(boundary, out);
                }
            }
        }
    }

    /// Step ④ kickoff: plan replication along the topology and issue the
    /// first wave of transfer orders; the remaining waves go out as each
    /// wave's `TransferDone`s drain (`issue_next_wave`), so transfers the
    /// planner found to contend on a link (shared source/destination GPU,
    /// same-node QPI/L3 or NIC edge) are serialized while disjoint ones
    /// overlap. Idempotent — a recovered AM calls it again. A plan with
    /// nothing to replicate (pure scale-in, failure eviction) still opens
    /// step ④ on the record, as an explicitly empty plan.
    #[expect(
        clippy::expect_used,
        reason = "sources (live members minus rejoiners) and destinations (target newcomers and rejoiners) are disjoint and duplicate-free by construction, and place_past_capacity gives each a distinct slot of the 512-slot planning topology; plan() can only fail if one adjustment involves more than 512 workers or no member holds the state."
    )]
    fn start_transfers(&mut self, out: &mut Actions) {
        self.transfers_started = true;
        self.outstanding.clear();
        self.transfer_waves.clear();
        self.next_wave = 0;
        let AmPhase::Transferring { target, .. } = &self.durable.phase else {
            return;
        };
        let joining: Vec<WorkerId> = target
            .iter()
            .copied()
            .filter(|w| {
                (!self.durable.members.contains(w) || self.rejoining.contains(w))
                    && !self.dead.contains(w)
            })
            .collect();
        if !joining.is_empty() {
            // Rejoiners hold void state — they are destinations, never
            // sources.
            let mut sources: Vec<GpuId> = self
                .live()
                .iter()
                .filter(|w| !self.rejoining.contains(w))
                .map(|w| GpuId(w.0))
                .collect();
            let mut dests: Vec<GpuId> = joining.iter().map(|w| GpuId(w.0)).collect();
            let moved = place_past_capacity(&mut sources, &mut dests, self.topology.gpu_count());
            let plan = ReplicationPlanner::new(&self.topology)
                .plan(&sources, &dests)
                .expect("valid placements");
            let transfers = plan.transfers();
            let owner = |i: usize| {
                (
                    slot_owner(&moved, transfers[i].src),
                    slot_owner(&moved, transfers[i].dst),
                )
            };
            self.transfer_waves = plan
                .waves()
                .iter()
                .map(|wave| wave.iter().map(|&i| owner(i)).collect())
                .collect();
        }
        // Step ④ (replicate) opens with the planner's schedule on record.
        let us = self.now.us();
        let waves = self.transfer_waves.len() as u32;
        let transfers = self.transfer_waves.iter().map(Vec::len).sum::<usize>() as u32;
        out.trace(us, Span::Plan { waves, transfers });
        out.trace(us, Span::PhaseStart(AdjustmentPhase::Replicate));
        self.issue_next_wave(out);
    }

    /// Issues the next wave of transfer orders, if any.
    fn issue_next_wave(&mut self, out: &mut Actions) {
        let Some(wave) = self.transfer_waves.get(self.next_wave).cloned() else {
            return;
        };
        let issued = EventKind::WaveIssued {
            wave: self.next_wave as u32,
            transfers: wave.len() as u32,
        };
        out.emit_at(self.now.us(), issued);
        self.next_wave += 1;
        let term = self.durable.term;
        for (src, dst) in wave {
            self.outstanding.insert((src, dst));
            out.send(EndpointId::Worker(src), RtMsg::TransferOrder { dst, term });
        }
    }

    /// Step ⑤: reconfigure the communication group (unless a previous
    /// incarnation already did) and broadcast Leave/Resume; completes the
    /// in-flight operation.
    fn resume_wave(&mut self, boundary: u64, out: &mut Actions) {
        let AmPhase::Resuming {
            target,
            seq,
            generation,
        } = &self.durable.phase
        else {
            return;
        };
        let (target, seq, generation) = (self.alive(target), *seq, *generation);
        if target.is_empty() {
            self.durable.phase = AmPhase::Steady;
            self.persist(out);
            return;
        }
        // Fence probe (persist-before-act): a superseded incarnation
        // must learn it *here*, before it reconfigures the collective or
        // sends a single Leave/Resume — this is what stops a
        // partitioned-but-alive old AM from split-braining the wave.
        if !self.persist_fenced(out) {
            return;
        }
        self.acted(boundary, BoundaryAct::Resume, &target, out);
        out.push(Action::Reconfigure(generation, target.clone()));
        let term = self.durable.term;
        for &w in &self.durable.members {
            if !target.contains(&w) && !self.dead.contains(&w) {
                out.send(EndpointId::Worker(w), RtMsg::Leave { term });
            }
        }
        for &w in &target {
            out.send(EndpointId::Worker(w), RtMsg::Resume { generation, term });
        }
        self.durable.members = target.clone();
        if let Some(m) = self.machine.as_mut() {
            // Controller-driven adjustments (scale_out/in, migrate,
            // failure scale-in) bypass the join pipeline; force-sync the
            // epoch machine's membership view to the resumed cohort.
            m.set_members(&target);
        }
        out.push(Action::PublishMembers(target));
        match seq {
            Some(s) => self.durable.seq_done = self.durable.seq_done.max(s),
            // Failure-driven (or rejoin-driven) adjustment: no
            // controller op to ack.
            None => out.push(Action::CountFailureScaleIn),
        }
        self.durable.phase = AmPhase::Steady;
        self.persist(out);
        // Step ⑤ done: close the span (idempotent across failovers).
        let us = self.now.us();
        let world = self.durable.members.len() as u32;
        out.trace(us, Span::PhaseEnd(AdjustmentPhase::Adjust));
        out.trace(us, Span::Complete { generation, world });
        // Only after the span is closed may the controller unblock —
        // acking first would let the *next* adjustment race `begin`
        // against this trace's `complete` and fold into it.
        if let Some(seq) = seq {
            out.send(EndpointId::Controller, RtMsg::Ack { seq });
        }
        self.reported.clear();
        self.rejoining.clear();
        self.recall = None;
        self.coordinated.clear();
        // Every member, joiners included, trains on from this boundary.
        self.reached.clear();
        self.resumed_at = boundary;
        self.outstanding.clear();
        self.transfer_waves.clear();
        self.next_wave = 0;
        self.transfers_started = false;
        self.last_boundary = boundary;
    }

    /// Serves a stop at a boundary: everyone leaves; once the `Leave`s
    /// drain, `finish_stop` acks the controller.
    fn execute_stop(&mut self, out: &mut Actions) {
        let term = self.durable.term;
        for w in self.live() {
            out.send(EndpointId::Worker(w), RtMsg::Leave { term });
        }
        // Workers only exit after acking, so no survivor can be stranded
        // mid-park.
        out.push(Action::DrainAndStop);
    }

    /// The stop's `Leave`s drained: complete the op and ack it.
    fn finish_stop(&mut self, out: &mut Actions) {
        let Some(seq) = self.durable.stopping else {
            return;
        };
        self.durable.seq_done = self.durable.seq_done.max(seq);
        self.durable.stopping = None;
        if !self.persist_fenced(out) {
            return; // the successor completes the stop
        }
        out.send(EndpointId::Controller, RtMsg::Ack { seq });
    }

    /// The failure detector's verdict: evict from the data plane so no
    /// survivor blocks, then fold the death into whatever operation is in
    /// (or next in) flight — or start a failure-driven scale-in.
    fn declare_dead(&mut self, w: WorkerId, out: &mut Actions) {
        let is_member = self.durable.members.contains(&w);
        if !is_member && !self.targets().any(|x| *x == w) {
            return; // already out of the job (e.g. post-Leave give-up)
        }
        // Fence probe (persist-before-act): a superseded incarnation —
        // e.g. a partitioned old AM whose resends to unreachable workers
        // just gave up — must not evict a live worker from the
        // collective on behalf of a job it no longer owns.
        if !self.persist_fenced(out) {
            return;
        }
        if !self.dead.insert(w) {
            return;
        }
        let us = self.now.us();
        out.emit_at(us, EventKind::WorkerDeclaredDead { worker: w });
        // Unblock the survivors immediately: remove the victim (and its
        // stale contribution) from the collective.
        out.push(Action::Evict(w));
        self.forget(w);
        // If the victim was serving (or scheduled to serve) a transfer as
        // its source, its `TransferDone` will never come: drop the stale
        // schedule and let the `Transferring` recovery path re-plan from
        // the survivors once the boundary is re-established. A victim
        // that was only a *destination* is simply dropped from the wave.
        let was_src = self.outstanding.iter().any(|&(s, _)| s == w)
            || self
                .transfer_waves
                .iter()
                .skip(self.next_wave)
                .flatten()
                .any(|&(s, _)| s == w);
        if was_src {
            self.outstanding.clear();
            self.transfer_waves.clear();
            self.next_wave = 0;
            self.transfers_started = false;
        } else {
            self.outstanding.retain(|&(_, d)| d != w);
            for wave in &mut self.transfer_waves {
                wave.retain(|&(_, d)| d != w);
            }
        }
        self.prune(w);
        let idle = matches!(self.durable.phase, AmPhase::Steady)
            && self.durable.pending.is_none()
            && self.durable.stopping.is_none();
        let live = self.live();
        if is_member && idle && !live.is_empty() {
            // Failure-driven scale-in around the victim. Open a trace for
            // it (folds into the active one if a controller adjustment is
            // already in flight).
            let begin = Span::Begin {
                kind: TraceKind::FailureScaleIn,
                seq: None,
                target_world: live.len() as u32,
            };
            out.trace(us, begin);
            self.durable.pending = Some(PendingOp {
                seq: None,
                target: live,
            });
        }
        self.persist(out);
        // The epoch machine tracks the loss too: a dead pending joiner is
        // forgotten, a dead warmup witness is pruned from every vote set,
        // and a mid-`Train` death below `min_members` aborts the epoch.
        if let Some(m) = self.machine.as_mut() {
            let cmds = m.member_left(w, us, out);
            self.epoch_cmds(cmds, out);
        }
    }
}

#[cfg(test)]
mod tests {
    use std::time::Duration;

    use proptest::prelude::*;

    use super::*;
    use elan_sim::rng::splitmix64;

    const INTERVAL: u64 = 5;
    const HB_TIMEOUT: Duration = Duration::from_millis(400);

    fn w(n: u32) -> WorkerId {
        WorkerId(n)
    }

    fn now(ms: u64, term: u64, generation: u64) -> Now {
        let at = SimTime::from_nanos(ms * 1_000_000);
        Now {
            at,
            term,
            generation,
        }
    }

    /// Orders a worker or the controller can see (journal and trace
    /// entries, counters and crash points are the AM's own business).
    fn visible(a: &Action) -> bool {
        !matches!(
            a,
            Action::Persist { .. }
                | Action::Emit(..)
                | Action::Trace(..)
                | Action::CountFailureScaleIn
                | Action::Crash(_)
        )
    }

    /// The term an authority-bearing order carries.
    fn authority_term(a: &Action) -> Option<u64> {
        let Action::Send(_, msg) = a else {
            return None;
        };
        match msg {
            RtMsg::Leave { term }
            | RtMsg::Resume { term, .. }
            | RtMsg::AmReset { term, .. }
            | RtMsg::Park { term, .. }
            | RtMsg::Proceed { term, .. }
            | RtMsg::TransferOrder { term, .. }
            | RtMsg::CheckpointOrder { term, .. } => Some(*term),
            _ => None,
        }
    }

    /// Properties (i) and (ii) of one step: a step that changes the
    /// durable record orders a persist before its first visible action
    /// and ends with the change persisted, and every authority-bearing
    /// order carries the core's term.
    fn check_step(before: &AmDurable, after: &AmDurable, acts: &[Action]) -> Result<(), String> {
        if let Some(a) = acts
            .iter()
            .find(|a| authority_term(a).is_some_and(|t| t != after.term))
        {
            return Err(format!(
                "{a:?} does not carry the core's term {}",
                after.term
            ));
        }
        if before == after {
            return Ok(());
        }
        let persisted = |a: &Action| matches!(a, Action::Persist { .. });
        match (
            acts.iter().position(persisted),
            acts.iter().position(visible),
        ) {
            (None, _) => return Err(format!("record changed, never persisted: {acts:?}")),
            (Some(p), Some(v)) if v < p => {
                return Err(format!(
                    "{:?} ordered before the persist: {acts:?}",
                    acts[v]
                ))
            }
            _ => {}
        }
        let last = acts.iter().rev().find_map(|a| match a {
            Action::Persist { record, .. } => Some(record),
            _ => None,
        });
        if last != Some(after) {
            return Err(format!(
                "the step ends with an unpersisted change: {acts:?}"
            ));
        }
        Ok(())
    }

    /// What the random runs exercised, summed over seeds.
    #[derive(Debug, Default)]
    struct Coverage {
        resumes: u64,
        deaths_mid_transfer: u64,
        recovered_transfers: u64,
        recovered_resumes: u64,
        stale_steps: u64,
        /// Park orders that replaced one a member had already passed.
        retargets: u64,
        /// Parks ordered, and parks on skew (no order there).
        ordered_parks: u64,
        skew_parks: u64,
    }

    /// A scripted worker, as the boundary rule moves it: the boundary it
    /// is at, whether it is parked there, and the release and park order
    /// it last saw.
    #[derive(Debug, Clone, Copy)]
    struct Scripted {
        at: u64,
        parked: bool,
        released: u64,
        park_at: u64,
    }

    impl Scripted {
        fn at(at: u64) -> Self {
            Scripted {
                at,
                parked: false,
                released: at,
                park_at: 0,
            }
        }

        /// The worker rule (`worker::Bounds::parks_at`).
        fn parks_at(&self, b: u64) -> bool {
            if self.park_at >= b {
                self.park_at == b
            } else {
                b > self.released + INTERVAL
            }
        }
    }

    /// One seeded run: a core among scripted workers and a controller
    /// that scales out and in, with heartbeat silence, give-ups, message
    /// duplication, late park orders, stops and AM failovers striking at
    /// random.
    struct Sim {
        rng: u64,
        ms: u64,
        core: AmCore,
        /// The incarnation's term and epoch.
        term: u64,
        epoch: u64,
        /// The durable store, as the term fence keeps it.
        store: AmDurable,
        generation: u64,
        inbox: Vec<(EndpointId, RtMsg)>,
        /// `Proceed`s and `Park`s on their way to workers: they land in
        /// random order and late, so a worker can pass a park target
        /// before the order reaches it.
        mail: Vec<(WorkerId, RtMsg)>,
        /// Workers that still answer (not crashed, not dismissed).
        alive: BTreeSet<WorkerId>,
        /// Workers training in the job (joiners enter at their `Resume`).
        workers: BTreeMap<WorkerId, Scripted>,
        next_id: u32,
        next_seq: u64,
        awaiting: Option<RtMsg>,
        /// The generation a recovered `Resuming` record owes its wave.
        owed_generation: Option<u64>,
        /// Whether crash points may be armed, and whether one fired.
        arm_crashes: bool,
        crashed: bool,
        stopped: bool,
        cov: Coverage,
    }

    impl Sim {
        fn new(seed: u64, founding: u32) -> Sim {
            let members: Vec<WorkerId> = (0..founding).map(w).collect();
            let mut store = AmDurable::founding(members.clone());
            store.term = 1;
            Sim {
                rng: seed,
                ms: 0,
                core: AmCore::incarnate(
                    0,
                    store.clone(),
                    INTERVAL,
                    None,
                    HeartbeatMonitor::new(HB_TIMEOUT),
                    now(0, 1, 0),
                    &mut Actions::default(),
                ),
                term: 1,
                epoch: 0,
                store,
                generation: 0,
                inbox: Vec::new(),
                mail: Vec::new(),
                alive: members.iter().copied().collect(),
                workers: members.iter().map(|&m| (m, Scripted::at(0))).collect(),
                next_id: founding,
                next_seq: 1,
                awaiting: None,
                owed_generation: None,
                arm_crashes: false,
                crashed: false,
                stopped: false,
                cov: Coverage::default(),
            }
        }

        fn roll(&mut self, n: u64) -> u64 {
            self.rng = splitmix64(self.rng);
            self.rng % n
        }

        fn now(&self) -> Now {
            now(self.ms, self.store.term, self.generation)
        }

        /// Moves a training worker to its next boundary, where it passes
        /// or parks by the worker rule.
        fn advance(&mut self, worker: WorkerId) {
            let Some(s) = self.workers.get_mut(&worker) else {
                return;
            };
            if s.parked {
                return;
            }
            s.at += INTERVAL;
            let (b, from) = (s.at, EndpointId::Worker(worker));
            if s.parks_at(b) {
                s.parked = true;
                if s.park_at == b {
                    self.cov.ordered_parks += 1;
                } else {
                    self.cov.skew_parks += 1;
                }
                let msg = RtMsg::Coordinate {
                    worker,
                    iteration: b,
                };
                self.inbox.push((from, msg));
            } else {
                let msg = RtMsg::Passed {
                    worker,
                    boundary: b,
                };
                self.inbox.push((from, msg));
            }
        }

        /// One `Proceed` or `Park` lands.
        fn deliver_mail(&mut self) {
            if self.mail.is_empty() {
                return;
            }
            let i = self.roll(self.mail.len() as u64) as usize;
            let (to, msg) = self.mail.swap_remove(i);
            let Some(s) = self.workers.get_mut(&to) else {
                return;
            };
            match msg {
                RtMsg::Proceed { boundary, .. } => {
                    s.released = s.released.max(boundary);
                    if s.parked && s.at == boundary {
                        s.parked = false;
                    }
                }
                RtMsg::Park { boundary, .. } => {
                    s.park_at = s.park_at.max(boundary);
                    if s.parked && boundary > s.at {
                        s.parked = false;
                    }
                }
                _ => {}
            }
        }

        /// Property (iv): the core orders a transfer, a checkpoint, a
        /// `Resume` or a `Leave` only while every live, non-rejoining
        /// member is parked at one boundary.
        fn check_parked(&self, quorum: &[WorkerId], acts: &[Action]) -> Result<(), String> {
            let order = acts.iter().find(|a| {
                matches!(
                    a,
                    Action::Send(
                        EndpointId::Worker(_),
                        RtMsg::TransferOrder { .. }
                            | RtMsg::CheckpointOrder { .. }
                            | RtMsg::Resume { .. }
                            | RtMsg::Leave { .. }
                    )
                )
            });
            let Some(order) = order else {
                return Ok(());
            };
            let parked: BTreeSet<Option<u64>> = quorum
                .iter()
                .filter(|m| self.alive.contains(m))
                .map(|m| self.workers.get(m).filter(|s| s.parked).map(|s| s.at))
                .collect();
            if parked.len() > 1 || parked.contains(&None) {
                let states: Vec<_> = quorum.iter().map(|m| (m, self.workers.get(m))).collect();
                return Err(format!("{order:?} while the members are at {states:?}"));
            }
            Ok(())
        }

        fn step(&mut self, event: Event) -> Result<(), String> {
            let stale = self.store.term > self.term;
            let before = self.core.durable.clone();
            let quorum: Vec<WorkerId> = self.core.quorum().collect();
            let mut out = Actions::default();
            self.core.step(event, self.now(), &mut out);
            let acts: Vec<Action> = out.drain().collect();
            check_step(&before, &self.core.durable, &acts)?;
            self.check_parked(&quorum, &acts)?;
            if stale {
                self.cov.stale_steps += 1;
                // A superseded core releases, parks, resumes,
                // reconfigures and evicts nothing: every such order sits
                // behind a probe.
                if let Some(a) = acts.iter().find(|a| {
                    matches!(
                        a,
                        Action::Send(
                            _,
                            RtMsg::Resume { .. } | RtMsg::Proceed { .. } | RtMsg::Park { .. }
                        ) | Action::Reconfigure(..)
                            | Action::Evict(_)
                            | Action::PublishMembers(_)
                    )
                }) {
                    return Err(format!("superseded core ordered {a:?}"));
                }
            }
            self.run(acts)?;
            if matches!(self.core.durable.phase, AmPhase::Steady) {
                self.owed_generation = None; // the recovered wave went out
            }
            Ok(())
        }

        /// The world's answer to a step's actions.
        fn run(&mut self, acts: Vec<Action>) -> Result<(), String> {
            for action in acts {
                match action {
                    Action::Persist { record, .. } if record.term >= self.store.term => {
                        self.store = record;
                    }
                    Action::Reconfigure(generation, _) => {
                        self.generation = self.generation.max(generation);
                    }
                    Action::Emit(_, EventKind::ParkOrdered { retarget: true, .. }) => {
                        self.cov.retargets += 1;
                    }
                    Action::Send(EndpointId::Controller, RtMsg::Ack { seq })
                        if self.awaiting.as_ref().is_some_and(|op| op_seq(op) == seq) =>
                    {
                        self.awaiting = None;
                    }
                    Action::Send(EndpointId::Worker(to), msg) if self.alive.contains(&to) => {
                        self.answer(to, msg)?;
                    }
                    // Some crash points are armed: the AM dies right there.
                    Action::Crash(_) if self.arm_crashes && self.roll(3) == 0 => {
                        self.crashed = true;
                        return Ok(());
                    }
                    Action::DrainAndStop => {
                        self.step(Event::Drained)?;
                        self.stopped = true;
                        return Ok(());
                    }
                    _ => {}
                }
            }
            Ok(())
        }

        fn answer(&mut self, to: WorkerId, msg: RtMsg) -> Result<(), String> {
            let from = EndpointId::Worker(to);
            match msg {
                RtMsg::Proceed { .. } | RtMsg::Park { .. } => self.mail.push((to, msg)),
                RtMsg::Resume { generation, .. } => {
                    self.cov.resumes += 1;
                    if let Some(owed) = self.owed_generation {
                        if generation != owed {
                            return Err(format!("recovered wave at {generation}, owed {owed}"));
                        }
                        self.cov.recovered_resumes += 1;
                    }
                    // Members resume where they are parked; joiners at the
                    // boundary their state was streamed from.
                    let at = self.core.last_boundary;
                    let s = self.workers.entry(to).or_insert(Scripted::at(at));
                    if s.parked && s.at != at {
                        return Err(format!("{to} resumed at {at}, parked at {}", s.at));
                    }
                    s.parked = false;
                    s.released = s.released.max(at);
                }
                RtMsg::TransferOrder { dst, .. } => {
                    let done = RtMsg::TransferDone { src: to, dst };
                    self.inbox.push((from, done));
                }
                RtMsg::CheckpointOrder { .. } => {
                    let done = RtMsg::TransferDone { src: to, dst: to };
                    self.inbox.push((from, done));
                }
                RtMsg::AmReset { .. } => match self.workers.get(&to) {
                    Some(s) if s.parked => {
                        let iteration = s.at;
                        let msg = RtMsg::Coordinate {
                            worker: to,
                            iteration,
                        };
                        self.inbox.push((from, msg));
                    }
                    Some(_) => {}
                    None => self.inbox.push((from, RtMsg::Report { worker: to })),
                },
                RtMsg::Leave { .. } => {
                    self.alive.remove(&to);
                    self.workers.remove(&to);
                }
                _ => {}
            }
            Ok(())
        }

        /// The controller asks for a scale-out, a scale-in, a checkpoint
        /// or a stop (and re-asks for an op still unacknowledged).
        fn request(&mut self) -> Result<(), String> {
            if let Some(op) = self.awaiting.clone() {
                return self.step(Event::Message(EndpointId::Controller, op));
            }
            let seq = self.next_seq;
            self.next_seq += 1;
            let mut target = self.core.durable.members.clone();
            let op = match self.roll(10) {
                0..=4 => {
                    for _ in 0..=self.roll(2) {
                        let joiner = w(self.next_id);
                        self.next_id += 1;
                        self.alive.insert(joiner);
                        target.push(joiner);
                        let report = RtMsg::Report { worker: joiner };
                        self.inbox.push((EndpointId::Worker(joiner), report));
                    }
                    RtMsg::AdjustTo { seq, target }
                }
                5..=7 if target.len() > 1 => {
                    target.pop();
                    RtMsg::AdjustTo { seq, target }
                }
                8 => RtMsg::Checkpoint { seq },
                _ if self.next_seq > 6 => RtMsg::Stop { seq },
                _ => RtMsg::Checkpoint { seq },
            };
            if !matches!(op, RtMsg::Checkpoint { .. }) {
                self.awaiting = Some(op.clone());
            }
            self.step(Event::Message(EndpointId::Controller, op))
        }

        /// A successor takes over: it bumps the term at the store, the old
        /// core (unless it crashed) takes a few more superseded steps, and
        /// the successor recovers from the record.
        fn failover(&mut self) -> Result<(), String> {
            self.store.term += 1;
            for _ in 0..3 {
                if self.crashed {
                    break;
                }
                self.random_step()?;
            }
            self.crashed = false;
            if self.stopped {
                return Ok(());
            }
            self.epoch += 1;
            self.term = self.store.term;
            let record = self.store.clone();
            match record.phase {
                AmPhase::Transferring { .. } => self.cov.recovered_transfers += 1,
                AmPhase::Resuming { generation, .. } => self.owed_generation = Some(generation),
                AmPhase::Steady => {}
            }
            // The predecessor's undelivered orders carry a stale term:
            // the workers' fence drops them.
            self.mail.clear();
            let hb = HeartbeatMonitor::new(HB_TIMEOUT);
            let mut out = Actions::default();
            let (epoch, now) = (self.epoch, self.now());
            self.core = AmCore::incarnate(epoch, record, INTERVAL, None, hb, now, &mut out);
            let acts: Vec<Action> = out.drain().collect();
            check_step(&self.store, &self.core.durable, &acts)?;
            self.run(acts)
        }

        fn random_step(&mut self) -> Result<(), String> {
            match self.roll(100) {
                0..=39 if !self.inbox.is_empty() => {
                    let i = self.roll(self.inbox.len() as u64) as usize;
                    let (from, msg) = if self.roll(10) == 0 {
                        self.inbox[i].clone() // duplicated delivery
                    } else {
                        self.inbox.swap_remove(i)
                    };
                    if matches!(from, EndpointId::Worker(x) if !self.alive.contains(&x)) {
                        return Ok(()); // the dead say nothing
                    }
                    self.step(Event::Message(from, msg))
                }
                40..=54 => {
                    let training: Vec<WorkerId> = self.workers.keys().copied().collect();
                    if !training.is_empty() {
                        let worker = training[self.roll(training.len() as u64) as usize];
                        self.advance(worker);
                    }
                    Ok(())
                }
                55..=62 => self.request(),
                63..=65 => {
                    let candidates: Vec<WorkerId> = self.core.audience().into_iter().collect();
                    if candidates.is_empty() {
                        return Ok(());
                    }
                    let victim = candidates[self.roll(candidates.len() as u64) as usize];
                    if matches!(self.core.durable.phase, AmPhase::Transferring { .. }) {
                        self.cov.deaths_mid_transfer += 1;
                    }
                    self.alive.remove(&victim);
                    self.workers.remove(&victim);
                    self.step(Event::GaveUp(victim))
                }
                66..=74 => {
                    self.deliver_mail();
                    Ok(())
                }
                _ => {
                    self.ms += 20;
                    let alive: Vec<WorkerId> = self.alive.iter().copied().collect();
                    for worker in alive {
                        let iteration = self.workers.get(&worker).map_or(0, |s| s.at);
                        let beat = RtMsg::Heartbeat { worker, iteration };
                        self.step(Event::Message(EndpointId::Worker(worker), beat))?;
                    }
                    self.step(Event::Tick)
                }
            }
        }

        /// Delivers every queued message and order, in order.
        fn settle(&mut self) {
            while !self.inbox.is_empty() || !self.mail.is_empty() {
                if !self.inbox.is_empty() {
                    let (from, msg) = self.inbox.remove(0);
                    self.step(Event::Message(from, msg)).unwrap();
                }
                while !self.mail.is_empty() {
                    self.deliver_mail();
                }
            }
        }
    }

    fn op_seq(op: &RtMsg) -> u64 {
        match op {
            RtMsg::AdjustTo { seq, .. } | RtMsg::Stop { seq } | RtMsg::Checkpoint { seq } => *seq,
            _ => 0,
        }
    }

    fn run_seed(seed: u64) -> Result<Coverage, String> {
        let mut sim = Sim::new(seed, 3);
        sim.arm_crashes = true;
        for _ in 0..600 {
            if sim.stopped {
                break;
            }
            if sim.crashed || sim.roll(150) == 0 {
                sim.failover()?;
            } else {
                sim.random_step()?;
            }
        }
        Ok(sim.cov)
    }

    proptest! {
        /// Seeded random event sequences — scale-outs and scale-ins,
        /// deaths mid-adjustment, duplicated and reordered replies, park
        /// orders that land after their boundary, stops, and failovers
        /// onto recovered `Transferring`/`Resuming` records — never break
        /// persist-before-act, term fencing or the parked-quorum rule, and
        /// a recovered `Resuming` record resumes at its own generation.
        #[test]
        fn action_lists_keep_the_invariants(seed in 0u64..u64::MAX) {
            if let Err(e) = run_seed(seed) {
                prop_assert!(false, "seed {seed}: {e}");
            }
        }
    }

    #[test]
    fn random_runs_cover_the_pipeline() {
        let mut total = Coverage::default();
        for seed in 0..64 {
            let c = run_seed(seed).unwrap_or_else(|e| panic!("seed {seed}: {e}"));
            total.resumes += c.resumes;
            total.deaths_mid_transfer += c.deaths_mid_transfer;
            total.recovered_transfers += c.recovered_transfers;
            total.recovered_resumes += c.recovered_resumes;
            total.stale_steps += c.stale_steps;
            total.retargets += c.retargets;
            total.ordered_parks += c.ordered_parks;
            total.skew_parks += c.skew_parks;
        }
        assert!(total.resumes > 0, "{total:?}");
        assert!(total.deaths_mid_transfer > 0, "{total:?}");
        assert!(total.recovered_transfers > 0, "{total:?}");
        assert!(total.recovered_resumes > 0, "{total:?}");
        assert!(total.stale_steps > 0, "{total:?}");
        assert!(total.retargets > 0, "{total:?}");
        assert!(total.ordered_parks > 0, "{total:?}");
        assert!(total.skew_parks > 0, "{total:?}");
    }

    /// A successor recovering a `Resuming` record: the members the wave
    /// was moving, with the dismissed worker 2 still parked.
    fn recovered_resuming(store_term: u64) -> (AmCore, Vec<Action>) {
        let mut record = AmDurable::founding(vec![w(0), w(1), w(2)]);
        record.term = 2;
        record.phase = AmPhase::Resuming {
            target: vec![w(0), w(1), w(3)],
            seq: Some(4),
            generation: 7,
        };
        let hb = HeartbeatMonitor::new(HB_TIMEOUT);
        let mut out = Actions::default();
        let mut core = AmCore::incarnate(1, record, INTERVAL, None, hb, now(0, 2, 6), &mut out);
        assert_eq!(
            out.drain().filter(|a| authority_term(a) == Some(2)).count(),
            4,
            "AmReset to members and target"
        );
        for worker in [w(0), w(1), w(2)] {
            let msg = RtMsg::Coordinate {
                worker,
                iteration: 10,
            };
            core.step(
                Event::Message(EndpointId::Worker(worker), msg),
                now(1, 2, 6),
                &mut out,
            );
        }
        core.step(Event::Tick, now(1, store_term, 6), &mut out);
        (core, out.drain().collect())
    }

    #[test]
    fn recovered_resuming_record_reissues_its_wave() {
        let (core, acts) = recovered_resuming(2);
        assert!(
            matches!(&acts[0], Action::Persist { checked: true, .. }),
            "{acts:?}"
        );
        let resumed: Vec<WorkerId> = acts
            .iter()
            .filter_map(|a| match a {
                Action::Send(
                    EndpointId::Worker(x),
                    RtMsg::Resume {
                        generation: 7,
                        term: 2,
                    },
                ) => Some(*x),
                _ => None,
            })
            .collect();
        assert_eq!(resumed, [w(0), w(1), w(3)]);
        assert!(acts
            .iter()
            .any(|a| matches!(a, Action::Reconfigure(7, m) if *m == [w(0), w(1), w(3)])));
        assert!(acts
            .iter()
            .any(|a| matches!(a, Action::Send(EndpointId::Worker(x), RtMsg::Leave { term: 2 }) if *x == w(2))));
        assert!(acts.iter().any(|a| matches!(
            a,
            Action::Send(EndpointId::Controller, RtMsg::Ack { seq: 4 })
        )));
        assert_eq!(core.durable.members, [w(0), w(1), w(3)]);
        assert_eq!(core.durable.phase, AmPhase::Steady);
    }

    #[test]
    fn superseded_recovery_probes_the_fence_and_orders_nothing() {
        let (core, acts) = recovered_resuming(3);
        assert!(core.fenced());
        assert!(
            acts.iter()
                .all(|a| matches!(a, Action::Persist { checked: false, .. })),
            "a superseded core only learns it is fenced: {acts:?}"
        );
    }

    /// Steps the core on a tick and returns what it ordered.
    fn tick(sim: &mut Sim) -> Vec<Action> {
        sim.ms += 20;
        let mut out = Actions::default();
        sim.core.step(Event::Tick, sim.now(), &mut out);
        let acts: Vec<Action> = out.drain().collect();
        sim.run(acts.clone()).unwrap();
        acts
    }

    /// Two founders pass the first boundary, which the core releases.
    fn founders_past_the_first_boundary(seed: u64) -> Sim {
        let mut sim = Sim::new(seed, 2);
        sim.advance(w(0));
        sim.advance(w(1));
        sim.settle();
        tick(&mut sim);
        sim.settle();
        assert_eq!(sim.core.last_boundary, INTERVAL);
        sim
    }

    #[test]
    fn a_missed_park_moves_the_target_on() {
        let mut sim = founders_past_the_first_boundary(3);
        let checkpoint = RtMsg::Checkpoint { seq: 1 };
        sim.step(Event::Message(EndpointId::Controller, checkpoint))
            .unwrap();
        let acts = tick(&mut sim);
        assert!(acts.iter().any(|a| matches!(
            a,
            Action::Emit(
                _,
                EventKind::ParkOrdered {
                    boundary: 10,
                    retarget: false,
                    ..
                }
            )
        )));
        // Worker 0's order lands in time; worker 1 passes boundary 10
        // before its order reaches it.
        let i = sim.mail.iter().position(|(to, _)| *to == w(0)).unwrap();
        let (to, order) = sim.mail.remove(i);
        sim.mail.retain(|(to, _)| *to != w(1));
        sim.mail.push((to, order));
        sim.deliver_mail();
        sim.advance(w(0));
        sim.advance(w(1));
        assert!(sim.workers[&w(0)].parked && !sim.workers[&w(1)].parked);
        sim.settle();
        let acts = tick(&mut sim);
        assert!(
            acts.iter().any(|a| matches!(
                a,
                Action::Emit(
                    _,
                    EventKind::ParkOrdered {
                        boundary: 15,
                        retarget: true,
                        ..
                    }
                )
            )),
            "{acts:?}"
        );
        assert!(
            !acts
                .iter()
                .any(|a| matches!(a, Action::Send(_, RtMsg::CheckpointOrder { .. }))),
            "no order while worker 1 trains on"
        );
        sim.settle();
        // Both park at the new target, and the checkpoint is served there.
        sim.advance(w(0));
        sim.advance(w(1));
        sim.settle();
        let acts = tick(&mut sim);
        assert!(acts.iter().any(|a| matches!(
            a,
            Action::Emit(
                _,
                EventKind::BoundaryActed {
                    boundary: 15,
                    act: BoundaryAct::Checkpoint,
                    ..
                }
            )
        )));
        assert!(acts
            .iter()
            .any(|a| matches!(a, Action::Send(_, RtMsg::CheckpointOrder { seq: 1, .. }))));
    }

    #[test]
    fn a_park_short_of_the_order_is_released_by_it() {
        let mut sim = founders_past_the_first_boundary(5);
        // Both pass 10; only worker 1 hears of its release.
        sim.advance(w(0));
        sim.advance(w(1));
        sim.settle();
        tick(&mut sim);
        sim.mail.retain(|(to, _)| *to == w(1));
        sim.settle();
        // Worker 0 parks on skew at 15, worker 1 at 20.
        sim.advance(w(0));
        sim.advance(w(1));
        sim.advance(w(1));
        assert!(sim.workers[&w(0)].parked && sim.workers[&w(0)].at == 15);
        assert!(sim.workers[&w(1)].parked && sim.workers[&w(1)].at == 20);
        sim.settle();
        let checkpoint = RtMsg::Checkpoint { seq: 1 };
        sim.step(Event::Message(EndpointId::Controller, checkpoint))
            .unwrap();
        tick(&mut sim);
        // Worker 1 already waits parked at 20, so the order is for 20.
        assert_eq!(sim.core.park_target, 20);
        // It releases worker 0, which trains on and parks there too.
        sim.settle();
        assert!(!sim.workers[&w(0)].parked);
        sim.advance(w(0));
        sim.settle();
        assert!(sim.workers.values().all(|s| s.parked && s.at == 20));
        let acts = tick(&mut sim);
        assert!(acts
            .iter()
            .any(|a| matches!(a, Action::Send(_, RtMsg::CheckpointOrder { .. }))));
    }

    #[test]
    fn death_mid_transfer_replans_from_the_survivors() {
        let mut sim = founders_past_the_first_boundary(7);
        // Scale out by one; both founders park at the ordered boundary.
        let target = vec![w(0), w(1), w(2)];
        sim.alive.insert(w(2));
        let adjust = RtMsg::AdjustTo { seq: 1, target };
        sim.step(Event::Message(EndpointId::Controller, adjust))
            .unwrap();
        sim.step(Event::Message(
            EndpointId::Worker(w(2)),
            RtMsg::Report { worker: w(2) },
        ))
        .unwrap();
        tick(&mut sim);
        sim.settle();
        sim.advance(w(0));
        sim.advance(w(1));
        sim.settle();
        tick(&mut sim);
        assert!(matches!(
            sim.core.durable.phase,
            AmPhase::Transferring { .. }
        ));
        let (src, _) = *sim.core.outstanding.iter().next().unwrap();
        // The transfer's source dies: its `TransferDone` never comes.
        sim.inbox
            .retain(|(from, _)| *from != EndpointId::Worker(src));
        sim.alive.remove(&src);
        sim.workers.remove(&src);
        sim.step(Event::GaveUp(src)).unwrap();
        assert!(!sim.core.transfers_started, "stale schedule dropped");
        let survivor = if src == w(0) { w(1) } else { w(0) };
        // The survivor is still parked; the re-plan sources from it alone.
        for _ in 0..6 {
            sim.settle();
            tick(&mut sim);
        }
        assert_eq!(sim.core.durable.members, [survivor, w(2)]);
        assert_eq!(sim.core.durable.phase, AmPhase::Steady);
        assert!(sim.cov.resumes >= 2);
    }
}
