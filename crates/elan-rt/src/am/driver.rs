//! The AM thread: the driver of one incarnation's [`AmCore`]. It owns
//! every effect the core only orders — the reliable endpoint, the clock,
//! the lease, the collective and the shared control plane — feeds the
//! core events, and runs each step's actions in order.

use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::Duration;

use elan_core::lease::LeaseId;

use super::{Action, Actions, AmCore, Event, Now};
use crate::bus::{Bus, Endpoint, EndpointId, RtMsg};
use crate::comm::CommGroup;
use crate::liveness::{HeartbeatMonitor, SharedControl};
use crate::obs::EventKind;
use crate::reliable::ReliableEndpoint;
use crate::runtime::{RuntimeConfig, HB_TIMEOUT, RETRY_TIMEOUT, TICK};

/// High bit of the AM's message-id owner: replacement AMs get fresh
/// sender streams (`AM_OWNER_FLAG | epoch`), so their messages are never
/// mistaken for their predecessor's at any receiver's dedup filter.
const AM_OWNER_FLAG: u32 = 1 << 31;

/// Runs the AM incarnation at `epoch` until it abdicates, crashes or
/// serves a stop.
pub(crate) fn am_thread(
    cfg: RuntimeConfig,
    bus: Bus,
    endpoint: Endpoint,
    comm: Arc<CommGroup>,
    ctrl: Arc<SharedControl>,
    epoch: u64,
    lease: LeaseId,
) {
    let rep = ReliableEndpoint::new(
        bus,
        endpoint,
        AM_OWNER_FLAG | epoch as u32,
        RETRY_TIMEOUT,
        Some(cfg.retry_max_attempts),
        Arc::clone(&ctrl.obs.rt),
    );
    // Mark ownership before acting (persist-before-act): atomically bump
    // the fencing term, so any still-running predecessor's next persist
    // is rejected at the store.
    let durable = ctrl.bump_term(epoch);
    let term = durable.term;
    ctrl.obs.journal.emit(EventKind::TermBump { term });
    let grace = Duration::from_millis(ctrl.first_contact_grace_ms.load(Ordering::SeqCst));
    let hb = HeartbeatMonitor::with_grace(HB_TIMEOUT, grace.max(HB_TIMEOUT));
    let mut acts = Actions::default();
    // Only AMs reconfigure the collective, each behind a persisted record,
    // so this read stays current until this incarnation's own orders.
    let generation = comm.generation();
    let now = now(&rep, &ctrl, generation);
    let interval = cfg.coordination_interval;
    let open = cfg.open_membership;
    let core = AmCore::incarnate(epoch, durable, interval, open, hb, now, &mut acts);
    let mut am = Driver {
        rep,
        comm,
        ctrl,
        epoch,
        lease,
        generation,
        core,
        acts,
    };
    if am.execute() {
        am.run();
    }
}

fn now(rep: &ReliableEndpoint, ctrl: &SharedControl, generation: u64) -> Now {
    let (at, term) = (rep.time().now(), ctrl.term());
    Now {
        at,
        term,
        generation,
    }
}

struct Driver {
    rep: ReliableEndpoint,
    comm: Arc<CommGroup>,
    ctrl: Arc<SharedControl>,
    epoch: u64,
    lease: LeaseId,
    /// The collective's generation, as of this incarnation's last order.
    generation: u64,
    core: AmCore,
    /// The one action list every step reuses.
    acts: Actions,
}

impl Driver {
    fn run(&mut self) {
        loop {
            if self.ctrl.shutting_down() || self.core.fenced() {
                return;
            }
            // A partitioned AM can neither refresh its lease (so the
            // watchdog elects a successor) nor observe the election: the
            // term fence is what stops it once superseded. Otherwise prove
            // liveness; abdicate once the lease or the epoch is lost.
            let isolated = self
                .rep
                .bus()
                .is_partitioned(EndpointId::Am, EndpointId::Controller);
            if !isolated
                && (self.ctrl.keep_alive(self.lease).is_err()
                    || self.ctrl.epoch.load(Ordering::SeqCst) != self.epoch)
            {
                return;
            }
            self.give_ups();
            if !self.step(Event::Tick) || self.core.fenced() {
                return;
            }
            if let Some((from, msg)) = self.rep.recv_timeout(TICK) {
                if let RtMsg::Heartbeat { worker, iteration } = msg {
                    // The controller's progress view when workers are
                    // remote processes (the in-process telemetry map
                    // stays empty).
                    let mut progress = self.ctrl.progress.lock();
                    let e = progress.entry(worker).or_insert(iteration);
                    *e = (*e).max(iteration);
                }
                if !self.step(Event::Message(from, msg)) {
                    return;
                }
            }
        }
    }

    /// Transport retries: a give-up means the peer is dead.
    fn give_ups(&mut self) {
        for to in self.rep.tick() {
            if let EndpointId::Worker(w) = to {
                self.step(Event::GaveUp(w));
            }
        }
    }

    /// One core step; false when the incarnation is done.
    fn step(&mut self, event: Event) -> bool {
        let now = now(&self.rep, &self.ctrl, self.generation);
        self.core.step(event, now, &mut self.acts);
        self.execute()
    }

    /// Runs the pending actions in order; false when the incarnation is
    /// done (a crash point fired, or a stop ended it).
    fn execute(&mut self) -> bool {
        let mut acts = std::mem::take(&mut self.acts);
        for action in acts.drain() {
            match action {
                Action::Persist { record, checked } => {
                    if !self.ctrl.persist(record) {
                        self.core.fence();
                        if checked {
                            break;
                        }
                    }
                }
                Action::Send(to, msg) => _ = self.rep.send(to, msg),
                Action::Emit(at_us, kind) => _ = self.ctrl.obs.journal.emit_at(at_us, kind),
                Action::Trace(at_us, span) => self.ctrl.obs.span(span, at_us),
                Action::Evict(w) => _ = self.comm.evict(w),
                Action::Reconfigure(generation, members) => {
                    if self.comm.generation() < generation {
                        let g = self.comm.reconfigure(members);
                        debug_assert_eq!(g, generation, "generation replay diverged");
                    }
                    self.generation = self.comm.generation();
                }
                Action::PublishMembers(members) => *self.ctrl.members.lock() = members,
                Action::CountFailureScaleIn => self.ctrl.obs.rt.failure_scale_ins.inc(),
                Action::Crash(point) => {
                    let mut armed = self.ctrl.am_crash.lock();
                    if *armed == Some(point) {
                        *armed = None;
                        return false; // die without cleanup
                    }
                }
                Action::DrainAndStop => {
                    self.drain_pending(Duration::from_secs(10));
                    self.step(Event::Drained);
                    if !self.core.fenced() {
                        // Served: let the ack drain, then surrender the
                        // lease so the watchdog stays quiet.
                        self.drain_pending(Duration::from_secs(5));
                        *self.ctrl.current_lease.lock() = None;
                        self.ctrl.leases.lock().revoke(self.lease);
                    }
                    return false;
                }
            }
        }
        self.acts = acts;
        true
    }

    /// Waits until every reliable send is acked, or `budget` passes.
    fn drain_pending(&mut self, budget: Duration) {
        let time = self.rep.time().clone();
        let deadline = time.deadline_after(budget);
        while self.rep.pending() > 0 && time.now() < deadline {
            // Draining can outlast the lease under chaos (every Leave may
            // need its full retry budget), and a lapsed lease mid-stop
            // triggers a pointless succession; keep proving liveness. A
            // failed renewal means a successor already owns the job — stop
            // draining and let the fence abort whatever comes next.
            if self.ctrl.keep_alive(self.lease).is_err() {
                return;
            }
            self.give_ups();
            let _ = self.rep.recv_timeout(Duration::from_millis(5));
        }
    }
}
