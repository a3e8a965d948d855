//! Liveness machinery for the live runtime: the AM lease, the durable AM
//! state record, and the worker heartbeat monitor.
//!
//! The design follows Elan §V-D: the application master persists every
//! state transition to a term-fenced durable record *before* acting on it
//! (`SharedControl::persist`), and proves its own liveness by refreshing
//! the one AM lease in `SharedControl` — which epoch holds it and when it
//! last refreshed. When the lease lapses — because the AM thread died or
//! was deliberately crashed by a test — the watchdog elects a replacement
//! AM at the next epoch, which bumps the record's term, reads it back and
//! resumes whatever adjustment was in flight.
//!
//! Workers prove their liveness with periodic heartbeats; the AM-side
//! `HeartbeatMonitor` turns missed heartbeats into failure-driven
//! scale-in decisions.

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use parking_lot::{Mutex, RwLock};

use elan_core::protocol::EpochPhase;
use elan_core::state::WorkerId;
use elan_sim::{SimDuration, SimTime};

use crate::obs::{EventKind, Obs};
use crate::time::{std_to_sim, JoinHandle, TimeSource};

/// Where an armed AM crash fires (test hook for recovery scenarios).
///
/// The runtime's [`arm_am_crash`](crate::ElasticRuntime::arm_am_crash)
/// plants one of these; the AM thread checks the flag at the matching
/// point of its adjustment pipeline and, if set, simply returns — without
/// surrendering its lease — so the watchdog must notice the silence and
/// elect a replacement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CrashPoint {
    /// Die right after persisting `Transferring`, before sending any
    /// transfer orders: the replacement must re-derive and re-send them.
    OnAdjustStart,
    /// Die right after persisting `Resuming`, before sending
    /// `Resume`/`Leave`: the replacement must re-issue the resume wave.
    OnResume,
}

/// The fault a test injected into one worker (test hook for crash and
/// rejoin scenarios), from arming to the restart that clears it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum WorkerFault {
    /// Ordered to play dead
    /// ([`crash_worker`](crate::ElasticRuntime::crash_worker)): it stops
    /// heartbeating, training and responding.
    PlayDead,
    /// Armed ([`crash_worker_at`](crate::ElasticRuntime::crash_worker_at))
    /// to die at its first coordination boundary at or past this
    /// iteration — after the SGD step, *before* reporting the boundary.
    /// Survivors have the complete reduced state of that boundary (the
    /// rejoin recalls them to it), so a restarted incarnation can be
    /// re-fed bit-identical state via the `Rejoin` handshake.
    ArmedAt(u64),
    /// Died at a boundary, knowing this fencing term and boundary
    /// iteration — what its restarted incarnation presents in `Rejoin`.
    Fired {
        /// Highest term the worker had seen.
        term: u64,
        /// The boundary it died at.
        iteration: u64,
    },
}

/// What stage of an adjustment the durable AM record is in.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) enum AmPhase {
    /// No adjustment in flight.
    Steady,
    /// Transfer orders are (about to be) outstanding for a move to
    /// `target`. `seq: None` marks a failure-driven adjustment with no
    /// controller op to acknowledge.
    Transferring {
        /// The membership being moved to.
        target: Vec<WorkerId>,
        /// Controller op being served, if any.
        seq: Option<u64>,
    },
    /// State transfer finished; the resume wave (`Leave` + `Resume`) for
    /// comm-group `generation` is (about to be) outstanding.
    Resuming {
        /// The membership being moved to.
        target: Vec<WorkerId>,
        /// Controller op being served, if any.
        seq: Option<u64>,
        /// The comm-group generation workers must resume into.
        generation: u64,
    },
}

/// A controller-requested (or failure-driven) adjustment not yet started.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct PendingOp {
    /// Controller op sequence to acknowledge, or `None` for an internal
    /// failure-driven adjustment.
    pub seq: Option<u64>,
    /// The membership to adjust to.
    pub target: Vec<WorkerId>,
}

/// Everything a replacement AM needs to take over mid-flight.
///
/// The AM persists this record ([`SharedControl::persist`]) *before* every
/// externally visible action, so the record is always at or ahead of the
/// cluster's observed state and replaying from it is safe.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct AmDurable {
    /// Monotonic fencing term: bumped by every AM incarnation before it
    /// acts ([`SharedControl::bump_term`]). Writes carrying an older term
    /// are rejected by [`SharedControl::persist`], so a partitioned
    /// predecessor cannot clobber the record after a takeover.
    pub term: u64,
    /// Current active membership.
    pub members: Vec<WorkerId>,
    /// Adjustment stage.
    pub phase: AmPhase,
    /// Next adjustment waiting behind the in-flight one.
    pub pending: Option<PendingOp>,
    /// A `Stop{seq}` being served, if any.
    pub stopping: Option<u64>,
    /// Highest controller op sequence fully completed (for idempotent
    /// re-acknowledgement of duplicate ops).
    pub seq_done: u64,
    /// Open-membership training epoch (DESIGN.md §17); 0 when the epoch
    /// machine is off.
    pub train_epoch: u64,
    /// Phase of the training epoch, persisted so a successor AM can
    /// rebuild its [`EpochMachine`](crate::epoch::EpochMachine).
    pub epoch_phase: EpochPhase,
}

impl AmDurable {
    /// A fresh record for a founding membership.
    pub(crate) fn founding(members: Vec<WorkerId>) -> Self {
        AmDurable {
            term: 0,
            members,
            phase: AmPhase::Steady,
            pending: None,
            stopping: None,
            seq_done: 0,
            train_epoch: 0,
            epoch_phase: EpochPhase::WaitingForMembers,
        }
    }
}

/// The AM lease (§V-D): the incarnation that holds it and when it last
/// proved liveness. `refreshed` is `None` once the holder surrendered
/// the lease on a served stop.
#[derive(Debug)]
struct AmLease {
    /// Founding AM 0, one more per election.
    epoch: u64,
    refreshed: Option<SimTime>,
}

/// Control-plane state shared by the controller, AM, watchdog, and tests.
///
/// This is the "etcd" of the miniature cluster: the durable AM record, the
/// AM lease, crash-injection flags, and the authoritative membership view.
pub(crate) struct SharedControl {
    /// Durable AM record (persist-before-act), term-fenced by
    /// [`persist`](Self::persist). Seeded at construction with an empty
    /// founding membership at term 0.
    durable: Mutex<AmDurable>,
    /// The AM lease: the live incarnation's epoch and its last refresh.
    lease: Mutex<AmLease>,
    /// How long a refresh keeps the lease alive: it is valid on
    /// `[refreshed, refreshed + lease_ttl)`.
    lease_ttl: SimDuration,
    /// The runtime clock the lease (and heartbeat reasoning) ticks on —
    /// one [`SimTime`] axis shared with the bus, the retry trackers and
    /// the event journal.
    time: TimeSource,
    /// Authoritative current membership (updated by the AM on resume).
    pub members: Mutex<Vec<WorkerId>>,
    /// Set once at shutdown; every loop exits when it observes this.
    pub shutdown: AtomicBool,
    /// Armed AM crash point, taken (once) by the AM thread.
    pub am_crash: Mutex<Option<CrashPoint>>,
    /// The injected fault of each faulted worker, until its restart.
    pub faults: RwLock<HashMap<WorkerId, WorkerFault>>,
    /// Latest iteration the AM has heard from each worker (heartbeat
    /// telemetry). This is the controller's progress view when workers
    /// live in other processes and the in-process `Telemetry` map stays
    /// empty.
    pub progress: Mutex<HashMap<WorkerId, u64>>,
    /// First-contact grace (ms) the failure detector extends to members
    /// it has never heard from. Zero means "same as the heartbeat
    /// timeout" — the historical behavior, right for in-process workers
    /// that are running before the AM's first poll. The runtime widens
    /// it in remote mode, where founding workers are separate OS
    /// processes whose spawn + dial-in can outlast the steady-state
    /// timeout; it lives here (not in `RuntimeConfig`) so replacement AM
    /// incarnations elected by the watchdog inherit it.
    pub first_contact_grace_ms: AtomicU64,
    /// Join handles of every AM incarnation (original + replacements).
    pub am_handles: Mutex<Vec<JoinHandle<()>>>,
    /// Shared observability bundle (journal + traces + metrics registry).
    pub obs: Arc<Obs>,
}

impl SharedControl {
    /// Creates the shared control plane with the given AM lease TTL, on a
    /// private real-time clock (tests); the runtime builder uses
    /// [`SharedControl::with_time`].
    #[cfg(test)]
    pub(crate) fn new(lease_ttl: Duration, obs: Arc<Obs>) -> Self {
        SharedControl::with_time(lease_ttl, obs, TimeSource::real())
    }

    /// Creates the shared control plane ticking on the runtime's clock.
    /// The founding AM (epoch 0) holds the lease from this instant.
    pub(crate) fn with_time(lease_ttl: Duration, obs: Arc<Obs>, time: TimeSource) -> Self {
        SharedControl {
            durable: Mutex::new(AmDurable::founding(Vec::new())),
            lease: Mutex::new(AmLease {
                epoch: 0,
                refreshed: Some(time.now()),
            }),
            lease_ttl: std_to_sim(lease_ttl),
            time,
            members: Mutex::new(Vec::new()),
            shutdown: AtomicBool::new(false),
            am_crash: Mutex::new(None),
            faults: RwLock::new(HashMap::new()),
            progress: Mutex::new(HashMap::new()),
            first_contact_grace_ms: AtomicU64::new(0),
            am_handles: Mutex::new(Vec::new()),
            obs,
        }
    }

    /// "Now" on the runtime's shared time axis (real or virtual).
    pub(crate) fn now_sim(&self) -> SimTime {
        self.time.now()
    }

    /// Elects the next AM incarnation: moves the lease to the next epoch
    /// and refreshes it for that epoch, in one step. Returns the epoch.
    pub(crate) fn elect(&self) -> u64 {
        let mut lease = self.lease.lock();
        lease.epoch += 1;
        lease.refreshed = Some(self.now_sim());
        lease.epoch
    }

    /// Refreshes the lease for `epoch`. False — the caller must abdicate —
    /// unless `epoch` holds the lease and it has not lapsed.
    pub(crate) fn keep_alive(&self, epoch: u64) -> bool {
        let now = self.now_sim();
        let mut lease = self.lease.lock();
        match lease.refreshed {
            Some(t) if lease.epoch == epoch && now < t + self.lease_ttl => {
                lease.refreshed = Some(now);
                true
            }
            _ => false,
        }
    }

    /// True if the lease lapsed unsurrendered — the active AM has stopped
    /// proving liveness and a takeover is warranted.
    pub(crate) fn lease_expired(&self) -> bool {
        let now = self.now_sim();
        matches!(self.lease.lock().refreshed, Some(t) if now >= t + self.lease_ttl)
    }

    /// Gives up `epoch`'s lease after a served stop, so the watchdog
    /// stays quiet. A superseded epoch surrenders nothing.
    pub(crate) fn surrender(&self, epoch: u64) {
        let mut lease = self.lease.lock();
        if lease.epoch == epoch {
            lease.refreshed = None;
        }
    }

    /// Persists the durable AM record — the persist-before-act write,
    /// term-fenced: the write lands iff `record.term` is at least the
    /// stored term. Returns false (and journals
    /// [`EventKind::StaleTermRejected`]) when a newer term owns the
    /// record, in which case the caller was superseded and must abdicate
    /// *without* taking the externally visible action the write guards.
    pub fn persist(&self, record: AmDurable) -> bool {
        let stored_term = {
            let mut durable = self.durable.lock();
            if record.term >= durable.term {
                *durable = record;
                return true;
            }
            durable.term
        };
        self.obs.journal.emit(EventKind::StaleTermRejected {
            term: stored_term,
            stale: record.term,
        });
        false
    }

    /// The stored record's fencing term: an incarnation holding an older
    /// one has been superseded, and every persist it attempts is rejected.
    pub(crate) fn term(&self) -> u64 {
        self.durable.lock().term
    }

    /// Atomically bumps the fencing term on the durable record — the
    /// first thing every AM incarnation does, so that any still-running
    /// predecessor's next [`persist`](Self::persist) is fenced. Returns
    /// the updated record.
    pub(crate) fn bump_term(&self) -> AmDurable {
        let mut durable = self.durable.lock();
        durable.term += 1;
        durable.clone()
    }

    /// True if `worker` has been ordered to play dead.
    pub(crate) fn worker_crashed(&self, worker: WorkerId) -> bool {
        self.faults.read().get(&worker) == Some(&WorkerFault::PlayDead)
    }

    /// Fires `worker`'s armed boundary crash once `iteration` has reached
    /// it (one-shot), recording the `term` it knew. True if it fired.
    pub(crate) fn fire_boundary_crash(&self, worker: WorkerId, term: u64, iteration: u64) -> bool {
        match self.faults.write().get_mut(&worker) {
            Some(fault) if matches!(*fault, WorkerFault::ArmedAt(at) if iteration >= at) => {
                *fault = WorkerFault::Fired { term, iteration };
                true
            }
            _ => false,
        }
    }

    /// True once shutdown has been requested.
    pub(crate) fn shutting_down(&self) -> bool {
        self.shutdown.load(Ordering::SeqCst)
    }
}

/// AM-side failure detector over worker heartbeats.
///
/// Ticks on the runtime's shared [`SimTime`] axis — the AM feeds it
/// readings from the same [`TimeSource`] the bus and lease use, so
/// under virtual time the failure threshold is exact and testable to the
/// nanosecond.
#[derive(Debug)]
pub(crate) struct HeartbeatMonitor {
    last: HashMap<WorkerId, SimTime>,
    /// Members never heard from, seeded at first poll. Kept apart from
    /// `last` so a first proof of life can be awaited under a different
    /// (usually longer) deadline than continued silence after one.
    awaited: HashMap<WorkerId, SimTime>,
    timeout: SimDuration,
    first_contact: SimDuration,
}

impl HeartbeatMonitor {
    /// A monitor declaring workers dead after `timeout` of silence.
    #[cfg(test)]
    pub(crate) fn new(timeout: Duration) -> Self {
        HeartbeatMonitor::with_grace(timeout, timeout)
    }

    /// A monitor whose never-heard-from members get `first_contact` of
    /// grace before the verdict, instead of `timeout`.
    ///
    /// In-process workers are running before the AM's first poll, so
    /// `new` keeps the two deadlines equal; remote workers are separate
    /// OS processes whose spawn + dial-in can easily outlast a heartbeat
    /// timeout tuned for steady-state silence, so the runtime widens
    /// `first_contact` in remote mode.
    pub(crate) fn with_grace(timeout: Duration, first_contact: Duration) -> Self {
        HeartbeatMonitor {
            last: HashMap::new(),
            awaited: HashMap::new(),
            timeout: std_to_sim(timeout),
            first_contact: std_to_sim(first_contact),
        }
    }

    /// Records a liveness proof from `worker` at `now`.
    ///
    /// Any message from a worker counts — heartbeats are just the
    /// guaranteed minimum traffic.
    pub(crate) fn note(&mut self, worker: WorkerId, now: SimTime) {
        self.awaited.remove(&worker);
        self.last.insert(worker, now);
    }

    /// The subset of `members` whose last proof is older than the timeout.
    ///
    /// A member never heard from at all is given the benefit of the doubt
    /// by starting its clock at first observation: `dead` seeds `now` for
    /// unknown members instead of condemning them immediately, and holds
    /// them to the `first_contact` deadline rather than `timeout`.
    pub(crate) fn dead(&mut self, members: &[WorkerId], now: SimTime) -> Vec<WorkerId> {
        members
            .iter()
            .copied()
            .filter(|w| {
                if let Some(&last) = self.last.get(w) {
                    now.saturating_duration_since(last) > self.timeout
                } else {
                    let seeded = *self.awaited.entry(*w).or_insert(now);
                    now.saturating_duration_since(seeded) > self.first_contact
                }
            })
            .collect()
    }

    /// Forgets a worker (it left or was declared dead).
    pub(crate) fn forget(&mut self, worker: WorkerId) {
        self.last.remove(&worker);
        self.awaited.remove(&worker);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The durable record as currently stored.
    fn stored(ctrl: &SharedControl) -> AmDurable {
        ctrl.durable.lock().clone()
    }

    #[test]
    fn founding_record_is_steady() {
        let rec = AmDurable::founding(vec![WorkerId(0), WorkerId(1)]);
        assert_eq!(rec.phase, AmPhase::Steady);
        assert_eq!(rec.seq_done, 0);
        assert!(rec.pending.is_none());
    }

    #[test]
    fn persist_recover_roundtrip() {
        let ctrl = SharedControl::new(Duration::from_millis(100), Obs::new_default());
        assert_eq!(stored(&ctrl), AmDurable::founding(Vec::new()), "seeded");
        let mut rec = AmDurable::founding(vec![WorkerId(0)]);
        rec.phase = AmPhase::Transferring {
            target: vec![WorkerId(0), WorkerId(1)],
            seq: Some(3),
        };
        assert!(ctrl.persist(rec.clone()));
        assert_eq!(stored(&ctrl), rec);
    }

    #[test]
    fn stale_term_persist_is_fenced() {
        let ctrl = SharedControl::new(Duration::from_millis(100), Obs::new_default());
        let mut rec = AmDurable::founding(vec![WorkerId(0)]);
        rec.term = 3;
        assert!(ctrl.persist(rec.clone()));
        // A predecessor still holding term 2 must be rejected, leaving
        // the newer record untouched.
        let mut stale = rec.clone();
        stale.term = 2;
        stale.seq_done = 99;
        assert!(!ctrl.persist(stale));
        assert_eq!(stored(&ctrl), rec);
        // Same term (the incumbent itself) still writes.
        rec.seq_done = 1;
        assert!(ctrl.persist(rec.clone()));
        assert_eq!(stored(&ctrl).seq_done, 1);
    }

    #[test]
    fn bump_term_is_monotonic() {
        let ctrl = SharedControl::new(Duration::from_millis(100), Obs::new_default());
        assert!(ctrl.persist(AmDurable::founding(vec![WorkerId(0)])));
        let first = ctrl.bump_term();
        assert_eq!(first.term, 1);
        let second = ctrl.bump_term();
        assert_eq!(second.term, 2);
        assert_eq!(stored(&ctrl), second);
        // The fenced-out first incarnation can no longer write.
        assert!(!ctrl.persist(first));
    }

    proptest! {
        /// Random interleavings of `bump_term` and `persist` from stale
        /// and current AM incarnations (plus records carrying arbitrary
        /// terms): the stored term never decreases, a persist lands iff
        /// its term is at least the stored term, and every rejection
        /// journals exactly one `StaleTermRejected`.
        #[test]
        fn fenced_record_holds_under_random_interleavings(
            ops in prop::collection::vec(0u64..1_000_000, 1..64),
        ) {
            let ctrl = SharedControl::new(Duration::from_millis(100), Obs::new_default());
            let rejections = || ctrl.obs.journal.summary().count("stale_term_rejected");
            // Each incarnation's working copy of the record; the founding
            // one (term 0) is what launch persists.
            let mut incarnations = vec![AmDurable::founding(vec![WorkerId(0)])];
            for &op in &ops {
                let before = stored(&ctrl);
                let rejected_before = rejections();
                let arg = op / 3;
                let record = match op % 3 {
                    0 => {
                        let bumped = ctrl.bump_term();
                        prop_assert_eq!(bumped.term, before.term + 1);
                        prop_assert_eq!(&stored(&ctrl), &bumped);
                        prop_assert_eq!(rejections(), rejected_before);
                        incarnations.push(bumped);
                        continue;
                    }
                    1 => {
                        let i = (arg % incarnations.len() as u64) as usize;
                        incarnations[i].seq_done = op;
                        incarnations[i].clone()
                    }
                    _ => {
                        let mut forged = before.clone();
                        forged.term = arg % (before.term + 3);
                        forged.seq_done = op;
                        forged
                    }
                };
                let lands = record.term >= before.term;
                prop_assert_eq!(ctrl.persist(record.clone()), lands);
                let after = stored(&ctrl);
                prop_assert!(after.term >= before.term, "stored term decreased");
                prop_assert_eq!(&after, if lands { &record } else { &before });
                prop_assert_eq!(rejections(), rejected_before + u64::from(!lands));
            }
        }
    }

    #[test]
    fn worker_fault_lifecycle_is_one_shot() {
        let ctrl = SharedControl::new(Duration::from_millis(100), Obs::new_default());
        let victim = WorkerId(2);
        ctrl.faults.write().insert(victim, WorkerFault::ArmedAt(10));
        assert!(!ctrl.worker_crashed(victim), "armed is not dead yet");
        assert!(
            !ctrl.fire_boundary_crash(victim, 1, 9),
            "before the armed iteration"
        );
        assert!(
            !ctrl.fire_boundary_crash(WorkerId(1), 1, 10),
            "wrong worker"
        );
        assert!(
            ctrl.fire_boundary_crash(victim, 2, 11),
            "at or past it fires"
        );
        assert!(!ctrl.fire_boundary_crash(victim, 2, 12), "one-shot");
        // The fired record holds the rejoin credentials until a restart
        // takes them, once.
        let taken = ctrl.faults.write().remove(&victim);
        assert_eq!(
            taken,
            Some(WorkerFault::Fired {
                term: 2,
                iteration: 11
            })
        );
        assert!(ctrl.faults.write().remove(&victim).is_none());
        // Play-dead is the one fault a running worker observes.
        ctrl.faults.write().insert(victim, WorkerFault::PlayDead);
        assert!(ctrl.worker_crashed(victim));
        assert!(!ctrl.fire_boundary_crash(victim, 2, 20), "not armed");
    }

    #[test]
    fn lease_expiry_is_observable() {
        // Virtual time: the 40 ms of lease silence costs no wall clock and
        // expires at a *known* instant instead of "roughly after a sleep".
        let time = TimeSource::virtual_seeded(2);
        time.register_current();
        let ctrl =
            SharedControl::with_time(Duration::from_millis(20), Obs::new_default(), time.clone());
        assert!(!ctrl.lease_expired(), "the founding lease is fresh");
        assert!(ctrl.keep_alive(0));
        time.sleep(Duration::from_millis(40));
        assert!(ctrl.lease_expired());
        assert!(!ctrl.keep_alive(0));
        time.deregister();
    }

    /// A control plane whose lease lives `ttl_ns`, on a virtual clock the
    /// calling thread joins; deregister with [`TimeSource::deregister`].
    fn leased(ttl_ns: u64, seed: u64) -> (TimeSource, SharedControl) {
        let time = TimeSource::virtual_seeded(seed);
        time.register_current();
        let ttl = Duration::from_nanos(ttl_ns);
        let ctrl = SharedControl::with_time(ttl, Obs::new_default(), time.clone());
        (time, ctrl)
    }

    /// Moves the virtual clock on to the absolute instant `at_ns`.
    fn advance_to(time: &TimeSource, at_ns: u64) {
        let now = time.now().as_nanos();
        time.sleep(Duration::from_nanos(at_ns.saturating_sub(now)));
    }

    proptest! {
        /// The lease is alive exactly on `[refresh, refresh + ttl)`: under
        /// random probes and refreshes, `lease_expired` and `keep_alive`
        /// both agree with a model that knows only the last successful
        /// refresh, and a refresh succeeds iff the lease was alive.
        #[test]
        fn lease_is_alive_exactly_until_refresh_plus_ttl(
            ttl in 1u64..1_000_000,
            advances in prop::collection::vec(0u64..2_000_000, 1..30),
            refresh_bits in prop::collection::vec(prop::bool::ANY, 30..31),
        ) {
            let (time, ctrl) = leased(ttl, 1);
            let mut refreshed = 0;
            for (&advance, &refresh) in advances.iter().zip(&refresh_bits) {
                advance_to(&time, time.now().as_nanos() + advance);
                let now = time.now().as_nanos();
                let alive = now < refreshed + ttl;
                prop_assert_eq!(ctrl.lease_expired(), !alive, "at {}", now);
                if refresh {
                    prop_assert_eq!(ctrl.keep_alive(0), alive, "refresh at {}", now);
                    if alive {
                        refreshed = now;
                    }
                }
            }
            time.deregister();
        }

        /// A later refresh never expires earlier: after refreshes at
        /// `a <= b` (both while alive), the lease outlives `a + ttl` and
        /// lapses exactly at `b + ttl`.
        #[test]
        fn a_later_refresh_never_expires_earlier(
            ttl in 2u64..10_000_000,
            raw_a in 0u64..10_000_000,
            raw_b in 0u64..10_000_000,
        ) {
            let a = raw_a % ttl;
            let b = a + raw_b % ttl;
            let (time, ctrl) = leased(ttl, 2);
            advance_to(&time, a);
            prop_assert!(ctrl.keep_alive(0));
            advance_to(&time, b);
            prop_assert!(ctrl.keep_alive(0));
            advance_to(&time, a + ttl - 1);
            prop_assert!(!ctrl.lease_expired(), "lapsed before the first expiry");
            advance_to(&time, b + ttl - 1);
            prop_assert!(!ctrl.lease_expired(), "lapsed before the last expiry");
            advance_to(&time, b + ttl);
            prop_assert!(ctrl.lease_expired(), "alive past the last expiry");
            time.deregister();
        }

        /// A superseded epoch can never refresh: after each election every
        /// earlier epoch's `keep_alive` fails at any instant — even inside
        /// the holder's window — and leaves the holder's expiry untouched.
        #[test]
        fn a_superseded_epoch_never_refreshes(
            ttl in 1u64..1_000_000,
            gaps in prop::collection::vec(0u64..2_000_000, 1..10),
            probes in prop::collection::vec(0u64..2_000_000, 10..11),
        ) {
            let (time, ctrl) = leased(ttl, 3);
            for (expected, (&gap, &probe)) in (1u64..).zip(gaps.iter().zip(&probes)) {
                advance_to(&time, time.now().as_nanos() + gap);
                prop_assert_eq!(ctrl.elect(), expected);
                let elected = time.now().as_nanos();
                advance_to(&time, elected + probe);
                for old in 0..expected {
                    prop_assert!(!ctrl.keep_alive(old), "epoch {} refreshed", old);
                }
                prop_assert_eq!(ctrl.lease_expired(), probe >= ttl);
            }
            time.deregister();
        }

        /// A surrendered lease never reads expired, and refuses refreshes,
        /// at every later instant; a superseded epoch surrenders nothing.
        #[test]
        fn a_surrendered_lease_never_reads_expired(
            ttl in 1u64..1_000_000,
            surrender_at in 0u64..2_000_000,
            probes in prop::collection::vec(0u64..4_000_000, 1..20),
        ) {
            let (time, ctrl) = leased(ttl, 4);
            advance_to(&time, surrender_at);
            let epoch = ctrl.elect();
            ctrl.surrender(epoch - 1);
            advance_to(&time, surrender_at + ttl);
            prop_assert!(ctrl.lease_expired(), "a superseded surrender took effect");
            ctrl.surrender(epoch);
            for &probe in &probes {
                advance_to(&time, time.now().as_nanos() + probe);
                prop_assert!(!ctrl.lease_expired());
                prop_assert!(!ctrl.keep_alive(epoch));
            }
            time.deregister();
        }
    }

    #[test]
    fn heartbeat_monitor_declares_only_silent_members() {
        let mut hb = HeartbeatMonitor::new(Duration::from_millis(50));
        let t0 = SimTime::ZERO;
        hb.note(WorkerId(0), t0);
        hb.note(WorkerId(1), t0 + SimDuration::from_millis(100));
        let dead = hb.dead(
            &[WorkerId(0), WorkerId(1)],
            t0 + SimDuration::from_millis(120),
        );
        assert_eq!(dead, vec![WorkerId(0)]);
    }

    #[test]
    fn unknown_members_get_a_grace_period() {
        let mut hb = HeartbeatMonitor::new(Duration::from_millis(50));
        let t0 = SimTime::ZERO;
        // Never heard from, but first observation seeds the clock.
        assert!(hb.dead(&[WorkerId(7)], t0).is_empty());
        assert!(hb
            .dead(&[WorkerId(7)], t0 + SimDuration::from_millis(20))
            .is_empty());
        assert_eq!(
            hb.dead(&[WorkerId(7)], t0 + SimDuration::from_millis(80)),
            vec![WorkerId(7)]
        );
    }

    #[test]
    fn first_contact_grace_outlasts_the_steady_state_timeout() {
        // Remote mode: a founding worker process that has never dialed in
        // is held to the wider first-contact deadline, but once heard
        // from it falls under the normal heartbeat timeout.
        let mut hb =
            HeartbeatMonitor::with_grace(Duration::from_millis(50), Duration::from_millis(500));
        let t0 = SimTime::ZERO;
        // Silent well past the steady-state timeout: still awaited.
        assert!(hb.dead(&[WorkerId(0), WorkerId(1)], t0).is_empty());
        assert!(hb
            .dead(&[WorkerId(0)], t0 + SimDuration::from_millis(400))
            .is_empty());
        // First contact at 450ms: from here on the 50ms timeout governs.
        let contact = t0 + SimDuration::from_millis(450);
        hb.note(WorkerId(0), contact);
        assert!(hb
            .dead(&[WorkerId(0)], contact + SimDuration::from_millis(50))
            .is_empty());
        assert_eq!(
            hb.dead(&[WorkerId(0)], contact + SimDuration::from_millis(51)),
            vec![WorkerId(0)]
        );
        // A never-contacted member does run out of grace eventually.
        assert_eq!(
            hb.dead(&[WorkerId(1)], t0 + SimDuration::from_millis(1000)),
            vec![WorkerId(1)]
        );
    }

    #[test]
    fn heartbeat_exactly_at_threshold_is_alive_one_tick_past_is_dead() {
        // Boundary semantics: a worker is dead only *strictly after* the
        // timeout — silence of exactly `timeout` still counts as alive, one
        // nanosecond more does not. Exact on virtual time.
        let timeout = SimDuration::from_millis(50);
        let mut hb = HeartbeatMonitor::new(Duration::from_millis(50));
        let t0 = SimTime::ZERO;
        hb.note(WorkerId(3), t0);
        assert!(hb.dead(&[WorkerId(3)], t0 + timeout).is_empty());
        assert_eq!(
            hb.dead(&[WorkerId(3)], t0 + timeout + SimDuration::from_nanos(1)),
            vec![WorkerId(3)]
        );
        // A beat arriving one tick past the threshold revives the worker
        // for a full fresh window (failure detection is not latched).
        let late = t0 + timeout + SimDuration::from_nanos(1);
        hb.note(WorkerId(3), late);
        assert!(hb.dead(&[WorkerId(3)], late + timeout).is_empty());
        assert_eq!(
            hb.dead(&[WorkerId(3)], late + timeout + SimDuration::from_nanos(1)),
            vec![WorkerId(3)]
        );
    }

    #[test]
    fn lease_expiring_exactly_at_the_watchdog_poll_tick() {
        // The lease TTL and the watchdog poll land on the same virtual
        // instant: the lease is valid for [refresh, refresh+ttl), so
        // `now == refresh + ttl` already reads expired, and the poll that
        // coincides with the boundary must observe expiry — and one tick
        // earlier must not.
        let time = TimeSource::virtual_seeded(4);
        time.register_current();
        let ttl = Duration::from_millis(30);
        let ctrl = SharedControl::with_time(ttl, Obs::new_default(), time.clone());
        time.sleep(Duration::from_nanos(30_000_000 - 1));
        assert!(!ctrl.lease_expired(), "one tick before the boundary");
        time.sleep(Duration::from_nanos(1));
        assert!(ctrl.lease_expired(), "poll exactly at refresh+ttl");
        assert!(!ctrl.keep_alive(0));
        time.deregister();
    }

    #[test]
    fn double_election_after_am_replacement_is_keyed_to_current_lease() {
        // Two watchdog-style observers race after an AM death: the first
        // election moves the lease to the next epoch and refreshes it; the
        // second observer re-checking `lease_expired()` must now see a
        // healthy lease and stand down instead of electing again.
        let time = TimeSource::virtual_seeded(6);
        time.register_current();
        let ctrl =
            SharedControl::with_time(Duration::from_millis(20), Obs::new_default(), time.clone());
        let first = 0;
        time.sleep(Duration::from_millis(25));
        // Both observers see the dead AM...
        assert!(ctrl.lease_expired());
        assert!(ctrl.lease_expired());
        // ...observer A wins the election at the next epoch.
        let second = ctrl.elect();
        assert_ne!(first, second);
        // Observer B's re-check after A's takeover: no second election.
        assert!(!ctrl.lease_expired(), "second observer must stand down");
        // The dead incarnation's lease stays dead even if its thread limps
        // back and tries to keep alive.
        assert!(!ctrl.keep_alive(first));
        assert!(ctrl.keep_alive(second));
        time.deregister();
    }
}
