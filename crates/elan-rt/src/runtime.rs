//! The elastic runtime: the public handle, its builder, and the threads
//! it spawns — workers, the AM, and the lease watchdog.
//!
//! [`ElasticRuntime`] is what a framework integration would hold: it
//! launches the job, requests scale-out/scale-in/migration, and shuts the
//! job down — all while worker threads keep training. The AM's decisions
//! (the 5-step adjustment, failure-driven scale-ins, persist-before-act
//! and term fencing) live in the pure decision core `am::AmCore`; its
//! thread runs them over the bus.
//!
//! Fault tolerance (§V-D): every control message rides a
//! `ReliableEndpoint`, so the job survives a lossy, duplicating,
//! reordering bus ([`RuntimeBuilder::chaos`]); a watchdog elects a
//! replacement AM at a higher epoch when the AM's lease lapses, and the
//! replacement recovers the in-flight adjustment from the durable record;
//! workers heartbeat the AM, which turns silence into a failure-driven
//! scale-in around the dead.

use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::Duration;

use parking_lot::Mutex;

use elan_core::obs::MetricsSnapshot;
use elan_core::state::WorkerId;
use elan_core::ElanError;
use elan_sim::SimDuration;

use crate::am::driver::am_thread;
use crate::bus::{Bus, EndpointId, RtMsg};
use crate::chaos::{ChaosPolicy, ChaosStats, PartitionWindow};
use crate::comm::{CommGroup, CommTopology, TuningProfile};
use crate::epoch::EpochConfig;
use crate::liveness::{AmDurable, CrashPoint, SharedControl, WorkerFault};
use crate::obs::{
    render_trace_report, AdjustmentTrace, Event, EventKind, EventSink, JournalSummary, Obs,
    TraceKind, DEFAULT_RING_CAPACITY,
};
use crate::reliable::{ReliableEndpoint, RtMetricsSnapshot, REMOTE_FIRST_CONTACT_GRACE_MS};
use crate::time::{std_to_sim, JoinHandle, TimeSource};
use crate::transport::{MemoryTransport, Transport};
use crate::worker::{
    run_worker, worker_endpoint, SnapshotAssembly, Telemetry, WorkerRole, WorkerView,
};

/// How often the controller re-issues an unacknowledged operation at the
/// application level (covers AM failovers that swallowed the original).
const OP_RESEND_EVERY: SimDuration = SimDuration::from_millis(400);

/// Worker liveness-beacon period.
pub(crate) const HB_PERIOD: Duration = Duration::from_millis(25);
/// Silence after which the AM declares a worker dead.
pub(crate) const HB_TIMEOUT: Duration = Duration::from_millis(400);
/// AM lease TTL; the watchdog elects a replacement past this.
pub(crate) const LEASE_TTL: Duration = Duration::from_millis(200);
/// Watchdog poll period.
const WATCHDOG_POLL: Duration = Duration::from_millis(40);
/// Reliable-messaging ack timeout before a resend.
pub(crate) const RETRY_TIMEOUT: Duration = Duration::from_millis(60);
/// Control-loop receive-poll granularity.
pub(crate) const TICK: Duration = Duration::from_millis(20);

/// Configuration of a live elastic job.
#[derive(Debug, Clone, Copy)]
pub struct RuntimeConfig {
    /// Workers at launch.
    pub initial_workers: u32,
    /// Parameter-buffer length per worker.
    pub param_elems: usize,
    /// Iterations between coordinations.
    pub coordination_interval: u64,
    /// SGD learning rate.
    pub learning_rate: f32,
    /// Samples consumed per iteration.
    pub total_batch: u32,
    /// AM-side send attempts before presuming the peer dead.
    pub retry_max_attempts: u32,
    /// Elements per `StateChunk` message when replicating state.
    pub replication_chunk_elems: usize,
    /// Simulated forward/backward cost per iteration (µs). `0` (the
    /// default) trains at full speed. Under a virtual clock a busy
    /// training loop never leaves an all-threads-quiescent moment, so
    /// virtual time freezes and nothing time-gated (join windows,
    /// partition heals, timeouts) can ever fire; a nonzero compute cost
    /// makes each iteration's allreduce barrier park every worker and
    /// advances the clock by roughly this much per iteration.
    pub compute_us: u64,
    /// Open-membership epoch machine (DESIGN.md §17): when set, the AM
    /// ticks an `EpochMachine` and admits
    /// [`open_join`](ElasticRuntime::open_join) workers at epoch
    /// boundaries through warmup replication and a witness vote. `None`
    /// (the default) leaves the runtime's closed-membership behaviour
    /// untouched.
    pub open_membership: Option<EpochConfig>,
}

impl RuntimeConfig {
    /// A small, fast configuration for tests and examples.
    pub fn small(initial_workers: u32) -> Self {
        RuntimeConfig {
            initial_workers,
            param_elems: 1024,
            coordination_interval: 5,
            learning_rate: 0.05,
            total_batch: 128,
            retry_max_attempts: 8,
            // 1024-elem test configs stream 4 chunks per buffer, so the
            // chunked path is exercised even by the small profile.
            replication_chunk_elems: 256,
            compute_us: 0,
            open_membership: None,
        }
    }
}

/// A live checkpoint: the full training state of the job at a
/// coordination boundary (rank 0's copy — identical everywhere by the
/// data-parallel invariant).
#[derive(Debug, Clone)]
pub struct CheckpointSnapshot {
    /// Model parameters.
    pub params: Arc<Vec<f32>>,
    /// Optimizer (momentum) state.
    pub momentum: Arc<Vec<f32>>,
    /// Iteration the snapshot was taken at.
    pub iteration: u64,
    /// Serial data cursor.
    pub data_cursor: u64,
}

/// Final state of a finished job.
///
/// Beyond the training outcome, the report carries the full observability
/// post-mortem — a [`MetricsSnapshot`], the [`JournalSummary`], every
/// [`AdjustmentTrace`], and the retained [`Event`]s — captured *after* all
/// threads joined, so assertions on it can never race the teardown.
#[derive(Debug, Clone)]
pub struct ShutdownReport {
    /// Workers in the job when it stopped.
    pub final_world_size: u32,
    /// Last telemetry of every worker that ever participated.
    pub workers: BTreeMap<WorkerId, WorkerView>,
    /// Total controller-requested adjustments the job went through.
    pub adjustments: u64,
    /// Fault-tolerance counters (resends, duplicates, recoveries, …).
    pub metrics: RtMetricsSnapshot,
    /// Fault-injection counters, when the job ran on a chaotic bus.
    pub chaos: Option<ChaosStats>,
    /// Final snapshot of the metrics registry (`rt.*` counters and any
    /// component-registered instruments).
    pub registry: MetricsSnapshot,
    /// Journal totals and per-kind event counts.
    pub journal: JournalSummary,
    /// Every adjustment span recorded over the job's lifetime.
    pub traces: Vec<AdjustmentTrace>,
    /// The events still retained by the journal ring, oldest first.
    pub events: Vec<Event>,
}

impl ShutdownReport {
    /// The per-phase adjustment-latency table rendered from
    /// [`ShutdownReport::traces`].
    pub fn trace_report(&self) -> String {
        render_trace_report(&self.traces)
    }

    /// True when every worker that reached the final iteration holds
    /// bit-identical parameters — the data-parallel invariant.
    pub fn states_consistent(&self) -> bool {
        let max_iter = self
            .workers
            .values()
            .map(|v| v.iteration)
            .max()
            .unwrap_or(0);
        let checksums: BTreeSet<u64> = self
            .workers
            .values()
            .filter(|v| v.iteration == max_iter)
            .map(|v| v.params_checksum)
            .collect();
        checksums.len() == 1
    }
}

/// The live elastic-training job handle.
///
/// See the [crate docs](crate) for an end-to-end example.
pub struct ElasticRuntime {
    cfg: RuntimeConfig,
    bus: Bus,
    rep: ReliableEndpoint,
    comm: Arc<CommGroup>,
    telemetry: Telemetry,
    ctrl: Arc<SharedControl>,
    next_worker: u32,
    next_seq: u64,
    adjustments: u64,
    watchdog: Option<JoinHandle<()>>,
    /// Ordered so teardown joins workers in a deterministic order — a
    /// hashed order would make the virtual-clock schedule (and thus the
    /// journal) vary across runs of the same seed.
    worker_handles: BTreeMap<WorkerId, JoinHandle<()>>,
    /// Restarts per worker: each incarnation sends on its own message-id
    /// stream.
    restarts: BTreeMap<WorkerId, u32>,
    /// True when workers are separate OS processes reached over the
    /// transport: the runtime spawns no worker threads and reads
    /// progress from AM heartbeat telemetry.
    remote_workers: bool,
}

impl std::fmt::Debug for ElasticRuntime {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ElasticRuntime")
            .field("members", &self.members())
            .field("adjustments", &self.adjustments)
            .finish()
    }
}

/// Fluent launch configuration for an [`ElasticRuntime`].
///
/// Obtained from [`ElasticRuntime::builder`]; every knob is optional and
/// [`RuntimeBuilder::start`] validates the whole configuration at once,
/// returning [`ElanError`] instead of panicking.
///
/// # Examples
///
/// ```
/// use elan_rt::ElasticRuntime;
///
/// let mut rt = ElasticRuntime::builder().workers(2).start().unwrap();
/// rt.run_until_iteration(10);
/// let report = rt.shutdown();
/// assert_eq!(report.final_world_size, 2);
/// ```
pub struct RuntimeBuilder {
    cfg: RuntimeConfig,
    chaos: Option<ChaosPolicy>,
    restore: Option<CheckpointSnapshot>,
    sinks: Vec<Arc<dyn EventSink>>,
    time: TimeSource,
    transport: Option<Arc<dyn Transport>>,
    remote_workers: bool,
}

impl std::fmt::Debug for RuntimeBuilder {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RuntimeBuilder")
            .field("cfg", &self.cfg)
            .field("chaos", &self.chaos.is_some())
            .field("restore", &self.restore.is_some())
            .field("sinks", &self.sinks.len())
            .field("time", &self.time)
            .field("transport", &self.transport.is_some())
            .field("remote_workers", &self.remote_workers)
            .finish()
    }
}

impl RuntimeBuilder {
    fn new() -> Self {
        RuntimeBuilder {
            cfg: RuntimeConfig::small(2),
            chaos: None,
            restore: None,
            sinks: Vec::new(),
            time: TimeSource::real(),
            transport: None,
            remote_workers: false,
        }
    }

    /// Sets the number of founding workers (keeps every other knob of the
    /// current configuration).
    pub fn workers(mut self, n: u32) -> Self {
        self.cfg.initial_workers = n;
        self
    }

    /// Replaces the whole [`RuntimeConfig`].
    pub fn config(mut self, cfg: RuntimeConfig) -> Self {
        self.cfg = cfg;
        self
    }

    /// Sets the simulated per-iteration forward/backward cost (µs). See
    /// [`RuntimeConfig::compute_us`]: under a virtual clock this is what
    /// lets time-gated machinery (epoch join windows, partition windows,
    /// timeouts) make progress while the cohort trains.
    pub fn compute_us(mut self, us: u64) -> Self {
        self.cfg.compute_us = us;
        self
    }

    /// Turns on epoch-based open membership: the AM runs an
    /// `EpochMachine` over the configured thresholds, and workers
    /// spawned via [`ElasticRuntime::open_join`] are admitted at epoch
    /// boundaries — warmed up over the chunked replication path and
    /// audited by a witness vote — never mid-epoch.
    pub fn open_membership(mut self, epoch: EpochConfig) -> Self {
        self.cfg.open_membership = Some(epoch);
        self
    }

    /// Runs the job on a fault-injecting bus: messages are dropped,
    /// duplicated, and delayed per `policy`, and the reliable-messaging
    /// layer must mask all of it.
    pub fn chaos(mut self, policy: ChaosPolicy) -> Self {
        self.chaos = Some(policy);
        self
    }

    /// Restarts from a [`CheckpointSnapshot`] — the live
    /// Shutdown-&-Restart path. Training resumes bit-exactly where the
    /// snapshot was taken.
    pub fn restore(mut self, snapshot: &CheckpointSnapshot) -> Self {
        self.restore = Some(snapshot.clone());
        self
    }

    /// Tees every journal event to an extra [`EventSink`] (additive; may
    /// be called multiple times).
    pub fn sink(mut self, sink: Arc<dyn EventSink>) -> Self {
        self.sinks.push(sink);
        self
    }

    /// Runs the job on the given [`TimeSource`].
    ///
    /// With [`TimeSource::virtual_seeded`] the whole control plane —
    /// heartbeats, leases, retry timers, the watchdog, every parked wait —
    /// runs on deterministic virtual time: the same seed yields the same
    /// thread schedule and a byte-identical event journal, and a test that
    /// "waits" 400 virtual milliseconds finishes in microseconds of wall
    /// time. The calling thread is registered with the clock for the
    /// lifetime of the runtime and released by
    /// [`ElasticRuntime::shutdown`].
    pub fn time(mut self, time: TimeSource) -> Self {
        self.time = time;
        self
    }

    /// Runs the control plane over the given [`Transport`] instead of a
    /// freshly built in-memory bus — e.g. a
    /// [`SocketTransport`](crate::transport::SocketTransport) listening
    /// hub, which turns this runtime into a multi-process coordinator.
    /// The runtime attaches its journal and clock to the transport at
    /// launch. Incompatible with [`RuntimeBuilder::chaos`] (fault
    /// injection lives in the in-memory transport) and, for transports
    /// that cannot run on a virtual clock, with virtual
    /// [`RuntimeBuilder::time`].
    pub fn transport(mut self, transport: Arc<dyn Transport>) -> Self {
        self.transport = Some(transport);
        self
    }

    /// Declares that workers live in *other processes* and reach this
    /// runtime over the transport: the runtime spawns no local worker
    /// threads (at launch or on scale-out) and tracks progress through
    /// the heartbeat iterations the AM collects, rather than in-process
    /// telemetry. Requires [`RuntimeBuilder::transport`].
    pub fn remote_workers(mut self, remote: bool) -> Self {
        self.remote_workers = remote;
        self
    }

    /// Validates the configuration and launches the job.
    ///
    /// # Errors
    ///
    /// [`ElanError::Config`] when the configuration is unusable (zero
    /// workers, empty parameters, or a zero coordination interval), and
    /// [`ElanError::SnapshotMismatch`] when a restore snapshot's parameter
    /// length differs from the configuration.
    pub fn start(self) -> Result<ElasticRuntime, ElanError> {
        if self.cfg.initial_workers == 0 {
            return Err(ElanError::Config("need at least one worker".into()));
        }
        if self.cfg.param_elems == 0 {
            return Err(ElanError::Config("parameters must be non-empty".into()));
        }
        if self.cfg.coordination_interval == 0 {
            return Err(ElanError::Config(
                "coordination interval must be positive".into(),
            ));
        }
        if let Some(snapshot) = &self.restore {
            if snapshot.params.len() != self.cfg.param_elems {
                return Err(ElanError::SnapshotMismatch {
                    expected: self.cfg.param_elems,
                    actual: snapshot.params.len(),
                });
            }
        }
        if let Some(transport) = &self.transport {
            if self.chaos.is_some() {
                return Err(ElanError::Config(
                    "chaos policies require the in-memory transport".into(),
                ));
            }
            if self.time.is_virtual() && !transport.supports_virtual_time() {
                return Err(ElanError::Config(
                    "this transport cannot run on a virtual clock".into(),
                ));
            }
        }
        if self.remote_workers {
            if self.transport.is_none() {
                return Err(ElanError::Config(
                    "remote workers require an explicit transport".into(),
                ));
            }
            if self.restore.is_some() {
                return Err(ElanError::Config(
                    "restore spawns local workers; incompatible with remote workers".into(),
                ));
            }
        }
        Ok(ElasticRuntime::launch(self))
    }
}

impl ElasticRuntime {
    /// Starts building a runtime: `ElasticRuntime::builder().workers(4)
    /// .chaos(policy).sink(sink).start()`.
    pub fn builder() -> RuntimeBuilder {
        RuntimeBuilder::new()
    }

    fn launch(builder: RuntimeBuilder) -> Self {
        let RuntimeBuilder {
            cfg,
            chaos,
            restore,
            sinks,
            time,
            transport,
            remote_workers,
        } = builder;
        // The controller (this thread) joins the clock first, so that on a
        // virtual clock every thread spawned below is scheduled
        // deterministically from the very first instruction.
        time.register_current();
        let obs = Obs::with_time(DEFAULT_RING_CAPACITY, sinks, time.clone());
        let bus = match transport {
            Some(transport) => {
                // Attach before any register: endpoints capture the clock
                // at registration, and the bus caches journal/time when
                // wrapped.
                transport.attach(Some(Arc::clone(&obs.journal)), time.clone());
                Bus::with_transport(transport)
            }
            None => Bus::with_transport(Arc::new(MemoryTransport::new(
                chaos,
                Some(Arc::clone(&obs.journal)),
                time.clone(),
            ))),
        };
        let metrics = Arc::clone(&obs.rt);
        let ctrl = Arc::new(SharedControl::with_time(LEASE_TTL, obs, time.clone()));
        if remote_workers {
            // Founding workers are OS processes an external orchestrator
            // spawns after this returns: give their first contact room
            // for process startup + dial-in, so the failure detector
            // doesn't condemn a member that simply hasn't arrived yet.
            // Set before the AM spawns below so its monitor sees it.
            ctrl.first_contact_grace_ms
                .store(REMOTE_FIRST_CONTACT_GRACE_MS, Ordering::SeqCst);
        }
        let members: Vec<WorkerId> = (0..cfg.initial_workers).map(WorkerId).collect();
        *ctrl.members.lock() = members.clone();
        // Record the founding membership before anything can crash.
        ctrl.persist(AmDurable::founding(members.clone()));

        // The adaptive allreduce needs its crossovers (pinned on every
        // clock, so dispatch never depends on host load) and the default
        // planning topology for the hierarchical path's node/socket
        // grouping.
        let comm = Arc::new(CommGroup::with_tuning(
            members.iter().copied(),
            cfg.param_elems,
            TuningProfile::pinned(),
            Some(CommTopology::default()),
        ));
        comm.set_journal(Arc::clone(&ctrl.obs.journal));
        comm.set_time(time.clone());
        comm.set_metrics(&ctrl.obs.registry);
        let telemetry: Telemetry = Arc::new(Mutex::new(HashMap::new()));
        let rep = ReliableEndpoint::new(
            bus.clone(),
            bus.register(EndpointId::Controller),
            1,
            RETRY_TIMEOUT,
            None, // the controller retries forever — failover will answer
            Arc::clone(&metrics),
        );

        let am_handle = spawn_am(cfg, &bus, &comm, &ctrl, 0);
        ctrl.am_handles.lock().push(am_handle);
        let watchdog = {
            let (bus, comm, ctrl) = (bus.clone(), Arc::clone(&comm), Arc::clone(&ctrl));
            time.spawn("elan-watchdog".into(), move || {
                watchdog_thread(cfg, bus, comm, ctrl)
            })
        };

        let mut rt = ElasticRuntime {
            cfg,
            bus,
            rep,
            comm,
            telemetry,
            ctrl,
            next_worker: cfg.initial_workers,
            next_seq: 1,
            adjustments: 0,
            watchdog: Some(watchdog),
            worker_handles: BTreeMap::new(),
            restarts: BTreeMap::new(),
            remote_workers,
        };
        // In remote mode the founding workers are separate OS processes
        // that dial in over the transport and announce themselves; the
        // coordinator spawns nothing.
        if !remote_workers {
            for &w in &members {
                let role = match &restore {
                    Some(s) => WorkerRole::Restored {
                        params: Arc::clone(&s.params),
                        momentum: Arc::clone(&s.momentum),
                        iteration: s.iteration,
                        data_cursor: s.data_cursor,
                    },
                    None => WorkerRole::Founding,
                };
                rt.spawn_worker(w, role);
            }
        }
        rt
    }

    fn spawn_worker(&mut self, id: WorkerId, role: WorkerRole) {
        let incarnation = self.restarts.get(&id).copied().unwrap_or(0);
        let rep = worker_endpoint(&self.bus, id, incarnation, &self.ctrl);
        let cfg = self.cfg;
        let comm = Arc::clone(&self.comm);
        let telemetry = Arc::clone(&self.telemetry);
        let ctrl = Arc::clone(&self.ctrl);
        let handle = self.bus.time().spawn(format!("elan-{id}"), move || {
            run_worker(id, cfg, rep, comm, telemetry, role, ctrl)
        });
        self.worker_handles.insert(id, handle);
    }

    /// The clock this runtime runs on.
    pub fn time(&self) -> &TimeSource {
        self.bus.time()
    }

    /// Current members (the authoritative control-plane view, which also
    /// reflects failure-driven scale-ins).
    pub fn members(&self) -> Vec<WorkerId> {
        self.ctrl.members.lock().clone()
    }

    /// A snapshot of every worker's latest telemetry.
    pub fn snapshot(&self) -> BTreeMap<WorkerId, WorkerView> {
        self.telemetry
            .lock()
            .iter()
            .map(|(&k, &v)| (k, v))
            .collect()
    }

    /// Fault-tolerance counters so far.
    pub fn metrics(&self) -> RtMetricsSnapshot {
        self.ctrl.obs.rt.snapshot(self.bus.total_dead_letters())
    }

    /// Fault-injection counters, when running on a chaotic bus.
    pub fn chaos_stats(&self) -> Option<ChaosStats> {
        self.bus.chaos_stats()
    }

    /// The runtime's observability bundle (journal, traces, registry).
    pub fn obs(&self) -> &Arc<Obs> {
        &self.ctrl.obs
    }

    /// The events currently retained by the journal ring, oldest first.
    pub fn events(&self) -> Vec<Event> {
        self.ctrl.obs.journal.events()
    }

    /// Journal totals and per-kind event counts so far.
    pub fn journal_summary(&self) -> JournalSummary {
        self.ctrl.obs.journal.summary()
    }

    /// Every adjustment span recorded so far (completed and in-flight).
    pub fn traces(&self) -> Vec<AdjustmentTrace> {
        self.ctrl.obs.traces()
    }

    /// The per-phase adjustment-latency breakdown, rendered from the event
    /// journal's traces.
    pub fn trace_report(&self) -> String {
        render_trace_report(&self.traces())
    }

    /// The full observability bundle as one JSON object (metrics registry,
    /// journal summary, and per-adjustment traces) — what `crates/bench`
    /// consumes.
    pub fn obs_json(&self) -> String {
        self.ctrl.obs.to_json()
    }

    /// Arms a one-shot AM crash at the given point of the next adjustment
    /// — the AM thread simply stops, without cleanup, and the watchdog
    /// must elect a replacement that recovers from the durable record.
    pub fn arm_am_crash(&self, point: CrashPoint) {
        *self.ctrl.am_crash.lock() = Some(point);
    }

    /// Orders `worker` to play dead: it stops heartbeating, training, and
    /// responding, exactly like a crashed process. The AM's failure
    /// detector must notice and scale the job in around it.
    pub fn crash_worker(&self, worker: WorkerId) {
        self.ctrl
            .faults
            .write()
            .insert(worker, WorkerFault::PlayDead);
    }

    /// Arms a one-shot crash of `worker` at its first coordination
    /// boundary at or after `iteration`: the thread dies after the SGD
    /// step but *before* reporting the boundary, leaving the others' next
    /// allreduce round hanging until the worker is restarted
    /// ([`restart_worker`](Self::restart_worker)) or declared dead.
    pub fn crash_worker_at(&self, worker: WorkerId, iteration: u64) {
        self.ctrl
            .faults
            .write()
            .insert(worker, WorkerFault::ArmedAt(iteration));
    }

    /// Restarts a crashed worker: reaps the dead thread, recycles its
    /// bus endpoint, and spawns a fresh incarnation that runs the
    /// `Rejoin` handshake with the crash incarnation's last-known term
    /// and boundary iteration, then resumes bit-exactly once the AM
    /// re-replicates state to it.
    ///
    /// # Panics
    ///
    /// If `worker` was never ordered to crash (neither
    /// [`crash_worker`](Self::crash_worker) nor
    /// [`crash_worker_at`](Self::crash_worker_at)): joining a live worker
    /// thread would block forever, so the misuse is rejected loudly
    /// instead.
    pub fn restart_worker(&mut self, worker: WorkerId) {
        let crashed = self.ctrl.faults.read().contains_key(&worker);
        assert!(
            crashed,
            "restart_worker({worker:?}): worker was never ordered to crash; \
             joining its live thread would hang forever"
        );
        if let Some(h) = self.worker_handles.remove(&worker) {
            h.join();
        }
        self.bus.unregister(EndpointId::Worker(worker));
        // The join waited out an armed crash. A worker that died without
        // recording credentials (it played dead, or exited before its
        // armed boundary) rejoins from scratch: term 0, iteration 0.
        let (term, iteration) = match self.ctrl.faults.write().remove(&worker) {
            Some(WorkerFault::Fired { term, iteration }) => (term, iteration),
            _ => (0, 0),
        };
        *self.restarts.entry(worker).or_insert(0) += 1;
        self.spawn_worker(worker, WorkerRole::Rejoin { term, iteration });
    }

    /// Opens a named partition window *now*, cutting every bus edge
    /// between the given endpoint groups — and between listed and
    /// unlisted endpoints — for `duration` of (virtual) time, then
    /// healing automatically. Composes with whatever per-edge chaos
    /// fates the policy already scripts. Returns false when the runtime
    /// was not launched with a chaos policy (there is no engine to
    /// script).
    pub fn partition(
        &self,
        name: impl Into<String>,
        groups: Vec<Vec<EndpointId>>,
        duration: Duration,
    ) -> bool {
        let now = self.bus.time().now();
        self.bus.add_partition(PartitionWindow {
            name: name.into(),
            groups,
            from: now,
            until: now + std_to_sim(duration),
        })
    }

    /// Blocks until the membership reaches exactly `n` workers, or until
    /// `timeout`; returns whether it happened.
    pub fn wait_for_members(&self, n: usize, timeout: Duration) -> bool {
        let time = self.bus.time().clone();
        let deadline = time.deadline_after(timeout);
        while time.now() < deadline {
            if self.ctrl.members.lock().len() == n {
                return true;
            }
            time.sleep(Duration::from_millis(2));
        }
        false
    }

    /// Blocks until every live member has completed `iteration`.
    ///
    /// With in-process workers this reads their shared telemetry; with
    /// remote workers it reads the iteration carried by the heartbeats
    /// the AM has collected (so a member that has never beaconed yet
    /// keeps this waiting, exactly like an unspawned local worker).
    pub fn run_until_iteration(&self, iteration: u64) {
        loop {
            if self.remote_workers {
                let members = self.ctrl.members.lock().clone();
                let progress = self.ctrl.progress.lock();
                if !members.is_empty()
                    && members
                        .iter()
                        .all(|w| progress.get(w).is_some_and(|&i| i >= iteration))
                {
                    return;
                }
            } else {
                let members = self.ctrl.members.lock().clone();
                let t = self.telemetry.lock();
                let live: Vec<_> = members
                    .iter()
                    .filter_map(|w| t.get(w))
                    .filter(|v| v.alive)
                    .collect();
                if !live.is_empty() && live.iter().all(|v| v.iteration >= iteration) {
                    return;
                }
            }
            self.bus.time().sleep(Duration::from_micros(200));
        }
    }

    fn take_seq(&mut self) -> u64 {
        let seq = self.next_seq;
        self.next_seq += 1;
        seq
    }

    /// Sends `body` to the AM and blocks until `reply` accepts an answer,
    /// re-issuing the request at the application level so an AM failover
    /// between transport-ack and execution cannot strand the controller.
    fn request<T>(&mut self, body: RtMsg, mut reply: impl FnMut(RtMsg) -> Option<T>) -> T {
        let time = self.bus.time().clone();
        self.rep.send(EndpointId::Am, body.clone());
        let mut last_send = time.now();
        loop {
            let _ = self.rep.tick();
            let answer = self.rep.recv_timeout(TICK);
            if let Some(out) = answer.and_then(|(_, msg)| reply(msg)) {
                return out;
            }
            if time.now().saturating_duration_since(last_send) >= OP_RESEND_EVERY {
                last_send = time.now();
                self.rep.send(EndpointId::Am, body.clone());
            }
        }
    }

    /// Sends an operation and blocks until its `Ack{seq}` arrives.
    fn op_roundtrip(&mut self, body: RtMsg, seq: u64) {
        self.request(body, |msg| {
            matches!(msg, RtMsg::Ack { seq: s } if s == seq).then_some(())
        });
    }

    /// Snapshots the full training state at the next coordination
    /// boundary (rank 0 streams its buffers to the controller) — the
    /// checkpoint half of Shutdown-&-Restart, done live. The request is
    /// deliberately not durable AM state; the controller just asks again.
    pub fn checkpoint(&mut self) -> CheckpointSnapshot {
        // Drain stale traffic (e.g. duplicate snapshot chunks from a
        // recovered AM replaying a previous checkpoint order). This must
        // not park: under a virtual clock a healthy hot job never
        // advances time, so a timeout-based drain would starve here.
        while self.rep.try_recv().is_some() {}
        let seq = self.take_seq();
        let mut params = vec![0.0f32; self.cfg.param_elems];
        let mut momentum = vec![0.0f32; self.cfg.param_elems];
        let mut assembly = SnapshotAssembly::new();
        let (iteration, data_cursor) = self.request(RtMsg::Checkpoint { seq }, |msg| {
            let RtMsg::StateChunk {
                kind,
                iteration,
                data_cursor,
                index,
                total,
                offset,
                data,
            } = msg
            else {
                return None;
            };
            assembly.offer(
                kind,
                iteration,
                data_cursor,
                index,
                total,
                offset,
                &data,
                &mut params,
                &mut momentum,
            )
        });
        CheckpointSnapshot {
            params: Arc::new(params),
            momentum: Arc::new(momentum),
            iteration,
            data_cursor,
        }
    }

    fn adjust_to(&mut self, target: Vec<WorkerId>, kind: TraceKind) {
        let current = self.members();
        let joining: Vec<WorkerId> = target
            .iter()
            .copied()
            .filter(|w| !current.contains(w))
            .collect();
        let leaving: Vec<WorkerId> = current
            .iter()
            .copied()
            .filter(|w| !target.contains(w))
            .collect();
        let seq = self.take_seq();
        // Step ① (request): open the adjustment span before anything else
        // observable happens, so the trace covers the whole pipeline.
        let obs = &self.ctrl.obs;
        obs.begin(kind, Some(seq), target.len() as u32, obs.journal.now_us());
        // Remote joiners are launched as processes by the operator (they
        // dial in and Report over the transport); local mode spawns them
        // here.
        if !self.remote_workers {
            for &w in &joining {
                self.spawn_worker(w, WorkerRole::Joining);
            }
        }
        self.op_roundtrip(
            RtMsg::AdjustTo {
                seq,
                target: target.clone(),
            },
            seq,
        );
        for w in leaving {
            if let Some(h) = self.worker_handles.remove(&w) {
                h.join();
            }
            self.bus.unregister(EndpointId::Worker(w));
        }
        self.adjustments += 1;
    }

    /// Adds `n` workers (scale-out). Blocks until the adjustment is done;
    /// existing workers keep training meanwhile.
    pub fn scale_out(&mut self, n: u32) {
        assert!(n > 0, "scale-out of zero workers");
        let mut target = self.members();
        target.extend(self.fresh_ids(n));
        self.adjust_to(target, TraceKind::ScaleOut);
    }

    /// The next `n` never-used worker ids (ids are never reused).
    fn fresh_ids(&mut self, n: u32) -> Vec<WorkerId> {
        let first = self.next_worker;
        self.next_worker += n;
        (first..self.next_worker).map(WorkerId).collect()
    }

    /// Removes the last `n` workers (scale-in).
    ///
    /// # Panics
    ///
    /// Panics if `n` would leave no workers.
    pub fn scale_in(&mut self, n: u32) {
        let members = self.members();
        assert!(
            (n as usize) < members.len(),
            "scale-in would remove every worker"
        );
        let target = members[..members.len() - n as usize].to_vec();
        self.adjust_to(target, TraceKind::ScaleIn);
    }

    /// Spawns `n` open-membership joiners and returns their ids without
    /// blocking: each announces itself with `JoinRequest` and is admitted
    /// by the AM's epoch machine at the next epoch boundary — warmed up
    /// over the chunked replication path and audited by a witness vote —
    /// never mid-epoch. Requires
    /// [`open_membership`](RuntimeBuilder::open_membership).
    pub fn open_join(&mut self, n: u32) -> Vec<WorkerId> {
        assert!(
            self.cfg.open_membership.is_some(),
            "open_join requires RuntimeBuilder::open_membership"
        );
        let ids = self.fresh_ids(n);
        for &id in &ids {
            self.spawn_worker(id, WorkerRole::OpenJoin { corrupt: false });
        }
        ids
    }

    /// Fault-injection variant of [`open_join`](Self::open_join): the
    /// joiner deliberately mis-claims its warmup digest, so the witness
    /// vote must evict it.
    pub fn open_join_corrupt(&mut self) -> WorkerId {
        assert!(
            self.cfg.open_membership.is_some(),
            "open_join_corrupt requires RuntimeBuilder::open_membership"
        );
        let id = WorkerId(self.next_worker);
        self.next_worker += 1;
        self.spawn_worker(id, WorkerRole::OpenJoin { corrupt: true });
        id
    }

    /// Migrates the job onto an entirely fresh set of workers of the same
    /// size.
    pub fn migrate(&mut self) {
        let target = self.fresh_ids(self.members().len() as u32);
        self.adjust_to(target, TraceKind::Migrate);
    }

    /// Stops the job at the next coordination boundary and returns the
    /// final report.
    pub fn shutdown(mut self) -> ShutdownReport {
        let seq = self.take_seq();
        self.op_roundtrip(RtMsg::Stop { seq }, seq);
        self.ctrl.shutdown.store(true, Ordering::SeqCst);
        for (_, h) in std::mem::take(&mut self.worker_handles) {
            h.join();
        }
        if let Some(h) = self.watchdog.take() {
            h.join();
        }
        let ams: Vec<JoinHandle<()>> = self.ctrl.am_handles.lock().drain(..).collect();
        for h in ams {
            h.join();
        }
        // Release the controller thread from the (virtual) clock: the
        // runtime is gone and the caller's thread must not stay scheduled.
        self.bus.time().deregister();
        ShutdownReport {
            final_world_size: self.members().len() as u32,
            workers: self.snapshot(),
            adjustments: self.adjustments,
            metrics: self.metrics(),
            chaos: self.chaos_stats(),
            registry: self.ctrl.obs.metrics(),
            journal: self.journal_summary(),
            traces: self.traces(),
            events: self.events(),
        }
    }
}

/// Spawns one AM incarnation; epoch 0 is the founding AM.
fn spawn_am(
    cfg: RuntimeConfig,
    bus: &Bus,
    comm: &Arc<CommGroup>,
    ctrl: &Arc<SharedControl>,
    epoch: u64,
) -> JoinHandle<()> {
    let endpoint = bus.register(EndpointId::Am);
    let (bus, comm, ctrl) = (bus.clone(), Arc::clone(comm), Arc::clone(ctrl));
    bus.time()
        .clone()
        .spawn(format!("elan-am-e{epoch}"), move || {
            am_thread(cfg, bus, endpoint, comm, ctrl, epoch)
        })
}

/// Polls the AM lease; when it lapses (the AM died or was crashed), elects
/// a replacement AM at the next epoch that recovers from the durable
/// record — Elan's watchdog-driven AM failover.
fn watchdog_thread(cfg: RuntimeConfig, bus: Bus, comm: Arc<CommGroup>, ctrl: Arc<SharedControl>) {
    loop {
        bus.time().sleep(WATCHDOG_POLL);
        if ctrl.shutting_down() {
            return;
        }
        if !ctrl.lease_expired() {
            continue;
        }
        // Takeover: supersede the silent AM and install a replacement.
        let epoch = ctrl.elect();
        ctrl.obs.rt.am_recoveries.inc();
        ctrl.obs.journal.emit(EventKind::AmElected { epoch });
        bus.unregister(EndpointId::Am);
        let handle = spawn_am(cfg, &bus, &comm, &ctrl, epoch);
        ctrl.am_handles.lock().push(handle);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::safety::audit;

    #[test]
    fn steady_training_is_consistent() {
        let mut rt = ElasticRuntime::builder().workers(3).start().unwrap();
        rt.run_until_iteration(25);
        let _ = &mut rt;
        let report = rt.shutdown();
        let verdict = audit(&report.events);
        assert!(verdict.is_safe(), "{verdict}");
        assert_eq!(report.final_world_size, 3);
        assert!(report.states_consistent());
        assert!(report.workers.values().all(|v| v.iteration >= 25));
    }

    #[test]
    fn scale_out_preserves_state() {
        let mut rt = ElasticRuntime::builder().workers(2).start().unwrap();
        rt.run_until_iteration(10);
        rt.scale_out(2);
        assert_eq!(rt.members().len(), 4);
        rt.run_until_iteration(30);
        let report = rt.shutdown();
        let verdict = audit(&report.events);
        assert!(verdict.is_safe(), "{verdict}");
        assert_eq!(report.final_world_size, 4);
        assert!(report.states_consistent(), "joiners diverged: {report:?}");
        assert_eq!(report.adjustments, 1);
    }

    #[test]
    fn scale_in_releases_workers() {
        let mut rt = ElasticRuntime::builder().workers(4).start().unwrap();
        rt.run_until_iteration(10);
        rt.scale_in(2);
        assert_eq!(rt.members().len(), 2);
        rt.run_until_iteration(25);
        let report = rt.shutdown();
        let verdict = audit(&report.events);
        assert!(verdict.is_safe(), "{verdict}");
        assert_eq!(report.final_world_size, 2);
        assert!(report.states_consistent());
        // The removed workers stopped early but left cleanly.
        let stopped: Vec<_> = report.workers.values().filter(|v| !v.alive).collect();
        assert_eq!(stopped.len(), 4); // 2 scaled-in + 2 shutdown... all dead
    }

    #[test]
    fn migration_moves_to_fresh_workers() {
        let mut rt = ElasticRuntime::builder().workers(2).start().unwrap();
        rt.run_until_iteration(10);
        let before: Vec<WorkerId> = rt.members().to_vec();
        rt.migrate();
        let after: Vec<WorkerId> = rt.members().to_vec();
        assert!(before.iter().all(|w| !after.contains(w)));
        rt.run_until_iteration(25);
        let report = rt.shutdown();
        let verdict = audit(&report.events);
        assert!(verdict.is_safe(), "{verdict}");
        assert!(report.states_consistent());
    }

    #[test]
    fn repeated_adjustments_compose() {
        let mut rt = ElasticRuntime::builder().workers(2).start().unwrap();
        rt.run_until_iteration(5);
        rt.scale_out(2);
        rt.run_until_iteration(15);
        rt.scale_in(1);
        rt.run_until_iteration(25);
        rt.scale_out(3);
        rt.run_until_iteration(40);
        let report = rt.shutdown();
        let verdict = audit(&report.events);
        assert!(verdict.is_safe(), "{verdict}");
        assert_eq!(report.final_world_size, 6);
        assert_eq!(report.adjustments, 3);
        assert!(report.states_consistent());
    }

    #[test]
    fn checkpoint_restore_is_bit_exact() {
        use crate::worker::simulate_training;
        let cfg = RuntimeConfig::small(3);
        let mut a = ElasticRuntime::builder().config(cfg).start().unwrap();
        a.run_until_iteration(20);
        let cp = a.checkpoint();
        let report = a.shutdown();
        let verdict = audit(&report.events);
        assert!(verdict.is_safe(), "{verdict}");

        // The live state matches a single-threaded reference replay.
        let (expect_params, expect_momentum, expect_cursor) = simulate_training(
            3,
            cp.iteration,
            cfg.param_elems,
            cfg.learning_rate,
            cfg.total_batch,
        );
        assert_eq!(*cp.params, expect_params, "live params diverged");
        assert_eq!(*cp.momentum, expect_momentum, "live momentum diverged");
        assert_eq!(cp.data_cursor, expect_cursor);

        // A restored job continues bit-exactly.
        let mut b = ElasticRuntime::builder()
            .config(cfg)
            .restore(&cp)
            .start()
            .unwrap();
        b.run_until_iteration(cp.iteration + 10);
        let cp2 = b.checkpoint();
        let (expect2, _, _) = simulate_training(
            3,
            cp2.iteration,
            cfg.param_elems,
            cfg.learning_rate,
            cfg.total_batch,
        );
        assert_eq!(*cp2.params, expect2, "restored run diverged");
        let report = b.shutdown();
        let verdict = audit(&report.events);
        assert!(verdict.is_safe(), "{verdict}");
        assert!(report.states_consistent());
    }

    #[test]
    fn mid_run_checksum_is_the_last_boundarys() {
        use crate::worker::{checksum, simulate_training};
        let cfg = RuntimeConfig::small(2);
        let interval = cfg.coordination_interval;
        let rt = ElasticRuntime::builder()
            .config(cfg)
            .time(TimeSource::virtual_seeded(5))
            .start()
            .unwrap();
        let mut between = 0;
        for target in 11..=14 {
            rt.run_until_iteration(target);
            for v in rt.snapshot().values() {
                let boundary = v.iteration - v.iteration % interval;
                between += usize::from(boundary != v.iteration);
                let (params, _, _) = simulate_training(
                    2,
                    boundary,
                    cfg.param_elems,
                    cfg.learning_rate,
                    cfg.total_batch,
                );
                assert_eq!(
                    v.params_checksum,
                    checksum(&params),
                    "view at iteration {} does not carry boundary {boundary}'s checksum",
                    v.iteration
                );
            }
        }
        assert!(between > 0, "no view was sampled between boundaries");
        let report = rt.shutdown();
        let verdict = audit(&report.events);
        assert!(verdict.is_safe(), "{verdict}");
        assert!(report.states_consistent());
    }

    #[test]
    fn live_training_matches_reference_replay() {
        use crate::worker::simulate_training;
        // Even without any checkpointing, the whole multi-threaded
        // pipeline (gradients, deterministic allreduce, optimizer) is
        // bit-identical to the sequential reference.
        let cfg = RuntimeConfig::small(4);
        let mut rt = ElasticRuntime::builder().config(cfg).start().unwrap();
        rt.run_until_iteration(15);
        let cp = rt.checkpoint();
        let report = rt.shutdown();
        let verdict = audit(&report.events);
        assert!(verdict.is_safe(), "{verdict}");
        let (expect, _, _) = simulate_training(
            4,
            cp.iteration,
            cfg.param_elems,
            cfg.learning_rate,
            cfg.total_batch,
        );
        assert_eq!(*cp.params, expect);
    }

    #[test]
    fn virtual_time_runs_the_full_pipeline() {
        let mut rt = ElasticRuntime::builder()
            .workers(2)
            .time(TimeSource::virtual_seeded(17))
            .start()
            .unwrap();
        rt.run_until_iteration(10);
        rt.scale_out(1);
        rt.run_until_iteration(20);
        let report = rt.shutdown();
        let verdict = audit(&report.events);
        assert!(verdict.is_safe(), "{verdict}");
        assert_eq!(report.final_world_size, 3);
        assert!(report.states_consistent());
        assert!(report.traces.iter().all(|t| t.is_well_formed()));
    }

    /// Same seed ⇒ same thread schedule ⇒ byte-identical journal.
    #[test]
    fn same_seed_produces_identical_journals() {
        fn journal(seed: u64) -> Vec<String> {
            let mut rt = ElasticRuntime::builder()
                .workers(2)
                .time(TimeSource::virtual_seeded(seed))
                .start()
                .unwrap();
            rt.run_until_iteration(10);
            rt.scale_out(2);
            rt.run_until_iteration(20);
            rt.scale_in(1);
            rt.run_until_iteration(30);
            let report = rt.shutdown();
            let verdict = audit(&report.events);
            assert!(verdict.is_safe(), "{verdict}");
            let verdict = audit(&report.events);
            assert!(verdict.is_safe(), "{verdict}");
            report.events.iter().map(|e| format!("{e:?}")).collect()
        }
        let a = journal(23);
        let b = journal(23);
        assert_eq!(a, b, "one seed, two different histories");
        assert!(!a.is_empty());
    }

    #[test]
    fn data_cursor_replicates_exactly() {
        let mut rt = ElasticRuntime::builder().workers(2).start().unwrap();
        rt.run_until_iteration(10);
        rt.scale_out(1);
        rt.run_until_iteration(20);
        let snap = rt.snapshot();
        let report = rt.shutdown();
        let verdict = audit(&report.events);
        assert!(verdict.is_safe(), "{verdict}");
        assert!(report.states_consistent());
        // All live workers agree on the serial cursor: iteration * batch.
        for v in snap.values().filter(|v| v.alive) {
            assert_eq!(v.data_cursor, v.iteration * 128);
        }
    }
}
