//! The elastic runtime: the public handle, the AM service thread, the
//! lease watchdog, and the failure detector.
//!
//! [`ElasticRuntime`] is what a framework integration would hold: it
//! launches the job, requests scale-out/scale-in/migration, and shuts the
//! job down — all while worker threads keep training. The AM thread
//! orchestrates the 5-step adjustment procedure over the bus, using the
//! topology planner to pick replication sources.
//!
//! Fault tolerance (§V-D) is layered on top:
//!
//! - every control message rides a `ReliableEndpoint` (ids, acks,
//!   resend-on-timeout, bounded dedup), so the job survives a lossy,
//!   duplicating, reordering bus ([`RuntimeBuilder::chaos`]);
//! - the AM persists its durable record (`AmDurable`), term-fenced, in
//!   the shared `SharedControl` *before* every externally visible action
//!   and proves liveness by refreshing a lease; a watchdog thread elects a
//!   replacement AM at a higher epoch when the lease lapses, and the
//!   replacement recovers the in-flight adjustment from that record;
//! - workers heartbeat the AM (even from inside a blocked allreduce); the
//!   AM turns missed heartbeats into a failure-driven scale-in: evict from
//!   the collective, rebuild the communication group at the next boundary,
//!   and keep training on the survivors.

use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::thread::{self, JoinHandle};
use std::time::Duration;

use parking_lot::Mutex;

use elan_core::lease::LeaseId;
use elan_core::obs::{AdjustmentPhase, MetricsSnapshot};
use elan_core::protocol::EpochPhase;
use elan_core::state::WorkerId;
use elan_core::ElanError;
use elan_sim::SimDuration;
use elan_topology::{ClusterSpec, GpuId, ReplicationPlanner, Topology};

use crate::bus::{Bus, Endpoint, EndpointId, RtMsg};
use crate::chaos::{ChaosPolicy, ChaosStats, PartitionWindow};
use crate::comm::{CommGroup, CommTopology, TuningProfile};
use crate::epoch::{EpochCmd, EpochConfig, EpochMachine};
use crate::liveness::{AmDurable, AmPhase, CrashPoint, HeartbeatMonitor, PendingOp, SharedControl};
use crate::obs::{
    render_trace_report, AdjustmentTrace, Event, EventJournal, EventKind, EventSink,
    JournalSummary, Obs, TraceKind, DEFAULT_RING_CAPACITY,
};
use crate::reliable::{
    ReliableEndpoint, RtMetrics, RtMetricsSnapshot, REMOTE_FIRST_CONTACT_GRACE_MS,
};
use crate::time::{std_to_sim, TimeSource};
use crate::transport::Transport;
use crate::worker::{
    run_worker, SnapshotAssembly, Telemetry, WorkerConfig, WorkerRole, WorkerView,
};

/// High bit of the AM's message-id owner: replacement AMs get fresh
/// sender streams (`AM_OWNER_FLAG | epoch`), so their messages are never
/// mistaken for their predecessor's at any receiver's dedup filter.
const AM_OWNER_FLAG: u32 = 1 << 31;

/// How often the controller re-issues an unacknowledged operation at the
/// application level (covers AM failovers that swallowed the original).
const OP_RESEND_EVERY: SimDuration = SimDuration::from_millis(400);

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
    /// Worker liveness-beacon period (ms).
    pub hb_period_ms: u64,
    /// Silence after which the AM declares a worker dead (ms).
    pub hb_timeout_ms: u64,
    /// AM lease TTL (ms); the watchdog elects a replacement past this.
    pub lease_ttl_ms: u64,
    /// Watchdog poll period (ms).
    pub watchdog_poll_ms: u64,
    /// Reliable-messaging ack timeout before a resend (ms).
    pub retry_timeout_ms: u64,
    /// AM-side send attempts before presuming the peer dead.
    pub retry_max_attempts: u32,
    /// Control-loop receive-poll granularity (ms).
    pub tick_ms: u64,
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
            hb_period_ms: 25,
            hb_timeout_ms: 400,
            lease_ttl_ms: 200,
            watchdog_poll_ms: 40,
            retry_timeout_ms: 60,
            retry_max_attempts: 8,
            tick_ms: 20,
            // 1024-elem test configs stream 4 chunks per buffer, so the
            // chunked path is exercised even by the small profile.
            replication_chunk_elems: 256,
            compute_us: 0,
            open_membership: None,
        }
    }

    fn tick(&self) -> Duration {
        Duration::from_millis(self.tick_ms)
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
    topology: Option<CommTopology>,
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
            .field("topology", &self.topology.is_some())
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
            topology: None,
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

    /// Describes where each worker "lives" in the cluster hierarchy for
    /// the adaptive allreduce's hierarchical path ([`CommTopology`]).
    /// Defaults to `CommTopology::planning_default` — the same 64-node
    /// shape the replication planner assumes, workers placed linearly.
    pub fn topology(mut self, topology: CommTopology) -> Self {
        self.topology = Some(topology);
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

    #[allow(clippy::expect_used)] // waived: see verify-allow.toml (OS thread spawn)
    fn launch(builder: RuntimeBuilder) -> Self {
        let RuntimeBuilder {
            cfg,
            chaos,
            restore,
            sinks,
            time,
            topology,
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
            None => {
                let mut bus_builder = Bus::builder()
                    .journal(Arc::clone(&obs.journal))
                    .time(time.clone());
                if let Some(policy) = chaos {
                    bus_builder = bus_builder.chaos(policy);
                }
                bus_builder.build()
            }
        };
        let metrics = Arc::clone(&obs.rt);
        let ctrl = Arc::new(SharedControl::with_time(
            Duration::from_millis(cfg.lease_ttl_ms),
            obs,
            time.clone(),
        ));
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
        ctrl.persist(&AmDurable::founding(members.clone()));

        // The adaptive allreduce needs its crossovers (pinned on every
        // clock, so dispatch never depends on host load) and a topology
        // for the hierarchical path's node/socket grouping.
        let comm_topology = topology.unwrap_or_default();
        let comm = Arc::new(CommGroup::with_tuning(
            members.iter().copied(),
            cfg.param_elems,
            TuningProfile::pinned(),
            Some(comm_topology),
        ));
        comm.set_journal(Arc::clone(&ctrl.obs.journal));
        comm.set_time(time.clone());
        comm.set_metrics(&ctrl.obs.registry);
        let telemetry: Telemetry = Arc::new(Mutex::new(HashMap::new()));
        let rep = ReliableEndpoint::new(
            bus.clone(),
            bus.register(EndpointId::Controller),
            1,
            Duration::from_millis(cfg.retry_timeout_ms),
            None, // the controller retries forever — failover will answer
            Arc::clone(&metrics),
        );

        let am_handle = spawn_am(cfg, &bus, &comm, &ctrl, 0);
        ctrl.am_handles.lock().push(am_handle);
        let watchdog = {
            let (bus, comm, ctrl) = (bus.clone(), Arc::clone(&comm), Arc::clone(&ctrl));
            let time = time.clone();
            let slot = time.create_thread();
            thread::Builder::new()
                .name("elan-watchdog".into())
                .spawn(move || {
                    let _clock = time.adopt(slot);
                    watchdog_thread(cfg, bus, comm, ctrl)
                })
                .expect("spawn watchdog thread")
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

    #[allow(clippy::expect_used)] // waived: see verify-allow.toml (OS thread spawn)
    fn spawn_worker(&mut self, id: WorkerId, role: WorkerRole) {
        let rep = ReliableEndpoint::new(
            self.bus.clone(),
            self.bus.register(EndpointId::Worker(id)),
            16 + id.0,
            Duration::from_millis(self.cfg.retry_timeout_ms),
            None, // workers retry forever; the AM decides who is dead
            Arc::clone(&self.ctrl.metrics),
        );
        let cfg = WorkerConfig {
            id,
            param_elems: self.cfg.param_elems,
            coordination_interval: self.cfg.coordination_interval,
            learning_rate: self.cfg.learning_rate,
            total_batch: self.cfg.total_batch,
            hb_period: Duration::from_millis(self.cfg.hb_period_ms),
            tick: self.cfg.tick(),
            replication_chunk_elems: self.cfg.replication_chunk_elems,
            compute: Duration::from_micros(self.cfg.compute_us),
        };
        let comm = Arc::clone(&self.comm);
        let telemetry = Arc::clone(&self.telemetry);
        let ctrl = Arc::clone(&self.ctrl);
        let time = self.bus.time().clone();
        let slot = time.create_thread();
        let handle = thread::Builder::new()
            .name(format!("elan-{id}"))
            .spawn(move || {
                let _clock = time.adopt(slot);
                run_worker(cfg, rep, comm, telemetry, role, ctrl)
            })
            .expect("spawn worker thread");
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
        self.ctrl.metrics.snapshot(self.bus.total_dead_letters())
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
        self.ctrl.obs.traces.all()
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
        self.ctrl.worker_crash.write().insert(worker);
    }

    /// Arms a one-shot crash of `worker` at its first coordination
    /// boundary at or after `iteration`: the thread dies after the SGD
    /// step but *before* sending `Coordinate`, leaving the boundary
    /// hanging until the worker is restarted
    /// ([`restart_worker`](Self::restart_worker)) or declared dead.
    pub fn crash_worker_at(&self, worker: WorkerId, iteration: u64) {
        self.ctrl
            .worker_crash_points
            .lock()
            .push(CrashPoint::WorkerAtBoundary { worker, iteration });
    }

    /// Restarts a crashed worker: reaps the dead thread, recycles its
    /// bus endpoint, and spawns a fresh incarnation that runs the
    /// `Rejoin` handshake with the crash incarnation's last-known term
    /// and boundary iteration, then resumes bit-exactly once the AM
    /// re-replicates state to it.
    ///
    /// # Panics
    ///
    /// If `worker` was never ordered to crash (no play-dead flag and no
    /// armed boundary crash point): joining a live worker thread would
    /// block forever, so the misuse is rejected loudly instead.
    #[allow(clippy::expect_used)] // waived: see verify-allow.toml (worker join)
    pub fn restart_worker(&mut self, worker: WorkerId) {
        // Crash evidence lives in one of three places depending on how far
        // the crash has progressed: the play-dead flag, a still-armed
        // boundary crash point, or the credentials a fired boundary crash
        // recorded on its way out.
        let crashed = self.ctrl.worker_crashed(worker)
            || self.ctrl.crash_info.lock().contains_key(&worker)
            || self.ctrl.worker_crash_points.lock().iter().any(
                |p| matches!(p, CrashPoint::WorkerAtBoundary { worker: w, .. } if *w == worker),
            );
        assert!(
            crashed,
            "restart_worker({worker:?}): worker was never ordered to crash; \
             joining its live thread would hang forever"
        );
        let time = self.bus.time().clone();
        if let Some(h) = self.worker_handles.remove(&worker) {
            time.blocking(|| h.join())
                .expect("crashed worker thread exits");
        }
        self.bus.unregister(EndpointId::Worker(worker));
        // A worker that died before recording credentials (or was ordered
        // to play dead) rejoins from scratch: term 0, iteration 0.
        let (term, iteration) = self.ctrl.take_crash_info(worker).unwrap_or((0, 0));
        self.ctrl.worker_crash.write().remove(&worker);
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

    /// Sends an operation and blocks until its `Ack{seq}` arrives,
    /// re-issuing it at the application level so an AM failover between
    /// transport-ack and execution cannot strand the controller.
    fn op_roundtrip(&mut self, body: RtMsg, seq: u64) {
        let time = self.bus.time().clone();
        self.rep.send(EndpointId::Am, body.clone());
        let mut last_send = time.now();
        loop {
            let _ = self.rep.tick();
            if let Some((_, RtMsg::Ack { seq: s })) = self.rep.recv_timeout(self.cfg.tick()) {
                if s == seq {
                    return;
                }
            }
            if time.now().saturating_duration_since(last_send) >= OP_RESEND_EVERY {
                last_send = time.now();
                self.rep.send(EndpointId::Am, body.clone());
            }
        }
    }

    /// Snapshots the full training state at the next coordination
    /// boundary (rank 0 streams its buffers to the controller) — the
    /// checkpoint half of Shutdown-&-Restart, done live.
    pub fn checkpoint(&mut self) -> CheckpointSnapshot {
        // Drain stale traffic (e.g. duplicate snapshot chunks from a
        // recovered AM replaying a previous checkpoint order). This must
        // not park: under a virtual clock a healthy hot job never
        // advances time, so a timeout-based drain would starve here.
        while self.rep.try_recv().is_some() {}
        let time = self.bus.time().clone();
        let seq = self.take_seq();
        self.rep.send(EndpointId::Am, RtMsg::Checkpoint { seq });
        let mut last_send = time.now();
        let mut params = vec![0.0f32; self.cfg.param_elems];
        let mut momentum = vec![0.0f32; self.cfg.param_elems];
        let mut assembly = SnapshotAssembly::new();
        loop {
            let _ = self.rep.tick();
            if let Some((
                _,
                RtMsg::StateChunk {
                    kind,
                    iteration,
                    data_cursor,
                    index,
                    total,
                    offset,
                    data,
                },
            )) = self.rep.recv_timeout(self.cfg.tick())
            {
                if let Some((iteration, data_cursor)) = assembly.offer(
                    kind,
                    iteration,
                    data_cursor,
                    index,
                    total,
                    offset,
                    &data,
                    &mut params,
                    &mut momentum,
                ) {
                    return CheckpointSnapshot {
                        params: Arc::new(params),
                        momentum: Arc::new(momentum),
                        iteration,
                        data_cursor,
                    };
                }
            }
            if time.now().saturating_duration_since(last_send) >= OP_RESEND_EVERY {
                // The checkpoint request is deliberately not durable AM
                // state; the controller just asks again.
                last_send = time.now();
                self.rep.send(EndpointId::Am, RtMsg::Checkpoint { seq });
            }
        }
    }

    #[allow(clippy::expect_used)] // waived: see verify-allow.toml (worker join)
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
        let obs = Arc::clone(&self.ctrl.obs);
        let at = obs.journal.now_us();
        let target_world = target.len() as u32;
        let (trace, fresh) = obs.traces.begin(kind, Some(seq), target_world, at);
        if fresh {
            obs.journal.emit_at(
                at,
                EventKind::AdjustmentRequested {
                    trace,
                    kind,
                    seq: Some(seq),
                    target_world,
                },
            );
            obs.journal.emit_at(
                at,
                EventKind::PhaseStarted {
                    trace,
                    phase: AdjustmentPhase::Request,
                },
            );
        }
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
        // Reap leavers. The join is an OS-blocking wait on a thread that
        // may still need to be scheduled to finish, so on a virtual clock
        // it must run as an external section.
        let time = self.bus.time().clone();
        for w in leaving {
            if let Some(h) = self.worker_handles.remove(&w) {
                time.blocking(|| h.join())
                    .expect("worker thread exits cleanly");
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
        for _ in 0..n {
            target.push(WorkerId(self.next_worker));
            self.next_worker += 1;
        }
        self.adjust_to(target, TraceKind::ScaleOut);
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
        let mut ids = Vec::with_capacity(n as usize);
        for _ in 0..n {
            let id = WorkerId(self.next_worker);
            self.next_worker += 1;
            self.spawn_worker(id, WorkerRole::OpenJoin { corrupt: false });
            ids.push(id);
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
        let n = self.members().len() as u32;
        let mut target = Vec::with_capacity(n as usize);
        for _ in 0..n {
            target.push(WorkerId(self.next_worker));
            self.next_worker += 1;
        }
        self.adjust_to(target, TraceKind::Migrate);
    }

    /// Stops the job at the next coordination boundary and returns the
    /// final report.
    #[allow(clippy::expect_used)] // waived: see verify-allow.toml (teardown joins)
    pub fn shutdown(mut self) -> ShutdownReport {
        let seq = self.take_seq();
        self.op_roundtrip(RtMsg::Stop { seq }, seq);
        self.ctrl.shutdown.store(true, Ordering::SeqCst);
        let time = self.bus.time().clone();
        for (_, h) in std::mem::take(&mut self.worker_handles) {
            time.blocking(|| h.join())
                .expect("worker thread exits cleanly");
        }
        if let Some(h) = self.watchdog.take() {
            time.blocking(|| h.join())
                .expect("watchdog thread exits cleanly");
        }
        let ams: Vec<JoinHandle<()>> = self.ctrl.am_handles.lock().drain(..).collect();
        for h in ams {
            time.blocking(|| h.join()).expect("AM thread exits cleanly");
        }
        // Release the controller thread from the (virtual) clock: the
        // runtime is gone and the caller's thread must not stay scheduled.
        time.deregister();
        let obs = Arc::clone(&self.ctrl.obs);
        ShutdownReport {
            final_world_size: self.ctrl.members.lock().len() as u32,
            workers: self
                .telemetry
                .lock()
                .iter()
                .map(|(&k, &v)| (k, v))
                .collect(),
            adjustments: self.adjustments,
            metrics: self.ctrl.metrics.snapshot(self.bus.total_dead_letters()),
            chaos: self.bus.chaos_stats(),
            registry: obs.metrics(),
            journal: obs.journal.summary(),
            traces: obs.traces.all(),
            events: obs.journal.events(),
        }
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

/// Spawns one AM incarnation; epoch 0 is the founding AM.
#[allow(clippy::expect_used)] // waived: see verify-allow.toml (OS thread spawn)
fn spawn_am(
    cfg: RuntimeConfig,
    bus: &Bus,
    comm: &Arc<CommGroup>,
    ctrl: &Arc<SharedControl>,
    epoch: u64,
) -> JoinHandle<()> {
    let endpoint = bus.register(EndpointId::Am);
    let lease = ctrl.grant_lease();
    let time = bus.time().clone();
    let slot = time.create_thread();
    let (bus, comm, ctrl) = (bus.clone(), Arc::clone(comm), Arc::clone(ctrl));
    thread::Builder::new()
        .name(format!("elan-am-e{epoch}"))
        .spawn(move || {
            let _clock = time.adopt(slot);
            am_thread(cfg, bus, endpoint, comm, ctrl, epoch, lease)
        })
        .expect("spawn AM thread")
}

/// Polls the AM lease; when it lapses (the AM died or was crashed), bumps
/// the epoch and elects a replacement AM that recovers from the durable
/// record — Elan's watchdog-driven AM failover.
fn watchdog_thread(cfg: RuntimeConfig, bus: Bus, comm: Arc<CommGroup>, ctrl: Arc<SharedControl>) {
    loop {
        bus.time()
            .sleep(Duration::from_millis(cfg.watchdog_poll_ms));
        if ctrl.shutting_down() {
            return;
        }
        if !ctrl.lease_expired() {
            continue;
        }
        // Takeover: supersede the silent AM and install a replacement.
        let epoch = ctrl.epoch.fetch_add(1, Ordering::SeqCst) + 1;
        ctrl.metrics.am_recoveries.inc();
        ctrl.obs.journal.emit(EventKind::AmElected { epoch });
        bus.unregister(EndpointId::Am);
        let handle = spawn_am(cfg, &bus, &comm, &ctrl, epoch);
        ctrl.am_handles.lock().push(handle);
    }
}

#[allow(clippy::expect_used)] // waived: see verify-allow.toml (seeded durable record)
fn am_thread(
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
        Duration::from_millis(cfg.retry_timeout_ms),
        Some(cfg.retry_max_attempts),
        Arc::clone(&ctrl.metrics),
    );
    // Mark ownership before acting (persist-before-act): atomically bump
    // the fencing term, so any still-running predecessor's next persist
    // is rejected at the store.
    let durable = ctrl.bump_term(epoch);
    ctrl.obs
        .journal
        .emit(EventKind::TermBump { term: durable.term });
    let metrics = Arc::clone(&ctrl.metrics);
    let first_contact_ms = ctrl
        .first_contact_grace_ms
        .load(Ordering::SeqCst)
        .max(cfg.hb_timeout_ms);
    // Open membership: the founding AM starts the epoch machine fresh; a
    // failover successor rebuilds it from the durable record (epoch +
    // phase + members), and in-flight joiners re-present themselves via
    // their heartbeat-cadence `JoinRequest` re-announcements.
    let machine = cfg.open_membership.map(|ecfg| {
        let j = &ctrl.obs.journal;
        if epoch == 0 {
            EpochMachine::new(ecfg, j.now_us(), &durable.members, j)
        } else {
            EpochMachine::recover(
                ecfg,
                durable.train_epoch,
                durable.epoch_phase,
                &durable.members,
                j.now_us(),
            )
        }
    });
    AmCore {
        cfg,
        rep,
        comm,
        ctrl,
        metrics,
        epoch,
        lease,
        durable,
        hb: HeartbeatMonitor::with_grace(
            Duration::from_millis(cfg.hb_timeout_ms),
            Duration::from_millis(first_contact_ms),
        ),
        dead: BTreeSet::new(),
        fenced: false,
        rejoining: BTreeSet::new(),
        coordinated: BTreeMap::new(),
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
    }
    .run();
}

/// Whether the AM loop keeps going.
enum Step {
    Continue,
    Exit,
}

/// One AM incarnation: protocol state machine + failure detector.
struct AmCore {
    cfg: RuntimeConfig,
    rep: ReliableEndpoint,
    comm: Arc<CommGroup>,
    ctrl: Arc<SharedControl>,
    metrics: Arc<RtMetrics>,
    epoch: u64,
    lease: LeaseId,
    /// The persist-before-act record (authoritative copy in the store).
    durable: AmDurable,
    hb: HeartbeatMonitor,
    /// Members declared dead this incarnation (volatile; re-detected by
    /// heartbeat silence after a failover).
    dead: BTreeSet<WorkerId>,
    /// Latched when a persist was rejected by the term fence: a
    /// successor owns the record and this incarnation must abdicate.
    fenced: bool,
    /// Crashed-and-restarted workers mid-`Rejoin` handshake: admitted,
    /// exempt from the boundary quorum, and owed a state transfer in
    /// the adjustment that folds them back in.
    rejoining: BTreeSet<WorkerId>,
    /// Boundary iteration each live member is parked at.
    coordinated: BTreeMap<WorkerId, u64>,
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
    /// Open-membership epoch machine (`Some` iff
    /// [`RuntimeConfig::open_membership`] is set): decides *when* joiners
    /// are admitted; the AM's adjustment pipeline remains the mechanism
    /// that warms them up and folds them in.
    machine: Option<EpochMachine>,
}

impl AmCore {
    fn live(&self) -> Vec<WorkerId> {
        self.durable
            .members
            .iter()
            .copied()
            .filter(|w| !self.dead.contains(w))
            .collect()
    }

    /// Consumes the armed crash flag iff it matches `point`.
    fn crash_if(&self, point: CrashPoint) -> bool {
        let mut armed = self.ctrl.am_crash.lock();
        if *armed == Some(point) {
            *armed = None;
            true
        } else {
            false
        }
    }

    /// Persist-before-act through the term fence. Returns false when a
    /// successor incarnation has bumped the term — the write was
    /// rejected, the `fenced` flag is latched, and the caller must not
    /// take the externally visible action the write guards.
    fn persist_fenced(&mut self) -> bool {
        if self.ctrl.persist(&self.durable) {
            true
        } else {
            self.fenced = true;
            false
        }
    }

    /// Runs `f` against the epoch machine (no-op when open membership is
    /// off) and applies whatever commands it returns. The journal handle
    /// is cloned up front so the closure can emit while the machine is
    /// mutably borrowed.
    fn with_machine(
        &mut self,
        f: impl FnOnce(&mut EpochMachine, u64, &EventJournal) -> Vec<EpochCmd>,
    ) {
        let j = Arc::clone(&self.ctrl.obs.journal);
        let now = j.now_us();
        let cmds = match self.machine.as_mut() {
            Some(m) => f(m, now, &j),
            None => return,
        };
        if !cmds.is_empty() {
            self.apply_epoch_cmds(cmds);
        }
    }

    /// Ticks the epoch machine's time-gated transitions. While the AM is
    /// busy (mid-adjustment, a queued op, a stop, or an outstanding
    /// checkpoint) the `WaitingForMembers` window is held open — a join
    /// cohort must never arm its warmup op under an in-flight one — but
    /// `Warmup` keeps ticking so deadline evictions still fire and a
    /// silent joiner cannot wedge the pipeline.
    fn epoch_tick(&mut self) {
        let busy = !matches!(self.durable.phase, AmPhase::Steady)
            || self.durable.pending.is_some()
            || self.durable.stopping.is_some()
            || self.awaiting_checkpoint.is_some();
        self.with_machine(|m, now, j| {
            if busy && m.phase() == EpochPhase::WaitingForMembers {
                Vec::new()
            } else {
                m.tick(now, j)
            }
        });
    }

    /// An open-membership joiner announced itself (or re-claimed its
    /// warmup digest). Pending joiners are marked `reported` so the
    /// warmup adjustment can arm without a separate `Report` round-trip.
    fn handle_join_request(&mut self, worker: WorkerId, digest: Option<u64>) {
        if self.machine.is_none() {
            return; // open membership off: stray message, ignore
        }
        self.with_machine(|m, now, j| m.join_request(worker, digest, now, j));
        if self.machine.as_ref().is_some_and(|m| m.is_pending(worker)) {
            self.reported.insert(worker);
        }
    }

    /// A witness answered a `WitnessQuery` for a warmed-up joiner.
    fn handle_witness_vote(
        &mut self,
        witness: WorkerId,
        subject: WorkerId,
        epoch: u64,
        admit: bool,
    ) {
        self.with_machine(|m, now, j| m.witness_vote(witness, subject, epoch, admit, now, j));
    }

    /// Executes the epoch machine's decisions on the runtime: warmup
    /// cohorts become pending adjustment ops, witness queries go out to
    /// members, evictions prune the joiner from every in-flight target
    /// and `Leave` it, and phase announcements persist the epoch record
    /// and fan out `EpochAdvance`.
    fn apply_epoch_cmds(&mut self, cmds: Vec<EpochCmd>) {
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
                    self.persist_fenced();
                }
                EpochCmd::QueryWitnesses {
                    epoch,
                    subject,
                    probe,
                    witnesses,
                } => {
                    let term = self.durable.term;
                    for w in witnesses {
                        self.rep.send(
                            EndpointId::Worker(w),
                            RtMsg::WitnessQuery {
                                subject,
                                epoch,
                                probe,
                                term,
                            },
                        );
                    }
                }
                EpochCmd::Admit { .. } => {
                    // Admission is effected by the warmup op's `Resume`:
                    // the joiner is already in the op target.
                }
                EpochCmd::Evict { subject, .. } => {
                    let prune = |target: &mut Vec<WorkerId>| target.retain(|w| *w != subject);
                    if let Some(p) = &mut self.durable.pending {
                        prune(&mut p.target);
                    }
                    match &mut self.durable.phase {
                        AmPhase::Transferring { target, .. } | AmPhase::Resuming { target, .. } => {
                            prune(target)
                        }
                        AmPhase::Steady => {}
                    }
                    self.reported.remove(&subject);
                    self.rejoining.remove(&subject);
                    self.coordinated.remove(&subject);
                    self.hb.forget(subject);
                    // Persist the pruned targets before the externally
                    // visible dismissal (persist-before-act).
                    if !self.persist_fenced() {
                        return;
                    }
                    self.rep.send(
                        EndpointId::Worker(subject),
                        RtMsg::Leave {
                            term: self.durable.term,
                        },
                    );
                }
                EpochCmd::Announce { epoch, phase } => {
                    self.durable.train_epoch = epoch;
                    self.durable.epoch_phase = phase;
                    if !self.persist_fenced() {
                        return;
                    }
                    let mut audience: BTreeSet<WorkerId> =
                        self.durable.members.iter().copied().collect();
                    match &self.durable.phase {
                        AmPhase::Transferring { target, .. } | AmPhase::Resuming { target, .. } => {
                            audience.extend(target.iter().copied());
                        }
                        AmPhase::Steady => {}
                    }
                    if let Some(p) = &self.durable.pending {
                        audience.extend(p.target.iter().copied());
                    }
                    let term = self.durable.term;
                    for w in audience {
                        if self.dead.contains(&w) {
                            continue;
                        }
                        self.rep.send(
                            EndpointId::Worker(w),
                            RtMsg::EpochAdvance { epoch, phase, term },
                        );
                    }
                }
            }
        }
    }

    fn run(mut self) {
        if self.epoch > 0 {
            // Takeover: the predecessor's inbox died with it. Broadcast the
            // new epoch so parked workers re-send `Coordinate` and joiners
            // re-send `Report` (the paper's re-solicitation on AM restart).
            let mut audience: BTreeSet<WorkerId> = self.durable.members.iter().copied().collect();
            match &self.durable.phase {
                AmPhase::Transferring { target, .. } | AmPhase::Resuming { target, .. } => {
                    audience.extend(target.iter().copied());
                }
                AmPhase::Steady => {}
            }
            if let Some(p) = &self.durable.pending {
                audience.extend(p.target.iter().copied());
            }
            for w in audience {
                self.rep.send(
                    EndpointId::Worker(w),
                    RtMsg::AmReset {
                        epoch: self.epoch,
                        term: self.durable.term,
                    },
                );
            }
        }
        loop {
            if self.ctrl.shutting_down() {
                return;
            }
            if self.fenced {
                return; // superseded: a persist was rejected by the fence
            }
            // A partitioned AM still computes, but cannot reach the
            // control quorum: it can neither refresh its lease (so the
            // watchdog elects a successor) nor observe the election. The
            // term fence at the store is what stops it from acting once
            // superseded.
            let isolated = self
                .rep
                .bus()
                .is_partitioned(EndpointId::Am, EndpointId::Controller);
            if !isolated {
                // Prove liveness; abdicate the moment the lease is lost or
                // a newer epoch exists (never act on a lapsed lease).
                if self.ctrl.keep_alive(self.lease).is_err() {
                    return;
                }
                if self.ctrl.epoch.load(Ordering::SeqCst) != self.epoch {
                    return;
                }
            }
            // Transport retries; a give-up means the peer is dead.
            for to in self.rep.tick() {
                if let EndpointId::Worker(w) = to {
                    self.declare_dead(w);
                }
            }
            // Heartbeat-based failure detection — on the bus clock, so the
            // detector ticks on the same axis as the lease and the retry
            // timers.
            let now = self.rep.time().now();
            for w in self.hb.dead(&self.live(), now) {
                self.declare_dead(w);
            }
            self.epoch_tick();
            if matches!(self.try_progress(), Step::Exit) {
                return;
            }
            if let Some((from, msg)) = self.rep.recv_timeout(self.cfg.tick()) {
                if let EndpointId::Worker(w) = from {
                    // Any traffic proves liveness, not just heartbeats.
                    let at = self.rep.time().now();
                    self.hb.note(w, at);
                }
                self.handle(msg);
            }
        }
    }

    fn handle(&mut self, msg: RtMsg) {
        match msg {
            RtMsg::AdjustTo { seq, target } => {
                if seq <= self.durable.seq_done {
                    // Duplicate of a completed op (AM failover replay).
                    self.rep.send(EndpointId::Controller, RtMsg::Ack { seq });
                } else if self.in_flight_seq() == Some(seq)
                    || self
                        .durable
                        .pending
                        .as_ref()
                        .is_some_and(|p| p.seq == Some(seq))
                {
                    // Already queued or executing: ignore the duplicate.
                } else {
                    let target: Vec<WorkerId> = target
                        .into_iter()
                        .filter(|w| !self.dead.contains(w))
                        .collect();
                    self.durable.pending = Some(PendingOp {
                        seq: Some(seq),
                        target,
                    });
                    if !self.persist_fenced() {
                        return;
                    }
                    // Step ① done: the AM owns the request; joiner reports
                    // (step ②) are what we wait for next.
                    let obs = Arc::clone(&self.ctrl.obs);
                    let now = obs.journal.now_us();
                    if let Some(trace) = obs.traces.phase_end(AdjustmentPhase::Request, now) {
                        obs.journal.emit_at(
                            now,
                            EventKind::PhaseEnded {
                                trace,
                                phase: AdjustmentPhase::Request,
                            },
                        );
                    }
                    if let Some(trace) = obs.traces.phase_start(AdjustmentPhase::Report, now) {
                        obs.journal.emit_at(
                            now,
                            EventKind::PhaseStarted {
                                trace,
                                phase: AdjustmentPhase::Report,
                            },
                        );
                    }
                }
            }
            RtMsg::Stop { seq } => {
                if seq <= self.durable.seq_done {
                    self.rep.send(EndpointId::Controller, RtMsg::Ack { seq });
                } else if self.durable.stopping != Some(seq) {
                    self.durable.stopping = Some(seq);
                    self.persist_fenced();
                }
            }
            RtMsg::Checkpoint { seq } if self.awaiting_checkpoint.is_none() => {
                self.checkpoint_req = Some(seq);
            }
            // Joiners re-announce at heartbeat cadence until admitted; only
            // the first delivery is a protocol event (the guard's insert
            // returns false for repeats, which then fall through harmlessly).
            RtMsg::Report { worker } if self.reported.insert(worker) => {
                let obs = Arc::clone(&self.ctrl.obs);
                let now = obs.journal.now_us();
                obs.traces.note_report(now);
                obs.journal
                    .emit_at(now, EventKind::WorkerReported { worker });
            }
            RtMsg::Coordinate { worker, iteration } if iteration > self.last_boundary => {
                let entry = self.coordinated.entry(worker).or_insert(iteration);
                if *entry < iteration {
                    *entry = iteration;
                }
            }
            RtMsg::TransferDone { src, dst } => {
                self.ctrl
                    .obs
                    .journal
                    .emit(EventKind::TransferDone { src, dst });
                if src == dst {
                    self.awaiting_checkpoint = None;
                } else {
                    self.outstanding.remove(&(src, dst));
                }
            }
            RtMsg::Rejoin {
                worker,
                term,
                iteration,
            } => self.handle_rejoin(worker, term, iteration),
            RtMsg::JoinRequest {
                worker,
                epoch: _,
                digest,
            } => self.handle_join_request(worker, digest),
            RtMsg::WitnessVote {
                witness,
                subject,
                epoch,
                admit,
                digest: _,
            } => self.handle_witness_vote(witness, subject, epoch, admit),
            RtMsg::Heartbeat { worker, iteration } => {
                // Liveness was noted in run(); the carried iteration feeds
                // the shared progress view, which is how the controller
                // tracks training progress when workers are remote
                // processes (the in-process telemetry map stays empty).
                let mut progress = self.ctrl.progress.lock();
                let e = progress.entry(worker).or_insert(iteration);
                *e = (*e).max(iteration);
            }
            _ => {}
        }
    }

    /// Admits (or defers) a crashed-and-restarted worker's `Rejoin`
    /// handshake. Admission is deferred — the worker re-announces on a
    /// timer — unless the AM is steady with nothing queued, so a rejoin
    /// can never interleave with an in-flight adjustment; a duplicated
    /// or reordered `Rejoin` envelope is absorbed by the `rejoining`
    /// set, admitting the worker exactly once. The presented
    /// credentials (`_term`, `_iteration`) are the crash incarnation's
    /// last knowledge; admission always replicates fresh state under
    /// the *current* term, so they are informational.
    fn handle_rejoin(&mut self, worker: WorkerId, _term: u64, _iteration: u64) {
        if self.rejoining.contains(&worker) {
            return; // duplicate envelope: already admitted
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
        let now = self.rep.time().now();
        self.hb.note(worker, now);
        self.durable.pending = Some(PendingOp { seq: None, target });
        if !self.persist_fenced() {
            return;
        }
        self.ctrl.obs.journal.emit(EventKind::WorkerRejoin {
            worker,
            term: self.durable.term,
        });
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
        let live: Vec<WorkerId> = self
            .live()
            .into_iter()
            .filter(|w| !self.rejoining.contains(w))
            .collect();
        let first = *self.coordinated.get(live.first()?)?;
        for w in &live[1..] {
            if *self.coordinated.get(w)? != first {
                return None;
            }
        }
        (first > self.last_boundary).then_some(first)
    }

    /// Drives the adjustment pipeline as far as it can go right now.
    fn try_progress(&mut self) -> Step {
        loop {
            if self.fenced {
                return Step::Exit;
            }
            match &self.durable.phase {
                AmPhase::Transferring { .. } => {
                    if !self.transfers_started {
                        // (Recovered incarnation.) Wait until AmReset
                        // replies re-establish the boundary, then re-derive
                        // and re-send the orders — transfers at a boundary
                        // are idempotent, so replaying is safe.
                        if self.boundary_ready().is_none() {
                            return Step::Continue;
                        }
                        self.start_transfers();
                        continue;
                    }
                    if !self.outstanding.is_empty() {
                        return Step::Continue; // waiting on TransferDone
                    }
                    if self.next_wave < self.transfer_waves.len() {
                        // The current wave drained: issue the next one.
                        // Link-conflicting transfers never overlap.
                        self.issue_next_wave();
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
                        return Step::Continue;
                    }
                    let Some(boundary) = self.boundary_ready() else {
                        return Step::Continue;
                    };
                    let AmPhase::Transferring { target, seq } = self.durable.phase.clone() else {
                        unreachable!("matched above");
                    };
                    let target: Vec<WorkerId> = target
                        .into_iter()
                        .filter(|w| !self.dead.contains(w))
                        .collect();
                    if target.is_empty() {
                        // Everyone in the target died: drop the op.
                        self.durable.phase = AmPhase::Steady;
                        self.persist_fenced();
                        continue;
                    }
                    let generation = self.comm.generation() + 1;
                    self.durable.phase = AmPhase::Resuming {
                        target,
                        seq,
                        generation,
                    };
                    if !self.persist_fenced() {
                        return Step::Exit;
                    }
                    // Steps ③+④ done (replication drained at a coherent
                    // boundary); step ⑤ (adjust) begins.
                    let obs = Arc::clone(&self.ctrl.obs);
                    let now = obs.journal.now_us();
                    for phase in [AdjustmentPhase::Replicate, AdjustmentPhase::Coordinate] {
                        if let Some(trace) = obs.traces.phase_end(phase, now) {
                            obs.journal
                                .emit_at(now, EventKind::PhaseEnded { trace, phase });
                        }
                    }
                    if let Some(trace) = obs.traces.phase_start(AdjustmentPhase::Adjust, now) {
                        obs.journal.emit_at(
                            now,
                            EventKind::PhaseStarted {
                                trace,
                                phase: AdjustmentPhase::Adjust,
                            },
                        );
                    }
                    if self.crash_if(CrashPoint::OnResume) {
                        return Step::Exit; // die without cleanup
                    }
                    self.resume_wave(boundary);
                }
                AmPhase::Resuming { .. } => {
                    // (Recovered incarnation: the resume wave never went
                    // out.) Once the boundary is re-established, replay it.
                    let Some(boundary) = self.boundary_ready() else {
                        return Step::Continue;
                    };
                    self.resume_wave(boundary);
                }
                AmPhase::Steady => {
                    // A pending stop with no live members can never see a
                    // boundary again (the quorum is empty — typically a
                    // successor elected mid-shutdown after every worker
                    // already left); serve it directly so the controller's
                    // ack is not stranded behind a vacuous boundary wait.
                    if let Some(seq) = self.durable.stopping {
                        if self.live().is_empty() {
                            return self.execute_stop(seq);
                        }
                    }
                    let Some(boundary) = self.boundary_ready() else {
                        return Step::Continue;
                    };
                    let live = self.live();
                    if self.awaiting_checkpoint.is_some() {
                        return Step::Continue; // snapshot in flight
                    }
                    if let Some(seq) = self.checkpoint_req.take() {
                        let rank0 = live[0];
                        self.rep.send(
                            EndpointId::Worker(rank0),
                            RtMsg::CheckpointOrder {
                                seq,
                                term: self.durable.term,
                            },
                        );
                        self.awaiting_checkpoint = Some(seq);
                        return Step::Continue;
                    }
                    if let Some(seq) = self.durable.stopping {
                        return self.execute_stop(seq);
                    }
                    if let Some(op) = self.durable.pending.clone() {
                        let ready = op
                            .target
                            .iter()
                            .filter(|w| !self.durable.members.contains(w))
                            .all(|w| self.reported.contains(w));
                        if ready {
                            self.durable.pending = None;
                            self.durable.phase = AmPhase::Transferring {
                                target: op.target,
                                seq: op.seq,
                            };
                            if !self.persist_fenced() {
                                return Step::Exit;
                            }
                            // Step ② done, step ③ (coordinate at the
                            // boundary) begins.
                            let obs = Arc::clone(&self.ctrl.obs);
                            let now = obs.journal.now_us();
                            if let Some(trace) = obs.traces.phase_end(AdjustmentPhase::Report, now)
                            {
                                obs.journal.emit_at(
                                    now,
                                    EventKind::PhaseEnded {
                                        trace,
                                        phase: AdjustmentPhase::Report,
                                    },
                                );
                            }
                            if let Some(trace) =
                                obs.traces.phase_start(AdjustmentPhase::Coordinate, now)
                            {
                                obs.journal.emit_at(
                                    now,
                                    EventKind::PhaseStarted {
                                        trace,
                                        phase: AdjustmentPhase::Coordinate,
                                    },
                                );
                            }
                            if self.crash_if(CrashPoint::OnAdjustStart) {
                                return Step::Exit; // die without cleanup
                            }
                            self.start_transfers();
                            continue;
                        }
                    }
                    // Nothing to adjust: release the boundary. The release
                    // is an externally visible action, so it goes through
                    // the persist-before-act fence first — a superseded
                    // incarnation abdicates here instead of racing its
                    // successor's release.
                    if !self.persist_fenced() {
                        return Step::Exit;
                    }
                    self.ctrl.obs.journal.emit(EventKind::BoundaryReleased {
                        boundary,
                        world: live.len() as u32,
                        term: self.durable.term,
                    });
                    for &w in &live {
                        self.rep.send(
                            EndpointId::Worker(w),
                            RtMsg::Proceed {
                                boundary,
                                term: self.durable.term,
                            },
                        );
                    }
                    self.coordinated.clear();
                    self.last_boundary = boundary;
                    // Plain training boundaries pace the epoch: adjustment
                    // boundaries (resume_wave) deliberately don't count.
                    self.with_machine(|m, now, j| m.boundary_released(now, j));
                    return Step::Continue;
                }
            }
        }
    }

    /// Step ④ kickoff: plan replication along the topology and issue the
    /// first wave of transfer orders; the remaining waves go out as each
    /// wave's `TransferDone`s drain (`issue_next_wave`), so transfers the
    /// planner found to contend on a link (shared source/destination GPU,
    /// same-node QPI/L3 or NIC edge) are serialized while disjoint ones
    /// overlap. Idempotent — a recovered AM calls it again.
    #[allow(clippy::expect_used)] // waived: see verify-allow.toml (validated placements)
    fn start_transfers(&mut self) {
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
        if joining.is_empty() {
            // Nothing to replicate (pure scale-in / failure eviction):
            // step ④ still opens and closes on the record, as an
            // explicitly empty plan.
            let obs = Arc::clone(&self.ctrl.obs);
            obs.traces.set_plan(0, 0);
            let now = obs.journal.now_us();
            obs.journal.emit_at(
                now,
                EventKind::ReplicationPlanned {
                    waves: 0,
                    transfers: 0,
                },
            );
            if let Some(trace) = obs.traces.phase_start(AdjustmentPhase::Replicate, now) {
                obs.journal.emit_at(
                    now,
                    EventKind::PhaseStarted {
                        trace,
                        phase: AdjustmentPhase::Replicate,
                    },
                );
            }
            return;
        }
        // Rejoiners hold void state — they are destinations, never sources.
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
        self.transfer_waves = plan
            .waves()
            .iter()
            .map(|wave| {
                wave.iter()
                    .map(|&i| {
                        (
                            slot_owner(&moved, transfers[i].src),
                            slot_owner(&moved, transfers[i].dst),
                        )
                    })
                    .collect()
            })
            .collect();
        // Step ④ (replicate) opens with the planner's schedule on record.
        let waves = self.transfer_waves.len() as u32;
        let total = transfers.len() as u32;
        let obs = Arc::clone(&self.ctrl.obs);
        obs.traces.set_plan(waves, total);
        let now = obs.journal.now_us();
        obs.journal.emit_at(
            now,
            EventKind::ReplicationPlanned {
                waves,
                transfers: total,
            },
        );
        if let Some(trace) = obs.traces.phase_start(AdjustmentPhase::Replicate, now) {
            obs.journal.emit_at(
                now,
                EventKind::PhaseStarted {
                    trace,
                    phase: AdjustmentPhase::Replicate,
                },
            );
        }
        self.issue_next_wave();
    }

    /// Issues the next wave of transfer orders, if any.
    fn issue_next_wave(&mut self) {
        let Some(wave) = self.transfer_waves.get(self.next_wave).cloned() else {
            return;
        };
        self.ctrl.obs.journal.emit(EventKind::WaveIssued {
            wave: self.next_wave as u32,
            transfers: wave.len() as u32,
        });
        self.next_wave += 1;
        for (src, dst) in wave {
            self.outstanding.insert((src, dst));
            self.rep.send(
                EndpointId::Worker(src),
                RtMsg::TransferOrder {
                    dst,
                    term: self.durable.term,
                },
            );
        }
    }

    /// Step ⑤: reconfigure the communication group (unless a previous
    /// incarnation already did) and broadcast Leave/Resume; completes the
    /// in-flight operation.
    fn resume_wave(&mut self, boundary: u64) {
        let AmPhase::Resuming {
            target,
            seq,
            generation,
        } = self.durable.phase.clone()
        else {
            return;
        };
        let target: Vec<WorkerId> = target
            .into_iter()
            .filter(|w| !self.dead.contains(w))
            .collect();
        if target.is_empty() {
            self.durable.phase = AmPhase::Steady;
            self.persist_fenced();
            return;
        }
        // Fence probe (persist-before-act): a superseded incarnation
        // must learn it *here*, before it reconfigures the collective or
        // sends a single Leave/Resume — this is what stops a
        // partitioned-but-alive old AM from split-braining the wave.
        if !self.persist_fenced() {
            return;
        }
        if self.comm.generation() < generation {
            let g = self.comm.reconfigure(target.iter().copied());
            debug_assert_eq!(g, generation, "generation replay diverged");
        }
        for &w in &self.durable.members {
            if !target.contains(&w) && !self.dead.contains(&w) {
                self.rep.send(
                    EndpointId::Worker(w),
                    RtMsg::Leave {
                        term: self.durable.term,
                    },
                );
            }
        }
        for &w in &target {
            self.rep.send(
                EndpointId::Worker(w),
                RtMsg::Resume {
                    generation,
                    term: self.durable.term,
                },
            );
        }
        self.durable.members = target.clone();
        if let Some(m) = self.machine.as_mut() {
            // Controller-driven adjustments (scale_out/in, migrate,
            // failure scale-in) bypass the join pipeline; force-sync the
            // epoch machine's membership view to the resumed cohort.
            m.set_members(&target);
        }
        *self.ctrl.members.lock() = target;
        match seq {
            Some(s) => {
                self.durable.seq_done = self.durable.seq_done.max(s);
            }
            None => {
                // Failure-driven (or rejoin-driven) adjustment: no
                // controller op to ack.
                self.metrics.failure_scale_ins.inc();
            }
        }
        self.durable.phase = AmPhase::Steady;
        self.persist_fenced();
        // Step ⑤ done: close the span (idempotent across failovers).
        let world = self.durable.members.len() as u32;
        let obs = Arc::clone(&self.ctrl.obs);
        let now = obs.journal.now_us();
        if let Some(trace) = obs.traces.phase_end(AdjustmentPhase::Adjust, now) {
            obs.journal.emit_at(
                now,
                EventKind::PhaseEnded {
                    trace,
                    phase: AdjustmentPhase::Adjust,
                },
            );
        }
        if let Some(trace) = obs.traces.complete(generation, world, now) {
            obs.journal.emit_at(
                now,
                EventKind::AdjustmentCompleted {
                    trace,
                    generation,
                    world,
                },
            );
        }
        // Only after the span is closed may the controller unblock —
        // acking first would let the *next* adjustment race `begin`
        // against this trace's `complete` and fold into it.
        if let Some(s) = seq {
            self.rep.send(EndpointId::Controller, RtMsg::Ack { seq: s });
        }
        self.reported.clear();
        self.rejoining.clear();
        self.coordinated.clear();
        self.outstanding.clear();
        self.transfer_waves.clear();
        self.next_wave = 0;
        self.transfers_started = false;
        self.last_boundary = boundary;
    }

    /// Serves `Stop{seq}` at a boundary: everyone leaves, the controller
    /// gets its ack, the lease is surrendered cleanly.
    fn execute_stop(&mut self, seq: u64) -> Step {
        for &w in &self.live() {
            self.rep.send(
                EndpointId::Worker(w),
                RtMsg::Leave {
                    term: self.durable.term,
                },
            );
        }
        // Drain until every Leave is transport-acked (workers only exit
        // after acking), so no survivor can be stranded mid-park.
        self.drain_pending(Duration::from_secs(10));
        self.durable.seq_done = self.durable.seq_done.max(seq);
        self.durable.stopping = None;
        if !self.persist_fenced() {
            return Step::Exit; // the successor completes the stop
        }
        self.rep.send(EndpointId::Controller, RtMsg::Ack { seq });
        self.drain_pending(Duration::from_secs(5));
        // Clean exit: surrender the lease so the watchdog stays quiet.
        *self.ctrl.current_lease.lock() = None;
        self.ctrl.leases.lock().revoke(self.lease);
        Step::Exit
    }

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
            for to in self.rep.tick() {
                if let EndpointId::Worker(w) = to {
                    self.declare_dead(w);
                }
            }
            let _ = self.rep.recv_timeout(Duration::from_millis(5));
        }
    }

    /// The failure detector's verdict: evict from the data plane so no
    /// survivor blocks, then fold the death into whatever operation is in
    /// (or next in) flight — or start a failure-driven scale-in.
    fn declare_dead(&mut self, w: WorkerId) {
        let is_member = self.durable.members.contains(&w);
        let in_target = match &self.durable.phase {
            AmPhase::Transferring { target, .. } | AmPhase::Resuming { target, .. } => {
                target.contains(&w)
            }
            AmPhase::Steady => false,
        } || self
            .durable
            .pending
            .as_ref()
            .is_some_and(|p| p.target.contains(&w));
        if !is_member && !in_target {
            return; // already out of the job (e.g. post-Leave give-up)
        }
        // Fence probe (persist-before-act): a superseded incarnation —
        // e.g. a partitioned old AM whose resends to unreachable workers
        // just gave up — must not evict a live worker from the
        // collective on behalf of a job it no longer owns.
        if !self.persist_fenced() {
            return;
        }
        if !self.dead.insert(w) {
            return;
        }
        self.ctrl
            .obs
            .journal
            .emit(EventKind::WorkerDeclaredDead { worker: w });
        // Unblock the survivors immediately: remove the victim (and its
        // stale contribution) from the collective.
        self.comm.evict(w);
        self.coordinated.remove(&w);
        self.reported.remove(&w);
        self.rejoining.remove(&w);
        self.hb.forget(w);
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
        if let Some(p) = &mut self.durable.pending {
            p.target.retain(|x| *x != w);
        }
        match &mut self.durable.phase {
            AmPhase::Transferring { target, .. } | AmPhase::Resuming { target, .. } => {
                target.retain(|x| *x != w);
            }
            AmPhase::Steady => {
                if is_member && self.durable.pending.is_none() && self.durable.stopping.is_none() {
                    let live = self.live();
                    if !live.is_empty() {
                        // Failure-driven scale-in around the victim. Open a
                        // trace for it (folds into the active one if a
                        // controller adjustment is already in flight).
                        let target_world = live.len() as u32;
                        let obs = Arc::clone(&self.ctrl.obs);
                        let at = obs.journal.now_us();
                        let (trace, fresh) =
                            obs.traces
                                .begin(TraceKind::FailureScaleIn, None, target_world, at);
                        if fresh {
                            obs.journal.emit_at(
                                at,
                                EventKind::AdjustmentRequested {
                                    trace,
                                    kind: TraceKind::FailureScaleIn,
                                    seq: None,
                                    target_world,
                                },
                            );
                            obs.journal.emit_at(
                                at,
                                EventKind::PhaseStarted {
                                    trace,
                                    phase: AdjustmentPhase::Request,
                                },
                            );
                            // A failure-driven op has no controller
                            // round-trip and no joiners: steps ① and ②
                            // are zero-length at detection time, but the
                            // journal still carries the full bracket.
                            obs.traces.phase_end(AdjustmentPhase::Request, at);
                            obs.journal.emit_at(
                                at,
                                EventKind::PhaseEnded {
                                    trace,
                                    phase: AdjustmentPhase::Request,
                                },
                            );
                            obs.traces.phase_start(AdjustmentPhase::Report, at);
                            obs.journal.emit_at(
                                at,
                                EventKind::PhaseStarted {
                                    trace,
                                    phase: AdjustmentPhase::Report,
                                },
                            );
                        }
                        self.durable.pending = Some(PendingOp {
                            seq: None,
                            target: live,
                        });
                    }
                }
            }
        }
        self.persist_fenced();
        // The epoch machine tracks the loss too: a dead pending joiner is
        // forgotten, a dead warmup witness is pruned from every vote set,
        // and a mid-`Train` death below `min_members` aborts the epoch.
        self.with_machine(|m, now, j| m.member_left(w, now, j));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn steady_training_is_consistent() {
        let mut rt = ElasticRuntime::builder().workers(3).start().unwrap();
        rt.run_until_iteration(25);
        let _ = &mut rt;
        let report = rt.shutdown();
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
        let _ = a.shutdown();

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
        let _ = rt.shutdown();
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
        assert!(report.states_consistent());
        // All live workers agree on the serial cursor: iteration * batch.
        for v in snap.values().filter(|v| v.alive) {
            assert_eq!(v.data_cursor, v.iteration * 128);
        }
    }
}
