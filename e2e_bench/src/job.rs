//! The live elastic job under test, driven through the public facade.
//!
//! A [`Job`] is one running `ElasticRuntime` plus, in `tcp_proc`, the
//! worker processes it coordinates. Every operation the closed loop
//! issues goes through here, which times it and checks its outcome.

use std::io::Read;
use std::process::{Child, ChildStdin, Command, Stdio};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::time::{Duration, Instant};

use elan::core::state::WorkerId;
use elan::rt::CheckpointSnapshot;
use elan::{
    ElasticRuntime, Event, EventKind, EventSink, RuntimeConfig, SocketTransport, Transport,
};

/// How long a worker process may take to exit once the job told it to.
const REAP_TIMEOUT: Duration = Duration::from_secs(30);

/// How long the job may take to release its first coordination boundary.
const FIRST_BOUNDARY_TIMEOUT: Duration = Duration::from_secs(60);

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// In process, 1,024-element parameters: the flat allreduce path and
    /// the control plane set the pace.
    MemCtrl,
    /// In process, 1,048,576-element parameters: the chunked allreduce
    /// path, and 8 MiB of state per scale-out and checkpoint.
    MemBulk,
    /// One coordinator plus worker processes over TCP loopback.
    TcpProc,
}

impl Workload {
    pub fn parse(name: &str) -> Option<Workload> {
        match name {
            "mem_ctrl" => Some(Workload::MemCtrl),
            "mem_bulk" => Some(Workload::MemBulk),
            "tcp_proc" => Some(Workload::TcpProc),
            _ => None,
        }
    }

    pub fn name(self) -> &'static str {
        match self {
            Workload::MemCtrl => "mem_ctrl",
            Workload::MemBulk => "mem_bulk",
            Workload::TcpProc => "tcp_proc",
        }
    }

    pub fn remote(self) -> bool {
        self == Workload::TcpProc
    }

    /// The job's configuration: world 2, coordination interval 5, and the
    /// workload's parameter and replication-chunk sizes.
    pub fn config(self) -> RuntimeConfig {
        let mut cfg = RuntimeConfig::small(2);
        cfg.coordination_interval = 5;
        match self {
            Workload::MemCtrl => {}
            Workload::MemBulk => {
                cfg.param_elems = 1 << 20;
                cfg.replication_chunk_elems = 1 << 16;
            }
            Workload::TcpProc => {
                cfg.param_elems = 1 << 18;
                cfg.replication_chunk_elems = 1 << 16;
            }
        }
        cfg
    }
}

#[derive(Debug, Default)]
struct ClockState {
    /// Boundaries released so far, and when the latest was.
    count: u64,
    last: Option<Instant>,
}

/// An event sink that stamps every released coordination boundary with
/// the wall clock, so the benchmark sees job progress exactly when the
/// application master does, in process and across processes alike.
#[derive(Debug)]
pub struct BoundaryClock {
    state: Mutex<ClockState>,
    released: Condvar,
}

impl EventSink for BoundaryClock {
    fn record(&self, event: &Event) {
        if matches!(event.kind, EventKind::BoundaryReleased { .. }) {
            let now = Instant::now();
            let mut s = self.lock();
            s.count += 1;
            s.last = Some(now);
            self.released.notify_all();
        }
    }
}

impl BoundaryClock {
    fn new() -> Self {
        BoundaryClock {
            state: Mutex::new(ClockState::default()),
            released: Condvar::new(),
        }
    }

    fn lock(&self) -> MutexGuard<'_, ClockState> {
        // Every update leaves the state whole, so a panic elsewhere
        // cannot leave it half-written.
        self.state.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Boundaries released so far.
    pub fn count(&self) -> u64 {
        self.lock().count
    }

    /// Boundaries released so far and the instant of the latest release.
    pub fn latest(&self) -> Option<(u64, Instant)> {
        let s = self.lock();
        s.last.map(|at| (s.count, at))
    }

    /// Blocks until more than `count` boundaries have been released;
    /// returns the new count and its release instant.
    pub fn wait_past(&self, count: u64, timeout: Duration) -> Option<(u64, Instant)> {
        let deadline = Instant::now() + timeout;
        let mut s = self.lock();
        while s.count <= count {
            let left = deadline.checked_duration_since(Instant::now())?;
            s = match self.released.wait_timeout(s, left) {
                Ok((guard, _)) => guard,
                Err(e) => e.into_inner().0,
            };
        }
        s.last.map(|at| (s.count, at))
    }
}

/// What a worker process reported when it exited.
#[derive(Debug, Clone, Copy, Default)]
pub struct WorkerExit {
    pub id: u32,
    /// True when the process exited with status 0 and printed its report.
    pub ok: bool,
    pub vm_hwm_kb: u64,
    pub iteration: u64,
    pub stalled_us: u64,
}

/// The line a worker process prints when it leaves the job.
pub fn worker_exit_line(id: u32, vm_hwm_kb: u64, iteration: u64, stalled_us: u64) -> String {
    format!(
        "worker-exit id={id} vm_hwm_kb={vm_hwm_kb} iteration={iteration} stalled_us={stalled_us}"
    )
}

fn parse_worker_exit(id: u32, stdout: &str) -> Option<WorkerExit> {
    let line = stdout.lines().find(|l| l.starts_with("worker-exit "))?;
    let field = |key: &str| -> Option<u64> {
        line.split_whitespace()
            .find_map(|kv| kv.strip_prefix(key)?.strip_prefix('='))
            .and_then(|v| v.parse().ok())
    };
    Some(WorkerExit {
        id,
        ok: true,
        vm_hwm_kb: field("vm_hwm_kb")?,
        iteration: field("iteration")?,
        stalled_us: field("stalled_us")?,
    })
}

/// A worker process. Its stdin stays open for as long as this handle
/// lives; the worker exits on its own if the pipe closes, so no worker
/// outlives a benchmark that died.
struct WorkerProc {
    id: u32,
    child: Child,
    _lifeline: Option<ChildStdin>,
}

/// The worker processes of a `tcp_proc` job.
struct Fleet {
    addr: String,
    workload: Workload,
    procs: Vec<WorkerProc>,
}

impl Fleet {
    fn spawn(&mut self, id: u32, role: &str) -> std::io::Result<()> {
        let exe = std::env::current_exe()?;
        let mut child = Command::new(exe)
            .args(["worker", "--connect", &self.addr, "--id", &id.to_string()])
            .args(["--role", role, "--workload", self.workload.name()])
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn()?;
        let lifeline = child.stdin.take();
        self.procs.push(WorkerProc {
            id,
            child,
            _lifeline: lifeline,
        });
        Ok(())
    }

    /// Waits for worker `id` to exit and collects its report.
    fn reap(&mut self, id: u32) -> WorkerExit {
        let Some(pos) = self.procs.iter().position(|p| p.id == id) else {
            return WorkerExit {
                id,
                ..WorkerExit::default()
            };
        };
        let mut p = self.procs.swap_remove(pos);
        let deadline = Instant::now() + REAP_TIMEOUT;
        let status = loop {
            match p.child.try_wait() {
                Ok(Some(status)) => break Some(status),
                Ok(None) if Instant::now() < deadline => thread_sleep_ms(2),
                _ => {
                    let _ = p.child.kill();
                    let _ = p.child.wait();
                    break None;
                }
            }
        };
        let mut out = String::new();
        if let Some(mut stdout) = p.child.stdout.take() {
            let _ = stdout.read_to_string(&mut out);
        }
        match (status, parse_worker_exit(id, &out)) {
            (Some(s), Some(exit)) if s.success() => exit,
            (_, exit) => WorkerExit {
                ok: false,
                ..exit.unwrap_or(WorkerExit {
                    id,
                    ..WorkerExit::default()
                })
            },
        }
    }

    fn reap_all(&mut self) -> Vec<WorkerExit> {
        let ids: Vec<u32> = self.procs.iter().map(|p| p.id).collect();
        ids.into_iter().map(|id| self.reap(id)).collect()
    }
}

impl Drop for Fleet {
    fn drop(&mut self) {
        for p in &mut self.procs {
            let _ = p.child.kill();
            let _ = p.child.wait();
        }
    }
}

fn thread_sleep_ms(ms: u64) {
    std::thread::sleep(Duration::from_millis(ms));
}

/// One timed operation of the closed loop.
#[derive(Debug, Clone, Copy)]
pub struct Timed {
    pub ms: f64,
    /// The operation reached its target (membership, or a consistent
    /// checkpoint).
    pub ok: bool,
}

/// The running job.
pub struct Job {
    pub rt: ElasticRuntime,
    pub clock: Arc<BoundaryClock>,
    pub workload: Workload,
    fleet: Option<Fleet>,
    next_worker: u32,
    /// Reports of worker processes that have exited so far.
    exits: Vec<WorkerExit>,
}

impl Job {
    /// Launches the job and waits for its first coordination boundary.
    /// Returns the job and its set-up time: from before the runtime (and
    /// any worker process) starts until the first boundary is released.
    pub fn start(workload: Workload) -> Result<(Job, Duration), String> {
        let t0 = Instant::now();
        let cfg = workload.config();
        let clock = Arc::new(BoundaryClock::new());
        let builder = ElasticRuntime::builder()
            .config(cfg)
            .sink(Arc::clone(&clock) as Arc<dyn EventSink>);
        let (rt, fleet) = if workload.remote() {
            let transport = SocketTransport::listen("tcp:127.0.0.1:0")
                .map_err(|e| format!("listen on loopback: {e}"))?;
            let addr = transport.local_addr().to_string();
            let transport: Arc<dyn Transport> = Arc::new(transport);
            let rt = builder
                .transport(transport)
                .remote_workers(true)
                .start()
                .map_err(|e| e.to_string())?;
            let mut fleet = Fleet {
                addr,
                workload,
                procs: Vec::new(),
            };
            for id in 0..cfg.initial_workers {
                fleet
                    .spawn(id, "founding")
                    .map_err(|e| format!("spawn worker process: {e}"))?;
            }
            (rt, Some(fleet))
        } else {
            (builder.start().map_err(|e| e.to_string())?, None)
        };
        let job = Job {
            rt,
            clock,
            workload,
            fleet,
            next_worker: cfg.initial_workers,
            exits: Vec::new(),
        };
        let (_, first) = job
            .clock
            .wait_past(0, FIRST_BOUNDARY_TIMEOUT)
            .ok_or("the job released no coordination boundary")?;
        Ok((job, first.duration_since(t0)))
    }

    /// `scale_out(1)`. In `tcp_proc` the clock starts when the joiner
    /// process is spawned.
    pub fn scale_out(&mut self) -> Timed {
        let id = self.next_worker;
        self.next_worker += 1;
        let mut expected = self.rt.members();
        expected.push(WorkerId(id));
        let t0 = Instant::now();
        if let Some(fleet) = &mut self.fleet {
            if fleet.spawn(id, "joining").is_err() {
                return Timed { ms: 0.0, ok: false };
            }
        }
        self.rt.scale_out(1);
        let ms = t0.elapsed().as_secs_f64() * 1e3;
        Timed {
            ms,
            ok: self.rt.members() == expected,
        }
    }

    /// `scale_in(1)`; a departing worker process is reaped afterwards,
    /// outside the timed window.
    pub fn scale_in(&mut self) -> Timed {
        let mut expected = self.rt.members();
        let leaving = expected.pop();
        let t0 = Instant::now();
        self.rt.scale_in(1);
        let ms = t0.elapsed().as_secs_f64() * 1e3;
        let ok = self.rt.members() == expected;
        if let (Some(fleet), Some(w)) = (&mut self.fleet, leaving) {
            self.exits.push(fleet.reap(w.0));
        }
        Timed { ms, ok }
    }

    /// A live `checkpoint()`; it must satisfy the serial-loader invariant
    /// `data_cursor == iteration × total_batch`.
    pub fn checkpoint(&mut self) -> (Timed, CheckpointSnapshot) {
        let t0 = Instant::now();
        let snap = self.rt.checkpoint();
        let ms = t0.elapsed().as_secs_f64() * 1e3;
        let batch = u64::from(self.workload.config().total_batch);
        let ok = snap.data_cursor == snap.iteration * batch;
        (Timed { ms, ok }, snap)
    }

    /// Stops the job, then waits for every worker process.
    pub fn shutdown(mut self) -> (elan::ShutdownReport, Vec<WorkerExit>) {
        let report = self.rt.shutdown();
        let mut exits = std::mem::take(&mut self.exits);
        if let Some(fleet) = &mut self.fleet {
            exits.extend(fleet.reap_all());
        }
        (report, exits)
    }
}
