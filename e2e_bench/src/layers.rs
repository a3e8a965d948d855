//! Isolated timings of single layers, each taken by calling the layer's
//! public functions from here (nothing inside the program is
//! instrumented). They run while no job does (the fresh-process ones
//! before the first job, the rest after the last), so they never
//! compete with a job for the cores.

use std::hint::black_box;
use std::process::{Command, Stdio};
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

use elan::core::codec::{decode_frame, encode_frame};
use elan::core::messages::{MsgId, StateKind};
use elan::core::state::WorkerId;
use elan::rt::worker::{build_state_chunks, simulate_training, SnapshotAssembly};
use elan::rt::{Bus, CommGroup, EndpointId, Envelope, RtMsg};
use elan::topology::{ClusterSpec, GpuId, ReplicationPlanner};
use elan::{MemoryTransport, RuntimeConfig, SocketTransport, TuningProfile, WireFrame};

use crate::report::median;

/// Elements per input of the isolated measurements: enough that one
/// measurement does real work at every workload size.
const WORK_ELEMS: usize = 20_000_000;

/// Repetitions whose median a measurement reports.
const REPS: usize = 5;

/// Elements of the `StateChunk` the codec and relay timings move.
const CHUNK_ELEMS: usize = 1 << 16;

/// Time budget of each socket round-trip measurement.
const RTT_BUDGET: Duration = Duration::from_secs(1);

/// How long one reply may take before a round trip counts as lost.
const REPLY_TIMEOUT: Duration = Duration::from_secs(2);

fn secs(t: Instant) -> f64 {
    t.elapsed().as_secs_f64()
}

fn median_of(reps: usize, mut f: impl FnMut() -> f64) -> f64 {
    let xs: Vec<f64> = (0..reps).map(|_| f()).collect();
    median(&xs).unwrap_or(f64::NAN)
}

/// `simulate_training(1, n, elems)` divided by `n`, in µs: the
/// single-thread cost of one gradient plus one SGD step.
pub fn step_us(cfg: &RuntimeConfig) -> f64 {
    let n = (WORK_ELEMS / cfg.param_elems).max(4) as u64;
    median_of(REPS, || {
        let t = Instant::now();
        black_box(simulate_training(
            1,
            black_box(n),
            cfg.param_elems,
            cfg.learning_rate,
            cfg.total_batch,
        ));
        secs(t) * 1e6 / n as f64
    })
}

/// `build_state_chunks` over one full snapshot, and
/// `SnapshotAssembly::offer` of all its chunks, in ms.
pub fn snapshot_ms(cfg: &RuntimeConfig) -> (f64, f64) {
    let params: Vec<f32> = (0..cfg.param_elems).map(|i| i as f32).collect();
    let momentum = params.clone();
    let build = median_of(REPS, || {
        let t = Instant::now();
        black_box(build_state_chunks(
            black_box(&params),
            black_box(&momentum),
            cfg.replication_chunk_elems,
        ));
        secs(t) * 1e3
    });
    let chunks = build_state_chunks(&params, &momentum, cfg.replication_chunk_elems);
    let mut dst_p = vec![0.0f32; cfg.param_elems];
    let mut dst_m = vec![0.0f32; cfg.param_elems];
    let assemble = median_of(REPS, || {
        let t = Instant::now();
        let mut asm = SnapshotAssembly::new();
        let mut done = None;
        for (kind, index, total, offset, data) in &chunks {
            done = asm.offer(
                *kind, 10, 1280, *index, *total, *offset, data, &mut dst_p, &mut dst_m,
            );
        }
        black_box(done);
        secs(t) * 1e3
    });
    (build, assemble)
}

/// One isolated `CommGroup::allreduce` round at world 2 and the
/// workload's length, under the probed profile, in µs.
pub fn allreduce_us(cfg: &RuntimeConfig, profile: TuningProfile) -> f64 {
    let rounds = (WORK_ELEMS / cfg.param_elems).clamp(20, 20_000);
    median_of(3, || {
        let group = Arc::new(CommGroup::with_tuning(
            [WorkerId(0), WorkerId(1)],
            cfg.param_elems,
            profile,
            None,
        ));
        let t = Instant::now();
        thread::scope(|s| {
            for w in 0..2u32 {
                let group = Arc::clone(&group);
                let data = vec![w as f32 + 0.5; cfg.param_elems];
                s.spawn(move || {
                    for _ in 0..rounds {
                        black_box(group.allreduce(WorkerId(w), &data));
                    }
                });
            }
        });
        secs(t) * 1e6 / rounds as f64
    })
}

/// The control envelope every boundary sends: a worker's `Coordinate`.
fn ctrl_frame() -> WireFrame {
    WireFrame::Msg {
        to: EndpointId::Am,
        env: Envelope {
            id: MsgId((17u64 << 32) | 4242),
            from: EndpointId::Worker(WorkerId(1)),
            attempt: 1,
            body: ctrl_msg(),
        },
    }
}

fn ctrl_msg() -> RtMsg {
    RtMsg::Coordinate {
        worker: WorkerId(1),
        iteration: 4240,
    }
}

fn chunk_msg() -> RtMsg {
    RtMsg::StateChunk {
        kind: StateKind::Params,
        iteration: 4240,
        data_cursor: 4240 * 128,
        index: 3,
        total: 16,
        offset: 3 * CHUNK_ELEMS as u64,
        data: Arc::new((0..CHUNK_ELEMS).map(|i| i as f32 * 0.25).collect()),
    }
}

/// Codec costs: `(ctrl_encode_ns, ctrl_decode_ns, chunk_encode_mb_s,
/// chunk_decode_mb_s)`. Chunk rates count payload bytes (1 MB = 10⁶ B).
pub fn codec() -> (f64, f64, f64, f64) {
    const CTRL_OPS: u32 = 200_000;
    const CHUNK_OPS: u32 = 40;
    let ctrl = ctrl_frame();
    let ctrl_bytes = encode_frame(&ctrl);
    let enc_ns = median_of(REPS, || {
        let t = Instant::now();
        for _ in 0..CTRL_OPS {
            black_box(encode_frame(black_box(&ctrl)));
        }
        secs(t) * 1e9 / f64::from(CTRL_OPS)
    });
    let dec_ns = median_of(REPS, || {
        let t = Instant::now();
        for _ in 0..CTRL_OPS {
            let _ = black_box(decode_frame(black_box(&ctrl_bytes)));
        }
        secs(t) * 1e9 / f64::from(CTRL_OPS)
    });
    let chunk = WireFrame::Msg {
        to: EndpointId::Worker(WorkerId(3)),
        env: Envelope {
            id: MsgId((18u64 << 32) | 7),
            from: EndpointId::Worker(WorkerId(0)),
            attempt: 1,
            body: chunk_msg(),
        },
    };
    let chunk_bytes = encode_frame(&chunk);
    let payload_mb = (CHUNK_ELEMS * 4) as f64 * f64::from(CHUNK_OPS) / 1e6;
    let enc_mb_s = median_of(REPS, || {
        let t = Instant::now();
        for _ in 0..CHUNK_OPS {
            black_box(encode_frame(black_box(&chunk)));
        }
        payload_mb / secs(t)
    });
    let dec_mb_s = median_of(REPS, || {
        let t = Instant::now();
        for _ in 0..CHUNK_OPS {
            let _ = black_box(decode_frame(black_box(&chunk_bytes)));
        }
        payload_mb / secs(t)
    });
    (enc_ns, dec_ns, enc_mb_s, dec_mb_s)
}

/// Sends `msg` to `to` on `bus` until `ep` receives something: a fresh
/// socket route exists only once the peer's `Hello` has reached the hub.
/// One message is in flight at a time, and stragglers are drained, so no
/// late reply is mistaken for a timed one afterwards.
fn until_routed(bus: &Bus, to: EndpointId, msg: &RtMsg, ep: &elan::rt::Endpoint) -> bool {
    for _ in 0..20 {
        bus.send(to, msg.clone());
        if ep.recv_timeout(REPLY_TIMEOUT / 4).is_some() {
            while ep.recv_timeout(REPLY_TIMEOUT / 8).is_some() {}
            return true;
        }
    }
    false
}

/// Median round trip (µs) of one control envelope from a client
/// endpoint to an echoing endpoint behind `server` and back.
fn echo_rtt_us(server: Bus, client: Bus) -> f64 {
    let am = server.register(EndpointId::Am);
    let me = EndpointId::Worker(WorkerId(1));
    let ep = client.register(me);
    let echo = thread::spawn(move || {
        while let Some(env) = am.recv_timeout(REPLY_TIMEOUT) {
            if matches!(env.body, RtMsg::Leave { .. }) {
                break;
            }
            server.send(
                me,
                RtMsg::Proceed {
                    boundary: 4240,
                    term: 0,
                },
            );
        }
    });
    let mut rtts = Vec::new();
    if until_routed(&client, EndpointId::Am, &ctrl_msg(), &ep) {
        let start = Instant::now();
        while start.elapsed() < RTT_BUDGET && rtts.len() < 2_000 {
            let t = Instant::now();
            client.send(EndpointId::Am, ctrl_msg());
            if ep.recv_timeout(REPLY_TIMEOUT).is_none() {
                break;
            }
            rtts.push(secs(t) * 1e6);
        }
    }
    client.send(EndpointId::Am, RtMsg::Leave { term: 0 });
    let _ = echo.join();
    median(&rtts).unwrap_or(f64::NAN)
}

/// `memory.ctrl_rtt_us`: the echo round trip over `MemoryTransport`.
pub fn memory_rtt_us() -> f64 {
    let transport = Arc::new(MemoryTransport::new(
        None,
        None,
        elan::rt::TimeSource::real(),
    ));
    let bus = Bus::with_transport(transport);
    echo_rtt_us(bus.clone(), bus)
}

/// `(socket.ctrl_rtt_us, socket.chunk_relay_ms)` over TCP loopback: a
/// control envelope client → hub → client, and one 65,536-element
/// `StateChunk` relayed client → hub → client.
pub fn socket() -> Result<(f64, f64), String> {
    let hub = SocketTransport::listen("tcp:127.0.0.1:0").map_err(|e| e.to_string())?;
    let addr = hub.local_addr().to_string();
    let hub = Bus::with_transport(Arc::new(hub));
    let dial = || -> Result<Bus, String> {
        let t = SocketTransport::connect(&addr).map_err(|e| e.to_string())?;
        Ok(Bus::with_transport(Arc::new(t)))
    };
    let rtt = echo_rtt_us(hub.clone(), dial()?);

    let (a, b) = (dial()?, dial()?);
    let _src = a.register(EndpointId::Worker(WorkerId(2)));
    let dst_id = EndpointId::Worker(WorkerId(3));
    let dst = b.register(dst_id);
    let msg = chunk_msg();
    let mut relays = Vec::new();
    if until_routed(&a, dst_id, &msg, &dst) {
        for _ in 0..30 {
            let t = Instant::now();
            a.send(dst_id, msg.clone());
            if dst.recv_timeout(REPLY_TIMEOUT).is_none() {
                break;
            }
            relays.push(secs(t) * 1e3);
        }
    }
    Ok((rtt, median(&relays).unwrap_or(f64::NAN)))
}

/// `ReplicationPlanner::plan` for the 1→2 scale-out (worker 0 feeds the
/// joiner) on the runtime's 64-node planning cluster, in µs.
pub fn plan_us() -> f64 {
    const PLANS: u32 = 2_000;
    let topology = ClusterSpec::new(64, 2, 2, 2).build();
    let planner = ReplicationPlanner::new(&topology);
    median_of(REPS, || {
        let t = Instant::now();
        for _ in 0..PLANS {
            let _ = black_box(planner.plan(black_box(&[GpuId(0)]), black_box(&[GpuId(2)])));
        }
        secs(t) * 1e6 / f64::from(PLANS)
    })
}

/// Runs this benchmark's own binary with `args`; returns its standard
/// output when it exits 0.
pub fn run_self(args: &[&str]) -> Result<String, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let out = Command::new(exe)
        .args(args)
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| e.to_string())?;
    if !out.status.success() {
        return Err(format!("`{}` exited with {}", args.join(" "), out.status));
    }
    Ok(String::from_utf8_lossy(&out.stdout).into_owned())
}

/// `proc.spawn_ms`: exec plus exit of this binary in its no-op mode.
pub fn spawn_ms() -> Result<f64, String> {
    let mut xs = Vec::new();
    for _ in 0..9 {
        let t = Instant::now();
        run_self(&["noop"])?;
        xs.push(secs(t) * 1e3);
    }
    median(&xs).ok_or_else(|| "no spawn samples".into())
}

/// `comm.probe_ms`: `TuningProfile::probe` in a fresh process (the probe
/// is cached per process, so each sample needs its own).
pub fn probe_ms() -> Result<f64, String> {
    let mut xs = Vec::new();
    for _ in 0..3 {
        let out = run_self(&["probe"])?;
        let us: f64 = out
            .split_whitespace()
            .find_map(|kv| kv.strip_prefix("probe_us="))
            .and_then(|v| v.parse().ok())
            .ok_or("probe mode printed no probe_us")?;
        xs.push(us / 1e3);
    }
    median(&xs).ok_or_else(|| "no probe samples".into())
}
