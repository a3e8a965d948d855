//! One benchmark run: set-up samples, the live job's closed loop, the
//! output checks, and the metrics.

use std::collections::BTreeMap;
use std::thread;
use std::time::{Duration, Instant};

use elan::core::obs::AdjustmentPhase;
use elan::core::state::WorkerId;
use elan::rt::worker::{simulate_training, WorkerView};
use elan::rt::{AdjustmentTrace, RtMetricsSnapshot, TimeSource, TraceKind};
use elan::TuningProfile;

use crate::idle::IdleSpinners;
use crate::job::{Job, WorkerExit, Workload};
use crate::layers;
use crate::report::{median, vm_hwm_kb, Outcome};

/// The run is this many rounds. Each round times set-ups in fresh
/// processes, then starts a job, runs a batch of adjustment cycles and a
/// steady window on it for an eighth of `--seconds`, and stops it. Every
/// metric so samples the whole run, and a slow spell of the host lands
/// on all of them alike.
const ROUNDS: u32 = 8;

/// Set-ups timed per round, each in a fresh process; the run reports
/// the median of all of them. They are timed while no job runs: a job
/// keeps both cores busy, and a set-up timed beside it would time the
/// contention. Set-up time is a mixture: the tuning probe races one,
/// two or three candidate lengths, as its own timings fall out, and the
/// host adds a long tail when busy. So the median needs many samples,
/// spread over the run.
const SETUPS_PER_ROUND: usize = 8;

/// Training before anything is timed on a new job, so lazy set-up
/// (buffer pools, page faults, caches) is over.
const WARMUP: Duration = Duration::from_millis(500);

/// Share of what a round's job has left after warm-up that its batch of
/// cycles may take at most; the rest is its steady window.
const CYCLE_SHARE: f64 = 0.7;

/// Cycles per round at most. Where cycles are quick (`mem_ctrl`) this is
/// what ends a batch. (A job also survives only about 510 scale-outs:
/// worker ids are never reused and the replication planner places at
/// most 512 of them; see NOTES.md, known defects.)
const CYCLES_PER_ROUND: u32 = 60;

/// Shortest time from the start of one cycle to the start of the next.
/// Where cycles are quick, spacing them spreads their samples over more
/// of the host's changing states, and what the batch leaves of the
/// round goes to the steady window.
const CYCLE_SPACING: Duration = Duration::from_millis(20);

/// Shortest steady window: several boundary periods even on `tcp_proc`.
const MIN_WINDOW_S: f64 = 0.5;

/// Pause after a batch of cycles before its steady window opens,
/// so the newest worker's first iterations are not timed.
const SETTLE: Duration = Duration::from_millis(100);

/// A run that has not finished by then is abandoned with an error.
const HARD_LIMIT: Duration = Duration::from_secs(170);

/// Longest wait for the next coordination boundary.
const BOUNDARY_TIMEOUT: Duration = Duration::from_secs(10);

#[derive(Debug, Clone, Copy)]
pub struct Opts {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

/// What the steady windows at world 2 saw, summed over all of them.
#[derive(Default)]
struct Steady {
    /// Job iterations completed, and the wall time they took.
    iterations: f64,
    seconds: f64,
    /// In process: summed over members, time stalled at boundaries and
    /// boundaries passed.
    stall_us: f64,
    member_boundaries: f64,
    /// Registry histograms: rounds recorded and their summed µs.
    rounds: BTreeMap<String, (u64, u64)>,
    journal_events: u64,
}

impl Steady {
    /// Job iterations per second over every window so far.
    fn steps_per_s(&self) -> f64 {
        self.iterations / self.seconds
    }

    /// Mean µs of the rounds a registry histogram recorded.
    fn round_us(&self, name: &str) -> (f64, u64) {
        match self.rounds.get(name) {
            Some(&(n, sum)) if n > 0 => (sum as f64 / n as f64, n),
            _ => (0.0, 0),
        }
    }
}

fn stall_us(v: &WorkerView) -> f64 {
    v.stalled.as_secs_f64() * 1e6
}

/// Runs one steady window of about `secs` seconds with no adjustment
/// in flight. An iteration counts once the application master has
/// released the boundary after it, i.e. once every member has completed
/// it. The window runs from one released boundary to the last one
/// released before it closes, so it holds whole boundary periods only.
fn steady_window(job: &Job, secs: f64, acc: &mut Steady) -> Result<(), String> {
    let interval = job.workload.config().coordination_interval as f64;
    let counters = |job: &Job| {
        (
            job.rt.snapshot(),
            job.rt.obs().metrics(),
            job.rt.journal_summary().total,
        )
    };
    let stopped = || "the job stopped releasing boundaries".to_string();
    let (c0, t0) = job
        .clock
        .wait_past(job.clock.count(), BOUNDARY_TIMEOUT)
        .ok_or_else(stopped)?;
    let (v0, r0, j0) = counters(job);
    thread::sleep(Duration::from_secs_f64(secs));
    let (c1, t1) = job.clock.latest().ok_or_else(stopped)?;
    let (v1, r1, j1) = counters(job);
    if c1 <= c0 {
        return Err("the job made no progress in a steady window".into());
    }
    acc.iterations += (c1 - c0) as f64 * interval;
    acc.seconds += t1.duration_since(t0).as_secs_f64();
    for (id, b) in &v1 {
        if let Some(a) = v0.get(id) {
            acc.stall_us += stall_us(b) - stall_us(a);
            acc.member_boundaries += (b.iteration - a.iteration) as f64 / interval;
        }
    }
    for (name, b) in &r1.histograms {
        let a = r0.histograms.get(name).copied().unwrap_or_default();
        let e = acc.rounds.entry(name.clone()).or_default();
        e.0 += b.count - a.count;
        e.1 += b.sum - a.sum;
    }
    acc.journal_events += j1 - j0;
    Ok(())
}

/// Waits for two released coordination boundaries, then for `phase`
/// (in `[0, 1)`) of the period between them, so a request starts at a
/// chosen point of the boundary cycle rather than wherever the previous
/// operation happened to leave it. The period is measured at the
/// current world size, just before the request, so the point holds
/// however fast the host runs the job at that moment.
fn align(job: &Job, phase: f64) -> Result<(), String> {
    let stopped = "the job stopped releasing boundaries";
    let (count, first) = job
        .clock
        .wait_past(job.clock.count(), BOUNDARY_TIMEOUT)
        .ok_or(stopped)?;
    let (_, second) = job
        .clock
        .wait_past(count, BOUNDARY_TIMEOUT)
        .ok_or(stopped)?;
    let at = second + second.duration_since(first).mul_f64(phase);
    thread::sleep(at.saturating_duration_since(Instant::now()));
    Ok(())
}

/// Golden ratio conjugate: adding it modulo 1 spreads points evenly.
const GOLDEN: f64 = 0.618_033_988_749_894_9;

/// Request phases for one kind of operation: a golden-ratio sequence
/// from a seeded start, so however many samples a run takes, their
/// phases cover the boundary cycle evenly and the median does not hinge
/// on where a few random draws fell.
struct Phases(f64);

impl Phases {
    /// The sequence for operation `k` of a run with workload seed `seed`.
    fn seeded(seed: u64, k: u64) -> Self {
        Phases((seed.wrapping_add(k) as f64 * GOLDEN).fract())
    }

    fn next(&mut self) -> f64 {
        self.0 = (self.0 + GOLDEN).fract();
        self.0
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Op {
    ScaleIn,
    ScaleOut,
    Checkpoint,
}

/// Timings the closed loop collects.
#[derive(Default)]
struct Samples {
    scale_out_ms: Vec<f64>,
    scale_in_ms: Vec<f64>,
    checkpoint_ms: Vec<f64>,
    /// Every adjustment call in order, for matching against its trace.
    adjustments: Vec<(TraceKind, f64)>,
    /// In process: worker 0's stall during each adjustment call.
    survivor_stall_us: Vec<f64>,
}

/// Runs one scale-in, scale-out, checkpoint cycle, each request at its
/// next phase.
fn cycle(
    job: &mut Job,
    phases: &mut [Phases; 3],
    s: &mut Samples,
    out: &mut Outcome,
) -> Result<(), String> {
    for (i, op) in [Op::ScaleIn, Op::ScaleOut, Op::Checkpoint]
        .into_iter()
        .enumerate()
    {
        align(job, phases[i].next())?;
        let before = job.rt.snapshot().get(&WorkerId(0)).copied();
        let t = match op {
            Op::ScaleIn => job.scale_in(),
            Op::ScaleOut => job.scale_out(),
            Op::Checkpoint => job.checkpoint().0,
        };
        out.op(t.ok, || format!("{op:?} missed its target"));
        let kind = match op {
            Op::ScaleIn => {
                s.scale_in_ms.push(t.ms);
                TraceKind::ScaleIn
            }
            Op::ScaleOut => {
                s.scale_out_ms.push(t.ms);
                TraceKind::ScaleOut
            }
            Op::Checkpoint => {
                s.checkpoint_ms.push(t.ms);
                continue;
            }
        };
        s.adjustments.push((kind, t.ms));
        if let (Some(b), Some(a)) = (before, job.rt.snapshot().get(&WorkerId(0))) {
            s.survivor_stall_us.push(stall_us(a) - stall_us(&b));
        }
    }
    Ok(())
}

/// Times `n` set-ups, each in a fresh process, into `xs` (seconds).
fn setup_samples(workload: Workload, n: usize, xs: &mut Vec<f64>) -> Result<(), String> {
    for _ in 0..n {
        let line = layers::run_self(&["setup", "--workload", workload.name()])?;
        xs.push(
            line.trim()
                .strip_prefix("setup_s=")
                .and_then(|v| v.parse().ok())
                .ok_or("setup mode printed no setup_s")?,
        );
    }
    Ok(())
}

/// What a run collects over its rounds.
#[derive(Default)]
struct Collected {
    steady: Steady,
    samples: Samples,
    setups: Vec<f64>,
    /// Completed scale-in and scale-out traces of every job, in order.
    traces: Vec<AdjustmentTrace>,
    /// The reliable layer's and the bus's counters, summed over the jobs.
    metrics: RtMetricsSnapshot,
    /// What every worker process of every job reported.
    exits: Vec<WorkerExit>,
}

pub fn run(o: &Opts) -> Result<Outcome, String> {
    thread::spawn(|| {
        thread::sleep(HARD_LIMIT);
        eprintln!("elan-e2e-bench: run exceeded {HARD_LIMIT:?}; abandoning it");
        std::process::exit(3)
    });
    let mut out = Outcome::default();
    let cfg = o.workload.config();
    // Fresh processes are timed while no job runs, on idle cores: with
    // the spinners a job runs beside, the host takes time back from this
    // machine in slices longer than a whole set-up (a mem_ctrl set-up
    // takes about 2 ms on idle cores and over 10 ms beside spinners).
    if o.trace {
        out.push("comm.probe_ms", "ms", layers::probe_ms()?);
        out.push("proc.spawn_ms", "ms", layers::spawn_ms()?);
    }
    let mut phases = [0, 1, 2].map(|k| Phases::seeded(o.seed, k));
    let mut c = Collected::default();
    // Each job gets an equal share of `--seconds`; set-up samples come
    // on top, so the traced run's jobs run as long as the untraced run's.
    let round = Duration::from_secs_f64(o.seconds / f64::from(ROUNDS));
    for _ in 0..ROUNDS {
        if !o.trace {
            setup_samples(o.workload, SETUPS_PER_ROUND, &mut c.setups)?;
        }
        run_job(o, Instant::now() + round, &mut phases, &mut c, &mut out)?;
    }

    let coordinator_kb = vm_hwm_kb();
    let worker_kb = c.exits.iter().map(|e| e.vm_hwm_kb).max().unwrap_or(0);
    let peak_rss_mb = (coordinator_kb + u64::from(cfg.initial_workers) * worker_kb) as f64 / 1024.0;
    let profile = TuningProfile::for_time(&TimeSource::real());
    let s = &c.samples;
    eprintln!(
        "elan-e2e-bench: {} seed {} flat_max_len {} samples out/in/ckpt {}/{}/{}",
        o.workload.name(),
        o.seed,
        profile.flat_max_len,
        s.scale_out_ms.len(),
        s.scale_in_ms.len(),
        s.checkpoint_ms.len()
    );

    let med = |xs: &[f64]| median(xs).unwrap_or(f64::NAN);
    if !o.trace {
        out.push("setup_s", "s", med(&c.setups));
        out.push("steps_per_s", "1/s", c.steady.steps_per_s());
        out.push("scale_out_ms", "ms", med(&s.scale_out_ms));
        out.push("scale_in_ms", "ms", med(&s.scale_in_ms));
        out.push("checkpoint_ms", "ms", med(&s.checkpoint_ms));
        out.push("peak_rss_mb", "MB", peak_rss_mb);
        return Ok(out);
    }
    per_layer(&mut out, o, &c, profile)?;
    Ok(out)
}

/// One round's job: starts it, takes the parity checkpoint, warms up,
/// runs a batch of cycles and then a steady window until `end`, stops
/// the job and checks its outputs.
fn run_job(
    o: &Opts,
    end: Instant,
    phases: &mut [Phases; 3],
    c: &mut Collected,
    out: &mut Outcome,
) -> Result<(), String> {
    let cfg = o.workload.config();
    let spinners = IdleSpinners::start();
    let (mut job, _) = Job::start(o.workload)?;
    // The parity checkpoint, taken before any adjustment.
    let (t, parity) = job.checkpoint();
    out.op(t.ok, || {
        format!("parity checkpoint: cursor {}", parity.data_cursor)
    });
    thread::sleep(WARMUP);

    let start = Instant::now();
    let until = start + end.saturating_duration_since(start).mul_f64(CYCLE_SHARE);
    let scale_outs = c.samples.scale_out_ms.len();
    for k in 0..CYCLES_PER_ROUND {
        if Instant::now() >= until {
            break;
        }
        thread::sleep((start + CYCLE_SPACING * k).saturating_duration_since(Instant::now()));
        cycle(&mut job, phases, &mut c.samples, out)?;
    }
    let scale_outs = c.samples.scale_out_ms.len() - scale_outs;
    thread::sleep(SETTLE);
    let left = end.saturating_duration_since(Instant::now());
    steady_window(&job, left.as_secs_f64().max(MIN_WINDOW_S), &mut c.steady)?;

    let (report, exits) = job.shutdown();
    drop(spinners);

    // Output checks.
    if o.workload.remote() {
        // Remote workers each run a solo allreduce group, so their
        // parameters are not compared (see NOTES.md, known defects).
        let spawned = cfg.initial_workers as usize + scale_outs;
        out.check(exits.len() == spawned, || {
            format!("{} of {spawned} worker processes reported", exits.len())
        });
        for e in exits.iter().filter(|e| !e.ok) {
            out.check(false, || {
                format!("worker process {} did not exit cleanly", e.id)
            });
        }
    } else {
        let (params, momentum, cursor) = simulate_training(
            2,
            parity.iteration,
            cfg.param_elems,
            cfg.learning_rate,
            cfg.total_batch,
        );
        let same = |a: &[f32], b: &[f32]| a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits());
        out.check(
            same(&parity.params, &params)
                && same(&parity.momentum, &momentum)
                && parity.data_cursor == cursor,
            || {
                format!(
                    "checkpoint at iteration {} differs from a fixed-world replay",
                    parity.iteration
                )
            },
        );
        out.check(report.states_consistent(), || {
            "workers ended with different parameters".into()
        });
    }

    c.traces.extend(
        report
            .traces
            .into_iter()
            .filter(|t| t.completed && matches!(t.kind, TraceKind::ScaleIn | TraceKind::ScaleOut)),
    );
    let (m, sum) = (report.metrics, &mut c.metrics);
    sum.resends += m.resends;
    sum.duplicates += m.duplicates;
    sum.give_ups += m.give_ups;
    sum.state_chunks += m.state_chunks;
    sum.dead_letters += m.dead_letters;
    c.exits.extend(exits);
    Ok(())
}

fn per_layer(
    out: &mut Outcome,
    o: &Opts,
    c: &Collected,
    profile: TuningProfile,
) -> Result<(), String> {
    let (steady, s, traces) = (&c.steady, &c.samples, &c.traces);
    let cfg = o.workload.config();
    let interval = cfg.coordination_interval as f64;
    let steps_per_s = steady.steps_per_s();
    let local = !o.workload.remote();
    let med = |xs: &[f64]| median(xs).unwrap_or(f64::NAN);

    // runtime: the AM's five phases, per adjustment kind, and what the
    // phases leave of each call's wall time.
    out.check(traces.len() == s.adjustments.len(), || {
        format!(
            "{} adjustment traces for {} adjustments",
            traces.len(),
            s.adjustments.len()
        )
    });
    for (kind, tag) in [(TraceKind::ScaleOut, "out"), (TraceKind::ScaleIn, "in")] {
        for phase in AdjustmentPhase::ALL {
            let xs: Vec<f64> = traces
                .iter()
                .filter(|t| t.kind == kind)
                .map(|t| t.phase_us(phase) as f64 / 1e3)
                .collect();
            out.push(format!("am.{tag}.{}_ms", phase.name()), "ms", med(&xs));
        }
    }
    let unattributed: Vec<f64> = traces
        .iter()
        .zip(&s.adjustments)
        .filter(|(t, (kind, _))| t.kind == *kind)
        .map(|(t, (_, wall_ms))| wall_ms - phase_union_us(t) / 1e3)
        .collect();
    out.push("am.unattributed_ms", "ms", med(&unattributed));

    // worker: stall at boundaries in the steady windows (in process) or
    // over founding worker 1's lives, until the first scale-in of each
    // job (worker processes).
    let lives = |id: u32| c.exits.iter().filter(move |e| e.id == id);
    let stall_per_boundary_us = if local {
        steady.stall_us / steady.member_boundaries
    } else {
        let stalled: u64 = lives(1).map(|e| e.stalled_us).sum();
        let iterations: u64 = lives(1).map(|e| e.iteration).sum();
        stalled as f64 / (iterations as f64 / interval)
    };
    let stall_per_adjust_ms = if local {
        med(&s.survivor_stall_us) / 1e3
    } else {
        // Worker 0 survives every adjustment and serves every checkpoint
        // of its job; its stall beyond the boundary baseline is shared
        // out over those operations.
        let ops = (s.adjustments.len() + s.checkpoint_ms.len()) as f64 + f64::from(ROUNDS);
        let beyond: f64 = lives(0)
            .map(|e| e.stalled_us as f64 - e.iteration as f64 / interval * stall_per_boundary_us)
            .sum();
        beyond / ops / 1e3
    };
    let step_us = layers::step_us(&cfg);
    let (build_ms, assemble_ms) = layers::snapshot_ms(&cfg);
    out.push("worker.step_us", "us", step_us);
    out.push("worker.stall_per_boundary_us", "us", stall_per_boundary_us);
    out.push(
        "worker.coord_overhead_permille",
        "permille",
        stall_per_boundary_us * 1e-6 * steps_per_s / interval * 1e3,
    );
    out.push("worker.stall_per_adjust_ms", "ms", stall_per_adjust_ms);
    out.push("worker.build_chunks_ms", "ms", build_ms);
    out.push("worker.assemble_ms", "ms", assemble_ms);

    // comm: the job's rounds in the steady windows, then isolated costs.
    let (flat_us, flat_n) = steady.round_us("allreduce.flat.round_us");
    let (chunked_us, chunked_n) = steady.round_us("allreduce.chunked.round_us");
    let (_, hier_n) = steady.round_us("allreduce.hier.round_us");
    out.push("comm.flat.round_us", "us", flat_us);
    out.push("comm.chunked.round_us", "us", chunked_us);
    out.push("comm.rounds", "count", (flat_n + chunked_n + hier_n) as f64);
    out.push(
        "comm.allreduce_us",
        "us",
        layers::allreduce_us(&cfg, profile),
    );
    out.push("comm.flat_max_len", "count", profile.flat_max_len as f64);

    // reliable / bus, over the whole run.
    let m = c.metrics;
    out.push("reliable.resends", "count", m.resends as f64);
    out.push("reliable.duplicates", "count", m.duplicates as f64);
    out.push("reliable.give_ups", "count", m.give_ups as f64);
    out.push("reliable.state_chunks", "count", m.state_chunks as f64);
    out.push("bus.dead_letters", "count", m.dead_letters as f64);

    let (enc_ns, dec_ns, enc_mb_s, dec_mb_s) = layers::codec();
    out.push("codec.ctrl_encode_ns", "ns", enc_ns);
    out.push("codec.ctrl_decode_ns", "ns", dec_ns);
    out.push("codec.chunk_encode_mb_s", "MB/s", enc_mb_s);
    out.push("codec.chunk_decode_mb_s", "MB/s", dec_mb_s);

    let (rtt_us, relay_ms) = layers::socket()?;
    out.push("socket.ctrl_rtt_us", "us", rtt_us);
    out.push("socket.chunk_relay_ms", "ms", relay_ms);
    out.push("memory.ctrl_rtt_us", "us", layers::memory_rtt_us());
    out.push("planner.plan_us", "us", layers::plan_us());
    out.push(
        "obs.events_per_step",
        "count",
        steady.journal_events as f64 / steady.iterations,
    );

    // The step closes: what the job's mean round, the single-thread step
    // and the per-step boundary stall leave of the measured step time.
    let rounds = flat_n + chunked_n;
    let round_us = if rounds == 0 {
        0.0
    } else {
        (flat_us * flat_n as f64 + chunked_us * chunked_n as f64) / rounds as f64
    };
    out.push(
        "step.unattributed_us",
        "us",
        1e6 / steps_per_s - (round_us + step_us + stall_per_boundary_us / interval),
    );

    // The traced run's own end-to-end figures: against the untraced run
    // of the same workload and seed they give the tracing overhead.
    out.push("traced.steps_per_s", "1/s", steps_per_s);
    out.push("traced.scale_out_ms", "ms", med(&s.scale_out_ms));
    out.push("traced.scale_in_ms", "ms", med(&s.scale_in_ms));
    out.push("traced.checkpoint_ms", "ms", med(&s.checkpoint_ms));
    Ok(())
}

/// µs covered by at least one of a trace's phase windows. Phases may
/// overlap, so this is their union, not their sum.
fn phase_union_us(t: &AdjustmentTrace) -> f64 {
    let mut windows: Vec<_> = AdjustmentPhase::ALL
        .iter()
        .filter_map(|&p| t.phase(p))
        .map(|w| (w.start_us, w.end_us))
        .collect();
    windows.sort_unstable();
    let (mut covered, mut reach) = (0u64, 0u64);
    for (start, end) in windows {
        let start = start.max(reach);
        if end > start {
            covered += end - start;
            reach = end;
        }
    }
    covered as f64
}
