//! Integration: the chaos-hardened live runtime (§V-D fault tolerance).
//!
//! Five failure regimes, end to end:
//!
//! 1. A **lossy bus** — every control-plane edge drops, delays, and
//!    duplicates messages, and the reliable-messaging layer (msg ids,
//!    acks, resend-on-timeout, dedup) must mask all of it while the job
//!    scales out live.
//! 2. An **AM crash mid-adjustment** — the agent-master dies between
//!    persisting its durable record and acting on it; the watchdog must
//!    elect a replacement that recovers the half-done adjustment from the
//!    replicated store and completes it.
//! 3. A **worker crash** — a worker silently stops heartbeating and
//!    responding; the AM's failure detector must notice and execute a
//!    failure-driven scale-in (evict from the allreduce group, rebuild the
//!    comm group, repartition) without deadlocking the survivors.
//! 4. A **network partition isolating the AM** — the old AM stays alive
//!    but unreachable; a successor is elected at a higher fencing term,
//!    and the old AM's first post-partition action must bounce off the
//!    store (`StaleTermRejected`) instead of split-braining the job.
//! 5. A **worker crash–restart–rejoin** — the crashed worker comes back,
//!    runs the `Rejoin` handshake, re-fetches state over the chunked
//!    replication path, and resumes *bit-identically* to a run that never
//!    crashed.
//!
//! Since the observability overhaul these tests assert on the **event
//! journal**: the exact sequence the runtime *says* happened (adjustment
//! requested → phases → completed, chaos injections, resends, elections,
//! dead-worker declarations) rather than polling runtime state and
//! inferring. The journal and trace spans ride the shutdown report, so
//! none of the assertions race shutdown.

//! Since the deterministic-time overhaul the whole suite runs on a
//! [`TimeSource::virtual_seeded`] clock: every heartbeat period, lease
//! TTL, retry timeout and watchdog poll elapses on *virtual* nanoseconds
//! that advance only when all runtime threads are quiescent, so a
//! scenario that "waits" tens of virtual seconds completes in
//! milliseconds of wall time — and replays bit-identically per seed.

use std::time::Duration;

use elan::core::obs::AdjustmentPhase;
use elan::core::protocol::EpochPhase;
use elan::core::state::WorkerId;
use elan::rt::{
    audit, shard_checksum, ChaosPolicy, CrashPoint, ElasticRuntime, EndpointId, EpochConfig,
    EventKind, RuntimeConfig, ShutdownReport, TimeSource, TraceKind,
};

/// Writes the run's retained event journal to
/// `target/chaos-journals/<name>.json` (one JSON object per line) so CI
/// can upload the forensic trail as an artifact when the suite fails.
/// Best-effort: a read-only target dir must not fail the test itself.
fn dump_journal(name: &str, report: &ShutdownReport) {
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("target")
        .join("chaos-journals");
    if std::fs::create_dir_all(&dir).is_err() {
        return;
    }
    let lines: Vec<String> = report.events.iter().map(|e| e.to_json()).collect();
    let _ = std::fs::write(dir.join(format!("{name}.json")), lines.join("\n") + "\n");
}

/// The issue's canonical chaos mix: 20% drop, 20% delay (plus a little
/// duplication so the dedup path is provably exercised every run).
fn lossy(seed: u64) -> ChaosPolicy {
    ChaosPolicy::new(seed)
        .drop(0.20)
        .delay(0.20, 3)
        .duplicate(0.10)
}

/// A config whose AM retry budget keeps the probability of a *spurious*
/// dead-worker declaration (all attempts dropped both ways) negligible at
/// 20% loss: 0.36^12 ≈ 5e-6 per tracked message.
fn lossy_cfg(n: u32) -> RuntimeConfig {
    let mut cfg = RuntimeConfig::small(n);
    cfg.retry_max_attempts = 12;
    cfg
}

/// Asserts the journal recorded a complete 5-phase pipeline for `kind`:
/// requested, every phase opened *and* closed in order, then completed —
/// the event-sequence formulation of "the adjustment worked".
fn assert_pipeline_events(report: &ShutdownReport, kind: TraceKind) {
    let trace = report
        .traces
        .iter()
        .find(|t| t.kind == kind && t.completed)
        .unwrap_or_else(|| panic!("no completed {kind:?} trace: {:?}", report.traces));
    assert!(trace.is_well_formed(), "trace not well-formed: {trace:?}");
    let id = trace.id;
    // Project this trace's pipeline events out of the journal, in order.
    let mut seq: Vec<String> = Vec::new();
    for e in &report.events {
        match &e.kind {
            EventKind::AdjustmentRequested { trace, .. } if *trace == id => {
                seq.push("requested".into());
            }
            EventKind::PhaseStarted { trace, phase } if *trace == id => {
                seq.push(format!("start:{}", phase.name()));
            }
            EventKind::PhaseEnded { trace, phase } if *trace == id => {
                seq.push(format!("end:{}", phase.name()));
            }
            EventKind::AdjustmentCompleted { trace, .. } if *trace == id => {
                seq.push("completed".into());
            }
            _ => {}
        }
    }
    assert_eq!(
        seq.first().map(String::as_str),
        Some("requested"),
        "{seq:?}"
    );
    assert_eq!(seq.last().map(String::as_str), Some("completed"), "{seq:?}");
    for phase in [
        AdjustmentPhase::Request,
        AdjustmentPhase::Report,
        AdjustmentPhase::Coordinate,
        AdjustmentPhase::Replicate,
        AdjustmentPhase::Adjust,
    ] {
        let start = format!("start:{}", phase.name());
        let end = format!("end:{}", phase.name());
        let si = seq.iter().position(|s| *s == start);
        let ei = seq.iter().rposition(|s| *s == end);
        match (si, ei) {
            (Some(s), Some(e)) => assert!(s <= e, "phase {phase:?} ends before it starts: {seq:?}"),
            _ => panic!("phase {phase:?} missing from sequence {seq:?}"),
        }
    }
}

#[test]
fn scale_out_completes_on_a_lossy_bus() {
    let mut rt = ElasticRuntime::builder()
        .config(lossy_cfg(2))
        .chaos(lossy(42))
        .time(TimeSource::virtual_seeded(42))
        .start()
        .unwrap();
    rt.run_until_iteration(10);
    rt.scale_out(2);
    assert_eq!(rt.members().len(), 4, "scale-out must complete");
    rt.run_until_iteration(30);
    let report = rt.shutdown();
    let verdict = audit(&report.events);
    assert!(verdict.is_safe(), "{verdict}");

    assert_eq!(report.final_world_size, 4);
    assert!(report.states_consistent(), "replicas diverged: {report:?}");
    assert_eq!(report.adjustments, 1);

    // The journal must tell the full story of the adjustment...
    assert_pipeline_events(&report, TraceKind::ScaleOut);
    // ...and of the chaos the reliability layer masked — not a vacuous
    // pass. Fault injection, resends, and dedup are all *recorded events*.
    let j = &report.journal;
    assert!(
        j.count("chaos_injected") > 0,
        "chaos injected nothing: {j:?}"
    );
    assert!(
        j.count("message_resent") > 0,
        "drops never forced a resend: {j:?}"
    );
    assert!(
        j.count("duplicate_suppressed") > 0,
        "dup'd deliveries never hit the dedup filter: {j:?}"
    );
    // Joiners streamed and applied snapshots through the replication path.
    assert!(j.count("replication_planned") >= 1, "{j:?}");
    assert!(
        j.count("snapshot_applied") >= 2,
        "two joiners must apply: {j:?}"
    );
    // The legacy counters still agree with the journal's view.
    let chaos = report.chaos.expect("job ran on a chaotic bus");
    assert!(chaos.dropped > 0, "chaos dropped nothing: {chaos:?}");
    assert!(chaos.delayed > 0, "chaos delayed nothing: {chaos:?}");
    assert!(chaos.duplicated > 0, "chaos duplicated nothing: {chaos:?}");
    assert!(report.metrics.resends > 0, "{:?}", report.metrics);
    assert!(report.metrics.duplicates > 0, "{:?}", report.metrics);
    // Give-ups can only stem from departed workers (a dropped ack on a
    // final `Leave` makes the AM — correctly — presume the peer dead);
    // they must never have cost the job a live member.
    assert!(
        report.metrics.give_ups <= u64::from(report.final_world_size),
        "unexpected give-ups: {:?}",
        report.metrics
    );
}

/// One seeded chaos scenario under virtual time; returns the full event
/// journal rendered line-by-line (timestamps included).
fn chaos_scenario_journal(seed: u64) -> Vec<String> {
    let mut rt = ElasticRuntime::builder()
        .config(lossy_cfg(2))
        .chaos(lossy(seed))
        .time(TimeSource::virtual_seeded(seed))
        .start()
        .unwrap();
    rt.run_until_iteration(8);
    rt.scale_out(1);
    assert_eq!(rt.members().len(), 3);
    rt.run_until_iteration(16);
    let report = rt.shutdown();
    let verdict = audit(&report.events);
    assert!(verdict.is_safe(), "{verdict}");
    assert!(report.states_consistent());
    assert_pipeline_events(&report, TraceKind::ScaleOut);
    report.events.iter().map(|e| format!("{e:?}")).collect()
}

#[test]
fn lossy_bus_is_deterministic_per_seed() {
    // Under the virtual clock determinism is total: the same seed drives
    // the same thread schedule, the same message order, the same chaos
    // fates — so two in-process runs must produce *byte-identical*
    // journals, virtual timestamps and all.
    let a = chaos_scenario_journal(7);
    let b = chaos_scenario_journal(7);
    assert!(!a.is_empty());
    assert_eq!(a, b, "same seed, divergent journals");
}

#[test]
fn different_seeds_reach_the_same_outcome_by_different_paths() {
    // Chaos decisions and the schedule differ per seed (each run is
    // internally asserted consistent); at least one pair of seeds should
    // actually exhibit a different history, or the sweep is vacuous.
    let journals: Vec<Vec<String>> = [7u64, 8, 9]
        .iter()
        .map(|&s| chaos_scenario_journal(s))
        .collect();
    assert!(
        journals.iter().any(|j| j != &journals[0]),
        "three seeds produced one identical history"
    );
}

#[test]
fn am_crash_mid_adjustment_is_recovered_by_watchdog() {
    let mut rt = ElasticRuntime::builder()
        .workers(2)
        .time(TimeSource::virtual_seeded(1))
        .start()
        .unwrap();
    rt.run_until_iteration(10);

    // The AM will die right after persisting `Transferring` — before any
    // transfer order goes out. The watchdog must elect a replacement that
    // finds the half-done adjustment in the store and finishes it.
    rt.arm_am_crash(CrashPoint::OnAdjustStart);
    rt.scale_out(2);
    assert_eq!(rt.members().len(), 4, "recovered AM must finish the op");

    rt.run_until_iteration(30);
    let report = rt.shutdown();
    let verdict = audit(&report.events);
    assert!(verdict.is_safe(), "{verdict}");
    assert_eq!(report.final_world_size, 4);
    assert!(report.states_consistent(), "recovery diverged: {report:?}");
    // The election is itself a journal event, and the trace the dead AM
    // opened must still close well-formed under its replacement.
    assert!(
        report.journal.count("am_elected") >= 1,
        "watchdog never fired: {:?}",
        report.journal
    );
    assert!(report.metrics.am_recoveries >= 1);
    assert_pipeline_events(&report, TraceKind::ScaleOut);
}

#[test]
fn am_crash_before_resume_is_recovered_by_watchdog() {
    let mut rt = ElasticRuntime::builder()
        .workers(2)
        .time(TimeSource::virtual_seeded(2))
        .start()
        .unwrap();
    rt.run_until_iteration(10);

    // Later crash point: state transfers are done and `Resuming` is
    // persisted, but the resume wave never goes out. The replacement must
    // re-establish the boundary (via AmReset) and replay the resume.
    rt.arm_am_crash(CrashPoint::OnResume);
    rt.scale_out(1);
    assert_eq!(rt.members().len(), 3);

    rt.run_until_iteration(30);
    let report = rt.shutdown();
    let verdict = audit(&report.events);
    assert!(verdict.is_safe(), "{verdict}");
    assert_eq!(report.final_world_size, 3);
    assert!(report.states_consistent(), "recovery diverged: {report:?}");
    assert!(report.journal.count("am_elected") >= 1);
    assert!(report.metrics.am_recoveries >= 1);
    assert_pipeline_events(&report, TraceKind::ScaleOut);
}

#[test]
fn am_crash_under_lossy_bus_still_recovers() {
    // The acceptance gauntlet: kill the AM mid-adjustment *while* the bus
    // is dropping a fifth of all traffic.
    let mut rt = ElasticRuntime::builder()
        .config(lossy_cfg(2))
        .chaos(lossy(11))
        .time(TimeSource::virtual_seeded(11))
        .start()
        .unwrap();
    rt.run_until_iteration(8);
    rt.arm_am_crash(CrashPoint::OnAdjustStart);
    rt.scale_out(1);
    assert_eq!(rt.members().len(), 3);
    rt.run_until_iteration(20);
    let report = rt.shutdown();
    let verdict = audit(&report.events);
    assert!(verdict.is_safe(), "{verdict}");
    assert!(report.states_consistent(), "diverged: {report:?}");
    assert!(report.journal.count("am_elected") >= 1);
    assert!(report.journal.count("message_resent") > 0);
    assert!(report.metrics.am_recoveries >= 1);
    assert!(report.metrics.resends > 0);
    assert_pipeline_events(&report, TraceKind::ScaleOut);
}

#[test]
fn worker_crash_triggers_failure_scale_in() {
    let rt = ElasticRuntime::builder()
        .workers(3)
        .time(TimeSource::virtual_seeded(3))
        .start()
        .unwrap();
    rt.run_until_iteration(10);
    let victim = rt.members()[2];

    // The victim goes silent: no goodbye, no final telemetry. Detection
    // has to come from missed heartbeats (or resend give-ups at the AM).
    rt.crash_worker(victim);
    assert!(
        rt.wait_for_members(2, Duration::from_secs(20)),
        "AM never scaled the job in around the dead worker"
    );
    assert!(!rt.members().contains(&victim));

    // The survivors keep training — the eviction must have unblocked any
    // allreduce the victim was absent from.
    rt.run_until_iteration(30);
    let report = rt.shutdown();
    let verdict = audit(&report.events);
    assert!(verdict.is_safe(), "{verdict}");
    assert_eq!(report.final_world_size, 2);
    assert!(report.states_consistent(), "survivors diverged: {report:?}");
    // The journal names the victim and records the failure-driven
    // adjustment as a first-class 5-phase pipeline of its own.
    assert!(
        report.events.iter().any(|e| matches!(
            e.kind,
            EventKind::WorkerDeclaredDead { worker, .. } if worker == victim
        )),
        "no worker_declared_dead event for {victim:?}"
    );
    assert_pipeline_events(&report, TraceKind::FailureScaleIn);
    assert!(
        report.metrics.failure_scale_ins >= 1,
        "failure path not taken: {:?}",
        report.metrics
    );
}

#[test]
fn worker_crash_during_lossy_run_is_survived() {
    let rt = ElasticRuntime::builder()
        .config(RuntimeConfig::small(3))
        .chaos(ChaosPolicy::new(23).drop(0.10).delay(0.10, 2))
        .time(TimeSource::virtual_seeded(23))
        .start()
        .unwrap();
    rt.run_until_iteration(8);
    let victim = rt.members()[0];
    rt.crash_worker(victim);
    assert!(
        rt.wait_for_members(2, Duration::from_secs(30)),
        "failure scale-in never completed under loss"
    );
    rt.run_until_iteration(20);
    let report = rt.shutdown();
    let verdict = audit(&report.events);
    assert!(verdict.is_safe(), "{verdict}");
    assert_eq!(report.final_world_size, 2);
    assert!(report.states_consistent());
    assert!(report.journal.count("worker_declared_dead") >= 1);
    assert!(report.metrics.failure_scale_ins >= 1);
    assert_pipeline_events(&report, TraceKind::FailureScaleIn);
}

#[test]
fn partitioned_am_is_fenced_and_the_adjustment_completes() {
    // The acceptance scenario for term fencing: cut the acting AM off
    // from *everyone* — workers, controller, and (by the isolated-AM
    // model) the replicated store — for longer than its lease. The
    // timeline inside the 500ms window is deterministic under the
    // virtual clock:
    //
    //   ~240ms  watchdog sees the lapsed lease, elects a successor,
    //           which CASes the fencing term up (term_bump #2);
    //   ~400ms  the *old* AM's failure detector fires (hb_timeout) on
    //           the silent workers; its persist-before-act probe hits
    //           the store, finds the higher term, journals
    //           `stale_term_rejected`, and abdicates without evicting
    //           anyone;
    //    500ms  the window heals; the controller's scale-out (re-issued
    //           at the app level all along) lands on the successor and
    //           completes under the new term.
    let mut rt = ElasticRuntime::builder()
        .config(RuntimeConfig::small(3))
        // No probabilistic fates: the policy exists purely so the chaos
        // engine is mounted and can script the partition window.
        .chaos(ChaosPolicy::new(17))
        .time(TimeSource::virtual_seeded(17))
        .start()
        .unwrap();
    rt.run_until_iteration(10);

    assert!(
        rt.partition(
            "am-isolated",
            vec![vec![EndpointId::Am]],
            Duration::from_millis(500),
        ),
        "partition scripting needs a chaos engine"
    );
    rt.scale_out(1);
    assert_eq!(rt.members().len(), 4, "adjustment must survive the cut");
    rt.run_until_iteration(30);
    let report = rt.shutdown();
    dump_journal("partitioned_am_is_fenced", &report);

    assert_eq!(report.final_world_size, 4);
    assert!(
        report.states_consistent(),
        "split brain diverged: {report:?}"
    );
    let j = &report.journal;
    assert!(
        j.count("partition_start") >= 1,
        "window never opened: {j:?}"
    );
    assert!(j.count("partition_heal") >= 1, "window never healed: {j:?}");
    assert!(j.count("am_elected") >= 1, "no successor elected: {j:?}");
    assert!(
        j.count("term_bump") >= 2,
        "successor never bumped the term: {j:?}"
    );
    assert!(
        j.count("stale_term_rejected") >= 1,
        "the old AM was never fenced: {j:?}"
    );
    // The adjustment's effects must carry the *new* term — the highest
    // bump in the journal, not the term the partitioned AM held.
    let max_term = report
        .events
        .iter()
        .filter_map(|e| match e.kind {
            EventKind::TermBump { term } => Some(term),
            _ => None,
        })
        .max()
        .expect("term_bump events exist");
    assert!(max_term >= 2);
    assert!(
        report.events.iter().any(|e| matches!(
            e.kind,
            EventKind::BoundaryReleased { term, .. } if term == max_term
        )),
        "no boundary released under the new term"
    );
    // And the journal as a whole must replay clean through the audit:
    // ≤1 AM acting per term, no post-fence effects.
    let verdict = audit(&report.events);
    assert!(verdict.is_safe(), "{verdict}");
    assert_pipeline_events(&report, TraceKind::ScaleOut);
    let chaos = report.chaos.expect("job ran with a chaos engine");
    assert!(chaos.partitioned > 0, "the cut dropped nothing: {chaos:?}");
}

#[test]
fn crashed_worker_rejoins_bit_identical() {
    let cfg = RuntimeConfig::small(3);
    let (elems, lr, batch) = (cfg.param_elems, cfg.learning_rate, cfg.total_batch);
    let mut rt = ElasticRuntime::builder()
        .config(cfg)
        .time(TimeSource::virtual_seeded(29))
        .start()
        .unwrap();
    rt.run_until_iteration(8);
    let victim = rt.members()[2];

    // The victim dies at its next coordination boundary — after the SGD
    // step, before sending `Coordinate` — so the survivors park and the
    // boundary hangs on it. The restart reaps the corpse and spawns a
    // `Rejoin` incarnation that presents the crash credentials, gets
    // re-admitted, and streams boundary state back over the chunked
    // replication path.
    rt.crash_worker_at(victim, 10);
    rt.restart_worker(victim);
    rt.run_until_iteration(24);
    let cp = rt.checkpoint();
    let report = rt.shutdown();
    dump_journal("crashed_worker_rejoins_bit_identical", &report);

    assert!(
        report.events.iter().any(|e| matches!(
            e.kind,
            EventKind::WorkerRejoin { worker, .. } if worker == victim
        )),
        "no worker_rejoin event for {victim:?}: {:?}",
        report.journal
    );
    // Rejoin must beat the failure detector: nobody was declared dead
    // and the job never shrank.
    assert_eq!(
        report.journal.count("worker_declared_dead"),
        0,
        "rejoin lost the race to the failure detector: {:?}",
        report.journal
    );
    assert_eq!(report.final_world_size, 3);
    assert!(report.states_consistent(), "rejoin diverged: {report:?}");
    // The rejoiner re-fetched state like any joiner: a planned
    // replication and an applied snapshot are journal facts.
    assert!(report.journal.count("replication_planned") >= 1);
    assert!(
        report.events.iter().any(|e| matches!(
            e.kind,
            EventKind::SnapshotApplied { worker, .. } if worker == victim
        )),
        "rejoiner never applied a snapshot: {:?}",
        report.journal
    );
    let verdict = audit(&report.events);
    assert!(verdict.is_safe(), "{verdict}");

    // The acceptance bar: the post-rejoin job is *bit-identical* to a
    // never-crashed run — checked against the single-threaded reference
    // replay of the same deterministic workload.
    let (ref_params, ref_momentum, ref_cursor) =
        elan::rt::worker::simulate_training(3, cp.iteration, elems, lr, batch);
    assert_eq!(
        cp.params.as_slice(),
        ref_params.as_slice(),
        "parameters diverged from the never-crashed replay at iteration {}",
        cp.iteration
    );
    assert_eq!(
        cp.momentum.as_slice(),
        ref_momentum.as_slice(),
        "momentum diverged from the never-crashed replay"
    );
    assert_eq!(cp.data_cursor, ref_cursor, "serial data cursor diverged");
}

// ---------------------------------------------------------------------------
// Epoch-based open membership (DESIGN.md §17)
// ---------------------------------------------------------------------------

/// Epoch config for the open-membership scenarios: a short join window,
/// three-boundary epochs, and two-witness digest audits.
fn open_epochs(seed: u64) -> EpochConfig {
    EpochConfig {
        min_members: 3,
        max_members: 8,
        join_window_ms: 200,
        train_boundaries: 3,
        witness_sample: 2,
        shard_count: 64,
        seed,
    }
}

/// Asserts every `JoinAdmitted` in the journal landed while the epoch
/// machine was in `Warmup` of the same epoch — the event-sequence
/// formulation of "admitted at an epoch boundary, never mid-epoch".
fn assert_admissions_at_boundaries(report: &ShutdownReport) {
    let mut current: Option<(u64, EpochPhase)> = None;
    for e in &report.events {
        match e.kind {
            EventKind::EpochPhaseEntered { epoch, phase, .. } => {
                current = Some((epoch, phase));
            }
            EventKind::JoinAdmitted { worker, epoch, .. } => {
                assert_eq!(
                    current,
                    Some((epoch, EpochPhase::Warmup)),
                    "{worker:?} admitted outside epoch {epoch}'s warmup (machine was at {current:?})"
                );
            }
            _ => {}
        }
    }
}

#[test]
fn open_join_is_admitted_at_an_epoch_boundary() {
    let mut rt = ElasticRuntime::builder()
        .workers(3)
        .time(TimeSource::virtual_seeded(31))
        .compute_us(500)
        .open_membership(open_epochs(31))
        .start()
        .unwrap();
    rt.run_until_iteration(10);
    // Two cold joiners announce themselves; nobody asked the controller.
    // The epoch machine defers them to the next join window, warms them
    // up over the chunked replication path, audits their digests with
    // two witnesses each, and folds them in at the boundary.
    let joiners = rt.open_join(2);
    assert!(
        rt.wait_for_members(5, Duration::from_secs(120)),
        "joiners were never admitted"
    );
    rt.run_until_iteration(40);
    let report = rt.shutdown();
    dump_journal("open_join_is_admitted_at_an_epoch_boundary", &report);

    assert_eq!(report.final_world_size, 5);
    assert!(report.states_consistent(), "join diverged: {report:?}");
    for w in &joiners {
        assert!(
            report.events.iter().any(|e| matches!(
                e.kind,
                EventKind::JoinAdmitted { worker, .. } if worker == *w
            )),
            "no join_admitted for {w:?}: {:?}",
            report.journal
        );
    }
    // Each admission was witnessed: two votes per joiner, minimum.
    assert!(
        report.journal.count("witness_vote_cast") >= 4,
        "missing witness votes: {:?}",
        report.journal
    );
    assert_admissions_at_boundaries(&report);
    let verdict = audit(&report.events);
    assert!(verdict.is_safe(), "{verdict}");
}

#[test]
fn partition_swallowed_join_is_admitted_at_the_next_boundary() {
    let mut rt = ElasticRuntime::builder()
        .workers(3)
        .chaos(ChaosPolicy::new(37)) // no scripted faults: engine only
        .time(TimeSource::virtual_seeded(37))
        .compute_us(500)
        .open_membership(open_epochs(37))
        .start()
        .unwrap();
    rt.run_until_iteration(10);
    // Cut the joiner's endpoint off from the whole job *before* it is
    // spawned, for long enough to swallow several join windows: its
    // announces vanish into the partition, so the AM has never heard of
    // it when those windows close.
    let predicted = WorkerId(3);
    assert!(
        rt.partition(
            "join-blackout",
            vec![vec![EndpointId::Worker(predicted)]],
            Duration::from_secs(5),
        ),
        "no chaos engine to script the partition"
    );
    let joiner = rt.open_join(1)[0];
    assert_eq!(joiner, predicted, "worker id allocation changed");
    // After the heal, the joiner's heartbeat-cadence re-announce lands,
    // and it is admitted at the *next* epoch boundary — never mid-epoch.
    assert!(
        rt.wait_for_members(4, Duration::from_secs(120)),
        "joiner was never admitted after the partition healed"
    );
    rt.run_until_iteration(60);
    let report = rt.shutdown();
    dump_journal(
        "partition_swallowed_join_is_admitted_at_the_next_boundary",
        &report,
    );

    assert_eq!(report.final_world_size, 4);
    assert!(report.states_consistent(), "join diverged: {report:?}");
    let admitted_epoch = report
        .events
        .iter()
        .find_map(|e| match e.kind {
            EventKind::JoinAdmitted { worker, epoch, .. } if worker == joiner => Some(epoch),
            _ => None,
        })
        .unwrap_or_else(|| panic!("no join_admitted for {joiner:?}: {:?}", report.journal));
    // Five virtual seconds of blackout outlast the genesis window by an
    // order of magnitude: the admission provably used a later epoch.
    assert!(
        admitted_epoch >= 1,
        "joiner admitted in the genesis window it was partitioned through"
    );
    assert_admissions_at_boundaries(&report);
    let verdict = audit(&report.events);
    assert!(verdict.is_safe(), "{verdict}");
}

#[test]
fn corrupt_warmup_digest_is_evicted_by_witness_vote() {
    let mut rt = ElasticRuntime::builder()
        .workers(3)
        .time(TimeSource::virtual_seeded(41))
        .compute_us(500)
        .open_membership(open_epochs(41))
        .start()
        .unwrap();
    rt.run_until_iteration(10);
    // Two joiners share a join window; one lies about its warmup digest.
    let honest = rt.open_join(1)[0];
    let corrupt = rt.open_join_corrupt();
    assert!(
        rt.wait_for_members(4, Duration::from_secs(120)),
        "honest joiner was never admitted"
    );
    // The liar is dismissed with a `Leave`; wait for its exit to land in
    // telemetry so the journal assertions below cannot race it.
    let deadline = Duration::from_secs(60);
    let t0 = rt.time().now();
    while rt.time().now().saturating_duration_since(t0) < elan::rt::time::std_to_sim(deadline) {
        if rt.snapshot().get(&corrupt).is_some_and(|v| !v.alive) {
            break;
        }
        rt.time().sleep(Duration::from_millis(2));
    }
    rt.run_until_iteration(40);
    let report = rt.shutdown();
    dump_journal("corrupt_warmup_digest_is_evicted_by_witness_vote", &report);

    assert_eq!(report.final_world_size, 4, "liar ended up a member");
    assert!(report.states_consistent(), "{report:?}");
    assert!(
        report.events.iter().any(|e| matches!(
            e.kind,
            EventKind::WitnessEvicted { worker, .. } if worker == corrupt
        )),
        "no witness_evicted for {corrupt:?}: {:?}",
        report.journal
    );
    assert!(
        report.events.iter().any(|e| matches!(
            e.kind,
            EventKind::JoinAdmitted { worker, .. } if worker == honest
        )),
        "no join_admitted for honest {honest:?}: {:?}",
        report.journal
    );
    // The evicted joiner's would-be shards were re-assigned over the
    // surviving membership by the seeded pure function: the journalled
    // checksum must match an independent recomputation.
    let (epoch, members, checksum) = report
        .events
        .iter()
        .rev()
        .find_map(|e| match e.kind {
            EventKind::ShardsReassigned {
                epoch,
                members,
                checksum,
            } => Some((epoch, members, checksum)),
            _ => None,
        })
        .expect("no shards_reassigned event");
    assert_eq!(members, 4, "last shard map not over the final membership");
    let survivors = [WorkerId(0), WorkerId(1), WorkerId(2), honest];
    assert_eq!(
        checksum,
        shard_checksum(41, epoch, 64, &survivors),
        "shard re-assignment diverged from the seeded pure function"
    );
    assert_admissions_at_boundaries(&report);
    let verdict = audit(&report.events);
    assert!(verdict.is_safe(), "{verdict}");
}
