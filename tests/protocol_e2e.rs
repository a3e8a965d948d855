//! Integration: the coordination protocol end to end on the live
//! multi-threaded runtime — a clean scale-out, the same shape under
//! message loss and an AM crash, and full-lifecycle churn.

use std::time::Duration;

use elan::rt::{audit, ChaosPolicy, CrashPoint, ElasticRuntime, RuntimeConfig, TimeSource};

#[test]
fn live_scale_out_keeps_existing_workers_training() {
    // 4 workers scale to 6; existing workers never stop.
    let mut rt = ElasticRuntime::builder().workers(4).start().unwrap();
    let founders = rt.members();
    rt.run_until_iteration(10);
    rt.scale_out(2);
    rt.run_until_iteration(30);
    let report = rt.shutdown();
    let verdict = audit(&report.events);
    assert!(verdict.is_safe(), "{verdict}");
    assert_eq!(report.final_world_size, 6);
    assert!(report.states_consistent());
    for w in founders {
        assert!(report.workers[&w].iteration >= 30, "{w:?} stopped early");
    }
}

/// A `from`-worker job on a bus losing `loss` of every control message,
/// under virtual time keyed to `seed`; the AM's retry budget keeps a
/// spurious dead-worker declaration negligible at these loss rates.
fn lossy_runtime(from: u32, loss: f64, seed: u64) -> ElasticRuntime {
    let mut cfg = RuntimeConfig::small(from);
    cfg.retry_max_attempts = 12;
    ElasticRuntime::builder()
        .config(cfg)
        .chaos(ChaosPolicy::new(seed).drop(loss))
        .time(TimeSource::virtual_seeded(seed))
        .start()
        .unwrap()
}

#[test]
fn protocol_survives_combined_loss_and_crash() {
    // 6 workers scale out to 10 on a bus dropping 15% of control
    // messages, and the AM dies right after persisting the adjustment.
    let mut rt = lossy_runtime(6, 0.15, 12);
    let founders = rt.members();
    rt.run_until_iteration(10);
    rt.arm_am_crash(CrashPoint::OnAdjustStart);
    rt.scale_out(4);
    assert_eq!(rt.members().len(), 10, "scale-out must complete");
    rt.run_until_iteration(40);
    let report = rt.shutdown();
    let verdict = audit(&report.events);
    assert!(verdict.is_safe(), "{verdict}");
    assert!(report.metrics.am_recoveries >= 1, "{:?}", report.metrics);
    assert!(report.metrics.resends > 0, "{:?}", report.metrics);
    assert_eq!(report.final_world_size, 10);
    assert!(report.states_consistent(), "diverged: {report:?}");
    for w in founders {
        assert!(report.workers[&w].iteration >= 40, "{w:?} stopped early");
    }
}

#[test]
fn pause_stays_bounded_under_faults() {
    // Even with loss, the per-worker stall is bounded by the adjustment
    // pause plus retry latencies — orders of magnitude under S&R's ~40s.
    let mut rt = lossy_runtime(4, 0.10, 25);
    rt.run_until_iteration(5);
    rt.scale_out(4);
    rt.run_until_iteration(25);
    let report = rt.shutdown();
    let verdict = audit(&report.events);
    assert!(verdict.is_safe(), "{verdict}");
    assert_eq!(report.final_world_size, 8);
    let stall = report.workers.values().map(|v| v.stalled).max().unwrap();
    assert!(stall < Duration::from_secs(5), "stall {stall:?} too large");
}

#[test]
fn live_runtime_full_lifecycle_stress() {
    let mut rt = ElasticRuntime::builder().workers(2).start().unwrap();
    for step in 1..=4u32 {
        rt.run_until_iteration(u64::from(step) * 10);
        match step % 3 {
            0 => rt.migrate(),
            1 => rt.scale_out(step),
            _ => {
                if rt.members().len() > 2 {
                    rt.scale_in(1);
                }
            }
        }
    }
    rt.run_until_iteration(60);
    let report = rt.shutdown();
    let verdict = audit(&report.events);
    assert!(verdict.is_safe(), "{verdict}");
    assert!(report.states_consistent());
    assert!(report.adjustments >= 3);
}

#[test]
fn scale_in_frees_threads_promptly() {
    let mut rt = ElasticRuntime::builder().workers(6).start().unwrap();
    rt.run_until_iteration(5);
    rt.scale_in(4);
    assert_eq!(rt.members().len(), 2);
    rt.run_until_iteration(20);
    let report = rt.shutdown();
    let verdict = audit(&report.events);
    assert!(verdict.is_safe(), "{verdict}");
    assert_eq!(report.final_world_size, 2);
    // Every worker that left did so cleanly (telemetry shows not-alive).
    let dead = report.workers.values().filter(|v| !v.alive).count();
    assert_eq!(dead, report.workers.len());
}

#[test]
fn worker_ids_past_the_planning_topology_still_replicate() {
    // Worker ids are never reused, so 520 scale-out/scale-in cycles
    // allocate ids well past the replication planner's 512 GPU slots.
    let mut rt = ElasticRuntime::builder()
        .workers(2)
        .time(TimeSource::virtual_seeded(512))
        .start()
        .unwrap();
    for _ in 0..520 {
        rt.scale_out(1);
        rt.scale_in(1);
    }
    // Sources below 512 replicating to joiners above it, then sources
    // above 512 replicating to a joiner above it.
    rt.migrate();
    rt.scale_out(1);
    assert!(
        rt.members().iter().all(|w| w.0 >= 512),
        "{:?}",
        rt.members()
    );
    rt.run_until_iteration(20);
    let report = rt.shutdown();
    let verdict = audit(&report.events);
    assert!(verdict.is_safe(), "{verdict}");
    assert_eq!(report.final_world_size, 3);
    assert_eq!(report.adjustments, 2 * 520 + 2);
    assert!(report.states_consistent(), "diverged: {report:?}");
}
