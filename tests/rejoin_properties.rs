//! Property-based tests for the `Rejoin` handshake's idempotency.
//!
//! The rejoin announce is client-driven: a restarted worker re-sends
//! `Rejoin` every heartbeat period until it holds state again, and the
//! chaos engine here *guarantees* duplication on top of that —
//! `duplicate(1.0)` copies every envelope and `delay` shuffles the
//! copies, so the AM provably sees the announce many times, out of
//! order, across arbitrary seeds. The property:
//!
//! - the worker is **admitted exactly once** (one `worker_rejoin` event),
//! - state is **transferred to it exactly once** (one `snapshot_applied`
//!   for the victim) — duplicated announces never double-issue a
//!   replication wave,
//! - and the run still converges to a consistent, full-strength job.
//!
//! Live runs spawn real threads, so the case count is deliberately
//! small; the seed reshuffles the duplicate/delay schedule, which is the
//! interesting degree of freedom. Each case rides its own
//! [`TimeSource::virtual_seeded`] clock and is wall-clock-free.

use proptest::prelude::*;

use elan::rt::{audit, ChaosPolicy, ElasticRuntime, EventKind, RuntimeConfig, TimeSource};

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 6,
        ..ProptestConfig::default()
    })]

    #[test]
    fn duplicated_rejoin_admits_exactly_once(seed in 0u64..1_000_000) {
        let mut cfg = RuntimeConfig::small(3);
        cfg.retry_max_attempts = 12;
        // Every message duplicated, a fifth of them delayed and thereby
        // reordered against their copies — the dedup filter and the AM's
        // rejoining-set idempotency both stay load-bearing all run.
        let chaos = ChaosPolicy::new(seed).duplicate(1.0).delay(0.20, 3);
        let mut rt = ElasticRuntime::builder()
            .config(cfg)
            .chaos(chaos)
            .time(TimeSource::virtual_seeded(seed))
            .start()
            .unwrap();
        rt.run_until_iteration(6);
        let victim = rt.members()[1];
        rt.crash_worker_at(victim, 10);
        rt.restart_worker(victim);
        rt.run_until_iteration(18);
        let report = rt.shutdown();
        let verdict = audit(&report.events);
        prop_assert!(verdict.is_safe(), "{}", verdict);

        let admissions = report
            .events
            .iter()
            .filter(|e| matches!(
                e.kind,
                EventKind::WorkerRejoin { worker, .. } if worker == victim
            ))
            .count();
        prop_assert_eq!(
            admissions, 1,
            "rejoin admitted {} times: {:?}", admissions, report.journal
        );
        let snapshots = report
            .events
            .iter()
            .filter(|e| matches!(
                e.kind,
                EventKind::SnapshotApplied { worker, .. } if worker == victim
            ))
            .count();
        prop_assert_eq!(
            snapshots, 1,
            "state streamed to the rejoiner {} times: {:?}", snapshots, report.journal
        );
        prop_assert_eq!(report.final_world_size, 3);
        prop_assert!(report.states_consistent(), "rejoin diverged");
    }
}
