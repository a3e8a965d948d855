//! Property-based tests for the observability layer: every adjustment the
//! live runtime performs — scale-out, scale-in, under arbitrary chaos
//! seeds — must leave a **well-formed 5-phase trace** in the journal:
//!
//! - all five phases present, each with `start ≤ end` (monotone
//!   timestamps), laid out in pipeline order;
//! - no orphan phases: a completed trace has no open `(start, None)`
//!   windows dangling past completion;
//! - the journal's event stream and the trace spans agree (each completed
//!   trace has its `adjustment_requested` and `adjustment_completed`
//!   bracket in the journal).
//!
//! The same cases are the application master's liveness property: across
//! world sizes, adjustment shapes and loss rates, every adjustment
//! completes with the expected world and consistent replicas.
//!
//! Live runs spawn real threads, so the case count is deliberately small;
//! the chaos seed is the interesting degree of freedom (it reshuffles
//! drops/delays/duplicates, which reorder and repeat the control
//! messages feeding the trace recorder).

//! Runs ride a [`TimeSource::virtual_seeded`] clock keyed to the chaos
//! seed, so each proptest case is wall-clock-free *and* individually
//! replayable: a failing seed reproduces its exact schedule.

use proptest::prelude::*;

use elan::rt::{audit, ChaosPolicy, ElasticRuntime, EventKind, RuntimeConfig, TimeSource};

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 24,
        ..ProptestConfig::default()
    })]

    /// One adjustment of any shape — scale out by 1–5, or scale in to no
    /// fewer than 1 worker, from a world of 2–7 — then one step back, on a
    /// bus dropping up to 24% of control messages: both complete, the
    /// replicas agree, and every completed trace is well-formed and
    /// bracketed by its journal events.
    #[test]
    fn every_adjustment_leaves_a_well_formed_trace(
        seed in 0u64..1_000_000,
        start in 2u32..8,
        delta in 1u32..6,
        grow in proptest::bool::ANY,
        drop_pct in 0u32..25,
    ) {
        let mut cfg = RuntimeConfig::small(start);
        // 0.42^16 ≈ 1e-6: at 24% loss each way, a spurious dead-worker
        // declaration stays negligible per tracked message.
        cfg.retry_max_attempts = 16;
        let chaos = ChaosPolicy::new(seed)
            .drop(f64::from(drop_pct) / 100.0)
            .delay(0.10, 2)
            .duplicate(0.05);
        let mut rt = ElasticRuntime::builder()
            .config(cfg)
            .chaos(chaos)
            .time(TimeSource::virtual_seeded(seed))
            .start()
            .unwrap();
        rt.run_until_iteration(5);
        let shrink = delta.min(start - 1);
        if grow {
            rt.scale_out(delta);
        } else {
            rt.scale_in(shrink);
        }
        rt.run_until_iteration(10);
        let expected = if grow {
            rt.scale_in(1);
            start + delta - 1
        } else {
            rt.scale_out(1);
            start - shrink + 1
        };
        rt.run_until_iteration(15);
        let report = rt.shutdown();
        let verdict = audit(&report.events);
        prop_assert!(verdict.is_safe(), "{}", verdict);

        prop_assert_eq!(report.final_world_size, expected);
        prop_assert!(report.states_consistent(), "replicas diverged");
        let completed: Vec<_> = report.traces.iter().filter(|t| t.completed).collect();
        prop_assert!(
            completed.len() >= 2,
            "expected at least scale-out + scale-in traces, got {:?}",
            report.traces
        );
        for t in &completed {
            // Well-formed: 5 phases, monotone, ordered, no orphans.
            prop_assert!(t.is_well_formed(), "malformed trace: {t:?}");
            prop_assert!(t.total_us() < u64::MAX, "unbounded span: {t:?}");
            // Journal agreement: the requested/completed bracket exists.
            let requested = report.events.iter().any(|e| matches!(
                e.kind, EventKind::AdjustmentRequested { trace, .. } if trace == t.id));
            let finished = report.events.iter().any(|e| matches!(
                e.kind, EventKind::AdjustmentCompleted { trace, .. } if trace == t.id));
            prop_assert!(requested, "trace {} never requested in journal", t.id);
            prop_assert!(finished, "trace {} never completed in journal", t.id);
        }
        // The summary's totals cover at least the events we still hold.
        prop_assert!(report.journal.total >= report.events.len() as u64);
    }

    /// Determinism as a *property*: for any seed, two in-process runs of
    /// the same chaotic scenario under virtual time yield byte-identical
    /// journals (timestamps included).
    #[test]
    fn journal_is_a_pure_function_of_the_seed(seed in 0u64..1_000_000) {
        fn run(seed: u64) -> Vec<String> {
            let mut cfg = RuntimeConfig::small(2);
            cfg.retry_max_attempts = 12;
            let mut rt = ElasticRuntime::builder()
                .config(cfg)
                .chaos(ChaosPolicy::new(seed).drop(0.10).delay(0.10, 2).duplicate(0.05))
                .time(TimeSource::virtual_seeded(seed))
                .start()
                .unwrap();
            rt.run_until_iteration(5);
            rt.scale_out(1);
            rt.run_until_iteration(10);
            let report = rt.shutdown();
            let verdict = audit(&report.events);
            assert!(verdict.is_safe(), "{verdict}");
            report.events.iter().map(|e| format!("{e:?}")).collect()
        }
        let a = run(seed);
        prop_assert!(!a.is_empty());
        prop_assert_eq!(a, run(seed), "seed {} diverged across runs", seed);
    }
}
