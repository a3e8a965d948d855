//! Property-based tests over the core invariants, spanning crates.

use proptest::prelude::*;

use elan::core::data::{ChunkSampler, SerialSampler};
use elan::core::scaling::{hybrid_scale, ProgressiveLrRamp, ScalingMode};
use elan::sim::SimDuration;
use elan::topology::{ClusterSpec, GpuId, LinkLevel, ReplicationPlanner};

proptest! {
    /// Every joining worker is served exactly once, waves partition the
    /// transfers, and no wave contains a conflicting pair.
    #[test]
    fn replication_plan_is_sound(
        existing_mask in 1u64..(1 << 24),
        joining_mask in 1u64..(1 << 24),
    ) {
        let topo = ClusterSpec::paper_testbed().build();
        let existing: Vec<GpuId> =
            (0..24).filter(|i| existing_mask & (1 << i) != 0).map(GpuId).collect();
        let joining: Vec<GpuId> = (24..48)
            .filter(|i| joining_mask & (1 << (i - 24)) != 0)
            .map(GpuId)
            .collect();
        prop_assume!(!existing.is_empty() && !joining.is_empty());

        let plan = ReplicationPlanner::new(&topo).plan(&existing, &joining).unwrap();

        // Exactly one transfer per joining worker, sourced from existing.
        let mut dsts: Vec<GpuId> = plan.transfers().iter().map(|t| t.dst).collect();
        dsts.sort_unstable();
        let mut expect = joining.clone();
        expect.sort_unstable();
        prop_assert_eq!(dsts, expect);
        for t in plan.transfers() {
            prop_assert!(existing.contains(&t.src));
            // Source selection is level-optimal: no existing worker sits
            // on a strictly nearer link.
            let best = existing
                .iter()
                .map(|&s| topo.link_level(s, t.dst))
                .min()
                .unwrap();
            prop_assert_eq!(t.level, best);
        }

        // Waves partition the transfer set.
        let mut covered: Vec<usize> = plan.waves().iter().flatten().copied().collect();
        covered.sort_unstable();
        prop_assert_eq!(covered, (0..plan.transfers().len()).collect::<Vec<_>>());

        // No conflicting pair shares a wave (re-check independently).
        for wave in plan.waves() {
            for (i, &a) in wave.iter().enumerate() {
                for &b in &wave[i + 1..] {
                    let (ta, tb) = (&plan.transfers()[a], &plan.transfers()[b]);
                    prop_assert!(ta.src != tb.src && ta.dst != tb.dst);
                    if ta.level == LinkLevel::L3 && tb.level == LinkLevel::L3 {
                        prop_assert!(topo.node_of(ta.src) != topo.node_of(tb.src));
                    }
                    if ta.level == LinkLevel::L4 && tb.level == LinkLevel::L4 {
                        prop_assert!(topo.node_of(ta.src) != topo.node_of(tb.src));
                        prop_assert!(topo.node_of(ta.dst) != topo.node_of(tb.dst));
                    }
                }
            }
        }
    }

    /// Hybrid scaling returns a batch within `[TBS, TBS * ceil(N'/N)]`,
    /// and its learning-rate factor always equals the batch growth.
    #[test]
    fn hybrid_scaling_bounds(
        tbs in 32u32..4096,
        n_before in 1u32..64,
        grow in 1u32..8,
        opt_divisor in 8u32..128,
    ) {
        let n_after = n_before * grow;
        let d = hybrid_scale(tbs, n_before, n_after, |b| (b / opt_divisor).max(1));
        prop_assert!(d.new_total_batch >= tbs);
        let ratio = n_after as f64 / n_before as f64;
        prop_assert!(d.new_total_batch as f64 <= tbs as f64 * ratio + 1.0);
        let lr_growth = d.new_total_batch as f64 / tbs as f64;
        prop_assert!((d.lr_factor - lr_growth).abs() < 1e-9);
        match d.mode {
            ScalingMode::Strong => prop_assert_eq!(d.new_total_batch, tbs),
            ScalingMode::Weak { factor } => prop_assert!(factor > 1.0),
        }
    }

    /// The progressive LR ramp is monotone and clamped to its target.
    #[test]
    fn lr_ramp_monotone(
        lr0 in 0.001f64..1.0,
        k in 1.0f64..16.0,
        t0 in 0u64..10_000,
        ramp in 1u32..10_000,
    ) {
        let r = ProgressiveLrRamp::new(lr0, k, t0, ramp);
        let mut prev = 0.0;
        for t in (0..t0 + ramp as u64 + 100).step_by((ramp as usize / 7).max(1)) {
            let lr = r.lr_at(t);
            prop_assert!(lr >= prev - 1e-12);
            prop_assert!(lr <= lr0 * k + 1e-12);
            prev = lr;
        }
        prop_assert!((r.lr_at(t0 + ramp as u64) - lr0 * k).abs() < 1e-9);
    }

    /// Serial and chunk samplers serve exactly the same sample set per
    /// epoch, across arbitrary repartition points.
    #[test]
    fn samplers_conserve_samples(
        dataset in 50u64..2000,
        chunk in 1u64..64,
        workers in 1u32..12,
        new_workers in 1u32..12,
        consumed_batches in 0u32..10,
    ) {
        // Chunk sampler: consume a bit, repartition, then drain.
        let mut cs = ChunkSampler::new(dataset, chunk, workers);
        let mut seen = Vec::new();
        for w in 0..workers {
            for _ in 0..consumed_batches {
                seen.extend(cs.next_for_worker(w, 3));
            }
        }
        cs.repartition(new_workers);
        for w in 0..new_workers {
            loop {
                let got = cs.next_for_worker(w, 64);
                if got.is_empty() { break; }
                seen.extend(got);
            }
        }
        seen.sort_unstable();
        prop_assert_eq!(seen, (0..dataset).collect::<Vec<_>>());

        // Serial sampler: cursor restore mid-epoch conserves the epoch.
        let mut ss = SerialSampler::new(dataset);
        let mut serial_seen = Vec::new();
        for _ in 0..consumed_batches {
            if ss.epoch() > 0 { break; }
            serial_seen.extend(ss.next_batch(7));
        }
        let restored = SerialSampler::restore(dataset, ss.cursor(), ss.epoch());
        prop_assert_eq!(restored, ss);
    }

    /// Duration arithmetic: associativity of sums and scaling bounds.
    #[test]
    fn duration_arithmetic(a in 0u64..u32::MAX as u64, b in 0u64..u32::MAX as u64) {
        let da = SimDuration::from_nanos(a);
        let db = SimDuration::from_nanos(b);
        prop_assert_eq!(da + db, db + da);
        prop_assert_eq!((da + db).saturating_sub(db), da);
        prop_assert_eq!(da.max(db).min(da), da.min(db).max(da));
    }
}

proptest! {
    /// Scheduling policies never oversubscribe the cluster, never admit a
    /// job twice, and elastic allocations respect min/max bounds.
    #[test]
    fn policies_respect_resource_bounds(
        total in 8u32..200,
        n_pending in 0usize..12,
        n_running in 0usize..12,
        seed in 0u64..10_000,
    ) {
        use elan::sched::policy::{
            schedule, Action, GainOracle, PendingView, PolicyKind, RunningView,
        };
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);

        struct O;
        impl GainOracle for O {
            fn throughput(&self, _j: u32, w: u32) -> f64 {
                w as f64 / (1.0 + 0.02 * w as f64)
            }
            fn remaining(&self, _j: u32) -> f64 {
                500.0
            }
        }

        let pending: Vec<PendingView> = (0..n_pending)
            .map(|i| {
                let min = rng.gen_range(1..=4u32);
                let req = min + rng.gen_range(0..8u32);
                PendingView {
                    id: i as u32,
                    req_res: req,
                    min_res: min,
                    max_res: req + rng.gen_range(0..16u32),
                    est_duration: rng.gen_range(10.0..5000.0),
                }
            })
            .collect();
        let mut used = 0u32;
        let running: Vec<RunningView> = (0..n_running)
            .map(|i| {
                let min = rng.gen_range(1..=4u32);
                let alloc = min + rng.gen_range(0..6u32);
                used += alloc;
                RunningView {
                    id: 100 + i as u32,
                    allocation: alloc,
                    min_res: min,
                    max_res: alloc + rng.gen_range(0..16u32),
                    est_remaining: rng.gen_range(10.0..5000.0),
                    in_transition: rng.gen_bool(0.2),
                }
            })
            .collect();
        prop_assume!(used <= total);

        for kind in [
            PolicyKind::Fifo,
            PolicyKind::Backfill,
            PolicyKind::ElasticFifo,
            PolicyKind::ElasticBackfill,
        ] {
            let actions = schedule(kind, total, &pending, &running, &O);
            // Apply actions and verify the invariants.
            let mut allocations: std::collections::BTreeMap<u32, u32> = running
                .iter()
                .map(|r| (r.id, r.allocation))
                .collect();
            let mut admitted = std::collections::BTreeSet::new();
            for action in &actions {
                match *action {
                    Action::Admit { job, workers } => {
                        prop_assert!(admitted.insert(job), "{kind:?} admitted {job} twice");
                        let p = pending.iter().find(|p| p.id == job).expect("pending job");
                        if kind.is_elastic() {
                            prop_assert!(workers >= p.min_res && workers <= p.max_res);
                        } else {
                            prop_assert_eq!(workers, p.req_res);
                        }
                        allocations.insert(job, workers);
                    }
                    Action::Reallocate { job, workers } => {
                        let r = running.iter().find(|r| r.id == job).expect("running job");
                        prop_assert!(!r.in_transition, "{kind:?} touched a transitioning job");
                        prop_assert!(workers >= r.min_res && workers <= r.max_res);
                        allocations.insert(job, workers);
                    }
                }
            }
            let sum: u32 = allocations.values().sum();
            prop_assert!(sum <= total, "{kind:?} oversubscribed: {sum}/{total}");
        }
    }
}
