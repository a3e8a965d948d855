//! Figs. 14, 15, 16 — runtime overhead, adjustment latency, Litz.

use std::time::{Duration, Instant};

use elan_baselines::{Litz, ShutdownRestart};
use elan_core::elasticity::{AdjustmentRequest, ElasticitySystem};
use elan_core::ElanSystem;
use elan_models::zoo;
use elan_rt::{ElasticRuntime, RuntimeConfig};
use elan_sim::SimDuration;

use crate::experiments::Testbed;
use crate::table::Table;

/// Workers in the fig14 live cross-check.
const FIG14_WORKERS: u32 = 8;
/// Per-iteration compute pacing of the fig14 cross-check: at the default
/// coordination interval of 5 iterations, a boundary period of ≥ 10 ms.
const FIG14_COMPUTE_US: u64 = 2_000;
/// Coordination boundaries the fig14 cross-check trains through.
const FIG14_BOUNDARIES: u64 = 50;

/// World sizes of Fig. 14's columns.
const FIG14_WORLDS: [u32; 6] = [2, 4, 8, 16, 32, 64];

/// Fig. 14's analytic cells: per evaluation model, the runtime overhead
/// (a fraction of training time) at each of [`FIG14_WORLDS`].
fn fig14_analytic() -> Vec<(String, Vec<f64>)> {
    let tb = Testbed::paper();
    let sys = ElanSystem::new();
    zoo::evaluation_models()
        .into_iter()
        .map(|model| {
            let ctx = tb.ctx(&model, 512);
            let cells = FIG14_WORLDS
                .iter()
                .map(|&n| sys.runtime_overhead(&ctx, n))
                .collect();
            (model.name.to_string(), cells)
        })
        .collect()
}

/// Fig. 14: Elan's runtime overhead when no adjustments happen —
/// analytically from the cost model, cross-checked on the live runtime.
pub fn fig14_runtime_overhead() -> String {
    let mut t = Table::new(vec!["model", "2", "4", "8", "16", "32", "64"]);
    for (model, cells) in fig14_analytic() {
        let mut row = vec![model];
        row.extend(cells.iter().map(|c| format!("{:.3}‰", c * 1000.0)));
        t.row(row);
    }
    let (interval, worst) = live_coordination_overhead();
    format!(
        "Fig. 14: Elan runtime overhead (permille of training time; paper: <3‰)\n\n{}\n\
         Live-runtime cross-check ({FIG14_WORKERS} in-process workers, real clock, \
         {FIG14_BOUNDARIES} boundaries of {interval} x {FIG14_COMPUTE_US}us iterations): \
         worst stall {:.3}‰\n",
        t.render(),
        worst * 1000.0
    )
}

/// Trains an in-process job with no adjustments on the real clock and
/// returns its coordination interval and the worst worker's
/// [`stalled`](elan_rt::worker::WorkerView::stalled) time as a fraction of the
/// job's wall time.
fn live_coordination_overhead() -> (u64, f64) {
    let mut cfg = RuntimeConfig::small(FIG14_WORKERS);
    cfg.compute_us = FIG14_COMPUTE_US;
    let interval = cfg.coordination_interval;
    let start = Instant::now();
    let rt = ElasticRuntime::builder()
        .config(cfg)
        .start()
        .expect("valid fig14 configuration");
    rt.run_until_iteration(FIG14_BOUNDARIES * interval);
    let report = rt.shutdown();
    let wall = start.elapsed();
    let worst = report
        .workers
        .values()
        .map(|v| v.stalled)
        .max()
        .unwrap_or(Duration::ZERO);
    (interval, worst.as_secs_f64() / wall.as_secs_f64())
}

/// Fig. 15: migration / scale-in / scale-out latency, Elan vs. S&R, five
/// models (A–E) at several scales.
pub fn fig15_adjustment_performance() -> String {
    let tb = Testbed::paper();
    let elan = ElanSystem::new();
    let snr = ShutdownRestart::new();
    type Case = (&'static str, fn() -> AdjustmentRequest);
    let cases: [Case; 6] = [
        ("migration 16->16", || AdjustmentRequest::migration(16, 16)),
        ("migration 32->32", || AdjustmentRequest::migration(32, 32)),
        ("scale-in 32->16", || AdjustmentRequest::contiguous(32, 16)),
        ("scale-in 64->32", || AdjustmentRequest::contiguous(64, 32)),
        ("scale-out 16->32", || AdjustmentRequest::contiguous(16, 32)),
        ("scale-out 32->64", || AdjustmentRequest::contiguous(32, 64)),
    ];
    let mut out = String::from(
        "Fig. 15: adjustment time (training pause), Elan vs. S&R\n\
         (paper: Elan ~1s everywhere; S&R ~4x slower on migration, 10-80x on scaling)\n",
    );
    for model in zoo::evaluation_models() {
        out.push_str(&format!("\n[{}]\n", model.name));
        let mut t = Table::new(vec!["case", "Elan", "S&R", "S&R / Elan"]);
        for (name, mk) in &cases {
            let req = mk();
            let ctx = tb.ctx(&model, 512);
            let e = elan.adjust(&req, &ctx).pause;
            let s = snr.adjust(&req, &ctx).pause;
            t.row(vec![
                name.to_string(),
                format!("{:.2}s", e.as_secs_f64()),
                format!("{:.2}s", s.as_secs_f64()),
                format!("{:.1}x", s.as_secs_f64() / e.as_secs_f64()),
            ]);
        }
        out.push_str(&t.render());
    }
    out
}

/// Fig. 16: Litz-2/Litz-4 training throughput relative to Elan.
pub fn fig16_litz_throughput() -> String {
    let tb = Testbed::paper();
    let mut out = String::from(
        "Fig. 16: relative training throughput of Litz vs. Elan \
         (paper: reductions up to >90%)\n",
    );
    for model in zoo::evaluation_models() {
        out.push_str(&format!("\n[{}]\n", model.name));
        let mut t = Table::new(vec!["workers", "Litz-2", "Litz-4"]);
        for n in [2u32, 8, 16, 32, 64] {
            let ctx = tb.ctx(&model, n * 32);
            t.row(vec![
                n.to_string(),
                format!("{:.1}%", Litz::litz2().relative_throughput(&ctx, n) * 100.0),
                format!("{:.1}%", Litz::litz4().relative_throughput(&ctx, n) * 100.0),
            ]);
        }
        out.push_str(&t.render());
    }
    out
}

/// The Fig. 15 Elan latencies as raw durations (used by the integration
/// tests for shape assertions).
pub fn elan_pauses() -> Vec<(String, SimDuration)> {
    let tb = Testbed::paper();
    let elan = ElanSystem::new();
    let mut out = Vec::new();
    for model in zoo::evaluation_models() {
        for req in [
            AdjustmentRequest::migration(16, 16),
            AdjustmentRequest::contiguous(16, 32),
            AdjustmentRequest::contiguous(32, 16),
        ] {
            let ctx = tb.ctx(&model, 512);
            out.push((
                format!("{} {req}", model.name),
                elan.adjust(&req, &ctx).pause,
            ));
        }
    }
    out
}

/// Straggler mitigation (§VII): one worker's GPU degrades to a fraction
/// of its speed; data-parallel training runs at the straggler's pace.
/// Elan migrates the straggler's shard to a healthy GPU in ~1 s; S&R
/// restarts the whole job. The table shows time lost per mitigation and
/// the break-even degradation each system needs to be worth invoking.
pub fn straggler_mitigation() -> String {
    let tb = Testbed::paper();
    let model = zoo::resnet50();
    let ctx = tb.ctx(&model, 512);
    let elan = ElanSystem::new();
    let snr = ShutdownRestart::new();

    let n = 16u32;
    let healthy_iter = tb.perf.iteration_time(&model, n, 512);
    // Migrate the straggler's single worker to a spare GPU.
    let req = elan_core::elasticity::AdjustmentRequest::new(
        (0..n).map(elan_topology::GpuId).collect(),
        (1..=n).map(elan_topology::GpuId).collect(),
    )
    .expect("single-worker migration");
    let elan_cost = elan.adjust(&req, &ctx).pause;
    let snr_cost = snr.adjust(&req, &ctx).pause;

    let mut t = Table::new(vec![
        "straggler slowdown",
        "lost per iteration",
        "Elan pays off after",
        "S&R pays off after",
    ]);
    for slowdown in [1.25f64, 1.5, 2.0, 4.0] {
        let straggler_iter = healthy_iter.mul_f64(slowdown);
        let lost = straggler_iter.saturating_sub(healthy_iter);
        let iters = |pause: SimDuration| {
            format!(
                "{:.0} iters",
                (pause.as_secs_f64() / lost.as_secs_f64()).ceil()
            )
        };
        t.row(vec![
            format!("{slowdown}x"),
            format!("{:.0}ms", lost.as_millis_f64()),
            iters(elan_cost),
            iters(snr_cost),
        ]);
    }
    format!(
        "Straggler mitigation via migration (§VII): iteration time follows the\n\
         slowest worker. Migration pause: Elan {:.2}s vs S&R {:.2}s — Elan\n\
         breaks even within seconds of training, S&R within tens of minutes.\n\n{}",
        elan_cost.as_secs_f64(),
        snr_cost.as_secs_f64(),
        t.render()
    )
}

#[cfg(test)]
mod tests {
    /// Every analytic cell is below the paper's 3‰. The live cross-check
    /// line runs on the real clock and is left unasserted.
    #[test]
    fn fig14_renders_and_is_small() {
        let s = super::fig14_runtime_overhead();
        assert!(s.contains("cross-check"));
        for (model, cells) in super::fig14_analytic() {
            assert_eq!(cells.len(), super::FIG14_WORLDS.len());
            for (n, c) in super::FIG14_WORLDS.iter().zip(&cells) {
                assert!(*c < 3e-3, "{model} at {n} workers: {:.3}‰", c * 1000.0);
            }
        }
    }

    #[test]
    fn fig15_covers_all_cases() {
        let s = super::fig15_adjustment_performance();
        assert!(s.contains("migration 16->16"));
        assert!(s.contains("scale-out 32->64"));
    }

    #[test]
    fn fig16_has_both_variants() {
        let s = super::fig16_litz_throughput();
        assert!(s.contains("Litz-2") && s.contains("Litz-4"));
    }

    #[test]
    fn straggler_scenario_renders() {
        let s = super::straggler_mitigation();
        assert!(s.contains("breaks even"));
        assert!(s.contains("4x"));
    }
}
