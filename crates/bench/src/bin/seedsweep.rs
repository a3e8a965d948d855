//! Determinism fuzzer for the virtual-time runtime (`elan-rt`).
//!
//! ```text
//! seedsweep [--quick] [--seeds N] [--start S] [--scenario NAME] [--out PATH]
//! ```
//!
//! For each seed the selected end-to-end scenario is executed **twice**
//! on a [`TimeSource::virtual_seeded`] clock and each run's event journal
//! is hashed (FNV-1a over the rendered event lines, virtual timestamps
//! included). Determinism means the two hashes are equal for every seed;
//! any divergent seed is replayed twice more to confirm the divergence is
//! reproducible, and its journals ride the JSON report so CI can upload
//! them as an artifact. A seed whose run panics is a failure too — the
//! panic message is captured into the report.
//!
//! Scenarios:
//!
//! - `chaos` (default) — lossy + delaying + duplicating bus with a
//!   scale-out mid-run;
//! - `partition` — a scripted 500ms window isolating the acting AM while
//!   a scale-out is requested: the watchdog must elect a term-fenced
//!   successor that completes the adjustment;
//! - `allreduce-adjust` — a nine-worker job whose gradient vectors sit
//!   above the pinned flat crossover, so the dispatcher runs the
//!   hierarchical path, with a scale-out landing mid-run: proves that
//!   path selection and the per-round topology re-plan are pure
//!   functions of the seed (the journal's `allreduce_path` events are
//!   part of the hash);
//! - `churn` — a 1 000-member scripted join/leave/crash storm over the
//!   open-membership epoch machine (DESIGN.md §17) with corrupt-digest
//!   joiners and partition windows.
//!
//! On top of the journal hash, every run of every scenario is replayed
//! through the journal [`audit`]: at most one AM acting per term and no
//! post-fence effects; no un-warmed member entering `Train`, membership
//! within bounds and monotonic epochs; and the AM acting only on a
//! boundary every member parked at, with no dismissed member training
//! past it. A run that fails the audit is a failed seed.
//!
//! `--quick` sweeps 64 seeds (the CI smoke configuration); the default
//! sweep is 256. Exit status is non-zero iff any seed diverged or failed.

#![forbid(unsafe_code)]

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::process::ExitCode;
use std::time::Duration;

use elan_core::obs::json_escape;
use elan_rt::epoch::{run_churn, ChurnConfig};
use elan_rt::obs::journal_hash;
use elan_rt::{
    audit, ChaosPolicy, ElasticRuntime, EndpointId, Event, EventKind, ReducePath, RuntimeConfig,
    TimeSource, TuningProfile,
};

/// Journal lines retained per divergent/failed run in the report.
const REPORT_LINE_CAP: usize = 200;
/// Seeds in the `--quick` (CI) sweep.
const QUICK_SEEDS: u64 = 64;
/// Seeds in the default sweep.
const FULL_SEEDS: u64 = 256;

/// Which end-to-end scenario the sweep replays per seed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Scenario {
    /// Lossy/delaying/duplicating bus with a scale-out mid-run.
    Chaos,
    /// Scripted partition isolating the acting AM mid-adjustment.
    Partition,
    /// Hierarchical-path allreduce with a scale-out mid-run.
    AllreduceAdjust,
    /// 1k-member open-membership churn storm over the epoch machine.
    Churn,
}

impl Scenario {
    fn name(self) -> &'static str {
        match self {
            Scenario::Chaos => "chaos",
            Scenario::Partition => "partition",
            Scenario::AllreduceAdjust => "allreduce-adjust",
            Scenario::Churn => "churn",
        }
    }
}

/// The chaos e2e scenario under virtual time: a lossy, delaying,
/// duplicating bus and a live scale-out. Returns the journal.
fn chaos_scenario(seed: u64) -> Vec<Event> {
    let mut cfg = RuntimeConfig::small(2);
    cfg.retry_max_attempts = 12;
    let chaos = ChaosPolicy::new(seed)
        .drop(0.20)
        .delay(0.20, 3)
        .duplicate(0.10);
    let mut rt = ElasticRuntime::builder()
        .config(cfg)
        .chaos(chaos)
        .time(TimeSource::virtual_seeded(seed))
        .start()
        .expect("valid sweep configuration");
    rt.run_until_iteration(8);
    rt.scale_out(1);
    rt.run_until_iteration(16);
    let report = rt.shutdown();
    assert!(report.states_consistent(), "replicas diverged");
    report.events
}

/// The partition e2e scenario: a 500ms scripted window cuts the acting
/// AM off from workers, controller, and store while a scale-out is
/// requested. The lease lapses, a successor is elected at a higher
/// fencing term, the old AM's persist-before-act probe bounces, and the
/// adjustment completes under the new term.
fn partition_scenario(seed: u64) -> Vec<Event> {
    let mut cfg = RuntimeConfig::small(3);
    cfg.retry_max_attempts = 12;
    // The policy scripts no probabilistic fates: the partition *is* the
    // chaos, so every journal difference across seeds comes from the
    // virtual-clock schedule alone.
    let mut rt = ElasticRuntime::builder()
        .config(cfg)
        .chaos(ChaosPolicy::new(seed))
        .time(TimeSource::virtual_seeded(seed))
        .start()
        .expect("valid sweep configuration");
    rt.run_until_iteration(8);
    assert!(
        rt.partition(
            "am-isolated",
            vec![vec![EndpointId::Am]],
            Duration::from_millis(500),
        ),
        "partition scripting needs a chaos engine"
    );
    rt.scale_out(1);
    rt.run_until_iteration(16);
    let report = rt.shutdown();
    assert!(report.states_consistent(), "replicas diverged");
    assert!(
        report.journal.count("term_bump") >= 2,
        "no fenced failover: {:?}",
        report.journal
    );
    assert!(
        report.journal.count("stale_term_rejected") >= 1,
        "old AM never fenced: {:?}",
        report.journal
    );
    report.events
}

/// The allreduce-adjust e2e scenario: nine workers (the pinned
/// chunked/hierarchical crossover) reduce vectors twice the pinned flat
/// crossover, so every round dispatches hierarchically over the default
/// planning topology; a two-worker scale-out lands mid-run, forcing the
/// dispatcher to re-plan its socket groups for the grown membership.
/// The journal's `allreduce_path` events (round, path, world, group
/// count) are part of the determinism hash, so a divergence in path
/// selection or group planning across identically-seeded runs fails the
/// sweep.
fn allreduce_adjust_scenario(seed: u64) -> Vec<Event> {
    let mut cfg = RuntimeConfig::small(9);
    cfg.param_elems = 2 * TuningProfile::pinned().flat_max_len;
    cfg.replication_chunk_elems = cfg.param_elems / 4;
    let mut rt = ElasticRuntime::builder()
        .config(cfg)
        .time(TimeSource::virtual_seeded(seed))
        .start()
        .expect("valid sweep configuration");
    rt.run_until_iteration(4);
    rt.scale_out(2);
    rt.run_until_iteration(8);
    let report = rt.shutdown();
    assert!(report.states_consistent(), "replicas diverged");
    assert_eq!(report.final_world_size, 11, "scale-out did not land");
    assert!(
        report.events.iter().any(|e| matches!(
            e.kind,
            EventKind::AllreducePath {
                path: ReducePath::Hier,
                ..
            }
        )),
        "no hierarchical round was journalled"
    );
    report.events
}

/// The churn scenario: a 1 000-member scripted join/leave/crash storm
/// over the open-membership epoch machine, with corrupt-digest joiners
/// (witness bait) and two partition windows swallowing announces. The
/// storm is a pure function of the seed, so its journal hash is too. A
/// storm that admits nobody is a failure (a dead harness must not sweep
/// green).
fn churn_scenario(seed: u64) -> Vec<Event> {
    let report = run_churn(&ChurnConfig::sized(1_000, seed));
    assert!(report.admitted >= 1, "storm admitted nobody: {report:?}");
    assert!(
        report.epochs_trained >= 1,
        "storm never entered Train: {report:?}"
    );
    report.events
}

/// One audited run, panic-safe. `Ok` carries the journal rendered
/// line-by-line; `Err` carries the panic payload as text.
fn run_once(seed: u64, scenario: Scenario) -> Result<Vec<String>, String> {
    // A panicking run may leave the controller thread registered with the
    // (abandoned) virtual clock's thread-local id; clear it so the next
    // seed starts clean.
    let guard = TimeSource::virtual_seeded(seed);
    let out = catch_unwind(AssertUnwindSafe(|| {
        let events = match scenario {
            Scenario::Chaos => chaos_scenario(seed),
            Scenario::Partition => partition_scenario(seed),
            Scenario::AllreduceAdjust => allreduce_adjust_scenario(seed),
            Scenario::Churn => churn_scenario(seed),
        };
        let verdict = audit(&events);
        assert!(verdict.is_safe(), "journal audit failed: {verdict}");
        events.iter().map(|e| format!("{e:?}")).collect()
    }));
    out.map_err(|e| {
        guard.deregister();
        match e.downcast::<String>() {
            Ok(s) => *s,
            Err(e) => match e.downcast::<&'static str>() {
                Ok(s) => (*s).to_string(),
                Err(_) => "non-string panic payload".to_string(),
            },
        }
    })
}

#[derive(Debug)]
enum Verdict {
    /// Both runs agreed: one hash.
    Ok { hash: u64 },
    /// Hashes differed; `replay` holds the two confirmation-run hashes.
    Divergent {
        hashes: (u64, u64),
        replay: (u64, u64),
        first: Vec<String>,
        second: Vec<String>,
    },
    /// A run panicked.
    Failed { message: String, prior: Vec<String> },
}

fn sweep_seed(seed: u64, scenario: Scenario) -> Verdict {
    let a = match run_once(seed, scenario) {
        Ok(lines) => lines,
        Err(message) => {
            return Verdict::Failed {
                message,
                prior: Vec::new(),
            }
        }
    };
    let b = match run_once(seed, scenario) {
        Ok(lines) => lines,
        Err(message) => return Verdict::Failed { message, prior: a },
    };
    let (ha, hb) = (journal_hash(&a), journal_hash(&b));
    if ha == hb {
        return Verdict::Ok { hash: ha };
    }
    // Confirm: a divergence should reproduce — replay twice more so the
    // report can say whether the seed is unstable or the first pair was a
    // one-off (either way it is a bug; the replay hashes aid triage).
    let ra = run_once(seed, scenario).map(journal_hash).unwrap_or(0);
    let rb = run_once(seed, scenario).map(journal_hash).unwrap_or(0);
    Verdict::Divergent {
        hashes: (ha, hb),
        replay: (ra, rb),
        first: a,
        second: b,
    }
}

fn push_lines(s: &mut String, key: &str, lines: &[String], indent: &str) {
    s.push_str(&format!("{indent}\"{key}\": [\n"));
    let tail = lines.len().saturating_sub(REPORT_LINE_CAP);
    for (i, line) in lines.iter().skip(tail).enumerate() {
        let comma = if i + 1 + tail == lines.len() { "" } else { "," };
        s.push_str(&format!("{indent}  \"{}\"{comma}\n", json_escape(line)));
    }
    s.push_str(&format!("{indent}]"));
}

struct Report {
    mode: &'static str,
    scenario: Scenario,
    start: u64,
    results: Vec<(u64, Verdict)>,
}

impl Report {
    fn bad_seeds(&self) -> usize {
        self.results
            .iter()
            .filter(|(_, v)| !matches!(v, Verdict::Ok { .. }))
            .count()
    }

    fn to_json(&self) -> String {
        let mut s = String::new();
        s.push_str("{\n");
        s.push_str("  \"schema_version\": 1,\n");
        s.push_str(&format!("  \"mode\": \"{}\",\n", self.mode));
        s.push_str(&format!("  \"scenario\": \"{}\",\n", self.scenario.name()));
        s.push_str(&format!("  \"start_seed\": {},\n", self.start));
        s.push_str(&format!("  \"seeds\": {},\n", self.results.len()));
        s.push_str(&format!("  \"bad_seeds\": {},\n", self.bad_seeds()));
        s.push_str("  \"hashes\": [\n");
        for (i, (seed, v)) in self.results.iter().enumerate() {
            let hash = match v {
                Verdict::Ok { hash } => format!("\"{hash:016x}\""),
                _ => "null".to_string(),
            };
            let comma = if i + 1 == self.results.len() { "" } else { "," };
            s.push_str(&format!(
                "    {{\"seed\": {seed}, \"hash\": {hash}}}{comma}\n"
            ));
        }
        s.push_str("  ],\n");
        s.push_str("  \"divergent\": [\n");
        let divergent: Vec<_> = self
            .results
            .iter()
            .filter_map(|(seed, v)| match v {
                Verdict::Divergent {
                    hashes,
                    replay,
                    first,
                    second,
                } => Some((*seed, hashes, replay, first, second)),
                _ => None,
            })
            .collect();
        for (i, (seed, hashes, replay, first, second)) in divergent.iter().enumerate() {
            s.push_str("    {\n");
            s.push_str(&format!("      \"seed\": {seed},\n"));
            s.push_str(&format!(
                "      \"hashes\": [\"{:016x}\", \"{:016x}\"],\n",
                hashes.0, hashes.1
            ));
            s.push_str(&format!(
                "      \"replay_hashes\": [\"{:016x}\", \"{:016x}\"],\n",
                replay.0, replay.1
            ));
            push_lines(&mut s, "journal_a", first, "      ");
            s.push_str(",\n");
            push_lines(&mut s, "journal_b", second, "      ");
            s.push('\n');
            let comma = if i + 1 == divergent.len() { "" } else { "," };
            s.push_str(&format!("    }}{comma}\n"));
        }
        s.push_str("  ],\n");
        s.push_str("  \"failed\": [\n");
        let failed: Vec<_> = self
            .results
            .iter()
            .filter_map(|(seed, v)| match v {
                Verdict::Failed { message, prior } => Some((*seed, message, prior)),
                _ => None,
            })
            .collect();
        for (i, (seed, message, prior)) in failed.iter().enumerate() {
            s.push_str("    {\n");
            s.push_str(&format!("      \"seed\": {seed},\n"));
            s.push_str(&format!("      \"panic\": \"{}\",\n", json_escape(message)));
            push_lines(&mut s, "journal_prior_run", prior, "      ");
            s.push('\n');
            let comma = if i + 1 == failed.len() { "" } else { "," };
            s.push_str(&format!("    }}{comma}\n"));
        }
        s.push_str("  ]\n");
        s.push_str("}\n");
        s
    }
}

fn main() -> ExitCode {
    let mut n: Option<u64> = None;
    let mut start = 0u64;
    let mut quick = false;
    let mut scenario = Scenario::Chaos;
    let mut out = String::from("BENCH_seedsweep.json");

    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--quick" => quick = true,
            "--seeds" => match args.next().and_then(|v| v.parse().ok()) {
                Some(v) => n = Some(v),
                None => return usage("--seeds requires a count"),
            },
            "--start" => match args.next().and_then(|v| v.parse().ok()) {
                Some(v) => start = v,
                None => return usage("--start requires a seed"),
            },
            "--scenario" => {
                match args.next().as_deref() {
                    Some("chaos") => scenario = Scenario::Chaos,
                    Some("partition") => scenario = Scenario::Partition,
                    Some("allreduce-adjust") => scenario = Scenario::AllreduceAdjust,
                    Some("churn") => scenario = Scenario::Churn,
                    _ => return usage(
                        "--scenario requires 'chaos', 'partition', 'allreduce-adjust', or 'churn'",
                    ),
                }
            }
            "--out" => match args.next() {
                Some(path) => out = path,
                None => return usage("--out requires a path"),
            },
            "--help" | "-h" => {
                eprintln!("{USAGE}");
                return ExitCode::SUCCESS;
            }
            other => return usage(&format!("unknown argument '{other}'")),
        }
    }
    let n = n.unwrap_or(if quick { QUICK_SEEDS } else { FULL_SEEDS });
    let mode = if quick { "quick" } else { "full" };

    let mut results = Vec::with_capacity(n as usize);
    for seed in start..start + n {
        let verdict = sweep_seed(seed, scenario);
        match &verdict {
            Verdict::Ok { hash } => eprintln!("seed {seed}: ok {hash:016x}"),
            Verdict::Divergent { hashes, .. } => eprintln!(
                "seed {seed}: DIVERGENT {:016x} != {:016x}",
                hashes.0, hashes.1
            ),
            Verdict::Failed { message, .. } => {
                eprintln!("seed {seed}: FAILED: {message}")
            }
        }
        results.push((seed, verdict));
    }

    let report = Report {
        mode,
        scenario,
        start,
        results,
    };
    let bad = report.bad_seeds();
    if let Err(e) = std::fs::write(&out, report.to_json()) {
        eprintln!("cannot write {out}: {e}");
        return ExitCode::FAILURE;
    }
    eprintln!(
        "wrote {out}: {} seeds, {} divergent/failed",
        report.results.len(),
        bad
    );
    if bad > 0 {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

const USAGE: &str = "usage: seedsweep [--quick] [--seeds N] [--start S] \
     [--scenario chaos|partition|allreduce-adjust|churn] [--out PATH]";

fn usage(msg: &str) -> ExitCode {
    eprintln!("error: {msg}");
    eprintln!("{USAGE}");
    ExitCode::FAILURE
}
