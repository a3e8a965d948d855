//! Open-membership churn stress: a scripted join/leave/crash storm over
//! the epoch machine (DESIGN.md §17), sized to thousands of members on
//! virtual time.
//!
//! The storm itself is [`elan_rt::epoch::run_churn`] — a pure function
//! of its config — so the bench's job is to size it (10 000 identities
//! by default), run it twice, and prove three things:
//!
//! 1. **determinism** — both runs produce the same journal hash,
//! 2. **safety** — the journal audit passes over the retained journal
//!    of every run (a churn journal holds only epoch events, so this is
//!    the audit's open-membership family),
//! 3. **speed** — the whole thing fits the wall-clock budget
//!    ([`WALL_BUDGET_MS`]), which [`validate_json`] enforces on the
//!    emitted `BENCH_churn.json` so CI trips if the storm ever slows
//!    into the minutes.
//!
//! Like the dataplane report, the JSON emitter is a few `format!`s and
//! validation reuses the in-crate recursive-descent parser — no
//! external dependencies.

use std::time::Instant;

use elan_rt::epoch::{run_churn, ChurnConfig};
use elan_rt::safety::audit;

use crate::dataplane::{parse_json, Json};

/// Wall-clock budget for the whole bench (all runs), in milliseconds.
/// The 10k-member storm must stay interactive — this is a stress test
/// of the machine's bookkeeping, not a soak.
pub const WALL_BUDGET_MS: u64 = 30_000;

/// A full churn-bench run, serializable to `BENCH_churn.json`.
#[derive(Debug, Clone)]
pub struct Report {
    /// Member population of the storm.
    pub population: u32,
    /// Seed of the storm.
    pub seed: u64,
    /// Simulation steps per run.
    pub steps: u64,
    /// Virtual milliseconds covered per run.
    pub virtual_ms: u64,
    /// Identical runs executed (≥ 2 proves determinism).
    pub runs: u32,
    /// Wall-clock total across all runs, ms.
    pub wall_ms: u64,
    /// All runs produced the same journal hash.
    pub deterministic: bool,
    /// The (shared) journal hash, as `0x…` hex.
    pub journal_hash: u64,
    /// The journal audit's verdict over every run's journal.
    pub epoch_safety_ok: bool,
    /// `Train` phases entered (epochs that actually trained).
    pub epochs_trained: u64,
    /// Joiners admitted by witness vote.
    pub admitted: u64,
    /// Joiners evicted by witness vote or warmup timeout.
    pub evicted: u64,
    /// Join attempts deferred to a later epoch.
    pub deferred: u64,
    /// Announces/claims swallowed by scripted partition windows.
    pub partitioned: u64,
    /// Voluntary leaves scripted.
    pub leaves: u64,
    /// Crashes scripted.
    pub crashes: u64,
    /// Peak concurrent membership.
    pub peak_members: usize,
}

/// Runs the storm `runs` times and folds the evidence into a [`Report`].
///
/// The report is only as good as its checks: `deterministic` is the
/// cross-run hash comparison and `epoch_safety_ok` is the audit over
/// every run's retained journal — both are also hard-required by
/// [`validate_json`], so an emitted report that failed either cannot
/// pass the CI smoke gate.
pub fn run(population: u32, seed: u64, runs: u32, mut progress: impl FnMut(&str)) -> Report {
    assert!(runs >= 1, "need at least one run");
    let cfg = ChurnConfig::sized(population, seed);
    let t0 = Instant::now();
    let mut reports = Vec::new();
    let mut safety_ok = true;
    for r in 0..runs {
        let rep = run_churn(&cfg);
        let verdict = audit(&rep.events);
        if !verdict.is_safe() {
            progress(&format!("run {r}: epoch-safety VIOLATION: {verdict}"));
            safety_ok = false;
        }
        progress(&format!(
            "run {r}: pop={} steps={} virtual={}ms hash={:#018x} admitted={} evicted={} deferred={} epochs={} peak={}",
            rep.population, rep.steps, rep.virtual_ms, rep.journal_hash,
            rep.admitted, rep.evicted, rep.deferred, rep.epochs_trained, rep.peak_members
        ));
        reports.push(rep);
    }
    let wall_ms = t0.elapsed().as_millis().min(u128::from(u64::MAX)) as u64;
    let deterministic = reports
        .iter()
        .all(|r| r.journal_hash == reports[0].journal_hash);
    let first = &reports[0];
    Report {
        population,
        seed,
        steps: first.steps,
        virtual_ms: first.virtual_ms,
        runs,
        wall_ms,
        deterministic,
        journal_hash: first.journal_hash,
        epoch_safety_ok: safety_ok,
        epochs_trained: first.epochs_trained,
        admitted: first.admitted,
        evicted: first.evicted,
        deferred: first.deferred,
        partitioned: first.partitioned,
        leaves: first.leaves,
        crashes: first.crashes,
        peak_members: first.peak_members,
    }
}

impl Report {
    /// Serializes the report as pretty-printed JSON (schema version 1).
    ///
    /// `journal_hash` is emitted as a hex *string*: the validator's JSON
    /// numbers are `f64`, which cannot hold a full 64-bit hash.
    pub fn to_json(&self) -> String {
        let mut s = String::new();
        s.push_str("{\n");
        s.push_str("  \"schema_version\": 1,\n");
        s.push_str(&format!("  \"population\": {},\n", self.population));
        s.push_str(&format!("  \"seed\": {},\n", self.seed));
        s.push_str(&format!("  \"steps\": {},\n", self.steps));
        s.push_str(&format!("  \"virtual_ms\": {},\n", self.virtual_ms));
        s.push_str(&format!("  \"runs\": {},\n", self.runs));
        s.push_str(&format!("  \"wall_ms\": {},\n", self.wall_ms));
        s.push_str(&format!("  \"deterministic\": {},\n", self.deterministic));
        s.push_str(&format!(
            "  \"journal_hash\": \"{:#018x}\",\n",
            self.journal_hash
        ));
        s.push_str(&format!(
            "  \"epoch_safety\": \"{}\",\n",
            if self.epoch_safety_ok {
                "ok"
            } else {
                "violated"
            }
        ));
        s.push_str(&format!("  \"epochs_trained\": {},\n", self.epochs_trained));
        s.push_str(&format!("  \"admitted\": {},\n", self.admitted));
        s.push_str(&format!("  \"evicted\": {},\n", self.evicted));
        s.push_str(&format!("  \"deferred\": {},\n", self.deferred));
        s.push_str(&format!("  \"partitioned\": {},\n", self.partitioned));
        s.push_str(&format!("  \"leaves\": {},\n", self.leaves));
        s.push_str(&format!("  \"crashes\": {},\n", self.crashes));
        s.push_str(&format!("  \"peak_members\": {}\n", self.peak_members));
        s.push_str("}\n");
        s
    }
}

/// Validates a `BENCH_churn.json` document: schema keys present and
/// well-typed, the storm non-trivial (members joined *and* trained),
/// `deterministic` true, `epoch_safety` `"ok"`, and the wall time
/// within [`WALL_BUDGET_MS`].
///
/// # Errors
///
/// Returns a description of the first schema violation.
pub fn validate_json(text: &str) -> Result<(), String> {
    let doc = parse_json(text)?;
    let num = |key: &str| -> Result<f64, String> {
        let v = doc
            .get(key)
            .and_then(Json::as_num)
            .ok_or_else(|| format!("missing numeric key {key:?}"))?;
        if v.is_finite() && v >= 0.0 {
            Ok(v)
        } else {
            Err(format!(
                "key {key:?} must be non-negative and finite, got {v}"
            ))
        }
    };
    let schema = num("schema_version")?;
    if schema != 1.0 {
        return Err(format!("bad schema_version {schema} (need 1)"));
    }
    for key in ["population", "steps", "virtual_ms", "runs"] {
        if num(key)? < 1.0 {
            return Err(format!("key {key:?} must be >= 1"));
        }
    }
    num("seed")?;
    for key in [
        "admitted",
        "evicted",
        "deferred",
        "partitioned",
        "leaves",
        "crashes",
    ] {
        num(key)?;
    }
    // A storm where nobody was admitted or no epoch trained measured
    // nothing — reject rather than let a dead harness look green.
    if num("admitted")? < 1.0 {
        return Err("storm admitted nobody".into());
    }
    if num("epochs_trained")? < 1.0 {
        return Err("storm never entered Train".into());
    }
    if num("peak_members")? < 1.0 {
        return Err("membership never grew".into());
    }
    let wall = num("wall_ms")?;
    if wall > WALL_BUDGET_MS as f64 {
        return Err(format!(
            "wall_ms {wall} exceeds the {WALL_BUDGET_MS} ms budget"
        ));
    }
    match doc.get("deterministic") {
        Some(Json::Bool(true)) => {}
        other => return Err(format!("deterministic must be true, got {other:?}")),
    }
    match doc.get("epoch_safety") {
        Some(Json::Str(s)) if s == "ok" => {}
        other => return Err(format!("epoch_safety must be \"ok\", got {other:?}")),
    }
    match doc.get("journal_hash") {
        Some(Json::Str(h)) if h.starts_with("0x") && h.len() == 18 => {}
        other => return Err(format!("bad journal_hash: {other:?}")),
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_storm_emits_valid_json() {
        let report = run(200, 11, 2, |_| {});
        assert!(report.deterministic, "same config, different journals");
        assert!(report.epoch_safety_ok);
        validate_json(&report.to_json()).expect("emitted JSON validates");
    }

    #[test]
    fn validator_rejects_broken_documents() {
        assert!(validate_json("{}").is_err());
        assert!(validate_json("not json").is_err());
        let good = run(200, 12, 1, |_| {}).to_json();
        validate_json(&good).expect("fixture validates");
        // A non-deterministic run must not validate.
        let bad = good.replace("\"deterministic\": true", "\"deterministic\": false");
        assert!(validate_json(&bad).unwrap_err().contains("deterministic"));
        // A safety violation must not validate.
        let bad = good.replace("\"epoch_safety\": \"ok\"", "\"epoch_safety\": \"violated\"");
        assert!(validate_json(&bad).unwrap_err().contains("epoch_safety"));
        // Blowing the wall budget must not validate.
        let wall = format!("\"wall_ms\": {}", WALL_BUDGET_MS + 1);
        let bad = regex_free_wall_replace(&good, &wall);
        assert!(validate_json(&bad).unwrap_err().contains("budget"));
        // An inert storm must not validate.
        let bad = regex_free_admitted_replace(&good, "\"admitted\": 0");
        assert!(validate_json(&bad).unwrap_err().contains("admitted nobody"));
    }

    /// Replaces the `wall_ms` line whatever its measured value was.
    fn regex_free_wall_replace(doc: &str, with: &str) -> String {
        splice_line(doc, "\"wall_ms\":", with)
    }

    /// Replaces the `admitted` line whatever its measured value was.
    fn regex_free_admitted_replace(doc: &str, with: &str) -> String {
        splice_line(doc, "\"admitted\":", with)
    }

    fn splice_line(doc: &str, key: &str, with: &str) -> String {
        doc.lines()
            .map(|l| {
                if l.trim_start().starts_with(key) {
                    let comma = if l.trim_end().ends_with(',') { "," } else { "" };
                    format!("  {with}{comma}")
                } else {
                    l.to_string()
                }
            })
            .collect::<Vec<_>>()
            .join("\n")
    }

    #[test]
    fn same_seed_same_hash_across_processes_worth_of_runs() {
        let a = run(150, 77, 1, |_| {});
        let b = run(150, 77, 1, |_| {});
        assert_eq!(a.journal_hash, b.journal_hash);
        assert_eq!(a.admitted, b.admitted);
    }
}
