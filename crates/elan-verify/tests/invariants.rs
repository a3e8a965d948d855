//! End-to-end checks: the fixture suite behaves as declared and the real
//! workspace passes clean. This is the same gate CI's `invariants` job
//! runs via the binary; having it as a cargo test keeps
//! `cargo test --workspace` self-contained.

use std::path::{Path, PathBuf};

use elan_verify::report::rules;
use elan_verify::{run_all, self_test, Workspace};

fn repo_root() -> PathBuf {
    // crates/elan-verify -> crates -> repo root
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .expect("manifest dir has two ancestors")
        .to_path_buf()
}

#[test]
fn fixtures_fire_exactly_their_declared_rule() {
    let results = self_test(&repo_root()).expect("fixture suite runs");
    assert!(!results.is_empty(), "fixture suite must not be empty");
    for r in &results {
        assert!(
            r.pass,
            "fixture {} expected {:?} but fired {:?}",
            r.name, r.expected, r.fired
        );
    }
}

#[test]
fn workspace_is_clean() {
    let ws = Workspace::load(&repo_root()).expect("workspace loads");
    let diags = run_all(&ws).expect("all rules run");
    assert!(diags.is_empty(), "workspace has diagnostics:\n{diags:#?}");
}

#[test]
fn known_bad_fixture_is_not_clean() {
    // Guards against the checker rotting into a yes-machine: the seeded
    // lock-cycle fixture must keep producing a diagnostic when run raw.
    let path = repo_root().join("crates/elan-verify/fixtures/lock_cycle.rs");
    let ws = Workspace::load_fixture(&path).expect("fixture loads");
    let diags = run_all(&ws).expect("rules run");
    assert_eq!(diags.len(), 1, "got {diags:?}");
    assert_eq!(diags[0].rule, "LOCK_ORDER_CYCLE");
}

#[test]
fn every_rule_is_covered_by_a_fixture() {
    // Each rule needs a known-bad seed so it cannot silently stop firing
    // (for the interprocedural rules: the engine cannot silently stop
    // resolving calls).
    let results = self_test(&repo_root()).expect("fixture suite runs");
    let covered: Vec<&str> = results
        .iter()
        .flat_map(|r| r.expected.iter().map(String::as_str))
        .collect();
    for rule in rules::ALL {
        assert!(covered.contains(&rule), "no fixture covers {rule}");
    }
}

#[test]
fn reachability_diagnostics_print_call_paths() {
    // The path attribution is part of the contract: a transitive finding
    // must name every hop with file:line, not just the sink.
    let path = repo_root().join("crates/elan-verify/fixtures/blocking_under_lock.rs");
    let ws = Workspace::load_fixture(&path).expect("fixture loads");
    let diags = run_all(&ws).expect("rules run");
    assert_eq!(diags.len(), 1, "got {diags:?}");
    let msg = &diags[0].message;
    assert!(msg.contains("`Hub::relay` ("), "missing first hop: {msg}");
    assert!(msg.contains("`Hub::emit` ("), "missing second hop: {msg}");
    assert!(msg.contains("write_all"), "missing sink: {msg}");
}
