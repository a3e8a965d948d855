//! `elan-verify`: static invariant checker for the elan workspace.
//!
//! Parses `crates/*/src` with a lightweight lexer (no rustc dependency — the
//! build environment is offline, same spirit as `third_party/`) and enforces
//! the invariants neither the Rust compiler nor clippy can see but the
//! paper's correctness story depends on:
//!
//! - **Lock-order analysis** (`LOCK_ORDER_CYCLE`, `LOCK_ACROSS_SEND`):
//!   acquisition sites per function, an inter-procedural lock graph, cycle
//!   detection, and no bus send while holding a guard (§V-B asynchronous
//!   coordination must never deadlock a live adjustment under chaos retries).
//! - **Protocol exhaustiveness** (`PROTOCOL_UNHANDLED_MSG`,
//!   `PROTOCOL_UNEMITTED_EVENT`, `PROTOCOL_UNCONSTRUCTED_ERROR`): every
//!   `RtMsg` variant dispatched, every `EventKind` emitted, every `ElanError`
//!   constructed.
//! - **Persist-before-act** (`PERSIST_BEFORE_ACT`): AM durable-record writes
//!   dominate outgoing coordination sends (§V-D fault tolerance).
//! - **Magic numbers** (`MAGIC_NUMBER`): reliability bounds live in named
//!   consts, not literals.
//! - **Blocking under lock** (`BLOCKING_UNDER_LOCK`): no OS-blocking op
//!   (stream IO, `join()`, `accept()`, condvar waits, raw `recv`) while a
//!   guard is live, directly or through the call graph (DESIGN.md §16).
//! - **Virtual-time safety** (`VIRTUAL_TIME_UNSAFE`): real blocking ops
//!   reachable from runtime entry points outside the virtual-dispatching
//!   modules hang the seeded scheduler (DESIGN.md §12/§16).
//! - **Term-fenced sends** (`TERM_FENCED_SEND`): AM-originated authority
//!   messages carry a fencing term and only flow on `persist_fenced`-
//!   guarded paths (DESIGN.md §13/§16).
//!
//! The lock, blocking, virtual-time, and fencing rules share one
//! interprocedural reachability engine ([`engine::Engine`]): a cross-crate
//! call graph, receiver-aware where the source names the impl and
//! name-based otherwise, with per-function effect sets and call-path
//! attribution, so diagnostics print every hop with file:line.
//!
//! Diagnostics carry `file:line`, an invariant ID, and a fix hint. There are
//! no waivers: a finding is fixed in code. Panic hygiene, the wall-clock ban
//! and socket confinement are clippy lints, not rules here (crate attributes
//! and the `clippy.toml` files). The wire format is pinned by the compiler
//! (the codec's one `wire_msgs!` table denies unreachable patterns) and by
//! the golden-frame corpus in `tests/golden_frames.rs`, not by a rule here.
//! See DESIGN.md §11/§16 for the rule catalogue.

#![forbid(unsafe_code)]

pub mod engine;
pub mod lexer;
pub mod model;
pub mod report;
pub mod rules {
    pub mod blocking;
    pub mod fence;
    pub mod locks;
    pub mod magic;
    pub mod persist;
    pub mod protocol;
    pub mod vtime;
}

use std::fs;
use std::path::{Path, PathBuf};

pub use model::Workspace;
pub use report::{render_json, render_text, Diagnostic};

/// Run every invariant class over the workspace (or fixture) and return the
/// diagnostics sorted by file, line, then rule.
pub fn run_all(ws: &Workspace) -> Result<Vec<Diagnostic>, String> {
    let eng = engine::Engine::build(ws);
    let mut diags = Vec::new();
    diags.extend(rules::locks::run(ws, &eng));
    diags.extend(rules::protocol::run(ws)?);
    diags.extend(rules::persist::run(ws));
    diags.extend(rules::magic::run(ws));
    diags.extend(rules::blocking::run(ws, &eng));
    diags.extend(rules::vtime::run(ws, &eng));
    diags.extend(rules::fence::run(ws, &eng));
    diags.sort_by(|a, b| (a.file.as_str(), a.line, a.rule).cmp(&(b.file.as_str(), b.line, b.rule)));
    Ok(diags)
}

/// Locate the workspace root by walking up from `start` until a directory
/// containing both `Cargo.toml` and `crates/` is found.
pub fn find_root(start: &Path) -> Option<PathBuf> {
    let mut dir = Some(start.to_path_buf());
    while let Some(d) = dir {
        if d.join("Cargo.toml").is_file() && d.join("crates").is_dir() {
            return Some(d);
        }
        dir = d.parent().map(|p| p.to_path_buf());
    }
    None
}

/// Outcome of `--self-test` for one fixture.
#[derive(Debug)]
pub struct FixtureResult {
    pub name: String,
    pub expected: Vec<String>,
    pub fired: Vec<String>,
    pub pass: bool,
}

/// Run the fixture suite: every `fixtures/*.rs` file declares its expected
/// rule(s) in `// expect: RULE_ID` header lines; each expected rule must fire
/// exactly once and no other rule may fire at all.
pub fn self_test(root: &Path) -> Result<Vec<FixtureResult>, String> {
    let dir = root.join("crates/elan-verify/fixtures");
    let mut paths: Vec<PathBuf> = fs::read_dir(&dir)
        .map_err(|e| format!("cannot read fixtures dir {}: {e}", dir.display()))?
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| p.extension().and_then(|e| e.to_str()) == Some("rs"))
        .collect();
    paths.sort();
    if paths.is_empty() {
        return Err(format!("no fixtures found in {}", dir.display()));
    }
    let mut results = Vec::new();
    for path in paths {
        let name = path
            .file_name()
            .and_then(|n| n.to_str())
            .unwrap_or("?")
            .to_string();
        let text = fs::read_to_string(&path)
            .map_err(|e| format!("cannot read fixture {}: {e}", path.display()))?;
        let expected: Vec<String> = text
            .lines()
            .filter_map(|l| l.trim().strip_prefix("// expect:"))
            .map(|s| s.trim().to_string())
            .collect();
        if expected.is_empty() {
            return Err(format!("fixture {name} has no `// expect: RULE_ID` header"));
        }
        for e in &expected {
            if !report::rules::ALL.contains(&e.as_str()) {
                return Err(format!("fixture {name} expects unknown rule {e:?}"));
            }
        }
        let ws = Workspace::load_fixture(&path)?;
        let diags = run_all(&ws)?;
        let fired: Vec<String> = diags.iter().map(|d| d.rule.to_string()).collect();
        let pass = expected
            .iter()
            .all(|e| fired.iter().filter(|f| f.as_str() == e.as_str()).count() == 1)
            && fired.iter().all(|f| expected.contains(f));
        results.push(FixtureResult {
            name,
            expected,
            fired,
            pass,
        });
    }
    Ok(results)
}
