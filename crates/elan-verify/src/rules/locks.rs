//! Lock-order analysis (LOCK_ORDER_CYCLE) and lock-across-send detection
//! (LOCK_ACROSS_SEND), built on the shared reachability engine.
//!
//! Heuristics, documented in DESIGN.md §11/§16:
//! - A lock's identity is the field/binding name receiving `.lock()` (always
//!   counted — only `Mutex` exposes an argument-free `.lock()`), or
//!   `.read()`/`.write()` when the receiver is a field declared `RwLock<..>`
//!   anywhere in the workspace. Same-named fields unify into one node; this
//!   matches the codebase (e.g. `SharedControl::members` touched from both
//!   `am/driver.rs` and `runtime.rs`) at the cost of merging unrelated locks
//!   that share a name.
//! - `let`-bound guards are held until their block closes, `drop(guard)`, or
//!   rebinding; temporaries are held until the end of their statement (`;` at
//!   or above the acquisition depth, or the close of a block opened after the
//!   acquisition — which models `match scrutinee.lock() { .. }` correctly,
//!   including `if let .. else` where the scrutinee outlives both branches).
//! - The call graph is name-based, same-crate preferred with a cross-crate
//!   fallback ([`Engine::resolve`]); a function's transitive lock set flows
//!   to its callers via fixpoint, producing `held -> callee's locks` edges.
//! - A bus send is `send_envelope(..)`, `send_unreliable(..)`, or `.send(..)`
//!   on a receiver named `bus`/`rep` (plain channel `tx.send` is not a bus
//!   send). Sending while holding any lock — directly or via a callee that
//!   transitively sends — is a diagnostic.

use std::collections::{BTreeMap, BTreeSet};

use crate::engine::Engine;
use crate::model::Workspace;
use crate::report::{rules, Diagnostic};

pub fn run(ws: &Workspace, eng: &Engine) -> Vec<Diagnostic> {
    // Fixpoint: transitive lock sets and transitive send flags over the
    // call graph. Propagation follows *every* call site (a lock-free helper
    // that itself locks still contributes to its callers' lock sets).
    let n = eng.fns.len();
    let mut trans_locks: Vec<BTreeSet<String>> =
        eng.fns.iter().map(|i| i.acquired.clone()).collect();
    let mut trans_sends: Vec<bool> = eng.fns.iter().map(|i| i.sends_any).collect();
    loop {
        let mut changed = false;
        for idx in 0..n {
            for c in &eng.fns[idx].calls {
                for g in eng.resolve(ws, idx, c) {
                    if g == idx {
                        continue;
                    }
                    let add: Vec<String> = trans_locks[g]
                        .iter()
                        .filter(|l| !trans_locks[idx].contains(*l))
                        .cloned()
                        .collect();
                    if !add.is_empty() {
                        trans_locks[idx].extend(add);
                        changed = true;
                    }
                    if trans_sends[g] && !trans_sends[idx] {
                        trans_sends[idx] = true;
                        changed = true;
                    }
                }
            }
        }
        if !changed {
            break;
        }
    }

    // Edge set: direct edges plus call-derived edges (held -> callee locks).
    // first site wins for attribution.
    let mut edges: BTreeMap<(String, String), (usize, u32, String)> = BTreeMap::new();
    let mut diags = Vec::new();
    for (idx, info) in eng.fns.iter().enumerate() {
        for (a, b, line) in &info.edges {
            edges.entry((a.clone(), b.clone())).or_insert((
                info.file,
                *line,
                format!("acquired in `{}`", info.qual),
            ));
        }
        for c in &info.calls {
            for g in eng.resolve(ws, idx, c) {
                if g == idx {
                    continue;
                }
                for l in &trans_locks[g] {
                    for h in &c.holding {
                        if h != l {
                            edges.entry((h.clone(), l.clone())).or_insert((
                                info.file,
                                c.line,
                                format!("`{}` calls `{}` which locks `{l}`", info.qual, c.callee),
                            ));
                        }
                    }
                }
                if trans_sends[g] && !c.holding.is_empty() {
                    diags.push(Diagnostic::new(
                        rules::LOCK_ACROSS_SEND,
                        ws.files[info.file].rel.clone(),
                        c.line,
                        info.qual.clone(),
                        c.holding.join(","),
                        format!(
                            "bus send reachable via `{}` while holding lock(s) [{}]",
                            c.callee,
                            c.holding.join(", ")
                        ),
                        "release the guard (drop(..) or end the scope) before sending; a \
                         chaos-injected resend can block on the held lock",
                    ));
                }
            }
        }
        for (line, holding) in &info.sends {
            diags.push(Diagnostic::new(
                rules::LOCK_ACROSS_SEND,
                ws.files[info.file].rel.clone(),
                *line,
                info.qual.clone(),
                holding.join(","),
                format!("bus send while holding lock(s) [{}]", holding.join(", ")),
                "release the guard (drop(..) or end the scope) before sending; a \
                 chaos-injected resend can block on the held lock",
            ));
        }
    }

    // Cycle detection over the lock graph.
    for cycle in find_cycles(&edges) {
        // Attribute the cycle to the edge closing it.
        let closing = (cycle[cycle.len() - 1].clone(), cycle[0].clone());
        let (file, line, ctx) = edges
            .get(&closing)
            .cloned()
            .unwrap_or((0, 0, String::new()));
        let path = {
            let mut p = cycle.clone();
            p.push(cycle[0].clone());
            p.join(" -> ")
        };
        diags.push(Diagnostic::new(
            rules::LOCK_ORDER_CYCLE,
            ws.files[file].rel.clone(),
            line,
            String::new(),
            path.clone(),
            if cycle.len() == 1 {
                format!("lock `{}` re-acquired while already held ({ctx})", cycle[0])
            } else {
                format!("lock acquisition cycle {path} ({ctx})")
            },
            "pick one global acquisition order for these locks and restructure the \
             offending path to follow it",
        ));
    }
    diags
}

/// All elementary cycles reachable in the edge set, canonicalised (rotated so
/// the lexicographically smallest lock comes first) and deduplicated.
fn find_cycles(edges: &BTreeMap<(String, String), (usize, u32, String)>) -> Vec<Vec<String>> {
    let mut adj: BTreeMap<&str, Vec<&str>> = BTreeMap::new();
    let mut nodes: BTreeSet<&str> = BTreeSet::new();
    for (a, b) in edges.keys() {
        adj.entry(a).or_default().push(b);
        nodes.insert(a);
        nodes.insert(b);
    }
    let mut found: BTreeSet<Vec<String>> = BTreeSet::new();
    // DFS from each node; path-based cycle extraction.
    for &start in &nodes {
        let mut path: Vec<&str> = Vec::new();
        let mut on_path: BTreeSet<&str> = BTreeSet::new();
        let mut visited: BTreeSet<&str> = BTreeSet::new();
        dfs(
            start,
            &adj,
            &mut path,
            &mut on_path,
            &mut visited,
            &mut found,
        );
    }
    found.into_iter().collect()
}

fn dfs<'a>(
    node: &'a str,
    adj: &BTreeMap<&'a str, Vec<&'a str>>,
    path: &mut Vec<&'a str>,
    on_path: &mut BTreeSet<&'a str>,
    visited: &mut BTreeSet<&'a str>,
    found: &mut BTreeSet<Vec<String>>,
) {
    path.push(node);
    on_path.insert(node);
    for &next in adj.get(node).map(|v| v.as_slice()).unwrap_or(&[]) {
        if next == node {
            // self-loop
            found.insert(vec![node.to_string()]);
            continue;
        }
        if on_path.contains(next) {
            // extract cycle from path
            if let Some(pos) = path.iter().position(|&n| n == next) {
                let cycle: Vec<String> = path[pos..].iter().map(|s| s.to_string()).collect();
                found.insert(canonical(cycle));
            }
            continue;
        }
        if !visited.contains(next) {
            dfs(next, adj, path, on_path, visited, found);
        }
    }
    on_path.remove(node);
    path.pop();
    visited.insert(node);
}

fn canonical(cycle: Vec<String>) -> Vec<String> {
    if cycle.is_empty() {
        return cycle;
    }
    let min_pos = cycle
        .iter()
        .enumerate()
        .min_by_key(|(_, s)| s.as_str())
        .map(|(i, _)| i)
        .unwrap_or(0);
    let mut out = Vec::with_capacity(cycle.len());
    out.extend_from_slice(&cycle[min_pos..]);
    out.extend_from_slice(&cycle[..min_pos]);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::parse_source;

    fn check(src: &str) -> Vec<Diagnostic> {
        let ws = Workspace {
            files: vec![parse_source(src, "t.rs".into(), "t".into())],
            fixture_mode: true,
        };
        let eng = Engine::build(&ws);
        run(&ws, &eng)
    }

    #[test]
    fn detects_direct_cycle() {
        let d = check(
            "struct S { a: Mutex<u32>, b: Mutex<u32> }\n\
             impl S {\n\
               fn f(&self) { let g = self.a.lock(); let h = self.b.lock(); }\n\
               fn g(&self) { let g = self.b.lock(); let h = self.a.lock(); }\n\
             }",
        );
        assert!(
            d.iter().any(|d| d.rule == rules::LOCK_ORDER_CYCLE),
            "expected a cycle, got {d:?}"
        );
    }

    #[test]
    fn consistent_order_is_clean() {
        let d = check(
            "struct S { a: Mutex<u32>, b: Mutex<u32> }\n\
             impl S {\n\
               fn f(&self) { let g = self.a.lock(); let h = self.b.lock(); }\n\
               fn g(&self) { let g = self.a.lock(); let h = self.b.lock(); }\n\
             }",
        );
        assert!(d.is_empty(), "got {d:?}");
    }

    #[test]
    fn drop_releases_guard() {
        let d = check(
            "struct S { a: Mutex<u32>, rep: R }\n\
             impl S { fn f(&self) { let g = self.a.lock(); drop(g); self.rep.send(1); } }",
        );
        assert!(d.is_empty(), "got {d:?}");
    }

    #[test]
    fn send_under_lock_fires() {
        let d = check(
            "struct S { a: Mutex<u32>, rep: R }\n\
             impl S { fn f(&self) { let g = self.a.lock(); self.rep.send(1); } }",
        );
        assert_eq!(
            d.iter()
                .filter(|d| d.rule == rules::LOCK_ACROSS_SEND)
                .count(),
            1,
            "got {d:?}"
        );
    }

    #[test]
    fn temp_guard_released_at_statement_end() {
        let d = check(
            "struct S { a: Mutex<u32>, rep: R }\n\
             impl S { fn f(&self) { self.a.lock().push(1); self.rep.send(1); } }",
        );
        assert!(d.is_empty(), "got {d:?}");
    }

    #[test]
    fn interprocedural_cycle() {
        let d = check(
            "struct S { a: Mutex<u32>, b: Mutex<u32> }\n\
             impl S {\n\
               fn f(&self) { let g = self.a.lock(); self.takes_b(); }\n\
               fn takes_b(&self) { let g = self.b.lock(); }\n\
               fn h(&self) { let g = self.b.lock(); let k = self.a.lock(); }\n\
             }",
        );
        assert!(
            d.iter().any(|d| d.rule == rules::LOCK_ORDER_CYCLE),
            "expected interprocedural cycle, got {d:?}"
        );
    }

    #[test]
    fn lock_free_helper_still_propagates_locks() {
        // `mid` holds nothing at its call to `leaf`, but `leaf` locks `b`;
        // `f` holding `a` calls `mid`, so the edge a -> b must still appear.
        let d = check(
            "struct S { a: Mutex<u32>, b: Mutex<u32> }\n\
             impl S {\n\
               fn f(&self) { let g = self.a.lock(); self.mid(); }\n\
               fn mid(&self) { self.leaf(); }\n\
               fn leaf(&self) { let g = self.b.lock(); }\n\
               fn h(&self) { let g = self.b.lock(); let k = self.a.lock(); }\n\
             }",
        );
        assert!(
            d.iter().any(|d| d.rule == rules::LOCK_ORDER_CYCLE),
            "expected cycle through the lock-free helper, got {d:?}"
        );
    }

    #[test]
    fn channel_send_is_not_bus_send() {
        let d = check(
            "struct S { a: Mutex<u32> }\n\
             impl S { fn f(&self, tx: Sender<u32>) { let g = self.a.lock(); tx.send(1); } }",
        );
        assert!(d.is_empty(), "got {d:?}");
    }
}
