//! Blocking-under-lock detection (BLOCKING_UNDER_LOCK): no OS-blocking
//! operation — stream reads/writes, `join()`, `accept()`, condvar waits,
//! raw channel `recv` — may run while a mutex/rwlock guard is live,
//! whether the op is in the function itself or transitively reachable
//! through the call graph. This generalises LOCK_ACROSS_SEND from "bus
//! send under a guard" to "anything that can park the thread under a
//! guard": the socket hub's route-map lock plus a peer that stops
//! reading is exactly how an elastic adjustment wedges every other
//! connection (DESIGN.md §16).
//!
//! Two deliberate exemptions, both computed by the engine:
//! - An op whose *receiver* is the live guard itself (`s.write_all(..)`
//!   where `s = self.stream.lock()`) is the intended serialise-writers
//!   pattern; it is exempt *directly*, but the blocking effect still
//!   propagates to callers holding other locks.
//! - A condvar wait *releases* every guard named in its argument list
//!   (`cvar.wait(&mut st)`), so only the remaining guards count.

use crate::engine::{format_path, Engine, Hop};
use crate::model::Workspace;
use crate::report::{rules, Diagnostic};

const HINT: &str = "hoist the blocking op out of the critical section: clone what you \
     need out of the guard, drop it, then block (see DESIGN.md §16)";

pub fn run(ws: &Workspace, eng: &Engine) -> Vec<Diagnostic> {
    // Reach set: any blocking op counts, self-guard included — a
    // self-guard write still blocks callers holding other locks.
    let direct: Vec<Option<(String, u32)>> = eng
        .fns
        .iter()
        .map(|f| f.blocking.first().map(|b| (b.what.clone(), b.line)))
        .collect();
    let paths = eng.reach_paths(ws, &direct, &|_| false);

    let mut diags = Vec::new();
    for (idx, f) in eng.fns.iter().enumerate() {
        let rel = &ws.files[f.file].rel;
        // Direct ops under a live guard.
        for b in &f.blocking {
            if b.self_guard {
                continue;
            }
            let held: Vec<String> = b
                .holding
                .iter()
                .filter(|l| !b.released.contains(*l))
                .cloned()
                .collect();
            if held.is_empty() {
                continue;
            }
            diags.push(Diagnostic::new(
                rules::BLOCKING_UNDER_LOCK,
                rel.clone(),
                b.line,
                f.qual.clone(),
                held.join(","),
                format!(
                    "OS-blocking `{}` while holding lock(s) [{}]",
                    b.what,
                    held.join(", ")
                ),
                HINT,
            ));
        }
        // Transitive: a call under a guard whose callee reaches a blocking op.
        for c in &f.calls {
            if c.holding.is_empty() {
                continue;
            }
            for t in eng.resolve(ws, idx, c) {
                if t == idx {
                    continue;
                }
                let Some((hops, detail)) = &paths[t] else {
                    continue;
                };
                let mut full = vec![Hop {
                    file: rel.clone(),
                    qual: f.qual.clone(),
                    line: c.line,
                }];
                full.extend(hops.iter().cloned());
                diags.push(Diagnostic::new(
                    rules::BLOCKING_UNDER_LOCK,
                    rel.clone(),
                    c.line,
                    f.qual.clone(),
                    c.holding.join(","),
                    format!(
                        "OS-blocking `{detail}` reachable while holding lock(s) [{}]: {}",
                        c.holding.join(", "),
                        format_path(&full, detail)
                    ),
                    HINT,
                ));
                break; // one diagnostic per call site
            }
        }
    }
    diags
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
    fn direct_write_under_lock_fires() {
        let d = check(
            "struct S { routes: Mutex<u32>, sock: W }\n\
             impl S { fn f(&self) { let g = self.routes.lock(); self.sock.write_all(b); } }",
        );
        assert_eq!(d.len(), 1, "got {d:?}");
        assert!(d[0].message.contains("write_all"));
    }

    #[test]
    fn self_guard_write_is_exempt() {
        let d = check(
            "struct S { stream: Mutex<W> }\n\
             impl S { fn f(&self) { let mut s = self.stream.lock(); s.write_all(b); } }",
        );
        assert!(d.is_empty(), "serialised-writer pattern: {d:?}");
    }

    #[test]
    fn condvar_wait_on_own_guard_is_exempt() {
        let d = check(
            "struct S { state: Mutex<u32>, cvar: C }\n\
             impl S { fn f(&self) { let mut st = self.state.lock(); \
             self.cvar.wait(&mut st); } }",
        );
        assert!(d.is_empty(), "the wait releases st: {d:?}");
    }

    #[test]
    fn condvar_wait_holding_another_lock_fires() {
        let d = check(
            "struct S { state: Mutex<u32>, other: Mutex<u32>, cvar: C }\n\
             impl S { fn f(&self) { let o = self.other.lock(); \
             let mut st = self.state.lock(); self.cvar.wait(&mut st); } }",
        );
        assert_eq!(d.len(), 1, "got {d:?}");
        assert_eq!(d[0].detail, "other");
    }

    #[test]
    fn transitive_block_prints_path() {
        let d = check(
            "struct S { routes: Mutex<u32>, sock: W }\n\
             impl S {\n\
               fn relay(&self) { let g = self.routes.lock(); self.emit(); }\n\
               fn emit(&self) { self.sock.write_all(b); }\n\
             }",
        );
        assert_eq!(d.len(), 1, "got {d:?}");
        assert!(
            d[0].message.contains("`S::relay` (t.rs:3)"),
            "{}",
            d[0].message
        );
        assert!(
            d[0].message.contains("`S::emit` (t.rs:4)"),
            "{}",
            d[0].message
        );
    }

    #[test]
    fn self_guard_still_blocks_callers() {
        // write_frame's own stream lock is fine, but a caller holding the
        // uplink guard across the call is not.
        let d = check(
            "struct S { uplink: RwLock<W>, stream: Mutex<W> }\n\
             impl S {\n\
               fn relay(&self) { if let Some(u) = self.uplink.read().clone() \
                 { u.write_frame(m); } }\n\
               fn write_frame(&self, m: M) { let mut s = self.stream.lock(); \
                 s.write_all(b); }\n\
             }",
        );
        assert_eq!(d.len(), 1, "got {d:?}");
        assert_eq!(d[0].detail, "uplink");
    }

    #[test]
    fn no_lock_no_diag() {
        let d = check("fn f(sock: &mut W) { sock.write_all(b); }");
        assert!(d.is_empty(), "got {d:?}");
    }
}
