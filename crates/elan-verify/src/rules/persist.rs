//! Persist-before-act lint (PERSIST_BEFORE_ACT).
//!
//! In the AM (`elan-rt/src/am.rs`, the decision core, plus the control
//! plane in `elan-rt/src/runtime.rs` and `elan-rt/src/liveness.rs`) a
//! mutation of the durable AM record must reach the term-fenced shared
//! record (`persist(..)`) before any outgoing coordination send. Otherwise
//! a crash between the send and the persist leaves a replacement AM acting
//! on a state machine that never heard of the in-flight operation (§V-D).
//!
//! The check is a linear dirty-flag scan per function: a non-`let`
//! assignment statement mentioning `durable` left of the `=`, a `&mut`
//! borrow of a `durable` path, or a call to a same-file helper whose own
//! scan ends dirty sets the flag; `persist(`/`persist_fenced(` clears it;
//! and a send while dirty is a diagnostic. Sends are bus sends
//! (`rep.send`, `bus.send`, `send_envelope`, `send_unreliable`) and the
//! decision core's orders onto its action list (`out.send`). The AM code
//! style (persist right after the write block) keeps this precise;
//! branches that write-then-persist independently scan clean.
//!
//! Helpers are summarised to a fixpoint, so a core that factors its
//! record edits into a helper (`self.prune(w)`) is held to the same rule
//! as one that writes the fields inline.

use std::collections::BTreeSet;

use crate::lexer::{Tok, TokKind};
use crate::model::{FileModel, Function, Workspace};
use crate::report::{rules, Diagnostic};

const SCOPE: [&str; 3] = [
    "elan-rt/src/am.rs",
    "elan-rt/src/runtime.rs",
    "elan-rt/src/liveness.rs",
];
const SEND_RECEIVERS: [&str; 3] = ["bus", "rep", "out"];
const ASSIGN_OPS: [&str; 9] = ["=", "+=", "-=", "*=", "/=", "%=", "&=", "|=", "^="];

pub fn run(ws: &Workspace) -> Vec<Diagnostic> {
    let mut diags = Vec::new();
    for file in &ws.files {
        if !ws.fixture_mode && !SCOPE.iter().any(|s| file.rel.ends_with(s)) {
            continue;
        }
        let fns: Vec<&Function> = file.functions.iter().filter(|f| !f.is_test).collect();
        // Helpers that leave the record dirty for their caller to persist.
        let mut writers: BTreeSet<&str> = BTreeSet::new();
        loop {
            let before = writers.len();
            for f in &fns {
                if scan(file, f, &writers).1 {
                    writers.insert(&f.name);
                }
            }
            if writers.len() == before {
                break;
            }
        }
        for f in &fns {
            for (send_line, write_line) in scan(file, f, &writers).0 {
                diags.push(Diagnostic::new(
                    rules::PERSIST_BEFORE_ACT,
                    file.rel.clone(),
                    send_line,
                    f.qual.clone(),
                    format!("durable write at line {write_line}"),
                    format!(
                        "coordination send while the durable AM record is dirty \
                         (written at line {write_line}, not yet persisted)"
                    ),
                    "persist the record (persist / persist_fenced) before sending so \
                     a replacement AM recovers the in-flight operation",
                ));
            }
        }
    }
    diags
}

/// Scans one function body: `(send line, write line)` of every send
/// while dirty (one per dirty region), and whether the body ends dirty.
fn scan(file: &FileModel, f: &Function, writers: &BTreeSet<&str>) -> (Vec<(u32, u32)>, bool) {
    let toks = &file.toks;
    let call =
        |i: usize, name: &str| toks[i].is_ident(name) && i + 1 < f.body.end && toks[i + 1].is("(");
    let mut found = Vec::new();
    let mut dirty_line: Option<u32> = None;
    let mut stmt_start = f.body.start;
    for i in f.body.clone() {
        let t = &toks[i];
        if matches!(t.text.as_str(), ";" | "{" | "}") {
            stmt_start = i + 1;
            continue;
        }
        // assignment that mutates the durable record
        let is_assign = (t.kind == TokKind::Punct || t.kind == TokKind::Op)
            && ASSIGN_OPS.contains(&t.text.as_str());
        if is_assign {
            let lhs = &toks[stmt_start..i];
            if !lhs.iter().any(|t| t.is_ident("let")) && lhs.iter().any(|t| t.is_ident("durable")) {
                dirty_line = Some(t.line);
            }
            continue;
        }
        // `&mut self.durable.<field>`, or a call to a dirtying helper
        if (t.is("&") && mut_durable_path(&toks[i + 1..f.body.end]))
            || (t.kind == TokKind::Ident && writers.contains(t.text.as_str()) && call(i, &t.text))
        {
            dirty_line = Some(t.line);
            continue;
        }
        // persist(..) flushes the record to the shared copy;
        // persist_fenced(..) is the term-checked form and flushes (or
        // abdicates) just the same.
        if call(i, "persist") || call(i, "persist_fenced") {
            dirty_line = None;
            continue;
        }
        // outgoing coordination send
        let is_named_send = call(i, "send_envelope") || call(i, "send_unreliable");
        let is_method_send = call(i, "send")
            && i >= 2
            && toks[i - 1].is(".")
            && SEND_RECEIVERS.contains(&toks[i - 2].text.as_str());
        if is_named_send || is_method_send {
            // one diagnostic per dirty region is enough
            if let Some(write_line) = dirty_line.take() {
                found.push((t.line, write_line));
            }
        }
    }
    (found, dirty_line.is_some())
}

/// True if `rest` starts `mut <path>` where the path names `durable`.
fn mut_durable_path(rest: &[Tok]) -> bool {
    rest.first().is_some_and(|t| t.is_ident("mut"))
        && rest[1..]
            .iter()
            .take_while(|t| t.kind == TokKind::Ident || t.is("."))
            .any(|t| t.is_ident("durable"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::parse_source;

    fn ws(src: &str) -> Workspace {
        Workspace {
            files: vec![parse_source(src, "t.rs".into(), String::new())],
            fixture_mode: true,
        }
    }

    #[test]
    fn send_after_unpersisted_write_fires() {
        let d = run(&ws(
            "impl Am { fn f(&mut self) { self.durable.phase = Phase::X; \
             self.rep.send(1); } }",
        ));
        assert_eq!(d.len(), 1, "got {d:?}");
        assert_eq!(d[0].rule, rules::PERSIST_BEFORE_ACT);
    }

    #[test]
    fn persist_before_send_is_clean() {
        let d = run(&ws(
            "impl Am { fn f(&mut self) { self.durable.phase = Phase::X; \
             self.ctrl.persist(&self.durable); self.rep.send(1); } }",
        ));
        assert!(d.is_empty(), "got {d:?}");
    }

    #[test]
    fn fenced_persist_before_send_is_clean() {
        let d = run(&ws(
            "impl Am { fn f(&mut self) { self.durable.phase = Phase::X; \
             if self.persist_fenced() { return; } self.rep.send(1); } }",
        ));
        assert!(d.is_empty(), "got {d:?}");
    }

    #[test]
    fn read_of_durable_does_not_dirty() {
        let d = run(&ws(
            "impl Am { fn f(&mut self) { let m = self.durable.members.clone(); \
             self.rep.send(m); } }",
        ));
        assert!(d.is_empty(), "reads must not set the dirty flag: {d:?}");
    }

    #[test]
    fn send_before_write_is_clean() {
        let d = run(&ws(
            "impl Am { fn f(&mut self) { self.rep.send(1); \
             self.durable.phase = Phase::X; self.ctrl.persist(&self.durable); } }",
        ));
        assert!(d.is_empty(), "got {d:?}");
    }

    #[test]
    fn core_order_after_helper_write_fires() {
        let d = run(&ws(
            "impl Core { fn prune(&mut self) { if let Some(p) = &mut self.durable.pending { \
             p.target.clear(); } } \
             fn evict(&mut self, out: &mut Actions) { self.prune(); \
             out.send(to, RtMsg::Leave { term: 1 }); self.persist_fenced(out); } }",
        ));
        assert_eq!(d.len(), 1, "got {d:?}");
        assert_eq!(d[0].func, "Core::evict");
    }

    #[test]
    fn core_order_after_persist_is_clean() {
        let d = run(&ws(
            "impl Core { fn prune(&mut self) { if let Some(p) = &mut self.durable.pending { \
             p.target.clear(); } } \
             fn evict(&mut self, out: &mut Actions) { self.prune(); \
             if !self.persist_fenced(out) { return; } out.send(to, RtMsg::Leave { term: 1 }); } }",
        ));
        assert!(d.is_empty(), "got {d:?}");
    }
}
