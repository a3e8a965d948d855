//! Persist-before-act lint (PERSIST_BEFORE_ACT).
//!
//! In AM adjustment paths (`elan-rt/src/runtime.rs`, `elan-rt/src/liveness.rs`)
//! a mutation of the durable AM record must reach the term-fenced shared
//! record (`persist(..)`) before any outgoing coordination send. Otherwise a crash
//! between the send and the persist leaves a replacement AM acting on a state
//! machine that never heard of the in-flight operation (§V-D).
//!
//! The check is a linear dirty-flag scan per function: a non-`let` assignment
//! statement mentioning `durable` left of the `=` sets the flag, `persist(`
//! clears it, and a bus send while dirty is a diagnostic. The AM code style
//! (persist immediately after the write block) keeps this precise; branches
//! that write-then-persist independently scan clean.

use crate::lexer::TokKind;
use crate::model::Workspace;
use crate::report::{rules, Diagnostic};

const SCOPE: [&str; 2] = ["elan-rt/src/runtime.rs", "elan-rt/src/liveness.rs"];
const SEND_RECEIVERS: [&str; 2] = ["bus", "rep"];
const ASSIGN_OPS: [&str; 9] = ["=", "+=", "-=", "*=", "/=", "%=", "&=", "|=", "^="];

pub fn run(ws: &Workspace) -> Vec<Diagnostic> {
    let mut diags = Vec::new();
    for file in &ws.files {
        if !ws.fixture_mode && !SCOPE.iter().any(|s| file.rel.ends_with(s)) {
            continue;
        }
        let toks = &file.toks;
        for f in &file.functions {
            if f.is_test {
                continue;
            }
            let mut dirty_line: Option<u32> = None;
            let mut stmt_start = f.body.start;
            let mut i = f.body.start;
            while i < f.body.end {
                let t = &toks[i];
                match t.text.as_str() {
                    ";" | "{" | "}" => {
                        stmt_start = i + 1;
                        i += 1;
                        continue;
                    }
                    _ => {}
                }
                // assignment that mutates the durable record
                let is_assign = (t.kind == TokKind::Punct || t.kind == TokKind::Op)
                    && ASSIGN_OPS.contains(&t.text.as_str());
                if is_assign {
                    let lhs = &toks[stmt_start..i];
                    let has_let = lhs.iter().any(|t| t.is_ident("let"));
                    let has_durable = lhs.iter().any(|t| t.is_ident("durable"));
                    if !has_let && has_durable {
                        dirty_line = Some(t.line);
                    }
                    i += 1;
                    continue;
                }
                // persist(..) flushes the record to the shared copy;
                // persist_fenced(..) is the term-checked wrapper around it
                // and flushes (or abdicates) just the same.
                if (t.is_ident("persist") || t.is_ident("persist_fenced"))
                    && i + 1 < f.body.end
                    && toks[i + 1].is("(")
                {
                    dirty_line = None;
                    i += 1;
                    continue;
                }
                // outgoing coordination send
                let is_named_send = (t.is_ident("send_envelope") || t.is_ident("send_unreliable"))
                    && i + 1 < f.body.end
                    && toks[i + 1].is("(");
                let is_method_send = t.is_ident("send")
                    && i + 1 < f.body.end
                    && toks[i + 1].is("(")
                    && i >= 2
                    && toks[i - 1].is(".")
                    && SEND_RECEIVERS.contains(&toks[i - 2].text.as_str());
                if is_named_send || is_method_send {
                    if let Some(wline) = dirty_line {
                        diags.push(Diagnostic::new(
                            rules::PERSIST_BEFORE_ACT,
                            file.rel.clone(),
                            t.line,
                            f.qual.clone(),
                            format!("durable write at line {wline}"),
                            format!(
                                "coordination send while the durable AM record is dirty \
                                 (written at line {wline}, not yet persisted)"
                            ),
                            "call self.ctrl.persist(&self.durable) before sending so a \
                             replacement AM recovers the in-flight operation",
                        ));
                        // one diagnostic per dirty region is enough
                        dirty_line = None;
                    }
                }
                i += 1;
            }
        }
    }
    diags
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::parse_source;

    fn ws(src: &str) -> Workspace {
        Workspace {
            files: vec![parse_source(src, "t.rs".into(), String::new())],
            fixture_mode: true,
            root: None,
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
}
