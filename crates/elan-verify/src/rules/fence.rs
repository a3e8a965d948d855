//! Term-fenced sends (TERM_FENCED_SEND): the AM's split-brain defense
//! (PR 6) hinges on two facts about every authority-bearing message —
//! `Leave`, `Resume`, `AmReset`, `Park`, `StateChunk`:
//!
//! 1. the construction carries a fencing `term` field, so receivers can
//!    reject messages from a deposed AM, and
//! 2. the construction happens on a *fence-guarded* path: the enclosing
//!    function (or every caller chain into it) touches `persist_fenced`
//!    or checks the `fenced` flag before the message can reach the bus.
//!
//! Both halves are static: a missing `term` field is a direct diagnostic;
//! an unguarded path is found by propagating "reachable from a
//! non-fence-aware root" down the call graph, with the offending chain
//! printed hop by hop. Scope is the AM control plane — `runtime.rs` and
//! `liveness.rs` — where these variants are only ever built to be sent.
//! (The worker's `StateChunk` replies echo the term of the
//! `TransferOrder` that solicited them and are fenced by the AM side.)

use crate::engine::{format_path, Engine, Hop};
use crate::model::Workspace;
use crate::report::{rules, Diagnostic};

/// Authority-bearing variants that must flow a fencing term.
const FENCED_VARIANTS: &[&str] = &["Leave", "Resume", "AmReset", "Park", "StateChunk"];

fn in_scope(rel: &str, fixture: bool) -> bool {
    const SCOPE: [&str; 3] = [
        "elan-rt/src/am.rs",
        "elan-rt/src/runtime.rs",
        "elan-rt/src/liveness.rs",
    ];
    fixture || SCOPE.iter().any(|s| rel.ends_with(s))
}

pub fn run(ws: &Workspace, eng: &Engine) -> Vec<Diagnostic> {
    let n = eng.fns.len();
    // Caller chains from non-fence-aware roots. `unfenced[i]` holds the hop
    // chain (caller, call-site line) proving fn `i` is reachable without
    // passing a fence check; fence-aware functions stop propagation.
    let mut has_caller = vec![false; n];
    for idx in 0..n {
        for c in &eng.fns[idx].calls {
            for t in eng.resolve(ws, idx, &c.callee) {
                if t != idx {
                    has_caller[t] = true;
                }
            }
        }
    }
    let mut unfenced: Vec<Option<Vec<Hop>>> = (0..n)
        .map(|i| {
            if !has_caller[i] && !eng.fns[i].fence_aware {
                Some(Vec::new())
            } else {
                None
            }
        })
        .collect();
    loop {
        let mut assign: Vec<(usize, Vec<Hop>)> = Vec::new();
        for idx in 0..n {
            let Some(chain) = &unfenced[idx] else {
                continue;
            };
            for c in &eng.fns[idx].calls {
                for t in eng.resolve(ws, idx, &c.callee) {
                    if t == idx || eng.fns[t].fence_aware || unfenced[t].is_some() {
                        continue;
                    }
                    let mut path = chain.clone();
                    path.push(Hop {
                        file: ws.files[eng.fns[idx].file].rel.clone(),
                        qual: eng.fns[idx].qual.clone(),
                        line: c.line,
                    });
                    assign.push((t, path));
                }
            }
        }
        let mut changed = false;
        for (t, path) in assign {
            if unfenced[t].is_none() {
                unfenced[t] = Some(path);
                changed = true;
            }
        }
        if !changed {
            break;
        }
    }

    let mut diags = Vec::new();
    for (idx, f) in eng.fns.iter().enumerate() {
        let rel = &ws.files[f.file].rel;
        if !in_scope(rel, ws.fixture_mode) {
            continue;
        }
        for c in &f.constructions {
            if !FENCED_VARIANTS.contains(&c.variant.as_str()) {
                continue;
            }
            if !c.has_term {
                diags.push(Diagnostic::new(
                    rules::TERM_FENCED_SEND,
                    rel.clone(),
                    c.line,
                    f.qual.clone(),
                    c.variant.clone(),
                    format!(
                        "`RtMsg::{}` constructed without a fencing `term` field",
                        c.variant
                    ),
                    "authority-bearing messages must carry the AM's current term so \
                     receivers can reject a deposed AM (DESIGN.md §13/§16)",
                ));
                continue;
            }
            if let Some(chain) = &unfenced[idx] {
                let mut hops = chain.clone();
                hops.push(Hop {
                    file: rel.clone(),
                    qual: f.qual.clone(),
                    line: c.line,
                });
                diags.push(Diagnostic::new(
                    rules::TERM_FENCED_SEND,
                    rel.clone(),
                    c.line,
                    f.qual.clone(),
                    c.variant.clone(),
                    format!(
                        "`RtMsg::{}` can reach the bus without a `persist_fenced` \
                         guard: {}",
                        c.variant,
                        format_path(&hops, &format!("RtMsg::{}", c.variant))
                    ),
                    "persist the fencing term (persist_fenced) or check the fence \
                     before any path that constructs and sends this variant \
                     (DESIGN.md §13/§16)",
                ));
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
            root: None,
        };
        let eng = Engine::build(&ws);
        run(&ws, &eng)
    }

    #[test]
    fn missing_term_fires() {
        let d = check("fn f(bus: &B, z: Id) { bus.send(RtMsg::Leave { id: z }); }");
        assert_eq!(d.len(), 1, "got {d:?}");
        assert!(d[0].message.contains("without a fencing `term`"));
    }

    #[test]
    fn unfenced_path_fires_with_chain() {
        let d = check(
            "fn drive(bus: &B, t: u64) { emit(bus, t); }\n\
             fn emit(bus: &B, t: u64) { bus.send(RtMsg::Resume { term: t }); }",
        );
        assert_eq!(d.len(), 1, "got {d:?}");
        assert!(
            d[0].message.contains("`drive` (t.rs:1)"),
            "{}",
            d[0].message
        );
        assert!(d[0].message.contains("`emit` (t.rs:2)"), "{}", d[0].message);
    }

    #[test]
    fn fence_aware_constructor_is_clean() {
        let d = check(
            "impl Am { fn go(&mut self, t: u64) { self.persist_fenced(t); \
             self.bus.send(RtMsg::Resume { term: t }); } }",
        );
        assert!(d.is_empty(), "got {d:?}");
    }

    #[test]
    fn fence_aware_caller_guards_callee() {
        let d = check(
            "impl Am {\n\
               fn handle(&mut self, t: u64) { self.persist_fenced(t); self.emit(t); }\n\
               fn emit(&mut self, t: u64) { self.bus.send(RtMsg::Leave { id: z, term: t }); }\n\
             }",
        );
        assert!(
            d.is_empty(),
            "every chain into emit passes the fence: {d:?}"
        );
    }

    #[test]
    fn non_fenced_variants_are_ignored() {
        let d = check("fn f(bus: &B) { bus.send(RtMsg::Stop { id: z }); }");
        assert!(d.is_empty(), "got {d:?}");
    }

    #[test]
    fn pattern_matches_are_not_constructions() {
        let d = check("fn f(m: &RtMsg) -> bool { matches!(m, RtMsg::Leave { .. }) }");
        assert!(d.is_empty(), "got {d:?}");
    }

    #[test]
    fn initialising_the_latch_is_not_a_fence_check() {
        let d = check(
            "impl Am { fn start(out: &mut A, t: u64) -> Am { \
             out.send(RtMsg::AmReset { term: t }); Am { fenced: false } } }",
        );
        assert_eq!(d.len(), 1, "got {d:?}");
    }

    #[test]
    fn term_bump_guards_the_constructor() {
        let d = check(
            "fn drive(c: &C, out: &mut A) { let r = c.bump_term(1); incarnate(r, out); }\n\
             fn incarnate(r: R, out: &mut A) { out.send(RtMsg::AmReset { term: r.term }); }",
        );
        assert!(d.is_empty(), "the term bump guards incarnate: {d:?}");
    }
}
