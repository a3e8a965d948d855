//! Protocol exhaustiveness (PROTOCOL_UNHANDLED_MSG, PROTOCOL_UNEMITTED_EVENT,
//! PROTOCOL_UNCONSTRUCTED_ERROR).
//!
//! - Every `RtMsg` variant (defined in `elan-core/src/protocol.rs`) must appear in
//!   *pattern position* (`match` arm, `matches!`, `if let`) somewhere in
//!   non-test `elan-rt` code — an unmatched variant is a message the runtime
//!   can receive but never dispatches or acks (§V-B).
//! - Every `EventKind` variant (`elan-rt/src/obs.rs`) must be constructed in
//!   non-test code at least once; dead taxonomy entries rot the journal.
//! - Every `ElanError` variant must be constructed somewhere in the
//!   workspace; a variant nothing raises is removed, not reserved.

use crate::model::{EnumDef, Workspace};
use crate::report::{rules, Diagnostic};

struct EnumRule {
    enum_name: &'static str,
    /// File suffix the enum must live in (ignored in fixture mode).
    def_file: &'static str,
    /// Restrict the use-site search to this crate ("" = whole workspace).
    use_crate: &'static str,
    /// true = variant must appear in pattern position (matched);
    /// false = variant must appear in expression position (constructed).
    want_pattern: bool,
    rule: &'static str,
    message: &'static str,
    hint: &'static str,
}

const ENUM_RULES: [EnumRule; 3] = [
    EnumRule {
        enum_name: "RtMsg",
        def_file: "elan-core/src/protocol.rs",
        use_crate: "elan-rt",
        want_pattern: true,
        rule: rules::PROTOCOL_UNHANDLED_MSG,
        message: "is never matched in runtime/worker dispatch",
        hint: "add a match arm (and ack path) for this message, or remove the variant",
    },
    EnumRule {
        enum_name: "EventKind",
        def_file: "elan-rt/src/obs.rs",
        use_crate: "elan-rt",
        want_pattern: false,
        rule: rules::PROTOCOL_UNEMITTED_EVENT,
        message: "is never emitted by non-test code",
        hint: "emit the event at the relevant instrumentation point, or remove the variant",
    },
    EnumRule {
        enum_name: "ElanError",
        def_file: "elan-core/src/error.rs",
        use_crate: "",
        want_pattern: false,
        rule: rules::PROTOCOL_UNCONSTRUCTED_ERROR,
        message: "is never constructed",
        hint: "construct it on the failing path, or remove the variant",
    },
];

pub fn run(ws: &Workspace) -> Result<Vec<Diagnostic>, String> {
    let mut diags = Vec::new();
    for er in &ENUM_RULES {
        let def = find_enum(ws, er);
        let (def_file_rel, e) = match def {
            Some(x) => x,
            None if ws.fixture_mode => continue, // fixture doesn't exercise this rule
            None => {
                return Err(format!(
                    "protocol rule misconfigured: enum `{}` not found in {}",
                    er.enum_name, er.def_file
                ));
            }
        };
        for (variant, vline) in &e.variants {
            let mut seen = false;
            'files: for file in &ws.files {
                if !ws.fixture_mode && !er.use_crate.is_empty() && file.crate_name != er.use_crate {
                    continue;
                }
                // look for `Enum :: Variant` at the right position class
                for i in 0..file.toks.len().saturating_sub(2) {
                    if file.toks[i].is_ident(er.enum_name)
                        && file.toks[i + 1].is("::")
                        && file.toks[i + 2].is_ident(variant)
                        && !file.is_test_at(i)
                        && file.in_pattern(i + 2) == er.want_pattern
                    {
                        seen = true;
                        break 'files;
                    }
                }
            }
            if !seen {
                diags.push(Diagnostic::new(
                    er.rule,
                    def_file_rel.clone(),
                    *vline,
                    String::new(),
                    variant.clone(),
                    format!("`{}::{variant}` {}", er.enum_name, er.message),
                    er.hint,
                ));
            }
        }
    }
    Ok(diags)
}

fn find_enum<'a>(ws: &'a Workspace, er: &EnumRule) -> Option<(String, &'a EnumDef)> {
    for file in &ws.files {
        if !ws.fixture_mode && !file.rel.ends_with(er.def_file) {
            continue;
        }
        if let Some(e) = file.enums.iter().find(|e| e.name == er.enum_name) {
            return Some((file.rel.clone(), e));
        }
    }
    None
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
    fn unmatched_rtmsg_variant_fires() {
        let d = run(&ws("enum RtMsg { Ping, Pong }\n\
             fn dispatch(m: RtMsg) { match m { RtMsg::Ping => {} _ => {} } }"))
        .expect("configured");
        assert_eq!(d.len(), 1, "got {d:?}");
        assert_eq!(d[0].rule, rules::PROTOCOL_UNHANDLED_MSG);
        assert_eq!(d[0].detail, "Pong");
    }

    #[test]
    fn construction_does_not_count_as_match() {
        let d = run(&ws("enum RtMsg { Ping }\n\
             fn f() -> RtMsg { RtMsg::Ping }"))
        .expect("configured");
        assert_eq!(d.len(), 1, "construction is not dispatch: {d:?}");
    }

    #[test]
    fn unemitted_event_fires_and_name_match_does_not_count() {
        let d = run(&ws(
            "enum EventKind { A, B }\n\
             fn emit() { sink(EventKind::A); }\n\
             fn name(k: &EventKind) -> &str { match k { EventKind::A => \"a\", EventKind::B => \"b\" } }",
        ))
        .expect("configured");
        assert_eq!(d.len(), 1, "got {d:?}");
        assert_eq!(d[0].rule, rules::PROTOCOL_UNEMITTED_EVENT);
        assert_eq!(d[0].detail, "B");
    }

    #[test]
    fn test_only_uses_do_not_count() {
        let d = run(&ws(
            "enum ElanError { Boom }\n\
             #[cfg(test)] mod tests { fn f() -> ElanError { ElanError::Boom } }",
        ))
        .expect("configured");
        assert_eq!(d.len(), 1, "test-only construction must not count: {d:?}");
    }
}
