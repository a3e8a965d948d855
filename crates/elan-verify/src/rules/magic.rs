//! Magic-number drift guard (MAGIC_NUMBER) for reliability code.
//!
//! The dedup window, retry attempt floor, and MsgId owner-shift were once
//! duplicated as bare literals between `reliable.rs`, `messages.rs`, and
//! their tests; this rule keeps them hoisted. The allreduce tuning module
//! (`comm/tune.rs`) joined the scope when the adaptive dispatcher landed:
//! its crossovers and probe parameters decide journal contents, so they
//! must stay named and documented too. Any integer literal other than 0 or
//! 1 inside a non-test function body of the scoped files must come from a
//! named const. Const/static initialisers (where the names live) are
//! exempt, as are float literals and tuple indices.

use crate::lexer::TokKind;
use crate::model::Workspace;
use crate::report::{rules, Diagnostic};

const SCOPE: [&str; 3] = [
    "elan-rt/src/reliable.rs",
    "elan-core/src/messages.rs",
    "elan-rt/src/comm/tune.rs",
];

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
            // token ranges of `const`/`static` initialisers inside the body
            // are exempt (rare, but `const X: u64 = 400;` in a fn is fine).
            let mut i = f.body.start;
            let mut in_const_until: Option<usize> = None;
            while i < f.body.end {
                let t = &toks[i];
                if t.is_ident("const") || t.is_ident("static") {
                    // exempt until the terminating `;`
                    let mut j = i + 1;
                    while j < f.body.end && !toks[j].is(";") {
                        j += 1;
                    }
                    in_const_until = Some(j);
                }
                if let Some(end) = in_const_until {
                    if i >= end {
                        in_const_until = None;
                    }
                }
                if t.kind == TokKind::Number && in_const_until.is_none() {
                    // tuple index (`pair.1`) is fine
                    let tuple_index = i > 0 && toks[i - 1].is(".");
                    if !tuple_index {
                        if let Some(v) = int_value(&t.text) {
                            if v > 1 {
                                diags.push(Diagnostic::new(
                                    rules::MAGIC_NUMBER,
                                    file.rel.clone(),
                                    t.line,
                                    f.qual.clone(),
                                    t.text.clone(),
                                    format!("magic number `{}` in reliability code", t.text),
                                    "hoist into a named const next to DEFAULT_WINDOW / \
                                     FIRST_RESEND_ATTEMPT / OWNER_SHIFT (or the \
                                     PINNED_*/PROBE_* tuning constants) so tests and \
                                     prod share one definition",
                                ));
                            }
                        }
                    }
                }
                i += 1;
            }
        }
    }
    diags
}

/// Parse an integer literal (handles `_` separators, `0x`/`0o`/`0b`, and type
/// suffixes). Returns `None` for floats.
fn int_value(text: &str) -> Option<u128> {
    let t: String = text.chars().filter(|&c| c != '_').collect();
    if t.contains('.') {
        return None;
    }
    let (radix, digits) = if let Some(rest) = t.strip_prefix("0x").or_else(|| t.strip_prefix("0X"))
    {
        (16, rest)
    } else if let Some(rest) = t.strip_prefix("0o") {
        (8, rest)
    } else if let Some(rest) = t.strip_prefix("0b") {
        (2, rest)
    } else {
        (10, t.as_str())
    };
    // strip type suffix (u8, i64, usize, f32...)
    let digits = digits
        .find(|c: char| !c.is_digit(radix))
        .map(|pos| &digits[..pos])
        .unwrap_or(digits);
    if digits.is_empty() {
        return None;
    }
    u128::from_str_radix(digits, radix).ok()
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
    fn flags_bare_literal() {
        let d = run(&ws("fn f() -> u32 { 512 }"));
        assert_eq!(d.len(), 1, "got {d:?}");
        assert_eq!(d[0].rule, rules::MAGIC_NUMBER);
        assert_eq!(d[0].detail, "512");
    }

    #[test]
    fn zero_one_and_tuple_index_allowed() {
        let d = run(&ws("fn f(p: (u32, u32, u32)) -> u32 { p.2 + 0 + 1 }"));
        assert!(d.is_empty(), "got {d:?}");
    }

    #[test]
    fn named_const_allowed() {
        let d = run(&ws("const W: usize = 512;\nfn f() -> usize { W }"));
        assert!(d.is_empty(), "got {d:?}");
    }

    #[test]
    fn int_values() {
        assert_eq!(int_value("512"), Some(512));
        assert_eq!(int_value("1_000u64"), Some(1000));
        assert_eq!(int_value("0x20"), Some(32));
        assert_eq!(int_value("2.5"), None);
    }
}
