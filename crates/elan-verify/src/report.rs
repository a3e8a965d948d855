//! Diagnostics and output rendering (human text and `--json`).

use std::fmt::Write as _;

/// Stable invariant identifiers. These appear in diagnostics, fixture
/// `// expect:` headers, and CI logs — treat them as API.
pub mod rules {
    pub const LOCK_ORDER_CYCLE: &str = "LOCK_ORDER_CYCLE";
    pub const LOCK_ACROSS_SEND: &str = "LOCK_ACROSS_SEND";
    pub const PROTOCOL_UNHANDLED_MSG: &str = "PROTOCOL_UNHANDLED_MSG";
    pub const PROTOCOL_UNEMITTED_EVENT: &str = "PROTOCOL_UNEMITTED_EVENT";
    pub const PROTOCOL_UNCONSTRUCTED_ERROR: &str = "PROTOCOL_UNCONSTRUCTED_ERROR";
    pub const PERSIST_BEFORE_ACT: &str = "PERSIST_BEFORE_ACT";
    pub const MAGIC_NUMBER: &str = "MAGIC_NUMBER";
    pub const BLOCKING_UNDER_LOCK: &str = "BLOCKING_UNDER_LOCK";
    pub const VIRTUAL_TIME_UNSAFE: &str = "VIRTUAL_TIME_UNSAFE";
    pub const TERM_FENCED_SEND: &str = "TERM_FENCED_SEND";

    /// All rule IDs, for `--self-test` cross-checking.
    pub const ALL: [&str; 10] = [
        LOCK_ORDER_CYCLE,
        LOCK_ACROSS_SEND,
        PROTOCOL_UNHANDLED_MSG,
        PROTOCOL_UNEMITTED_EVENT,
        PROTOCOL_UNCONSTRUCTED_ERROR,
        PERSIST_BEFORE_ACT,
        MAGIC_NUMBER,
        BLOCKING_UNDER_LOCK,
        VIRTUAL_TIME_UNSAFE,
        TERM_FENCED_SEND,
    ];
}

/// One finding. `detail` is a rule-specific discriminator (variant name, lock
/// pair, literal value).
#[derive(Debug, Clone)]
pub struct Diagnostic {
    pub rule: &'static str,
    pub file: String,
    pub line: u32,
    pub func: String,
    pub detail: String,
    pub message: String,
    pub hint: String,
}

impl Diagnostic {
    pub fn new(
        rule: &'static str,
        file: impl Into<String>,
        line: u32,
        func: impl Into<String>,
        detail: impl Into<String>,
        message: impl Into<String>,
        hint: impl Into<String>,
    ) -> Self {
        Diagnostic {
            rule,
            file: file.into(),
            line,
            func: func.into(),
            detail: detail.into(),
            message: message.into(),
            hint: hint.into(),
        }
    }
}

/// Render diagnostics as human-readable text, one block per finding.
pub fn render_text(diags: &[Diagnostic]) -> String {
    let mut out = String::new();
    for d in diags {
        let _ = writeln!(out, "{}:{}: [{}] {}", d.file, d.line, d.rule, d.message);
        if !d.func.is_empty() {
            let _ = writeln!(out, "    in: {}", d.func);
        }
        if !d.hint.is_empty() {
            let _ = writeln!(out, "    hint: {}", d.hint);
        }
    }
    out
}

/// Render diagnostics as a JSON document for the CI `invariants` job.
pub fn render_json(diags: &[Diagnostic]) -> String {
    let mut out = String::new();
    out.push_str("{\n");
    let _ = writeln!(out, "  \"ok\": {},", diags.is_empty());
    let _ = writeln!(out, "  \"active\": {},", diags.len());
    out.push_str("  \"diagnostics\": [\n");
    for (i, d) in diags.iter().enumerate() {
        let comma = if i + 1 == diags.len() { "" } else { "," };
        let _ = writeln!(
            out,
            "    {{\"rule\": {}, \"file\": {}, \"line\": {}, \"func\": {}, \"detail\": {}, \"message\": {}, \"hint\": {}}}{comma}",
            json_str(d.rule),
            json_str(&d.file),
            d.line,
            json_str(&d.func),
            json_str(&d.detail),
            json_str(&d.message),
            json_str(&d.hint),
        );
    }
    out.push_str("  ]\n}\n");
    out
}

fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_escapes() {
        assert_eq!(json_str("a\"b\\c\nd"), "\"a\\\"b\\\\c\\nd\"");
    }

    #[test]
    fn text_render_includes_rule_and_hint() {
        let d = Diagnostic::new(
            rules::MAGIC_NUMBER,
            "crates/x/src/a.rs",
            10,
            "F::g",
            "64",
            "bare reliability bound",
            "name the bound in a const",
        );
        let text = render_text(&[d]);
        assert!(text.contains("[MAGIC_NUMBER]"));
        assert!(text.contains("hint:"));
    }
}
