//! Workspace model: token streams plus the structural facts the rules need.
//!
//! Extraction is token-based (no AST): functions with brace-matched bodies,
//! enum variant lists, `#[cfg(test)]`-region tracking, impl-block method
//! qualification, lock-typed field discovery, and "pattern position" regions
//! (match arms, `matches!` second argument, `let`/`if let`/`while let`
//! patterns) so rules can tell construction from matching.

use std::collections::BTreeSet;
use std::fs;
use std::ops::Range;
use std::path::{Path, PathBuf};

use crate::lexer::{lex, Tok, TokKind};

/// A function item extracted from a file.
#[derive(Debug, Clone)]
pub struct Function {
    /// Simple name (`handle`).
    pub name: String,
    /// Qualified name (`AmCore::handle` for impl methods, else the simple name).
    pub qual: String,
    /// Line of the `fn` keyword.
    pub line: u32,
    /// Token-index range of the body, excluding the outer braces.
    pub body: Range<usize>,
    /// True if the function is a `#[test]` or lives inside a `#[cfg(test)]` region.
    pub is_test: bool,
}

/// An enum item with its variants.
#[derive(Debug, Clone)]
pub struct EnumDef {
    pub name: String,
    pub line: u32,
    pub variants: Vec<(String, u32)>,
}

/// One parsed source file.
#[derive(Debug)]
pub struct FileModel {
    /// Path relative to the workspace root (or the bare file name in fixture mode).
    pub rel: String,
    /// Crate directory name, e.g. `elan-rt` (empty in fixture mode).
    pub crate_name: String,
    pub toks: Vec<Tok>,
    pub functions: Vec<Function>,
    pub enums: Vec<EnumDef>,
    /// Field names declared with a `Mutex<..>` type anywhere in the file.
    pub mutex_fields: BTreeSet<String>,
    /// Field names declared with a `RwLock<..>` type anywhere in the file.
    pub rwlock_fields: BTreeSet<String>,
    /// Token-index ranges that are in *pattern* position.
    pub pattern_regions: Vec<Range<usize>>,
}

impl FileModel {
    /// True if token index `i` falls inside any pattern region.
    pub fn in_pattern(&self, i: usize) -> bool {
        self.pattern_regions.iter().any(|r| r.contains(&i))
    }

    /// The innermost function whose body contains token index `i`.
    pub fn enclosing_fn(&self, i: usize) -> Option<&Function> {
        self.functions
            .iter()
            .filter(|f| f.body.contains(&i))
            .min_by_key(|f| f.body.end - f.body.start)
    }

    /// True if token index `i` is inside test-only code (a `#[test]` fn or a
    /// `#[cfg(test)]` region). Tokens outside any function (module items) are
    /// treated as non-test unless they sit inside a test function body.
    pub fn is_test_at(&self, i: usize) -> bool {
        self.enclosing_fn(i).map(|f| f.is_test).unwrap_or(false)
    }
}

/// The whole parsed workspace (or a single fixture file).
#[derive(Debug)]
pub struct Workspace {
    pub files: Vec<FileModel>,
    /// True when analysing a standalone fixture: every rule applies to every file.
    pub fixture_mode: bool,
}

impl Workspace {
    /// Parse every `.rs` file under `<root>/crates/*/src` (excluding the
    /// checker itself, `elan-verify`), plus the facade crate's own sources:
    /// `<root>/src` (including `src/bin/*`) as crate `elan` and
    /// `<root>/tests` as crate `tests`, so the process-split entry points
    /// and integration tests are under the same discipline.
    pub fn load(root: &Path) -> Result<Workspace, String> {
        let crates_dir = root.join("crates");
        let mut files = Vec::new();
        let entries = fs::read_dir(&crates_dir)
            .map_err(|e| format!("cannot read {}: {e}", crates_dir.display()))?;
        let mut crate_dirs: Vec<PathBuf> = entries
            .filter_map(|e| e.ok().map(|e| e.path()))
            .filter(|p| p.is_dir())
            .collect();
        crate_dirs.sort();
        for dir in crate_dirs {
            let crate_name = dir
                .file_name()
                .and_then(|n| n.to_str())
                .unwrap_or_default()
                .to_string();
            if crate_name == "elan-verify" {
                continue; // the checker does not analyse itself
            }
            let src = dir.join("src");
            if !src.is_dir() {
                continue;
            }
            let mut rs_files = Vec::new();
            collect_rs(&src, &mut rs_files)?;
            rs_files.sort();
            for path in rs_files {
                let rel = path
                    .strip_prefix(root)
                    .unwrap_or(&path)
                    .to_string_lossy()
                    .replace('\\', "/");
                files.push(parse_file(&path, rel, crate_name.clone())?);
            }
        }
        // Root-crate scan roots: the facade's src/ (with the coordinator and
        // worker bins) and the workspace-level integration tests.
        for (sub, crate_name) in [("src", "elan"), ("tests", "tests")] {
            let dir = root.join(sub);
            if !dir.is_dir() {
                continue;
            }
            let mut rs_files = Vec::new();
            collect_rs(&dir, &mut rs_files)?;
            rs_files.sort();
            for path in rs_files {
                let rel = path
                    .strip_prefix(root)
                    .unwrap_or(&path)
                    .to_string_lossy()
                    .replace('\\', "/");
                files.push(parse_file(&path, rel, crate_name.to_string())?);
            }
        }
        if files.is_empty() {
            return Err(format!(
                "no Rust sources found under {}",
                crates_dir.display()
            ));
        }
        Ok(Workspace {
            files,
            fixture_mode: false,
        })
    }

    /// Parse a single standalone file as a fixture workspace.
    pub fn load_fixture(path: &Path) -> Result<Workspace, String> {
        let rel = path
            .file_name()
            .and_then(|n| n.to_str())
            .unwrap_or("fixture.rs")
            .to_string();
        let file = parse_file(path, rel, String::new())?;
        Ok(Workspace {
            files: vec![file],
            fixture_mode: true,
        })
    }
}

fn collect_rs(dir: &Path, out: &mut Vec<PathBuf>) -> Result<(), String> {
    let entries = fs::read_dir(dir).map_err(|e| format!("cannot read {}: {e}", dir.display()))?;
    for entry in entries.flatten() {
        let p = entry.path();
        if p.is_dir() {
            collect_rs(&p, out)?;
        } else if p.extension().and_then(|e| e.to_str()) == Some("rs") {
            out.push(p);
        }
    }
    Ok(())
}

fn parse_file(path: &Path, rel: String, crate_name: String) -> Result<FileModel, String> {
    let src =
        fs::read_to_string(path).map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    Ok(parse_source(&src, rel, crate_name))
}

/// Parse source text into a [`FileModel`]. Exposed for unit tests.
pub fn parse_source(src: &str, rel: String, crate_name: String) -> FileModel {
    let toks = lex(src);
    let mut functions = Vec::new();
    let mut enums = Vec::new();
    let mut mutex_fields = BTreeSet::new();
    let mut rwlock_fields = BTreeSet::new();

    // --- item scan: functions, enums, impl blocks, test regions -----------
    let n = toks.len();
    let mut depth: i32 = 0;
    // Brace depths at which a `#[cfg(test)]` mod body opened.
    let mut test_region: Vec<i32> = Vec::new();
    // (type name, brace depth of the impl body `{`).
    let mut impl_stack: Vec<(String, i32)> = Vec::new();
    let mut pending_test = false;
    let mut i = 0usize;
    while i < n {
        let t = &toks[i];
        match t.text.as_str() {
            "#" => {
                // attribute: `#[...]` or `#![...]`
                let mut j = i + 1;
                if j < n && toks[j].is("!") {
                    j += 1;
                }
                if j < n && toks[j].is("[") {
                    let end = match_bracket(&toks, j, "[", "]");
                    let body = &toks[j + 1..end.min(n)];
                    let has_test = body.iter().any(|t| t.is_ident("test"));
                    let has_not = body.iter().any(|t| t.is_ident("not"));
                    if has_test && !has_not {
                        pending_test = true;
                    }
                    i = end + 1;
                    // A test attribute only opens a test region if it
                    // annotates an *item*. Statement-level attributes
                    // (`#[cfg(test)] self.cvar.notify_all();`) must not
                    // leak `pending_test` onto the next function in the
                    // file, so drop it unless the next token can begin
                    // an item (or another attribute).
                    if pending_test
                        && !toks.get(i).is_some_and(|t| {
                            matches!(
                                t.text.as_str(),
                                "#" | "pub"
                                    | "mod"
                                    | "impl"
                                    | "fn"
                                    | "struct"
                                    | "enum"
                                    | "union"
                                    | "trait"
                                    | "const"
                                    | "static"
                                    | "type"
                                    | "unsafe"
                                    | "async"
                                    | "extern"
                                    | "use"
                                    | "macro_rules"
                            )
                        })
                    {
                        pending_test = false;
                    }
                } else {
                    i += 1;
                }
            }
            "{" => {
                depth += 1;
                i += 1;
            }
            "}" => {
                depth -= 1;
                while test_region.last().is_some_and(|&d| d > depth) {
                    test_region.pop();
                }
                while impl_stack.last().is_some_and(|(_, d)| *d > depth) {
                    impl_stack.pop();
                }
                i += 1;
            }
            "mod" => {
                // `mod name {` or `mod name;`
                let mut j = i + 1;
                while j < n && !(toks[j].is("{") || toks[j].is(";")) {
                    j += 1;
                }
                if j < n && toks[j].is("{") {
                    depth += 1;
                    if pending_test {
                        test_region.push(depth);
                    }
                }
                pending_test = false;
                i = j + 1;
            }
            "impl" => {
                // `impl<G> Type { .. }` or `impl Trait for Type { .. }`
                let mut j = i + 1;
                // skip generic params
                if j < n && toks[j].is("<") {
                    j = skip_angles(&toks, j);
                }
                let mut name = String::new();
                let mut after_for = false;
                while j < n && !toks[j].is("{") && !toks[j].is(";") {
                    if toks[j].is_ident("for") {
                        after_for = true;
                        name.clear();
                    } else if toks[j].kind == TokKind::Ident && name.is_empty() {
                        name = toks[j].text.clone();
                        if after_for {
                            break;
                        }
                    } else if toks[j].is("<") {
                        j = skip_angles(&toks, j);
                        continue;
                    }
                    j += 1;
                }
                while j < n && !toks[j].is("{") && !toks[j].is(";") {
                    j += 1;
                }
                if j < n && toks[j].is("{") {
                    depth += 1;
                    impl_stack.push((name, depth));
                }
                pending_test = false;
                i = j + 1;
            }
            "fn" => {
                // `fn` not followed by an identifier is a fn-pointer type
                // (`f: fn(u32) -> u32`), not an item.
                if i + 1 >= n || toks[i + 1].kind != TokKind::Ident {
                    i += 1;
                    continue;
                }
                let fn_line = t.line;
                let name = toks[i + 1].text.clone();
                // find body `{` (paren depth 0) or `;` (trait decl)
                let mut j = i + 2;
                let mut paren: i32 = 0;
                while j < n {
                    match toks[j].text.as_str() {
                        "(" | "[" => paren += 1,
                        ")" | "]" => paren -= 1,
                        "{" if paren == 0 => break,
                        ";" if paren == 0 => break,
                        _ => {}
                    }
                    j += 1;
                }
                if j < n && toks[j].is("{") {
                    let end = match_bracket(&toks, j, "{", "}");
                    let is_test = pending_test || !test_region.is_empty();
                    let qual = match impl_stack.last() {
                        Some((ty, _)) if !ty.is_empty() => format!("{ty}::{name}"),
                        _ => name.clone(),
                    };
                    functions.push(Function {
                        name,
                        qual,
                        line: fn_line,
                        body: j + 1..end,
                        is_test,
                    });
                    pending_test = false;
                    // continue scanning *inside* the body so nested items and
                    // inner test mods are still discovered
                    depth += 1;
                    i = j + 1;
                } else {
                    pending_test = false;
                    i = j + 1;
                }
            }
            "enum" => {
                if i + 1 < n && toks[i + 1].kind == TokKind::Ident {
                    let name = toks[i + 1].text.clone();
                    let line = toks[i + 1].line;
                    let mut j = i + 2;
                    if j < n && toks[j].is("<") {
                        j = skip_angles(&toks, j);
                    }
                    if j < n && toks[j].is("{") {
                        let end = match_bracket(&toks, j, "{", "}");
                        let variants = parse_variants(&toks, j + 1, end);
                        enums.push(EnumDef {
                            name,
                            line,
                            variants,
                        });
                        depth += 1;
                        i = j + 1;
                        pending_test = false;
                        continue;
                    }
                }
                pending_test = false;
                i += 1;
            }
            "struct" | "const" | "static" | "use" | "type" | "trait" => {
                pending_test = false;
                i += 1;
            }
            _ => {
                i += 1;
            }
        }
    }

    // --- lock-typed field discovery ---------------------------------------
    for i in 0..n {
        if toks[i].is(":") && toks[i].kind == TokKind::Punct && i > 0 {
            if toks[i - 1].kind != TokKind::Ident {
                continue;
            }
            let field = &toks[i - 1].text;
            // scan a short window after the colon, stopping at separators that
            // cannot belong to the field's own type head
            let mut j = i + 1;
            let stop = (i + 9).min(n);
            while j < stop {
                match toks[j].text.as_str() {
                    "," | ";" | ")" | "}" | "=" => break,
                    "Mutex" => {
                        mutex_fields.insert(field.clone());
                        break;
                    }
                    "RwLock" => {
                        rwlock_fields.insert(field.clone());
                        break;
                    }
                    _ => j += 1,
                }
            }
        }
    }

    // --- pattern regions ---------------------------------------------------
    let pattern_regions = find_pattern_regions(&toks);

    FileModel {
        rel,
        crate_name,
        toks,
        functions,
        enums,
        mutex_fields,
        rwlock_fields,
        pattern_regions,
    }
}

/// Returns the index of the bracket matching `toks[open]` (which must be
/// `open_s`). If unbalanced, returns `toks.len()`.
pub fn match_bracket(toks: &[Tok], open: usize, open_s: &str, close_s: &str) -> usize {
    let mut depth = 0i32;
    for (k, t) in toks.iter().enumerate().skip(open) {
        if t.is(open_s) {
            depth += 1;
        } else if t.is(close_s) {
            depth -= 1;
            if depth == 0 {
                return k;
            }
        }
    }
    toks.len()
}

/// Skip a balanced `<...>` run starting at `toks[i] == "<"`. `>>` closes two.
fn skip_angles(toks: &[Tok], i: usize) -> usize {
    let mut depth = 0i32;
    let mut j = i;
    while j < toks.len() {
        match toks[j].text.as_str() {
            "<" => depth += 1,
            "<<" => depth += 2,
            ">" => {
                depth -= 1;
                if depth <= 0 {
                    return j + 1;
                }
            }
            ">>" => {
                depth -= 2;
                if depth <= 0 {
                    return j + 1;
                }
            }
            "{" | ";" => return j, // malformed; bail
            _ => {}
        }
        j += 1;
    }
    j
}

fn parse_variants(toks: &[Tok], start: usize, end: usize) -> Vec<(String, u32)> {
    let mut out = Vec::new();
    let mut i = start;
    while i < end {
        // skip attributes
        while i < end && toks[i].is("#") {
            if i + 1 < end && toks[i + 1].is("[") {
                i = match_bracket(toks, i + 1, "[", "]") + 1;
            } else {
                i += 1;
            }
        }
        if i >= end {
            break;
        }
        if toks[i].kind == TokKind::Ident {
            out.push((toks[i].text.clone(), toks[i].line));
            i += 1;
            // skip payload
            if i < end && toks[i].is("(") {
                i = match_bracket(toks, i, "(", ")") + 1;
            } else if i < end && toks[i].is("{") {
                i = match_bracket(toks, i, "{", "}") + 1;
            } else if i < end && toks[i].is("=") {
                while i < end && !toks[i].is(",") {
                    i += 1;
                }
            }
            // skip trailing comma
            if i < end && toks[i].is(",") {
                i += 1;
            }
        } else {
            i += 1;
        }
    }
    out
}

fn find_pattern_regions(toks: &[Tok]) -> Vec<Range<usize>> {
    let mut regions = Vec::new();
    let n = toks.len();
    let mut i = 0usize;
    while i < n {
        let t = &toks[i];
        if t.is_ident("match") && (i == 0 || !(toks[i - 1].is(".") || toks[i - 1].is("::"))) {
            // find body `{` at paren depth 0
            let mut j = i + 1;
            let mut paren = 0i32;
            while j < n {
                match toks[j].text.as_str() {
                    "(" | "[" => paren += 1,
                    ")" | "]" => paren -= 1,
                    "{" if paren == 0 => break,
                    ";" if paren == 0 => break,
                    _ => {}
                }
                j += 1;
            }
            if j < n && toks[j].is("{") {
                let body_end = match_bracket(toks, j, "{", "}");
                collect_match_arm_patterns(toks, j + 1, body_end, &mut regions);
            }
            i += 1;
        } else if t.is_ident("matches") && i + 2 < n && toks[i + 1].is("!") && toks[i + 2].is("(") {
            let close = match_bracket(toks, i + 2, "(", ")");
            // find top-level comma
            let mut depth = 0i32;
            let mut k = i + 3;
            while k < close.min(n) {
                match toks[k].text.as_str() {
                    "(" | "[" | "{" => depth += 1,
                    ")" | "]" | "}" => depth -= 1,
                    "," if depth == 0 => {
                        regions.push(k + 1..close);
                        break;
                    }
                    _ => {}
                }
                k += 1;
            }
            i += 3;
        } else if t.is_ident("let") {
            // pattern = tokens between `let` and the first top-level `=`
            let mut depth = 0i32;
            let mut j = i + 1;
            while j < n {
                match toks[j].text.as_str() {
                    "(" | "[" | "{" => depth += 1,
                    ")" | "]" | "}" if depth > 0 => depth -= 1,
                    "=" if depth == 0 && toks[j].kind == TokKind::Punct => break,
                    ";" if depth == 0 => break,
                    "}" | ")" if depth == 0 => break,
                    _ => {}
                }
                j += 1;
            }
            if j > i + 1 {
                regions.push(i + 1..j);
            }
            i = j;
        } else {
            i += 1;
        }
    }
    regions
}

fn collect_match_arm_patterns(
    toks: &[Tok],
    start: usize,
    end: usize,
    regions: &mut Vec<Range<usize>>,
) {
    let mut i = start;
    while i < end {
        // arm pattern runs until `=>` at relative depth 0
        let arm_start = i;
        let mut depth = 0i32;
        let mut j = i;
        let mut found = false;
        while j < end {
            match toks[j].text.as_str() {
                "(" | "[" | "{" => depth += 1,
                ")" | "]" | "}" => depth -= 1,
                "=>" if depth == 0 => {
                    found = true;
                    break;
                }
                _ => {}
            }
            j += 1;
        }
        if !found {
            break;
        }
        regions.push(arm_start..j);
        // skip arm value
        let mut k = j + 1;
        if k < end && toks[k].is("{") {
            k = match_bracket(toks, k, "{", "}") + 1;
            if k < end && toks[k].is(",") {
                k += 1;
            }
        } else {
            let mut d = 0i32;
            while k < end {
                match toks[k].text.as_str() {
                    "(" | "[" | "{" => d += 1,
                    ")" | "]" | "}" => {
                        if d == 0 {
                            break;
                        }
                        d -= 1;
                    }
                    "," if d == 0 => {
                        k += 1;
                        break;
                    }
                    _ => {}
                }
                k += 1;
            }
        }
        i = k;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn model(src: &str) -> FileModel {
        parse_source(src, "t.rs".into(), "t".into())
    }

    #[test]
    fn extracts_functions_and_impls() {
        let m = model(
            "impl Foo { fn bar(&self) -> u32 { 1 } }\nfn baz() {}\n\
             #[cfg(test)] mod tests { #[test] fn t1() { baz(); } }",
        );
        let names: Vec<&str> = m.functions.iter().map(|f| f.qual.as_str()).collect();
        assert_eq!(names, vec!["Foo::bar", "baz", "t1"]);
        assert!(!m.functions[0].is_test);
        assert!(!m.functions[1].is_test);
        assert!(m.functions[2].is_test);
    }

    #[test]
    fn cfg_not_test_is_not_test() {
        let m = model("#[cfg(not(test))] fn a() {}");
        assert!(!m.functions[0].is_test);
    }

    #[test]
    fn statement_level_test_attrs_do_not_leak_onto_later_fns() {
        let m = model(
            "fn a(&self) { #[cfg(test)] self.notify(); }\n\
             fn b() {}\n\
             #[cfg(test)] fn c() {}",
        );
        assert!(
            !m.functions[0].is_test,
            "a has a test *statement*, not attr"
        );
        assert!(!m.functions[1].is_test, "b must not inherit the leak");
        assert!(m.functions[2].is_test, "c is genuinely cfg(test)");
    }

    #[test]
    fn extracts_enum_variants() {
        let m = model("pub enum Msg { A, B(u32), C { x: u8 }, #[doc = \"d\"] D, }");
        let v: Vec<&str> = m.enums[0]
            .variants
            .iter()
            .map(|(n, _)| n.as_str())
            .collect();
        assert_eq!(v, vec!["A", "B", "C", "D"]);
    }

    #[test]
    fn discovers_lock_fields() {
        let m = model(
            "struct S { state: Mutex<u32>, senders: RwLock<HashMap<K, V>>, \
             chaos: Option<Mutex<E>>, plain: u32 }",
        );
        assert!(m.mutex_fields.contains("state"));
        assert!(m.mutex_fields.contains("chaos"));
        assert!(m.rwlock_fields.contains("senders"));
        assert!(!m.mutex_fields.contains("plain"));
    }

    #[test]
    fn match_arms_are_pattern_regions() {
        let m = model(
            "fn f(m: Msg) { match m { Msg::A => { go(Msg::B) } Msg::C { x } => x, _ => {} } }",
        );
        // Msg::A and Msg::C are in pattern position; Msg::B (arm value) is not.
        let find = |name: &str| {
            m.toks
                .iter()
                .enumerate()
                .filter(|(_, t)| t.is_ident(name))
                .map(|(i, _)| i)
                .collect::<Vec<_>>()
        };
        let a = find("A")[0];
        let b = find("B")[0];
        let c = find("C")[0];
        assert!(m.in_pattern(a));
        assert!(!m.in_pattern(b));
        assert!(m.in_pattern(c));
    }

    #[test]
    fn if_let_and_matches_are_pattern_regions() {
        let m = model(
            "fn f(m: Msg) -> bool { if let Msg::A = m { return true; } matches!(m, Msg::B) }",
        );
        let idx: Vec<usize> = m
            .toks
            .iter()
            .enumerate()
            .filter(|(_, t)| t.is_ident("A") || t.is_ident("B"))
            .map(|(i, _)| i)
            .collect();
        for i in idx {
            assert!(m.in_pattern(i), "token {i} should be in a pattern region");
        }
    }
}
