//! Wire-format compatibility (WIRE_COMPAT): the `RtMsg` wire table, frame
//! kinds, and framing constants in `elan-core/src/codec.rs` are
//! cross-process API — coordinator and worker binaries may be updated
//! independently, so a renumbered or removed tag silently corrupts every
//! in-flight adjustment between versions. The codec writes each variant's
//! tag and field order once, as a row of its `wire_msgs! { <tag> =>
//! <Variant> { <fields> }, … }` table, and generates the encoder and the
//! decoder from that row, so the two cannot disagree. The rule has two
//! halves:
//!
//! 1. **Table sanity**: no tag is given to two variants (the later row's
//!    decode arm is unreachable) and no variant is listed twice. In
//!    workspace mode a codec without a table is itself a diagnostic, so
//!    the rule cannot pass by finding nothing to check.
//! 2. **Manifest pinning** (workspace mode): the extracted surface is
//!    compared against the committed `codec_surface.txt` — the
//!    `api_surface.txt` treatment for the wire format. Removing or
//!    changing an entry is an error; appending is allowed (CI diffs the
//!    regenerated manifest so appends still land in review).
//!
//! Extraction is token-level: the `<number> => <Variant>` rows at the top
//! level of the `wire_msgs! { … }` invocation (not its `macro_rules!`
//! definition).

use std::collections::BTreeMap;
use std::fs;

use crate::lexer::TokKind;
use crate::model::{match_bracket, FileModel, Workspace};
use crate::report::{rules, Diagnostic};

/// The committed manifest file name, relative to the workspace root.
pub const MANIFEST: &str = "codec_surface.txt";

/// The codec file, relative to the workspace root.
const CODEC: &str = "crates/elan-core/src/codec.rs";

/// Framing constants pinned by name.
const PINNED_CONSTS: &[&str] = &["WIRE_VERSION", "MAX_FRAME_LEN"];

#[derive(Debug, Default)]
struct Extract {
    /// (const name, value text, line) for WIRE_VERSION/MAX_FRAME_LEN/FRAME_*.
    consts: Vec<(String, String, u32)>,
    /// (tag text, variant, line) rows of the `wire_msgs!` table, in order.
    rows: Vec<(String, String, u32)>,
}

pub fn run(ws: &Workspace) -> Vec<Diagnostic> {
    let (file, ext) = match table(ws) {
        Ok(found) => found,
        Err(_) if ws.fixture_mode => return Vec::new(),
        Err(message) => {
            return vec![Diagnostic::new(
                rules::WIRE_COMPAT,
                CODEC,
                0,
                String::new(),
                "missing",
                message,
                "declare every RtMsg variant in the codec's `wire_msgs! { <tag> => \
                 <Variant> { <fields> }, … }` table, which WIRE_COMPAT reads",
            )]
        }
    };
    let mut diags = table_check(&ext, file);
    if !ws.fixture_mode {
        if let Some(root) = &ws.root {
            diags.extend(manifest_check(&ext, &root.join(MANIFEST), file));
        }
    }
    diags
}

/// Render the current wire surface — what `--emit-codec-surface` writes and
/// what the manifest check compares against.
pub fn surface(ws: &Workspace) -> Result<String, String> {
    let (file, ext) = table(ws)?;
    Ok(render_surface(&ext, &file.rel))
}

/// The codec file and its extracted surface: in fixture mode the first
/// file with a table, in workspace mode `elan-core/src/codec.rs`, which
/// must have one.
fn table(ws: &Workspace) -> Result<(&FileModel, Extract), String> {
    let file = if ws.fixture_mode {
        ws.files.iter().find(|f| table_open(f).is_some())
    } else {
        ws.file_named(CODEC)
    };
    let file = file.ok_or_else(|| format!("no codec file ({CODEC}) found"))?;
    let open = table_open(file)
        .ok_or_else(|| format!("{} has no `wire_msgs! {{ … }}` table", file.rel))?;
    Ok((file, extract(file, open)))
}

/// Token index of the `{` that opens the `wire_msgs! { … }` invocation.
/// The `macro_rules! wire_msgs` definition is skipped: its name follows
/// a `!`.
fn table_open(file: &FileModel) -> Option<usize> {
    let t = &file.toks;
    (0..t.len().saturating_sub(2))
        .find(|&i| {
            t[i].is_ident("wire_msgs")
                && t[i + 1].is("!")
                && t[i + 2].is("{")
                && (i == 0 || !t[i - 1].is("!"))
        })
        .map(|i| i + 2)
}

fn extract(file: &FileModel, open: usize) -> Extract {
    let toks = &file.toks;
    let n = toks.len();
    let mut ext = Extract::default();

    // Pinned consts: `const NAME: T = <value>;`
    for i in 0..n {
        if !toks[i].is_ident("const") || i + 1 >= n || toks[i + 1].kind != TokKind::Ident {
            continue;
        }
        let name = toks[i + 1].text.clone();
        if !PINNED_CONSTS.contains(&name.as_str()) && !name.starts_with("FRAME_") {
            continue;
        }
        let mut j = i + 2;
        while j < n && !toks[j].is("=") && !toks[j].is(";") {
            j += 1;
        }
        if j >= n || !toks[j].is("=") {
            continue;
        }
        let mut value = Vec::new();
        let mut k = j + 1;
        while k < n && !toks[k].is(";") {
            value.push(toks[k].text.clone());
            k += 1;
        }
        ext.consts.push((name, value.join(" "), toks[i + 1].line));
    }

    // Table rows: `<number> => <Variant>` at the invocation's top level;
    // the field lists sit one bracket deeper.
    let close = match_bracket(toks, open, "{", "}");
    let mut depth = 0i32;
    for i in open + 1..close.min(n) {
        match toks[i].text.as_str() {
            "{" | "(" | "[" => depth += 1,
            "}" | ")" | "]" => depth -= 1,
            _ => {}
        }
        if depth == 0
            && toks[i].kind == TokKind::Number
            && i + 2 < close
            && toks[i + 1].is("=>")
            && toks[i + 2].kind == TokKind::Ident
        {
            ext.rows.push((
                toks[i].text.clone(),
                toks[i + 2].text.clone(),
                toks[i + 2].line,
            ));
        }
    }
    ext
}

/// One row per variant and per tag: a reused tag leaves the later row's
/// decode arm unreachable, and a variant listed twice encodes by its
/// first row only.
fn table_check(ext: &Extract, file: &FileModel) -> Vec<Diagnostic> {
    let hint = "wire tags are append-only: give each variant one row with a fresh tag \
         and keep every shipped tag on its variant (DESIGN.md §16)";
    let mut diags = Vec::new();
    for (k, (tag, v, line)) in ext.rows.iter().enumerate() {
        let earlier = &ext.rows[..k];
        let message = if let Some((_, first, _)) = earlier.iter().find(|(t, _, _)| t == tag) {
            format!(
                "wire tag {tag} is given to both `RtMsg::{first}` and `RtMsg::{v}`; \
                 the decoder never reaches `RtMsg::{v}`"
            )
        } else if let Some((first, _, _)) = earlier.iter().find(|(_, w, _)| w == v) {
            format!("`RtMsg::{v}` is listed twice in the wire table (tags {first} and {tag})")
        } else {
            continue;
        };
        diags.push(Diagnostic::new(
            rules::WIRE_COMPAT,
            file.rel.clone(),
            *line,
            "wire_msgs",
            v.clone(),
            message,
            hint,
        ));
    }
    diags
}

fn render_surface(ext: &Extract, rel: &str) -> String {
    let mut out = String::new();
    out.push_str(&format!("# Wire-format surface of {rel}.\n"));
    out.push_str(
        "# Renumbering, reordering, or removing an entry is a breaking wire\n\
         # change (WIRE_COMPAT); appending new entries is allowed. Regenerate:\n\
         #   cargo run -p elan-verify -- --emit-codec-surface\n",
    );
    for (name, value, _) in &ext.consts {
        if PINNED_CONSTS.contains(&name.as_str()) {
            out.push_str(&format!("{} = {value}\n", name.to_lowercase()));
        }
    }
    for (name, value, _) in &ext.consts {
        if name.starts_with("FRAME_") {
            out.push_str(&format!("frame {name} = {value}\n"));
        }
    }
    for (tag, v, _) in &ext.rows {
        out.push_str(&format!("msg {v} = {tag}\n"));
    }
    out
}

fn manifest_check(ext: &Extract, path: &std::path::Path, file: &FileModel) -> Vec<Diagnostic> {
    let hint = "regenerate with `cargo run -p elan-verify -- --emit-codec-surface > \
         codec_surface.txt` and get the wire change reviewed; shipped tags must \
         keep their numbers";
    let committed = match fs::read_to_string(path) {
        Ok(s) => s,
        Err(_) => {
            return vec![Diagnostic::new(
                rules::WIRE_COMPAT,
                MANIFEST.to_string(),
                0,
                String::new(),
                "missing",
                format!("{MANIFEST} is missing from the workspace root"),
                hint,
            )]
        }
    };
    let parse = |s: &str| -> BTreeMap<String, String> {
        s.lines()
            .map(str::trim)
            .filter(|l| !l.is_empty() && !l.starts_with('#'))
            .filter_map(|l| {
                l.split_once(" = ")
                    .map(|(k, v)| (k.trim().to_string(), v.trim().to_string()))
            })
            .collect()
    };
    let committed_map = parse(&committed);
    let current_map = parse(&render_surface(ext, &file.rel));
    let mut diags = Vec::new();
    for (k, v) in &committed_map {
        match current_map.get(k) {
            None => diags.push(Diagnostic::new(
                rules::WIRE_COMPAT,
                file.rel.clone(),
                0,
                String::new(),
                k.clone(),
                format!("wire surface entry `{k} = {v}` was removed from the codec"),
                hint,
            )),
            Some(cv) if cv != v => diags.push(Diagnostic::new(
                rules::WIRE_COMPAT,
                file.rel.clone(),
                0,
                String::new(),
                k.clone(),
                format!("wire surface entry `{k}` changed: manifest pins {v}, codec has {cv}"),
                hint,
            )),
            _ => {}
        }
    }
    diags
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::parse_source;
    use std::path::PathBuf;

    fn check(src: &str) -> Vec<Diagnostic> {
        let ws = Workspace {
            files: vec![parse_source(src, "codec.rs".into(), String::new())],
            fixture_mode: true,
            root: None,
        };
        run(&ws)
    }

    const GOOD: &str = "wire_msgs! {\n\
         0 => Leave { term },\n\
         1 => Resume { generation, term },\n\
         }";

    #[test]
    fn distinct_rows_are_clean() {
        assert!(check(GOOD).is_empty());
    }

    #[test]
    fn reused_tag_fires_once() {
        let d = check(&GOOD.replace("1 => Resume", "0 => Resume"));
        assert_eq!(d.len(), 1, "got {d:?}");
        assert!(d[0].message.contains("given to both"), "{}", d[0].message);
        assert_eq!(d[0].detail, "Resume");
    }

    #[test]
    fn variant_listed_twice_fires_once() {
        let d = check(&GOOD.replace("1 => Resume", "2 => Leave { term },\n1 => Resume"));
        assert_eq!(d.len(), 1, "got {d:?}");
        assert!(d[0].message.contains("listed twice"), "{}", d[0].message);
    }

    #[test]
    fn surface_renders_consts_and_tags() {
        let src = format!(
            "pub const WIRE_VERSION: u8 = 1;\n\
             pub const MAX_FRAME_LEN: usize = 1 * 1024;\n\
             const FRAME_HELLO: u8 = 0;\n\
             const FRAME_MSG: u8 = 1;\n{GOOD}"
        );
        let ws = Workspace {
            files: vec![parse_source(&src, "codec.rs".into(), String::new())],
            fixture_mode: true,
            root: None,
        };
        let s = surface(&ws).expect("surface");
        assert!(s.contains("wire_version = 1"), "{s}");
        assert!(s.contains("max_frame_len = 1 * 1024"), "{s}");
        assert!(s.contains("frame FRAME_HELLO = 0"), "{s}");
        assert!(s.contains("msg Leave = 0"), "{s}");
        assert!(s.contains("msg Resume = 1"), "{s}");
    }

    #[test]
    fn macro_definition_is_not_the_table() {
        // Only the invocation's top-level rows count: the definition's
        // matcher and the field lists add none.
        let src = format!(
            "macro_rules! wire_msgs {{ ($($tag:literal => $v:ident {{ $($f:ident),* }}),*) => {{}}; }}\n{GOOD}"
        );
        let ws = Workspace {
            files: vec![parse_source(&src, "codec.rs".into(), String::new())],
            fixture_mode: true,
            root: None,
        };
        let s = surface(&ws).expect("surface");
        assert_eq!(
            s.lines().filter(|l| l.starts_with("msg ")).count(),
            2,
            "{s}"
        );
    }

    #[test]
    fn files_without_codec_are_ignored() {
        let d = check("fn unrelated() {}");
        assert!(d.is_empty());
    }

    #[test]
    fn workspace_codec_without_table_is_flagged() {
        // In workspace mode a codec the rule cannot read must fail, not
        // pass with nothing checked.
        let ws = Workspace {
            files: vec![parse_source(
                "fn write_msg() {}",
                CODEC.into(),
                "elan-core".into(),
            )],
            fixture_mode: false,
            root: Some(PathBuf::from(".")),
        };
        let d = run(&ws);
        assert_eq!(d.len(), 1, "got {d:?}");
        assert_eq!(d[0].rule, rules::WIRE_COMPAT);
        assert!(d[0].message.contains("no `wire_msgs!"), "{}", d[0].message);
        assert!(surface(&ws).is_err());
    }
}
