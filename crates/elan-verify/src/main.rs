//! CLI for the workspace invariant checker.
//!
//! ```text
//! elan-verify [--root PATH] [--allow PATH] [--json] [--deny-unused-waivers]
//! elan-verify --fixture FILE.rs [--json]
//! elan-verify --self-test [--root PATH]
//! elan-verify --emit-codec-surface [--root PATH]
//! ```
//!
//! Exit codes: 0 = clean, 1 = active diagnostics (or failed self-test),
//! 2 = usage/configuration error.

#![forbid(unsafe_code)]

use std::env;
use std::path::PathBuf;
use std::process::ExitCode;

use elan_verify::{
    apply_waivers, find_root, parse_waivers, render_json, render_text, run_all, self_test,
    Workspace,
};

struct Args {
    root: Option<PathBuf>,
    allow: Option<PathBuf>,
    fixture: Option<PathBuf>,
    json: bool,
    self_test: bool,
    emit_codec_surface: bool,
    deny_unused_waivers: bool,
    show_waived: bool,
}

fn usage() -> &'static str {
    "usage: elan-verify [--root PATH] [--allow PATH] [--json] [--deny-unused-waivers] \
     [--show-waived] | --fixture FILE.rs | --self-test | --emit-codec-surface"
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        root: None,
        allow: None,
        fixture: None,
        json: false,
        self_test: false,
        emit_codec_surface: false,
        deny_unused_waivers: false,
        show_waived: false,
    };
    let mut it = env::args().skip(1);
    while let Some(a) = it.next() {
        match a.as_str() {
            "--root" => {
                args.root = Some(PathBuf::from(it.next().ok_or("--root requires a path")?));
            }
            "--allow" => {
                args.allow = Some(PathBuf::from(it.next().ok_or("--allow requires a path")?));
            }
            "--fixture" => {
                args.fixture = Some(PathBuf::from(it.next().ok_or("--fixture requires a file")?));
            }
            "--json" => args.json = true,
            "--self-test" => args.self_test = true,
            "--emit-codec-surface" => args.emit_codec_surface = true,
            "--deny-unused-waivers" => args.deny_unused_waivers = true,
            "--show-waived" => args.show_waived = true,
            "--help" | "-h" => {
                println!("{}", usage());
                std::process::exit(0);
            }
            other => return Err(format!("unknown argument {other:?}\n{}", usage())),
        }
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("elan-verify: {e}");
            return ExitCode::from(2);
        }
    };
    match run(args) {
        Ok(clean) => {
            if clean {
                ExitCode::SUCCESS
            } else {
                ExitCode::from(1)
            }
        }
        Err(e) => {
            eprintln!("elan-verify: {e}");
            ExitCode::from(2)
        }
    }
}

fn run(args: Args) -> Result<bool, String> {
    // --self-test: run the fixture suite.
    if args.self_test {
        let root = resolve_root(&args)?;
        let results = self_test(&root)?;
        let mut ok = true;
        for r in &results {
            let status = if r.pass { "ok" } else { "FAIL" };
            println!(
                "self-test {status}: {} (expected [{}], fired [{}])",
                r.name,
                r.expected.join(", "),
                r.fired.join(", ")
            );
            ok &= r.pass;
        }
        println!(
            "self-test: {}/{} fixtures behaved as declared",
            results.iter().filter(|r| r.pass).count(),
            results.len()
        );
        return Ok(ok);
    }

    // --emit-codec-surface: print the current wire surface for committing
    // as codec_surface.txt (the WIRE_COMPAT manifest).
    if args.emit_codec_surface {
        let root = resolve_root(&args)?;
        let ws = Workspace::load(&root)?;
        print!("{}", elan_verify::rules::wirecompat::surface(&ws)?);
        return Ok(true);
    }

    // --fixture: analyse one standalone file with every rule enabled.
    let (ws, root) = if let Some(fx) = &args.fixture {
        (Workspace::load_fixture(fx)?, None)
    } else {
        let root = resolve_root(&args)?;
        (Workspace::load(&root)?, Some(root))
    };

    let mut diags = run_all(&ws)?;

    // Waivers only apply to workspace runs (fixtures must fire raw).
    let mut unused: Vec<String> = Vec::new();
    if args.fixture.is_none() {
        let allow_path = match &args.allow {
            Some(p) => Some(p.clone()),
            None => {
                let default = root
                    .as_ref()
                    .map(|r| r.join("verify-allow.toml"))
                    .filter(|p| p.is_file());
                default
            }
        };
        if let Some(p) = allow_path {
            let waivers = parse_waivers(&p)?;
            let applied = apply_waivers(&mut diags, waivers);
            for w in &applied {
                if w.used == 0 {
                    unused.push(format!(
                        "unused waiver at {}:{} (rule {}, file {})",
                        p.display(),
                        w.line,
                        w.rule,
                        w.file
                    ));
                }
            }
        }
    }

    let active = diags.iter().filter(|d| !d.waived).count();
    let waived = diags.iter().filter(|d| d.waived).count();
    let unused_fail = args.deny_unused_waivers && !unused.is_empty();
    let clean = active == 0 && !unused_fail;

    if args.json {
        print!("{}", render_json(&diags, clean));
    } else {
        print!("{}", render_text(&diags, args.show_waived));
        for u in &unused {
            println!("warning: {u}");
        }
        println!(
            "elan-verify: {} file(s) checked, {active} active diagnostic(s), {waived} waived",
            ws.files.len()
        );
    }
    if unused_fail {
        for u in &unused {
            eprintln!("error (--deny-unused-waivers): {u}");
        }
    }
    Ok(clean)
}

fn resolve_root(args: &Args) -> Result<PathBuf, String> {
    if let Some(r) = &args.root {
        return Ok(r.clone());
    }
    let cwd = env::current_dir().map_err(|e| format!("cannot read cwd: {e}"))?;
    find_root(&cwd).ok_or_else(|| {
        "could not locate the workspace root (need Cargo.toml + crates/); pass --root".to_string()
    })
}
