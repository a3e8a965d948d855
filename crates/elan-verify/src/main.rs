//! CLI for the workspace invariant checker.
//!
//! ```text
//! elan-verify [--root PATH] [--json]
//! elan-verify --fixture FILE.rs [--json]
//! elan-verify --self-test [--root PATH]
//! ```
//!
//! Exit codes: 0 = clean, 1 = active diagnostics (or failed self-test),
//! 2 = usage/configuration error.

#![forbid(unsafe_code)]

use std::env;
use std::path::PathBuf;
use std::process::ExitCode;

use elan_verify::{find_root, render_json, render_text, run_all, self_test, Workspace};

struct Args {
    root: Option<PathBuf>,
    fixture: Option<PathBuf>,
    json: bool,
    self_test: bool,
}

fn usage() -> &'static str {
    "usage: elan-verify [--root PATH] [--json] | --fixture FILE.rs | --self-test"
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        root: None,
        fixture: None,
        json: false,
        self_test: false,
    };
    let mut it = env::args().skip(1);
    while let Some(a) = it.next() {
        match a.as_str() {
            "--root" => {
                args.root = Some(PathBuf::from(it.next().ok_or("--root requires a path")?));
            }
            "--fixture" => {
                args.fixture = Some(PathBuf::from(it.next().ok_or("--fixture requires a file")?));
            }
            "--json" => args.json = true,
            "--self-test" => args.self_test = true,
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

    // Check one standalone fixture (every rule enabled) or the workspace.
    let ws = match &args.fixture {
        Some(fx) => Workspace::load_fixture(fx)?,
        None => Workspace::load(&resolve_root(&args)?)?,
    };
    let diags = run_all(&ws)?;
    if args.json {
        print!("{}", render_json(&diags));
    } else {
        print!("{}", render_text(&diags));
        println!(
            "elan-verify: {} file(s) checked, {} diagnostic(s)",
            ws.files.len(),
            diags.len()
        );
    }
    Ok(diags.is_empty())
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
