//! Open-membership churn stress harness: a 10 000-member scripted
//! join/leave/crash storm over the epoch machine, on virtual time.
//!
//! ```text
//! churn [--population N] [--seed S] [--runs K] [--out PATH]
//!                                      run the storm, write a JSON report
//! churn --validate PATH                schema-check an existing report
//! ```
//!
//! The default output path is `BENCH_churn.json` in the current
//! directory. The storm runs twice by default and the report records
//! whether both runs hashed identically and whether the epoch-safety
//! auditor passed — `--validate` (used by the CI smoke job) refuses any
//! report where either check failed or the wall budget was blown.

#![forbid(unsafe_code)]

use std::process::ExitCode;

use bench::churn;

fn main() -> ExitCode {
    let mut population: u32 = 10_000;
    let mut seed: u64 = 2020;
    let mut runs: u32 = 2;
    let mut out = String::from("BENCH_churn.json");
    let mut validate: Option<String> = None;

    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--population" => match args.next().and_then(|v| v.parse().ok()) {
                Some(n) => population = n,
                None => return usage("--population requires a number"),
            },
            "--seed" => match args.next().and_then(|v| v.parse().ok()) {
                Some(s) => seed = s,
                None => return usage("--seed requires a number"),
            },
            "--runs" => match args.next().and_then(|v| v.parse().ok()) {
                Some(r) if r >= 1 => runs = r,
                _ => return usage("--runs requires a number >= 1"),
            },
            "--out" => match args.next() {
                Some(path) => out = path,
                None => return usage("--out requires a path"),
            },
            "--validate" => match args.next() {
                Some(path) => validate = Some(path),
                None => return usage("--validate requires a path"),
            },
            "--help" | "-h" => {
                eprintln!("{USAGE}");
                return ExitCode::SUCCESS;
            }
            other => return usage(&format!("unknown argument '{other}'")),
        }
    }

    if let Some(path) = validate {
        return match std::fs::read_to_string(&path) {
            Ok(text) => match churn::validate_json(&text) {
                Ok(()) => {
                    eprintln!("{path}: ok");
                    ExitCode::SUCCESS
                }
                Err(e) => {
                    eprintln!("{path}: schema violation: {e}");
                    ExitCode::FAILURE
                }
            },
            Err(e) => {
                eprintln!("{path}: {e}");
                ExitCode::FAILURE
            }
        };
    }

    let report = churn::run(population, seed, runs, |line| eprintln!("{line}"));
    let json = report.to_json();
    if let Err(e) = std::fs::write(&out, &json) {
        eprintln!("cannot write {out}: {e}");
        return ExitCode::FAILURE;
    }
    eprintln!(
        "wrote {out} (wall={}ms, budget={}ms)",
        report.wall_ms,
        churn::WALL_BUDGET_MS
    );
    if let Err(e) = churn::validate_json(&json) {
        eprintln!("churn report failed its own gate: {e}");
        return ExitCode::from(2);
    }
    ExitCode::SUCCESS
}

const USAGE: &str =
    "usage: churn [--population N] [--seed S] [--runs K] [--out PATH] | churn --validate PATH";

fn usage(msg: &str) -> ExitCode {
    eprintln!("error: {msg}");
    eprintln!("{USAGE}");
    ExitCode::FAILURE
}
