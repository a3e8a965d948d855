//! Data-plane benchmark harness: adaptive allreduce (flat / chunked /
//! hierarchical dispatch), chunked pipelined state replication and the
//! wire codec versus their naive baselines.
//!
//! ```text
//! dataplane [--quick] [--out PATH] [--assert-thresholds BASELINE]
//!                                      run the sweep, write a JSON report
//! dataplane --validate PATH            schema-check an existing report
//! ```
//!
//! The report is written only with `--out` (refresh the committed
//! baseline with `--out BENCH_dataplane.json`); without it the sweep, the
//! schema check and any threshold gate still run, and no file is touched.
//! `--quick` runs a reduced grid suitable for CI smoke runs.
//! `--validate` exits non-zero if the file does not conform to the
//! report schema (used by CI after the smoke run).
//! `--assert-thresholds` additionally diffs the fresh sweep against the
//! committed baseline report: exit code 2 if any shared cell regressed
//! more than the tolerance, any allreduce cell lost to naive, or the
//! codec cell fell below its speedup floor (the CI perf regression
//! gate). The gate is meant for `--quick` runs only: a full-mode sweep
//! is too noisy on a shared host (on a loaded 2-vCPU VM, 5 of 5
//! full-mode runs of one binary failed it against the committed
//! baseline).

#![forbid(unsafe_code)]

use std::process::ExitCode;

use bench::dataplane;

fn main() -> ExitCode {
    let mut quick = false;
    let mut out: Option<String> = None;
    let mut validate: Option<String> = None;
    let mut baseline: Option<String> = None;

    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--quick" => quick = true,
            "--out" => match args.next() {
                Some(path) => out = Some(path),
                None => return usage("--out requires a path"),
            },
            "--validate" => match args.next() {
                Some(path) => validate = Some(path),
                None => return usage("--validate requires a path"),
            },
            "--assert-thresholds" => match args.next() {
                Some(path) => baseline = Some(path),
                None => return usage("--assert-thresholds requires a baseline path"),
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
            Ok(text) => match dataplane::validate_json(&text) {
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

    // Read the baseline *before* the sweep so a bad path fails fast
    // instead of after minutes of measurement.
    let baseline_text = match &baseline {
        Some(path) => match std::fs::read_to_string(path) {
            Ok(text) => Some(text),
            Err(e) => {
                eprintln!("cannot read baseline {path}: {e}");
                return ExitCode::FAILURE;
            }
        },
        None => None,
    };

    let report = dataplane::run(quick, |line| eprintln!("{line}"));
    let json = report.to_json();
    if let Err(e) = dataplane::validate_json(&json) {
        eprintln!("internal error: emitted report fails its own schema: {e}");
        return ExitCode::FAILURE;
    }
    if let Some(out) = &out {
        if let Err(e) = std::fs::write(out, &json) {
            eprintln!("cannot write {out}: {e}");
            return ExitCode::FAILURE;
        }
        eprintln!("wrote {out}");
    }

    if let (Some(path), Some(text)) = (&baseline, &baseline_text) {
        match dataplane::assert_thresholds(&report, text) {
            Ok(()) => eprintln!("thresholds ok against {path}"),
            Err(violations) => {
                eprintln!("perf regression against {path}:");
                eprintln!("{violations}");
                return ExitCode::from(2);
            }
        }
    }
    ExitCode::SUCCESS
}

const USAGE: &str =
    "usage: dataplane [--quick] [--out PATH] [--assert-thresholds BASELINE] | dataplane --validate PATH";

fn usage(msg: &str) -> ExitCode {
    eprintln!("error: {msg}");
    eprintln!("{USAGE}");
    ExitCode::FAILURE
}
