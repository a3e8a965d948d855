//! `repro` — regenerates every table and figure of the Elan paper.
//!
//! ```text
//! repro <experiment-id> [...]   # e.g. repro fig15 fig16
//! repro all                     # the whole evaluation
//! repro list                    # available ids
//! ```

#![forbid(unsafe_code)]

use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.is_empty() || args[0] == "list" || args[0] == "--help" {
        eprintln!("usage: repro <experiment-id|all> [...]");
        eprintln!("experiments: {}", bench::ALL_EXPERIMENTS.join(", "));
        return if args.first().map(String::as_str) == Some("list") {
            ExitCode::SUCCESS
        } else {
            ExitCode::FAILURE
        };
    }

    let ids: Vec<&str> = if args.iter().any(|a| a == "all") {
        bench::ALL_EXPERIMENTS.to_vec()
    } else {
        args.iter().map(String::as_str).collect()
    };

    for id in ids {
        match bench::run_experiment(id) {
            Ok(report) => {
                println!("================ {id} ================");
                println!("{report}");
            }
            Err(e) => {
                eprintln!("error: {e}");
                return ExitCode::FAILURE;
            }
        }
    }
    ExitCode::SUCCESS
}
