//! End-to-end benchmark of the live Elan elastic runtime.
//!
//! ```text
//! elan-e2e-bench --workload mem_ctrl|mem_bulk|tcp_proc --seed N --seconds S --trace 0|1
//! ```
//!
//! One closed loop drives live jobs at world 2 through the public
//! facade, in eight rounds: each round times set-ups in fresh processes,
//! then starts a job, runs cycles of `scale_in(1)`, `scale_out(1)` and
//! `checkpoint()` and a steady training window on it, and stops it,
//! checking every outcome. The last line of standard output is the
//! JSON result. `--trace 1` runs the same jobs, reads the program's own
//! counters and traces, adds isolated timings of each layer, and reports
//! the per-layer rows instead of the end-to-end ones. See `NOTES.md`.
//!
//! The same binary also serves the child processes the benchmark
//! starts: `worker` (a remote worker of `tcp_proc`), `setup` (one set-up
//! in a fresh process), `probe` (the allreduce tuning probe in a fresh
//! process) and `noop`.

mod bench;
mod idle;
mod job;
mod layers;
mod report;

use std::io::Read;
use std::process::exit;
use std::time::Instant;

use elan::core::state::WorkerId;
use elan::rt::TimeSource;
use elan::{run_remote_worker, RemoteRole};

use job::{worker_exit_line, Job, Workload};

fn usage() -> ! {
    eprintln!(
        "usage: elan-e2e-bench --workload mem_ctrl|mem_bulk|tcp_proc --seed N --seconds S --trace 0|1"
    );
    exit(2)
}

/// Reads `--flag value` pairs; anything else is a usage error.
fn flags(args: &[String], known: &[&str]) -> Vec<(String, String)> {
    let mut out = Vec::new();
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let Some(value) = it.next() else { usage() };
        if !known.contains(&flag.as_str()) {
            usage()
        }
        out.push((flag.clone(), value.clone()));
    }
    out
}

fn flag<'a>(flags: &'a [(String, String)], name: &str) -> Option<&'a str> {
    flags
        .iter()
        .find(|(f, _)| f == name)
        .map(|(_, v)| v.as_str())
}

fn parsed<T: std::str::FromStr>(flags: &[(String, String)], name: &str) -> T {
    match flag(flags, name).and_then(|v| v.parse().ok()) {
        Some(v) => v,
        None => {
            eprintln!("elan-e2e-bench: {name} needs a valid value");
            usage()
        }
    }
}

fn workload(flags: &[(String, String)]) -> Workload {
    match flag(flags, "--workload").and_then(Workload::parse) {
        Some(w) => w,
        None => {
            eprintln!("elan-e2e-bench: unknown or missing --workload");
            usage()
        }
    }
}

/// A remote worker of `tcp_proc`: runs until the job tells it to leave,
/// then prints its peak RSS and final telemetry.
fn worker_main(args: &[String]) {
    let f = flags(args, &["--connect", "--id", "--role", "--workload"]);
    let addr: String = parsed(&f, "--connect");
    let id: u32 = parsed(&f, "--id");
    let role = match flag(&f, "--role").and_then(RemoteRole::parse) {
        Some(r) => r,
        None => usage(),
    };
    let cfg = workload(&f).config();
    // The coordinator holds this process's stdin open; end-of-file means
    // the benchmark is gone, and a worker must not outlive it.
    std::thread::spawn(|| {
        let mut sink = Vec::new();
        let _ = std::io::stdin().read_to_end(&mut sink);
        exit(4)
    });
    match run_remote_worker(&addr, WorkerId(id), cfg, role) {
        Ok(view) => {
            let (iteration, stalled_us) =
                view.map_or((0, 0), |v| (v.iteration, v.stalled.as_micros() as u64));
            println!(
                "{}",
                worker_exit_line(id, report::vm_hwm_kb(), iteration, stalled_us)
            );
        }
        Err(e) => {
            eprintln!("elan-e2e-bench worker {id}: {e}");
            exit(1)
        }
    }
}

/// One set-up in this fresh process: prints `setup_s=<seconds>`.
fn setup_main(args: &[String]) {
    let w = workload(&flags(args, &["--workload"]));
    match Job::start(w) {
        Ok((job, setup)) => {
            let (_, exits) = job.shutdown();
            if exits.iter().any(|e| !e.ok) {
                eprintln!("elan-e2e-bench setup: a worker process failed");
                exit(1)
            }
            println!("setup_s={}", setup.as_secs_f64());
        }
        Err(e) => {
            eprintln!("elan-e2e-bench setup: {e}");
            exit(1)
        }
    }
}

/// The allreduce tuning probe in this fresh process.
fn probe_main() {
    let t = Instant::now();
    let profile = elan::rt::comm::tune::probe(&TimeSource::real());
    let us = t.elapsed().as_secs_f64() * 1e6;
    println!("probe_us={us} flat_max_len={}", profile.flat_max_len);
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("worker") => worker_main(&args[1..]),
        Some("setup") => setup_main(&args[1..]),
        Some("probe") => probe_main(),
        Some("noop") => {}
        _ => {
            let f = flags(&args, &["--workload", "--seed", "--seconds", "--trace"]);
            let opts = bench::Opts {
                workload: workload(&f),
                seed: parsed(&f, "--seed"),
                seconds: parsed(&f, "--seconds"),
                trace: match flag(&f, "--trace") {
                    Some("0") => false,
                    Some("1") => true,
                    _ => usage(),
                },
            };
            match bench::run(&opts) {
                Ok(outcome) => {
                    for e in &outcome.errors {
                        eprintln!("elan-e2e-bench: check failed: {e}");
                    }
                    println!("{}", outcome.to_json());
                }
                Err(e) => {
                    eprintln!("elan-e2e-bench: {e}");
                    exit(1)
                }
            }
        }
    }
}
