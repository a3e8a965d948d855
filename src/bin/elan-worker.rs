//! Worker process for multi-process mode: dials the coordinator's socket
//! and runs the standard worker loop until the job tells it to leave.
//!
//! ```text
//! elan-worker --connect unix:/tmp/elan.sock --id 0
//! elan-worker --connect tcp:127.0.0.1:7400 --id 2 --role joining
//! elan-worker --connect unix:/tmp/elan.sock --id 1 --role rejoin:0:15
//! ```
//!
//! `--workers` only sizes the `RuntimeConfig` the training-shape fields
//! are derived from; it must match the coordinator's `--workers` so both
//! sides agree on the per-iteration batch and replication chunking.

#![forbid(unsafe_code)]

use std::process::exit;

use elan::core::state::WorkerId;
use elan::{run_remote_worker, RemoteRole, RuntimeConfig};

fn usage() -> ! {
    eprintln!(
        "usage: elan-worker --connect <tcp:host:port|unix:/path> --id N \
         [--role founding|joining|rejoin:<term>:<iter>] [--workers N]"
    );
    exit(2)
}

fn parse_or_usage<T: std::str::FromStr>(v: Option<String>, flag: &str) -> T {
    match v.and_then(|s| s.parse().ok()) {
        Some(x) => x,
        None => {
            eprintln!("elan-worker: {flag} needs a valid value");
            usage()
        }
    }
}

fn main() {
    let mut connect: Option<String> = None;
    let mut id: Option<u32> = None;
    let mut role = RemoteRole::Founding;
    let mut workers: u32 = 2;
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--connect" => connect = args.next(),
            "--id" => id = Some(parse_or_usage(args.next(), "--id")),
            "--workers" => workers = parse_or_usage(args.next(), "--workers"),
            "--role" => {
                let raw: String = parse_or_usage(args.next(), "--role");
                role = match RemoteRole::parse(&raw) {
                    Some(r) => r,
                    None => {
                        eprintln!("elan-worker: bad --role {raw:?}");
                        usage()
                    }
                };
            }
            _ => usage(),
        }
    }
    let (Some(addr), Some(id)) = (connect, id) else {
        usage()
    };

    let cfg = RuntimeConfig::small(workers);
    match run_remote_worker(&addr, WorkerId(id), cfg, role) {
        Ok(Some(view)) => println!(
            "elan-worker {id}: left at iteration {} (checksum {:#018x})",
            view.iteration, view.params_checksum
        ),
        Ok(None) => println!("elan-worker {id}: left before training"),
        Err(e) => {
            eprintln!("elan-worker {id}: {e}");
            exit(1)
        }
    }
}
