//! Coordinator process for multi-process mode: hosts the application
//! master, controller, and watchdog over a listening socket transport.
//!
//! Workers are separate OS processes started with `elan-worker`:
//!
//! ```text
//! elan-coordinator --listen unix:/tmp/elan.sock --workers 2 --until 20 &
//! elan-worker --connect unix:/tmp/elan.sock --id 0 &
//! elan-worker --connect unix:/tmp/elan.sock --id 1 &
//! ```
//!
//! The coordinator waits (via heartbeat progress) until every member has
//! reached `--until` iterations, then shuts the job down — the `Leave`
//! broadcast makes each worker process exit on its own.

#![forbid(unsafe_code)]

use std::process::exit;
use std::sync::Arc;

use elan::{ElasticRuntime, RuntimeConfig, SocketTransport, Transport};

fn usage() -> ! {
    eprintln!(
        "usage: elan-coordinator --listen <tcp:host:port|unix:/path> \
         [--workers N] [--until ITER]"
    );
    exit(2)
}

fn parse_or_usage<T: std::str::FromStr>(v: Option<String>, flag: &str) -> T {
    match v.and_then(|s| s.parse().ok()) {
        Some(x) => x,
        None => {
            eprintln!("elan-coordinator: {flag} needs a valid value");
            usage()
        }
    }
}

fn main() {
    let mut listen: Option<String> = None;
    let mut workers: u32 = 2;
    let mut until: u64 = 20;
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--listen" => listen = args.next(),
            "--workers" => workers = parse_or_usage(args.next(), "--workers"),
            "--until" => until = parse_or_usage(args.next(), "--until"),
            _ => usage(),
        }
    }
    let Some(addr) = listen else { usage() };

    let transport = match SocketTransport::listen(&addr) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("elan-coordinator: cannot listen on {addr}: {e}");
            exit(1)
        }
    };
    println!("elan-coordinator: listening on {}", transport.local_addr());
    let transport: Arc<dyn Transport> = Arc::new(transport);
    let rt = ElasticRuntime::builder()
        .config(RuntimeConfig::small(workers))
        .transport(transport)
        .remote_workers(true)
        .start();
    let rt = match rt {
        Ok(rt) => rt,
        Err(e) => {
            eprintln!("elan-coordinator: {e}");
            exit(1)
        }
    };
    rt.run_until_iteration(until);
    let report = rt.shutdown();
    println!(
        "elan-coordinator: done — world={} adjustments={} journal_events={}",
        report.final_world_size, report.adjustments, report.journal.total
    );
}
