//! Fault tolerance end to end (§V-D), twice over:
//!
//! 1. an **application-master crash under message loss**, on the real
//!    clock: while a scale-out is in flight the AM thread dies on a
//!    fault-injecting bus, a watchdog elects a replacement AM that
//!    recovers the half-done adjustment from the replicated store, and a
//!    reliable-messaging layer masks 20% message loss;
//! 2. a **network partition and a worker rejoin**, on virtual time: a
//!    scripted 500ms window isolates the acting AM mid-scale-out, a
//!    term-fenced successor takes over and completes the op, the window
//!    heals — then a worker crashes at a coordination boundary, restarts,
//!    and is re-admitted through the `Rejoin` handshake, resuming
//!    bit-identically.
//!
//! ```sh
//! cargo run --example fault_tolerance
//! ```

use std::time::Duration;

use elan::rt::{
    audit, ChaosPolicy, CrashPoint, ElasticRuntime, EndpointId, RuntimeConfig, TimeSource,
};

fn live() {
    println!(
        "== live runtime ==\n\
         2 worker threads training on a bus that drops 20%, delays 20%,\n\
         and duplicates 10% of every control message. Mid-scale-out the AM\n\
         thread is killed right after persisting its durable record; the\n\
         watchdog detects the lapsed lease and elects a replacement that\n\
         finishes the adjustment from the replicated store.\n"
    );
    let chaos = ChaosPolicy::new(2020)
        .drop(0.20)
        .delay(0.20, 3)
        .duplicate(0.10);
    let mut rt = ElasticRuntime::builder()
        .config(RuntimeConfig::small(2))
        .chaos(chaos)
        .start()
        .expect("valid runtime configuration");
    rt.run_until_iteration(10);
    rt.arm_am_crash(CrashPoint::OnAdjustStart);
    rt.scale_out(2); // blocks until the (recovered) adjustment completes
    rt.run_until_iteration(25);
    let report = rt.shutdown();

    let m = report.metrics;
    println!("final world size       : {}", report.final_world_size);
    println!("AM recoveries survived : {}", m.am_recoveries);
    println!("message resends        : {}", m.resends);
    println!("duplicates suppressed  : {}", m.duplicates);
    println!("bus dead letters       : {}", m.dead_letters);
    if let Some(c) = report.chaos {
        println!(
            "chaos verdicts         : {} delivered / {} dropped / {} duplicated / {} delayed",
            c.delivered, c.dropped, c.duplicated, c.delayed
        );
    }
    for (w, v) in &report.workers {
        println!(
            "  worker {:>2}: iteration {:>3}  checksum {:016x}  stalled {:>9?}",
            w.0, v.iteration, v.params_checksum, v.stalled
        );
    }

    // The adjustment-latency breakdown: every number below is read back
    // from the runtime's structured event journal (the AdjustmentTrace
    // spans), not from a stopwatch wrapped around the calls above.
    println!();
    println!("{}", report.trace_report());
    let scale_out = report
        .traces
        .iter()
        .find(|t| t.kind == elan::rt::TraceKind::ScaleOut && t.completed)
        .expect("the chaos-ridden scale-out must leave a completed trace");
    println!(
        "scale-out under chaos  : request={}us report={}us coordinate={}us replicate={}us adjust={}us (total {}us)",
        scale_out.phase_us(elan::core::obs::AdjustmentPhase::Request),
        scale_out.phase_us(elan::core::obs::AdjustmentPhase::Report),
        scale_out.phase_us(elan::core::obs::AdjustmentPhase::Coordinate),
        scale_out.phase_us(elan::core::obs::AdjustmentPhase::Replicate),
        scale_out.phase_us(elan::core::obs::AdjustmentPhase::Adjust),
        scale_out.total_us()
    );
    println!(
        "journal                : {} events recorded ({} chaos injections, {} resends, {} AM elections)",
        report.journal.total,
        report.journal.count("chaos_injected"),
        report.journal.count("message_resent"),
        report.journal.count("am_elected"),
    );

    assert_eq!(report.final_world_size, 4);
    assert!(
        report.metrics.am_recoveries >= 1,
        "the watchdog must have fired"
    );
    assert!(report.metrics.resends > 0, "loss must have forced resends");
    assert!(report.states_consistent(), "replicas diverged");
    assert!(
        scale_out.is_well_formed(),
        "the recovered adjustment trace must still be well-formed"
    );
    println!("\nall invariants held: bit-identical replicas despite chaos and a dead AM");
}

fn partitioned() {
    println!(
        "== partition & rejoin (virtual time) ==\n\
         3 worker threads training; a scripted 500ms partition cuts the\n\
         acting AM off from workers, controller, and store while a\n\
         scale-out is requested. Its lease lapses, a successor is elected\n\
         at a higher fencing term, the old AM's first write bounces off\n\
         the store, and the adjustment completes under the new term. After\n\
         the heal, a worker crashes at a coordination boundary, restarts,\n\
         and rejoins through the same replication path a joiner uses.\n"
    );
    let mut rt = ElasticRuntime::builder()
        .config(RuntimeConfig::small(3))
        // No probabilistic fates — the policy mounts the chaos engine so
        // the partition window can be scripted onto it.
        .chaos(ChaosPolicy::new(2021))
        .time(TimeSource::virtual_seeded(2021))
        .start()
        .expect("valid runtime configuration");
    rt.run_until_iteration(10);

    rt.partition(
        "am-isolated",
        vec![vec![EndpointId::Am]],
        Duration::from_millis(500),
    );
    rt.scale_out(1); // rides out the partition, completes on the successor
    rt.run_until_iteration(20);

    let victim = rt.members()[0];
    rt.crash_worker_at(victim, 25); // dies at its next boundary ≥ 25
    rt.restart_worker(victim); // reaps the corpse, spawns a Rejoin incarnation
    rt.run_until_iteration(35);
    let report = rt.shutdown();

    let j = &report.journal;
    println!("final world size       : {}", report.final_world_size);
    println!("partitions opened      : {}", j.count("partition_start"));
    println!("partitions healed      : {}", j.count("partition_heal"));
    println!("AM elections           : {}", j.count("am_elected"));
    println!("fencing term bumps     : {}", j.count("term_bump"));
    println!(
        "stale writes fenced    : {}",
        j.count("stale_term_rejected")
    );
    println!("workers rejoined       : {}", j.count("worker_rejoin"));
    for (w, v) in &report.workers {
        println!(
            "  worker {:>2}: iteration {:>3}  checksum {:016x}",
            w.0, v.iteration, v.params_checksum
        );
    }

    // Audit the journal: at most one AM acted per term, nothing landed
    // after its fence, and the AM acted only on agreed boundaries.
    let safety = audit(&report.events);
    println!("journal audit          : {safety}");

    assert_eq!(report.final_world_size, 4);
    assert!(j.count("term_bump") >= 2, "successor never bumped the term");
    assert!(
        j.count("stale_term_rejected") >= 1,
        "the old AM was never fenced"
    );
    assert!(j.count("worker_rejoin") >= 1, "the victim never rejoined");
    assert!(safety.is_safe(), "journal audit failed: {safety}");
    assert!(report.states_consistent(), "replicas diverged");
    println!("\nall invariants held: one AM per term, and the rejoiner is bit-identical\n");
}

fn main() {
    live();
    partitioned();
}
