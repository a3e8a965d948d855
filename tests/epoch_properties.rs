//! Property-based tests for the open-membership epoch machine
//! (DESIGN.md §17), driven through the scripted churn storm
//! ([`run_churn`]) — a pure function of its config, so hundreds of
//! randomized storms cost milliseconds, not threads.
//!
//! The properties, over arbitrary seeds, populations, and fault dials:
//!
//! - **determinism** — the journal (hashed) and every counter are pure
//!   functions of the seed: two runs of the same storm are identical;
//! - **membership bounds** — every `Train` entry seats between
//!   `min_members` and `max_members` members;
//! - **no un-warmed member trains** — `Train` is only ever entered from
//!   `Warmup`, and every admission carries at least one admit vote from
//!   the witness round (the audit's vote-presence check);
//! - **monotonic epochs** — phase entries never decrease the epoch, and
//!   each `WaitingForMembers` entry (the epoch roll) strictly increases
//!   it.
//!
//! The journal [`audit`] is asserted on every storm too — the same
//! audit CI runs over seedsweep and chaos e2e journals — plus direct
//! event-scan assertions below so a bug in the audit itself cannot
//! silently weaken the properties.

use std::collections::BTreeSet;

use proptest::prelude::*;

use elan::core::protocol::EpochPhase;
use elan::core::state::WorkerId;
use elan::rt::epoch::{run_churn, ChurnConfig};
use elan::rt::{audit, EventKind};

/// A storm config over the randomized degrees of freedom. Fault dials
/// ride the strategy so shrinking finds the *simplest* storm that
/// breaks a property, not just the smallest seed.
fn storm(
    population: u32,
    seed: u64,
    join: u32,
    leave: u32,
    crash: u32,
    corrupt: u32,
) -> ChurnConfig {
    let mut cfg = ChurnConfig::sized(population, seed);
    cfg.join_permille = join;
    cfg.leave_permille = leave;
    cfg.crash_permille = crash;
    cfg.corrupt_permille = corrupt;
    cfg
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 24,
        ..ProptestConfig::default()
    })]

    #[test]
    fn churn_storm_is_deterministic_and_epoch_safe(
        seed in 0u64..1_000_000,
        population in 40u32..240,
        join in 20u32..120,
        leave in 0u32..20,
        crash in 0u32..12,
        corrupt in 0u32..200,
    ) {
        let cfg = storm(population, seed, join, leave, crash, corrupt);
        let a = run_churn(&cfg);
        let b = run_churn(&cfg);

        // Determinism: the journal is a pure function of the config.
        prop_assert_eq!(
            a.journal_hash, b.journal_hash,
            "two runs of seed {} hashed differently", seed
        );
        prop_assert_eq!(a.admitted, b.admitted);
        prop_assert_eq!(a.evicted, b.evicted);
        prop_assert_eq!(a.deferred, b.deferred);
        prop_assert_eq!(a.epochs_trained, b.epochs_trained);
        prop_assert_eq!(a.peak_members, b.peak_members);

        // The audit: legal phase transitions, vote-backed admissions,
        // bounded Train membership, monotonic epochs.
        let verdict = audit(&a.events);
        prop_assert!(verdict.is_safe(), "journal audit failed: {}", verdict);

        // Direct scans, independent of the audit's bookkeeping.
        let (min, max) = (cfg.epoch.min_members as u64, cfg.epoch.max_members as u64);
        let mut last_epoch = 0u64;
        let mut last_waiting_epoch: Option<u64> = None;
        let mut prev_phase: Option<EpochPhase> = None;
        let mut admitted: BTreeSet<(WorkerId, u64)> = BTreeSet::new();
        let mut admit_votes: BTreeSet<(WorkerId, u64)> = BTreeSet::new();
        for e in &a.events {
            match e.kind {
                EventKind::EpochPhaseEntered { epoch, phase, members } => {
                    // Monotonic: entries never go back in epoch.
                    prop_assert!(
                        epoch >= last_epoch,
                        "epoch regressed {} -> {} at seq {}", last_epoch, epoch, e.seq
                    );
                    last_epoch = epoch;
                    if phase == EpochPhase::WaitingForMembers {
                        // Strictly monotonic across epoch rolls.
                        if let Some(prev) = last_waiting_epoch {
                            prop_assert!(
                                epoch > prev,
                                "epoch roll did not advance: {} -> {}", prev, epoch
                            );
                        }
                        last_waiting_epoch = Some(epoch);
                    }
                    if phase == EpochPhase::Train {
                        // Bounds: a training cohort is never under- or
                        // over-strength.
                        prop_assert!(
                            members >= min && members <= max,
                            "Train entered with {} members outside [{}, {}]",
                            members, min, max
                        );
                        // No un-warmed cohort: Train is only reachable
                        // from Warmup.
                        prop_assert_eq!(
                            prev_phase, Some(EpochPhase::Warmup),
                            "Train entered from {:?}", prev_phase
                        );
                    }
                    prev_phase = Some(phase);
                }
                EventKind::WitnessVoteCast { subject, epoch, admit, .. } if admit => {
                    admit_votes.insert((subject, epoch));
                }
                EventKind::JoinAdmitted { worker, epoch, .. } => {
                    admitted.insert((worker, epoch));
                }
                _ => {}
            }
        }
        // Every admission was vote-backed: an un-warmed worker (one that
        // never survived a witness round) cannot have been admitted.
        for (worker, epoch) in &admitted {
            prop_assert!(
                admit_votes.contains(&(*worker, *epoch)),
                "{:?} admitted in epoch {} without an admit vote", worker, epoch
            );
        }
    }

    /// Corrupt joiners claim a perturbed digest; with the corruption
    /// dial pinned high, evictions must actually happen (the witness
    /// round is load-bearing, not decorative) and no evicted (worker,
    /// epoch) pair may also be admitted.
    #[test]
    fn witness_round_evicts_corrupt_joiners(seed in 0u64..1_000_000) {
        // Leaves keep capacity opening up: a full-to-the-cap job defers
        // every join and would never run a witness round at all (the
        // genesis cohort is seated by the bootstrap path, vote-free).
        let cfg = storm(120, seed, 120, 100, 0, 1000);
        let report = run_churn(&cfg);
        prop_assert!(
            report.evicted >= 1,
            "all-corrupt storm evicted nobody: {:?}", report
        );
        let mut evicted: BTreeSet<(WorkerId, u64)> = BTreeSet::new();
        let mut admitted: BTreeSet<(WorkerId, u64)> = BTreeSet::new();
        for e in &report.events {
            match e.kind {
                EventKind::WitnessEvicted { worker, epoch, .. } => {
                    evicted.insert((worker, epoch));
                }
                EventKind::JoinAdmitted { worker, epoch, .. } => {
                    admitted.insert((worker, epoch));
                }
                _ => {}
            }
        }
        for pair in &evicted {
            prop_assert!(
                !admitted.contains(pair),
                "{:?} both admitted and evicted in the same epoch", pair
            );
        }
        let verdict = audit(&report.events);
        prop_assert!(verdict.is_safe(), "journal audit failed: {}", verdict);
    }
}
