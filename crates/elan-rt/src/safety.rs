//! Post-hoc term-fencing safety checker over the [`EventJournal`].
//!
//! Chaos tests prove *liveness* by finishing; this module proves the
//! *safety* half of AM failover: replaying a run's retained events, it
//! checks that at most one AM acted per fencing term and that no effect
//! from a stale (fenced) AM landed after its successor's term bump —
//! the split-brain freedom the persist-before-act store is supposed to
//! guarantee under scripted partitions.
//!
//! The checker is deliberately conservative about the journal being a
//! bounded ring: an effect carrying a term *newer* than the last
//! retained `TermBump` means the bump itself was evicted, not that the
//! protocol misbehaved, so the checker adopts it as the new baseline
//! instead of flagging it.
//!
//! [`EventJournal`]: crate::obs::EventJournal

use std::collections::BTreeSet;

use elan_core::protocol::EpochPhase;
use elan_core::state::WorkerId;

use crate::obs::{Event, EventKind};

/// One safety violation found in a journal replay.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) enum TermViolation {
    /// A `TermBump` did not strictly increase the term — two AM
    /// incarnations claimed the same (or an older) term.
    NonMonotonicTermBump {
        /// Journal sequence of the offending event.
        seq: u64,
        /// The highest term bumped before it.
        prev: u64,
        /// The term it claimed.
        next: u64,
    },
    /// An `AmElected` did not strictly increase the epoch.
    NonMonotonicElection {
        /// Journal sequence of the offending event.
        seq: u64,
        /// The highest epoch elected before it.
        prev: u64,
        /// The epoch it claimed.
        next: u64,
    },
    /// A term-carrying effect (boundary release, rejoin admission)
    /// landed *after* a successor bumped past its term: a fenced AM
    /// still acted.
    StaleTermEffect {
        /// Journal sequence of the offending event.
        seq: u64,
        /// The effect's event kind (`EventKind::name`).
        kind: &'static str,
        /// The stale term the effect was issued under.
        term: u64,
        /// The term in force when it landed.
        current: u64,
    },
    /// A `StaleTermRejected` whose rejected term was not actually older
    /// than the fencing term — the fence fired on non-stale traffic.
    MalformedRejection {
        /// Journal sequence of the offending event.
        seq: u64,
        /// The fencing term.
        term: u64,
        /// The term that was rejected.
        stale: u64,
    },
}

impl std::fmt::Display for TermViolation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TermViolation::NonMonotonicTermBump { seq, prev, next } => {
                write!(
                    f,
                    "event #{seq}: term bump {prev} -> {next} is not an increase"
                )
            }
            TermViolation::NonMonotonicElection { seq, prev, next } => {
                write!(
                    f,
                    "event #{seq}: election epoch {prev} -> {next} is not an increase"
                )
            }
            TermViolation::StaleTermEffect {
                seq,
                kind,
                term,
                current,
            } => write!(
                f,
                "event #{seq}: {kind} under stale term {term} after bump to {current}"
            ),
            TermViolation::MalformedRejection { seq, term, stale } => write!(
                f,
                "event #{seq}: rejection of term {stale} under term {term} is not stale"
            ),
        }
    }
}

/// The outcome of a journal safety replay.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TermSafetyReport {
    /// Every violation found, in journal order.
    pub(crate) violations: Vec<TermViolation>,
    /// `TermBump` events replayed.
    pub terms_seen: u64,
    /// Term-carrying effects audited against the fence.
    pub effects_checked: u64,
}

impl TermSafetyReport {
    /// True when the replay found no violation.
    pub fn is_safe(&self) -> bool {
        self.violations.is_empty()
    }
}

impl std::fmt::Display for TermSafetyReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} violations over {} term(s), {} effect(s)",
            self.violations.len(),
            self.terms_seen,
            self.effects_checked
        )?;
        for v in &self.violations {
            write!(f, "\n  - {v}")?;
        }
        Ok(())
    }
}

/// Replays `events` (e.g. [`ShutdownReport::events`]) and proves the
/// term-fencing invariants: terms and election epochs are strictly
/// monotonic, every term-carrying effect was issued under the term in
/// force, and every logged rejection really was of stale traffic.
///
/// [`ShutdownReport::events`]: crate::runtime::ShutdownReport
pub fn check_term_safety(events: &[Event]) -> TermSafetyReport {
    let mut violations = Vec::new();
    let mut terms_seen = 0u64;
    let mut effects_checked = 0u64;
    // The term/epoch in force; None until the first bump/election is
    // seen (the ring may have evicted the run's opening events).
    let mut current_term: Option<u64> = None;
    let mut current_epoch: Option<u64> = None;
    let audit = |seq: u64,
                 kind: &'static str,
                 term: u64,
                 current_term: &mut Option<u64>,
                 violations: &mut Vec<TermViolation>| {
        match *current_term {
            Some(current) if term < current => violations.push(TermViolation::StaleTermEffect {
                seq,
                kind,
                term,
                current,
            }),
            Some(current) if term > current => *current_term = Some(term), // evicted bump
            Some(_) => {}
            None => *current_term = Some(term),
        }
    };
    for event in events {
        match &event.kind {
            EventKind::TermBump { term } => {
                terms_seen += 1;
                match current_term {
                    Some(prev) if *term <= prev => {
                        violations.push(TermViolation::NonMonotonicTermBump {
                            seq: event.seq,
                            prev,
                            next: *term,
                        });
                    }
                    _ => current_term = Some(*term),
                }
            }
            EventKind::AmElected { epoch } => match current_epoch {
                Some(prev) if *epoch <= prev => {
                    violations.push(TermViolation::NonMonotonicElection {
                        seq: event.seq,
                        prev,
                        next: *epoch,
                    });
                }
                _ => current_epoch = Some(*epoch),
            },
            EventKind::BoundaryReleased { term, .. } => {
                effects_checked += 1;
                audit(
                    event.seq,
                    event.kind.name(),
                    *term,
                    &mut current_term,
                    &mut violations,
                );
            }
            EventKind::WorkerRejoin { term, .. } => {
                effects_checked += 1;
                audit(
                    event.seq,
                    event.kind.name(),
                    *term,
                    &mut current_term,
                    &mut violations,
                );
            }
            EventKind::StaleTermRejected { term, stale } if stale >= term => {
                violations.push(TermViolation::MalformedRejection {
                    seq: event.seq,
                    term: *term,
                    stale: *stale,
                });
            }
            _ => {}
        }
    }
    TermSafetyReport {
        violations,
        terms_seen,
        effects_checked,
    }
}

/// One open-membership safety violation found in a journal replay.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) enum EpochViolation {
    /// An `EpochPhaseEntered` went backwards in epochs.
    NonMonotonicEpoch {
        /// Journal sequence of the offending event.
        seq: u64,
        /// The epoch in force before it.
        prev: u64,
        /// The epoch it claimed.
        next: u64,
    },
    /// A phase entry that the machine's diagram does not allow
    /// (e.g. `Train` without a `Warmup`, or a new epoch that skipped
    /// `Cooldown`).
    IllegalPhaseTransition {
        /// Journal sequence of the offending event.
        seq: u64,
        /// The phase (and epoch) in force before it.
        from: (u64, EpochPhase),
        /// The phase (and epoch) it entered.
        to: (u64, EpochPhase),
    },
    /// A `Train` phase started with membership outside the configured
    /// `[min_members, max_members]` thresholds.
    MembershipOutOfBounds {
        /// Journal sequence of the offending event.
        seq: u64,
        /// Members at `Train` entry.
        members: u64,
        /// Configured floor.
        min: u64,
        /// Configured cap.
        max: u64,
    },
    /// A `JoinAdmitted` with no preceding admit `WitnessVoteCast` for
    /// that (worker, epoch) — an un-witnessed admission.
    UnwitnessedAdmission {
        /// Journal sequence of the offending event.
        seq: u64,
        /// The admitted worker.
        worker: WorkerId,
        /// The admitting epoch.
        epoch: u64,
    },
    /// A `JoinAdmitted` whose recorded tally does not carry a strict
    /// majority (or carries no admit vote at all).
    BadAdmissionTally {
        /// Journal sequence of the offending event.
        seq: u64,
        /// The admitted worker.
        worker: WorkerId,
        /// Admit votes recorded.
        votes_for: u64,
        /// Evict votes recorded.
        votes_against: u64,
    },
    /// A `JoinAdmitted` or `WitnessEvicted` landed while the epoch was
    /// not in `Warmup` — membership changed mid-epoch.
    AdmissionOutsidePhase {
        /// Journal sequence of the offending event.
        seq: u64,
        /// The worker admitted or evicted.
        worker: WorkerId,
        /// The phase in force when it landed.
        phase: EpochPhase,
    },
}

impl std::fmt::Display for EpochViolation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EpochViolation::NonMonotonicEpoch { seq, prev, next } => {
                write!(f, "event #{seq}: epoch {prev} -> {next} is not monotonic")
            }
            EpochViolation::IllegalPhaseTransition { seq, from, to } => write!(
                f,
                "event #{seq}: illegal phase transition {}@{} -> {}@{}",
                from.1, from.0, to.1, to.0
            ),
            EpochViolation::MembershipOutOfBounds {
                seq,
                members,
                min,
                max,
            } => write!(
                f,
                "event #{seq}: Train entered with {members} members outside [{min}, {max}]"
            ),
            EpochViolation::UnwitnessedAdmission { seq, worker, epoch } => write!(
                f,
                "event #{seq}: worker {worker} admitted in epoch {epoch} with no admit vote on record"
            ),
            EpochViolation::BadAdmissionTally {
                seq,
                worker,
                votes_for,
                votes_against,
            } => write!(
                f,
                "event #{seq}: worker {worker} admitted on a {votes_for}-{votes_against} tally"
            ),
            EpochViolation::AdmissionOutsidePhase { seq, worker, phase } => write!(
                f,
                "event #{seq}: membership change for worker {worker} during {phase}"
            ),
        }
    }
}

/// The outcome of an open-membership journal replay.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EpochSafetyReport {
    /// Every violation found, in journal order.
    pub(crate) violations: Vec<EpochViolation>,
    /// `EpochPhaseEntered` events replayed.
    pub phases_seen: u64,
    /// Admissions and evictions audited.
    pub admissions_checked: u64,
}

impl EpochSafetyReport {
    /// True when the replay found no violation.
    pub fn is_safe(&self) -> bool {
        self.violations.is_empty()
    }
}

impl std::fmt::Display for EpochSafetyReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} violations over {} phase(s), {} admission(s)",
            self.violations.len(),
            self.phases_seen,
            self.admissions_checked
        )?;
        for v in &self.violations {
            write!(f, "\n  - {v}")?;
        }
        Ok(())
    }
}

/// Replays `events` and proves the open-membership invariants of
/// `EpochMachine`: epochs are monotonic
/// and phases follow the machine's diagram, every `Train` phase starts
/// within the configured membership thresholds, and every admission is
/// witnessed — backed by at least one recorded admit vote, a strict
/// majority tally, and landing only during `Warmup`.
///
/// Like [`check_term_safety`], the checker is conservative about the
/// journal being a bounded ring: with no retained `EpochConfigured`
/// the threshold check is skipped, the first retained phase entry is
/// adopted as baseline, and the witness-vote requirement only applies
/// to epochs whose `Warmup` entry is itself retained (the votes land
/// after it, so eviction cannot have split them).
pub fn check_epoch_safety(events: &[Event]) -> EpochSafetyReport {
    let mut violations = Vec::new();
    let mut phases_seen = 0u64;
    let mut admissions_checked = 0u64;
    let mut bounds: Option<(u64, u64)> = None;
    let mut current: Option<(u64, EpochPhase)> = None;
    // Epochs whose Warmup entry is retained: vote-presence is enforceable.
    let mut warmups_retained: BTreeSet<u64> = BTreeSet::new();
    // (subject, epoch) pairs with a retained admit vote.
    let mut admit_votes: BTreeSet<(WorkerId, u64)> = BTreeSet::new();
    for event in events {
        match &event.kind {
            EventKind::EpochConfigured {
                min_members,
                max_members,
                ..
            } => {
                bounds = Some((*min_members, *max_members));
            }
            EventKind::EpochPhaseEntered {
                epoch,
                phase,
                members,
            } => {
                phases_seen += 1;
                match current {
                    Some((prev, _)) if *epoch < prev => {
                        violations.push(EpochViolation::NonMonotonicEpoch {
                            seq: event.seq,
                            prev,
                            next: *epoch,
                        });
                    }
                    Some(from) => {
                        let legal = match (from.1, *phase) {
                            (EpochPhase::WaitingForMembers, EpochPhase::Warmup)
                            | (EpochPhase::Warmup, EpochPhase::Train)
                            | (EpochPhase::Warmup, EpochPhase::Cooldown)
                            | (EpochPhase::Train, EpochPhase::Cooldown) => *epoch == from.0,
                            (EpochPhase::Cooldown, EpochPhase::WaitingForMembers) => {
                                *epoch == from.0 + 1
                            }
                            _ => false,
                        };
                        if !legal {
                            violations.push(EpochViolation::IllegalPhaseTransition {
                                seq: event.seq,
                                from,
                                to: (*epoch, *phase),
                            });
                        }
                    }
                    None => {} // ring evicted the prefix: adopt as baseline
                }
                current = Some((*epoch, *phase));
                if *phase == EpochPhase::Warmup {
                    warmups_retained.insert(*epoch);
                }
                if *phase == EpochPhase::Train {
                    if let Some((min, max)) = bounds {
                        if *members < min || *members > max {
                            violations.push(EpochViolation::MembershipOutOfBounds {
                                seq: event.seq,
                                members: *members,
                                min,
                                max,
                            });
                        }
                    }
                }
            }
            EventKind::WitnessVoteCast {
                subject,
                epoch,
                admit,
                ..
            } if *admit => {
                admit_votes.insert((*subject, *epoch));
            }
            EventKind::JoinAdmitted {
                worker,
                epoch,
                votes_for,
                votes_against,
            } => {
                admissions_checked += 1;
                if *votes_for == 0 || *votes_for <= *votes_against {
                    violations.push(EpochViolation::BadAdmissionTally {
                        seq: event.seq,
                        worker: *worker,
                        votes_for: *votes_for,
                        votes_against: *votes_against,
                    });
                }
                if warmups_retained.contains(epoch) && !admit_votes.contains(&(*worker, *epoch)) {
                    violations.push(EpochViolation::UnwitnessedAdmission {
                        seq: event.seq,
                        worker: *worker,
                        epoch: *epoch,
                    });
                }
                if let Some((_, phase)) = current {
                    if phase != EpochPhase::Warmup {
                        violations.push(EpochViolation::AdmissionOutsidePhase {
                            seq: event.seq,
                            worker: *worker,
                            phase,
                        });
                    }
                }
            }
            EventKind::WitnessEvicted { worker, .. } => {
                admissions_checked += 1;
                if let Some((_, phase)) = current {
                    if phase != EpochPhase::Warmup {
                        violations.push(EpochViolation::AdmissionOutsidePhase {
                            seq: event.seq,
                            worker: *worker,
                            phase,
                        });
                    }
                }
            }
            _ => {}
        }
    }
    EpochSafetyReport {
        violations,
        phases_seen,
        admissions_checked,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(seq: u64, kind: EventKind) -> Event {
        Event {
            seq,
            at_us: seq * 10,
            kind,
        }
    }

    #[test]
    fn clean_history_is_safe() {
        let events = vec![
            ev(0, EventKind::TermBump { term: 1 }),
            ev(
                1,
                EventKind::BoundaryReleased {
                    boundary: 5,
                    world: 2,
                    term: 1,
                },
            ),
            ev(2, EventKind::AmElected { epoch: 1 }),
            ev(3, EventKind::TermBump { term: 2 }),
            ev(4, EventKind::StaleTermRejected { term: 2, stale: 1 }),
            ev(
                5,
                EventKind::BoundaryReleased {
                    boundary: 10,
                    world: 2,
                    term: 2,
                },
            ),
        ];
        let report = check_term_safety(&events);
        assert!(report.is_safe(), "{report}");
        assert_eq!(report.terms_seen, 2);
        assert_eq!(report.effects_checked, 2);
    }

    #[test]
    fn post_fence_effect_is_flagged() {
        let events = vec![
            ev(0, EventKind::TermBump { term: 1 }),
            ev(1, EventKind::TermBump { term: 2 }),
            // The fenced term-1 AM releases a boundary anyway.
            ev(
                2,
                EventKind::BoundaryReleased {
                    boundary: 5,
                    world: 2,
                    term: 1,
                },
            ),
        ];
        let report = check_term_safety(&events);
        assert_eq!(
            report.violations,
            vec![TermViolation::StaleTermEffect {
                seq: 2,
                kind: "boundary_released",
                term: 1,
                current: 2,
            }]
        );
    }

    #[test]
    fn duplicate_term_claim_is_flagged() {
        let events = vec![
            ev(0, EventKind::TermBump { term: 3 }),
            ev(1, EventKind::TermBump { term: 3 }),
        ];
        let report = check_term_safety(&events);
        assert_eq!(report.violations.len(), 1);
        assert!(matches!(
            report.violations[0],
            TermViolation::NonMonotonicTermBump {
                prev: 3,
                next: 3,
                ..
            }
        ));
    }

    #[test]
    fn non_monotonic_election_is_flagged() {
        let events = vec![
            ev(0, EventKind::AmElected { epoch: 2 }),
            ev(1, EventKind::AmElected { epoch: 2 }),
        ];
        assert_eq!(check_term_safety(&events).violations.len(), 1);
    }

    #[test]
    fn malformed_rejection_is_flagged() {
        let events = vec![ev(0, EventKind::StaleTermRejected { term: 2, stale: 2 })];
        assert!(matches!(
            check_term_safety(&events).violations[0],
            TermViolation::MalformedRejection {
                term: 2,
                stale: 2,
                ..
            }
        ));
    }

    #[test]
    fn evicted_bump_adopts_newer_effect_term() {
        // Ring eviction dropped `TermBump { 2 }`: a term-2 effect is the
        // new baseline, not a violation — but a later term-1 effect is.
        let events = vec![
            ev(0, EventKind::TermBump { term: 1 }),
            ev(
                1,
                EventKind::WorkerRejoin {
                    worker: elan_core::state::WorkerId(3),
                    term: 2,
                },
            ),
            ev(
                2,
                EventKind::BoundaryReleased {
                    boundary: 5,
                    world: 2,
                    term: 1,
                },
            ),
        ];
        let report = check_term_safety(&events);
        assert_eq!(report.violations.len(), 1);
        assert!(matches!(
            report.violations[0],
            TermViolation::StaleTermEffect {
                term: 1,
                current: 2,
                ..
            }
        ));
    }

    #[test]
    fn empty_journal_is_vacuously_safe() {
        let report = check_term_safety(&[]);
        assert!(report.is_safe());
        assert_eq!(report.terms_seen, 0);
    }

    fn w(n: u32) -> WorkerId {
        WorkerId(n)
    }

    fn phase(seq: u64, epoch: u64, phase: EpochPhase, members: u64) -> Event {
        ev(
            seq,
            EventKind::EpochPhaseEntered {
                epoch,
                phase,
                members,
            },
        )
    }

    fn configured(seq: u64, min: u64, max: u64) -> Event {
        ev(
            seq,
            EventKind::EpochConfigured {
                min_members: min,
                max_members: max,
                join_window_ms: 10,
            },
        )
    }

    #[test]
    fn clean_epoch_history_is_safe() {
        let events = vec![
            configured(0, 2, 4),
            phase(1, 0, EpochPhase::WaitingForMembers, 2),
            phase(2, 0, EpochPhase::Warmup, 2),
            ev(
                3,
                EventKind::WitnessVoteCast {
                    witness: w(1),
                    subject: w(9),
                    epoch: 0,
                    admit: true,
                },
            ),
            ev(
                4,
                EventKind::JoinAdmitted {
                    worker: w(9),
                    epoch: 0,
                    votes_for: 1,
                    votes_against: 0,
                },
            ),
            phase(5, 0, EpochPhase::Train, 3),
            phase(6, 0, EpochPhase::Cooldown, 3),
            phase(7, 1, EpochPhase::WaitingForMembers, 3),
        ];
        let report = check_epoch_safety(&events);
        assert!(report.is_safe(), "{report}");
        assert_eq!(report.phases_seen, 5);
        assert_eq!(report.admissions_checked, 1);
    }

    #[test]
    fn train_without_warmup_is_flagged() {
        let events = vec![
            phase(0, 0, EpochPhase::WaitingForMembers, 2),
            phase(1, 0, EpochPhase::Train, 2),
        ];
        assert!(matches!(
            check_epoch_safety(&events).violations[..],
            [EpochViolation::IllegalPhaseTransition { .. }]
        ));
    }

    #[test]
    fn epoch_going_backwards_is_flagged() {
        let events = vec![
            phase(0, 3, EpochPhase::Cooldown, 2),
            phase(1, 2, EpochPhase::WaitingForMembers, 2),
        ];
        assert!(matches!(
            check_epoch_safety(&events).violations[..],
            [EpochViolation::NonMonotonicEpoch {
                prev: 3,
                next: 2,
                ..
            }]
        ));
    }

    #[test]
    fn under_strength_train_is_flagged() {
        let events = vec![
            configured(0, 3, 8),
            phase(1, 0, EpochPhase::Warmup, 2),
            phase(2, 0, EpochPhase::Train, 2),
        ];
        assert!(matches!(
            check_epoch_safety(&events).violations[..],
            [EpochViolation::MembershipOutOfBounds {
                members: 2,
                min: 3,
                max: 8,
                ..
            }]
        ));
    }

    #[test]
    fn unwitnessed_admission_is_flagged() {
        let events = vec![
            phase(0, 1, EpochPhase::Warmup, 2),
            ev(
                1,
                EventKind::JoinAdmitted {
                    worker: w(9),
                    epoch: 1,
                    votes_for: 2,
                    votes_against: 0,
                },
            ),
        ];
        assert!(matches!(
            check_epoch_safety(&events).violations[..],
            [EpochViolation::UnwitnessedAdmission { epoch: 1, .. }]
        ));
    }

    #[test]
    fn minority_tally_admission_is_flagged() {
        let events = vec![
            phase(0, 1, EpochPhase::Warmup, 3),
            ev(
                1,
                EventKind::WitnessVoteCast {
                    witness: w(1),
                    subject: w(9),
                    epoch: 1,
                    admit: true,
                },
            ),
            ev(
                2,
                EventKind::JoinAdmitted {
                    worker: w(9),
                    epoch: 1,
                    votes_for: 1,
                    votes_against: 2,
                },
            ),
        ];
        assert!(matches!(
            check_epoch_safety(&events).violations[..],
            [EpochViolation::BadAdmissionTally {
                votes_for: 1,
                votes_against: 2,
                ..
            }]
        ));
    }

    #[test]
    fn mid_train_admission_is_flagged() {
        let events = vec![
            phase(0, 1, EpochPhase::Warmup, 2),
            ev(
                1,
                EventKind::WitnessVoteCast {
                    witness: w(1),
                    subject: w(9),
                    epoch: 1,
                    admit: true,
                },
            ),
            phase(2, 1, EpochPhase::Train, 2),
            ev(
                3,
                EventKind::JoinAdmitted {
                    worker: w(9),
                    epoch: 1,
                    votes_for: 1,
                    votes_against: 0,
                },
            ),
        ];
        assert!(matches!(
            check_epoch_safety(&events).violations[..],
            [EpochViolation::AdmissionOutsidePhase {
                phase: EpochPhase::Train,
                ..
            }]
        ));
    }

    #[test]
    fn evicted_prefix_is_tolerated() {
        // The ring dropped everything before this epoch's Train: no
        // config, no Warmup entry — the checker adopts the baseline and
        // skips the unenforceable checks.
        let events = vec![
            phase(0, 7, EpochPhase::Train, 5),
            phase(1, 7, EpochPhase::Cooldown, 5),
            phase(2, 8, EpochPhase::WaitingForMembers, 5),
        ];
        assert!(check_epoch_safety(&events).is_safe());
    }
}
