//! Post-hoc safety audit over the [`EventJournal`].
//!
//! Chaos tests prove *liveness* by finishing; [`audit`] proves the
//! *safety* half. It replays a run's retained events once and checks
//! three invariant families on the same pass:
//!
//! - **term fencing** (DESIGN.md §13): at most one AM acted per fencing
//!   term, and no effect from a stale (fenced) AM landed after its
//!   successor's term bump — the split-brain freedom the
//!   persist-before-act store is supposed to guarantee under scripted
//!   partitions;
//! - **open membership** (DESIGN.md §17): epochs are monotonic, phases
//!   follow `EpochMachine`'s diagram, every `Train` phase starts within
//!   the configured membership thresholds, and every admission is
//!   witnessed;
//! - **boundary agreement** (DESIGN.md §19): the AM acts only on a
//!   boundary its members agree on, and no member it dismissed trains
//!   past that boundary.
//!
//! The audit is deliberately conservative about the journal being a
//! bounded ring: it flags only what the retained events prove, and
//! adopts the first retained term, epoch phase or park as a baseline
//! where the ring has evicted what came before.
//!
//! [`EventJournal`]: crate::obs::EventJournal

use std::collections::{BTreeMap, BTreeSet};

use elan_core::protocol::EpochPhase;
use elan_core::state::WorkerId;

use crate::obs::{Event, EventKind};

/// One safety violation found in a journal replay.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) enum Violation {
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
    /// A term-carrying effect (boundary release, park order, rejoin
    /// admission) landed *after* a successor bumped past its term: a
    /// fenced AM still acted.
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
    /// The AM acted on a boundary (a `Resume`/`Leave` wave, a checkpoint
    /// order or a stop) while a member it counted was last journalled
    /// parked somewhere else, or never parked at all.
    SplitPark {
        /// Journal sequence of the act.
        seq: u64,
        /// The boundary acted on.
        boundary: u64,
        /// The member that was not parked there.
        worker: WorkerId,
        /// Where it last parked, if anywhere.
        parked: Option<u64>,
    },
    /// A member the act dismissed journalled a park afterwards: it
    /// trained past the boundary on the old membership.
    TrainedPast {
        /// Journal sequence of the offending park.
        seq: u64,
        /// The dismissed member.
        worker: WorkerId,
        /// The boundary it was dismissed at.
        boundary: u64,
        /// The later boundary it parked at.
        parked: u64,
    },
}

impl std::fmt::Display for Violation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Violation::NonMonotonicTermBump { seq, prev, next } => {
                write!(
                    f,
                    "event #{seq}: term bump {prev} -> {next} is not an increase"
                )
            }
            Violation::NonMonotonicElection { seq, prev, next } => {
                write!(
                    f,
                    "event #{seq}: election epoch {prev} -> {next} is not an increase"
                )
            }
            Violation::StaleTermEffect {
                seq,
                kind,
                term,
                current,
            } => write!(
                f,
                "event #{seq}: {kind} under stale term {term} after bump to {current}"
            ),
            Violation::MalformedRejection { seq, term, stale } => write!(
                f,
                "event #{seq}: rejection of term {stale} under term {term} is not stale"
            ),
            Violation::NonMonotonicEpoch { seq, prev, next } => {
                write!(f, "event #{seq}: epoch {prev} -> {next} is not monotonic")
            }
            Violation::IllegalPhaseTransition { seq, from, to } => write!(
                f,
                "event #{seq}: illegal phase transition {}@{} -> {}@{}",
                from.1, from.0, to.1, to.0
            ),
            Violation::MembershipOutOfBounds {
                seq,
                members,
                min,
                max,
            } => write!(
                f,
                "event #{seq}: Train entered with {members} members outside [{min}, {max}]"
            ),
            Violation::UnwitnessedAdmission { seq, worker, epoch } => write!(
                f,
                "event #{seq}: worker {worker} admitted in epoch {epoch} with no admit vote on record"
            ),
            Violation::BadAdmissionTally {
                seq,
                worker,
                votes_for,
                votes_against,
            } => write!(
                f,
                "event #{seq}: worker {worker} admitted on a {votes_for}-{votes_against} tally"
            ),
            Violation::AdmissionOutsidePhase { seq, worker, phase } => write!(
                f,
                "event #{seq}: membership change for worker {worker} during {phase}"
            ),
            Violation::SplitPark {
                seq,
                boundary,
                worker,
                parked: Some(at),
            } => write!(
                f,
                "event #{seq}: acted on boundary {boundary} while {worker} was parked at {at}"
            ),
            Violation::SplitPark {
                seq,
                boundary,
                worker,
                parked: None,
            } => write!(
                f,
                "event #{seq}: acted on boundary {boundary} while {worker} never parked"
            ),
            Violation::TrainedPast {
                seq,
                worker,
                boundary,
                parked,
            } => write!(
                f,
                "event #{seq}: {worker}, dismissed at boundary {boundary}, parked at {parked}"
            ),
        }
    }
}

/// The outcome of a journal [`audit`]. The counters show what each
/// invariant family actually replayed, so a caller can tell a clean
/// audit from a vacuous one.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct AuditReport {
    /// Every violation found, in journal order.
    pub(crate) violations: Vec<Violation>,
    /// `TermBump` events replayed.
    pub terms_seen: u64,
    /// Term-carrying effects audited against the fence.
    pub effects_checked: u64,
    /// `EpochPhaseEntered` events replayed.
    pub phases_seen: u64,
    /// Admissions and evictions audited.
    pub admissions_checked: u64,
    /// `BoundaryActed` events audited.
    pub acts_checked: u64,
    /// `WorkerParked` events replayed.
    pub parks_seen: u64,
}

impl AuditReport {
    /// True when the replay found no violation.
    pub fn is_safe(&self) -> bool {
        self.violations.is_empty()
    }
}

impl std::fmt::Display for AuditReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} violations over {} term(s), {} effect(s), {} phase(s), {} admission(s), \
             {} act(s), {} park(s)",
            self.violations.len(),
            self.terms_seen,
            self.effects_checked,
            self.phases_seen,
            self.admissions_checked,
            self.acts_checked,
            self.parks_seen
        )?;
        for v in &self.violations {
            write!(f, "\n  - {v}")?;
        }
        Ok(())
    }
}

/// Replays `events` (e.g. [`ShutdownReport::events`]) once and proves
/// every journal invariant:
///
/// - **term fencing**: terms and election epochs are strictly
///   monotonic, every term-carrying effect was issued under the term in
///   force, and every logged rejection really was of stale traffic. An
///   effect carrying a term *newer* than the last retained `TermBump`
///   means the ring evicted the bump, so it becomes the new baseline;
/// - **open membership**: epochs are monotonic and phases follow the
///   machine's diagram, every `Train` phase starts within the configured
///   membership thresholds, and every admission is backed by a recorded
///   admit vote, carries a strict-majority tally and lands only during
///   `Warmup`. With no retained `EpochConfigured` the threshold check is
///   skipped, and the vote requirement only applies to epochs whose
///   `Warmup` entry is retained (the votes land after it, so eviction
///   cannot have split them);
/// - **boundary agreement**: every `Resume`/`Leave` wave, checkpoint
///   order and stop follows every member it counted (live, not
///   mid-`Rejoin`) parking at that boundary — each one's latest
///   journalled park is the boundary acted on — and a member the act
///   dismissed journals no park afterwards. Once the ring has evicted
///   the run's opening events, a member with no retained park is
///   skipped rather than flagged.
///
/// [`ShutdownReport::events`]: crate::runtime::ShutdownReport
pub fn audit(events: &[Event]) -> AuditReport {
    let mut report = AuditReport::default();
    let violations = &mut report.violations;
    // Term fencing: the term and election epoch in force; None until the
    // first is seen (the ring may have evicted the run's opening events).
    let mut term: Option<u64> = None;
    let mut elected: Option<u64> = None;
    // Open membership: the configured bounds, the phase in force, the
    // epochs whose Warmup entry is retained (vote presence is enforceable)
    // and the (subject, epoch) pairs with a retained admit vote.
    let mut bounds: Option<(u64, u64)> = None;
    let mut phase_now: Option<(u64, EpochPhase)> = None;
    let mut warmups_retained: BTreeSet<u64> = BTreeSet::new();
    let mut admit_votes: BTreeSet<(WorkerId, u64)> = BTreeSet::new();
    // Boundary agreement: each worker's latest park, and the members
    // dismissed by an act with the boundary they were dismissed at.
    let whole = events.first().is_none_or(|e| e.seq == 0);
    let mut parked: BTreeMap<WorkerId, u64> = BTreeMap::new();
    let mut dismissed: BTreeMap<WorkerId, u64> = BTreeMap::new();
    for event in events {
        let seq = event.seq;
        match &event.kind {
            EventKind::TermBump { term: next } => {
                report.terms_seen += 1;
                match term {
                    Some(prev) if *next <= prev => {
                        violations.push(Violation::NonMonotonicTermBump {
                            seq,
                            prev,
                            next: *next,
                        });
                    }
                    _ => term = Some(*next),
                }
            }
            EventKind::AmElected { epoch } => match elected {
                Some(prev) if *epoch <= prev => {
                    violations.push(Violation::NonMonotonicElection {
                        seq,
                        prev,
                        next: *epoch,
                    });
                }
                _ => elected = Some(*epoch),
            },
            EventKind::BoundaryReleased { term: issued, .. }
            | EventKind::WorkerRejoin { term: issued, .. }
            | EventKind::ParkOrdered { term: issued, .. } => {
                report.effects_checked += 1;
                match term {
                    Some(current) if *issued < current => {
                        violations.push(Violation::StaleTermEffect {
                            seq,
                            kind: event.kind.name(),
                            term: *issued,
                            current,
                        });
                    }
                    // A newer term than the last bump: the ring evicted it.
                    _ => term = term.max(Some(*issued)),
                }
            }
            EventKind::StaleTermRejected { term, stale } if stale >= term => {
                violations.push(Violation::MalformedRejection {
                    seq,
                    term: *term,
                    stale: *stale,
                });
            }
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
                report.phases_seen += 1;
                match phase_now {
                    Some((prev, _)) if *epoch < prev => {
                        violations.push(Violation::NonMonotonicEpoch {
                            seq,
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
                            violations.push(Violation::IllegalPhaseTransition {
                                seq,
                                from,
                                to: (*epoch, *phase),
                            });
                        }
                    }
                    None => {} // ring evicted the prefix: adopt as baseline
                }
                phase_now = Some((*epoch, *phase));
                if *phase == EpochPhase::Warmup {
                    warmups_retained.insert(*epoch);
                }
                if *phase == EpochPhase::Train {
                    if let Some((min, max)) = bounds {
                        if *members < min || *members > max {
                            violations.push(Violation::MembershipOutOfBounds {
                                seq,
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
            EventKind::JoinAdmitted { worker, .. } | EventKind::WitnessEvicted { worker, .. } => {
                report.admissions_checked += 1;
                if let EventKind::JoinAdmitted {
                    epoch,
                    votes_for,
                    votes_against,
                    ..
                } = &event.kind
                {
                    if *votes_for == 0 || *votes_for <= *votes_against {
                        violations.push(Violation::BadAdmissionTally {
                            seq,
                            worker: *worker,
                            votes_for: *votes_for,
                            votes_against: *votes_against,
                        });
                    }
                    if warmups_retained.contains(epoch) && !admit_votes.contains(&(*worker, *epoch))
                    {
                        violations.push(Violation::UnwitnessedAdmission {
                            seq,
                            worker: *worker,
                            epoch: *epoch,
                        });
                    }
                }
                if let Some((_, phase)) = phase_now.filter(|&(_, p)| p != EpochPhase::Warmup) {
                    violations.push(Violation::AdmissionOutsidePhase {
                        seq,
                        worker: *worker,
                        phase,
                    });
                }
            }
            EventKind::WorkerParked { worker, boundary } => {
                report.parks_seen += 1;
                parked.insert(*worker, *boundary);
                if let Some(&at) = dismissed.get(worker) {
                    violations.push(Violation::TrainedPast {
                        seq,
                        worker: *worker,
                        boundary: at,
                        parked: *boundary,
                    });
                }
            }
            EventKind::BoundaryActed {
                boundary, quorum, ..
            } => {
                report.acts_checked += 1;
                for &(w, stays) in quorum.iter() {
                    let at = parked.get(&w).copied();
                    if at != Some(*boundary) && (whole || at.is_some()) {
                        violations.push(Violation::SplitPark {
                            seq,
                            boundary: *boundary,
                            worker: w,
                            parked: at,
                        });
                    }
                    if !stays {
                        dismissed.insert(w, *boundary);
                    }
                }
            }
            _ => {}
        }
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::obs::BoundaryAct;

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
        let report = audit(&events);
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
        let report = audit(&events);
        assert_eq!(
            report.violations,
            vec![Violation::StaleTermEffect {
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
        let report = audit(&events);
        assert_eq!(report.violations.len(), 1);
        assert!(matches!(
            report.violations[0],
            Violation::NonMonotonicTermBump {
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
        assert_eq!(audit(&events).violations.len(), 1);
    }

    #[test]
    fn malformed_rejection_is_flagged() {
        let events = vec![ev(0, EventKind::StaleTermRejected { term: 2, stale: 2 })];
        assert!(matches!(
            audit(&events).violations[0],
            Violation::MalformedRejection {
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
        let report = audit(&events);
        assert_eq!(report.violations.len(), 1);
        assert!(matches!(
            report.violations[0],
            Violation::StaleTermEffect {
                term: 1,
                current: 2,
                ..
            }
        ));
    }

    #[test]
    fn empty_journal_is_vacuously_safe() {
        let report = audit(&[]);
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
        let report = audit(&events);
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
            audit(&events).violations[..],
            [Violation::IllegalPhaseTransition { .. }]
        ));
    }

    #[test]
    fn epoch_going_backwards_is_flagged() {
        let events = vec![
            phase(0, 3, EpochPhase::Cooldown, 2),
            phase(1, 2, EpochPhase::WaitingForMembers, 2),
        ];
        assert!(matches!(
            audit(&events).violations[..],
            [Violation::NonMonotonicEpoch {
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
            audit(&events).violations[..],
            [Violation::MembershipOutOfBounds {
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
            audit(&events).violations[..],
            [Violation::UnwitnessedAdmission { epoch: 1, .. }]
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
            audit(&events).violations[..],
            [Violation::BadAdmissionTally {
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
            audit(&events).violations[..],
            [Violation::AdmissionOutsidePhase {
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
        assert!(audit(&events).is_safe());
    }

    fn parked(seq: u64, worker: u32, boundary: u64) -> Event {
        ev(
            seq,
            EventKind::WorkerParked {
                worker: WorkerId(worker),
                boundary,
            },
        )
    }

    fn acted(seq: u64, boundary: u64, act: BoundaryAct, quorum: &[u32], members: &[u32]) -> Event {
        let quorum = quorum
            .iter()
            .map(|&w| (WorkerId(w), members.contains(&w)))
            .collect();
        ev(
            seq,
            EventKind::BoundaryActed {
                boundary,
                act,
                quorum,
            },
        )
    }

    #[test]
    fn agreed_boundaries_are_clean() {
        let events = vec![
            parked(0, 0, 10),
            parked(1, 1, 10),
            acted(2, 10, BoundaryAct::Checkpoint, &[0, 1], &[0, 1]),
            parked(3, 1, 25),
            parked(4, 0, 25),
            // Worker 1 leaves at the wave; worker 2 joins.
            acted(5, 25, BoundaryAct::Resume, &[0, 1], &[0, 2]),
            parked(6, 0, 40),
            parked(7, 2, 40),
            acted(8, 40, BoundaryAct::Stop, &[0, 2], &[]),
        ];
        let report = audit(&events);
        assert!(report.is_safe(), "{report}");
        assert_eq!((report.acts_checked, report.parks_seen), (3, 6));
    }

    #[test]
    fn split_parks_are_flagged() {
        // Worker 1 missed the order at 10 and parked at 15: the AM must
        // not act on 10.
        let events = vec![
            parked(0, 0, 10),
            parked(1, 1, 15),
            acted(2, 10, BoundaryAct::Resume, &[0, 1, 2], &[0, 1, 2]),
        ];
        let report = audit(&events);
        assert_eq!(
            report.violations,
            vec![
                Violation::SplitPark {
                    seq: 2,
                    boundary: 10,
                    worker: WorkerId(1),
                    parked: Some(15),
                },
                Violation::SplitPark {
                    seq: 2,
                    boundary: 10,
                    worker: WorkerId(2),
                    parked: None,
                },
            ]
        );
        assert!(report.to_string().contains("never parked"), "{report}");
    }

    #[test]
    fn a_dismissed_member_that_trains_on_is_flagged() {
        let events = vec![
            parked(0, 0, 10),
            parked(1, 1, 10),
            acted(2, 10, BoundaryAct::Resume, &[0, 1], &[0]),
            parked(3, 1, 15),
        ];
        let report = audit(&events);
        assert_eq!(
            report.violations,
            vec![Violation::TrainedPast {
                seq: 3,
                worker: WorkerId(1),
                boundary: 10,
                parked: 15,
            }]
        );
    }

    #[test]
    fn evicted_parks_are_not_flagged() {
        // The ring dropped the run's opening events, worker 1's park
        // among them.
        let events = vec![
            parked(40, 0, 10),
            acted(41, 10, BoundaryAct::Checkpoint, &[0, 1], &[0, 1]),
        ];
        assert!(audit(&events).is_safe());
    }

    #[test]
    fn park_orders_are_term_audited() {
        let order = |seq, term| {
            ev(
                seq,
                EventKind::ParkOrdered {
                    boundary: 10,
                    term,
                    retarget: false,
                },
            )
        };
        let events = vec![
            ev(0, EventKind::TermBump { term: 1 }),
            order(1, 1),
            ev(2, EventKind::TermBump { term: 2 }),
            order(3, 1),
        ];
        let report = audit(&events);
        assert_eq!(report.effects_checked, 2);
        assert!(matches!(
            report.violations[..],
            [Violation::StaleTermEffect {
                seq: 3,
                kind: "park_ordered",
                term: 1,
                current: 2,
            }]
        ));
    }

    #[test]
    fn one_audit_reports_every_family() {
        // A fenced term-1 AM releases a boundary, and then acts on a
        // boundary worker 1 never parked at: one pass convicts both.
        let events = vec![
            ev(0, EventKind::TermBump { term: 1 }),
            ev(1, EventKind::TermBump { term: 2 }),
            parked(2, 0, 10),
            ev(
                3,
                EventKind::BoundaryReleased {
                    boundary: 10,
                    world: 2,
                    term: 1,
                },
            ),
            acted(4, 10, BoundaryAct::Resume, &[0, 1], &[0, 1]),
        ];
        let report = audit(&events);
        assert_eq!(
            report.violations,
            vec![
                Violation::StaleTermEffect {
                    seq: 3,
                    kind: "boundary_released",
                    term: 1,
                    current: 2,
                },
                Violation::SplitPark {
                    seq: 4,
                    boundary: 10,
                    worker: WorkerId(1),
                    parked: None,
                },
            ]
        );
        assert_eq!(
            (report.terms_seen, report.effects_checked),
            (2, 1),
            "{report}"
        );
        assert_eq!((report.acts_checked, report.parks_seen), (1, 1), "{report}");
    }
}
