//! Epoch-based open membership (DESIGN.md §17).
//!
//! Elan's §IV–V adjustment pipeline scales *trusted* workers on a
//! controller's command. This module generalizes it to *open*
//! membership: untrusted workers join and leave at **epoch boundaries**
//! instead of mid-adjustment, the way Psyche's coordinator ticks its
//! round machine. The `EpochMachine` is a pure, deterministic state
//! machine —
//!
//! ```text
//! WaitingForMembers ── min members met, join window elapsed ──► Warmup
//!       ▲                                                         │
//!       │                        joiners replicate state, witness │
//!       │ next epoch                       step audits their      │
//!       │                                  warmup digests         ▼
//!   Cooldown ◄── train_boundaries boundaries released ◄──────── Train
//! ```
//!
//! — driven entirely by explicit inputs (`tick`, `join_request`,
//! `witness_vote`, `member_left`, `boundary_released`) carrying an
//! explicit virtual timestamp. It owns no clock, no thread, and no IO:
//! the live AM embeds it and translates its `EpochCmd`s into bus
//! traffic (the existing chunked replication path does the warmup), and
//! the [`run_churn`] harness drives the *same* machine with thousands
//! of scripted members on a synthetic clock, so a 10k-member churn
//! storm replays in milliseconds and the journal is a pure function of
//! the seed.
//!
//! The witness step is the open-membership analogue of Elan's
//! consistency checks: a joiner finishing warmup *claims* a digest over
//! its replicated state; the machine samples peers
//! (`sample_witnesses`) that recompute the digest over their own
//! replicas — identical by data-parallel invariant — and vote
//! admit/evict. No joiner enters `Train` un-witnessed, and the journal
//! [`audit`](crate::safety::audit) re-proves that from the journal alone.

use std::collections::{BTreeMap, BTreeSet, VecDeque};

use elan_core::protocol::EpochPhase;
use elan_core::state::WorkerId;
use elan_sim::rng::splitmix64 as mix;

use crate::obs::{journal_hash, Emit, Event, EventJournal, EventKind};
use crate::reliable::REMOTE_FIRST_CONTACT_GRACE_MS;
use crate::time::TimeSource;

/// Configuration of the epoch machine.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EpochConfig {
    /// Members required before the machine leaves `WaitingForMembers`.
    /// The join window stays open (and keeps accepting announces) until
    /// the threshold is met, even past its nominal duration.
    pub min_members: usize,
    /// Hard cap on membership; announces over the cap are deferred.
    pub max_members: usize,
    /// Nominal duration of each epoch's join window, in milliseconds of
    /// virtual time. Also bounds how long `Warmup` waits for a joiner's
    /// digest before evicting it.
    pub join_window_ms: u64,
    /// Coordination boundaries released per `Train` phase — the epoch
    /// length in boundaries.
    pub train_boundaries: u64,
    /// Peers sampled to witness each joiner's warmup digest.
    pub witness_sample: usize,
    /// Data shards re-partitioned over the membership each epoch.
    pub shard_count: u64,
    /// Seed for witness sampling and shard re-assignment.
    pub seed: u64,
}

impl Default for EpochConfig {
    fn default() -> Self {
        EpochConfig {
            min_members: 1,
            max_members: 64,
            // The remote-mode first-contact grace answers the same
            // question — how long to wait for a member we have never
            // heard from — so it is the natural default window.
            join_window_ms: REMOTE_FIRST_CONTACT_GRACE_MS,
            train_boundaries: 4,
            witness_sample: 3,
            shard_count: 64,
            seed: 0,
        }
    }
}

/// An instruction the machine hands its driver (the live AM, or the
/// churn harness). Commands are the machine's only side-channel: it
/// never touches a bus itself.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) enum EpochCmd {
    /// Replicate state to these joiners over the chunked transfer path.
    StartWarmup {
        /// The epoch admitting them.
        epoch: u64,
        /// The joiners entering warmup, in id order.
        joiners: Vec<WorkerId>,
    },
    /// Ask each witness to recompute its state digest against `probe`
    /// and vote on `subject`'s admission.
    QueryWitnesses {
        /// The epoch of the admission.
        epoch: u64,
        /// The joiner under audit.
        subject: WorkerId,
        /// The joiner's claimed warmup digest.
        probe: u64,
        /// The sampled voters.
        witnesses: Vec<WorkerId>,
    },
    /// The witness vote admitted `subject`; it is now a member.
    Admit {
        /// The epoch that admitted it.
        epoch: u64,
        /// The new member.
        subject: WorkerId,
    },
    /// The witness vote (or a warmup timeout) evicted `subject`.
    Evict {
        /// The epoch that evicted it.
        epoch: u64,
        /// The evicted joiner.
        subject: WorkerId,
    },
    /// The machine entered a phase; the live AM broadcasts this as an
    /// `EpochAdvance` message.
    Announce {
        /// The training epoch.
        epoch: u64,
        /// The phase just entered.
        phase: EpochPhase,
    },
}

/// One joiner being considered in the current epoch.
#[derive(Debug, Clone, Default)]
struct PendingJoin {
    /// Claimed warmup digest, once the joiner reported it.
    digest: Option<u64>,
    /// Sampled witnesses still expected to vote.
    expected: BTreeSet<WorkerId>,
    /// Votes received: witness → admit.
    votes: BTreeMap<WorkerId, bool>,
}

impl PendingJoin {
    fn tally(&self) -> (u64, u64) {
        let votes_for = self.votes.values().filter(|v| **v).count() as u64;
        let votes_against = self.votes.len() as u64 - votes_for;
        (votes_for, votes_against)
    }
}

/// The deterministic epoch state machine. See the module docs for the
/// phase diagram; all state is ordered (`BTreeMap`/`BTreeSet`), so a
/// replay from the same inputs is byte-identical.
#[derive(Debug)]
pub(crate) struct EpochMachine {
    cfg: EpochConfig,
    epoch: u64,
    phase: EpochPhase,
    members: BTreeSet<WorkerId>,
    pending: BTreeMap<WorkerId, PendingJoin>,
    /// `WaitingForMembers`: nominal close of the join window.
    /// `Warmup`: deadline after which unresolved joiners are evicted.
    deadline_us: u64,
    /// Boundaries left before `Train` rolls into `Cooldown`.
    boundaries_left: u64,
    /// Joiners already told "not this epoch" (dedups `JoinDeferred`).
    deferred: BTreeSet<WorkerId>,
}

impl EpochMachine {
    /// A machine at epoch 0 in `WaitingForMembers`, with `founding`
    /// already members (the live runtime's launch cohort; empty for a
    /// fully open job). Journals the configuration so the epoch-safety
    /// auditor can read the thresholds back out of the events.
    pub fn new(cfg: EpochConfig, now_us: u64, founding: &[WorkerId], j: &mut dyn Emit) -> Self {
        let phase = EpochPhase::WaitingForMembers;
        let machine = EpochMachine::recover(cfg, 0, phase, founding, now_us);
        let configured = EventKind::EpochConfigured {
            min_members: cfg.min_members as u64,
            max_members: cfg.max_members as u64,
            join_window_ms: cfg.join_window_ms,
        };
        j.emit_at(now_us, configured);
        let members = machine.members.len() as u64;
        j.emit_at(
            now_us,
            EventKind::EpochPhaseEntered {
                epoch: 0,
                phase,
                members,
            },
        );
        machine
    }

    /// Rebuilds a machine after an AM failover from the durable record's
    /// `(epoch, phase)`. Pending joiners are *not* restored — the join
    /// announce is client-driven, so joiners re-present themselves (and
    /// their digests) to the successor; a `Warmup` resumed this way
    /// re-adopts them as the digests arrive.
    pub(crate) fn recover(
        cfg: EpochConfig,
        epoch: u64,
        phase: EpochPhase,
        members: &[WorkerId],
        now_us: u64,
    ) -> Self {
        EpochMachine {
            deadline_us: now_us + cfg.join_window_ms * 1_000,
            cfg,
            epoch,
            phase,
            members: members.iter().copied().collect(),
            pending: BTreeMap::new(),
            boundaries_left: cfg.train_boundaries,
            deferred: BTreeSet::new(),
        }
    }

    /// The current training epoch.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// The current phase.
    pub fn phase(&self) -> EpochPhase {
        self.phase
    }

    /// Current members, in id order.
    pub fn members(&self) -> Vec<WorkerId> {
        self.members.iter().copied().collect()
    }

    /// Whether `worker` is a pending joiner of the current epoch.
    pub(crate) fn is_pending(&self, worker: WorkerId) -> bool {
        self.pending.contains_key(&worker)
    }

    /// Force-syncs the membership view — the live AM calls this after a
    /// *controller-driven* adjustment (scale-out/in, migrate) changes
    /// membership outside the machine's own admission path. Pending
    /// joiners and phase are untouched; threshold effects surface at the
    /// next tick or boundary.
    pub(crate) fn set_members(&mut self, members: &[WorkerId]) {
        self.members = members.iter().copied().collect();
    }

    /// Advances time-gated transitions: closes an elapsed join window
    /// (entering `Warmup`, or straight through to `Train` when nobody is
    /// pending), evicts warmup joiners that outlived the digest
    /// deadline, and rolls `Cooldown` into the next epoch's window.
    pub(crate) fn tick(&mut self, now_us: u64, j: &mut dyn Emit) -> Vec<EpochCmd> {
        let mut cmds = Vec::new();
        match self.phase {
            EpochPhase::WaitingForMembers => {
                let quorum = self.members.len() + self.pending.len();
                if now_us >= self.deadline_us && quorum >= self.cfg.min_members {
                    j.emit_at(
                        now_us,
                        EventKind::JoinWindowClosed {
                            epoch: self.epoch,
                            pending: self.pending.len() as u64,
                        },
                    );
                    if self.members.is_empty() || self.pending.is_empty() {
                        // Warmup is vacuous: either nobody joins this
                        // epoch, or this is the founding cohort — nobody
                        // holds state yet, so there is nothing to
                        // replicate and nobody to witness (the cohort
                        // *is* the genesis state).
                        let cohort = std::mem::take(&mut self.pending);
                        self.members.extend(cohort.into_keys());
                        self.goto(EpochPhase::Warmup, now_us, j, &mut cmds);
                        self.enter_train(now_us, j, &mut cmds);
                    } else {
                        self.deadline_us = now_us + self.cfg.join_window_ms * 1_000;
                        self.goto(EpochPhase::Warmup, now_us, j, &mut cmds);
                        cmds.push(EpochCmd::StartWarmup {
                            epoch: self.epoch,
                            joiners: self.pending.keys().copied().collect(),
                        });
                    }
                }
            }
            EpochPhase::Warmup => {
                if now_us >= self.deadline_us {
                    // Digest deadline: whoever has not resolved is out.
                    let stale: Vec<WorkerId> = self.pending.keys().copied().collect();
                    for w in stale {
                        self.evict(w, now_us, j, &mut cmds);
                    }
                }
                self.maybe_finish_warmup(now_us, j, &mut cmds);
            }
            EpochPhase::Train => {}
            EpochPhase::Cooldown => {
                self.epoch += 1;
                self.pending.clear();
                self.deferred.clear();
                self.deadline_us = now_us + self.cfg.join_window_ms * 1_000;
                self.goto(EpochPhase::WaitingForMembers, now_us, j, &mut cmds);
            }
        }
        cmds
    }

    /// A join announce (`digest: None`) or a warmup-completion claim
    /// (`digest: Some`). Announces land in an open window; anything else
    /// is deferred to a later epoch — the joiner re-announces, which
    /// makes the handshake idempotent under duplication and partition.
    pub(crate) fn join_request(
        &mut self,
        worker: WorkerId,
        digest: Option<u64>,
        now_us: u64,
        j: &mut dyn Emit,
    ) -> Vec<EpochCmd> {
        let mut cmds = Vec::new();
        if self.members.contains(&worker) {
            return cmds; // stale re-announce from an admitted member
        }
        match self.phase {
            EpochPhase::WaitingForMembers => {
                // A duplicate announce is already pending.
                if !self.pending.contains_key(&worker) {
                    self.enlist(worker, now_us, j);
                }
            }
            EpochPhase::Warmup => match digest {
                Some(d) => {
                    // A digest claim: either a tracked joiner finishing
                    // warmup, or a joiner re-presenting itself to a
                    // post-failover AM that lost the pending set.
                    if !self.pending.contains_key(&worker) && !self.enlist(worker, now_us, j) {
                        return cmds;
                    }
                    self.claim_digest(worker, d, now_us, j, &mut cmds);
                }
                None => {
                    if !self.pending.contains_key(&worker) {
                        self.defer(worker, now_us, j);
                    }
                }
            },
            EpochPhase::Train | EpochPhase::Cooldown => {
                self.defer(worker, now_us, j);
            }
        }
        cmds
    }

    /// A witness's verdict on `subject`. Ignores votes for other epochs,
    /// unknown subjects, unsampled witnesses, and duplicates.
    pub(crate) fn witness_vote(
        &mut self,
        witness: WorkerId,
        subject: WorkerId,
        epoch: u64,
        admit: bool,
        now_us: u64,
        j: &mut dyn Emit,
    ) -> Vec<EpochCmd> {
        let mut cmds = Vec::new();
        if epoch != self.epoch || self.phase != EpochPhase::Warmup {
            return cmds;
        }
        let Some(p) = self.pending.get_mut(&subject) else {
            return cmds;
        };
        if !p.expected.remove(&witness) {
            return cmds; // not sampled, or already voted
        }
        p.votes.insert(witness, admit);
        j.emit_at(
            now_us,
            EventKind::WitnessVoteCast {
                witness,
                subject,
                epoch,
                admit,
            },
        );
        if p.expected.is_empty() {
            self.resolve(subject, now_us, j, &mut cmds);
        }
        self.maybe_finish_warmup(now_us, j, &mut cmds);
        cmds
    }

    /// A member (or pending joiner) left or was declared dead. During
    /// `Warmup` this prunes it from every witness set it sat on; during
    /// `Train` a drop below the min threshold aborts the epoch.
    pub(crate) fn member_left(
        &mut self,
        worker: WorkerId,
        now_us: u64,
        j: &mut dyn Emit,
    ) -> Vec<EpochCmd> {
        let mut cmds = Vec::new();
        self.pending.remove(&worker);
        if self.members.remove(&worker) && self.phase == EpochPhase::Warmup {
            // A lost witness can never vote: prune it everywhere and
            // re-check resolution with the smaller quorum.
            let subjects: Vec<WorkerId> = self.pending.keys().copied().collect();
            for s in subjects {
                let resolved = {
                    let Some(p) = self.pending.get_mut(&s) else {
                        continue;
                    };
                    p.expected.remove(&worker);
                    p.digest.is_some() && p.expected.is_empty()
                };
                if resolved {
                    self.resolve(s, now_us, j, &mut cmds);
                }
            }
        }
        if self.phase == EpochPhase::Train && self.members.len() < self.cfg.min_members {
            // The epoch lost its quorum mid-train: settle and re-open.
            self.goto(EpochPhase::Cooldown, now_us, j, &mut cmds);
        }
        self.maybe_finish_warmup(now_us, j, &mut cmds);
        cmds
    }

    /// One coordination boundary released during `Train`; the epoch
    /// rolls into `Cooldown` after `train_boundaries` of them.
    pub(crate) fn boundary_released(&mut self, now_us: u64, j: &mut dyn Emit) -> Vec<EpochCmd> {
        let mut cmds = Vec::new();
        if self.phase != EpochPhase::Train {
            return cmds;
        }
        self.boundaries_left = self.boundaries_left.saturating_sub(1);
        if self.boundaries_left == 0 {
            self.goto(EpochPhase::Cooldown, now_us, j, &mut cmds);
        }
        cmds
    }

    /// Takes `worker` into the epoch's pending joiners, unless the epoch
    /// is full, which defers it instead; false when deferred.
    fn enlist(&mut self, worker: WorkerId, now_us: u64, j: &mut dyn Emit) -> bool {
        if self.members.len() + self.pending.len() >= self.cfg.max_members {
            self.defer(worker, now_us, j);
            return false;
        }
        self.pending.insert(worker, PendingJoin::default());
        let epoch = self.epoch;
        j.emit_at(now_us, EventKind::JoinRequested { worker, epoch });
        true
    }

    fn defer(&mut self, worker: WorkerId, now_us: u64, j: &mut dyn Emit) {
        if self.deferred.insert(worker) {
            j.emit_at(
                now_us,
                EventKind::JoinDeferred {
                    worker,
                    epoch: self.epoch,
                },
            );
        }
    }

    fn claim_digest(
        &mut self,
        worker: WorkerId,
        digest: u64,
        now_us: u64,
        j: &mut dyn Emit,
        cmds: &mut Vec<EpochCmd>,
    ) {
        let witnesses = sample_witnesses(
            self.cfg.seed,
            self.epoch,
            worker,
            &self.members,
            self.cfg.witness_sample,
        );
        let Some(p) = self.pending.get_mut(&worker) else {
            return;
        };
        if p.digest.is_some() {
            return; // duplicate claim
        }
        p.digest = Some(digest);
        p.expected = witnesses.iter().copied().collect();
        if p.expected.is_empty() {
            // No peer can vouch for it: an un-witnessed admission is
            // forbidden, so the safe verdict is eviction.
            self.evict(worker, now_us, j, cmds);
            return;
        }
        cmds.push(EpochCmd::QueryWitnesses {
            epoch: self.epoch,
            subject: worker,
            probe: digest,
            witnesses,
        });
    }

    /// All sampled witnesses have voted: strict majority admits.
    fn resolve(
        &mut self,
        subject: WorkerId,
        now_us: u64,
        j: &mut dyn Emit,
        cmds: &mut Vec<EpochCmd>,
    ) {
        let Some(p) = self.pending.get(&subject) else {
            return;
        };
        let (votes_for, votes_against) = p.tally();
        if votes_for > votes_against {
            self.pending.remove(&subject);
            self.members.insert(subject);
            j.emit_at(
                now_us,
                EventKind::JoinAdmitted {
                    worker: subject,
                    epoch: self.epoch,
                    votes_for,
                    votes_against,
                },
            );
            cmds.push(EpochCmd::Admit {
                epoch: self.epoch,
                subject,
            });
        } else {
            self.evict(subject, now_us, j, cmds);
        }
    }

    fn evict(
        &mut self,
        subject: WorkerId,
        now_us: u64,
        j: &mut dyn Emit,
        cmds: &mut Vec<EpochCmd>,
    ) {
        let (votes_for, votes_against) = self
            .pending
            .remove(&subject)
            .map(|p| p.tally())
            .unwrap_or((0, 0));
        j.emit_at(
            now_us,
            EventKind::WitnessEvicted {
                worker: subject,
                epoch: self.epoch,
                votes_for,
                votes_against,
            },
        );
        cmds.push(EpochCmd::Evict {
            epoch: self.epoch,
            subject,
        });
    }

    fn maybe_finish_warmup(&mut self, now_us: u64, j: &mut dyn Emit, cmds: &mut Vec<EpochCmd>) {
        if self.phase == EpochPhase::Warmup && self.pending.is_empty() {
            if self.members.len() >= self.cfg.min_members {
                self.enter_train(now_us, j, cmds);
            } else {
                // Evictions (or member loss) dropped the cohort below
                // the floor: the epoch aborts instead of training
                // under-strength.
                self.goto(EpochPhase::Cooldown, now_us, j, cmds);
            }
        }
    }

    fn enter_train(&mut self, now_us: u64, j: &mut dyn Emit, cmds: &mut Vec<EpochCmd>) {
        let owners: Vec<WorkerId> = self.members.iter().copied().collect();
        j.emit_at(
            now_us,
            EventKind::ShardsReassigned {
                epoch: self.epoch,
                members: self.members.len() as u64,
                checksum: shard_checksum(self.cfg.seed, self.epoch, self.cfg.shard_count, &owners),
            },
        );
        self.boundaries_left = self.cfg.train_boundaries.max(1);
        self.goto(EpochPhase::Train, now_us, j, cmds);
    }

    fn goto(&mut self, phase: EpochPhase, now_us: u64, j: &mut dyn Emit, cmds: &mut Vec<EpochCmd>) {
        self.phase = phase;
        j.emit_at(
            now_us,
            EventKind::EpochPhaseEntered {
                epoch: self.epoch,
                phase,
                members: self.members.len() as u64,
            },
        );
        cmds.push(EpochCmd::Announce {
            epoch: self.epoch,
            phase,
        });
    }
}

/// Samples up to `k` distinct witnesses for `subject` from `members` —
/// a pure function of `(seed, epoch, subject)`, so the live AM, the
/// churn harness, and a post-failover successor all pick the same
/// panel.
pub(crate) fn sample_witnesses(
    seed: u64,
    epoch: u64,
    subject: WorkerId,
    members: &BTreeSet<WorkerId>,
    k: usize,
) -> Vec<WorkerId> {
    let pool: Vec<WorkerId> = members.iter().copied().filter(|w| *w != subject).collect();
    if pool.is_empty() || k == 0 {
        return Vec::new();
    }
    let k = k.min(pool.len());
    let mut taken = vec![false; pool.len()];
    let mut picked = Vec::with_capacity(k);
    let mut x = mix(seed ^ epoch.wrapping_mul(0xa076_1d64_78bd_642f) ^ u64::from(subject.0));
    while picked.len() < k {
        x = mix(x);
        let mut i = (x % pool.len() as u64) as usize;
        while taken[i] {
            i = (i + 1) % pool.len();
        }
        taken[i] = true;
        picked.push(pool[i]);
    }
    picked
}

/// The epoch's shard→member assignment: shard `s` belongs to
/// `owners[mix(seed, epoch, s) % owners.len()]`. Pure in all arguments.
pub(crate) fn shard_owners(
    seed: u64,
    epoch: u64,
    shard_count: u64,
    members: &[WorkerId],
) -> Vec<WorkerId> {
    if members.is_empty() {
        return Vec::new();
    }
    (0..shard_count)
        .map(|s| {
            let x = mix(seed ^ epoch.wrapping_mul(0xd6e8_feb8_6659_fd93) ^ s);
            members[(x % members.len() as u64) as usize]
        })
        .collect()
}

/// FNV-1a checksum of the full shard assignment — what
/// [`EventKind::ShardsReassigned`] pins in the journal.
pub fn shard_checksum(seed: u64, epoch: u64, shard_count: u64, members: &[WorkerId]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for (s, owner) in shard_owners(seed, epoch, shard_count, members)
        .iter()
        .enumerate()
    {
        h = (h ^ s as u64).wrapping_mul(0x0000_0100_0000_01b3);
        h = (h ^ u64::from(owner.0)).wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

// ---------------------------------------------------------------------------
// Churn simulation harness
// ---------------------------------------------------------------------------

/// Configuration of a scripted churn storm over the epoch machine.
#[derive(Debug, Clone)]
pub struct ChurnConfig {
    /// Simulated member population (identities that may try to join).
    pub population: u32,
    /// Seed for every scripted decision (join/leave/crash dice,
    /// corruption, and the machine's own sampling).
    pub seed: u64,
    /// Simulation steps; each step advances virtual time by
    /// [`ChurnConfig::step_us`] and, during `Train`, releases one
    /// coordination boundary.
    pub steps: u64,
    /// Virtual microseconds per step.
    pub step_us: u64,
    /// The embedded machine's configuration (its `seed` is overwritten
    /// with [`ChurnConfig::seed`]).
    pub epoch: EpochConfig,
    /// Per-step join probability of an idle identity, in permille.
    pub join_permille: u32,
    /// Per-step voluntary-leave probability of a member, in permille.
    pub leave_permille: u32,
    /// Per-step crash probability of a member, in permille.
    pub crash_permille: u32,
    /// Fraction of joiners that lie about their warmup digest, in
    /// permille — witness bait.
    pub corrupt_permille: u32,
    /// Steps a joiner spends replicating state before claiming a digest.
    pub warmup_steps: u64,
    /// Scripted partition windows `[from_us, until_us)` during which
    /// join announces and digest claims are swallowed (the machine
    /// never sees them — exactly what an edge cut does to the bus).
    pub partitions: Vec<(u64, u64)>,
    /// Journal ring capacity.
    pub ring_capacity: usize,
}

impl ChurnConfig {
    /// A storm sized for `population` members: thresholds scale with the
    /// population, windows are a few steps long, and every fault dial is
    /// on.
    pub fn sized(population: u32, seed: u64) -> Self {
        let pop = population as usize;
        ChurnConfig {
            population,
            seed,
            steps: 400,
            step_us: 5_000,
            epoch: EpochConfig {
                min_members: (pop / 20).max(2),
                max_members: (pop / 2).max(4),
                join_window_ms: 25, // 5 steps of 5ms
                train_boundaries: 6,
                witness_sample: 3,
                shard_count: 256,
                seed,
            },
            join_permille: 60,
            leave_permille: 8,
            crash_permille: 4,
            corrupt_permille: 50,
            warmup_steps: 2,
            partitions: vec![(60 * 5_000, 90 * 5_000), (200 * 5_000, 220 * 5_000)],
            ring_capacity: 1 << 20,
        }
    }
}

/// What one churn run did, plus its journal for auditing and hashing.
#[derive(Debug)]
pub struct ChurnReport {
    /// Population of the storm.
    pub population: u32,
    /// Seed of the storm.
    pub seed: u64,
    /// Steps simulated.
    pub steps: u64,
    /// Virtual milliseconds covered.
    pub virtual_ms: u64,
    /// `Train` phases entered (epochs that actually trained).
    pub epochs_trained: u64,
    /// Joiners admitted by witness vote.
    pub admitted: u64,
    /// Joiners evicted by witness vote or warmup timeout.
    pub evicted: u64,
    /// Join attempts deferred to a later epoch.
    pub deferred: u64,
    /// Announces and digest claims swallowed by partition windows.
    pub partitioned: u64,
    /// Voluntary leaves scripted.
    pub leaves: u64,
    /// Crashes scripted.
    pub crashes: u64,
    /// Peak concurrent membership.
    pub peak_members: usize,
    /// FNV-1a hash over the journal's rendered event lines.
    pub journal_hash: u64,
    /// The retained journal, for the epoch-safety auditor.
    pub events: Vec<Event>,
}

/// Where one scripted identity is in its lifecycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum SimState {
    Idle,
    Announced,
    Warming { claim_at: u64 },
    Active,
    Dead,
}

/// Runs a scripted join/leave/crash storm over an `EpochMachine` on a
/// synthetic virtual clock. Deterministic: the report (including the
/// journal hash) is a pure function of `cfg`.
pub fn run_churn(cfg: &ChurnConfig) -> ChurnReport {
    let mut epoch_cfg = cfg.epoch;
    epoch_cfg.seed = cfg.seed;
    let mut journal = EventJournal::with_time(
        cfg.ring_capacity,
        Vec::new(),
        TimeSource::virtual_seeded(cfg.seed),
    );
    let mut machine = EpochMachine::new(epoch_cfg, 0, &[], &mut journal);
    let mut states: BTreeMap<WorkerId, SimState> = (1..=cfg.population)
        .map(|i| (WorkerId(i), SimState::Idle))
        .collect();
    let mut queue: VecDeque<EpochCmd> = VecDeque::new();
    let (mut partitioned, mut leaves, mut crashes) = (0u64, 0u64, 0u64);
    let mut peak_members = 0usize;

    // The digest honest members reproduce for an epoch; corrupt joiners
    // claim a perturbed one and get out-voted.
    let true_digest = |epoch: u64| mix(cfg.seed ^ epoch.wrapping_mul(0x2545_f491_4f6c_dd1d));
    let roll = |salt: u64, id: u32, step: u64| -> u32 {
        (mix(cfg.seed ^ salt.wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ (u64::from(id) << 32) ^ step)
            % 1000) as u32
    };

    for step in 0..cfg.steps {
        let now = step * cfg.step_us;
        let cut = cfg.partitions.iter().any(|(f, u)| *f <= now && now < *u);

        // Scripted member behaviour, in id order for determinism.
        let ids: Vec<WorkerId> = states.keys().copied().collect();
        for id in ids {
            match states[&id] {
                SimState::Idle if roll(1, id.0, step) < cfg.join_permille => {
                    if cut {
                        partitioned += 1; // announce swallowed by the cut
                    } else {
                        queue.extend(machine.join_request(id, None, now, &mut journal));
                        if machine.is_pending(id) {
                            states.insert(id, SimState::Announced);
                        }
                    }
                }
                SimState::Warming { claim_at } if step >= claim_at => {
                    if cut {
                        partitioned += 1; // digest claim swallowed; retried
                        states.insert(id, SimState::Warming { claim_at: step + 1 });
                    } else {
                        let honest = roll(2, id.0, 0) >= cfg.corrupt_permille;
                        let digest = if honest {
                            true_digest(machine.epoch())
                        } else {
                            true_digest(machine.epoch()) ^ 0xdead_beef
                        };
                        queue.extend(machine.join_request(id, Some(digest), now, &mut journal));
                    }
                }
                SimState::Active => {
                    if roll(3, id.0, step) < cfg.crash_permille {
                        crashes += 1;
                        states.insert(id, SimState::Dead);
                        queue.extend(machine.member_left(id, now, &mut journal));
                    } else if roll(4, id.0, step) < cfg.leave_permille {
                        leaves += 1;
                        states.insert(id, SimState::Idle);
                        queue.extend(machine.member_left(id, now, &mut journal));
                    }
                }
                _ => {}
            }
        }

        queue.extend(machine.tick(now, &mut journal));
        if machine.phase() == EpochPhase::Train {
            queue.extend(machine.boundary_released(now, &mut journal));
        }

        // Drain commands; witness votes can cascade into more commands.
        while let Some(cmd) = queue.pop_front() {
            match cmd {
                EpochCmd::StartWarmup { joiners, .. } => {
                    for w in joiners {
                        states.insert(
                            w,
                            SimState::Warming {
                                claim_at: step + cfg.warmup_steps,
                            },
                        );
                    }
                }
                EpochCmd::QueryWitnesses {
                    epoch,
                    subject,
                    probe,
                    witnesses,
                } => {
                    for witness in witnesses {
                        if states.get(&witness) == Some(&SimState::Active) {
                            let admit = probe == true_digest(epoch);
                            let more = machine.witness_vote(
                                witness,
                                subject,
                                epoch,
                                admit,
                                now,
                                &mut journal,
                            );
                            queue.extend(more);
                        }
                    }
                }
                EpochCmd::Admit { subject, .. } => {
                    states.insert(subject, SimState::Active);
                }
                EpochCmd::Evict { subject, .. } => {
                    // Evicted joiners cool off but may try again later.
                    states.insert(subject, SimState::Idle);
                }
                EpochCmd::Announce { phase, .. } => {
                    if phase == EpochPhase::Train {
                        // Entering Train seals the membership; sync the
                        // scripted lifecycle with it (this is how the
                        // founding cohort — admitted without witnesses —
                        // becomes active).
                        for m in machine.members() {
                            states.insert(m, SimState::Active);
                        }
                    }
                }
            }
        }
        peak_members = peak_members.max(machine.members().len());
    }

    let events = journal.events();
    let summary = journal.summary();
    ChurnReport {
        population: cfg.population,
        seed: cfg.seed,
        steps: cfg.steps,
        virtual_ms: cfg.steps * cfg.step_us / 1_000,
        epochs_trained: summary.count("shards_reassigned"),
        admitted: summary.count("join_admitted"),
        evicted: summary.count("witness_evicted"),
        deferred: summary.count("join_deferred"),
        partitioned,
        leaves,
        crashes,
        peak_members,
        journal_hash: journal_hash(events.iter().map(|e| format!("{e:?}"))),
        events,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::safety::audit;

    fn journal() -> EventJournal {
        EventJournal::with_time(4096, Vec::new(), TimeSource::virtual_seeded(0))
    }

    fn cfg() -> EpochConfig {
        EpochConfig {
            min_members: 2,
            max_members: 4,
            join_window_ms: 10,
            train_boundaries: 2,
            witness_sample: 2,
            shard_count: 16,
            seed: 7,
        }
    }

    const MS: u64 = 1_000;

    fn w(n: u32) -> WorkerId {
        WorkerId(n)
    }

    #[test]
    fn founding_cohort_trains_without_witnesses() {
        let mut j = journal();
        let mut m = EpochMachine::new(cfg(), 0, &[], &mut j);
        assert_eq!(m.phase(), EpochPhase::WaitingForMembers);
        m.join_request(w(1), None, MS, &mut j);
        m.join_request(w(2), None, 2 * MS, &mut j);
        assert!(m.tick(5 * MS, &mut j).is_empty(), "window still open");
        let cmds = m.tick(10 * MS, &mut j);
        assert_eq!(m.phase(), EpochPhase::Train);
        assert_eq!(m.members(), vec![w(1), w(2)]);
        assert!(cmds.iter().any(|c| matches!(
            c,
            EpochCmd::Announce {
                phase: EpochPhase::Train,
                ..
            }
        )));
        let report = audit(&j.events());
        assert!(report.is_safe(), "{report}");
    }

    #[test]
    fn window_stays_open_below_min_members() {
        let mut j = journal();
        let mut m = EpochMachine::new(cfg(), 0, &[], &mut j);
        m.join_request(w(1), None, MS, &mut j);
        assert!(m.tick(50 * MS, &mut j).is_empty());
        assert_eq!(m.phase(), EpochPhase::WaitingForMembers);
        // A late join still lands, then the window can close.
        m.join_request(w(2), None, 51 * MS, &mut j);
        m.tick(52 * MS, &mut j);
        assert_eq!(m.phase(), EpochPhase::Train);
    }

    fn train_with_founders(j: &mut EventJournal) -> EpochMachine {
        let mut m = EpochMachine::new(cfg(), 0, &[w(1), w(2)], j);
        m.tick(10 * MS, j);
        assert_eq!(m.phase(), EpochPhase::Train);
        m
    }

    fn roll_to_next_window(m: &mut EpochMachine, j: &mut EventJournal, now: u64) {
        m.boundary_released(now, j);
        m.boundary_released(now, j);
        assert_eq!(m.phase(), EpochPhase::Cooldown);
        m.tick(now + MS, j);
        assert_eq!(m.phase(), EpochPhase::WaitingForMembers);
    }

    #[test]
    fn joiner_is_witnessed_then_admitted() {
        let mut j = journal();
        let mut m = train_with_founders(&mut j);
        roll_to_next_window(&mut m, &mut j, 20 * MS);
        assert_eq!(m.epoch(), 1);

        m.join_request(w(9), None, 22 * MS, &mut j);
        let cmds = m.tick(40 * MS, &mut j);
        assert_eq!(m.phase(), EpochPhase::Warmup);
        assert!(
            matches!(&cmds[..], [EpochCmd::Announce { .. }, EpochCmd::StartWarmup { joiners, .. }] if joiners == &vec![w(9)])
        );

        let cmds = m.join_request(w(9), Some(0xfeed), 41 * MS, &mut j);
        let [EpochCmd::QueryWitnesses {
            witnesses, probe, ..
        }] = &cmds[..]
        else {
            panic!("expected a witness query, got {cmds:?}");
        };
        assert_eq!(*probe, 0xfeed);
        assert_eq!(witnesses.len(), 2);
        let ws: Vec<WorkerId> = witnesses.clone();
        m.witness_vote(ws[0], w(9), 1, true, 42 * MS, &mut j);
        let cmds = m.witness_vote(ws[1], w(9), 1, true, 43 * MS, &mut j);
        assert!(cmds
            .iter()
            .any(|c| matches!(c, EpochCmd::Admit { subject, .. } if *subject == w(9))));
        assert_eq!(m.phase(), EpochPhase::Train);
        assert!(m.members.contains(&w(9)));
        assert!(audit(&j.events()).is_safe());
    }

    #[test]
    fn split_vote_evicts() {
        let mut j = journal();
        let mut m = train_with_founders(&mut j);
        roll_to_next_window(&mut m, &mut j, 20 * MS);
        m.join_request(w(9), None, 22 * MS, &mut j);
        m.tick(40 * MS, &mut j);
        m.join_request(w(9), Some(0xbad), 41 * MS, &mut j);
        m.witness_vote(w(1), w(9), 1, true, 42 * MS, &mut j);
        let cmds = m.witness_vote(w(2), w(9), 1, false, 43 * MS, &mut j);
        assert!(cmds
            .iter()
            .any(|c| matches!(c, EpochCmd::Evict { subject, .. } if *subject == w(9))));
        assert!(!m.members.contains(&w(9)));
        assert_eq!(m.phase(), EpochPhase::Train, "survivors train on");
        assert!(audit(&j.events()).is_safe());
    }

    #[test]
    fn silent_joiner_is_evicted_at_the_digest_deadline() {
        let mut j = journal();
        let mut m = train_with_founders(&mut j);
        roll_to_next_window(&mut m, &mut j, 20 * MS);
        m.join_request(w(9), None, 22 * MS, &mut j);
        m.tick(40 * MS, &mut j);
        assert_eq!(m.phase(), EpochPhase::Warmup);
        // No digest ever arrives (partitioned / crashed joiner).
        let cmds = m.tick(60 * MS, &mut j);
        assert!(cmds
            .iter()
            .any(|c| matches!(c, EpochCmd::Evict { subject, .. } if *subject == w(9))));
        assert_eq!(m.phase(), EpochPhase::Train);
        assert!(audit(&j.events()).is_safe());
    }

    #[test]
    fn join_outside_window_is_deferred_once() {
        let mut j = journal();
        let mut m = train_with_founders(&mut j);
        m.join_request(w(9), None, 11 * MS, &mut j);
        m.join_request(w(9), None, 12 * MS, &mut j);
        assert!(!m.is_pending(w(9)));
        let deferred = j
            .events()
            .iter()
            .filter(|e| matches!(e.kind, EventKind::JoinDeferred { .. }))
            .count();
        assert_eq!(deferred, 1, "re-announces dedup to one deferral");
    }

    #[test]
    fn overflow_beyond_max_members_is_deferred() {
        let mut j = journal();
        let mut m = EpochMachine::new(cfg(), 0, &[], &mut j);
        for n in 1..=6 {
            m.join_request(w(n), None, MS, &mut j);
        }
        assert_eq!(
            m.tick(10 * MS, &mut j).len(),
            2,
            "announce x2 (warmup+train)"
        );
        assert_eq!(m.members().len(), 4, "capped at max_members");
    }

    #[test]
    fn losing_quorum_mid_train_aborts_the_epoch() {
        let mut j = journal();
        let mut m = train_with_founders(&mut j);
        m.member_left(w(2), 11 * MS, &mut j);
        assert_eq!(m.phase(), EpochPhase::Cooldown);
        m.tick(12 * MS, &mut j);
        assert_eq!(m.phase(), EpochPhase::WaitingForMembers);
        assert_eq!(m.epoch(), 1);
        assert!(audit(&j.events()).is_safe());
    }

    #[test]
    fn witness_sampling_is_deterministic_and_excludes_subject() {
        let members: BTreeSet<WorkerId> = (1..=10).map(WorkerId).collect();
        let a = sample_witnesses(42, 3, w(5), &members, 4);
        let b = sample_witnesses(42, 3, w(5), &members, 4);
        assert_eq!(a, b);
        assert_eq!(a.len(), 4);
        assert!(!a.contains(&w(5)));
        let c = sample_witnesses(42, 4, w(5), &members, 4);
        assert_ne!(a, c, "different epochs sample different panels");
    }

    #[test]
    fn shard_assignment_is_deterministic_and_total() {
        let members: Vec<WorkerId> = (1..=7).map(WorkerId).collect();
        let a = shard_owners(1, 2, 64, &members);
        assert_eq!(a.len(), 64);
        assert_eq!(a, shard_owners(1, 2, 64, &members));
        assert_ne!(
            shard_checksum(1, 2, 64, &members),
            shard_checksum(1, 3, 64, &members),
            "re-assignment actually moves between epochs"
        );
    }

    #[test]
    fn churn_storm_is_deterministic_and_safe() {
        let cfg = ChurnConfig::sized(200, 11);
        let a = run_churn(&cfg);
        let b = run_churn(&cfg);
        assert_eq!(a.journal_hash, b.journal_hash);
        assert!(a.epochs_trained > 0, "storm never trained: {a:?}");
        assert!(a.admitted > 0, "storm admitted nobody");
        assert!(a.evicted > 0, "corrupt joiners were never evicted");
        let report = audit(&a.events);
        assert!(report.is_safe(), "{report}");
        assert_ne!(
            a.journal_hash,
            run_churn(&ChurnConfig::sized(200, 12)).journal_hash,
            "different seeds produce different storms"
        );
    }
}
