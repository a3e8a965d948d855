//! Deterministic, seeded fault injection for the control-plane bus.
//!
//! A [`ChaosPolicy`] describes per-edge probabilities of dropping,
//! duplicating, and delaying messages; the bus consults the policy on
//! every send. The fate of a message is a **pure function** of
//! `(seed, edge, message id, attempt)`, so a chaotic run is exactly
//! reproducible from its seed, and — crucially — a *resend* of a dropped
//! message (same id, higher attempt) rolls new dice instead of being
//! dropped forever.
//!
//! Delays are modeled without timers: a delayed message sits in a limbo
//! buffer and is released only after `delay_ticks` further messages have
//! flowed through the bus, which also reorders it behind younger traffic.
//!
//! Partitions are *scripted*, not rolled: a [`PartitionWindow`] names a
//! bidirectional edge cut between endpoint groups over a virtual-time
//! interval. While a window is open, every message crossing the cut is
//! discarded (fate [`ChaosFate::Partitioned`]) — deterministically, by
//! the clock rather than the dice — and on heal the reliable layer's
//! resends flow again. Windows compose with the per-edge fates: a message
//! that survives the cut still rolls for drop/delay/duplicate.

use std::collections::HashMap;
use std::time::Duration;

use elan_sim::rng::splitmix64 as mix;
use elan_sim::SimTime;

use crate::bus::{EndpointId, Envelope};
use crate::obs::ChaosFate;
use crate::time::std_to_sim;

/// One named, scripted partition: a bidirectional edge cut between
/// `groups` that is open for virtual times in `[from, until)`.
///
/// Endpoints listed in *different* groups cannot exchange messages while
/// the window is open; an endpoint not listed in any group is cut from
/// every listed endpoint (so `[[Am]]` isolates the AM from the whole
/// world) but unlisted↔unlisted traffic flows freely.
#[derive(Debug, Clone, PartialEq)]
pub struct PartitionWindow {
    /// Human-readable label (journal events carry it implicitly by order).
    pub name: String,
    /// The sides of the cut.
    pub groups: Vec<Vec<EndpointId>>,
    /// Virtual time the cut opens.
    pub from: SimTime,
    /// Virtual time the cut heals (exclusive).
    pub until: SimTime,
}

impl PartitionWindow {
    fn contains(&self, now: SimTime) -> bool {
        self.from <= now && now < self.until
    }

    fn group_of(&self, e: EndpointId) -> Option<usize> {
        self.groups.iter().position(|g| g.contains(&e))
    }

    /// Whether this window cuts the `a`↔`b` edge (direction-agnostic).
    fn cuts(&self, a: EndpointId, b: EndpointId) -> bool {
        match (self.group_of(a), self.group_of(b)) {
            (None, None) => false,
            (ga, gb) => ga != gb,
        }
    }
}

/// Fault probabilities for one directed bus edge.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct EdgeChaos {
    /// Probability the message silently vanishes.
    pub drop_p: f64,
    /// Probability the message is delivered twice.
    pub dup_p: f64,
    /// Probability the message is held back and reordered.
    pub delay_p: f64,
    /// How many subsequent bus sends a delayed message waits out.
    pub delay_ticks: u32,
}

impl Default for EdgeChaos {
    fn default() -> Self {
        EdgeChaos {
            drop_p: 0.0,
            dup_p: 0.0,
            delay_p: 0.0,
            delay_ticks: 3,
        }
    }
}

/// A seeded, per-edge fault-injection policy.
///
/// # Examples
///
/// ```
/// use elan_rt::chaos::ChaosPolicy;
///
/// // 20% drop, 10% duplicate, 10% delay on every edge, seed 42.
/// let policy = ChaosPolicy::new(42).drop(0.2).duplicate(0.1).delay(0.1, 3);
/// assert_eq!(policy.seed, 42);
/// ```
#[derive(Debug, Clone, Default)]
pub struct ChaosPolicy {
    /// Seed making every fate decision reproducible.
    pub seed: u64,
    /// Faults applied to edges without a specific override.
    pub(crate) default_edge: EdgeChaos,
    /// Per-edge overrides, keyed by `(from, to)`.
    pub(crate) edges: HashMap<(EndpointId, EndpointId), EdgeChaos>,
    /// Scripted partition windows on the virtual-time axis.
    pub(crate) partitions: Vec<PartitionWindow>,
}

impl ChaosPolicy {
    /// A policy with no faults (until probabilities are set).
    pub fn new(seed: u64) -> Self {
        ChaosPolicy {
            seed,
            ..ChaosPolicy::default()
        }
    }

    /// Sets the default drop probability.
    pub fn drop(mut self, p: f64) -> Self {
        self.default_edge.drop_p = p;
        self
    }

    /// Sets the default duplication probability.
    pub fn duplicate(mut self, p: f64) -> Self {
        self.default_edge.dup_p = p;
        self
    }

    /// Sets the default delay probability and hold-back span.
    pub fn delay(mut self, p: f64, ticks: u32) -> Self {
        self.default_edge.delay_p = p;
        self.default_edge.delay_ticks = ticks;
        self
    }

    /// Scripts a named partition: endpoints in different `groups` cannot
    /// exchange messages while the virtual clock is in `[from, until)`.
    /// Multiple windows may overlap; each opens and heals independently.
    pub fn partition(
        mut self,
        name: impl Into<String>,
        groups: Vec<Vec<EndpointId>>,
        from: Duration,
        until: Duration,
    ) -> Self {
        self.partitions.push(PartitionWindow {
            name: name.into(),
            groups,
            from: SimTime::ZERO + std_to_sim(from),
            until: SimTime::ZERO + std_to_sim(until),
        });
        self
    }

    fn edge_for(&self, from: EndpointId, to: EndpointId) -> EdgeChaos {
        self.edges
            .get(&(from, to))
            .copied()
            .unwrap_or(self.default_edge)
    }
}

/// Counters of every fate the engine has decided.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ChaosStats {
    /// Messages passed through untouched.
    pub delivered: u64,
    /// Messages silently discarded.
    pub dropped: u64,
    /// Extra copies injected.
    pub duplicated: u64,
    /// Messages held back in limbo.
    pub delayed: u64,
    /// Delayed messages that were actually released *behind* traffic sent
    /// after them — the observable reordering the delay fate exists for.
    pub reordered: u64,
    /// Messages discarded by an open [`PartitionWindow`].
    pub partitioned: u64,
}

fn endpoint_code(e: EndpointId) -> u64 {
    match e {
        EndpointId::Am => 1,
        EndpointId::Controller => 2,
        EndpointId::Worker(w) => 16 + w.0 as u64,
    }
}

/// Where a partition window is in its lifecycle — tracked so the bus can
/// journal `PartitionStart`/`PartitionHeal` exactly once per window.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum WindowPhase {
    Pending,
    Active,
    Healed,
}

/// One delayed message sitting in limbo.
#[derive(Debug)]
struct Limbo {
    /// Sends remaining before release.
    ticks: u32,
    /// `stats.delivered` when the message entered limbo — if the counter
    /// grew by release time, younger traffic overtook it (a reorder).
    delivered_then: u64,
    to: EndpointId,
    env: Envelope,
}

/// The mutable fault-injection state attached to one bus.
#[derive(Debug)]
pub(crate) struct ChaosEngine {
    policy: ChaosPolicy,
    stats: ChaosStats,
    limbo: Vec<Limbo>,
    /// Partition windows (scripted plus runtime-injected) and their phase.
    windows: Vec<(PartitionWindow, WindowPhase)>,
}

impl ChaosEngine {
    pub(crate) fn new(policy: ChaosPolicy) -> Self {
        let windows = policy
            .partitions
            .iter()
            .cloned()
            .map(|w| (w, WindowPhase::Pending))
            .collect();
        ChaosEngine {
            policy,
            stats: ChaosStats::default(),
            limbo: Vec::new(),
            windows,
        }
    }

    pub(crate) fn stats(&self) -> ChaosStats {
        self.stats
    }

    /// Injects a partition window at runtime (e.g. mid-adjustment, from a
    /// test that wants the cut anchored to a protocol state rather than a
    /// pre-scripted instant).
    pub(crate) fn add_window(&mut self, window: PartitionWindow) {
        self.windows.push((window, WindowPhase::Pending));
    }

    /// Whether any open window cuts the `a`↔`b` edge at `now`.
    pub(crate) fn is_partitioned(&self, now: SimTime, a: EndpointId, b: EndpointId) -> bool {
        self.windows
            .iter()
            .any(|(w, _)| w.contains(now) && w.cuts(a, b))
    }

    /// Advances window lifecycles to `now`; returns the names of windows
    /// that just opened and just healed (for journal events). A window
    /// whose whole span elapsed between polls reports both transitions.
    pub(crate) fn poll_windows(&mut self, now: SimTime) -> (Vec<String>, Vec<String>) {
        let (mut started, mut healed) = (Vec::new(), Vec::new());
        for (w, phase) in &mut self.windows {
            if *phase == WindowPhase::Pending && now >= w.from {
                *phase = WindowPhase::Active;
                started.push(w.name.clone());
            }
            if *phase == WindowPhase::Active && now >= w.until {
                *phase = WindowPhase::Healed;
                healed.push(w.name.clone());
            }
        }
        (started, healed)
    }

    /// A uniform value in `[0, 1)` that is a pure function of the message
    /// coordinates and the decision `salt`.
    fn unit(&self, salt: u64, from: EndpointId, to: EndpointId, env: &Envelope) -> f64 {
        let mut x = self.policy.seed ^ salt.wrapping_mul(0xd6e8_feb8_6659_fd93);
        x = mix(x ^ (endpoint_code(from) << 40) ^ (endpoint_code(to) << 20));
        x = mix(x ^ env.id.0);
        x = mix(x ^ (env.attempt as u64).wrapping_mul(0xa076_1d64_78bd_642f));
        (x >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Decides the fate of `env` heading to `to` and advances limbo.
    /// Returns every delivery the bus should now perform (possibly zero,
    /// one, or two copies of `env`, plus any released delayed messages),
    /// together with the fate the engine chose for `env` itself (`None`
    /// when the message passed through untouched) — the bus turns
    /// non-trivial fates into journal events.
    pub(crate) fn route(
        &mut self,
        now: SimTime,
        to: EndpointId,
        env: Envelope,
    ) -> (Vec<(EndpointId, Envelope)>, Option<ChaosFate>) {
        // Every send is a tick that ages the limbo buffer.
        let mut out = Vec::new();
        let mut i = 0;
        while i < self.limbo.len() {
            if self.limbo[i].ticks <= 1 {
                let released = self.limbo.swap_remove(i);
                // A message released from limbo still has to survive any
                // window that opened while it was held back.
                if self.is_partitioned(now, released.env.from, released.to) {
                    self.stats.partitioned += 1;
                    continue;
                }
                if self.stats.delivered > released.delivered_then {
                    self.stats.reordered += 1;
                }
                out.push((released.to, released.env));
            } else {
                self.limbo[i].ticks -= 1;
                i += 1;
            }
        }

        // Scripted cuts come first: while a window is open the edge is
        // simply gone, no dice involved — resends after heal get through.
        if self.is_partitioned(now, env.from, to) {
            self.stats.partitioned += 1;
            return (out, Some(ChaosFate::Partitioned));
        }
        let edge = self.policy.edge_for(env.from, to);
        if self.unit(1, env.from, to, &env) < edge.drop_p {
            self.stats.dropped += 1;
            return (out, Some(ChaosFate::Dropped));
        }
        if self.unit(2, env.from, to, &env) < edge.delay_p {
            self.stats.delayed += 1;
            self.limbo.push(Limbo {
                ticks: edge.delay_ticks.max(1),
                delivered_then: self.stats.delivered,
                to,
                env,
            });
            return (out, Some(ChaosFate::Delayed));
        }
        self.stats.delivered += 1;
        let mut fate = None;
        if self.unit(3, env.from, to, &env) < edge.dup_p {
            self.stats.duplicated += 1;
            fate = Some(ChaosFate::Duplicated);
            out.push((to, env.clone()));
        }
        out.push((to, env));
        (out, fate)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bus::RtMsg;
    use elan_core::messages::MsgId;
    use elan_core::state::WorkerId;

    fn env(id: u64, attempt: u32) -> Envelope {
        Envelope {
            id: MsgId(id),
            from: EndpointId::Controller,
            attempt,
            body: RtMsg::Stop { seq: 0 },
        }
    }

    fn count_fates(seed: u64, policy: ChaosPolicy, n: u64) -> ChaosStats {
        let _ = seed;
        let mut engine = ChaosEngine::new(policy);
        for i in 0..n {
            let _ = engine.route(SimTime::ZERO, EndpointId::Am, env(i, 1));
        }
        engine.stats()
    }

    #[test]
    fn same_seed_same_fates() {
        let p = ChaosPolicy::new(7).drop(0.3).duplicate(0.2).delay(0.1, 2);
        let a = count_fates(7, p.clone(), 500);
        let b = count_fates(7, p, 500);
        assert_eq!(a, b);
    }

    #[test]
    fn different_seeds_differ() {
        let a = count_fates(1, ChaosPolicy::new(1).drop(0.3), 500);
        let b = count_fates(2, ChaosPolicy::new(2).drop(0.3), 500);
        assert_ne!(a.dropped, b.dropped);
    }

    #[test]
    fn drop_rate_tracks_probability() {
        let stats = count_fates(3, ChaosPolicy::new(3).drop(0.25), 4000);
        let rate = stats.dropped as f64 / 4000.0;
        assert!((0.20..0.30).contains(&rate), "drop rate {rate}");
    }

    #[test]
    fn resend_attempt_rolls_new_dice() {
        // A message dropped at attempt 1 must not be doomed forever: across
        // many ids, at least one dropped first attempt survives on retry.
        let policy = ChaosPolicy::new(11).drop(0.5);
        let mut engine = ChaosEngine::new(policy);
        let mut saved_by_retry = 0;
        for i in 0..200 {
            if engine
                .route(SimTime::ZERO, EndpointId::Am, env(i, 1))
                .0
                .is_empty()
                && !engine
                    .route(SimTime::ZERO, EndpointId::Am, env(i, 2))
                    .0
                    .is_empty()
            {
                saved_by_retry += 1;
            }
        }
        assert!(saved_by_retry > 0);
    }

    #[test]
    fn delayed_messages_release_after_ticks() {
        let policy = ChaosPolicy::new(0).delay(1.0, 2); // always delay 2 ticks
        let mut engine = ChaosEngine::new(policy);
        assert!(engine
            .route(SimTime::ZERO, EndpointId::Am, env(1, 1))
            .0
            .is_empty());
        // Tick 1: msg 2 also delayed; msg 1 ages.
        assert!(engine
            .route(SimTime::ZERO, EndpointId::Am, env(2, 1))
            .0
            .is_empty());
        // Tick 2: msg 1 releases (behind msg 2 — reordered).
        let (out, _) = engine.route(SimTime::ZERO, EndpointId::Am, env(3, 1));
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].1.id, MsgId(1));
    }

    #[test]
    fn release_behind_younger_traffic_counts_as_reorder() {
        // Only the Controller→Am edge delays; Controller→Worker is clean.
        let w = EndpointId::Worker(WorkerId(0));
        let delayed_edge = EdgeChaos {
            delay_p: 1.0,
            delay_ticks: 2,
            ..EdgeChaos::default()
        };
        let mut policy = ChaosPolicy::new(0);
        policy
            .edges
            .insert((EndpointId::Controller, EndpointId::Am), delayed_edge);
        let mut engine = ChaosEngine::new(policy);
        // Msg 1 → Am goes into limbo.
        let (out, fate) = engine.route(SimTime::ZERO, EndpointId::Am, env(1, 1));
        assert!(out.is_empty());
        assert_eq!(fate, Some(ChaosFate::Delayed));
        // Msg 2 → worker delivers immediately (younger traffic overtakes).
        assert_eq!(engine.route(SimTime::ZERO, w, env(2, 1)).0.len(), 1);
        // Msg 3 ages msg 1 out of limbo: it lands *behind* msg 2.
        let (out, _) = engine.route(SimTime::ZERO, w, env(3, 1));
        assert_eq!(out.len(), 2);
        assert_eq!(out[0].1.id, MsgId(1), "released delayed message first");
        let stats = engine.stats();
        assert_eq!(stats.delayed, 1);
        assert_eq!(stats.reordered, 1, "overtaken release must count");
        assert_eq!(stats.delivered, 2);
    }

    #[test]
    fn delayed_release_without_overtaking_is_not_a_reorder() {
        // Everything is delayed, so nothing ever overtakes the limbo.
        let policy = ChaosPolicy::new(0).delay(1.0, 1);
        let mut engine = ChaosEngine::new(policy);
        assert!(engine
            .route(SimTime::ZERO, EndpointId::Am, env(1, 1))
            .0
            .is_empty());
        let (out, _) = engine.route(SimTime::ZERO, EndpointId::Am, env(2, 1));
        assert_eq!(out.len(), 1);
        assert_eq!(engine.stats().reordered, 0);
    }

    #[test]
    fn duplicates_deliver_two_copies() {
        let policy = ChaosPolicy::new(0).duplicate(1.0);
        let mut engine = ChaosEngine::new(policy);
        let (out, fate) = engine.route(SimTime::ZERO, EndpointId::Am, env(9, 1));
        assert_eq!(fate, Some(ChaosFate::Duplicated));
        assert_eq!(out.len(), 2);
        assert_eq!(out[0].1.id, out[1].1.id);
    }

    #[test]
    fn per_edge_override_wins() {
        let w = EndpointId::Worker(WorkerId(0));
        let mut policy = ChaosPolicy::new(5).drop(1.0);
        // A pristine override on one edge.
        policy
            .edges
            .insert((EndpointId::Controller, w), EdgeChaos::default());
        let mut engine = ChaosEngine::new(policy);
        // Default edge drops everything…
        assert!(engine
            .route(SimTime::ZERO, EndpointId::Am, env(1, 1))
            .0
            .is_empty());
        // …but the overridden edge is clean.
        let mut clean = env(2, 1);
        clean.from = EndpointId::Controller;
        assert_eq!(engine.route(SimTime::ZERO, w, clean).0.len(), 1);
    }

    fn at_ms(ms: u64) -> SimTime {
        SimTime::ZERO + std_to_sim(Duration::from_millis(ms))
    }

    #[test]
    fn partition_window_cuts_both_directions_and_heals() {
        let w = EndpointId::Worker(WorkerId(0));
        let policy = ChaosPolicy::new(0).partition(
            "am-isolated",
            vec![vec![EndpointId::Am]],
            Duration::from_millis(100),
            Duration::from_millis(200),
        );
        let mut engine = ChaosEngine::new(policy);
        // Before the window: traffic flows.
        assert_eq!(
            engine.route(at_ms(50), EndpointId::Am, env(1, 1)).0.len(),
            1
        );
        assert!(!engine.is_partitioned(at_ms(50), EndpointId::Am, w));
        // Open: both directions are cut.
        let mut from_am = env(2, 1);
        from_am.from = EndpointId::Am;
        let (out, fate) = engine.route(at_ms(150), w, from_am);
        assert!(out.is_empty());
        assert_eq!(fate, Some(ChaosFate::Partitioned));
        let (out, fate) = engine.route(at_ms(150), EndpointId::Am, env(3, 1));
        assert!(out.is_empty());
        assert_eq!(fate, Some(ChaosFate::Partitioned));
        assert!(engine.is_partitioned(at_ms(150), EndpointId::Am, w));
        // Unlisted endpoints still talk to each other under [[Am]].
        let mut c_to_w = env(4, 1);
        c_to_w.from = EndpointId::Controller;
        assert_eq!(engine.route(at_ms(150), w, c_to_w).0.len(), 1);
        // Healed: a resend of the cut message gets through.
        assert_eq!(
            engine.route(at_ms(250), EndpointId::Am, env(3, 2)).0.len(),
            1
        );
        assert_eq!(engine.stats().partitioned, 2);
    }

    #[test]
    fn partition_groups_cut_across_but_not_within() {
        let w0 = EndpointId::Worker(WorkerId(0));
        let w1 = EndpointId::Worker(WorkerId(1));
        let policy = ChaosPolicy::new(0).partition(
            "split",
            vec![vec![EndpointId::Am, w0], vec![w1]],
            Duration::ZERO,
            Duration::from_millis(100),
        );
        let engine = ChaosEngine::new(policy);
        let now = at_ms(10);
        assert!(!engine.is_partitioned(now, EndpointId::Am, w0), "same side");
        assert!(engine.is_partitioned(now, EndpointId::Am, w1), "across");
        assert!(engine.is_partitioned(now, w0, w1), "across");
        // w1 is also cut from unlisted endpoints (different group vs None).
        assert!(engine.is_partitioned(now, EndpointId::Controller, w1));
    }

    #[test]
    fn window_phases_report_start_and_heal_once() {
        let policy = ChaosPolicy::new(0).partition(
            "w",
            vec![vec![EndpointId::Am]],
            Duration::from_millis(100),
            Duration::from_millis(200),
        );
        let mut engine = ChaosEngine::new(policy);
        assert_eq!(engine.poll_windows(at_ms(50)), (vec![], vec![]));
        assert_eq!(
            engine.poll_windows(at_ms(100)),
            (vec!["w".to_string()], vec![])
        );
        assert_eq!(engine.poll_windows(at_ms(150)), (vec![], vec![]));
        assert_eq!(
            engine.poll_windows(at_ms(200)),
            (vec![], vec!["w".to_string()])
        );
        assert_eq!(engine.poll_windows(at_ms(300)), (vec![], vec![]));
        // A whole span elapsing between polls reports both transitions.
        let mut engine = ChaosEngine::new(ChaosPolicy::new(0).partition(
            "fast",
            vec![vec![EndpointId::Am]],
            Duration::from_millis(10),
            Duration::from_millis(20),
        ));
        assert_eq!(
            engine.poll_windows(at_ms(500)),
            (vec!["fast".to_string()], vec!["fast".to_string()])
        );
    }

    #[test]
    fn delayed_message_released_into_open_window_is_cut() {
        // The message enters limbo before the window opens, but the window
        // is open by the time it would be released: it must not leak
        // through the cut.
        let delayed_edge = EdgeChaos {
            delay_p: 1.0,
            delay_ticks: 1,
            ..EdgeChaos::default()
        };
        let mut policy = ChaosPolicy::new(0).partition(
            "late",
            vec![vec![EndpointId::Am]],
            Duration::from_millis(100),
            Duration::from_millis(200),
        );
        policy
            .edges
            .insert((EndpointId::Controller, EndpointId::Am), delayed_edge);
        let mut engine = ChaosEngine::new(policy);
        assert!(engine
            .route(at_ms(50), EndpointId::Am, env(1, 1))
            .0
            .is_empty());
        // The aging tick happens inside the window: the release is cut.
        let mut c_to_w = env(2, 1);
        c_to_w.from = EndpointId::Controller;
        let (out, _) = engine.route(at_ms(150), EndpointId::Worker(WorkerId(0)), c_to_w);
        assert_eq!(out.len(), 1, "only the worker-bound message survives");
        assert_eq!(engine.stats().partitioned, 1);
    }
}
