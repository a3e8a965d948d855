//! Reliable messaging over the (possibly chaotic) bus.
//!
//! Implements the paper's §V-D recipe on the live runtime: every message
//! carries a unique id, the sender resends on timeout until acked, and
//! the receiver deduplicates with bounded memory. `ReliableEndpoint`
//! wraps a raw [`Endpoint`] with:
//!
//! - an owner-scoped [`MsgIdAllocator`] (the AM's owner encodes its epoch,
//!   so a replacement AM is a *fresh* sender stream at every receiver),
//! - a [`RetryTracker`] ticking on the bus's [`TimeSource`] (wall clock in
//!   production, virtual time in simulation) with an optional give-up
//!   budget — the runtime's failure detector,
//! - automatic transport acks ([`RtMsg::MsgAck`]) for received messages,
//! - a [`BoundedDedupFilter`] suppressing chaos- and resend-duplicates.

use std::sync::Arc;
use std::time::Duration;

use elan_core::messages::{BoundedDedupFilter, MsgId, MsgIdAllocator, RetryOutcome, RetryTracker};
use elan_core::obs::{Counter, MetricsRegistry};

use crate::bus::{Bus, Endpoint, EndpointId, Envelope, RtMsg};
use crate::obs::EventKind;
use crate::time::{sim_to_std, std_to_sim, TimeSource};

/// Shared fault-tolerance counters, aggregated across every endpoint.
///
/// Since the observability redesign the fields are registry-backed
/// [`Counter`] handles: construct with [`RtMetrics::registered`] to share
/// the atomics with a [`MetricsRegistry`] (under `rt.*` names), or use
/// `Default` for standalone counters in tests.
#[derive(Debug, Default)]
pub(crate) struct RtMetrics {
    /// Transport-level resends after ack timeouts.
    pub resends: Counter,
    /// Duplicate deliveries suppressed by receivers.
    pub duplicates: Counter,
    /// Messages abandoned after the attempt budget (peer presumed dead).
    pub give_ups: Counter,
    /// Replacement AMs elected by the watchdog.
    pub am_recoveries: Counter,
    /// Failure-driven scale-ins executed after missed heartbeats.
    pub failure_scale_ins: Counter,
    /// State chunks sent while replicating training state (first sends
    /// only; chunk *re*sends are counted under `resends`).
    pub state_chunks: Counter,
}

impl RtMetrics {
    /// Counters registered in (and shared with) `registry` under the
    /// `rt.resends`, `rt.duplicates`, … names, so a registry snapshot and
    /// this struct always agree.
    pub(crate) fn registered(registry: &MetricsRegistry) -> Self {
        RtMetrics {
            resends: registry.counter("rt.resends"),
            duplicates: registry.counter("rt.duplicates"),
            give_ups: registry.counter("rt.give_ups"),
            am_recoveries: registry.counter("rt.am_recoveries"),
            failure_scale_ins: registry.counter("rt.failure_scale_ins"),
            state_chunks: registry.counter("rt.state_chunks"),
        }
    }
}

/// A point-in-time copy of `RtMetrics` plus bus-level counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RtMetricsSnapshot {
    /// Transport-level resends after ack timeouts.
    pub resends: u64,
    /// Duplicate deliveries suppressed by receivers.
    pub duplicates: u64,
    /// Messages abandoned after the attempt budget.
    pub give_ups: u64,
    /// Replacement AMs elected by the watchdog.
    pub am_recoveries: u64,
    /// Failure-driven scale-ins executed after missed heartbeats.
    pub failure_scale_ins: u64,
    /// State chunks sent while replicating training state.
    pub state_chunks: u64,
    /// Sends to unregistered/departed endpoints (from the bus).
    pub dead_letters: u64,
}

impl RtMetrics {
    /// Snapshots the counters; `dead_letters` is supplied by the caller
    /// (it lives on the bus).
    pub fn snapshot(&self, dead_letters: u64) -> RtMetricsSnapshot {
        RtMetricsSnapshot {
            resends: self.resends.get(),
            duplicates: self.duplicates.get(),
            give_ups: self.give_ups.get(),
            am_recoveries: self.am_recoveries.get(),
            failure_scale_ins: self.failure_scale_ins.get(),
            state_chunks: self.state_chunks.get(),
            dead_letters,
        }
    }
}

/// Attempt number stamped on the first *resend* of a message. The
/// original transmission is attempt 1; if the tracker has already
/// forgotten the entry by poll time we conservatively report the second
/// attempt rather than inventing attempt 0/1.
const FIRST_RESEND_ATTEMPT: u32 = 2;

/// First-contact grace (ms) the failure detector extends in remote mode
/// to members it has never heard from. Remote founding workers are OS
/// processes spawned by an external orchestrator *after* the coordinator
/// is up; on a loaded machine, spawn + connect + init can easily outlast
/// a heartbeat timeout tuned for steady-state silence, and condemning a
/// worker that never arrived deadlocks the job (its late `Report` is not
/// an admission path). Once a worker has been heard from, the normal
/// heartbeat timeout applies. The epoch machine reuses this span as the
/// default per-epoch join window (DESIGN.md §17): both answer "how long
/// do we wait for a member we have never heard from".
pub(crate) const REMOTE_FIRST_CONTACT_GRACE_MS: u64 = 10_000;

/// An endpoint with at-least-once delivery and duplicate suppression.
pub(crate) struct ReliableEndpoint {
    bus: Bus,
    endpoint: Endpoint,
    ids: MsgIdAllocator,
    retry: RetryTracker<(EndpointId, RtMsg)>,
    dedup: BoundedDedupFilter,
    metrics: Arc<RtMetrics>,
}

impl std::fmt::Debug for ReliableEndpoint {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ReliableEndpoint")
            .field("id", &self.endpoint.id())
            .field("pending", &self.retry.pending())
            .finish()
    }
}

impl ReliableEndpoint {
    /// Wraps `endpoint` with reliable semantics. `owner` scopes the id
    /// stream; `max_attempts` of `None` retries forever.
    pub fn new(
        bus: Bus,
        endpoint: Endpoint,
        owner: u32,
        retry_timeout: Duration,
        max_attempts: Option<u32>,
        metrics: Arc<RtMetrics>,
    ) -> Self {
        let mut retry = RetryTracker::new(std_to_sim(retry_timeout));
        if let Some(max) = max_attempts {
            retry = retry.with_max_attempts(max);
        }
        ReliableEndpoint {
            bus,
            endpoint,
            ids: MsgIdAllocator::for_owner(owner),
            retry,
            dedup: BoundedDedupFilter::default(),
            metrics,
        }
    }

    /// The underlying bus (for stats or bare sends).
    pub fn bus(&self) -> &Bus {
        &self.bus
    }

    /// The clock this endpoint's retry timers tick on (the bus clock).
    pub fn time(&self) -> &TimeSource {
        self.bus.time()
    }

    /// Sends `body` reliably: it will be resent every timeout until the
    /// receiver acks (or the attempt budget runs out). Returns the id.
    pub fn send(&mut self, to: EndpointId, body: RtMsg) -> MsgId {
        let id = self.ids.next_id();
        if matches!(body, RtMsg::StateChunk { .. }) {
            self.metrics.state_chunks.inc();
        }
        let sent_at = self.bus.time().now();
        self.retry.track(id, (to, body.clone()), sent_at);
        self.bus.send_envelope(
            to,
            Envelope {
                id,
                from: self.endpoint.id(),
                attempt: 1,
                body,
            },
        );
        id
    }

    /// Sends `body` once, fire-and-forget (heartbeats, acks).
    pub(crate) fn send_unreliable(&mut self, to: EndpointId, body: RtMsg) -> MsgId {
        let id = self.ids.next_id();
        self.bus.send_envelope(
            to,
            Envelope {
                id,
                from: self.endpoint.id(),
                attempt: 1,
                body,
            },
        );
        id
    }

    /// Resends every overdue message and returns the destinations of the
    /// ones given up on (the peer never acked within the attempt budget).
    /// Call this regularly (every receive timeout at least).
    pub(crate) fn tick(&mut self) -> Vec<EndpointId> {
        let mut gave_up = Vec::new();
        let now = self.bus.time().now();
        for outcome in self.retry.poll(now) {
            match outcome {
                RetryOutcome::Resend(id, (to, body)) => {
                    let attempt = self.retry.attempts(id).unwrap_or(FIRST_RESEND_ATTEMPT);
                    self.metrics.resends.inc();
                    if let Some(journal) = self.bus.journal() {
                        journal.emit(EventKind::MessageResent { to, attempt });
                    }
                    self.bus.send_envelope(
                        to,
                        Envelope {
                            id,
                            from: self.endpoint.id(),
                            attempt,
                            body,
                        },
                    );
                }
                RetryOutcome::GaveUp(_, (to, _)) => {
                    self.metrics.give_ups.inc();
                    if let Some(journal) = self.bus.journal() {
                        journal.emit(EventKind::MessageGaveUp { to });
                    }
                    gave_up.push(to);
                }
            }
        }
        gave_up
    }

    /// Receives the next *fresh* application message, waiting up to
    /// `timeout`. Transport acks are absorbed (they settle the retry
    /// tracker), incoming messages are acked automatically, and duplicates
    /// are suppressed. Returns `None` on timeout.
    pub fn recv_timeout(&mut self, timeout: Duration) -> Option<(EndpointId, RtMsg)> {
        let deadline = self.bus.time().deadline_after(timeout);
        loop {
            let now = self.bus.time().now();
            if now >= deadline {
                return None;
            }
            let remaining = sim_to_std(deadline - now);
            let env = self.endpoint.recv_timeout(remaining)?;
            if let Some(fresh) = self.accept(env) {
                return Some(fresh);
            }
        }
    }

    /// Non-blocking receive: drains acks and duplicates, returns the
    /// first payload already sitting in the queue, or `None` when the
    /// queue is empty *right now*. Unlike [`recv_timeout`], this never
    /// parks — under a virtual clock a hot system (every thread
    /// runnable) never advances time, so a pure-timeout wait on an
    /// empty queue would starve; use this where "whatever is queued at
    /// this instant" is the actual requirement.
    ///
    /// [`recv_timeout`]: Self::recv_timeout
    pub(crate) fn try_recv(&mut self) -> Option<(EndpointId, RtMsg)> {
        loop {
            let env = self.endpoint.try_recv()?;
            if let Some(fresh) = self.accept(env) {
                return Some(fresh);
            }
        }
    }

    /// The receive step both receive calls share. An ack settles the
    /// retry tracker; anything else but a heartbeat is acked — even a
    /// duplicate, because a resend means our previous ack was lost — and
    /// a duplicate is then suppressed. Returns a first delivery's sender
    /// and payload.
    fn accept(&mut self, env: Envelope) -> Option<(EndpointId, RtMsg)> {
        match &env.body {
            RtMsg::MsgAck { of } => {
                self.retry.ack(*of);
                return None;
            }
            // Heartbeats are unreliable by design: no ack traffic.
            RtMsg::Heartbeat { .. } => {}
            _ => _ = self.send_unreliable(env.from, RtMsg::MsgAck { of: env.id }),
        }
        if !self.dedup.first_delivery(env.id) {
            self.metrics.duplicates.inc();
            // Heartbeat duplicates are pure chaos noise; keep them out of
            // the journal so the ring retains adjustment events.
            if !matches!(env.body, RtMsg::Heartbeat { .. }) {
                if let Some(journal) = self.bus.journal() {
                    journal.emit(EventKind::DuplicateSuppressed { from: env.from });
                }
            }
            return None;
        }
        Some((env.from, env.body))
    }

    /// Messages awaiting acknowledgement.
    pub fn pending(&self) -> usize {
        self.retry.pending()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chaos::ChaosPolicy;
    use crate::transport::MemoryTransport;
    use elan_core::state::WorkerId;

    /// A virtual-time bus with the test thread registered as the only
    /// schedulable thread: every `recv_timeout`/`sleep` auto-advances the
    /// clock, so these tests take zero wall-clock waiting.
    fn vbus(seed: u64, policy: Option<ChaosPolicy>) -> (Bus, TimeSource) {
        let time = TimeSource::virtual_seeded(seed);
        time.register_current();
        let transport = MemoryTransport::new(policy, None, time.clone());
        (Bus::with_transport(Arc::new(transport)), time)
    }

    fn pair(bus: &Bus, metrics: &Arc<RtMetrics>) -> (ReliableEndpoint, ReliableEndpoint) {
        let a = ReliableEndpoint::new(
            bus.clone(),
            bus.register(EndpointId::Am),
            1,
            Duration::from_millis(20),
            None,
            Arc::clone(metrics),
        );
        let b = ReliableEndpoint::new(
            bus.clone(),
            bus.register(EndpointId::Worker(WorkerId(0))),
            16,
            Duration::from_millis(20),
            None,
            Arc::clone(metrics),
        );
        (a, b)
    }

    #[test]
    fn delivery_and_ack_settle_the_tracker() {
        let (bus, time) = vbus(1, None);
        let metrics = Arc::new(RtMetrics::default());
        let (mut am, mut w) = pair(&bus, &metrics);
        am.send(EndpointId::Worker(WorkerId(0)), RtMsg::Leave { term: 0 });
        assert_eq!(am.pending(), 1);
        // Worker receives (and acks)...
        let (from, msg) = w.recv_timeout(Duration::from_millis(100)).unwrap();
        assert_eq!(from, EndpointId::Am);
        assert!(matches!(msg, RtMsg::Leave { term: 0 }));
        // ...AM absorbs the ack on its next receive attempt.
        assert!(am.recv_timeout(Duration::from_millis(50)).is_none());
        assert_eq!(am.pending(), 0);
        time.deregister();
    }

    #[test]
    fn lost_messages_are_resent_until_acked() {
        // Over half the traffic vanishes; retries must win eventually.
        // Virtual time: five "seconds" of retrying cost no wall clock.
        let (bus, time) = vbus(3, Some(ChaosPolicy::new(3).drop(0.55)));
        let metrics = Arc::new(RtMetrics::default());
        let (mut am, mut w) = pair(&bus, &metrics);
        for _ in 0..10 {
            am.send(EndpointId::Worker(WorkerId(0)), RtMsg::Leave { term: 0 });
        }
        let deadline = time.deadline_after(Duration::from_secs(5));
        let mut got = 0;
        while got < 10 && time.now() < deadline {
            am.tick();
            w.tick();
            if w.recv_timeout(Duration::from_millis(5)).is_some() {
                got += 1;
            }
            // Let the AM absorb acks.
            while am.recv_timeout(Duration::from_millis(1)).is_some() {}
        }
        assert_eq!(got, 10, "all messages eventually delivered");
        let deadline = time.deadline_after(Duration::from_secs(2));
        while am.pending() > 0 && time.now() < deadline {
            am.tick();
            // Keep pumping the worker: duplicates are absorbed but re-acked,
            // which is what finally settles the AM when acks themselves drop.
            let _ = w.recv_timeout(Duration::from_millis(1));
            let _ = am.recv_timeout(Duration::from_millis(5));
        }
        assert_eq!(am.pending(), 0, "all sends eventually acked");
        assert!(metrics.resends.get() > 0);
        time.deregister();
    }

    #[test]
    fn duplicates_are_suppressed() {
        // Through both receive calls: the blocking one and the drain.
        for blocking in [true, false] {
            let (bus, time) = vbus(5, Some(ChaosPolicy::new(5).duplicate(1.0)));
            let metrics = Arc::new(RtMetrics::default());
            let (mut am, mut w) = pair(&bus, &metrics);
            let recv = |w: &mut ReliableEndpoint| {
                if blocking {
                    w.recv_timeout(Duration::from_millis(50))
                } else {
                    w.try_recv()
                }
            };
            am.send(EndpointId::Worker(WorkerId(0)), RtMsg::Leave { term: 0 });
            assert!(recv(&mut w).is_some(), "blocking: {blocking}");
            // The duplicate copy is absorbed, not surfaced.
            assert!(recv(&mut w).is_none(), "blocking: {blocking}");
            assert_eq!(w.dedup.duplicate_count(), 1, "blocking: {blocking}");
            assert!(metrics.duplicates.get() >= 1, "blocking: {blocking}");
            time.deregister();
        }
    }

    #[test]
    fn give_up_after_budget_surfaces_the_peer() {
        let (bus, time) = vbus(7, None);
        let metrics = Arc::new(RtMetrics::default());
        // No receiver registered for the worker: acks never come.
        let mut am = ReliableEndpoint::new(
            bus.clone(),
            bus.register(EndpointId::Am),
            1,
            Duration::from_millis(5),
            Some(3),
            Arc::clone(&metrics),
        );
        am.send(EndpointId::Worker(WorkerId(9)), RtMsg::Leave { term: 0 });
        let deadline = time.deadline_after(Duration::from_secs(2));
        let mut gave_up = Vec::new();
        while gave_up.is_empty() && time.now() < deadline {
            time.sleep(Duration::from_millis(6));
            gave_up = am.tick();
        }
        assert_eq!(gave_up.len(), 1);
        assert_eq!(gave_up[0], EndpointId::Worker(WorkerId(9)));
        assert_eq!(metrics.give_ups.get(), 1);
        assert_eq!(am.pending(), 0);
        time.deregister();
    }

    #[test]
    fn resent_message_is_not_reprocessed() {
        // Ack dropped → sender resends → receiver must suppress the dup.
        let (bus, time) = vbus(9, None);
        let metrics = Arc::new(RtMetrics::default());
        let (mut am, mut w) = pair(&bus, &metrics);
        am.send(EndpointId::Worker(WorkerId(0)), RtMsg::Leave { term: 0 });
        assert!(w.recv_timeout(Duration::from_millis(50)).is_some());
        // Simulate a lost ack: force a resend by waiting out the timeout
        // without letting the AM read its queue.
        time.sleep(Duration::from_millis(25));
        am.tick();
        assert!(w.recv_timeout(Duration::from_millis(30)).is_none());
        assert_eq!(w.dedup.duplicate_count(), 1);
        time.deregister();
    }

    #[test]
    fn retry_timers_tick_on_the_bus_clock() {
        // Regression (clock unification): a resend must fire exactly when
        // *virtual* time crosses the retry timeout, independent of wall
        // time and of how often `tick()` is called.
        let (bus, time) = vbus(11, None);
        let metrics = Arc::new(RtMetrics::default());
        let (mut am, _w) = pair(&bus, &metrics);
        am.send(EndpointId::Worker(WorkerId(0)), RtMsg::Leave { term: 0 });
        // Many ticks with no time passage: nothing is overdue.
        for _ in 0..100 {
            assert!(am.tick().is_empty());
        }
        assert_eq!(am.retry.resend_count(), 0);
        // One nanosecond short of the 20 ms timeout: still nothing.
        time.sleep(Duration::from_nanos(20_000_000 - 1));
        am.tick();
        assert_eq!(am.retry.resend_count(), 0);
        // Crossing the timeout fires exactly one resend.
        time.sleep(Duration::from_nanos(1));
        am.tick();
        assert_eq!(am.retry.resend_count(), 1);
        time.deregister();
    }
}
