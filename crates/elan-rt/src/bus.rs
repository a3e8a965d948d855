//! The control-plane message bus: named endpoints over a [`Transport`].
//!
//! Stands in for the paper's ZeroMQ sockets (§V-D). Each participant owns
//! an [`Endpoint`] (its receive queue); anyone holding the [`Bus`] can
//! send to any endpoint by id. Delivery is per-receiver FIFO and
//! at-most-once: on the in-memory transport a
//! [`ChaosPolicy`](crate::chaos::ChaosPolicy) may drop, duplicate, or
//! delay messages, and the [`crate::reliable`] layer is responsible for
//! masking the damage.
//!
//! Sends to unregistered or departed endpoints are dead letters: the
//! transport counts them (the shutdown report's `dead_letters`) and
//! journals each as `DeadLetter { to }`, heartbeats and acks excepted.

use std::fmt;
use std::sync::Arc;
use std::time::Duration;

use crossbeam::channel::Receiver;
use parking_lot::Mutex;

use elan_core::messages::MsgIdAllocator;

use crate::chaos::{ChaosStats, PartitionWindow};
use crate::obs::EventJournal;
use crate::time::TimeSource;
use crate::transport::{MemoryTransport, Transport};

pub use elan_core::protocol::{EndpointId, Envelope, RtMsg};

/// A handle on a [`Transport`]: the shared registry of endpoints every
/// runtime component sends through.
///
/// Since the transport redesign the bus is a thin, cloneable facade — the
/// delivery mechanics (channels, chaos, sockets) live behind the
/// [`Transport`] trait, and the bus caches the transport's journal and
/// clock so hot paths ([`Bus::time`], `Bus::journal`) stay
/// allocation-free references.
pub struct Bus {
    transport: Arc<dyn Transport>,
    /// Cache of [`Transport::journal`], captured at construction: the
    /// bus emits nothing itself, but every component that holds the bus
    /// (reliable endpoints, workers) reaches the journal through
    /// [`Bus::journal`] without any extra plumbing.
    journal: Option<Arc<EventJournal>>,
    /// Cache of [`Transport::time`]. Every component holding the bus
    /// (reliable endpoints, workers, the comm group) reads time through
    /// [`Bus::time`], so one runtime ticks on exactly one source.
    time: TimeSource,
    /// Id stream for bare [`Bus::send`] calls (owner `u32::MAX`).
    raw_ids: Arc<Mutex<MsgIdAllocator>>,
}

impl Clone for Bus {
    fn clone(&self) -> Self {
        Bus {
            transport: Arc::clone(&self.transport),
            journal: self.journal.clone(),
            time: self.time.clone(),
            raw_ids: Arc::clone(&self.raw_ids),
        }
    }
}

impl Default for Bus {
    fn default() -> Self {
        Bus::new()
    }
}

impl fmt::Debug for Bus {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Bus({} endpoints)", self.transport.endpoint_count())
    }
}

/// A participant's receive side.
#[derive(Debug)]
pub struct Endpoint {
    id: EndpointId,
    receiver: Receiver<Envelope>,
    time: TimeSource,
}

impl Endpoint {
    /// Assembles an endpoint around its delivery channel — transport
    /// implementations call this from [`Transport::register`].
    pub(crate) fn assemble(id: EndpointId, receiver: Receiver<Envelope>, time: TimeSource) -> Self {
        Endpoint { id, receiver, time }
    }
}

impl Bus {
    /// Creates an empty in-memory bus with no fault injection.
    pub fn new() -> Self {
        Bus::with_transport(Arc::new(MemoryTransport::default()))
    }

    /// Wraps an already-configured transport (in-memory or socket). The
    /// transport's journal and clock are captured here, so attach them
    /// (via [`Transport::attach`] or transport-specific construction)
    /// *before* wrapping.
    pub fn with_transport(transport: Arc<dyn Transport>) -> Self {
        Bus {
            journal: transport.journal(),
            time: transport.time(),
            raw_ids: Arc::new(Mutex::new(MsgIdAllocator::for_owner(u32::MAX))),
            transport,
        }
    }

    /// The transport this bus delivers through.
    pub fn transport(&self) -> &Arc<dyn Transport> {
        &self.transport
    }

    /// The attached event journal, if observability is wired up.
    pub(crate) fn journal(&self) -> Option<&Arc<EventJournal>> {
        self.journal.as_ref()
    }

    /// The clock this bus (and the runtime around it) ticks on.
    pub fn time(&self) -> &TimeSource {
        &self.time
    }

    /// Registers `id` and returns its endpoint.
    ///
    /// # Panics
    ///
    /// Panics if the id is already registered locally.
    pub fn register(&self, id: EndpointId) -> Endpoint {
        self.transport.register(id)
    }

    /// Removes an endpoint; subsequent sends to it become dead letters.
    pub(crate) fn unregister(&self, id: EndpointId) {
        self.transport.unregister(id);
    }

    /// Sends a bare message with bus-allocated id and attempt 1 — for
    /// traffic outside any reliable endpoint (tests, fire-and-forget).
    /// Returns false if the destination is unregistered.
    pub fn send(&self, to: EndpointId, body: RtMsg) -> bool {
        let id = self.raw_ids.lock().next_id();
        self.send_envelope(
            to,
            Envelope {
                id,
                from: EndpointId::Controller,
                attempt: 1,
                body,
            },
        )
    }

    /// Sends a full envelope through the transport (and its fault
    /// injection, if any) to `to`. Returns whether the destination is
    /// currently reachable — a chaos drop still reports true, because a
    /// real sender cannot observe in-network loss.
    pub fn send_envelope(&self, to: EndpointId, env: Envelope) -> bool {
        self.transport.send_envelope(to, env)
    }

    /// Total messages that could not be delivered anywhere.
    pub(crate) fn total_dead_letters(&self) -> u64 {
        self.transport.total_dead_letters()
    }

    /// Fault-injection counters, if a chaos policy is attached.
    pub(crate) fn chaos_stats(&self) -> Option<ChaosStats> {
        self.transport.chaos_stats()
    }

    /// Whether an open partition window currently cuts the `a`↔`b` edge.
    /// Always false on a transport without fault injection.
    pub(crate) fn is_partitioned(&self, a: EndpointId, b: EndpointId) -> bool {
        self.transport.is_partitioned(a, b)
    }

    /// Injects a partition window at runtime (in addition to any windows
    /// scripted in the policy). Returns false when the transport has no
    /// chaos engine to carry it.
    pub(crate) fn add_partition(&self, window: PartitionWindow) -> bool {
        self.transport.add_partition(window)
    }

    /// Registered endpoint count.
    pub fn len(&self) -> usize {
        self.transport.endpoint_count()
    }

    /// True when no endpoints are registered.
    pub fn is_empty(&self) -> bool {
        self.transport.endpoint_count() == 0
    }
}

impl Endpoint {
    /// This endpoint's id.
    pub fn id(&self) -> EndpointId {
        self.id
    }

    /// Blocks up to `timeout` for a message. Under virtual time this parks
    /// the calling thread; the wait costs zero wall-clock time once every
    /// other runtime thread is quiescent.
    pub fn recv_timeout(&self, timeout: Duration) -> Option<Envelope> {
        if self.time.is_virtual() {
            let deadline = self.time.deadline_after(timeout);
            loop {
                if let Some(env) = self.try_recv() {
                    return Some(env);
                }
                if self.time.now() >= deadline {
                    return None;
                }
                self.time.park_until(deadline);
            }
        }
        self.receiver.recv_timeout(timeout).ok()
    }

    /// The clock of the bus this endpoint was registered on.
    pub fn time(&self) -> &TimeSource {
        &self.time
    }

    /// Non-blocking receive.
    pub(crate) fn try_recv(&self) -> Option<Envelope> {
        self.receiver.try_recv().ok()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chaos::ChaosPolicy;
    use crate::obs::EventKind;
    use elan_core::state::WorkerId;

    /// An in-memory bus journalling into a fresh journal.
    fn journalled_bus() -> (Bus, Arc<EventJournal>) {
        let journal = Arc::new(EventJournal::new(16, Vec::new()));
        let transport = MemoryTransport::new(None, Some(Arc::clone(&journal)), TimeSource::real());
        (Bus::with_transport(Arc::new(transport)), journal)
    }

    /// The destinations of every journalled dead letter, in order.
    fn dead_letters_to(journal: &EventJournal) -> Vec<EndpointId> {
        let events = journal.events().into_iter();
        events
            .filter_map(|e| match e.kind {
                EventKind::DeadLetter { to } => Some(to),
                _ => None,
            })
            .collect()
    }

    #[test]
    fn roundtrip_between_endpoints() {
        let bus = Bus::new();
        let am = bus.register(EndpointId::Am);
        let _w = bus.register(EndpointId::Worker(WorkerId(0)));
        assert!(bus.send(
            EndpointId::Am,
            RtMsg::Report {
                worker: WorkerId(0)
            }
        ));
        match am.try_recv().expect("delivered").body {
            RtMsg::Report { worker } => assert_eq!(worker, WorkerId(0)),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn send_to_missing_endpoint_is_a_dead_letter() {
        let (bus, journal) = journalled_bus();
        assert!(!bus.send(EndpointId::Am, RtMsg::Stop { seq: 0 }));
        assert_eq!(bus.total_dead_letters(), 1);
        assert_eq!(dead_letters_to(&journal), [EndpointId::Am]);
    }

    #[test]
    fn unregister_removes() {
        let bus = Bus::new();
        let _e = bus.register(EndpointId::Controller);
        assert_eq!(bus.len(), 1);
        bus.unregister(EndpointId::Controller);
        assert!(bus.is_empty());
        assert!(!bus.send(EndpointId::Controller, RtMsg::Ack { seq: 0 }));
    }

    #[test]
    fn try_recv_is_non_blocking() {
        let bus = Bus::new();
        let w = bus.register(EndpointId::Worker(WorkerId(2)));
        assert!(w.try_recv().is_none());
    }

    #[test]
    fn recv_timeout_expires() {
        let bus = Bus::new();
        let w = bus.register(EndpointId::Worker(WorkerId(3)));
        assert!(w.recv_timeout(Duration::from_millis(5)).is_none());
    }

    #[test]
    fn deliveries_are_not_dead_letters() {
        let (bus, journal) = journalled_bus();
        let w = bus.register(EndpointId::Worker(WorkerId(0)));
        for _ in 0..3 {
            assert!(bus.send(EndpointId::Worker(WorkerId(0)), RtMsg::Leave { term: 0 }));
        }
        bus.send(EndpointId::Am, RtMsg::Leave { term: 0 }); // dead letter
        assert_eq!(std::iter::from_fn(|| w.try_recv()).count(), 3);
        assert_eq!(bus.total_dead_letters(), 1);
        assert_eq!(dead_letters_to(&journal), [EndpointId::Am]);
    }

    #[test]
    fn envelopes_survive_unregistered_receiver_drop() {
        // Receiver dropped without unregister (crashed worker): sends
        // become dead letters, not panics.
        let (bus, journal) = journalled_bus();
        let w = bus.register(EndpointId::Worker(WorkerId(7)));
        drop(w);
        assert!(bus.send(EndpointId::Worker(WorkerId(7)), RtMsg::Leave { term: 0 }));
        assert_eq!(bus.total_dead_letters(), 1);
        assert_eq!(dead_letters_to(&journal), [EndpointId::Worker(WorkerId(7))]);
    }

    #[test]
    fn chaotic_bus_reports_stats() {
        let policy = ChaosPolicy::new(9).drop(1.0);
        let transport = MemoryTransport::new(Some(policy), None, TimeSource::real());
        let bus = Bus::with_transport(Arc::new(transport));
        let w = bus.register(EndpointId::Worker(WorkerId(0)));
        bus.send(EndpointId::Worker(WorkerId(0)), RtMsg::Leave { term: 0 });
        assert!(w.try_recv().is_none());
        let chaos = bus.chaos_stats().unwrap();
        assert_eq!(chaos.dropped, 1);
    }
}
