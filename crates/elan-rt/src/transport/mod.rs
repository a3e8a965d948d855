//! Pluggable control-plane transports behind the [`Bus`](crate::bus::Bus)
//! facade.
//!
//! The runtime speaks one protocol (`elan_core::protocol`) over two very
//! different fabrics:
//!
//! - [`MemoryTransport`] — the original in-process chaos bus: crossbeam
//!   channels, deterministic fault injection, virtual-time aware. Every
//!   deterministic simulation and seed sweep runs on it, byte-identical
//!   to the pre-trait implementation.
//! - [`SocketTransport`] — real TCP or
//!   Unix-domain sockets with the length-prefixed, CRC32-framed codec
//!   from `elan_core::codec`, so a coordinator and N workers run as
//!   separate OS processes.
//!
//! Both embed one [`TransportCore`]: the endpoints registered in this
//! process, the journal and clock binding, and the dead-letter count.
//! The trait's provided methods run on it, so a transport supplies only
//! how an envelope leaves the process. A dead letter (a send to an
//! unregistered or departed endpoint) is one atomic increment plus a
//! `DeadLetter { to }` journal event, heartbeats and acks excepted: no
//! send takes an accounting lock.
//!
//! The trait is object-safe on purpose: the runtime holds an
//! `Arc<dyn Transport>` and never knows which fabric it is on. Anything
//! fault-injection-specific ([`Transport::chaos_stats`],
//! [`Transport::add_partition`]) has a "not supported" default so socket
//! transports don't fake chaos.
//!
//! Its `socket` module is also the *only* place in the workspace allowed
//! to name a socket type — clippy's `disallowed_types` lint enforces
//! that, mirroring how `disallowed_methods` confines clock access to
//! `time.rs`.

pub mod memory;
pub mod socket;

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use crossbeam::channel::{unbounded, SendError, Sender};
use parking_lot::RwLock;

use crate::bus::{Endpoint, EndpointId, Envelope, RtMsg};
use crate::chaos::{ChaosStats, PartitionWindow};
use crate::obs::{EventJournal, EventKind};
use crate::time::TimeSource;

pub use memory::MemoryTransport;
pub use socket::SocketTransport;

/// What every transport shares, whatever its fabric: the endpoints
/// registered in this process, the journal and clock the runtime binds,
/// and the dead-letter count.
///
/// Opaque outside this crate: the [`Transport`] implementations embed
/// one and the trait's provided methods run on it.
pub struct TransportCore {
    /// Endpoints living in this process, by id.
    local: RwLock<HashMap<EndpointId, Sender<Envelope>>>,
    /// The runtime's event journal, when observability is attached.
    journal: RwLock<Option<Arc<EventJournal>>>,
    /// The runtime's clock; replaceable via [`Transport::attach`] until
    /// the first endpoint registers.
    time: RwLock<TimeSource>,
    /// Messages that could not be delivered anywhere.
    dead_letters: AtomicU64,
}

impl TransportCore {
    pub(crate) fn new(journal: Option<Arc<EventJournal>>, time: TimeSource) -> Self {
        TransportCore {
            local: RwLock::new(HashMap::new()),
            journal: RwLock::new(journal),
            time: RwLock::new(time),
            dead_letters: AtomicU64::new(0),
        }
    }

    /// Adds `id` to the local registry; see [`Transport::register`].
    pub(crate) fn register(&self, id: EndpointId) -> Endpoint {
        let (tx, rx) = unbounded();
        let mut local = self.local.write();
        assert!(!local.contains_key(&id), "endpoint {id} registered twice");
        local.insert(id, tx);
        drop(local);
        Endpoint::assemble(id, rx, self.time())
    }

    /// Hands `env` to the endpoint `to` if it is registered here, booking
    /// a dead letter when its receiver is gone. Returns whether it was
    /// delivered; an envelope for an endpoint not registered here comes
    /// back in `Err`, for the caller to route or dead-letter.
    pub(crate) fn deliver_local(&self, to: EndpointId, env: Envelope) -> Result<bool, Envelope> {
        // The sender is cloned out of the guard: a send may wake the
        // receiver's thread, and holding the registry lock across that
        // stalls every other delivery and a waiting `unregister`.
        let tx = self.local.read().get(&to).cloned();
        let sent = match tx {
            Some(tx) => tx.send(env),
            None => return Err(env),
        };
        match sent {
            Ok(()) => Ok(true),
            Err(SendError(env)) => {
                self.dead_letter(to, is_noise(&env.body));
                Ok(false)
            }
        }
    }

    /// Whether `id` is registered in this process.
    pub(crate) fn is_local(&self, id: EndpointId) -> bool {
        self.local.read().contains_key(&id)
    }

    /// Counts one undeliverable message for `to` and journals it, unless
    /// it is heartbeat/ack [noise](is_noise).
    pub(crate) fn dead_letter(&self, to: EndpointId, noise: bool) {
        self.dead_letters.fetch_add(1, Ordering::Relaxed);
        if !noise {
            if let Some(journal) = self.journal() {
                journal.emit(EventKind::DeadLetter { to });
            }
        }
    }

    pub(crate) fn journal(&self) -> Option<Arc<EventJournal>> {
        self.journal.read().clone()
    }

    pub(crate) fn time(&self) -> TimeSource {
        self.time.read().clone()
    }
}

/// Heartbeats and transport acks dominate chaotic traffic; their fates
/// stay out of the journal so the ring retains the events that matter
/// for adjustment forensics.
pub(crate) fn is_noise(body: &RtMsg) -> bool {
    matches!(body, RtMsg::Heartbeat { .. } | RtMsg::MsgAck { .. })
}

/// A message fabric the runtime's endpoints send and receive through.
///
/// Implementations must be `Send + Sync`: one transport is shared by the
/// AM thread, every worker, and the controller. Delivery is per-receiver
/// FIFO (whatever the fabric) and at-most-once; the
/// [`crate::reliable`] layer adds ids, acks, resends, and dedup on top,
/// which is what lets a socket transport survive reconnects with the
/// same machinery that masks chaos drops in-memory.
///
/// Only this crate's transports implement it: each embeds a
/// [`TransportCore`], which the provided methods run on.
pub trait Transport: Send + Sync {
    /// The shared registry, clock/journal binding and dead-letter count.
    fn core(&self) -> &TransportCore;

    /// Registers `id` locally and returns its receive side.
    ///
    /// # Panics
    ///
    /// Panics if `id` is already registered on this transport instance
    /// (a local protocol bug); the endpoint registered first keeps its
    /// channel.
    fn register(&self, id: EndpointId) -> Endpoint {
        self.core().register(id)
    }

    /// Removes a local endpoint; later sends to it become dead letters.
    fn unregister(&self, id: EndpointId) {
        self.core().local.write().remove(&id);
    }

    /// Sends `env` to `to`, through fault injection or the wire. Returns
    /// whether the destination is currently known/reachable — an
    /// in-network loss (chaos drop, peer crash mid-flight) still reports
    /// true, because a real sender cannot observe it.
    fn send_envelope(&self, to: EndpointId, env: Envelope) -> bool;

    /// Total messages that could not be delivered anywhere.
    fn total_dead_letters(&self) -> u64 {
        self.core().dead_letters.load(Ordering::Relaxed)
    }

    /// Fault-injection counters. `None` when the transport carries no
    /// chaos engine (the default, and always for socket transports).
    fn chaos_stats(&self) -> Option<ChaosStats> {
        None
    }

    /// Whether an open partition window currently cuts the `a`↔`b` edge.
    /// Transports without scripted chaos never report a partition.
    fn is_partitioned(&self, _a: EndpointId, _b: EndpointId) -> bool {
        false
    }

    /// Injects a partition window at runtime. Returns false when the
    /// transport has no chaos engine to carry it (the default).
    fn add_partition(&self, _window: PartitionWindow) -> bool {
        false
    }

    /// Late-binds the runtime's journal and clock, before any
    /// [`Transport::register`] call and before the transport is wrapped
    /// in a `Bus`. The runtime builder calls this on user-supplied
    /// transports so transport construction doesn't need the runtime's
    /// observability plumbing.
    fn attach(&self, journal: Option<Arc<EventJournal>>, time: TimeSource) {
        let core = self.core();
        *core.journal.write() = journal;
        *core.time.write() = time;
    }

    /// The attached event journal, if observability is wired up.
    fn journal(&self) -> Option<Arc<EventJournal>> {
        self.core().journal()
    }

    /// The clock this transport (and the runtime around it) ticks on.
    fn time(&self) -> TimeSource {
        self.core().time()
    }

    /// Locally registered endpoint count.
    fn endpoint_count(&self) -> usize {
        self.core().local.read().len()
    }

    /// Whether the transport can run under a virtual clock. True for the
    /// in-memory bus; false for socket transports, whose IO waits are
    /// invisible to the virtual scheduler.
    fn supports_virtual_time(&self) -> bool {
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use elan_core::messages::MsgId;
    use elan_core::state::WorkerId;
    use std::panic::{catch_unwind, AssertUnwindSafe};
    use std::time::Duration;

    /// Generous receive window for loopback delivery; sub-millisecond in
    /// practice, but CI machines stall.
    pub(crate) const RECV_WINDOW: Duration = Duration::from_secs(5);

    /// A Unix-domain hub and one client dialed into it.
    pub(crate) fn uds_pair(name: &str) -> Result<(SocketTransport, SocketTransport), String> {
        let path = std::env::temp_dir().join(format!("elan-sock-{}-{name}", std::process::id()));
        let addr = format!("unix:{}", path.display());
        let hub = SocketTransport::listen(&addr).map_err(|e| format!("listen {addr}: {e}"))?;
        let client = SocketTransport::connect(&addr).map_err(|e| format!("connect {addr}: {e}"))?;
        Ok((hub, client))
    }

    /// The destinations of every journalled dead letter, in order.
    pub(crate) fn dead_letters_to(journal: &EventJournal) -> Vec<EndpointId> {
        let events = journal.events().into_iter();
        events
            .filter_map(|e| match e.kind {
                EventKind::DeadLetter { to } => Some(to),
                _ => None,
            })
            .collect()
    }

    fn env(id: u64, body: RtMsg) -> Envelope {
        Envelope {
            id: MsgId(id),
            from: EndpointId::Controller,
            attempt: 1,
            body,
        }
    }

    /// The contract every transport keeps. Endpoints register on `near`,
    /// which counts and journals its dead letters; `far` sends to them
    /// across the fabric (for the in-memory bus, `near` itself).
    fn conformance(near: &dyn Transport, far: &dyn Transport) {
        let journal = Arc::new(EventJournal::new(64, Vec::new()));
        near.attach(Some(Arc::clone(&journal)), TimeSource::real());
        let journalled = || dead_letters_to(&journal);
        let w = EndpointId::Worker(WorkerId(1));
        let rx = near.register(w);

        // FIFO per receiver.
        for term in 0..16 {
            assert!(far.send_envelope(w, env(term, RtMsg::Leave { term })));
        }
        for term in 0..16 {
            let got = rx.recv_timeout(RECV_WINDOW).map(|e| e.body);
            assert!(matches!(got, Some(RtMsg::Leave { term: t }) if t == term));
        }

        // An unknown endpoint: refused, counted once, journalled once.
        let ghost = EndpointId::Worker(WorkerId(9));
        assert!(!near.send_envelope(ghost, env(100, RtMsg::Stop { seq: 0 })));
        assert_eq!(near.total_dead_letters(), 1);
        assert_eq!(journalled(), [ghost]);

        // Heartbeat and ack noise is counted but not journalled.
        let beat = RtMsg::Heartbeat {
            worker: WorkerId(9),
            iteration: 3,
        };
        assert!(!near.send_envelope(ghost, env(101, beat)));
        assert!(!near.send_envelope(ghost, env(102, RtMsg::MsgAck { of: MsgId(7) })));
        assert_eq!(near.total_dead_letters(), 3);
        assert_eq!(journalled(), [ghost]);

        // After `unregister`, sends become dead letters.
        near.unregister(w);
        assert!(!near.send_envelope(w, env(103, RtMsg::Leave { term: 0 })));
        assert_eq!(near.total_dead_letters(), 4);
        assert_eq!(journalled(), [ghost, w]);

        // A duplicate `register` panics and leaves the first in place.
        let am = near.register(EndpointId::Am);
        let twice = catch_unwind(AssertUnwindSafe(|| near.register(EndpointId::Am)));
        assert!(twice.is_err(), "a duplicate register was accepted");
        assert!(near.send_envelope(EndpointId::Am, env(104, RtMsg::Stop { seq: 1 })));
        assert!(matches!(
            am.try_recv().map(|e| e.body),
            Some(RtMsg::Stop { seq: 1 })
        ));
    }

    #[test]
    fn memory_transport_conforms() {
        let bus = MemoryTransport::default();
        conformance(&bus, &bus);
    }

    #[test]
    fn uds_socket_transport_conforms() -> Result<(), String> {
        let (hub, client) = uds_pair("conformance")?;
        conformance(&hub, &client);
        Ok(())
    }
}
