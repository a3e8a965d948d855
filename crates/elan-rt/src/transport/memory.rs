//! The in-process transport: crossbeam channels with optional chaos.
//!
//! The shared [`TransportCore`] carries the endpoint registry, the
//! journal and clock binding and the dead-letter count; this transport
//! adds only the deterministic chaos engine every send may pass
//! through. The deterministic simulation suite runs on it, so its
//! journals are byte-identical on the same seeds.

use std::sync::Arc;

use parking_lot::Mutex;

use crate::bus::{EndpointId, Envelope};
use crate::chaos::{ChaosEngine, ChaosPolicy, ChaosStats, PartitionWindow};
use crate::obs::{EventJournal, EventKind};
use crate::time::TimeSource;

use super::{is_noise, Transport, TransportCore};

/// Crossbeam-channel delivery with optional deterministic fault
/// injection — one process, many threads, virtual-time aware.
pub struct MemoryTransport {
    core: TransportCore,
    chaos: Option<Mutex<ChaosEngine>>,
}

impl Default for MemoryTransport {
    fn default() -> Self {
        MemoryTransport::new(None, None, TimeSource::real())
    }
}

impl std::fmt::Debug for MemoryTransport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "MemoryTransport({} endpoints)", self.endpoint_count())
    }
}

impl MemoryTransport {
    /// Creates the transport with optional fault injection, an optional
    /// event journal, and the runtime's clock.
    pub fn new(
        chaos: Option<ChaosPolicy>,
        journal: Option<Arc<EventJournal>>,
        time: TimeSource,
    ) -> Self {
        MemoryTransport {
            core: TransportCore::new(journal, time),
            chaos: chaos.map(|policy| Mutex::new(ChaosEngine::new(policy))),
        }
    }

    /// Delivers to a local endpoint or books a dead letter. Returns
    /// whether `to` is registered.
    fn deliver(&self, to: EndpointId, env: Envelope) -> bool {
        match self.core.deliver_local(to, env) {
            Ok(_) => true,
            Err(env) => {
                self.core.dead_letter(to, is_noise(&env.body));
                false
            }
        }
    }
}

impl Transport for MemoryTransport {
    fn core(&self) -> &TransportCore {
        &self.core
    }

    fn send_envelope(&self, to: EndpointId, env: Envelope) -> bool {
        let time = self.core.time();
        let registered = match &self.chaos {
            Some(engine) => {
                let noise = is_noise(&env.body);
                let now = time.now();
                let mut engine = engine.lock();
                // Window lifecycle transitions are observed on sends; with
                // heartbeats flowing constantly that pins the journal event
                // to within one beacon period of the scripted instant.
                let (started, healed) = engine.poll_windows(now);
                let (deliveries, fate) = engine.route(now, to, env);
                drop(engine);
                if let Some(journal) = self.core.journal() {
                    for name in started {
                        journal.emit(EventKind::PartitionStart { name });
                    }
                    for name in healed {
                        journal.emit(EventKind::PartitionHeal { name });
                    }
                    if let (Some(fate), false) = (fate, noise) {
                        journal.emit(EventKind::ChaosInjected { fate, to });
                    }
                }
                for (dst, envelope) in deliveries {
                    self.deliver(dst, envelope);
                }
                self.core.is_local(to)
            }
            None => self.deliver(to, env),
        };
        // Under virtual time, parked receivers re-check their queues only
        // when woken; publish the delivery. (No transport lock is held
        // here, and `wake_all` only flips scheduler states — it never
        // blocks.)
        time.wake_all();
        registered
    }

    fn chaos_stats(&self) -> Option<ChaosStats> {
        self.chaos.as_ref().map(|e| e.lock().stats())
    }

    fn is_partitioned(&self, a: EndpointId, b: EndpointId) -> bool {
        match &self.chaos {
            Some(engine) => {
                let now = self.core.time().now();
                engine.lock().is_partitioned(now, a, b)
            }
            None => false,
        }
    }

    fn add_partition(&self, window: PartitionWindow) -> bool {
        match &self.chaos {
            Some(engine) => {
                engine.lock().add_window(window);
                true
            }
            None => false,
        }
    }
}
