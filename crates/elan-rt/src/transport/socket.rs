//! Socket transport: the control-plane protocol over real TCP or
//! Unix-domain streams, so a coordinator and N workers run as separate
//! OS processes.
//!
//! Topology is hub-and-spoke. The coordinator process calls
//! [`SocketTransport::listen`]; every worker process calls
//! [`SocketTransport::connect`]. A connection's first frame is
//! [`WireFrame::Hello`], announcing which endpoint lives behind it; the
//! hub records the mapping and from then on relays
//! [`WireFrame::Msg`] frames between connections, so worker↔worker
//! traffic (`StateChunk` replication streams) crosses two hops without
//! the workers knowing each other's addresses.
//!
//! Reconnect semantics: a fresh `Hello` for an already-known endpoint
//! simply remaps it to the newest connection — a restarted worker
//! process dials in, announces itself, and the `Rejoin` flow takes it
//! from there. Messages addressed to an endpoint whose connection died
//! become dead letters; the reliable layer's MsgId resend/dedup
//! machinery (unchanged from the in-memory bus) masks the gap exactly
//! like it masks chaos drops.
//!
//! Delivery guarantees match the in-memory transport: per-connection
//! FIFO, at-most-once, no backpressure. Every frame is CRC32-checked
//! ([`elan_core::codec::decode_frame`]); a connection that produces an
//! undecodable frame is dropped rather than guessed at.
//!
//! This file (under `transport/`) is the only place in `elan-rt`
//! allowed to touch `std::net` — enforced by elan-verify's `NETWORK_IO`
//! rule.

use std::collections::HashMap;
use std::io::{self, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::os::unix::net::{UnixListener, UnixStream};
use std::sync::Arc;
use std::thread;

use crossbeam::channel::{unbounded, Sender};
use parking_lot::{Mutex, RwLock};

use elan_core::codec::{decode_frame, encode_frame, WireFrame, MAX_FRAME_LEN};

use crate::bus::{Endpoint, EndpointId, EndpointStats, Envelope, RtMsg};
use crate::obs::{EventJournal, EventKind};
use crate::time::TimeSource;

use super::Transport;

/// Bytes in the little-endian length prefix preceding every frame.
const LEN_PREFIX: usize = 4;

/// One bidirectional stream, TCP or Unix-domain.
enum Stream {
    Tcp(TcpStream),
    Unix(UnixStream),
}

impl Stream {
    fn try_clone(&self) -> io::Result<Stream> {
        match self {
            Stream::Tcp(s) => s.try_clone().map(Stream::Tcp),
            Stream::Unix(s) => s.try_clone().map(Stream::Unix),
        }
    }
}

impl Read for Stream {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        match self {
            Stream::Tcp(s) => s.read(buf),
            Stream::Unix(s) => s.read(buf),
        }
    }
}

impl Write for Stream {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        match self {
            Stream::Tcp(s) => s.write(buf),
            Stream::Unix(s) => s.write(buf),
        }
    }
    fn flush(&mut self) -> io::Result<()> {
        match self {
            Stream::Tcp(s) => s.flush(),
            Stream::Unix(s) => s.flush(),
        }
    }
}

/// The write half of one connection, shared by every sender routing to
/// it. The mutex makes frame writes atomic (length prefix + frame);
/// nothing else is held while writing.
struct ConnWriter {
    stream: Mutex<Stream>,
}

impl ConnWriter {
    fn write_frame(&self, frame: &WireFrame) -> io::Result<()> {
        let bytes = encode_frame(frame);
        let mut s = self.stream.lock();
        s.write_all(&(bytes.len() as u32).to_le_bytes())?;
        s.write_all(&bytes)?;
        s.flush()
    }
}

/// Reads one length-prefixed frame. Errors on EOF, short reads, or a
/// length prefix exceeding [`MAX_FRAME_LEN`] (a corrupted prefix must
/// not drive a huge allocation).
fn read_frame(stream: &mut Stream) -> io::Result<Vec<u8>> {
    let mut len_buf = [0u8; LEN_PREFIX];
    stream.read_exact(&mut len_buf)?;
    let len = u32::from_le_bytes(len_buf) as usize;
    if len > MAX_FRAME_LEN {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("frame length {len} exceeds MAX_FRAME_LEN"),
        ));
    }
    let mut buf = vec![0u8; len];
    stream.read_exact(&mut buf)?;
    Ok(buf)
}

struct Shared {
    /// Endpoints living in this process, by id.
    local: RwLock<HashMap<EndpointId, Sender<Envelope>>>,
    /// Hub only: remote endpoint → the connection it announced on.
    routes: RwLock<HashMap<EndpointId, Arc<ConnWriter>>>,
    /// Client only: the single connection to the hub.
    uplink: RwLock<Option<Arc<ConnWriter>>>,
    stats: Mutex<HashMap<EndpointId, EndpointStats>>,
    journal: RwLock<Option<Arc<EventJournal>>>,
    time: RwLock<TimeSource>,
}

impl Shared {
    fn new() -> Self {
        Shared {
            local: RwLock::new(HashMap::new()),
            routes: RwLock::new(HashMap::new()),
            uplink: RwLock::new(None),
            stats: Mutex::new(HashMap::new()),
            journal: RwLock::new(None),
            time: RwLock::new(TimeSource::real()),
        }
    }

    /// Delivers `env` to `to` — local channel first, then a remote
    /// route, then the uplink — and books delivered/dead-letter stats.
    /// Returns whether a destination was known at all.
    fn deliver(&self, to: EndpointId, env: Envelope) -> bool {
        let noisy = matches!(env.body, RtMsg::Heartbeat { .. } | RtMsg::MsgAck { .. });
        // Clone the sender out of the guard: an `if let` scrutinee guard
        // would otherwise stay live through the `else` branch, holding the
        // `local` read lock across the blocking socket write below.
        let local_tx = self.local.read().get(&to).cloned();
        let delivered = if let Some(tx) = local_tx {
            tx.send(env).is_ok()
        } else {
            let writer = self
                .routes
                .read()
                .get(&to)
                .cloned()
                .or_else(|| self.uplink.read().clone());
            match writer {
                Some(w) => {
                    let ok = w.write_frame(&WireFrame::Msg { to, env }).is_ok();
                    if !ok {
                        // The connection is gone; forget the route so
                        // later sends dead-letter immediately instead of
                        // hitting a broken pipe each time.
                        let mut routes = self.routes.write();
                        if let Some(cur) = routes.get(&to) {
                            if Arc::ptr_eq(cur, &w) {
                                routes.remove(&to);
                            }
                        }
                    }
                    ok
                }
                None => false,
            }
        };
        let mut stats = self.stats.lock();
        let entry = stats.entry(to).or_default();
        if delivered {
            entry.delivered += 1;
        } else {
            entry.dead_letters += 1;
            drop(stats);
            if !noisy {
                if let Some(journal) = self.journal.read().as_ref() {
                    journal.emit(EventKind::DeadLetter { to });
                }
            }
        }
        delivered
    }
}

/// The multi-process transport. Construct with
/// [`SocketTransport::listen`] (coordinator) or
/// [`SocketTransport::connect`] (worker), then hand it to
/// `ElasticRuntime::builder().transport(...)` or wrap it in a
/// `Bus::with_transport`.
pub struct SocketTransport {
    shared: Arc<Shared>,
    /// The resolved address ("tcp:ip:port" / "unix:path") — useful when
    /// listening on `tcp:127.0.0.1:0`.
    local_addr: String,
}

impl std::fmt::Debug for SocketTransport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "SocketTransport({})", self.local_addr)
    }
}

enum ParsedAddr<'a> {
    Tcp(&'a str),
    Unix(&'a str),
}

fn parse_addr(addr: &str) -> io::Result<ParsedAddr<'_>> {
    if let Some(rest) = addr.strip_prefix("tcp:") {
        Ok(ParsedAddr::Tcp(rest))
    } else if let Some(rest) = addr.strip_prefix("unix:") {
        Ok(ParsedAddr::Unix(rest))
    } else {
        Err(io::Error::new(
            io::ErrorKind::InvalidInput,
            format!("address `{addr}` must start with tcp: or unix:"),
        ))
    }
}

impl SocketTransport {
    /// Binds the coordinator hub on `addr` (`"tcp:host:port"` or
    /// `"unix:/path"`) and starts accepting worker connections.
    ///
    /// # Errors
    ///
    /// Propagates bind/listen failures.
    pub fn listen(addr: &str) -> io::Result<SocketTransport> {
        let shared = Arc::new(Shared::new());
        let local_addr;
        match parse_addr(addr)? {
            ParsedAddr::Tcp(a) => {
                let listener = TcpListener::bind(a)?;
                local_addr = format!("tcp:{}", listener.local_addr()?);
                let hub = Arc::clone(&shared);
                thread::Builder::new()
                    .name("elan-accept".into())
                    .spawn(move || {
                        for conn in listener.incoming() {
                            match conn {
                                Ok(s) => spawn_hub_conn(&hub, Stream::Tcp(s)),
                                Err(_) => break,
                            }
                        }
                    })?;
            }
            ParsedAddr::Unix(path) => {
                // A stale socket file from a previous run blocks bind.
                let _ = std::fs::remove_file(path);
                let listener = UnixListener::bind(path)?;
                local_addr = format!("unix:{path}");
                let hub = Arc::clone(&shared);
                thread::Builder::new()
                    .name("elan-accept".into())
                    .spawn(move || {
                        for conn in listener.incoming() {
                            match conn {
                                Ok(s) => spawn_hub_conn(&hub, Stream::Unix(s)),
                                Err(_) => break,
                            }
                        }
                    })?;
            }
        }
        Ok(SocketTransport { shared, local_addr })
    }

    /// Dials the coordinator hub at `addr` and starts the receive loop.
    ///
    /// # Errors
    ///
    /// Propagates connect failures.
    pub fn connect(addr: &str) -> io::Result<SocketTransport> {
        let stream = match parse_addr(addr)? {
            ParsedAddr::Tcp(a) => Stream::Tcp(TcpStream::connect(a)?),
            ParsedAddr::Unix(path) => Stream::Unix(UnixStream::connect(path)?),
        };
        let shared = Arc::new(Shared::new());
        let writer = Arc::new(ConnWriter {
            stream: Mutex::new(stream.try_clone()?),
        });
        *shared.uplink.write() = Some(writer);
        let client = Arc::clone(&shared);
        thread::Builder::new()
            .name("elan-uplink".into())
            .spawn(move || client_conn_loop(&client, stream))?;
        Ok(SocketTransport {
            shared,
            local_addr: addr.to_string(),
        })
    }

    /// The bound/dialed address, scheme-prefixed. For
    /// `listen("tcp:127.0.0.1:0")` this carries the real port.
    pub fn local_addr(&self) -> &str {
        &self.local_addr
    }
}

/// Hub side: one reader thread per accepted connection.
fn spawn_hub_conn(shared: &Arc<Shared>, stream: Stream) {
    let writer = match stream.try_clone() {
        Ok(w) => Arc::new(ConnWriter {
            stream: Mutex::new(w),
        }),
        Err(_) => return, // conn unusable before the first frame
    };
    let hub = Arc::clone(shared);
    let spawned = thread::Builder::new()
        .name("elan-conn".into())
        .spawn(move || hub_conn_loop(&hub, stream, &writer));
    // A spawn failure orphans the connection; the peer sees EOF and the
    // reliable layer treats it like any other dead route.
    drop(spawned);
}

fn hub_conn_loop(shared: &Arc<Shared>, mut stream: Stream, writer: &Arc<ConnWriter>) {
    let mut announced: Vec<EndpointId> = Vec::new();
    // Until EOF or a socket error — either way the connection is done.
    while let Ok(bytes) = read_frame(&mut stream) {
        match decode_frame(&bytes) {
            Ok(WireFrame::Hello { from }) => {
                // Latest Hello wins: a reconnecting endpoint remaps to
                // this connection, orphaning the stale one.
                shared.routes.write().insert(from, Arc::clone(writer));
                announced.push(from);
            }
            Ok(WireFrame::Msg { to, env }) => {
                shared.deliver(to, env);
            }
            // CRC or schema failure: this stream can no longer be
            // trusted byte-for-byte, so drop the whole connection and
            // let resends re-establish the flow.
            Err(_) => break,
        }
    }
    let mut routes = shared.routes.write();
    for id in announced {
        if let Some(cur) = routes.get(&id) {
            if Arc::ptr_eq(cur, writer) {
                routes.remove(&id);
            }
        }
    }
}

/// Client side: the single reader on the hub connection.
fn client_conn_loop(shared: &Arc<Shared>, mut stream: Stream) {
    while let Ok(bytes) = read_frame(&mut stream) {
        match decode_frame(&bytes) {
            Ok(WireFrame::Msg { to, env }) => {
                shared.deliver(to, env);
            }
            Ok(WireFrame::Hello { .. }) => {} // hub never sends Hello
            Err(_) => break,
        }
    }
    // Hub gone: sends now dead-letter instead of blocking on a corpse.
    *shared.uplink.write() = None;
}

impl Transport for SocketTransport {
    fn register(&self, id: EndpointId) -> Endpoint {
        let (tx, rx) = unbounded();
        let prev = self.shared.local.write().insert(id, tx);
        assert!(prev.is_none(), "endpoint {id} registered twice");
        // Announce the endpoint upstream so the hub can route to it.
        // A write failure means the hub is gone; the reader loop has
        // noticed (or will), and registration itself still succeeds —
        // exactly like registering on a partitioned in-memory bus.
        // The uplink guard is dropped before the (blocking) frame write:
        // an `if let` scrutinee temp would pin the `uplink` read lock
        // across socket IO otherwise.
        let uplink = self.shared.uplink.read().clone();
        if let Some(uplink) = uplink {
            let _ = uplink.write_frame(&WireFrame::Hello { from: id });
        }
        Endpoint::assemble(id, rx, self.shared.time.read().clone())
    }

    fn unregister(&self, id: EndpointId) {
        self.shared.local.write().remove(&id);
    }

    fn send_envelope(&self, to: EndpointId, env: Envelope) -> bool {
        {
            let mut stats = self.shared.stats.lock();
            stats.entry(to).or_default().sent += 1;
        }
        self.shared.deliver(to, env)
    }

    fn stats(&self, id: EndpointId) -> EndpointStats {
        self.shared
            .stats
            .lock()
            .get(&id)
            .copied()
            .unwrap_or_default()
    }

    fn all_stats(&self) -> Vec<(EndpointId, EndpointStats)> {
        let mut v: Vec<_> = self
            .shared
            .stats
            .lock()
            .iter()
            .map(|(&k, &s)| (k, s))
            .collect();
        v.sort_by_key(|(k, _)| *k);
        v
    }

    fn total_dead_letters(&self) -> u64 {
        self.shared
            .stats
            .lock()
            .values()
            .map(|s| s.dead_letters)
            .sum()
    }

    fn attach(&self, journal: Option<Arc<EventJournal>>, time: TimeSource) {
        *self.shared.journal.write() = journal;
        *self.shared.time.write() = time;
    }

    fn journal(&self) -> Option<Arc<EventJournal>> {
        self.shared.journal.read().clone()
    }

    fn time(&self) -> TimeSource {
        self.shared.time.read().clone()
    }

    fn endpoint_count(&self) -> usize {
        self.shared.local.read().len()
    }

    fn supports_virtual_time(&self) -> bool {
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bus::Bus;
    use elan_core::state::WorkerId;
    use std::time::Duration;

    /// Generous receive window for loopback delivery; sub-millisecond in
    /// practice, but CI machines stall.
    const RECV_WINDOW: Duration = Duration::from_secs(5);

    fn uds_pair(name: &str) -> Result<(SocketTransport, SocketTransport), String> {
        let path = std::env::temp_dir().join(format!("elan-sock-{}-{name}", std::process::id()));
        let addr = format!("unix:{}", path.display());
        let hub = SocketTransport::listen(&addr).map_err(|e| format!("listen {addr}: {e}"))?;
        let client = SocketTransport::connect(&addr).map_err(|e| format!("connect {addr}: {e}"))?;
        Ok((hub, client))
    }

    #[test]
    fn uds_roundtrip_hub_to_client_and_back() -> Result<(), String> {
        let (hub, client) = uds_pair("roundtrip")?;
        let hub_bus = Bus::with_transport(Arc::new(hub));
        let client_bus = Bus::with_transport(Arc::new(client));

        let am = hub_bus.register(EndpointId::Am);
        let w0 = client_bus.register(EndpointId::Worker(WorkerId(0)));

        // Worker → AM crosses the socket via the uplink.
        assert!(client_bus.send(
            EndpointId::Am,
            RtMsg::Report {
                worker: WorkerId(0)
            }
        ));
        let env = am.recv_timeout(RECV_WINDOW).ok_or("no report over UDS")?;
        assert!(matches!(env.body, RtMsg::Report { worker } if worker == WorkerId(0)));

        // AM → worker uses the route the Hello established.
        assert!(hub_bus.send(
            EndpointId::Worker(WorkerId(0)),
            RtMsg::Proceed {
                boundary: 5,
                term: 0
            }
        ));
        let env = w0.recv_timeout(RECV_WINDOW).ok_or("no proceed over UDS")?;
        assert!(matches!(env.body, RtMsg::Proceed { boundary: 5, .. }));
        Ok(())
    }

    #[test]
    fn tcp_relay_between_two_clients() -> Result<(), String> {
        let hub = SocketTransport::listen("tcp:127.0.0.1:0").map_err(|e| e.to_string())?;
        let addr = hub.local_addr().to_string();
        let _hub_bus = Bus::with_transport(Arc::new(hub));

        let connect = |a: &str| SocketTransport::connect(a).map_err(|e| e.to_string());
        let a = Bus::with_transport(Arc::new(connect(&addr)?));
        let b = Bus::with_transport(Arc::new(connect(&addr)?));
        let _w1 = a.register(EndpointId::Worker(WorkerId(1)));
        let w2 = b.register(EndpointId::Worker(WorkerId(2)));

        // Worker 1 → worker 2: client a → hub → client b (two hops), the
        // path a StateChunk replication stream takes.
        let payload = Arc::new(vec![1.0f32, 2.0, 3.0]);
        // The Hello frames race the first routed send; retry like the
        // reliable layer would until the route exists.
        let mut delivered = None;
        for _ in 0..200 {
            a.send(
                EndpointId::Worker(WorkerId(2)),
                RtMsg::StateChunk {
                    kind: elan_core::messages::StateKind::Params,
                    iteration: 10,
                    data_cursor: 0,
                    index: 0,
                    total: 1,
                    offset: 0,
                    data: Arc::clone(&payload),
                },
            );
            if let Some(env) = w2.recv_timeout(Duration::from_millis(50)) {
                delivered = Some(env);
                break;
            }
        }
        let env = delivered.ok_or("state chunk not relayed hub-and-spoke")?;
        match env.body {
            RtMsg::StateChunk { data, .. } => assert_eq!(*data, *payload),
            other => return Err(format!("unexpected {other:?}")),
        }
        Ok(())
    }

    #[test]
    fn unknown_destination_is_a_dead_letter() -> Result<(), String> {
        let (hub, _client) = uds_pair("deadletter")?;
        let hub_bus = Bus::with_transport(Arc::new(hub));
        assert!(!hub_bus.send(EndpointId::Worker(WorkerId(9)), RtMsg::Leave { term: 0 }));
        assert_eq!(
            hub_bus
                .transport()
                .stats(EndpointId::Worker(WorkerId(9)))
                .dead_letters,
            1
        );
        Ok(())
    }

    #[test]
    fn bad_address_scheme_is_rejected() {
        assert!(SocketTransport::listen("carrier-pigeon:coop").is_err());
        assert!(SocketTransport::connect("127.0.0.1:0").is_err());
    }
}
