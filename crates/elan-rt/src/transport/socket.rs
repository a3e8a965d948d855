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
//! undecodable frame is dropped rather than guessed at. A relayed frame
//! is forwarded as the bytes the hub read and verified, not re-encoded.
//!
//! Every frame leaves in one write (length prefix and frame in one
//! buffer), and TCP streams run with `TCP_NODELAY`: control frames are
//! tens of bytes, and Nagle's algorithm would otherwise hold each one
//! behind the peer's delayed ACK (~40 ms per hop).
//!
//! This file is the only place in the workspace allowed to name a socket
//! type — enforced by the `disallowed-types` lists in the `clippy.toml`
//! files.

#![expect(
    clippy::disallowed_types,
    reason = "the socket transport is the one place that opens OS sockets"
)]

use std::collections::HashMap;
use std::io::{self, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::os::unix::net::{UnixListener, UnixStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread;

use parking_lot::{Mutex, RwLock};

use elan_core::codec::{decode_frame, encode_frame, WireFrame, MAX_FRAME_LEN};

use crate::bus::{Endpoint, EndpointId, Envelope};
use crate::time::TimeSource;

use super::{is_noise, Transport, TransportCore};

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
        let mut buf = encode_frame(frame);
        // Prefix in place: inserting four bytes at the front memmoves the
        // whole frame up by four within the buffer. The encoder sizes the
        // buffer with slack to spare, so nothing is reallocated.
        let len = (buf.len() as u32).to_le_bytes();
        buf.splice(..0, len);
        self.write_prefixed(&buf)
    }

    /// Writes one length-prefixed frame with a single `write_all`: two
    /// writes per frame would let Nagle's algorithm hold the second
    /// behind the peer's delayed ACK of the first.
    fn write_prefixed(&self, buf: &[u8]) -> io::Result<()> {
        self.stream.lock().write_all(buf)
    }
}

/// Reads one frame into `buf`, length prefix still in front (the frame
/// proper is `buf[LEN_PREFIX..]`), so the hub can relay the bytes it
/// verified as they are. Each connection reuses one buffer for all its
/// frames. Errors on EOF, short reads, or a length prefix exceeding
/// [`MAX_FRAME_LEN`] (a corrupted prefix must not drive a huge
/// allocation).
fn read_frame(stream: &mut Stream, buf: &mut Vec<u8>) -> io::Result<()> {
    let mut len_buf = [0u8; LEN_PREFIX];
    stream.read_exact(&mut len_buf)?;
    let len = u32::from_le_bytes(len_buf) as usize;
    if len > MAX_FRAME_LEN {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("frame length {len} exceeds MAX_FRAME_LEN"),
        ));
    }
    buf.clear();
    buf.extend_from_slice(&len_buf);
    buf.resize(LEN_PREFIX + len, 0);
    stream.read_exact(&mut buf[LEN_PREFIX..])
}

struct Shared {
    core: TransportCore,
    /// Hub only: remote endpoint → the connection it announced on.
    routes: RwLock<HashMap<EndpointId, Arc<ConnWriter>>>,
    /// Client only: the single connection to the hub.
    uplink: RwLock<Option<Arc<ConnWriter>>>,
}

impl Shared {
    fn new() -> Self {
        Shared {
            core: TransportCore::new(None, TimeSource::real()),
            routes: RwLock::new(HashMap::new()),
            uplink: RwLock::new(None),
        }
    }

    /// Delivers `env` to `to` — local channel first, then a remote
    /// route, then the uplink — and books a dead letter when that fails.
    /// Returns whether it was delivered.
    ///
    /// `wire`, when given, is the length-prefixed frame `Msg { to, env }`
    /// exactly as it was read and decoded off a connection: a remote
    /// destination gets those verified bytes instead of a re-encoding.
    fn deliver(&self, to: EndpointId, env: Envelope, wire: Option<&[u8]>) -> bool {
        let env = match self.core.deliver_local(to, env) {
            Ok(delivered) => return delivered,
            Err(env) => env,
        };
        let noise = is_noise(&env.body);
        let writer = self
            .routes
            .read()
            .get(&to)
            .cloned()
            .or_else(|| self.uplink.read().clone());
        let delivered = match writer {
            Some(w) => {
                let ok = match wire {
                    Some(bytes) => {
                        // Only the verified bytes travel on; free the
                        // decoded copy before blocking on the write.
                        drop(env);
                        w.write_prefixed(bytes)
                    }
                    None => w.write_frame(&WireFrame::Msg { to, env }),
                }
                .is_ok();
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
        };
        if !delivered {
            self.core.dead_letter(to, noise);
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
    /// Hub only: the accept thread and the flag that stops it.
    accept: Option<(Arc<AtomicBool>, thread::JoinHandle<()>)>,
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

/// A bound hub listener, TCP or Unix-domain.
enum Listener {
    Tcp(TcpListener),
    Unix(UnixListener),
}

impl Listener {
    /// Accepts the next connection. TCP streams get `TCP_NODELAY`, best
    /// effort: a stream that refuses it still works, only Nagle-slow.
    fn accept(&self) -> io::Result<Stream> {
        Ok(match self {
            Listener::Tcp(l) => {
                let (stream, _) = l.accept()?;
                let _ = stream.set_nodelay(true);
                Stream::Tcp(stream)
            }
            Listener::Unix(l) => Stream::Unix(l.accept()?.0),
        })
    }
}

/// Connects to the hub at `addr`.
fn dial(addr: &str) -> io::Result<Stream> {
    Ok(match parse_addr(addr)? {
        ParsedAddr::Tcp(a) => {
            let s = TcpStream::connect(a)?;
            s.set_nodelay(true)?;
            Stream::Tcp(s)
        }
        ParsedAddr::Unix(path) => Stream::Unix(UnixStream::connect(path)?),
    })
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
    /// The accept thread holds the hub weakly, so once the transport and
    /// its connections are gone their routes, registry and journal are
    /// freed; dropping the transport also stops the thread and closes
    /// the listener.
    ///
    /// # Errors
    ///
    /// Propagates bind/listen failures.
    pub fn listen(addr: &str) -> io::Result<SocketTransport> {
        let (listener, local_addr) = match parse_addr(addr)? {
            ParsedAddr::Tcp(a) => {
                let listener = TcpListener::bind(a)?;
                let local_addr = format!("tcp:{}", listener.local_addr()?);
                (Listener::Tcp(listener), local_addr)
            }
            ParsedAddr::Unix(path) => {
                // A stale socket file from a previous run blocks bind.
                let _ = std::fs::remove_file(path);
                let listener = UnixListener::bind(path)?;
                (Listener::Unix(listener), format!("unix:{path}"))
            }
        };
        let shared = Arc::new(Shared::new());
        let hub = Arc::downgrade(&shared);
        let closed = Arc::new(AtomicBool::new(false));
        let closing = Arc::clone(&closed);
        let thread = thread::Builder::new()
            .name("elan-accept".into())
            .spawn(move || {
                // The listener closes when this loop ends.
                while let Ok(stream) = listener.accept() {
                    match hub.upgrade() {
                        Some(hub) if !closing.load(Ordering::SeqCst) => {
                            spawn_hub_conn(&hub, stream);
                        }
                        _ => break,
                    }
                }
            })?;
        Ok(SocketTransport {
            shared,
            local_addr,
            accept: Some((closed, thread)),
        })
    }

    /// Dials the coordinator hub at `addr` and starts the receive loop.
    ///
    /// # Errors
    ///
    /// Propagates connect failures.
    pub fn connect(addr: &str) -> io::Result<SocketTransport> {
        let stream = dial(addr)?;
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
            accept: None,
        })
    }

    /// The bound/dialed address, scheme-prefixed. For
    /// `listen("tcp:127.0.0.1:0")` this carries the real port.
    pub fn local_addr(&self) -> &str {
        &self.local_addr
    }
}

impl Drop for SocketTransport {
    fn drop(&mut self) {
        let Some((closed, thread)) = self.accept.take() else {
            return;
        };
        // Wake the accept thread with a throwaway dial; it sees the flag,
        // exits and closes the listener. Only a TCP dial surely reaches
        // *this* listener (a newer hub may own the Unix path), so only
        // then is waiting for the exit safe.
        closed.store(true, Ordering::SeqCst);
        if dial(&self.local_addr).is_ok() && self.local_addr.starts_with("tcp:") {
            let _ = thread.join();
        }
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
    let mut bytes = Vec::new();
    // Until EOF or a socket error — either way the connection is done.
    while read_frame(&mut stream, &mut bytes).is_ok() {
        match decode_frame(&bytes[LEN_PREFIX..]) {
            Ok(WireFrame::Hello { from }) => {
                // Latest Hello wins: a reconnecting endpoint remaps to
                // this connection, orphaning the stale one.
                shared.routes.write().insert(from, Arc::clone(writer));
                announced.push(from);
            }
            Ok(WireFrame::Msg { to, env }) => {
                // The frame decoded cleanly (CRC, schema, no trailing
                // bytes), so its bytes are exactly `Msg { to, env }`.
                shared.deliver(to, env, Some(&bytes));
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
    let mut bytes = Vec::new();
    while read_frame(&mut stream, &mut bytes).is_ok() {
        match decode_frame(&bytes[LEN_PREFIX..]) {
            Ok(WireFrame::Msg { to, env }) => {
                shared.deliver(to, env, Some(&bytes));
            }
            Ok(WireFrame::Hello { .. }) => {} // hub never sends Hello
            Err(_) => break,
        }
    }
    // Hub gone: sends now dead-letter instead of blocking on a corpse.
    *shared.uplink.write() = None;
}

impl Transport for SocketTransport {
    fn core(&self) -> &TransportCore {
        &self.shared.core
    }

    fn register(&self, id: EndpointId) -> Endpoint {
        let endpoint = self.shared.core.register(id);
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
        endpoint
    }

    fn send_envelope(&self, to: EndpointId, env: Envelope) -> bool {
        self.shared.deliver(to, env, None)
    }

    fn supports_virtual_time(&self) -> bool {
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bus::{Bus, RtMsg};
    use crate::obs::EventJournal;
    use crate::transport::tests::{dead_letters_to, uds_pair, RECV_WINDOW};
    use elan_core::state::WorkerId;
    use std::time::Duration;

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

    /// Writes `frame` length-prefixed onto a raw TCP stream, the way a
    /// peer outside this transport would.
    fn raw_send(stream: &mut TcpStream, frame: &[u8]) -> io::Result<()> {
        let mut buf = (frame.len() as u32).to_le_bytes().to_vec();
        buf.extend_from_slice(frame);
        stream.write_all(&buf)
    }

    /// A raw TCP connection to the hub that has announced `from`.
    fn raw_peer(addr: &str, from: EndpointId) -> io::Result<TcpStream> {
        let mut s = TcpStream::connect(addr.trim_start_matches("tcp:"))?;
        raw_send(&mut s, &encode_frame(&WireFrame::Hello { from }))?;
        Ok(s)
    }

    fn chunk_to(to: EndpointId, data: Vec<f32>) -> WireFrame {
        WireFrame::Msg {
            to,
            env: Envelope {
                id: elan_core::messages::MsgId(77),
                from: EndpointId::Worker(WorkerId(1)),
                attempt: 1,
                body: RtMsg::StateChunk {
                    kind: elan_core::messages::StateKind::Momentum,
                    iteration: 10,
                    data_cursor: 320,
                    index: 0,
                    total: 1,
                    offset: 0,
                    data: Arc::new(data),
                },
            },
        }
    }

    #[test]
    fn hub_relays_verified_bytes_and_drops_a_corrupt_sender() -> Result<(), String> {
        let hub = SocketTransport::listen("tcp:127.0.0.1:0").map_err(|e| e.to_string())?;
        let addr = hub.local_addr().to_string();
        let _hub_bus = Bus::with_transport(Arc::new(hub));
        let dst = EndpointId::Worker(WorkerId(2));
        let b = Bus::with_transport(Arc::new(
            SocketTransport::connect(&addr).map_err(|e| e.to_string())?,
        ));
        let rx = b.register(dst);
        let mut sender =
            raw_peer(&addr, EndpointId::Worker(WorkerId(1))).map_err(|e| e.to_string())?;

        // Relay: bit patterns the hub must not normalise on the way through.
        let data: Vec<f32> = [
            -0.0f32,
            f32::NEG_INFINITY,
            f32::from_bits(0x7FC0_BEEF),
            1e-42,
        ]
        .into_iter()
        .cycle()
        .take(4_099)
        .collect();
        let good = encode_frame(&chunk_to(dst, data.clone()));
        // `dst`'s Hello races the first relayed frame; resend until routed.
        let mut relayed = None;
        for _ in 0..200 {
            raw_send(&mut sender, &good).map_err(|e| e.to_string())?;
            if let Some(env) = rx.recv_timeout(Duration::from_millis(50)) {
                relayed = Some(env);
                break;
            }
        }
        while rx.recv_timeout(Duration::from_millis(100)).is_some() {}
        let env = relayed.ok_or("state chunk not relayed")?;
        let RtMsg::StateChunk { data: back, .. } = env.body else {
            return Err(format!("relayed as {:?}", env.body));
        };
        let bits = |xs: &[f32]| xs.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&back), bits(&data));

        // A Msg frame with one CRC byte flipped: the hub must drop the
        // sender's connection and relay nothing.
        let mut bad = encode_frame(&WireFrame::Msg {
            to: dst,
            env: Envelope {
                id: elan_core::messages::MsgId(78),
                from: EndpointId::Worker(WorkerId(1)),
                attempt: 1,
                body: RtMsg::Leave { term: 99 },
            },
        });
        let last = bad.len() - 1;
        bad[last] ^= 0x01;
        raw_send(&mut sender, &bad).map_err(|e| e.to_string())?;
        sender
            .set_read_timeout(Some(RECV_WINDOW))
            .map_err(|e| e.to_string())?;
        let mut byte = [0u8; 1];
        match sender.read(&mut byte) {
            Ok(0) => {}
            Err(e) if e.kind() == io::ErrorKind::ConnectionReset => {}
            other => return Err(format!("hub kept the corrupt sender: {other:?}")),
        }
        if let Some(env) = rx.recv_timeout(Duration::from_millis(300)) {
            return Err(format!("corrupt frame relayed: {:?}", env.body));
        }

        // The receiver's connection is untouched: a later valid frame
        // from a fresh sender still arrives.
        let mut sender2 =
            raw_peer(&addr, EndpointId::Worker(WorkerId(4))).map_err(|e| e.to_string())?;
        raw_send(&mut sender2, &encode_frame(&chunk_to(dst, vec![2.5])))
            .map_err(|e| e.to_string())?;
        let env = rx
            .recv_timeout(RECV_WINDOW)
            .ok_or("receiver lost its route")?;
        assert!(matches!(env.body, RtMsg::StateChunk { ref data, .. } if **data == [2.5]));
        Ok(())
    }

    #[test]
    fn tcp_control_round_trips_do_not_wait_on_delayed_acks() -> Result<(), String> {
        let hub = SocketTransport::listen("tcp:127.0.0.1:0").map_err(|e| e.to_string())?;
        let addr = hub.local_addr().to_string();
        let hub_bus = Bus::with_transport(Arc::new(hub));
        let client = SocketTransport::connect(&addr).map_err(|e| e.to_string())?;
        let uplink = client.shared.uplink.read().clone().ok_or("no uplink")?;
        let nodelay = match &*uplink.stream.lock() {
            Stream::Tcp(s) => s.nodelay().map_err(|e| e.to_string())?,
            Stream::Unix(_) => return Err("dialed a Unix-domain stream".into()),
        };
        assert!(nodelay, "dialed TCP stream has Nagle's algorithm on");
        let client_bus = Bus::with_transport(Arc::new(client));

        let am = hub_bus.register(EndpointId::Am);
        let me = EndpointId::Worker(WorkerId(0));
        let ep = client_bus.register(me);
        let echo = thread::spawn(move || {
            while let Some(env) = am.recv_timeout(RECV_WINDOW) {
                if matches!(env.body, RtMsg::Leave { .. }) {
                    break;
                }
                hub_bus.send(
                    me,
                    RtMsg::Proceed {
                        boundary: 5,
                        term: 0,
                    },
                );
            }
        });
        let coordinate = RtMsg::Coordinate {
            worker: WorkerId(0),
            iteration: 5,
        };
        // The first round trip also waits for the Hello frames to land.
        client_bus.send(EndpointId::Am, coordinate.clone());
        let warm = ep.recv_timeout(RECV_WINDOW).is_some();
        let clock = TimeSource::real();
        let mut done = 0;
        while warm && done < 50 {
            client_bus.send(EndpointId::Am, coordinate.clone());
            if ep.recv_timeout(RECV_WINDOW).is_none() {
                break;
            }
            done += 1;
        }
        let took_s = clock.now().as_secs_f64();
        client_bus.send(EndpointId::Am, RtMsg::Leave { term: 0 });
        let _ = echo.join();
        assert_eq!(done, 50, "round trips lost");
        assert!(took_s < 1.0, "50 Coordinate round trips took {took_s:.3} s");
        Ok(())
    }

    #[test]
    fn unknown_destination_is_a_dead_letter() -> Result<(), String> {
        let (hub, _client) = uds_pair("deadletter")?;
        let journal = Arc::new(EventJournal::new(16, Vec::new()));
        hub.attach(Some(Arc::clone(&journal)), TimeSource::real());
        let hub_bus = Bus::with_transport(Arc::new(hub));
        let to = EndpointId::Worker(WorkerId(9));
        assert!(!hub_bus.send(to, RtMsg::Leave { term: 0 }));
        assert_eq!(hub_bus.transport().total_dead_letters(), 1);
        assert_eq!(dead_letters_to(&journal), [to]);
        Ok(())
    }

    #[test]
    fn dropped_hub_frees_its_shared_state() -> Result<(), String> {
        let hub = SocketTransport::listen("tcp:127.0.0.1:0").map_err(|e| e.to_string())?;
        let shared = Arc::downgrade(&hub.shared);
        let addr = hub.local_addr().to_string();
        drop(hub);
        // The accept thread must not keep the routes, registry and journal
        // of a transport nobody can reach...
        assert!(shared.upgrade().is_none(), "accept thread pins the hub");
        // ...and it has exited and closed the listener: nobody answers.
        let refused = dial(&addr).map(|_| ()).map_err(|e| e.kind());
        assert_eq!(refused, Err(io::ErrorKind::ConnectionRefused));
        Ok(())
    }

    #[test]
    fn bad_address_scheme_is_rejected() {
        assert!(SocketTransport::listen("carrier-pigeon:coop").is_err());
        assert!(SocketTransport::connect("127.0.0.1:0").is_err());
    }
}
