//! The control-plane wire codec.
//!
//! The socket transport frames every control-plane [`Envelope`] onto
//! TCP/Unix-domain streams ([`encode_frame`]/[`decode_frame`]) in a
//! versioned, little-endian encoding with a CRC32 integrity trailer and
//! no external dependencies — hand-rolled rather than pulling a
//! serialization stack (see DESIGN.md's dependency policy).

use std::sync::Arc;

use crate::messages::{MsgId, StateKind};
use crate::protocol::{EndpointId, Envelope, EpochPhase, RtMsg};
use crate::state::WorkerId;

/// Magic bytes opening every frame.
const MAGIC: &[u8; 4] = b"ELAN";

/// The CRC32 (IEEE 802.3) generator polynomial, bit-reflected.
const CRC32_POLY: u32 = 0xEDB8_8320;

/// Slicing-by-8 CRC32 lookup tables, built at compile time.
/// `CRC32_TABLES[0]` is the classic byte-at-a-time table;
/// `CRC32_TABLES[k][b]` advances the CRC of byte `b` through `k` further
/// zero bytes, so eight table lookups consume eight input bytes at once
/// and give the same checksum.
const CRC32_TABLES: [[u32; 256]; 8] = {
    let mut tables = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 {
                CRC32_POLY ^ (c >> 1)
            } else {
                c >> 1
            };
            k += 1;
        }
        tables[0][i] = c;
        i += 1;
    }
    let mut t = 1;
    while t < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = tables[t - 1][i];
            tables[t][i] = (prev >> 8) ^ tables[0][(prev & 0xFF) as usize];
            i += 1;
        }
        t += 1;
    }
    tables
};

/// Product of two polynomials modulo the CRC polynomial, in the
/// reflected representation (bit 31 is `x^0`).
const fn gf2_mul_mod_p(a: u32, mut b: u32) -> u32 {
    let mut m = 1u32 << 31;
    let mut p = 0u32;
    while m != 0 {
        if a & m != 0 {
            p ^= b;
        }
        m >>= 1;
        b = if b & 1 != 0 {
            (b >> 1) ^ CRC32_POLY
        } else {
            b >> 1
        };
    }
    p
}

/// `X2N_MOD_P[k]` is `x^(2^k) mod P`, so `x^n` is the product of the
/// entries for the set bits of `n`. Squaring `x` 32 times gives `x` back
/// modulo this `P` (a unit test checks it), so the table repeats with
/// period 32.
const X2N_MOD_P: [u32; 32] = {
    let mut table = [0u32; 32];
    let mut p = 1u32 << 30; // x^1
    let mut k = 0;
    while k < 32 {
        table[k] = p;
        p = gf2_mul_mod_p(p, p);
        k += 1;
    }
    table
};

/// `x^(8·n) mod P`: the factor that shifts a CRC past `n` more bytes.
fn crc32_shift(n: usize) -> u32 {
    let mut p = 1u32 << 31; // x^0
    let mut rest = n;
    let mut k = 3; // 8·n = n·2^3
    while rest != 0 {
        if rest & 1 != 0 {
            p = gf2_mul_mod_p(X2N_MOD_P[k % 32], p);
        }
        rest >>= 1;
        k += 1;
    }
    p
}

/// `crc(A‖B)` from `crc(A)`, `crc(B)` and `shift = crc32_shift(|B|)`:
/// `crc(A)·x^(8·|B|) mod P ⊕ crc(B)`. The CRC's pre- and post-inversion
/// cancel out, so the identity holds on finished checksums.
fn crc32_combine(crc_a: u32, crc_b: u32, shift: u32) -> u32 {
    gf2_mul_mod_p(shift, crc_a) ^ crc_b
}

/// Advances a CRC register (not yet inverted) by eight bytes.
#[inline(always)]
fn crc32_step8(c: u32, w: &[u8]) -> u32 {
    let t = &CRC32_TABLES;
    let lo = u32::from_le_bytes([w[0], w[1], w[2], w[3]]) ^ c;
    let hi = u32::from_le_bytes([w[4], w[5], w[6], w[7]]);
    t[7][(lo & 0xFF) as usize]
        ^ t[6][((lo >> 8) & 0xFF) as usize]
        ^ t[5][((lo >> 16) & 0xFF) as usize]
        ^ t[4][(lo >> 24) as usize]
        ^ t[3][(hi & 0xFF) as usize]
        ^ t[2][((hi >> 8) & 0xFF) as usize]
        ^ t[1][((hi >> 16) & 0xFF) as usize]
        ^ t[0][(hi >> 24) as usize]
}

/// Advances a CRC register over `bytes` on one dependency chain:
/// eight bytes per step, then byte-at-a-time over the tail.
fn crc32_update(mut c: u32, bytes: &[u8]) -> u32 {
    let mut words = bytes.chunks_exact(8);
    for w in &mut words {
        c = crc32_step8(c, w);
    }
    for &b in words.remainder() {
        c = CRC32_TABLES[0][((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
    }
    c
}

/// Shortest input the four-lane path takes. Below it the lane set-up
/// (the shift factor and three combines) costs more than the overlap
/// saves: on a 2-vCPU Xeon VM the two paths break even at 512–640 B and
/// the lanes win by ~25% at 1 KiB. Control frames are tens of bytes and
/// stay on the single chain.
const LANE_CUTOFF: usize = 1024;

/// CRC32 (IEEE) of `bytes` — the integrity checksum carried in every
/// frame's 4-byte little-endian trailer.
///
/// Inputs shorter than [`LANE_CUTOFF`] run the single chain inline;
/// longer ones take [`crc32_lanes`]. Both paths give the same checksum.
#[inline]
pub(crate) fn crc32(bytes: &[u8]) -> u32 {
    if bytes.len() < LANE_CUTOFF {
        !crc32_update(!0, bytes)
    } else {
        crc32_lanes(bytes)
    }
}

/// The four-lane CRC32 of `bytes`: four equal lanes, each a multiple of
/// eight bytes long, whose slicing-by-8 chains run in one loop, so their
/// table lookups overlap instead of each step waiting on the one before.
/// The lane checksums are folded with [`crc32_combine`] and the tail
/// (under 32 bytes) finishes on the single chain. Kept out of line so
/// the short-input path of [`crc32`] inlines into its callers.
#[inline(never)]
fn crc32_lanes(bytes: &[u8]) -> u32 {
    let lane = bytes.len() / 32 * 8;
    let (lanes, tail) = bytes.split_at(4 * lane);
    let (l0, rest) = lanes.split_at(lane);
    let (l1, rest) = rest.split_at(lane);
    let (l2, l3) = rest.split_at(lane);
    let mut c = [!0u32; 4];
    let words = l0
        .chunks_exact(8)
        .zip(l1.chunks_exact(8))
        .zip(l2.chunks_exact(8))
        .zip(l3.chunks_exact(8));
    for (((w0, w1), w2), w3) in words {
        c[0] = crc32_step8(c[0], w0);
        c[1] = crc32_step8(c[1], w1);
        c[2] = crc32_step8(c[2], w2);
        c[3] = crc32_step8(c[3], w3);
    }
    let shift = crc32_shift(lane);
    let crc = c[1..]
        .iter()
        .fold(!c[0], |crc, &ci| crc32_combine(crc, !ci, shift));
    !crc32_update(!crc, tail)
}

/// Errors from decoding a wire frame.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DecodeError {
    /// The buffer is shorter than the encoding requires.
    Truncated,
    /// The magic bytes are wrong — not an Elan frame.
    BadMagic,
    /// The format version is unsupported.
    UnsupportedVersion(u16),
    /// The CRC32 trailer does not match the body — bit rot, a torn
    /// write, or tampering.
    Corrupt {
        /// CRC32 recorded in the trailer.
        expected: u32,
        /// CRC32 computed over the received body.
        actual: u32,
    },
    /// A wire frame carries an enum tag this decoder does not know —
    /// a newer peer, or an encoder bug (the CRC already passed).
    UnknownTag(u8),
    /// A CRC-valid wire frame decoded cleanly but left bytes behind —
    /// an encoder/decoder schema mismatch, not line noise.
    TrailingBytes(usize),
}

impl std::fmt::Display for DecodeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DecodeError::Truncated => write!(f, "frame truncated"),
            DecodeError::BadMagic => write!(f, "not an Elan frame"),
            DecodeError::UnsupportedVersion(v) => write!(f, "unsupported wire version {v}"),
            DecodeError::Corrupt { expected, actual } => write!(
                f,
                "frame corrupt: trailer crc32 {expected:#010x}, body crc32 {actual:#010x}"
            ),
            DecodeError::UnknownTag(t) => write!(f, "unknown wire tag {t:#04x}"),
            DecodeError::TrailingBytes(n) => write!(f, "frame has {n} trailing bytes"),
        }
    }
}

impl std::error::Error for DecodeError {}

struct Writer {
    buf: Vec<u8>,
}

impl Writer {
    fn with_capacity(n: usize) -> Self {
        Writer {
            buf: Vec::with_capacity(n),
        }
    }
    fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }
    fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }
    fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }
    /// Appends `xs` as little-endian `f32`s: one resize, then a straight
    /// copy loop the compiler vectorises.
    fn f32s(&mut self, xs: &[f32]) {
        let start = self.buf.len();
        self.buf.resize(start + xs.len() * 4, 0);
        for (dst, x) in self.buf[start..].chunks_exact_mut(4).zip(xs) {
            dst.copy_from_slice(&x.to_le_bytes());
        }
    }
}

struct Reader<'a> {
    buf: &'a [u8],
    at: usize,
}

impl<'a> Reader<'a> {
    fn new(buf: &'a [u8]) -> Self {
        Reader { buf, at: 0 }
    }
    fn remaining(&self) -> usize {
        self.buf.len() - self.at
    }
    fn u8(&mut self) -> Result<u8, DecodeError> {
        Ok(self.take(1)?[0])
    }
    fn take(&mut self, n: usize) -> Result<&'a [u8], DecodeError> {
        if self.at + n > self.buf.len() {
            return Err(DecodeError::Truncated);
        }
        let s = &self.buf[self.at..self.at + n];
        self.at += n;
        Ok(s)
    }
    fn u32(&mut self) -> Result<u32, DecodeError> {
        let b = self
            .take(4)?
            .try_into()
            .map_err(|_| DecodeError::Truncated)?;
        Ok(u32::from_le_bytes(b))
    }
    fn u64(&mut self) -> Result<u64, DecodeError> {
        let b = self
            .take(8)?
            .try_into()
            .map_err(|_| DecodeError::Truncated)?;
        Ok(u64::from_le_bytes(b))
    }
    /// Reads `n` little-endian `f32`s. The caller has already bounded
    /// `n` by [`Reader::remaining`], so the allocation is what the
    /// buffer holds.
    fn f32s(&mut self, n: usize) -> Result<Vec<f32>, DecodeError> {
        let bytes = self.take(n * 4)?;
        let mut out = vec![0f32; n];
        for (x, b) in out.iter_mut().zip(bytes.chunks_exact(4)) {
            *x = f32::from_le_bytes([b[0], b[1], b[2], b[3]]);
        }
        Ok(out)
    }
}

// ---------------------------------------------------------------------------
// Control-plane wire frames (socket transport)
// ---------------------------------------------------------------------------

/// Wire format version of control-plane frames.
pub const WIRE_VERSION: u8 = 1;

/// Upper bound on one frame's encoded size (length prefix included):
/// large enough for a `StateChunk` carrying far more elements than any
/// configured `replication_chunk_elems`, small enough that a corrupted
/// length prefix cannot make a reader allocate gigabytes.
pub const MAX_FRAME_LEN: usize = 16 * 1024 * 1024;

/// One frame on a transport stream.
///
/// Framing on the wire is `u32` little-endian length, then the frame:
/// `MAGIC (4) | WIRE_VERSION (1) | kind (1) | body | crc32 (4, LE)`,
/// with the CRC computed over everything before it. The socket layer
/// owns the length prefix; [`encode_frame`]/[`decode_frame`] handle the
/// frame proper.
#[derive(Debug, Clone)]
pub enum WireFrame {
    /// First frame on every connection: the peer announces which
    /// endpoint it is. Re-sent on reconnect, which is what remaps the
    /// endpoint to the new stream.
    Hello {
        /// The connecting endpoint.
        from: EndpointId,
    },
    /// A routed protocol envelope.
    Msg {
        /// Destination endpoint.
        to: EndpointId,
        /// The envelope, verbatim — MsgId, sender, attempt and all, so
        /// reliable-layer resend/dedup semantics cross the wire intact.
        env: Envelope,
    },
}

const FRAME_HELLO: u8 = 0;
const FRAME_MSG: u8 = 1;

fn write_endpoint(w: &mut Writer, id: EndpointId) {
    match id {
        EndpointId::Am => w.u8(0),
        EndpointId::Controller => w.u8(1),
        EndpointId::Worker(wid) => {
            w.u8(2);
            w.u32(wid.0);
        }
    }
}

fn read_endpoint(r: &mut Reader<'_>) -> Result<EndpointId, DecodeError> {
    match r.u8()? {
        0 => Ok(EndpointId::Am),
        1 => Ok(EndpointId::Controller),
        2 => Ok(EndpointId::Worker(WorkerId(r.u32()?))),
        t => Err(DecodeError::UnknownTag(t)),
    }
}

/// Wire tags for [`RtMsg`] variants, in declaration order. Append-only:
/// a new variant takes the next free tag, existing tags never move.
fn write_msg(w: &mut Writer, msg: &RtMsg) {
    match msg {
        RtMsg::Report { worker } => {
            w.u8(0);
            w.u32(worker.0);
        }
        RtMsg::Coordinate { worker, iteration } => {
            w.u8(1);
            w.u32(worker.0);
            w.u64(*iteration);
        }
        RtMsg::Proceed { boundary, term } => {
            w.u8(2);
            w.u64(*boundary);
            w.u64(*term);
        }
        RtMsg::TransferOrder { dst, term } => {
            w.u8(3);
            w.u32(dst.0);
            w.u64(*term);
        }
        RtMsg::TransferDone { src, dst } => {
            w.u8(4);
            w.u32(src.0);
            w.u32(dst.0);
        }
        RtMsg::StateChunk {
            kind,
            iteration,
            data_cursor,
            index,
            total,
            offset,
            data,
        } => {
            w.u8(5);
            w.u8(match kind {
                StateKind::Params => 0,
                StateKind::Momentum => 1,
            });
            w.u64(*iteration);
            w.u64(*data_cursor);
            w.u32(*index);
            w.u32(*total);
            w.u64(*offset);
            w.u32(data.len() as u32);
            w.f32s(data);
        }
        RtMsg::Resume { generation, term } => {
            w.u8(6);
            w.u64(*generation);
            w.u64(*term);
        }
        RtMsg::Leave { term } => {
            w.u8(7);
            w.u64(*term);
        }
        RtMsg::AdjustTo { seq, target } => {
            w.u8(8);
            w.u64(*seq);
            w.u32(target.len() as u32);
            for wid in target {
                w.u32(wid.0);
            }
        }
        RtMsg::Stop { seq } => {
            w.u8(9);
            w.u64(*seq);
        }
        RtMsg::Checkpoint { seq } => {
            w.u8(10);
            w.u64(*seq);
        }
        RtMsg::CheckpointOrder { seq, term } => {
            w.u8(11);
            w.u64(*seq);
            w.u64(*term);
        }
        RtMsg::Ack { seq } => {
            w.u8(12);
            w.u64(*seq);
        }
        RtMsg::MsgAck { of } => {
            w.u8(13);
            w.u64(of.0);
        }
        RtMsg::Heartbeat { worker, iteration } => {
            w.u8(14);
            w.u32(worker.0);
            w.u64(*iteration);
        }
        RtMsg::AmReset { epoch, term } => {
            w.u8(15);
            w.u64(*epoch);
            w.u64(*term);
        }
        RtMsg::Rejoin {
            worker,
            term,
            iteration,
        } => {
            w.u8(16);
            w.u32(worker.0);
            w.u64(*term);
            w.u64(*iteration);
        }
        RtMsg::JoinRequest {
            worker,
            epoch,
            digest,
        } => {
            w.u8(17);
            w.u32(worker.0);
            w.u64(*epoch);
            match digest {
                None => w.u8(0),
                Some(d) => {
                    w.u8(1);
                    w.u64(*d);
                }
            }
        }
        RtMsg::EpochAdvance { epoch, phase, term } => {
            w.u8(18);
            w.u64(*epoch);
            w.u8(epoch_phase_code(*phase));
            w.u64(*term);
        }
        RtMsg::WitnessQuery {
            subject,
            epoch,
            probe,
            term,
        } => {
            w.u8(19);
            w.u32(subject.0);
            w.u64(*epoch);
            w.u64(*probe);
            w.u64(*term);
        }
        RtMsg::WitnessVote {
            witness,
            subject,
            epoch,
            admit,
            digest,
        } => {
            w.u8(20);
            w.u32(witness.0);
            w.u32(subject.0);
            w.u64(*epoch);
            w.u8(u8::from(*admit));
            w.u64(*digest);
        }
        RtMsg::Park { boundary, term } => {
            w.u8(21);
            w.u64(*boundary);
            w.u64(*term);
        }
        RtMsg::Passed { worker, boundary } => {
            w.u8(22);
            w.u32(worker.0);
            w.u64(*boundary);
        }
    }
}

fn epoch_phase_code(phase: EpochPhase) -> u8 {
    match phase {
        EpochPhase::WaitingForMembers => 0,
        EpochPhase::Warmup => 1,
        EpochPhase::Train => 2,
        EpochPhase::Cooldown => 3,
    }
}

fn read_epoch_phase(r: &mut Reader<'_>) -> Result<EpochPhase, DecodeError> {
    match r.u8()? {
        0 => Ok(EpochPhase::WaitingForMembers),
        1 => Ok(EpochPhase::Warmup),
        2 => Ok(EpochPhase::Train),
        3 => Ok(EpochPhase::Cooldown),
        t => Err(DecodeError::UnknownTag(t)),
    }
}

fn read_msg(r: &mut Reader<'_>) -> Result<RtMsg, DecodeError> {
    Ok(match r.u8()? {
        0 => RtMsg::Report {
            worker: WorkerId(r.u32()?),
        },
        1 => RtMsg::Coordinate {
            worker: WorkerId(r.u32()?),
            iteration: r.u64()?,
        },
        2 => RtMsg::Proceed {
            boundary: r.u64()?,
            term: r.u64()?,
        },
        3 => RtMsg::TransferOrder {
            dst: WorkerId(r.u32()?),
            term: r.u64()?,
        },
        4 => RtMsg::TransferDone {
            src: WorkerId(r.u32()?),
            dst: WorkerId(r.u32()?),
        },
        5 => {
            let kind = match r.u8()? {
                0 => StateKind::Params,
                1 => StateKind::Momentum,
                t => return Err(DecodeError::UnknownTag(t)),
            };
            let iteration = r.u64()?;
            let data_cursor = r.u64()?;
            let index = r.u32()?;
            let total = r.u32()?;
            let offset = r.u64()?;
            let n = r.u32()? as usize;
            // The CRC has already vetted the frame, so `n` is what the
            // encoder wrote — but bound the allocation by what the
            // buffer can actually hold before trusting it.
            if n * 4 > r.remaining() {
                return Err(DecodeError::Truncated);
            }
            let data = r.f32s(n)?;
            RtMsg::StateChunk {
                kind,
                iteration,
                data_cursor,
                index,
                total,
                offset,
                data: Arc::new(data),
            }
        }
        6 => RtMsg::Resume {
            generation: r.u64()?,
            term: r.u64()?,
        },
        7 => RtMsg::Leave { term: r.u64()? },
        8 => {
            let seq = r.u64()?;
            let n = r.u32()? as usize;
            if n * 4 > r.remaining() {
                return Err(DecodeError::Truncated);
            }
            let mut target = Vec::with_capacity(n);
            for _ in 0..n {
                target.push(WorkerId(r.u32()?));
            }
            RtMsg::AdjustTo { seq, target }
        }
        9 => RtMsg::Stop { seq: r.u64()? },
        10 => RtMsg::Checkpoint { seq: r.u64()? },
        11 => RtMsg::CheckpointOrder {
            seq: r.u64()?,
            term: r.u64()?,
        },
        12 => RtMsg::Ack { seq: r.u64()? },
        13 => RtMsg::MsgAck {
            of: MsgId(r.u64()?),
        },
        14 => RtMsg::Heartbeat {
            worker: WorkerId(r.u32()?),
            iteration: r.u64()?,
        },
        15 => RtMsg::AmReset {
            epoch: r.u64()?,
            term: r.u64()?,
        },
        16 => RtMsg::Rejoin {
            worker: WorkerId(r.u32()?),
            term: r.u64()?,
            iteration: r.u64()?,
        },
        17 => {
            let worker = WorkerId(r.u32()?);
            let epoch = r.u64()?;
            let digest = match r.u8()? {
                0 => None,
                1 => Some(r.u64()?),
                t => return Err(DecodeError::UnknownTag(t)),
            };
            RtMsg::JoinRequest {
                worker,
                epoch,
                digest,
            }
        }
        18 => RtMsg::EpochAdvance {
            epoch: r.u64()?,
            phase: read_epoch_phase(r)?,
            term: r.u64()?,
        },
        19 => RtMsg::WitnessQuery {
            subject: WorkerId(r.u32()?),
            epoch: r.u64()?,
            probe: r.u64()?,
            term: r.u64()?,
        },
        20 => RtMsg::WitnessVote {
            witness: WorkerId(r.u32()?),
            subject: WorkerId(r.u32()?),
            epoch: r.u64()?,
            admit: r.u8()? != 0,
            digest: r.u64()?,
        },
        21 => RtMsg::Park {
            boundary: r.u64()?,
            term: r.u64()?,
        },
        22 => RtMsg::Passed {
            worker: WorkerId(r.u32()?),
            boundary: r.u64()?,
        },
        t => return Err(DecodeError::UnknownTag(t)),
    })
}

/// Bytes a frame's fixed fields can take: header, endpoints, envelope
/// header, the largest fixed `RtMsg` body and the CRC trailer, rounded
/// up. Only the variable-length payloads are added on top. The slack
/// also covers the 4-byte length prefix a stream transport inserts in
/// front, so that insert needs no second allocation.
const FIXED_FIELDS_BOUND: usize = 96;

/// An upper bound on `encode_frame(frame).len()`, so the encoder
/// allocates its buffer once.
fn encoded_len_bound(frame: &WireFrame) -> usize {
    let elems = match frame {
        WireFrame::Msg { env, .. } => match &env.body {
            RtMsg::StateChunk { data, .. } => data.len(),
            RtMsg::AdjustTo { target, .. } => target.len(),
            _ => 0,
        },
        WireFrame::Hello { .. } => 0,
    };
    FIXED_FIELDS_BOUND + 4 * elems
}

/// Encodes one control-plane frame (without the stream's length prefix).
///
/// # Examples
///
/// ```
/// use elan_core::codec::{decode_frame, encode_frame, WireFrame};
/// use elan_core::protocol::EndpointId;
/// use elan_core::state::WorkerId;
///
/// let frame = WireFrame::Hello { from: EndpointId::Worker(WorkerId(3)) };
/// let bytes = encode_frame(&frame);
/// assert!(matches!(
///     decode_frame(&bytes)?,
///     WireFrame::Hello { from: EndpointId::Worker(WorkerId(3)) }
/// ));
/// # Ok::<(), elan_core::codec::DecodeError>(())
/// ```
pub fn encode_frame(frame: &WireFrame) -> Vec<u8> {
    let mut w = Writer::with_capacity(encoded_len_bound(frame));
    w.buf.extend_from_slice(MAGIC);
    w.u8(WIRE_VERSION);
    match frame {
        WireFrame::Hello { from } => {
            w.u8(FRAME_HELLO);
            write_endpoint(&mut w, *from);
        }
        WireFrame::Msg { to, env } => {
            w.u8(FRAME_MSG);
            write_endpoint(&mut w, *to);
            w.u64(env.id.0);
            write_endpoint(&mut w, env.from);
            w.u32(env.attempt);
            write_msg(&mut w, &env.body);
        }
    }
    let crc = crc32(&w.buf);
    w.u32(crc);
    w.buf
}

/// Decodes one control-plane frame. The CRC trailer is verified before
/// any field is trusted, so a flipped bit anywhere in the frame fails
/// here rather than mis-decoding.
///
/// # Errors
///
/// Returns [`DecodeError`] for truncated, foreign, future-versioned,
/// checksum-failing, or unknown-tag frames.
pub fn decode_frame(bytes: &[u8]) -> Result<WireFrame, DecodeError> {
    // magic + version + kind + crc is the minimum credible frame.
    if bytes.len() < MAGIC.len() + 2 + 4 {
        return Err(DecodeError::Truncated);
    }
    if &bytes[..MAGIC.len()] != MAGIC {
        return Err(DecodeError::BadMagic);
    }
    let (body, trailer) = bytes.split_at(bytes.len() - 4);
    let trailer: [u8; 4] = trailer.try_into().map_err(|_| DecodeError::Truncated)?;
    let expected = u32::from_le_bytes(trailer);
    let actual = crc32(body);
    if actual != expected {
        return Err(DecodeError::Corrupt { expected, actual });
    }
    let mut r = Reader::new(body);
    let _ = r.take(MAGIC.len())?; // magic — validated above
    let version = r.u8()?;
    if version != WIRE_VERSION {
        return Err(DecodeError::UnsupportedVersion(version as u16));
    }
    let frame = match r.u8()? {
        FRAME_HELLO => WireFrame::Hello {
            from: read_endpoint(&mut r)?,
        },
        FRAME_MSG => {
            let to = read_endpoint(&mut r)?;
            let id = MsgId(r.u64()?);
            let from = read_endpoint(&mut r)?;
            let attempt = r.u32()?;
            let body = read_msg(&mut r)?;
            WireFrame::Msg {
                to,
                env: Envelope {
                    id,
                    from,
                    attempt,
                    body,
                },
            }
        }
        t => return Err(DecodeError::UnknownTag(t)),
    };
    if r.remaining() != 0 {
        return Err(DecodeError::TrailingBytes(r.remaining()));
    }
    Ok(frame)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crc32_matches_known_vector() {
        // The classic IEEE test vector.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    /// The byte-at-a-time CRC: the oracle that pins every checksum (and
    /// so every frame) byte-identical across kernel changes.
    fn crc32_bytewise(bytes: &[u8]) -> u32 {
        let mut c = 0xFFFF_FFFFu32;
        for &b in bytes {
            c = CRC32_TABLES[0][((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
        }
        !c
    }

    /// `n` bytes from a fixed-seed xorshift stream.
    fn seeded_bytes(n: usize) -> Vec<u8> {
        let mut x = 0x9E37_79B9_7F4A_7C15u64;
        (0..n)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                (x >> 56) as u8
            })
            .collect()
    }

    #[test]
    fn sliced_crc32_matches_bytewise_oracle() {
        // Every short length, the lengths either side of the lane cutoff,
        // and the lengths within 7 bytes of a 32-byte lane stripe (four
        // lanes of 8) well past it, each at all eight start offsets.
        let mut lens: Vec<usize> = (0..=64).collect();
        lens.extend([LANE_CUTOFF - 1, LANE_CUTOFF, LANE_CUTOFF + 1]);
        for stripe in [LANE_CUTOFF, LANE_CUTOFF + 32, 4096, 65_536] {
            lens.extend((stripe - 7..=stripe + 7).filter(|&l| l != stripe));
            lens.push(stripe);
        }
        let buf = seeded_bytes(65_536 + 7 + 8);
        for start in 0..8 {
            for &len in &lens {
                let s = &buf[start..start + len];
                assert_eq!(crc32(s), crc32_bytewise(s), "start {start} len {len}");
            }
        }
        let big = seeded_bytes(256 * 1024);
        assert_eq!(crc32(&big), crc32_bytewise(&big));
    }

    #[test]
    fn shift_table_repeats_with_period_32() {
        // `crc32_shift` indexes `X2N_MOD_P` modulo 32; that is sound only
        // if squaring the last entry lands back on `x`.
        assert_eq!(gf2_mul_mod_p(X2N_MOD_P[31], X2N_MOD_P[31]), X2N_MOD_P[0]);
        assert_eq!(crc32_shift(0), 1 << 31);
    }

    #[test]
    fn crc32_combine_joins_random_splits() {
        let buf = seeded_bytes(8 * 1024);
        let mut x = 0x2545_F491_4F6C_DD1Du64;
        let mut next = |bound: usize| {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            (x % bound as u64) as usize
        };
        for _ in 0..256 {
            let len = next(buf.len() + 1);
            let start = next(buf.len() - len + 1);
            let whole = &buf[start..start + len];
            let (a, b) = whole.split_at(next(len + 1));
            let joined = crc32_combine(crc32_bytewise(a), crc32_bytewise(b), crc32_shift(b.len()));
            assert_eq!(
                joined,
                crc32_bytewise(whole),
                "|A| {} |B| {}",
                a.len(),
                b.len()
            );
        }
    }

    proptest::proptest! {
        /// Random lengths up to 300 KiB at random offsets: the lane
        /// kernel, the cutoff and the tail agree with the oracle.
        #[test]
        fn crc32_matches_oracle_at_random_lengths(
            len in 0usize..300 * 1024,
            start in 0usize..64,
        ) {
            let buf = seeded_bytes(start + len);
            let s = &buf[start..];
            proptest::prop_assert_eq!(crc32(s), crc32_bytewise(s));
        }
    }

    #[test]
    fn state_chunk_payload_roundtrips_bit_exactly() {
        let specials = [
            -0.0f32,
            0.0,
            f32::INFINITY,
            f32::NEG_INFINITY,
            f32::from_bits(0x0000_0001), // smallest positive subnormal
            f32::from_bits(0x807F_FFFF), // largest negative subnormal
            f32::from_bits(0x7FC0_1234), // quiet NaN, non-default payload
            f32::from_bits(0xFFC0_0042), // negative quiet NaN
            f32::from_bits(0x7F80_0001), // signalling NaN
            f32::from_bits(0xFFA5_A5A5), // negative signalling NaN
            f32::MIN_POSITIVE,
            f32::MAX,
            -1.5,
        ];
        for len in [0usize, 1, 7, 65_536] {
            let data: Vec<f32> = (0..len)
                .map(|i| {
                    if i % 3 == 0 {
                        specials[(i / 3) % specials.len()]
                    } else {
                        i as f32 * -0.37
                    }
                })
                .collect();
            let frame = WireFrame::Msg {
                to: EndpointId::Worker(WorkerId(3)),
                env: Envelope {
                    id: MsgId(9),
                    from: EndpointId::Worker(WorkerId(0)),
                    attempt: 1,
                    body: RtMsg::StateChunk {
                        kind: StateKind::Params,
                        iteration: 5,
                        data_cursor: 640,
                        index: 0,
                        total: 1,
                        offset: 0,
                        data: Arc::new(data.clone()),
                    },
                },
            };
            let bytes = encode_frame(&frame);
            assert!(bytes.len() + 4 <= encoded_len_bound(&frame));
            let Ok(WireFrame::Msg { env, .. }) = decode_frame(&bytes) else {
                panic!("len {len}: chunk frame did not decode");
            };
            let RtMsg::StateChunk { data: back, .. } = env.body else {
                panic!("len {len}: decoded to {:?}", env.body);
            };
            let bits = |xs: &[f32]| xs.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&back), bits(&data), "len {len}");
        }
    }

    // -- control-plane wire frames ---------------------------------------

    /// One envelope per `RtMsg` variant, so tag coverage is exhaustive:
    /// a new variant without a wire tag fails `sample_frames` at compile
    /// time (non-exhaustive match in `write_msg`) and a mis-tagged one
    /// fails the roundtrip below.
    fn sample_bodies() -> Vec<RtMsg> {
        vec![
            RtMsg::Report {
                worker: WorkerId(7),
            },
            RtMsg::Coordinate {
                worker: WorkerId(2),
                iteration: 41,
            },
            RtMsg::Proceed {
                boundary: 45,
                term: 3,
            },
            RtMsg::TransferOrder {
                dst: WorkerId(9),
                term: 3,
            },
            RtMsg::TransferDone {
                src: WorkerId(1),
                dst: WorkerId(9),
            },
            RtMsg::StateChunk {
                kind: StateKind::Momentum,
                iteration: 45,
                data_cursor: 5_760,
                index: 1,
                total: 4,
                offset: 256,
                data: Arc::new(vec![0.25, -1.5, 3.75]),
            },
            RtMsg::Resume {
                generation: 2,
                term: 3,
            },
            RtMsg::Leave { term: 3 },
            RtMsg::AdjustTo {
                seq: 11,
                target: vec![WorkerId(0), WorkerId(1), WorkerId(9)],
            },
            RtMsg::Stop { seq: 12 },
            RtMsg::Checkpoint { seq: 13 },
            RtMsg::CheckpointOrder { seq: 13, term: 3 },
            RtMsg::Ack { seq: 13 },
            RtMsg::MsgAck {
                of: MsgId((16 << 32) | 42),
            },
            RtMsg::Heartbeat {
                worker: WorkerId(2),
                iteration: 44,
            },
            RtMsg::AmReset { epoch: 1, term: 4 },
            RtMsg::Rejoin {
                worker: WorkerId(9),
                term: 3,
                iteration: 40,
            },
            RtMsg::Park {
                boundary: 50,
                term: 4,
            },
            RtMsg::Passed {
                worker: WorkerId(2),
                boundary: 45,
            },
        ]
    }

    fn sample_frames() -> Vec<WireFrame> {
        let mut frames = vec![
            WireFrame::Hello {
                from: EndpointId::Worker(WorkerId(3)),
            },
            WireFrame::Hello {
                from: EndpointId::Am,
            },
            WireFrame::Hello {
                from: EndpointId::Controller,
            },
        ];
        for (i, body) in sample_bodies().into_iter().enumerate() {
            frames.push(WireFrame::Msg {
                to: EndpointId::Am,
                env: Envelope {
                    id: MsgId((17 << 32) | i as u64),
                    from: EndpointId::Worker(WorkerId(1)),
                    attempt: 1 + (i as u32 % 3),
                    body,
                },
            });
        }
        frames
    }

    #[test]
    fn frame_roundtrip_covers_every_message_variant() {
        // `Envelope` carries `Arc<Vec<f32>>`, so compare debug renderings
        // (exact for every field, including float payloads).
        for frame in sample_frames() {
            let bytes = encode_frame(&frame);
            let back = decode_frame(&bytes).unwrap();
            assert_eq!(format!("{back:?}"), format!("{frame:?}"));
        }
    }

    #[test]
    fn frames_are_versioned_and_bounded() {
        for frame in sample_frames() {
            let bytes = encode_frame(&frame);
            assert_eq!(&bytes[..4], MAGIC);
            assert_eq!(bytes[4], WIRE_VERSION);
            assert!(bytes.len() <= MAX_FRAME_LEN);
            assert!(bytes.len() + 4 <= encoded_len_bound(&frame), "{frame:?}");
        }
    }

    #[test]
    fn every_single_byte_frame_corruption_is_detected() {
        for frame in sample_frames() {
            let good = encode_frame(&frame);
            for at in 0..good.len() {
                let mut bytes = good.clone();
                bytes[at] ^= 0x40;
                // Must error — never panic, never mis-decode. Magic damage
                // is caught structurally; everything else by the CRC.
                let err = decode_frame(&bytes).expect_err("corrupt frame decoded");
                assert!(
                    matches!(err, DecodeError::BadMagic | DecodeError::Corrupt { .. }),
                    "flip at {at}: {err:?}"
                );
            }
        }
    }

    #[test]
    fn frame_truncation_is_detected_at_every_length() {
        for frame in sample_frames() {
            let bytes = encode_frame(&frame);
            for cut in 0..bytes.len() {
                let err = decode_frame(&bytes[..cut]).expect_err("truncated frame decoded");
                assert!(
                    matches!(err, DecodeError::Truncated | DecodeError::Corrupt { .. }),
                    "cut at {cut}: {err:?}"
                );
            }
        }
    }

    /// Re-stamps a hand-mutated frame with a valid CRC, so tests can reach
    /// the post-CRC decode paths (unknown tags, trailing bytes).
    fn restamp(mut bytes: Vec<u8>) -> Vec<u8> {
        let body_len = bytes.len() - 4;
        let crc = crc32(&bytes[..body_len]);
        bytes[body_len..].copy_from_slice(&crc.to_le_bytes());
        bytes
    }

    #[test]
    fn unknown_frame_kind_is_rejected_not_guessed() {
        let mut bytes = encode_frame(&WireFrame::Hello {
            from: EndpointId::Am,
        });
        bytes[5] = 0xEE; // frame-kind byte
        assert_eq!(
            decode_frame(&restamp(bytes)).expect_err("unknown kind decoded"),
            DecodeError::UnknownTag(0xEE)
        );
    }

    #[test]
    fn future_wire_version_is_rejected() {
        let mut bytes = encode_frame(&WireFrame::Hello {
            from: EndpointId::Am,
        });
        bytes[4] = WIRE_VERSION + 1;
        assert_eq!(
            decode_frame(&restamp(bytes)).expect_err("future version decoded"),
            DecodeError::UnsupportedVersion((WIRE_VERSION + 1) as u16)
        );
    }

    #[test]
    fn crc_valid_trailing_bytes_are_rejected() {
        let mut bytes = encode_frame(&WireFrame::Hello {
            from: EndpointId::Am,
        });
        let crc_at = bytes.len() - 4;
        bytes.insert(crc_at, 0x00); // extra byte inside the CRC'd region
        assert_eq!(
            decode_frame(&restamp(bytes)).expect_err("trailing bytes decoded"),
            DecodeError::TrailingBytes(1)
        );
    }

    #[test]
    fn oversized_chunk_length_cannot_overallocate() {
        // A frame whose StateChunk length field claims far more elements
        // than the buffer holds must fail cleanly (post-CRC, the length
        // is still bounded by the actual remaining bytes).
        let frame = WireFrame::Msg {
            to: EndpointId::Am,
            env: Envelope {
                id: MsgId(1),
                from: EndpointId::Worker(WorkerId(0)),
                attempt: 1,
                body: RtMsg::StateChunk {
                    kind: StateKind::Params,
                    iteration: 1,
                    data_cursor: 0,
                    index: 0,
                    total: 1,
                    offset: 0,
                    data: Arc::new(vec![1.0, 2.0]),
                },
            },
        };
        let good = encode_frame(&frame);
        // The element-count u32 sits 12 bytes before the payload start:
        // locate it as (len - trailer 4 - payload 8 - count 4).
        let count_at = good.len() - 4 - 8 - 4;
        let mut bytes = good.clone();
        bytes[count_at..count_at + 4].copy_from_slice(&u32::MAX.to_le_bytes());
        assert_eq!(
            decode_frame(&restamp(bytes)).expect_err("oversized length decoded"),
            DecodeError::Truncated
        );
    }
}
