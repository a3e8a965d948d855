//! Golden-frame corpus: pins the exact on-wire bytes of every
//! control-plane frame kind and `RtMsg` variant against committed
//! `.bin` files in `tests/golden_frames/`.
//!
//! Together with the compiler this is the wire format's one oracle. The
//! codec generates its encoder and decoder from one wire table
//! (`wire_msgs!` in `elan-core/src/codec.rs`), and the build rejects a
//! tag given to two rows or a variant listed twice. Everything else a
//! peer built from an older commit depends on is a byte of some
//! committed frame: every tag, the frame kinds, the magic, the version,
//! endianness, field order and CRC. `corpus_matches_committed_bytes`
//! proves the encoder still produces, and the decoder still accepts,
//! exactly those bytes, and rejects a `.bin` no entry produces, so a
//! removed variant cannot pass. `every_variant_has_a_corpus_entry` keeps
//! the corpus complete, so appending a variant means appending an entry.
//! `max_frame_len_is_pinned` pins the one framing limit no frame carries,
//! and `mutated_golden_frames_decode_soundly` drives the decoder with
//! every one-byte change and truncation of every committed frame. Any
//! intentional wire change must regenerate the corpus, which makes the
//! diff reviewable byte by byte:
//!
//! ```text
//! ELAN_REGEN_GOLDEN=1 cargo test --test golden_frames
//! ```

use std::fs;
use std::mem::discriminant;
use std::panic;
use std::path::PathBuf;
use std::sync::Arc;

use elan::core::codec::{decode_frame, encode_frame, WireFrame, MAX_FRAME_LEN};
use elan::core::messages::{MsgId, StateKind};
use elan::core::protocol::{EndpointId, Envelope, EpochPhase, RtMsg};
use elan::core::state::WorkerId;

/// Wraps a payload in the fixed envelope every corpus entry shares, so
/// a byte diff in a `.bin` file is always a payload (or framing)
/// change, never envelope noise.
fn msg(body: RtMsg) -> WireFrame {
    WireFrame::Msg {
        to: EndpointId::Am,
        env: Envelope {
            id: MsgId(7),
            from: EndpointId::Worker(WorkerId(1)),
            attempt: 1,
            body,
        },
    }
}

/// One entry per frame kind and `RtMsg` variant — the whole tag table
/// ([`entry_of`] names each variant's entry).
fn corpus() -> Vec<(&'static str, WireFrame)> {
    let data = Arc::new(vec![1.0f32, -2.5, 0.0]);
    vec![
        (
            "hello",
            WireFrame::Hello {
                from: EndpointId::Worker(WorkerId(3)),
            },
        ),
        (
            "hello_controller",
            WireFrame::Hello {
                from: EndpointId::Controller,
            },
        ),
        (
            "report",
            msg(RtMsg::Report {
                worker: WorkerId(0),
            }),
        ),
        (
            "coordinate",
            msg(RtMsg::Coordinate {
                worker: WorkerId(1),
                iteration: 42,
            }),
        ),
        (
            "proceed",
            msg(RtMsg::Proceed {
                boundary: 100,
                term: 2,
            }),
        ),
        (
            "transfer_order",
            msg(RtMsg::TransferOrder {
                dst: WorkerId(2),
                term: 3,
            }),
        ),
        (
            "transfer_done",
            msg(RtMsg::TransferDone {
                src: WorkerId(2),
                dst: WorkerId(4),
            }),
        ),
        (
            "state_chunk",
            msg(RtMsg::StateChunk {
                kind: StateKind::Params,
                iteration: 10,
                data_cursor: 5,
                index: 0,
                total: 1,
                offset: 0,
                data: Arc::clone(&data),
            }),
        ),
        (
            "state_chunk_momentum",
            msg(RtMsg::StateChunk {
                kind: StateKind::Momentum,
                iteration: 10,
                data_cursor: 5,
                index: 0,
                total: 1,
                offset: 0,
                data,
            }),
        ),
        (
            "resume",
            msg(RtMsg::Resume {
                generation: 1,
                term: 4,
            }),
        ),
        ("leave", msg(RtMsg::Leave { term: 5 })),
        (
            "adjust_to",
            msg(RtMsg::AdjustTo {
                seq: 6,
                target: vec![WorkerId(0), WorkerId(1)],
            }),
        ),
        ("stop", msg(RtMsg::Stop { seq: 7 })),
        ("checkpoint", msg(RtMsg::Checkpoint { seq: 8 })),
        (
            "checkpoint_order",
            msg(RtMsg::CheckpointOrder { seq: 9, term: 6 }),
        ),
        ("ack", msg(RtMsg::Ack { seq: 10 })),
        ("msg_ack", msg(RtMsg::MsgAck { of: MsgId(11) })),
        (
            "heartbeat",
            msg(RtMsg::Heartbeat {
                worker: WorkerId(5),
                iteration: 12,
            }),
        ),
        ("am_reset", msg(RtMsg::AmReset { epoch: 2, term: 7 })),
        (
            "rejoin",
            msg(RtMsg::Rejoin {
                worker: WorkerId(6),
                term: 8,
                iteration: 13,
            }),
        ),
        (
            "join_request",
            msg(RtMsg::JoinRequest {
                worker: WorkerId(7),
                epoch: 3,
                digest: None,
            }),
        ),
        (
            "join_request_digest",
            msg(RtMsg::JoinRequest {
                worker: WorkerId(7),
                epoch: 3,
                digest: Some(0x1234_5678_9abc_def0),
            }),
        ),
        (
            "epoch_advance",
            msg(RtMsg::EpochAdvance {
                epoch: 4,
                phase: EpochPhase::Warmup,
                term: 9,
            }),
        ),
        (
            "witness_query",
            msg(RtMsg::WitnessQuery {
                subject: WorkerId(8),
                epoch: 4,
                probe: 0xfeed_face_cafe_beef,
                term: 9,
            }),
        ),
        (
            "witness_vote",
            msg(RtMsg::WitnessVote {
                witness: WorkerId(2),
                subject: WorkerId(8),
                epoch: 4,
                admit: true,
                digest: 0xfeed_face_cafe_beef,
            }),
        ),
        (
            "park",
            msg(RtMsg::Park {
                boundary: 105,
                term: 2,
            }),
        ),
        (
            "passed",
            msg(RtMsg::Passed {
                worker: WorkerId(1),
                boundary: 100,
            }),
        ),
    ]
}

/// The corpus entry that pins each `RtMsg` variant. The match has no
/// wildcard, so a new variant does not compile until it names its entry,
/// and `every_variant_has_a_corpus_entry` fails until the entry exists.
fn entry_of(body: &RtMsg) -> &'static str {
    match body {
        RtMsg::Report { .. } => "report",
        RtMsg::Coordinate { .. } => "coordinate",
        RtMsg::Proceed { .. } => "proceed",
        RtMsg::TransferOrder { .. } => "transfer_order",
        RtMsg::TransferDone { .. } => "transfer_done",
        RtMsg::StateChunk { .. } => "state_chunk",
        RtMsg::Resume { .. } => "resume",
        RtMsg::Leave { .. } => "leave",
        RtMsg::AdjustTo { .. } => "adjust_to",
        RtMsg::Stop { .. } => "stop",
        RtMsg::Checkpoint { .. } => "checkpoint",
        RtMsg::CheckpointOrder { .. } => "checkpoint_order",
        RtMsg::Ack { .. } => "ack",
        RtMsg::MsgAck { .. } => "msg_ack",
        RtMsg::Heartbeat { .. } => "heartbeat",
        RtMsg::AmReset { .. } => "am_reset",
        RtMsg::Rejoin { .. } => "rejoin",
        RtMsg::JoinRequest { .. } => "join_request",
        RtMsg::EpochAdvance { .. } => "epoch_advance",
        RtMsg::WitnessQuery { .. } => "witness_query",
        RtMsg::WitnessVote { .. } => "witness_vote",
        RtMsg::Park { .. } => "park",
        RtMsg::Passed { .. } => "passed",
    }
}

/// CRC32 (IEEE), bit at a time: the frame checksum, recomputed here so a
/// mutated frame can be given a valid trailer.
fn crc32(bytes: &[u8]) -> u32 {
    let mut c = !0u32;
    for &b in bytes {
        c ^= u32::from(b);
        for _ in 0..8 {
            c = if c & 1 != 0 {
                0xEDB8_8320 ^ (c >> 1)
            } else {
                c >> 1
            };
        }
    }
    !c
}

/// `body` (a frame without its trailer) with a valid CRC trailer, so the
/// decoder gets past the checksum to the fields.
fn stamped(mut body: Vec<u8>) -> Vec<u8> {
    let crc = crc32(&body);
    body.extend_from_slice(&crc.to_le_bytes());
    body
}

fn golden_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests")
        .join("golden_frames")
}

#[test]
fn corpus_matches_committed_bytes() -> Result<(), String> {
    let dir = golden_dir();
    let regen = std::env::var_os("ELAN_REGEN_GOLDEN").is_some();
    if regen {
        fs::create_dir_all(&dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
    }
    let mut expected_files = Vec::new();
    for (name, frame) in corpus() {
        let path = dir.join(format!("{name}.bin"));
        expected_files.push(format!("{name}.bin"));
        let encoded = encode_frame(&frame);
        if regen {
            fs::write(&path, &encoded).map_err(|e| format!("write {}: {e}", path.display()))?;
            continue;
        }
        let committed = fs::read(&path).map_err(|e| {
            format!(
                "missing golden frame {} ({e}); regenerate with ELAN_REGEN_GOLDEN=1 \
                 and review the byte diff",
                path.display()
            )
        })?;
        // Encoder stability: today's encoder must reproduce the committed
        // bytes exactly — field order, endianness, CRC and all.
        if encoded != committed {
            return Err(format!(
                "golden frame {name}: encoder produced {} byte(s) that differ from \
                 the committed {} byte(s) — a wire-format change; if intentional, \
                 regenerate with ELAN_REGEN_GOLDEN=1 and review the diff",
                encoded.len(),
                committed.len()
            ));
        }
        // Decoder compatibility: bytes an older build put on the wire must
        // still decode to the same frame.
        let decoded = decode_frame(&committed)
            .map_err(|e| format!("golden frame {name}: committed bytes no longer decode: {e:?}"))?;
        let want = format!("{frame:?}");
        let got = format!("{decoded:?}");
        if want != got {
            return Err(format!(
                "golden frame {name}: committed bytes decode to a different frame\n \
                 want: {want}\n  got: {got}"
            ));
        }
    }
    if regen {
        return Ok(());
    }
    // No orphans: every committed .bin must be covered by the corpus, so a
    // removed variant cannot leave stale pinned bytes behind.
    for entry in fs::read_dir(&dir).map_err(|e| format!("read {}: {e}", dir.display()))? {
        let entry = entry.map_err(|e| e.to_string())?;
        let fname = entry.file_name().to_string_lossy().into_owned();
        if fname.ends_with(".bin") && !expected_files.contains(&fname) {
            return Err(format!(
                "stale golden frame {fname}: not produced by the corpus; remove it \
                 or add the corpus entry back"
            ));
        }
    }
    Ok(())
}

#[test]
fn corrupt_golden_bytes_are_rejected() -> Result<(), String> {
    // Flip one payload bit in a pinned frame: the CRC trailer must catch it.
    let frame = msg(RtMsg::Leave { term: 5 });
    let mut bytes = encode_frame(&frame);
    let mid = bytes.len() / 2;
    bytes[mid] ^= 1;
    match decode_frame(&bytes) {
        Err(_) => Ok(()),
        Ok(f) => Err(format!("corrupted frame decoded as {f:?}")),
    }
}

#[test]
fn max_frame_len_is_pinned() {
    // The frame-size limit is the one wire constant no frame's bytes
    // carry. A peer whose limit shrank would drop frames the other side
    // may legally send (a large `StateChunk`), so it is pinned here.
    assert_eq!(MAX_FRAME_LEN, 16 << 20);
}

#[test]
fn every_variant_has_a_corpus_entry() -> Result<(), String> {
    // The decoder knows every variant (the codec's encoder does not compile
    // unless its wire table lists each one), and each known tag decodes
    // from a zero-filled body of its variant's fixed length.
    let mut prefix = encode_frame(&msg(RtMsg::Leave { term: 0 }));
    prefix.truncate(prefix.len() - 4 - 9); // CRC trailer; `Leave`'s tag and term
    let corpus = corpus();
    let mut variants = 0;
    for tag in 0..=u8::MAX {
        let decoded = (0..64).find_map(|len| {
            let mut body = prefix.clone();
            body.push(tag);
            body.resize(body.len() + len, 0);
            match decode_frame(&stamped(body)) {
                Ok(WireFrame::Msg { env, .. }) => Some(env.body),
                _ => None,
            }
        });
        let Some(body) = decoded else { continue };
        variants += 1;
        let name = entry_of(&body);
        let pinned = corpus.iter().any(|(n, frame)| {
            *n == name
                && matches!(frame, WireFrame::Msg { env, .. }
                    if discriminant(&env.body) == discriminant(&body))
        });
        if !pinned {
            return Err(format!(
                "tag {tag} decodes to {body:?}, but the corpus has no `{name}` entry \
                 of that variant"
            ));
        }
    }
    if variants == 0 {
        return Err("no tag decoded: the zero-body probe is broken".into());
    }
    Ok(())
}

/// Decodes `bytes`, which must not panic. A frame that decodes must
/// re-encode to bytes that decode and re-encode to themselves. Returns
/// whether `bytes` decoded.
fn decodes_soundly(bytes: &[u8]) -> Result<bool, String> {
    let decoded =
        panic::catch_unwind(|| decode_frame(bytes)).map_err(|_| "decode_frame panicked")?;
    let Ok(frame) = decoded else {
        return Ok(false);
    };
    let once = encode_frame(&frame);
    let again = decode_frame(&once).map_err(|e| format!("its re-encoding does not decode: {e}"))?;
    if encode_frame(&again) != once {
        return Err(format!("re-encoding {frame:?} is not idempotent"));
    }
    Ok(true)
}

#[test]
fn mutated_golden_frames_decode_soundly() -> Result<(), String> {
    // Every one-byte value change and every truncation of every committed
    // frame, re-stamped with a valid CRC so the mutation reaches the field
    // decoders rather than stopping at the checksum.
    let mut accepted = 0usize;
    for (name, _) in corpus() {
        let path = golden_dir().join(format!("{name}.bin"));
        let good = fs::read(&path).map_err(|e| format!("read {}: {e}", path.display()))?;
        let body = &good[..good.len().saturating_sub(4)];
        for at in 0..body.len() {
            for v in (0..=u8::MAX).filter(|&v| v != body[at]) {
                let mut bytes = body.to_vec();
                bytes[at] = v;
                if decodes_soundly(&stamped(bytes))
                    .map_err(|e| format!("{name}, byte {at} set to {v:#04x}: {e}"))?
                {
                    accepted += 1;
                }
            }
        }
        for cut in 0..body.len() {
            if decodes_soundly(&stamped(body[..cut].to_vec()))
                .map_err(|e| format!("{name}, cut at {cut}: {e}"))?
            {
                accepted += 1;
            }
        }
    }
    // Value changes inside integer fields decode; if none did, the loop
    // never got past the checksum and proved nothing.
    if accepted == 0 {
        return Err("no mutated frame decoded: the CRC re-stamp is broken".into());
    }
    Ok(())
}
