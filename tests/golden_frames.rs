//! Golden-frame corpus: pins the exact on-wire bytes of every
//! control-plane frame kind and `RtMsg` variant against committed
//! `.bin` files in `tests/golden_frames/`.
//!
//! This is the byte-level complement to the WIRE_COMPAT static check:
//! the checker proves the tag *table* did not move, this suite proves
//! the full encoding (magic, version, endianness, field order, CRC)
//! still produces — and still accepts — the bytes a peer built from an
//! older commit would exchange. Any intentional wire change must
//! regenerate the corpus, which makes the diff reviewable byte by byte:
//!
//! ```text
//! ELAN_REGEN_GOLDEN=1 cargo test --test golden_frames
//! ```

use std::fs;
use std::path::PathBuf;
use std::sync::Arc;

use elan::core::codec::{decode_frame, encode_frame, WireFrame};
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

/// One entry per frame kind and `RtMsg` variant — the whole tag table.
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
