//! The reduction engine every path shares: the span plan of a round, the
//! world-coupled chunk size, and the one reduction kernel.
//!
//! A published cooperative round is a list of [`Span`]s, each a
//! contiguous element range with its own cache-blocked [`ChunkPlan`] and
//! claim cursor. A chunked round is one span over `[0, len)` that belongs
//! to no member, so every helper drains its cursor; a hierarchical round
//! has one span per topology group (`hier::plan_groups`). Helpers claim
//! chunks **outside the group lock** and reduce each with
//! [`reduce_range`], the kernel the flat path also runs inline over
//! `[0, len)`.
//!
//! Each chunk sums its contributions in ascending worker-id order, so
//! every output element sees the identical f32 addition sequence whatever
//! the path, chunk size, thread count, or arrival order —
//! bit-deterministic (the EasyScale requirement) while the accumulator
//! chunk stays hot in L1.

use std::ops::Range;
use std::sync::atomic::{AtomicUsize, Ordering};

use elan_core::messages::ChunkPlan;
use elan_core::state::WorkerId;

use super::SharedSlice;

/// Floor for the reduction chunk size: 4096 f32 = 16 KiB, sized so one
/// accumulator chunk plus a contribution chunk fit comfortably in L1.
/// Also the tile size of every hierarchical span.
pub(crate) const DEFAULT_CHUNK_ELEMS: usize = 4096;

/// The world-coupled chunk size: `max(len / world, DEFAULT_CHUNK_ELEMS)`.
///
/// The old fixed 4096-element chunks made the chunk *count* independent
/// of the world size, so at world=16 / len=4M a round had 1024 chunks and
/// sixteen workers hammered the cursor cache line once per 16 KiB of
/// work — the measured speedup collapse (6.1x → 2.9x going world 8 → 16).
/// Deriving the size from `len / world` pins the chunk count to roughly
/// one chunk per worker (never more than `world` full chunks, plus at
/// most one remainder chunk), so cursor traffic stays O(world) per round
/// while the floor keeps tiny quotients from shredding cache locality.
pub(crate) fn adaptive_chunk_elems(len: usize, world: u32) -> usize {
    (len / (world.max(1) as usize)).max(DEFAULT_CHUNK_ELEMS)
}

/// One contiguous element span of a cooperative round, with its own
/// chunk plan and claim cursor.
pub(super) struct Span {
    /// Members that drain this span first, ascending; the first is the
    /// span's leader. Empty on a chunked round's single span, which every
    /// helper drains.
    members: Vec<WorkerId>,
    /// First element of the span in the full vector.
    start: usize,
    /// Cache-blocked plan over the span.
    plan: ChunkPlan,
    /// Next chunk index to hand out.
    cursor: AtomicUsize,
}

impl Span {
    /// A span of `len` elements from `start`, tiled in `chunk_elems`
    /// blocks and drained first by `members` (ascending).
    pub(super) fn new(
        members: Vec<WorkerId>,
        start: usize,
        len: usize,
        chunk_elems: usize,
    ) -> Self {
        Span {
            members,
            start,
            plan: ChunkPlan::new(len, chunk_elems),
            cursor: AtomicUsize::new(0),
        }
    }

    /// Whether `worker` drains this span first.
    pub(super) fn has_member(&self, worker: WorkerId) -> bool {
        self.members.binary_search(&worker).is_ok()
    }

    /// The span's leader (its minimum member id), if it has members.
    pub(super) fn leader(&self) -> Option<WorkerId> {
        self.members.first().copied()
    }

    /// The span's element range in the full vector.
    #[cfg(test)]
    pub(super) fn range(&self) -> Range<usize> {
        self.start..self.start + self.plan.total_elems()
    }

    /// Claims the next unreduced chunk, as a range of the full vector;
    /// `None` once the span is drained. The `fetch_add` is a unique
    /// ticket, so each chunk goes to exactly one caller. It only needs
    /// atomicity: the group lock publishes the span, and the round's
    /// countdown of unreduced chunks orders the output writes.
    pub(super) fn claim(&self) -> Option<Range<usize>> {
        let c = self.cursor.fetch_add(1, Ordering::Relaxed);
        (c < self.plan.n_chunks()).then(|| {
            let local = self.plan.range(c);
            self.start + local.start..self.start + local.end
        })
    }
}

/// The work of one cooperative round: its contributions and its span
/// plan. Rebuilt in place at every publish from the contributors actually
/// present; both vectors keep their capacity, so a chunked round
/// allocates nothing.
#[derive(Default)]
pub(super) struct RoundWork {
    /// The round's contributions, sorted by worker id.
    pub(super) inputs: Vec<(WorkerId, SharedSlice)>,
    /// Disjoint spans covering `[0, len)`, ascending.
    pub(super) spans: Vec<Span>,
}

impl RoundWork {
    /// Plans the round as one member-less span over `[0, len)` in
    /// `chunk_elems` blocks: the chunked path.
    pub(super) fn plan_one_span(&mut self, len: usize, chunk_elems: usize) {
        self.spans.clear();
        self.spans.push(Span::new(Vec::new(), 0, len, chunk_elems));
    }

    /// Total chunks across the spans.
    pub(super) fn n_chunks(&self) -> usize {
        self.spans.iter().map(|s| s.plan.n_chunks()).sum()
    }
}

/// Reduces the element `range` of every input (ascending worker-id
/// order) into the accumulator at `out_base`: the one kernel of every
/// path.
///
/// # Safety
///
/// The caller must hold a unique claim on `range` (no other thread
/// writes it this round), `out_base` must point at an accumulator of at
/// least `range.end` elements, `inputs` must be non-empty with every
/// slice at least `range.end` long, and every `SharedSlice` must honor
/// its lifecycle contract (owners parked for the whole round).
pub(super) unsafe fn reduce_range(
    inputs: &[(WorkerId, SharedSlice)],
    out_base: *mut f32,
    range: Range<usize>,
) {
    let out = std::slice::from_raw_parts_mut(out_base.add(range.start), range.len());
    // Sum in ascending worker-id order: initialize from the first
    // contribution (no zeroing pass), then accumulate. Contributions are
    // fused eight (then four, two, one) to a sweep so the accumulator
    // chunk is read and written once per *eight* inputs instead of once
    // per input — at large vectors the round is memory-bound and
    // accumulator traffic is the dominant term. Per element the addition
    // sequence is still `((first + a) + b) + …` in ascending worker-id
    // order (Rust evaluates the chain left-to-right), i.e. the exact
    // sequence of `reference_sum`, so fusing changes traffic, not bits.
    // The zipped-iterator bodies (rather than `a[i]` indexing) let the
    // compiler prove every access in-bounds and vectorize the sweeps.
    let n = out.len();
    let part = |k: usize| &inputs[k].1.slice()[range.clone()][..n];
    out.copy_from_slice(part(0));
    let mut k = 1;
    while inputs.len() - k >= 8 {
        let (a, b, c, d) = (part(k), part(k + 1), part(k + 2), part(k + 3));
        let (e, f, g, h) = (part(k + 4), part(k + 5), part(k + 6), part(k + 7));
        for (o, (((((((a, b), c), d), e), f), g), h)) in out.iter_mut().zip(
            a.iter()
                .zip(b.iter())
                .zip(c.iter())
                .zip(d.iter())
                .zip(e.iter())
                .zip(f.iter())
                .zip(g.iter())
                .zip(h.iter()),
        ) {
            *o = (((((((*o + a) + b) + c) + d) + e) + f) + g) + h;
        }
        k += 8;
    }
    while inputs.len() - k >= 4 {
        let (a, b, c, d) = (part(k), part(k + 1), part(k + 2), part(k + 3));
        for (o, (((a, b), c), d)) in out
            .iter_mut()
            .zip(a.iter().zip(b.iter()).zip(c.iter()).zip(d.iter()))
        {
            *o = (((*o + a) + b) + c) + d;
        }
        k += 4;
    }
    if inputs.len() - k >= 2 {
        let (a, b) = (part(k), part(k + 1));
        for (o, (a, b)) in out.iter_mut().zip(a.iter().zip(b.iter())) {
            *o = (*o + a) + b;
        }
        k += 2;
    }
    if k < inputs.len() {
        for (o, a) in out.iter_mut().zip(part(k).iter()) {
            *o += a;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn adaptive_chunk_formula_is_pinned() {
        // The satellite fix for the world=16 pathology: chunk size is
        // len/world with a DEFAULT_CHUNK_ELEMS floor, so the chunk count
        // tracks the world size instead of the vector length.
        assert_eq!(adaptive_chunk_elems(4_194_304, 16), 262_144);
        assert_eq!(
            ChunkPlan::new(4_194_304, adaptive_chunk_elems(4_194_304, 16)).n_chunks(),
            16
        );
        assert_eq!(adaptive_chunk_elems(4_194_304, 8), 524_288);
        assert_eq!(adaptive_chunk_elems(65_536, 4), 16_384);
        assert_eq!(
            ChunkPlan::new(65_536, adaptive_chunk_elems(65_536, 4)).n_chunks(),
            4
        );
        // The floor: small quotients clamp to one cache-sized chunk.
        assert_eq!(adaptive_chunk_elems(1024, 16), DEFAULT_CHUNK_ELEMS);
        assert_eq!(
            ChunkPlan::new(1024, adaptive_chunk_elems(1024, 16)).n_chunks(),
            1
        );
        // Degenerate worlds never divide by zero.
        assert_eq!(adaptive_chunk_elems(8192, 0), 8192);
        assert_eq!(adaptive_chunk_elems(8192, 1), 8192);
    }

    #[test]
    fn round_work_counts_chunks_and_groups() {
        let mut w = RoundWork::default();
        w.plan_one_span(100, 30);
        assert_eq!(w.n_chunks(), 4);
        assert_eq!(w.spans.len(), 1);
        // The chunked span belongs to no member: every helper drains it,
        // and its claims tile the vector exactly once.
        let span = &w.spans[0];
        assert_eq!(span.leader(), None);
        let claims: Vec<_> = std::iter::from_fn(|| span.claim()).collect();
        assert_eq!(claims, [0..30, 30..60, 60..90, 90..100]);
        assert_eq!(span.claim(), None);
    }
}
