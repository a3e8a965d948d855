//! Reliable messaging primitives (§V-D).
//!
//! Every Elan control message carries a unique ID and is resent on
//! timeout; receivers deduplicate by ID. This module provides the sender-
//! side [`RetryTracker`] and the receiver-side [`BoundedDedupFilter`] that
//! the live runtime's reliable layer (`elan-rt`) is built from.
//!
//! The tracker counts on [`SimTime`]: the runtime's `TimeSource` reports
//! both its wall and its virtual clock in those units.

use std::collections::{BTreeMap, BTreeSet};

use elan_sim::{SimDuration, SimTime};

/// A unique message identifier.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct MsgId(pub u64);

/// Bit position of the owner tag inside a [`MsgId`]: the high 32 bits
/// carry the sender stream, the low 32 bits the per-stream counter.
pub const OWNER_SHIFT: u32 = 32;

impl MsgId {
    /// The sender stream this ID belongs to (see
    /// [`MsgIdAllocator::for_owner`]).
    pub(crate) fn owner(self) -> u32 {
        (self.0 >> OWNER_SHIFT) as u32
    }
}

impl std::fmt::Display for MsgId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "msg#{}", self.0)
    }
}

/// Allocates unique message IDs.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct MsgIdAllocator {
    next: u64,
}

impl MsgIdAllocator {
    /// Creates an allocator whose IDs carry `owner` in the high 32 bits,
    /// so IDs from different senders never collide at a shared receiver.
    pub fn for_owner(owner: u32) -> Self {
        MsgIdAllocator {
            next: (owner as u64) << OWNER_SHIFT,
        }
    }

    /// Returns a fresh, never-before-issued ID.
    pub fn next_id(&mut self) -> MsgId {
        let id = MsgId(self.next);
        self.next += 1;
        id
    }
}

/// What [`RetryTracker::poll`] decided about one overdue message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RetryOutcome<P> {
    /// The message timed out and should be sent again.
    Resend(MsgId, P),
    /// The message exhausted its attempt budget and was dropped from the
    /// tracker; the peer is presumed dead.
    GaveUp(MsgId, P),
}

#[derive(Debug, Clone)]
struct Inflight<P> {
    sent_at: SimTime,
    attempts: u32,
    payload: P,
}

/// Sender-side bookkeeping: tracks in-flight messages and reports which
/// are due for resend after the timeout elapses without an ack.
///
/// An optional attempt budget ([`RetryTracker::with_max_attempts`]) turns
/// repeated silence into an explicit [`RetryOutcome::GaveUp`] signal, which
/// the live runtime uses as a failure detector.
///
/// # Examples
///
/// ```
/// use elan_core::messages::{MsgId, RetryOutcome, RetryTracker};
/// use elan_sim::{SimDuration, SimTime};
///
/// let mut tracker: RetryTracker<&'static str> = RetryTracker::new(SimDuration::from_secs(1));
/// tracker.track(MsgId(1), "hello", SimTime::ZERO);
/// // Nothing due before the timeout...
/// assert!(tracker.poll(SimTime::from_secs(1) - SimDuration::from_nanos(1)).is_empty());
/// // ...the message is due for resend after it.
/// assert_eq!(
///     tracker.poll(SimTime::from_secs(1)),
///     vec![RetryOutcome::Resend(MsgId(1), "hello")]
/// );
/// tracker.ack(MsgId(1));
/// assert!(tracker.poll(SimTime::from_secs(99)).is_empty());
/// ```
#[derive(Debug, Clone)]
pub struct RetryTracker<P> {
    timeout: SimDuration,
    max_attempts: Option<u32>,
    inflight: BTreeMap<MsgId, Inflight<P>>,
    resends: u64,
}

impl<P: Clone> RetryTracker<P> {
    /// Creates a tracker with the given resend timeout and no attempt cap.
    pub fn new(timeout: SimDuration) -> Self {
        RetryTracker {
            timeout,
            max_attempts: None,
            inflight: BTreeMap::new(),
            resends: 0,
        }
    }

    /// Caps total send attempts per message (first send included). Once a
    /// message has been attempted `max` times and times out again,
    /// [`poll`](Self::poll) reports [`RetryOutcome::GaveUp`] and stops
    /// tracking it. `max` is clamped to at least 1.
    pub fn with_max_attempts(mut self, max: u32) -> Self {
        self.max_attempts = Some(max.max(1));
        self
    }

    /// Starts tracking a sent message (attempt #1).
    pub fn track(&mut self, id: MsgId, payload: P, sent_at: SimTime) {
        self.inflight.insert(
            id,
            Inflight {
                sent_at,
                attempts: 1,
                payload,
            },
        );
    }

    /// Acknowledges a message; returns true if it was in flight.
    pub fn ack(&mut self, id: MsgId) -> bool {
        self.inflight.remove(&id).is_some()
    }

    /// Examines every in-flight message at `now` and returns an outcome for
    /// each overdue one: either a resend (timer reset, attempt counted) or a
    /// give-up (message dropped from the tracker).
    pub fn poll(&mut self, now: SimTime) -> Vec<RetryOutcome<P>> {
        let mut out = Vec::new();
        let mut dead = Vec::new();
        for (&id, entry) in self.inflight.iter_mut() {
            if now.saturating_duration_since(entry.sent_at) < self.timeout {
                continue;
            }
            if let Some(max) = self.max_attempts {
                if entry.attempts >= max {
                    dead.push(id);
                    continue;
                }
            }
            entry.sent_at = now;
            entry.attempts += 1;
            self.resends += 1;
            out.push(RetryOutcome::Resend(id, entry.payload.clone()));
        }
        for id in dead {
            let Some(entry) = self.inflight.remove(&id) else {
                continue;
            };
            out.push(RetryOutcome::GaveUp(id, entry.payload));
        }
        out
    }

    /// Send attempts recorded for an in-flight message.
    pub fn attempts(&self, id: MsgId) -> Option<u32> {
        self.inflight.get(&id).map(|e| e.attempts)
    }

    /// Messages still awaiting acknowledgement.
    pub fn pending(&self) -> usize {
        self.inflight.len()
    }

    /// Total resends performed — a fault-injection metric.
    pub fn resend_count(&self) -> u64 {
        self.resends
    }
}

#[derive(Debug, Clone, Default)]
struct SenderWindow {
    /// Every sequence number strictly below this is presumed already seen.
    floor: u64,
    /// Recently seen sequence numbers at or above `floor`.
    seen: BTreeSet<u64>,
}

/// Receiver-side duplicate suppression with bounded memory.
///
/// Remembering every ID forever is unacceptable for a long-lived
/// runtime, so this filter keeps a sliding window of at most
/// `window` IDs **per sender stream** (the high 32 bits of the ID, see
/// [`MsgIdAllocator::for_owner`]). When a sender's window overflows, the
/// smallest retained ID is evicted and becomes the stream's high-watermark
/// floor: anything at or below the floor is treated as a duplicate.
///
/// This is safe because senders allocate IDs monotonically and a resend
/// reuses the original ID — an ID can only fall below the floor after the
/// sender has pushed `window` newer IDs through, by which point the old
/// message is either long-acked or abandoned.
#[derive(Debug, Clone)]
pub struct BoundedDedupFilter {
    window: usize,
    senders: BTreeMap<u32, SenderWindow>,
    duplicates: u64,
}

impl BoundedDedupFilter {
    /// Default per-sender window size.
    pub const DEFAULT_WINDOW: usize = 512;

    /// Creates a filter retaining at most `window` IDs per sender stream
    /// (clamped to at least 1).
    pub fn new(window: usize) -> Self {
        BoundedDedupFilter {
            window: window.max(1),
            senders: BTreeMap::new(),
            duplicates: 0,
        }
    }

    /// Records `id`; returns true if this is the first delivery (the
    /// message should be processed) and false for duplicates.
    pub fn first_delivery(&mut self, id: MsgId) -> bool {
        let stream = self.senders.entry(id.owner()).or_default();
        let seq = id.0;
        if seq < stream.floor || !stream.seen.insert(seq) {
            self.duplicates += 1;
            return false;
        }
        while stream.seen.len() > self.window {
            let Some(evicted) = stream.seen.pop_first() else {
                break;
            };
            stream.floor = evicted + 1;
        }
        true
    }

    /// Duplicates suppressed so far.
    pub fn duplicate_count(&self) -> u64 {
        self.duplicates
    }
}

impl Default for BoundedDedupFilter {
    fn default() -> Self {
        BoundedDedupFilter::new(Self::DEFAULT_WINDOW)
    }
}

/// Which training-state stream a replicated chunk belongs to.
///
/// Elan (§IV) overlaps GPU-state replication with CPU-state replication;
/// in this reproduction the model parameters stand in for GPU state and
/// the optimizer (momentum) buffers for CPU state. Chunked state transfer
/// interleaves the two streams so they pipeline on the wire.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum StateKind {
    /// Model parameters (the paper's GPU-resident state).
    Params,
    /// Optimizer momentum (the paper's CPU-resident state).
    Momentum,
}

impl std::fmt::Display for StateKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StateKind::Params => write!(f, "params"),
            StateKind::Momentum => write!(f, "momentum"),
        }
    }
}

/// How a state buffer of `total_elems` elements is split into fixed-size
/// chunks for streaming replication.
///
/// Every sender and receiver of a stream derives the identical plan from
/// `(total_elems, chunk_elems)`, so a chunk index alone pins down its
/// element range — chunks can arrive in any order, be duplicated, or be
/// resent individually without ambiguity.
///
/// # Examples
///
/// ```
/// use elan_core::messages::ChunkPlan;
///
/// let plan = ChunkPlan::new(10, 4);
/// assert_eq!(plan.n_chunks(), 3);
/// assert_eq!(plan.range(0), 0..4);
/// assert_eq!(plan.range(2), 8..10); // final chunk is short
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChunkPlan {
    total_elems: usize,
    chunk_elems: usize,
}

impl ChunkPlan {
    /// Creates a plan splitting `total_elems` into chunks of at most
    /// `chunk_elems` elements.
    ///
    /// # Panics
    ///
    /// Panics if either argument is zero.
    pub fn new(total_elems: usize, chunk_elems: usize) -> Self {
        assert!(total_elems > 0, "empty stream");
        assert!(chunk_elems > 0, "zero chunk size");
        ChunkPlan {
            total_elems,
            chunk_elems,
        }
    }

    /// Total elements in the stream.
    pub fn total_elems(&self) -> usize {
        self.total_elems
    }

    /// Elements per full chunk.
    pub fn chunk_elems(&self) -> usize {
        self.chunk_elems
    }

    /// Number of chunks (the last may be short).
    pub fn n_chunks(&self) -> usize {
        self.total_elems.div_ceil(self.chunk_elems)
    }

    /// Element range of chunk `index`.
    ///
    /// # Panics
    ///
    /// Panics if `index >= n_chunks()`.
    pub fn range(&self, index: usize) -> std::ops::Range<usize> {
        assert!(index < self.n_chunks(), "chunk index out of range");
        let start = index * self.chunk_elems;
        start..(start + self.chunk_elems).min(self.total_elems)
    }

    /// Iterates `(index, range)` over every chunk.
    pub fn ranges(&self) -> impl Iterator<Item = (usize, std::ops::Range<usize>)> + '_ {
        (0..self.n_chunks()).map(|i| (i, self.range(i)))
    }
}

/// Receiver-side bookkeeping for one chunked state stream: which chunks
/// have landed, which are still missing, and when the stream is complete.
///
/// `accept` is idempotent (duplicate chunks — chaos or resends — report
/// `false` and change nothing), and `missing` makes an interrupted
/// transfer *resumable*: a replacement source only needs to send the
/// chunks the receiver never got.
#[derive(Debug, Clone)]
pub struct ChunkAssembler {
    received: Vec<bool>,
    remaining: usize,
}

impl ChunkAssembler {
    /// Creates an assembler expecting `n_chunks` chunks.
    pub fn new(n_chunks: usize) -> Self {
        ChunkAssembler {
            received: vec![false; n_chunks],
            remaining: n_chunks,
        }
    }

    /// Records chunk `index`; returns true on first delivery, false for
    /// duplicates or out-of-range indices.
    pub fn accept(&mut self, index: usize) -> bool {
        match self.received.get_mut(index) {
            Some(slot) if !*slot => {
                *slot = true;
                self.remaining -= 1;
                true
            }
            _ => false,
        }
    }

    /// True once every chunk has landed.
    pub fn is_complete(&self) -> bool {
        self.remaining == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn allocator_never_repeats() {
        let mut a = MsgIdAllocator::for_owner(0);
        let ids: Vec<MsgId> = (0..100).map(|_| a.next_id()).collect();
        let mut dedup = ids.clone();
        dedup.sort_unstable();
        dedup.dedup();
        assert_eq!(dedup.len(), ids.len());
    }

    #[test]
    fn owner_roundtrip() {
        let mut a = MsgIdAllocator::for_owner(42);
        assert_eq!(a.next_id().owner(), 42);
        assert_eq!(a.next_id().owner(), 42);
    }

    #[test]
    fn owner_shift_partitions_id_space() {
        // The owner tag and the per-stream counter must split the u64
        // exactly at OWNER_SHIFT: counters from different owners can
        // never collide, and the counter half is the full low word.
        assert_eq!(OWNER_SHIFT, u64::BITS / 2);
        let id = MsgIdAllocator::for_owner(u32::MAX).next_id();
        assert_eq!(id.owner(), u32::MAX);
        assert_eq!(id.0 & ((1u64 << OWNER_SHIFT) - 1), 0, "counter starts at 0");
    }

    #[test]
    fn poll_resets_timer() {
        let mut t = RetryTracker::new(SimDuration::from_secs(1));
        t.track(MsgId(1), (), SimTime::ZERO);
        assert_eq!(t.poll(SimTime::from_secs(1)).len(), 1);
        // Immediately after a resend the timer restarts.
        assert!(t.poll(SimTime::from_secs(1)).is_empty());
        assert_eq!(t.poll(SimTime::from_secs(2)).len(), 1);
        assert_eq!(t.resend_count(), 2);
    }

    #[test]
    fn ack_stops_resends() {
        let mut t = RetryTracker::new(SimDuration::from_millis(100));
        t.track(MsgId(7), "x", SimTime::ZERO);
        assert!(t.ack(MsgId(7)));
        assert!(!t.ack(MsgId(7)));
        assert_eq!(t.pending(), 0);
        assert!(t.poll(SimTime::from_secs(10)).is_empty());
    }

    #[test]
    fn multiple_messages_tracked_independently() {
        let mut t = RetryTracker::new(SimDuration::from_secs(1));
        t.track(MsgId(1), 1, SimTime::ZERO);
        t.track(MsgId(2), 2, SimTime::from_nanos(500_000_000));
        let due = t.poll(SimTime::from_secs(1));
        assert_eq!(due, vec![RetryOutcome::Resend(MsgId(1), 1)]);
    }

    #[test]
    fn give_up_after_attempt_budget() {
        let mut t: RetryTracker<&str> =
            RetryTracker::new(SimDuration::from_secs(1)).with_max_attempts(3);
        t.track(MsgId(5), "probe", SimTime::ZERO);
        // Attempts 2 and 3 are resends.
        assert_eq!(
            t.poll(SimTime::from_secs(1)),
            vec![RetryOutcome::Resend(MsgId(5), "probe")]
        );
        assert_eq!(
            t.poll(SimTime::from_secs(2)),
            vec![RetryOutcome::Resend(MsgId(5), "probe")]
        );
        assert_eq!(t.attempts(MsgId(5)), Some(3));
        // Budget exhausted: the next timeout is a give-up, then silence.
        assert_eq!(
            t.poll(SimTime::from_secs(3)),
            vec![RetryOutcome::GaveUp(MsgId(5), "probe")]
        );
        assert_eq!(t.pending(), 0);
        assert!(t.poll(SimTime::from_secs(9)).is_empty());
    }

    #[test]
    fn give_up_does_not_affect_acked_or_fresh_messages() {
        let mut t: RetryTracker<u8> =
            RetryTracker::new(SimDuration::from_secs(1)).with_max_attempts(1);
        t.track(MsgId(1), 1, SimTime::ZERO);
        t.track(MsgId(2), 2, SimTime::ZERO);
        t.ack(MsgId(1));
        let out = t.poll(SimTime::from_secs(1));
        assert_eq!(out, vec![RetryOutcome::GaveUp(MsgId(2), 2)]);
        assert_eq!(t.resend_count(), 0);
    }

    #[test]
    fn bounded_dedup_filters_replays_within_window() {
        let mut d = BoundedDedupFilter::new(8);
        let mut ids = MsgIdAllocator::for_owner(3);
        let a = ids.next_id();
        let b = ids.next_id();
        assert!(d.first_delivery(a));
        assert!(d.first_delivery(b));
        assert!(!d.first_delivery(a));
        assert!(!d.first_delivery(b));
        assert_eq!(d.duplicate_count(), 2);
    }

    /// Total IDs `d` retains across every sender stream.
    fn retained(d: &BoundedDedupFilter) -> usize {
        d.senders.values().map(|w| w.seen.len()).sum()
    }

    #[test]
    fn bounded_dedup_memory_stays_bounded() {
        let window = 64;
        let mut d = BoundedDedupFilter::new(window);
        let mut streams: Vec<MsgIdAllocator> = (0..4).map(MsgIdAllocator::for_owner).collect();
        for round in 0..10_000u64 {
            let alloc = &mut streams[(round % 4) as usize];
            assert!(d.first_delivery(alloc.next_id()));
            // Memory is bounded regardless of traffic volume.
            assert!(retained(&d) <= window * 4, "retained {} ids", retained(&d));
        }
        assert_eq!(d.senders.len(), 4);
        assert!(retained(&d) <= window * 4);
        assert_eq!(d.duplicate_count(), 0);
    }

    #[test]
    fn bounded_dedup_watermark_rejects_ancient_ids() {
        let mut d = BoundedDedupFilter::new(4);
        let mut ids = MsgIdAllocator::for_owner(1);
        let ancient = ids.next_id();
        assert!(d.first_delivery(ancient));
        // Push enough newer ids to evict `ancient` from the window.
        for _ in 0..16 {
            assert!(d.first_delivery(ids.next_id()));
        }
        // A very late replay of the ancient id is still suppressed.
        assert!(!d.first_delivery(ancient));
    }

    #[test]
    fn chunk_plan_covers_every_element_exactly_once() {
        for (total, chunk) in [(1, 1), (10, 4), (4096, 4096), (4097, 4096), (1000, 1)] {
            let plan = ChunkPlan::new(total, chunk);
            let mut covered = vec![0u8; total];
            for (i, range) in plan.ranges() {
                assert_eq!(range, plan.range(i));
                for e in range {
                    covered[e] += 1;
                }
            }
            assert!(covered.iter().all(|&c| c == 1), "{total}/{chunk}");
            assert_eq!(plan.n_chunks(), total.div_ceil(chunk));
        }
    }

    #[test]
    #[should_panic(expected = "chunk index out of range")]
    fn chunk_plan_rejects_out_of_range_index() {
        let _ = ChunkPlan::new(10, 4).range(3);
    }

    #[test]
    fn chunk_assembler_tracks_and_dedups() {
        let mut asm = ChunkAssembler::new(3);
        assert!(!asm.is_complete());
        assert!(asm.accept(1));
        assert!(!asm.accept(1), "duplicate rejected");
        assert!(!asm.accept(9), "out of range rejected");
        assert_eq!(asm.remaining, 2);
        assert!(asm.accept(0));
        assert!(asm.accept(2));
        assert!(asm.is_complete());
    }

    #[test]
    fn state_kind_displays() {
        assert_eq!(StateKind::Params.to_string(), "params");
        assert_eq!(StateKind::Momentum.to_string(), "momentum");
    }

    #[test]
    fn bounded_dedup_streams_are_independent() {
        let mut d = BoundedDedupFilter::new(4);
        let a0 = MsgIdAllocator::for_owner(10).next_id();
        // Saturate stream 20; stream 10's window must be untouched.
        let mut other = MsgIdAllocator::for_owner(20);
        assert!(d.first_delivery(a0));
        for _ in 0..32 {
            assert!(d.first_delivery(other.next_id()));
        }
        assert!(!d.first_delivery(a0), "still remembered in its own stream");
    }
}
