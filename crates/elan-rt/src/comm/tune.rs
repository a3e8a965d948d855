//! Crossover tuning for the adaptive dispatcher.
//!
//! The dispatcher runs on [`TuningProfile::pinned`] — fixed, named
//! crossovers — on every clock:
//!
//! - **Virtual time** needs them: a measured crossover would make path
//!   dispatch (and therefore the journal) a function of host load instead
//!   of the seed, and deterministic simulation requires *same seed ⇒
//!   byte-identical journal*.
//! - **Real time** gains nothing from measuring them. The measurement can
//!   only move the flat crossover within 1,025–16,384 elements, and on a
//!   loaded host it picks a different point from one start-up to the next,
//!   which made set-up time bimodal while no benchmarked length lies in
//!   that range.
//!
//! [`probe`] remains as an on-demand measurement of this host: for each
//! candidate length it races a flat-forced group against a chunked-forced
//! group over a few rounds and keeps the largest length where flat still
//! wins. The result is cached process-wide. Timing uses the runtime's
//! [`TimeSource`] only — no `Instant` in this crate outside `time.rs`
//! (the WALL_CLOCK invariant). Callers that want a measured profile pass
//! it in explicitly (`RuntimeBuilder::tuning`).
//!
//! Every number here is a named constant on purpose: the MAGIC_NUMBER
//! invariant (elan-verify) scopes this file, so future tuning tweaks
//! must stay named and documented rather than sprinkled inline.

use std::sync::{Arc, Barrier, OnceLock};

use elan_core::state::WorkerId;

use super::CommGroup;
use crate::time::TimeSource;

/// Pinned flat/chunked crossover: vectors of at most this many elements
/// take the flat fast path. 4096 f32 = 16 KiB — one L1-resident message;
/// matches the measured crossover on the reference box and guarantees
/// the benchmark's len=1024 cells always dispatch flat.
pub const PINNED_FLAT_MAX_LEN: usize = 4096;

/// Pinned chunked/hierarchical crossover: rounds with at least this many
/// members dispatch hierarchically (topology permitting). Nine is the
/// first world size that cannot fit inside one 8-GPU planning node, i.e.
/// the first world where cursor traffic must cross a node boundary.
pub const PINNED_HIER_MIN_WORLD: u32 = 9;

/// Candidate flat crossovers the probe measures, ascending. The probed
/// profile is clamped to this menu, so a pathological measurement can
/// never push the flat path into multi-megabyte territory (or below the
/// benchmark-guaranteed 1024 floor).
const PROBE_LENS: [usize; 3] = [1024, 4096, 16384];

/// World size of the probe groups: big enough to exercise the helper
/// handoff the chunked path pays for, small enough to run anywhere.
const PROBE_WORLD: u32 = 4;

/// Rounds per measurement; the first few double as pool warm-up (both
/// engines share the round-buffer pool, so warm-up bias cancels).
const PROBE_ROUNDS: u32 = 24;

/// The adaptive dispatcher's crossover points.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TuningProfile {
    /// Vectors of at most this many elements dispatch to the flat path.
    pub flat_max_len: usize,
    /// Rounds with at least this many members dispatch hierarchically
    /// (when a topology with ≥ 2 locality domains is attached).
    pub hier_min_world: u32,
}

impl TuningProfile {
    /// The pinned profile: the fixed crossovers every runtime starts with.
    pub fn pinned() -> Self {
        TuningProfile {
            flat_max_len: PINNED_FLAT_MAX_LEN,
            hier_min_world: PINNED_HIER_MIN_WORLD,
        }
    }

    /// The profile a runtime on `time` starts with: [`pinned`](Self::pinned)
    /// on every clock (see the module docs for why real time does not
    /// probe either).
    pub fn for_time(_time: &TimeSource) -> Self {
        Self::pinned()
    }
}

/// One-shot machine probe (cached process-wide): measures the flat vs
/// chunked crossover on this host and returns it as a profile. The
/// hierarchical crossover stays pinned — it is a property of the
/// topology (first cross-node world), not of per-round overhead.
///
/// Meaningful on real time only: spans read off a virtual clock say
/// nothing about this host.
pub fn probe(time: &TimeSource) -> TuningProfile {
    static PROBED: OnceLock<TuningProfile> = OnceLock::new();
    *PROBED.get_or_init(|| {
        let mut flat_max_len = PROBE_LENS[0];
        for &len in &PROBE_LENS {
            let flat_ns = measure(time, len, true);
            let chunked_ns = measure(time, len, false);
            if flat_ns <= chunked_ns {
                flat_max_len = len;
            } else {
                break;
            }
        }
        TuningProfile {
            flat_max_len,
            hier_min_world: PINNED_HIER_MIN_WORLD,
        }
    })
}

/// Times `PROBE_ROUNDS` allreduce rounds of `PROBE_WORLD` threads over
/// `len`-element vectors on a group forced to the flat (or chunked)
/// engine; returns total nanoseconds (`u64::MAX` if a probe thread
/// panicked, which disqualifies the measurement).
fn measure(time: &TimeSource, len: usize, flat: bool) -> u64 {
    let profile = if flat {
        TuningProfile {
            flat_max_len: usize::MAX,
            hier_min_world: u32::MAX,
        }
    } else {
        TuningProfile {
            flat_max_len: 0,
            hier_min_world: u32::MAX,
        }
    };
    let group = Arc::new(CommGroup::with_tuning(
        (0..PROBE_WORLD).map(WorkerId),
        len,
        profile,
        None,
    ));
    let barrier = Arc::new(Barrier::new(PROBE_WORLD as usize + 1));
    let handles: Vec<_> = (0..PROBE_WORLD)
        .map(|w| {
            let g = Arc::clone(&group);
            let b = Arc::clone(&barrier);
            std::thread::spawn(move || {
                let data = vec![w as f32; len];
                b.wait();
                for _ in 0..PROBE_ROUNDS {
                    let _ = g.allreduce(WorkerId(w), &data);
                }
            })
        })
        .collect();
    barrier.wait();
    let start = time.now();
    let mut ok = true;
    for h in handles {
        ok &= h.join().is_ok();
    }
    if !ok {
        return u64::MAX;
    }
    time.now().saturating_duration_since(start).as_nanos()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pinned_profile_uses_the_named_constants() {
        let p = TuningProfile::pinned();
        assert_eq!(p.flat_max_len, PINNED_FLAT_MAX_LEN);
        assert_eq!(p.hier_min_world, PINNED_HIER_MIN_WORLD);
    }

    #[test]
    fn every_clock_gets_the_pinned_profile() {
        for time in [TimeSource::virtual_seeded(7), TimeSource::real()] {
            assert_eq!(TuningProfile::for_time(&time), TuningProfile::pinned());
        }
    }

    #[test]
    fn probe_stays_on_the_candidate_menu_and_caches() {
        let time = TimeSource::real();
        let p = probe(&time);
        assert!(PROBE_LENS.contains(&p.flat_max_len), "{p:?}");
        assert_eq!(p.hier_min_world, PINNED_HIER_MIN_WORLD);
        // Cached: a second probe is free and identical.
        assert_eq!(probe(&time), p);
    }
}
