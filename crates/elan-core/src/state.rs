//! Worker identity.
//!
//! The training state itself — parameters, momentum and the serial data
//! cursor (§IV-1, §V-C) — lives in the live runtime's workers (`elan-rt`),
//! which replicate it as `StateChunk`s and checkpoint it as a
//! `CheckpointSnapshot`.

use std::fmt;

/// Identifies a training worker within a job.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct WorkerId(pub u32);

impl fmt::Display for WorkerId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "w{}", self.0)
    }
}
