//! Data loading semantics and repartition (§V-C).
//!
//! After a resource adjustment the remaining data of the current epoch
//! must be repartitioned across the new worker set without losing or
//! duplicating samples. Elan's **serial** semantics makes this trivial:
//! workers fetch data in a global serial order, so the data-loading state
//! is a single integer — the cursor at the start of the remaining data.
//! The **chunk-based** semantics used by most frameworks fragments the
//! remaining data and needs a record table; it is implemented here as the
//! comparison point.

use std::collections::BTreeMap;

/// The serial data-loading sampler: one global cursor (§V-C).
///
/// # Examples
///
/// ```
/// use elan_core::data::SerialSampler;
/// use elan_core::state::WorkerId;
///
/// let mut s = SerialSampler::new(1000);
/// let batch = s.next_batch(8);
/// // 8 contiguous samples, one per worker shard when split 4 ways.
/// assert_eq!(batch, (0..8).collect::<Vec<u64>>());
/// let shards = SerialSampler::shard(&batch, 4);
/// assert_eq!(shards[0], vec![0, 1]);
/// assert_eq!(s.cursor(), 8);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SerialSampler {
    dataset_size: u64,
    cursor: u64,
    epoch: u32,
}

impl SerialSampler {
    /// Creates a sampler over a dataset of `dataset_size` samples.
    ///
    /// # Panics
    ///
    /// Panics if the dataset is empty.
    pub fn new(dataset_size: u64) -> Self {
        assert!(dataset_size > 0, "dataset must be non-empty");
        SerialSampler {
            dataset_size,
            cursor: 0,
            epoch: 0,
        }
    }

    /// The single integer that *is* the data-loading state.
    pub fn cursor(&self) -> u64 {
        self.cursor
    }

    /// The current epoch.
    pub fn epoch(&self) -> u32 {
        self.epoch
    }

    /// Samples remaining in the current epoch.
    pub fn remaining(&self) -> u64 {
        self.dataset_size - self.cursor
    }

    /// Fetches the next `total_batch` sample indices in global serial
    /// order, wrapping into the next epoch when the dataset is exhausted.
    pub fn next_batch(&mut self, total_batch: u32) -> Vec<u64> {
        let mut batch = Vec::with_capacity(total_batch as usize);
        for _ in 0..total_batch {
            batch.push(self.cursor);
            self.cursor += 1;
            if self.cursor == self.dataset_size {
                self.cursor = 0;
                self.epoch += 1;
            }
        }
        batch
    }

    /// Splits a fetched batch across `n_workers` shards (contiguous
    /// slices; the tail pads to earlier shards when uneven).
    pub fn shard(batch: &[u64], n_workers: u32) -> Vec<Vec<u64>> {
        assert!(n_workers > 0, "need at least one worker");
        let n = n_workers as usize;
        let base = batch.len() / n;
        let extra = batch.len() % n;
        let mut shards = Vec::with_capacity(n);
        let mut at = 0;
        for i in 0..n {
            let take = base + usize::from(i < extra);
            shards.push(batch[at..at + take].to_vec());
            at += take;
        }
        shards
    }

    /// Restores the sampler from a replicated cursor — the entire
    /// repartition operation under serial semantics.
    pub fn restore(dataset_size: u64, cursor: u64, epoch: u32) -> Self {
        assert!(dataset_size > 0, "dataset must be non-empty");
        assert!(cursor < dataset_size, "cursor out of range");
        SerialSampler {
            dataset_size,
            cursor,
            epoch,
        }
    }
}

/// The chunk-based sampler used by most frameworks, for comparison.
///
/// The dataset is split into fixed-size chunks assigned round-robin to
/// workers; each worker consumes its chunks in order. Repartition must
/// collect every unconsumed fragment into a record table and redistribute.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ChunkSampler {
    dataset_size: u64,
    chunk_size: u64,
    /// Per-worker queues of unconsumed fragments `(start, len)`.
    assignments: BTreeMap<u32, Vec<(u64, u64)>>,
}

impl ChunkSampler {
    /// Creates a sampler splitting `dataset_size` samples into chunks of
    /// `chunk_size`, assigned round-robin over `n_workers`.
    ///
    /// # Panics
    ///
    /// Panics if any argument is zero.
    pub fn new(dataset_size: u64, chunk_size: u64, n_workers: u32) -> Self {
        assert!(dataset_size > 0 && chunk_size > 0 && n_workers > 0);
        let mut s = ChunkSampler {
            dataset_size,
            chunk_size,
            assignments: BTreeMap::new(),
        };
        let fragments: Vec<(u64, u64)> = (0..dataset_size)
            .step_by(chunk_size as usize)
            .map(|start| (start, chunk_size.min(dataset_size - start)))
            .collect();
        s.assign_fragments(fragments, n_workers);
        s
    }

    fn assign_fragments(&mut self, fragments: Vec<(u64, u64)>, n_workers: u32) {
        self.assignments.clear();
        for w in 0..n_workers {
            self.assignments.insert(w, Vec::new());
        }
        for (i, frag) in fragments.into_iter().enumerate() {
            let w = (i as u32) % n_workers;
            self.assignments.entry(w).or_default().push(frag);
        }
    }

    /// Fetches `per_worker` samples for worker `w` from its chunk queue.
    /// Returns fewer (possibly zero) samples when the worker's chunks are
    /// exhausted — chunk semantics can starve workers unevenly.
    pub fn next_for_worker(&mut self, w: u32, per_worker: u32) -> Vec<u64> {
        let Some(queue) = self.assignments.get_mut(&w) else {
            return Vec::new();
        };
        let mut out = Vec::with_capacity(per_worker as usize);
        while out.len() < per_worker as usize {
            let Some(front) = queue.first_mut() else {
                break;
            };
            let (start, len) = *front;
            if len > 0 {
                out.push(start);
                front.0 += 1;
                front.1 -= 1;
            } else {
                queue.remove(0);
            }
        }
        out
    }

    /// The record table of unconsumed fragments — what chunk semantics
    /// must manage to repartition (contrast with one integer).
    pub(crate) fn record_table(&self) -> Vec<(u64, u64)> {
        let mut table: Vec<(u64, u64)> = self
            .assignments
            .values()
            .flatten()
            .copied()
            .filter(|&(_, len)| len > 0)
            .collect();
        table.sort_unstable();
        table
    }

    /// Repartitions the remaining fragments across a new worker count,
    /// rebuilding the record table. Returns the table size that had to be
    /// managed (the management-cost metric the paper contrasts with the
    /// serial semantics' single integer).
    pub fn repartition(&mut self, n_workers: u32) -> usize {
        assert!(n_workers > 0);
        let table = self.record_table();
        let count = table.len();
        self.assign_fragments(table, n_workers);
        count
    }

    /// Remaining unconsumed samples in the current epoch.
    pub fn remaining(&self) -> u64 {
        self.record_table().iter().map(|&(_, len)| len).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn serial_serves_each_sample_once_per_epoch() {
        let mut s = SerialSampler::new(100);
        let mut seen = Vec::new();
        while s.epoch() == 0 {
            seen.extend(s.next_batch(10));
            if seen.len() >= 100 {
                break;
            }
        }
        seen.sort_unstable();
        assert_eq!(seen, (0..100).collect::<Vec<u64>>());
    }

    #[test]
    fn serial_remaining_data_is_contiguous() {
        let mut s = SerialSampler::new(100);
        s.next_batch(37);
        assert_eq!(s.cursor(), 37);
        assert_eq!(s.remaining(), 63);
        // Repartition = restore from one integer.
        let restored = SerialSampler::restore(100, s.cursor(), s.epoch());
        assert_eq!(restored, s);
    }

    #[test]
    fn serial_wraps_into_next_epoch() {
        let mut s = SerialSampler::new(10);
        let batch = s.next_batch(15);
        assert_eq!(s.epoch(), 1);
        assert_eq!(s.cursor(), 5);
        assert_eq!(batch[9], 9);
        assert_eq!(batch[10], 0);
    }

    #[test]
    fn shard_covers_batch_exactly() {
        let batch: Vec<u64> = (0..10).collect();
        let shards = SerialSampler::shard(&batch, 3);
        assert_eq!(shards.len(), 3);
        let flat: Vec<u64> = shards.into_iter().flatten().collect();
        assert_eq!(flat, batch);
    }

    #[test]
    fn shard_balances_within_one() {
        let batch: Vec<u64> = (0..10).collect();
        let shards = SerialSampler::shard(&batch, 4);
        let sizes: Vec<usize> = shards.iter().map(Vec::len).collect();
        assert_eq!(sizes, vec![3, 3, 2, 2]);
    }

    #[test]
    fn chunk_sampler_serves_all_samples() {
        let mut c = ChunkSampler::new(100, 16, 4);
        let mut seen = Vec::new();
        for w in 0..4 {
            loop {
                let got = c.next_for_worker(w, 8);
                if got.is_empty() {
                    break;
                }
                seen.extend(got);
            }
        }
        seen.sort_unstable();
        assert_eq!(seen, (0..100).collect::<Vec<u64>>());
    }

    #[test]
    fn chunk_remaining_is_fragmented() {
        let mut c = ChunkSampler::new(100, 10, 4);
        // Consume a little from every worker: remaining data fragments.
        for w in 0..4 {
            c.next_for_worker(w, 3);
        }
        let table = c.record_table();
        assert!(table.len() > 1, "chunk semantics fragments remaining data");
        // Serial semantics would describe the same situation with ONE integer.
    }

    #[test]
    fn chunk_repartition_conserves_samples() {
        let mut c = ChunkSampler::new(100, 10, 4);
        for w in 0..4 {
            c.next_for_worker(w, 5);
        }
        let before = c.remaining();
        let table_size = c.repartition(6);
        assert!(table_size >= 1);
        assert_eq!(c.remaining(), before);
        assert_eq!(c.assignments.len(), 6);
    }

    #[test]
    fn serial_state_is_one_integer_chunk_state_is_many() {
        // The §V-C comparison, as an executable fact.
        let mut serial = SerialSampler::new(1000);
        let mut chunk = ChunkSampler::new(1000, 10, 8);
        serial.next_batch(8 * 25);
        for w in 0..8 {
            chunk.next_for_worker(w, 25);
        }
        // Serial: the state is `cursor` — exactly one u64.
        assert_eq!(serial.cursor(), 200);
        // Chunk: the record table holds many entries.
        assert!(chunk.record_table().len() > 8);
    }

    #[test]
    #[should_panic(expected = "cursor out of range")]
    fn restore_validates_cursor() {
        let _ = SerialSampler::restore(10, 10, 0);
    }
}
