//! One partition: a dense, append-only record log.

use crate::record::Record;
use std::fmt;
use std::ops::Range;
use std::sync::Arc;

/// The result of a fetch: records (with their offsets) plus the high
/// watermark, so consumers can compute their lag from the same response
/// that carries the data. The records are not copies: a fetch holds
/// slices of the batches the partition log keeps.
#[derive(Clone, Default)]
pub struct FetchResult {
    /// `(offset of the slice's first record, batch, index range)` per
    /// batch the fetch covers, in offset order; no range is empty.
    slices: Vec<(u64, Arc<[Record]>, Range<usize>)>,
    /// The offset the next produced record will take — fetch position of a
    /// fully caught-up consumer.
    pub high_watermark: u64,
}

impl FetchResult {
    /// `(offset, record)` pairs in offset order, starting at the fetch
    /// offset (none when fetching at/after the high watermark).
    pub fn records(&self) -> impl Iterator<Item = (u64, &Record)> {
        self.slices
            .iter()
            .flat_map(|(first, batch, range)| (*first..).zip(&batch[range.clone()]))
    }

    /// True when the fetch carries no records.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.slices.is_empty()
    }
}

/// Equal when the same records sit at the same offsets under the same high
/// watermark, however the logs split them into batches.
impl PartialEq for FetchResult {
    fn eq(&self, other: &Self) -> bool {
        self.high_watermark == other.high_watermark && self.records().eq(other.records())
    }
}

impl Eq for FetchResult {}

impl fmt::Debug for FetchResult {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("FetchResult")
            .field("records", &self.records().collect::<Vec<_>>())
            .field("high_watermark", &self.high_watermark)
            .finish()
    }
}

/// The append-only record log of one partition. Offsets are dense: the
/// first record is offset 0 and every append takes the next offset. The
/// log keeps the produce batches it applied, found by start offset, so the
/// batch a client sent is the one every replica stores and every fetch
/// shares.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct PartitionLog {
    /// `(offset of the first record, batch)` per applied batch. Every batch
    /// is non-empty and starts where the previous one ends.
    batches: Vec<(u64, Arc<[Record]>)>,
    len: u64,
    bytes: usize,
}

impl PartitionLog {
    /// The offset the next appended record will take (== the high
    /// watermark: everything in a replicated partition log is committed by
    /// the time it is applied).
    #[must_use]
    pub fn next_offset(&self) -> u64 {
        self.len
    }

    /// Total records stored.
    #[must_use]
    pub fn len(&self) -> u64 {
        self.len
    }

    /// True when nothing has been produced yet.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Total stored record bytes.
    #[must_use]
    pub fn bytes(&self) -> usize {
        self.bytes
    }

    /// Append a batch, returning the base offset assigned to its first
    /// record (records take consecutive offsets from there). The log keeps
    /// the batch itself, so no record is copied; an empty batch stores
    /// nothing.
    pub fn append_batch(&mut self, records: &Arc<[Record]>) -> u64 {
        let base = self.len;
        if !records.is_empty() {
            self.len += records.len() as u64;
            self.bytes += records.iter().map(Record::bytes).sum::<usize>();
            self.batches.push((base, Arc::clone(records)));
        }
        base
    }

    /// Fetch up to `max_records` records starting at `offset`. Fetching at
    /// or past the high watermark returns no records (the consumer is
    /// caught up). Both arguments arrive off the wire, so any value of
    /// either is answered, never indexed with.
    #[must_use]
    pub fn fetch(&self, offset: u64, max_records: usize) -> FetchResult {
        let high_watermark = self.len;
        let mut at = offset.min(high_watermark);
        let mut left = usize::try_from(high_watermark - at)
            .map_or(max_records, |available| available.min(max_records));
        // The batch holding `at` is the last one starting at or before it.
        let holding = self.batches.partition_point(|(start, _)| *start <= at);
        let mut slices = Vec::new();
        for (start, batch) in &self.batches[holding.saturating_sub(1)..] {
            if left == 0 {
                break;
            }
            // `at` lies inside this batch, so the index fits.
            let from = (at - start) as usize;
            let to = batch.len().min(from.saturating_add(left));
            slices.push((at, Arc::clone(batch), from..to));
            left -= to - from;
            at = start + to as u64;
        }
        FetchResult {
            slices,
            high_watermark,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(tag: u8, n: usize) -> Record {
        Record::new(Vec::new(), vec![tag; n])
    }

    /// A log of batches of the given sizes whose records' first value byte
    /// is the offset's low byte.
    fn log_of(sizes: &[usize]) -> PartitionLog {
        let mut p = PartitionLog::default();
        for &n in sizes {
            let base = p.next_offset();
            let batch: Arc<[Record]> = (base..base + n as u64)
                .map(|at| rec(at as u8, 10))
                .collect();
            assert_eq!(p.append_batch(&batch), base);
        }
        p
    }

    #[test]
    fn fetch_answers_every_wire_input() {
        let hw = 305;
        let p = log_of(&[64, 1, 200, 0, 40]);
        assert_eq!(p.bytes(), 305 * 26);
        let starts: Vec<u64> = p.batches.iter().map(|(start, _)| *start).collect();
        assert_eq!(starts, [0, 64, 65, 265], "the empty batch stores nothing");
        let table = [
            (u64::MAX, 5, 0..0),
            (0, usize::MAX, 0..hw),
            (hw - 1, usize::MAX, hw - 1..hw),
            (hw, 1, 0..0),
            (3, 0, 0..0),
            (0, 64, 0..64),
            // Starts in one batch and ends in the next; spans three.
            (60, 10, 60..70),
            (63, 3, 63..66),
            // Exactly one batch; then across the empty one.
            (65, 200, 65..265),
            (264, 2, 264..266),
        ];
        for (offset, max, want) in table {
            let fx = p.fetch(offset, max);
            assert_eq!(fx.high_watermark, hw, "fetch({offset}, {max})");
            let got: Vec<u64> = fx.records().map(|(off, _)| off).collect();
            assert_eq!(got, want.collect::<Vec<_>>(), "fetch({offset}, {max})");
            assert!(fx.records().all(|(off, r)| r.value[0] == off as u8));
            assert_eq!(fx.is_empty(), fx.records().next().is_none());
        }
        let empty = PartitionLog::default().fetch(u64::MAX, usize::MAX);
        assert!(empty.is_empty());
        assert_eq!(empty.high_watermark, 0);
    }

    #[test]
    fn fetch_at_or_past_high_watermark_is_empty() {
        let p = log_of(&[1]);
        let fx = p.fetch(1, 10);
        assert!(fx.is_empty());
        assert_eq!(fx.high_watermark, 1);
        let fx = p.fetch(99, 10);
        assert!(fx.is_empty());
        assert!(PartitionLog::default().is_empty());
    }

    mod props {
        use super::*;
        use proptest::prelude::*;

        /// The naive twin: the whole partition as one flat record vector.
        /// Offset `i` is index `i`; a fetch is a slice, as one batch.
        fn naive_fetch(twin: &[Record], offset: u64, max: usize) -> FetchResult {
            let high_watermark = twin.len() as u64;
            let from = usize::try_from(offset.min(high_watermark)).unwrap();
            let to = from.saturating_add(max).min(twin.len());
            let slices = if from < to {
                vec![(from as u64, Arc::from(&twin[from..to]), 0..to - from)]
            } else {
                Vec::new()
            };
            FetchResult {
                slices,
                high_watermark,
            }
        }

        proptest! {
            /// Any sequence of batches, empty ones included, reads back
            /// exactly like the flat vector from every probed offset —
            /// windows of up to 800 records cross many batch boundaries —
            /// and the running byte total equals the records' sum.
            #[test]
            fn prop_batched_log_matches_naive_twin(
                batches in proptest::collection::vec(
                    proptest::collection::vec(1usize..60, 0..=70),
                    1..40,
                ),
                probes in proptest::collection::vec((0u64..2000, 0usize..800), 1..20),
            ) {
                let mut log = PartitionLog::default();
                let mut twin: Vec<Record> = Vec::new();
                for sizes in &batches {
                    let batch: Arc<[Record]> = sizes
                        .iter()
                        .enumerate()
                        .map(|(i, &n)| rec((twin.len() + i) as u8, n))
                        .collect();
                    prop_assert_eq!(log.append_batch(&batch), twin.len() as u64);
                    twin.extend(batch.iter().cloned());
                }
                prop_assert_eq!(log.len(), twin.len() as u64);
                prop_assert_eq!(log.bytes(), twin.iter().map(Record::bytes).sum::<usize>());
                prop_assert!(log.batches.iter().all(|(_, b)| !b.is_empty()));

                // Offset lookup: every probed (offset, max) fetch equals
                // the twin's slice, including past-the-end probes and the
                // largest values the wire can carry.
                let extremes = [(u64::MAX, usize::MAX), (0, usize::MAX), (u64::MAX, 0)];
                for &(offset, max) in probes.iter().chain(&extremes) {
                    let fx = log.fetch(offset, max);
                    prop_assert_eq!(fx.is_empty(), fx.records().next().is_none());
                    prop_assert_eq!(fx, naive_fetch(&twin, offset, max));
                }
                // And a full scan from zero reads the whole stream back.
                prop_assert_eq!(
                    log.fetch(0, twin.len()),
                    naive_fetch(&twin, 0, twin.len())
                );
            }
        }
    }
}
