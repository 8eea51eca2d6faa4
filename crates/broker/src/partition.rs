//! One partition: a dense, append-only record log.

use crate::record::Record;

/// The result of a fetch: records (with their offsets) plus the high
/// watermark, so consumers can compute their lag from the same response
/// that carries the data.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FetchResult {
    /// `(offset, record)` pairs in offset order, starting at the fetch
    /// offset (empty when fetching at/after the high watermark).
    pub records: Vec<(u64, Record)>,
    /// The offset the next produced record will take — fetch position of a
    /// fully caught-up consumer.
    pub high_watermark: u64,
}

/// Records per chunk. One growing `Vec<Record>` per partition reads back
/// the same bytes, but the spare capacity its doubling leaves behind cost
/// the `broker_stream` benchmark workload 7.5 % more peak memory than
/// chunks allocated once at this capacity (443.6 vs 412.6 MiB, 3 of 3
/// runs, measured when chunks replaced the flat log; those totals predate
/// the shared produce batch, which took about 31 MiB of follower log copies
/// off them).
/// The size is the reply cache's (`dynatune_kv::Sessions`), so a snapshot
/// can later share full chunks by reference count the way that cache does.
const CHUNK: usize = 256;

/// The append-only record log of one partition. Offsets are dense: the
/// first record is offset 0 and every append takes the next offset, so
/// offset `i` lives at `chunks[i / CHUNK][i % CHUNK]`.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct PartitionLog {
    /// Every chunk but the last holds exactly `CHUNK` records.
    chunks: Vec<Vec<Record>>,
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

    /// Append one record. Returns the record's offset.
    pub fn append(&mut self, record: Record) -> u64 {
        let offset = self.len;
        self.len += 1;
        self.bytes += record.bytes();
        match self.chunks.last_mut() {
            Some(tail) if tail.len() < CHUNK => tail.push(record),
            _ => {
                let mut chunk = Vec::with_capacity(CHUNK);
                chunk.push(record);
                self.chunks.push(chunk);
            }
        }
        offset
    }

    /// Append a batch, returning the base offset assigned to its first
    /// record (records take consecutive offsets from there).
    pub fn append_batch(&mut self, records: impl IntoIterator<Item = Record>) -> u64 {
        let base = self.next_offset();
        for r in records {
            self.append(r);
        }
        base
    }

    fn get(&self, offset: u64) -> Option<&Record> {
        let i = usize::try_from(offset).ok()?;
        self.chunks.get(i / CHUNK)?.get(i % CHUNK)
    }

    /// Fetch up to `max_records` records starting at `offset`. Fetching at
    /// or past the high watermark returns no records (the consumer is
    /// caught up). Both arguments arrive off the wire, so any value of
    /// either is answered, never indexed with.
    #[must_use]
    pub fn fetch(&self, offset: u64, max_records: usize) -> FetchResult {
        let high_watermark = self.len;
        let from = offset.min(high_watermark);
        let count = usize::try_from(high_watermark - from)
            .map_or(max_records, |left| left.min(max_records));
        let mut records = Vec::with_capacity(count);
        records.extend(
            (from..)
                .take(count)
                .map_while(|at| Some((at, self.get(at)?.clone()))),
        );
        FetchResult {
            records,
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

    /// A log of `n` records whose first value byte is the offset's low byte.
    fn log_of(n: usize) -> PartitionLog {
        let mut p = PartitionLog::default();
        for i in 0..n {
            assert_eq!(p.append(rec(i as u8, 10)), i as u64);
        }
        p
    }

    #[test]
    fn fetch_answers_every_wire_input() {
        let (c, hw) = (CHUNK as u64, 2 * CHUNK as u64 + 40);
        let p = log_of(2 * CHUNK + 40);
        assert_eq!(p.bytes(), (2 * CHUNK + 40) * 26);
        assert!(p.chunks[..2].iter().all(|c| c.len() == CHUNK));
        assert!(p.chunks.iter().all(|c| c.capacity() == CHUNK));
        let table = [
            (u64::MAX, 5, 0..0),
            (0, usize::MAX, 0..hw),
            (hw - 1, usize::MAX, hw - 1..hw),
            (hw, 1, 0..0),
            (3, 0, 0..0),
            // Starts in one chunk and ends in the next; spans three.
            (c - 3, 10, c - 3..c + 7),
            (c - 1, CHUNK + 2, c - 1..2 * c + 1),
        ];
        for (offset, max, want) in table {
            let fx = p.fetch(offset, max);
            assert_eq!(fx.high_watermark, hw, "fetch({offset}, {max})");
            let got: Vec<u64> = fx.records.iter().map(|(off, _)| *off).collect();
            assert_eq!(got, want.collect::<Vec<_>>(), "fetch({offset}, {max})");
            assert!(fx.records.iter().all(|(off, r)| r.value[0] == *off as u8));
        }
        let empty = PartitionLog::default().fetch(u64::MAX, usize::MAX);
        assert_eq!((empty.records.len(), empty.high_watermark), (0, 0));
    }

    #[test]
    fn fetch_at_or_past_high_watermark_is_empty() {
        let p = log_of(1);
        let fx = p.fetch(1, 10);
        assert!(fx.records.is_empty());
        assert_eq!(fx.high_watermark, 1);
        let fx = p.fetch(99, 10);
        assert!(fx.records.is_empty());
        assert!(PartitionLog::default().is_empty());
    }

    mod props {
        use super::*;
        use proptest::prelude::*;

        /// The naive twin: the whole partition as one flat record vector.
        /// Offset `i` is index `i`; a fetch is a slice.
        fn naive_fetch(twin: &[Record], offset: u64, max: usize) -> FetchResult {
            let high_watermark = twin.len() as u64;
            let from = usize::try_from(offset.min(high_watermark)).unwrap();
            let to = from.saturating_add(max).min(twin.len());
            FetchResult {
                records: (from..to).map(|i| (i as u64, twin[i].clone())).collect(),
                high_watermark,
            }
        }

        proptest! {
            /// Any record sequence, long enough to cross several chunk
            /// boundaries, reads back exactly like the flat vector from
            /// every probed offset, and the running byte total equals the
            /// records' sum.
            #[test]
            fn prop_chunked_log_matches_naive_twin(
                sizes in proptest::collection::vec(1usize..60, 1..700),
                probes in proptest::collection::vec((0u64..800, 0usize..800), 1..20),
            ) {
                let mut log = PartitionLog::default();
                let mut twin: Vec<Record> = Vec::new();
                for (i, &n) in sizes.iter().enumerate() {
                    let r = rec(i as u8, n);
                    prop_assert_eq!(log.append(r.clone()), twin.len() as u64);
                    twin.push(r);
                }
                prop_assert_eq!(log.len(), twin.len() as u64);
                prop_assert_eq!(log.bytes(), twin.iter().map(Record::bytes).sum::<usize>());

                // Offset lookup: every probed (offset, max) fetch equals
                // the twin's slice, including past-the-end probes.
                for &(offset, max) in &probes {
                    prop_assert_eq!(
                        log.fetch(offset, max),
                        naive_fetch(&twin, offset, max)
                    );
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
