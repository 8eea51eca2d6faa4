//! One broker message: an optional key plus an opaque value.

use bytes::Bytes;

/// Per-record wire framing overhead (offset, lengths, checksum stand-in),
/// mirroring the KV layer's command framing so the byte-based replication
/// cost model prices produce batches honestly.
pub const RECORD_FRAMING: usize = 16;

/// One message in a partition log. Records are immutable once appended;
/// their offset is assigned by the partition at append time.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Record {
    /// Partitioning/compaction key (may be empty).
    pub key: Bytes,
    /// Opaque payload.
    pub value: Bytes,
}

impl Record {
    /// Build a record from key and value bytes.
    #[must_use]
    pub fn new(key: impl Into<Bytes>, value: impl Into<Bytes>) -> Self {
        Self {
            key: key.into(),
            value: value.into(),
        }
    }

    /// Wire/storage size of this record (framing + key + value) — the unit
    /// the partition's byte total and the replication cost model count in.
    #[must_use]
    pub fn bytes(&self) -> usize {
        RECORD_FRAMING + self.key.len() + self.value.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_bytes_counts_framing_key_and_value() {
        let r = Record::new(&b"k"[..], &b"value"[..]);
        assert_eq!(r.bytes(), RECORD_FRAMING + 1 + 5);
        let empty = Record::new(Bytes::new(), Bytes::new());
        assert_eq!(empty.bytes(), RECORD_FRAMING);
    }
}
