//! Versioned records with last-writer-wins semantics.

use bytes::Bytes;

/// A totally ordered version stamp.
///
/// Ordering is `(epoch, seq, writer)` lexicographically: the epoch counter
/// comes from the cloud's epoch clock, `seq` disambiguates writes within an
/// epoch, and `writer` (a coordinator id) breaks exact ties so that
/// concurrent replicas converge on the same winner.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Version {
    /// Epoch of the write.
    pub(crate) epoch: u64,
    /// Per-coordinator sequence number within the epoch.
    pub(crate) seq: u64,
    /// Id of the coordinating writer, as a total-order tiebreak.
    pub(crate) writer: u32,
}

impl Version {
    /// Builds a version stamp.
    pub const fn new(epoch: u64, seq: u64, writer: u32) -> Self {
        Self { epoch, seq, writer }
    }
}

/// A stored record: a value or a tombstone, its version, and the logical
/// number of bytes it occupies for capacity accounting.
///
/// `logical_size` defaults to the actual payload length but may be set
/// larger by simulated workloads: the engine's size accounting, the 256 MB
/// partition-split rule and the storage-saturation experiment all consume
/// logical bytes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Record {
    /// The payload; `None` is a tombstone (deleted key).
    pub value: Option<Bytes>,
    /// Version stamp of the write that produced this record.
    pub version: Version,
    /// Bytes this record counts for in capacity accounting.
    pub logical_size: u64,
}

impl Record {
    /// A live record whose logical size is the payload length.
    pub fn put(value: impl Into<Bytes>, version: Version) -> Self {
        let value = value.into();
        let logical_size = value.len() as u64;
        Self {
            value: Some(value),
            version,
            logical_size,
        }
    }

    /// A tombstone.
    pub fn tombstone(version: Version) -> Self {
        Self {
            value: None,
            version,
            logical_size: 0,
        }
    }

    /// Last-writer-wins merge: the record with the higher version survives;
    /// on an exact version tie the records are identical by construction
    /// (same writer, same seq), so either is returned.
    pub(crate) fn merge(a: Record, b: Record) -> Record {
        if a.version >= b.version {
            a
        } else {
            b
        }
    }

    /// Merges an iterator of candidate records into the winning one.
    pub fn merge_all(records: impl IntoIterator<Item = Record>) -> Option<Record> {
        records.into_iter().reduce(Record::merge)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn version_order_is_epoch_then_seq_then_writer() {
        assert!(Version::new(2, 0, 0) > Version::new(1, 9, 9));
        assert!(Version::new(1, 2, 0) > Version::new(1, 1, 9));
        assert!(Version::new(1, 1, 2) > Version::new(1, 1, 1));
        assert_eq!(Version::new(1, 1, 1), Version::new(1, 1, 1));
    }

    #[test]
    fn put_uses_payload_length() {
        let r = Record::put(&b"hello"[..], Version::new(1, 0, 0));
        assert_eq!(r.logical_size, 5);
        assert!(r.value.is_some());
    }

    #[test]
    fn tombstone_has_no_value_or_size() {
        let t = Record::tombstone(Version::new(3, 0, 0));
        assert!(t.value.is_none());
        assert_eq!(t.logical_size, 0);
    }

    #[test]
    fn merge_picks_higher_version() {
        let old = Record::put(&b"old"[..], Version::new(1, 0, 0));
        let new = Record::put(&b"new"[..], Version::new(2, 0, 0));
        assert_eq!(Record::merge(old.clone(), new.clone()), new);
        assert_eq!(Record::merge(new.clone(), old), new);
    }

    #[test]
    fn tombstone_can_win_merge() {
        let live = Record::put(&b"v"[..], Version::new(1, 0, 0));
        let dead = Record::tombstone(Version::new(2, 0, 0));
        assert!(Record::merge(live, dead.clone()).value.is_none());
        let _ = dead;
    }

    #[test]
    fn merge_all_empty_is_none() {
        assert_eq!(Record::merge_all(Vec::new()), None);
    }

    fn arb_version() -> impl Strategy<Value = Version> {
        (0u64..4, 0u64..4, 0u32..4).prop_map(|(e, s, w)| Version::new(e, s, w))
    }

    fn arb_record() -> impl Strategy<Value = Record> {
        (
            arb_version(),
            proptest::option::of(proptest::collection::vec(any::<u8>(), 0..8)),
        )
            .prop_map(|(v, payload)| match payload {
                Some(bytes) => Record::put(bytes, v),
                None => Record::tombstone(v),
            })
    }

    proptest! {
        #[test]
        fn prop_merge_commutative_on_winner_version(a in arb_record(), b in arb_record()) {
            let ab = Record::merge(a.clone(), b.clone());
            let ba = Record::merge(b, a);
            // With distinct versions the merge is fully commutative; on a
            // version tie both orders must at least agree on the version.
            prop_assert_eq!(ab.version, ba.version);
        }

        #[test]
        fn prop_merge_associative(a in arb_record(), b in arb_record(), c in arb_record()) {
            let left = Record::merge(Record::merge(a.clone(), b.clone()), c.clone());
            let right = Record::merge(a, Record::merge(b, c));
            prop_assert_eq!(left.version, right.version);
        }

        #[test]
        fn prop_merge_idempotent(a in arb_record()) {
            prop_assert_eq!(Record::merge(a.clone(), a.clone()), a);
        }

        #[test]
        fn prop_merge_all_returns_max_version(records in proptest::collection::vec(arb_record(), 1..8)) {
            let max = records.iter().map(|r| r.version).max().unwrap();
            let merged = Record::merge_all(records).unwrap();
            prop_assert_eq!(merged.version, max);
        }
    }
}
