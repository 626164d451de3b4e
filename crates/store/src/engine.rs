//! The per-replica partition storage engine.

use std::collections::BTreeMap;

use bytes::Bytes;
use skute_ring::{KeyHasher, KeyRange};

use crate::value::Record;

/// What a gated apply did with the record it was handed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ApplyOutcome {
    /// The record landed; the store changed.
    Applied,
    /// The stored version dominates: nothing changed and the admission
    /// closure was never consulted.
    Stale,
    /// The admission closure refused the write: nothing changed, and on a
    /// durable engine nothing was logged.
    Vetoed,
}

/// In-memory store for one replica of one partition: an ordered map from
/// key to [`Record`] with exact logical-size accounting.
///
/// Writes are version-gated: an incoming record only lands if its version
/// dominates the stored one (making replica application idempotent and
/// order-insensitive for LWW). Size accounting counts key bytes plus the
/// record's logical size, so that the 256 MB partition cap and the storage
/// saturation experiment see the byte volumes the paper intends.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct PartitionStore {
    records: BTreeMap<Bytes, Record>,
    logical_bytes: u64,
}

impl PartitionStore {
    /// An empty store.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of keys (including tombstones).
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// True when no keys are stored.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// Logical bytes stored (keys + logical record sizes).
    pub fn logical_bytes(&self) -> u64 {
        self.logical_bytes
    }

    fn entry_size(key: &Bytes, record: &Record) -> u64 {
        key.len() as u64 + record.logical_size
    }

    /// Applies `record` under `key` if its version dominates the stored one.
    /// Returns `true` when the store changed.
    pub fn apply(&mut self, key: impl Into<Bytes>, record: Record) -> bool {
        let key = key.into();
        let added = Self::entry_size(&key, &record);
        match self.records.get_mut(&key) {
            Some(existing) if record.version <= existing.version => return false,
            Some(existing) => {
                self.logical_bytes -= Self::entry_size(&key, existing);
                *existing = record;
            }
            None => {
                self.records.insert(key, record);
            }
        }
        self.logical_bytes += added;
        true
    }

    /// The record stored under `key`, tombstones included.
    pub fn get(&self, key: &[u8]) -> Option<&Record> {
        self.records.get(key)
    }

    /// The live value under `key` (`None` for absent keys *and* tombstones).
    #[cfg(test)]
    pub(crate) fn get_value(&self, key: &[u8]) -> Option<&Bytes> {
        self.records.get(key).and_then(|r| r.value.as_ref())
    }

    /// Iterates over all entries in key order.
    pub fn iter(&self) -> impl Iterator<Item = (&Bytes, &Record)> {
        self.records.iter()
    }

    /// Splits off every key whose ring token falls inside `high`, returning
    /// the stripped-out store. Used when a partition exceeds the 256 MB cap
    /// and splits in two: `self` keeps the low half, the return value is the
    /// high half.
    pub fn split_off(&mut self, hasher: KeyHasher, high: KeyRange) -> PartitionStore {
        let mut high_store = PartitionStore::new();
        let keys: Vec<Bytes> = self
            .records
            .keys()
            .filter(|k| high.contains(hasher.token(k)))
            .cloned()
            .collect();
        for key in keys {
            if let Some((k, r)) = self.records.remove_entry(&key) {
                self.logical_bytes -= Self::entry_size(&k, &r);
                high_store.logical_bytes += Self::entry_size(&k, &r);
                high_store.records.insert(k, r);
            }
        }
        high_store
    }

    /// Merges clones of every entry of `other` into `self`;
    /// version-dominant records win. Record payloads are ref-counted
    /// [`Bytes`], so this copies handles, not data — scrub's rebuild union
    /// uses it to fold every healthy replica in without cloning whole
    /// stores first.
    pub(crate) fn merge_from(&mut self, other: &PartitionStore) {
        for (key, record) in &other.records {
            self.apply(key.clone(), record.clone());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::value::Version;
    use proptest::prelude::*;
    use skute_ring::Token;

    fn rec(v: &[u8], version: u64) -> Record {
        Record::put(v.to_vec(), Version::new(version, 0, 0))
    }

    #[test]
    fn apply_get_roundtrip() {
        let mut s = PartitionStore::new();
        assert!(s.apply(&b"k"[..], rec(b"value", 1)));
        assert_eq!(s.get_value(b"k").unwrap().as_ref(), b"value");
        assert_eq!(s.len(), 1);
    }

    #[test]
    fn stale_write_is_rejected() {
        let mut s = PartitionStore::new();
        assert!(s.apply(&b"k"[..], rec(b"new", 5)));
        assert!(!s.apply(&b"k"[..], rec(b"old", 3)));
        assert!(!s.apply(&b"k"[..], rec(b"same", 5)));
        assert_eq!(s.get_value(b"k").unwrap().as_ref(), b"new");
    }

    #[test]
    fn size_accounting_tracks_updates() {
        let mut s = PartitionStore::new();
        assert!(s.apply(&b"key"[..], rec(b"12345", 1)));
        assert_eq!(s.logical_bytes(), 3 + 5);
        assert!(s.apply(&b"key"[..], rec(b"123456789", 2)));
        assert_eq!(s.logical_bytes(), 3 + 9);
        assert!(s.apply(&b"key"[..], Record::tombstone(Version::new(3, 0, 0))));
        assert_eq!(s.logical_bytes(), 3, "tombstone keeps only the key weight");
    }

    #[test]
    fn synthetic_sizes_count_logically() {
        let mut s = PartitionStore::new();
        let r = Record {
            value: Some(Bytes::new()),
            version: Version::new(1, 0, 0),
            logical_size: 500 * 1024,
        };
        assert!(s.apply(&b"obj"[..], r));
        assert_eq!(s.logical_bytes(), 3 + 500 * 1024);
    }

    #[test]
    fn tombstone_hides_value_but_is_stored() {
        let mut s = PartitionStore::new();
        assert!(s.apply(&b"k"[..], rec(b"v", 1)));
        assert!(s.apply(&b"k"[..], Record::tombstone(Version::new(2, 0, 0))));
        assert!(s.get_value(b"k").is_none());
        assert!(s.get(b"k").unwrap().value.is_none());
    }

    #[test]
    fn split_off_partitions_by_token() {
        let hasher = KeyHasher::default();
        let mut s = PartitionStore::new();
        for i in 0..200u32 {
            assert!(s.apply(i.to_le_bytes().to_vec(), rec(b"v", 1)));
        }
        let total_before = s.logical_bytes();
        // The two halves of the whole ring.
        let low = KeyRange::new(Token(0), Token(1 << 63));
        let high = KeyRange::new(Token(1 << 63), Token(0));
        let high_store = s.split_off(hasher, high);
        assert_eq!(s.len() + high_store.len(), 200);
        assert_eq!(s.logical_bytes() + high_store.logical_bytes(), total_before);
        assert!(
            !high_store.is_empty(),
            "uniform hash should land keys in both halves"
        );
        assert!(!s.is_empty());
        for (k, _) in s.iter() {
            assert!(low.contains(hasher.token(k)));
        }
        for (k, _) in high_store.iter() {
            assert!(high.contains(hasher.token(k)));
        }
    }

    #[test]
    fn merge_from_merges_with_version_dominance_and_leaves_source_intact() {
        let mut a = PartitionStore::new();
        let mut b = PartitionStore::new();
        assert!(a.apply(&b"x"[..], rec(b"a-old", 1)));
        assert!(b.apply(&b"x"[..], rec(b"b-new", 2)));
        assert!(b.apply(&b"y"[..], rec(b"only-b", 1)));
        a.merge_from(&b);
        assert_eq!(a.get_value(b"x").unwrap().as_ref(), b"b-new");
        assert_eq!(a.get_value(b"y").unwrap().as_ref(), b"only-b");
        assert_eq!(a.len(), 2);
        assert_eq!(b.len(), 2, "source is untouched");
        assert_eq!(b.get_value(b"y").unwrap().as_ref(), b"only-b");
    }

    proptest! {
        #[test]
        fn prop_size_accounting_is_exact(
            ops in proptest::collection::vec(
                (proptest::collection::vec(any::<u8>(), 1..6),
                 proptest::collection::vec(any::<u8>(), 0..10),
                 0u64..6),
                0..40,
            )
        ) {
            let mut s = PartitionStore::new();
            for (key, value, version) in ops {
                let _ = s.apply(key, Record::put(value, Version::new(version, 0, 0)));
            }
            let expect: u64 = s
                .iter()
                .map(|(k, r)| k.len() as u64 + r.logical_size)
                .sum();
            prop_assert_eq!(s.logical_bytes(), expect);
        }

        #[test]
        fn prop_split_off_conserves_everything(
            keys in proptest::collection::hash_set(
                proptest::collection::vec(any::<u8>(), 1..8), 1..50
            ),
            cut in any::<u64>(),
        ) {
            let hasher = KeyHasher::default();
            let mut s = PartitionStore::new();
            for key in &keys {
                let _ = s.apply(key.clone(), rec(b"v", 1));
            }
            let bytes_before = s.logical_bytes();
            let len_before = s.len();
            let high = KeyRange::new(Token(cut), Token(cut.wrapping_add(u64::MAX / 2)));
            let high_store = s.split_off(hasher, high);
            prop_assert_eq!(s.len() + high_store.len(), len_before);
            prop_assert_eq!(s.logical_bytes() + high_store.logical_bytes(), bytes_before);
            for (k, _) in high_store.iter() {
                prop_assert!(high.contains(hasher.token(k)));
            }
            for (k, _) in s.iter() {
                prop_assert!(!high.contains(hasher.token(k)));
            }
        }
    }
}
