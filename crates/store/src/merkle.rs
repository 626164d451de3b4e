//! Merkle summaries for anti-entropy between replicas.
//!
//! Replicas of a partition converge through synchronous writes, but failed
//! applies (a full server skipping a write) leave divergence behind. The
//! Dynamo lineage the paper builds on (§I, ref. \[5\]) detects divergence
//! cheaply with Merkle trees: replicas exchange O(log n) digests and only
//! ship the key ranges that actually differ.
//!
//! [`MerkleSummary`] hashes a [`PartitionStore`] into a fixed number of
//! token-range buckets (leaves) plus a root digest; [`diff_buckets`] finds
//! the buckets two summaries disagree on, and
//! [`PartitionStore::absorb`](crate::PartitionStore::absorb) repairs them.
//! [`MerkleBuilder`] is the incremental form: any storage backend feeds it
//! one entry at a time, so a summary never requires materializing an
//! in-memory store first.

use skute_ring::{KeyHasher, KeyRange, Token};

use crate::engine::PartitionStore;
use crate::value::Record;

/// A bucketed Merkle summary of a partition store over a key range.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MerkleSummary {
    range: KeyRange,
    buckets: Vec<u64>,
    root: u64,
}

/// FNV-1a-style mix of a 64-bit value into an accumulator.
#[inline]
fn mix(acc: u64, v: u64) -> u64 {
    (acc ^ v).wrapping_mul(0x0000_0100_0000_01b3)
}

/// Order-independent bucket accumulation: XOR of per-entry digests, so the
/// digest is identical regardless of insertion order.
#[inline]
fn entry_digest(key: &[u8], version: (u64, u64, u32), logical_size: u64) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in key {
        h = mix(h, u64::from(b));
    }
    h = mix(h, version.0);
    h = mix(h, version.1);
    h = mix(h, u64::from(version.2));
    h = mix(h, logical_size);
    // Finalize so single-bit differences avalanche.
    h ^= h >> 33;
    h = h.wrapping_mul(0xff51_afd7_ed55_8ccd);
    h ^ (h >> 33)
}

/// Incremental [`MerkleSummary`] construction: feed entries one at a time
/// (in any order — bucket accumulation is order-independent) and
/// [`finish`](MerkleBuilder::finish). This is how non-in-memory backends
/// summarize themselves without building a [`PartitionStore`] copy.
#[derive(Debug, Clone)]
pub struct MerkleBuilder {
    hasher: KeyHasher,
    range: KeyRange,
    acc: Vec<u64>,
}

impl MerkleBuilder {
    /// A builder over `range` with `buckets` equal token slices.
    ///
    /// # Panics
    /// Panics if `buckets == 0`.
    pub fn new(hasher: KeyHasher, range: KeyRange, buckets: usize) -> Self {
        assert!(buckets > 0, "need at least one bucket");
        Self {
            hasher,
            range,
            acc: vec![0u64; buckets],
        }
    }

    /// Folds one entry into its bucket; entries outside the range are
    /// ignored.
    pub fn add(&mut self, key: &[u8], record: &Record) {
        let token = self.hasher.token(key);
        if !self.range.contains(token) {
            return;
        }
        let buckets = self.acc.len();
        let offset = u128::from(token.0.wrapping_sub(self.range.start.0).wrapping_sub(1));
        let idx = ((offset * buckets as u128) / self.range.width()) as usize;
        let idx = idx.min(buckets - 1);
        let v = record.version;
        self.acc[idx] ^= entry_digest(key, (v.epoch, v.seq, v.writer), record.logical_size);
    }

    /// Seals the buckets into a summary.
    pub fn finish(self) -> MerkleSummary {
        let root = self.acc.iter().fold(0xdead_beefu64, |a, &b| mix(a, b));
        MerkleSummary {
            range: self.range,
            buckets: self.acc,
            root,
        }
    }
}

impl MerkleSummary {
    /// Summarizes `store` over `range` into `buckets` equal token slices.
    ///
    /// # Panics
    /// Panics if `buckets == 0`.
    pub fn build(
        store: &PartitionStore,
        hasher: KeyHasher,
        range: KeyRange,
        buckets: usize,
    ) -> Self {
        let mut builder = MerkleBuilder::new(hasher, range, buckets);
        for (key, record) in store.iter() {
            builder.add(key, record);
        }
        builder.finish()
    }

    /// The summarized key range.
    pub fn range(&self) -> KeyRange {
        self.range
    }

    /// The root digest; equal roots mean (with overwhelming probability)
    /// equal contents.
    pub fn root(&self) -> u64 {
        self.root
    }

    /// The token sub-range covered by bucket `idx`.
    ///
    /// # Panics
    /// Panics if `idx` is out of range.
    pub fn bucket_range(&self, idx: usize) -> KeyRange {
        assert!(idx < self.buckets.len(), "bucket {idx} out of range");
        let width = self.range.width();
        let n = self.buckets.len() as u128;
        let lo = (width * idx as u128) / n;
        let hi = (width * (idx as u128 + 1)) / n;
        let start = Token(self.range.start.0.wrapping_add(lo as u64));
        let end = Token(self.range.start.0.wrapping_add(hi as u64));
        KeyRange::new(start, end)
    }
}

/// Indices of the buckets on which two summaries disagree.
///
/// # Panics
/// Panics if the summaries cover different ranges or bucket counts —
/// comparing them would be meaningless.
pub fn diff_buckets(a: &MerkleSummary, b: &MerkleSummary) -> Vec<usize> {
    assert_eq!(a.range, b.range, "summaries must cover the same range");
    assert_eq!(
        a.buckets.len(),
        b.buckets.len(),
        "summaries must use the same bucket count"
    );
    if a.root == b.root {
        return Vec::new();
    }
    a.buckets
        .iter()
        .zip(&b.buckets)
        .enumerate()
        .filter(|(_, (x, y))| x != y)
        .map(|(i, _)| i)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::value::{Record, Version};
    use proptest::prelude::*;

    fn store_with(keys: &[(&[u8], u64)]) -> PartitionStore {
        let mut s = PartitionStore::new();
        for (key, version) in keys {
            let _ = s.apply(
                key.to_vec(),
                Record::put(&b"v"[..], Version::new(*version, 0, 0)),
            );
        }
        s
    }

    #[test]
    fn identical_stores_have_identical_summaries() {
        let hasher = KeyHasher::default();
        let a = store_with(&[(b"x", 1), (b"y", 2), (b"z", 3)]);
        let b = store_with(&[(b"z", 3), (b"x", 1), (b"y", 2)]); // other order
        let sa = MerkleSummary::build(&a, hasher, KeyRange::full(), 16);
        let sb = MerkleSummary::build(&b, hasher, KeyRange::full(), 16);
        assert_eq!(sa.root(), sb.root());
        assert!(diff_buckets(&sa, &sb).is_empty());
    }

    #[test]
    fn divergence_is_detected_and_localized() {
        let hasher = KeyHasher::default();
        let a = store_with(&[(b"x", 1), (b"y", 2)]);
        let mut b = store_with(&[(b"x", 1), (b"y", 2)]);
        let _ = b.apply(&b"y"[..], Record::put(&b"new"[..], Version::new(9, 0, 0)));
        let sa = MerkleSummary::build(&a, hasher, KeyRange::full(), 64);
        let sb = MerkleSummary::build(&b, hasher, KeyRange::full(), 64);
        assert_ne!(sa.root(), sb.root());
        let diff = diff_buckets(&sa, &sb);
        assert_eq!(diff.len(), 1, "one changed key lands in one bucket");
        // The differing bucket must cover y's token.
        let y_token = hasher.token(b"y");
        assert!(sa.bucket_range(diff[0]).contains(y_token));
    }

    #[test]
    fn missing_key_is_divergence() {
        let hasher = KeyHasher::default();
        let a = store_with(&[(b"x", 1), (b"y", 2)]);
        let b = store_with(&[(b"x", 1)]);
        let sa = MerkleSummary::build(&a, hasher, KeyRange::full(), 8);
        let sb = MerkleSummary::build(&b, hasher, KeyRange::full(), 8);
        assert!(!diff_buckets(&sa, &sb).is_empty());
    }

    #[test]
    fn bucket_ranges_tile_the_summary_range() {
        let hasher = KeyHasher::default();
        let s = store_with(&[(b"x", 1)]);
        let summary = MerkleSummary::build(&s, hasher, KeyRange::full(), 7);
        let total: u128 = (0..7).map(|i| summary.bucket_range(i).width()).sum();
        assert_eq!(total, 1u128 << 64);
        // Adjacent buckets share boundaries.
        for i in 0..6 {
            assert_eq!(
                summary.bucket_range(i).end,
                summary.bucket_range(i + 1).start
            );
        }
    }

    #[test]
    fn absorb_repairs_detected_divergence() {
        let hasher = KeyHasher::default();
        let full = KeyRange::full();
        let a = store_with(&[(b"k1", 1), (b"k2", 5), (b"k3", 1)]);
        let b = store_with(&[(b"k1", 1), (b"k2", 2), (b"k4", 7)]);
        let mut repaired = b.clone();
        repaired.absorb(a.clone());
        let mut repaired_other = a.clone();
        repaired_other.absorb(b.clone());
        // After mutual absorption both sides summarize identically.
        let sa = MerkleSummary::build(&repaired, hasher, full, 32);
        let sb = MerkleSummary::build(&repaired_other, hasher, full, 32);
        assert_eq!(sa.root(), sb.root());
    }

    #[test]
    #[should_panic(expected = "same range")]
    fn mismatched_ranges_rejected() {
        let hasher = KeyHasher::default();
        let s = PartitionStore::new();
        let a = MerkleSummary::build(&s, hasher, KeyRange::full(), 4);
        let half = KeyRange::full().split().0;
        let b = MerkleSummary::build(&s, hasher, half, 4);
        let _ = diff_buckets(&a, &b);
    }

    proptest! {
        #[test]
        fn prop_summary_order_independent(
            mut keys in proptest::collection::vec(
                (proptest::collection::vec(any::<u8>(), 1..6), 0u64..5), 0..24
            ),
            rotate in 0usize..24,
        ) {
            let hasher = KeyHasher::default();
            let build = |entries: &[(Vec<u8>, u64)]| {
                let mut s = PartitionStore::new();
                for (k, v) in entries {
                    let _ = s.apply(k.clone(), Record::put(&b"v"[..], Version::new(*v, 0, 0)));
                }
                MerkleSummary::build(&s, hasher, KeyRange::full(), 16)
            };
            let original = build(&keys);
            if !keys.is_empty() {
                let r = rotate % keys.len();
                keys.rotate_left(r);
            }
            let rotated = build(&keys);
            prop_assert_eq!(original.root(), rotated.root());
        }

        #[test]
        fn prop_equal_roots_imply_no_diff(
            keys in proptest::collection::vec(
                (proptest::collection::vec(any::<u8>(), 1..5), 0u64..4), 0..16
            ),
        ) {
            let hasher = KeyHasher::default();
            let mut s = PartitionStore::new();
            for (k, v) in &keys {
                let _ = s.apply(k.clone(), Record::put(&b"v"[..], Version::new(*v, 0, 0)));
            }
            let a = MerkleSummary::build(&s, hasher, KeyRange::full(), 8);
            let b = MerkleSummary::build(&s, hasher, KeyRange::full(), 8);
            prop_assert_eq!(diff_buckets(&a, &b), Vec::<usize>::new());
        }
    }
}
