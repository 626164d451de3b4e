//! Virtual rings: the partition table of one application availability level.

use std::collections::BTreeMap;
use std::fmt;

use crate::hash::KeyHasher;
use crate::partition::{Partition, PartitionId};
use crate::token::{KeyRange, Token};

/// Identifier of a virtual ring.
///
/// "Each application uses its own virtual rings, while one ring per
/// availability level is needed" (§I): ring identity is the pair of an
/// application index and that application's availability-level index.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct RingId {
    /// Index of the owning application.
    pub app: u32,
    /// Index of the availability level within the application.
    pub level: u32,
}

impl RingId {
    /// Ring of application `app`, availability level `level`.
    pub const fn new(app: u32, level: u32) -> Self {
        Self { app, level }
    }
}

impl fmt::Display for RingId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "ring{}.{}", self.app, self.level)
    }
}

/// One virtual ring: a complete tiling of the 64-bit hash ring by
/// partitions, with O(log M) key routing and partition splitting.
///
/// Invariants maintained by every operation:
/// * partitions tile the ring exactly (every token maps to one partition);
/// * each partition's range is `(previous token, token]`;
/// * partition ids are never reused.
#[derive(Debug, Clone)]
pub struct VirtualRing {
    hasher: KeyHasher,
    /// Map from a partition's end token to its id; the BTreeMap order *is*
    /// the ring order.
    by_token: BTreeMap<Token, PartitionId>,
    /// Ranges indexed by partition id.
    ranges: std::collections::HashMap<PartitionId, KeyRange>,
    next_id: u64,
}

impl VirtualRing {
    /// Creates a ring with `partitions` equally sized partitions. The
    /// ring does not keep `_id`: its owner knows which ring it built.
    ///
    /// # Panics
    /// Panics if `partitions == 0`.
    pub fn new(_id: RingId, partitions: usize) -> Self {
        Self::with_hasher(partitions, KeyHasher::default())
    }

    /// Creates a ring that routes keys with a specific hasher, so sibling
    /// rings can scatter identical keys differently.
    ///
    /// # Panics
    /// Panics if `partitions == 0`.
    pub fn with_hasher(partitions: usize, hasher: KeyHasher) -> Self {
        assert!(
            partitions > 0,
            "a virtual ring needs at least one partition"
        );
        let mut ring = Self {
            hasher,
            by_token: BTreeMap::new(),
            ranges: std::collections::HashMap::with_capacity(partitions),
            next_id: 0,
        };
        if partitions == 1 {
            let pid = ring.alloc_id();
            ring.insert(Partition::new(pid, KeyRange::full()));
            return ring;
        }
        let step = (1u128 << 64) / partitions as u128;
        let mut prev = Token(0);
        for i in 1..=partitions {
            let end = if i == partitions {
                Token(0) // close the ring back at origin
            } else {
                Token((step * i as u128) as u64)
            };
            let pid = ring.alloc_id();
            ring.insert(Partition::new(pid, KeyRange::new(prev, end)));
            prev = end;
        }
        ring
    }

    fn alloc_id(&mut self) -> PartitionId {
        let id = PartitionId(self.next_id);
        self.next_id += 1;
        id
    }

    fn insert(&mut self, p: Partition) {
        self.by_token.insert(p.range.end, p.id);
        self.ranges.insert(p.id, p.range);
    }

    /// Number of partitions currently tiling the ring.
    #[cfg(test)]
    pub(crate) fn partition_count(&self) -> usize {
        self.by_token.len()
    }

    /// The partition responsible for `key`.
    pub fn route(&self, key: &[u8]) -> PartitionId {
        self.route_token(self.hasher.token(key))
    }

    /// The partition responsible for a raw ring position.
    pub(crate) fn route_token(&self, token: Token) -> PartitionId {
        // Owner is the first partition whose end token is ≥ the key token;
        // if none, the ring wraps to the smallest end token.
        match self.by_token.range(token..).next() {
            Some((_, &pid)) => pid,
            None => {
                let (_, &pid) = self
                    .by_token
                    .iter()
                    .next()
                    .expect("ring invariant: at least one partition");
                pid
            }
        }
    }

    /// The key range of partition `pid`, if it exists.
    #[cfg(test)]
    pub(crate) fn range_of(&self, pid: PartitionId) -> Option<KeyRange> {
        self.ranges.get(&pid).copied()
    }

    /// Iterates over all partitions in ring order.
    #[cfg(test)]
    pub(crate) fn partitions(&self) -> impl Iterator<Item = Partition> + '_ {
        self.by_token
            .iter()
            .map(move |(_, &pid)| Partition::new(pid, self.ranges[&pid]))
    }

    /// All partition ids in ring order.
    pub fn partition_ids(&self) -> Vec<PartitionId> {
        self.iter_partition_ids().collect()
    }

    /// Iterates over all partition ids in ring order, for callers that
    /// fill a reused buffer.
    pub fn iter_partition_ids(&self) -> impl Iterator<Item = PartitionId> + '_ {
        self.by_token.values().copied()
    }

    /// Splits partition `pid` into two halves, retiring its id and returning
    /// the two fresh partitions (low half first).
    ///
    /// This implements the paper's 256 MB overflow rule: "we allow a maximum
    /// partition capacity of 256MB after which the data of the partition is
    /// split into two new ones" (§III-A). Deciding *when* to split is the
    /// caller's job; this method only performs the ring surgery.
    ///
    /// Returns `None` if `pid` does not exist or its range is too narrow to
    /// split (fewer than two ring positions).
    pub fn split_partition(&mut self, pid: PartitionId) -> Option<(Partition, Partition)> {
        let range = *self.ranges.get(&pid)?;
        if range.width() < 2 {
            return None;
        }
        let (low, high) = range.split();
        self.ranges.remove(&pid);
        self.by_token.remove(&range.end);
        let low_p = Partition::new(self.alloc_id(), low);
        let high_p = Partition::new(self.alloc_id(), high);
        self.insert(low_p);
        self.insert(high_p);
        Some((low_p, high_p))
    }

    /// The hasher used for key routing.
    pub const fn hasher(&self) -> KeyHasher {
        self.hasher
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn new_ring_tiles_evenly() {
        let ring = VirtualRing::new(RingId::new(0, 0), 8);
        assert_eq!(ring.partition_count(), 8);
        let widths: Vec<u128> = ring.partitions().map(|p| p.range.width()).collect();
        let total: u128 = widths.iter().sum();
        assert_eq!(total, 1u128 << 64);
        let expect = (1u128 << 64) / 8;
        for w in widths {
            assert_eq!(w, expect);
        }
    }

    #[test]
    fn single_partition_ring_is_full() {
        let ring = VirtualRing::new(RingId::new(0, 0), 1);
        assert_eq!(ring.partition_count(), 1);
        let p = ring.partitions().next().unwrap();
        assert!(p.range.is_full());
        assert_eq!(ring.route(b"anything"), p.id);
    }

    #[test]
    fn routing_agrees_with_ranges() {
        let ring = VirtualRing::new(RingId::new(1, 2), 16);
        for i in 0..2_000u32 {
            let key = i.to_le_bytes();
            let pid = ring.route(&key);
            let range = ring.range_of(pid).unwrap();
            assert!(range.contains(ring.hasher().token(&key)));
        }
    }

    #[test]
    fn split_preserves_coverage_and_retires_id() {
        let mut ring = VirtualRing::new(RingId::new(0, 0), 4);
        let victim = ring.partition_ids()[1];
        let before: Vec<_> = (0..500u32)
            .map(|i| ring.hasher().token(&i.to_le_bytes()))
            .collect();
        let (low, high) = ring.split_partition(victim).unwrap();
        assert_eq!(ring.partition_count(), 5);
        assert!(ring.range_of(victim).is_none(), "old id retired");
        assert_ne!(low.id, victim);
        assert_ne!(high.id, victim);
        // Every token is still owned by exactly one partition whose range
        // contains it.
        for t in before {
            let pid = ring.route_token(t);
            assert!(ring.range_of(pid).unwrap().contains(t));
        }
        let total: u128 = ring.partitions().map(|p| p.range.width()).sum();
        assert_eq!(total, 1u128 << 64);
    }

    #[test]
    fn split_keys_go_to_one_of_the_halves() {
        let mut ring = VirtualRing::new(RingId::new(0, 0), 2);
        let victim = ring.partition_ids()[0];
        let keys: Vec<[u8; 4]> = (0..1000u32)
            .map(|i| i.to_le_bytes())
            .filter(|k| ring.route(k) == victim)
            .collect();
        assert!(!keys.is_empty());
        let (low, high) = ring.split_partition(victim).unwrap();
        for k in keys {
            let pid = ring.route(&k);
            assert!(
                pid == low.id || pid == high.id,
                "key stayed in the split pair"
            );
        }
    }

    #[test]
    fn split_single_full_partition() {
        let mut ring = VirtualRing::new(RingId::new(0, 0), 1);
        let only = ring.partition_ids()[0];
        let (a, b) = ring.split_partition(only).unwrap();
        assert_eq!(ring.partition_count(), 2);
        assert_eq!(a.range.width() + b.range.width(), 1u128 << 64);
    }

    #[test]
    fn split_missing_partition_is_none() {
        let mut ring = VirtualRing::new(RingId::new(0, 0), 2);
        assert!(ring.split_partition(PartitionId(999)).is_none());
    }

    #[test]
    fn ids_are_never_reused() {
        let mut ring = VirtualRing::new(RingId::new(0, 0), 2);
        let mut seen: Vec<u64> = ring.partition_ids().iter().map(|p| p.0).collect();
        for _ in 0..6 {
            let pid = ring.partition_ids()[0];
            let (a, b) = ring.split_partition(pid).unwrap();
            assert!(!seen.contains(&a.id.0));
            assert!(!seen.contains(&b.id.0));
            seen.push(a.id.0);
            seen.push(b.id.0);
        }
    }

    #[test]
    #[should_panic(expected = "at least one partition")]
    fn zero_partitions_rejected() {
        let _ = VirtualRing::new(RingId::new(0, 0), 0);
    }

    #[test]
    fn distinct_hashers_scatter_keys_differently() {
        let a = VirtualRing::with_hasher(64, KeyHasher::with_seed(1));
        let b = VirtualRing::with_hasher(64, KeyHasher::with_seed(2));
        let moved = (0..512u32)
            .filter(|i| {
                let k = i.to_le_bytes();
                a.route(&k) != b.route(&k)
            })
            .count();
        assert!(
            moved > 256,
            "different seeds should shuffle most keys, moved={moved}"
        );
    }

    proptest! {
        #[test]
        fn prop_routing_total_after_random_splits(
            partitions in 1usize..32,
            splits in proptest::collection::vec(any::<u64>(), 0..8),
            probes in proptest::collection::vec(any::<u64>(), 1..64),
        ) {
            let mut ring = VirtualRing::new(RingId::new(0, 0), partitions);
            for s in splits {
                let ids = ring.partition_ids();
                let victim = ids[(s % ids.len() as u64) as usize];
                let _ = ring.split_partition(victim);
            }
            let total: u128 = ring.partitions().map(|p| p.range.width()).sum();
            prop_assert_eq!(total, 1u128 << 64);
            for probe in probes {
                let pid = ring.route_token(Token(probe));
                let range = ring.range_of(pid).unwrap();
                prop_assert!(range.contains(Token(probe)));
            }
        }
    }
}
