//! Stable key hashing for ring placement.
//!
//! Keys must hash identically across processes and program runs (replicas of
//! a partition are resolved by hash), so we implement a fixed algorithm
//! rather than rely on `std`'s randomly seeded `DefaultHasher`: FNV-1a over
//! the key bytes followed by a SplitMix64 finalizer to break up FNV's weak
//! avalanche on short keys.

use crate::token::Token;

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// FNV-1a over `bytes` with an optional seed folded into the initial state.
#[inline]
fn fnv1a(seed: u64, bytes: &[u8]) -> u64 {
    let mut h = FNV_OFFSET ^ seed.wrapping_mul(FNV_PRIME);
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(FNV_PRIME);
    }
    h
}

/// SplitMix64 finalizer: a fast, full-avalanche bijection on `u64`.
#[inline]
fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// A seedable key hasher. Different seeds give statistically independent
/// placements, which lets distinct virtual rings spread the *same* keys over
/// different partitions if desired.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct KeyHasher {
    seed: u64,
}

impl KeyHasher {
    /// A hasher with the given seed.
    pub const fn with_seed(seed: u64) -> Self {
        Self { seed }
    }

    /// The 64-bit hash of `key`.
    #[inline]
    pub fn hash(&self, key: &[u8]) -> u64 {
        splitmix64(fnv1a(self.seed, key))
    }

    /// The ring token of `key`.
    #[inline]
    pub fn token(&self, key: &[u8]) -> Token {
        Token(self.hash(key))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn hashing_is_deterministic() {
        let h = KeyHasher::default();
        assert_eq!(h.hash(b"user:42"), h.hash(b"user:42"));
        assert_eq!(
            KeyHasher::default().token(b"user:42"),
            KeyHasher::default().token(b"user:42")
        );
    }

    #[test]
    fn different_keys_differ() {
        let h = KeyHasher::default();
        assert_ne!(h.hash(b"a"), h.hash(b"b"));
        assert_ne!(h.hash(b""), h.hash(b"\0"));
    }

    #[test]
    fn seeds_decorrelate_placement() {
        let a = KeyHasher::with_seed(1);
        let b = KeyHasher::with_seed(2);
        let differing = (0..256u32)
            .filter(|i| a.hash(&i.to_le_bytes()) != b.hash(&i.to_le_bytes()))
            .count();
        assert_eq!(differing, 256);
    }

    #[test]
    fn distribution_is_roughly_uniform_over_buckets() {
        // 16 buckets, 16k sequential keys: each bucket should get 1024 ± 25%.
        let h = KeyHasher::default();
        let mut buckets = [0u32; 16];
        for i in 0..16_384u32 {
            let idx = (h.hash(&i.to_le_bytes()) >> 60) as usize;
            buckets[idx] += 1;
        }
        for (i, &count) in buckets.iter().enumerate() {
            assert!(
                (768..=1280).contains(&count),
                "bucket {i} has skewed count {count}"
            );
        }
    }

    proptest! {
        #[test]
        fn prop_deterministic(key in proptest::collection::vec(any::<u8>(), 0..64)) {
            prop_assert_eq!(KeyHasher::default().token(&key), KeyHasher::default().token(&key));
        }

        #[test]
        fn prop_avalanche_on_single_bit(key in proptest::collection::vec(any::<u8>(), 1..32)) {
            let mut flipped = key.clone();
            flipped[0] ^= 1;
            let a = KeyHasher::default().token(&key).0;
            let b = KeyHasher::default().token(&flipped).0;
            // At least a quarter of the 64 bits should differ on average;
            // require a loose lower bound that practically never fails.
            prop_assert!((a ^ b).count_ones() >= 8);
        }
    }
}
