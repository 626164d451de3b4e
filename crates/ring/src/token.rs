//! Ring positions and wrap-around key ranges.

use std::fmt;

/// A position on the 64-bit hash ring.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Token(pub u64);

impl Token {
    /// The token halfway around the arc from `start` (exclusive) to `self`
    /// (inclusive), used when splitting a partition in two equal halves.
    /// Wrap-around arcs are handled; the arc must contain at least two
    /// positions for the midpoint to be distinct from both ends.
    pub(crate) fn midpoint_from(self, start: Token) -> Token {
        let width = self.0.wrapping_sub(start.0); // arc length, wraps correctly
        Token(start.0.wrapping_add(width / 2))
    }
}

impl fmt::Display for Token {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:#018x}", self.0)
    }
}

impl From<u64> for Token {
    fn from(v: u64) -> Self {
        Token(v)
    }
}

/// A half-open arc `(start, end]` on the ring, as in the paper: "a virtual
/// node holds data for the range of keys in (previous token, token]".
///
/// When `start == end` the range covers the **entire ring** (the single
/// partition case), not the empty set; an empty range is never useful on a
/// ring of partitions.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct KeyRange {
    /// Exclusive start of the arc (the previous partition's token).
    pub(crate) start: Token,
    /// Inclusive end of the arc (this partition's token).
    pub(crate) end: Token,
}

impl KeyRange {
    /// The arc `(start, end]`.
    pub const fn new(start: Token, end: Token) -> Self {
        Self { start, end }
    }

    /// The range covering the whole ring.
    pub(crate) const fn full() -> Self {
        Self {
            start: Token(0),
            end: Token(0),
        }
    }

    /// True when this range covers the whole ring.
    pub(crate) const fn is_full(&self) -> bool {
        self.start.0 == self.end.0
    }

    /// Whether `token` falls inside `(start, end]`, accounting for
    /// wrap-around arcs.
    pub fn contains(&self, token: Token) -> bool {
        if self.is_full() {
            return true;
        }
        if self.start < self.end {
            token > self.start && token <= self.end
        } else {
            // wrap-around: (start, MAX] ∪ [MIN, end]
            token > self.start || token <= self.end
        }
    }

    /// Number of ring positions in the range (as u128 so the full ring fits).
    pub(crate) fn width(&self) -> u128 {
        if self.is_full() {
            1u128 << 64
        } else {
            u128::from(self.end.0.wrapping_sub(self.start.0))
        }
    }

    /// Splits the range into two contiguous halves `(start, mid]` and
    /// `(mid, end]`.
    ///
    /// # Panics
    /// Panics if the range holds fewer than two positions and cannot split.
    pub(crate) fn split(&self) -> (KeyRange, KeyRange) {
        assert!(
            self.width() >= 2,
            "cannot split a range of width {}",
            self.width()
        );
        let mid = if self.is_full() {
            Token(self.start.0.wrapping_add(u64::MAX / 2).wrapping_add(1))
        } else {
            self.end.midpoint_from(self.start)
        };
        (KeyRange::new(self.start, mid), KeyRange::new(mid, self.end))
    }
}

impl fmt::Display for KeyRange {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "({}, {}]", self.start, self.end)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn contains_simple_arc() {
        let r = KeyRange::new(Token(10), Token(20));
        assert!(!r.contains(Token(10)), "start is exclusive");
        assert!(r.contains(Token(11)));
        assert!(r.contains(Token(20)), "end is inclusive");
        assert!(!r.contains(Token(21)));
        assert!(!r.contains(Token(0)));
    }

    #[test]
    fn contains_wraparound_arc() {
        let r = KeyRange::new(Token(u64::MAX - 5), Token(5));
        assert!(r.contains(Token(u64::MAX)));
        assert!(r.contains(Token(0)));
        assert!(r.contains(Token(5)));
        assert!(!r.contains(Token(6)));
        assert!(!r.contains(Token(u64::MAX - 5)));
    }

    #[test]
    fn full_range_contains_everything() {
        let r = KeyRange::full();
        assert!(r.is_full());
        for t in [Token(0), Token(1), Token(u64::MAX), Token(u64::MAX / 2)] {
            assert!(r.contains(t));
        }
        assert_eq!(r.width(), 1u128 << 64);
    }

    #[test]
    fn split_full_ring_covers_everything() {
        let (a, b) = KeyRange::full().split();
        assert!(!a.is_full());
        assert!(!b.is_full());
        assert_eq!(a.width() + b.width(), 1u128 << 64);
        for t in [Token(0), Token(1), Token(u64::MAX / 2), Token(u64::MAX)] {
            assert!(a.contains(t) ^ b.contains(t), "exactly one half holds {t}");
        }
    }

    #[test]
    fn split_simple_range_is_exact_partition() {
        let r = KeyRange::new(Token(100), Token(200));
        let (a, b) = r.split();
        assert_eq!(a, KeyRange::new(Token(100), Token(150)));
        assert_eq!(b, KeyRange::new(Token(150), Token(200)));
        assert_eq!(a.width() + b.width(), r.width());
    }

    #[test]
    fn split_wraparound_range() {
        let r = KeyRange::new(Token(u64::MAX - 9), Token(10));
        let (a, b) = r.split();
        assert_eq!(a.width() + b.width(), r.width());
        for off in 1..=20u64 {
            let t = Token((u64::MAX - 9).wrapping_add(off));
            assert!(a.contains(t) ^ b.contains(t));
        }
    }

    #[test]
    #[should_panic(expected = "cannot split")]
    fn split_unit_range_panics() {
        let _ = KeyRange::new(Token(5), Token(6)).split();
    }

    #[test]
    fn midpoint_wraps() {
        let mid = Token(4).midpoint_from(Token(u64::MAX - 3));
        // arc length 8, half 4 → MAX-3 + 4 wraps to 0
        assert_eq!(mid, Token(0));
    }

    proptest! {
        #[test]
        fn prop_split_partitions_range(start in any::<u64>(), len in 2u64..) {
            let r = KeyRange::new(Token(start), Token(start.wrapping_add(len)));
            let (a, b) = r.split();
            prop_assert_eq!(a.width() + b.width(), r.width());
            // Sample positions across the arc and check exclusive coverage.
            for i in [0u64, 1, len / 2, len - 1] {
                let t = Token(start.wrapping_add(1).wrapping_add(i % len));
                prop_assert!(r.contains(t));
                prop_assert!(a.contains(t) ^ b.contains(t));
            }
        }

        #[test]
        fn prop_membership_partition_of_two_ranges(
            cut1 in any::<u64>(), cut2 in any::<u64>(), probe in any::<u64>()
        ) {
            prop_assume!(cut1 != cut2);
            let a = KeyRange::new(Token(cut1), Token(cut2));
            let b = KeyRange::new(Token(cut2), Token(cut1));
            // Two complementary arcs tile the ring.
            prop_assert!(a.contains(Token(probe)) ^ b.contains(Token(probe)));
        }
    }
}
