//! The paper's 6-bit geographic diversity metric (§II-B).
//!
//! The distance between two servers is "represented as a 6 bit number, each
//! bit corresponding to the location parts of a server, namely continent,
//! country, data center, room, rack and server with leftmost significance.
//! The different location parts of both servers are compared one by one to
//! compute their similarity: if the location parts are equivalent, the
//! corresponding bit is set to 1, otherwise 0. A binary NOT operation is then
//! applied to the similarity to get the diversity value."
//!
//! Because a location component is only meaningfully "equivalent" when all
//! coarser components also match (rack 3 of datacenter A is not rack 3 of
//! datacenter B), similarity bits cascade: once a level differs, all finer
//! levels are treated as different. Diversity values are therefore always of
//! the form `2^m − 1`:
//!
//! | first differing level | similarity | diversity |
//! |---|---|---|
//! | none (same server)    | `111111`   | 0  |
//! | server                | `111110`   | 1  |
//! | rack                  | `111100`   | 3  |
//! | room                  | `111000`   | 7  |
//! | datacenter            | `110000`   | 15 |
//! | country               | `100000`   | 31 |
//! | continent             | `000000`   | 63 |

use crate::location::{Level, Location};

/// A diversity value in `0..=63` as produced by [`diversity`].
pub(crate) type Diversity = u8;

/// Largest possible diversity: two servers on different continents.
pub(crate) const MAX_DIVERSITY: Diversity = 0b11_1111;

/// Diversity of two locations whose coarsest differing level is `level`
/// (e.g. `Level::Country` → 31).
#[cfg(test)]
const fn diversity_between(level: Level) -> Diversity {
    // NOT of a similarity that has ones strictly above `level.bit()`.
    (1u8 << (level.bit() + 1)) - 1
}

/// The 6-bit similarity of two locations: bit `k` is set iff the locations
/// agree on the level with bit `k` *and every coarser level*.
#[inline]
pub(crate) fn similarity(a: &Location, b: &Location) -> u8 {
    let mut sim = 0u8;
    for level in Level::ALL {
        if a.component(level) == b.component(level) {
            sim |= 1 << level.bit();
        } else {
            break; // a difference at a coarse level invalidates finer matches
        }
    }
    sim
}

/// The paper's diversity metric: binary NOT of `similarity` restricted to
/// the low six bits. Symmetric, zero iff `a == b`, and monotone in the depth
/// of the first differing level.
#[inline]
pub fn diversity(a: &Location, b: &Location) -> Diversity {
    !similarity(a, b) & MAX_DIVERSITY
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn loc(ct: u16, co: u16, dc: u16, rm: u16, rk: u16, sv: u16) -> Location {
        Location::new(ct, co, dc, rm, rk, sv)
    }

    #[test]
    fn identical_servers_have_zero_diversity() {
        let a = loc(1, 2, 3, 4, 5, 6);
        assert_eq!(diversity(&a, &a), 0);
        assert_eq!(similarity(&a, &a), MAX_DIVERSITY);
    }

    #[test]
    fn paper_example_different_room() {
        // The paper's worked example: similarity 111000 → diversity 000111 = 7.
        let a = loc(0, 0, 0, 0, 0, 0);
        let b = loc(0, 0, 0, 1, 0, 0);
        assert_eq!(similarity(&a, &b), 0b11_1000);
        assert_eq!(diversity(&a, &b), 7);
    }

    #[test]
    fn diversity_ladder_matches_first_divergence() {
        let base = loc(0, 0, 0, 0, 0, 0);
        let cases = [
            (loc(1, 0, 0, 0, 0, 0), 63),
            (loc(0, 1, 0, 0, 0, 0), 31),
            (loc(0, 0, 1, 0, 0, 0), 15),
            (loc(0, 0, 0, 1, 0, 0), 7),
            (loc(0, 0, 0, 0, 1, 0), 3),
            (loc(0, 0, 0, 0, 0, 1), 1),
        ];
        for (other, expected) in cases {
            assert_eq!(diversity(&base, &other), expected, "vs {other}");
        }
    }

    #[test]
    fn equal_local_index_in_other_parent_is_not_similar() {
        // rack 3 in two different datacenters: only continent+country match.
        let a = loc(0, 0, 0, 0, 3, 0);
        let b = loc(0, 0, 1, 0, 3, 0);
        assert_eq!(diversity(&a, &b), 15);
    }

    #[test]
    fn diversity_between_constants() {
        assert_eq!(diversity_between(Level::Continent), 63);
        assert_eq!(diversity_between(Level::Country), 31);
        assert_eq!(diversity_between(Level::Datacenter), 15);
        assert_eq!(diversity_between(Level::Room), 7);
        assert_eq!(diversity_between(Level::Rack), 3);
        assert_eq!(diversity_between(Level::Server), 1);
    }

    fn arb_location() -> impl Strategy<Value = Location> {
        (0u16..4, 0u16..4, 0u16..3, 0u16..2, 0u16..3, 0u16..6)
            .prop_map(|(ct, co, dc, rm, rk, sv)| Location::new(ct, co, dc, rm, rk, sv))
    }

    proptest! {
        #[test]
        fn prop_symmetric(a in arb_location(), b in arb_location()) {
            prop_assert_eq!(diversity(&a, &b), diversity(&b, &a));
        }

        #[test]
        fn prop_zero_iff_equal(a in arb_location(), b in arb_location()) {
            prop_assert_eq!(diversity(&a, &b) == 0, a == b);
        }

        #[test]
        fn prop_in_ladder(a in arb_location(), b in arb_location()) {
            let d = diversity(&a, &b);
            prop_assert!([0u8, 1, 3, 7, 15, 31, 63].contains(&d));
        }

        #[test]
        fn prop_matches_first_divergence(a in arb_location(), b in arb_location()) {
            match a.first_divergence(&b) {
                None => prop_assert_eq!(diversity(&a, &b), 0),
                Some(level) => prop_assert_eq!(diversity(&a, &b), diversity_between(level)),
            }
        }

        #[test]
        fn prop_triangle_like_ultrametric(
            a in arb_location(), b in arb_location(), c in arb_location()
        ) {
            // The hierarchy induces an ultrametric: d(a,c) ≤ max(d(a,b), d(b,c)).
            let ab = diversity(&a, &b);
            let bc = diversity(&b, &c);
            let ac = diversity(&a, &c);
            prop_assert!(ac <= ab.max(bc));
        }
    }
}
