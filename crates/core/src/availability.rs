//! Eq. (2): the availability of a partition, and SLA threshold calibration.
//!
//! "We approximate the potential availability of a partition by means of the
//! geographical diversity of the servers that host its replicas:
//! `avail_i = Σ_i Σ_{j>i} conf_i · conf_j · diversity(s_i, s_j)`" (§II-B).
//!
//! The paper never publishes numeric thresholds; it only says the three
//! example applications offer levels "satisfied by 2, 3, 4 replicas"
//! (§III-A). [`threshold_for_replicas`] calibrates a threshold against a
//! topology so that `k` reasonably spread replicas meet the SLA while `k−1`
//! replicas — however well placed — cannot (see DESIGN.md §3.3).

use skute_geo::{diversity, Location, Topology};

/// Eq. (2): pairwise confidence-weighted diversity over a replica set given
/// as `(location, confidence)` pairs. Empty and singleton sets have zero
/// availability.
pub fn availability_of(replicas: &[(Location, f64)]) -> f64 {
    let mut total = 0.0;
    for i in 0..replicas.len() {
        for j in (i + 1)..replicas.len() {
            let (ref li, ci) = replicas[i];
            let (ref lj, cj) = replicas[j];
            total += ci * cj * f64::from(diversity(li, lj));
        }
    }
    total
}

/// The maximum availability achievable with `k` replicas on `topology`
/// (confidence 1), computed by greedy farthest-point placement over the
/// topology's servers.
///
/// Greedy is exact for the ladder-valued ultrametric diversity: spreading
/// replicas over distinct continents first, then distinct countries, etc.,
/// maximizes every pairwise term independently.
pub(crate) fn greedy_max_availability(topology: &Topology, k: usize) -> f64 {
    if k < 2 {
        return 0.0;
    }
    let servers: Vec<Location> = topology.iter_servers().collect();
    if servers.is_empty() {
        return 0.0;
    }
    let mut chosen: Vec<Location> = vec![servers[0]];
    while chosen.len() < k {
        let best = servers
            .iter()
            .filter(|s| !chosen.contains(s))
            .map(|s| {
                let gain: f64 = chosen.iter().map(|c| f64::from(diversity(c, s))).sum();
                (s, gain)
            })
            .max_by(|a, b| a.1.total_cmp(&b.1));
        match best {
            Some((s, _)) => chosen.push(*s),
            None => break, // fewer servers than k: settle for what exists
        }
    }
    let with_conf: Vec<(Location, f64)> = chosen.into_iter().map(|l| (l, 1.0)).collect();
    availability_of(&with_conf)
}

/// How far [`threshold_for_replicas`] places a threshold from the best
/// availability `k−1` replicas can reach toward the best `k` can reach.
///
/// It trades placement freedom against replica count: small values let
/// moderately spread `k`-replica sets pass, values near 1 force
/// near-optimal spreading. At 0.2, e.g. `k = 2` accepts a cross-datacenter
/// pair but rejects a same-room pair on the paper topology.
pub(crate) const AVAILABILITY_FRAC: f64 = 0.2;

/// Calibrates the availability threshold `th` for an SLA "satisfied by `k`
/// replicas": `AVAILABILITY_FRAC` of the way from the best availability
/// `k−1` replicas can reach to the best `k` replicas can reach.
///
/// # Panics
/// Panics unless `k ≥ 1`.
pub fn threshold_for_replicas(topology: &Topology, k: usize) -> f64 {
    assert!(k >= 1, "an SLA needs at least one replica");
    let below = greedy_max_availability(topology, k.saturating_sub(1));
    let at = greedy_max_availability(topology, k);
    below + AVAILABILITY_FRAC * (at - below)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use skute_geo::Location;

    /// The `i`-th server of `t` in lexicographic order.
    fn server_at(t: &Topology, i: u64) -> Location {
        t.iter_servers().nth(i as usize).unwrap()
    }

    fn loc(ct: u16, co: u16, dc: u16) -> (Location, f64) {
        (Location::new(ct, co, dc, 0, 0, 0), 1.0)
    }

    #[test]
    fn empty_and_singleton_have_zero_availability() {
        assert_eq!(availability_of(&[]), 0.0);
        assert_eq!(availability_of(&[loc(0, 0, 0)]), 0.0);
    }

    #[test]
    fn pair_availability_is_diversity() {
        // Two servers on different continents: diversity 63.
        let a = availability_of(&[loc(0, 0, 0), loc(1, 0, 0)]);
        assert_eq!(a, 63.0);
        // Different countries, same continent: 31.
        let b = availability_of(&[loc(0, 0, 0), loc(0, 1, 0)]);
        assert_eq!(b, 31.0);
    }

    #[test]
    fn confidence_scales_pairs() {
        let set = [
            (Location::new(0, 0, 0, 0, 0, 0), 0.5),
            (Location::new(1, 0, 0, 0, 0, 0), 0.8),
        ];
        assert!((availability_of(&set) - 0.5 * 0.8 * 63.0).abs() < 1e-12);
    }

    #[test]
    fn three_continents_sum_three_pairs() {
        let a = availability_of(&[loc(0, 0, 0), loc(1, 0, 0), loc(2, 0, 0)]);
        assert_eq!(a, 3.0 * 63.0);
    }

    #[test]
    fn greedy_max_on_paper_topology() {
        let t = Topology::paper(); // 5 continents available
        assert_eq!(greedy_max_availability(&t, 0), 0.0);
        assert_eq!(greedy_max_availability(&t, 1), 0.0);
        assert_eq!(greedy_max_availability(&t, 2), 63.0);
        assert_eq!(greedy_max_availability(&t, 3), 3.0 * 63.0);
        assert_eq!(greedy_max_availability(&t, 4), 6.0 * 63.0);
        assert_eq!(greedy_max_availability(&t, 5), 10.0 * 63.0);
        // A 6th replica must reuse a continent: 5 continent-pairs at 63
        // become 10, plus 5 pairs... compute: 6 replicas on 5 continents:
        // one continent has 2 (different countries → 31), cross pairs 14×63.
        assert_eq!(greedy_max_availability(&t, 6), 14.0 * 63.0 + 31.0);
    }

    #[test]
    fn thresholds_separate_k_from_k_minus_1() {
        let t = Topology::paper();
        for k in 2..=5 {
            let th = threshold_for_replicas(&t, k);
            assert!(
                th > greedy_max_availability(&t, k - 1),
                "k−1 replicas can never satisfy the SLA"
            );
            assert!(
                th <= greedy_max_availability(&t, k),
                "k well-placed replicas must satisfy the SLA"
            );
        }
    }

    #[test]
    fn paper_thresholds_accept_reasonable_spreads() {
        let t = Topology::paper();
        // k = 2 at frac 0.2: th = 12.6; a cross-datacenter pair (15) passes,
        // a same-room pair (≤7) fails.
        let th2 = threshold_for_replicas(&t, 2);
        assert!(availability_of(&[loc(0, 0, 0), loc(0, 0, 1)]) >= th2);
        assert!(availability_of(&[loc(0, 0, 0), loc(0, 0, 0)]) < th2);
        // k = 3: three countries on one continent (3×31) passes, any two
        // replicas fail.
        let th3 = threshold_for_replicas(&t, 3);
        assert!(availability_of(&[loc(0, 0, 0), loc(0, 1, 0), loc(1, 0, 0)]) >= th3);
        assert!(availability_of(&[loc(0, 0, 0), loc(4, 1, 1)]) < th3);
    }

    #[test]
    fn greedy_handles_k_beyond_cluster() {
        let t = Topology::builder().continents(2).build(); // 2 servers
        let a2 = greedy_max_availability(&t, 2);
        let a5 = greedy_max_availability(&t, 5);
        assert_eq!(a2, 63.0);
        assert_eq!(a5, a2, "cannot place more replicas than servers");
    }

    proptest! {
        #[test]
        fn prop_availability_monotone_in_added_replicas(
            n in 2usize..6,
            extra_ct in 0u16..5,
        ) {
            let t = Topology::paper();
            let mut set: Vec<(Location, f64)> = (0..n as u64)
                .map(|i| (server_at(&t, i * 37 % 200), 1.0))
                .collect();
            let before = availability_of(&set);
            set.push((Location::new(extra_ct, 0, 0, 0, 0, 0), 1.0));
            let after = availability_of(&set);
            prop_assert!(after >= before);
        }

        #[test]
        fn prop_availability_permutation_invariant(perm_seed in 0usize..24) {
            let t = Topology::paper();
            let mut set: Vec<(Location, f64)> =
                vec![(server_at(&t, 0), 1.0), (server_at(&t, 57), 0.9), (server_at(&t, 123), 0.8), (server_at(&t, 199), 1.0)];
            let base = availability_of(&set);
            let rot = perm_seed % set.len();
            set.rotate_left(rot);
            if perm_seed % 2 == 0 {
                set.swap(0, 1);
            }
            prop_assert!((availability_of(&set) - base).abs() < 1e-9);
        }

        #[test]
        fn prop_greedy_monotone_in_k(k in 2usize..8) {
            let t = Topology::paper();
            prop_assert!(
                greedy_max_availability(&t, k) >= greedy_max_availability(&t, k - 1)
            );
        }
    }
}
