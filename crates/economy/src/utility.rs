//! Eq. (5): the utility a virtual node earns from answered queries.
//!
//! "Each query creates a utility value for the virtual node, which can be
//! assumed to be proportional to the size of the query reply and inversely
//! proportional to the average distance of the client locations from the
//! server of the virtual node" (§II-C). We therefore compute
//! `u = γ · queries · g`, where `g` is the proximity weight of eq. (4)
//! (large when close): utility *grows* with proximity. Eq. (5)'s phrasing
//! "divided by the geographic proximity" contradicts the quoted prose and is
//! treated as a typo (see README, "How this code reads the paper").

/// Utility earned by a vnode that answered `queries` queries at proximity
/// `g`, with `gamma` the monetary normalization (money per query).
#[inline]
pub fn utility(queries: f64, g: f64, gamma: f64) -> f64 {
    gamma * queries * g
}

/// Applies the paper's utility floor: "at the end of an epoch, the virtual
/// node agent sets \[the\] lowest utility value u(pop, g) to the current
/// lowest virtual rent price" (§II-C), so a vnode already sitting on the
/// cheapest server never accumulates a negative streak and migrates
/// indefinitely.
#[inline]
pub fn floored_utility(raw_utility: f64, min_board_rent: Option<f64>) -> f64 {
    match min_board_rent {
        Some(floor) => raw_utility.max(floor),
        None => raw_utility,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn utility_scales_with_queries_and_proximity() {
        assert_eq!(utility(100.0, 1.0, 0.01), 1.0);
        assert_eq!(utility(100.0, 2.0, 0.01), 2.0);
        assert_eq!(utility(0.0, 5.0, 0.01), 0.0);
    }

    #[test]
    fn floor_lifts_low_utility() {
        assert_eq!(floored_utility(0.1, Some(0.5)), 0.5);
        assert_eq!(floored_utility(0.9, Some(0.5)), 0.9);
        assert_eq!(floored_utility(0.1, None), 0.1);
    }

    #[test]
    fn floored_vnode_on_cheapest_server_breaks_even() {
        // A vnode with zero queries on the cheapest server (rent = floor)
        // has balance u − c = 0, not negative: it stops migrating.
        let min_rent = 0.2;
        let u = floored_utility(utility(0.0, 1.0, 0.001), Some(min_rent));
        let balance = u - min_rent;
        assert_eq!(balance, 0.0);
    }

    proptest! {
        #[test]
        fn prop_utility_monotone_in_each_arg(
            q in 0.0f64..1e6, g in 0.0f64..10.0, gamma in 1e-6f64..1.0, dq in 0.0f64..100.0
        ) {
            prop_assert!(utility(q + dq, g, gamma) >= utility(q, g, gamma));
            prop_assert!(utility(q, g + 0.1, gamma) >= utility(q, g, gamma));
        }

        #[test]
        fn prop_floor_is_lower_bound(u in -10.0f64..10.0, floor in 0.0f64..5.0) {
            let v = floored_utility(u, Some(floor));
            prop_assert!(v >= floor);
            prop_assert!(v >= u);
            prop_assert!(v == u || v == floor);
        }
    }
}
