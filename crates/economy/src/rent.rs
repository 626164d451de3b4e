//! Eq. (1): the virtual rent price of a server.

use skute_cluster::Server;

/// The rent model of eq. (1):
/// `c = up · (1 + α·storage_usage + β·query_load)`.
///
/// `up` is the server's marginal usage price (see
/// [`skute_cluster::MarginalPrice`]); `storage_usage` and `query_load` are
/// the *current* epoch's fractions, which the paper takes as good
/// approximations for the next epoch "as they are not expected to change
/// much at very small time scales" (§II-A).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RentModel {
    /// α — storage-usage weight.
    pub(crate) alpha: f64,
    /// β — query-load weight.
    pub(crate) beta: f64,
}

impl RentModel {
    /// A rent model with the given normalizing factors.
    pub const fn new(alpha: f64, beta: f64) -> Self {
        Self { alpha, beta }
    }

    /// Eq. (1) from raw inputs.
    #[inline]
    pub(crate) fn price(&self, up: f64, storage_usage: f64, query_load: f64) -> f64 {
        up * (1.0 + self.alpha * storage_usage + self.beta * query_load)
    }

    /// Eq. (1) evaluated for a server's current meters.
    pub fn price_server(&self, server: &Server) -> f64 {
        self.price(
            server.marginal_price.price(server.monthly_cost),
            server.storage_frac(),
            server.query_load_frac(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use skute_cluster::{Capacities, Cluster, ServerSpec};
    use skute_geo::Location;

    #[test]
    fn empty_idle_server_costs_up() {
        let m = RentModel::new(2.0, 3.0);
        assert!((m.price(0.5, 0.0, 0.0) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn full_server_costs_up_times_factors() {
        let m = RentModel::new(2.0, 3.0);
        // up·(1 + 2·1 + 3·1) = 6·up
        assert!((m.price(0.5, 1.0, 1.0) - 3.0).abs() < 1e-12);
    }

    #[test]
    fn price_server_uses_meters() {
        let mut cluster = Cluster::default();
        let id = cluster.commission(ServerSpec {
            location: Location::new(0, 0, 0, 0, 0, 0),
            capacities: Capacities::paper(1000, 100.0),
            monthly_cost: 720.0, // => per-epoch share 1.0 with paper month
            confidence: 1.0,
        });
        let m = RentModel::new(1.0, 1.0);
        let idle_price = m.price_server(cluster.get(id).unwrap());
        {
            let s = cluster.get_mut(id).unwrap();
            let caps = s.capacities;
            assert!(s.usage.reserve_storage(&caps, 500));
            s.usage.queries_served = 50.0;
        }
        let busy_price = m.price_server(cluster.get(id).unwrap());
        assert!(busy_price > idle_price);
        // storage 0.5 + load 0.5 → factor 2 vs factor 1.
        assert!((busy_price / idle_price - 2.0).abs() < 1e-9);
    }

    proptest! {
        #[test]
        fn prop_price_monotone_in_load_and_storage(
            up in 0.01f64..10.0,
            s1 in 0.0f64..1.0, s2 in 0.0f64..1.0,
            q1 in 0.0f64..1.0, q2 in 0.0f64..1.0,
        ) {
            let m = RentModel::new(1.0, 1.0);
            let lo = m.price(up, s1.min(s2), q1.min(q2));
            let hi = m.price(up, s1.max(s2), q1.max(q2));
            prop_assert!(hi >= lo);
        }

        #[test]
        fn prop_price_scales_linearly_in_up(
            up in 0.01f64..10.0, s in 0.0f64..1.0, q in 0.0f64..1.0
        ) {
            let m = RentModel::new(0.7, 1.3);
            let one = m.price(1.0, s, q);
            let scaled = m.price(up, s, q);
            prop_assert!((scaled - up * one).abs() < 1e-9);
        }
    }
}
