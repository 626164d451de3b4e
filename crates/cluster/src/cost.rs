//! The real-rent cost model and the marginal usage price `up`.
//!
//! Eq. (1) prices an epoch of a server as
//! `c = up · (1 + α·storage_usage + β·query_load)` where `up` — the
//! *marginal usage price* — "can be calculated by the total monthly real
//! rent paid by virtual nodes and the mean usage of the server in the
//! previous month" (§II-A).
//!
//! Because every virtual node pays rent **every epoch it occupies the
//! server** (not per unit of use), the consistent amortization of the
//! monthly real rent is the flat per-epoch share `monthly_cost /
//! epochs_per_month`; the congestion-dependence of eq. (1) comes entirely
//! from the α/β terms. This is the default.
//!

/// Estimator of the marginal usage price `up` of eq. (1).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MarginalPrice {
    /// Number of epochs that make up one (real-rent) month.
    epochs_per_month: u32,
}

impl MarginalPrice {
    /// Defaults used throughout the paper reproduction: 720 epochs/month
    /// (hourly epochs), flat amortization.
    pub(crate) fn paper() -> Self {
        Self {
            epochs_per_month: 720,
        }
    }

    /// The marginal usage price `up` for a server with the given real
    /// monthly cost.
    pub fn price(&self, monthly_cost: f64) -> f64 {
        monthly_cost / f64::from(self.epochs_per_month)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flat_price_is_plain_rent_share() {
        let mp = MarginalPrice::paper();
        assert!((mp.price(720.0) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn more_expensive_server_has_higher_up() {
        let mp = MarginalPrice::paper();
        assert!(mp.price(125.0) > mp.price(100.0));
    }
}
