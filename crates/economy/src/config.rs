//! Tunables of the virtual economy.

use crate::balance::MAX_DECISION_WINDOW;

/// Parameters of the virtual economy.
///
/// The paper introduces α and β as "normalizing factors" of eq. (1) and
/// leaves their values (as well as the money-per-query normalization of
/// eq. 5) unspecified; the defaults here are the calibration used by the
/// reproduction experiments and are swept by the rent ablation of the
/// `paper_claims` example.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EconomyConfig {
    /// α of eq. (1): weight of the storage-usage fraction in the rent.
    pub alpha: f64,
    /// β of eq. (1): weight of the query-load fraction in the rent.
    pub beta: f64,
    /// γ of eq. (5): monetary utility earned per answered query (at
    /// proximity g = 1).
    pub utility_per_query: f64,
    /// f of §II-C: number of consecutive epochs a balance must stay
    /// negative (positive) before a vnode migrates/suicides (replicates).
    /// At most `MAX_DECISION_WINDOW`, the inline window of every vnode.
    pub decision_window: usize,
    /// Monetary value of one unit of diversity in eq. (3), balancing the
    /// diversity sum against rents. Larger values favour spread over cost.
    pub diversity_unit_value: f64,
    /// Per-epoch data-consistency cost charged per extra replica and per
    /// MiB of write traffic to the partition (the "increased network cost
    /// for data consistency" of §II-C).
    pub consistency_cost_per_mib: f64,
    /// Safety margin: a vnode only replicates for profit when its mean
    /// balance exceeds this multiple of the projected extra cost.
    pub replication_hurdle: f64,
    /// Hard cap on replicas per partition, bounding runaway replication of
    /// extremely popular partitions.
    pub max_replicas: usize,
    /// Migration hysteresis in `[0, 1)`: a vnode only migrates to a server
    /// whose rent undercuts its current rent by at least this fraction.
    /// Damps herding oscillations where unpopular vnodes bounce between
    /// near-equally cheap servers every f epochs.
    pub migration_margin: f64,
}

impl EconomyConfig {
    /// Calibration used throughout the paper-reproduction experiments.
    pub fn paper() -> Self {
        Self {
            alpha: 1.0,
            beta: 1.0,
            utility_per_query: 0.001,
            decision_window: 3,
            diversity_unit_value: 0.02,
            consistency_cost_per_mib: 0.001,
            replication_hurdle: 1.5,
            max_replicas: 12,
            migration_margin: 0.1,
        }
    }

    /// Validates parameter ranges; call after hand-building a config.
    ///
    /// # Panics
    /// Panics on non-finite or out-of-range parameters.
    pub fn validate(&self) {
        assert!(
            self.alpha >= 0.0 && self.alpha.is_finite(),
            "alpha must be ≥ 0"
        );
        assert!(
            self.beta >= 0.0 && self.beta.is_finite(),
            "beta must be ≥ 0"
        );
        assert!(
            self.utility_per_query > 0.0 && self.utility_per_query.is_finite(),
            "utility_per_query must be > 0"
        );
        assert!(self.decision_window >= 1, "decision_window must be ≥ 1");
        assert!(
            self.decision_window <= MAX_DECISION_WINDOW,
            "decision_window must be ≤ MAX_DECISION_WINDOW ({MAX_DECISION_WINDOW})"
        );
        assert!(
            self.diversity_unit_value >= 0.0 && self.diversity_unit_value.is_finite(),
            "diversity_unit_value must be ≥ 0"
        );
        assert!(
            self.consistency_cost_per_mib >= 0.0,
            "consistency_cost_per_mib must be ≥ 0"
        );
        assert!(
            self.replication_hurdle >= 0.0,
            "replication_hurdle must be ≥ 0"
        );
        assert!(self.max_replicas >= 1, "max_replicas must be ≥ 1");
        assert!(
            (0.0..1.0).contains(&self.migration_margin),
            "migration_margin must be in [0, 1)"
        );
    }
}

impl Default for EconomyConfig {
    fn default() -> Self {
        Self::paper()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_config_is_valid() {
        EconomyConfig::paper().validate();
    }

    #[test]
    #[should_panic(expected = "alpha")]
    fn negative_alpha_rejected() {
        let mut c = EconomyConfig::paper();
        c.alpha = -1.0;
        c.validate();
    }

    #[test]
    #[should_panic(expected = "decision_window")]
    fn zero_window_rejected() {
        let mut c = EconomyConfig::paper();
        c.decision_window = 0;
        c.validate();
    }

    #[test]
    #[should_panic(expected = "MAX_DECISION_WINDOW")]
    fn window_past_the_inline_bound_rejected() {
        let mut c = EconomyConfig::paper();
        c.decision_window = 9;
        c.validate();
    }

    #[test]
    fn the_largest_window_is_valid() {
        let mut c = EconomyConfig::paper();
        c.decision_window = MAX_DECISION_WINDOW;
        c.validate();
    }

    #[test]
    #[should_panic(expected = "max_replicas")]
    fn zero_max_replicas_rejected() {
        let mut c = EconomyConfig::paper();
        c.max_replicas = 0;
        c.validate();
    }
}
