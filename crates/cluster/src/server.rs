//! Physical servers.

use std::fmt;

use skute_geo::Location;

use crate::capacity::{Capacities, UsageMeter};
use crate::cost::MarginalPrice;

/// Identifier of a physical server within a [`crate::Cluster`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ServerId(pub u32);

impl fmt::Display for ServerId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "s{}", self.0)
    }
}

/// Lifecycle state of a server.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum ServerStatus {
    /// Serving traffic and hosting virtual nodes.
    Alive,
    /// Removed from the cloud (decommissioned or failed). Its data is gone;
    /// surviving replicas must re-establish availability.
    Retired,
}

/// Smoothing factor of the health EWMA: each [`Server::observe_health`]
/// sample moves the score a quarter of the way toward the observation, so
/// a freshly degraded server is priced most of the way down within one
/// gray window and recovers on the same timescale.
pub(crate) const HEALTH_EWMA_ALPHA: f64 = 0.25;

/// A physical server: a location in the geographic hierarchy, capacity
/// limits, usage meters, a real monthly cost and a confidence factor.
///
/// *Confidence* is the paper's `conf ∈ [0, 1]`: "a subjective estimation
/// based on technical factors as well as non-technical factors (e.g.
/// political and economical stability of the country)" (§II-B). It scales
/// the availability contribution of every replica pair involving this
/// server.
///
/// The effective `confidence` every consumer reads is the product of the
/// static `base_confidence` the operator commissioned the server with and
/// a dynamic `health_score` updated by an EWMA over observed
/// outcome/latency samples ([`Server::observe_health`]). Clouds that
/// never observe health leave the score at 1.0, so legacy trajectories
/// are bit-identical.
#[derive(Debug, Clone)]
pub struct Server {
    /// Server identifier.
    pub id: ServerId,
    /// Position in the geographic hierarchy.
    pub location: Location,
    /// Effective confidence factor in `[0, 1]`: `base_confidence ×
    /// health_score`. This is the value every eq.-(2)/(3)/(4) consumer
    /// reads.
    pub confidence: f64,
    /// The operator-assessed confidence the server was commissioned with
    /// (the paper's static `conf`).
    pub(crate) base_confidence: f64,
    /// EWMA over observed health samples in `[0, 1]`; 1.0 until the
    /// first observation.
    pub(crate) health_score: f64,
    /// Fixed resource limits.
    pub capacities: Capacities,
    /// Consumption against the limits.
    pub usage: UsageMeter,
    /// Real operational cost in $/month paid by the data owner.
    pub monthly_cost: f64,
    /// Marginal usage price estimator (the `up` term of eq. 1).
    pub marginal_price: MarginalPrice,
    /// Lifecycle state.
    pub(crate) status: ServerStatus,
    /// Epoch at which the server was retired, if it was.
    pub(crate) retired_epoch: Option<u64>,
}

impl Server {
    /// True when the server is alive.
    pub fn is_alive(&self) -> bool {
        self.status == ServerStatus::Alive
    }

    /// Fraction of storage used, in `[0, 1]`.
    pub fn storage_frac(&self) -> f64 {
        self.usage.storage_frac(&self.capacities)
    }

    /// Fraction of query capacity consumed this epoch, in `[0, 1]`.
    pub fn query_load_frac(&self) -> f64 {
        self.usage.query_load_frac(&self.capacities)
    }

    /// Free storage in bytes.
    pub fn storage_free(&self) -> u64 {
        self.usage.storage_free(&self.capacities)
    }

    /// Folds one health observation (`1.0` = perfect, `0.0` = unusable)
    /// into the EWMA and refreshes the effective confidence. Samples come
    /// from per-server outcome/latency measurements — in simulation,
    /// deterministic sim-time samples derived from the gray fault plan.
    pub fn observe_health(&mut self, sample: f64) {
        let sample = sample.clamp(0.0, 1.0);
        self.health_score += HEALTH_EWMA_ALPHA * (sample - self.health_score);
        self.confidence = self.base_confidence * self.health_score;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::capacity::MIB;

    fn server() -> Server {
        Server {
            id: ServerId(3),
            location: Location::new(0, 0, 0, 0, 0, 0),
            confidence: 0.9,
            base_confidence: 0.9,
            health_score: 1.0,
            capacities: Capacities::paper(1000 * MIB, 100.0),
            usage: UsageMeter::default(),
            monthly_cost: 100.0,
            marginal_price: MarginalPrice::paper(),
            status: ServerStatus::Alive,
            retired_epoch: None,
        }
    }

    #[test]
    fn alive_and_retired() {
        let mut s = server();
        assert!(s.is_alive());
        s.status = ServerStatus::Retired;
        assert!(!s.is_alive());
    }

    #[test]
    fn fractions_track_storage_and_load() {
        let mut s = server();
        assert!(s.usage.reserve_storage(&s.capacities, 500 * MIB));
        s.usage.queries_served = 100.0;
        assert!((s.storage_frac() - 0.5).abs() < 1e-12);
        assert!((s.query_load_frac() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn display_server_id() {
        assert_eq!(ServerId(17).to_string(), "s17");
    }

    #[test]
    fn health_ewma_scales_effective_confidence() {
        let mut s = server();
        assert_eq!(s.confidence, 0.9, "untouched until the first sample");
        s.observe_health(0.0);
        assert!((s.health_score - 0.75).abs() < 1e-12);
        assert!((s.confidence - 0.9 * 0.75).abs() < 1e-12);
        // Sustained degradation converges toward base × sample.
        for _ in 0..64 {
            s.observe_health(0.1);
        }
        assert!((s.confidence - 0.9 * 0.1).abs() < 1e-6);
        // Recovery converges back toward base.
        for _ in 0..64 {
            s.observe_health(1.0);
        }
        assert!((s.confidence - 0.9).abs() < 1e-6);
        // Samples are clamped to [0, 1].
        s.observe_health(7.0);
        assert!(s.confidence <= s.base_confidence + 1e-12);
    }
}
