//! Declarative experiment descriptions.

use skute_core::SkuteConfig;
use skute_geo::{ClientGeo, Topology};
use skute_workload::{InsertGenerator, LoadTrace, SlashdotTrace};

use crate::events::Schedule;

/// A load trace selected by value (so scenarios stay `Clone`).
#[derive(Debug, Clone, PartialEq)]
pub enum TraceKind {
    /// Constant mean rate.
    Constant(f64),
    /// The Fig. 4 Slashdot spike.
    Slashdot(SlashdotTrace),
}

impl LoadTrace for TraceKind {
    fn rate(&self, epoch: u64) -> f64 {
        match self {
            TraceKind::Constant(r) => *r,
            TraceKind::Slashdot(t) => t.rate(epoch),
        }
    }
}

/// One application of a scenario.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ScenarioApp {
    /// SLA replica count (the paper's apps use 2, 3, 4).
    pub(crate) replicas: usize,
    /// Initial partitions (the paper: M = 200).
    pub partitions: usize,
    /// Initial logical bytes per partition.
    pub initial_partition_bytes: u64,
}

/// A complete experiment description.
#[derive(Debug, Clone)]
pub struct Scenario {
    /// Scenario name (used in CSV/figure output).
    pub name: String,
    /// Geographic layout of the cloud.
    pub topology: Topology,
    /// Storage per server, bytes.
    pub server_storage_bytes: u64,
    /// Query capacity per server, queries/epoch.
    pub(crate) server_query_capacity: f64,
    /// Monthly cost of the cheap server class (paper: $100).
    pub(crate) cheap_cost: f64,
    /// Monthly cost of the expensive server class (paper: $125).
    pub(crate) expensive_cost: f64,
    /// Fraction of servers in the cheap class (paper: 0.7).
    pub(crate) cheap_fraction: f64,
    /// The applications sharing the cloud.
    pub apps: Vec<ScenarioApp>,
    /// Fractions of the total query load attracted by each application
    /// (normalized; paper Fig. 4: 4/7, 2/7, 1/7).
    pub load_fractions: Vec<f64>,
    /// Mean total query rate over time.
    pub trace: TraceKind,
    /// Geographic distribution of query clients.
    pub client_geo: ClientGeo,
    /// Optional storage-saturation insert stream (Fig. 5).
    pub inserts: Option<InsertGenerator>,
    /// Scheduled server arrivals/failures.
    pub schedule: Schedule,
    /// Number of epochs to simulate.
    pub epochs: u64,
    /// RNG seed (drives workload sampling and the cloud's internal RNG).
    pub seed: u64,
    /// Core configuration.
    pub config: SkuteConfig,
}

impl Scenario {
    /// True when a server index falls in the cheap cost class. The pattern
    /// is deterministic (`i mod 10 < 10·cheap_fraction`), giving exactly the
    /// paper's 70/30 split on multiples of ten.
    pub(crate) fn is_cheap(&self, server_index: usize) -> bool {
        ((server_index % 10) as f64) < self.cheap_fraction * 10.0
    }

    /// Monthly cost of the `i`-th commissioned server.
    pub(crate) fn cost_of(&self, server_index: usize) -> f64 {
        if self.is_cheap(server_index) {
            self.cheap_cost
        } else {
            self.expensive_cost
        }
    }

    /// Validates cross-field consistency.
    ///
    /// # Panics
    /// Panics when the load fractions don't match the app count, no app is
    /// defined, or the config is invalid.
    pub(crate) fn validate(&self) {
        assert!(
            !self.apps.is_empty(),
            "a scenario needs at least one application"
        );
        assert_eq!(
            self.apps.len(),
            self.load_fractions.len(),
            "one load fraction per application"
        );
        assert!(
            self.cheap_fraction >= 0.0 && self.cheap_fraction <= 1.0,
            "cheap_fraction must be in [0, 1]"
        );
        self.config.validate();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trace_kind_dispatch() {
        assert_eq!(TraceKind::Constant(5.0).rate(99), 5.0);
        let s = TraceKind::Slashdot(SlashdotTrace::paper());
        assert_eq!(s.rate(0), 3000.0);
        assert_eq!(s.rate(125), 183_000.0);
    }

    #[test]
    fn cost_classes_split_70_30() {
        let s = crate::paper::base_scenario();
        let cheap = (0..200).filter(|&i| s.is_cheap(i)).count();
        assert_eq!(cheap, 140);
        assert_eq!(s.cost_of(0), 100.0);
        assert_eq!(s.cost_of(7), 125.0);
    }
}
