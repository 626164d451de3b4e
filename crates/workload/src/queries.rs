//! Per-epoch query generation.

use rand::Rng;

use skute_geo::{ClientGeo, RegionWeight, Topology};

use crate::dist::{Pareto, Poisson};
use crate::trace::LoadTrace;

/// Draws the Pareto(1, 50) popularity weights the paper assigns to the
/// virtual nodes of a ring (§III-A).
pub fn pareto_popularities(rng: &mut impl Rng, partitions: usize) -> Vec<f64> {
    Pareto::paper().sample_n(rng, partitions)
}

/// One application's share of the cloud's query traffic.
#[derive(Debug, Clone)]
pub struct AppTraffic {
    /// Application index (position in the generator's fraction list).
    pub app_index: usize,
    /// Queries addressed to this application this epoch.
    pub queries: f64,
    /// Normalized client-region weights the queries arrive from.
    pub regions: Vec<RegionWeight>,
}

/// Generates per-epoch query traffic: a Poisson draw around a [`LoadTrace`]
/// rate, split across applications by fixed fractions (the Fig. 4 experiment
/// uses 4/7, 2/7, 1/7), arriving from a [`ClientGeo`].
pub struct QueryGenerator<T: LoadTrace> {
    trace: T,
    fractions: Vec<f64>,
    regions: Vec<RegionWeight>,
}

impl<T: LoadTrace> QueryGenerator<T> {
    /// Builds a generator.
    ///
    /// `fractions` must be positive and are normalized to sum to 1.
    ///
    /// # Panics
    /// Panics if `fractions` is empty or sums to zero.
    pub fn new(trace: T, fractions: &[f64], geo: &ClientGeo, topology: &Topology) -> Self {
        assert!(!fractions.is_empty(), "need at least one application");
        let total: f64 = fractions.iter().sum();
        assert!(total > 0.0, "fractions must sum to a positive value");
        Self {
            trace,
            fractions: fractions.iter().map(|f| f / total).collect(),
            regions: geo.region_weights(topology),
        }
    }

    /// Samples one epoch of traffic.
    pub fn epoch(&self, rng: &mut impl Rng, epoch: u64) -> Vec<AppTraffic> {
        let lambda = self.trace.rate(epoch);
        let total = Poisson::new(lambda.max(0.0)).sample(rng) as f64;
        self.fractions
            .iter()
            .enumerate()
            .map(|(app_index, &frac)| AppTraffic {
                app_index,
                queries: total * frac,
                regions: self.regions.clone(),
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::ConstantTrace;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn popularities_match_partition_count_and_floor() {
        let mut rng = StdRng::seed_from_u64(3);
        let pops = pareto_popularities(&mut rng, 200);
        assert_eq!(pops.len(), 200);
        assert!(pops.iter().all(|&p| p >= 50.0));
    }

    #[test]
    fn fractions_are_normalized() {
        let topology = Topology::paper();
        let g = QueryGenerator::new(
            ConstantTrace(7000.0),
            &[4.0, 2.0, 1.0],
            &ClientGeo::Uniform,
            &topology,
        );
        let mut rng = StdRng::seed_from_u64(0);
        let traffic = g.epoch(&mut rng, 0);
        assert_eq!(traffic.len(), 3);
        let total: f64 = traffic.iter().map(|t| t.queries).sum();
        assert!((traffic[0].queries / total - 4.0 / 7.0).abs() < 1e-9);
        assert!((traffic[2].queries / total - 1.0 / 7.0).abs() < 1e-9);
    }

    #[test]
    fn poisson_totals_cluster_around_lambda() {
        let topology = Topology::paper();
        let g = QueryGenerator::new(
            ConstantTrace(3000.0),
            &[1.0],
            &ClientGeo::Uniform,
            &topology,
        );
        let mut rng = StdRng::seed_from_u64(9);
        let mean: f64 = (0..500)
            .map(|e| g.epoch(&mut rng, e)[0].queries)
            .sum::<f64>()
            / 500.0;
        assert!((mean - 3000.0).abs() < 30.0, "mean {mean}");
    }

    #[test]
    fn regions_follow_client_geo() {
        let topology = Topology::paper();
        let g = QueryGenerator::new(
            ConstantTrace(100.0),
            &[1.0],
            &ClientGeo::SingleCountry {
                continent: 2,
                country: 0,
            },
            &topology,
        );
        let mut rng = StdRng::seed_from_u64(1);
        let traffic = g.epoch(&mut rng, 0);
        assert_eq!(traffic[0].regions.len(), 1);
        assert_eq!(traffic[0].regions[0].location.continent, 2);
    }

    #[test]
    #[should_panic(expected = "at least one application")]
    fn empty_fractions_rejected() {
        let topology = Topology::paper();
        let _ = QueryGenerator::new(ConstantTrace(1.0), &[], &ClientGeo::Uniform, &topology);
    }
}
