//! Geographic distributions of query clients.
//!
//! Eq. (4) of the paper weights candidate servers by their proximity to "the
//! geographical distribution G of query clients". This module models `G` as a
//! weighted set of client regions (countries). It is deliberately
//! RNG-free — `skute-workload` turns the weights into samples — so that the
//! proximity math in `skute-economy` can consume exact expectations.

use crate::hierarchy::Topology;
use crate::location::Location;

/// A client region and its share of the query traffic.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RegionWeight {
    /// Representative client location (country granularity, see
    /// [`Location::client_in_country`]).
    pub location: Location,
    /// Non-negative traffic weight; weights need not sum to one.
    pub weight: f64,
}

/// Distribution of query clients over the geographic hierarchy.
#[derive(Debug, Clone, PartialEq)]
pub enum ClientGeo {
    /// Clients arrive uniformly from every country of the topology. The
    /// paper's simulation uses this and stipulates that the proximity weight
    /// `g_j` is exactly 1 for every server in this case.
    Uniform,
    /// All clients come from a single country.
    SingleCountry {
        /// Continent index of the hot country.
        continent: u16,
        /// Country index within the continent.
        country: u16,
    },
    /// Arbitrary weighted mixture of client regions.
    Weighted(Vec<RegionWeight>),
}

impl ClientGeo {
    /// The client regions and their weights, materialized against a
    /// topology. Weights are normalized to sum to 1.
    ///
    /// Returns an empty vector only for a `Weighted` distribution whose
    /// weights are all zero or empty.
    pub fn region_weights(&self, topology: &Topology) -> Vec<RegionWeight> {
        let raw: Vec<RegionWeight> = match self {
            ClientGeo::Uniform => topology
                .iter_countries()
                .map(|(ct, co)| RegionWeight {
                    location: Location::client_in_country(ct, co),
                    weight: 1.0,
                })
                .collect(),
            ClientGeo::SingleCountry { continent, country } => vec![RegionWeight {
                location: Location::client_in_country(*continent, *country),
                weight: 1.0,
            }],
            ClientGeo::Weighted(regions) => regions.clone(),
        };
        let total: f64 = raw.iter().map(|r| r.weight.max(0.0)).sum();
        if total <= 0.0 {
            return Vec::new();
        }
        raw.into_iter()
            .filter(|r| r.weight > 0.0)
            .map(|r| RegionWeight {
                location: r.location,
                weight: r.weight / total,
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn uniform_covers_every_country_normalized() {
        let t = Topology::paper();
        let regions = ClientGeo::Uniform.region_weights(&t);
        assert_eq!(regions.len(), 10);
        let total: f64 = regions.iter().map(|r| r.weight).sum();
        assert!((total - 1.0).abs() < 1e-12);
        for r in &regions {
            assert!((r.weight - 0.1).abs() < 1e-12);
            assert!(r.location.is_client_zone());
        }
    }

    #[test]
    fn single_country_is_a_point_mass() {
        let t = Topology::paper();
        let g = ClientGeo::SingleCountry {
            continent: 2,
            country: 1,
        };
        let regions = g.region_weights(&t);
        assert_eq!(regions.len(), 1);
        assert_eq!(regions[0].weight, 1.0);
        assert_eq!(regions[0].location.continent, 2);
        assert_eq!(regions[0].location.country, 1);
    }

    #[test]
    fn weighted_normalizes_and_drops_nonpositive() {
        let t = Topology::paper();
        let g = ClientGeo::Weighted(vec![
            RegionWeight {
                location: Location::client_in_country(0, 0),
                weight: 3.0,
            },
            RegionWeight {
                location: Location::client_in_country(1, 0),
                weight: 1.0,
            },
            RegionWeight {
                location: Location::client_in_country(2, 0),
                weight: 0.0,
            },
        ]);
        let regions = g.region_weights(&t);
        assert_eq!(regions.len(), 2);
        assert!((regions[0].weight - 0.75).abs() < 1e-12);
        assert!((regions[1].weight - 0.25).abs() < 1e-12);
    }

    #[test]
    fn empty_weighted_yields_empty() {
        let t = Topology::paper();
        assert!(ClientGeo::Weighted(Vec::new())
            .region_weights(&t)
            .is_empty());
    }
}
