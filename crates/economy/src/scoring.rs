//! Eq. (3) and (4): candidate-server scoring and client proximity.
//!
//! Eq. (4) weighs clients and servers at country granularity (§III-A): a
//! client counts by its `(continent, country)` and a server by its
//! country, whatever their finer location levels. The diversity between
//! the two is then a function of the two countries alone
//! (`zone_diversity`), so every server of a country carries the same
//! weight and each weight is memoized once per server country.

use skute_geo::{diversity, Location, Topology};

/// Query volume observed from one client region for one partition — the
/// `q_l` of eq. (4).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RegionQueries {
    /// The client region (country granularity: finer location levels do
    /// not change its weight).
    pub location: Location,
    /// Queries received from this region during the epoch.
    pub queries: f64,
}

/// The eq.-(4) diversity of a client country to a server country: 15 in
/// the same country (a country's clients sit in a synthetic datacenter no
/// server shares), 31 in the same continent, 63 across continents.
#[inline]
fn zone_diversity(client: (u16, u16), server: (u16, u16)) -> f64 {
    if client.0 != server.0 {
        63.0
    } else if client.1 != server.1 {
        31.0
    } else {
        15.0
    }
}

/// The client-proximity weight `g_j` of server `server` for a partition
/// whose epoch queries came from `regions`: [`ProximityCache::g`] of a
/// fresh cache.
///
/// Computed as eq. (4) normalized by eq. (4) evaluated with the same total
/// query volume spread uniformly over all countries of `topology`: under a
/// uniform client geography the weight is exactly 1 for every server, as the
/// paper stipulates (§III-A), and regionally skewed traffic scales servers
/// near the traffic above 1 and far servers below 1.
///
/// A client counts by its country and the server by its country, so a
/// client or server location weighs exactly as
/// [`Location::client_in_country`] of its country would. The sums run over
/// `regions` in slice order: a mix naming one country twice weighs as the
/// mix with the two merged, up to the association of the sums. With no
/// queries at all the weight is neutral (1).
pub fn proximity(regions: &[RegionQueries], server: &Location, topology: &Topology) -> f64 {
    ProximityCache::new().g(regions, server, topology)
}

/// The one eq.-(4) evaluator: proximity weights of one fixed region mix,
/// memoized per server country.
///
/// Eq. (4) weighs a server by its `(continent, country)` prefix alone
/// (see [`proximity`]), so one partition's delivery and decision phases,
/// which evaluate proximity for every replica and every feasible candidate
/// server, need one evaluation per server country; this cache holds them
/// and nothing else. Each miss sums eq. (4) over the mix it is handed.
///
/// The caller owns invalidation: [`ProximityCache::clear`] must run
/// whenever the region mix it was filled from changes (`SkuteCloud` clears
/// per-partition caches at epoch start and before every query delivery).
/// A clear keeps the buffer's capacity, so a partition refills its cache
/// every epoch without allocating.
#[derive(Debug, Clone, Default)]
pub struct ProximityCache {
    /// The memoized weight per server country.
    entries: Vec<((u16, u16), f64)>,
}

impl ProximityCache {
    /// An empty cache.
    pub fn new() -> Self {
        Self::default()
    }

    /// Drops every memoized weight (the region mix changed), keeping the
    /// buffer.
    pub fn clear(&mut self) {
        self.entries.clear();
    }

    /// True when nothing is memoized yet.
    #[cfg(test)]
    pub(crate) fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The proximity weight of `server` for `regions`, memoized by the
    /// server's country: eq. (4) over the mix, normalized by eq. (4) under
    /// the uniform split of the same total, each sum accumulated in a fixed
    /// order (the mix in slice order, the uniform baseline in
    /// [`Topology::iter_countries`] order).
    pub fn g(&mut self, regions: &[RegionQueries], server: &Location, topology: &Topology) -> f64 {
        // An entry exists only under a mix with queries.
        let key = server.country_key();
        if let Some(&(_, g)) = self.entries.iter().find(|(k, _)| *k == key) {
            return g;
        }
        let (mut total, mut weighted) = (0.0, 0.0);
        for r in regions {
            total += r.queries;
            weighted += r.queries * zone_diversity(r.location.country_key(), key);
        }
        if total <= 0.0 {
            return 1.0;
        }
        let raw = total / (1.0 + weighted);
        let per = total / topology.country_count() as f64;
        let (mut uniform_total, mut weighted_uniform) = (0.0, 0.0);
        for country in topology.iter_countries() {
            uniform_total += per;
            weighted_uniform += per * zone_diversity(country, key);
        }
        let baseline = uniform_total / (1.0 + weighted_uniform);
        let g = if baseline <= 0.0 { 1.0 } else { raw / baseline };
        self.entries.push((key, g));
        g
    }
}

/// Eq. (3): the net benefit of adding candidate server `candidate` to a
/// replica set currently hosted at `existing`:
///
/// `score_j = Σ_k g_j · conf_j · diversity(s_k, s_j) · v − c_j`
///
/// where `v` (`diversity_unit_value`) converts diversity units to money and
/// `c_j` is the candidate's posted virtual rent. The caller picks the
/// arg-max over candidates: availability rises as much as possible at
/// minimum cost, and the proximity factor simultaneously pulls data towards
/// its clients.
pub fn candidate_score(
    existing: &[Location],
    candidate: &Location,
    candidate_confidence: f64,
    candidate_rent: f64,
    g_candidate: f64,
    diversity_unit_value: f64,
) -> f64 {
    let diversity_sum: f64 = existing
        .iter()
        .map(|s| f64::from(diversity(s, candidate)))
        .sum();
    g_candidate * candidate_confidence * diversity_sum * diversity_unit_value - candidate_rent
}
#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The `i`-th server of `t` in lexicographic order.
    fn server_at(t: &Topology, i: u64) -> Location {
        t.iter_servers().nth(i as usize).unwrap()
    }

    fn topo() -> Topology {
        Topology::paper()
    }

    /// Raw eq. (4) over a `(queries, location)` stream by per-location
    /// diversity, `Σ_l q_l / (1 + Σ_l q_l · diversity(l, s_j))`, summed in
    /// stream order.
    fn raw_g_over<I>(pairs: I, server: &Location) -> f64
    where
        I: Iterator<Item = (f64, Location)> + Clone,
    {
        let total: f64 = pairs.clone().map(|(q, _)| q).sum();
        if total <= 0.0 {
            return 0.0;
        }
        let weighted: f64 = pairs
            .map(|(q, l)| q * f64::from(diversity(&l, server)))
            .sum();
        total / (1.0 + weighted)
    }

    /// The per-location reference for [`proximity`]: raw eq. (4) over
    /// `regions`, normalized by raw eq. (4) over the countries' client
    /// zones under the uniform split. On a duplicate-free mix of
    /// country-zone clients and a real server every diversity is its
    /// countries' [`zone_diversity`], so it equals the kernel by bits.
    fn general_scan(regions: &[RegionQueries], server: &Location, t: &Topology) -> f64 {
        let total: f64 = regions.iter().map(|r| r.queries).sum();
        if total <= 0.0 {
            return 1.0;
        }
        let per = total / t.country_count() as f64;
        let zones = t
            .iter_countries()
            .map(move |(ct, co)| (per, Location::client_in_country(ct, co)));
        let baseline = raw_g_over(zones, server);
        if baseline <= 0.0 {
            return 1.0;
        }
        raw_g_over(regions.iter().map(|r| (r.queries, r.location)), server) / baseline
    }

    #[test]
    fn uniform_clients_give_unit_proximity_everywhere() {
        let t = topo();
        let total = 3000.0;
        let per = total / 10.0;
        let regions: Vec<RegionQueries> = t
            .iter_countries()
            .map(|(ct, co)| RegionQueries {
                location: Location::client_in_country(ct, co),
                queries: per,
            })
            .collect();
        for i in [0u64, 57, 123, 199] {
            let server = server_at(&t, i);
            let g = proximity(&regions, &server, &t);
            assert!((g - 1.0).abs() < 1e-12, "server {i}: g = {g}");
        }
    }

    #[test]
    fn no_queries_is_neutral() {
        let t = topo();
        let server = server_at(&t, 0);
        assert_eq!(proximity(&[], &server, &t), 1.0);
    }

    #[test]
    fn local_traffic_boosts_local_servers() {
        let t = topo();
        let regions = [RegionQueries {
            location: Location::client_in_country(0, 0),
            queries: 1000.0,
        }];
        let local = server_at(&t, 0); // continent 0, country 0
        let remote = server_at(&t, 199); // continent 4, country 1
        let g_local = proximity(&regions, &local, &t);
        let g_remote = proximity(&regions, &remote, &t);
        assert!(g_local > 1.0, "g_local = {g_local}");
        assert!(g_remote < 1.0, "g_remote = {g_remote}");
        assert!(g_local > g_remote);
    }

    #[test]
    fn candidate_score_prefers_diverse_then_cheap() {
        let t = topo();
        let existing = vec![server_at(&t, 0)];
        let same_rack = server_at(&t, 1);
        let other_continent = server_at(&t, 199);
        let v = 0.02;
        let s_near = candidate_score(&existing, &same_rack, 1.0, 0.2, 1.0, v);
        let s_far = candidate_score(&existing, &other_continent, 1.0, 0.2, 1.0, v);
        assert!(s_far > s_near, "diversity dominates at equal rent");
        // Between two equally diverse candidates the cheaper one wins.
        let other_continent_b = server_at(&t, 198);
        let s_far_cheap = candidate_score(&existing, &other_continent_b, 1.0, 0.1, 1.0, v);
        assert!(s_far_cheap > s_far);
    }

    #[test]
    fn zero_confidence_candidate_scores_negative_rent() {
        let t = topo();
        let existing = vec![server_at(&t, 0)];
        let cand = server_at(&t, 199);
        let s = candidate_score(&existing, &cand, 0.0, 0.3, 1.0, 0.02);
        assert!((s - (-0.3)).abs() < 1e-12);
    }

    #[test]
    fn empty_replica_set_scores_pure_rent() {
        let t = topo();
        let cand = server_at(&t, 5);
        let s = candidate_score(&[], &cand, 1.0, 0.25, 1.0, 0.02);
        assert!((s - (-0.25)).abs() < 1e-12);
    }

    #[test]
    fn cache_matches_direct_proximity_and_collapses_countries() {
        let t = topo();
        let regions = [
            (Location::client_in_country(0, 0), 900.0),
            (Location::client_in_country(2, 1), 100.0),
        ]
        .map(|(location, queries)| RegionQueries { location, queries });
        let mut cache = ProximityCache::new();
        for (i, server) in t.iter_servers().enumerate() {
            let direct = proximity(&regions, &server, &t);
            let cached = cache.g(&regions, &server, &t);
            assert_eq!(cached.to_bits(), direct.to_bits(), "server {i}");
            assert_eq!(
                direct.to_bits(),
                general_scan(&regions, &server, &t).to_bits(),
                "server {i}"
            );
        }
        // 200 servers share 10 countries: the cache holds 10 entries.
        assert_eq!(cache.entries.len(), 10);
        assert!(!cache.is_empty());
        // Re-querying stays identical; clearing resets and keeps the
        // buffer.
        let s = server_at(&t, 3);
        assert_eq!(cache.g(&regions, &s, &t), proximity(&regions, &s, &t));
        let capacity = cache.entries.capacity();
        cache.clear();
        assert!(cache.is_empty());
        assert_eq!(cache.entries.capacity(), capacity);
    }

    #[test]
    fn many_country_mixes_keep_the_analytic_kernel() {
        // Regression: mixes with more than 24 distinct client countries
        // used to abandon the analytic per-country kernel for the general
        // per-location scan (and defeated the per-country memoization).
        let t = topo();
        let regions: Vec<RegionQueries> = (0..30u16)
            .map(|i| RegionQueries {
                location: Location::client_in_country(i % 7, i),
                queries: 100.0 + f64::from(i),
            })
            .collect();
        // The cache stays bit-for-bit identical to the direct evaluation
        // and still collapses to one entry per server country.
        let mut cache = ProximityCache::new();
        for i in 0..200u64 {
            let server = server_at(&t, i);
            let direct = proximity(&regions, &server, &t);
            let cached = cache.g(&regions, &server, &t);
            assert_eq!(cached.to_bits(), direct.to_bits(), "server {i}");
        }
        assert_eq!(cache.entries.len(), 10);
        // And on a duplicate-free mix the analytic value agrees with the
        // general per-location scan bit for bit.
        let server = server_at(&t, 42);
        assert_eq!(
            proximity(&regions, &server, &t).to_bits(),
            general_scan(&regions, &server, &t).to_bits()
        );
        // A duplicated country weighs as its merged mass, up to the
        // association of the sums, and the cache still answers the direct
        // evaluation's bits.
        let mut dup = regions.clone();
        dup.push(RegionQueries {
            location: Location::client_in_country(29 % 7, 29),
            queries: 50.0,
        });
        let mut merged = regions.clone();
        merged[29].queries += 50.0;
        let d = proximity(&dup, &server, &t);
        let m = proximity(&merged, &server, &t);
        assert!((d - m).abs() <= 1e-12 * m, "{d} vs {m}");
        cache.clear();
        assert_eq!(cache.g(&dup, &server, &t).to_bits(), d.to_bits());
    }

    #[test]
    fn a_client_location_weighs_as_its_country() {
        // Eq. (4) counts a client by its country: one pinned to a rack of
        // continent 2, country 1 weighs exactly as that country's client
        // zone on every server, and the cache keeps one entry per server
        // country.
        let t = topo();
        let rack = Location::new(2, 1, 0, 0, 1, 0);
        let mix = |client: Location| {
            [
                (Location::client_in_country(0, 0), 700.0),
                (client, 200.0),
                (Location::client_in_country(4, 0), 100.0),
            ]
            .map(|(location, queries)| RegionQueries { location, queries })
        };
        let regions = mix(rack);
        let by_country = mix(Location::client_in_country(2, 1));
        let mut cache = ProximityCache::new();
        for server in t.iter_servers() {
            let direct = proximity(&regions, &server, &t);
            let country = proximity(&by_country, &server, &t);
            assert_eq!(direct.to_bits(), country.to_bits(), "server {server}");
            let cached = cache.g(&regions, &server, &t);
            assert_eq!(cached.to_bits(), direct.to_bits(), "server {server}");
        }
        assert_eq!(cache.entries.len(), 10);
        // The server at the client's own rack weighs as its country
        // siblings, from the same entry.
        let sibling = Location::new(2, 1, 1, 0, 0, 0);
        assert_eq!(
            cache.g(&regions, &rack, &t),
            cache.g(&regions, &sibling, &t)
        );
        assert_eq!(cache.entries.len(), 10);
    }

    proptest! {
        #[test]
        fn prop_proximity_positive_and_finite(
            qs in proptest::collection::vec(0.0f64..1e5, 1..10),
            server_idx in 0u64..200,
        ) {
            let t = topo();
            let countries: Vec<(u16, u16)> = t.iter_countries().collect();
            let regions: Vec<RegionQueries> = qs
                .iter()
                .enumerate()
                .map(|(i, &q)| {
                    let (ct, co) = countries[i % countries.len()];
                    RegionQueries { location: Location::client_in_country(ct, co), queries: q }
                })
                .collect();
            let g = proximity(&regions, &server_at(&t, server_idx), &t);
            prop_assert!(g.is_finite());
            prop_assert!(g > 0.0);
        }

        #[test]
        fn prop_kernel_matches_general_scan_bit_for_bit(
            qs in proptest::collection::vec(0.001f64..1e5, 1..9),
            deep in proptest::collection::vec(
                (0u16..5, 0u16..2, 0u16..2, 0u16..1, 0u16..2, 0u16..4),
                0..4,
            ),
            server_idx in 0u64..200,
            (qs2, shift) in (proptest::collection::vec(0.001f64..1e5, 1..9), 0usize..10),
        ) {
            // A duplicate-free country-zone mix: the analytic kernel must
            // reproduce the general per-location scan bit for bit on every
            // real server.
            let t = topo();
            let countries: Vec<(u16, u16)> = t.iter_countries().collect();
            let mut regions: Vec<RegionQueries> = qs
                .iter()
                .enumerate()
                .map(|(i, &q)| {
                    let (ct, co) = countries[i % countries.len()];
                    RegionQueries { location: Location::client_in_country(ct, co), queries: q }
                })
                .collect();
            let server = server_at(&t, server_idx);
            let kernel = proximity(&regions, &server, &t);
            let scan = general_scan(&regions, &server, &t);
            prop_assert_eq!(kernel.to_bits(), scan.to_bits());
            // Clients below country level weigh as their country: the mix
            // with them equals, by bits, the mix with each mapped to its
            // country's client zone.
            let mut mapped = regions.clone();
            for (ct, co, dc, rm, rk, sv) in deep {
                let location = Location::new(ct, co, dc, rm, rk, sv);
                regions.push(RegionQueries { location, queries: 10.0 });
                let location = Location::client_in_country(ct, co);
                mapped.push(RegionQueries { location, queries: 10.0 });
            }
            prop_assert_eq!(
                proximity(&regions, &server, &t).to_bits(),
                proximity(&mapped, &server, &t).to_bits()
            );
            // And the cache agrees with the direct evaluation on the
            // server, a same-country sibling and a client-zone server of
            // that country, all three memoized per country.
            let mut cache = ProximityCache::new();
            let sibling = server_at(&t, server_idx ^ 1);
            let zone = Location::client_in_country(server.continent, server.country);
            for s in [server, sibling, zone, server] {
                let direct = proximity(&regions, &s, &t).to_bits();
                prop_assert_eq!(cache.g(&regions, &s, &t).to_bits(), direct);
            }
            // Reuse, as a partition's cache is reused across deliveries and
            // epochs: after a clear, a second mix (more or fewer countries,
            // in another order) refills the kept buffer and answers the
            // scan's bits on every server country, none of the first mix's
            // weights surviving.
            let second: Vec<RegionQueries> = qs2
                .iter()
                .enumerate()
                .map(|(i, &q)| {
                    let (ct, co) = countries[(i + shift) % countries.len()];
                    RegionQueries { location: Location::client_in_country(ct, co), queries: q }
                })
                .collect();
            cache.clear();
            for i in (0..200u64).step_by(17).chain([server_idx]) {
                let s = server_at(&t, i);
                let scan = general_scan(&second, &s, &t).to_bits();
                prop_assert_eq!(cache.g(&second, &s, &t).to_bits(), scan, "server {}", i);
            }
        }

        #[test]
        fn prop_score_decreases_with_rent(
            rent1 in 0.0f64..2.0, rent2 in 0.0f64..2.0, server_idx in 0u64..200
        ) {
            let t = topo();
            let existing = vec![server_at(&t, 0), server_at(&t, 100)];
            let cand = server_at(&t, server_idx);
            let lo = candidate_score(&existing, &cand, 1.0, rent1.min(rent2), 1.0, 0.02);
            let hi = candidate_score(&existing, &cand, 1.0, rent1.max(rent2), 1.0, 0.02);
            prop_assert!(lo >= hi);
        }
    }
}
