//! Eq. (3) and (4): candidate-server scoring and client proximity.
//!
//! Eq. (4) weighs clients and servers at country granularity (§III-A): a
//! client counts by its `(continent, country)` and a server by its
//! country, whatever their finer location levels. The diversity between
//! the two is then a function of the two countries alone
//! (`zone_diversity`), so every server of a country carries the same
//! weight and each weight is memoized once per server country.

use skute_geo::{diversity, Location, RegionWeight, Topology};

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

/// Client countries a [`RegionMasses`] aggregate holds inline. Mixes
/// with more distinct countries (client countries need not be topology
/// countries) spill the remainder to one heap run per aggregation; the
/// common path stays allocation-free.
const INLINE_CLIENT_REGIONS: usize = 24;

/// Mass slots a [`RegionPlan`] sums on the stack per partition. A batch
/// with more distinct masses still writes region lists by slot, but its
/// weights come from [`ProximityCache::g`].
const PLAN_MASS_SLOTS: usize = INLINE_CLIENT_REGIONS;

/// Query mass aggregated per client country, in first-appearance order —
/// the sufficient statistic of eq. (4). [`ProximityCache::g`] builds one
/// lazily, boxed, for the placement queries of a region mix.
#[derive(Debug, Clone)]
struct RegionMasses {
    total: f64,
    len: usize,
    /// The first [`INLINE_CLIENT_REGIONS`] distinct countries.
    inline: [((u16, u16), f64); INLINE_CLIENT_REGIONS],
    /// Countries beyond the inline capacity, in first-appearance order.
    spill: Vec<((u16, u16), f64)>,
}

impl Default for RegionMasses {
    fn default() -> Self {
        Self {
            total: 0.0,
            len: 0,
            inline: [((0, 0), 0.0); INLINE_CLIENT_REGIONS],
            spill: Vec::new(),
        }
    }
}

impl RegionMasses {
    /// Aggregates `regions` by client country: the first 24 countries
    /// inline, the rest on the heap.
    fn aggregate(regions: &[RegionQueries]) -> Self {
        let mut masses = Self::default();
        for r in regions {
            masses.total += r.queries;
            let key = r.location.country_key();
            let inline_len = masses.len.min(INLINE_CLIENT_REGIONS);
            match masses.inline[..inline_len]
                .iter_mut()
                .chain(masses.spill.iter_mut())
                .find(|(k, _)| *k == key)
            {
                Some((_, q)) => *q += r.queries,
                None => {
                    if masses.len < INLINE_CLIENT_REGIONS {
                        masses.inline[masses.len] = (key, r.queries);
                    } else {
                        masses.spill.push((key, r.queries));
                    }
                    masses.len += 1;
                }
            }
        }
        masses
    }

    /// All aggregated `(country, mass)` pairs, in first-appearance order.
    fn regions(&self) -> impl Iterator<Item = &((u16, u16), f64)> {
        self.inline[..self.len.min(INLINE_CLIENT_REGIONS)]
            .iter()
            .chain(self.spill.iter())
    }
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

/// A query total spread uniformly over the topology's countries (the
/// paper's uniform client geography): the share `per` of each country and
/// the total re-accumulated from the shares, one `+=` per country.
#[derive(Debug, Clone, Copy)]
struct UniformSplit {
    per: f64,
    total: f64,
}

impl UniformSplit {
    fn of(total: f64, topology: &Topology) -> Self {
        let per = total / topology.country_count() as f64;
        let mut sum = 0.0;
        for _ in topology.iter_countries() {
            sum += per;
        }
        Self { per, total: sum }
    }
}

/// The eq.-(4) kernel: the weight of one server country, eq. (4)
/// normalized by eq. (4) under the uniform split of the same total.
/// `terms` pairs each country mass with its diversity to the server, in
/// mass order; `uniform` lists the server's diversity to each topology
/// country, in [`Topology::iter_countries`] order.
///
/// Every weight the crate computes comes from here, whether the
/// diversities are computed on the spot ([`analytic_g`]) or read from a
/// [`RegionPlan`] row: the same products, added in the same order.
fn eq4_kernel(
    total: f64,
    terms: impl Iterator<Item = (f64, f64)>,
    split: UniformSplit,
    uniform: impl Iterator<Item = f64>,
) -> f64 {
    let mut weighted = 0.0;
    for (mass, d) in terms {
        weighted += mass * d;
    }
    let raw = total / (1.0 + weighted);
    let mut weighted_uniform = 0.0;
    for d in uniform {
        weighted_uniform += split.per * d;
    }
    let baseline = split.total / (1.0 + weighted_uniform);
    if baseline <= 0.0 {
        return 1.0;
    }
    raw / baseline
}

/// The eq.-(4) proximity of a server in country `server` against
/// aggregated country masses: [`eq4_kernel`] with the diversities
/// computed on the spot. Bit-for-bit identical to a per-location
/// diversity scan over a duplicate-free mix of country-zone clients and
/// a real server: both sides accumulate the same summands in the same
/// order.
fn analytic_g(masses: &RegionMasses, server: (u16, u16), topology: &Topology) -> f64 {
    eq4_kernel(
        masses.total,
        masses
            .regions()
            .map(|&(client, mass)| (mass, zone_diversity(client, server))),
        UniformSplit::of(masses.total, topology),
        topology.iter_countries().map(|c| zone_diversity(c, server)),
    )
}

/// The client-proximity weight `g_j` of server `server` for a partition
/// whose epoch queries came from `regions`.
///
/// Computed as eq. (4) normalized by eq. (4) evaluated with the same total
/// query volume spread uniformly over all countries of `topology`: under a
/// uniform client geography the weight is exactly 1 for every server, as the
/// paper stipulates (§III-A), and regionally skewed traffic scales servers
/// near the traffic above 1 and far servers below 1.
///
/// Clients aggregate per country and the server counts by its country
/// (`analytic_g`), so a client or server location weighs exactly as
/// [`Location::client_in_country`] of its country would. With no queries
/// at all the weight is neutral (1).
pub fn proximity(regions: &[RegionQueries], server: &Location, topology: &Topology) -> f64 {
    let masses = RegionMasses::aggregate(regions);
    if masses.total <= 0.0 {
        return 1.0;
    }
    analytic_g(&masses, server.country_key(), topology)
}

/// What one traffic batch fixes for every partition it reaches.
///
/// A batch offers the same region weights to every partition of its ring,
/// so whatever eq. (4) derives from the region *locations* is the same for
/// all of them: which batch regions merge into one `region_queries` entry
/// (first-appearance order), which entries share a country mass, and
/// each server country's diversity to every mass and to every
/// uniform-baseline country. The plan resolves that once per batch. Per
/// partition, [`RegionPlan::deliver`] writes the region list by slot and
/// sums its masses on the stack, and [`PlannedWeights::g`] evaluates a
/// server as one pass of the eq.-(4) kernel over the server's row. The kernel, the
/// diversities and the summation order are those of [`proximity`], so
/// every weight is bit-for-bit [`ProximityCache::g`]'s.
#[derive(Debug, Clone)]
pub struct RegionPlan {
    /// Per batch region, in batch order: its weight and its slot in a
    /// fresh `region_queries` list (a repeated location shares the slot of
    /// its first appearance).
    batch: Vec<(f64, usize)>,
    /// Per `region_queries` slot: its location and its mass slot.
    entries: Vec<(Location, usize)>,
    /// The number of distinct masses.
    masses: usize,
    /// Values per server row: the masses, then the topology's countries.
    stride: usize,
    /// One row per planned server, in the order given to
    /// [`RegionPlan::new`]: its diversity to each mass, then to each
    /// country in [`Topology::iter_countries`] order. Empty when the batch
    /// has more than [`PLAN_MASS_SLOTS`] masses.
    rows: Vec<f64>,
}

/// One partition's region masses, summed on the stack by
/// [`RegionPlan::deliver`].
#[derive(Debug, Clone, Copy)]
struct PlanMix {
    masses: [f64; PLAN_MASS_SLOTS],
    total: f64,
    split: UniformSplit,
}

impl RegionPlan {
    /// Plans the batch `regions` against `servers`, listed in the order
    /// [`PlannedWeights::g`] names them by index (a cluster's servers by
    /// id).
    pub fn new(
        regions: &[RegionWeight],
        servers: impl IntoIterator<Item = Location>,
        topology: &Topology,
    ) -> Self {
        let mut entries: Vec<(Location, usize)> = Vec::new();
        let mut keys: Vec<(u16, u16)> = Vec::new();
        let batch = regions
            .iter()
            .map(|region| {
                if let Some(slot) = entries.iter().position(|&(l, _)| l == region.location) {
                    return (region.weight, slot);
                }
                let key = region.location.country_key();
                let mass = keys.iter().position(|&k| k == key).unwrap_or_else(|| {
                    keys.push(key);
                    keys.len() - 1
                });
                entries.push((region.location, mass));
                (region.weight, entries.len() - 1)
            })
            .collect();
        let mut rows = Vec::new();
        if keys.len() <= PLAN_MASS_SLOTS {
            for server in servers {
                let key = server.country_key();
                rows.extend(keys.iter().map(|&k| zone_diversity(k, key)));
                rows.extend(topology.iter_countries().map(|c| zone_diversity(c, key)));
            }
        }
        Self {
            batch,
            entries,
            masses: keys.len(),
            stride: keys.len() + topology.iter_countries().count(),
            rows,
        }
    }

    /// Adds one partition's share `q` of the batch to its
    /// `region_queries`, drops the weights `cache` memoized for the old
    /// mix, and returns the partition's weights.
    ///
    /// A partition with no region queries yet this epoch, whose every
    /// `q · weight` is positive, gets its list written by slot and its
    /// masses summed on the stack. Any other (a second batch into the same
    /// ring, or a product that is not positive) takes the general
    /// find-merge fold, and its weights come from `cache`. Both folds
    /// build the same list.
    pub fn deliver<'a>(
        &'a self,
        q: f64,
        region_queries: &'a mut Vec<RegionQueries>,
        cache: &'a mut ProximityCache,
        topology: &'a Topology,
    ) -> PlannedWeights<'a> {
        cache.clear();
        let fresh = region_queries.is_empty() && self.batch.iter().all(|&(w, _)| q * w > 0.0);
        let mut mix = None;
        if fresh {
            for &(weight, slot) in &self.batch {
                let queries = q * weight;
                if slot == region_queries.len() {
                    let location = self.entries[slot].0;
                    region_queries.push(RegionQueries { location, queries });
                } else {
                    region_queries[slot].queries += queries;
                }
            }
            if self.masses <= PLAN_MASS_SLOTS {
                let mut masses = [0.0; PLAN_MASS_SLOTS];
                let mut total = 0.0;
                for (r, &(_, m)) in region_queries.iter().zip(&self.entries) {
                    total += r.queries;
                    masses[m] += r.queries;
                }
                let split = UniformSplit::of(total, topology);
                mix = Some(PlanMix {
                    masses,
                    total,
                    split,
                });
            }
        } else {
            for &(weight, slot) in &self.batch {
                let add = q * weight;
                if add <= 0.0 {
                    continue;
                }
                let location = self.entries[slot].0;
                match region_queries.iter_mut().find(|r| r.location == location) {
                    Some(r) => r.queries += add,
                    None => region_queries.push(RegionQueries {
                        location,
                        queries: add,
                    }),
                }
            }
        }
        PlannedWeights {
            plan: self,
            regions: region_queries,
            cache,
            topology,
            mix,
        }
    }
}

/// One partition's eq.-(4) weights after a [`RegionPlan::deliver`].
pub struct PlannedWeights<'a> {
    plan: &'a RegionPlan,
    regions: &'a [RegionQueries],
    cache: &'a mut ProximityCache,
    topology: &'a Topology,
    /// The partition's masses, when `deliver` summed them.
    mix: Option<PlanMix>,
}

impl PlannedWeights<'_> {
    /// The weight of the plan's server `index`, located at `server`:
    /// memoized in the partition's cache per country, exactly as
    /// [`ProximityCache::g`] memoizes it, and with its bits. A server the
    /// plan has no row for, or a mix the plan did not sum, goes through
    /// [`ProximityCache::g`] itself.
    pub fn g(&mut self, index: usize, server: &Location) -> f64 {
        let stride = self.plan.stride;
        let planned = self.mix.as_ref().and_then(|mix| {
            let row = self.plan.rows.get(index * stride..(index + 1) * stride)?;
            Some((mix, row))
        });
        let Some((mix, row)) = planned else {
            return self.cache.g(self.regions, server, self.topology);
        };
        let key = server.country_key();
        if let Some(g) = self.cache.memoized(key) {
            return g;
        }
        let (mass_row, uniform_row) = row.split_at(self.plan.masses);
        let g = eq4_kernel(
            mix.total,
            mix.masses[..mass_row.len()]
                .iter()
                .copied()
                .zip(mass_row.iter().copied()),
            mix.split,
            uniform_row.iter().copied(),
        );
        self.cache.entries.push((key, g));
        g
    }
}

/// Memoizes eq.-(4) proximity per server country for one fixed region mix.
///
/// Eq. (4) weighs a server by its `(continent, country)` prefix alone
/// (see [`proximity`]), so one partition's decision phase, which
/// evaluates proximity for every feasible candidate server, needs one
/// evaluation per server country; this cache holds them.
///
/// The caller owns invalidation: [`ProximityCache::clear`] must run
/// whenever the region mix it was filled from changes (`SkuteCloud` clears
/// per-partition caches at epoch start, and [`RegionPlan::deliver`] clears
/// one before every delivery).
///
/// Two ways in fill the same per-country entries. The delivery plan fills
/// them from its per-batch rows ([`PlannedWeights::g`]), once per replica
/// country. [`ProximityCache::g`] aggregates the mix itself on its first
/// miss and keeps the aggregate boxed until the next clear; only placement
/// queries need that, so most caches never hold one and the cache stays a
/// few words wide.
#[derive(Debug, Clone, Default)]
pub struct ProximityCache {
    /// Aggregated region masses for [`ProximityCache::g`], built on its
    /// first miss per region mix (`None` before).
    masses: Option<Box<RegionMasses>>,
    entries: Vec<((u16, u16), f64)>,
    /// Memoized maximum weights over caller-identified location sets
    /// (see [`ProximityCache::g_max`]).
    g_max_memo: Vec<(u64, f64)>,
}

impl ProximityCache {
    /// An empty cache.
    pub fn new() -> Self {
        Self::default()
    }

    /// Drops all memoized weights (the region mix changed).
    pub fn clear(&mut self) {
        self.masses = None;
        self.entries.clear();
        self.g_max_memo.clear();
    }

    /// The maximum proximity weight over `locations`, memoized under
    /// `token`: callers that query the same location sets many times per
    /// region mix (e.g. a placement index bounding each per-continent
    /// candidate walk by the best weight over that continent's country
    /// representatives) pass a token per set that changes when the set
    /// changes, and pay for each scan once.
    pub fn g_max(
        &mut self,
        token: u64,
        locations: &[Location],
        regions: &[RegionQueries],
        topology: &Topology,
    ) -> f64 {
        if let Some(&(_, g)) = self.g_max_memo.iter().find(|(t, _)| *t == token) {
            return g;
        }
        let mut g_max = 0.0f64;
        for l in locations {
            g_max = g_max.max(self.g(regions, l, topology));
        }
        self.g_max_memo.push((token, g_max));
        g_max
    }

    /// True when nothing is memoized yet.
    pub fn is_empty(&self) -> bool {
        self.masses.is_none() && self.entries.is_empty()
    }

    /// The weight memoized for server country `key`, if any.
    fn memoized(&self, key: (u16, u16)) -> Option<f64> {
        self.entries
            .iter()
            .find(|(k, _)| *k == key)
            .map(|&(_, g)| g)
    }

    /// The proximity weight of `server` for `regions`, memoized by the
    /// server's country. Bit-for-bit identical to calling [`proximity`]
    /// directly.
    pub fn g(&mut self, regions: &[RegionQueries], server: &Location, topology: &Topology) -> f64 {
        // An entry exists only under a mix with queries.
        let key = server.country_key();
        if let Some(g) = self.memoized(key) {
            return g;
        }
        let masses = self
            .masses
            .get_or_insert_with(|| Box::new(RegionMasses::aggregate(regions)));
        if masses.total <= 0.0 {
            return 1.0;
        }
        let g = analytic_g(masses, key, topology);
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
        let baseline = raw_g_over(t.iter_client_locations().map(move |l| (per, l)), server);
        if baseline <= 0.0 {
            return 1.0;
        }
        raw_g_over(regions.iter().map(|r| (r.queries, r.location)), server) / baseline
    }

    /// The delivery fold before [`RegionPlan`]: each batch region's
    /// `q · weight`, skipped unless positive, merged into the entry with
    /// its location or appended.
    fn find_merge_fold(regions: &mut Vec<RegionQueries>, batch: &[RegionWeight], q: f64) {
        for region in batch {
            let add = q * region.weight;
            if add <= 0.0 {
                continue;
            }
            match regions.iter_mut().find(|r| r.location == region.location) {
                Some(r) => r.queries += add,
                None => regions.push(RegionQueries {
                    location: region.location,
                    queries: add,
                }),
            }
        }
    }

    fn weight(location: Location, weight: f64) -> RegionWeight {
        RegionWeight { location, weight }
    }

    /// Delivers `q` of `plan` into a fresh partition and returns the
    /// planned weight bits of `servers[i]` under index `i`.
    fn planned_bits(
        plan: &RegionPlan,
        q: f64,
        regions: &mut Vec<RegionQueries>,
        cache: &mut ProximityCache,
        servers: &[Location],
        t: &Topology,
    ) -> Vec<u64> {
        let mut weights = plan.deliver(q, regions, cache, t);
        servers
            .iter()
            .enumerate()
            .map(|(i, s)| weights.g(i, s).to_bits())
            .collect()
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
            let server = t.server_at(i);
            let g = proximity(&regions, &server, &t);
            assert!((g - 1.0).abs() < 1e-12, "server {i}: g = {g}");
        }
    }

    #[test]
    fn no_queries_is_neutral() {
        let t = topo();
        let server = t.server_at(0);
        assert_eq!(proximity(&[], &server, &t), 1.0);
    }

    #[test]
    fn local_traffic_boosts_local_servers() {
        let t = topo();
        let regions = [RegionQueries {
            location: Location::client_in_country(0, 0),
            queries: 1000.0,
        }];
        let local = t.server_at(0); // continent 0, country 0
        let remote = t.server_at(199); // continent 4, country 1
        let g_local = proximity(&regions, &local, &t);
        let g_remote = proximity(&regions, &remote, &t);
        assert!(g_local > 1.0, "g_local = {g_local}");
        assert!(g_remote < 1.0, "g_remote = {g_remote}");
        assert!(g_local > g_remote);
    }

    #[test]
    fn candidate_score_prefers_diverse_then_cheap() {
        let t = topo();
        let existing = vec![t.server_at(0)];
        let same_rack = t.server_at(1);
        let other_continent = t.server_at(199);
        let v = 0.02;
        let s_near = candidate_score(&existing, &same_rack, 1.0, 0.2, 1.0, v);
        let s_far = candidate_score(&existing, &other_continent, 1.0, 0.2, 1.0, v);
        assert!(s_far > s_near, "diversity dominates at equal rent");
        // Between two equally diverse candidates the cheaper one wins.
        let other_continent_b = t.server_at(198);
        let s_far_cheap = candidate_score(&existing, &other_continent_b, 1.0, 0.1, 1.0, v);
        assert!(s_far_cheap > s_far);
    }

    #[test]
    fn zero_confidence_candidate_scores_negative_rent() {
        let t = topo();
        let existing = vec![t.server_at(0)];
        let cand = t.server_at(199);
        let s = candidate_score(&existing, &cand, 0.0, 0.3, 1.0, 0.02);
        assert!((s - (-0.3)).abs() < 1e-12);
    }

    #[test]
    fn empty_replica_set_scores_pure_rent() {
        let t = topo();
        let cand = t.server_at(5);
        let s = candidate_score(&[], &cand, 1.0, 0.25, 1.0, 0.02);
        assert!((s - (-0.25)).abs() < 1e-12);
    }

    #[test]
    fn cache_matches_direct_proximity_and_collapses_countries() {
        let t = topo();
        let batch = [
            weight(Location::client_in_country(0, 0), 0.9),
            weight(Location::client_in_country(2, 1), 0.1),
        ];
        let servers: Vec<Location> = t.iter_servers().collect();
        let plan = RegionPlan::new(&batch, servers.iter().copied(), &t);
        let mut regions = Vec::new();
        let mut planned = ProximityCache::new();
        let via_plan = planned_bits(&plan, 1000.0, &mut regions, &mut planned, &servers, &t);
        let mut cache = ProximityCache::new();
        for (i, server) in servers.iter().enumerate() {
            let direct = proximity(&regions, server, &t);
            let cached = cache.g(&regions, server, &t);
            assert_eq!(cached.to_bits(), direct.to_bits(), "server {i}");
            assert_eq!(via_plan[i], direct.to_bits(), "server {i}");
        }
        // 200 servers share 10 countries: each cache holds 10 entries.
        assert_eq!((cache.entries.len(), planned.entries.len()), (10, 10));
        assert!(planned.masses.is_none(), "the plan builds no masses");
        assert!(!cache.is_empty());
        // Re-querying stays identical and clearing resets.
        let s = t.server_at(3);
        assert_eq!(cache.g(&regions, &s, &t), proximity(&regions, &s, &t));
        cache.clear();
        assert!(cache.is_empty());
    }

    #[test]
    fn many_country_mixes_keep_the_analytic_kernel() {
        // Regression: mixes with more than 24 distinct client countries
        // used to abandon the analytic per-country kernel for the general
        // per-location scan (and defeated the per-country memoization).
        // The aggregate now spills past the inline capacity instead.
        let t = topo();
        let regions: Vec<RegionQueries> = (0..30u16)
            .map(|i| RegionQueries {
                location: Location::client_in_country(i % 7, i),
                queries: 100.0 + f64::from(i),
            })
            .collect();
        let masses = RegionMasses::aggregate(&regions);
        assert_eq!(masses.regions().count(), 30);
        assert_eq!(masses.len, 30);
        // The cache stays bit-for-bit identical to the direct evaluation
        // and still collapses to one entry per server country.
        let mut cache = ProximityCache::new();
        for i in 0..200u64 {
            let server = t.server_at(i);
            let direct = proximity(&regions, &server, &t);
            let cached = cache.g(&regions, &server, &t);
            assert_eq!(cached.to_bits(), direct.to_bits(), "server {i}");
        }
        // And on a duplicate-free mix the analytic value agrees with the
        // general per-location scan bit for bit.
        let server = t.server_at(42);
        assert_eq!(
            proximity(&regions, &server, &t).to_bits(),
            general_scan(&regions, &server, &t).to_bits()
        );
        // A duplicated country merges into its spilled slot.
        let mut dup = regions.clone();
        dup.push(RegionQueries {
            location: Location::client_in_country(29 % 7, 29),
            queries: 50.0,
        });
        let merged = RegionMasses::aggregate(&dup);
        assert_eq!(merged.regions().count(), 30);
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

    #[test]
    fn a_placement_query_after_a_plan_pass_reads_the_plans_weights() {
        // The delivery plan fills the cache from its per-batch rows, so the
        // cache holds entries but no masses. A later placement query (`g`)
        // reads a planned country's entry; on a country the plan never
        // visited, it builds the masses lazily — with the same bits. A
        // client below country level changes neither: it weighs as its
        // country.
        let t = topo();
        let batch = [
            weight(Location::client_in_country(0, 0), 0.6),
            weight(Location::new(0, 1, 1, 0, 0, 2), 0.3),
            weight(Location::client_in_country(3, 1), 0.1),
        ];
        let servers: Vec<Location> = t.iter_servers().collect();
        let plan = RegionPlan::new(&batch, servers.iter().copied(), &t);
        let mut regions = Vec::new();
        let mut cache = ProximityCache::new();
        // The delivery visits continent 0 only (servers 0..40, two
        // countries).
        let planned = planned_bits(&plan, 1000.0, &mut regions, &mut cache, &servers[..40], &t);
        assert!(cache.masses.is_none());
        assert_eq!(cache.entries.len(), 2, "both visited countries");
        for i in 0..40 {
            let g = cache.g(&regions, &t.server_at(i), &t);
            assert_eq!(g.to_bits(), planned[i as usize], "server {i}");
        }
        assert!(cache.masses.is_none(), "a memoized country needs no masses");
        let g = cache.g(&regions, &t.server_at(40), &t);
        assert!(
            cache.masses.is_some(),
            "built on the first unmemoized query"
        );
        assert_eq!(g, proximity(&regions, &t.server_at(40), &t));
        for i in 40..200 {
            let server = t.server_at(i);
            let g = cache.g(&regions, &server, &t);
            assert_eq!(g.to_bits(), proximity(&regions, &server, &t).to_bits());
        }
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
            let g = proximity(&regions, &t.server_at(server_idx), &t);
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
            let server = t.server_at(server_idx);
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
            let sibling = t.server_at(server_idx ^ 1);
            let zone = Location::client_in_country(server.continent, server.country);
            for s in [server, sibling, zone, server] {
                let direct = proximity(&regions, &s, &t).to_bits();
                prop_assert_eq!(cache.g(&regions, &s, &t).to_bits(), direct);
            }
        }

        #[test]
        fn prop_batch_plan_matches_proximity_bit_for_bit(
            countries in proptest::collection::vec(
                (0usize..10, 0u8..6, 0.001f64..1.0),
                0..12,
            ),
            deep in proptest::collection::vec(
                ((0u16..5, 0u16..2, 0u16..2, 0u16..1, 0u16..2, 0u16..4), 0.001f64..1.0),
                0..4,
            ),
            many in any::<bool>(),
            q in 0.001f64..1e4,
            second in proptest::option::of(0.001f64..1e4),
        ) {
            // A batch as a traffic plan meets it: country-zone regions with
            // repeats, clients below country level (in paper countries, so
            // some share a mass with a country zone), weights whose product
            // with `q` underflows or is zero, and sometimes more than 24
            // distinct masses. Every
            // paper server plus a client-zone server gets its planned
            // weight, which must equal `proximity` over the folded list by
            // bits; the list must equal the find-merge fold's, and the
            // cache the plan filled must answer placement queries with the
            // same bits. An optional second delivery of the reversed batch
            // lands in the same partition, as a second batch for a ring
            // does.
            let t = topo();
            let paper: Vec<(u16, u16)> = t.iter_countries().collect();
            let mut batch: Vec<RegionWeight> = countries
                .iter()
                .map(|&(c, kind, w)| {
                    let w = match kind {
                        0 => 5e-324,
                        1 => 0.0,
                        _ => w,
                    };
                    weight(Location::client_in_country(paper[c].0, paper[c].1), w)
                })
                .collect();
            batch.extend(deep.iter().map(|&((ct, co, dc, rm, rk, sv), w)| {
                weight(Location::new(ct, co, dc, rm, rk, sv), w)
            }));
            if many {
                batch.extend((0..30u16).map(|i| weight(Location::client_in_country(i % 7, i), 0.01)));
            }
            let mut servers: Vec<Location> = t.iter_servers().collect();
            servers.push(Location::client_in_country(0, 0));
            let mut reversed = batch.clone();
            reversed.reverse();
            let deliveries = [Some((batch, q)), second.map(|q2| (reversed, q2))];
            let (mut regions, mut expected) = (Vec::new(), Vec::new());
            let mut cache = ProximityCache::new();
            for (batch, q) in deliveries.into_iter().flatten() {
                let plan = RegionPlan::new(&batch, servers.iter().copied(), &t);
                let planned = planned_bits(&plan, q, &mut regions, &mut cache, &servers, &t);
                find_merge_fold(&mut expected, &batch, q);
                let bits = |rs: &[RegionQueries]| -> Vec<(Location, u64)> {
                    rs.iter().map(|r| (r.location, r.queries.to_bits())).collect()
                };
                prop_assert_eq!(bits(&regions), bits(&expected));
                for (i, s) in servers.iter().enumerate() {
                    let direct = proximity(&regions, s, &t).to_bits();
                    prop_assert_eq!(planned[i], direct, "server {} at {}", i, s);
                    prop_assert_eq!(cache.g(&regions, s, &t).to_bits(), direct);
                }
            }
        }

        #[test]
        fn prop_score_decreases_with_rent(
            rent1 in 0.0f64..2.0, rent2 in 0.0f64..2.0, server_idx in 0u64..200
        ) {
            let t = topo();
            let existing = vec![t.server_at(0), t.server_at(100)];
            let cand = t.server_at(server_idx);
            let lo = candidate_score(&existing, &cand, 1.0, rent1.min(rent2), 1.0, 0.02);
            let hi = candidate_score(&existing, &cand, 1.0, rent1.max(rent2), 1.0, 0.02);
            prop_assert!(lo >= hi);
        }
    }
}
