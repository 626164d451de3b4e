//! Replica target selection: eq. (3), an incrementally maintained
//! rent-sorted candidate index, and the pluggable strategy interface.

use skute_cluster::{Board, Cluster, ServerId};
use skute_economy::{candidate_score, EconomyConfig, ProximityCache, RegionQueries};
use skute_geo::{Location, Topology};

/// Read-only view of the cloud a placement strategy may consult.
#[derive(Debug, Clone, Copy)]
pub struct PlacementContext<'a> {
    /// The physical servers.
    pub cluster: &'a Cluster,
    /// Posted virtual rents of the current epoch.
    pub board: &'a Board,
    /// The geographic layout.
    pub topology: &'a Topology,
    /// Economy tunables (diversity unit value, etc.).
    pub economy: &'a EconomyConfig,
}

impl<'a> PlacementContext<'a> {
    /// A context over the four things every placement query reads.
    pub(crate) fn new(
        cluster: &'a Cluster,
        board: &'a Board,
        topology: &'a Topology,
        economy: &'a EconomyConfig,
    ) -> Self {
        Self {
            cluster,
            board,
            topology,
            economy,
        }
    }
}

/// One eq.-(3) target question: where should a replica of this partition
/// go? The index walk and the brute-force scan both take this value, so
/// the two cannot disagree on what was asked.
#[derive(Debug, Clone, Copy)]
pub(crate) struct TargetQuery<'a> {
    /// Servers already hosting the partition (never candidates).
    pub(crate) existing: &'a [ServerId],
    /// Bytes the new replica will occupy.
    pub(crate) size: u64,
    /// The partition's observed per-region query volume.
    pub(crate) region_queries: &'a [RegionQueries],
    /// Restricts the search to servers renting below this (the migration
    /// case: "find a less expensive server that is closer to the client
    /// locations").
    pub(crate) rent_below: Option<f64>,
}

/// A replica placement policy.
///
/// Skute's economic policy is [`EconomicPlacement`]; `skute-baseline`
/// provides random, successor-list, cheapest-first and max-spread
/// alternatives behind this same interface so the baselines table can
/// swap policies without touching the harness.
pub trait PlacementStrategy {
    /// Human-readable policy name (used in benchmark tables).
    fn name(&self) -> &'static str;

    /// Chooses a server to host a new replica of a partition whose replicas
    /// currently live on `existing`, or `None` if no feasible server exists.
    ///
    /// `partition_size` is the bytes the new replica will occupy;
    /// `region_queries` is the partition's observed per-region query volume
    /// (used by proximity-aware policies).
    fn place_replica(
        &mut self,
        ctx: &PlacementContext<'_>,
        existing: &[ServerId],
        partition_size: u64,
        region_queries: &[RegionQueries],
    ) -> Option<ServerId>;
}

/// Eq. (1) evaluated on a server's live meters (which include storage
/// reserved by placements earlier in the same decision phase) plus
/// `partition_size` bytes being placed: the projected rent of the oracle
/// scan, which the index walk reproduces bit for bit from its snapshot
/// entries.
fn projected_rent(
    server: &skute_cluster::Server,
    partition_size: u64,
    economy: &EconomyConfig,
) -> f64 {
    let up = server.marginal_price.price(server.monthly_cost);
    let added_frac = if server.capacities.storage_bytes == 0 {
        1.0
    } else {
        partition_size as f64 / server.capacities.storage_bytes as f64
    };
    let projected_storage = (server.storage_frac() + added_frac).min(1.0);
    up * (1.0 + economy.alpha * projected_storage + economy.beta * server.query_load_frac())
}

/// The cheapest zero-byte [`projected_rent`] over the servers a migration
/// could still land on: alive, posted on the board, and with migration
/// bandwidth left this epoch (`f64::INFINITY` when there is none).
///
/// A lower bound on every executable migration's target rent: the rent of
/// a real placement only grows with its size (α ≥ 0 and monotone
/// rounding, the argument that makes the index's `base_rent` a bound), and
/// `exec_migration` refuses a destination whose bandwidth is spent. So a
/// vnode whose rent cap is at or below the floor cannot migrate, whatever
/// eq. (3) would answer.
pub(crate) fn migration_floor(cluster: &Cluster, board: &Board, economy: &EconomyConfig) -> f64 {
    cluster
        .alive()
        .filter(|s| s.usage.migration_used < s.capacities.migration_bw)
        .filter(|s| board.price_of(s.id).is_some())
        .map(|s| projected_rent(s, 0, economy))
        .fold(f64::INFINITY, f64::min)
}

/// Enumerates feasible candidates: alive, not already hosting the
/// partition, enough free storage, and (optionally) cheaper than
/// `rent_below`.
///
/// The rent returned per candidate is **projected**: the posted board price
/// plus the eq.-(1) storage term the new replica itself would add
/// (`up · α · size/capacity`). §II-C requires accounting for "the
/// potentially increased virtual rent of the candidate server … after
/// replication"; because storage reservations land immediately while board
/// prices only refresh at epoch boundaries, the projection also gives
/// within-epoch feedback that stops every concurrently repairing partition
/// from herding onto the one currently-cheapest server.
pub(crate) fn feasible_candidates<'a>(
    ctx: &'a PlacementContext<'a>,
    existing: &'a [ServerId],
    partition_size: u64,
    rent_below: Option<f64>,
) -> impl Iterator<Item = (ServerId, Location, f64, f64)> + 'a {
    ctx.cluster.alive().filter_map(move |server| {
        if existing.contains(&server.id) {
            return None;
        }
        if server.storage_free() < partition_size {
            return None;
        }
        // A server must be posted on the board to be rentable at all.
        ctx.board.price_of(server.id)?;
        let rent = projected_rent(server, partition_size, ctx.economy);
        if let Some(cap) = rent_below {
            if rent >= cap {
                return None;
            }
        }
        Some((server.id, server.location, server.confidence, rent))
    })
}

/// Eq. (3): picks the feasible candidate maximizing
/// `g_j · conf_j · Σ_k diversity(s_k, s_j) · v − c_j`. Returns the winner
/// and its score; ties go to the lower server id.
///
/// `prox` memoizes the proximity weight `g_j` per server country. It must
/// be empty or filled against `q.region_queries`; its weights are bit for
/// bit [`skute_economy::scoring::proximity`]'s, so a warm cache answers exactly as
/// a fresh one.
pub(crate) fn economic_target(
    ctx: &PlacementContext<'_>,
    q: &TargetQuery<'_>,
    prox: &mut ProximityCache,
) -> Option<(ServerId, f64)> {
    let existing_locations: Vec<Location> = q
        .existing
        .iter()
        .filter_map(|id| ctx.cluster.get(*id).map(|s| s.location))
        .collect();
    feasible_candidates(ctx, q.existing, q.size, q.rent_below)
        .map(|(id, location, confidence, rent)| {
            let g = prox.g(q.region_queries, &location, ctx.topology);
            let score = candidate_score(
                &existing_locations,
                &location,
                confidence,
                rent,
                g,
                ctx.economy.diversity_unit_value,
            );
            (id, score)
        })
        .max_by(|a, b| a.1.total_cmp(&b.1).then_with(|| b.0.cmp(&a.0)))
}

/// One feasibility-relevant snapshot of a candidate server, cached by
/// [`PlacementIndex`].
#[derive(Debug, Clone, Copy)]
struct CandidateEntry {
    id: ServerId,
    location: Location,
    confidence: f64,
    /// Marginal usage price `up` of eq. (1).
    up: f64,
    /// Live storage fraction at index-build time.
    storage_frac: f64,
    /// Live query-load fraction at index-build time.
    query_frac: f64,
    storage_capacity: u64,
    storage_free: u64,
    /// Eq.-(1) rent with no replica added (`size = 0`): a lower bound on
    /// the projected rent of any placement, and the sort key of the walk.
    base_rent: f64,
}

/// The walk order of a bucket: ascending `(base_rent, id)`.
fn by_rent(a: &CandidateEntry, b: &CandidateEntry) -> std::cmp::Ordering {
    a.base_rent
        .total_cmp(&b.base_rent)
        .then_with(|| a.id.cmp(&b.id))
}

/// All snapshotted candidates of one continent, rent-sorted.
#[derive(Debug, Clone, Default)]
struct ContinentBucket {
    continent: u16,
    /// Sorted by `(base_rent, id)` ascending.
    entries: Vec<CandidateEntry>,
    /// One representative location per distinct country in the bucket:
    /// eq. (4) weighs a server by its country (see [`ProximityCache`]), so
    /// the greatest weight over them is the bucket's greatest.
    reps: Vec<Location>,
    conf_max: f64,
}

/// An incrementally maintained, rent-sorted view of the feasible candidate
/// set that answers eq.-(3) target queries without scanning every alive
/// server.
///
/// The index snapshots every board-posted alive server (location,
/// confidence, usage fractions, marginal price), grouped by continent and
/// sorted within each group by **base rent** — the projected eq.-(1) rent
/// of a zero-byte placement, which lower-bounds the projected rent of any
/// real placement. A query runs a best-first merge over the group heads:
/// each continent's next-cheapest candidate is bounded by
///
/// `g_max(continent) · conf_max(continent) · div_ub(continent) · v − base_rent`
///
/// where `g_max` is the greatest eq.-(4) weight over the continent's
/// server countries (a bound on every candidate's weight for any client
/// mix, since eq. (4) weighs a server by its country), and `div_ub`
/// counts 63 per existing replica on another continent and 31 per
/// replica on the same one — the diversity sum any candidate of the
/// continent can at most reach — and the walk stops as soon as every
/// remaining head's bound falls below the best score found. Every factor
/// upper-bounds the corresponding factor of the eq.-(3) score and
/// floating-point rounding is monotone for these non-negative products, so
/// the cutoff is sound bit-for-bit: the walk returns **exactly** the
/// winner (and tie-break) of the brute-force [`economic_target`] scan,
/// the reference it is checked against: by the property tests here, and
/// on every query of a debug build by `SkuteCloud`'s target selection.
///
/// Staleness is read off the cluster and the board at every query, so no
/// caller reports its mutations: when [`Board::version`] or the server
/// count moved, the snapshot is rebuilt; otherwise only the servers
/// [`Cluster::changed_since`] the [`Cluster::version`] of the last
/// synchronization are re-read, so one executed placement costs two entry
/// repositions instead of a rebuild.
#[derive(Debug, Clone, Default)]
pub(crate) struct PlacementIndex {
    /// Buckets sorted by continent index.
    buckets: Vec<ContinentBucket>,
    /// `(Cluster::version, Board::version, Cluster::len)` at the last
    /// synchronization; `None` before the first build.
    synced: Option<(u64, u64, usize)>,
    /// Scratch of the query walk, reused across queries.
    walk: WalkScratch,
}

/// Reusable scratch buffers of one best-first index walk.
#[derive(Debug, Clone, Default)]
struct WalkScratch {
    existing_locs: Vec<Location>,
    /// Per-bucket head cursor and gain bound.
    heads: Vec<usize>,
    gains: Vec<f64>,
}

impl PlacementIndex {
    /// An empty index; the first query builds it.
    pub(crate) fn new() -> Self {
        Self::default()
    }

    fn entry_fields(server: &skute_cluster::Server, economy: &EconomyConfig) -> CandidateEntry {
        let up = server.marginal_price.price(server.monthly_cost);
        let storage_frac = server.storage_frac();
        let query_frac = server.query_load_frac();
        let base_rent = up * (1.0 + economy.alpha * storage_frac + economy.beta * query_frac);
        CandidateEntry {
            id: server.id,
            location: server.location,
            confidence: server.confidence,
            up,
            storage_frac,
            query_frac,
            storage_capacity: server.capacities.storage_bytes,
            storage_free: server.storage_free(),
            base_rent,
        }
    }

    /// Synchronizes the snapshot with the cluster and board of `ctx`.
    /// Returns `true` when that took a full rebuild (test hook).
    pub(crate) fn refresh(&mut self, ctx: &PlacementContext<'_>) -> bool {
        let now = (
            ctx.cluster.version(),
            ctx.board.version(),
            ctx.cluster.len(),
        );
        match self.synced {
            Some(synced) if synced == now => return false,
            Some((version, board, len)) if (board, len) == (now.1, now.2) => {
                self.reread_since(ctx, version);
                self.synced = Some(now);
                return false;
            }
            _ => {}
        }
        self.buckets.clear();
        for server in ctx.cluster.alive() {
            if ctx.board.price_of(server.id).is_none() {
                continue;
            }
            let entry = Self::entry_fields(server, ctx.economy);
            let continent = server.location.continent;
            let bi = match self
                .buckets
                .binary_search_by_key(&continent, |b| b.continent)
            {
                Ok(bi) => bi,
                Err(bi) => {
                    self.buckets.insert(
                        bi,
                        ContinentBucket {
                            continent,
                            ..ContinentBucket::default()
                        },
                    );
                    bi
                }
            };
            let bucket = &mut self.buckets[bi];
            bucket.entries.push(entry);
            if server.confidence > bucket.conf_max {
                bucket.conf_max = server.confidence;
            }
            if !bucket
                .reps
                .iter()
                .any(|l| l.country_key() == server.location.country_key())
            {
                bucket.reps.push(server.location);
            }
        }
        for bucket in &mut self.buckets {
            bucket.entries.sort_unstable_by(by_rent);
        }
        self.synced = Some(now);
        true
    }

    /// Re-reads the entries of the servers [`Cluster::changed_since`]
    /// `version`, repositioning each in its bucket, and drops the ones no
    /// longer alive. Valid only while the board and the server count are
    /// those of the snapshot: then no server can join the candidate set (a
    /// retired server stays retired, and posting one moves the board
    /// version). Locations never change, so a server's continent names
    /// its bucket; `conf_max` is raised, never lowered, and the country
    /// representatives stay as they are, both (sound) over-bounds.
    fn reread_since(&mut self, ctx: &PlacementContext<'_>, version: u64) {
        for id in ctx.cluster.changed_since(version) {
            let server = ctx.cluster.get(id).expect("changed servers exist");
            let continent = server.location.continent;
            let Ok(bi) = self
                .buckets
                .binary_search_by_key(&continent, |b| b.continent)
            else {
                continue;
            };
            let bucket = &mut self.buckets[bi];
            // Absent: never posted, or dropped at an earlier re-read.
            let Some(at) = bucket.entries.iter().position(|e| e.id == id) else {
                continue;
            };
            if !server.is_alive() {
                bucket.entries.remove(at);
                continue;
            }
            let entry = Self::entry_fields(server, ctx.economy);
            if entry.confidence > bucket.conf_max {
                bucket.conf_max = entry.confidence;
            }
            // Ids are unique, so this total order puts the entry exactly
            // where a rebuild would: in place when its rent did not move
            // (a transfer's source only spends bandwidth).
            if by_rent(&bucket.entries[at], &entry).is_eq() {
                bucket.entries[at] = entry;
                continue;
            }
            bucket.entries.remove(at);
            let at = bucket
                .entries
                .partition_point(|e| by_rent(e, &entry).is_lt());
            bucket.entries.insert(at, entry);
        }
    }

    /// Eq. (3) over the index: same contract — and bit-identical result —
    /// as the brute-force [`economic_target`], but running a bounded
    /// best-first walk over the per-continent rent-sorted buckets, and
    /// reading per-country proximity through `prox` instead of recomputing
    /// it per candidate.
    ///
    /// `prox` must have been filled (or cleared) against the query's
    /// `region_queries`.
    pub(crate) fn economic_target(
        &mut self,
        ctx: &PlacementContext<'_>,
        q: &TargetQuery<'_>,
        prox: &mut ProximityCache,
    ) -> Option<(ServerId, f64)> {
        self.refresh(ctx);
        let TargetQuery {
            existing,
            size: partition_size,
            region_queries,
            rent_below,
        } = *q;
        let Self { buckets, walk, .. } = self;
        walk.existing_locs.clear();
        for id in existing {
            if let Some(s) = ctx.cluster.get(*id) {
                walk.existing_locs.push(s.location);
            }
        }
        let v = ctx.economy.diversity_unit_value;
        let alpha = ctx.economy.alpha;
        let beta = ctx.economy.beta;
        // Per-bucket upper bound of the score's positive part: proximity,
        // confidence and diversity-sum factors replaced by the bucket's
        // maxima, multiplied in the same association order as
        // `candidate_score` so monotone rounding keeps the bound sound.
        // The diversity of a candidate pairs at most 63 with an existing
        // replica on another continent and at most 31 with one on its own.
        walk.heads.clear();
        walk.gains.clear();
        for b in buckets.iter() {
            let mut div_ub = 0u32;
            for l in &walk.existing_locs {
                div_ub += if l.continent == b.continent { 31 } else { 63 };
            }
            let mut g_max = 0.0f64;
            for l in &b.reps {
                g_max = g_max.max(prox.g(region_queries, l, ctx.topology));
            }
            walk.gains.push(g_max * b.conf_max * f64::from(div_ub) * v);
            walk.heads.push(0);
        }
        let mut best: Option<(ServerId, f64)> = None;
        loop {
            // Best-first: the head with the greatest score bound.
            let mut pick: Option<(usize, f64)> = None;
            for (bi, bucket) in buckets.iter().enumerate() {
                let Some(e) = bucket.entries.get(walk.heads[bi]) else {
                    continue;
                };
                if let Some(cap) = rent_below {
                    if e.base_rent >= cap {
                        // Rent-sorted: the whole rest of this bucket is
                        // past the cap too.
                        walk.heads[bi] = usize::MAX;
                        continue;
                    }
                }
                let ub = walk.gains[bi] - e.base_rent;
                if pick.is_none_or(|(_, best_ub)| ub > best_ub) {
                    pick = Some((bi, ub));
                }
            }
            let Some((bi, ub)) = pick else { break };
            // Branch-and-bound cutoff: no remaining candidate can beat
            // (or, because its rent is strictly costlier at equal gain,
            // even tie) the best score found so far.
            if let Some((_, best_score)) = best {
                if ub < best_score {
                    break;
                }
            }
            let e = buckets[bi].entries[walk.heads[bi]];
            walk.heads[bi] += 1;
            if existing.contains(&e.id) {
                continue;
            }
            if e.storage_free < partition_size {
                continue;
            }
            let added_frac = if e.storage_capacity == 0 {
                1.0
            } else {
                partition_size as f64 / e.storage_capacity as f64
            };
            let projected_storage = (e.storage_frac + added_frac).min(1.0);
            let rent = e.up * (1.0 + alpha * projected_storage + beta * e.query_frac);
            if let Some(cap) = rent_below {
                if rent >= cap {
                    continue;
                }
            }
            // Cheap per-candidate cut with the exact projected rent: the
            // real score can only be lower than the bucket gain bound
            // minus it.
            if let Some((_, best_score)) = best {
                if walk.gains[bi] - rent < best_score {
                    continue;
                }
            }
            let g = prox.g(region_queries, &e.location, ctx.topology);
            let score = candidate_score(
                &walk.existing_locs,
                &e.location,
                e.confidence,
                rent,
                g,
                ctx.economy.diversity_unit_value,
            );
            best = match best {
                None => Some((e.id, score)),
                Some((best_id, best_score)) => match score.total_cmp(&best_score) {
                    std::cmp::Ordering::Greater => Some((e.id, score)),
                    std::cmp::Ordering::Equal if e.id < best_id => Some((e.id, score)),
                    _ => best,
                },
            };
        }
        best
    }
}

/// The paper's placement policy (eq. 3) behind the strategy interface.
#[derive(Debug, Clone, Copy, Default)]
pub struct EconomicPlacement;

impl PlacementStrategy for EconomicPlacement {
    fn name(&self) -> &'static str {
        "skute-economic"
    }

    fn place_replica(
        &mut self,
        ctx: &PlacementContext<'_>,
        existing: &[ServerId],
        partition_size: u64,
        region_queries: &[RegionQueries],
    ) -> Option<ServerId> {
        let q = TargetQuery {
            existing,
            size: partition_size,
            region_queries,
            rent_below: None,
        };
        economic_target(ctx, &q, &mut ProximityCache::new()).map(|(id, _)| id)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use skute_cluster::{Capacities, ServerSpec};
    use skute_economy::scoring::proximity;
    use skute_geo::Topology;

    /// The `i`-th server of `t` in lexicographic order.
    fn server_at(t: &Topology, i: u64) -> Location {
        t.iter_servers().nth(i as usize).unwrap()
    }

    fn q<'a>(
        existing: &'a [ServerId],
        size: u64,
        region_queries: &'a [RegionQueries],
        rent_below: Option<f64>,
    ) -> TargetQuery<'a> {
        TargetQuery {
            existing,
            size,
            region_queries,
            rent_below,
        }
    }

    /// Eq. (3) through a fresh proximity cache.
    fn target(ctx: &PlacementContext<'_>, q: &TargetQuery<'_>) -> Option<(ServerId, f64)> {
        economic_target(ctx, q, &mut ProximityCache::new())
    }

    /// Eq. (3) with [`proximity`] evaluated for every candidate: the scan
    /// without its per-country memo.
    fn uncached_target(ctx: &PlacementContext<'_>, q: &TargetQuery<'_>) -> Option<(ServerId, f64)> {
        let existing: Vec<Location> = q
            .existing
            .iter()
            .filter_map(|id| ctx.cluster.get(*id).map(|s| s.location))
            .collect();
        feasible_candidates(ctx, q.existing, q.size, q.rent_below)
            .map(|(id, location, confidence, rent)| {
                let g = proximity(q.region_queries, &location, ctx.topology);
                let v = ctx.economy.diversity_unit_value;
                (
                    id,
                    candidate_score(&existing, &location, confidence, rent, g, v),
                )
            })
            .max_by(|a, b| a.1.total_cmp(&b.1).then_with(|| b.0.cmp(&a.0)))
    }

    fn bits(t: Option<(ServerId, f64)>) -> Option<(ServerId, u64)> {
        t.map(|(id, score)| (id, score.to_bits()))
    }

    fn setup() -> (Topology, Cluster, Board) {
        let topology = Topology::paper();
        let cluster = Cluster::from_topology(&topology, |i, location| ServerSpec {
            location,
            capacities: Capacities::paper(1 << 30, 1000.0),
            monthly_cost: if i % 10 < 7 { 100.0 } else { 125.0 },
            confidence: 1.0,
        });
        let mut board = Board::new();
        board.begin_epoch();
        for s in cluster.alive() {
            // Price proportional to monthly cost so rents differentiate.
            board.post(s.id, s.monthly_cost / 720.0);
        }
        (topology, cluster, board)
    }

    #[test]
    fn economic_target_prefers_remote_cheap_servers() {
        let (topology, cluster, board) = setup();
        let economy = EconomyConfig::paper();
        let ctx = PlacementContext {
            cluster: &cluster,
            board: &board,
            topology: &topology,
            economy: &economy,
        };
        // One replica on server 0 (continent 0).
        let existing = vec![ServerId(0)];
        let (winner, _) = target(&ctx, &q(&existing, 0, &[], None)).unwrap();
        let winner_loc = cluster.get(winner).unwrap().location;
        let origin = cluster.get(ServerId(0)).unwrap().location;
        assert_ne!(
            winner_loc.continent, origin.continent,
            "max diversity first"
        );
        // Among the cross-continent candidates, a cheap one must win.
        assert_eq!(cluster.get(winner).unwrap().monthly_cost, 100.0);
    }

    #[test]
    fn existing_servers_are_excluded() {
        let (topology, cluster, board) = setup();
        let economy = EconomyConfig::paper();
        let ctx = PlacementContext {
            cluster: &cluster,
            board: &board,
            topology: &topology,
            economy: &economy,
        };
        let existing: Vec<ServerId> = cluster.alive_ids();
        assert!(target(&ctx, &q(&existing, 0, &[], None)).is_none());
    }

    #[test]
    fn storage_filter_applies() {
        let (topology, cluster, board) = setup();
        let economy = EconomyConfig::paper();
        let ctx = PlacementContext {
            cluster: &cluster,
            board: &board,
            topology: &topology,
            economy: &economy,
        };
        // Nothing can host 2 GiB on 1 GiB servers.
        assert!(target(&ctx, &q(&[], 2 << 30, &[], None)).is_none());
        assert!(target(&ctx, &q(&[], 1 << 20, &[], None)).is_some());
    }

    #[test]
    fn rent_cap_restricts_to_cheaper_servers() {
        let (topology, cluster, board) = setup();
        let economy = EconomyConfig::paper();
        let ctx = PlacementContext {
            cluster: &cluster,
            board: &board,
            topology: &topology,
            economy: &economy,
        };
        let cheap_rent = 100.0 / 720.0;
        // Cap below the cheap price: no candidate at all.
        assert!(target(&ctx, &q(&[], 0, &[], Some(cheap_rent))).is_none());
        // Cap between cheap and expensive: only cheap servers eligible.
        let (winner, _) = target(&ctx, &q(&[], 0, &[], Some(cheap_rent + 1e-6))).unwrap();
        assert_eq!(cluster.get(winner).unwrap().monthly_cost, 100.0);
    }

    #[test]
    fn strategy_interface_returns_same_winner() {
        let (topology, cluster, board) = setup();
        let economy = EconomyConfig::paper();
        let ctx = PlacementContext {
            cluster: &cluster,
            board: &board,
            topology: &topology,
            economy: &economy,
        };
        let existing = vec![ServerId(0)];
        let direct = target(&ctx, &q(&existing, 0, &[], None)).map(|(id, _)| id);
        let mut strategy = EconomicPlacement;
        assert_eq!(strategy.place_replica(&ctx, &existing, 0, &[]), direct);
        assert_eq!(strategy.name(), "skute-economic");
    }

    #[test]
    fn index_matches_brute_force_on_the_paper_fixture() {
        let (topology, mut cluster, board) = setup();
        let economy = EconomyConfig::paper();
        // Skew some usage meters so rents differentiate beyond cost tiers.
        for i in [3u32, 57, 123, 199] {
            let s = cluster.get_mut(ServerId(i)).unwrap();
            let caps = s.capacities;
            assert!(s.usage.reserve_storage(&caps, (u64::from(i) % 7 + 1) << 26));
            s.usage.queries_served =
                (s.usage.queries_served + f64::from(i % 11) * 40.0).min(caps.query_capacity);
        }
        let ctx = PlacementContext {
            cluster: &cluster,
            board: &board,
            topology: &topology,
            economy: &economy,
        };
        let mut index = PlacementIndex::new();
        let regions = [RegionQueries {
            location: Location::client_in_country(1, 0),
            queries: 700.0,
        }];
        let cheap_rent = 100.0 / 720.0;
        for existing in [
            vec![],
            vec![ServerId(0)],
            vec![ServerId(0), ServerId(57), ServerId(123)],
        ] {
            for size in [0u64, 1 << 20, 1 << 29] {
                for cap in [None, Some(cheap_rent * 1.5), Some(cheap_rent / 2.0)] {
                    for rq in [&[][..], &regions[..]] {
                        let brute = target(&ctx, &q(&existing, size, rq, cap));
                        let mut prox = skute_economy::ProximityCache::new();
                        let indexed =
                            index.economic_target(&ctx, &q(&existing, size, rq, cap), &mut prox);
                        assert_eq!(
                            indexed, brute,
                            "existing {existing:?} size {size} cap {cap:?}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn index_matches_brute_force_for_non_zone_clients() {
        // A client at a *real server location* (reachable via
        // `ClientGeo::Weighted`) weighs as its country's client zone, so
        // the per-continent g_max bound holds and the index answers with
        // no fallback: the oracle's winner and score bits, which are also
        // those of the country client.
        let (topology, cluster, board) = setup();
        let economy = EconomyConfig::paper();
        let ctx = PlacementContext {
            cluster: &cluster,
            board: &board,
            topology: &topology,
            economy: &economy,
        };
        let at = server_at(&topology, 150);
        let client = |location| {
            [RegionQueries {
                location,
                queries: 5_000.0,
            }]
        };
        let regions = client(at);
        let existing = vec![ServerId(0)];
        let brute = target(&ctx, &q(&existing, 0, &regions, None));
        let mut index = PlacementIndex::new();
        let mut prox = skute_economy::ProximityCache::new();
        let indexed = index.economic_target(&ctx, &q(&existing, 0, &regions, None), &mut prox);
        assert_eq!(bits(indexed), bits(brute));
        let country = client(Location::client_in_country(at.continent, at.country));
        assert_eq!(
            bits(brute),
            bits(target(&ctx, &q(&existing, 0, &country, None)))
        );
    }

    #[test]
    fn index_invalidates_on_usage_and_price_changes() {
        let (topology, mut cluster, mut board) = setup();
        let economy = EconomyConfig::paper();
        let mut index = PlacementIndex::new();
        let mut prox = skute_economy::ProximityCache::new();
        let winner = |index: &mut PlacementIndex,
                      prox: &mut skute_economy::ProximityCache,
                      cluster: &Cluster,
                      board: &Board| {
            let ctx = PlacementContext {
                cluster,
                board,
                topology: &topology,
                economy: &economy,
            };
            let rebuilt = index.refresh(&ctx);
            let got = index.economic_target(&ctx, &q(&[ServerId(0)], 1 << 20, &[], None), prox);
            let want = target(&ctx, &q(&[ServerId(0)], 1 << 20, &[], None));
            assert_eq!(got, want);
            (rebuilt, got)
        };
        let (rebuilt, first) = winner(&mut index, &mut prox, &cluster, &board);
        assert!(rebuilt, "first query builds the index");
        let (rebuilt, again) = winner(&mut index, &mut prox, &cluster, &board);
        assert!(!rebuilt, "unchanged cluster and board reuse the snapshot");
        assert_eq!(again, first);
        // Fill the current winner's storage: the usage-meter mutation must
        // invalidate the snapshot and steer the choice elsewhere.
        let (prev, _) = first.unwrap();
        {
            let s = cluster.get_mut(prev).unwrap();
            let caps = s.capacities;
            let free = s.storage_free();
            assert!(s.usage.reserve_storage(&caps, free));
        }
        let (rebuilt, after_fill) = winner(&mut index, &mut prox, &cluster, &board);
        assert!(!rebuilt, "a get_mut re-reads its server, not the snapshot");
        assert_ne!(after_fill.unwrap().0, prev, "full server cannot win");
        // Withdrawing a posting invalidates through the board version.
        let (next, _) = after_fill.unwrap();
        board.withdraw(next);
        let (rebuilt, after_withdraw) = winner(&mut index, &mut prox, &cluster, &board);
        assert!(rebuilt, "board changes invalidate the snapshot");
        assert_ne!(after_withdraw.unwrap().0, next);
    }

    proptest::proptest! {
        /// The rent-sorted walk and the memoized scan must return the
        /// *same winner, tie-break and score bits* as a scan evaluating
        /// [`proximity`] per candidate, on arbitrary clusters (servers in
        /// client zones among them), prices, usage meters, region mixes
        /// (clients at server locations among them) and rent caps.
        #[test]
        fn prop_index_equals_brute_force(
            server_picks in proptest::collection::vec(
                (0u64..200, 50.0f64..200.0, 0.2f64..1.0, 0u8..8),
                2..24,
            ),
            usage in proptest::collection::vec((any::<u64>(), 0.0f64..900.0), 0..12),
            unposted in proptest::collection::vec(0usize..24, 0..4),
            existing_picks in proptest::collection::vec(0usize..24, 0..4),
            region_picks in proptest::collection::vec(
                (0u64..200, 0.0f64..1e4, any::<bool>()),
                0..5,
            ),
            size_exp in 0u32..31,
            cap_frac in proptest::option::of(0.1f64..3.0),
            (mutations, withdraw_after) in (
                proptest::collection::vec((0usize..24, 0u8..5, any::<u64>(), 0.0f64..1.0), 0..8),
                proptest::option::of(0usize..24),
            ),
        ) {
            use proptest::prelude::*;
            let topology = Topology::paper();
            let mut cluster = Cluster::default();
            for &(loc_idx, cost, conf, zone) in &server_picks {
                let l = server_at(&topology, loc_idx);
                cluster.commission(
                    ServerSpec {
                        // One server in eight sits in its country's client
                        // zone: eq. (4) weighs it by its country like any.
                        location: if zone == 0 {
                            Location::client_in_country(l.continent, l.country)
                        } else {
                            l
                        },
                        capacities: Capacities::paper(1 << 30, 1000.0),
                        monthly_cost: cost,
                        confidence: conf,
                    },
                );
            }
            let n = cluster.len();
            // Random usage meters, through get_mut like the real epoch loop.
            for &(bytes, queries) in &usage {
                let id = ServerId((bytes % n as u64) as u32);
                let s = cluster.get_mut(id).unwrap();
                let caps = s.capacities;
                let _ = s.usage.reserve_storage(&caps, bytes % (1 << 30));
                s.usage.queries_served = (s.usage.queries_served + queries).min(caps.query_capacity);
            }
            let mut board = Board::new();
            board.begin_epoch();
            for s in cluster.alive() {
                board.post(s.id, s.monthly_cost / 720.0);
            }
            for &u in &unposted {
                board.withdraw(ServerId((u % n) as u32));
            }
            let existing: Vec<ServerId> =
                existing_picks.iter().map(|&i| ServerId((i % n) as u32)).collect();
            let regions: Vec<RegionQueries> = region_picks
                .iter()
                .map(|&(loc_idx, queries, in_zone)| RegionQueries {
                    location: {
                        let l = server_at(&topology, loc_idx);
                        if in_zone {
                            Location::client_in_country(l.continent, l.country)
                        } else {
                            // A client at a real server location: it
                            // weighs as its country, so the index answers
                            // with no fallback to the scan.
                            l
                        }
                    },
                    queries,
                })
                .collect();
            let partition_size = 1u64 << size_exp;
            let rent_below = cap_frac.map(|f| f * 100.0 / 720.0);
            let economy = EconomyConfig::paper();
            let query = q(&existing, partition_size, &regions, rent_below);
            let mut index = PlacementIndex::new();
            let mut prox = ProximityCache::new();
            {
                let ctx = PlacementContext::new(&cluster, &board, &topology, &economy);
                let want = bits(uncached_target(&ctx, &query));
                prop_assert_eq!(bits(target(&ctx, &query)), want);
                prop_assert_eq!(bits(index.economic_target(&ctx, &query, &mut prox)), want);
                // Re-query through the warm snapshot and cache: still identical.
                prop_assert_eq!(bits(index.economic_target(&ctx, &query, &mut prox)), want);
            }
            // Mutate meters, confidences and liveness behind the warm
            // index's back, as the epoch phases and the client paths do:
            // the next query re-reads exactly what moved (or rebuilds,
            // after a board change) and still answers as the scan.
            for &(i, kind, bytes, frac) in &mutations {
                let id = ServerId((i % n) as u32);
                match kind {
                    4 => cluster.retire(id, 1),
                    _ => {
                        let s = cluster.get_mut(id).unwrap();
                        let caps = s.capacities;
                        match kind {
                            0 => {
                                let _ = s.usage.reserve_storage(&caps, bytes % (1 << 30));
                            }
                            1 => s.usage.release_storage(bytes % (1 << 30)),
                            2 => {
                                s.usage.queries_served = (s.usage.queries_served + frac * 900.0).min(caps.query_capacity);
                            }
                            _ => s.confidence = frac,
                        }
                    }
                }
            }
            if let Some(u) = withdraw_after {
                board.withdraw(ServerId((u % n) as u32));
            }
            let ctx = PlacementContext::new(&cluster, &board, &topology, &economy);
            let want = bits(uncached_target(&ctx, &query));
            prop_assert_eq!(bits(index.economic_target(&ctx, &query, &mut prox)), want);
        }
    }

    proptest::proptest! {
        /// The migration floor is sound: with a rent cap at or below it,
        /// eq. (3) finds nothing, or a server whose migration bandwidth is
        /// spent (which `exec_migration` refuses) — on arbitrary clusters,
        /// usage and migration meters, postings, sizes and caps.
        #[test]
        fn prop_migration_floor_rules_out_every_open_target(
            server_picks in proptest::collection::vec((0u64..200, 50.0f64..200.0, 0.2f64..1.0), 1..24),
            usage in proptest::collection::vec((any::<u64>(), 0.0f64..900.0), 0..12),
            migration in proptest::collection::vec((0usize..24, 0u64..(200 << 20)), 0..24),
            unposted in proptest::collection::vec(0usize..24, 0..4),
            existing_picks in proptest::collection::vec(0usize..24, 0..4),
            region_picks in proptest::collection::vec((0u64..200, 0.0f64..1e4), 0..5),
            size_exp in 0u32..31,
            (at_floor, cap_frac) in (any::<bool>(), 0.1f64..1.0),
        ) {
            use proptest::prelude::*;
            let topology = Topology::paper();
            let mut cluster = Cluster::default();
            for &(loc_idx, cost, conf) in &server_picks {
                cluster.commission(
                    ServerSpec {
                        location: server_at(&topology, loc_idx),
                        capacities: Capacities::paper(1 << 30, 1000.0),
                        monthly_cost: cost,
                        confidence: conf,
                    },
                );
            }
            let n = cluster.len();
            for &(bytes, queries) in &usage {
                let s = cluster.get_mut(ServerId((bytes % n as u64) as u32)).unwrap();
                let caps = s.capacities;
                let _ = s.usage.reserve_storage(&caps, bytes % (1 << 30));
                s.usage.queries_served = (s.usage.queries_served + queries).min(caps.query_capacity);
            }
            // Half the draws reach the 100 MiB budget: spent servers.
            for &(i, used) in &migration {
                cluster.get_mut(ServerId((i % n) as u32)).unwrap().usage.migration_used = used;
            }
            let mut board = Board::new();
            board.begin_epoch();
            for s in cluster.alive() {
                board.post(s.id, s.monthly_cost / 720.0);
            }
            for &u in &unposted {
                board.withdraw(ServerId((u % n) as u32));
            }
            let existing: Vec<ServerId> =
                existing_picks.iter().map(|&i| ServerId((i % n) as u32)).collect();
            let regions: Vec<RegionQueries> = region_picks
                .iter()
                .map(|&(loc_idx, queries)| {
                    let l = server_at(&topology, loc_idx);
                    RegionQueries {
                        location: Location::client_in_country(l.continent, l.country),
                        queries,
                    }
                })
                .collect();
            let economy = EconomyConfig::paper();
            let floor = migration_floor(&cluster, &board, &economy);
            // Every cap at or below the floor; exactly at it half the time.
            // With no open server any cap qualifies: draw up to 4× the
            // dearest base price, so spent servers can still win eq. (3).
            let frac = if at_floor { 1.0 } else { cap_frac };
            let cap = if floor.is_finite() { floor * frac } else { frac * 200.0 / 720.0 * 4.0 };
            let ctx = PlacementContext::new(&cluster, &board, &topology, &economy);
            let found = target(&ctx, &q(&existing, 1u64 << size_exp, &regions, Some(cap)));
            if let Some((id, _)) = found {
                let s = cluster.get(id).unwrap();
                prop_assert!(
                    s.usage.migration_used >= s.capacities.migration_bw,
                    "{id} is open below the floor {floor} (cap {cap})"
                );
            }
        }
    }

    #[test]
    fn determinism_under_ties() {
        let (topology, cluster, board) = setup();
        let economy = EconomyConfig::paper();
        let ctx = PlacementContext {
            cluster: &cluster,
            board: &board,
            topology: &topology,
            economy: &economy,
        };
        let a = target(&ctx, &q(&[ServerId(0)], 0, &[], None));
        let b = target(&ctx, &q(&[ServerId(0)], 0, &[], None));
        assert_eq!(a, b);
    }
}
