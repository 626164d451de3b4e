//! Epoch phase 1 — query traffic: the per-partition delivery plan, its
//! driver, and the sequential commit against the live query-capacity
//! meters.
//!
//! A batch offers one region mix to every partition of its ring, so the
//! driver resolves what the mix fixes once per batch: the ring's
//! Σ popularity and each server's region-weighted client distance. Each
//! partition's plan then folds its share of the batch into its region
//! list and weighs each replica through the partition's
//! [`ProximityCache`](skute_economy::ProximityCache), which aggregates
//! the new mix once and evaluates eq. (4) once per replica country.

use skute_cluster::{Cluster, ServerId};
use skute_economy::RegionQueries;
use skute_geo::{RegionWeight, Topology};

use super::SkuteCloud;
use crate::app::AppId;
use crate::error::CoreError;
use crate::vnode::PartitionState;

/// One ring's query traffic for a batched
/// [`SkuteCloud::deliver_queries_multi`] call.
#[derive(Debug, Clone)]
pub struct TrafficBatch {
    /// Target application.
    pub app: AppId,
    /// Availability level (ring index within the application).
    pub level: u32,
    /// Queries offered to the ring this epoch.
    pub queries: f64,
    /// Client regions with normalized weights.
    pub regions: Vec<RegionWeight>,
}

/// One batch of a delivery wave, with what it fixes for every partition
/// of its ring.
struct PlannedBatch {
    ring: usize,
    /// Queries offered to the ring.
    queries: f64,
    /// The ring's Σ popularity: the proportional-split denominator.
    total_pop: f64,
    /// The region-weighted client distance of every server (latency proxy,
    /// diversity units), indexed by `ServerId.0` over the whole cluster.
    dists: Vec<f64>,
    /// Client regions with normalized weights.
    regions: Vec<RegionWeight>,
}

/// One partition's delivery plan: its share of the batch folded into its
/// region mix, and each replica's eq.-(4) weight and client distance,
/// written into the replica. Pure per-partition work against immutable
/// cluster state, so the fan-out ([`crate::pipeline`]) may run partitions
/// in any grouping.
fn plan_one_delivery(
    part: &mut PartitionState,
    cluster: &Cluster,
    topology: &Topology,
    batch: &PlannedBatch,
) {
    part.delivery.ready = false;
    let q = batch.queries * part.popularity / batch.total_pop;
    if q <= 0.0 {
        return;
    }
    part.queries_epoch += q;
    let PartitionState {
        region_queries,
        prox_cache,
        replicas,
        delivery,
        ..
    } = &mut *part;
    // The region mix changes: drop the stale memoized proximity, which
    // the replicas refill per country. Placement decisions later in the
    // epoch reuse the refilled entries.
    prox_cache.clear();
    for region in &batch.regions {
        let add = q * region.weight;
        if add <= 0.0 {
            continue;
        }
        match region_queries
            .iter_mut()
            .find(|r| r.location == region.location)
        {
            Some(r) => r.queries += add,
            None => region_queries.push(RegionQueries {
                location: region.location,
                queries: add,
            }),
        }
    }
    for r in replicas.iter_mut() {
        let id = r.server.0 as usize;
        (r.proximity, r.client_distance) = match cluster.get(r.server) {
            Some(s) => (
                prox_cache.g(region_queries, &s.location, topology),
                batch.dists[id],
            ),
            None => (1.0, 0.0),
        };
    }
    delivery.q = q;
    delivery.sum_g = replicas.iter().map(|r| r.proximity).sum();
    delivery.ready = true;
}

impl SkuteCloud {
    /// Delivers one epoch's query traffic to one or more rings. Each
    /// batch's queries are spread over its ring's partitions
    /// proportionally to their popularity, arrive from the batch's
    /// regions (normalized weights), and are answered by replicas
    /// proportionally to their client proximity `g`, spilling over when a
    /// server's query capacity saturates. Replica utility accrues per
    /// eq. (5).
    ///
    /// Every ring's delivery **plan** pass runs in a single fan-out over
    /// the thread budget; commits are sequential: the rings in batch
    /// order, each ring's partitions in ring order, every partition served
    /// against the live per-server query-capacity meters. Delivery plans
    /// read no capacity meters, so the trajectory is **bitwise identical**
    /// to one-batch calls made in turn.
    ///
    /// Batches are processed in order; batches addressing the same ring
    /// observe each other's committed traffic exactly like consecutive
    /// one-batch calls. A batch naming an unknown app or level fails the
    /// whole call before any traffic lands.
    pub fn deliver_queries_multi(&mut self, batches: Vec<TrafficBatch>) -> Result<(), CoreError> {
        // Resolve every ring up front: a bad batch fails the whole call
        // before any traffic lands.
        let mut resolved: Vec<(usize, TrafficBatch)> = Vec::with_capacity(batches.len());
        for b in batches {
            let ri = self.ring_index(b.app, b.level)?;
            resolved.push((ri, b));
        }
        // Batches targeting the same ring must observe each other's
        // committed traffic: split the call into waves of distinct rings,
        // processed in order (each wave is one plan dispatch).
        let mut wave: Vec<(usize, TrafficBatch)> = Vec::new();
        for (ri, b) in resolved {
            if wave.iter().any(|(wri, _)| *wri == ri) {
                let w = std::mem::take(&mut wave);
                self.deliver_wave(w);
            }
            wave.push((ri, b));
        }
        if !wave.is_empty() {
            self.deliver_wave(wave);
        }
        Ok(())
    }

    /// Plans and commits one wave of distinct-ring traffic batches.
    fn deliver_wave(&mut self, wave: Vec<(usize, TrafficBatch)>) {
        let gamma = self.config.economy.utility_per_query;
        let plan_start = self.obs_start();
        // A batch offering no queries, or addressing a ring without
        // popularity, delivers nothing; the rest resolve once what every
        // partition of their ring shares.
        let wave: Vec<PlannedBatch> = wave
            .into_iter()
            .filter_map(|(ring, b)| {
                if b.queries <= 0.0 {
                    return None;
                }
                let total_pop: f64 = self.rings[ring]
                    .partitions
                    .values()
                    .map(|p| p.popularity)
                    .sum();
                if total_pop <= 0.0 {
                    return None;
                }
                let dists = self
                    .cluster
                    .iter()
                    .map(|s| {
                        b.regions
                            .iter()
                            .map(|reg| {
                                reg.weight
                                    * f64::from(skute_geo::diversity(&reg.location, &s.location))
                            })
                            .sum()
                    })
                    .collect();
                Some(PlannedBatch {
                    ring,
                    queries: b.queries,
                    total_pop,
                    dists,
                    regions: b.regions,
                })
            })
            .collect();
        if wave.is_empty() {
            return;
        }
        // Plan pass: one fan-out across every partition of every ring of
        // the wave (the rings are distinct, so the borrows are disjoint).
        let Self {
            rings,
            cluster,
            topology,
            pipeline,
            ..
        } = self;
        let mut items: Vec<(&PlannedBatch, &mut PartitionState)> = Vec::new();
        for (ri, ring) in rings.iter_mut().enumerate() {
            if let Some(batch) = wave.iter().find(|b| b.ring == ri) {
                items.extend(ring.partitions.values_mut().map(|part| (batch, part)));
            }
        }
        pipeline.for_each_chunk(&mut items, |chunk| {
            for (batch, part) in chunk {
                plan_one_delivery(part, cluster, topology, batch);
            }
        });
        self.obs_phase(plan_start, |m| &m.phase_traffic_plan);
        let commit_start = self.obs_start();
        for batch in &wave {
            self.commit_ring_traffic(batch.ring, gamma);
        }
        self.obs_phase(commit_start, |m| &m.phase_traffic_commit);
    }

    /// The traffic commit of one ring: every addressed partition, in ring
    /// order, served against the live capacity meters.
    fn commit_ring_traffic(&mut self, ring_idx: usize, gamma: f64) {
        let mut pids = std::mem::take(&mut self.pids_scratch);
        pids.clear();
        pids.extend(self.rings[ring_idx].ring.iter_partition_ids());
        for &pid in &pids {
            let Some(partition) = self.rings[ring_idx].partitions.get_mut(&pid) else {
                continue;
            };
            if !partition.delivery.ready {
                continue; // no queries addressed to this partition
            }
            let q = partition.delivery.q;
            if partition.delivery.sum_g <= 0.0 {
                let ring = &mut self.rings[ring_idx];
                ring.queries_offered_epoch += q;
                ring.queries_dropped_epoch += q;
                continue;
            }
            let (served_total, remaining, distance_sum) = Self::commit_partition_sequential(
                &mut self.cluster,
                partition,
                gamma,
                &mut self.order_scratch,
            );
            let ring = &mut self.rings[ring_idx];
            ring.queries_offered_epoch += q;
            ring.queries_served_epoch += served_total;
            ring.queries_dropped_epoch += remaining.max(0.0);
            ring.distance_sum_epoch += distance_sum;
        }
        self.pids_scratch = pids;
    }

    /// The per-partition traffic commit: the proximity-proportional pass
    /// capped by live capacity, the spill pass, and the drop recording.
    /// Returns the partition's `(served, remaining, distance_sum)`
    /// contributions to the ring totals.
    ///
    /// The serving order is the replicas by descending proximity, ties in
    /// replica order (a stable sort), built in `order` (reused scratch).
    fn commit_partition_sequential(
        cluster: &mut Cluster,
        partition: &mut PartitionState,
        gamma: f64,
        order: &mut Vec<(usize, f64)>,
    ) -> (f64, f64, f64) {
        let PartitionState {
            replicas, delivery, ..
        } = &mut *partition;
        let q = delivery.q;
        let sum_g = delivery.sum_g;
        order.clear();
        order.extend(replicas.iter().map(|r| r.proximity).enumerate());
        order.sort_by(|a, b| b.1.total_cmp(&a.1));
        let mut distance_sum = 0.0;
        let mut served_total = 0.0;
        let mut serve = |i: usize, want: f64| {
            let r = &mut replicas[i];
            let served = Self::serve_on(cluster, r.server, want);
            r.queries_epoch += served;
            r.utility_epoch += gamma * served * r.proximity;
            distance_sum += served * r.client_distance;
            served_total += served;
            served
        };
        // Pass 1: proximity-proportional shares, capped by capacity.
        let mut remaining = q;
        for &(i, g) in order.iter() {
            remaining -= serve(i, (q * g / sum_g).min(remaining));
        }
        // Pass 2: spill the remainder to whoever still has capacity,
        // closest replicas first.
        for &(i, _) in order.iter() {
            if remaining <= 1e-9 {
                break;
            }
            remaining -= serve(i, remaining);
        }
        if remaining > 1e-9 {
            // Genuinely dropped: record on the closest replica's server.
            if let Some(&(best, _)) = order.first() {
                if let Some(s) = cluster.get_mut(replicas[best].server) {
                    s.usage.queries_dropped += remaining;
                }
            }
        }
        (served_total, remaining, distance_sum)
    }

    fn serve_on(cluster: &mut Cluster, server: ServerId, queries: f64) -> f64 {
        if queries <= 0.0 {
            return 0.0;
        }
        match cluster.get_mut(server) {
            Some(s) if s.is_alive() => {
                let caps = s.capacities;
                let remaining = (caps.query_capacity - s.usage.queries_served).max(0.0);
                let take = queries.min(remaining);
                s.usage.queries_served += take;
                take
            }
            _ => 0.0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::app::{AppSpec, LevelSpec};
    use crate::cloud::select_target;
    use crate::cloud::tests::{one_batch, paper_cluster, small_cloud, GIB};
    use crate::config::SkuteConfig;
    use crate::metrics::EpochReport;
    use crate::placement::{PlacementContext, TargetQuery};
    use skute_cluster::{Capacities, ServerSpec};
    use skute_economy::proximity;
    use skute_geo::Location;
    use skute_ring::RingId;

    #[test]
    fn queries_accrue_utility_and_load() {
        let (mut cloud, app) = small_cloud();
        // Converge first.
        for _ in 0..5 {
            cloud.begin_epoch();
            cloud.end_epoch();
        }
        cloud.begin_epoch();
        let regions = skute_geo::ClientGeo::Uniform.region_weights(cloud.topology());
        cloud
            .deliver_queries_multi(one_batch(app, 0, 3000.0, &regions))
            .unwrap();
        let report = cloud.end_epoch();
        let ring = report.ring(RingId::new(app.0, 0)).unwrap();
        assert!((ring.queries_offered - 3000.0).abs() < 1e-6);
        assert!(
            ring.queries_served > 2999.0,
            "capacity is ample: all served"
        );
        assert!(report.utility_earned > 0.0);
        assert!(report.rent_paid > 0.0);
    }

    /// Per-epoch served/dropped meter bits of every alive server.
    type MeterBits = Vec<(ServerId, u64, u64)>;

    /// Runs a query-capacity-constrained cloud for `epochs` and returns
    /// per-epoch reports plus every alive server's served/dropped meter
    /// bits — the conservation fingerprint of the traffic commit.
    fn saturated_run(
        threads: usize,
        query_capacity: f64,
        queries: f64,
        epochs: usize,
    ) -> Vec<(EpochReport, MeterBits)> {
        let topology = Topology::paper();
        let cluster = Cluster::from_topology(&topology, |i, location| ServerSpec {
            location,
            capacities: Capacities::paper(10 * GIB, query_capacity),
            monthly_cost: if i % 10 < 7 { 100.0 } else { 125.0 },
            confidence: 1.0,
        });
        let config = SkuteConfig::paper().with_threads(threads);
        let mut cloud = SkuteCloud::new(config, topology, cluster);
        let app = cloud
            .create_application(AppSpec::new("t").level(LevelSpec::new(3, 24)))
            .unwrap();
        let regions = skute_geo::ClientGeo::Uniform.region_weights(cloud.topology());
        let mut out = Vec::new();
        for _ in 0..epochs {
            cloud.begin_epoch();
            cloud
                .deliver_queries_multi(one_batch(app, 0, queries, &regions))
                .unwrap();
            let report = cloud.end_epoch();
            let meters: Vec<(ServerId, u64, u64)> = cloud
                .cluster()
                .alive()
                .map(|s| {
                    (
                        s.id,
                        s.usage.queries_served.to_bits(),
                        s.usage.queries_dropped.to_bits(),
                    )
                })
                .collect();
            out.push((report, meters));
        }
        out
    }

    /// Conservation of one [`saturated_run`]: per ring every offered query
    /// is either served or dropped, no server serves past its capacity,
    /// and the servers' meters add up to what the ring reports.
    fn assert_queries_conserved(run: &[(EpochReport, MeterBits)], query_capacity: f64) {
        let close = |a: f64, b: f64| (a - b).abs() <= 1e-6 * a.abs().max(b.abs()).max(1.0);
        for (epoch, (report, meters)) in run.iter().enumerate() {
            let (mut ring_served, mut ring_dropped) = (0.0, 0.0);
            for ring in &report.rings {
                assert!(
                    close(
                        ring.queries_offered,
                        ring.queries_served + ring.queries_dropped
                    ),
                    "epoch {epoch}: offered {} != served {} + dropped {}",
                    ring.queries_offered,
                    ring.queries_served,
                    ring.queries_dropped
                );
                ring_served += ring.queries_served;
                ring_dropped += ring.queries_dropped;
            }
            let (mut served, mut dropped) = (0.0, 0.0);
            for &(id, s, d) in meters {
                let (s, d) = (f64::from_bits(s), f64::from_bits(d));
                assert!(
                    s <= query_capacity * (1.0 + 1e-12),
                    "epoch {epoch}: {id:?} served {s} past its capacity {query_capacity}"
                );
                served += s;
                dropped += d;
            }
            assert!(
                close(served, ring_served),
                "epoch {epoch}: {served} vs {ring_served}"
            );
            assert!(
                close(dropped, ring_dropped),
                "epoch {epoch}: {dropped} vs {ring_dropped}"
            );
        }
    }

    #[test]
    fn saturated_traffic_commit_conserves_queries_at_every_thread_count() {
        // 200 servers × 12 queries of capacity against 5000 offered
        // queries: meters saturate, the spill pass runs and queries drop.
        // The commit must conserve queries, and reports and per-server
        // served/dropped meters must be bitwise identical at every thread
        // count.
        let inline = saturated_run(1, 12.0, 5_000.0, 6);
        assert_queries_conserved(&inline, 12.0);
        for threads in [2, 8] {
            assert_eq!(
                inline,
                saturated_run(threads, 12.0, 5_000.0, 6),
                "traffic commit is not thread-count invariant under saturation"
            );
        }
        let dropped: f64 = inline
            .iter()
            .flat_map(|(r, _)| r.rings.iter().map(|ring| ring.queries_dropped))
            .sum();
        assert!(dropped > 0.0, "test must exercise capacity exhaustion");
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(6))]
        /// Conservation as a property: across random capacity regimes
        /// (ample through heavily saturated) and traffic volumes, the
        /// traffic commit serves or drops every offered query within
        /// every server's capacity — bitwise identically at 1, 2 and 8
        /// threads.
        #[test]
        fn prop_traffic_commit_conserves_queries(
            query_capacity in 5.0f64..80.0,
            queries in 200.0f64..9_000.0,
        ) {
            let inline = saturated_run(1, query_capacity, queries, 3);
            assert_queries_conserved(&inline, query_capacity);
            for threads in [2, 8] {
                proptest::prop_assert_eq!(&inline, &saturated_run(threads, query_capacity, queries, 3));
            }
        }
    }

    #[test]
    fn deliver_queries_multi_matches_consecutive_single_calls() {
        // Batching distinct rings into one multi call (one plan dispatch)
        // must be bitwise identical to consecutive per-ring calls, and
        // same-ring batches must stack like consecutive calls.
        let build = || {
            let topology = Topology::paper();
            let cluster = paper_cluster(&topology);
            let mut cloud = SkuteCloud::new(SkuteConfig::paper(), topology, cluster);
            let app = cloud
                .create_application(
                    AppSpec::new("t")
                        .level(LevelSpec::new(2, 8))
                        .level(LevelSpec::new(3, 8)),
                )
                .unwrap();
            for _ in 0..4 {
                cloud.begin_epoch();
                cloud.end_epoch();
            }
            cloud.begin_epoch();
            (cloud, app)
        };
        let fingerprint = |cloud: &mut SkuteCloud| {
            let r = cloud.end_epoch();
            let meters: Vec<u64> = cloud
                .cluster()
                .alive()
                .map(|s| s.usage.queries_served.to_bits())
                .collect();
            (r, meters)
        };
        let (mut single, app) = build();
        let regions = skute_geo::ClientGeo::Uniform.region_weights(single.topology());
        for (level, queries) in [(0, 900.0), (1, 1_400.0), (0, 300.0)] {
            single
                .deliver_queries_multi(one_batch(app, level, queries, &regions))
                .unwrap();
        }
        let a = fingerprint(&mut single);
        let (mut multi, app) = build();
        multi
            .deliver_queries_multi(vec![
                TrafficBatch {
                    app,
                    level: 0,
                    queries: 900.0,
                    regions: regions.clone(),
                },
                TrafficBatch {
                    app,
                    level: 1,
                    queries: 1_400.0,
                    regions: regions.clone(),
                },
                TrafficBatch {
                    app,
                    level: 0,
                    queries: 300.0,
                    regions: regions.clone(),
                },
            ])
            .unwrap();
        let b = fingerprint(&mut multi);
        assert_eq!(a, b);
        // A bad batch fails the whole call before any traffic lands.
        let (mut bad, app) = build();
        assert!(matches!(
            bad.deliver_queries_multi(vec![
                TrafficBatch {
                    app,
                    level: 0,
                    queries: 500.0,
                    regions: regions.clone(),
                },
                TrafficBatch {
                    app,
                    level: 9,
                    queries: 500.0,
                    regions: regions.clone(),
                },
            ]),
            Err(CoreError::UnknownLevel)
        ));
        let r = bad.end_epoch();
        for ring in &r.rings {
            assert_eq!(ring.queries_offered, 0.0, "no traffic may land");
        }
    }

    #[test]
    fn two_mixes_into_one_ring_weigh_as_a_fresh_proximity() {
        // Two batches with different region mixes for one ring: the second
        // lands in a later wave, after the first filled every partition's
        // cache. Each delivery clears the cache before it folds, so every
        // replica weight, and every weight a later placement query reads
        // from the same cache, is a fresh eq. (4) over the partition's
        // whole mix, bit for bit.
        let (mut cloud, app) = small_cloud();
        for _ in 0..5 {
            cloud.begin_epoch();
            cloud.end_epoch();
        }
        cloud.begin_epoch();
        let mix = |regions: &[((u16, u16), f64)]| -> Vec<RegionWeight> {
            regions
                .iter()
                .map(|&((ct, co), weight)| RegionWeight {
                    location: Location::client_in_country(ct, co),
                    weight,
                })
                .collect()
        };
        let batch = |queries, regions| TrafficBatch {
            app,
            level: 0,
            queries,
            regions,
        };
        cloud
            .deliver_queries_multi(vec![
                batch(2_000.0, mix(&[((0, 0), 0.8), ((1, 0), 0.2)])),
                batch(1_500.0, mix(&[((4, 1), 0.7), ((0, 0), 0.3)])),
            ])
            .unwrap();
        let SkuteCloud {
            rings,
            cluster,
            board,
            topology,
            config,
            index,
            ..
        } = &mut cloud;
        let ctx = PlacementContext::new(cluster, board, topology, &config.economy);
        for part in rings[0].partitions.values_mut() {
            assert_eq!(part.region_queries.len(), 3, "the two mixes merge");
            for r in &part.replicas {
                let server = cluster.get(r.server).unwrap().location;
                let fresh = proximity(&part.region_queries, &server, topology);
                assert_eq!(r.proximity.to_bits(), fresh.to_bits(), "{server}");
            }
            let existing = part.replica_servers();
            let q = TargetQuery {
                existing: &existing,
                size: 0,
                region_queries: &part.region_queries,
                rent_below: None,
            };
            assert!(select_target(index, &ctx, &q, &mut part.prox_cache).is_some());
            for s in cluster.iter() {
                let fresh = proximity(&part.region_queries, &s.location, topology);
                let cached = part
                    .prox_cache
                    .g(&part.region_queries, &s.location, topology);
                assert_eq!(cached.to_bits(), fresh.to_bits(), "{}", s.location);
            }
        }
    }

    #[test]
    fn popularity_assignment_shapes_query_distribution() {
        let (mut cloud, app) = small_cloud();
        cloud
            .assign_popularity(app, 0, |i| if i == 0 { 100.0 } else { 0.0 })
            .unwrap();
        for _ in 0..4 {
            cloud.begin_epoch();
            cloud.end_epoch();
        }
        cloud.begin_epoch();
        let regions = skute_geo::ClientGeo::Uniform.region_weights(cloud.topology());
        cloud
            .deliver_queries_multi(one_batch(app, 0, 1000.0, &regions))
            .unwrap();
        let report = cloud.end_epoch();
        let ring = report.ring(RingId::new(app.0, 0)).unwrap();
        assert!((ring.queries_offered - 1000.0).abs() < 1e-6);
    }
}
