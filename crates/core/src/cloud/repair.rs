//! Epoch phase 2 — availability repair: the memoized eq.-(2) evaluation,
//! the SLA repair pass, and the emergency relocation of a replica blocked
//! on a full server. Both placements are eq.-(3) queries without a rent
//! cap: availability and space beat price here.
//!
//! The SLA pass visits each ring's partitions in a seeded shuffle order
//! but opens only those a storage-order sweep found below their SLA with
//! room for another replica. A converged ring lists none and costs its
//! shuffle and one sweep over cached floats.

use rand::seq::SliceRandom;

use skute_cluster::Cluster;
use skute_ring::PartitionId;

use super::exec::{exec_migration, exec_replication, exec_suicide};
use super::{select_target, SkuteCloud};
use crate::config::MAX_REPAIRS_PER_PARTITION_PER_EPOCH;
use crate::decision::ActionCounts;
use crate::placement::{PlacementContext, TargetQuery};
use crate::vnode::{PartitionState, VnodeId};

/// Memoized eq.-(2) availability of a partition's current replica set,
/// computing and caching on miss (`PartitionState::memoize_availability`,
/// which memoizes every replica's availability without itself beside
/// it). Bit-identical to the direct evaluation: the placed list is built
/// in replica order, exactly as the sequential loops always did, and
/// locations/confidences are immutable.
pub(crate) fn cached_availability(cluster: &Cluster, part: &mut PartitionState) -> f64 {
    match part.cached_availability {
        Some(a) => a,
        None => part.memoize_availability(cluster),
    }
}

impl SkuteCloud {
    /// Availability pass: every partition below its SLA threshold replicates
    /// towards the eq.-(3) optimal server, limited by bandwidth, storage and
    /// the per-epoch repair cap.
    ///
    /// A fanned-out pre-pass warms every partition's memoized eq.-(2)
    /// availability. Per ring, a storage-order sweep then lists the
    /// partitions that can act: fewer than `max_replicas` replicas and a
    /// cached availability below the threshold. The commit shuffles the
    /// ring's full pid list with the cloud's seeded RNG, as it always did,
    /// and opens only the listed pids, in that order; a ring with an empty
    /// list draws its shuffle and is done. The list is exact, not a guess:
    /// a partition's eligibility reads only its own membership and its
    /// servers' confidences, confidences do not move inside the phase, and
    /// membership changes only through the partition's own repair, which
    /// the commit re-checks live. Repairs invalidate their partition's
    /// cache, so follow-up iterations re-evaluate.
    pub(super) fn repair_availability(&mut self, actions: &mut ActionCounts) {
        let window = self.config.economy.decision_window;
        let max_replicas = self.config.economy.max_replicas;
        // Warm the cache misses; the converged steady state has none.
        let Self {
            rings,
            cluster,
            pipeline,
            ..
        } = self;
        let mut misses: Vec<&mut PartitionState> = rings
            .iter_mut()
            .flat_map(|ring| ring.partitions.values_mut())
            .filter(|part| part.cached_availability.is_none())
            .collect();
        pipeline.for_each_chunk(&mut misses, |chunk| {
            for part in chunk {
                let _ = cached_availability(cluster, part);
            }
        });
        // Commit pass: sequential, seeded shuffle order.
        let mut listed = std::mem::take(&mut self.repair_scratch);
        let mut pids = std::mem::take(&mut self.pids_scratch);
        for ri in 0..self.rings.len() {
            let threshold = self.rings[ri].level.threshold;
            listed.clear();
            // Storage order, so `listed` is sorted by pid.
            listed.extend(
                self.rings[ri]
                    .partitions
                    .iter_mut()
                    .filter_map(|(pid, part)| {
                        let open = part.replica_count() < max_replicas
                            && cached_availability(&self.cluster, part) < threshold;
                        open.then_some(*pid)
                    }),
            );
            pids.clear();
            pids.extend(self.rings[ri].ring.iter_partition_ids());
            pids.shuffle(&mut self.rng);
            if listed.is_empty() {
                continue;
            }
            for &pid in &pids {
                if listed.binary_search(&pid).is_err() {
                    continue;
                }
                for _ in 0..MAX_REPAIRS_PER_PARTITION_PER_EPOCH {
                    let Some(partition) = self.rings[ri].partitions.get_mut(&pid) else {
                        break;
                    };
                    if partition.replica_count() >= max_replicas {
                        break;
                    }
                    if cached_availability(&self.cluster, partition) >= threshold {
                        break;
                    }
                    self.servers_scratch.clear();
                    self.servers_scratch
                        .extend(partition.replicas.iter().map(|r| r.server));
                    let size = partition.size_bytes();
                    let target = select_target(
                        &mut self.index,
                        &PlacementContext::new(
                            &self.cluster,
                            &self.board,
                            &self.topology,
                            &self.config.economy,
                        ),
                        &TargetQuery {
                            existing: &self.servers_scratch,
                            size,
                            region_queries: &partition.region_queries,
                            rent_below: None,
                        },
                        &mut partition.prox_cache,
                    );
                    let Some((target, _)) = target else {
                        actions.blocked_transfers += 1;
                        break;
                    };
                    let vid = VnodeId(self.next_vnode);
                    if let Some(t) =
                        exec_replication(&mut self.cluster, partition, target, vid, window)
                    {
                        self.next_vnode += 1;
                        actions.availability_replications += 1;
                        actions.replicated_bytes += t.logical;
                        actions.measured_replicated_bytes += t.measured;
                        self.note_index(&[target]);
                    } else {
                        actions.blocked_transfers += 1;
                        break;
                    }
                }
            }
        }
        self.repair_scratch = listed;
        self.pids_scratch = pids;
    }

    /// Emergency rebalance: replica `idx` of a partition sits on a server
    /// that cannot absorb `incoming` more bytes; migrate it (eq. 3, no rent
    /// cap — space beats price here) to a server that fits the partition
    /// plus the incoming write. Best-effort: bandwidth limits still apply.
    pub(super) fn relocate_blocked_replica(
        &mut self,
        ring_idx: usize,
        pid: PartitionId,
        idx: usize,
        incoming: u64,
    ) {
        let Some(partition) = self.rings[ring_idx].partitions.get_mut(&pid) else {
            return;
        };
        if idx >= partition.replicas.len() {
            return;
        }
        let size = partition.synthetic_bytes + partition.replicas[idx].store.logical_bytes();
        self.servers_scratch.clear();
        self.servers_scratch
            .extend(partition.replicas.iter().map(|r| r.server));
        self.servers_scratch.remove(idx);
        let target = select_target(
            &mut self.index,
            &PlacementContext::new(
                &self.cluster,
                &self.board,
                &self.topology,
                &self.config.economy,
            ),
            &TargetQuery {
                existing: &self.servers_scratch,
                size: size.saturating_add(incoming),
                region_queries: &partition.region_queries,
                rent_below: None,
            },
            &mut partition.prox_cache,
        );
        let Some((target, _)) = target else {
            return;
        };
        let source = partition.replicas[idx].server;
        // When the migration budget is exhausted, fall back to the (3×
        // larger) replication budget: copy the replica to the target, then
        // drop the blocked copy.
        let moved = exec_migration(&mut self.cluster, partition, idx, target).or_else(|| {
            let vid = VnodeId(self.next_vnode);
            let window = self.config.economy.decision_window;
            let t = exec_replication(&mut self.cluster, partition, target, vid, window)?;
            self.next_vnode += 1;
            exec_suicide(&mut self.cluster, partition, idx);
            Some(t)
        });
        if let Some(t) = moved {
            self.epoch_actions.migrations += 1;
            self.epoch_actions.migrated_bytes += t.logical;
            self.epoch_actions.measured_migrated_bytes += t.measured;
            self.note_index(&[source, target]);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::app::{AppSpec, LevelSpec};
    use crate::availability::availability_of;
    use crate::cloud::tests::{paper_cluster, small_cloud, GIB};
    use crate::config::SkuteConfig;
    use skute_cluster::{Capacities, ServerSpec};
    use skute_geo::{ClientGeo, Topology};
    use skute_store::{FaultPlan, FaultPlanKind};

    #[test]
    fn repairs_grow_partitions_to_sla() {
        let (mut cloud, app) = small_cloud();
        for _ in 0..6 {
            cloud.begin_epoch();
            cloud.end_epoch();
        }
        let threshold = cloud.applications()[0].levels[0].threshold;
        for pid in cloud.partition_ids(app, 0).unwrap() {
            let servers = cloud.replica_servers(app, 0, pid).unwrap();
            assert!(
                servers.len() >= 3,
                "partition {pid} has {} replicas",
                servers.len()
            );
            let placed: Vec<_> = servers
                .iter()
                .map(|id| {
                    let s = cloud.cluster().get(*id).unwrap();
                    (s.location, s.confidence)
                })
                .collect();
            assert!(availability_of(&placed) >= threshold);
        }
    }

    #[test]
    fn a_repair_blocked_last_epoch_runs_on_its_cached_availability() {
        // Epoch 1 spends every server's replication bandwidth before the
        // repair phase: every seeded partition stays below its SLA, and
        // its availability is cached by the warm-up. Epoch 2 has no cache
        // miss at all, yet the commit must still open those partitions.
        let (mut cloud, app) = small_cloud();
        cloud.begin_epoch();
        for s in cloud.cluster.alive_mut() {
            s.usage.replication_used = s.capacities.replication_bw;
        }
        let blocked = cloud.end_epoch();
        assert_eq!(blocked.actions.availability_replications, 0);
        assert!(blocked.actions.blocked_transfers > 0);
        cloud.begin_epoch();
        let threshold = cloud.applications()[0].levels[0].threshold;
        for part in cloud.rings[0].partitions.values() {
            let cached = part.cached_availability.expect("cached last epoch");
            assert!(cached < threshold && part.replica_count() == 1);
        }
        let report = cloud.end_epoch();
        assert!(report.actions.availability_replications > 0);
        let pids = cloud.partition_ids(app, 0).unwrap();
        assert!(pids
            .iter()
            .all(|&pid| cloud.replica_servers(app, 0, pid).unwrap().len() > 1));
    }

    /// Asserts every valid leave-one-out memo of `cloud` against eq. (2)
    /// evaluated from scratch, by bits; returns how many it checked.
    fn check_leave_one_out_memos(cloud: &SkuteCloud) -> usize {
        let mut checked = 0;
        let mut scratch = Vec::new();
        for part in cloud.rings.iter().flat_map(|ring| ring.partitions.values()) {
            if part.cached_availability.is_none() {
                continue;
            }
            for idx in 0..part.replicas.len() {
                let placed: Vec<_> = part
                    .replicas
                    .iter()
                    .enumerate()
                    .filter(|&(i, _)| i != idx)
                    .filter_map(|(_, r)| cloud.cluster.get(r.server))
                    .map(|s| (s.location, s.confidence))
                    .collect();
                assert_eq!(
                    part.availability_without(&cloud.cluster, idx, &mut scratch)
                        .to_bits(),
                    availability_of(&placed).to_bits(),
                    "partition {} replica {idx}",
                    part.id
                );
                checked += 1;
            }
        }
        checked
    }

    #[test]
    fn leave_one_out_memos_track_churn_and_gray_confidences() {
        // A gray fault plan moves server confidences at every epoch start
        // and a server is retired and replaced every third epoch. Wherever
        // the availability memo is valid, after the churn and after each
        // epoch's decisions, every replica's memoized availability without
        // itself must equal eq. (2) evaluated from scratch.
        let topology = Topology::paper();
        let cluster = paper_cluster(&topology);
        let gray = FaultPlan {
            kind: FaultPlanKind::Gray,
            seed: 7,
        };
        let mut cloud = SkuteCloud::new(
            SkuteConfig::paper().with_fault_plan(gray),
            topology,
            cluster,
        );
        let app = cloud
            .create_application(AppSpec::new("t").level(LevelSpec::new(3, 24)))
            .unwrap();
        let regions = ClientGeo::Uniform.region_weights(cloud.topology());
        let mut checked = 0;
        for epoch in 0..18 {
            cloud.begin_epoch();
            if epoch % 3 == 2 {
                let victim = cloud.rings[0].partitions.values().next().unwrap().replicas[0].server;
                let location = cloud.cluster.get(victim).unwrap().location;
                cloud.retire_server(victim);
                cloud.add_server(ServerSpec {
                    location,
                    capacities: Capacities::paper(10 * GIB, 5_000.0),
                    monthly_cost: 100.0,
                    confidence: 1.0,
                });
            }
            checked += check_leave_one_out_memos(&cloud);
            cloud.deliver_queries(app, 0, 3_000.0, &regions).unwrap();
            cloud.end_epoch();
            checked += check_leave_one_out_memos(&cloud);
        }
        assert!(checked > 18 * 24, "only {checked} memos checked");
        assert!(
            cloud.cluster.alive().any(|s| s.confidence != 1.0),
            "the gray plan must move confidences"
        );
    }
}
