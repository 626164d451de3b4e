//! Epoch phase 4 — the close: partition splits and the epoch report.

use super::SkuteCloud;
use crate::decision::ActionCounts;
use crate::metrics::{EpochReport, RingReport};
use crate::vnode::PartitionState;

impl SkuteCloud {
    /// Splits every partition above the 256 MB capacity into two fresh
    /// partitions with the same replica placement.
    pub(super) fn split_overflowing(&mut self, actions: &mut ActionCounts) {
        let threshold = self.config.split_threshold_bytes;
        for ri in 0..self.rings.len() {
            loop {
                let victim = self.rings[ri]
                    .partitions
                    .iter()
                    .find(|(_, p)| p.size_bytes() > threshold)
                    .map(|(pid, _)| *pid);
                let Some(pid) = victim else { break };
                let Some((low, high)) = self.rings[ri].ring.split_partition(pid) else {
                    break; // range too narrow to split
                };
                let parent = self.rings[ri].partitions.remove(&pid).unwrap();
                let hasher = self.rings[ri].ring.hasher();
                let mut low_state = PartitionState::new(parent.popularity / 2.0);
                let mut high_state = PartitionState::new(parent.popularity / 2.0);
                low_state.synthetic_bytes = parent.synthetic_bytes / 2;
                high_state.synthetic_bytes = parent.synthetic_bytes - low_state.synthetic_bytes;
                for replica in parent.replicas {
                    let mut low_store = replica.store;
                    let high_store = low_store.split_off(hasher, high.range);
                    low_state
                        .replicas
                        .push(self.new_replica(replica.server, low_store));
                    high_state
                        .replicas
                        .push(self.new_replica(replica.server, high_store));
                }
                self.rings[ri].partitions.insert(low.id, low_state);
                self.rings[ri].partitions.insert(high.id, high_state);
                actions.splits += 1;
            }
        }
    }

    /// Assembles the epoch report. Per-ring statistics are one sequential
    /// fold per ring — availability via the membership-keyed cache,
    /// per-server loads and vnode counts in (partition, replica) order —
    /// into reused dense per-server arrays instead of per-epoch maps.
    pub(super) fn report(
        &mut self,
        actions: ActionCounts,
        rent_paid: f64,
        utility_earned: f64,
    ) -> EpochReport {
        let alive_servers = self.cluster.alive_count();
        let mut rings = Vec::with_capacity(self.rings.len());
        self.pipeline.begin_report(&self.cluster);
        for ri in 0..self.rings.len() {
            let threshold = self.rings[ri].level.threshold;
            let stats = self.pipeline.ring_stats(
                &self.cluster,
                self.rings[ri].partitions.values_mut(),
                threshold,
            );
            let ring = &self.rings[ri];
            rings.push(RingReport {
                ring: ring.id,
                target_replicas: ring.level.target_replicas,
                partitions: ring.partitions.len(),
                vnodes: stats.vnodes,
                mean_availability: stats.mean_availability,
                min_availability: stats.min_availability,
                sla_satisfied_frac: stats.sla_satisfied_frac,
                queries_offered: ring.queries_offered_epoch,
                queries_served: ring.queries_served_epoch,
                queries_dropped: ring.queries_dropped_epoch,
                load_per_server: if alive_servers == 0 {
                    0.0
                } else {
                    ring.queries_served_epoch / alive_servers as f64
                },
                load_cv: stats.load_cv,
                mean_client_distance: if ring.queries_served_epoch > 0.0 {
                    ring.distance_sum_epoch / ring.queries_served_epoch
                } else {
                    0.0
                },
            });
        }
        EpochReport {
            epoch: self.epoch,
            vnodes_per_server: self.pipeline.vnodes_map(&self.cluster),
            rings,
            actions,
            insert_failures: self.insert_failures_epoch,
            partitions_lost: self.partitions_lost_epoch,
            storage_used: self.cluster.total_storage_used(),
            storage_capacity: self.cluster.total_storage(),
            rent_paid,
            utility_earned,
            min_rent: self.board.min_price(),
            alive_servers,
        }
    }
}

#[cfg(test)]
mod tests {
    use crate::app::{AppSpec, LevelSpec};
    use crate::cloud::tests::{paper_cluster, small_cloud, GIB};
    use crate::{SkuteCloud, SkuteConfig};
    use skute_cluster::{Capacities, ServerId, ServerSpec};
    use skute_geo::Topology;
    use skute_ring::RingId;

    #[test]
    fn epoch_report_counts_match_state() {
        let (mut cloud, app) = small_cloud();
        cloud.begin_epoch();
        let report = cloud.end_epoch();
        assert_eq!(report.epoch, 1);
        assert_eq!(
            report.total_vnodes(),
            cloud.ring(app, 0).unwrap().vnode_count()
        );
        assert_eq!(report.alive_servers, 200);
        assert!(report.actions.availability_replications > 0);
        let ring = report.ring(RingId::new(app.0, 0)).unwrap();
        assert_eq!(ring.partitions, 16);
        assert_eq!(ring.target_replicas, 3);
    }

    #[test]
    fn per_server_load_folds_in_partition_order() {
        // Three partitions share one server at 0.1, 0.2 and 0.3 served
        // queries: its load is the left fold in partition order, by bits
        // (0.1 + (0.2 + 0.3) differs in the last place). The first
        // partition sits on a server commissioned mid-run (the highest id)
        // and the last on an idle one; a retired id lies between them. The
        // load CV reads the hosting servers in id order, idle included,
        // retired id skipped, whatever order the fold met them in.
        let topology = Topology::paper();
        let cluster = paper_cluster(&topology);
        let mut cloud = SkuteCloud::new(SkuteConfig::paper(), topology, cluster);
        cloud
            .create_application(AppSpec::new("t").level(LevelSpec::new(1, 5)))
            .unwrap();
        let (shared, retired, idle) = (ServerId(0), ServerId(1), ServerId(2));
        cloud.retire_server(retired);
        let spec = ServerSpec {
            location: cloud.cluster.get(ServerId(3)).unwrap().location,
            capacities: Capacities::paper(10 * GIB, 5_000.0),
            monthly_cost: 100.0,
            confidence: 1.0,
        };
        let fresh = cloud.add_server(spec);
        assert_eq!(fresh.0 as usize, cloud.cluster.len() - 1);
        let hosts = [
            (fresh, 0.4),
            (shared, 0.1),
            (shared, 0.2),
            (shared, 0.3),
            (idle, 0.0),
        ];
        for (part, (server, q)) in cloud.rings[0].partitions.values_mut().zip(hosts) {
            part.replicas.truncate(1);
            part.replicas[0].server = server;
            part.replicas[0].queries_epoch = q;
        }
        cloud.pipeline.begin_report(&cloud.cluster);
        let stats =
            cloud
                .pipeline
                .ring_stats(&cloud.cluster, cloud.rings[0].partitions.values_mut(), 0.0);
        assert_eq!(stats.vnodes, 5);
        let expected: f64 = ((0.0 + 0.1) + 0.2) + 0.3;
        assert_ne!(expected.to_bits(), (0.1f64 + (0.2 + 0.3)).to_bits());
        let loads: Vec<u64> = cloud
            .pipeline
            .loads_flat
            .iter()
            .map(|l| l.to_bits())
            .collect();
        assert_eq!(
            loads,
            vec![expected.to_bits(), 0.0f64.to_bits(), 0.4f64.to_bits()]
        );
        let vnodes = cloud.pipeline.vnodes_map(&cloud.cluster);
        assert_eq!(vnodes.len(), cloud.cluster.alive_count());
        assert!(!vnodes.contains_key(&retired));
        assert_eq!(
            [
                vnodes[&shared],
                vnodes[&idle],
                vnodes[&fresh],
                vnodes[&ServerId(3)]
            ],
            [3, 1, 1, 0]
        );
    }

    #[test]
    fn splits_trigger_above_threshold() {
        let topology = Topology::paper();
        let cluster = paper_cluster(&topology);
        let mut config = SkuteConfig::paper();
        config.split_threshold_bytes = 1024; // tiny for the test
        let mut cloud = SkuteCloud::new(config, topology, cluster);
        let app = cloud
            .create_application(AppSpec::new("t").level(LevelSpec::new(2, 2)))
            .unwrap();
        cloud.begin_epoch();
        for i in 0..64u32 {
            cloud
                .ingest_synthetic(app, 0, &i.to_le_bytes(), 256)
                .unwrap();
        }
        let report = cloud.end_epoch();
        assert!(report.actions.splits > 0);
        assert!(cloud.partition_ids(app, 0).unwrap().len() > 2);
    }

    #[test]
    fn splits_preserve_real_data() {
        let topology = Topology::paper();
        let cluster = paper_cluster(&topology);
        let mut config = SkuteConfig::paper();
        config.split_threshold_bytes = 512;
        let mut cloud = SkuteCloud::new(config, topology, cluster);
        let app = cloud
            .create_application(AppSpec::new("t").level(LevelSpec::new(2, 1)))
            .unwrap();
        cloud.begin_epoch();
        for i in 0..64u32 {
            let key = format!("key:{i}");
            cloud
                .put(app, 0, key.as_bytes(), vec![i as u8; 16])
                .unwrap();
        }
        cloud.end_epoch();
        assert!(cloud.partition_ids(app, 0).unwrap().len() > 1);
        for i in 0..64u32 {
            let key = format!("key:{i}");
            let v = cloud.get(app, 0, key.as_bytes()).unwrap().unwrap();
            assert_eq!(v.as_ref(), &vec![i as u8; 16][..]);
        }
    }
}
