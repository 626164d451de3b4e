//! Background maintenance of the stored data — the storage scrub — with
//! the storage accounting and fault-injection hooks the integration tests
//! audit it through.

use skute_cluster::ServerId;
use skute_ring::PartitionId;
use skute_store::{FaultStats, PartitionStore, StorageActivity};

use super::{resize_storage, SkuteCloud};
use crate::app::AppId;
use crate::error::CoreError;
use crate::metrics::ScrubReport;
use crate::vnode::PartitionState;

impl SkuteCloud {
    /// Refreshes the fleet-wide storage gauges (LSM engine activity and
    /// fault recoveries) in the attached sink by walking every replica.
    /// Intended at scrape/snapshot time, not per epoch; a no-op without an
    /// attached sink or under the mem backend (all gauges stay zero).
    pub fn refresh_storage_metrics(&self) {
        let Some(metrics) = &self.metrics else {
            return;
        };
        let mut activity = StorageActivity::default();
        let mut faults = FaultStats::default();
        for ring in &self.rings {
            for p in ring.partitions.values() {
                for r in &p.replicas {
                    if let Some(a) = r.store.activity() {
                        activity.absorb(&a);
                    }
                    if let Some(f) = r.store.fault_stats() {
                        faults.absorb(&f);
                    }
                }
            }
        }
        metrics.set_storage_totals(&activity, &faults);
    }

    /// Per-replica storage footprints of a partition: for every replica,
    /// the hosting server and the exact bytes it is charged for (synthetic
    /// bytes plus that replica's own store). The sum of footprints across
    /// all partitions of all rings equals the cluster's used storage —
    /// the accounting invariant the integration tests verify.
    pub fn replica_footprints(
        &self,
        app: AppId,
        level: u32,
        pid: PartitionId,
    ) -> Result<Vec<(ServerId, u64)>, CoreError> {
        let p = self.partition(app, level, pid)?;
        Ok(p.replicas
            .iter()
            .map(|r| (r.server, p.synthetic_bytes + r.store.logical_bytes()))
            .collect())
    }

    /// Deliberately corrupts the on-disk state of one replica of a
    /// partition (fault-injection hook: forges persistent corruption for
    /// [`SkuteCloud::scrub_quarantined`] to detect). Flushes the replica's
    /// memtable first so a durable run exists to damage. Returns `true`
    /// when bytes were actually flipped — `false` for the mem oracle or an
    /// empty replica.
    pub fn corrupt_replica(
        &mut self,
        app: AppId,
        level: u32,
        pid: PartitionId,
        replica: usize,
    ) -> Result<bool, CoreError> {
        let ring_idx = self.ring_index(app, level)?;
        let p = self.rings[ring_idx]
            .partitions
            .get_mut(&pid)
            .ok_or(CoreError::NoPlacement)?;
        let r = p.replicas.get_mut(replica).ok_or(CoreError::NoPlacement)?;
        r.store.flush();
        Ok(r.store.corrupt_newest_run())
    }

    /// Storage scrub over one ring: verifies every replica store's on-disk
    /// checksums (a real re-read of every SSTable run under the LSM
    /// backend; the mem oracle is trivially healthy), quarantines replicas
    /// whose corruption survived the store's bounded read retries, and
    /// re-seeds each quarantined replica from the LWW union of its
    /// partition's **healthy** peers — a fresh store the union is merged
    /// into, with exact storage re-accounting. Rebuild copies are priced in **measured**
    /// bytes (`crate::ActionCounts::scrub_rebuilds` /
    /// `crate::ActionCounts::measured_scrub_bytes`, observability-only —
    /// decisions and the trajectory never read them, so scrubbing cannot
    /// perturb determinism). A quarantined replica whose server cannot
    /// absorb the union's extra bytes is deferred; a partition whose every
    /// replica is quarantined has no healthy peer and is counted
    /// unrecoverable (its stores are left in place).
    pub fn scrub_quarantined(&mut self, app: AppId, level: u32) -> Result<ScrubReport, CoreError> {
        let ring_idx = self.ring_index(app, level)?;
        let pids = self.rings[ring_idx].ring.partition_ids();
        let mut report = ScrubReport::default();
        for pid in pids {
            let suspects: Vec<usize> = {
                let Some(partition) = self.rings[ring_idx].partitions.get_mut(&pid) else {
                    continue;
                };
                let mut suspects = Vec::new();
                for (idx, r) in partition.replicas.iter_mut().enumerate() {
                    report.replicas_scanned += 1;
                    if !r.store.verify() {
                        suspects.push(idx);
                    }
                }
                suspects
            };
            if suspects.is_empty() {
                continue;
            }
            report.replicas_quarantined += suspects.len();
            let partition = &self.rings[ring_idx].partitions[&pid];
            // LWW union of the healthy peers only — the corrupt stores
            // contribute nothing to the rebuild.
            let healthy = (0..partition.replicas.len()).filter(|i| !suspects.contains(i));
            let Some(union) = lww_union(partition, healthy) else {
                report.partitions_unrecoverable += 1;
                continue;
            };
            let union_bytes = union.logical_bytes();
            for idx in suspects {
                if !self.recharge_replica(ring_idx, pid, idx, union_bytes) {
                    report.replicas_deferred += 1;
                    continue;
                }
                let mut fresh = self.empty_store();
                fresh.merge_from(&union);
                let measured = fresh.measured_transfer().unwrap_or(union_bytes);
                let p = self.rings[ring_idx].partitions.get_mut(&pid).unwrap();
                p.replicas[idx].store = fresh;
                report.replicas_rebuilt += 1;
                self.epoch_actions.scrub_rebuilds += 1;
                self.epoch_actions.measured_scrub_bytes += measured;
            }
        }
        Ok(report)
    }

    /// Moves the storage charge of replica `idx` from its store's current
    /// size to `new_bytes` (the union about to be installed on it). False,
    /// with nothing charged, when its server cannot absorb the growth.
    fn recharge_replica(
        &mut self,
        ring_idx: usize,
        pid: PartitionId,
        idx: usize,
        new_bytes: u64,
    ) -> bool {
        let r = &self.rings[ring_idx].partitions[&pid].replicas[idx];
        let (server, old_bytes) = (r.server, r.store.logical_bytes());
        self.cluster
            .get_mut(server)
            .is_some_and(|s| resize_storage(s, old_bytes, new_bytes))
    }
}

/// The LWW union of the stores of replicas `members` of `partition`
/// (`None` without a member).
fn lww_union(
    partition: &PartitionState,
    mut members: impl Iterator<Item = usize>,
) -> Option<PartitionStore> {
    let mut union = partition.replicas[members.next()?].store.snapshot();
    for i in members {
        partition.replicas[i].store.merge_into(&mut union);
    }
    Some(union)
}
