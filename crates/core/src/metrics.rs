//! Per-epoch observability: the numbers behind every figure of the paper.

use std::collections::BTreeMap;

use skute_cluster::ServerId;
use skute_ring::RingId;

use crate::decision::ActionCounts;

/// Per-ring statistics for one epoch.
#[derive(Debug, Clone, PartialEq)]
pub struct RingReport {
    /// Which virtual ring.
    pub ring: RingId,
    /// SLA target replica count.
    pub target_replicas: usize,
    /// Number of partitions in the ring.
    pub partitions: usize,
    /// Total virtual nodes (replicas) in the ring — the Fig. 2/3 series.
    pub vnodes: usize,
    /// Mean eq.-(2) availability over partitions.
    pub mean_availability: f64,
    /// Worst partition availability.
    pub min_availability: f64,
    /// Fraction of partitions meeting the SLA threshold.
    pub sla_satisfied_frac: f64,
    /// Queries addressed to the ring this epoch.
    pub queries_offered: f64,
    /// Queries actually served.
    pub queries_served: f64,
    /// Queries dropped for lack of server capacity.
    pub queries_dropped: f64,
    /// Average served queries per alive server — the Fig. 4 series.
    pub load_per_server: f64,
    /// Coefficient of variation of per-server served queries over the
    /// servers hosting this ring's replicas (0 = perfectly balanced).
    pub load_cv: f64,
    /// Mean geographic distance (diversity units, 0..=63) between the
    /// clients and the replicas that served them — the network-latency
    /// proxy of the paper's future-work analysis. Lower is closer.
    pub mean_client_distance: f64,
}

/// Cloud-wide report for one epoch, produced by
/// [`crate::SkuteCloud::end_epoch`].
#[derive(Debug, Clone, PartialEq)]
pub struct EpochReport {
    /// The epoch this report covers.
    pub epoch: u64,
    /// Virtual-node count per alive server — the Fig. 2 distribution.
    /// Keyed by a `BTreeMap` so iteration (and any float aggregation a
    /// consumer layers on top) has a stable, id-sorted order; the epoch
    /// pipeline counts into a reused dense per-server array and builds the
    /// map from it in id order.
    pub vnodes_per_server: BTreeMap<ServerId, usize>,
    /// One entry per virtual ring.
    pub rings: Vec<RingReport>,
    /// Actions executed during the epoch's decision phase.
    pub actions: ActionCounts,
    /// Synthetic/real inserts that failed for lack of storage — Fig. 5.
    pub insert_failures: u64,
    /// Partitions that lost their last replica this epoch.
    pub partitions_lost: u64,
    /// Bytes stored across alive servers.
    pub storage_used: u64,
    /// Byte capacity across alive servers.
    pub storage_capacity: u64,
    /// Total virtual rent paid by vnodes this epoch.
    pub rent_paid: f64,
    /// Total (floored) utility earned by vnodes this epoch.
    pub utility_earned: f64,
    /// Lowest posted rent on the board this epoch.
    pub(crate) min_rent: Option<f64>,
    /// Number of alive servers.
    pub alive_servers: usize,
}

impl EpochReport {
    /// Used-storage fraction in `[0, 1]`.
    pub fn storage_frac(&self) -> f64 {
        if self.storage_capacity == 0 {
            return 1.0;
        }
        self.storage_used as f64 / self.storage_capacity as f64
    }

    /// Total vnodes across all rings.
    pub fn total_vnodes(&self) -> usize {
        self.rings.iter().map(|r| r.vnodes).sum()
    }

    /// The ring report for `ring`, if present.
    #[cfg(test)]
    pub(crate) fn ring(&self, ring: RingId) -> Option<&RingReport> {
        self.rings.iter().find(|r| r.ring == ring)
    }
}

/// Outcome of one [`crate::SkuteCloud::scrub_quarantined`] pass over a
/// ring.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ScrubReport {
    /// Replica stores scanned (every replica of every partition).
    pub replicas_scanned: usize,
    /// Replicas whose scrub found unrecoverable corruption (checksum
    /// failures that survived the store's bounded read retries).
    pub replicas_quarantined: usize,
    /// Quarantined replicas re-seeded from the LWW union of their
    /// partition's healthy peers.
    pub replicas_rebuilt: usize,
    /// Quarantined replicas left in place because their server could not
    /// absorb the union's extra bytes (retried after the economy
    /// rebalances).
    pub replicas_deferred: usize,
    /// Partitions whose every replica was quarantined: no healthy peer
    /// exists to rebuild from, so the data is lost to the scrub.
    pub partitions_unrecoverable: usize,
}

/// Mean and coefficient of variation of a sample.
pub(crate) fn mean_cv(samples: &[f64]) -> (f64, f64) {
    if samples.is_empty() {
        return (0.0, 0.0);
    }
    let n = samples.len() as f64;
    let mean = samples.iter().sum::<f64>() / n;
    if mean == 0.0 {
        return (0.0, 0.0);
    }
    let var = samples.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / n;
    (mean, var.sqrt() / mean)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report() -> EpochReport {
        EpochReport {
            epoch: 7,
            vnodes_per_server: BTreeMap::new(),
            rings: vec![
                RingReport {
                    ring: RingId::new(0, 0),
                    target_replicas: 2,
                    partitions: 10,
                    vnodes: 20,
                    mean_availability: 40.0,
                    min_availability: 15.0,
                    sla_satisfied_frac: 1.0,
                    queries_offered: 100.0,
                    queries_served: 95.0,
                    queries_dropped: 5.0,
                    load_per_server: 0.5,
                    load_cv: 0.1,
                    mean_client_distance: 20.0,
                },
                RingReport {
                    ring: RingId::new(1, 0),
                    target_replicas: 3,
                    partitions: 10,
                    vnodes: 30,
                    mean_availability: 100.0,
                    min_availability: 90.0,
                    sla_satisfied_frac: 0.9,
                    queries_offered: 50.0,
                    queries_served: 50.0,
                    queries_dropped: 0.0,
                    load_per_server: 0.25,
                    load_cv: 0.2,
                    mean_client_distance: 31.0,
                },
            ],
            actions: ActionCounts::default(),
            insert_failures: 3,
            partitions_lost: 0,
            storage_used: 250,
            storage_capacity: 1000,
            rent_paid: 10.0,
            utility_earned: 12.5,
            min_rent: Some(0.1),
            alive_servers: 200,
        }
    }

    #[test]
    fn derived_quantities() {
        let r = report();
        assert!((r.storage_frac() - 0.25).abs() < 1e-12);
        assert_eq!(r.total_vnodes(), 50);
        assert_eq!(r.ring(RingId::new(1, 0)).unwrap().vnodes, 30);
        assert!(r.ring(RingId::new(9, 9)).is_none());
    }

    #[test]
    fn zero_capacity_is_full() {
        let mut r = report();
        r.storage_capacity = 0;
        assert_eq!(r.storage_frac(), 1.0);
    }

    #[test]
    fn mean_cv_basics() {
        assert_eq!(mean_cv(&[]), (0.0, 0.0));
        let (m, cv) = mean_cv(&[2.0, 2.0, 2.0]);
        assert_eq!(m, 2.0);
        assert_eq!(cv, 0.0);
        let (m2, cv2) = mean_cv(&[0.0, 4.0]);
        assert_eq!(m2, 2.0);
        assert!((cv2 - 1.0).abs() < 1e-12);
    }
}
