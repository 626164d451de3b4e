//! Virtual nodes and per-partition runtime state.

use std::fmt;

use skute_cluster::{Cluster, ServerId};
use skute_economy::{BalanceHistory, ProximityCache, RegionQueries};
use skute_geo::Location;
use skute_ring::PartitionId;
use skute_store::ReplicaStore;

use crate::availability::availability_of;

/// Identifier of a virtual node (one replica of one partition), unique for
/// the lifetime of a cloud.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct VnodeId(pub u64);

impl fmt::Display for VnodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "v{}", self.0)
    }
}

/// One replica of a partition: the virtual node agent of §II.
///
/// A replica lives on exactly one server, carries its own copy of the
/// partition's data, earns utility from the queries it answers and pays the
/// virtual rent of its server every epoch. Its [`BalanceHistory`] drives the
/// replicate/migrate/suicide decisions. Besides its own state it carries
/// per-epoch values its partition computes for it: the traffic plan's
/// weight and distance, and its share of the availability memo.
#[derive(Debug, Clone)]
pub struct Replica {
    /// Virtual node identifier.
    pub id: VnodeId,
    /// Hosting server.
    pub server: ServerId,
    /// Per-epoch balance history (window f).
    pub balance: BalanceHistory,
    /// This replica's copy of the partition's explicitly stored records,
    /// on the cloud's configured storage backend. The in-memory variant is
    /// copy-on-write: replicas forked by replication share one allocation
    /// until one of them diverges. The LSM variant
    /// owns a durable store; independent copies go through
    /// [`ReplicaStore::fork`], which reports the bytes physically moved.
    pub store: ReplicaStore,
    /// Utility accrued in the current epoch (reset by `begin_epoch`).
    pub utility_epoch: f64,
    /// Queries served by this replica in the current epoch.
    pub queries_epoch: f64,
    /// The eq.-(4) proximity weight g of this replica's server to the
    /// partition's clients, written by the traffic plan and read by its
    /// commit (see [`DeliveryPlan`]).
    pub proximity: f64,
    /// The region-weighted client distance of this replica's server,
    /// written by the traffic plan beside [`Replica::proximity`].
    pub client_distance: f64,
    /// Eq. (2) over the partition's other replicas: the vnode's
    /// availability "without itself" that §II-C weighs suicide against.
    /// Part of the partition's availability memo: written with it and
    /// valid exactly while [`PartitionState::cached_availability`] is
    /// `Some`. Read through [`PartitionState::availability_without`].
    availability_without_self: f64,
}

impl Replica {
    /// A fresh replica on `server` with an empty store.
    pub fn new(id: VnodeId, server: ServerId, window: usize) -> Self {
        Self {
            id,
            server,
            balance: BalanceHistory::new(window),
            store: ReplicaStore::default(),
            utility_epoch: 0.0,
            queries_epoch: 0.0,
            proximity: 0.0,
            client_distance: 0.0,
            availability_without_self: 0.0,
        }
    }

    /// Resets the per-epoch accumulators.
    pub fn begin_epoch(&mut self) {
        self.utility_epoch = 0.0;
        self.queries_epoch = 0.0;
    }
}

/// Per-partition scratch of the traffic-delivery phase: the parallel plan
/// pass fills it, the commit consumes it against the live capacity meters.
/// The per-replica half of the plan — each replica's eq.-(4) weight and
/// client distance — lives in the replicas themselves
/// ([`Replica::proximity`], [`Replica::client_distance`]), and the commit
/// derives the serving order from the weights, so a plan carries no heap
/// buffer. Reused across epochs; meaningless unless [`DeliveryPlan::ready`].
#[derive(Debug, Clone, Copy, Default)]
pub struct DeliveryPlan {
    /// Queries addressed to the partition by the planned delivery.
    pub q: f64,
    /// Σ of the replicas' proximity weights, in replica order.
    pub sum_g: f64,
    /// True between a plan pass and its commit pass.
    pub ready: bool,
}

/// Runtime state of one partition of one virtual ring.
#[derive(Debug, Clone)]
pub struct PartitionState {
    /// Ring-local partition identifier.
    pub id: PartitionId,
    /// Replicas (virtual nodes), one per hosting server; never empty for a
    /// live partition.
    pub replicas: Vec<Replica>,
    /// Popularity weight of the partition (the paper draws these from
    /// Pareto(1, 50)); splits halve it between the children.
    pub popularity: f64,
    /// Logical bytes ingested without materialized records (synthetic
    /// workload accounting); every replica's server is charged this amount.
    pub synthetic_bytes: u64,
    /// Query volume per client region observed this epoch (the `q_l` of
    /// eq. 4).
    pub region_queries: Vec<RegionQueries>,
    /// Total queries addressed to the partition this epoch (before drops).
    pub queries_epoch: f64,
    /// Bytes written to the partition this epoch (consistency-cost input).
    pub write_bytes_epoch: u64,
    /// Per-country proximity weights memoized against the current
    /// `region_queries`; cleared whenever they change (epoch start, query
    /// delivery). The delivery plan fills it once per replica country;
    /// every placement decision of the partition within the epoch reads
    /// the same entries and adds the countries the plan did not weigh.
    pub prox_cache: ProximityCache,
    /// Memoized eq.-(2) availability of the current replica set. While
    /// `Some`, every replica's eq. (2) without itself is memoized too
    /// (`PartitionState::memoize_availability` writes both). Invalidated
    /// by [`PartitionState::note_membership_changed`]; server locations
    /// are immutable and confidences only move when the cloud observes
    /// health samples (gray fault plans), in which case `begin_epoch`
    /// clears the cache fleet-wide via
    /// [`PartitionState::note_confidence_changed`]. Survives across epochs
    /// otherwise: a converged partition never re-evaluates eq. (2) in
    /// `repair_availability`, the decision phase or the epoch report.
    pub cached_availability: Option<f64>,
    /// Traffic-delivery scratch (see [`DeliveryPlan`]).
    pub delivery: DeliveryPlan,
}

impl PartitionState {
    /// A new partition with no replicas yet.
    pub fn new(id: PartitionId, popularity: f64) -> Self {
        Self {
            id,
            replicas: Vec::new(),
            popularity,
            synthetic_bytes: 0,
            region_queries: Vec::new(),
            queries_epoch: 0.0,
            write_bytes_epoch: 0,
            prox_cache: ProximityCache::new(),
            cached_availability: None,
            delivery: DeliveryPlan::default(),
        }
    }

    /// Records that the replica set changed (replica added, removed, or
    /// moved to another server): drops the memoized availability. Every
    /// mutation of `replicas` must call this.
    pub fn note_membership_changed(&mut self) {
        self.cached_availability = None;
    }

    /// Records that server confidences changed under the replica set
    /// (health-EWMA updates at epoch start): drops the memoized
    /// availability so eq. (2) re-evaluates.
    pub fn note_confidence_changed(&mut self) {
        self.cached_availability = None;
    }

    /// Eq. (2) over the replicas `cluster` knows, in replica order, leaving
    /// out replica `skip` (none when `None`). `placed` is scratch.
    fn evaluate_availability(
        &self,
        cluster: &Cluster,
        skip: Option<usize>,
        placed: &mut Vec<(Location, f64)>,
    ) -> f64 {
        placed.clear();
        for (i, r) in self.replicas.iter().enumerate() {
            if Some(i) == skip {
                continue;
            }
            if let Some(s) = cluster.get(r.server) {
                placed.push((s.location, s.confidence));
            }
        }
        availability_of(placed)
    }

    /// Evaluates and memoizes eq. (2): the replica set's availability,
    /// returned and kept in [`PartitionState::cached_availability`], and
    /// each replica's availability without itself.
    pub(crate) fn memoize_availability(&mut self, cluster: &Cluster) -> f64 {
        let mut placed = Vec::with_capacity(self.replicas.len());
        let availability = self.evaluate_availability(cluster, None, &mut placed);
        for idx in 0..self.replicas.len() {
            let without = self.evaluate_availability(cluster, Some(idx), &mut placed);
            self.replicas[idx].availability_without_self = without;
        }
        self.cached_availability = Some(availability);
        availability
    }

    /// Eq. (2) over the replicas other than `idx`: replica `idx`'s
    /// availability without itself. Read from the availability memo while
    /// it is valid, evaluated directly otherwise (`placed` is scratch);
    /// the two agree bit for bit, which debug builds assert.
    pub(crate) fn availability_without(
        &self,
        cluster: &Cluster,
        idx: usize,
        placed: &mut Vec<(Location, f64)>,
    ) -> f64 {
        if self.cached_availability.is_none() {
            return self.evaluate_availability(cluster, Some(idx), placed);
        }
        let memo = self.replicas[idx].availability_without_self;
        debug_assert_eq!(
            memo.to_bits(),
            self.evaluate_availability(cluster, Some(idx), placed)
                .to_bits(),
            "stale availability memo of replica {idx}"
        );
        memo
    }

    /// The logical size of one replica of this partition: synthetic bytes
    /// plus the largest materialized store among replicas (replicas converge
    /// to identical contents; the max is the safe transfer size).
    pub fn size_bytes(&self) -> u64 {
        let stored = self
            .replicas
            .iter()
            .map(|r| r.store.logical_bytes())
            .max()
            .unwrap_or(0);
        self.synthetic_bytes + stored
    }

    /// Number of replicas.
    pub fn replica_count(&self) -> usize {
        self.replicas.len()
    }

    /// The servers currently hosting a replica, in replica order.
    pub fn replica_servers(&self) -> Vec<ServerId> {
        self.replicas.iter().map(|r| r.server).collect()
    }

    /// True when some replica lives on `server`.
    pub fn has_replica_on(&self, server: ServerId) -> bool {
        self.replicas.iter().any(|r| r.server == server)
    }

    /// Resets the per-epoch accumulators of the partition and its replicas.
    /// The availability cache is *not* reset: it depends only on replica
    /// membership, not on epoch-scoped meters.
    pub fn begin_epoch(&mut self) {
        self.region_queries.clear();
        self.prox_cache.clear();
        self.queries_epoch = 0.0;
        self.write_bytes_epoch = 0;
        self.delivery.ready = false;
        for r in &mut self.replicas {
            r.begin_epoch();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use skute_store::{Record, Version};

    #[test]
    fn replica_epoch_reset() {
        let mut r = Replica::new(VnodeId(1), ServerId(0), 3);
        r.utility_epoch = 5.0;
        r.queries_epoch = 10.0;
        r.begin_epoch();
        assert_eq!(r.utility_epoch, 0.0);
        assert_eq!(r.queries_epoch, 0.0);
    }

    #[test]
    fn partition_size_combines_synthetic_and_store() {
        let mut p = PartitionState::new(PartitionId(0), 1.0);
        p.synthetic_bytes = 1000;
        assert_eq!(p.size_bytes(), 1000);
        let mut r = Replica::new(VnodeId(1), ServerId(0), 3);
        assert!(r.store.apply(
            &b"key"[..],
            Record::put(&b"0123456789"[..], Version::new(1, 0, 0))
        ));
        p.replicas.push(r);
        assert_eq!(p.size_bytes(), 1000 + 3 + 10);
    }

    #[test]
    fn replica_servers_and_membership() {
        let mut p = PartitionState::new(PartitionId(0), 1.0);
        p.replicas.push(Replica::new(VnodeId(1), ServerId(4), 3));
        p.replicas.push(Replica::new(VnodeId(2), ServerId(9), 3));
        assert_eq!(p.replica_servers(), vec![ServerId(4), ServerId(9)]);
        assert!(p.has_replica_on(ServerId(9)));
        assert!(!p.has_replica_on(ServerId(5)));
        assert_eq!(p.replica_count(), 2);
    }

    #[test]
    fn partition_epoch_reset_clears_accumulators() {
        let mut p = PartitionState::new(PartitionId(0), 1.0);
        p.queries_epoch = 12.0;
        p.write_bytes_epoch = 77;
        p.region_queries.push(RegionQueries {
            location: skute_geo::Location::client_in_country(0, 0),
            queries: 12.0,
        });
        let topo = skute_geo::Topology::paper();
        let _ = p.prox_cache.g(
            &p.region_queries.clone(),
            &skute_geo::Location::new(0, 0, 0, 0, 0, 0),
            &topo,
        );
        assert!(!p.prox_cache.is_empty());
        p.begin_epoch();
        assert_eq!(p.queries_epoch, 0.0);
        assert_eq!(p.write_bytes_epoch, 0);
        assert!(p.region_queries.is_empty());
        assert!(p.prox_cache.is_empty(), "stale proximity must not survive");
    }

    #[test]
    fn partition_state_stays_small() {
        // Every storage-order pass (the delivery plan, the repair warm-up,
        // the decision pass, the report) streams through the partitions,
        // and the decision walk's cache misses were this struct: an inline
        // 24-region mass array here once made it 864 bytes, and three
        // per-replica delivery vectors 256. What is per replica belongs in
        // the replica.
        assert!(
            std::mem::size_of::<PartitionState>() <= 192,
            "PartitionState is {} bytes",
            std::mem::size_of::<PartitionState>()
        );
    }

    #[test]
    fn replica_stays_small() {
        // The same passes stream through every replica, three to four per
        // partition. The balance window and the delivery weights sit inline
        // so those passes read no heap buffer behind a replica; a bigger
        // window or another per-replica buffer shows up here first.
        assert!(
            std::mem::size_of::<Replica>() <= 144,
            "Replica is {} bytes",
            std::mem::size_of::<Replica>()
        );
    }

    #[test]
    fn display_vnode_id() {
        assert_eq!(VnodeId(8).to_string(), "v8");
    }

    #[test]
    fn membership_note_drops_availability() {
        let mut p = PartitionState::new(PartitionId(0), 1.0);
        p.cached_availability = Some(63.0);
        p.note_membership_changed();
        assert_eq!(p.cached_availability, None);
        // Epoch reset keeps the cache (membership did not change) but
        // invalidates any stale delivery plan.
        p.cached_availability = Some(63.0);
        p.delivery.ready = true;
        p.begin_epoch();
        assert_eq!(p.cached_availability, Some(63.0));
        assert!(!p.delivery.ready);
    }
}
