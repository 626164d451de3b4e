//! The cluster: the set of physical servers forming a data cloud.

use skute_geo::{Location, Topology};

use crate::capacity::{Capacities, UsageMeter};
use crate::cost::MarginalPrice;
use crate::server::{Server, ServerId, ServerStatus};

/// Everything needed to commission one server.
#[derive(Debug, Clone)]
pub struct ServerSpec {
    /// Geographic position.
    pub location: Location,
    /// Resource limits.
    pub capacities: Capacities,
    /// Real operational cost in $/month.
    pub monthly_cost: f64,
    /// Confidence factor in `[0, 1]`.
    pub confidence: f64,
}

/// The set of physical servers of a data cloud, with lifecycle management.
///
/// Server ids are slot indices and are never reused; retired servers stay in
/// the table (status [`ServerStatus::Retired`]) so late references resolve
/// to a tombstone instead of dangling.
#[derive(Debug, Clone, Default)]
pub struct Cluster {
    servers: Vec<Server>,
    /// Bumped on every mutable access; see [`Cluster::version`].
    version: u64,
}

impl Cluster {
    /// An empty cluster.
    pub fn new() -> Self {
        Self::default()
    }

    /// Builds a cluster with one server per location of `topology`, using
    /// `spec` to configure each (the paper differentiates cost: "$100 for
    /// 70% of the servers and $125 for the rest").
    pub fn from_topology(
        topology: &Topology,
        mut spec: impl FnMut(usize, Location) -> ServerSpec,
    ) -> Self {
        let mut cluster = Self::new();
        for (i, loc) in topology.iter_servers().enumerate() {
            cluster.commission(spec(i, loc), 0);
        }
        cluster
    }

    /// Adds a server to the cloud at `epoch`, returning its id.
    ///
    /// # Panics
    /// Panics if the spec's confidence is outside `[0, 1]`.
    pub fn commission(&mut self, spec: ServerSpec, epoch: u64) -> ServerId {
        assert!(
            (0.0..=1.0).contains(&spec.confidence),
            "confidence must lie in [0, 1]"
        );
        self.version += 1;
        let id = ServerId(self.servers.len() as u32);
        self.servers.push(Server {
            id,
            location: spec.location,
            confidence: spec.confidence,
            base_confidence: spec.confidence,
            health_score: 1.0,
            capacities: spec.capacities,
            usage: UsageMeter::default(),
            monthly_cost: spec.monthly_cost,
            marginal_price: MarginalPrice::paper(),
            status: ServerStatus::Alive,
            joined_epoch: epoch,
            retired_epoch: None,
        });
        id
    }

    /// Retires (removes/fails) a server at `epoch`. Its stored data is lost;
    /// callers must drop the virtual nodes it hosted. Idempotent.
    pub fn retire(&mut self, id: ServerId, epoch: u64) {
        self.version += 1;
        if let Some(s) = self.servers.get_mut(id.0 as usize) {
            if s.status == ServerStatus::Alive {
                s.status = ServerStatus::Retired;
                s.retired_epoch = Some(epoch);
                s.usage = UsageMeter::default();
            }
        }
    }

    /// The server with id `id`, alive or retired.
    pub fn get(&self, id: ServerId) -> Option<&Server> {
        self.servers.get(id.0 as usize)
    }

    /// Mutable access to the server with id `id`.
    pub fn get_mut(&mut self, id: ServerId) -> Option<&mut Server> {
        self.version += 1;
        self.servers.get_mut(id.0 as usize)
    }

    /// A counter bumped on every mutable access to the cluster (server
    /// lifecycle *and* usage-meter mutation paths). It over-approximates
    /// change — obtaining a `&mut Server` counts even if nothing is
    /// written — which is exactly what a derived read structure needs for
    /// conservative invalidation. Its one reader is the rent-sorted
    /// placement index of `skute-core`, which pairs it with
    /// [`crate::Board::version`].
    pub fn version(&self) -> u64 {
        self.version
    }

    /// The server with id `id` if it is alive.
    pub fn get_alive(&self, id: ServerId) -> Option<&Server> {
        self.get(id).filter(|s| s.is_alive())
    }

    /// Total number of commissioned servers, dead or alive.
    pub fn len(&self) -> usize {
        self.servers.len()
    }

    /// True when no server was ever commissioned.
    pub fn is_empty(&self) -> bool {
        self.servers.is_empty()
    }

    /// Number of alive servers.
    pub fn alive_count(&self) -> usize {
        self.servers.iter().filter(|s| s.is_alive()).count()
    }

    /// Iterates over all servers, dead or alive.
    pub fn iter(&self) -> impl Iterator<Item = &Server> {
        self.servers.iter()
    }

    /// Iterates over alive servers.
    pub fn alive(&self) -> impl Iterator<Item = &Server> {
        self.servers.iter().filter(|s| s.is_alive())
    }

    /// Iterates mutably over alive servers.
    pub fn alive_mut(&mut self) -> impl Iterator<Item = &mut Server> {
        self.version += 1;
        self.servers.iter_mut().filter(|s| s.is_alive())
    }

    /// Ids of all alive servers, ascending.
    pub fn alive_ids(&self) -> Vec<ServerId> {
        self.alive().map(|s| s.id).collect()
    }

    /// Resets the per-epoch meters of every alive server.
    pub fn begin_epoch(&mut self) {
        for s in self.alive_mut() {
            s.usage.begin_epoch();
        }
    }

    /// Aggregate storage capacity of alive servers, in bytes.
    pub fn total_storage(&self) -> u64 {
        self.alive().map(|s| s.capacities.storage_bytes).sum()
    }

    /// Aggregate storage used on alive servers, in bytes.
    pub fn total_storage_used(&self) -> u64 {
        self.alive().map(|s| s.usage.storage_used).sum()
    }

    /// Total real monthly cost of all alive servers.
    pub fn total_monthly_cost(&self) -> f64 {
        self.alive().map(|s| s.monthly_cost).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::capacity::GIB;

    fn spec(loc: Location, cost: f64) -> ServerSpec {
        ServerSpec {
            location: loc,
            capacities: Capacities::paper(10 * GIB, 1000.0),
            monthly_cost: cost,
            confidence: 1.0,
        }
    }

    #[test]
    fn from_topology_commissions_every_location() {
        let t = Topology::paper();
        let cluster = Cluster::from_topology(&t, |i, loc| {
            spec(loc, if i % 10 < 7 { 100.0 } else { 125.0 })
        });
        assert_eq!(cluster.len(), 200);
        assert_eq!(cluster.alive_count(), 200);
        let cheap = cluster.alive().filter(|s| s.monthly_cost == 100.0).count();
        assert_eq!(cheap, 140, "70% of 200 servers at $100");
        assert!((cluster.total_monthly_cost() - (140.0 * 100.0 + 60.0 * 125.0)).abs() < 1e-9);
    }

    #[test]
    fn retire_is_idempotent_and_clears_usage() {
        let t = Topology::paper();
        let mut cluster = Cluster::from_topology(&t, |_, loc| spec(loc, 100.0));
        let id = ServerId(5);
        {
            let s = cluster.get_mut(id).unwrap();
            let caps = s.capacities;
            assert!(s.usage.reserve_storage(&caps, GIB));
        }
        cluster.retire(id, 42);
        cluster.retire(id, 77); // second retire keeps the original epoch
        let s = cluster.get(id).unwrap();
        assert_eq!(s.status, ServerStatus::Retired);
        assert_eq!(s.retired_epoch, Some(42));
        assert_eq!(s.usage.storage_used, 0);
        assert_eq!(cluster.alive_count(), 199);
        assert!(cluster.get_alive(id).is_none());
    }

    #[test]
    fn commission_after_retire_gets_fresh_id() {
        let mut cluster = Cluster::new();
        let a = cluster.commission(spec(Location::new(0, 0, 0, 0, 0, 0), 100.0), 0);
        cluster.retire(a, 1);
        let b = cluster.commission(spec(Location::new(0, 0, 0, 0, 0, 1), 100.0), 2);
        assert_ne!(a, b);
        assert_eq!(cluster.get(b).unwrap().joined_epoch, 2);
        assert_eq!(cluster.len(), 2);
        assert_eq!(cluster.alive_count(), 1);
    }

    #[test]
    fn begin_epoch_resets_meters_of_alive_servers() {
        let mut cluster = Cluster::new();
        let id = cluster.commission(spec(Location::new(0, 0, 0, 0, 0, 0), 100.0), 0);
        {
            let s = cluster.get_mut(id).unwrap();
            let caps = s.capacities;
            assert!(s.usage.reserve_replication_bw(&caps, 100));
        }
        cluster.begin_epoch();
        assert_eq!(cluster.get(id).unwrap().usage.replication_used, 0);
    }

    #[test]
    #[should_panic(expected = "confidence")]
    fn invalid_confidence_rejected() {
        let mut cluster = Cluster::new();
        let mut s = spec(Location::new(0, 0, 0, 0, 0, 0), 100.0);
        s.confidence = 1.5;
        let _ = cluster.commission(s, 0);
    }

    #[test]
    fn version_tracks_every_mutation_path() {
        let t = Topology::paper();
        let mut cluster = Cluster::from_topology(&t, |_, loc| spec(loc, 100.0));
        let v0 = cluster.version();
        let _ = cluster.get_mut(ServerId(0));
        let v1 = cluster.version();
        assert!(v1 > v0, "get_mut must invalidate derived indexes");
        let _ = cluster.alive_mut().count();
        let v2 = cluster.version();
        assert!(v2 > v1);
        cluster.begin_epoch();
        let v3 = cluster.version();
        assert!(v3 > v2);
        cluster.retire(ServerId(0), 1);
        assert!(cluster.version() > v3);
        // Read-only accessors leave the version untouched.
        let v = cluster.version();
        let _ = cluster.alive_count();
        let _ = cluster.get(ServerId(1));
        let _ = cluster.total_storage_used();
        assert_eq!(cluster.version(), v);
    }

    #[test]
    fn totals_only_count_alive() {
        let mut cluster = Cluster::new();
        let a = cluster.commission(spec(Location::new(0, 0, 0, 0, 0, 0), 100.0), 0);
        let _b = cluster.commission(spec(Location::new(0, 0, 0, 0, 0, 1), 125.0), 0);
        assert_eq!(cluster.total_storage(), 20 * GIB);
        cluster.retire(a, 1);
        assert_eq!(cluster.total_storage(), 10 * GIB);
        assert!((cluster.total_monthly_cost() - 125.0).abs() < 1e-12);
    }
}
