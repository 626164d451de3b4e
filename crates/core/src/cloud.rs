//! [`SkuteCloud`]: the self-managed, multi-ring key-value cloud.
//!
//! This file keeps the struct, its construction, the application and
//! server lifecycle and the `begin_epoch`/`end_epoch` orchestration. The
//! rest of the `impl` sits next to what it does: `client` (the
//! [`ReadView`] and the data path), `maintenance` (anti-entropy, scrub,
//! storage accounting) and one file per epoch phase — `traffic`, `repair`,
//! `decisions`, `report` — over the action executors in `exec`.

use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};
use std::time::Instant;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use skute_cluster::{Board, Cluster, Server, ServerId, ServerSpec};
use skute_economy::{ProximityCache, RentModel};
use skute_geo::{Level, Location, Topology};
use skute_ring::{PartitionId, RingId, VirtualRing};
use skute_store::{FaultPlan, QuorumConfig, ReplicaStore};

use crate::app::{AppId, AppSpec, Application, AvailabilityLevel, LevelSpec};
use crate::availability::threshold_for_replicas;
use crate::config::SkuteConfig;
use crate::decision::ActionCounts;
use crate::error::CoreError;
use crate::health::HealthState;
use crate::metrics::EpochReport;
use crate::obs::CloudMetrics;
use crate::pipeline::EpochPipeline;
use crate::placement::{economic_target, PlacementContext, PlacementIndex, TargetQuery};
use crate::vnode::{PartitionState, Replica, VnodeId};

mod client;
pub(crate) mod decisions;
mod exec;
mod maintenance;
pub(crate) mod repair;
mod report;
pub(crate) mod traffic;

pub use client::{ClientRead, ReadConsistency, ReadView};
pub use traffic::TrafficBatch;

/// Runtime state of one virtual ring.
struct RingState {
    id: RingId,
    level: AvailabilityLevel,
    ring: VirtualRing,
    partitions: BTreeMap<PartitionId, PartitionState>,
    queries_offered_epoch: f64,
    queries_served_epoch: f64,
    queries_dropped_epoch: f64,
    /// Σ served × client-distance, for the mean query distance metric.
    distance_sum_epoch: f64,
}

impl RingState {
    fn begin_epoch(&mut self) {
        self.queries_offered_epoch = 0.0;
        self.queries_served_epoch = 0.0;
        self.queries_dropped_epoch = 0.0;
        self.distance_sum_epoch = 0.0;
        for p in self.partitions.values_mut() {
            p.begin_epoch();
        }
    }

    fn vnode_count(&self) -> usize {
        self.partitions.values().map(|p| p.replica_count()).sum()
    }
}

/// The Skute data cloud: physical servers, one virtual ring per application
/// availability level, the rent board, and the epoch-driven decentralized
/// optimization of §II.
///
/// Usage per epoch: [`SkuteCloud::begin_epoch`] (posts rents, resets
/// meters) → client traffic ([`SkuteCloud::put`]/[`SkuteCloud::get`]/
/// [`SkuteCloud::deliver_queries`]) → [`SkuteCloud::end_epoch`] (runs every
/// virtual node's decision process, splits overflowing partitions, and
/// returns an [`EpochReport`]).
pub struct SkuteCloud {
    config: SkuteConfig,
    /// Immutable for the cloud's lifetime.
    topology: Topology,
    cluster: Cluster,
    board: Board,
    rent_model: RentModel,
    apps: Vec<Application>,
    rings: Vec<RingState>,
    epoch: u64,
    next_vnode: u64,
    write_seq: u64,
    rng: StdRng,
    insert_failures_epoch: u64,
    partitions_lost_epoch: u64,
    /// Actions executed outside end_epoch (emergency relocations).
    epoch_actions: ActionCounts,
    /// Rent-sorted candidate index behind every eq.-(3) target selection.
    index: PlacementIndex,
    /// The plan passes' thread budget plus the scratch the epoch loop
    /// reuses (see [`crate::pipeline`]).
    pipeline: EpochPipeline,
    /// Scratch buffers reused across epochs so the hot decision loop does
    /// not allocate on its common paths.
    work_scratch: Vec<decisions::DecisionWork>,
    /// Per-partition "an action changed it this phase" marks of the
    /// decision walk, indexed by [`decisions::DecisionWork`]'s slot.
    touched_scratch: Vec<bool>,
    servers_scratch: Vec<ServerId>,
    placed_scratch: Vec<(Location, f64)>,
    /// A partition's `(replica index, proximity)` serving order in the
    /// traffic commit.
    order_scratch: Vec<(usize, f64)>,
    /// The partitions of one ring the repair commit may act on.
    repair_scratch: Vec<PartitionId>,
    /// One ring's partition ids in ring order, refilled by the traffic
    /// commit and the repair commit (which shuffles it).
    pids_scratch: Vec<PartitionId>,
    /// Optional observability sink (see [`crate::obs`]). Write-only from
    /// the cloud's point of view: nothing here is ever read back by a
    /// decision path, so trajectories are bitwise identical with metrics
    /// attached or absent.
    metrics: Option<Arc<CloudMetrics>>,
    /// Gray modes and the continental cut of the current epoch,
    /// refreshed at `begin_epoch`.
    health: HealthState,
    /// Keys quorum reads found divergent, awaiting targeted read-repair
    /// at the next `end_epoch`. Interior mutability because the serving
    /// path is `&self`; drained sorted + deduplicated so the repair order
    /// is deterministic regardless of request interleaving.
    repair_queue: Mutex<Vec<(usize, Vec<u8>)>>,
}

impl SkuteCloud {
    /// Builds a cloud over an existing cluster.
    ///
    /// # Panics
    /// Panics if the config is invalid (see [`SkuteConfig::validate`]).
    pub fn new(config: SkuteConfig, topology: Topology, cluster: Cluster) -> Self {
        config.validate();
        let rent_model = RentModel::new(config.economy.alpha, config.economy.beta);
        let threads = config.threads;
        let mut cloud = Self {
            rng: StdRng::seed_from_u64(config.seed),
            config,
            topology,
            cluster,
            board: Board::new(),
            rent_model,
            apps: Vec::new(),
            rings: Vec::new(),
            epoch: 0,
            next_vnode: 0,
            write_seq: 0,
            insert_failures_epoch: 0,
            partitions_lost_epoch: 0,
            epoch_actions: ActionCounts::default(),
            index: PlacementIndex::new(),
            pipeline: EpochPipeline::new(threads),
            work_scratch: Vec::new(),
            touched_scratch: Vec::new(),
            servers_scratch: Vec::new(),
            placed_scratch: Vec::new(),
            order_scratch: Vec::new(),
            repair_scratch: Vec::new(),
            pids_scratch: Vec::new(),
            metrics: None,
            health: HealthState::default(),
            repair_queue: Mutex::new(Vec::new()),
        };
        cloud.post_prices();
        cloud
    }

    /// The current epoch (0 before the first [`SkuteCloud::begin_epoch`]).
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// The geographic topology.
    pub fn topology(&self) -> &Topology {
        &self.topology
    }

    /// The physical cluster (read-only; lifecycle goes through
    /// [`SkuteCloud::add_server`]/[`SkuteCloud::retire_server`]).
    pub fn cluster(&self) -> &Cluster {
        &self.cluster
    }

    /// Attaches an observability sink: subsequent epochs record phase
    /// timings and per-epoch counters into it. Attaching (or detaching)
    /// metrics never changes the trajectory — the sink is write-only.
    pub fn set_metrics(&mut self, metrics: Arc<CloudMetrics>) {
        self.metrics = Some(metrics);
    }

    /// Registered applications.
    pub fn applications(&self) -> &[Application] {
        &self.apps
    }

    // ------------------------------------------------------------------
    // Application management
    // ------------------------------------------------------------------

    /// Registers an application: calibrates one availability threshold per
    /// level against the topology, creates one virtual ring per level and
    /// seeds every partition with a single replica on a random alive server
    /// ("at startup … each partition is represented by a virtual node",
    /// §III-A). The replication process of Fig. 2 then grows each partition
    /// to its SLA replica count over the following epochs.
    ///
    /// All-or-nothing: when some level cannot be seeded, every byte the
    /// earlier partitions reserved is released and no ring is registered.
    pub fn create_application(&mut self, spec: AppSpec) -> Result<AppId, CoreError> {
        if spec.levels.is_empty() {
            return Err(CoreError::UnknownLevel);
        }
        if self.cluster.alive_count() == 0 {
            return Err(CoreError::EmptyCluster);
        }
        let app_id = AppId(self.apps.len() as u32);
        let mut rings: Vec<RingState> = Vec::with_capacity(spec.levels.len());
        for (level_idx, level_spec) in spec.levels.iter().enumerate() {
            let ring_id = RingId::new(app_id.0, level_idx as u32);
            if let Err(e) = self.seed_ring(ring_id, level_spec, &mut rings) {
                for p in rings.iter().flat_map(|ring| ring.partitions.values()) {
                    for r in &p.replicas {
                        if let Some(s) = self.cluster.get_mut(r.server) {
                            s.usage.release_storage(p.synthetic_bytes);
                        }
                    }
                }
                return Err(e);
            }
        }
        self.apps.push(Application {
            id: app_id,
            name: spec.name,
            levels: rings.iter().map(|ring| ring.level).collect(),
        });
        self.rings.append(&mut rings);
        Ok(app_id)
    }

    /// Pushes one level's ring onto `rings` and seeds its partitions,
    /// reserving each one's initial bytes. On error the partitions seeded
    /// so far stay in `rings` for the caller to release.
    fn seed_ring(
        &mut self,
        ring_id: RingId,
        level_spec: &LevelSpec,
        rings: &mut Vec<RingState>,
    ) -> Result<(), CoreError> {
        assert!(
            level_spec.replicas >= 1,
            "an SLA needs at least one replica"
        );
        assert!(
            level_spec.partitions >= 1,
            "a ring needs at least one partition"
        );
        let threshold = threshold_for_replicas(&self.topology, level_spec.replicas);
        let quorum = level_spec
            .quorum
            .unwrap_or_else(|| QuorumConfig::availability(level_spec.replicas));
        let ring = VirtualRing::with_hasher(
            ring_id,
            level_spec.partitions,
            skute_ring::KeyHasher::with_seed(
                u64::from(ring_id.app) << 32 | u64::from(ring_id.level),
            ),
        );
        let partition_ids = ring.partition_ids();
        rings.push(RingState {
            id: ring_id,
            level: AvailabilityLevel {
                target_replicas: level_spec.replicas,
                threshold,
                quorum,
            },
            ring,
            partitions: BTreeMap::new(),
            queries_offered_epoch: 0.0,
            queries_served_epoch: 0.0,
            queries_dropped_epoch: 0.0,
            distance_sum_epoch: 0.0,
        });
        let partitions = &mut rings.last_mut().expect("just pushed").partitions;
        for pid in partition_ids {
            let mut state = PartitionState::new(pid, 1.0);
            state.synthetic_bytes = level_spec.initial_partition_bytes;
            let server = self.seed_server(level_spec.initial_partition_bytes)?;
            state
                .replicas
                .push(self.new_replica(server, self.empty_store()));
            partitions.insert(pid, state);
        }
        Ok(())
    }

    /// Assigns popularity weights to the partitions of one ring, in ring
    /// order (the paper draws them from Pareto(1, 50)).
    pub fn assign_popularity(
        &mut self,
        app: AppId,
        level: u32,
        mut f: impl FnMut(usize) -> f64,
    ) -> Result<(), CoreError> {
        let ring_idx = self.ring_index(app, level)?;
        let ids = self.rings[ring_idx].ring.partition_ids();
        for (i, pid) in ids.iter().enumerate() {
            if let Some(p) = self.rings[ring_idx].partitions.get_mut(pid) {
                p.popularity = f(i).max(0.0);
            }
        }
        Ok(())
    }

    /// Partition ids of one ring, in ring order.
    pub fn partition_ids(&self, app: AppId, level: u32) -> Result<Vec<PartitionId>, CoreError> {
        Ok(self.ring(app, level)?.ring.partition_ids())
    }

    /// The servers hosting replicas of a partition.
    pub fn replica_servers(
        &self,
        app: AppId,
        level: u32,
        pid: PartitionId,
    ) -> Result<Vec<ServerId>, CoreError> {
        Ok(self.partition(app, level, pid)?.replica_servers())
    }

    /// Total virtual nodes of one ring.
    pub fn ring_vnodes(&self, app: AppId, level: u32) -> Result<usize, CoreError> {
        Ok(self.ring(app, level)?.vnode_count())
    }

    // ------------------------------------------------------------------
    // Epoch lifecycle
    // ------------------------------------------------------------------

    /// Opens a new epoch: feeds utilization into the marginal-price
    /// estimators, posts eq.-(1) rents on the board, and resets all
    /// per-epoch meters and accumulators.
    pub fn begin_epoch(&mut self) {
        self.epoch += 1;
        // Feed utilization observed during the epoch that just closed.
        for s in self.cluster.alive_mut() {
            let util = s.utilization();
            s.marginal_price.observe(util);
        }
        self.refresh_health();
        self.post_prices();
        self.cluster.begin_epoch();
        for ring in &mut self.rings {
            ring.begin_epoch();
        }
        self.insert_failures_epoch = 0;
        self.partitions_lost_epoch = 0;
        self.epoch_actions = ActionCounts::default();
    }

    /// Re-derives the epoch's gray modes and continental cut
    /// ([`HealthState::refresh`]) and, when they fed the confidence EWMA,
    /// invalidates what was computed from the old confidences.
    fn refresh_health(&mut self) {
        if !self.health.refresh(
            &self.config.fault_plan,
            self.epoch,
            self.topology.fanout(Level::Continent),
            &mut self.cluster,
            self.metrics.as_deref(),
        ) {
            return;
        }
        // Every memoized eq.-(2) availability is stale.
        for ring in &mut self.rings {
            for p in ring.partitions.values_mut() {
                p.note_confidence_changed();
            }
        }
    }

    /// The continent currently severed from the rest of the cloud, if any.
    pub fn partitioned_continent(&self) -> Option<u16> {
        self.health.cut()
    }

    /// Replaces the fault plan mid-run (CI injects a gray plan into a
    /// serving cloud this way). Gray modes and the continental cut apply
    /// from the next [`SkuteCloud::begin_epoch`]; storage-fault families
    /// only affect stores opened afterwards.
    pub fn set_fault_plan(&mut self, plan: FaultPlan) {
        self.config.fault_plan = plan;
    }

    /// Overrides the fault plan's continental cut from the next
    /// [`SkuteCloud::begin_epoch`] on: `Some(c)` severs continent `c`,
    /// `None` forces the cut healed (even under a partition plan). The
    /// sim's partition events route here.
    pub fn force_continent_partition(&mut self, cut: Option<u16>) {
        self.health.force_cut(cut);
    }

    fn post_prices(&mut self) {
        self.board.begin_epoch(self.epoch);
        let prices: Vec<(ServerId, f64)> = self
            .cluster
            .alive()
            .map(|s| (s.id, self.rent_model.price_server(s)))
            .collect();
        for (id, p) in prices {
            self.board.post(id, p);
        }
    }

    // ------------------------------------------------------------------
    // End of epoch: repair, decisions, report
    // ------------------------------------------------------------------

    /// Closes the epoch: runs the availability-repair pass, every virtual
    /// node's economic decision (§II-C), splits partitions over the 256 MB
    /// cap, and returns the epoch's report.
    pub fn end_epoch(&mut self) -> EpochReport {
        let mut actions = self.epoch_actions;
        self.epoch_actions = ActionCounts::default();
        let mut rent_paid = 0.0;
        let mut utility_earned = 0.0;
        let repair_start = self.obs_start();
        self.drain_read_repairs();
        if self.config.scrub_every > 0 && self.epoch % self.config.scrub_every == 0 {
            let ids: Vec<RingId> = self.rings.iter().map(|r| r.id).collect();
            for id in ids {
                let _ = self.scrub_quarantined(AppId(id.app), id.level);
            }
        }
        self.repair_availability(&mut actions);
        self.obs_phase(repair_start, |m| &m.phase_repair);
        let decisions_start = self.obs_start();
        self.economic_decisions(&mut actions, &mut rent_paid, &mut utility_earned);
        self.obs_phase(decisions_start, |m| &m.phase_decisions);
        let report_start = self.obs_start();
        self.split_overflowing(&mut actions);
        let report = self.report(actions, rent_paid, utility_earned);
        self.obs_phase(report_start, |m| &m.phase_report);
        if let Some(m) = &self.metrics {
            m.observe_report(&report);
        }
        report
    }

    // ------------------------------------------------------------------
    // Server lifecycle
    // ------------------------------------------------------------------

    /// Commissions a new server mid-epoch; its rent is posted immediately so
    /// the decision phase of this very epoch can already use it.
    pub fn add_server(&mut self, spec: ServerSpec) -> ServerId {
        let id = self.cluster.commission(spec, self.epoch);
        let price = self
            .cluster
            .get(id)
            .map(|s| self.rent_model.price_server(s))
            .unwrap_or_default();
        self.board.post(id, price);
        id
    }

    /// Retires (fails) a server: every replica it hosted disappears.
    /// Partitions that lose their last replica are counted as lost and
    /// reseeded empty on a random alive server.
    pub fn retire_server(&mut self, id: ServerId) {
        self.cluster.retire(id, self.epoch);
        self.board.withdraw(id);
        let mut reseeds: Vec<(usize, PartitionId)> = Vec::new();
        for (ri, ring) in self.rings.iter_mut().enumerate() {
            for (pid, p) in ring.partitions.iter_mut() {
                let before = p.replicas.len();
                p.replicas.retain(|r| r.server != id);
                if p.replicas.len() != before {
                    p.note_membership_changed();
                }
                if before > 0 && p.replicas.is_empty() {
                    reseeds.push((ri, *pid));
                }
            }
        }
        for (ri, pid) in reseeds {
            self.partitions_lost_epoch += 1;
            // The data is gone; restart the partition empty so the ring
            // keeps covering its key range.
            if let Ok(server) = self.seed_server(0) {
                let replica = self.new_replica(server, self.empty_store());
                if let Some(p) = self.rings[ri].partitions.get_mut(&pid) {
                    p.synthetic_bytes = 0;
                    p.replicas.push(replica);
                    p.note_membership_changed();
                }
            }
        }
    }

    /// Timestamps a phase start only when a sink is attached (metrics off
    /// means not even `Instant::now` runs on the epoch path).
    fn obs_start(&self) -> Option<Instant> {
        self.metrics.as_ref().map(|_| Instant::now())
    }

    /// Records the elapsed phase time into the sink's chosen histogram.
    fn obs_phase(&self, start: Option<Instant>, pick: fn(&CloudMetrics) -> &skute_obs::Histogram) {
        if let (Some(m), Some(t0)) = (&self.metrics, start) {
            pick(m).observe_duration(t0.elapsed());
        }
    }

    // ------------------------------------------------------------------
    // Internal helpers
    // ------------------------------------------------------------------

    fn ring_index(&self, app: AppId, level: u32) -> Result<usize, CoreError> {
        ring_index(&self.apps, &self.rings, app, level)
    }

    fn ring(&self, app: AppId, level: u32) -> Result<&RingState, CoreError> {
        Ok(&self.rings[self.ring_index(app, level)?])
    }

    fn partition(
        &self,
        app: AppId,
        level: u32,
        pid: PartitionId,
    ) -> Result<&PartitionState, CoreError> {
        self.ring(app, level)?
            .partitions
            .get(&pid)
            .ok_or(CoreError::NoPlacement)
    }

    /// Tells the placement index exactly which servers the action just
    /// executed has touched. The invalidation is queued and applied at the
    /// next index query, where it repositions those entries instead of
    /// rebuilding the whole snapshot.
    fn note_index(&mut self, ids: &[ServerId]) {
        self.index.queue_servers_changed(ids);
    }

    /// A new vnode on `server` carrying `store`.
    fn new_replica(&mut self, server: ServerId, store: ReplicaStore) -> Replica {
        let id = VnodeId(self.next_vnode);
        self.next_vnode += 1;
        let window = self.config.economy.decision_window;
        let mut replica = Replica::new(id, server, window);
        replica.store = store;
        replica
    }

    /// An empty store on the configured backend.
    fn empty_store(&self) -> ReplicaStore {
        ReplicaStore::open_with(self.config.backend, self.config.fault_plan)
    }

    /// A random alive server with `bytes` reserved on it, preferring a
    /// handful of random probes before falling back to the emptiest server.
    fn seed_server(&mut self, bytes: u64) -> Result<ServerId, CoreError> {
        let alive = self.cluster.alive_ids();
        if alive.is_empty() {
            return Err(CoreError::EmptyCluster);
        }
        let reserve = |cluster: &mut Cluster, id| {
            cluster
                .get_mut(id)
                .is_some_and(|s| resize_storage(s, 0, bytes))
        };
        for _ in 0..16 {
            let id = alive[self.rng.gen_range(0..alive.len())];
            if reserve(&mut self.cluster, id) {
                return Ok(id);
            }
        }
        // Fall back to the server with the most free space.
        let best = self
            .cluster
            .alive()
            .max_by_key(|s| s.storage_free())
            .map(|s| s.id)
            .ok_or(CoreError::EmptyCluster)?;
        if reserve(&mut self.cluster, best) {
            Ok(best)
        } else {
            Err(CoreError::NoPlacement)
        }
    }
}

/// Index of ring `(app, level)` in the ring table.
fn ring_index(
    apps: &[Application],
    rings: &[RingState],
    app: AppId,
    level: u32,
) -> Result<usize, CoreError> {
    if app.0 as usize >= apps.len() {
        return Err(CoreError::UnknownApp);
    }
    let id = RingId::new(app.0, level);
    rings
        .iter()
        .position(|r| r.id == id)
        .ok_or(CoreError::UnknownLevel)
}

/// Moves `server`'s storage charge for one item from `old` to `new` bytes.
/// Shrinking always fits and releases the difference; growing is refused,
/// charging nothing, when the server lacks the room.
fn resize_storage(server: &mut Server, old: u64, new: u64) -> bool {
    if new <= old {
        server.usage.release_storage(old - new);
        true
    } else {
        let caps = server.capacities;
        server.usage.reserve_storage(&caps, new - old)
    }
}

/// Answers one eq.-(3) target selection from the rent-sorted index. Debug
/// builds also run the full [`economic_target`] scan through a fresh
/// proximity cache, the reference the index must reproduce, and assert the
/// same winner with a bit-identical score, so every placement of every
/// debug-build test is checked against it (and a stale `prox` shows).
fn select_target(
    index: &mut PlacementIndex,
    ctx: &PlacementContext<'_>,
    q: &TargetQuery<'_>,
    prox: &mut ProximityCache,
) -> Option<(ServerId, f64)> {
    let target = index.economic_target(ctx, q, prox);
    let bits = |t: Option<(ServerId, f64)>| t.map(|(id, score)| (id, score.to_bits()));
    debug_assert_eq!(
        bits(target),
        bits(economic_target(ctx, q, &mut ProximityCache::new())),
        "the placement index diverges from the eq.-(3) scan"
    );
    target
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use skute_cluster::Capacities;

    pub(crate) const GIB: u64 = 1 << 30;

    pub(crate) fn paper_cluster(topology: &Topology) -> Cluster {
        Cluster::from_topology(topology, |i, location| ServerSpec {
            location,
            capacities: Capacities::paper(10 * GIB, 5_000.0),
            monthly_cost: if i % 10 < 7 { 100.0 } else { 125.0 },
            confidence: 1.0,
        })
    }

    pub(crate) fn small_cloud() -> (SkuteCloud, AppId) {
        let topology = Topology::paper();
        let cluster = paper_cluster(&topology);
        let mut cloud = SkuteCloud::new(SkuteConfig::paper(), topology, cluster);
        let app = cloud
            .create_application(AppSpec::new("t").level(LevelSpec::new(3, 16)))
            .unwrap();
        (cloud, app)
    }

    #[test]
    fn create_application_seeds_one_replica_per_partition() {
        let (cloud, app) = small_cloud();
        assert_eq!(cloud.ring_vnodes(app, 0).unwrap(), 16);
        for pid in cloud.partition_ids(app, 0).unwrap() {
            assert_eq!(cloud.replica_servers(app, 0, pid).unwrap().len(), 1);
        }
    }

    #[test]
    fn failed_create_application_leaves_no_rings_and_no_reservations() {
        // 200 servers of 1 MiB: the first level's 8 × 1 KiB seed, the
        // second level's 1 GiB partitions cannot be placed anywhere.
        let topology = Topology::paper();
        let cluster = Cluster::from_topology(&topology, |_, location| ServerSpec {
            location,
            capacities: Capacities::paper(1 << 20, 5_000.0),
            monthly_cost: 100.0,
            confidence: 1.0,
        });
        let mut cloud = SkuteCloud::new(SkuteConfig::paper(), topology, cluster);
        let doomed = AppSpec::new("doomed")
            .level(LevelSpec::new(2, 8).with_initial_bytes(1 << 10))
            .level(LevelSpec::new(2, 8).with_initial_bytes(GIB));
        assert_eq!(
            cloud.create_application(doomed),
            Err(CoreError::NoPlacement)
        );
        assert_eq!(cloud.applications().len(), 0);
        assert_eq!(cloud.rings.len(), 0, "no orphan ring");
        assert_eq!(
            cloud.cluster().total_storage_used(),
            0,
            "every seeded partition's reservation is released"
        );
        let app = cloud
            .create_application(AppSpec::new("next").level(LevelSpec::new(2, 4)))
            .unwrap();
        assert_eq!(app, AppId(0));
        assert_eq!(cloud.partition_ids(app, 0).unwrap().len(), 4);
    }

    #[test]
    fn retire_last_replica_counts_loss_and_reseeds() {
        let topology = Topology::paper();
        let cluster = paper_cluster(&topology);
        let mut cloud = SkuteCloud::new(SkuteConfig::paper(), topology, cluster);
        let app = cloud
            .create_application(AppSpec::new("t").level(LevelSpec::new(1, 4)))
            .unwrap();
        // No epochs run: every partition still has exactly one replica.
        let pid = cloud.partition_ids(app, 0).unwrap()[0];
        let server = cloud.replica_servers(app, 0, pid).unwrap()[0];
        cloud.retire_server(server);
        let report = {
            cloud.begin_epoch();
            cloud.end_epoch()
        };
        // Reseeded: the partition exists with one fresh replica.
        assert_eq!(cloud.replica_servers(app, 0, pid).unwrap().len(), 1);
        // Loss was counted in the epoch-0 window, before begin_epoch reset;
        // re-check by failing again inside an open epoch.
        let server2 = cloud.replica_servers(app, 0, pid).unwrap()[0];
        cloud.begin_epoch();
        cloud.retire_server(server2);
        let report2 = cloud.end_epoch();
        assert_eq!(report2.partitions_lost, 1);
        let _ = report;
    }

    #[test]
    fn determinism_same_seed_same_trajectory() {
        let run = |seed: u64| {
            let topology = Topology::paper();
            let cluster = paper_cluster(&topology);
            let mut cloud =
                SkuteCloud::new(SkuteConfig::paper().with_seed(seed), topology, cluster);
            let app = cloud
                .create_application(AppSpec::new("t").level(LevelSpec::new(3, 32)))
                .unwrap();
            let mut sums = Vec::new();
            for _ in 0..4 {
                cloud.begin_epoch();
                let regions = skute_geo::ClientGeo::Uniform.region_weights(cloud.topology());
                cloud.deliver_queries(app, 0, 1000.0, &regions).unwrap();
                let r = cloud.end_epoch();
                sums.push((r.total_vnodes(), r.actions));
            }
            sums
        };
        assert_eq!(run(7), run(7));
        assert_ne!(run(7), run(8), "different seeds explore different paths");
    }

    #[test]
    fn unknown_app_and_level_error() {
        let (cloud, app) = small_cloud();
        assert!(matches!(
            cloud.get(AppId(99), 0, b"k"),
            Err(CoreError::UnknownApp)
        ));
        assert!(matches!(
            cloud.get(app, 9, b"k"),
            Err(CoreError::UnknownLevel)
        ));
    }

    #[test]
    fn multi_level_app_gets_one_ring_per_level() {
        let topology = Topology::paper();
        let cluster = paper_cluster(&topology);
        let mut cloud = SkuteCloud::new(SkuteConfig::paper(), topology, cluster);
        let app = cloud
            .create_application(
                AppSpec::new("tiered")
                    .level(LevelSpec::new(2, 8))
                    .level(LevelSpec::new(4, 4)),
            )
            .unwrap();
        assert_eq!(cloud.applications()[0].levels.len(), 2);
        assert!(cloud.ring_vnodes(app, 0).is_ok());
        assert!(cloud.ring_vnodes(app, 1).is_ok());
        cloud.begin_epoch();
        cloud.put(app, 0, b"cheap", b"1".to_vec()).unwrap();
        cloud.put(app, 1, b"precious", b"2".to_vec()).unwrap();
        for _ in 0..8 {
            cloud.begin_epoch();
            cloud.end_epoch();
        }
        // Higher level converges to more replicas per partition.
        let mean = |level: u32| {
            let pids = cloud.partition_ids(app, level).unwrap();
            let total: usize = pids
                .iter()
                .map(|p| cloud.replica_servers(app, level, *p).unwrap().len())
                .sum();
            total as f64 / pids.len() as f64
        };
        assert!(mean(1) > mean(0));
        assert_eq!(
            cloud.get(app, 1, b"precious").unwrap().unwrap().as_ref(),
            b"2"
        );
    }
}
