//! [`SkuteCloud`]: the self-managed, multi-ring key-value cloud.

use std::collections::BTreeMap;
use std::fmt;
use std::str::FromStr;
use std::sync::{Arc, Mutex};
use std::time::Instant;

use bytes::Bytes;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};

use skute_cluster::{Board, Cluster, Server, ServerId, ServerSpec};
use skute_economy::{proximity, ProximityCache, RegionQueries, RentModel};
use skute_geo::{Level, Location, RegionWeight, Topology};
use skute_ring::{PartitionId, RingId, VirtualRing};
use skute_store::{
    AntiEntropyUnion, ApplyOutcome, FaultPlan, FaultStats, GrayMode, QuorumConfig, Record,
    ReplicaStore, StorageActivity, StoreError, Version,
};

use crate::app::{AppId, AppSpec, Application, AvailabilityLevel};
use crate::availability::{availability_of, threshold_for_replicas};
use crate::config::SkuteConfig;
use crate::decision::{classify, clears_profit_hurdle, ActionCounts, Intent, VnodeSituation};
use crate::error::CoreError;
use crate::metrics::{AntiEntropyReport, EpochReport, RingReport, ScrubReport};
use crate::obs::CloudMetrics;
use crate::pipeline::{
    cached_availability, DecisionItem, DeliveryBatch, EpochPipeline, PreDecision,
};
use crate::placement::{
    economic_target, validate_speculation, PlacementContext, PlacementIndex, SpecWriteSet,
};
use crate::vnode::{PartitionState, Replica, VnodeId};

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

/// Which reference implementation the epoch's eq.-(3) target selections
/// run through instead of the production path. A test oracle, not
/// configuration: every variant replays the production trajectory bit for
/// bit (up to the speculation hit/miss counters under
/// [`DecisionOracle::Rewalk`]), and only
/// [`SkuteCloud::set_decision_oracle`] sets it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum DecisionOracle {
    /// Production: targets come from the rent-sorted
    /// [`PlacementIndex`]; the decision plan pass speculates and the
    /// commit pass honors every speculation `validate_speculation` proves
    /// still exact.
    #[default]
    None,
    /// The decision plan pass computes no speculative targets, so the
    /// commit pass re-walks every acting vnode against the live state —
    /// the sequential loop speculation replaced.
    Rewalk,
    /// Every target selection, speculative ones included, is the
    /// brute-force full-cluster scan [`economic_target`] instead of an
    /// index walk.
    BruteForce,
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
    /// Shared with the pipeline's parallel phases (jobs on the persistent
    /// pool must own their inputs; the topology is immutable, so one `Arc`
    /// serves every dispatch without a take/restore round trip).
    topology: Arc<Topology>,
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
    /// Rent-sorted candidate index behind every eq.-(3) target selection
    /// (unless [`DecisionOracle::BruteForce`] routes around it).
    index: PlacementIndex,
    /// Test hook; see [`SkuteCloud::set_decision_oracle`].
    oracle: DecisionOracle,
    /// Phase orchestration: the worker pool of the parallel plan passes
    /// plus their reusable per-shard scratch (see [`crate::pipeline`]).
    pipeline: EpochPipeline,
    /// Scratch buffers reused across epochs so the hot decision loop does
    /// not allocate on its common paths. The last tuple element is the
    /// vnode's slot in the pipeline's precomputation buffer.
    work_scratch: Vec<(usize, PartitionId, VnodeId, usize)>,
    servers_scratch: Vec<ServerId>,
    placed_scratch: Vec<(Location, f64)>,
    /// Servers mutated by the actions committed so far in the current
    /// decision commit pass (deduplicated, split by mutation direction) —
    /// the write set every later speculation is validated against.
    spec_touched: SpecWriteSet,
    /// Scratch for the validation's lazily built existing-replica
    /// location list.
    spec_locs: Vec<Location>,
    /// Optional observability sink (see [`crate::obs`]). Write-only from
    /// the cloud's point of view: nothing here is ever read back by a
    /// decision path, so trajectories are bitwise identical with metrics
    /// attached or absent.
    metrics: Option<Arc<CloudMetrics>>,
    /// Per-server gray modes of the current epoch (indexed by server id),
    /// refreshed at `begin_epoch` under a gray fault plan; empty while the
    /// plan has never been gray, so legacy runs pay nothing.
    gray_modes: Vec<GrayMode>,
    /// The continent currently severed from the rest of the cloud (from
    /// the fault plan, or forced via
    /// [`SkuteCloud::force_continent_partition`]).
    partition_cut: Option<u16>,
    /// Sim/operator override of the continental cut: `None` follows the
    /// fault plan, `Some(cut)` replaces whatever the plan derives.
    forced_cut: Option<Option<u16>>,
    /// Keys quorum reads found divergent, awaiting targeted read-repair
    /// at the next `end_epoch`. Interior mutability because the serving
    /// path is `&self`; drained sorted + deduplicated so the repair order
    /// is deterministic regardless of request interleaving.
    repair_queue: Mutex<Vec<(usize, Vec<u8>)>>,
}

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

/// Requested consistency of a serving-path read
/// ([`SkuteCloud::client_get_with`], `skute-server`'s `X-Consistency`
/// header).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ReadConsistency {
    /// Serve from the single highest-proximity reachable replica (the
    /// default; fastest, may observe a divergent replica).
    #[default]
    One,
    /// Read ⌈(k+1)/2⌉ replicas, resolve by last-writer-wins, and schedule
    /// read-repair for every stale replica observed. Together with the
    /// write path's `w = ⌊k/2⌋ + 1` ack requirement, `r + w > k`
    /// guarantees a quorum read always sees every acknowledged write.
    Quorum,
}

impl ReadConsistency {
    /// Stable lowercase name (the `X-Consistency` header value).
    pub fn as_str(self) -> &'static str {
        match self {
            ReadConsistency::One => "one",
            ReadConsistency::Quorum => "quorum",
        }
    }
}

impl fmt::Display for ReadConsistency {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

impl FromStr for ReadConsistency {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s.to_ascii_lowercase().as_str() {
            "one" | "1" => Ok(ReadConsistency::One),
            "quorum" => Ok(ReadConsistency::Quorum),
            other => Err(format!(
                "unknown read consistency {other:?} (expected one|quorum)"
            )),
        }
    }
}

/// The result of a proximity-routed [`SkuteCloud::client_get`]: the value
/// (if any), which server served it, and that server's eq.-(4) weight for
/// the requesting client.
#[derive(Debug, Clone)]
pub struct ClientRead {
    /// The live value under the key (`None` for absent keys and
    /// tombstones).
    pub value: Option<Bytes>,
    /// The replica server the read was routed to (for quorum reads, the
    /// highest-proximity replica that held the winning record).
    pub served_by: ServerId,
    /// The serving server's eq.-(4) proximity weight for this client
    /// (1.0 when no client location was given).
    pub proximity: f64,
    /// True when the requested consistency could not be met: no replica
    /// was reachable (consistency `One`) or fewer than ⌈(k+1)/2⌉ replicas
    /// were reachable (consistency `Quorum`) and the read was served
    /// best-effort from what remained.
    pub degraded: bool,
    /// Replica stores consulted to answer the read.
    pub replicas_read: usize,
    /// Stale replicas observed by a quorum read and enqueued for
    /// read-repair at the next epoch close.
    pub repairs_scheduled: usize,
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
            topology: Arc::new(topology),
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
            oracle: DecisionOracle::None,
            pipeline: EpochPipeline::new(threads),
            work_scratch: Vec::new(),
            servers_scratch: Vec::new(),
            placed_scratch: Vec::new(),
            spec_touched: SpecWriteSet::new(),
            spec_locs: Vec::new(),
            metrics: None,
            gray_modes: Vec::new(),
            partition_cut: None,
            forced_cut: None,
            repair_queue: Mutex::new(Vec::new()),
        };
        cloud.post_prices();
        cloud
    }

    /// The current epoch (0 before the first [`SkuteCloud::begin_epoch`]).
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// The cloud configuration.
    pub fn config(&self) -> &SkuteConfig {
        &self.config
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

    /// The rent board of the current epoch.
    pub fn board(&self) -> &Board {
        &self.board
    }

    /// The epoch pipeline (worker budget of the parallel phases).
    pub fn pipeline(&self) -> &EpochPipeline {
        &self.pipeline
    }

    /// Attaches an observability sink: subsequent epochs record phase
    /// timings and per-epoch counters into it. Attaching (or detaching)
    /// metrics never changes the trajectory — the sink is write-only.
    pub fn set_metrics(&mut self, metrics: Arc<CloudMetrics>) {
        self.metrics = Some(metrics);
    }

    /// The attached observability sink, if any.
    pub fn metrics(&self) -> Option<&Arc<CloudMetrics>> {
        self.metrics.as_ref()
    }

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
    pub fn create_application(&mut self, spec: AppSpec) -> Result<AppId, CoreError> {
        if spec.levels.is_empty() {
            return Err(CoreError::UnknownLevel);
        }
        if self.cluster.alive_count() == 0 {
            return Err(CoreError::EmptyCluster);
        }
        let app_id = AppId(self.apps.len() as u32);
        let mut levels = Vec::with_capacity(spec.levels.len());
        for (level_idx, level_spec) in spec.levels.iter().enumerate() {
            assert!(
                level_spec.replicas >= 1,
                "an SLA needs at least one replica"
            );
            assert!(
                level_spec.partitions >= 1,
                "a ring needs at least one partition"
            );
            let threshold = threshold_for_replicas(
                &self.topology,
                level_spec.replicas,
                self.config.availability_frac,
            );
            let quorum = level_spec
                .quorum
                .unwrap_or_else(|| QuorumConfig::availability(level_spec.replicas));
            let level = AvailabilityLevel {
                target_replicas: level_spec.replicas,
                threshold,
                quorum,
            };
            levels.push(level);
            let ring_id = RingId::new(app_id.0, level_idx as u32);
            let ring = VirtualRing::with_hasher(
                ring_id,
                level_spec.partitions,
                skute_ring::KeyHasher::with_seed(
                    u64::from(ring_id.app) << 32 | u64::from(ring_id.level),
                ),
            );
            let mut partitions = BTreeMap::new();
            for p in ring.partitions() {
                let mut state = PartitionState::new(p.id, 1.0);
                state.synthetic_bytes = level_spec.initial_partition_bytes;
                let server = self.seed_server(level_spec.initial_partition_bytes)?;
                let mut replica = Replica::new(
                    self.alloc_vnode(),
                    server,
                    self.config.economy.decision_window,
                    self.epoch,
                );
                replica.store =
                    ReplicaStore::open_with(self.config.backend, self.config.fault_plan);
                state.replicas.push(replica);
                partitions.insert(p.id, state);
            }
            self.rings.push(RingState {
                id: ring_id,
                level,
                ring,
                partitions,
                queries_offered_epoch: 0.0,
                queries_served_epoch: 0.0,
                queries_dropped_epoch: 0.0,
                distance_sum_epoch: 0.0,
            });
        }
        self.apps.push(Application {
            id: app_id,
            name: spec.name,
            levels,
        });
        Ok(app_id)
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
        Ok(self.rings[self.ring_index(app, level)?]
            .ring
            .partition_ids())
    }

    /// The servers hosting replicas of a partition.
    pub fn replica_servers(
        &self,
        app: AppId,
        level: u32,
        pid: PartitionId,
    ) -> Result<Vec<ServerId>, CoreError> {
        let ring = &self.rings[self.ring_index(app, level)?];
        ring.partitions
            .get(&pid)
            .map(|p| p.replica_servers())
            .ok_or(CoreError::NoPlacement)
    }

    /// Total virtual nodes of one ring.
    pub fn ring_vnodes(&self, app: AppId, level: u32) -> Result<usize, CoreError> {
        Ok(self.rings[self.ring_index(app, level)?].vnode_count())
    }

    /// Logical size of one replica of a partition (synthetic bytes plus the
    /// largest materialized store).
    pub fn partition_size(
        &self,
        app: AppId,
        level: u32,
        pid: PartitionId,
    ) -> Result<u64, CoreError> {
        let ring = &self.rings[self.ring_index(app, level)?];
        ring.partitions
            .get(&pid)
            .map(|p| p.size_bytes())
            .ok_or(CoreError::NoPlacement)
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
        let ring = &self.rings[self.ring_index(app, level)?];
        let p = ring.partitions.get(&pid).ok_or(CoreError::NoPlacement)?;
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

    /// Fleet-wide injected-fault counters of one ring: the sum of every
    /// replica store's [`FaultStats`]. Observability only — under the mem
    /// oracle (no IO path to fault) all counters are zero.
    pub fn fault_stats(&self, app: AppId, level: u32) -> Result<FaultStats, CoreError> {
        let ring = &self.rings[self.ring_index(app, level)?];
        let mut total = FaultStats::default();
        for p in ring.partitions.values() {
            for r in &p.replicas {
                if let Some(stats) = r.store.fault_stats() {
                    total.absorb(&stats);
                }
            }
        }
        Ok(total)
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
        self.refresh_gray_state();
        self.post_prices();
        self.cluster.begin_epoch();
        for ring in &mut self.rings {
            ring.begin_epoch();
        }
        self.insert_failures_epoch = 0;
        self.partitions_lost_epoch = 0;
        self.epoch_actions = ActionCounts::default();
    }

    /// Re-derives per-server gray modes and the continental cut for the
    /// new epoch and feeds one health sample per alive server into the
    /// confidence EWMA. A strict no-op when the fault plan has never been
    /// gray and no cut was ever forced, so legacy same-seed trajectories
    /// stay byte-identical. Everything here is sequential, in ascending
    /// server-id order, and a pure function of `(plan, epoch)` — gray
    /// trajectories are therefore invariant across thread counts and
    /// storage backends.
    fn refresh_gray_state(&mut self) {
        let plan = self.config.fault_plan;
        let continents = self.topology.fanout(Level::Continent);
        let cut = match self.forced_cut {
            Some(forced) => forced,
            None => plan.partitioned_continent(self.epoch, continents),
        };
        let active = plan.gray_failures() || cut.is_some();
        if !active && self.gray_modes.is_empty() && self.partition_cut.is_none() {
            return;
        }
        self.partition_cut = cut;
        self.gray_modes.clear();
        self.gray_modes
            .resize(self.cluster.len(), GrayMode::Healthy);
        let (mut min_bp, mut sum, mut alive, mut degraded) = (i64::MAX, 0.0f64, 0u64, 0i64);
        for idx in 0..self.gray_modes.len() {
            let id = ServerId(idx as u32);
            let mode = plan.gray_mode(idx as u64, self.epoch);
            self.gray_modes[idx] = mode;
            let Some(server) = self.cluster.get_mut(id) else {
                continue;
            };
            if !server.is_alive() {
                continue;
            }
            let mut sample = mode.health_sample();
            if cut == Some(server.location.continent) {
                // A cut continent is unreachable from the majority side no
                // matter how healthy its servers are individually.
                sample = sample.min(0.1);
            }
            server.observe_health(sample);
            if mode.is_degraded() || cut == Some(server.location.continent) {
                degraded += 1;
            }
            let bp = (server.confidence * 10_000.0).round() as i64;
            min_bp = min_bp.min(bp);
            sum += server.confidence;
            alive += 1;
        }
        // Confidences moved, so every memoized eq.-(2) availability is
        // stale. Membership is untouched: clear caches without bumping
        // membership versions (speculative precomputations stay valid).
        for ring in &mut self.rings {
            for p in ring.partitions.values_mut() {
                p.note_confidence_changed();
            }
        }
        if let Some(m) = &self.metrics {
            if alive > 0 {
                m.confidence_min_bp.set(min_bp);
                m.confidence_mean_bp
                    .set((sum / alive as f64 * 10_000.0).round() as i64);
            }
            m.gray_degraded_servers.set(degraded);
            m.partition_cut_continent.set(cut.map_or(-1, i64::from));
        }
    }

    /// The gray mode `server` runs under this epoch ([`GrayMode::Healthy`]
    /// outside gray fault plans).
    pub fn gray_mode_of(&self, server: ServerId) -> GrayMode {
        self.gray_modes
            .get(server.0 as usize)
            .copied()
            .unwrap_or_default()
    }

    /// The continent currently severed from the rest of the cloud, if any.
    pub fn partitioned_continent(&self) -> Option<u16> {
        self.partition_cut
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
        self.forced_cut = Some(cut);
    }

    /// Routes the epoch's eq.-(3) target selections through a reference
    /// implementation (test hook: the equivalence tests replay a scenario
    /// under each [`DecisionOracle`] and compare trajectories bitwise).
    /// Takes effect from the next repair, relocation or decision pass; no
    /// other state depends on it.
    pub fn set_decision_oracle(&mut self, oracle: DecisionOracle) {
        self.oracle = oracle;
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
        let window = self.config.economy.decision_window;
        let epoch = self.epoch;
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
                let vid = self.alloc_vnode();
                let backend = self.config.backend;
                let plan = self.config.fault_plan;
                if let Some(p) = self.rings[ri].partitions.get_mut(&pid) {
                    p.synthetic_bytes = 0;
                    let mut replica = Replica::new(vid, server, window, epoch);
                    replica.store = ReplicaStore::open_with(backend, plan);
                    p.replicas.push(replica);
                    p.note_membership_changed();
                }
            }
        }
    }

    // ------------------------------------------------------------------
    // Client API
    // ------------------------------------------------------------------

    /// Writes a key-value pair into an application's ring.
    pub fn put(
        &mut self,
        app: AppId,
        level: u32,
        key: &[u8],
        value: impl Into<Bytes>,
    ) -> Result<(), CoreError> {
        let version = self.next_version();
        self.write_record(app, level, key, Record::put(value.into(), version))
    }

    /// Deletes a key (writes a tombstone).
    pub fn delete(&mut self, app: AppId, level: u32, key: &[u8]) -> Result<(), CoreError> {
        let version = self.next_version();
        self.write_record(app, level, key, Record::tombstone(version))
    }

    /// Reads a key: merges the first `r` replica responses (LWW).
    pub fn get(&mut self, app: AppId, level: u32, key: &[u8]) -> Result<Option<Bytes>, CoreError> {
        let ring_idx = self.ring_index(app, level)?;
        let pid = self.rings[ring_idx].ring.route(key);
        let quorum = self.rings[ring_idx].level.quorum;
        let partition = self.rings[ring_idx]
            .partitions
            .get(&pid)
            .ok_or(CoreError::NoPlacement)?;
        if partition.replicas.is_empty() {
            return Err(CoreError::Store(StoreError::NoReplicas));
        }
        let r_eff = quorum.r.min(partition.replicas.len());
        let responses: Vec<Option<Record>> = partition
            .replicas
            .iter()
            .take(r_eff)
            .map(|replica| replica.store.get(key))
            .collect();
        let merged = Record::merge_all(responses.into_iter().flatten());
        Ok(merged.and_then(|r| r.value))
    }

    /// Serving-path read: routes `key` through the ring and picks the
    /// **alive** replica with the highest eq.-(4) proximity weight for
    /// `client` (ties break to the earliest replica; no client location
    /// means every weight is the neutral 1.0, so the first alive replica
    /// serves). Falls back to the LWW merge across all replicas when the
    /// chosen replica misses — a divergent replica must not turn a stored
    /// key into a spurious 404.
    ///
    /// Read-only (`&self`): the serving path never touches capacity
    /// meters or any decision input, so interleaving client reads with
    /// epoch ticks cannot perturb trajectories.
    pub fn client_get(
        &self,
        app: AppId,
        level: u32,
        key: &[u8],
        client: Option<Location>,
    ) -> Result<ClientRead, CoreError> {
        self.client_get_with(app, level, key, client, ReadConsistency::One)
    }

    /// True when a client at `client` can reach the replica on `server`
    /// at `location` under the current gray modes and continental cut. A
    /// client with no stated location is assumed to sit outside the cut
    /// continent (the majority side).
    fn replica_reachable(
        &self,
        server: ServerId,
        location: &Location,
        client: Option<Location>,
    ) -> bool {
        if matches!(
            self.gray_modes.get(server.0 as usize),
            Some(GrayMode::Partitioned)
        ) {
            return false;
        }
        match self.partition_cut {
            Some(cut) => {
                let client_in_cut = client.is_some_and(|c| c.continent == cut);
                (location.continent == cut) == client_in_cut
            }
            None => true,
        }
    }

    /// [`SkuteCloud::client_get`] with an explicit [`ReadConsistency`].
    ///
    /// `Quorum` reads ⌈(k+1)/2⌉ reachable replicas (highest eq.-(4)
    /// proximity first), resolves them by last-writer-wins, and enqueues
    /// every stale replica observed for targeted read-repair at the next
    /// [`SkuteCloud::end_epoch`]. When fewer than a quorum of replicas is
    /// reachable — a continental cut, gray-partitioned servers — the read
    /// degrades gracefully to the best reachable subset (or the local
    /// stores outright when nothing is reachable) and is flagged
    /// [`ClientRead::degraded`].
    pub fn client_get_with(
        &self,
        app: AppId,
        level: u32,
        key: &[u8],
        client: Option<Location>,
        consistency: ReadConsistency,
    ) -> Result<ClientRead, CoreError> {
        let ring_idx = self.ring_index(app, level)?;
        let pid = self.rings[ring_idx].ring.route(key);
        let partition = self.rings[ring_idx]
            .partitions
            .get(&pid)
            .ok_or(CoreError::NoPlacement)?;
        if partition.replicas.is_empty() {
            return Err(CoreError::Store(StoreError::NoReplicas));
        }
        let regions = client.map(|location| {
            [RegionQueries {
                location,
                queries: 1.0,
            }]
        });
        // Alive, reachable replicas with their proximity weights, in
        // replica order.
        let mut reachable: Vec<(usize, f64)> = Vec::new();
        for (i, replica) in partition.replicas.iter().enumerate() {
            let Some(server) = self.cluster.get_alive(replica.server) else {
                continue;
            };
            if !self.replica_reachable(replica.server, &server.location, client) {
                continue;
            }
            let g = match &regions {
                Some(r) => proximity(r, &server.location, &self.topology),
                None => 1.0,
            };
            reachable.push((i, g));
        }
        let read = match consistency {
            ReadConsistency::One => {
                // Highest proximity wins, ties break to the earliest
                // replica — exactly the pre-quorum routing.
                let mut best: Option<(usize, f64)> = None;
                for &(i, g) in &reachable {
                    if best.is_none_or(|(_, bg)| g > bg) {
                        best = Some((i, g));
                    }
                }
                // Nothing reachable: serve from the first replica's store
                // anyway (the data still exists; liveness is the repair
                // pass's problem, not the read path's) and flag the read.
                let degraded = best.is_none();
                let (idx, g) = best.unwrap_or((0, 1.0));
                let chosen = &partition.replicas[idx];
                let value = match chosen.store.get(key) {
                    Some(record) => record.value,
                    None => {
                        let responses = partition.replicas.iter().map(|r| r.store.get(key));
                        Record::merge_all(responses.flatten()).and_then(|r| r.value)
                    }
                };
                ClientRead {
                    value,
                    served_by: chosen.server,
                    proximity: g,
                    degraded,
                    replicas_read: 1,
                    repairs_scheduled: 0,
                }
            }
            ReadConsistency::Quorum => {
                let k = partition.replicas.len();
                let need = k / 2 + 1;
                let degraded = reachable.len() < need;
                // Read set: the `need` highest-proximity reachable
                // replicas (ties to the earliest), or every replica when
                // nothing is reachable at all.
                let mut read_set: Vec<(usize, f64)> = if reachable.is_empty() {
                    (0..k).map(|i| (i, 1.0)).collect()
                } else {
                    reachable.clone()
                };
                read_set.sort_by(|a, b| {
                    b.1.partial_cmp(&a.1)
                        .unwrap_or(std::cmp::Ordering::Equal)
                        .then(a.0.cmp(&b.0))
                });
                read_set.truncate(need.max(1));
                let responses: Vec<(usize, f64, Option<Record>)> = read_set
                    .iter()
                    .map(|&(i, g)| (i, g, partition.replicas[i].store.get(key)))
                    .collect();
                let winner = Record::merge_all(responses.iter().filter_map(|(_, _, r)| r.clone()));
                // Every response below the winning version is stale;
                // schedule the key for targeted repair.
                let repairs_scheduled = match &winner {
                    Some(w) => responses
                        .iter()
                        .filter(|(_, _, r)| match r {
                            Some(rec) => rec.version < w.version,
                            None => true,
                        })
                        .count(),
                    None => 0,
                };
                if repairs_scheduled > 0 {
                    self.repair_queue
                        .lock()
                        .expect("read-repair queue poisoned")
                        .push((ring_idx, key.to_vec()));
                }
                // Serve from the highest-proximity replica that held the
                // winning record (read_set is already proximity-sorted).
                let (idx, g) = responses
                    .iter()
                    .find(|(_, _, r)| match (&winner, r) {
                        (Some(w), Some(rec)) => rec.version == w.version,
                        (None, None) => true,
                        _ => false,
                    })
                    .map(|&(i, g, _)| (i, g))
                    .unwrap_or((read_set[0].0, read_set[0].1));
                let value = match winner {
                    Some(record) => record.value,
                    // A degraded quorum can miss the key entirely while an
                    // unreachable replica still holds it; fall back to the
                    // local LWW merge rather than inventing a 404.
                    None if degraded => {
                        let responses = partition.replicas.iter().map(|r| r.store.get(key));
                        Record::merge_all(responses.flatten()).and_then(|r| r.value)
                    }
                    None => None,
                };
                ClientRead {
                    value,
                    served_by: partition.replicas[idx].server,
                    proximity: g,
                    degraded,
                    replicas_read: responses.len(),
                    repairs_scheduled,
                }
            }
        };
        if let Some(m) = &self.metrics {
            if consistency == ReadConsistency::Quorum {
                m.quorum_reads.inc();
                if read.repairs_scheduled > 0 {
                    m.quorum_divergent.inc();
                }
                m.read_repairs_scheduled.add(read.repairs_scheduled as u64);
            }
            if read.degraded {
                m.degraded_reads.inc();
            }
        }
        Ok(read)
    }

    /// Ordered prefix scan over one ring: merges every partition's
    /// replicas version-dominantly (so divergent replicas cannot hide or
    /// resurrect entries), filters live records under `prefix`, and
    /// returns up to `limit` `(key, value)` pairs in key order
    /// (`limit = 0` means unbounded).
    pub fn scan(
        &self,
        app: AppId,
        level: u32,
        prefix: &[u8],
        limit: usize,
    ) -> Result<Vec<(Bytes, Bytes)>, CoreError> {
        let ring_idx = self.ring_index(app, level)?;
        let mut merged: BTreeMap<Bytes, Record> = BTreeMap::new();
        for partition in self.rings[ring_idx].partitions.values() {
            for replica in &partition.replicas {
                replica.store.for_each(&mut |key, record| {
                    if !key.starts_with(prefix) {
                        return;
                    }
                    match merged.get(key) {
                        Some(existing) if record.version <= existing.version => {}
                        _ => {
                            merged.insert(key.clone(), record.clone());
                        }
                    }
                });
            }
        }
        let mut out = Vec::new();
        for (key, record) in merged {
            if let Some(value) = record.value {
                out.push((key, value));
                if limit > 0 && out.len() >= limit {
                    break;
                }
            }
        }
        Ok(out)
    }

    /// Ingests a synthetic object: charges `logical_bytes` against every
    /// replica's server without materializing a payload.
    ///
    /// When a replica's server lacks space, that replica first attempts an
    /// immediate eq.-(3) migration to a server with room (the paper's claim
    /// is that the economy "balances the used storage efficiently and fast
    /// enough so that there are no data losses", §III-E — a write blocked on
    /// a full server is exactly the moment to rebalance). Only if the
    /// rebalance cannot free space does the insert **fail** (the Fig. 5
    /// metric); failures charge no server.
    pub fn ingest_synthetic(
        &mut self,
        app: AppId,
        level: u32,
        key: &[u8],
        logical_bytes: u64,
    ) -> Result<(), CoreError> {
        let ring_idx = self.ring_index(app, level)?;
        let pid = self.rings[ring_idx].ring.route(key);
        let partition = self.rings[ring_idx]
            .partitions
            .get(&pid)
            .ok_or(CoreError::NoPlacement)?;
        if partition.replicas.is_empty() {
            self.insert_failures_epoch += 1;
            return Err(CoreError::Store(StoreError::NoReplicas));
        }
        let blocked: Vec<usize> = partition
            .replicas
            .iter()
            .enumerate()
            .filter(|(_, r)| {
                self.cluster
                    .get_alive(r.server)
                    .is_none_or(|s| s.storage_free() < logical_bytes)
            })
            .map(|(i, _)| i)
            .collect();
        for idx in blocked {
            self.relocate_blocked_replica(ring_idx, pid, idx, logical_bytes);
        }
        let partition = self.rings[ring_idx]
            .partitions
            .get_mut(&pid)
            .ok_or(CoreError::NoPlacement)?;
        let servers = partition.replica_servers();
        let fits = servers.iter().all(|id| {
            self.cluster
                .get_alive(*id)
                .is_some_and(|s| s.storage_free() >= logical_bytes)
        });
        if !fits {
            self.insert_failures_epoch += 1;
            return Err(CoreError::Store(StoreError::CapacityExceeded));
        }
        for id in servers {
            if let Some(s) = self.cluster.get_mut(id) {
                let caps = s.capacities;
                let ok = s.usage.reserve_storage(&caps, logical_bytes);
                debug_assert!(ok, "pre-checked reservation cannot fail");
            }
        }
        partition.synthetic_bytes += logical_bytes;
        partition.write_bytes_epoch += logical_bytes;
        Ok(())
    }

    /// Anti-entropy pass over one ring: detects divergent replica stores
    /// with Merkle summaries (replicas can diverge when a full server
    /// rejects a write) and repairs them by installing the LWW union on
    /// every replica, with exact storage re-accounting.
    ///
    /// The union is built once per divergent partition and distributed to
    /// the divergent replicas: under the mem backend as a copy-on-write
    /// handle (every repaired replica shares one allocation until it next
    /// diverges), under the LSM backend by merging the union's entries
    /// into each replica's durable store. Partitions whose replicas are
    /// already identical (shared allocations, or all Merkle roots equal)
    /// are skipped outright and contribute to no counter; within a
    /// *divergent* partition, replicas that already hold the union are
    /// skipped without a writeback and counted in
    /// [`AntiEntropyReport::replicas_in_sync`]. A replica whose server
    /// cannot absorb the union's extra bytes is left divergent and counted
    /// as deferred (it will be retried after the economy rebalances).
    pub fn anti_entropy(&mut self, app: AppId, level: u32) -> Result<AntiEntropyReport, CoreError> {
        let ring_idx = self.ring_index(app, level)?;
        let hasher = self.rings[ring_idx].ring.hasher();
        let pids = self.rings[ring_idx].ring.partition_ids();
        let mut report = AntiEntropyReport::default();
        for pid in pids {
            let Some(range) = self.rings[ring_idx].ring.range_of(pid) else {
                continue;
            };
            let partition = match self.rings[ring_idx].partitions.get(&pid) {
                Some(p) if p.replicas.len() >= 2 => p,
                _ => continue,
            };
            // Replicas sharing one storage allocation are trivially in
            // sync: skip the Merkle pass entirely. (Mem replicas converge
            // to shared COW allocations; LSM replicas always own their
            // files and converge to equal Merkle roots instead.)
            if partition
                .replicas
                .windows(2)
                .all(|w| w[0].store.shares_storage_with(&w[1].store))
            {
                continue;
            }
            let roots: Vec<u64> = partition
                .replicas
                .iter()
                .map(|r| r.store.merkle_summary(hasher, range, 32).root())
                .collect();
            if roots.windows(2).all(|w| w[0] == w[1]) {
                continue;
            }
            // Build the LWW union of all replica stores, once.
            let union = {
                let mut union = partition.replicas[0].store.snapshot();
                for r in &partition.replicas[1..] {
                    r.store.merge_into(&mut union);
                }
                union
            };
            let union_bytes = union.logical_bytes();
            let union_root = skute_store::MerkleSummary::build(&union, hasher, range, 32).root();
            let union = AntiEntropyUnion::new(self.config.backend, union);
            let mut any_updated = false;
            for (idx, &root) in roots.iter().enumerate() {
                if root == union_root {
                    report.replicas_in_sync += 1;
                    continue;
                }
                let (server, old_bytes) = {
                    let r = &self.rings[ring_idx].partitions[&pid].replicas[idx];
                    (r.server, r.store.logical_bytes())
                };
                let ok = if union_bytes >= old_bytes {
                    self.cluster
                        .get_mut(server)
                        .map(|s| {
                            let caps = s.capacities;
                            s.usage.reserve_storage(&caps, union_bytes - old_bytes)
                        })
                        .unwrap_or(false)
                } else {
                    if let Some(s) = self.cluster.get_mut(server) {
                        s.usage.release_storage(old_bytes - union_bytes);
                    }
                    true
                };
                if ok {
                    let p = self.rings[ring_idx].partitions.get_mut(&pid).unwrap();
                    p.replicas[idx].store.install_union(&union);
                    report.replicas_updated += 1;
                    any_updated = true;
                } else {
                    report.replicas_deferred += 1;
                }
            }
            if any_updated {
                report.partitions_repaired += 1;
            }
        }
        Ok(report)
    }

    /// Storage scrub over one ring: verifies every replica store's on-disk
    /// checksums (a real re-read of every SSTable run under the LSM
    /// backend; the mem oracle is trivially healthy), quarantines replicas
    /// whose corruption survived the store's bounded read retries, and
    /// re-seeds each quarantined replica from the LWW union of its
    /// partition's **healthy** peers — a fresh store built through the
    /// same union installation the anti-entropy pass uses, with exact
    /// storage re-accounting. Rebuild copies are priced in **measured**
    /// bytes ([`ActionCounts::scrub_rebuilds`] /
    /// [`ActionCounts::measured_scrub_bytes`], observability-only —
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
            let healthy: Vec<usize> = (0..partition.replicas.len())
                .filter(|i| !suspects.contains(i))
                .collect();
            let Some((&first, rest)) = healthy.split_first() else {
                report.partitions_unrecoverable += 1;
                continue;
            };
            // LWW union of the healthy peers only — the corrupt stores
            // contribute nothing to the rebuild.
            let union = {
                let mut union = partition.replicas[first].store.snapshot();
                for &i in rest {
                    partition.replicas[i].store.merge_into(&mut union);
                }
                union
            };
            let union_bytes = union.logical_bytes();
            let union = AntiEntropyUnion::new(self.config.backend, union);
            for idx in suspects {
                let (server, old_bytes) = {
                    let r = &self.rings[ring_idx].partitions[&pid].replicas[idx];
                    (r.server, r.store.logical_bytes())
                };
                let ok = if union_bytes >= old_bytes {
                    self.cluster
                        .get_mut(server)
                        .map(|s| {
                            let caps = s.capacities;
                            s.usage.reserve_storage(&caps, union_bytes - old_bytes)
                        })
                        .unwrap_or(false)
                } else {
                    if let Some(s) = self.cluster.get_mut(server) {
                        s.usage.release_storage(old_bytes - union_bytes);
                    }
                    true
                };
                if !ok {
                    report.replicas_deferred += 1;
                    continue;
                }
                let mut fresh =
                    ReplicaStore::open_with(self.config.backend, self.config.fault_plan);
                fresh.install_union(&union);
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

    /// Emergency rebalance: replica `idx` of a partition sits on a server
    /// that cannot absorb `incoming` more bytes; migrate it (eq. 3, no rent
    /// cap — space beats price here) to a server that fits the partition
    /// plus the incoming write. Best-effort: bandwidth limits still apply.
    fn relocate_blocked_replica(
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
        let target = {
            let ctx = PlacementContext {
                cluster: &self.cluster,
                board: &self.board,
                topology: &self.topology,
                economy: &self.config.economy,
            };
            let PartitionState {
                region_queries,
                prox_cache,
                ..
            } = &mut *partition;
            select_target(
                &mut self.index,
                self.oracle == DecisionOracle::BruteForce,
                &ctx,
                &self.servers_scratch,
                size.saturating_add(incoming),
                region_queries,
                prox_cache,
                None,
            )
        };
        if let Some((target, _)) = target {
            let window = self.config.economy.decision_window;
            let epoch = self.epoch;
            let vid = VnodeId(self.next_vnode);
            let partition = self.rings[ring_idx].partitions.get_mut(&pid).unwrap();
            let source = partition.replicas[idx].server;
            if let Some(t) = exec_migration(&mut self.cluster, partition, idx, target) {
                self.epoch_actions.migrations += 1;
                self.epoch_actions.migrated_bytes += t.logical;
                self.epoch_actions.measured_migrated_bytes += t.measured;
                self.note_index(&[source, target]);
                return;
            }
            // Migration budget exhausted: fall back to the (3× larger)
            // replication budget — copy the replica to the target, then
            // drop the blocked copy.
            if let Some(t) =
                exec_replication(&mut self.cluster, partition, target, vid, window, epoch)
            {
                self.next_vnode += 1;
                exec_suicide(&mut self.cluster, partition, idx);
                self.epoch_actions.migrations += 1;
                self.epoch_actions.migrated_bytes += t.logical;
                self.epoch_actions.measured_migrated_bytes += t.measured;
                self.note_index(&[source, target]);
            }
        }
    }

    fn next_version(&mut self) -> Version {
        self.write_seq += 1;
        Version::new(self.epoch, self.write_seq, 0)
    }

    fn write_record(
        &mut self,
        app: AppId,
        level: u32,
        key: &[u8],
        record: Record,
    ) -> Result<(), CoreError> {
        let ring_idx = self.ring_index(app, level)?;
        let pid = self.rings[ring_idx].ring.route(key);
        let quorum = self.rings[ring_idx].level.quorum;
        let ring = &mut self.rings[ring_idx];
        let partition = ring
            .partitions
            .get_mut(&pid)
            .ok_or(CoreError::NoPlacement)?;
        if partition.replicas.is_empty() {
            self.insert_failures_epoch += 1;
            return Err(CoreError::Store(StoreError::NoReplicas));
        }
        let new_entry = key.len() as u64 + record.logical_size;
        let key = Bytes::copy_from_slice(key);
        let mut acks = 0usize;
        for replica in partition.replicas.iter_mut() {
            let Some(server) = self.cluster.get_mut(replica.server) else {
                continue;
            };
            if !server.is_alive() {
                continue;
            }
            // Gray-degraded replicas ack no writes: read-only and
            // individually partitioned servers, and anything behind the
            // continental cut, silently miss the update and stay
            // divergent until read-repair or a scrub converges them. The
            // quorum ack check below still guarantees `w = ⌊k/2⌋ + 1`
            // healthy acks or a client-visible error — acknowledged
            // writes are never lost to gray servers.
            let gray_blocked = match self.gray_modes.get(replica.server.0 as usize) {
                Some(GrayMode::ReadOnly | GrayMode::Partitioned) => true,
                _ => self
                    .partition_cut
                    .is_some_and(|cut| server.location.continent == cut),
            };
            if gray_blocked {
                continue;
            }
            // One store lookup per replica: the store gates on version,
            // then hands the displaced size to the capacity meter, which
            // may veto before anything is logged. A replica already
            // holding a dominating version acks — it has the write's
            // outcome — and only a capacity veto withholds the ack.
            let outcome = replica.store.apply_gated(
                key.clone(),
                record.clone(),
                charge_entry(server, new_entry),
            );
            if outcome != ApplyOutcome::Vetoed {
                acks += 1;
            }
        }
        partition.write_bytes_epoch += record.logical_size;
        let w_eff = quorum.w.min(partition.replicas.len());
        if acks < w_eff {
            self.insert_failures_epoch += 1;
            return Err(CoreError::Store(StoreError::CapacityExceeded));
        }
        Ok(())
    }

    // ------------------------------------------------------------------
    // Query traffic
    // ------------------------------------------------------------------

    /// Delivers an epoch's query traffic to one ring: `total_queries` are
    /// spread over partitions proportionally to their popularity, arrive
    /// from `regions` (normalized weights), and are answered by replicas
    /// proportionally to their client proximity `g`, spilling over when a
    /// server's query capacity saturates. Replica utility accrues per
    /// eq. (5).
    ///
    /// Equivalent to a one-element [`SkuteCloud::deliver_queries_multi`]
    /// call; batching every ring's traffic into one `multi` call runs all
    /// plan passes in a single pool dispatch.
    pub fn deliver_queries(
        &mut self,
        app: AppId,
        level: u32,
        total_queries: f64,
        regions: &[RegionWeight],
    ) -> Result<(), CoreError> {
        self.deliver_queries_multi(vec![TrafficBatch {
            app,
            level,
            queries: total_queries,
            regions: regions.to_vec(),
        }])
    }

    /// Delivers one epoch's query traffic to several rings at once,
    /// batching every ring's delivery **plan** pass into a single
    /// dispatch on the persistent worker pool, then committing
    /// sequentially: the rings in batch order, each ring's partitions in
    /// ring order, every partition served against the live per-server
    /// query-capacity meters. Delivery plans read no capacity meters, so
    /// the trajectory is **bitwise identical** to per-ring
    /// [`SkuteCloud::deliver_queries`] calls.
    ///
    /// Batches are processed in order; batches addressing the same ring
    /// observe each other's committed traffic exactly like consecutive
    /// [`SkuteCloud::deliver_queries`] calls. A batch naming an unknown
    /// app or level fails the whole call before any traffic lands.
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

    /// Plans and commits one wave of distinct-ring traffic batches. An
    /// inline (`threads = 1`) pipeline plans in place over borrowed
    /// partitions — no map rebuilds, no context round trip; both routes
    /// are bitwise identical (asserted by the thread-matrix tests).
    fn deliver_wave(&mut self, wave: Vec<(usize, TrafficBatch)>) {
        let gamma = self.config.economy.utility_per_query;
        let plan_start = self.obs_start();
        if self.pipeline.threads() == 1 {
            // Single-thread fast path: identical per-partition arithmetic,
            // run in place.
            let mut ring_indices: Vec<usize> = Vec::with_capacity(wave.len());
            for (ri, b) in wave {
                if b.queries <= 0.0 {
                    continue;
                }
                let total_pop: f64 = self.rings[ri]
                    .partitions
                    .values()
                    .map(|p| p.popularity)
                    .sum();
                if total_pop <= 0.0 {
                    continue;
                }
                let Self {
                    rings,
                    cluster,
                    topology,
                    ..
                } = self;
                for part in rings[ri].partitions.values_mut() {
                    crate::pipeline::plan_one_delivery(
                        part, cluster, topology, &b.regions, b.queries, total_pop,
                    );
                }
                ring_indices.push(ri);
            }
            self.obs_phase(plan_start, |m| &m.phase_traffic_plan);
            let commit_start = self.obs_start();
            for ri in ring_indices {
                self.commit_ring_traffic(ri, gamma);
            }
            self.obs_phase(commit_start, |m| &m.phase_traffic_commit);
            return;
        }
        let mut batches: Vec<DeliveryBatch> = Vec::with_capacity(wave.len());
        for (ri, b) in wave {
            if b.queries <= 0.0 {
                continue;
            }
            let total_pop: f64 = self.rings[ri]
                .partitions
                .values()
                .map(|p| p.popularity)
                .sum();
            if total_pop <= 0.0 {
                continue;
            }
            // Move the ring's partitions out for the owned-task dispatch;
            // they come back in the same ascending order.
            let parts: Vec<(PartitionId, PartitionState)> =
                std::mem::take(&mut self.rings[ri].partitions)
                    .into_iter()
                    .collect();
            batches.push(DeliveryBatch {
                ring_idx: ri,
                total_queries: b.queries,
                total_pop,
                regions: b.regions,
                parts,
            });
        }
        if batches.is_empty() {
            return;
        }
        // Plan pass: one pool dispatch across every ring of the wave.
        let cluster = std::mem::take(&mut self.cluster);
        let (cluster, batches) =
            self.pipeline
                .plan_delivery_multi(cluster, Arc::clone(&self.topology), batches);
        self.cluster = cluster;
        let ring_indices: Vec<usize> = batches.iter().map(|b| b.ring_idx).collect();
        for batch in batches {
            let ri = batch.ring_idx;
            self.rings[ri].partitions = batch.parts.into_iter().collect();
        }
        self.obs_phase(plan_start, |m| &m.phase_traffic_plan);
        let commit_start = self.obs_start();
        for ri in ring_indices {
            self.commit_ring_traffic(ri, gamma);
        }
        self.obs_phase(commit_start, |m| &m.phase_traffic_commit);
    }

    /// The traffic commit of one ring: every addressed partition, in ring
    /// order, served against the live capacity meters.
    fn commit_ring_traffic(&mut self, ring_idx: usize, gamma: f64) {
        let pids: Vec<PartitionId> = self.rings[ring_idx].ring.partition_ids();
        for pid in pids {
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
            let (served_total, remaining, distance_sum) =
                Self::commit_partition_sequential(&mut self.cluster, partition, gamma);
            let ring = &mut self.rings[ring_idx];
            ring.queries_offered_epoch += q;
            ring.queries_served_epoch += served_total;
            ring.queries_dropped_epoch += remaining.max(0.0);
            ring.distance_sum_epoch += distance_sum;
        }
    }

    /// The per-partition traffic commit: the proximity-proportional pass
    /// capped by live capacity, the spill pass, and the drop recording.
    /// Returns the partition's `(served, remaining, distance_sum)`
    /// contributions to the ring totals.
    fn commit_partition_sequential(
        cluster: &mut Cluster,
        partition: &mut PartitionState,
        gamma: f64,
    ) -> (f64, f64, f64) {
        let PartitionState {
            replicas, delivery, ..
        } = &mut *partition;
        let q = delivery.q;
        let sum_g = delivery.sum_g;
        let gs = &delivery.gs;
        let dists = &delivery.dists;
        let order = &delivery.order;
        let mut distance_sum = 0.0;
        // Pass 1: proximity-proportional shares, capped by capacity.
        let mut remaining = q;
        let mut served_total = 0.0;
        for &i in order.iter() {
            let want = q * gs[i] / sum_g;
            let served = Self::serve_on(cluster, replicas[i].server, want.min(remaining));
            replicas[i].queries_epoch += served;
            replicas[i].utility_epoch += gamma * served * gs[i];
            distance_sum += served * dists[i];
            remaining -= served;
            served_total += served;
        }
        // Pass 2: spill the remainder to whoever still has capacity,
        // closest replicas first.
        if remaining > 1e-9 {
            for &i in order.iter() {
                if remaining <= 1e-9 {
                    break;
                }
                let served = Self::serve_on(cluster, replicas[i].server, remaining);
                replicas[i].queries_epoch += served;
                replicas[i].utility_epoch += gamma * served * gs[i];
                distance_sum += served * dists[i];
                remaining -= served;
                served_total += served;
            }
        }
        if remaining > 1e-9 {
            // Genuinely dropped: record on the closest replica's server.
            if let Some(&best) = order.first() {
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

    // ------------------------------------------------------------------
    // End of epoch: the decision process
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

    /// Applies the targeted read-repairs quorum reads scheduled since the
    /// last epoch close: for every queued key, installs the
    /// partition-wide LWW winner on each stale replica with exact storage
    /// re-accounting. The queue is sorted and deduplicated first, so the
    /// repair order is a pure function of its contents regardless of how
    /// concurrent serving threads interleaved their enqueues. A replica
    /// whose server cannot absorb the winner's extra bytes is skipped
    /// (anti-entropy and the scheduled scrub retry it later). Simulation
    /// trajectories never enter here — only `client_get_with` enqueues —
    /// so determinism byte-compares are untouched.
    fn drain_read_repairs(&mut self) {
        let mut queued = {
            let mut q = self
                .repair_queue
                .lock()
                .expect("read-repair queue poisoned");
            std::mem::take(&mut *q)
        };
        if queued.is_empty() {
            return;
        }
        queued.sort();
        queued.dedup();
        let mut applied = 0u64;
        for (ring_idx, key) in queued {
            if ring_idx >= self.rings.len() {
                continue;
            }
            let pid = self.rings[ring_idx].ring.route(&key);
            let Some(partition) = self.rings[ring_idx].partitions.get_mut(&pid) else {
                continue;
            };
            let Some(winner) =
                Record::merge_all(partition.replicas.iter().filter_map(|r| r.store.get(&key)))
            else {
                continue;
            };
            let new_entry = key.len() as u64 + winner.logical_size;
            for replica in partition.replicas.iter_mut() {
                let Some(server) = self
                    .cluster
                    .get_mut(replica.server)
                    .filter(|s| s.is_alive())
                else {
                    continue;
                };
                // The store's version gate picks out the stale replicas.
                let outcome = replica.store.apply_gated(
                    key.clone(),
                    winner.clone(),
                    charge_entry(server, new_entry),
                );
                if outcome == ApplyOutcome::Applied {
                    applied += 1;
                }
            }
        }
        if let Some(m) = &self.metrics {
            m.read_repairs_applied.add(applied);
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

    /// Availability pass: every partition below its SLA threshold replicates
    /// towards the eq.-(3) optimal server, limited by bandwidth, storage and
    /// the per-epoch repair cap.
    ///
    /// A parallel pre-pass warms every partition's memoized eq.-(2)
    /// availability, so the sequential shuffled scan below reads cached
    /// floats and only partitions genuinely below threshold do placement
    /// work. Repairs invalidate their partition's cache (membership
    /// changed), so follow-up iterations re-evaluate.
    fn repair_availability(&mut self, actions: &mut ActionCounts) {
        let window = self.config.economy.decision_window;
        let max_repairs = self.config.max_repairs_per_partition_per_epoch;
        let max_replicas = self.config.economy.max_replicas;
        if self.pipeline.threads() == 1 {
            // Single-thread fast path: warm the cache in place.
            let Self { rings, cluster, .. } = self;
            for ring in rings.iter_mut() {
                for part in ring.partitions.values_mut() {
                    if part.cached_availability.is_none() {
                        let _ = cached_availability(cluster, part);
                    }
                }
            }
        } else {
            // Move the cache-miss partitions out for the owned-task warm
            // dispatch; the converged steady state has no misses and skips
            // the dispatch entirely.
            let mut misses: Vec<(usize, PartitionId, PartitionState)> = Vec::new();
            for (ri, ring) in self.rings.iter_mut().enumerate() {
                let ids: Vec<PartitionId> = ring
                    .partitions
                    .iter()
                    .filter(|(_, p)| p.cached_availability.is_none())
                    .map(|(pid, _)| *pid)
                    .collect();
                for pid in ids {
                    let part = ring.partitions.remove(&pid).expect("listed above");
                    misses.push((ri, pid, part));
                }
            }
            if !misses.is_empty() {
                let cluster = std::mem::take(&mut self.cluster);
                let (cluster, warmed) = self.pipeline.warm_availability(cluster, misses);
                self.cluster = cluster;
                for (ri, pid, part) in warmed {
                    self.rings[ri].partitions.insert(pid, part);
                }
            }
        }
        // Commit pass: sequential, seeded shuffle order.
        for ri in 0..self.rings.len() {
            let threshold = self.rings[ri].level.threshold;
            let mut pids = self.rings[ri].ring.partition_ids();
            pids.shuffle(&mut self.rng);
            for pid in pids {
                for _ in 0..max_repairs {
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
                    let target = {
                        let ctx = PlacementContext {
                            cluster: &self.cluster,
                            board: &self.board,
                            topology: &self.topology,
                            economy: &self.config.economy,
                        };
                        let PartitionState {
                            region_queries,
                            prox_cache,
                            ..
                        } = &mut *partition;
                        select_target(
                            &mut self.index,
                            self.oracle == DecisionOracle::BruteForce,
                            &ctx,
                            &self.servers_scratch,
                            size,
                            region_queries,
                            prox_cache,
                            None,
                        )
                    };
                    let Some((target, _)) = target else {
                        actions.blocked_transfers += 1;
                        break;
                    };
                    let vid = VnodeId(self.next_vnode);
                    if let Some(t) = exec_replication(
                        &mut self.cluster,
                        partition,
                        target,
                        vid,
                        window,
                        self.epoch,
                    ) {
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
    }

    /// Economic pass: every vnode records its balance and acts on f-epoch
    /// streaks (suicide / migrate / profit-replicate).
    ///
    /// Structured as a pipeline phase. The parallel **plan** pass touches
    /// only partition-local state — it records balances, evaluates each
    /// vnode's [`VnodeSituation`] against the phase-start membership, and
    /// runs speculative eq.-(3) target queries through the index's
    /// read-only snapshot view, each walk recording its read set. The
    /// sequential **commit** pass then walks the seeded shuffle order:
    /// rent/utility totals accumulate from the precomputed per-vnode
    /// values (same floats, same order as the old in-loop accumulation),
    /// situations are re-evaluated live only for partitions whose
    /// membership an earlier committed action changed, and speculative
    /// targets are **validated, not discarded**: every executed action
    /// records the servers it touched, and a later speculation is honored
    /// whenever `validate_speculation` proves those touches cannot have
    /// changed its answer (the board is never written mid-pass, so its
    /// frozen version covers every walk's price reads). Only genuine
    /// read/write overlap — the winner itself touched, a touched
    /// candidate re-scoring past the winner, or this partition's own
    /// membership changing — re-walks the live state, exactly as the
    /// sequential loop would; `actions.spec_hits`/`spec_misses` count the
    /// two outcomes, and [`DecisionOracle::Rewalk`] routes everything
    /// through the re-walk path as the oracle.
    fn economic_decisions(
        &mut self,
        actions: &mut ActionCounts,
        rent_paid: &mut f64,
        utility_earned: &mut f64,
    ) {
        let economy = self.config.economy;
        let window = economy.decision_window;
        let brute_force = self.oracle == DecisionOracle::BruteForce;
        let speculation = self.oracle != DecisionOracle::Rewalk;
        let min_rent = self.board.min_price();
        // Snapshot vnode identities into the reusable work list; replicas
        // mutate as we act. The slot indexes the pipeline's precomputation
        // buffer (flat enumeration order, which the plan pass replays).
        let mut work = std::mem::take(&mut self.work_scratch);
        work.clear();
        let mut slots = 0usize;
        for (ri, ring) in self.rings.iter().enumerate() {
            for (pid, p) in &ring.partitions {
                for r in &p.replicas {
                    work.push((ri, *pid, r.id, slots));
                    slots += 1;
                }
            }
        }
        work.shuffle(&mut self.rng);
        // Plan pass (parallel): refresh the index snapshot at the barrier,
        // freeze the version pair, fan the per-vnode precomputation out.
        if !brute_force {
            let ctx = PlacementContext {
                cluster: &self.cluster,
                board: &self.board,
                topology: &self.topology,
                economy: &self.config.economy,
            };
            self.index.refresh(&ctx);
        }
        let frozen = (self.cluster.version(), self.board.version());
        if self.pipeline.threads() == 1 {
            // Single-thread fast path: identical per-vnode arithmetic, run
            // in place over borrowed partitions in the same flat order.
            let Self {
                rings,
                cluster,
                board,
                topology,
                config,
                index,
                pipeline,
                ..
            } = self;
            let inputs = crate::pipeline::DecisionInputs {
                cluster,
                board,
                topology,
                economy: &config.economy,
                index,
                brute_force,
                speculation,
                min_rent,
            };
            pipeline.decisions_prepass_inline(
                rings.iter_mut().flat_map(|ring| {
                    let threshold = ring.level.threshold;
                    ring.partitions.values_mut().map(move |p| (threshold, p))
                }),
                &inputs,
            );
        } else {
            // Move every partition (and the shared decision inputs) into
            // the owned-task prepass dispatch; everything comes back at
            // the barrier, partitions in flat (ring, partition) order —
            // the same enumeration the slot indices were assigned in.
            let mut items: Vec<DecisionItem> = Vec::new();
            for (ri, ring) in self.rings.iter_mut().enumerate() {
                let threshold = ring.level.threshold;
                for (pid, part) in std::mem::take(&mut ring.partitions) {
                    items.push(DecisionItem {
                        ring_idx: ri,
                        threshold,
                        pid,
                        part,
                    });
                }
            }
            let (cluster, board, index, items) = self.pipeline.decisions_prepass(
                std::mem::take(&mut self.cluster),
                std::mem::take(&mut self.board),
                Arc::clone(&self.topology),
                self.config.economy,
                std::mem::take(&mut self.index),
                brute_force,
                speculation,
                min_rent,
                items,
            );
            self.cluster = cluster;
            self.board = board;
            self.index = index;
            for item in items {
                self.rings[item.ring_idx]
                    .partitions
                    .insert(item.pid, item.part);
            }
        }
        debug_assert_eq!(self.pipeline.pre.len(), slots, "one slot per vnode");
        // Commit pass (sequential, seeded shuffle order, one action at a
        // time). Every executed action records its touched servers (the
        // pass's write set); later speculations are honored as long as
        // read-set validation proves the touches cannot have changed
        // their answer, and re-walk on the live state only on genuine
        // read/write overlap.
        self.spec_touched.clear();
        for &(ri, pid, vid, slot) in &work {
            let threshold = self.rings[ri].level.threshold;
            // The vnode may have been split away or suicided already.
            let Some(partition) = self.rings[ri].partitions.get_mut(&pid) else {
                continue;
            };
            let Some(idx) = partition.replicas.iter().position(|r| r.id == vid) else {
                continue;
            };
            let server = partition.replicas[idx].server;
            let pre = self.pipeline.pre[slot];
            if pre.skip {
                continue; // server vanished mid-epoch; replica was removed
            }
            *rent_paid += pre.rent;
            *utility_earned += pre.u_eff;
            let (availability_without_self, replica_count) =
                if partition.membership_version == pre.membership_version {
                    (pre.availability_without_self, pre.replica_count)
                } else {
                    // An earlier committed action changed this partition:
                    // re-evaluate against the live membership, exactly as
                    // the sequential loop always did.
                    self.placed_scratch.clear();
                    for (i, r) in partition.replicas.iter().enumerate() {
                        if i == idx {
                            continue;
                        }
                        if let Some(s) = self.cluster.get(r.server) {
                            self.placed_scratch.push((s.location, s.confidence));
                        }
                    }
                    (
                        availability_of(&self.placed_scratch),
                        partition.replicas.len(),
                    )
                };
            let situation = VnodeSituation {
                negative_streak: pre.negative_streak,
                positive_streak: pre.positive_streak,
                window_mean: pre.window_mean,
                availability_without_self,
                threshold,
                replica_count,
                max_replicas: economy.max_replicas,
                current_rent: pre.rent,
                projected_replica_cost: min_rent.unwrap_or(0.0) + pre.consistency_cost,
                hurdle: economy.replication_hurdle,
            };
            // A speculation is eligible at all only while the board still
            // holds its frozen prices (the pass never writes the board)
            // and this partition's membership — the speculation's
            // `existing` set and size — is untouched. Touched-server
            // validation then decides whether it is provably still the
            // fresh-walk answer.
            let spec_live = pre.spec_computed
                && self.board.version() == frozen.1
                && partition.membership_version == pre.membership_version;
            let resolved = match classify(&situation) {
                Intent::Stay => Resolved::Stay,
                Intent::Suicide => Resolved::Suicide { idx },
                Intent::Migrate => {
                    let mut honored = spec_live && self.spec_touched.is_empty();
                    let target = if honored {
                        pre.spec
                    } else {
                        self.servers_scratch.clear();
                        for (i, r) in partition.replicas.iter().enumerate() {
                            if i != idx {
                                self.servers_scratch.push(r.server);
                            }
                        }
                        let size = partition.synthetic_bytes
                            + partition.replicas[idx].store.logical_bytes();
                        // Hysteresis: only servers meaningfully cheaper than
                        // the current one are worth the transfer.
                        let rent_cap = pre.rent * (1.0 - economy.migration_margin);
                        let ctx = PlacementContext {
                            cluster: &self.cluster,
                            board: &self.board,
                            topology: &self.topology,
                            economy: &self.config.economy,
                        };
                        let PartitionState {
                            region_queries,
                            prox_cache,
                            ..
                        } = &mut *partition;
                        let (target, h) = resolve_spec_target(
                            &mut self.index,
                            brute_force,
                            &ctx,
                            &self.servers_scratch,
                            size,
                            region_queries,
                            prox_cache,
                            Some(rent_cap),
                            spec_live,
                            &pre,
                            spec_reads(&self.pipeline, &pre),
                            &mut self.spec_touched,
                            &mut self.spec_locs,
                        );
                        honored = h;
                        target
                    };
                    if pre.spec_computed {
                        if honored {
                            actions.spec_hits += 1;
                        } else {
                            actions.spec_misses += 1;
                        }
                    }
                    match target {
                        Some((target, _)) if target != server => Resolved::Migrate { idx, target },
                        _ => Resolved::Stay,
                    }
                }
                Intent::ReplicateForProfit => {
                    let mut honored = spec_live && self.spec_touched.is_empty();
                    let target = if honored {
                        pre.spec
                    } else {
                        self.servers_scratch.clear();
                        self.servers_scratch
                            .extend(partition.replicas.iter().map(|r| r.server));
                        let size = partition.size_bytes();
                        let ctx = PlacementContext {
                            cluster: &self.cluster,
                            board: &self.board,
                            topology: &self.topology,
                            economy: &self.config.economy,
                        };
                        let PartitionState {
                            region_queries,
                            prox_cache,
                            ..
                        } = &mut *partition;
                        let (target, h) = resolve_spec_target(
                            &mut self.index,
                            brute_force,
                            &ctx,
                            &self.servers_scratch,
                            size,
                            region_queries,
                            prox_cache,
                            None,
                            spec_live,
                            &pre,
                            spec_reads(&self.pipeline, &pre),
                            &mut self.spec_touched,
                            &mut self.spec_locs,
                        );
                        honored = h;
                        target
                    };
                    if pre.spec_computed {
                        if honored {
                            actions.spec_hits += 1;
                        } else {
                            actions.spec_misses += 1;
                        }
                    }
                    match target {
                        Some((target, _)) => {
                            // Re-verify the hurdle with the actual candidate
                            // rent.
                            let actual_rent = self.board.price_of(target).unwrap_or(f64::MAX);
                            let actual = VnodeSituation {
                                projected_replica_cost: actual_rent + pre.consistency_cost,
                                ..situation
                            };
                            if clears_profit_hurdle(&actual) {
                                Resolved::Replicate { target }
                            } else {
                                Resolved::Stay
                            }
                        }
                        None => Resolved::Stay,
                    }
                }
            };
            match resolved {
                Resolved::Stay => {}
                Resolved::Suicide { idx } => {
                    exec_suicide(&mut self.cluster, partition, idx);
                    actions.suicides += 1;
                    self.note_index(&[server]);
                    self.spec_touched.record(server, false);
                }
                Resolved::Migrate { idx, target } => {
                    if let Some(t) = exec_migration(&mut self.cluster, partition, idx, target) {
                        actions.migrations += 1;
                        actions.migrated_bytes += t.logical;
                        actions.measured_migrated_bytes += t.measured;
                        self.note_index(&[server, target]);
                        self.spec_touched.record(server, false);
                        self.spec_touched.record(target, true);
                    }
                }
                Resolved::Replicate { target } => {
                    let vid = VnodeId(self.next_vnode);
                    if let Some(t) = exec_replication(
                        &mut self.cluster,
                        partition,
                        target,
                        vid,
                        window,
                        self.epoch,
                    ) {
                        self.next_vnode += 1;
                        actions.profit_replications += 1;
                        actions.replicated_bytes += t.logical;
                        actions.measured_replicated_bytes += t.measured;
                        self.note_index(&[target]);
                        self.spec_touched.record(target, true);
                    } else {
                        actions.blocked_transfers += 1;
                    }
                }
            }
        }
        self.work_scratch = work;
    }

    /// Splits every partition above the 256 MB capacity into two fresh
    /// partitions with the same replica placement.
    fn split_overflowing(&mut self, actions: &mut ActionCounts) {
        let threshold = self.config.split_threshold_bytes;
        let window = self.config.economy.decision_window;
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
                let mut low_state = PartitionState::new(low.id, parent.popularity / 2.0);
                let mut high_state = PartitionState::new(high.id, parent.popularity / 2.0);
                low_state.synthetic_bytes = parent.synthetic_bytes / 2;
                high_state.synthetic_bytes = parent.synthetic_bytes - low_state.synthetic_bytes;
                for replica in parent.replicas {
                    let mut low_store = replica.store;
                    let high_store = low_store.split_off(hasher, high.range);
                    let mut low_replica =
                        Replica::new(VnodeId(self.next_vnode), replica.server, window, self.epoch);
                    self.next_vnode += 1;
                    low_replica.store = low_store;
                    low_state.replicas.push(low_replica);
                    let mut high_replica =
                        Replica::new(VnodeId(self.next_vnode), replica.server, window, self.epoch);
                    self.next_vnode += 1;
                    high_replica.store = high_store;
                    high_state.replicas.push(high_replica);
                }
                self.rings[ri].partitions.insert(low.id, low_state);
                self.rings[ri].partitions.insert(high.id, high_state);
                actions.splits += 1;
            }
        }
    }

    /// Assembles the epoch report. Per-ring statistics run as a parallel
    /// plan pass per ring — availability via the membership-keyed cache,
    /// per-server loads and vnode counts through sharded accumulators
    /// merged in deterministic (partition, server) order — feeding reused
    /// sorted accumulators instead of per-epoch hash maps.
    fn report(
        &mut self,
        actions: ActionCounts,
        rent_paid: f64,
        utility_earned: f64,
    ) -> EpochReport {
        let alive_servers = self.cluster.alive_count();
        let mut rings = Vec::with_capacity(self.rings.len());
        self.pipeline.begin_report();
        for ri in 0..self.rings.len() {
            let threshold = self.rings[ri].level.threshold;
            let stats = if self.pipeline.threads() == 1 {
                // Single-thread fast path: identical accounting in place.
                let Self {
                    rings,
                    cluster,
                    pipeline,
                    ..
                } = self;
                pipeline.ring_stats_inline(cluster, rings[ri].partitions.values_mut(), threshold)
            } else {
                let parts: Vec<(PartitionId, PartitionState)> =
                    std::mem::take(&mut self.rings[ri].partitions)
                        .into_iter()
                        .collect();
                let cluster = std::mem::take(&mut self.cluster);
                let (cluster, parts, stats) = self.pipeline.ring_stats(cluster, parts, threshold);
                self.cluster = cluster;
                self.rings[ri].partitions = parts.into_iter().collect();
                stats
            };
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

    // ------------------------------------------------------------------
    // Internal helpers
    // ------------------------------------------------------------------

    fn ring_index(&self, app: AppId, level: u32) -> Result<usize, CoreError> {
        if app.0 as usize >= self.apps.len() {
            return Err(CoreError::UnknownApp);
        }
        let id = RingId::new(app.0, level);
        self.rings
            .iter()
            .position(|r| r.id == id)
            .ok_or(CoreError::UnknownLevel)
    }

    /// Tells the placement index exactly which servers the action just
    /// executed has touched. The invalidation is queued and applied at the
    /// next index read (the next query of the commit pass, or the refresh
    /// at the next phase barrier), where it repositions those entries
    /// instead of rebuilding the whole snapshot.
    fn note_index(&mut self, ids: &[ServerId]) {
        self.index.queue_servers_changed(ids);
    }

    fn alloc_vnode(&mut self) -> VnodeId {
        let id = VnodeId(self.next_vnode);
        self.next_vnode += 1;
        id
    }

    /// A random alive server with at least `bytes` free, preferring a
    /// handful of random probes before falling back to the emptiest server.
    fn seed_server(&mut self, bytes: u64) -> Result<ServerId, CoreError> {
        let alive = self.cluster.alive_ids();
        if alive.is_empty() {
            return Err(CoreError::EmptyCluster);
        }
        for _ in 0..16 {
            let id = alive[self.rng.gen_range(0..alive.len())];
            let fits = self
                .cluster
                .get_mut(id)
                .map(|s| {
                    let caps = s.capacities;
                    s.usage.reserve_storage(&caps, bytes)
                })
                .unwrap_or(false);
            if fits {
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
        let ok = self
            .cluster
            .get_mut(best)
            .map(|s| {
                let caps = s.capacities;
                s.usage.reserve_storage(&caps, bytes)
            })
            .unwrap_or(false);
        if ok {
            Ok(best)
        } else {
            Err(CoreError::NoPlacement)
        }
    }
}

/// The admission gate of a replica write: charges `server`'s storage meter
/// for an entry of `new_entry` logical bytes replacing one of `displaced`
/// bytes (`None` for a fresh key). A shrinking update always fits and
/// releases the difference; a growing one is vetoed when the server is
/// full.
fn charge_entry(server: &mut Server, new_entry: u64) -> impl FnOnce(Option<u64>) -> bool + '_ {
    move |displaced| {
        let old = displaced.unwrap_or(0);
        if new_entry <= old {
            server.usage.release_storage(old - new_entry);
            true
        } else {
            let caps = server.capacities;
            server.usage.reserve_storage(&caps, new_entry - old)
        }
    }
}

/// Resolves one acting vnode's eq.-(3) target at commit time: honor the
/// speculation when read-set validation proves the committed actions'
/// write set cannot have changed its answer, else re-walk the live
/// state. Returns the target and whether the speculation was honored.
/// One call site per intent arm, so the validation sequence cannot
/// drift between migrations and profit replications.
#[allow(clippy::too_many_arguments)]
fn resolve_spec_target(
    index: &mut PlacementIndex,
    brute_force: bool,
    ctx: &PlacementContext<'_>,
    existing: &[ServerId],
    partition_size: u64,
    region_queries: &[RegionQueries],
    prox: &mut ProximityCache,
    rent_below: Option<f64>,
    spec_live: bool,
    pre: &PreDecision,
    reads: &[ServerId],
    writes: &mut SpecWriteSet,
    locs: &mut Vec<Location>,
) -> (Option<(ServerId, f64)>, bool) {
    if spec_live
        && validate_speculation(
            ctx,
            existing,
            partition_size,
            region_queries,
            rent_below,
            prox,
            pre.spec,
            writes,
            reads,
            pre.spec_reads_all,
            locs,
        )
    {
        (pre.spec, true)
    } else {
        let target = select_target(
            index,
            brute_force,
            ctx,
            existing,
            partition_size,
            region_queries,
            prox,
            rent_below,
        );
        (target, false)
    }
}

/// The read set of one slot's speculative walk, sliced out of the
/// pipeline's flat arena.
fn spec_reads<'a>(pipeline: &'a EpochPipeline, pre: &PreDecision) -> &'a [ServerId] {
    let start = pre.spec_reads_start as usize;
    &pipeline.spec_reads[start..start + pre.spec_reads_len as usize]
}

/// Routes one eq.-(3) target selection through the rent-sorted index or
/// the brute-force scan ([`DecisionOracle::BruteForce`]). The two are
/// bit-for-bit equivalent (property-tested in `placement`); the scan exists
/// for the equivalence tests.
#[allow(clippy::too_many_arguments)]
fn select_target(
    index: &mut PlacementIndex,
    brute_force: bool,
    ctx: &PlacementContext<'_>,
    existing: &[ServerId],
    partition_size: u64,
    region_queries: &[RegionQueries],
    prox: &mut ProximityCache,
    rent_below: Option<f64>,
) -> Option<(ServerId, f64)> {
    if brute_force {
        economic_target(ctx, existing, partition_size, region_queries, rent_below)
    } else {
        index.economic_target(
            ctx,
            existing,
            partition_size,
            region_queries,
            rent_below,
            prox,
        )
    }
}

/// Outcome of an executed transfer: `logical` is the size the economy
/// prices and the capacity meters debit (identical across backends);
/// `measured` is what the storage backend physically streamed (equal to
/// `logical` for the mem oracle, real WAL + SSTable bytes for LSM).
#[derive(Debug, Clone, Copy)]
struct Transfer {
    logical: u64,
    measured: u64,
}

/// Outcome of one vnode's resolution — what it decided, and against which
/// replica/target — before the action executes.
enum Resolved {
    Stay,
    Suicide { idx: usize },
    Migrate { idx: usize, target: ServerId },
    Replicate { target: ServerId },
}

/// What moving replica `replica`'s store physically streams: the synthetic
/// portion has no materialized bytes on any backend, and the mem oracle
/// reports no measurement, pricing the transfer at logical size.
fn measured_bytes(partition: &PartitionState, replica: usize, physical: Option<u64>) -> u64 {
    let store_bytes = physical.unwrap_or_else(|| partition.replicas[replica].store.logical_bytes());
    partition.synthetic_bytes + store_bytes
}

/// Adds a replica of `partition` on `target`: consumes replication
/// bandwidth on a source replica's server and on the target, reserves
/// storage at the target, and forks the source's store (a shared COW
/// handle under the mem backend, a physical file copy under LSM).
/// All-or-nothing; returns the transfer on success.
fn exec_replication(
    cluster: &mut Cluster,
    partition: &mut PartitionState,
    target: ServerId,
    vnode: VnodeId,
    window: usize,
    epoch: u64,
) -> Option<Transfer> {
    if partition.has_replica_on(target) {
        return None;
    }
    // Pick a source replica whose server still has replication bandwidth.
    let mut chosen: Option<(usize, u64)> = None;
    for (idx, replica) in partition.replicas.iter().enumerate() {
        let size = partition.synthetic_bytes + replica.store.logical_bytes();
        let ok = cluster
            .get_alive(replica.server)
            .is_some_and(|s| s.usage.replication_used < s.capacities.replication_bw);
        if ok {
            chosen = Some((idx, size));
            break;
        }
    }
    let (src_idx, size) = chosen?;
    let dst_ok = cluster.get_alive(target).is_some_and(|s| {
        s.usage.replication_used < s.capacities.replication_bw && s.storage_free() >= size
    });
    if !dst_ok {
        return None;
    }
    // Debit both ends (pre-checked; cannot fail).
    {
        let src = cluster
            .get_mut(partition.replicas[src_idx].server)
            .expect("source exists");
        let caps = src.capacities;
        let ok = src.usage.reserve_replication_bw(&caps, size);
        debug_assert!(ok);
    }
    {
        let dst = cluster.get_mut(target).expect("target exists");
        let caps = dst.capacities;
        let ok =
            dst.usage.reserve_replication_bw(&caps, size) && dst.usage.reserve_storage(&caps, size);
        debug_assert!(ok);
    }
    let (store, physical) = partition.replicas[src_idx].store.fork();
    let measured = measured_bytes(partition, src_idx, physical);
    let mut replica = Replica::new(vnode, target, window, epoch);
    replica.store = store;
    partition.replicas.push(replica);
    partition.note_membership_changed();
    Some(Transfer {
        logical: size,
        measured,
    })
}

/// Moves replica `idx` of `partition` to `target`: consumes migration
/// bandwidth on both ends, moves the storage charge, resets the balance
/// window. All-or-nothing; returns the transfer on success.
fn exec_migration(
    cluster: &mut Cluster,
    partition: &mut PartitionState,
    idx: usize,
    target: ServerId,
) -> Option<Transfer> {
    if partition.has_replica_on(target) {
        return None;
    }
    let source = partition.replicas[idx].server;
    let size = partition.synthetic_bytes + partition.replicas[idx].store.logical_bytes();
    let src_ok = cluster
        .get_alive(source)
        .is_some_and(|s| s.usage.migration_used < s.capacities.migration_bw);
    let dst_ok = cluster.get_alive(target).is_some_and(|s| {
        s.usage.migration_used < s.capacities.migration_bw && s.storage_free() >= size
    });
    if !src_ok || !dst_ok {
        return None;
    }
    {
        let src = cluster.get_mut(source).expect("source exists");
        let caps = src.capacities;
        let ok = src.usage.reserve_migration_bw(&caps, size);
        debug_assert!(ok);
        src.usage.release_storage(size);
    }
    {
        let dst = cluster.get_mut(target).expect("target exists");
        let caps = dst.capacities;
        let ok =
            dst.usage.reserve_migration_bw(&caps, size) && dst.usage.reserve_storage(&caps, size);
        debug_assert!(ok);
    }
    let physical = partition.replicas[idx].store.measured_transfer();
    let measured = measured_bytes(partition, idx, physical);
    partition.replicas[idx].server = target;
    partition.replicas[idx].balance.reset_window();
    partition.note_membership_changed();
    Some(Transfer {
        logical: size,
        measured,
    })
}

/// Deletes replica `idx` of `partition`, releasing its storage.
fn exec_suicide(cluster: &mut Cluster, partition: &mut PartitionState, idx: usize) {
    let replica = partition.replicas.remove(idx);
    let size = partition.synthetic_bytes + replica.store.logical_bytes();
    if let Some(s) = cluster.get_mut(replica.server) {
        s.usage.release_storage(size);
    }
    partition.note_membership_changed();
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::app::LevelSpec;
    use skute_cluster::Capacities;
    use skute_store::BackendKind;

    const GIB: u64 = 1 << 30;

    fn paper_cluster(topology: &Topology) -> Cluster {
        Cluster::from_topology(topology, |i, location| ServerSpec {
            location,
            capacities: Capacities::paper(10 * GIB, 5_000.0),
            monthly_cost: if i % 10 < 7 { 100.0 } else { 125.0 },
            confidence: 1.0,
        })
    }

    fn small_cloud() -> (SkuteCloud, AppId) {
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
    fn put_get_roundtrip_across_epochs() {
        let (mut cloud, app) = small_cloud();
        cloud.begin_epoch();
        cloud.put(app, 0, b"user:1", b"alpha".to_vec()).unwrap();
        cloud.end_epoch();
        cloud.begin_epoch();
        assert_eq!(
            cloud.get(app, 0, b"user:1").unwrap().unwrap().as_ref(),
            b"alpha"
        );
        cloud.put(app, 0, b"user:1", b"beta".to_vec()).unwrap();
        assert_eq!(
            cloud.get(app, 0, b"user:1").unwrap().unwrap().as_ref(),
            b"beta"
        );
        cloud.delete(app, 0, b"user:1").unwrap();
        assert_eq!(cloud.get(app, 0, b"user:1").unwrap(), None);
        assert_eq!(cloud.get(app, 0, b"missing").unwrap(), None);
    }

    #[test]
    fn data_survives_replication_and_failure() {
        let (mut cloud, app) = small_cloud();
        cloud.begin_epoch();
        cloud.put(app, 0, b"k", b"v".to_vec()).unwrap();
        for _ in 0..5 {
            cloud.begin_epoch();
            cloud.end_epoch();
        }
        // Fail the first replica's server of the key's partition.
        let pid = {
            let ids = cloud.partition_ids(app, 0).unwrap();
            *ids.first().unwrap()
        };
        let victim = cloud.replica_servers(app, 0, pid).unwrap()[0];
        cloud.retire_server(victim);
        assert_eq!(cloud.get(app, 0, b"k").unwrap().unwrap().as_ref(), b"v");
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
    fn synthetic_ingest_accounts_storage() {
        let (mut cloud, app) = small_cloud();
        cloud.begin_epoch();
        let used_before = cloud.cluster().total_storage_used();
        cloud.ingest_synthetic(app, 0, b"obj1", 500 * 1024).unwrap();
        let used_after = cloud.cluster().total_storage_used();
        // One replica so far (epoch 1 before any end_epoch): charged once.
        assert_eq!(used_after - used_before, 500 * 1024);
    }

    #[test]
    fn epoch_report_counts_match_state() {
        let (mut cloud, app) = small_cloud();
        cloud.begin_epoch();
        let report = cloud.end_epoch();
        assert_eq!(report.epoch, 1);
        assert_eq!(report.total_vnodes(), cloud.ring_vnodes(app, 0).unwrap());
        assert_eq!(report.alive_servers, 200);
        assert!(report.actions.availability_replications > 0);
        let ring = report.ring(RingId::new(app.0, 0)).unwrap();
        assert_eq!(ring.partitions, 16);
        assert_eq!(ring.target_replicas, 3);
    }

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
        cloud.deliver_queries(app, 0, 3000.0, &regions).unwrap();
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

    #[test]
    fn anti_entropy_repairs_injected_divergence() {
        let (mut cloud, app) = small_cloud();
        cloud.begin_epoch();
        cloud.put(app, 0, b"base", b"v".to_vec()).unwrap();
        for _ in 0..5 {
            cloud.begin_epoch();
            cloud.end_epoch();
        }
        assert_eq!(
            cloud.anti_entropy(app, 0).unwrap(),
            AntiEntropyReport::default(),
            "replicas start in sync"
        );
        // Inject divergence: a newer version of the key that only one
        // replica holds (as if a full server had rejected the write on the
        // others).
        let pid = cloud.rings[0].ring.route(b"base");
        let replica_count = {
            let p = cloud.rings[0].partitions.get_mut(&pid).unwrap();
            let record = Record::put(&b"ghost-value"[..], Version::new(99, 0, 0));
            let old = p.replicas[0].store.get(b"base").unwrap().logical_size;
            let grow = record.logical_size - old;
            assert!(p.replicas[0].store.apply(&b"base"[..], record));
            let server = p.replicas[0].server;
            let s = cloud.cluster.get_mut(server).unwrap();
            let caps = s.capacities;
            assert!(s.usage.reserve_storage(&caps, grow));
            p.replicas.len()
        };
        let report = cloud.anti_entropy(app, 0).unwrap();
        assert_eq!(report.partitions_repaired, 1);
        // The diverged replica already held the union; the others received
        // copy-on-write handles of it.
        assert_eq!(report.replicas_in_sync, 1);
        assert_eq!(report.replicas_updated, replica_count - 1);
        assert_eq!(report.replicas_deferred, 0);
        assert_eq!(
            cloud.anti_entropy(app, 0).unwrap(),
            AntiEntropyReport::default(),
            "second pass is a no-op"
        );
        // Every replica now holds the ghost key with exact accounting, and
        // the repaired replicas share one store allocation.
        let p = &cloud.rings[0].partitions[&pid];
        for r in &p.replicas {
            assert_eq!(r.store.get_value(b"base").unwrap().as_ref(), b"ghost-value");
        }
        assert!(
            p.replicas[1..]
                .windows(2)
                .all(|w| w[0].store.shares_storage_with(&w[1].store)),
            "anti-entropy writebacks share the union allocation"
        );
        for r in &p.replicas {
            let server = cloud.cluster.get(r.server).unwrap();
            assert!(server.usage.storage_used >= r.store.logical_bytes());
        }
    }

    #[test]
    fn quorum_read_resolves_divergence_and_schedules_repair() {
        let (mut cloud, app) = small_cloud();
        cloud.begin_epoch();
        cloud.put(app, 0, b"q", b"v1".to_vec()).unwrap();
        for _ in 0..6 {
            cloud.begin_epoch();
            cloud.end_epoch();
        }
        let pid = cloud.rings[0].ring.route(b"q");
        let k = cloud.rings[0].partitions[&pid].replicas.len();
        assert!(k >= 3, "partition reached its SLA replica count");
        // Inject divergence: a newer version only replica 0 holds.
        {
            let p = cloud.rings[0].partitions.get_mut(&pid).unwrap();
            let record = Record::put(&b"v2"[..], Version::new(99, 0, 0));
            let old = p.replicas[0].store.get(b"q").unwrap().logical_size;
            let grow = record.logical_size.saturating_sub(old);
            assert!(p.replicas[0].store.apply(&b"q"[..], record));
            let server = p.replicas[0].server;
            let s = cloud.cluster.get_mut(server).unwrap();
            let caps = s.capacities;
            assert!(s.usage.reserve_storage(&caps, grow));
        }
        cloud.begin_epoch();
        let read = cloud
            .client_get_with(app, 0, b"q", None, ReadConsistency::Quorum)
            .unwrap();
        assert_eq!(read.value.as_ref().unwrap().as_ref(), b"v2", "LWW winner");
        assert!(!read.degraded);
        assert_eq!(read.replicas_read, k / 2 + 1);
        assert!(
            read.repairs_scheduled >= 1,
            "the stale majority replica is observed and queued"
        );
        // The epoch-end drain converges every replica onto the winner.
        cloud.end_epoch();
        let p = &cloud.rings[0].partitions[&pid];
        for r in &p.replicas {
            assert_eq!(r.store.get_value(b"q").unwrap().as_ref(), b"v2");
        }
        cloud.begin_epoch();
        let again = cloud
            .client_get_with(app, 0, b"q", None, ReadConsistency::Quorum)
            .unwrap();
        assert_eq!(again.repairs_scheduled, 0, "nothing left to repair");
        assert_eq!(again.value.unwrap().as_ref(), b"v2");
        cloud.end_epoch();
    }

    #[test]
    fn degraded_quorum_read_still_answers() {
        let (mut cloud, app) = small_cloud();
        cloud.begin_epoch();
        cloud.put(app, 0, b"d", b"v".to_vec()).unwrap();
        for _ in 0..6 {
            cloud.begin_epoch();
            cloud.end_epoch();
        }
        let pid = cloud.rings[0].ring.route(b"d");
        let replicas = cloud.replica_servers(app, 0, pid).unwrap();
        assert!(replicas.len() >= 3);
        // Gray-partition every replica server but the first.
        cloud
            .gray_modes
            .resize(cloud.cluster.len(), GrayMode::Healthy);
        for &s in &replicas[1..] {
            cloud.gray_modes[s.0 as usize] = GrayMode::Partitioned;
        }
        let read = cloud
            .client_get_with(app, 0, b"d", None, ReadConsistency::Quorum)
            .unwrap();
        assert!(read.degraded, "sub-quorum reachability is flagged");
        assert_eq!(read.value.as_ref().unwrap().as_ref(), b"v");
        assert_eq!(read.served_by, replicas[0]);
        // Nothing reachable at all: the read still answers from the
        // local stores rather than failing outright.
        cloud.gray_modes[replicas[0].0 as usize] = GrayMode::Partitioned;
        let read = cloud
            .client_get_with(app, 0, b"d", None, ReadConsistency::Quorum)
            .unwrap();
        assert!(read.degraded);
        assert_eq!(read.value.unwrap().as_ref(), b"v");
    }

    #[test]
    fn writes_skip_gray_blocked_replicas_without_losing_acks() {
        let (mut cloud, app) = small_cloud();
        cloud.begin_epoch();
        cloud.put(app, 0, b"g", b"v1".to_vec()).unwrap();
        for _ in 0..6 {
            cloud.begin_epoch();
            cloud.end_epoch();
        }
        cloud.begin_epoch();
        let pid = cloud.rings[0].ring.route(b"g");
        let replicas = cloud.replica_servers(app, 0, pid).unwrap();
        assert!(replicas.len() >= 3);
        // One read-only replica: the write lands on the healthy majority
        // and still acks (w = ⌊k/2⌋ + 1 reached without the gray server).
        cloud
            .gray_modes
            .resize(cloud.cluster.len(), GrayMode::Healthy);
        cloud.gray_modes[replicas[0].0 as usize] = GrayMode::ReadOnly;
        cloud.put(app, 0, b"g", b"v2".to_vec()).unwrap();
        {
            let p = &cloud.rings[0].partitions[&pid];
            assert_eq!(
                p.replicas[0].store.get_value(b"g").unwrap().as_ref(),
                b"v1",
                "the read-only replica missed the write"
            );
            assert_eq!(p.replicas[1].store.get_value(b"g").unwrap().as_ref(), b"v2");
        }
        // Once the server recovers, a quorum read observes the stale
        // replica, serves the acked value, and schedules its repair.
        cloud.gray_modes[replicas[0].0 as usize] = GrayMode::Healthy;
        let read = cloud
            .client_get_with(app, 0, b"g", None, ReadConsistency::Quorum)
            .unwrap();
        assert_eq!(read.value.unwrap().as_ref(), b"v2", "acked write survives");
        assert_eq!(read.repairs_scheduled, 1);
        cloud.end_epoch();
        let p = &cloud.rings[0].partitions[&pid];
        for r in &p.replicas {
            assert_eq!(r.store.get_value(b"g").unwrap().as_ref(), b"v2");
        }
    }

    /// Drives one key through every arm of the gated replica write on
    /// `backend` and returns the replica servers' storage usage after each
    /// step, for comparing backends.
    fn gated_write_steps(backend: BackendKind) -> Vec<Vec<u64>> {
        const KEY: &[u8] = b"gate";
        let topology = Topology::paper();
        let cluster = paper_cluster(&topology);
        let config = SkuteConfig::paper().with_backend(backend);
        let mut cloud = SkuteCloud::new(config, topology, cluster);
        let app = cloud
            .create_application(AppSpec::new("t").level(LevelSpec::new(3, 4)))
            .unwrap();
        for _ in 0..6 {
            cloud.begin_epoch();
            cloud.end_epoch();
        }
        cloud.begin_epoch();
        let pid = cloud.rings[0].ring.route(KEY);
        let servers = cloud.replica_servers(app, 0, pid).unwrap();
        let k = servers.len() as u64;
        assert!(k >= 3);
        let usage = |cloud: &SkuteCloud| -> Vec<u64> {
            servers
                .iter()
                .map(|&s| cloud.cluster.get(s).unwrap().usage.storage_used)
                .collect()
        };
        let stored = |cloud: &SkuteCloud| -> Vec<Option<Record>> {
            let p = &cloud.rings[0].partitions[&pid];
            p.replicas.iter().map(|r| r.store.get(KEY)).collect()
        };
        // WAL appends across the partition's replicas (LSM only).
        let wal_appends = |cloud: &SkuteCloud| -> Option<u64> {
            let p = &cloud.rings[0].partitions[&pid];
            p.replicas
                .iter()
                .map(|r| r.store.activity().map(|a| a.wal_appends))
                .sum()
        };
        let grown = |from: &[u64], by: i64| -> Vec<u64> {
            from.iter().map(|&u| (u as i64 + by) as u64).collect()
        };
        let base = usage(&cloud);
        let entry = |value_len: i64| KEY.len() as i64 + value_len;
        let mut steps = Vec::new();
        let mut accepted = 0u64;

        // Fresh key: every replica reserves the whole entry.
        cloud.put(app, 0, KEY, vec![b'a'; 100]).unwrap();
        accepted += k;
        assert_eq!(usage(&cloud), grown(&base, entry(100)));
        steps.push(usage(&cloud));

        // Growing overwrite: only the difference is reserved.
        cloud.put(app, 0, KEY, vec![b'b'; 300]).unwrap();
        accepted += k;
        assert_eq!(usage(&cloud), grown(&base, entry(300)));
        steps.push(usage(&cloud));

        // Shrinking overwrite: the difference is released.
        cloud.put(app, 0, KEY, vec![b'c'; 50]).unwrap();
        accepted += k;
        assert_eq!(usage(&cloud), grown(&base, entry(50)));
        steps.push(usage(&cloud));

        // Stale version: replica 0 already holds a record from the far
        // future (same size, so its charge stands). The write acks there
        // without touching the store or the meter; the others grow.
        let future = Record::put(vec![b'f'; 50], Version::new(u64::MAX, 0, 0));
        {
            let p = cloud.rings[0].partitions.get_mut(&pid).unwrap();
            assert!(p.replicas[0].store.apply(KEY, future.clone()));
        }
        accepted += 1;
        cloud.put(app, 0, KEY, vec![b'd'; 80]).unwrap();
        accepted += k - 1;
        let mut expected = grown(&base, entry(80));
        expected[0] = base[0] + entry(50) as u64;
        assert_eq!(usage(&cloud), expected);
        assert_eq!(stored(&cloud)[0], Some(future));
        steps.push(usage(&cloud));

        // Capacity veto: with every replica server exactly full, a growing
        // write gets no ack and leaves no trace — not in the meters, not
        // in the stores, not in the WALs.
        for &s in &servers {
            let server = cloud.cluster.get_mut(s).unwrap();
            server.capacities.storage_bytes = server.usage.storage_used;
        }
        let (usage_before, stored_before, wal_before) =
            (usage(&cloud), stored(&cloud), wal_appends(&cloud));
        assert_eq!(
            cloud.put(app, 0, KEY, vec![b'e'; 500]),
            Err(CoreError::Store(StoreError::CapacityExceeded))
        );
        assert_eq!(usage(&cloud), usage_before);
        assert_eq!(stored(&cloud), stored_before);
        assert_eq!(wal_appends(&cloud), wal_before);
        steps.push(usage(&cloud));

        // A shrinking write always fits, even on full servers.
        cloud.delete(app, 0, KEY).unwrap();
        accepted += k - 1;
        steps.push(usage(&cloud));

        match backend {
            BackendKind::Mem => assert_eq!(wal_appends(&cloud), None),
            BackendKind::Lsm => assert_eq!(
                wal_appends(&cloud),
                Some(accepted),
                "one WAL append per accepted replica write, none for vetoed or stale ones"
            ),
        }
        steps
    }

    #[test]
    fn gated_writes_charge_storage_identically_on_both_backends() {
        assert_eq!(
            gated_write_steps(BackendKind::Mem),
            gated_write_steps(BackendKind::Lsm)
        );
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
            cloud.deliver_queries(app, 0, queries, &regions).unwrap();
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
    fn pipeline_parks_workers_for_the_cloud_lifetime() {
        // An inline cloud spawns nothing; a threaded cloud parks
        // `threads - 1` workers at construction and keeps them across
        // epochs (the persistent pool's whole point — no per-phase
        // spawns).
        let (cloud, _) = small_cloud();
        assert_eq!(cloud.pipeline().threads(), 1);
        assert_eq!(cloud.pipeline().live_workers(), 0);
        let topology = Topology::paper();
        let cluster = paper_cluster(&topology);
        let mut cloud = SkuteCloud::new(SkuteConfig::paper().with_threads(4), topology, cluster);
        let app = cloud
            .create_application(AppSpec::new("t").level(LevelSpec::new(3, 16)))
            .unwrap();
        assert_eq!(cloud.pipeline().live_workers(), 3);
        for _ in 0..3 {
            cloud.begin_epoch();
            let regions = skute_geo::ClientGeo::Uniform.region_weights(cloud.topology());
            cloud.deliver_queries(app, 0, 500.0, &regions).unwrap();
            cloud.end_epoch();
            assert_eq!(
                cloud.pipeline().live_workers(),
                3,
                "dispatches must reuse the parked workers, not respawn"
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
        single.deliver_queries(app, 0, 900.0, &regions).unwrap();
        single.deliver_queries(app, 1, 1_400.0, &regions).unwrap();
        single.deliver_queries(app, 0, 300.0, &regions).unwrap();
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
        let (mut cloud, app) = small_cloud();
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
        cloud.deliver_queries(app, 0, 1000.0, &regions).unwrap();
        let report = cloud.end_epoch();
        let ring = report.ring(RingId::new(app.0, 0)).unwrap();
        assert!((ring.queries_offered - 1000.0).abs() < 1e-6);
    }
}
