//! The client data path: routed reads and scans behind a [`ReadView`],
//! and the write, ingest and read-repair halves of [`SkuteCloud`]'s client
//! API.
//!
//! A client's query goes to the closest live replica (§II, eq. 4) and
//! needs only the rings, replica membership, server liveness and
//! location, and the health state. [`ReadView`] borrows exactly those, so
//! the read path cannot name the rent board, the placement index, the RNG
//! or a capacity meter — everything the per-epoch agent economy owns.

use std::collections::BTreeMap;
use std::fmt;
use std::str::FromStr;
use std::sync::Mutex;

use bytes::Bytes;

use skute_cluster::{Cluster, Server, ServerId};
use skute_economy::{ProximityCache, RegionQueries};
use skute_geo::{Location, Topology};
use skute_store::{ApplyOutcome, Record, StoreError, Version};

use super::{resize_storage, ring_index, RingState, SkuteCloud};
use crate::app::{AppId, Application};
use crate::error::CoreError;
use crate::health::HealthState;
use crate::obs::CloudMetrics;
use crate::vnode::PartitionState;

/// Requested consistency of a serving-path read or scan
/// (`ReadView::client_get_with`, [`ReadView::scan`], `skute-server`'s
/// `X-Consistency` header).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ReadConsistency {
    /// Serve from the single highest-proximity reachable replica (the
    /// default; fastest). A key read and each partition of a scan answer
    /// what that one replica holds, even where it missed a write.
    #[default]
    One,
    /// Read a majority (`⌊k/2⌋ + 1`) of the partition's k replicas and
    /// resolve by last-writer-wins; a key read also schedules read-repair
    /// for every stale replica observed (a scan does not). Writes ack on
    /// the same majority of the same k, and two majorities of k
    /// intersect, so a non-degraded quorum read sees every write
    /// acknowledged since the replica set last changed.
    Quorum,
}

impl ReadConsistency {
    /// How many of a partition's `k` replicas a read at this consistency
    /// consults.
    fn replicas(self, k: usize) -> usize {
        match self {
            ReadConsistency::One => 1,
            ReadConsistency::Quorum => majority(k),
        }
    }

    /// Stable lowercase name (the `X-Consistency` header value).
    pub(crate) fn as_str(self) -> &'static str {
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

/// The result of a proximity-routed [`SkuteCloud::client_get_with`]: the
/// value (if any), which server served it, and that server's eq.-(4)
/// weight for the requesting client.
#[derive(Debug, Clone, PartialEq)]
pub struct ClientRead {
    /// The live value under the key (`None` for absent keys and
    /// tombstones).
    pub value: Option<Bytes>,
    /// The replica server that answered, always one the client could
    /// reach (for quorum reads, the highest-proximity replica of the read
    /// set that held the winning record).
    pub served_by: ServerId,
    /// The serving server's eq.-(4) proximity weight for this client
    /// (1.0 when no client location was given).
    pub proximity: f64,
    /// True when a `Quorum` read reached fewer than `⌊k/2⌋ + 1` replicas
    /// and answered from those it reached. A read that reaches no replica
    /// fails instead, so an answered `One` read is never degraded.
    pub degraded: bool,
    /// Replica stores consulted to answer the read: the reachable read
    /// set, never a store the client could not reach.
    pub replicas_read: usize,
    /// Stale replicas observed by a quorum read and enqueued for
    /// read-repair at the next epoch close.
    pub repairs_scheduled: usize,
}

/// The result of a [`ReadView::scan`]: the live entries under the prefix
/// and whether the scan met its requested consistency. A scan that met
/// [`ReadConsistency::Quorum`] holds every acknowledged write; one at
/// [`ReadConsistency::One`] holds what its one replica per partition
/// holds, as a `One` get of each key would answer.
#[derive(Debug, Clone, PartialEq)]
pub struct ClientScan {
    /// Live `(key, value)` pairs in key order.
    pub entries: Vec<(Bytes, Bytes)>,
    /// True when some partition's read fell short of the requested
    /// consistency (as [`ClientRead::degraded`] would for a key of it) or
    /// reached no replica at all, in which case its keys are left out.
    pub degraded: bool,
}

/// What a serving-path read needs of the cloud, borrowed: rings and
/// replica membership, server liveness and location, the topology, the
/// epoch's health state, and the two write-only sinks a read reports into
/// (the read-repair queue and the metrics). Obtained from
/// [`SkuteCloud::read_view`].
pub struct ReadView<'a> {
    apps: &'a [Application],
    rings: &'a [RingState],
    cluster: &'a Cluster,
    topology: &'a Topology,
    health: &'a HealthState,
    repair_queue: &'a Mutex<Vec<(usize, Vec<u8>)>>,
    metrics: Option<&'a CloudMetrics>,
}

impl ReadView<'_> {
    /// Routes `key` through the ring and reads it at `consistency`.
    ///
    /// The stores read are exactly `ReadView::read_set`'s. `One` reads
    /// the **alive**, reachable replica with the highest eq.-(4) proximity
    /// weight for `client` (ties break to the earliest replica; no client
    /// location means every weight is the neutral 1.0, so the first alive
    /// reachable replica serves) and answers what it holds: a replica that
    /// missed a write answers like one holding an older version.
    /// Read-repair and later writes converge it, not the read.
    ///
    /// `Quorum` reads `⌊k/2⌋ + 1` reachable replicas (highest eq.-(4)
    /// proximity first), resolves them by last-writer-wins, and enqueues
    /// every stale replica observed for targeted read-repair at the next
    /// [`SkuteCloud::end_epoch`]. When fewer than a quorum of replicas is
    /// reachable — a continental cut, gray-partitioned servers — the read
    /// answers from the reachable ones and is flagged
    /// [`ClientRead::degraded`].
    ///
    /// When no replica is reachable, at either consistency, the read fails
    /// with [`StoreError::QuorumNotMet`] (`got: 0`): the key is
    /// unavailable to this client, not absent. It still counts as a
    /// degraded read.
    pub(crate) fn client_get_with(
        &self,
        app: AppId,
        level: u32,
        key: &[u8],
        client: Option<Location>,
        consistency: ReadConsistency,
    ) -> Result<ClientRead, CoreError> {
        let ring_idx = ring_index(self.apps, self.rings, app, level)?;
        let pid = self.rings[ring_idx].ring.route(key);
        let partition = self.rings[ring_idx]
            .partitions
            .get(&pid)
            .ok_or(CoreError::NoPlacement)?;
        if partition.replicas.is_empty() {
            return Err(CoreError::Store(StoreError::NoReplicas));
        }
        let (read_set, degraded) = self.read_set(partition, client, consistency);
        let responses: Vec<(usize, f64, Option<Record>)> = read_set
            .into_iter()
            .map(|(i, g)| (i, g, partition.replicas[i].store.get(key)))
            .collect();
        let winner = Record::merge_all(responses.iter().filter_map(|(_, _, r)| r.clone()));
        // Every response below the winning version is stale; schedule the
        // key for targeted repair. A one-replica read never sees one.
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
        if let Some(m) = self.metrics {
            if consistency == ReadConsistency::Quorum {
                m.quorum_reads.inc();
                if repairs_scheduled > 0 {
                    m.quorum_divergent.inc();
                }
                m.read_repairs_scheduled.add(repairs_scheduled as u64);
            }
            if degraded {
                m.degraded_reads.inc();
            }
        }
        // Serve from the highest-proximity replica that held the winning
        // record (the read set is already proximity-sorted). Every
        // non-empty read set holds one; an empty one reached nothing.
        let Some(&(idx, g, _)) = responses.iter().find(|(_, _, r)| match (&winner, r) {
            (Some(w), Some(rec)) => rec.version == w.version,
            (None, None) => true,
            _ => false,
        }) else {
            return Err(CoreError::Store(StoreError::QuorumNotMet {
                needed: consistency.replicas(partition.replicas.len()),
                got: 0,
            }));
        };
        Ok(ClientRead {
            value: winner.and_then(|w| w.value),
            served_by: partition.replicas[idx].server,
            proximity: g,
            degraded,
            replicas_read: responses.len(),
            repairs_scheduled,
        })
    }

    /// Ordered prefix scan over one ring at `consistency`: every
    /// partition is read from the same replica set
    /// `ReadView::client_get_with` would read a key of it from, so a
    /// scan and the gets of its keys agree. The responses are merged
    /// last-writer-wins, and up to `limit` live `(key, value)` pairs under
    /// `prefix` come back in key order (`limit = 0` means unbounded). The
    /// scan is [`ClientScan::degraded`] when any partition's read fell
    /// short of `consistency`; a partition with no reachable replica (or
    /// none at all) is left out. Scans schedule no read-repair.
    pub fn scan(
        &self,
        app: AppId,
        level: u32,
        prefix: &[u8],
        limit: usize,
        client: Option<Location>,
        consistency: ReadConsistency,
    ) -> Result<ClientScan, CoreError> {
        let ring_idx = ring_index(self.apps, self.rings, app, level)?;
        let mut merged: BTreeMap<Bytes, Record> = BTreeMap::new();
        let mut degraded = false;
        for partition in self.rings[ring_idx].partitions.values() {
            let (read_set, short) = self.read_set(partition, client, consistency);
            degraded |= short;
            for (i, _) in read_set {
                partition.replicas[i].store.for_each(&mut |key, record| {
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
        let mut entries = Vec::new();
        for (key, record) in merged {
            if let Some(value) = record.value {
                entries.push((key, value));
                if limit > 0 && entries.len() >= limit {
                    break;
                }
            }
        }
        if degraded {
            if let Some(m) = self.metrics {
                m.degraded_reads.inc();
            }
        }
        Ok(ClientScan { entries, degraded })
    }

    /// The replicas a read of `partition` at `consistency` consults, and
    /// the only choice of them: key reads and scans read no other store.
    /// Each comes with its eq.-(4) proximity weight for `client` (the
    /// neutral 1.0 without a client location), weighed through one cache,
    /// so the read aggregates its one-region mix once. The set is the alive
    /// replicas `client` can reach, highest weight first with ties to the
    /// earliest replica, cut to one for `One` and to `⌊k/2⌋ + 1` for
    /// `Quorum`. The flag is true when fewer were reachable; with none
    /// reachable, or no replica left, the set is empty.
    fn read_set(
        &self,
        partition: &PartitionState,
        client: Option<Location>,
        consistency: ReadConsistency,
    ) -> (Vec<(usize, f64)>, bool) {
        let need = consistency.replicas(partition.replicas.len());
        let regions = client.map(|location| {
            [RegionQueries {
                location,
                queries: 1.0,
            }]
        });
        let mut prox = ProximityCache::new();
        let mut set: Vec<(usize, f64)> = Vec::new();
        for (i, replica) in partition.replicas.iter().enumerate() {
            let Some(server) = self.cluster.get_alive(replica.server) else {
                continue;
            };
            if !self
                .health
                .reachable(replica.server, &server.location, client)
            {
                continue;
            }
            let g = match &regions {
                Some(r) => prox.g(r, &server.location, self.topology),
                None => 1.0,
            };
            set.push((i, g));
        }
        let short = set.len() < need;
        set.sort_by(|a, b| {
            b.1.partial_cmp(&a.1)
                .unwrap_or(std::cmp::Ordering::Equal)
                .then(a.0.cmp(&b.0))
        });
        set.truncate(need);
        (set, short)
    }
}

impl SkuteCloud {
    /// The borrowed view serving-path reads run on.
    pub fn read_view(&self) -> ReadView<'_> {
        ReadView {
            apps: &self.apps,
            rings: &self.rings,
            cluster: &self.cluster,
            topology: &self.topology,
            health: &self.health,
            repair_queue: &self.repair_queue,
            metrics: self.metrics.as_deref(),
        }
    }

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

    /// Reads a key's live value: [`SkuteCloud::client_get_with`] at
    /// [`ReadConsistency::One`] with no client location, so the answer of
    /// the first alive reachable replica. Fails with
    /// [`StoreError::QuorumNotMet`] when no replica is reachable.
    pub fn get(&self, app: AppId, level: u32, key: &[u8]) -> Result<Option<Bytes>, CoreError> {
        self.client_get_with(app, level, key, None, ReadConsistency::One)
            .map(|read| read.value)
    }

    /// Serving-path read: `ReadView::client_get_with` on this cloud's
    /// [`SkuteCloud::read_view`].
    ///
    /// Read-only (`&self`): the serving path never touches capacity
    /// meters or any decision input, so interleaving client reads with
    /// epoch ticks cannot perturb trajectories.
    pub fn client_get_with(
        &self,
        app: AppId,
        level: u32,
        key: &[u8],
        client: Option<Location>,
        consistency: ReadConsistency,
    ) -> Result<ClientRead, CoreError> {
        self.read_view()
            .client_get_with(app, level, key, client, consistency)
    }

    /// Ordered prefix scan over one ring: [`ReadView::scan`] at
    /// [`ReadConsistency::One`] with no client location, returning up to
    /// `limit` live `(key, value)` pairs in key order (`limit = 0` means
    /// unbounded). Each partition is read from its one reachable replica
    /// that [`SkuteCloud::get`] reads, so a key that replica missed is left
    /// out, and so is a partition with no reachable replica; a quorum scan
    /// through [`SkuteCloud::read_view`] meets every acknowledged write and
    /// says when it fell short.
    pub fn scan(
        &self,
        app: AppId,
        level: u32,
        prefix: &[u8],
        limit: usize,
    ) -> Result<Vec<(Bytes, Bytes)>, CoreError> {
        self.read_view()
            .scan(app, level, prefix, limit, None, ReadConsistency::One)
            .map(|scan| scan.entries)
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
        let blocked: Vec<usize> = (0..partition.replicas.len())
            .filter(|&i| !has_room(&self.cluster, partition.replicas[i].server, logical_bytes))
            .collect();
        for idx in blocked {
            self.relocate_blocked_replica(ring_idx, pid, idx, logical_bytes);
        }
        let partition = self.rings[ring_idx]
            .partitions
            .get_mut(&pid)
            .ok_or(CoreError::NoPlacement)?;
        let servers = partition.replica_servers();
        if !servers
            .iter()
            .all(|&id| has_room(&self.cluster, id, logical_bytes))
        {
            self.insert_failures_epoch += 1;
            return Err(CoreError::Store(StoreError::CapacityExceeded));
        }
        for &id in &servers {
            let ok = self
                .cluster
                .get_mut(id)
                .is_some_and(|s| resize_storage(s, 0, logical_bytes));
            debug_assert!(ok, "pre-checked reservation cannot fail");
        }
        partition.synthetic_bytes += logical_bytes;
        partition.write_bytes_epoch += logical_bytes;
        Ok(())
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
        let (mut acks, mut vetoes) = (0usize, 0usize);
        for replica in partition.replicas.iter_mut() {
            let Some(server) = self.cluster.get_mut(replica.server) else {
                continue;
            };
            if !server.is_alive() {
                continue;
            }
            // Gray-blocked replicas silently miss the update. The ack
            // check below still demands a majority of the k replicas or a
            // client-visible error, so every acknowledged write meets
            // every non-degraded quorum read.
            if self.health.blocks_writes(replica.server, &server.location) {
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
            if outcome == ApplyOutcome::Vetoed {
                vetoes += 1;
            } else {
                acks += 1;
            }
        }
        partition.write_bytes_epoch += record.logical_size;
        let needed = majority(partition.replicas.len());
        if acks >= needed {
            return Ok(());
        }
        // An insert failure (Fig. 5) is one that storage capacity decided:
        // the vetoing replicas would have made the majority.
        if acks + vetoes >= needed {
            self.insert_failures_epoch += 1;
            return Err(CoreError::Store(StoreError::CapacityExceeded));
        }
        Err(CoreError::Store(StoreError::QuorumNotMet {
            needed,
            got: acks,
        }))
    }

    /// Applies the targeted read-repairs quorum reads scheduled since the
    /// last epoch close: for every queued key, installs the
    /// partition-wide LWW winner on each stale replica with exact storage
    /// re-accounting. The queue is sorted and deduplicated first, so the
    /// repair order is a pure function of its contents regardless of how
    /// concurrent serving threads interleaved their enqueues. A replica
    /// whose server cannot absorb the winner's extra bytes is skipped and
    /// stays stale until the key is written again or a later quorum read
    /// observes it again: no background pass converges it. Simulation
    /// trajectories never enter here — only `client_get_with` enqueues —
    /// so determinism byte-compares are untouched.
    pub(super) fn drain_read_repairs(&mut self) {
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
}

/// The quorum of a partition with `k` replicas, for writes and reads
/// alike: any two majorities of the same k replicas share one.
fn majority(k: usize) -> usize {
    k / 2 + 1
}

/// True when `server` is alive with at least `bytes` of storage free.
fn has_room(cluster: &Cluster, server: ServerId, bytes: u64) -> bool {
    cluster
        .get_alive(server)
        .is_some_and(|s| s.storage_free() >= bytes)
}

/// The admission gate of a replica write: charges `server`'s storage meter
/// for an entry of `new_entry` logical bytes replacing one of `displaced`
/// bytes (`None` for a fresh key); see [`resize_storage`].
fn charge_entry(server: &mut Server, new_entry: u64) -> impl FnOnce(Option<u64>) -> bool + '_ {
    move |displaced| resize_storage(server, displaced.unwrap_or(0), new_entry)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::app::{AppSpec, LevelSpec};
    use crate::cloud::tests::{paper_cluster, small_cloud, GIB};
    use crate::config::SkuteConfig;
    use crate::health::GrayMode;
    use skute_store::{ApplyOutcome, BackendKind};

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
    fn put_between_relocations_reaches_the_index() {
        // Two relocations of one epoch query eq. (3) with a client PUT
        // between them. The second must see the storage the PUT charged,
        // or the PUT's host wins at its old rent (in a debug build,
        // `select_target`'s scan check fails first).
        use crate::placement::{economic_target, PlacementContext, TargetQuery};
        use skute_cluster::Capacities;
        use skute_economy::ProximityCache;
        use skute_ring::PartitionId;
        const MIB: u64 = 1 << 20;
        let (mut cloud, app) = small_cloud();
        cloud.begin_epoch();
        // One key per partition, and each partition's seed host.
        let mut keys: BTreeMap<PartitionId, Vec<u8>> = BTreeMap::new();
        for i in 0.. {
            let key = format!("key-{i}").into_bytes();
            keys.entry(cloud.rings[0].ring.route(&key)).or_insert(key);
            if keys.len() == cloud.rings[0].partitions.len() {
                break;
            }
        }
        let host = |cloud: &SkuteCloud, pid| cloud.replica_servers(app, 0, pid).unwrap()[0];
        let seeds: BTreeMap<PartitionId, ServerId> =
            keys.keys().map(|&pid| (pid, host(&cloud, pid))).collect();
        // Two partitions on hosts of their own: A and B.
        let mut own = seeds
            .iter()
            .filter(|&(_, h)| seeds.values().filter(|&o| o == h).count() == 1)
            .map(|(&pid, _)| pid);
        let (a, b) = (own.next().unwrap(), own.next().unwrap());
        // A and B's hosts hold 64 MiB, the other seed hosts 1 GiB, and no
        // other server fits a partition: relocations land on seed hosts.
        for id in cloud.cluster.alive_ids() {
            let bytes = if id == seeds[&a] || id == seeds[&b] {
                64 * MIB
            } else if seeds.values().any(|&h| h == id) {
                GIB
            } else {
                MIB
            };
            cloud.cluster.get_mut(id).unwrap().capacities = Capacities::paper(bytes, 5_000.0);
        }
        // A's second write relocates A's replica through eq. (3).
        cloud.ingest_synthetic(app, 0, &keys[&a], 40 * MIB).unwrap();
        cloud.ingest_synthetic(app, 0, &keys[&a], 30 * MIB).unwrap();
        assert_ne!(host(&cloud, a), seeds[&a], "A relocated");
        cloud.ingest_synthetic(app, 0, &keys[&b], 40 * MIB).unwrap();
        // The scan's answer for B's coming 70 MiB relocation.
        let winner = |cloud: &SkuteCloud| {
            let ctx = PlacementContext::new(
                &cloud.cluster,
                &cloud.board,
                &cloud.topology,
                &cloud.config.economy,
            );
            let ring = &cloud.rings[0];
            let mut mix = Vec::new();
            ring.deliveries.fold_mix(&ring.partitions[&b], &mut mix);
            let q = TargetQuery {
                existing: &[],
                size: 70 * MIB,
                region_queries: &mix,
                rent_below: None,
            };
            economic_target(&ctx, &q, &mut ProximityCache::new())
                .unwrap()
                .0
        };
        let w = winner(&cloud);
        // A client PUT into a partition on W raises W's rent with no
        // executed action behind it; B's relocation must see it.
        let (&c, _) = seeds.iter().find(|&(_, &h)| h == w).unwrap();
        cloud
            .put(app, 0, &keys[&c], vec![0u8; (200 * MIB) as usize])
            .unwrap();
        let after_put = winner(&cloud);
        assert_ne!(after_put, w, "the PUT moves the scan's answer");
        cloud.ingest_synthetic(app, 0, &keys[&b], 30 * MIB).unwrap();
        assert_eq!(host(&cloud, b), after_put);
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
            let applied = p.replicas[0].store.apply_gated(&b"q"[..], record, |_| true);
            assert_eq!(applied, ApplyOutcome::Applied);
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
            assert_eq!(
                r.store.get(b"q").and_then(|r| r.value).unwrap().as_ref(),
                b"v2"
            );
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
        let registry = skute_obs::Registry::new();
        cloud.set_metrics(CloudMetrics::register(&registry));
        // Gray-partition every replica server but the first.
        for &s in &replicas[1..] {
            cloud.health.set_mode(s, GrayMode::Partitioned);
        }
        let read = cloud
            .client_get_with(app, 0, b"d", None, ReadConsistency::Quorum)
            .unwrap();
        assert!(read.degraded, "sub-quorum reachability is flagged");
        assert_eq!(read.value.as_ref().unwrap().as_ref(), b"v");
        assert_eq!(read.served_by, replicas[0]);
        assert_eq!(read.replicas_read, 1);
        // Nothing reachable at all: the key is unavailable, and no store
        // behind the partition is read to answer it anyway. The read
        // still counts, as a degraded quorum read.
        cloud.health.set_mode(replicas[0], GrayMode::Partitioned);
        assert_eq!(
            cloud.client_get_with(app, 0, b"d", None, ReadConsistency::Quorum),
            Err(CoreError::Store(StoreError::QuorumNotMet {
                needed: majority(replicas.len()),
                got: 0
            }))
        );
        let text = registry.render();
        assert!(
            text.contains("\nskute_read_quorum_reads_total 2\n"),
            "{text}"
        );
        assert!(text.contains("\nskute_degraded_reads_total 2\n"), "{text}");
    }

    #[test]
    fn scan_flags_a_partition_it_cannot_reach() {
        let (mut cloud, app) = small_cloud();
        cloud.begin_epoch();
        cloud.put(app, 0, b"s", b"v".to_vec()).unwrap();
        for _ in 0..6 {
            cloud.begin_epoch();
            cloud.end_epoch();
        }
        let row = vec![(Bytes::from_static(b"s"), Bytes::from_static(b"v"))];
        let clean = cloud
            .read_view()
            .scan(app, 0, b"s", 0, None, ReadConsistency::Quorum)
            .unwrap();
        assert!(!clean.degraded);
        assert_eq!(clean.entries, row);
        // Cut off every replica of the key's partition: the get is
        // unavailable, and the scan leaves the partition out and says so.
        let pid = cloud.rings[0].ring.route(b"s");
        let replicas = cloud.replica_servers(app, 0, pid).unwrap();
        for &s in &replicas {
            cloud.health.set_mode(s, GrayMode::Partitioned);
        }
        for consistency in [ReadConsistency::One, ReadConsistency::Quorum] {
            assert_eq!(
                cloud.client_get_with(app, 0, b"s", None, consistency),
                Err(CoreError::Store(StoreError::QuorumNotMet {
                    needed: consistency.replicas(replicas.len()),
                    got: 0
                })),
                "{consistency}"
            );
            let scan = cloud
                .read_view()
                .scan(app, 0, b"s", 0, None, consistency)
                .unwrap();
            assert_eq!(
                (scan.entries, scan.degraded),
                (vec![], true),
                "{consistency}"
            );
        }
    }

    #[test]
    fn one_get_and_one_scan_answer_what_the_reachable_replica_holds() {
        let (mut cloud, app) = small_cloud();
        for _ in 0..6 {
            cloud.begin_epoch();
            cloud.end_epoch();
        }
        cloud.begin_epoch();
        let pid = cloud.rings[0].ring.route(b"r");
        let replicas = cloud.replica_servers(app, 0, pid).unwrap();
        assert!(replicas.len() >= 3);
        // The first replica serves a client-less `One` read, and a
        // read-only one acks nothing: the write lands on the rest.
        cloud.health.set_mode(replicas[0], GrayMode::ReadOnly);
        cloud.put(app, 0, b"r", b"v".to_vec()).unwrap();
        let row = vec![(Bytes::from_static(b"r"), Bytes::from_static(b"v"))];
        let quorum = cloud
            .read_view()
            .scan(app, 0, b"r", 0, None, ReadConsistency::Quorum)
            .unwrap();
        assert_eq!((quorum.entries, quorum.degraded), (row, false));
        // Only the replica that missed the write stays reachable. Both
        // `One` reads answer from it alone, and agree that it holds
        // nothing; neither reads the partitioned stores that hold `v`.
        cloud.health.set_mode(replicas[0], GrayMode::Healthy);
        for &s in &replicas[1..3] {
            cloud.health.set_mode(s, GrayMode::Partitioned);
        }
        let get = cloud
            .client_get_with(app, 0, b"r", None, ReadConsistency::One)
            .unwrap();
        assert_eq!(
            (get.value, get.served_by, get.replicas_read, get.degraded),
            (None, replicas[0], 1, false)
        );
        let one = cloud
            .read_view()
            .scan(app, 0, b"r", 0, None, ReadConsistency::One)
            .unwrap();
        assert_eq!((one.entries, one.degraded), (vec![], false));
        assert_eq!(cloud.get(app, 0, b"r").unwrap(), None);
        assert!(cloud.scan(app, 0, b"r", 0).unwrap().is_empty());
    }

    #[test]
    fn a_read_from_a_server_location_routes_as_from_its_country() {
        // Eq. (4) counts a client by its country, so a read from any real
        // server location (a replica's own among them) is served by the
        // replica, and with the proximity bits, of a read from that
        // country's client zone.
        let (mut cloud, app) = small_cloud();
        for _ in 0..6 {
            cloud.begin_epoch();
            cloud.end_epoch();
        }
        cloud.begin_epoch();
        cloud.put(app, 0, b"g", b"v".to_vec()).unwrap();
        let locations: Vec<Location> = cloud.topology.iter_servers().collect();
        for at in locations {
            let country = Location::client_in_country(at.continent, at.country);
            for consistency in [ReadConsistency::One, ReadConsistency::Quorum] {
                let read = |client| {
                    let r = cloud
                        .client_get_with(app, 0, b"g", Some(client), consistency)
                        .unwrap();
                    (r.served_by, r.proximity.to_bits(), r.value)
                };
                assert_eq!(read(at), read(country), "client at {at}");
            }
        }
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
        cloud.health.set_mode(replicas[0], GrayMode::ReadOnly);
        cloud.put(app, 0, b"g", b"v2".to_vec()).unwrap();
        {
            let p = &cloud.rings[0].partitions[&pid];
            assert_eq!(
                p.replicas[0]
                    .store
                    .get(b"g")
                    .and_then(|r| r.value)
                    .unwrap()
                    .as_ref(),
                b"v1",
                "the read-only replica missed the write"
            );
            assert_eq!(
                p.replicas[1]
                    .store
                    .get(b"g")
                    .and_then(|r| r.value)
                    .unwrap()
                    .as_ref(),
                b"v2"
            );
        }
        // Once the server recovers, a quorum read observes the stale
        // replica, serves the acked value, and schedules its repair.
        cloud.health.set_mode(replicas[0], GrayMode::Healthy);
        let read = cloud
            .client_get_with(app, 0, b"g", None, ReadConsistency::Quorum)
            .unwrap();
        assert_eq!(read.value.unwrap().as_ref(), b"v2", "acked write survives");
        assert_eq!(read.repairs_scheduled, 1);
        cloud.end_epoch();
        let p = &cloud.rings[0].partitions[&pid];
        for r in &p.replicas {
            assert_eq!(
                r.store.get(b"g").and_then(|r| r.value).unwrap().as_ref(),
                b"v2"
            );
        }
    }

    /// [`small_cloud`] in its first epoch with the partition of `key`
    /// raised to `k` replicas: its seed replica plus `k - 1` empty ones on
    /// servers `first, first + 37, …` (mod the fleet, skipping the seed
    /// host). Returns the replica servers in replica order.
    fn raised_cloud(key: &[u8], k: usize, first: u32) -> (SkuteCloud, AppId, Vec<ServerId>) {
        let (mut cloud, app) = small_cloud();
        cloud.begin_epoch();
        let pid = cloud.rings[0].ring.route(key);
        let fleet = cloud.cluster.len() as u32;
        let mut servers = cloud.replica_servers(app, 0, pid).unwrap();
        let mut id = first;
        while servers.len() < k {
            let server = ServerId(id % fleet);
            if !servers.contains(&server) {
                let replica = cloud.new_replica(server, cloud.empty_store());
                let p = cloud.rings[0].partitions.get_mut(&pid).unwrap();
                p.replicas.push(replica);
                servers.push(server);
            }
            id += 37;
        }
        (cloud, app, servers)
    }

    #[test]
    fn acked_write_above_the_sla_count_meets_the_quorum_read() {
        // n = 3, but replication took the partition to k = 5. Three
        // read-only replicas leave two healthy: a write acked there must
        // be seen by the three-replica quorum read of the other three.
        let (mut cloud, app, servers) = raised_cloud(b"k5", 5, 0);
        for &s in &servers[..3] {
            cloud.health.set_mode(s, GrayMode::ReadOnly);
        }
        if cloud.put(app, 0, b"k5", b"v".to_vec()).is_ok() {
            let read = cloud
                .client_get_with(app, 0, b"k5", None, ReadConsistency::Quorum)
                .unwrap();
            assert!(!read.degraded);
            assert_eq!(read.value, Some(Bytes::from_static(b"v")));
        }
    }

    #[test]
    fn write_short_of_a_majority_is_quorum_not_met() {
        let (mut cloud, app, servers) = raised_cloud(b"k5", 5, 0);
        for &s in &servers[..3] {
            cloud.health.set_mode(s, GrayMode::ReadOnly);
        }
        assert_eq!(
            cloud.put(app, 0, b"k5", b"v".to_vec()),
            Err(CoreError::Store(StoreError::QuorumNotMet {
                needed: 3,
                got: 2
            }))
        );
        assert_eq!(
            cloud.end_epoch().insert_failures,
            0,
            "gray servers, not storage, refused the write"
        );
    }

    proptest::proptest! {
        #[test]
        fn prop_acked_writes_meet_every_quorum_read(
            (k, first) in (1usize..13, 0u32..200),
            modes in proptest::collection::vec(0u8..4, 12..13),
            (cut, country, prior) in (
                proptest::option::of(0u16..5),
                proptest::option::of(0usize..10),
                proptest::prelude::any::<bool>(),
            ),
        ) {
            let (mut cloud, app, servers) = raised_cloud(b"p", k, first);
            if cut.is_some() {
                cloud.force_continent_partition(cut);
                cloud.begin_epoch();
            }
            // An older value on every replica that acks it, so a stale
            // read shows as the old value, not only as a miss.
            if prior {
                let _ = cloud.put(app, 0, b"p", b"old".to_vec());
            }
            for (&s, mode) in servers.iter().zip(&modes) {
                let mode = match mode {
                    0 => GrayMode::Healthy,
                    1 => GrayMode::ReadOnly,
                    2 => GrayMode::Slow { units: 2 },
                    _ => GrayMode::Partitioned,
                };
                cloud.health.set_mode(s, mode);
            }
            let client = country.and_then(|c| {
                let (ct, co) = cloud.topology.iter_countries().nth(c)?;
                Some(Location::client_in_country(ct, co))
            });
            let acked = cloud.put(app, 0, b"p", b"new".to_vec()).is_ok();
            let row = (Bytes::from_static(b"p"), Bytes::from_static(b"new"));
            let partition = &cloud.rings[0].partitions[&cloud.rings[0].ring.route(b"p")];
            for at in [None, client] {
                let modes = &modes[..k];
                let case = format!("k = {k}, modes = {modes:?}, cut = {cut:?}, client = {at:?}");
                // The replicas `at` can reach: the only stores a read of
                // it may consult.
                let reachable: Vec<usize> = (0..k)
                    .filter(|&i| {
                        cloud.cluster.get_alive(servers[i]).is_some_and(|server| {
                            cloud.health.reachable(servers[i], &server.location, at)
                        })
                    })
                    .collect();
                let unavailable =
                    |needed| CoreError::Store(StoreError::QuorumNotMet { needed, got: 0 });
                // `One` answers exactly what one reachable replica holds,
                // and reaching none is never an answer.
                match cloud.client_get_with(app, 0, b"p", at, ReadConsistency::One) {
                    Ok(read) => {
                        let i = servers.iter().position(|&s| s == read.served_by).unwrap();
                        proptest::prop_assert!(reachable.contains(&i), "{}", case);
                        proptest::prop_assert_eq!(
                            read.value,
                            partition.replicas[i].store.get(b"p").and_then(|r| r.value),
                            "{}",
                            case
                        );
                    }
                    Err(e) => {
                        proptest::prop_assert!(reachable.is_empty(), "{}", case);
                        proptest::prop_assert_eq!(e, unavailable(1), "{}", case);
                    }
                }
                match cloud.client_get_with(app, 0, b"p", at, ReadConsistency::Quorum) {
                    Ok(read) => {
                        proptest::prop_assert!(!reachable.is_empty(), "{}", case);
                        if acked && !read.degraded {
                            proptest::prop_assert_eq!(read.value, Some(row.1.clone()), "{}", case);
                        }
                    }
                    Err(e) => {
                        proptest::prop_assert!(reachable.is_empty(), "{}", case);
                        proptest::prop_assert_eq!(e, unavailable(majority(k)), "{}", case);
                    }
                }
                let scan = cloud
                    .read_view()
                    .scan(app, 0, b"p", 0, at, ReadConsistency::Quorum)
                    .unwrap();
                if acked && !scan.degraded {
                    proptest::prop_assert!(
                        scan.entries.contains(&row),
                        "scan {:?}: {}",
                        scan.entries,
                        case
                    );
                }
            }
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
            let applied = p.replicas[0]
                .store
                .apply_gated(KEY, future.clone(), |_| true);
            assert_eq!(applied, ApplyOutcome::Applied);
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

    #[test]
    fn hand_built_read_view_answers_like_the_cloud() {
        let (mut cloud, app) = small_cloud();
        cloud.begin_epoch();
        cloud.put(app, 0, b"seam", b"v".to_vec()).unwrap();
        for _ in 0..6 {
            cloud.begin_epoch();
            cloud.end_epoch();
        }
        let pid = cloud.rings[0].ring.route(b"seam");
        let servers = cloud.replica_servers(app, 0, pid).unwrap();
        let home = |cloud: &SkuteCloud, s: ServerId| cloud.cluster.get(s).unwrap().location;
        let inside = home(&cloud, servers[0]);
        let outside = servers[1..]
            .iter()
            .map(|&s| home(&cloud, s))
            .find(|l| l.continent != inside.continent)
            .expect("SLA replicas span continents");
        for cut in [None, Some(inside.continent)] {
            cloud.force_continent_partition(cut);
            cloud.begin_epoch();
            assert_eq!(cloud.health.cut(), cut);
            // Everything a read may consult, and nothing else.
            let view = ReadView {
                apps: &cloud.apps,
                rings: &cloud.rings,
                cluster: &cloud.cluster,
                topology: &cloud.topology,
                health: &cloud.health,
                repair_queue: &cloud.repair_queue,
                metrics: None,
            };
            for consistency in [ReadConsistency::One, ReadConsistency::Quorum] {
                for client in [None, Some(inside), Some(outside)] {
                    let direct = cloud
                        .client_get_with(app, 0, b"seam", client, consistency)
                        .unwrap();
                    let seam = view
                        .client_get_with(app, 0, b"seam", client, consistency)
                        .unwrap();
                    assert_eq!(direct, seam);
                    assert_eq!(direct.value.unwrap().as_ref(), b"v");
                    if let Some(c) = client.filter(|_| !direct.degraded) {
                        let served = home(&cloud, direct.served_by).continent;
                        assert_eq!(
                            Some(served) == cut,
                            Some(c.continent) == cut,
                            "a read never crosses the cut"
                        );
                    }
                }
            }
            cloud.end_epoch();
        }
        assert!(matches!(
            cloud
                .read_view()
                .client_get_with(app, 9, b"seam", None, ReadConsistency::One),
            Err(CoreError::UnknownLevel)
        ));
    }
}
