//! The three actions a virtual node can take (§II-C) — replicate, migrate,
//! suicide — executed against the live capacity meters. All-or-nothing:
//! an action either debits everything it needs or changes nothing.

use skute_cluster::{Cluster, ServerId};

use crate::vnode::{PartitionState, Replica, VnodeId};

/// Outcome of an executed transfer: `logical` is the size the economy
/// prices and the capacity meters debit (identical across backends);
/// `measured` is what the storage backend physically streamed (equal to
/// `logical` for the mem oracle, real WAL + SSTable bytes for LSM).
#[derive(Debug, Clone, Copy)]
pub(super) struct Transfer {
    pub(crate) logical: u64,
    pub(crate) measured: u64,
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
pub(super) fn exec_replication(
    cluster: &mut Cluster,
    partition: &mut PartitionState,
    target: ServerId,
    vnode: VnodeId,
    window: usize,
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
    let mut replica = Replica::new(vnode, target, window);
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
pub(super) fn exec_migration(
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
pub(super) fn exec_suicide(cluster: &mut Cluster, partition: &mut PartitionState, idx: usize) {
    let replica = partition.replicas.remove(idx);
    let size = partition.synthetic_bytes + replica.store.logical_bytes();
    if let Some(s) = cluster.get_mut(replica.server) {
        s.usage.release_storage(size);
    }
    partition.note_membership_changed();
}
