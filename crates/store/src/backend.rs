//! The storage boundary: the [`BackendKind`] selector and [`ReplicaStore`]
//! — the enum-dispatched store every replica carries, and the one place
//! the two engines are told apart.
//!
//! * [`PartitionStore`] — the in-memory `BTreeMap` engine: the fast default
//!   and the bit-exact oracle. Its "physical" footprint *is* its logical
//!   footprint, which is exactly the oracle-parity contract: under the mem
//!   backend, measured transfer bytes equal the logical sizes the economic
//!   model always priced.
//! * [`LsmStore`] — the durable WAL + memtable + SSTable
//!   engine. Its physical footprint is real file bytes, and replica
//!   transfers stream those bytes.
//!
//! Everything the simulation *decides* on — apply gating, logical byte
//! accounting, stored contents — is bit-identical across backends, which
//! is what keeps `--backend lsm` runs byte-identical to the in-memory
//! default (CI compares them). Only durability and the *measured* transfer
//! counters differ.

use std::fmt;
use std::str::FromStr;
use std::sync::Arc;

use bytes::Bytes;
use parking_lot::Mutex;
use skute_ring::{KeyHasher, KeyRange};

use crate::engine::{ApplyOutcome, PartitionStore};
use crate::faults::{FaultPlan, FaultStats};
use crate::lsm::{LsmStore, StorageActivity};
use crate::shared::CowPartitionStore;
use crate::value::Record;

/// Which storage engine a cloud's replicas run on.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum BackendKind {
    /// In-memory `BTreeMap` engine — fast default and bit-exact oracle.
    #[default]
    Mem,
    /// Durable log-structured engine (WAL + memtable + SSTables).
    Lsm,
}

impl BackendKind {
    /// Stable lowercase name (`mem` / `lsm`), as accepted by
    /// `skute-sim --backend`.
    pub fn as_str(self) -> &'static str {
        match self {
            BackendKind::Mem => "mem",
            BackendKind::Lsm => "lsm",
        }
    }
}

impl fmt::Display for BackendKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

impl FromStr for BackendKind {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "mem" => Ok(BackendKind::Mem),
            "lsm" => Ok(BackendKind::Lsm),
            other => Err(format!("unknown backend {other:?} (expected mem|lsm)")),
        }
    }
}

/// The store a replica actually carries: enum dispatch over the two
/// engines, so `Replica` stays object-safe, `Clone`able, and free of viral
/// generics.
///
/// `Clone` is cheap for both variants (an `Arc` bump) and **shares**
/// storage with the original. Replication must go through
/// [`ReplicaStore::fork`], which produces an independent copy and reports
/// the bytes physically moved.
#[derive(Debug, Clone)]
pub enum ReplicaStore {
    /// Copy-on-write in-memory engine.
    Mem(CowPartitionStore),
    /// Durable LSM engine behind a mutex: writes, flushes and forks need
    /// exclusive access (point reads are positional and take `&self`).
    Lsm(Arc<Mutex<LsmStore>>),
}

impl Default for ReplicaStore {
    fn default() -> Self {
        ReplicaStore::Mem(CowPartitionStore::new())
    }
}

impl ReplicaStore {
    /// A fresh, empty store of the requested kind.
    pub fn open(kind: BackendKind) -> Self {
        Self::open_with(kind, FaultPlan::none())
    }

    /// A fresh, empty store of the requested kind, running under `plan`
    /// (the mem oracle has no IO path and ignores it).
    pub fn open_with(kind: BackendKind, plan: FaultPlan) -> Self {
        match kind {
            BackendKind::Mem => ReplicaStore::Mem(CowPartitionStore::new()),
            BackendKind::Lsm => {
                ReplicaStore::Lsm(Arc::new(Mutex::new(LsmStore::create_with(plan))))
            }
        }
    }

    /// Which engine this store runs on.
    pub fn kind(&self) -> BackendKind {
        match self {
            ReplicaStore::Mem(_) => BackendKind::Mem,
            ReplicaStore::Lsm(_) => BackendKind::Lsm,
        }
    }

    /// Version-gated write; returns `true` when the store changed.
    pub fn apply(&mut self, key: impl Into<Bytes>, record: Record) -> bool {
        self.apply_gated(key, record, |_| true) == ApplyOutcome::Applied
    }

    /// Applies `record` under `key` if its version dominates the stored
    /// one **and** `admit` lets it in, on a single lookup: `admit` sees the
    /// logical size (key + record) of the entry the write would displace —
    /// `None` for a fresh key — and a veto leaves the store, and the LSM
    /// engine's log, untouched.
    pub fn apply_gated(
        &mut self,
        key: impl Into<Bytes>,
        record: Record,
        admit: impl FnOnce(Option<u64>) -> bool,
    ) -> ApplyOutcome {
        let key = key.into();
        match self {
            ReplicaStore::Mem(s) => {
                // Gate on the shared view: only an admitted write may
                // detach copy-on-write storage.
                let displaced = match s.get(&key) {
                    Some(existing) if record.version <= existing.version => {
                        return ApplyOutcome::Stale;
                    }
                    existing => existing.map(|e| key.len() as u64 + e.logical_size),
                };
                if !admit(displaced) {
                    return ApplyOutcome::Vetoed;
                }
                s.make_mut().apply(key, record);
                ApplyOutcome::Applied
            }
            ReplicaStore::Lsm(s) => s.lock().apply_gated(key, record, admit),
        }
    }

    /// The record stored under `key`, tombstones included.
    pub fn get(&self, key: &[u8]) -> Option<Record> {
        match self {
            ReplicaStore::Mem(s) => s.get(key).cloned(),
            ReplicaStore::Lsm(s) => s.lock().get(key),
        }
    }

    /// The live value under `key` (`None` for absent keys and tombstones).
    pub fn get_value(&self, key: &[u8]) -> Option<Bytes> {
        match self {
            ReplicaStore::Mem(s) => s.get_value(key).cloned(),
            ReplicaStore::Lsm(s) => s.lock().get_value(key),
        }
    }

    /// Number of keys (including tombstones).
    pub fn len(&self) -> usize {
        match self {
            ReplicaStore::Mem(s) => s.len(),
            ReplicaStore::Lsm(s) => s.lock().len(),
        }
    }

    /// True when no keys are stored.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Logical bytes stored — identical across backends for the same
    /// write history; this is what the economic model prices and the CSV
    /// reports.
    pub fn logical_bytes(&self) -> u64 {
        match self {
            ReplicaStore::Mem(s) => s.logical_bytes(),
            ReplicaStore::Lsm(s) => s.lock().logical_bytes(),
        }
    }

    /// Bytes a transfer of this replica physically moves (logical bytes
    /// for the mem oracle, WAL + SSTable file bytes for the LSM engine).
    pub fn physical_bytes(&self) -> u64 {
        match self {
            ReplicaStore::Mem(s) => s.logical_bytes(),
            ReplicaStore::Lsm(s) => s.lock().physical_bytes(),
        }
    }

    /// True when both handles share the same underlying storage (a mem
    /// fork does; an LSM fork never does).
    pub fn shares_storage_with(&self, other: &ReplicaStore) -> bool {
        match (self, other) {
            (ReplicaStore::Mem(a), ReplicaStore::Mem(b)) => a.shares_storage_with(b),
            (ReplicaStore::Lsm(a), ReplicaStore::Lsm(b)) => Arc::ptr_eq(a, b),
            _ => false,
        }
    }

    /// Materializes the contents as an in-memory [`PartitionStore`].
    pub fn snapshot(&self) -> PartitionStore {
        match self {
            ReplicaStore::Mem(s) => (**s).clone(),
            ReplicaStore::Lsm(s) => s.lock().snapshot(),
        }
    }

    /// Merges clones of this store's entries into `dst`.
    pub fn merge_into(&self, dst: &mut PartitionStore) {
        match self {
            ReplicaStore::Mem(s) => dst.merge_from(s),
            ReplicaStore::Lsm(s) => {
                s.lock().for_each(&mut |key, record| {
                    let _ = dst.apply(key.clone(), record.clone());
                });
            }
        }
    }

    /// Merges clones of an in-memory store's entries into `self`.
    pub fn merge_from(&mut self, src: &PartitionStore) {
        match self {
            ReplicaStore::Mem(s) => s.make_mut().merge_from(src),
            ReplicaStore::Lsm(s) => s.lock().merge_from(src),
        }
    }

    /// Moves every key whose ring token falls in `high` into a returned
    /// sibling store of the same kind.
    pub fn split_off(&mut self, hasher: KeyHasher, high: KeyRange) -> ReplicaStore {
        match self {
            ReplicaStore::Mem(s) => {
                let high_store = s.make_mut().split_off(hasher, high);
                ReplicaStore::Mem(CowPartitionStore::from_store(high_store))
            }
            ReplicaStore::Lsm(s) => {
                let high_store = s.lock().split_off(hasher, high);
                ReplicaStore::Lsm(Arc::new(Mutex::new(high_store)))
            }
        }
    }

    /// An independent copy for replication, plus the physically measured
    /// bytes the copy moved — `None` for the mem oracle (the caller prices
    /// the transfer at the logical size, which is the same number).
    pub fn fork(&self) -> (ReplicaStore, Option<u64>) {
        match self {
            ReplicaStore::Mem(s) => (ReplicaStore::Mem(s.clone()), None),
            ReplicaStore::Lsm(s) => {
                let (forked, copied) = s.lock().fork();
                (
                    ReplicaStore::Lsm(Arc::new(Mutex::new(forked))),
                    Some(copied),
                )
            }
        }
    }

    /// Physically measured bytes a migration of this replica moves —
    /// `None` for the mem oracle (logical size applies).
    pub fn measured_transfer(&self) -> Option<u64> {
        match self {
            ReplicaStore::Mem(_) => None,
            ReplicaStore::Lsm(s) => Some(s.lock().physical_bytes()),
        }
    }

    /// Makes all accepted writes durable (no-op for the mem engine).
    pub fn flush(&mut self) {
        if let ReplicaStore::Lsm(s) = self {
            s.lock().flush();
        }
    }

    /// Re-verifies every on-disk checksum (a real scrub read on durable
    /// engines), quarantining the store on persistent corruption. Returns
    /// `true` when healthy; the mem oracle always is.
    pub fn verify(&mut self) -> bool {
        match self {
            ReplicaStore::Mem(_) => true,
            ReplicaStore::Lsm(s) => s.lock().verify(),
        }
    }

    /// Counters of injected faults recovered from (`None` for the mem
    /// oracle, which has no IO path to fault).
    pub fn fault_stats(&self) -> Option<FaultStats> {
        match self {
            ReplicaStore::Mem(_) => None,
            ReplicaStore::Lsm(s) => Some(s.lock().fault_stats()),
        }
    }

    /// Cumulative engine-activity counters (`None` for the mem oracle,
    /// which has no WAL, flushes, or compactions). Observability only.
    pub fn activity(&self) -> Option<StorageActivity> {
        match self {
            ReplicaStore::Mem(_) => None,
            ReplicaStore::Lsm(s) => Some(s.lock().activity()),
        }
    }

    /// Visits every entry in key order (tombstones included).
    pub fn for_each(&self, f: &mut dyn FnMut(&Bytes, &Record)) {
        match self {
            ReplicaStore::Mem(s) => s.iter().for_each(|(key, record)| f(key, record)),
            ReplicaStore::Lsm(s) => s.lock().for_each(f),
        }
    }

    /// Deliberately corrupts the newest sorted run (the fault-injection
    /// helper forging persistent corruption); `false` for the mem oracle
    /// or a store without runs.
    pub fn corrupt_newest_run(&mut self) -> bool {
        match self {
            ReplicaStore::Mem(_) => false,
            ReplicaStore::Lsm(s) => s.lock().corrupt_newest_run(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::value::Version;
    use skute_ring::Token;

    fn seeded(kind: BackendKind) -> ReplicaStore {
        let mut store = ReplicaStore::open(kind);
        for i in 0..100u32 {
            let key = format!("key-{i:04}").into_bytes();
            let record = Record::put(
                format!("value-{i}").into_bytes(),
                Version::new(1 + u64::from(i % 4), 0, 0),
            );
            assert!(store.apply(key, record));
        }
        store
    }

    /// Every `(key, record)` pair a store holds, in key order.
    fn entries(store: &PartitionStore) -> Vec<(Bytes, Record)> {
        store
            .iter()
            .map(|(key, record)| (key.clone(), record.clone()))
            .collect()
    }

    /// A ring split conserves keys, bytes and entries under both
    /// backends: the two halves merged are the store before the split.
    #[test]
    fn split_halves_merge_back_to_the_store_both_backends() {
        let hasher = KeyHasher::default();
        for kind in [BackendKind::Mem, BackendKind::Lsm] {
            let mut store = seeded(kind);
            let before_len = store.len();
            let before_bytes = store.logical_bytes();
            let before = entries(&store.snapshot());

            let high = KeyRange::new(Token(0), Token(u64::MAX / 2));
            let high_store = store.split_off(hasher, high);
            assert_eq!(high_store.kind(), kind, "split preserves the backend");
            assert!(
                !high_store.is_empty() && !store.is_empty(),
                "100 hashed keys land on both sides of a half-ring cut"
            );
            assert_eq!(
                store.len() + high_store.len(),
                before_len,
                "{kind}: split conserves key count"
            );
            assert_eq!(
                store.logical_bytes() + high_store.logical_bytes(),
                before_bytes,
                "{kind}: split conserves logical bytes"
            );

            let mut merged = store.snapshot();
            merged.merge_from(&high_store.snapshot());
            assert_eq!(merged.len(), before_len, "{kind}: merge restores count");
            assert_eq!(
                merged.logical_bytes(),
                before_bytes,
                "{kind}: merge restores bytes"
            );
            assert_eq!(
                entries(&merged),
                before,
                "{kind}: merge restores every entry"
            );
        }
    }

    /// `merge_from` an in-memory store round-trips under both backends
    /// and reproduces the source's entries exactly.
    #[test]
    fn merge_from_converges_both_backends() {
        let mut source = PartitionStore::new();
        for i in 0..40u32 {
            source.apply(
                format!("m-{i}").into_bytes(),
                Record::put(&b"merged"[..], Version::new(7, u64::from(i), 1)),
            );
        }
        for kind in [BackendKind::Mem, BackendKind::Lsm] {
            let mut store = seeded(kind);
            store.merge_from(&source);
            let mut expected = store.snapshot();
            expected.merge_from(&source); // idempotent: already merged
            assert_eq!(expected.len(), store.len(), "{kind}");
            // A store merged from the source alone holds exactly its entries.
            let mut only_source = ReplicaStore::open(kind);
            only_source.merge_from(&source);
            assert_eq!(
                entries(&only_source.snapshot()),
                entries(&source),
                "{kind}: merge_from reproduces the source entries"
            );
        }
    }

    #[test]
    fn backends_agree_bit_for_bit_on_same_history() {
        let mem = seeded(BackendKind::Mem);
        let lsm = seeded(BackendKind::Lsm);
        assert_eq!(mem.len(), lsm.len());
        assert_eq!(mem.logical_bytes(), lsm.logical_bytes());
        assert_eq!(entries(&mem.snapshot()), entries(&lsm.snapshot()));
        // Oracle parity: mem measures transfers at exactly logical size.
        assert_eq!(mem.physical_bytes(), mem.logical_bytes());
        let (fork, measured) = mem.fork();
        assert!(measured.is_none());
        assert!(fork.shares_storage_with(&mem), "mem fork is a COW share");
        let (lsm_fork, lsm_measured) = lsm.fork();
        assert_eq!(lsm_measured, Some(lsm.physical_bytes()));
        assert!(!lsm_fork.shares_storage_with(&lsm), "lsm fork is a copy");
        assert_eq!(lsm_fork.logical_bytes(), lsm.logical_bytes());
    }

    #[test]
    fn backend_kind_parses_round_trip() {
        for kind in [BackendKind::Mem, BackendKind::Lsm] {
            assert_eq!(kind.as_str().parse::<BackendKind>(), Ok(kind));
        }
        assert!("rocksdb".parse::<BackendKind>().is_err());
        assert_eq!(BackendKind::default(), BackendKind::Mem);
    }
}
