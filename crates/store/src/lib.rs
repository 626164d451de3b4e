//! # skute-store
//!
//! The key-value storage substrate of Skute: versioned records and
//! pluggable per-replica storage engines with byte accounting.
//!
//! The paper builds on a Dynamo-like design (§I, ref. \[5\]): data is
//! identified by keys, partitions hold key ranges, replicas of a partition
//! each hold a full copy. Skute's contribution is *where replicas live*, not
//! a new consistency protocol, so this crate keeps the storage model simple
//! and well-tested:
//!
//! * [`Version`] — totally ordered `(epoch, seq, writer)` stamps with
//!   last-writer-wins (LWW) merge,
//! * [`Record`] — a value or tombstone plus its version and a *logical size*
//!   (simulated payloads can weigh 500 KB for capacity accounting while
//!   carrying no actual bytes, which is how the saturation experiment of
//!   Fig. 5 scales on a laptop),
//! * [`PartitionStore`] — the in-memory engine: the fast default and the
//!   bit-exact oracle (its physical footprint *is* its logical footprint),
//! * [`LsmStore`] — the durable engine: WAL append + replay, `BTreeMap`
//!   memtable, size-triggered SSTable flushes with sparse indexes and
//!   bloom filters, a newest-first leveled read path of positional block
//!   reads, and size-tiered compaction — with
//!   CRC32-checked records, torn-tail truncation on replay, and
//!   quarantine of unrecoverable corruption,
//! * [`faults`] — seeded, deterministic storage-fault injection
//!   ([`FaultPlan`] / [`FaultInjector`]): torn WAL tails, failed fsyncs,
//!   partial flushes, mid-copy aborts and transient read flips, all
//!   transient by construction and repaired by bounded retries,
//! * [`ReplicaStore`] — the enum-dispatched store a replica carries
//!   ([`BackendKind::Mem`] or [`BackendKind::Lsm`]) and the one contract
//!   both engines fulfil: version-gated `apply` (and its admission-gated
//!   form `apply_gated`), point `get`, ordered iteration, ring-aware
//!   `split_off`, `flush`, explicit [`ReplicaStore::fork`] for
//!   replication that reports measured bytes, and *two* byte-accounting
//!   hooks — `logical_bytes` (what the economic model prices; bit-identical
//!   across engines) and `physical_bytes` (what a transfer really moves),
//! * [`CowPartitionStore`] — the copy-on-write handle behind
//!   [`ReplicaStore::Mem`].

#![warn(missing_docs)]

pub mod backend;
pub mod engine;
pub mod error;
pub mod faults;
pub mod lsm;
pub mod value;

mod shared;

pub use backend::{BackendKind, ReplicaStore};
pub use engine::{ApplyOutcome, PartitionStore};
pub use error::StoreError;
pub use faults::{FaultInjector, FaultPlan, FaultPlanKind, FaultStats};
pub use lsm::{LsmStore, StorageActivity};
pub use shared::CowPartitionStore;
pub use value::{Record, Version};
