//! Deterministic storage-fault injection: seeded [`FaultPlan`]s and the
//! per-store `FaultInjector` the LSM engine consults inside its IO path.
//!
//! The paper's availability claims are only meaningful if the substrate
//! survives the failures it models, so faults here are a first-class,
//! *reproducible* workload rather than ad-hoc test scaffolding:
//!
//! * a [`FaultPlan`] is a `Copy` value — a named fault family
//!   ([`FaultPlanKind`]) plus a 64-bit seed — carried by the cloud
//!   configuration and inherited by every store a replica forks or splits
//!   off;
//! * each [`LsmStore`](crate::LsmStore) with an active plan owns a
//!   `FaultInjector`: a counter-based splitmix64 stream derived from the
//!   plan seed and a per-store identity, so fault decisions depend only on
//!   the plan and the (deterministic, main-thread) order of store
//!   creations — never on wall clock, thread scheduling, or pointer
//!   addresses;
//! * every injected fault is **transient by construction**: the injector
//!   caps consecutive faults at one hook (`MAX_CONSECUTIVE_FAULTS`) below
//!   the engine's bounded retry budget, so recovery always converges and
//!   the *logical* state of a faulted store stays bit-identical to an
//!   unfaulted run. Degradation surfaces only in physical-IO statistics
//!   ([`FaultStats`]) and in the `measured_*` transfer bytes the economics
//!   observe.
//!
//! The module also hosts the IEEE CRC32 used by the WAL-record and
//! SSTable-entry checksums (`crc32`).

use std::fmt;
use std::str::FromStr;
use std::sync::atomic::{AtomicU64, Ordering};

/// Named fault families selectable via `skute-sim --fault-plan`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum FaultPlanKind {
    /// No faults (the default): the injector is never constructed.
    #[default]
    None,
    /// WAL appends tear: only a prefix of the record reaches the log
    /// before the append is reported as failed; the engine truncates the
    /// torn tail back to the acked offset and retries.
    TornTails,
    /// WAL appends are reported as failed after the whole record was
    /// written (the name is historical: the append path has no fsync);
    /// the engine treats the record as unacked, rewinds, and retries.
    FlakyFsync,
    /// SSTable flushes tear partway through the run; the engine discards
    /// the partial file and rewrites it.
    PartialFlush,
    /// Verification scans see transient bit flips (checksum mismatches on
    /// otherwise-clean files); the engine re-reads.
    BitFlips,
    /// Every **storage** fault family above at once.
    All,
    /// Gray failures: per-server degraded modes per epoch window —
    /// servers that serve reads but fail writes (`read_only`), respond
    /// slowly (`slow`), or sit behind a network cut (`partitioned`) — plus
    /// a rotating continental split. No storage faults are injected:
    /// `skute_core::health` derives the modes from the plan seed (through
    /// [`splitmix64`]) and degradation surfaces through the confidence
    /// score, write acks and the serving path's reachability instead of
    /// through IO.
    Gray,
    /// Network partition only: one continent per epoch window is cut off
    /// from the rest of the cloud (derived by `skute_core::health` from
    /// the plan seed); servers stay individually healthy.
    Partition,
}

impl FaultPlanKind {
    /// Stable lowercase name, as accepted by `skute-sim --fault-plan`.
    pub fn as_str(self) -> &'static str {
        match self {
            FaultPlanKind::None => "none",
            FaultPlanKind::TornTails => "torn-tails",
            FaultPlanKind::FlakyFsync => "flaky-fsync",
            FaultPlanKind::PartialFlush => "partial-flush",
            FaultPlanKind::BitFlips => "bit-flips",
            FaultPlanKind::All => "all",
            FaultPlanKind::Gray => "gray",
            FaultPlanKind::Partition => "partition",
        }
    }
}

impl fmt::Display for FaultPlanKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

impl FromStr for FaultPlanKind {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "none" => Ok(FaultPlanKind::None),
            "torn-tails" => Ok(FaultPlanKind::TornTails),
            "flaky-fsync" => Ok(FaultPlanKind::FlakyFsync),
            "partial-flush" => Ok(FaultPlanKind::PartialFlush),
            "bit-flips" => Ok(FaultPlanKind::BitFlips),
            "all" => Ok(FaultPlanKind::All),
            "gray" => Ok(FaultPlanKind::Gray),
            "partition" => Ok(FaultPlanKind::Partition),
            other => Err(format!(
                "unknown fault plan {other:?} (expected \
                 none|torn-tails|flaky-fsync|partial-flush|bit-flips|all\
                 |gray|partition)"
            )),
        }
    }
}

/// A seeded, deterministic storage-fault plan: which fault family to
/// inject and the seed every per-store injector stream derives from.
/// `Copy` so it rides inside the (also `Copy`) cloud configuration and is
/// inherited verbatim by forked and split-off stores.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct FaultPlan {
    /// The fault family to inject.
    pub kind: FaultPlanKind,
    /// Seed of the injector streams (mixed with a per-store identity).
    pub seed: u64,
}

impl FaultPlan {
    /// The inert plan: no faults, no injector.
    pub fn none() -> Self {
        Self::default()
    }

    /// A plan injecting every fault family, seeded with `seed`.
    #[cfg(test)]
    pub(crate) fn all(seed: u64) -> Self {
        Self {
            kind: FaultPlanKind::All,
            seed,
        }
    }

    /// True when the plan injects faults into the storage IO path (and
    /// the LSM engine therefore needs an injector). Gray and partition
    /// plans degrade servers and links, never bytes on disk.
    pub(crate) fn has_storage_faults(&self) -> bool {
        matches!(
            self.kind,
            FaultPlanKind::TornTails
                | FaultPlanKind::FlakyFsync
                | FaultPlanKind::PartialFlush
                | FaultPlanKind::BitFlips
                | FaultPlanKind::All
        )
    }

    /// True when the plan degrades individual servers.
    pub fn gray_failures(&self) -> bool {
        self.kind == FaultPlanKind::Gray
    }

    /// True when the plan cuts one continent off per epoch window. The
    /// gray plan includes the split so one axis exercises the full
    /// taxonomy; the partition plan is the split alone.
    pub fn continental_partitions(&self) -> bool {
        matches!(self.kind, FaultPlanKind::Gray | FaultPlanKind::Partition)
    }

    /// True when the plan injects the storage fault `family`.
    pub(crate) fn injects(&self, family: FaultPlanKind) -> bool {
        self.kind == family || self.kind == FaultPlanKind::All
    }
}

/// Counters of every fault the engine injected, detected, and recovered
/// from. Observability only: none of these feed decisions or the CSV.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FaultStats {
    /// WAL appends retried after an injected tear or failed append.
    pub wal_retries: u64,
    /// SSTable flushes retried after an injected partial write.
    pub flush_retries: u64,
    /// Verification scans retried after an injected bit flip.
    pub read_retries: u64,
    /// Replica-fork copies retried after an injected mid-copy abort.
    pub fork_retries: u64,
    /// Torn WAL tails truncated away during replay (crash recovery and
    /// in-path tear repair both count here).
    pub torn_wal_tails_repaired: u64,
    /// Partial sorted runs discarded at open (unfinished flush or
    /// compaction; their entries are still covered by the WAL or the
    /// older runs).
    pub partial_runs_discarded: u64,
    /// Simulated deterministic-backoff units accumulated across retries
    /// (exponential per attempt; no wall clock is ever slept).
    pub backoff_steps: u64,
}

impl FaultStats {
    /// Total injected-fault retries across all hooks.
    #[cfg(test)]
    pub(crate) fn total_retries(&self) -> u64 {
        self.wal_retries + self.flush_retries + self.read_retries + self.fork_retries
    }

    /// Folds another store's counters into this one (fleet-wide totals).
    pub fn absorb(&mut self, other: &FaultStats) {
        self.wal_retries += other.wal_retries;
        self.flush_retries += other.flush_retries;
        self.read_retries += other.read_retries;
        self.fork_retries += other.fork_retries;
        self.torn_wal_tails_repaired += other.torn_wal_tails_repaired;
        self.partial_runs_discarded += other.partial_runs_discarded;
        self.backoff_steps += other.backoff_steps;
    }
}

/// Ceiling on consecutive faults the injector reports at any single hook;
/// the next draw after the ceiling is forcibly clean, so an engine retry
/// loop with a budget above this bound always converges.
pub(crate) const MAX_CONSECUTIVE_FAULTS: u32 = 2;

/// Process-wide store-identity counter. Stores with an active plan are
/// only ever constructed on the simulation's main thread (creation,
/// replication forks and splits all run in sequential phases), so the
/// identity sequence — and with it every injector stream — is
/// deterministic for a given run.
static FAULT_IDENTITY: AtomicU64 = AtomicU64::new(0);

/// The splitmix64 finalizer every fault stream mixes its seed through —
/// the per-store injectors here and the per-server, per-window gray
/// derivation in `skute_core::health`.
pub fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = x;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The per-store fault source: a counter-based splitmix64 stream over the
/// plan seed and a store identity. Every hook draws from the same stream,
/// so the fault sequence is a pure function of `(plan, identity, call
/// order)`.
#[derive(Debug, Clone)]
pub(crate) struct FaultInjector {
    plan: FaultPlan,
    stream: u64,
    counter: u64,
    consecutive: u32,
}

impl FaultInjector {
    /// An injector for the store with the given identity.
    pub(crate) fn new(plan: FaultPlan, identity: u64) -> Self {
        Self {
            plan,
            stream: splitmix64(plan.seed ^ splitmix64(identity)),
            counter: 0,
            consecutive: 0,
        }
    }

    /// An injector for the next store in process creation order (the
    /// simulation path; see `FAULT_IDENTITY`).
    pub(crate) fn for_next_store(plan: FaultPlan) -> Self {
        Self::new(plan, FAULT_IDENTITY.fetch_add(1, Ordering::Relaxed))
    }

    fn draw(&mut self) -> u64 {
        let v = splitmix64(self.stream ^ self.counter);
        self.counter += 1;
        v
    }

    /// One bounded fault decision: reports a fault roughly one draw in
    /// `period`, never more than [`MAX_CONSECUTIVE_FAULTS`] times in a
    /// row.
    fn fault(&mut self, period: u64) -> bool {
        if self.consecutive >= MAX_CONSECUTIVE_FAULTS {
            self.consecutive = 0;
            let _ = self.draw(); // keep the stream position hook-independent
            return false;
        }
        let hit = self.draw() % period == 0;
        if hit {
            self.consecutive += 1;
        } else {
            self.consecutive = 0;
        }
        hit
    }

    /// Consulted before every WAL append of `len` encoded bytes. `Some(p)`
    /// means the append faults after `p` bytes physically reach the log:
    /// `p < len` is a torn tail, `p == len` a record that landed whole but
    /// whose append was reported as failed — either way the record is
    /// unacked and the engine must truncate back and retry.
    pub(crate) fn wal_append_fault(&mut self, len: usize) -> Option<usize> {
        let torn = self.plan.injects(FaultPlanKind::TornTails);
        let flaky = self.plan.injects(FaultPlanKind::FlakyFsync);
        if (!torn && !flaky) || !self.fault(8) {
            return None;
        }
        if torn && (!flaky || self.draw() % 2 == 0) {
            Some((self.draw() % len.max(1) as u64) as usize)
        } else {
            Some(len)
        }
    }

    /// Consulted before every sorted-run write of `total` encoded bytes.
    /// `Some(n)` tears the run after `n` bytes; the engine discards the
    /// partial file and rewrites.
    pub(crate) fn flush_fault(&mut self, total: u64) -> Option<u64> {
        if !self.plan.injects(FaultPlanKind::PartialFlush) || !self.fault(4) {
            return None;
        }
        Some(self.draw() % total.max(1))
    }

    /// Consulted per verification scan: true simulates a transient bit
    /// flip (a checksum mismatch on an otherwise-clean file); the engine
    /// re-reads.
    pub(crate) fn read_flip(&mut self) -> bool {
        self.plan.injects(FaultPlanKind::BitFlips) && self.fault(6)
    }

    /// Consulted before every replica-fork copy of `total` physical
    /// bytes. `Some(n)` aborts the copy after `n` bytes; the engine
    /// deletes the partial destination and restarts, and every attempted
    /// byte counts into the measured transfer volume.
    pub(crate) fn fork_fault(&mut self, total: u64) -> Option<u64> {
        if total == 0 || !self.plan.has_storage_faults() || !self.fault(4) {
            return None;
        }
        Some(self.draw() % total)
    }
}

/// IEEE CRC32 lookup table (reflected polynomial `0xEDB88320`), built at
/// compile time.
const CRC_TABLE: [u32; 256] = crc_table();

const fn crc_table() -> [u32; 256] {
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 {
                0xEDB8_8320 ^ (c >> 1)
            } else {
                c >> 1
            };
            k += 1;
        }
        table[i] = c;
        i += 1;
    }
    table
}

/// IEEE CRC32 of `bytes` (the checksum guarding every WAL record and
/// SSTable entry).
pub(crate) fn crc32(bytes: &[u8]) -> u32 {
    let mut c = 0xFFFF_FFFFu32;
    for &b in bytes {
        c = CRC_TABLE[((c ^ u32::from(b)) & 0xFF) as usize] ^ (c >> 8);
    }
    c ^ 0xFFFF_FFFF
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crc32_matches_known_vectors() {
        // Standard IEEE check values.
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b"a"), 0xE8B7_BE43);
    }

    #[test]
    fn crc32_detects_single_bit_flips() {
        let data = b"the quick brown fox jumps over the lazy dog";
        let clean = crc32(data);
        let mut flipped = data.to_vec();
        for i in 0..flipped.len() {
            for bit in 0..8 {
                flipped[i] ^= 1 << bit;
                assert_ne!(crc32(&flipped), clean, "flip at byte {i} bit {bit}");
                flipped[i] ^= 1 << bit;
            }
        }
    }

    #[test]
    fn plan_kinds_parse_round_trip() {
        for kind in [
            FaultPlanKind::None,
            FaultPlanKind::TornTails,
            FaultPlanKind::FlakyFsync,
            FaultPlanKind::PartialFlush,
            FaultPlanKind::BitFlips,
            FaultPlanKind::All,
            FaultPlanKind::Gray,
            FaultPlanKind::Partition,
        ] {
            assert_eq!(kind.as_str().parse::<FaultPlanKind>(), Ok(kind));
        }
        assert!("chaos".parse::<FaultPlanKind>().is_err());
        assert_eq!(FaultPlan::none().kind, FaultPlanKind::None);
        assert_eq!(FaultPlan::all(7).kind, FaultPlanKind::All);
    }

    #[test]
    fn gray_plans_inject_no_storage_faults() {
        let gray = FaultPlan {
            kind: FaultPlanKind::Gray,
            seed: 11,
        };
        let partition = FaultPlan {
            kind: FaultPlanKind::Partition,
            seed: 11,
        };
        for plan in [gray, partition] {
            assert!(!plan.has_storage_faults());
            assert!(!plan.injects(FaultPlanKind::TornTails));
            assert!(!plan.injects(FaultPlanKind::FlakyFsync));
            assert!(!plan.injects(FaultPlanKind::PartialFlush));
            assert!(!plan.injects(FaultPlanKind::BitFlips));
            let mut inj = FaultInjector::new(plan, 0);
            for _ in 0..1000 {
                assert!(inj.wal_append_fault(64).is_none());
                assert!(inj.flush_fault(64).is_none());
                assert!(!inj.read_flip());
                assert!(inj.fork_fault(64).is_none());
            }
        }
        assert!(FaultPlan::all(7).has_storage_faults());
        assert!(gray.gray_failures() && gray.continental_partitions());
        assert!(!partition.gray_failures() && partition.continental_partitions());
        assert!(!FaultPlan::all(7).gray_failures());
        assert!(!FaultPlan::all(7).continental_partitions());
    }

    #[test]
    fn all_plan_enables_every_family() {
        let plan = FaultPlan::all(1);
        assert!(plan.injects(FaultPlanKind::TornTails));
        assert!(plan.injects(FaultPlanKind::FlakyFsync));
        assert!(plan.injects(FaultPlanKind::PartialFlush));
        assert!(plan.injects(FaultPlanKind::BitFlips));
        let torn = FaultPlan {
            kind: FaultPlanKind::TornTails,
            seed: 1,
        };
        assert!(torn.injects(FaultPlanKind::TornTails));
        assert!(!torn.injects(FaultPlanKind::PartialFlush));
    }

    #[test]
    fn injector_streams_are_deterministic_and_identity_dependent() {
        let plan = FaultPlan::all(42);
        let seq = |identity: u64| {
            let mut inj = FaultInjector::new(plan, identity);
            (0..64)
                .map(|_| inj.wal_append_fault(100).is_some())
                .collect::<Vec<_>>()
        };
        assert_eq!(seq(3), seq(3), "same identity, same stream");
        assert_ne!(seq(3), seq(4), "identities decorrelate streams");
    }

    #[test]
    fn consecutive_faults_are_bounded() {
        let plan = FaultPlan::all(0);
        let mut inj = FaultInjector::new(plan, 0);
        let mut consecutive = 0u32;
        let mut any = false;
        for _ in 0..10_000 {
            if inj.wal_append_fault(64).is_some() {
                consecutive += 1;
                any = true;
                assert!(consecutive <= MAX_CONSECUTIVE_FAULTS);
            } else {
                consecutive = 0;
            }
        }
        assert!(any, "an all-faults plan actually faults");
    }

    #[test]
    fn inert_plan_never_faults() {
        let mut inj = FaultInjector::new(FaultPlan::none(), 0);
        for _ in 0..1000 {
            assert!(inj.wal_append_fault(64).is_none());
            assert!(inj.flush_fault(64).is_none());
            assert!(!inj.read_flip());
            assert!(inj.fork_fault(64).is_none());
        }
    }

    #[test]
    fn fault_points_fall_inside_the_payload() {
        let mut inj = FaultInjector::new(FaultPlan::all(9), 1);
        for _ in 0..2000 {
            if let Some(p) = inj.wal_append_fault(50) {
                assert!(p <= 50);
            }
            if let Some(n) = inj.flush_fault(1000) {
                assert!(n < 1000);
            }
            if let Some(n) = inj.fork_fault(1000) {
                assert!(n < 1000);
            }
        }
    }
}
