//! Server capacities and per-epoch usage accounting.
//!
//! The paper's simulation gives every server "fixed and reserved bandwidth
//! capacities of 300 MB/epoch for replication and 100 MB/epoch for
//! migration … also a fixed bandwidth capacity for serving queries and a
//! fixed storage capacity" (§III-A). [`Capacities`] holds those limits and
//! [`UsageMeter`] tracks consumption; bandwidth meters reset every epoch
//! while storage persists.

/// Number of bytes in a mebibyte, for readable capacity constructors.
pub(crate) const MIB: u64 = 1024 * 1024;
/// Number of bytes in a gibibyte.
#[cfg(test)]
pub(crate) const GIB: u64 = 1024 * MIB;

/// Fixed resource limits of a server.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Capacities {
    /// Total storage in bytes.
    pub storage_bytes: u64,
    /// Replication bandwidth budget per epoch, in bytes.
    pub replication_bw: u64,
    /// Migration bandwidth budget per epoch, in bytes.
    pub migration_bw: u64,
    /// Query-serving capacity per epoch, in queries.
    pub query_capacity: f64,
}

impl Capacities {
    /// The per-server limits of the paper's simulation: 300 MB/epoch
    /// replication, 100 MB/epoch migration, plus caller-chosen storage and
    /// query capacity (the paper fixes their existence but not their values).
    pub fn paper(storage_bytes: u64, query_capacity: f64) -> Self {
        Self {
            storage_bytes,
            replication_bw: 300 * MIB,
            migration_bw: 100 * MIB,
            query_capacity,
        }
    }
}

/// Per-epoch consumption against a server's [`Capacities`].
///
/// Storage is cumulative; bandwidth and query counters are reset by
/// `UsageMeter::begin_epoch`. Reservation methods are all-or-nothing: they
/// either debit the full amount and return `true`, or leave the meter
/// untouched and return `false`, so callers never partially transfer a
/// partition.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct UsageMeter {
    /// Bytes of storage currently used.
    pub storage_used: u64,
    /// Replication bandwidth consumed this epoch.
    pub replication_used: u64,
    /// Migration bandwidth consumed this epoch.
    pub migration_used: u64,
    /// Queries served this epoch.
    pub queries_served: f64,
    /// Queries refused this epoch for lack of query capacity.
    pub queries_dropped: f64,
}

impl UsageMeter {
    /// Resets the per-epoch counters (bandwidth, queries); storage persists.
    pub(crate) fn begin_epoch(&mut self) {
        self.replication_used = 0;
        self.migration_used = 0;
        self.queries_served = 0.0;
        self.queries_dropped = 0.0;
    }

    /// Fraction of storage in use, in `[0, 1]`.
    pub(crate) fn storage_frac(&self, caps: &Capacities) -> f64 {
        if caps.storage_bytes == 0 {
            return 1.0;
        }
        self.storage_used as f64 / caps.storage_bytes as f64
    }

    /// Fraction of query capacity consumed this epoch, clamped to `[0, 1]`.
    pub(crate) fn query_load_frac(&self, caps: &Capacities) -> f64 {
        if caps.query_capacity <= 0.0 {
            return 1.0;
        }
        (self.queries_served / caps.query_capacity).min(1.0)
    }

    /// Free storage in bytes.
    pub(crate) fn storage_free(&self, caps: &Capacities) -> u64 {
        caps.storage_bytes.saturating_sub(self.storage_used)
    }

    /// Attempts to claim `bytes` of storage; all-or-nothing.
    #[must_use]
    pub fn reserve_storage(&mut self, caps: &Capacities, bytes: u64) -> bool {
        if self.storage_free(caps) < bytes {
            return false;
        }
        self.storage_used += bytes;
        true
    }

    /// Releases `bytes` of storage (replica deleted or migrated away).
    pub fn release_storage(&mut self, bytes: u64) {
        self.storage_used = self.storage_used.saturating_sub(bytes);
    }

    /// Attempts to start a replication transfer of `bytes`.
    ///
    /// A transfer may start as long as some replication budget remains this
    /// epoch; the transfer that exhausts the budget is allowed to overshoot
    /// (the paper: a server "updates its available bandwidth … after every
    /// data transfer that is decided to happen within one epoch", §III-A —
    /// transfers are admitted while bandwidth remains). This also keeps
    /// partitions larger than the per-epoch budget transferable, at a rate
    /// throttled to roughly `budget / size` transfers per epoch.
    #[must_use]
    pub fn reserve_replication_bw(&mut self, caps: &Capacities, bytes: u64) -> bool {
        if self.replication_used >= caps.replication_bw {
            return false;
        }
        self.replication_used = self.replication_used.saturating_add(bytes);
        true
    }

    /// Attempts to start a migration transfer of `bytes`; same
    /// admitted-while-budget-remains semantics as
    /// [`UsageMeter::reserve_replication_bw`].
    #[must_use]
    pub fn reserve_migration_bw(&mut self, caps: &Capacities, bytes: u64) -> bool {
        if self.migration_used >= caps.migration_bw {
            return false;
        }
        self.migration_used = self.migration_used.saturating_add(bytes);
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn caps() -> Capacities {
        Capacities {
            storage_bytes: 1000,
            replication_bw: 300,
            migration_bw: 100,
            query_capacity: 50.0,
        }
    }

    #[test]
    fn paper_capacities_match_section_iii() {
        let c = Capacities::paper(10 * GIB, 1000.0);
        assert_eq!(c.replication_bw, 300 * MIB);
        assert_eq!(c.migration_bw, 100 * MIB);
        assert_eq!(c.storage_bytes, 10 * GIB);
    }

    #[test]
    fn storage_reservation_is_all_or_nothing() {
        let c = caps();
        let mut m = UsageMeter::default();
        assert!(m.reserve_storage(&c, 600));
        assert!(!m.reserve_storage(&c, 500), "only 400 left");
        assert_eq!(m.storage_used, 600, "failed reservation must not debit");
        assert!(m.reserve_storage(&c, 400));
        assert_eq!(m.storage_free(&c), 0);
    }

    #[test]
    fn release_storage_saturates() {
        let mut m = UsageMeter {
            storage_used: 10,
            ..Default::default()
        };
        m.release_storage(25);
        assert_eq!(m.storage_used, 0);
    }

    #[test]
    fn bandwidth_resets_each_epoch_storage_persists() {
        let c = caps();
        let mut m = UsageMeter::default();
        assert!(m.reserve_storage(&c, 500));
        assert!(m.reserve_replication_bw(&c, 300));
        assert!(!m.reserve_replication_bw(&c, 1), "budget exhausted");
        assert!(m.reserve_migration_bw(&c, 100));
        m.begin_epoch();
        assert_eq!(m.replication_used, 0);
        assert_eq!(m.migration_used, 0);
        assert_eq!(m.storage_used, 500, "storage is not an epoch budget");
        assert!(m.reserve_replication_bw(&c, 300));
    }

    #[test]
    fn oversized_transfer_admitted_while_budget_remains() {
        // A 250-byte transfer on a 300-byte budget leaves 50 bytes; a second
        // 250-byte transfer may still start (overshooting to 500), after
        // which the budget is exhausted.
        let c = caps();
        let mut m = UsageMeter::default();
        assert!(m.reserve_replication_bw(&c, 250));
        assert!(m.reserve_replication_bw(&c, 250));
        assert_eq!(m.replication_used, 500);
        assert!(!m.reserve_replication_bw(&c, 1));
        // A transfer larger than the whole budget can start on a fresh epoch.
        m.begin_epoch();
        assert!(
            m.reserve_migration_bw(&c, 1000),
            "oversized partition still moves"
        );
        assert!(!m.reserve_migration_bw(&c, 1));
    }

    #[test]
    fn fractions_are_bounded() {
        let c = caps();
        let mut m = UsageMeter::default();
        assert_eq!(m.storage_frac(&c), 0.0);
        assert_eq!(m.query_load_frac(&c), 0.0);
        assert!(m.reserve_storage(&c, 250));
        assert!((m.storage_frac(&c) - 0.25).abs() < 1e-12);
    }

    #[test]
    fn zero_capacity_counts_as_saturated() {
        let c = Capacities {
            storage_bytes: 0,
            replication_bw: 0,
            migration_bw: 0,
            query_capacity: 0.0,
        };
        let m = UsageMeter::default();
        assert_eq!(m.storage_frac(&c), 1.0);
        assert_eq!(m.query_load_frac(&c), 1.0);
    }
}
