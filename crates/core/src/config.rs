//! Cloud-wide configuration.

use skute_economy::EconomyConfig;
use skute_store::{BackendKind, FaultPlan};

/// Number of bytes in a mebibyte.
const MIB: u64 = 1024 * 1024;

/// Default RNG seed of the paper configuration.
pub(crate) const DEFAULT_SEED: u64 = 0x5C07E;

/// Upper bound on availability-restoring replications per partition per
/// epoch (bandwidth budgets also gate transfers).
pub(crate) const MAX_REPAIRS_PER_PARTITION_PER_EPOCH: usize = 4;

/// Configuration of a [`crate::SkuteCloud`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SkuteConfig {
    /// Virtual-economy parameters (eq. 1, 3, 4, 5 and the decision window).
    pub economy: EconomyConfig,
    /// Partition capacity: "a maximum partition capacity of 256 MB after
    /// which the data of the partition is split into two new ones" (§III-A).
    pub split_threshold_bytes: u64,
    /// Seed of the cloud's deterministic RNG (initial placement and agent
    /// iteration order).
    pub(crate) seed: u64,
    /// Storage engine replica stores run on. [`BackendKind::Mem`] is the
    /// fast in-memory default and bit-exact oracle; [`BackendKind::Lsm`]
    /// gives every replica a durable WAL + SSTable store. Same-seed
    /// trajectories are **bitwise identical across backends** — decisions
    /// and the CSV consume only logical byte accounting, which the engines
    /// share; only durability and the measured transfer counters differ
    /// (CI's determinism matrix compares the two).
    pub backend: BackendKind,
    /// Seeded storage-fault plan replica stores run under (LSM only; the
    /// mem oracle has no IO path to fault). Injected faults are transient
    /// by construction and repaired inside the store's IO path, so
    /// same-seed same-plan trajectories stay **bitwise identical** —
    /// degradation surfaces only in fault statistics and measured
    /// transfer bytes (`skute-sim --fault-plan` / `--fault-seed`).
    pub fault_plan: FaultPlan,
    /// Scheduled scrub cadence: every `scrub_every` epochs, `end_epoch`
    /// runs [`crate::SkuteCloud::scrub_quarantined`] over every ring and
    /// drains the read-repair queue quorum reads populated, so divergence
    /// and quarantines are amortized away without operator action. `0`
    /// (the default) disables the schedule — existing trajectories are
    /// untouched. Scrub rebuilds are observability-only, so enabling the
    /// cadence cannot perturb the decision trajectory.
    pub scrub_every: u64,
    /// Thread budget of the epoch pipeline's plan passes (`0` = the
    /// machine's available parallelism; explicit budgets are honored
    /// exactly — beyond the host's core count that costs wall clock,
    /// never correctness). Workers are scoped to one plan pass: spawned
    /// for it and joined before it returns, none at a budget of 1.
    /// Same-seed trajectories are **bitwise identical at every thread
    /// count**: plan passes only precompute order-independent
    /// per-partition work, and every effect on shared state is committed
    /// in a deterministic order afterwards (see `crate::pipeline`).
    pub threads: usize,
}

impl SkuteConfig {
    /// The calibration used in the paper-reproduction experiments.
    pub fn paper() -> Self {
        Self {
            economy: EconomyConfig::paper(),
            split_threshold_bytes: 256 * MIB,
            seed: DEFAULT_SEED,
            backend: BackendKind::Mem,
            fault_plan: FaultPlan::none(),
            scrub_every: 0,
            threads: 1,
        }
    }

    /// Returns a copy with replica stores on the given storage backend.
    /// The trajectory stays bitwise identical; only durability and the
    /// measured transfer counters change.
    #[must_use]
    pub fn with_backend(mut self, backend: BackendKind) -> Self {
        self.backend = backend;
        self
    }

    /// Returns a copy fanning the epoch pipeline's plan passes out over
    /// `threads` workers (`0` = available parallelism). The trajectory
    /// stays bitwise identical; only wall-clock changes.
    #[must_use]
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads;
        self
    }

    /// Returns a copy with a different RNG seed (deterministic replay with
    /// a new sample path).
    #[must_use]
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Validates all parameters.
    ///
    /// # Panics
    /// Panics on out-of-range parameters.
    pub fn validate(&self) {
        self.economy.validate();
        assert!(
            self.split_threshold_bytes > 0,
            "split threshold must be positive"
        );
    }
}

impl Default for SkuteConfig {
    fn default() -> Self {
        Self::paper()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_config_is_valid() {
        SkuteConfig::paper().validate();
    }

    #[test]
    fn with_seed_changes_only_the_seed() {
        let a = SkuteConfig::paper();
        let b = a.with_seed(42);
        assert_eq!(b.seed, 42);
        assert_eq!(a.split_threshold_bytes, b.split_threshold_bytes);
    }

    #[test]
    fn with_threads_changes_only_the_worker_budget() {
        let a = SkuteConfig::paper();
        let b = a.with_threads(8);
        assert_eq!(a.threads, 1);
        assert_eq!(b.threads, 8);
        assert_eq!(a.seed, b.seed);
        b.validate();
        a.with_threads(0).validate();
    }

    #[test]
    fn with_backend_flips_only_the_engine() {
        let a = SkuteConfig::paper();
        let b = a.with_backend(BackendKind::Lsm);
        assert_eq!(a.backend, BackendKind::Mem);
        assert_eq!(b.backend, BackendKind::Lsm);
        assert_eq!(a.seed, b.seed);
        assert_eq!(a.threads, b.threads);
        b.validate();
    }

    #[test]
    #[should_panic(expected = "split threshold")]
    fn zero_split_threshold_rejected() {
        let mut c = SkuteConfig::paper();
        c.split_threshold_bytes = 0;
        c.validate();
    }
}
