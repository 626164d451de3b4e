//! Cloud-level observability: the [`CloudMetrics`] bundle a
//! [`SkuteCloud`](crate::SkuteCloud) records into when one is attached.
//!
//! Everything here is **observability-only**: metric handles are written
//! by the epoch pipeline but never read back by any decision path, and
//! recording is wait-free atomic adds. A cloud therefore produces
//! bitwise-identical same-seed trajectories with metrics attached or
//! absent — CI's determinism matrix byte-compares exactly that (the
//! metrics-invariance axis), and `tests/observability.rs` pins it at the
//! API level.
//!
//! The catalogue (all families prefixed `skute_`):
//!
//! | family | kind | labels | meaning |
//! |---|---|---|---|
//! | `skute_epoch_phase_seconds` | histogram | `phase` | wall-clock cost per epoch phase (`traffic_plan`, `traffic_commit`, `repair`, `decisions`, `report`) |
//! | `skute_epochs_total` | counter | | epochs closed |
//! | `skute_queries_total` | counter | `outcome` | offered / served / dropped queries (rounded) |
//! | `skute_actions_total` | counter | `action` | replications, migrations, suicides, splits, blocked transfers |
//! | `skute_transfer_bytes_total` | counter | `kind` | logical replication / migration bytes moved |
//! | `skute_insert_failures_total` | counter | | synthetic ingests rejected for capacity |
//! | `skute_partitions_lost_total` | counter | | partitions that lost their last replica |
//! | `skute_scrub_rebuilds_total` | counter | | quarantined replicas re-seeded from peers |
//! | `skute_storage_engine_ops` | gauge | `op` | fleet-wide LSM totals, refreshed on scrape: the write path (`wal_append`, `memtable_flush`, `compaction`) and the read path (`point_read`, `run_probe`, `bloom_skip` — `run_probe / point_read` is the sorted runs actually read per lookup — and `corrupt_block`, run blocks a lookup could not decode and read as a miss, plus `for_each` / `snapshot` walks such a block cut short) |
//! | `skute_storage_fault_recoveries` | gauge | `kind` | fleet-wide injected-fault recoveries, refreshed on scrape |
//! | `skute_read_quorum_reads_total` | counter | | serving-path key reads at quorum consistency, unavailable ones included |
//! | `skute_read_quorum_divergent_total` | counter | | quorum reads that observed at least one stale replica |
//! | `skute_degraded_reads_total` | counter | | reads and scans below their requested consistency (quorum unreachable), and key reads unavailable for want of any reachable replica |
//! | `skute_read_repairs_total` | counter | `stage` | stale replicas scheduled by quorum reads / repaired at epoch close |
//! | `skute_server_confidence_bp` | gauge | `stat` | fleet confidence in basis points (min / mean), refreshed each gray epoch |
//! | `skute_gray_degraded_servers` | gauge | | alive servers currently in a degraded gray mode or behind the cut |
//! | `skute_partition_cut_continent` | gauge | | continent currently severed by the fault plan (-1 = none) |

use std::sync::Arc;

use skute_obs::{exponential_buckets, Counter, Gauge, Histogram, Registry};
use skute_store::{FaultStats, StorageActivity};

use crate::metrics::EpochReport;

/// The metric handles a [`SkuteCloud`](crate::SkuteCloud) records into.
///
/// Build one with [`CloudMetrics::register`] against the registry that
/// will serve `/metrics`, then attach it with
/// [`SkuteCloud::set_metrics`](crate::SkuteCloud::set_metrics). All
/// handles are shared atomics; cloning the `Arc` is the intended way to
/// hold onto one for scraping.
#[derive(Debug)]
pub struct CloudMetrics {
    /// Per-phase wall-clock timings (`phase` label).
    pub phase_traffic_plan: Histogram,
    /// Traffic commit timing.
    pub phase_traffic_commit: Histogram,
    /// Availability-repair pass timing.
    pub phase_repair: Histogram,
    /// Economic-decision pass timing (plan prepass + commit).
    pub phase_decisions: Histogram,
    /// Split + report assembly timing.
    pub phase_report: Histogram,
    /// Epochs closed.
    pub(crate) epochs: Counter,
    /// Queries offered (rounded to whole queries per epoch).
    pub(crate) queries_offered: Counter,
    /// Queries served.
    pub(crate) queries_served: Counter,
    /// Queries dropped.
    pub(crate) queries_dropped: Counter,
    /// SLA-driven replications.
    pub(crate) availability_replications: Counter,
    /// Profit-driven replications.
    pub(crate) profit_replications: Counter,
    /// eq.-(3) migrations.
    pub(crate) migrations: Counter,
    /// Vnode suicides.
    pub(crate) suicides: Counter,
    /// Partition splits.
    pub(crate) splits: Counter,
    /// Transfers blocked by bandwidth or storage.
    pub(crate) blocked_transfers: Counter,
    /// Logical bytes moved by replications.
    pub(crate) replicated_bytes: Counter,
    /// Logical bytes moved by migrations.
    pub(crate) migrated_bytes: Counter,
    /// Synthetic ingests rejected for capacity.
    pub(crate) insert_failures: Counter,
    /// Partitions that lost their last replica.
    pub(crate) partitions_lost: Counter,
    /// Quarantined replicas re-seeded from healthy peers.
    pub(crate) scrub_rebuilds: Counter,
    /// Fleet-wide LSM WAL appends (refreshed gauge).
    pub(crate) lsm_wal_appends: Gauge,
    /// Fleet-wide LSM memtable flushes (refreshed gauge).
    pub(crate) lsm_flushes: Gauge,
    /// Fleet-wide LSM compactions (refreshed gauge).
    pub(crate) lsm_compactions: Gauge,
    /// Fleet-wide LSM point lookups, reads and applies alike (refreshed
    /// gauge).
    pub(crate) lsm_point_reads: Gauge,
    /// Fleet-wide sorted-run blocks read by point lookups (refreshed gauge).
    pub(crate) lsm_run_probes: Gauge,
    /// Fleet-wide sorted runs ruled out by bloom filter (refreshed gauge).
    pub(crate) lsm_bloom_skips: Gauge,
    /// Fleet-wide run blocks point lookups could not decode (refreshed
    /// gauge).
    pub(crate) lsm_corrupt_blocks: Gauge,
    /// Fleet-wide WAL-append retries recovered (refreshed gauge).
    pub(crate) fault_wal_retries: Gauge,
    /// Fleet-wide flush retries recovered (refreshed gauge).
    pub(crate) fault_flush_retries: Gauge,
    /// Fleet-wide read retries recovered (refreshed gauge).
    pub(crate) fault_read_retries: Gauge,
    /// Fleet-wide fork retries recovered (refreshed gauge).
    pub(crate) fault_fork_retries: Gauge,
    /// Fleet-wide torn WAL tails repaired (refreshed gauge).
    pub(crate) fault_torn_tails: Gauge,
    /// Fleet-wide partial runs discarded at open (refreshed gauge).
    pub(crate) fault_partial_runs: Gauge,
    /// Serving-path key reads at quorum consistency, unavailable ones
    /// included.
    pub(crate) quorum_reads: Counter,
    /// Quorum reads that observed at least one stale replica.
    pub(crate) quorum_divergent: Counter,
    /// Reads and scans below their requested consistency, unavailable key
    /// reads included.
    pub(crate) degraded_reads: Counter,
    /// Stale replicas enqueued for read-repair by quorum reads.
    pub(crate) read_repairs_scheduled: Counter,
    /// Stale replicas actually repaired at epoch close.
    pub(crate) read_repairs_applied: Counter,
    /// Minimum alive-server confidence, in basis points (refreshed each
    /// gray epoch).
    pub(crate) confidence_min_bp: Gauge,
    /// Mean alive-server confidence, in basis points (refreshed each gray
    /// epoch).
    pub(crate) confidence_mean_bp: Gauge,
    /// Alive servers currently gray-degraded or behind the cut.
    pub(crate) gray_degraded_servers: Gauge,
    /// Continent currently severed by the fault plan (-1 = none).
    pub(crate) partition_cut_continent: Gauge,
}

impl CloudMetrics {
    /// Registers the full cloud catalogue on `registry` and returns the
    /// handle bundle. Registering twice on the same registry returns
    /// handles over the same underlying series (registration is
    /// idempotent per family + label set).
    pub fn register(registry: &Registry) -> Arc<CloudMetrics> {
        let phase = |name: &str| {
            registry.histogram_with(
                "skute_epoch_phase_seconds",
                "Wall-clock seconds spent per epoch phase.",
                &[("phase", name)],
                &exponential_buckets(1e-5, 4.0, 10),
            )
        };
        let queries = |outcome: &str| {
            registry.counter_with(
                "skute_queries_total",
                "Queries per epoch by outcome (rounded to whole queries).",
                &[("outcome", outcome)],
            )
        };
        let action = |name: &str| {
            registry.counter_with(
                "skute_actions_total",
                "Decision-process actions executed, by kind.",
                &[("action", name)],
            )
        };
        let bytes = |kind: &str| {
            registry.counter_with(
                "skute_transfer_bytes_total",
                "Logical bytes moved by replica transfers, by kind.",
                &[("kind", kind)],
            )
        };
        let engine_op = |op: &str| {
            registry.gauge_with(
                "skute_storage_engine_ops",
                "Fleet-wide LSM engine operations (refreshed at scrape).",
                &[("op", op)],
            )
        };
        let fault = |kind: &str| {
            registry.gauge_with(
                "skute_storage_fault_recoveries",
                "Fleet-wide injected-fault recoveries (refreshed at scrape).",
                &[("kind", kind)],
            )
        };
        Arc::new(CloudMetrics {
            phase_traffic_plan: phase("traffic_plan"),
            phase_traffic_commit: phase("traffic_commit"),
            phase_repair: phase("repair"),
            phase_decisions: phase("decisions"),
            phase_report: phase("report"),
            epochs: registry.counter("skute_epochs_total", "Epochs closed by end_epoch."),
            queries_offered: queries("offered"),
            queries_served: queries("served"),
            queries_dropped: queries("dropped"),
            availability_replications: action("availability_replication"),
            profit_replications: action("profit_replication"),
            migrations: action("migration"),
            suicides: action("suicide"),
            splits: action("split"),
            blocked_transfers: action("blocked_transfer"),
            replicated_bytes: bytes("replication"),
            migrated_bytes: bytes("migration"),
            insert_failures: registry.counter(
                "skute_insert_failures_total",
                "Synthetic ingests rejected after the capacity rebalance.",
            ),
            partitions_lost: registry.counter(
                "skute_partitions_lost_total",
                "Partitions that lost their last replica to failures.",
            ),
            scrub_rebuilds: registry.counter(
                "skute_scrub_rebuilds_total",
                "Quarantined replicas re-seeded from healthy peers.",
            ),
            lsm_wal_appends: engine_op("wal_append"),
            lsm_flushes: engine_op("memtable_flush"),
            lsm_compactions: engine_op("compaction"),
            lsm_point_reads: engine_op("point_read"),
            lsm_run_probes: engine_op("run_probe"),
            lsm_bloom_skips: engine_op("bloom_skip"),
            lsm_corrupt_blocks: engine_op("corrupt_block"),
            fault_wal_retries: fault("wal_retry"),
            fault_flush_retries: fault("flush_retry"),
            fault_read_retries: fault("read_retry"),
            fault_fork_retries: fault("fork_retry"),
            fault_torn_tails: fault("torn_wal_tail"),
            fault_partial_runs: fault("partial_run_discarded"),
            quorum_reads: registry.counter(
                "skute_read_quorum_reads_total",
                "Serving-path reads answered at quorum consistency.",
            ),
            quorum_divergent: registry.counter(
                "skute_read_quorum_divergent_total",
                "Quorum reads that observed at least one stale replica.",
            ),
            degraded_reads: registry.counter(
                "skute_degraded_reads_total",
                "Reads served below their requested consistency.",
            ),
            read_repairs_scheduled: registry.counter_with(
                "skute_read_repairs_total",
                "Read-repair volume by stage.",
                &[("stage", "scheduled")],
            ),
            read_repairs_applied: registry.counter_with(
                "skute_read_repairs_total",
                "Read-repair volume by stage.",
                &[("stage", "applied")],
            ),
            confidence_min_bp: registry.gauge_with(
                "skute_server_confidence_bp",
                "Fleet confidence in basis points (refreshed each gray epoch).",
                &[("stat", "min")],
            ),
            confidence_mean_bp: registry.gauge_with(
                "skute_server_confidence_bp",
                "Fleet confidence in basis points (refreshed each gray epoch).",
                &[("stat", "mean")],
            ),
            gray_degraded_servers: registry.gauge(
                "skute_gray_degraded_servers",
                "Alive servers currently gray-degraded or behind the cut.",
            ),
            partition_cut_continent: registry.gauge(
                "skute_partition_cut_continent",
                "Continent currently severed by the fault plan (-1 = none).",
            ),
        })
    }

    /// Folds one closed epoch's report into the counters. Queries are f64
    /// loads; they round to whole queries so the counters stay integral.
    pub(crate) fn observe_report(&self, report: &EpochReport) {
        self.epochs.inc();
        let (mut offered, mut served, mut dropped) = (0.0f64, 0.0f64, 0.0f64);
        for ring in &report.rings {
            offered += ring.queries_offered;
            served += ring.queries_served;
            dropped += ring.queries_dropped;
        }
        self.queries_offered.add(offered.round() as u64);
        self.queries_served.add(served.round() as u64);
        self.queries_dropped.add(dropped.round() as u64);
        let a = &report.actions;
        self.availability_replications
            .add(a.availability_replications);
        self.profit_replications.add(a.profit_replications);
        self.migrations.add(a.migrations);
        self.suicides.add(a.suicides);
        self.splits.add(a.splits);
        self.blocked_transfers.add(a.blocked_transfers);
        self.replicated_bytes.add(a.replicated_bytes);
        self.migrated_bytes.add(a.migrated_bytes);
        self.scrub_rebuilds.add(a.scrub_rebuilds);
        self.insert_failures.add(report.insert_failures);
        self.partitions_lost.add(report.partitions_lost);
    }

    /// Overwrites the refreshed storage gauges from fleet-wide totals
    /// (called at scrape/snapshot time by
    /// [`SkuteCloud::refresh_storage_metrics`](crate::SkuteCloud::refresh_storage_metrics)).
    pub(crate) fn set_storage_totals(&self, activity: &StorageActivity, faults: &FaultStats) {
        self.lsm_wal_appends.set(activity.wal_appends as i64);
        self.lsm_flushes.set(activity.memtable_flushes as i64);
        self.lsm_compactions.set(activity.compactions as i64);
        self.lsm_point_reads.set(activity.point_reads as i64);
        self.lsm_run_probes.set(activity.run_probes as i64);
        self.lsm_bloom_skips.set(activity.bloom_skips as i64);
        self.lsm_corrupt_blocks.set(activity.corrupt_blocks as i64);
        self.fault_wal_retries.set(faults.wal_retries as i64);
        self.fault_flush_retries.set(faults.flush_retries as i64);
        self.fault_read_retries.set(faults.read_retries as i64);
        self.fault_fork_retries.set(faults.fork_retries as i64);
        self.fault_torn_tails
            .set(faults.torn_wal_tails_repaired as i64);
        self.fault_partial_runs
            .set(faults.partial_runs_discarded as i64);
    }
}
