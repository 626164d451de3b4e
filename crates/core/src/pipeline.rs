//! The fan-out side of the deterministic epoch pipeline.
//!
//! [`crate::SkuteCloud`] runs every epoch through four phases — **traffic
//! delivery**, **availability repair**, **economic decisions** and the
//! **report** — one file each under `cloud/`. Two of them fan work out
//! before their sequential pass:
//!
//! * **traffic** has a **plan pass**: pure per-partition computation
//!   against state that is immutable for the duration of the phase (server
//!   locations, confidences, capacities) and against each batch's region
//!   plan, resolved once per batch before the fan-out. It writes only
//!   partition-local state — each replica's eq.-(4) weight and client
//!   distance go into the replica itself; its sequential commit then
//!   applies every effect on shared state — the capacity meters — in
//!   ring/partition order;
//! * **repair** warms each partition's memoized eq.-(2) availability,
//!   together with every replica's availability without itself, and
//!   computes every placement it makes inside its sequential shuffled
//!   commit. A storage-order sweep lists the partitions below their SLA
//!   first, and the commit opens only those, in the shuffle's order (see
//!   `cloud/repair.rs`).
//!
//! The decision phase does not fan out. A sequential storage-order pass
//! records every vnode's balance and classifies it, reading its
//! availability without itself from the memo the warm-up left; the
//! paper's §II-C walk then visits the vnodes in the seeded shuffle order
//! and acts, one action at a time, against the live state, skipping a
//! vnode only while no action has touched its partition and its recorded
//! intent cannot act (see `cloud/decisions.rs`). No eq.-(3) answer is
//! computed ahead of the walk. The report is one sequential fold in
//! (partition, replica) order into dense per-server arrays indexed by
//! server id.
//!
//! The plan functions and the commits live in the phase files. This module
//! holds what fans a plan pass out: the phase collects `&mut` borrows of
//! its partitions, `EpochPipeline` cuts them into contiguous chunks and
//! hands the chunks to [`WorkerPool::run_tasks`], whose scoped workers
//! read the cluster and topology through plain shared borrows of the
//! cloud's own fields. There is one route at every thread count: a budget
//! of one runs the same chunks on the caller's thread.
//!
//! Determinism is structural, not incidental:
//!
//! * plan passes are order-independent per item, and the chunk
//!   decomposition depends only on the item count, so neither chunk
//!   boundaries nor worker scheduling can change any result;
//! * the only randomness in the epoch loop (the repair and decision
//!   shuffles, server seeding) stays on the cloud's sequential RNG stream,
//!   and everything that reads or writes shared state runs on it.
//!
//! The result: same-seed trajectories are **bitwise identical at every
//! thread count**.

use std::collections::BTreeMap;

use skute_cluster::{Cluster, ServerId};
use skute_exec::WorkerPool;

use crate::cloud::repair::cached_availability;
use crate::metrics::mean_cv;
use crate::vnode::PartitionState;

/// Chunk size of a plan pass over `n` partitions. Small inputs stay in one
/// chunk (which runs on the caller's thread); large inputs split into at
/// most ~16 chunks so work distribution stays coarse. Never depends on the
/// thread count — only results-irrelevant scheduling does.
fn phase_chunk(n: usize) -> usize {
    if n < 64 {
        n.max(1)
    } else {
        n.div_ceil(16).max(16)
    }
}

/// Per-ring aggregates of the epoch report.
#[derive(Debug, Clone, Copy)]
pub(crate) struct RingPhaseStats {
    pub(crate) vnodes: usize,
    pub(crate) mean_availability: f64,
    pub(crate) min_availability: f64,
    pub(crate) sla_satisfied_frac: f64,
    pub(crate) load_cv: f64,
}

/// The plan passes' thread budget and the report accumulators the epoch
/// loop reuses. Owned by [`crate::SkuteCloud`].
///
/// The per-server accumulators are dense arrays indexed by `ServerId.0`
/// (ids are slot indices and never reused), so the report's fold adds each
/// replica's numbers with a direct store instead of a search.
#[derive(Debug, Default)]
pub(crate) struct EpochPipeline {
    pool: WorkerPool,
    // Report accumulators, reused across epochs.
    avails: Vec<f64>,
    /// Served queries of the ring being reported, by server id.
    loads: Vec<f64>,
    /// Whether a server hosts a vnode of the ring being reported, by id.
    hosts: Vec<bool>,
    /// The hosting servers' loads of the ring being reported, in id order.
    pub(crate) loads_flat: Vec<f64>,
    /// Cross-ring per-server vnode counts of the current report, by id.
    vnodes: Vec<usize>,
}

impl EpochPipeline {
    /// A pipeline fanning plan passes out over `threads` workers (`0` =
    /// the machine's available parallelism). An explicit budget is honored
    /// exactly, even beyond the host's core count — oversubscription only
    /// costs wall clock, never determinism, and the determinism tests rely
    /// on explicit budgets actually spawning.
    pub(crate) fn new(threads: usize) -> Self {
        Self {
            pool: WorkerPool::new(threads),
            ..Self::default()
        }
    }

    /// Runs `f` over `items` in contiguous [`phase_chunk`] chunks on the
    /// thread budget. `f` must treat items independently: it reads only
    /// state that is immutable for the phase and writes only the items it
    /// was handed.
    pub(crate) fn for_each_chunk<T: Send>(&self, items: &mut [T], f: impl Fn(&mut [T]) + Sync) {
        let chunks = items.chunks_mut(phase_chunk(items.len())).collect();
        self.pool.run_tasks(chunks, |_, chunk| f(chunk));
    }

    /// Starts a new epoch report over `cluster`'s servers (zeroes the
    /// cross-ring accumulators).
    pub(crate) fn begin_report(&mut self, cluster: &Cluster) {
        self.vnodes.clear();
        self.vnodes.resize(cluster.len(), 0);
    }

    /// Computes one ring's report aggregates from `parts` in ring order:
    /// availabilities (via the memoized cache), per-server served-query
    /// loads and vnode counts. One left fold in (partition, replica)
    /// order, so every floating-point sum is fixed by the ring alone; the
    /// load CV reads the hosting servers' loads in id order.
    pub(crate) fn ring_stats<'a>(
        &mut self,
        cluster: &Cluster,
        parts: impl Iterator<Item = &'a mut PartitionState>,
        threshold: f64,
    ) -> RingPhaseStats {
        self.avails.clear();
        self.loads.clear();
        self.loads.resize(cluster.len(), 0.0);
        self.hosts.clear();
        self.hosts.resize(cluster.len(), false);
        let mut vnodes = 0usize;
        for part in parts {
            self.avails.push(cached_availability(cluster, part));
            for r in &part.replicas {
                let slot = r.server.0 as usize;
                vnodes += 1;
                self.vnodes[slot] += 1;
                self.loads[slot] += r.queries_epoch;
                self.hosts[slot] = true;
            }
        }
        let n = self.avails.len();
        let avails = || self.avails.iter().copied();
        let (mean_availability, min_availability, sla_satisfied_frac) = if n == 0 {
            (0.0, 0.0, 1.0)
        } else {
            (
                avails().sum::<f64>() / n as f64,
                avails().fold(f64::INFINITY, f64::min),
                avails().filter(|&a| a >= threshold).count() as f64 / n as f64,
            )
        };
        self.loads_flat.clear();
        self.loads_flat.extend(
            self.loads
                .iter()
                .zip(&self.hosts)
                .filter_map(|(&load, &hosts)| hosts.then_some(load)),
        );
        let (_, load_cv) = mean_cv(&self.loads_flat);
        RingPhaseStats {
            vnodes,
            mean_availability,
            min_availability,
            sla_satisfied_frac,
            load_cv,
        }
    }

    /// The epoch's per-server vnode distribution: every alive server
    /// (zero-seeded) plus every server holding vnodes counted by
    /// [`EpochPipeline::ring_stats`] since [`EpochPipeline::begin_report`].
    pub(crate) fn vnodes_map(&self, cluster: &Cluster) -> BTreeMap<ServerId, usize> {
        cluster
            .iter()
            .zip(&self.vnodes)
            .filter(|&(s, &count)| s.is_alive() || count > 0)
            .map(|(s, &count)| (s.id, count))
            .collect()
    }
}
