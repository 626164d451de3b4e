//! The fan-out side of the deterministic epoch pipeline.
//!
//! [`crate::SkuteCloud`] runs every epoch through four phases — **traffic
//! delivery**, **availability repair**, **economic decisions** and the
//! **report** — one file each under `cloud/`. Traffic and decisions are
//! each structured as
//!
//! 1. a **plan pass**: pure per-partition computation against state that
//!    is immutable for the duration of the phase (server locations,
//!    confidences, posted rents, the refreshed `PlacementIndex`
//!    snapshot), writing only partition-local state and per-chunk
//!    scratch;
//! 2. a **sequential commit pass** that applies every effect on shared
//!    state — capacity meters, rent-board-indexed structures, executed
//!    actions — in a fixed order (ring/partition order for traffic, the
//!    seeded shuffle order for decisions), one action at a time — the
//!    paper's §II-C walk.
//!
//! Repair has no plan pass: its only parallelizable step warms each
//! partition's memoized eq.-(2) availability, and every placement it makes
//! is computed inside its sequential shuffled commit. The report is one
//! sequential fold in (partition, replica) order.
//!
//! The plan functions and the commits live in the phase files. This module
//! holds what fans a plan pass out: the phase collects `&mut` borrows of
//! its partitions, [`EpochPipeline`] cuts them into contiguous chunks and
//! hands the chunks to [`WorkerPool::run_tasks`], whose scoped workers
//! read the cluster, board, topology and index through plain shared
//! borrows of the cloud's own fields. There is one route at every thread
//! count: a budget of one runs the same chunks on the caller's thread.
//!
//! Determinism is structural, not incidental:
//!
//! * plan passes are order-independent per item, and the chunk
//!   decomposition depends only on the item count, so neither chunk
//!   boundaries nor worker scheduling can change any result;
//! * per-chunk scratch (`WalkScratch`, placement buffers) carries no
//!   state between items; the only randomness in the epoch loop (the
//!   repair and decision shuffles, server seeding) stays on the cloud's
//!   sequential RNG stream;
//! * speculative placement targets computed by the decision plan pass
//!   carry their walk's **read set** (`WalkScratch` records every
//!   candidate entry a query examined); the commit pass tracks the servers
//!   each committed action touches and honors a later speculation only
//!   when `crate::placement::validate_speculation` proves those touches
//!   cannot have changed its answer — otherwise it re-runs on the live state
//!   exactly as the sequential loop would. Honored or re-walked, the
//!   executed action is bit-identical to a fresh walk (property-tested,
//!   and asserted end-to-end against the
//!   [`DecisionOracle::Rewalk`](crate::DecisionOracle::Rewalk) oracle that
//!   re-walks everything).
//!
//! The result: same-seed trajectories are **bitwise identical at every
//! thread count**.

use std::collections::BTreeMap;

use skute_cluster::{Cluster, ServerId};
use skute_exec::WorkerPool;

use crate::cloud::decisions::{plan_one_decision, DecisionInputs, DecisionScratch, PreDecision};
use crate::cloud::repair::cached_availability;
use crate::metrics::mean_cv;
use crate::vnode::PartitionState;

/// Chunk size of a plan pass over `n` partitions. Small inputs stay in one
/// chunk (which runs on the caller's thread); large inputs split into at
/// most ~16 chunks so work distribution stays coarse. Never depends on the
/// thread count — only results-irrelevant scheduling does.
pub(crate) fn phase_chunk(n: usize) -> usize {
    if n < 64 {
        n.max(1)
    } else {
        n.div_ceil(16).max(16)
    }
}

/// Splits the first `n` elements off the front of `rest`.
fn take_front<'a, T>(rest: &mut &'a mut [T], n: usize) -> &'a mut [T] {
    let (front, tail) = std::mem::take(rest).split_at_mut(n);
    *rest = tail;
    front
}

/// The slot of `key` in the key-sorted accumulator `acc`, inserted at its
/// default when absent.
fn sorted_slot<K: Ord + Copy, V: Default>(acc: &mut Vec<(K, V)>, key: K) -> &mut V {
    let pos = match acc.binary_search_by(|(k, _)| k.cmp(&key)) {
        Ok(pos) => pos,
        Err(pos) => {
            acc.insert(pos, (key, V::default()));
            pos
        }
    };
    &mut acc[pos].1
}

/// Per-ring aggregates of the epoch report.
#[derive(Debug, Clone, Copy)]
pub(crate) struct RingPhaseStats {
    pub vnodes: usize,
    pub mean_availability: f64,
    pub min_availability: f64,
    pub sla_satisfied_frac: f64,
    pub load_cv: f64,
}

/// The plan passes' thread budget and the scratch the epoch loop reuses:
/// per-vnode decision slots and the report accumulators. Owned by
/// [`crate::SkuteCloud`].
#[derive(Debug, Default)]
pub(crate) struct EpochPipeline {
    pool: WorkerPool,
    /// Per-vnode decision precomputation (indexed by work-list slot).
    pub(crate) pre: Vec<PreDecision>,
    /// Per-chunk scratch of the decision plan pass, reused across epochs.
    states: Vec<DecisionScratch>,
    /// Flat arena of every speculative walk's sorted read set, indexed by
    /// the `spec_reads_start`/`spec_reads_len` of each [`PreDecision`]
    /// slot. Rebuilt by every decision plan pass.
    pub(crate) spec_reads: Vec<ServerId>,
    // Report accumulators, reused across epochs.
    avails: Vec<f64>,
    /// Per-server served queries of the ring being reported, by server id.
    pub(crate) loads: Vec<(ServerId, f64)>,
    loads_flat: Vec<f64>,
    /// Cross-ring per-server vnode counts of the current report.
    vnodes_global: Vec<(ServerId, usize)>,
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

    /// The decision plan pass: precomputes every vnode's decision inputs —
    /// balance recording, streaks, availability-without-self, and (for
    /// vnodes whose planned intent needs one) a speculative eq.-(3) target
    /// against the frozen index snapshot — filling [`EpochPipeline::pre`]
    /// in flat (ring, partition, replica) enumeration order, which is the
    /// order `items` must yield `(threshold, partition)` in. The commit
    /// pass consumes the slots in the seeded shuffle order.
    ///
    /// Every chunk of `chunk` partitions writes its own slice of `pre`,
    /// sized from its replica count, and records read sets into its own
    /// scratch arena; the arenas are then spliced into
    /// [`EpochPipeline::spec_reads`] in chunk order, rebasing each chunk's
    /// slot offsets by the splice point, so the layout is the same under
    /// every decomposition.
    pub(crate) fn plan_decisions(
        &mut self,
        items: &mut [(f64, &mut PartitionState)],
        inputs: &DecisionInputs<'_>,
        chunk: usize,
    ) {
        let Self {
            pool,
            pre,
            states,
            spec_reads,
            ..
        } = self;
        let chunk = chunk.max(1);
        let counts: Vec<usize> = items
            .chunks(chunk)
            .map(|c| c.iter().map(|(_, p)| p.replicas.len()).sum())
            .collect();
        // No clear: the plan writes every slot.
        pre.resize(counts.iter().sum(), PreDecision::default());
        states.resize_with(counts.len(), DecisionScratch::default);
        let mut rest = &mut pre[..];
        let tasks = items
            .chunks_mut(chunk)
            .zip(&counts)
            .zip(states.iter_mut())
            .map(|((parts, &n), scratch)| {
                scratch.reads.clear();
                (parts, take_front(&mut rest, n), scratch)
            })
            .collect();
        pool.run_tasks(tasks, |_, (parts, mut slots, scratch)| {
            for (threshold, part) in parts {
                let mine = take_front(&mut slots, part.replicas.len());
                plan_one_decision(*threshold, part, inputs, mine, scratch);
            }
        });
        spec_reads.clear();
        let mut rest = &mut pre[..];
        for (scratch, &n) in states.iter().zip(&counts) {
            let slots = take_front(&mut rest, n);
            let base = spec_reads.len() as u32;
            spec_reads.extend_from_slice(&scratch.reads);
            if base > 0 {
                for p in slots.iter_mut().filter(|p| p.spec_reads_len > 0) {
                    p.spec_reads_start += base;
                }
            }
        }
    }

    /// Starts a new epoch report (clears the cross-ring accumulators).
    pub(crate) fn begin_report(&mut self) {
        self.vnodes_global.clear();
    }

    /// Computes one ring's report aggregates from `parts` in ring order:
    /// availabilities (via the memoized cache), per-server served-query
    /// loads and vnode counts. One left fold in (partition, replica)
    /// order, so every floating-point sum is fixed by the ring alone.
    pub(crate) fn ring_stats<'a>(
        &mut self,
        cluster: &Cluster,
        parts: impl Iterator<Item = &'a mut PartitionState>,
        threshold: f64,
    ) -> RingPhaseStats {
        self.avails.clear();
        self.loads.clear();
        let mut vnodes = 0usize;
        for part in parts {
            self.avails.push(cached_availability(cluster, part));
            for r in &part.replicas {
                vnodes += 1;
                *sorted_slot(&mut self.vnodes_global, r.server) += 1;
                *sorted_slot(&mut self.loads, r.server) += r.queries_epoch;
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
        self.loads_flat.extend(self.loads.iter().map(|&(_, l)| l));
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
    /// (zero-seeded) plus the counts accumulated by
    /// [`EpochPipeline::ring_stats`] since [`EpochPipeline::begin_report`].
    pub(crate) fn vnodes_map(&self, cluster: &Cluster) -> BTreeMap<ServerId, usize> {
        let mut map: BTreeMap<ServerId, usize> = cluster.alive().map(|s| (s.id, 0usize)).collect();
        for &(id, count) in &self.vnodes_global {
            *map.entry(id).or_insert(0) += count;
        }
        map
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cloud::decisions::tests::planned_epochs;

    #[test]
    fn decision_plan_layout_does_not_depend_on_the_chunking() {
        // 96 partitions as one chunk, and as 14 chunks of 7 with a shorter
        // last one: the slices of `pre` each chunk fills and the rebased
        // read-set offsets must reproduce the one-chunk layout exactly.
        let whole = planned_epochs(|n| n);
        let chunked = planned_epochs(|_| 7);
        assert_eq!(
            phase_chunk(96),
            16,
            "the production decomposition also splits"
        );
        let (mut speculated, mut reads) = (0usize, 0usize);
        for (epoch, ((pre_a, reads_a), (pre_b, reads_b))) in whole.iter().zip(&chunked).enumerate()
        {
            assert_eq!(pre_a, pre_b, "slots diverge at epoch {epoch}");
            assert_eq!(reads_a, reads_b, "read-set arenas diverge at epoch {epoch}");
            for (a, b) in pre_a.iter().zip(pre_b) {
                let slice = |p: &PreDecision, arena: &[ServerId]| {
                    let start = p.spec_reads_start as usize;
                    arena[start..start + p.spec_reads_len as usize].to_vec()
                };
                assert_eq!(slice(a, reads_a), slice(b, reads_b));
                speculated += usize::from(b.spec_computed);
                reads += b.spec_reads_len as usize;
            }
        }
        assert!(speculated > 0, "the run must exercise speculative walks");
        // Read sets are recorded in debug builds only.
        assert_eq!(reads > 0, cfg!(debug_assertions));
    }
}
