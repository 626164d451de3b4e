//! The pool side of the deterministic parallel epoch pipeline.
//!
//! [`crate::SkuteCloud`] runs every epoch through four phases — **traffic
//! delivery**, **availability repair**, **economic decisions** and the
//! **report** — one file each under `cloud/`. Traffic and decisions are
//! each structured as
//!
//! 1. a **plan pass**: pure per-partition computation against state that
//!    is immutable for the duration of the phase (server locations,
//!    confidences, posted rents, the refreshed [`PlacementIndex`]
//!    snapshot), writing only partition-local state and per-shard
//!    scratch;
//! 2. a **sequential commit pass** that applies every effect on shared
//!    state — capacity meters, rent-board-indexed structures, executed
//!    actions — in a fixed order (ring/partition order for traffic, the
//!    seeded shuffle order for decisions), one action at a time — the
//!    paper's §II-C walk.
//!
//! Repair has no plan pass: its only parallelizable step warms each
//! partition's memoized eq.-(2) availability, and every placement it makes
//! is computed inside its sequential shuffled commit.
//!
//! The plan functions and the commits live in the phase files. This module
//! is what a `threads > 1` cloud adds on top — each phase file's one
//! `else` branch lands here — fanning a plan pass out across partitions on
//! the persistent [`WorkerPool`], plus the reusable scratch both routes
//! fill (decision slots, report accumulators).
//!
//! The pool holds parked workers for the lifetime of the cloud; the
//! workspace denies `unsafe_code`, so jobs must own their data — each
//! parallel step **moves** its partitions out of the ring maps into owned task
//! chunks, ships shared inputs (cluster, board, index, topology) through
//! an `Arc` context that the cloud takes out of itself and reclaims at the
//! phase barrier (`Arc::try_unwrap`; [`WorkerPool::run_tasks`] guarantees
//! every job's context clone is dropped before its result is published),
//! and restores the partitions in deterministic order afterwards.
//!
//! Determinism is structural, not incidental:
//!
//! * plan passes are order-independent per item, so chunk boundaries and
//!   worker scheduling cannot change any result, and
//!   [`WorkerPool::run_tasks`] returns results in task order, never
//!   completion order;
//! * per-shard accumulators ([`ShardAccounts`]) merge in (shard,
//!   insertion) order — with contiguous chunks that is the original item
//!   order, so floating-point folds keep the exact bits of the sequential
//!   loop they replaced;
//! * per-worker scratch (`WalkScratch`, placement buffers) carries no
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
//! thread count**, including `threads = 1`, which runs the identical code
//! inline with zero spawns.

use std::collections::BTreeMap;
use std::sync::Arc;

use skute_cluster::{Board, Cluster, ServerId};
use skute_economy::EconomyConfig;
use skute_exec::{split_chunks, ShardAccounts, WorkerPool};
use skute_geo::{RegionWeight, Topology};
use skute_ring::PartitionId;

use crate::cloud::decisions::{plan_one_decision, DecisionInputs, DecisionScratch, PreDecision};
use crate::cloud::repair::cached_availability;
use crate::cloud::traffic::plan_one_delivery;
use crate::metrics::mean_cv;
use crate::placement::{PlacementContext, PlacementIndex};
use crate::vnode::PartitionState;

/// Chunk size of a compute-heavy parallel phase over `n` partitions. Small
/// inputs stay in one chunk (which runs inline, with zero queue traffic);
/// large inputs split into at most ~16 chunks so work distribution stays
/// coarse. Never depends on the thread count — only results-irrelevant
/// scheduling does.
fn phase_chunk(n: usize) -> usize {
    if n < 64 {
        n.max(1)
    } else {
        n.div_ceil(16).max(16)
    }
}

/// Chunk size of a light bookkeeping phase (per-item work is a few loads
/// and pushes, often cache hits): a much higher inline threshold, so the
/// fan-out only pays for itself on genuinely large rings.
fn light_chunk(n: usize) -> usize {
    if n < 512 {
        n.max(1)
    } else {
        n.div_ceil(8).max(64)
    }
}

/// One ring's slice of a batched traffic-delivery plan pass: the batch
/// parameters plus the ring's partitions, **moved** out of the ring map
/// for the dispatch and restored afterwards.
pub(crate) struct DeliveryBatch {
    /// Index of the ring in the cloud's ring table.
    pub ring_idx: usize,
    /// Queries offered to the ring this epoch.
    pub total_queries: f64,
    /// Σ popularity over the ring's partitions (the proportional-split
    /// denominator), computed before the partitions were moved out.
    pub total_pop: f64,
    /// Client regions with normalized weights.
    pub regions: Vec<RegionWeight>,
    /// The ring's partitions in ascending partition-id order.
    pub parts: Vec<(PartitionId, PartitionState)>,
}

/// One partition's slice of the decision plan pass, moved out of its ring
/// map for the dispatch.
pub(crate) struct DecisionItem {
    /// Index of the ring in the cloud's ring table.
    pub ring_idx: usize,
    /// The ring's SLA threshold.
    pub threshold: f64,
    /// Ring-local partition id (for restoring into the ring map).
    pub pid: PartitionId,
    /// The partition, owned for the duration of the dispatch.
    pub part: PartitionState,
}

/// Per-ring aggregates of the epoch report, computed by the report plan
/// pass from sharded accumulators merged in deterministic order.
#[derive(Debug, Clone, Copy)]
pub(crate) struct RingPhaseStats {
    pub vnodes: usize,
    pub mean_availability: f64,
    pub min_availability: f64,
    pub sla_satisfied_frac: f64,
    pub load_cv: f64,
}

/// Shared context of the decision plan pass, taken out of the cloud for
/// the dispatch and handed back at the barrier.
pub(crate) struct DecisionCtx {
    pub cluster: Cluster,
    pub board: Board,
    pub topology: Arc<Topology>,
    pub economy: EconomyConfig,
    pub index: PlacementIndex,
    pub brute_force: bool,
    pub speculation: bool,
    pub min_rent: Option<f64>,
}

/// Shared context of the delivery plan pass.
struct DeliveryCtx {
    cluster: Cluster,
    topology: Arc<Topology>,
    /// `(total_queries, total_pop, regions)` per batch.
    params: Vec<(f64, f64, Vec<RegionWeight>)>,
}

/// Reclaims a phase context at the barrier. [`WorkerPool::run_tasks`]
/// guarantees every job dropped its context clone before publishing its
/// result, so by the time the dispatch returns the `Arc` is unique again.
fn reclaim<T>(ctx: Arc<T>) -> T {
    match Arc::try_unwrap(ctx) {
        Ok(ctx) => ctx,
        Err(_) => unreachable!("all phase jobs drop their context before finishing"),
    }
}

/// Phase orchestration and reusable scratch of the epoch loop: the
/// persistent worker pool, per-vnode decision slots, and the sharded
/// report accumulators. Owned by [`crate::SkuteCloud`]; one instance (and
/// therefore one set of parked workers) per cloud.
#[derive(Debug, Default)]
pub struct EpochPipeline {
    pool: WorkerPool,
    /// Per-vnode decision precomputation (indexed by work-list slot).
    pub(crate) pre: Vec<PreDecision>,
    /// Per-chunk scratch of the decision plan pass, reused across epochs.
    states: Vec<DecisionScratch>,
    /// Per-chunk slot buffers of the decision plan pass, reused across
    /// epochs (concatenated into `pre` in chunk order at the barrier).
    slot_bufs: Vec<Vec<PreDecision>>,
    /// Flat arena of every speculative walk's sorted read set, indexed by
    /// the `spec_reads_start`/`spec_reads_len` of each [`PreDecision`]
    /// slot. Rebuilt by every decision plan pass.
    pub(crate) spec_reads: Vec<ServerId>,
    // Report accumulators, reused across epochs.
    avail_acc: ShardAccounts<PartitionId, f64>,
    load_acc: ShardAccounts<ServerId, f64>,
    vnode_acc: ShardAccounts<ServerId, usize>,
    avail_merged: Vec<(PartitionId, f64)>,
    load_merged: Vec<(ServerId, f64)>,
    loads_flat: Vec<f64>,
    /// Cross-ring per-server vnode counts of the current report.
    vnodes_global: Vec<(ServerId, usize)>,
}

impl EpochPipeline {
    /// A pipeline running parallel phases on `threads` workers (`0` = the
    /// machine's available parallelism, `1` = fully inline). An explicit
    /// budget is honored exactly, even beyond the host's core count —
    /// oversubscription only costs wall clock (phase chunks are
    /// compute-bound), never determinism, and determinism tests rely on
    /// explicit budgets actually parking workers. The workers are spawned
    /// once, here, and live until the pipeline (i.e. the cloud) drops.
    pub fn new(threads: usize) -> Self {
        Self {
            pool: WorkerPool::new(threads),
            ..Self::default()
        }
    }

    /// The resolved worker budget of the parallel phases.
    pub fn threads(&self) -> usize {
        self.pool.threads()
    }

    /// Worker threads currently parked for this pipeline (`threads - 1`,
    /// or 0 for an inline pipeline).
    pub fn live_workers(&self) -> usize {
        self.pool.live_workers()
    }

    // ------------------------------------------------------------------
    // Phase 1: traffic delivery — batched parallel plan pass
    // ------------------------------------------------------------------

    /// Plans query delivery for every ring of a batch in **one** pool
    /// dispatch: for every partition, folds the epoch's region mix into
    /// `region_queries`, refreshes the proximity cache, fills the
    /// partition's [`DeliveryPlan`] (per-replica proximity weights, client
    /// distances, serving order). Reads only immutable-for-the-phase
    /// state; writes only partition-local state, so chunks are
    /// independent.
    pub(crate) fn plan_delivery_multi(
        &self,
        cluster: Cluster,
        topology: Arc<Topology>,
        mut batches: Vec<DeliveryBatch>,
    ) -> (Cluster, Vec<DeliveryBatch>) {
        let mut tasks: Vec<(usize, Vec<(PartitionId, PartitionState)>)> = Vec::new();
        let mut params: Vec<(f64, f64, Vec<RegionWeight>)> = Vec::with_capacity(batches.len());
        for (bi, batch) in batches.iter_mut().enumerate() {
            params.push((
                batch.total_queries,
                batch.total_pop,
                std::mem::take(&mut batch.regions),
            ));
            let parts = std::mem::take(&mut batch.parts);
            let chunk = phase_chunk(parts.len());
            for chunk in split_chunks(parts, chunk) {
                tasks.push((bi, chunk));
            }
        }
        let ctx = Arc::new(DeliveryCtx {
            cluster,
            topology,
            params,
        });
        let job_ctx = Arc::clone(&ctx);
        let results = self.pool.run_tasks(tasks, move |_, (bi, mut chunk)| {
            let (total_queries, total_pop, regions) = &job_ctx.params[bi];
            for (_, part) in &mut chunk {
                plan_one_delivery(
                    part,
                    &job_ctx.cluster,
                    &job_ctx.topology,
                    regions,
                    *total_queries,
                    *total_pop,
                );
            }
            (bi, chunk)
        });
        // Task order = (batch, chunk) order, so extending per batch
        // restores the original ascending partition order.
        for (bi, chunk) in results {
            batches[bi].parts.extend(chunk);
        }
        let ctx = reclaim(ctx);
        for (batch, (_, _, regions)) in batches.iter_mut().zip(ctx.params) {
            batch.regions = regions;
        }
        (ctx.cluster, batches)
    }

    // ------------------------------------------------------------------
    // Phase 2: availability repair — parallel pre-pass
    // ------------------------------------------------------------------

    /// Warms the memoized eq.-(2) availability of `parts` (the caller
    /// passes only cache misses) so the sequential repair scan reads
    /// cached floats. In the converged steady state the miss set is empty
    /// and the caller skips the dispatch entirely.
    pub(crate) fn warm_availability(
        &self,
        cluster: Cluster,
        parts: Vec<(usize, PartitionId, PartitionState)>,
    ) -> (Cluster, Vec<(usize, PartitionId, PartitionState)>) {
        let chunk = phase_chunk(parts.len());
        let tasks = split_chunks(parts, chunk);
        let ctx = Arc::new(cluster);
        let job_ctx = Arc::clone(&ctx);
        let results = self.pool.run_tasks(tasks, move |_, mut chunk| {
            for (_, _, part) in &mut chunk {
                let _ = cached_availability(&job_ctx, part);
            }
            chunk
        });
        (reclaim(ctx), results.into_iter().flatten().collect())
    }

    // ------------------------------------------------------------------
    // Phase 3: economic decisions — parallel plan pass
    // ------------------------------------------------------------------

    /// Precomputes every vnode's decision inputs — balance recording,
    /// streaks, availability-without-self, and (for vnodes whose planned
    /// intent needs one) a speculative eq.-(3) target against the frozen
    /// index snapshot — filling [`EpochPipeline::pre`] in flat
    /// (ring, partition, replica) enumeration order. The commit pass
    /// consumes the slots in the seeded shuffle order. The shared inputs
    /// travel as an owned context and are returned at the barrier.
    pub(crate) fn decisions_prepass(
        &mut self,
        ctx: DecisionCtx,
        items: Vec<DecisionItem>,
    ) -> (DecisionCtx, Vec<DecisionItem>) {
        let chunk = phase_chunk(items.len());
        let chunks = split_chunks(items, chunk);
        let n_chunks = chunks.len();
        self.states.truncate(n_chunks);
        while self.states.len() < n_chunks {
            self.states.push(DecisionScratch::default());
        }
        self.slot_bufs.truncate(n_chunks);
        while self.slot_bufs.len() < n_chunks {
            self.slot_bufs.push(Vec::new());
        }
        let tasks: Vec<(Vec<DecisionItem>, Vec<PreDecision>, DecisionScratch)> = chunks
            .into_iter()
            .zip(self.slot_bufs.iter_mut().map(std::mem::take))
            .zip(self.states.iter_mut().map(std::mem::take))
            .map(|((items, mut slots), mut scratch)| {
                slots.clear();
                scratch.reads.clear();
                (items, slots, scratch)
            })
            .collect();
        let ctx = Arc::new(ctx);
        let job_ctx = Arc::clone(&ctx);
        let results = self
            .pool
            .run_tasks(tasks, move |_, (mut items, mut slots, mut scratch)| {
                let inputs = DecisionInputs {
                    placement: PlacementContext::new(
                        &job_ctx.cluster,
                        &job_ctx.board,
                        &job_ctx.topology,
                        &job_ctx.economy,
                    ),
                    index: &job_ctx.index,
                    brute_force: job_ctx.brute_force,
                    speculation: job_ctx.speculation,
                    min_rent: job_ctx.min_rent,
                };
                for item in &mut items {
                    plan_one_decision(
                        item.threshold,
                        &mut item.part,
                        &inputs,
                        &mut slots,
                        &mut scratch,
                    );
                }
                (items, slots, scratch)
            });
        // Chunk order = flat enumeration order: concatenating the chunk
        // slot buffers (and read-set arenas, rebasing the slot offsets by
        // the splice point) reproduces the sequential layout exactly.
        self.pre.clear();
        self.spec_reads.clear();
        let mut items_back: Vec<DecisionItem> = Vec::new();
        for (ci, (items, slots, scratch)) in results.into_iter().enumerate() {
            items_back.extend(items);
            let base = self.spec_reads.len() as u32;
            self.spec_reads.extend_from_slice(&scratch.reads);
            let start = self.pre.len();
            self.pre.extend_from_slice(&slots);
            if base > 0 {
                for p in &mut self.pre[start..] {
                    p.spec_reads_start += base;
                }
            }
            self.slot_bufs[ci] = slots;
            self.states[ci] = scratch;
        }
        (reclaim(ctx), items_back)
    }

    /// The single-thread fast path of the decision plan pass: identical
    /// per-vnode arithmetic, run in place over borrowed partitions — no
    /// map rebuilds, no context round trip. `items` must yield
    /// `(threshold, partition)` in flat (ring, partition) order so the
    /// slot layout matches the owned dispatch exactly.
    pub(crate) fn decisions_prepass_inline<'a>(
        &mut self,
        items: impl Iterator<Item = (f64, &'a mut PartitionState)>,
        inputs: &DecisionInputs<'_>,
    ) {
        if self.states.is_empty() {
            self.states.push(DecisionScratch::default());
        }
        let Self {
            pre,
            states,
            spec_reads,
            ..
        } = self;
        let scratch = &mut states[0];
        scratch.reads.clear();
        pre.clear();
        for (threshold, part) in items {
            plan_one_decision(threshold, part, inputs, pre, scratch);
        }
        // Single chunk: the chunk-local arena is the whole arena, offsets
        // already flat.
        spec_reads.clear();
        std::mem::swap(spec_reads, &mut scratch.reads);
    }

    // ------------------------------------------------------------------
    // Epoch report — parallel plan pass with sharded accounting
    // ------------------------------------------------------------------

    /// Starts a new epoch report (clears the cross-ring accumulators).
    pub(crate) fn begin_report(&mut self) {
        self.vnodes_global.clear();
    }

    /// Computes one ring's report aggregates: availabilities (via the
    /// memoized cache), per-server served-query loads, and vnode counts,
    /// collected into [`ShardAccounts`] and merged in (partition, server)
    /// order — the exact fold order of the sequential loop this replaces.
    /// The partitions move through the dispatch and come back in order.
    pub(crate) fn ring_stats(
        &mut self,
        cluster: Cluster,
        parts: Vec<(PartitionId, PartitionState)>,
        threshold: f64,
    ) -> (Cluster, Vec<(PartitionId, PartitionState)>, RingPhaseStats) {
        let n = parts.len();
        let chunk = light_chunk(n);
        let chunks = split_chunks(parts, chunk);
        let n_chunks = chunks.len();
        self.avail_acc.reset(n_chunks);
        self.load_acc.reset(n_chunks);
        self.vnode_acc.reset(n_chunks);
        let tasks: Vec<ReportTask> = chunks
            .into_iter()
            .zip(self.avail_acc.shards_mut().iter_mut().map(std::mem::take))
            .zip(self.load_acc.shards_mut().iter_mut().map(std::mem::take))
            .zip(self.vnode_acc.shards_mut().iter_mut().map(std::mem::take))
            .map(|(((parts, avail), loads), vnodes)| ReportTask {
                parts,
                avail,
                loads,
                vnodes,
            })
            .collect();
        let ctx = Arc::new(cluster);
        let job_ctx = Arc::clone(&ctx);
        let results = self.pool.run_tasks(tasks, move |_, mut task| {
            for (pid, part) in &mut task.parts {
                let a = cached_availability(&job_ctx, part);
                task.avail.push((*pid, a));
                for r in &part.replicas {
                    task.vnodes.push((r.server, 1usize));
                    task.loads.push((r.server, r.queries_epoch));
                }
            }
            task
        });
        let mut parts_back: Vec<(PartitionId, PartitionState)> = Vec::with_capacity(n);
        for (ci, task) in results.into_iter().enumerate() {
            parts_back.extend(task.parts);
            self.avail_acc.shards_mut()[ci] = task.avail;
            self.load_acc.shards_mut()[ci] = task.loads;
            self.vnode_acc.shards_mut()[ci] = task.vnodes;
        }
        let stats = self.finish_ring_stats(n, threshold);
        (reclaim(ctx), parts_back, stats)
    }

    /// The single-thread fast path of the report pass: identical
    /// accounting run in place over borrowed partitions, filling one
    /// shard in item order — the merge replays exactly the same delta
    /// sequence as any contiguous chunk decomposition, so the stats are
    /// bit-identical to the owned dispatch.
    pub(crate) fn ring_stats_inline<'a>(
        &mut self,
        cluster: &Cluster,
        parts: impl Iterator<Item = &'a mut PartitionState>,
        threshold: f64,
    ) -> RingPhaseStats {
        self.avail_acc.reset(1);
        self.load_acc.reset(1);
        self.vnode_acc.reset(1);
        let mut n = 0usize;
        for part in parts {
            n += 1;
            let a = cached_availability(cluster, part);
            self.avail_acc.shards_mut()[0].push((part.id, a));
            for r in &part.replicas {
                self.vnode_acc.shards_mut()[0].push((r.server, 1usize));
                self.load_acc.shards_mut()[0].push((r.server, r.queries_epoch));
            }
        }
        self.finish_ring_stats(n, threshold)
    }

    /// Merges the filled shard accumulators into the ring's report stats.
    fn finish_ring_stats(&mut self, n: usize, threshold: f64) -> RingPhaseStats {
        // Merges: partition ids ascend (= the rings' BTreeMap iteration
        // order), per-server loads combine in partition order.
        self.avail_merged.clear();
        self.avail_acc
            .merge_into_sorted(&mut self.avail_merged, || 0.0, |slot, v| *slot = v);
        self.load_merged.clear();
        self.load_acc
            .merge_into_sorted(&mut self.load_merged, || 0.0, |slot, v| *slot += v);
        let vnodes = self.vnode_acc.len();
        self.vnode_acc
            .merge_into_sorted(&mut self.vnodes_global, || 0usize, |slot, v| *slot += v);
        let avails = || self.avail_merged.iter().map(|&(_, a)| a);
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
        self.loads_flat
            .extend(self.load_merged.iter().map(|&(_, l)| l));
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

/// One chunk of the report plan pass: the partitions plus the chunk's
/// shard buffers, all owned for the dispatch.
struct ReportTask {
    parts: Vec<(PartitionId, PartitionState)>,
    avail: Vec<(PartitionId, f64)>,
    loads: Vec<(ServerId, f64)>,
    vnodes: Vec<(ServerId, usize)>,
}
