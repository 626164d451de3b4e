//! The deterministic parallel epoch pipeline.
//!
//! [`crate::SkuteCloud`] runs every epoch through three phases — **traffic
//! delivery**, **availability repair**, **economic decisions**. Traffic
//! and decisions are each structured as
//!
//! 1. a **parallel plan pass** that fans out across partitions on the
//!    persistent [`WorkerPool`]: pure per-partition computation against
//!    state that is immutable for the duration of the phase (server
//!    locations, confidences, posted rents, the refreshed
//!    [`PlacementIndex`] snapshot), writing only partition-local state and
//!    per-shard scratch;
//! 2. a **sequential commit pass** that applies every effect on shared
//!    state — capacity meters, rent-board-indexed structures, executed
//!    actions — in a fixed order (ring/partition order for traffic, the
//!    seeded shuffle order for decisions), one action at a time — the
//!    paper's §II-C walk.
//!
//! Repair has no plan pass: its only parallel step warms each partition's
//! memoized eq.-(2) availability, and every placement it makes is computed
//! inside its sequential shuffled commit.
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
//! * per-worker scratch ([`WalkScratch`], placement buffers) carries no
//!   state between items; the only randomness in the epoch loop (the
//!   repair and decision shuffles, server seeding) stays on the cloud's
//!   sequential RNG stream;
//! * speculative placement targets computed by the decision plan pass
//!   carry their walk's **read set** ([`WalkScratch`] records every
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
use skute_economy::{floored_utility, EconomyConfig, ProximityCache, RegionQueries};
use skute_exec::{split_chunks, ShardAccounts, WorkerPool};
use skute_geo::{Location, RegionWeight, Topology};
use skute_ring::PartitionId;

use crate::availability::availability_of;
use crate::decision::{classify, Intent, VnodeSituation};
use crate::metrics::mean_cv;
use crate::placement::{economic_target, PlacementContext, PlacementIndex, WalkScratch};
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

/// Everything one virtual node's economic decision needs that is fixed for
/// the duration of the decision phase, precomputed by the parallel plan
/// pass and consumed by the sequential commit pass.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct PreDecision {
    /// The vnode's server had no posted rent: the commit pass skips the
    /// item entirely (matching the sequential loop's `continue`).
    pub skip: bool,
    /// Posted rent of the hosting server this epoch.
    pub rent: f64,
    /// Floored eq.-(5) utility earned this epoch.
    pub u_eff: f64,
    /// Consistency network cost of one extra replica.
    pub consistency_cost: f64,
    /// Partition membership version the situation below was computed at;
    /// a mismatch at commit time means an earlier committed action changed
    /// the partition and the situation must be recomputed live.
    pub membership_version: u64,
    /// Replica count at plan time.
    pub replica_count: usize,
    /// Eq.-(2) availability of the partition without this replica.
    pub availability_without_self: f64,
    /// Balance-window streaks and mean, read *after* recording this
    /// epoch's balance (the plan pass owns the recording).
    pub negative_streak: bool,
    /// See `negative_streak`.
    pub positive_streak: bool,
    /// Mean balance over the window, if any history exists.
    pub window_mean: Option<f64>,
    /// True when the plan pass ran a speculative eq.-(3) target query for
    /// this vnode (its planned intent needed one).
    pub spec_computed: bool,
    /// The speculative target (`None` = no feasible candidate), honored
    /// at commit time while its read set is untouched by the preceding
    /// committed actions (see `crate::placement::validate_speculation`).
    pub spec: Option<(ServerId, f64)>,
    /// Start of this speculation's read set in the pipeline's flat arena
    /// ([`EpochPipeline::spec_reads`]; empty in release builds, where
    /// validation rests on the dominance theorem instead of per-server
    /// read lookups).
    pub spec_reads_start: u32,
    /// Length of the read-set slice.
    pub spec_reads_len: u32,
    /// The speculative query read every candidate (oracle-scan paths:
    /// brute-force routing, client-zone region mixes), so the debug
    /// cross-check re-scores every weakened touched server.
    pub spec_reads_all: bool,
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

/// Per-chunk scratch of the decision plan pass.
#[derive(Debug, Clone, Default)]
struct DecisionScratch {
    walk: WalkScratch,
    servers: Vec<ServerId>,
    placed: Vec<(Location, f64)>,
    /// Chunk-local read-set arena: each speculative walk's sorted read
    /// set, concatenated in slot order. The barrier splices the chunk
    /// arenas into [`EpochPipeline::spec_reads`], rebasing slot offsets.
    reads: Vec<ServerId>,
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
/// the dispatch and reclaimed at the barrier.
struct DecisionCtx {
    cluster: Cluster,
    board: Board,
    topology: Arc<Topology>,
    economy: EconomyConfig,
    index: PlacementIndex,
    brute_force: bool,
    speculation: bool,
    min_rent: Option<f64>,
}

/// Borrowed view of the decision plan pass's shared inputs, common to the
/// owned-dispatch path (viewing a [`DecisionCtx`]) and the inline
/// single-thread path (viewing the cloud's fields directly).
pub(crate) struct DecisionInputs<'a> {
    pub cluster: &'a Cluster,
    pub board: &'a Board,
    pub topology: &'a Topology,
    pub economy: &'a EconomyConfig,
    pub index: &'a PlacementIndex,
    pub brute_force: bool,
    /// False under [`crate::DecisionOracle::Rewalk`]: the plan pass
    /// computes no speculative targets, so the commit pass re-walks every
    /// acting vnode on the live state. Bitwise-identical trajectories
    /// either way.
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
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn decisions_prepass(
        &mut self,
        cluster: Cluster,
        board: Board,
        topology: Arc<Topology>,
        economy: EconomyConfig,
        index: PlacementIndex,
        brute_force: bool,
        speculation: bool,
        min_rent: Option<f64>,
        items: Vec<DecisionItem>,
    ) -> (Cluster, Board, PlacementIndex, Vec<DecisionItem>) {
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
        let ctx = Arc::new(DecisionCtx {
            cluster,
            board,
            topology,
            economy,
            index,
            brute_force,
            speculation,
            min_rent,
        });
        let job_ctx = Arc::clone(&ctx);
        let results = self
            .pool
            .run_tasks(tasks, move |_, (mut items, mut slots, mut scratch)| {
                let inputs = DecisionInputs {
                    cluster: &job_ctx.cluster,
                    board: &job_ctx.board,
                    topology: &job_ctx.topology,
                    economy: &job_ctx.economy,
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
        let ctx = reclaim(ctx);
        (ctx.cluster, ctx.board, ctx.index, items_back)
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
        let mean_availability = if n == 0 {
            0.0
        } else {
            self.avail_merged.iter().map(|&(_, a)| a).sum::<f64>() / n as f64
        };
        let min_availability = if n == 0 {
            0.0
        } else {
            self.avail_merged
                .iter()
                .map(|&(_, a)| a)
                .fold(f64::INFINITY, f64::min)
                .min(f64::INFINITY)
        };
        let sla_ok = self
            .avail_merged
            .iter()
            .filter(|&&(_, a)| a >= threshold)
            .count();
        self.loads_flat.clear();
        self.loads_flat
            .extend(self.load_merged.iter().map(|&(_, l)| l));
        let (_, load_cv) = mean_cv(&self.loads_flat);
        RingPhaseStats {
            vnodes,
            mean_availability,
            min_availability,
            sla_satisfied_frac: if n == 0 {
                1.0
            } else {
                sla_ok as f64 / n as f64
            },
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

/// One partition's delivery plan: region-mix fold, proximity refresh,
/// per-replica weights/distances/serving order. Pure per-partition work
/// against immutable cluster state; shared verbatim by the owned dispatch
/// and the single-thread inline path.
pub(crate) fn plan_one_delivery(
    part: &mut PartitionState,
    cluster: &Cluster,
    topology: &Topology,
    regions: &[RegionWeight],
    total_queries: f64,
    total_pop: f64,
) {
    part.delivery.ready = false;
    let q = total_queries * part.popularity / total_pop;
    if q <= 0.0 {
        return;
    }
    part.queries_epoch += q;
    for region in regions {
        let add = q * region.weight;
        if add <= 0.0 {
            continue;
        }
        match part
            .region_queries
            .iter_mut()
            .find(|r| r.location == region.location)
        {
            Some(r) => r.queries += add,
            None => part.region_queries.push(RegionQueries {
                location: region.location,
                queries: add,
            }),
        }
    }
    // The region mix just changed: drop stale memoized proximity, then
    // refill it while computing the per-replica weights. Placement
    // decisions later in the epoch reuse the refilled cache.
    part.prox_cache.clear();
    let PartitionState {
        region_queries,
        prox_cache,
        replicas,
        delivery,
        ..
    } = &mut *part;
    delivery.gs.clear();
    delivery.dists.clear();
    for r in replicas.iter() {
        match cluster.get(r.server) {
            Some(s) => {
                // Per-replica proximity, memoized per country.
                delivery
                    .gs
                    .push(prox_cache.g(region_queries, &s.location, topology));
                // Region-weighted client distance of the replica (latency
                // proxy, diversity units).
                delivery.dists.push(
                    regions
                        .iter()
                        .map(|reg| {
                            reg.weight * f64::from(skute_geo::diversity(&reg.location, &s.location))
                        })
                        .sum(),
                );
            }
            None => {
                delivery.gs.push(1.0);
                delivery.dists.push(0.0);
            }
        }
    }
    delivery.order.clear();
    delivery.order.extend(0..replicas.len());
    let gs = &delivery.gs;
    delivery.order.sort_by(|&a, &b| gs[b].total_cmp(&gs[a]));
    delivery.q = q;
    delivery.sum_g = delivery.gs.iter().sum();
    delivery.ready = true;
}

/// One partition's slice of the decision plan pass: records balances,
/// evaluates each vnode's situation against the phase-start membership,
/// runs speculative target queries, and pushes one [`PreDecision`] per
/// replica in replica order. Shared verbatim by the owned dispatch and
/// the single-thread inline path.
fn plan_one_decision(
    threshold: f64,
    part: &mut PartitionState,
    ctx: &DecisionInputs<'_>,
    slots: &mut Vec<PreDecision>,
    scratch: &mut DecisionScratch,
) {
    let pctx = PlacementContext {
        cluster: ctx.cluster,
        board: ctx.board,
        topology: ctx.topology,
        economy: ctx.economy,
    };
    let mib = 1024.0 * 1024.0;
    let consistency_cost =
        ctx.economy.consistency_cost_per_mib * (part.write_bytes_epoch as f64 / mib);
    let n = part.replicas.len();
    for idx in 0..n {
        let mut pre = PreDecision::default();
        let server = part.replicas[idx].server;
        let Some(rent) = ctx.board.price_of(server) else {
            // Server vanished mid-epoch; the replica was removed and the
            // commit pass skips the item.
            pre.skip = true;
            slots.push(pre);
            continue;
        };
        let u_eff = floored_utility(part.replicas[idx].utility_epoch, ctx.min_rent);
        let balance = u_eff - rent;
        scratch.placed.clear();
        for (i, r) in part.replicas.iter().enumerate() {
            if i == idx {
                continue;
            }
            if let Some(s) = ctx.cluster.get(r.server) {
                scratch.placed.push((s.location, s.confidence));
            }
        }
        part.replicas[idx].balance.record(balance);
        pre.rent = rent;
        pre.u_eff = u_eff;
        pre.consistency_cost = consistency_cost;
        pre.membership_version = part.membership_version;
        pre.replica_count = n;
        pre.availability_without_self = availability_of(&scratch.placed);
        pre.negative_streak = part.replicas[idx].balance.negative_streak();
        pre.positive_streak = part.replicas[idx].balance.positive_streak();
        pre.window_mean = part.replicas[idx].balance.window_mean();
        let situation = VnodeSituation {
            negative_streak: pre.negative_streak,
            positive_streak: pre.positive_streak,
            window_mean: pre.window_mean,
            availability_without_self: pre.availability_without_self,
            threshold,
            replica_count: n,
            max_replicas: ctx.economy.max_replicas,
            current_rent: rent,
            projected_replica_cost: ctx.min_rent.unwrap_or(0.0) + consistency_cost,
            hurdle: ctx.economy.replication_hurdle,
        };
        match classify(&situation) {
            Intent::Stay | Intent::Suicide => {}
            Intent::Migrate if ctx.speculation => {
                scratch.servers.clear();
                for (i, r) in part.replicas.iter().enumerate() {
                    if i != idx {
                        scratch.servers.push(r.server);
                    }
                }
                let size = part.synthetic_bytes + part.replicas[idx].store.logical_bytes();
                let rent_cap = rent * (1.0 - ctx.economy.migration_margin);
                let PartitionState {
                    region_queries,
                    prox_cache,
                    ..
                } = &mut *part;
                pre.spec = speculate(
                    ctx.index,
                    ctx.brute_force,
                    &pctx,
                    &scratch.servers,
                    size,
                    region_queries,
                    prox_cache,
                    Some(rent_cap),
                    &mut scratch.walk,
                );
                pre.spec_computed = true;
                record_spec_reads(&mut pre, scratch);
            }
            Intent::ReplicateForProfit if ctx.speculation => {
                scratch.servers.clear();
                scratch
                    .servers
                    .extend(part.replicas.iter().map(|r| r.server));
                let size = part.size_bytes();
                let PartitionState {
                    region_queries,
                    prox_cache,
                    ..
                } = &mut *part;
                pre.spec = speculate(
                    ctx.index,
                    ctx.brute_force,
                    &pctx,
                    &scratch.servers,
                    size,
                    region_queries,
                    prox_cache,
                    None,
                    &mut scratch.walk,
                );
                pre.spec_computed = true;
                record_spec_reads(&mut pre, scratch);
            }
            // `DecisionOracle::Rewalk`: leave `spec_computed` unset so the
            // commit pass re-walks on the live state.
            Intent::Migrate | Intent::ReplicateForProfit => {}
        }
        slots.push(pre);
    }
}

/// Memoized eq.-(2) availability of a partition's current replica set,
/// computing and caching on miss. Bit-identical to the direct evaluation:
/// the placed list is built in replica order, exactly as the sequential
/// loops always did, and locations/confidences are immutable.
pub(crate) fn cached_availability(cluster: &Cluster, part: &mut PartitionState) -> f64 {
    if let Some(a) = part.cached_availability {
        return a;
    }
    let mut placed: Vec<(Location, f64)> = Vec::with_capacity(part.replicas.len());
    for r in &part.replicas {
        if let Some(s) = cluster.get(r.server) {
            placed.push((s.location, s.confidence));
        }
    }
    let a = availability_of(&placed);
    part.cached_availability = Some(a);
    a
}

/// One speculative eq.-(3) target query of the decision plan pass: the
/// read-only index walk (or the pure oracle scan when the cloud is routed
/// brute-force), bit-identical to the owned-access query the commit pass
/// would run against the same snapshot. The walk scratch records the
/// query's read set (the oracle scan reads everything).
#[allow(clippy::too_many_arguments)]
fn speculate(
    index: &PlacementIndex,
    brute_force: bool,
    ctx: &PlacementContext<'_>,
    existing: &[ServerId],
    partition_size: u64,
    region_queries: &[RegionQueries],
    prox: &mut ProximityCache,
    rent_below: Option<f64>,
    walk: &mut WalkScratch,
) -> Option<(ServerId, f64)> {
    if brute_force {
        walk.mark_reads_all();
        economic_target(ctx, existing, partition_size, region_queries, rent_below)
    } else {
        index.economic_target_in(
            ctx,
            existing,
            partition_size,
            region_queries,
            rent_below,
            prox,
            walk,
        )
    }
}

/// Copies the last speculative walk's read set into the chunk arena and
/// stamps the slot's offsets, or marks the slot full-scan when the query
/// read every candidate. Debug-build machinery like the recording itself:
/// release validation never consults the per-server reads (see
/// `crate::placement::validate_speculation`), so release arenas stay
/// empty.
fn record_spec_reads(pre: &mut PreDecision, scratch: &mut DecisionScratch) {
    let DecisionScratch { walk, reads, .. } = scratch;
    if walk.reads_all() {
        pre.spec_reads_all = true;
        return;
    }
    if !cfg!(debug_assertions) {
        return;
    }
    let start = reads.len();
    reads.extend_from_slice(walk.reads());
    pre.spec_reads_start = start as u32;
    pre.spec_reads_len = (reads.len() - start) as u32;
}
