//! Epoch phase 3 — economic decisions (§II-C): the per-vnode plan, its
//! driver, and the sequential commit that validates or re-walks every
//! speculative eq.-(3) target.

use rand::seq::SliceRandom;

use skute_cluster::ServerId;
use skute_economy::{floored_utility, EconomyConfig};
use skute_geo::Location;

use super::exec::{exec_migration, exec_replication, exec_suicide};
use super::{select_target, DecisionOracle, SkuteCloud};
use crate::availability::availability_of;
use crate::decision::{classify, clears_profit_hurdle, ActionCounts, Intent, VnodeSituation};
use crate::pipeline::{phase_chunk, EpochPipeline};
use crate::placement::{
    economic_target, validate_speculation, PlacementContext, PlacementIndex, Speculation,
    TargetQuery, WalkScratch,
};
use crate::vnode::{PartitionState, VnodeId};

/// Everything one virtual node's economic decision needs that is fixed for
/// the duration of the decision phase, precomputed by the parallel plan
/// pass and consumed by the sequential commit pass.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
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
    /// Partition membership version the two fields below were computed
    /// at; a mismatch at commit time means an earlier committed action
    /// changed the partition and they must be re-evaluated live.
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

impl PreDecision {
    /// The situation [`classify`] judges: this slot's plan-time facts
    /// under the ring's `threshold`, the economy's limits and the phase's
    /// cheapest posted rent. One builder for the plan and the commit pass,
    /// so the two classify the same floats.
    fn situation(
        &self,
        threshold: f64,
        economy: &EconomyConfig,
        min_rent: Option<f64>,
    ) -> VnodeSituation {
        VnodeSituation {
            negative_streak: self.negative_streak,
            positive_streak: self.positive_streak,
            window_mean: self.window_mean,
            availability_without_self: self.availability_without_self,
            threshold,
            replica_count: self.replica_count,
            max_replicas: economy.max_replicas,
            current_rent: self.rent,
            projected_replica_cost: min_rent.unwrap_or(0.0) + self.consistency_cost,
            hurdle: economy.replication_hurdle,
        }
    }
}

/// Per-chunk scratch of the decision plan pass.
#[derive(Debug, Clone, Default)]
pub(crate) struct DecisionScratch {
    walk: WalkScratch,
    servers: Vec<ServerId>,
    placed: Vec<(Location, f64)>,
    /// Chunk-local read-set arena: each speculative walk's sorted read
    /// set, concatenated in slot order. The plan pass splices the chunk
    /// arenas into [`EpochPipeline::spec_reads`], rebasing slot offsets.
    pub reads: Vec<ServerId>,
}

/// Borrowed view of the decision plan pass's shared inputs: the cloud's
/// own fields, immutable for the duration of the pass.
pub(crate) struct DecisionInputs<'a> {
    pub placement: PlacementContext<'a>,
    pub index: &'a PlacementIndex,
    pub brute_force: bool,
    /// False under [`crate::DecisionOracle::Rewalk`]: the plan pass
    /// computes no speculative targets, so the commit pass re-walks every
    /// acting vnode on the live state. Bitwise-identical trajectories
    /// either way.
    pub speculation: bool,
    pub min_rent: Option<f64>,
}

/// Frames the eq.-(3) question vnode `idx` of `part` asks: fills
/// `existing` and returns the query's `(size, rent_below)`. A migrating
/// vnode places its own copy among the *other* replicas, on a server
/// meaningfully cheaper than the `rent` it pays now (hysteresis: only then
/// is the transfer worth it); a profit replication places a full-size copy
/// beside all of them at any rent.
fn frame_query(
    migrate: bool,
    part: &PartitionState,
    idx: usize,
    rent: f64,
    economy: &EconomyConfig,
    existing: &mut Vec<ServerId>,
) -> (u64, Option<f64>) {
    existing.clear();
    if migrate {
        for (i, r) in part.replicas.iter().enumerate() {
            if i != idx {
                existing.push(r.server);
            }
        }
        (
            part.synthetic_bytes + part.replicas[idx].store.logical_bytes(),
            Some(rent * (1.0 - economy.migration_margin)),
        )
    } else {
        existing.extend(part.replicas.iter().map(|r| r.server));
        (part.size_bytes(), None)
    }
}

/// One partition's slice of the decision plan pass: records balances,
/// evaluates each vnode's situation against the phase-start membership,
/// runs speculative target queries, and fills `slots` — one
/// [`PreDecision`] per replica, in replica order.
pub(crate) fn plan_one_decision(
    threshold: f64,
    part: &mut PartitionState,
    ctx: &DecisionInputs<'_>,
    slots: &mut [PreDecision],
    scratch: &mut DecisionScratch,
) {
    let PlacementContext {
        cluster,
        board,
        economy,
        ..
    } = ctx.placement;
    let mib = 1024.0 * 1024.0;
    let consistency_cost = economy.consistency_cost_per_mib * (part.write_bytes_epoch as f64 / mib);
    let n = part.replicas.len();
    debug_assert_eq!(slots.len(), n, "one slot per replica");
    for (idx, slot) in slots.iter_mut().enumerate() {
        let server = part.replicas[idx].server;
        let Some(rent) = board.price_of(server) else {
            // Server vanished mid-epoch; the replica was removed.
            *slot = PreDecision {
                skip: true,
                ..PreDecision::default()
            };
            continue;
        };
        let u_eff = floored_utility(part.replicas[idx].utility_epoch, ctx.min_rent);
        scratch.placed.clear();
        for (i, r) in part.replicas.iter().enumerate() {
            if i == idx {
                continue;
            }
            if let Some(s) = cluster.get(r.server) {
                scratch.placed.push((s.location, s.confidence));
            }
        }
        let balance = &mut part.replicas[idx].balance;
        balance.record(u_eff - rent);
        let mut pre = PreDecision {
            rent,
            u_eff,
            consistency_cost,
            membership_version: part.membership_version,
            replica_count: n,
            availability_without_self: availability_of(&scratch.placed),
            negative_streak: balance.negative_streak(),
            positive_streak: balance.positive_streak(),
            window_mean: balance.window_mean(),
            ..PreDecision::default()
        };
        let intent = classify(&pre.situation(threshold, economy, ctx.min_rent));
        // `DecisionOracle::Rewalk` leaves `spec_computed` unset, so the
        // commit pass re-walks on the live state.
        if ctx.speculation && matches!(intent, Intent::Migrate | Intent::ReplicateForProfit) {
            let (size, rent_below) = frame_query(
                intent == Intent::Migrate,
                part,
                idx,
                rent,
                economy,
                &mut scratch.servers,
            );
            let q = TargetQuery {
                existing: &scratch.servers,
                size,
                region_queries: &part.region_queries,
                rent_below,
            };
            // The read-only index walk (or the pure oracle scan when the
            // cloud is routed brute-force, which reads everything):
            // bit-identical to the `&mut` index query the commit pass
            // would run against the same snapshot.
            pre.spec = if ctx.brute_force {
                scratch.walk.mark_reads_all();
                economic_target(&ctx.placement, &q)
            } else {
                let walk = &mut scratch.walk;
                ctx.index
                    .economic_target_in(&ctx.placement, &q, &mut part.prox_cache, walk)
            };
            pre.spec_computed = true;
            record_spec_reads(&mut pre, scratch);
        }
        *slot = pre;
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

impl SkuteCloud {
    /// Economic pass: every vnode records its balance and acts on f-epoch
    /// streaks (suicide / migrate / profit-replicate).
    ///
    /// Structured as a pipeline phase. The parallel **plan** pass touches
    /// only partition-local state — it records balances, evaluates each
    /// vnode's [`VnodeSituation`] against the phase-start membership, and
    /// runs speculative eq.-(3) target queries through the index's
    /// read-only snapshot view, each walk recording its read set. The
    /// sequential **commit** pass then walks the seeded shuffle order:
    /// rent/utility totals accumulate from the precomputed per-vnode
    /// values (same floats, same order as the old in-loop accumulation),
    /// situations are re-evaluated live only for partitions whose
    /// membership an earlier committed action changed, and speculative
    /// targets are **validated, not discarded**: every executed action
    /// records the servers it touched, and a later speculation is honored
    /// whenever `validate_speculation` proves those touches cannot have
    /// changed its answer (the board is never written mid-pass, so its
    /// frozen version covers every walk's price reads). Only genuine
    /// read/write overlap — the winner itself touched, a touched
    /// candidate re-scoring past the winner, or this partition's own
    /// membership changing — re-walks the live state, exactly as the
    /// sequential loop would; `actions.spec_hits`/`spec_misses` count the
    /// two outcomes, and [`DecisionOracle::Rewalk`] routes everything
    /// through the re-walk path as the oracle.
    pub(super) fn economic_decisions(
        &mut self,
        actions: &mut ActionCounts,
        rent_paid: &mut f64,
        utility_earned: &mut f64,
    ) {
        let economy = self.config.economy;
        let window = economy.decision_window;
        let brute_force = self.oracle == DecisionOracle::BruteForce;
        let min_rent = self.board.min_price();
        // Snapshot vnode identities into the reusable work list; replicas
        // mutate as we act. The slot indexes the pipeline's precomputation
        // buffer (flat enumeration order, which the plan pass replays).
        let mut work = std::mem::take(&mut self.work_scratch);
        work.clear();
        let mut slots = 0usize;
        for (ri, ring) in self.rings.iter().enumerate() {
            for (pid, p) in &ring.partitions {
                for r in &p.replicas {
                    work.push((ri, *pid, r.id, slots));
                    slots += 1;
                }
            }
        }
        work.shuffle(&mut self.rng);
        self.plan_decisions(min_rent, phase_chunk);
        let frozen = (self.cluster.version(), self.board.version());
        debug_assert_eq!(self.pipeline.pre.len(), slots, "one slot per vnode");
        // Commit pass (sequential, seeded shuffle order, one action at a
        // time). Every executed action records its touched servers (the
        // pass's write set); later speculations are honored as long as
        // read-set validation proves the touches cannot have changed
        // their answer, and re-walk on the live state only on genuine
        // read/write overlap.
        self.spec_touched.clear();
        for &(ri, pid, vid, slot) in &work {
            let threshold = self.rings[ri].level.threshold;
            // The vnode may have been split away or suicided already.
            let Some(partition) = self.rings[ri].partitions.get_mut(&pid) else {
                continue;
            };
            let Some(idx) = partition.replicas.iter().position(|r| r.id == vid) else {
                continue;
            };
            let server = partition.replicas[idx].server;
            let pre = self.pipeline.pre[slot];
            if pre.skip {
                continue; // server vanished mid-epoch; replica was removed
            }
            *rent_paid += pre.rent;
            *utility_earned += pre.u_eff;
            let mut situation = pre.situation(threshold, &economy, min_rent);
            let membership_intact = partition.membership_version == pre.membership_version;
            if !membership_intact {
                // An earlier committed action changed this partition:
                // re-evaluate against the live membership, exactly as
                // the sequential loop always did.
                self.placed_scratch.clear();
                for (i, r) in partition.replicas.iter().enumerate() {
                    if i == idx {
                        continue;
                    }
                    if let Some(s) = self.cluster.get(r.server) {
                        self.placed_scratch.push((s.location, s.confidence));
                    }
                }
                situation.availability_without_self = availability_of(&self.placed_scratch);
                situation.replica_count = partition.replicas.len();
            }
            let migrate = match classify(&situation) {
                Intent::Stay => continue,
                Intent::Suicide => {
                    exec_suicide(&mut self.cluster, partition, idx);
                    actions.suicides += 1;
                    self.note_index(&[server]);
                    self.spec_touched.record(server, false);
                    continue;
                }
                Intent::Migrate => true,
                Intent::ReplicateForProfit => false,
            };
            // A speculation is eligible at all only while the board still
            // holds its frozen prices (the pass never writes the board)
            // and this partition's membership — the speculation's
            // `existing` set and size — is untouched. Touched-server
            // validation then decides whether it is provably still the
            // fresh-walk answer.
            let spec_live =
                pre.spec_computed && self.board.version() == frozen.1 && membership_intact;
            let spec = spec_live.then(|| Speculation {
                target: pre.spec,
                reads: spec_reads(&self.pipeline, &pre),
                reads_all: pre.spec_reads_all,
            });
            let (target, honored) = match spec {
                // Nothing committed yet: every speculation still stands.
                Some(spec) if self.spec_touched.is_empty() => (spec.target, true),
                spec => {
                    let (size, rent_below) = frame_query(
                        migrate,
                        partition,
                        idx,
                        pre.rent,
                        &economy,
                        &mut self.servers_scratch,
                    );
                    let ctx = PlacementContext::new(
                        &self.cluster,
                        &self.board,
                        &self.topology,
                        &self.config.economy,
                    );
                    let q = TargetQuery {
                        existing: &self.servers_scratch,
                        size,
                        region_queries: &partition.region_queries,
                        rent_below,
                    };
                    let prox = &mut partition.prox_cache;
                    match spec {
                        Some(spec)
                            if validate_speculation(
                                &ctx,
                                &q,
                                prox,
                                &spec,
                                &mut self.spec_touched,
                            ) =>
                        {
                            (spec.target, true)
                        }
                        _ => {
                            let index = &mut self.index;
                            (select_target(index, brute_force, &ctx, &q, prox), false)
                        }
                    }
                }
            };
            if pre.spec_computed {
                if honored {
                    actions.spec_hits += 1;
                } else {
                    actions.spec_misses += 1;
                }
            }
            let Some((target, _)) = target else {
                continue;
            };
            if migrate {
                if target == server {
                    continue;
                }
                if let Some(t) = exec_migration(&mut self.cluster, partition, idx, target) {
                    actions.migrations += 1;
                    actions.migrated_bytes += t.logical;
                    actions.measured_migrated_bytes += t.measured;
                    self.note_index(&[server, target]);
                    self.spec_touched.record(server, false);
                    self.spec_touched.record(target, true);
                }
                continue;
            }
            // Re-verify the hurdle with the actual candidate rent.
            let actual_rent = self.board.price_of(target).unwrap_or(f64::MAX);
            situation.projected_replica_cost = actual_rent + pre.consistency_cost;
            if !clears_profit_hurdle(&situation) {
                continue;
            }
            let vid = VnodeId(self.next_vnode);
            if let Some(t) = exec_replication(
                &mut self.cluster,
                partition,
                target,
                vid,
                window,
                self.epoch,
            ) {
                self.next_vnode += 1;
                actions.profit_replications += 1;
                actions.replicated_bytes += t.logical;
                actions.measured_replicated_bytes += t.measured;
                self.note_index(&[target]);
                self.spec_touched.record(target, true);
            } else {
                actions.blocked_transfers += 1;
            }
        }
        self.work_scratch = work;
    }

    /// The decision plan pass: refreshes the index snapshot, then fans
    /// the per-vnode precomputation out over every partition of every
    /// ring, in flat (ring, partition) order — the enumeration the work
    /// list assigned its slot indices in — cut into chunks of
    /// `chunk_of(partitions)`.
    pub(crate) fn plan_decisions(&mut self, min_rent: Option<f64>, chunk_of: fn(usize) -> usize) {
        let Self {
            rings,
            cluster,
            board,
            topology,
            config,
            index,
            pipeline,
            oracle,
            ..
        } = self;
        let placement = PlacementContext::new(cluster, board, topology, &config.economy);
        let brute_force = *oracle == DecisionOracle::BruteForce;
        if !brute_force {
            index.refresh(&placement);
        }
        let inputs = DecisionInputs {
            placement,
            index,
            brute_force,
            speculation: *oracle != DecisionOracle::Rewalk,
            min_rent,
        };
        let mut items: Vec<(f64, &mut PartitionState)> = rings
            .iter_mut()
            .flat_map(|ring| {
                let threshold = ring.level.threshold;
                ring.partitions.values_mut().map(move |p| (threshold, p))
            })
            .collect();
        let chunk = chunk_of(items.len());
        pipeline.plan_decisions(&mut items, &inputs, chunk);
    }
}

/// The read set of one slot's speculative walk, sliced out of the
/// pipeline's flat arena.
fn spec_reads<'a>(pipeline: &'a EpochPipeline, pre: &PreDecision) -> &'a [ServerId] {
    let start = pre.spec_reads_start as usize;
    &pipeline.spec_reads[start..start + pre.spec_reads_len as usize]
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::app::{AppSpec, LevelSpec};
    use crate::cloud::tests::paper_cluster;
    use crate::config::SkuteConfig;
    use skute_geo::Topology;

    /// One epoch's decision plan output: the slots and the read-set arena.
    pub(crate) type PlanSnapshot = (Vec<PreDecision>, Vec<ServerId>);

    /// Drives a 96-partition cloud under traffic and, in every epoch before
    /// it closes, runs the decision plan in chunks of `chunk_of(96)`,
    /// returning what each of those plans left in the pipeline. (The
    /// closing `end_epoch` plans again, so balances are recorded twice per
    /// epoch — identically under every `chunk_of`.)
    pub(crate) fn planned_epochs(chunk_of: fn(usize) -> usize) -> Vec<PlanSnapshot> {
        let topology = Topology::paper();
        let cluster = paper_cluster(&topology);
        let mut cloud = SkuteCloud::new(SkuteConfig::paper(), topology, cluster);
        let app = cloud
            .create_application(AppSpec::new("t").level(LevelSpec::new(3, 96)))
            .unwrap();
        cloud
            .assign_popularity(app, 0, |i| 1.0 + (i % 7) as f64)
            .unwrap();
        let regions = skute_geo::ClientGeo::Uniform.region_weights(cloud.topology());
        let mut out = Vec::new();
        for _ in 0..12 {
            cloud.begin_epoch();
            cloud.deliver_queries(app, 0, 40_000.0, &regions).unwrap();
            let min_rent = cloud.board.min_price();
            cloud.plan_decisions(min_rent, chunk_of);
            out.push((
                cloud.pipeline.pre.clone(),
                cloud.pipeline.spec_reads.clone(),
            ));
            cloud.end_epoch();
        }
        out
    }
}
