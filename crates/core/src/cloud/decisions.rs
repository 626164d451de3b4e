//! Epoch phase 3 — economic decisions (§II-C): every virtual node records
//! its balance and acts on f-epoch streaks, visiting vnodes in a seeded
//! random order.
//!
//! The phase runs in two steps. A **storage-order pass** (rings →
//! partitions → replicas) reads each vnode's posted rent, records its
//! balance and classifies it against its partition as it stands. The
//! **walk** then visits the vnodes in the seeded shuffle order and acts,
//! one action at a time, against the live state. A vnode whose partition
//! no action has touched yet sees exactly what the pass saw, so when the
//! pass classified it `Stay`, or `Migrate` at or below the migration
//! floor, the walk moves on without opening the partition. Every other
//! vnode re-reads its partition, classifies and acts as the paper's loop
//! does.
//!
//! A migrating vnode asks eq. (3) only when a migration could execute:
//! its rent cap must lie above the [`migration_floor`], the cheapest rent
//! among servers with migration bandwidth left. Under a herd (most vnodes
//! wanting the few cheapest servers, whose bandwidth the first movers
//! spend) that skips almost every target walk without changing an action.

use rand::seq::SliceRandom;

use skute_cluster::{Board, Cluster, ServerId};
use skute_economy::{floored_utility, EconomyConfig};
use skute_geo::Location;
use skute_ring::PartitionId;

use super::exec::{exec_migration, exec_replication, exec_suicide};
use super::{select_target, SkuteCloud};
use crate::decision::{classify, clears_profit_hurdle, ActionCounts, Intent, VnodeSituation};
use crate::placement::{migration_floor, PlacementContext, TargetQuery};
use crate::vnode::{PartitionState, VnodeId};

/// The rent a migration target must undercut: meaningfully below the
/// `rent` the vnode pays now (hysteresis: only then is the transfer worth
/// it).
fn migration_cap(rent: f64, economy: &EconomyConfig) -> f64 {
    rent * (1.0 - economy.migration_margin)
}

/// True when no migration below the cap of a vnode paying `rent` could
/// execute: the live migration floor, computed on first use after the
/// last executed action, is at or above the cap.
fn migration_ruled_out(
    floor: &mut Option<f64>,
    cluster: &Cluster,
    board: &Board,
    economy: &EconomyConfig,
    rent: f64,
) -> bool {
    let floor = *floor.get_or_insert_with(|| migration_floor(cluster, board, economy));
    floor >= migration_cap(rent, economy)
}

/// Frames the eq.-(3) question vnode `idx` of `part` asks: fills
/// `existing` and returns the query's `(size, rent_below)`. A migrating
/// vnode places its own copy among the *other* replicas, on a server under
/// its [`migration_cap`]; a profit replication places a full-size copy
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
            Some(migration_cap(rent, economy)),
        )
    } else {
        existing.extend(part.replicas.iter().map(|r| r.server));
        (part.size_bytes(), None)
    }
}

/// One vnode of the decision phase, as the storage-order pass left it.
#[derive(Debug, Clone, Copy)]
pub(super) struct DecisionWork {
    ring: usize,
    pid: PartitionId,
    vnode: VnodeId,
    /// The partition's dense storage-order index: its touched mark.
    slot: usize,
    /// The posted rent of the vnode's server; `None` (unposted) sits the
    /// phase out.
    rent: Option<f64>,
    /// The floored eq.-(5) utility the vnode earned this epoch.
    u_eff: f64,
    /// The §II-C intent against the partition as the pass saw it.
    intent: Intent,
}

/// What a vnode's situation reads besides its partition and its rent, all
/// fixed for the phase: no rent is posted inside `end_epoch`, and the
/// economy is configuration.
#[derive(Clone, Copy)]
struct PhaseInputs {
    economy: EconomyConfig,
    /// The cheapest posted rent (the utility floor, and the projected rent
    /// of a new replica before eq. (3) names one).
    min_rent: Option<f64>,
}

impl PhaseInputs {
    /// The data-consistency cost one more replica of `part` adds.
    fn consistency_cost(&self, part: &PartitionState) -> f64 {
        const MIB: f64 = 1024.0 * 1024.0;
        self.economy.consistency_cost_per_mib * (part.write_bytes_epoch as f64 / MIB)
    }

    /// The §II-C situation of replica `idx` of `part`, paying `rent`: its
    /// recorded balance streaks, and eq. (2) over the partition's current
    /// membership without it, from the availability memo while it is
    /// valid (`placed` is scratch for a direct evaluation).
    fn situation(
        &self,
        cluster: &Cluster,
        placed: &mut Vec<(Location, f64)>,
        part: &PartitionState,
        idx: usize,
        rent: f64,
        threshold: f64,
    ) -> VnodeSituation {
        let balance = &part.replicas[idx].balance;
        VnodeSituation {
            negative_streak: balance.negative_streak(),
            positive_streak: balance.positive_streak(),
            window_mean: balance.window_mean(),
            availability_without_self: part.availability_without(cluster, idx, placed),
            threshold,
            replica_count: part.replicas.len(),
            max_replicas: self.economy.max_replicas,
            current_rent: rent,
            projected_replica_cost: self.min_rent.unwrap_or(0.0) + self.consistency_cost(part),
            hurdle: self.economy.replication_hurdle,
        }
    }
}

impl SkuteCloud {
    /// Economic pass: every vnode records its balance and acts on f-epoch
    /// streaks (suicide / migrate / profit-replicate).
    ///
    /// The storage-order pass fills the work list: per vnode its posted
    /// rent, its floored utility, its recorded balance (`u_eff − rent`)
    /// and its intent. The walk shuffles the list with the cloud's seeded
    /// RNG (the permutation depends only on the length) and adds rent and
    /// utility to the epoch sums in that order. Per vnode it then either
    /// skips, or takes the live path: look the vnode up, evaluate eq. (2)
    /// against the partition's live membership, classify, and for
    /// `Migrate` / `ReplicateForProfit` ask eq. (3) for a target on the
    /// live cluster and execute. Every vnode sees every earlier vnode's
    /// action.
    ///
    /// A vnode skips only while its partition is untouched, with a `Stay`
    /// intent, or a `Migrate` intent whose [`migration_cap`] is at or
    /// below the live [`migration_floor`]. The skip changes no action,
    /// because nothing in the phase changes what the pass read except an
    /// action on the same partition:
    ///
    /// * no rent is posted inside `end_epoch`; the cheapest rent, server
    ///   confidences and locations, the partition's write bytes, the SLA
    ///   threshold and the replica ceiling are fixed for the phase;
    /// * a vnode's balance is written only by its own record;
    /// * membership changes only through a suicide, migration or
    ///   replication on that partition, and each one executed marks the
    ///   partition touched;
    /// * the floor check reads the live floor, as the live path does.
    ///
    /// The floor itself skips a migrant before eq. (3): every server it
    /// could undercut has spent its migration bandwidth, so
    /// `exec_migration` would refuse any target the walk found. It is
    /// computed on first use and dropped after every executed action (the
    /// only in-phase changes to rents and bandwidth meters). At M = 2000
    /// the two skips leave ≈ 320 of 18 000 vnodes per epoch to the live
    /// path.
    pub(super) fn economic_decisions(
        &mut self,
        actions: &mut ActionCounts,
        rent_paid: &mut f64,
        utility_earned: &mut f64,
    ) {
        let economy = self.config.economy;
        let window = economy.decision_window;
        let phase = PhaseInputs {
            economy,
            min_rent: self.board.min_price(),
        };
        let mut floor: Option<f64> = None;
        let mut work = std::mem::take(&mut self.work_scratch);
        let mut touched = std::mem::take(&mut self.touched_scratch);
        work.clear();
        touched.clear();
        let Self {
            rings,
            cluster,
            board,
            placed_scratch,
            ..
        } = self;
        for (ri, ring) in rings.iter_mut().enumerate() {
            let threshold = ring.level.threshold;
            for (pid, part) in ring.partitions.iter_mut() {
                let slot = touched.len();
                touched.push(false);
                for idx in 0..part.replicas.len() {
                    let replica = &mut part.replicas[idx];
                    let vnode = replica.id;
                    let rent = board.price_of(replica.server);
                    let (u_eff, intent) = match rent {
                        Some(rent) => {
                            let u_eff = floored_utility(replica.utility_epoch, phase.min_rent);
                            replica.balance.record(u_eff - rent);
                            let situation = phase.situation(
                                cluster,
                                placed_scratch,
                                part,
                                idx,
                                rent,
                                threshold,
                            );
                            (u_eff, classify(&situation))
                        }
                        None => (0.0, Intent::Stay),
                    };
                    work.push(DecisionWork {
                        ring: ri,
                        pid: *pid,
                        vnode,
                        slot,
                        rent,
                        u_eff,
                        intent,
                    });
                }
            }
        }
        work.shuffle(&mut self.rng);
        for w in &work {
            let Some(rent) = w.rent else {
                continue; // unposted server: no rent, no utility, no record
            };
            *rent_paid += rent;
            *utility_earned += w.u_eff;
            if !touched[w.slot] {
                let skip = match w.intent {
                    Intent::Stay => true,
                    Intent::Migrate => {
                        migration_ruled_out(&mut floor, &self.cluster, &self.board, &economy, rent)
                    }
                    Intent::Suicide | Intent::ReplicateForProfit => false,
                };
                if skip {
                    continue;
                }
            }
            let threshold = self.rings[w.ring].level.threshold;
            // Splits run after the phase and only a vnode's own visit can
            // remove it, so both lookups succeed; they stay total anyway.
            let Some(partition) = self.rings[w.ring].partitions.get_mut(&w.pid) else {
                continue;
            };
            let Some(idx) = partition.replicas.iter().position(|r| r.id == w.vnode) else {
                continue;
            };
            let server = partition.replicas[idx].server;
            let mut situation = phase.situation(
                &self.cluster,
                &mut self.placed_scratch,
                partition,
                idx,
                rent,
                threshold,
            );
            let migrate = match classify(&situation) {
                Intent::Stay => continue,
                Intent::Suicide => {
                    exec_suicide(&mut self.cluster, partition, idx);
                    touched[w.slot] = true;
                    actions.suicides += 1;
                    self.note_index(&[server]);
                    floor = None;
                    continue;
                }
                Intent::Migrate => true,
                Intent::ReplicateForProfit => false,
            };
            if migrate
                && migration_ruled_out(&mut floor, &self.cluster, &self.board, &economy, rent)
            {
                continue;
            }
            let (size, rent_below) = frame_query(
                migrate,
                partition,
                idx,
                rent,
                &economy,
                &mut self.servers_scratch,
            );
            let ctx = PlacementContext::new(&self.cluster, &self.board, &self.topology, &economy);
            let q = TargetQuery {
                existing: &self.servers_scratch,
                size,
                region_queries: &partition.region_queries,
                rent_below,
            };
            let target = select_target(&mut self.index, &ctx, &q, &mut partition.prox_cache);
            let Some((target, _)) = target else {
                continue;
            };
            if migrate {
                if target == server {
                    continue;
                }
                if let Some(t) = exec_migration(&mut self.cluster, partition, idx, target) {
                    touched[w.slot] = true;
                    actions.migrations += 1;
                    actions.migrated_bytes += t.logical;
                    actions.measured_migrated_bytes += t.measured;
                    self.note_index(&[server, target]);
                    floor = None;
                }
                continue;
            }
            // Re-verify the hurdle with the actual candidate rent.
            let actual_rent = self.board.price_of(target).unwrap_or(f64::MAX);
            situation.projected_replica_cost = actual_rent + phase.consistency_cost(partition);
            if !clears_profit_hurdle(&situation) {
                continue;
            }
            let vid = VnodeId(self.next_vnode);
            if let Some(t) = exec_replication(&mut self.cluster, partition, target, vid, window) {
                touched[w.slot] = true;
                self.next_vnode += 1;
                actions.profit_replications += 1;
                actions.replicated_bytes += t.logical;
                actions.measured_replicated_bytes += t.measured;
                self.note_index(&[target]);
                floor = None;
            } else {
                actions.blocked_transfers += 1;
            }
        }
        self.work_scratch = work;
        self.touched_scratch = touched;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::app::{AppSpec, LevelSpec};
    use crate::cloud::repair::cached_availability;
    use crate::cloud::resize_storage;
    use crate::cloud::tests::{paper_cluster, GIB};
    use crate::config::SkuteConfig;
    use skute_geo::Topology;
    use skute_ring::PartitionId;

    fn cloud_with(level: LevelSpec) -> (SkuteCloud, Vec<PartitionId>) {
        seeded_cloud_with(level, SkuteConfig::paper().seed)
    }

    fn seeded_cloud_with(level: LevelSpec, seed: u64) -> (SkuteCloud, Vec<PartitionId>) {
        let topology = Topology::paper();
        let cluster = paper_cluster(&topology);
        let config = SkuteConfig::paper().with_seed(seed);
        let mut cloud = SkuteCloud::new(config, topology, cluster);
        let app = cloud
            .create_application(AppSpec::new("t").level(level))
            .unwrap();
        let pids = cloud.partition_ids(app, 0).unwrap();
        (cloud, pids)
    }

    fn decide(cloud: &mut SkuteCloud) -> (ActionCounts, f64, f64) {
        let (mut actions, mut rent_paid, mut utility_earned) = (ActionCounts::default(), 0.0, 0.0);
        cloud.economic_decisions(&mut actions, &mut rent_paid, &mut utility_earned);
        (actions, rent_paid, utility_earned)
    }

    /// Replaces the replicas of `pid` (of ring 0) with one per
    /// `(host, balance)`, in order, each carrying a full window of that
    /// recorded balance (none for `0.0`), then opens the epoch. A vnode
    /// with a positive history also earns 100 this epoch, so the balance
    /// the decision phase records keeps its streak.
    fn install(cloud: &mut SkuteCloud, pid: PartitionId, hosts: &[(ServerId, f64)]) {
        let window = cloud.config.economy.decision_window;
        let part = cloud.rings[0].partitions.get_mut(&pid).unwrap();
        let bytes = part.synthetic_bytes;
        for r in std::mem::take(&mut part.replicas) {
            resize_storage(cloud.cluster.get_mut(r.server).unwrap(), bytes, 0);
        }
        for &(host, balance) in hosts {
            assert!(resize_storage(
                cloud.cluster.get_mut(host).unwrap(),
                0,
                bytes
            ));
            let mut replica = cloud.new_replica(host, cloud.empty_store());
            if balance != 0.0 {
                for _ in 0..window {
                    replica.balance.record(balance);
                }
            }
            let part = cloud.rings[0].partitions.get_mut(&pid).unwrap();
            part.replicas.push(replica);
            part.note_membership_changed();
        }
        cloud.begin_epoch();
        let part = cloud.rings[0].partitions.get_mut(&pid).unwrap();
        for (r, &(_, balance)) in part.replicas.iter_mut().zip(hosts) {
            if balance > 0.0 {
                r.utility_epoch = 100.0;
            }
        }
    }

    /// True when the next decision walk visits storage-order vnode `a`
    /// before `b`: the walk's shuffle, replayed on a copy of the RNG.
    fn visits_before(cloud: &SkuteCloud, a: usize, b: usize) -> bool {
        let n = cloud.rings.iter().map(|r| r.vnode_count()).sum();
        let mut order: Vec<usize> = (0..n).collect();
        order.shuffle(&mut cloud.rng.clone());
        let at = |v| order.iter().position(|&i| i == v).unwrap();
        at(a) < at(b)
    }

    /// Server `index` of the paper topology. Each datacenter holds servers
    /// `10·d .. 10·d + 10` on two racks of five; the first seven cost $100,
    /// the last three $125.
    fn server(cloud: &SkuteCloud, index: u32) -> ServerId {
        let id = ServerId(index);
        assert_eq!(
            cloud
                .topology
                .index_of(&cloud.cluster.get(id).unwrap().location),
            u64::from(index)
        );
        id
    }

    #[test]
    fn a_losing_partition_sheds_only_the_replica_its_sla_can_spare() {
        // An SLA met by two replicas, a partition holding three — one per
        // continent, each on a $125 server and deep in a negative streak.
        // Whichever the shuffle visits first may suicide; the other two
        // must see that it did (alone they no longer meet the threshold)
        // and at most migrate.
        let (mut cloud, pids) = cloud_with(LevelSpec::new(2, 1));
        let pid = pids[0];
        let mut hosts: Vec<(ServerId, f64)> = Vec::new();
        for continent in 0..3 {
            let server = cloud
                .cluster
                .alive()
                .find(|s| s.location.continent == continent && s.monthly_cost == 125.0)
                .expect("every continent has an expensive server");
            hosts.push((server.id, -1.0));
        }
        install(&mut cloud, pid, &hosts);
        let (actions, ..) = decide(&mut cloud);
        assert_eq!(actions.suicides, 1, "exactly one replica was spare");
        let threshold = cloud.rings[0].level.threshold;
        let part = cloud.rings[0].partitions.get_mut(&pid).unwrap();
        assert_eq!(part.replica_count(), 2);
        assert!(cached_availability(&cloud.cluster, part) >= threshold);
    }

    /// A lone replica moved onto a $125 server, deep in a negative streak:
    /// it cannot suicide (it is the only copy), so it classifies `Migrate`
    /// with every $100 server under its rent cap. Every $100 server except
    /// `open` has spent its migration bandwidth. Returns the cloud, the
    /// partition, the host and the migration's rent cap.
    fn stranded_migrant(open: Option<ServerId>) -> (SkuteCloud, PartitionId, ServerId, f64) {
        let (mut cloud, pids) = cloud_with(LevelSpec::new(1, 1));
        let pid = pids[0];
        let window = cloud.config.economy.decision_window;
        let host = cloud
            .cluster
            .alive()
            .find(|s| s.monthly_cost == 125.0)
            .expect("the paper cluster has expensive servers")
            .id;
        let part = cloud.rings[0].partitions.get_mut(&pid).unwrap();
        let bytes = part.synthetic_bytes;
        resize_storage(
            cloud.cluster.get_mut(part.replicas[0].server).unwrap(),
            bytes,
            0,
        );
        assert!(resize_storage(
            cloud.cluster.get_mut(host).unwrap(),
            0,
            bytes
        ));
        part.replicas[0].server = host;
        for _ in 0..window {
            part.replicas[0].balance.record(-1.0);
        }
        part.note_membership_changed();
        cloud.begin_epoch();
        let cheap: Vec<ServerId> = cloud
            .cluster
            .alive()
            .filter(|s| s.monthly_cost == 100.0 && Some(s.id) != open)
            .map(|s| s.id)
            .collect();
        for id in cheap {
            let s = cloud.cluster.get_mut(id).unwrap();
            s.usage.migration_used = s.capacities.migration_bw;
        }
        let cap = migration_cap(cloud.board.price_of(host).unwrap(), &cloud.config.economy);
        (cloud, pid, host, cap)
    }

    #[test]
    fn a_migrant_with_every_cheaper_server_spent_stays_and_one_reopened_receives_it() {
        let (mut cloud, pid, host, cap) = stranded_migrant(None);
        let economy = cloud.config.economy;
        assert!(
            migration_floor(&cloud.cluster, &cloud.board, &economy) >= cap,
            "the floor rules the migration out"
        );
        let (actions, ..) = decide(&mut cloud);
        assert_eq!(actions, ActionCounts::default(), "nothing executes");
        assert_eq!(cloud.rings[0].partitions[&pid].replicas[0].server, host);

        // Reopen the server eq. (3) picks under the cap: the floor drops
        // below the cap and the vnode moves there.
        let (probe, ..) = stranded_migrant(None);
        let part = &probe.rings[0].partitions[&pid];
        let rent = probe.board.price_of(host).unwrap();
        let mut existing = Vec::new();
        let (size, rent_below) = frame_query(true, part, 0, rent, &economy, &mut existing);
        let ctx = PlacementContext::new(&probe.cluster, &probe.board, &probe.topology, &economy);
        let q = TargetQuery {
            existing: &existing,
            size,
            region_queries: &part.region_queries,
            rent_below,
        };
        let (winner, _) = crate::placement::economic_target(&ctx, &q, &mut Default::default())
            .expect("a $100 server undercuts the cap");
        let (mut cloud, ..) = stranded_migrant(Some(winner));
        assert!(migration_floor(&cloud.cluster, &cloud.board, &economy) < cap);
        let (actions, ..) = decide(&mut cloud);
        assert_eq!(actions.migrations, 1);
        assert_eq!(cloud.rings[0].partitions[&pid].replicas[0].server, winner);
    }

    #[test]
    fn a_vnode_without_a_posted_rent_pays_earns_and_records_nothing() {
        let (mut cloud, pids) = cloud_with(LevelSpec::new(1, 2));
        cloud.begin_epoch();
        let host = |cloud: &SkuteCloud, pid| cloud.rings[0].partitions[&pid].replicas[0].server;
        let (unposted, posted) = (host(&cloud, pids[0]), host(&cloud, pids[1]));
        assert_ne!(unposted, posted, "the seed places the two apart");
        cloud.board.withdraw(unposted);
        let rent = cloud.board.price_of(posted).unwrap();
        let floor = cloud.board.min_price().unwrap();
        let (actions, rent_paid, utility_earned) = decide(&mut cloud);
        assert_eq!(actions, ActionCounts::default());
        assert_eq!(rent_paid, rent, "only the posted vnode pays");
        assert_eq!(utility_earned, floor, "and earns (the utility floor)");
        let recorded = |pid| cloud.rings[0].partitions[&pid].replicas[0].balance.len();
        assert_eq!(recorded(pids[0]), 0);
        assert_eq!(recorded(pids[1]), 1);
    }

    // The walk skips a vnode of an untouched partition whose storage-order
    // intent is `Stay`, or `Migrate` at or below the migration floor. In
    // each fixture below an earlier sibling executes one kind of action
    // that turns a later sibling's skip into an action: only that kind's
    // touched mark sends the later sibling down the live path. Each seed is
    // picked for the visit order its fixture needs.

    #[test]
    fn a_sibling_suicide_lets_a_replica_at_the_ceiling_replicate() {
        // An SLA of one replica (threshold 0) under a ceiling of two. The
        // loser on a $125 server suicides; the earner beside it is at the
        // ceiling in storage order (`Stay`) and replicates for profit once
        // the loser is gone.
        const SEED: u64 = 1;
        let (mut cloud, pids) = seeded_cloud_with(LevelSpec::new(1, 1), SEED);
        cloud.config.economy.max_replicas = 2;
        let (loser, earner) = (server(&cloud, 7), server(&cloud, 0));
        install(&mut cloud, pids[0], &[(loser, -1.0), (earner, 1.0)]);
        assert!(visits_before(&cloud, 0, 1), "seed {SEED}: loser first");
        let (actions, ..) = decide(&mut cloud);
        assert_eq!((actions.suicides, actions.profit_replications), (1, 1));
    }

    #[test]
    fn a_sibling_migration_lets_a_stranded_migrant_suicide() {
        // An SLA of two replicas (threshold 12.6) and three replicas in one
        // datacenter: no pair of them meets it, so both losers classify
        // `Migrate`. The mover on a $125 server can undercut the floor and
        // migrates out of the datacenter. The stranded one, on a $100 server
        // that extra storage makes dearer than the cheapest, is at or below
        // the floor in storage order. Once the mover is away, the pair
        // without the stranded one meets the threshold and it suicides.
        const SEED: u64 = 2;
        let (mut cloud, pids) = seeded_cloud_with(LevelSpec::new(2, 1), SEED);
        let (mover, stranded, idle) = (server(&cloud, 7), server(&cloud, 0), server(&cloud, 5));
        assert!(resize_storage(
            cloud.cluster.get_mut(stranded).unwrap(),
            0,
            GIB / 2
        ));
        install(
            &mut cloud,
            pids[0],
            &[(mover, -1.0), (stranded, -1.0), (idle, 0.0)],
        );
        let economy = cloud.config.economy;
        let floor = migration_floor(&cloud.cluster, &cloud.board, &economy);
        let cap = |s| migration_cap(cloud.board.price_of(s).unwrap(), &economy);
        assert!(cap(stranded) <= floor && floor < cap(mover));
        assert!(visits_before(&cloud, 0, 1), "seed {SEED}: mover first");
        let (actions, ..) = decide(&mut cloud);
        assert_eq!((actions.migrations, actions.suicides), (1, 1));
    }

    #[test]
    fn a_sibling_replication_lets_a_stranded_migrant_suicide() {
        // An SLA of two replicas (threshold 12.6) and two replicas in one
        // datacenter. Every server has spent its migration bandwidth, so
        // the loser on a $125 server classifies `Migrate` below the floor.
        // The earner beside it replicates for profit out of the
        // datacenter; the pair without the loser then meets the threshold
        // and the loser suicides.
        const SEED: u64 = 1;
        let (mut cloud, pids) = seeded_cloud_with(LevelSpec::new(2, 1), SEED);
        let (earner, loser) = (server(&cloud, 0), server(&cloud, 7));
        install(&mut cloud, pids[0], &[(earner, 1.0), (loser, -1.0)]);
        for s in cloud.cluster.alive_mut() {
            s.usage.migration_used = s.capacities.migration_bw;
        }
        assert!(visits_before(&cloud, 0, 1), "seed {SEED}: earner first");
        let (actions, ..) = decide(&mut cloud);
        assert_eq!((actions.profit_replications, actions.suicides), (1, 1));
    }
}
