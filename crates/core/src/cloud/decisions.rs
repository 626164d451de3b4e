//! Epoch phase 3 — economic decisions (§II-C): one sequential walk over
//! the seeded shuffle order in which every virtual node records its
//! balance, looks at the live state and acts.
//!
//! A migrating vnode asks eq. (3) only when a migration could execute:
//! its rent cap must lie above the [`migration_floor`], the cheapest rent
//! among servers with migration bandwidth left. Under a herd (most vnodes
//! wanting the few cheapest servers, whose bandwidth the first movers
//! spend) that skips almost every target walk without changing an action.

use rand::seq::SliceRandom;

use skute_cluster::ServerId;
use skute_economy::{floored_utility, EconomyConfig};

use super::exec::{exec_migration, exec_replication, exec_suicide};
use super::{select_target, DecisionOracle, SkuteCloud};
use crate::availability::availability_of;
use crate::decision::{classify, clears_profit_hurdle, ActionCounts, Intent, VnodeSituation};
use crate::placement::{migration_floor, PlacementContext, TargetQuery};
use crate::vnode::{PartitionState, VnodeId};

/// The rent a migration target must undercut: meaningfully below the
/// `rent` the vnode pays now (hysteresis: only then is the transfer worth
/// it).
fn migration_cap(rent: f64, economy: &EconomyConfig) -> f64 {
    rent * (1.0 - economy.migration_margin)
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

impl SkuteCloud {
    /// Economic pass: every vnode records its balance and acts on f-epoch
    /// streaks (suicide / migrate / profit-replicate).
    ///
    /// One sequential pass over the seeded shuffle order, one action at a
    /// time — the paper's §II-C loop. Per vnode: read the posted rent of
    /// its server, record this epoch's balance, evaluate eq. (2)
    /// availability-without-self against the partition's live membership,
    /// classify, and for `Migrate` / `ReplicateForProfit` ask eq. (3) for a
    /// target on the live cluster. Nothing is precomputed, so every vnode
    /// sees every earlier vnode's action.
    ///
    /// A `Migrate` vnode whose [`migration_cap`] is at or below the
    /// [`migration_floor`] is skipped before eq. (3): every server it could
    /// undercut has spent its migration bandwidth, so `exec_migration`
    /// would refuse any target the walk found. The floor is computed on
    /// first use and dropped after every executed action (the only
    /// in-phase changes to rents and bandwidth meters), so skipping changes
    /// no action, only how many walks run (≈ 300 instead of ≈ 17 800 per
    /// epoch at M = 2000).
    pub(super) fn economic_decisions(
        &mut self,
        actions: &mut ActionCounts,
        rent_paid: &mut f64,
        utility_earned: &mut f64,
    ) {
        const MIB: f64 = 1024.0 * 1024.0;
        let economy = self.config.economy;
        let window = economy.decision_window;
        let brute_force = self.oracle == DecisionOracle::BruteForce;
        let min_rent = self.board.min_price();
        let mut floor: Option<f64> = None;
        // Snapshot vnode identities into the reusable work list; replicas
        // mutate as we act.
        let mut work = std::mem::take(&mut self.work_scratch);
        work.clear();
        for (ri, ring) in self.rings.iter().enumerate() {
            for (pid, p) in &ring.partitions {
                for r in &p.replicas {
                    work.push((ri, *pid, r.id));
                }
            }
        }
        work.shuffle(&mut self.rng);
        for &(ri, pid, vid) in &work {
            let threshold = self.rings[ri].level.threshold;
            // The vnode may have been split away or suicided already.
            let Some(partition) = self.rings[ri].partitions.get_mut(&pid) else {
                continue;
            };
            let Some(idx) = partition.replicas.iter().position(|r| r.id == vid) else {
                continue;
            };
            let server = partition.replicas[idx].server;
            let Some(rent) = self.board.price_of(server) else {
                continue; // server vanished mid-epoch; replica was removed
            };
            let u_eff = floored_utility(partition.replicas[idx].utility_epoch, min_rent);
            *rent_paid += rent;
            *utility_earned += u_eff;
            partition.replicas[idx].balance.record(u_eff - rent);
            self.placed_scratch.clear();
            for (i, r) in partition.replicas.iter().enumerate() {
                if i == idx {
                    continue;
                }
                if let Some(s) = self.cluster.get(r.server) {
                    self.placed_scratch.push((s.location, s.confidence));
                }
            }
            let consistency_cost =
                economy.consistency_cost_per_mib * (partition.write_bytes_epoch as f64 / MIB);
            let balance = &partition.replicas[idx].balance;
            let mut situation = VnodeSituation {
                negative_streak: balance.negative_streak(),
                positive_streak: balance.positive_streak(),
                window_mean: balance.window_mean(),
                availability_without_self: availability_of(&self.placed_scratch),
                threshold,
                replica_count: partition.replicas.len(),
                max_replicas: economy.max_replicas,
                current_rent: rent,
                projected_replica_cost: min_rent.unwrap_or(0.0) + consistency_cost,
                hurdle: economy.replication_hurdle,
            };
            let migrate = match classify(&situation) {
                Intent::Stay => continue,
                Intent::Suicide => {
                    exec_suicide(&mut self.cluster, partition, idx);
                    actions.suicides += 1;
                    self.note_index(&[server]);
                    floor = None;
                    continue;
                }
                Intent::Migrate => true,
                Intent::ReplicateForProfit => false,
            };
            if migrate {
                let floor = *floor
                    .get_or_insert_with(|| migration_floor(&self.cluster, &self.board, &economy));
                if floor >= migration_cap(rent, &economy) {
                    continue;
                }
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
            let target = select_target(
                &mut self.index,
                brute_force,
                &ctx,
                &q,
                &mut partition.prox_cache,
            );
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
                    floor = None;
                }
                continue;
            }
            // Re-verify the hurdle with the actual candidate rent.
            let actual_rent = self.board.price_of(target).unwrap_or(f64::MAX);
            situation.projected_replica_cost = actual_rent + consistency_cost;
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
                floor = None;
            } else {
                actions.blocked_transfers += 1;
            }
        }
        self.work_scratch = work;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::app::{AppSpec, LevelSpec};
    use crate::cloud::repair::cached_availability;
    use crate::cloud::resize_storage;
    use crate::cloud::tests::paper_cluster;
    use crate::config::SkuteConfig;
    use skute_geo::Topology;
    use skute_ring::PartitionId;

    fn cloud_with(level: LevelSpec) -> (SkuteCloud, Vec<PartitionId>) {
        let topology = Topology::paper();
        let cluster = paper_cluster(&topology);
        let mut cloud = SkuteCloud::new(SkuteConfig::paper(), topology, cluster);
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

    #[test]
    fn a_losing_partition_sheds_only_the_replica_its_sla_can_spare() {
        // An SLA met by two replicas, a partition holding three — one per
        // continent, each on a $125 server and deep in a negative streak.
        // Whichever the shuffle visits first may suicide; the other two
        // must see that it did (alone they no longer meet the threshold)
        // and at most migrate.
        let (mut cloud, pids) = cloud_with(LevelSpec::new(2, 1));
        let pid = pids[0];
        let window = cloud.config.economy.decision_window;
        let mut hosts: Vec<ServerId> = Vec::new();
        for continent in 0..3 {
            let server = cloud
                .cluster
                .alive()
                .find(|s| s.location.continent == continent && s.monthly_cost == 125.0)
                .expect("every continent has an expensive server");
            hosts.push(server.id);
        }
        let bytes = cloud.rings[0].partitions[&pid].synthetic_bytes;
        let seeded = cloud.rings[0].partitions[&pid].replicas[0].server;
        resize_storage(cloud.cluster.get_mut(seeded).unwrap(), bytes, 0);
        cloud.rings[0]
            .partitions
            .get_mut(&pid)
            .unwrap()
            .replicas
            .clear();
        for &host in &hosts {
            assert!(resize_storage(
                cloud.cluster.get_mut(host).unwrap(),
                0,
                bytes
            ));
            let mut replica = cloud.new_replica(host, cloud.empty_store());
            for _ in 0..window {
                replica.balance.record(-1.0);
            }
            let part = cloud.rings[0].partitions.get_mut(&pid).unwrap();
            part.replicas.push(replica);
            part.note_membership_changed();
        }
        cloud.begin_epoch();
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
        let (winner, _) =
            crate::placement::economic_target(&ctx, &q).expect("a $100 server undercuts the cap");
        for oracle in [DecisionOracle::None, DecisionOracle::BruteForce] {
            let (mut cloud, ..) = stranded_migrant(Some(winner));
            cloud.set_decision_oracle(oracle);
            assert!(migration_floor(&cloud.cluster, &cloud.board, &economy) < cap);
            let (actions, ..) = decide(&mut cloud);
            assert_eq!(actions.migrations, 1, "{oracle:?}");
            assert_eq!(cloud.rings[0].partitions[&pid].replicas[0].server, winner);
        }
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
        let recorded = |pid| {
            cloud.rings[0].partitions[&pid].replicas[0]
                .balance
                .epochs_recorded()
        };
        assert_eq!(recorded(pids[0]), 0);
        assert_eq!(recorded(pids[1]), 1);
    }
}
