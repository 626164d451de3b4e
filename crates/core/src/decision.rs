//! The §II-C virtual-node decision process, as a pure, testable classifier.
//!
//! "A virtual node agent may decide to replicate, migrate, suicide or do
//! nothing with its data at the end of an epoch":
//!
//! 1. availability below the threshold ⇒ replicate (handled at partition
//!    level by [`crate::SkuteCloud`], driven by eq. 3 target selection);
//! 2. negative balance for the last f epochs ⇒ suicide if the partition
//!    stays available without this replica, otherwise migrate to a cheaper
//!    server closer to the clients;
//! 3. positive balance for the last f epochs ⇒ replicate, provided the
//!    popularity "compensates for the increased network cost for data
//!    consistency … and for the potentially increased virtual rent of the
//!    candidate server".

/// Counters of the actions executed in one epoch.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ActionCounts {
    /// Replications restoring sub-threshold availability.
    pub availability_replications: u64,
    /// Profit-driven (load-spreading) replications.
    pub profit_replications: u64,
    /// Replica migrations.
    pub migrations: u64,
    /// Replica suicides.
    pub suicides: u64,
    /// Partition splits (256 MB overflow).
    pub splits: u64,
    /// Transfers blocked by bandwidth or storage limits this epoch.
    pub blocked_transfers: u64,
    /// Bytes moved by replications this epoch (communication overhead),
    /// priced at the replicas' *logical* size — the quantity the economic
    /// model and the CSV consume, identical across storage backends.
    pub replicated_bytes: u64,
    /// Bytes moved by migrations this epoch (communication overhead),
    /// priced at the replicas' *logical* size.
    pub migrated_bytes: u64,
    /// Bytes replications *physically* streamed this epoch, as measured by
    /// the storage backend (WAL + SSTable file bytes under the LSM engine;
    /// equal to `replicated_bytes` under the in-memory oracle).
    /// Observability only — decisions and the CSV never read it, which is
    /// what keeps trajectories bitwise identical across backends.
    pub measured_replicated_bytes: u64,
    /// Bytes migrations *physically* streamed this epoch (see
    /// [`ActionCounts::measured_replicated_bytes`]).
    pub measured_migrated_bytes: u64,
    /// Always zero: nothing counts into it. It stays only because the
    /// `benchmark/` package, which this crate's PRs may not edit, reads it
    /// for its `core.decision_batches` row; the next `benchmark` PR drops
    /// that row and this field with it (ROADMAP item 1).
    pub decision_batches: u64,
    /// Always zero, kept for the same reason (`core.batch_conflicts`).
    pub batch_conflicts: u64,
    /// Always zero, kept for the same reason (`core.spec_hit_rate`).
    pub spec_hits: u64,
    /// Always zero, kept for the same reason (`core.spec_hit_rate`).
    pub spec_misses: u64,
    /// Quarantined replicas re-seeded from a healthy peer by the scrub
    /// pass. Observability only — the rebuild restores the replica's
    /// converged contents, so the trajectory never moves.
    pub(crate) scrub_rebuilds: u64,
    /// Bytes scrub rebuilds *physically* streamed from healthy peers (see
    /// [`ActionCounts::measured_replicated_bytes`] for why measured
    /// counters stay out of decisions and the CSV).
    pub(crate) measured_scrub_bytes: u64,
}

impl ActionCounts {
    /// Total replications of both kinds.
    pub fn replications(&self) -> u64 {
        self.availability_replications + self.profit_replications
    }

    /// Always `None` (both counters are always zero), kept for the same
    /// reason as [`ActionCounts::decision_batches`]: `benchmark/` calls it
    /// for its `core.spec_hit_rate` row.
    pub fn spec_hit_rate(&self) -> Option<f64> {
        let total = self.spec_hits + self.spec_misses;
        (total > 0).then(|| self.spec_hits as f64 / total as f64)
    }

    /// Accumulates another epoch's counts into `self`.
    pub fn merge(&mut self, other: &ActionCounts) {
        self.availability_replications += other.availability_replications;
        self.profit_replications += other.profit_replications;
        self.migrations += other.migrations;
        self.suicides += other.suicides;
        self.splits += other.splits;
        self.blocked_transfers += other.blocked_transfers;
        self.replicated_bytes += other.replicated_bytes;
        self.migrated_bytes += other.migrated_bytes;
        self.measured_replicated_bytes += other.measured_replicated_bytes;
        self.measured_migrated_bytes += other.measured_migrated_bytes;
        self.scrub_rebuilds += other.scrub_rebuilds;
        self.measured_scrub_bytes += other.measured_scrub_bytes;
    }
}

/// Inputs of the pure per-vnode classification (economic branch of §II-C;
/// the availability branch runs first and at partition level).
#[derive(Debug, Clone, Copy)]
pub(crate) struct VnodeSituation {
    /// Last f epochs all strictly negative.
    pub(crate) negative_streak: bool,
    /// Last f epochs all strictly positive.
    pub(crate) positive_streak: bool,
    /// Mean balance over the window, if any history exists.
    pub(crate) window_mean: Option<f64>,
    /// Partition availability with this replica removed.
    pub(crate) availability_without_self: f64,
    /// SLA threshold of the ring.
    pub(crate) threshold: f64,
    /// Current replica count of the partition.
    pub(crate) replica_count: usize,
    /// Configured replica ceiling.
    pub(crate) max_replicas: usize,
    /// Virtual rent this replica currently pays per epoch (used to recover
    /// its income from the balance when projecting a new replica's share).
    pub(crate) current_rent: f64,
    /// Projected extra per-epoch cost of one more replica: candidate rent
    /// plus the data-consistency network cost.
    pub(crate) projected_replica_cost: f64,
    /// The replication hurdle multiplier from the economy config.
    pub(crate) hurdle: f64,
}

/// Projects the per-epoch balance a *new* replica would earn, from the
/// deciding replica's mean balance over the window.
///
/// Query income is shared between a partition's replicas in proportion to
/// their proximity weights, so adding a replica dilutes every share from
/// `1/k` to roughly `1/(k + 1)`. A rational §II-C optimizer therefore
/// projects the candidate's income as the current per-replica income scaled
/// by `k/(k + 1)`, minus the candidate's rent and the extra consistency
/// traffic. Skipping the dilution (as a naive reading of eq. 5 would)
/// overstates the candidate's income by `(k + 1)/k` and replicates on
/// partitions that can never pay for the extra replica — the population
/// then converges above the SLA target and stays there, because a
/// profitable surplus replica never builds the negative streak it needs to
/// suicide.
pub(crate) fn projected_new_replica_balance(situation: &VnodeSituation) -> Option<f64> {
    let mean = situation.window_mean?;
    let k = situation.replica_count as f64;
    let income = (mean + situation.current_rent) * k / (k + 1.0);
    Some(income - situation.projected_replica_cost)
}

/// The §II-C profit test: does the projected post-dilution balance of a new
/// replica clear the hurdle over its projected cost? Shared by
/// [`classify`] and the executor's re-verification against the actual
/// candidate rent, so the rule cannot drift between the two sites.
pub(crate) fn clears_profit_hurdle(situation: &VnodeSituation) -> bool {
    match projected_new_replica_balance(situation) {
        Some(projected) => projected > situation.hurdle * situation.projected_replica_cost,
        None => false,
    }
}

/// The economic intent of a virtual node, before feasibility (candidate
/// availability, bandwidth, storage) is checked by the executor.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Intent {
    /// Do nothing.
    Stay,
    /// Remove this replica.
    Suicide,
    /// Look for a cheaper, closer server.
    Migrate,
    /// Add a replica for load/profit.
    ReplicateForProfit,
}

/// Classifies a vnode's situation into an intent, following §II-C exactly:
/// losses dominate (suicide preferred over migration when availability
/// allows), profits replicate only when the projected post-dilution balance
/// of the *new* replica (see [`projected_new_replica_balance`]) clears the
/// hurdle over the projected cost of the extra replica.
pub(crate) fn classify(situation: &VnodeSituation) -> Intent {
    if situation.negative_streak {
        if situation.replica_count > 1 && situation.availability_without_self >= situation.threshold
        {
            return Intent::Suicide;
        }
        return Intent::Migrate;
    }
    if situation.positive_streak
        && situation.replica_count < situation.max_replicas
        && clears_profit_hurdle(situation)
    {
        return Intent::ReplicateForProfit;
    }
    Intent::Stay
}

#[cfg(test)]
mod tests {
    use super::*;

    fn base() -> VnodeSituation {
        VnodeSituation {
            negative_streak: false,
            positive_streak: false,
            window_mean: None,
            availability_without_self: 0.0,
            threshold: 12.6,
            replica_count: 2,
            max_replicas: 12,
            current_rent: 0.3,
            projected_replica_cost: 0.3,
            hurdle: 1.5,
        }
    }

    #[test]
    fn default_is_stay() {
        assert_eq!(classify(&base()), Intent::Stay);
    }

    #[test]
    fn loss_with_redundancy_suicides() {
        let s = VnodeSituation {
            negative_streak: true,
            availability_without_self: 63.0, // still over threshold
            replica_count: 3,
            ..base()
        };
        assert_eq!(classify(&s), Intent::Suicide);
    }

    #[test]
    fn loss_without_redundancy_migrates() {
        let s = VnodeSituation {
            negative_streak: true,
            availability_without_self: 5.0, // below threshold
            replica_count: 3,
            ..base()
        };
        assert_eq!(classify(&s), Intent::Migrate);
    }

    #[test]
    fn last_replica_never_suicides() {
        let s = VnodeSituation {
            negative_streak: true,
            availability_without_self: 100.0,
            replica_count: 1,
            ..base()
        };
        assert_eq!(classify(&s), Intent::Migrate);
    }

    #[test]
    fn profit_replicates_only_over_hurdle() {
        let mut s = VnodeSituation {
            positive_streak: true,
            window_mean: Some(1.0),
            ..base()
        };
        // Projected new-replica balance: (1.0 + 0.3) · 2/3 − 0.3 ≈ 0.567,
        // over the hurdle 1.5 · 0.3 = 0.45 → replicate.
        assert_eq!(classify(&s), Intent::ReplicateForProfit);
        let p = projected_new_replica_balance(&s).unwrap();
        assert!((p - (1.3 * 2.0 / 3.0 - 0.3)).abs() < 1e-12);
        // (0.8 + 0.3) · 2/3 − 0.3 ≈ 0.433 under the 0.45 hurdle → stay.
        s.window_mean = Some(0.8);
        assert_eq!(
            classify(&s),
            Intent::Stay,
            "projected 0.433 under the 0.45 hurdle"
        );
    }

    #[test]
    fn dilution_blocks_marginal_replication() {
        // Without the k/(k+1) dilution this mean would clear the hurdle
        // (0.5 > 0.45) and create a surplus replica that never suicides.
        let s = VnodeSituation {
            positive_streak: true,
            window_mean: Some(0.5),
            ..base()
        };
        assert_eq!(
            classify(&s),
            Intent::Stay,
            "(0.5 + 0.3)·2/3 − 0.3 ≈ 0.233 < 0.45"
        );
        // More existing replicas soften the dilution: the same mean clears
        // the hurdle once enough replicas already share the income.
        let s = VnodeSituation {
            window_mean: Some(0.55),
            replica_count: 9,
            ..s
        };
        assert_eq!(
            classify(&s),
            Intent::ReplicateForProfit,
            "(0.85)·9/10 − 0.3 = 0.465 > 0.45"
        );
    }

    #[test]
    fn replica_cap_blocks_profit_replication() {
        let s = VnodeSituation {
            positive_streak: true,
            window_mean: Some(100.0),
            replica_count: 12,
            max_replicas: 12,
            ..base()
        };
        assert_eq!(classify(&s), Intent::Stay);
    }

    #[test]
    fn negative_streak_takes_priority_over_positive_history() {
        // Cannot be both, but if flags disagree the loss branch wins.
        let s = VnodeSituation {
            negative_streak: true,
            positive_streak: true,
            window_mean: Some(10.0),
            availability_without_self: 100.0,
            replica_count: 3,
            ..base()
        };
        assert_eq!(classify(&s), Intent::Suicide);
    }

    #[test]
    fn action_counts_merge_and_sum() {
        let mut a = ActionCounts {
            availability_replications: 1,
            profit_replications: 2,
            migrations: 3,
            suicides: 4,
            splits: 5,
            blocked_transfers: 6,
            replicated_bytes: 100,
            migrated_bytes: 50,
            measured_replicated_bytes: 130,
            measured_migrated_bytes: 70,
            scrub_rebuilds: 2,
            measured_scrub_bytes: 40,
            ..ActionCounts::default()
        };
        let b = a;
        a.merge(&b);
        assert_eq!(a.availability_replications, 2);
        assert_eq!(a.replications(), 6);
        assert_eq!(a.blocked_transfers, 12);
        assert_eq!(a.replicated_bytes + a.migrated_bytes, 300);
        assert_eq!(a.measured_replicated_bytes + a.measured_migrated_bytes, 400);
        assert_eq!(a.scrub_rebuilds, 4);
        assert_eq!(a.measured_scrub_bytes, 80);
        assert_eq!(a.spec_hit_rate(), None);
    }
}
