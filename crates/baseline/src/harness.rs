//! Strategy evaluation: availability, cost and failure survival.

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};

use skute_cluster::{Board, Capacities, Cluster, ServerId, ServerSpec};
use skute_core::{availability_of, PlacementContext, PlacementStrategy};
use skute_economy::{EconomyConfig, RentModel};
use skute_geo::Topology;

/// Owns everything a [`PlacementContext`] borrows.
#[derive(Debug, Clone)]
pub struct CtxFixture {
    /// Physical servers.
    pub cluster: Cluster,
    /// Posted rents.
    pub board: Board,
    /// Geographic layout.
    pub topology: Topology,
    /// Economy tunables.
    pub economy: EconomyConfig,
}

impl CtxFixture {
    /// The paper's cluster (200 servers, 70% at $100 / 30% at $125) with
    /// bootstrap rents posted.
    pub fn paper() -> Self {
        let topology = Topology::paper();
        let cluster = Cluster::from_topology(&topology, |i, location| ServerSpec {
            location,
            capacities: Capacities::paper(4 << 30, 3000.0),
            monthly_cost: if i % 10 < 7 { 100.0 } else { 125.0 },
            confidence: 1.0,
        });
        let economy = EconomyConfig::paper();
        let rent_model = RentModel::new(economy.alpha, economy.beta);
        let mut board = Board::new();
        board.begin_epoch(1);
        for s in cluster.alive() {
            board.post(s.id, rent_model.price_server(s));
        }
        Self {
            cluster,
            board,
            topology,
            economy,
        }
    }

    /// Borrows the fixture as a placement context.
    pub fn ctx(&self) -> PlacementContext<'_> {
        PlacementContext {
            cluster: &self.cluster,
            board: &self.board,
            topology: &self.topology,
            economy: &self.economy,
        }
    }
}

/// Parameters of one strategy evaluation.
#[derive(Debug, Clone, Copy)]
pub struct EvaluationConfig {
    /// Number of partitions to place.
    pub partitions: usize,
    /// Replicas per partition.
    pub replicas: usize,
    /// SLA availability threshold (eq. 2 units).
    pub threshold: f64,
    /// Servers failed per trial (the paper's §III-C bursts fail 20).
    pub failures: usize,
    /// Number of independent failure trials.
    pub trials: usize,
    /// Seed shared across strategies so they see identical anchors and
    /// failure bursts.
    pub seed: u64,
}

impl EvaluationConfig {
    /// A paper-like default: 200 partitions × 3 replicas, threshold
    /// calibrated for k = 3, 20-server failure bursts, 20 trials.
    pub fn paper(topology: &Topology) -> Self {
        Self {
            partitions: 200,
            replicas: 3,
            threshold: skute_core::threshold_for_replicas(topology, 3),
            failures: 20,
            trials: 20,
            seed: 0xBA5E,
        }
    }
}

/// Aggregate outcome of evaluating one strategy.
#[derive(Debug, Clone)]
pub struct StrategyOutcome {
    /// Strategy name.
    pub name: &'static str,
    /// Mean eq.-(2) availability over partitions (before failures).
    pub mean_availability: f64,
    /// Fraction of partitions meeting the threshold (before failures).
    pub sla_satisfied_frac: f64,
    /// Mean posted rent of the chosen replica servers (cost proxy).
    pub mean_rent: f64,
    /// Mean fraction of partitions still meeting the threshold after a
    /// failure burst (over trials).
    pub surviving_sla_frac: f64,
    /// Mean fraction of partitions losing *all* replicas in a burst.
    pub lost_partition_frac: f64,
}

/// Places `cfg.partitions` partitions with `strategy` and measures
/// availability, rent and failure survival. The first replica of each
/// partition is anchored on a seeded-random server (identical across
/// strategies); the strategy chooses every subsequent replica.
pub fn evaluate(
    strategy: &mut dyn PlacementStrategy,
    fixture: &CtxFixture,
    cfg: &EvaluationConfig,
) -> StrategyOutcome {
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let alive = fixture.cluster.alive_ids();
    assert!(!alive.is_empty(), "fixture cluster is empty");
    let ctx = fixture.ctx();
    // Place.
    let mut placements: Vec<Vec<ServerId>> = Vec::with_capacity(cfg.partitions);
    for _ in 0..cfg.partitions {
        let mut replicas = vec![alive[rng.gen_range(0..alive.len())]];
        while replicas.len() < cfg.replicas {
            match strategy.place_replica(&ctx, &replicas, 0, &[]) {
                Some(id) => replicas.push(id),
                None => break,
            }
        }
        placements.push(replicas);
    }
    // Availability and rent before failures.
    let mut avail_sum = 0.0;
    let mut satisfied = 0usize;
    let mut rent_sum = 0.0;
    let mut rent_count = 0usize;
    for replicas in &placements {
        let placed: Vec<_> = replicas
            .iter()
            .filter_map(|id| fixture.cluster.get(*id).map(|s| (s.location, s.confidence)))
            .collect();
        let a = availability_of(&placed);
        avail_sum += a;
        if a >= cfg.threshold {
            satisfied += 1;
        }
        for id in replicas {
            if let Some(p) = fixture.board.price_of(*id) {
                rent_sum += p;
                rent_count += 1;
            }
        }
    }
    // Failure trials.
    let mut surviving_sum = 0.0;
    let mut lost_sum = 0.0;
    for trial in 0..cfg.trials {
        let mut trial_rng = StdRng::seed_from_u64(cfg.seed ^ ((trial as u64 + 1) * 0x9E37_79B9));
        let mut pool = alive.clone();
        pool.shuffle(&mut trial_rng);
        let dead: Vec<ServerId> = pool.into_iter().take(cfg.failures).collect();
        let mut surviving = 0usize;
        let mut lost = 0usize;
        for replicas in &placements {
            let alive_replicas: Vec<_> = replicas
                .iter()
                .filter(|id| !dead.contains(id))
                .filter_map(|id| fixture.cluster.get(*id).map(|s| (s.location, s.confidence)))
                .collect();
            if alive_replicas.is_empty() {
                lost += 1;
            } else if availability_of(&alive_replicas) >= cfg.threshold {
                surviving += 1;
            }
        }
        surviving_sum += surviving as f64 / cfg.partitions as f64;
        lost_sum += lost as f64 / cfg.partitions as f64;
    }
    StrategyOutcome {
        name: strategy.name(),
        mean_availability: avail_sum / cfg.partitions as f64,
        sla_satisfied_frac: satisfied as f64 / cfg.partitions as f64,
        mean_rent: if rent_count == 0 {
            0.0
        } else {
            rent_sum / rent_count as f64
        },
        surviving_sla_frac: surviving_sum / cfg.trials as f64,
        lost_partition_frac: lost_sum / cfg.trials as f64,
    }
}

/// Shared fixtures for the strategy unit tests.
pub mod test_support {
    use super::CtxFixture;

    /// The paper cluster fixture used across strategy tests.
    pub fn small_ctx_fixture() -> CtxFixture {
        CtxFixture::paper()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{CheapestPlacement, MaxSpreadPlacement, RandomPlacement, SuccessorPlacement};
    use skute_core::placement::EconomicPlacement;

    fn quick_cfg(fixture: &CtxFixture) -> EvaluationConfig {
        let mut cfg = EvaluationConfig::paper(&fixture.topology);
        cfg.partitions = 60;
        cfg.trials = 8;
        cfg
    }

    #[test]
    fn spread_beats_successor_on_availability() {
        let fixture = CtxFixture::paper();
        let cfg = quick_cfg(&fixture);
        let spread = evaluate(&mut MaxSpreadPlacement, &fixture, &cfg);
        let successor = evaluate(&mut SuccessorPlacement, &fixture, &cfg);
        assert!(
            spread.mean_availability > 2.0 * successor.mean_availability,
            "spread {} vs successor {}",
            spread.mean_availability,
            successor.mean_availability
        );
        assert!(spread.sla_satisfied_frac > successor.sla_satisfied_frac);
    }

    #[test]
    fn economic_matches_spread_availability_at_lower_rent() {
        let fixture = CtxFixture::paper();
        let cfg = quick_cfg(&fixture);
        let economic = evaluate(&mut EconomicPlacement, &fixture, &cfg);
        let spread = evaluate(&mut MaxSpreadPlacement, &fixture, &cfg);
        assert!(
            economic.sla_satisfied_frac >= 0.99,
            "{}",
            economic.sla_satisfied_frac
        );
        assert!(
            economic.mean_rent <= spread.mean_rent + 1e-9,
            "economic {} vs spread {}",
            economic.mean_rent,
            spread.mean_rent
        );
    }

    #[test]
    fn cheapest_minimizes_rent_but_fails_sla() {
        let fixture = CtxFixture::paper();
        let cfg = quick_cfg(&fixture);
        let cheapest = evaluate(&mut CheapestPlacement, &fixture, &cfg);
        let economic = evaluate(&mut EconomicPlacement, &fixture, &cfg);
        assert!(cheapest.mean_rent <= economic.mean_rent + 1e-9);
    }

    #[test]
    fn survival_orders_geography_aware_above_blind() {
        let fixture = CtxFixture::paper();
        let cfg = quick_cfg(&fixture);
        let economic = evaluate(&mut EconomicPlacement, &fixture, &cfg);
        let successor = evaluate(&mut SuccessorPlacement, &fixture, &cfg);
        assert!(
            economic.surviving_sla_frac > successor.surviving_sla_frac,
            "economic {} vs successor {}",
            economic.surviving_sla_frac,
            successor.surviving_sla_frac
        );
    }

    #[test]
    fn random_is_between_extremes() {
        let fixture = CtxFixture::paper();
        let cfg = quick_cfg(&fixture);
        let random = evaluate(&mut RandomPlacement::new(3), &fixture, &cfg);
        let spread = evaluate(&mut MaxSpreadPlacement, &fixture, &cfg);
        let successor = evaluate(&mut SuccessorPlacement, &fixture, &cfg);
        assert!(random.mean_availability <= spread.mean_availability);
        assert!(random.mean_availability >= successor.mean_availability);
    }

    #[test]
    fn evaluation_is_deterministic() {
        let fixture = CtxFixture::paper();
        let cfg = quick_cfg(&fixture);
        let a = evaluate(&mut SuccessorPlacement, &fixture, &cfg);
        let b = evaluate(&mut SuccessorPlacement, &fixture, &cfg);
        assert_eq!(a.mean_availability, b.mean_availability);
        assert_eq!(a.surviving_sla_frac, b.surviving_sla_frac);
    }
}
