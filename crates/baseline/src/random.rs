//! Uniform random placement.

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

use skute_cluster::ServerId;
use skute_core::{PlacementContext, PlacementStrategy};
use skute_economy::RegionQueries;

/// Places each replica on a uniformly random feasible server: the
/// availability-agnostic, cost-agnostic null hypothesis.
#[derive(Debug, Clone)]
pub struct RandomPlacement {
    rng: StdRng,
}

impl RandomPlacement {
    /// A seeded random strategy (deterministic per seed).
    pub fn new(seed: u64) -> Self {
        Self {
            rng: StdRng::seed_from_u64(seed),
        }
    }
}

impl PlacementStrategy for RandomPlacement {
    fn name(&self) -> &'static str {
        "random"
    }

    fn place_replica(
        &mut self,
        ctx: &PlacementContext<'_>,
        existing: &[ServerId],
        partition_size: u64,
        _region_queries: &[RegionQueries],
    ) -> Option<ServerId> {
        let candidates: Vec<ServerId> = ctx
            .cluster
            .alive()
            .filter(|s| !existing.contains(&s.id) && s.storage_free() >= partition_size)
            .map(|s| s.id)
            .collect();
        candidates.choose(&mut self.rng).copied()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::harness::CtxFixture;

    #[test]
    fn random_picks_feasible_servers() {
        let fixture = CtxFixture::paper();
        let ctx = fixture.ctx();
        let mut strategy = RandomPlacement::new(1);
        let existing = vec![ServerId(0)];
        for _ in 0..32 {
            let pick = strategy.place_replica(&ctx, &existing, 0, &[]).unwrap();
            assert_ne!(pick, ServerId(0), "existing replicas excluded");
            assert!(ctx.cluster.get_alive(pick).is_some());
        }
    }

    #[test]
    fn random_is_seed_deterministic() {
        let fixture = CtxFixture::paper();
        let ctx = fixture.ctx();
        let picks = |seed| {
            let mut s = RandomPlacement::new(seed);
            (0..8)
                .map(|_| s.place_replica(&ctx, &[], 0, &[]).unwrap())
                .collect::<Vec<_>>()
        };
        assert_eq!(picks(9), picks(9));
    }

    #[test]
    fn random_returns_none_when_cluster_is_full() {
        let fixture = CtxFixture::paper();
        let ctx = fixture.ctx();
        let mut strategy = RandomPlacement::new(1);
        assert!(strategy.place_replica(&ctx, &[], u64::MAX, &[]).is_none());
        assert_eq!(strategy.name(), "random");
    }
}
