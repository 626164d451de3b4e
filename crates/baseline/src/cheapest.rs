//! Rent-greedy placement: minimize cost, ignore geography.

use skute_cluster::ServerId;
use skute_core::{PlacementContext, PlacementStrategy};
use skute_economy::RegionQueries;

/// Always picks the cheapest feasible server by posted rent — the
/// economics-without-geography corner of the design space (the resource
/// managers of refs. [3, 4] optimize cost but "do not consider …
/// geographical distribution of replicas"). Ties break on the lower server
/// id for determinism.
#[derive(Debug, Clone, Copy, Default)]
pub struct CheapestPlacement;

impl PlacementStrategy for CheapestPlacement {
    fn name(&self) -> &'static str {
        "cheapest"
    }

    fn place_replica(
        &mut self,
        ctx: &PlacementContext<'_>,
        existing: &[ServerId],
        partition_size: u64,
        _region_queries: &[RegionQueries],
    ) -> Option<ServerId> {
        ctx.cluster
            .alive()
            .filter(|s| !existing.contains(&s.id) && s.storage_free() >= partition_size)
            .filter_map(|s| ctx.board.price_of(s.id).map(|p| (s.id, p)))
            .min_by(|a, b| a.1.total_cmp(&b.1).then_with(|| a.0.cmp(&b.0)))
            .map(|(id, _)| id)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::harness::test_support::small_ctx_fixture;

    #[test]
    fn cheapest_picks_lowest_rent() {
        let fixture = small_ctx_fixture();
        let ctx = fixture.ctx();
        let mut strategy = CheapestPlacement;
        let pick = strategy.place_replica(&ctx, &[], 0, &[]).unwrap();
        let rent = ctx.board.price_of(pick).unwrap();
        let min = ctx.board.min_price().unwrap();
        assert!((rent - min).abs() < 1e-12);
        assert_eq!(strategy.name(), "cheapest");
    }

    #[test]
    fn cheapest_skips_existing_and_full() {
        let fixture = small_ctx_fixture();
        let ctx = fixture.ctx();
        let mut strategy = CheapestPlacement;
        let first = strategy.place_replica(&ctx, &[], 0, &[]).unwrap();
        let second = strategy.place_replica(&ctx, &[first], 0, &[]).unwrap();
        assert_ne!(first, second);
        assert!(strategy.place_replica(&ctx, &[], u64::MAX, &[]).is_none());
    }

    #[test]
    fn cheapest_is_deterministic() {
        let fixture = small_ctx_fixture();
        let ctx = fixture.ctx();
        let mut a = CheapestPlacement;
        let mut b = CheapestPlacement;
        assert_eq!(
            a.place_replica(&ctx, &[], 0, &[]),
            b.place_replica(&ctx, &[], 0, &[])
        );
    }

    #[test]
    fn cheapest_never_picks_unposted_or_full_servers() {
        let mut fixture = small_ctx_fixture();
        // Fill some servers and withdraw the cheapest server's posting:
        // the pick must stay feasible, posted, and the cheapest of those.
        for i in [3u32, 8, 77] {
            let s = fixture.cluster.get_mut(ServerId(i)).unwrap();
            let caps = s.capacities;
            assert!(s.usage.reserve_storage(&caps, 3 << 30));
        }
        let unposted = CheapestPlacement
            .place_replica(&fixture.ctx(), &[], 0, &[])
            .unwrap();
        fixture.board.withdraw(unposted);
        let ctx = fixture.ctx();
        for existing in [vec![], vec![ServerId(1)], vec![ServerId(1), ServerId(140)]] {
            for size in [0u64, 2 << 30] {
                let pick = CheapestPlacement
                    .place_replica(&ctx, &existing, size, &[])
                    .unwrap();
                assert_ne!(pick, unposted);
                assert!(!existing.contains(&pick));
                let price = ctx.board.price_of(pick).unwrap();
                for s in ctx.cluster.alive() {
                    if existing.contains(&s.id) || s.storage_free() < size {
                        continue;
                    }
                    if let Some(p) = ctx.board.price_of(s.id) {
                        assert!(price <= p, "existing {existing:?} size {size}");
                    }
                }
                assert!(ctx.cluster.get(pick).unwrap().storage_free() >= size);
            }
        }
    }
}
