//! Pure-diversity placement: maximize geographic spread, ignore cost.

use skute_cluster::ServerId;
use skute_core::{PlacementContext, PlacementStrategy};
use skute_economy::RegionQueries;
use skute_geo::diversity;

/// Picks the feasible server maximizing the summed diversity to the
/// existing replicas, ignoring rent entirely — the availability-at-any-cost
/// corner. Every alive server with room is a candidate, posted on the
/// board or not. Ties break on the lower server id for determinism.
#[derive(Debug, Clone, Copy, Default)]
pub struct MaxSpreadPlacement;

impl PlacementStrategy for MaxSpreadPlacement {
    fn name(&self) -> &'static str {
        "max-spread"
    }

    fn place_replica(
        &mut self,
        ctx: &PlacementContext<'_>,
        existing: &[ServerId],
        partition_size: u64,
        _region_queries: &[RegionQueries],
    ) -> Option<ServerId> {
        let existing_locations: Vec<_> = existing
            .iter()
            .filter_map(|id| ctx.cluster.get(*id).map(|s| s.location))
            .collect();
        ctx.cluster
            .alive()
            .filter(|s| !existing.contains(&s.id) && s.storage_free() >= partition_size)
            .map(|s| {
                let gain: u32 = existing_locations
                    .iter()
                    .map(|l| u32::from(diversity(l, &s.location)))
                    .sum();
                (s.id, gain)
            })
            .max_by(|a, b| a.1.cmp(&b.1).then_with(|| b.0.cmp(&a.0)))
            .map(|(id, _)| id)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::harness::CtxFixture;
    use skute_core::availability_of;

    #[test]
    fn spread_reaches_greedy_max_availability() {
        let fixture = CtxFixture::paper();
        let ctx = fixture.ctx();
        let mut strategy = MaxSpreadPlacement;
        let mut existing = vec![ServerId(0)];
        for _ in 0..2 {
            let pick = strategy.place_replica(&ctx, &existing, 0, &[]).unwrap();
            existing.push(pick);
        }
        let placed: Vec<_> = existing
            .iter()
            .map(|id| (ctx.cluster.get(*id).unwrap().location, 1.0))
            .collect();
        // Three replicas spread greedily: every pair on distinct continents.
        assert_eq!(availability_of(&placed), 3.0 * 63.0);
    }

    #[test]
    fn spread_ignores_price() {
        let fixture = CtxFixture::paper();
        let ctx = fixture.ctx();
        let mut strategy = MaxSpreadPlacement;
        // From server 0, countless cross-continent candidates exist; the
        // strategy must not systematically prefer cheap ones (ties break on
        // id, and id 0's first cross-continent successor wins regardless of
        // cost class).
        let pick = strategy
            .place_replica(&ctx, &[ServerId(0)], 0, &[])
            .unwrap();
        let a = ctx.cluster.get(ServerId(0)).unwrap().location;
        let b = ctx.cluster.get(pick).unwrap().location;
        assert_ne!(a.continent, b.continent);
    }

    #[test]
    fn spread_with_no_existing_replicas_picks_lowest_id() {
        let fixture = CtxFixture::paper();
        let ctx = fixture.ctx();
        let mut strategy = MaxSpreadPlacement;
        assert_eq!(
            strategy.place_replica(&ctx, &[], 0, &[]),
            Some(ServerId(0)),
            "zero gain everywhere, deterministic tie-break"
        );
    }

    #[test]
    fn spread_skips_existing_and_full_servers() {
        let mut fixture = CtxFixture::paper();
        for i in [12u32, 31, 155] {
            let s = fixture.cluster.get_mut(ServerId(i)).unwrap();
            let caps = s.capacities;
            assert!(s.usage.reserve_storage(&caps, 3 << 30));
        }
        let ctx = fixture.ctx();
        let gain = |existing: &[ServerId], id: ServerId| -> u32 {
            let at = ctx.cluster.get(id).unwrap().location;
            existing
                .iter()
                .map(|e| u32::from(diversity(&ctx.cluster.get(*e).unwrap().location, &at)))
                .sum()
        };
        for existing in [
            vec![],
            vec![ServerId(0)],
            vec![ServerId(0), ServerId(45), ServerId(90), ServerId(135)],
        ] {
            for size in [0u64, 2 << 30] {
                let pick = MaxSpreadPlacement
                    .place_replica(&ctx, &existing, size, &[])
                    .unwrap();
                assert!(!existing.contains(&pick));
                assert!(ctx.cluster.get(pick).unwrap().storage_free() >= size);
                for s in ctx.cluster.alive() {
                    if !existing.contains(&s.id) && s.storage_free() >= size {
                        let (best, other) = (gain(&existing, pick), gain(&existing, s.id));
                        assert!(
                            best > other || (best == other && pick <= s.id),
                            "existing {existing:?} size {size}: {pick} loses to {}",
                            s.id
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn unposted_servers_stay_candidates() {
        // This policy ignores rent, so a server without a posting on the
        // board competes like any other.
        let mut fixture = CtxFixture::paper();
        fixture.board.withdraw(ServerId(0));
        assert_eq!(
            MaxSpreadPlacement.place_replica(&fixture.ctx(), &[], 0, &[]),
            Some(ServerId(0)),
            "zero gain everywhere, the lowest id wins unposted"
        );
        // Make the unposted server 120 the *unique* feasible candidate:
        // every other continent hosts an existing replica, and every other
        // server on 120's continent has its storage filled.
        fixture.board.withdraw(ServerId(120));
        let c120 = fixture
            .cluster
            .get(ServerId(120))
            .unwrap()
            .location
            .continent;
        let full: Vec<ServerId> = fixture
            .cluster
            .alive()
            .filter(|s| s.location.continent == c120 && s.id != ServerId(120))
            .map(|s| s.id)
            .collect();
        for id in full {
            let s = fixture.cluster.get_mut(id).unwrap();
            let caps = s.capacities;
            let free = s.storage_free();
            assert!(s.usage.reserve_storage(&caps, free));
        }
        let ctx = fixture.ctx();
        let existing: Vec<ServerId> = ctx
            .cluster
            .alive()
            .filter(|s| s.location.continent != c120)
            .map(|s| s.id)
            .collect();
        assert_eq!(
            MaxSpreadPlacement.place_replica(&ctx, &existing, 1, &[]),
            Some(ServerId(120)),
            "only 120 has room"
        );
    }
}
