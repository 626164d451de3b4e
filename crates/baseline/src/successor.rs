//! Dynamo-style successor-list placement.

use skute_cluster::ServerId;
use skute_core::{PlacementContext, PlacementStrategy};

/// Places replicas on the next alive servers in id order after the first
/// replica — the Dynamo/consistent-hashing successor list \[5\].
///
/// Commissioning order follows the physical layout (rack by rack), so
/// successive ids usually share a rack or room: this strategy reproduces the
/// geography-blindness the paper criticizes — a single rack or PDU failure
/// can take out a whole replica set.
#[derive(Debug, Clone, Copy, Default)]
pub struct SuccessorPlacement;

impl PlacementStrategy for SuccessorPlacement {
    fn name(&self) -> &'static str {
        "successor-list"
    }

    fn place_replica(
        &mut self,
        ctx: &PlacementContext<'_>,
        existing: &[ServerId],
        partition_size: u64,
    ) -> Option<ServerId> {
        let total = ctx.cluster.len() as u32;
        if total == 0 {
            return None;
        }
        let anchor = existing.iter().map(|s| s.0).max().unwrap_or(0);
        // Walk forward (wrapping) from the highest existing id.
        for offset in 1..=total {
            let candidate = ServerId((anchor + offset) % total);
            if existing.contains(&candidate) {
                continue;
            }
            if let Some(s) = ctx.cluster.get_alive(candidate) {
                if s.storage_free() >= partition_size {
                    return Some(candidate);
                }
            }
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::harness::CtxFixture;
    use skute_geo::diversity;

    #[test]
    fn successors_are_consecutive_ids() {
        let fixture = CtxFixture::paper();
        let ctx = fixture.ctx();
        let mut strategy = SuccessorPlacement;
        let mut existing = vec![ServerId(10)];
        for expect in [11u32, 12, 13] {
            let pick = strategy.place_replica(&ctx, &existing, 0).unwrap();
            assert_eq!(pick, ServerId(expect));
            existing.push(pick);
        }
    }

    #[test]
    fn successor_wraps_around() {
        let fixture = CtxFixture::paper();
        let ctx = fixture.ctx();
        let n = ctx.cluster.len() as u32;
        let mut strategy = SuccessorPlacement;
        let pick = strategy.place_replica(&ctx, &[ServerId(n - 1)], 0).unwrap();
        assert_eq!(pick, ServerId(0));
    }

    #[test]
    fn successor_sets_are_geographically_clustered() {
        // The criticism the paper levels at [5]: consecutive servers share
        // racks, so the replica set has low diversity.
        let fixture = CtxFixture::paper();
        let ctx = fixture.ctx();
        let mut strategy = SuccessorPlacement;
        let a = ServerId(0);
        let b = strategy.place_replica(&ctx, &[a], 0).unwrap();
        let la = ctx.cluster.get(a).unwrap().location;
        let lb = ctx.cluster.get(b).unwrap().location;
        assert!(
            diversity(&la, &lb) <= 3,
            "successors land in the same rack/room, diversity = {}",
            diversity(&la, &lb)
        );
    }
}
