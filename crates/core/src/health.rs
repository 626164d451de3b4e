//! Server health: gray failure modes, the continental cut, and the
//! reachability predicates the data path asks.
//!
//! Gray modes and the cut are cluster-level state, derived per epoch window
//! as pure functions of `(FaultPlan, server, epoch)` — the storage crate
//! only names the plan and owns the mixer. [`HealthState`] holds the
//! current epoch's derivation, feeds it into each server's confidence EWMA
//! ([`skute_cluster::Server::observe_health`]), and answers the two
//! questions the client path has: can this client *reach* that replica
//! (reads), and does that replica *ack* writes.

use skute_cluster::{Cluster, ServerId};
use skute_geo::Location;
use skute_store::faults::splitmix64;
use skute_store::FaultPlan;

use crate::obs::CloudMetrics;

/// Epochs a derived gray mode or continental split holds before
/// re-rolling. Long enough for the confidence EWMA (alpha 0.25) to track
/// a degraded server down, short enough that several distinct fault
/// configurations occur within one CI-sized run.
pub(crate) const GRAY_WINDOW_EPOCHS: u64 = 8;

/// The degraded mode of one server under a gray fault plan, derived per
/// epoch window by `gray_mode`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum GrayMode {
    /// Fully functional (the overwhelmingly common draw).
    #[default]
    Healthy,
    /// Serves reads but fails writes — the classic gray failure: the
    /// server acks nothing, so its replicas silently diverge until a
    /// quorum read's read-repair or a later write of the key converges
    /// them.
    ReadOnly,
    /// Responds, but `units` deterministic latency units late; the
    /// confidence EWMA prices it down proportionally.
    Slow {
        /// Added latency in deterministic units (1..=4).
        units: u32,
    },
    /// Unreachable from everywhere: reads and writes both fail.
    Partitioned,
}

impl GrayMode {
    /// True for any non-healthy mode.
    pub(crate) fn is_degraded(self) -> bool {
        self != GrayMode::Healthy
    }

    /// The health sample this mode feeds the confidence EWMA
    /// (1.0 = perfect, towards 0.0 = unusable).
    pub(crate) fn health_sample(self) -> f64 {
        match self {
            GrayMode::Healthy => 1.0,
            GrayMode::Slow { units } => 0.6 - 0.05 * f64::from(units.min(4)),
            GrayMode::ReadOnly => 0.35,
            GrayMode::Partitioned => 0.1,
        }
    }
}

/// The gray mode of `server` during `epoch`, a pure function of
/// `(plan, server, epoch window)`. Modes hold for [`GRAY_WINDOW_EPOCHS`]
/// consecutive epochs so the confidence EWMA has time to track them, then
/// re-roll. Non-gray plans always answer [`GrayMode::Healthy`].
pub(crate) fn gray_mode(plan: &FaultPlan, server: u64, epoch: u64) -> GrayMode {
    if !plan.gray_failures() {
        return GrayMode::Healthy;
    }
    let window = epoch / GRAY_WINDOW_EPOCHS;
    let h = splitmix64(
        plan.seed
            ^ splitmix64(server.wrapping_mul(0xA24B_AED4_963E_E407))
            ^ splitmix64(window.wrapping_mul(0x9FB2_1C65_1E98_DF25)),
    );
    match h % 100 {
        0..=5 => GrayMode::ReadOnly,
        6..=13 => GrayMode::Slow {
            units: 1 + ((h >> 8) % 4) as u32,
        },
        14..=16 => GrayMode::Partitioned,
        _ => GrayMode::Healthy,
    }
}

/// The continent cut off from the rest of the cloud during `epoch`
/// (`continents` is the topology's continent count), a pure function of
/// `(plan, epoch window)`. `None` for plans without a continental split or
/// when the topology has fewer than two continents.
pub(crate) fn partitioned_continent(plan: &FaultPlan, epoch: u64, continents: u16) -> Option<u16> {
    if !plan.continental_partitions() || continents < 2 {
        return None;
    }
    let window = epoch / GRAY_WINDOW_EPOCHS;
    let h = splitmix64(plan.seed ^ splitmix64(window.wrapping_mul(0xD6E8_FEB8_6659_FD93)));
    Some((h % u64::from(continents)) as u16)
}

/// The health state of the current epoch: per-server gray modes and the
/// continent severed from the rest of the cloud.
#[derive(Debug, Default)]
pub(crate) struct HealthState {
    /// Gray modes indexed by server id; empty while the plan has never
    /// been gray, so legacy runs pay nothing.
    modes: Vec<GrayMode>,
    /// The continent currently cut off (from the fault plan, or forced).
    cut: Option<u16>,
    /// Sim/operator override of the continental cut: `None` follows the
    /// fault plan, `Some(cut)` replaces whatever the plan derives.
    forced_cut: Option<Option<u16>>,
}

impl HealthState {
    /// The continent currently severed from the rest of the cloud, if any.
    pub(crate) fn cut(&self) -> Option<u16> {
        self.cut
    }

    /// Overrides the plan's continental cut from the next
    /// [`HealthState::refresh`] on: `Some(c)` severs continent `c`, `None`
    /// forces the cut healed (even under a partition plan).
    pub(crate) fn force_cut(&mut self, cut: Option<u16>) {
        self.forced_cut = Some(cut);
    }

    /// Re-derives the gray modes and the cut for `epoch`, feeds one health
    /// sample per alive server into its confidence EWMA and sets the
    /// fleet-health gauges of `metrics`. Returns `false` — having done
    /// strictly nothing — when the plan has never been gray and no cut was
    /// ever forced, so legacy same-seed trajectories stay byte-identical;
    /// `true` means confidences moved and the caller must drop every
    /// memoized eq.-(2) availability. Sequential, in ascending server-id
    /// order, and a pure function of `(plan, epoch)`: gray trajectories
    /// are invariant across thread counts and storage backends.
    pub(crate) fn refresh(
        &mut self,
        plan: &FaultPlan,
        epoch: u64,
        continents: u16,
        cluster: &mut Cluster,
        metrics: Option<&CloudMetrics>,
    ) -> bool {
        let cut = match self.forced_cut {
            Some(forced) => forced,
            None => partitioned_continent(plan, epoch, continents),
        };
        let active = plan.gray_failures() || cut.is_some();
        if !active && self.modes.is_empty() && self.cut.is_none() {
            return false;
        }
        self.cut = cut;
        self.modes.clear();
        self.modes.resize(cluster.len(), GrayMode::Healthy);
        let (mut min_bp, mut sum, mut alive, mut degraded) = (i64::MAX, 0.0f64, 0u64, 0i64);
        for idx in 0..self.modes.len() {
            let mode = gray_mode(plan, idx as u64, epoch);
            self.modes[idx] = mode;
            let Some(server) = cluster.get_mut(ServerId(idx as u32)) else {
                continue;
            };
            if !server.is_alive() {
                continue;
            }
            // A cut continent is unreachable from the majority side no
            // matter how healthy its servers are individually.
            let behind_cut = cut == Some(server.location.continent);
            let sample = mode.health_sample();
            server.observe_health(if behind_cut { sample.min(0.1) } else { sample });
            if mode.is_degraded() || behind_cut {
                degraded += 1;
            }
            let bp = (server.confidence * 10_000.0).round() as i64;
            min_bp = min_bp.min(bp);
            sum += server.confidence;
            alive += 1;
        }
        if let Some(m) = metrics {
            if alive > 0 {
                m.confidence_min_bp.set(min_bp);
                m.confidence_mean_bp
                    .set((sum / alive as f64 * 10_000.0).round() as i64);
            }
            m.gray_degraded_servers.set(degraded);
            m.partition_cut_continent.set(cut.map_or(-1, i64::from));
        }
        true
    }

    /// True when a client at `client` can reach the replica on `server`
    /// at `location` under the current gray modes and continental cut. A
    /// client with no stated location is assumed to sit outside the cut
    /// continent (the majority side).
    pub(crate) fn reachable(
        &self,
        server: ServerId,
        location: &Location,
        client: Option<Location>,
    ) -> bool {
        if self.mode_of(server) == GrayMode::Partitioned {
            return false;
        }
        match self.cut {
            Some(cut) => {
                let client_in_cut = client.is_some_and(|c| c.continent == cut);
                (location.continent == cut) == client_in_cut
            }
            None => true,
        }
    }

    /// True when the replica on `server` at `location` acks no writes:
    /// read-only and individually partitioned servers, and anything behind
    /// the continental cut. Such replicas silently miss updates and stay
    /// divergent until a quorum read's read-repair or a later write of
    /// the key converges them.
    pub(crate) fn blocks_writes(&self, server: ServerId, location: &Location) -> bool {
        matches!(
            self.mode_of(server),
            GrayMode::ReadOnly | GrayMode::Partitioned
        ) || self.cut == Some(location.continent)
    }

    fn mode_of(&self, server: ServerId) -> GrayMode {
        self.modes
            .get(server.0 as usize)
            .copied()
            .unwrap_or_default()
    }

    /// Test hook: puts `server` in `mode` until the next refresh.
    #[cfg(test)]
    pub(crate) fn set_mode(&mut self, server: ServerId, mode: GrayMode) {
        let idx = server.0 as usize;
        if self.modes.len() <= idx {
            self.modes.resize(idx + 1, GrayMode::Healthy);
        }
        self.modes[idx] = mode;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use skute_store::FaultPlanKind;

    fn plan(kind: FaultPlanKind, seed: u64) -> FaultPlan {
        FaultPlan { kind, seed }
    }

    #[test]
    fn gray_modes_are_deterministic_and_window_stable() {
        let plan = plan(FaultPlanKind::Gray, 77);
        let mut degraded = 0usize;
        for server in 0..200u64 {
            let mode = gray_mode(&plan, server, 0);
            // Stable for the whole window, re-derivable from scratch.
            for epoch in 0..GRAY_WINDOW_EPOCHS {
                assert_eq!(gray_mode(&plan, server, epoch), mode);
            }
            if mode.is_degraded() {
                degraded += 1;
            }
            assert!(mode.health_sample() > 0.0 && mode.health_sample() <= 1.0);
            if let GrayMode::Slow { units } = mode {
                assert!((1..=4).contains(&units));
            }
        }
        // ~17% of draws are degraded; 200 servers make both tails
        // astronomically unlikely.
        assert!(degraded > 5 && degraded < 100, "degraded={degraded}");
        // Different windows re-roll at least one of 200 servers.
        assert!(
            (0..200u64).any(|s| gray_mode(&plan, s, 0) != gray_mode(&plan, s, GRAY_WINDOW_EPOCHS)),
            "windows re-roll modes"
        );
        // Non-gray plans never degrade.
        assert_eq!(
            gray_mode(
                &FaultPlan {
                    kind: FaultPlanKind::All,
                    seed: 77
                },
                3,
                0
            ),
            GrayMode::Healthy,
            "storage plans have no gray modes"
        );
    }

    #[test]
    fn partitioned_continent_is_deterministic_and_bounded() {
        let plan = plan(FaultPlanKind::Partition, 5);
        for epoch in 0..64u64 {
            let cut = partitioned_continent(&plan, epoch, 5).expect("partition plan cuts");
            assert!(cut < 5);
            assert_eq!(
                Some(cut),
                partitioned_continent(&plan, epoch, 5),
                "pure function of (plan, epoch)"
            );
            assert_eq!(
                partitioned_continent(&plan, epoch / GRAY_WINDOW_EPOCHS * GRAY_WINDOW_EPOCHS, 5),
                Some(cut),
                "stable within a window"
            );
        }
        // Rotation: some pair of windows cuts different continents.
        let cuts: std::collections::HashSet<u16> = (0..16u64)
            .filter_map(|w| partitioned_continent(&plan, w * GRAY_WINDOW_EPOCHS, 5))
            .collect();
        assert!(cuts.len() > 1, "cut rotates across windows");
        assert_eq!(
            partitioned_continent(&plan, 0, 1),
            None,
            "one continent: no cut"
        );
        assert_eq!(
            partitioned_continent(
                &FaultPlan {
                    kind: FaultPlanKind::All,
                    seed: 5
                },
                0,
                5
            ),
            None
        );
        assert_eq!(partitioned_continent(&FaultPlan::none(), 0, 5), None);
    }

    /// The derivation's constants, pinned: values taken from
    /// `FaultPlan::gray_mode` / `FaultPlan::partitioned_continent` in
    /// `skute-store` before they moved here.
    #[test]
    fn gray_derivation_matches_the_golden_table() {
        use GrayMode::{Healthy as H, ReadOnly as R};
        const S3: GrayMode = GrayMode::Slow { units: 3 };
        let gray = plan(FaultPlanKind::Gray, 77);
        let table =
            |epoch| -> Vec<GrayMode> { (0..32).map(|s| gray_mode(&gray, s, epoch)).collect() };
        let mut first = [H; 32];
        first[27] = S3;
        first[29] = R;
        assert_eq!(table(0), first);
        let mut second = [H; 32];
        for (server, mode) in [(0, R), (2, S3), (3, R), (12, R), (21, S3), (22, S3)] {
            second[server] = mode;
        }
        assert_eq!(table(GRAY_WINDOW_EPOCHS), second);
        assert_eq!(GRAY_WINDOW_EPOCHS, 8);
        let partition = plan(FaultPlanKind::Partition, 5);
        let cuts: Vec<u16> = (0..16)
            .map(|w| partitioned_continent(&partition, w * GRAY_WINDOW_EPOCHS, 5).unwrap())
            .collect();
        assert_eq!(cuts, [4, 1, 2, 2, 3, 0, 4, 3, 3, 4, 3, 3, 2, 3, 2, 3]);
    }
}
