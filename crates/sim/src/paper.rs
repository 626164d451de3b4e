//! Canonical scenarios of the paper's evaluation (§III).

use skute_core::SkuteConfig;
use skute_geo::{ClientGeo, Topology};
use skute_workload::{InsertGenerator, SlashdotTrace};

use crate::events::{CloudEvent, Schedule};
use crate::scenario::{Scenario, ScenarioApp, TraceKind};

/// Number of bytes in a mebibyte.
pub(crate) const MIB: u64 = 1024 * 1024;
/// Number of bytes in a gibibyte.
pub(crate) const GIB: u64 = 1024 * MIB;

/// The §III-A baseline: 200 servers over 10 countries (5 continents × 2
/// countries × 2 datacenters × 1 room × 2 racks × 5 servers), three
/// applications whose SLAs are satisfied by 2/3/4 replicas, M = 200
/// partitions each, Pareto(1, 50) popularity, Poisson λ = 3000
/// queries/epoch, uniform client geography, 70% of servers at $100 and the
/// rest at $125.
///
/// Partition sizing: the paper loads "500 GB" of application data but also
/// caps partitions at 256 MB — at M = 200 per app those two numbers cannot
/// both hold (500 GB / 600 partitions ≈ 833 MB each), so we preload 128 MiB
/// per partition: at equilibrium (2+3+4) × 200 replicas × 128 MiB ≈ 225 GiB
/// stored, the same order of magnitude, with every partition under the cap
/// (see README, "How this code reads the paper").
pub fn base_scenario() -> Scenario {
    Scenario {
        name: "paper-base".into(),
        topology: Topology::paper(),
        server_storage_bytes: 4 * GIB,
        server_query_capacity: 3_000.0,
        cheap_cost: 100.0,
        expensive_cost: 125.0,
        cheap_fraction: 0.7,
        apps: vec![
            ScenarioApp {
                replicas: 2,
                partitions: 200,
                initial_partition_bytes: 128 * MIB,
            },
            ScenarioApp {
                replicas: 3,
                partitions: 200,
                initial_partition_bytes: 128 * MIB,
            },
            ScenarioApp {
                replicas: 4,
                partitions: 200,
                initial_partition_bytes: 128 * MIB,
            },
        ],
        load_fractions: vec![1.0, 1.0, 1.0],
        trace: TraceKind::Constant(3_000.0),
        client_geo: ClientGeo::Uniform,
        inserts: None,
        schedule: Schedule::new(),
        epochs: 100,
        seed: 0xC0FFEE,
        config: SkuteConfig::paper(),
    }
}

/// Fig. 2 — the replication process at startup: the base scenario observed
/// long enough to watch the vnode population converge and expensive servers
/// end up hosting fewer vnodes than cheap ones.
pub fn fig2_scenario() -> Scenario {
    let mut s = base_scenario();
    s.name = "fig2-convergence".into();
    s.epochs = 120;
    s
}

/// Fig. 3 — server arrival and failure: 20 servers added at epoch 100, 20
/// different servers removed at epoch 200; the per-ring vnode totals stay
/// flat across the upgrade and dip-then-recover after the failure.
pub fn fig3_scenario() -> Scenario {
    let mut s = base_scenario();
    s.name = "fig3-elasticity".into();
    s.epochs = 300;
    s.schedule = Schedule::new()
        .at(100, CloudEvent::AddServers { count: 20 })
        .at(200, CloudEvent::RemoveServers { count: 20 });
    s
}

/// Fig. 4 — adaptation to the query load: the Slashdot spike (3000 →
/// 183 000 queries/epoch in 25 epochs, decaying back over 250), with the
/// three applications attracting 4/7, 2/7 and 1/7 of the total load.
pub fn fig4_scenario() -> Scenario {
    let mut s = base_scenario();
    s.name = "fig4-slashdot".into();
    s.epochs = 400;
    s.trace = TraceKind::Slashdot(SlashdotTrace::paper());
    s.load_fractions = vec![4.0, 2.0, 1.0];
    s
}

/// Fig. 5 — storage saturation: 2000 insert requests/epoch of 500 KB each,
/// Pareto(1, 50)-distributed, until the cloud runs out of space. Partitions
/// start small (32 MiB) so the fill is dominated by the insert stream; the
/// claim under test is *shape*: no insert failures until used capacity
/// reaches the high-90s percent. The 4 GiB servers keep the
/// partition-to-server size ratio (≤ 256 MiB on 4 GiB, ~6%) fine enough
/// for near-full rebalancing, mirroring the paper's many-partitions-per-
/// server regime.
pub fn fig5_scenario() -> Scenario {
    let mut s = base_scenario();
    s.name = "fig5-saturation".into();
    for app in &mut s.apps {
        app.initial_partition_bytes = 32 * MIB;
    }
    s.inserts = Some(InsertGenerator::paper());
    s.epochs = 300;
    s
}

/// Correlated-outage stress: the base scenario with **every** server of
/// the topology's first country failing in the same epoch (epoch 40) — a
/// tenth of the fleet, all in one diversity domain of eq. (2). Where the
/// Fig. 3 failure scatters 20 random losses across the cloud, this burst
/// concentrates them: partitions whose replica sets leaned on the
/// country's diversity lose several replicas at once, and the repair
/// pass absorbs the whole backlog under its per-epoch cap. The scenario
/// backs the fault-matrix determinism checks (`skute-sim outage`).
pub fn outage_scenario() -> Scenario {
    let mut s = base_scenario();
    s.name = "outage-burst".into();
    s.epochs = 80;
    let (continent, country) = s
        .topology
        .iter_countries()
        .next()
        .expect("the paper topology has countries");
    s.schedule = Schedule::new().at(40, CloudEvent::CountryOutage { continent, country });
    s
}

/// A scaled-down variant of the base scenario for tests and quick runs:
/// `partitions` per app, `queries_per_epoch` λ, same 2/3/4-replica SLAs,
/// smaller partitions (4 MiB), `epochs` epochs.
///
/// γ (the money-per-query calibration the paper leaves unspecified) is
/// rescaled so the *hottest* partition's income sits at the base
/// scenario's operating point. Partition popularity is Pareto(1, 50)
/// distributed, and for that heavy tail the top partition's share of an
/// app's load scales like 1/ln M — so at M = 16 instead of 200 the hottest
/// partition concentrates ≈ ln 200 / ln 16 ≈ 1.9× more income, enough to
/// cross the profit-replication hurdle that the full-size scenario never
/// reaches at base load (and a profitable surplus replica never builds the
/// negative streak it needs to suicide, so the vnode population would
/// converge above 9·M). The factor only ever shrinks γ: scenarios with
/// *more* partitions than the paper's get the paper's calibration as-is.
pub fn scaled_scenario(
    name: &str,
    partitions: usize,
    queries_per_epoch: u64,
    epochs: u64,
) -> Scenario {
    let mut s = base_scenario();
    s.name = name.into();
    let base_partitions = s.apps[0].partitions as f64;
    for app in &mut s.apps {
        app.partitions = partitions;
        app.initial_partition_bytes = 4 * MIB;
    }
    // Floor at 2: ln 1 = 0 would zero γ entirely, and a single partition is
    // maximally concentrated, so it gets the strongest (smallest) factor.
    let concentration = (partitions.max(2) as f64).ln() / base_partitions.ln();
    if concentration < 1.0 {
        s.config.economy.utility_per_query *= concentration;
    }
    s.trace = TraceKind::Constant(queries_per_epoch as f64);
    s.epochs = epochs;
    s
}

/// Servers retired, and later re-added, per churn period of
/// [`churn_schedule`].
const CHURN_SERVERS: u64 = 20;
/// The first retirement of [`churn_schedule`].
const CHURN_FIRST_REMOVAL: u64 = 40;
/// Epochs from one churn period's first retirement to the next's.
const CHURN_PERIOD: u64 = 60;
/// Epochs from a retirement to its server's replacement.
const CHURN_ADD_AFTER: u64 = 30;

/// The server churn the M = 2000 epoch probes run under, over `epochs`
/// epochs: from epoch 40 and every 60 epochs after, 20 servers retired one
/// per epoch, each replaced by a new server 30 epochs after it left.
///
/// Servers leave one per epoch, not 20 at once: a simultaneous loss of 20
/// of 200 servers takes both replicas of some two-replica partitions with
/// it, while one at a time the repair pass restores each partition before
/// the next server leaves. The churn keeps the repair and decision passes
/// busy after the cold-start convergence, which a steady scenario leaves
/// idle.
pub fn churn_schedule(epochs: u64) -> Schedule {
    let mut schedule = Schedule::new();
    let mut removal = CHURN_FIRST_REMOVAL;
    while removal < epochs {
        for i in 0..CHURN_SERVERS {
            schedule = schedule
                .at(removal + i, CloudEvent::RemoveServers { count: 1 })
                .at(
                    removal + CHURN_ADD_AFTER + i,
                    CloudEvent::AddServers { count: 1 },
                );
        }
        removal += CHURN_PERIOD;
    }
    schedule
}

#[cfg(test)]
mod tests {
    use super::*;
    use skute_workload::LoadTrace;

    #[test]
    fn base_matches_paper_parameters() {
        let s = base_scenario();
        s.validate();
        assert_eq!(s.topology.server_count(), 200);
        assert_eq!(s.topology.country_count(), 10);
        assert_eq!(s.apps.len(), 3);
        assert_eq!(
            s.apps.iter().map(|a| a.replicas).collect::<Vec<_>>(),
            vec![2, 3, 4]
        );
        assert!(s.apps.iter().all(|a| a.partitions == 200));
        assert_eq!(s.trace.rate(0), 3000.0);
        assert_eq!(s.cheap_cost, 100.0);
        assert_eq!(s.expensive_cost, 125.0);
    }

    #[test]
    fn fig3_schedule_matches_paper() {
        let s = fig3_scenario();
        assert_eq!(
            s.schedule.events_at(100),
            &[CloudEvent::AddServers { count: 20 }]
        );
        assert_eq!(
            s.schedule.events_at(200),
            &[CloudEvent::RemoveServers { count: 20 }]
        );
    }

    #[test]
    fn fig4_fractions_are_4_2_1() {
        let s = fig4_scenario();
        assert_eq!(s.load_fractions, vec![4.0, 2.0, 1.0]);
        assert_eq!(s.trace.rate(125), 183_000.0);
    }

    #[test]
    fn fig5_has_inserts() {
        let s = fig5_scenario();
        let gen = s.inserts.unwrap();
        assert_eq!(gen.rate_per_epoch, 2000.0);
        assert_eq!(gen.object_bytes, 500_000);
    }

    #[test]
    fn churn_retires_twenty_per_period_and_replaces_each_thirty_epochs_later() {
        let remove = [CloudEvent::RemoveServers { count: 1 }];
        let add = [CloudEvent::AddServers { count: 1 }];
        let s = churn_schedule(130);
        for (epoch, events) in [
            (39, &[][..]),
            (40, &remove[..]),
            (59, &remove[..]),
            (60, &[][..]),
            (69, &[][..]),
            (70, &add[..]),
            (89, &add[..]),
            (90, &[][..]),
            (100, &remove[..]),
            (130, &add[..]),
            (149, &add[..]),
            (150, &[][..]),
        ] {
            assert_eq!(s.events_at(epoch), events, "epoch {epoch}");
        }
        // A period starts only before the horizon, and runs out in full.
        assert_eq!(s.len(), 2 * 2 * 20);
        assert!(churn_schedule(40).is_empty());
    }

    #[test]
    fn all_scenarios_validate() {
        for s in [
            base_scenario(),
            fig2_scenario(),
            fig3_scenario(),
            fig4_scenario(),
            fig5_scenario(),
            outage_scenario(),
        ] {
            s.validate();
        }
    }

    #[test]
    fn outage_scenario_targets_a_real_country() {
        let s = outage_scenario();
        let events = s.schedule.events_at(40);
        assert_eq!(events.len(), 1);
        let CloudEvent::CountryOutage { continent, country } = events[0] else {
            panic!("expected a country outage");
        };
        assert!(s
            .topology
            .iter_countries()
            .any(|(ct, co)| ct == continent && co == country));
    }
}
