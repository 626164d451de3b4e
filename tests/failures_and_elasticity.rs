//! Robustness to server failures and cluster elasticity (§III-C).

use skute::prelude::*;

fn scenario(epochs: u64) -> Scenario {
    skute::sim::paper::scaled_scenario("failures-it", 24, 3_000, epochs)
}

#[test]
fn sla_recovers_after_burst_failure() {
    let mut s = scenario(40);
    s.schedule = Schedule::new().at(20, CloudEvent::RemoveServers { count: 30 });
    let mut sim = Simulation::new(s);
    let obs = sim.run();
    assert_eq!(obs.last().unwrap().report.alive_servers, 170);
    let final_report = &obs.last().unwrap().report;
    for ring in &final_report.rings {
        assert!(
            ring.sla_satisfied_frac > 0.99,
            "{} not recovered: {}",
            ring.ring,
            ring.sla_satisfied_frac
        );
    }
}

#[test]
fn repeated_waves_of_failures() {
    let mut s = scenario(60);
    s.schedule = Schedule::new()
        .at(10, CloudEvent::RemoveServers { count: 15 })
        .at(25, CloudEvent::RemoveServers { count: 15 })
        .at(40, CloudEvent::RemoveServers { count: 15 });
    let mut sim = Simulation::new(s);
    let obs = sim.run();
    assert_eq!(obs.last().unwrap().report.alive_servers, 155);
    let final_report = &obs.last().unwrap().report;
    for ring in &final_report.rings {
        assert!(
            ring.sla_satisfied_frac > 0.95,
            "{}",
            ring.sla_satisfied_frac
        );
    }
    // No partition may have been fully lost: with ≥2 scattered replicas a
    // 15-server burst cannot take out a whole replica set reliably — and
    // repairs run between bursts.
    let lost: u64 = obs.iter().map(|o| o.report.partitions_lost).sum();
    assert_eq!(lost, 0, "no partition should lose every replica");
}

#[test]
fn growth_is_absorbed_without_rebalancing_storms() {
    let mut s = scenario(40);
    s.schedule = Schedule::new().at(10, CloudEvent::AddServers { count: 50 });
    let mut sim = Simulation::new(s);
    let obs = sim.run();
    assert_eq!(obs.last().unwrap().report.alive_servers, 250);
    // Adding capacity must not change replica totals (the SLA doesn't care)
    // and must not trigger mass churn.
    let before: usize = obs[8].report.total_vnodes();
    let after: usize = obs.last().unwrap().report.total_vnodes();
    assert_eq!(before, after, "upgrades must not inflate replica counts");
    let churn_after: u64 = obs[12..]
        .iter()
        .map(|o| o.report.actions.migrations + o.report.actions.suicides)
        .sum();
    assert!(
        churn_after < 200,
        "adding servers caused a rebalancing storm: {churn_after} moves"
    );
}

#[test]
fn failed_servers_replicas_land_on_survivors() {
    let mut s = scenario(30);
    s.schedule = Schedule::new().at(10, CloudEvent::RemoveServers { count: 20 });
    let mut sim = Simulation::new(s);
    for _ in 0..30 {
        sim.step();
    }
    let cloud = sim.cloud();
    let apps = sim.apps().to_vec();
    for (i, app) in apps.iter().enumerate() {
        for pid in cloud.partition_ids(*app, 0).unwrap() {
            for server in cloud.replica_servers(*app, 0, pid).unwrap() {
                assert!(
                    cloud.cluster().get_alive(server).is_some(),
                    "app {i}: partition {pid} references dead server {server}"
                );
            }
        }
    }
}

/// The scaled scenario with a whole-country outage at `epoch`: every
/// server of the topology's first country (a tenth of the fleet, one
/// diversity domain of eq. 2) fails in the same epoch.
fn outage_scenario(epochs: u64, epoch: u64) -> Scenario {
    let mut s = scenario(epochs);
    let (continent, country) = s
        .topology
        .iter_countries()
        .next()
        .expect("the paper topology has countries");
    s.schedule = Schedule::new().at(epoch, CloudEvent::CountryOutage { continent, country });
    s
}

#[test]
fn country_outage_holds_the_availability_floor() {
    let s = outage_scenario(44, 20);
    let partitions: usize = s.apps.iter().map(|a| a.partitions).sum();
    // The repair phase runs at most four availability repairs per
    // partition per epoch.
    let cap = (4 * partitions) as u64;
    let mut sim = Simulation::new(s);
    let obs = sim.run();
    // One country = a tenth of the 200-server fleet.
    assert_eq!(obs.last().unwrap().report.alive_servers, 180);
    // The availability floor: eq.-(3) placement maximizes geographic
    // diversity, so no replica set is confined to one country — even a
    // correlated whole-country burst must not destroy any partition's
    // last replica (no acknowledged write is ever lost).
    let lost: u64 = obs.iter().map(|o| o.report.partitions_lost).sum();
    assert_eq!(lost, 0, "a single-country outage must not lose partitions");
    // The repair pass absorbs the whole backlog without ever exceeding
    // its per-epoch budget.
    let mut repairs_total = 0u64;
    for o in &obs {
        let repairs = o.report.actions.availability_replications;
        assert!(
            repairs <= cap,
            "epoch {}: {repairs} repairs exceed the {cap} cap",
            o.report.epoch
        );
        repairs_total += repairs;
    }
    assert!(repairs_total > 0, "the burst must trigger repairs");
    // And the SLAs recover fully.
    for ring in &obs.last().unwrap().report.rings {
        assert!(
            ring.sla_satisfied_frac > 0.99,
            "{} not recovered: {}",
            ring.ring,
            ring.sla_satisfied_frac
        );
    }
}

#[test]
fn country_outage_recovery_is_thread_invariant() {
    // The recovery trajectory — failure burst, repair backlog, SLA
    // re-convergence — replays bitwise at any worker budget.
    let run = |threads: usize| {
        let mut s = outage_scenario(26, 12);
        s.config.threads = threads;
        Simulation::new(s).run()
    };
    let base = run(1);
    let wide = run(8);
    assert_eq!(base.len(), wide.len());
    for (a, b) in base.iter().zip(&wide) {
        assert_eq!(
            a, b,
            "epoch {} diverged across thread counts",
            a.report.epoch
        );
    }
}

#[test]
fn reads_survive_minority_replica_failures() {
    let mut sim = Simulation::new(scenario(1));
    let app = sim.apps()[2]; // the 4-replica ring
    sim.cloud_mut().begin_epoch();
    sim.cloud_mut()
        .put(app, 0, b"durable", b"payload".to_vec())
        .unwrap();
    for _ in 0..8 {
        sim.cloud_mut().begin_epoch();
        sim.cloud_mut().end_epoch();
    }
    // Kill replicas one at a time; the value must remain readable while any
    // replica survives.
    let pid = {
        let ids = sim.cloud().partition_ids(app, 0).unwrap();
        // find the partition holding the key by probing each
        *ids.iter()
            .find(|&&pid| {
                sim.cloud()
                    .replica_footprints(app, 0, pid)
                    .map(|f| f.iter().any(|(_, bytes)| *bytes > 4 << 20))
                    .unwrap_or(false)
            })
            .unwrap_or(&ids[0])
    };
    for _ in 0..2 {
        let victim = sim.cloud().replica_servers(app, 0, pid).unwrap()[0];
        sim.cloud_mut().retire_server(victim);
        assert_eq!(
            sim.cloud_mut()
                .get(app, 0, b"durable")
                .unwrap()
                .unwrap()
                .as_ref(),
            b"payload"
        );
    }
}
