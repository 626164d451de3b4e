//! Storage-backend integration: the virtual economy on the durable LSM
//! engine vs the in-memory oracle. The two backends replay bitwise
//! identical trajectories (decisions and the CSV consume only logical
//! byte accounting, which the engines share); only durability and the
//! *measured* transfer counters differ — under the LSM engine,
//! replication and migration move real WAL + SSTable bytes, and the
//! measured counters report those, not the logical sizes.

use skute::prelude::*;

const GIB: u64 = 1 << 30;

fn cloud_on(backend: BackendKind) -> SkuteCloud {
    let topology = Topology::paper();
    let cluster = Cluster::from_topology(&topology, |i, location| ServerSpec {
        location,
        capacities: Capacities::paper(10 * GIB, 5_000.0),
        monthly_cost: if i % 10 < 7 { 100.0 } else { 125.0 },
        confidence: 1.0,
    });
    SkuteCloud::new(
        SkuteConfig::paper().with_backend(backend),
        topology,
        cluster,
    )
}

/// Ingests 200 real records and runs six epochs, so the availability
/// repairs of the convergence phase replicate partitions whose stores
/// hold materialized data. Returns the cloud, the app, and the per-epoch
/// reports.
fn drive(backend: BackendKind) -> (SkuteCloud, AppId, Vec<EpochReport>) {
    let mut cloud = cloud_on(backend);
    let app = cloud
        .create_application(AppSpec::new("kv").level(LevelSpec::new(3, 16)))
        .unwrap();
    cloud.begin_epoch();
    for i in 0..200u32 {
        cloud
            .put(app, 0, format!("key:{i:04}").as_bytes(), vec![i as u8; 64])
            .unwrap();
    }
    let mut reports = vec![cloud.end_epoch()];
    for _ in 0..5 {
        cloud.begin_epoch();
        reports.push(cloud.end_epoch());
    }
    (cloud, app, reports)
}

#[test]
fn lsm_replication_moves_real_bytes() {
    let (_, _, reports) = drive(BackendKind::Lsm);
    let logical: u64 = reports.iter().map(|r| r.actions.replicated_bytes).sum();
    let measured: u64 = reports
        .iter()
        .map(|r| r.actions.measured_replicated_bytes)
        .sum();
    assert!(logical > 0, "the convergence phase replicates partitions");
    assert!(measured > 0, "LSM replication copies WAL/SSTable files");
    assert!(
        measured > logical,
        "physical bytes carry per-entry encoding overhead over the \
         logical sizes: measured {measured} vs logical {logical}"
    );
}

#[test]
fn mem_oracle_measures_exactly_the_logical_bytes() {
    let (_, _, reports) = drive(BackendKind::Mem);
    assert!(
        reports.iter().any(|r| r.actions.replicated_bytes > 0),
        "the convergence phase replicates partitions"
    );
    for r in &reports {
        assert_eq!(
            r.actions.measured_replicated_bytes, r.actions.replicated_bytes,
            "in-memory transfers measure their logical size (epoch {})",
            r.epoch
        );
        assert_eq!(
            r.actions.measured_migrated_bytes, r.actions.migrated_bytes,
            "in-memory migrations measure their logical size (epoch {})",
            r.epoch
        );
    }
}

#[test]
fn fault_plans_never_perturb_the_trajectory() {
    // Injected storage faults (torn WAL tails, failed fsyncs, partial
    // flushes, bit-flip reads) are transient by construction: the engine
    // detects and retries every one, so the logical state — and with it
    // the whole economic trajectory — is bitwise identical faulted or
    // not, on either backend.
    let run = |backend: BackendKind, plan: FaultPlan| {
        let mut s = skute::sim::paper::scaled_scenario("fault-plans-it", 16, 3_000, 10);
        s.config.backend = backend;
        s.config.fault_plan = plan;
        Simulation::new(s).run()
    };
    let clean = run(BackendKind::Lsm, FaultPlan::default());
    for plan in [
        FaultPlan {
            kind: FaultPlanKind::All,
            seed: 0xFA17,
        },
        FaultPlan {
            kind: FaultPlanKind::TornTails,
            seed: 0xFA17,
        },
    ] {
        let faulted = run(BackendKind::Lsm, plan);
        assert_eq!(clean.len(), faulted.len());
        for (a, b) in clean.iter().zip(&faulted) {
            assert_eq!(
                a, b,
                "epoch {} diverged under {:?}",
                a.report.epoch, plan.kind
            );
        }
    }
    // The mem oracle has no IO path to fault: a fault plan is inert on it
    // and its trajectory matches the (faulted) LSM runs epoch for epoch.
    let mem = run(
        BackendKind::Mem,
        FaultPlan {
            kind: FaultPlanKind::All,
            seed: 0xFA17,
        },
    );
    for (a, b) in clean.iter().zip(&mem) {
        let mut b = b.clone();
        b.report.actions.measured_replicated_bytes = a.report.actions.measured_replicated_bytes;
        b.report.actions.measured_migrated_bytes = a.report.actions.measured_migrated_bytes;
        assert_eq!(*a, b, "epoch {} diverged across backends", a.report.epoch);
    }
}

#[test]
fn injected_faults_actually_fire_and_are_absorbed() {
    // Real record traffic through an all-families fault plan: the engine
    // must hit injected faults (the counters prove the plan is live) and
    // absorb every one — the data reads back intact.
    let mut config = SkuteConfig::paper().with_backend(BackendKind::Lsm);
    config.fault_plan = FaultPlan {
        kind: FaultPlanKind::All,
        seed: 0xFA17,
    };
    let mut cloud = SkuteCloud::new(
        config,
        Topology::paper(),
        Cluster::from_topology(&Topology::paper(), |i, location| ServerSpec {
            location,
            capacities: Capacities::paper(10 * GIB, 5_000.0),
            monthly_cost: if i % 10 < 7 { 100.0 } else { 125.0 },
            confidence: 1.0,
        }),
    );
    let app = cloud
        .create_application(AppSpec::new("kv").level(LevelSpec::new(3, 16)))
        .unwrap();
    cloud.begin_epoch();
    for i in 0..400u32 {
        cloud
            .put(app, 0, format!("key:{i:04}").as_bytes(), vec![i as u8; 64])
            .unwrap();
    }
    cloud.end_epoch();
    for _ in 0..5 {
        cloud.begin_epoch();
        cloud.end_epoch();
    }
    // The fleet's recoveries, as the exported gauges report them.
    let registry = Registry::new();
    cloud.set_metrics(CloudMetrics::register(&registry));
    cloud.refresh_storage_metrics();
    let text = registry.render();
    let retries: i64 = ["wal_retry", "flush_retry", "read_retry", "fork_retry"]
        .iter()
        .map(|kind| {
            let series = format!("skute_storage_fault_recoveries{{kind=\"{kind}\"}} ");
            let line = text.lines().find_map(|l| l.strip_prefix(series.as_str()));
            line.expect("every retry kind is exported")
                .trim()
                .parse::<i64>()
                .unwrap()
        })
        .sum();
    assert!(
        retries > 0,
        "the all-families plan must inject faults under real writes:\n{text}"
    );
    for i in 0..400u32 {
        let key = format!("key:{i:04}");
        assert_eq!(
            cloud.get(app, 0, key.as_bytes()).unwrap().unwrap().as_ref(),
            &vec![i as u8; 64][..],
            "{key}"
        );
    }
}

#[test]
fn scrub_rebuilds_corrupted_replicas_from_healthy_peers() {
    let (mut cloud, app, _) = drive(BackendKind::Lsm);
    // Forge persistent corruption on one replica of each of four
    // partitions (bit damage that survives the bounded read retries).
    let pids = cloud.partition_ids(app, 0).unwrap();
    let mut corrupted = 0;
    for &pid in pids.iter().take(4) {
        if cloud.corrupt_replica(app, 0, pid, 0).unwrap() {
            corrupted += 1;
        }
    }
    assert!(corrupted > 0, "drive() materializes durable runs to damage");
    let report = cloud.scrub_quarantined(app, 0).unwrap();
    assert_eq!(report.replicas_quarantined, corrupted);
    assert_eq!(report.replicas_rebuilt, corrupted);
    assert_eq!(report.replicas_deferred, 0);
    assert_eq!(report.partitions_unrecoverable, 0);
    assert!(report.replicas_scanned >= pids.len());
    // The scrub leaves a healthy fleet behind.
    let clean = cloud.scrub_quarantined(app, 0).unwrap();
    assert_eq!(clean.replicas_quarantined, 0);
    assert_eq!(clean.replicas_rebuilt, 0);
    // And no acknowledged write was lost: every record reads back.
    for i in 0..200u32 {
        let key = format!("key:{i:04}");
        assert_eq!(
            cloud.get(app, 0, key.as_bytes()).unwrap().unwrap().as_ref(),
            &vec![i as u8; 64][..],
            "{key}"
        );
    }
}

#[test]
fn scrub_on_a_healthy_mem_fleet_is_inert() {
    let (mut cloud, app, _) = drive(BackendKind::Mem);
    let report = cloud.scrub_quarantined(app, 0).unwrap();
    assert!(report.replicas_scanned > 0);
    assert_eq!(report.replicas_quarantined, 0);
    assert_eq!(report.replicas_rebuilt, 0);
    assert_eq!(report.partitions_unrecoverable, 0);
}

#[test]
fn backends_replay_identical_trajectories() {
    let (mem, app_m, mem_reports) = drive(BackendKind::Mem);
    let (lsm, app_l, lsm_reports) = drive(BackendKind::Lsm);
    for (m, l) in mem_reports.iter().zip(&lsm_reports) {
        // Everything except the measured transfer counters is identical;
        // normalize those and compare the full reports.
        let mut l = l.clone();
        l.actions.measured_replicated_bytes = m.actions.measured_replicated_bytes;
        l.actions.measured_migrated_bytes = m.actions.measured_migrated_bytes;
        assert_eq!(*m, l, "epoch {} diverged across backends", m.epoch);
    }
    // Reads agree key for key.
    for i in 0..200u32 {
        let key = format!("key:{i:04}");
        assert_eq!(
            mem.get(app_m, 0, key.as_bytes()).unwrap(),
            lsm.get(app_l, 0, key.as_bytes()).unwrap(),
            "{key}"
        );
    }
}
