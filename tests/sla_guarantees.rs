//! Differentiated SLA guarantees: the core promise of the paper.
//!
//! Every availability level must converge to its calibrated threshold, the
//! thresholds must separate k−1 from k replicas, and rings must maintain
//! their guarantees independently while sharing the same 200 servers.

use skute::prelude::*;

fn paper_cloud(seed: u64) -> SkuteCloud {
    let topology = Topology::paper();
    let cluster = Cluster::from_topology(&topology, |i, location| ServerSpec {
        location,
        capacities: Capacities::paper(4 << 30, 3_000.0),
        monthly_cost: if i % 10 < 7 { 100.0 } else { 125.0 },
        confidence: 1.0,
    });
    SkuteCloud::new(SkuteConfig::paper().with_seed(seed), topology, cluster)
}

#[test]
fn thresholds_strictly_separate_replica_counts() {
    let topology = Topology::paper();
    let mut last = 0.0;
    for k in 1..=6 {
        let th = threshold_for_replicas(&topology, k);
        assert!(th >= last, "thresholds must be monotone in k");
        last = th;
    }
}

#[test]
fn all_three_paper_levels_converge_and_hold() {
    let mut cloud = paper_cloud(0xA);
    let apps: Vec<AppId> = [2usize, 3, 4]
        .iter()
        .map(|&k| {
            cloud
                .create_application(AppSpec::new(format!("app-k{k}")).level(LevelSpec::new(k, 50)))
                .unwrap()
        })
        .collect();
    let mut last = None;
    for _ in 0..12 {
        cloud.begin_epoch();
        last = Some(cloud.end_epoch());
    }
    let report = last.unwrap();
    for (i, &k) in [2usize, 3, 4].iter().enumerate() {
        let ring = &report.rings[i];
        assert_eq!(ring.partitions, 50);
        assert_eq!(
            ring.vnodes,
            k * 50,
            "ring {i} must settle at exactly k·M replicas"
        );
        assert!(
            (ring.sla_satisfied_frac - 1.0).abs() < 1e-9,
            "ring {i} SLA satisfaction {}",
            ring.sla_satisfied_frac
        );
        let threshold = cloud.applications()[i].levels[0].threshold;
        assert!(ring.min_availability >= threshold);
    }
    let _ = apps;
}

#[test]
fn sla_replicas_are_geographically_scattered() {
    let mut cloud = paper_cloud(0xB);
    let app = cloud
        .create_application(AppSpec::new("spread").level(LevelSpec::new(3, 30)))
        .unwrap();
    for _ in 0..8 {
        cloud.begin_epoch();
        cloud.end_epoch();
    }
    for pid in cloud.partition_ids(app, 0).unwrap() {
        let servers = cloud.replica_servers(app, 0, pid).unwrap();
        let locations: Vec<Location> = servers
            .iter()
            .map(|s| cloud.cluster().get(*s).unwrap().location)
            .collect();
        // No two replicas of a partition may share a rack — availability at
        // th(3) = 88.2 is impossible otherwise.
        for i in 0..locations.len() {
            for j in (i + 1)..locations.len() {
                assert!(
                    diversity(&locations[i], &locations[j]) > 3,
                    "partition {pid}: replicas {i},{j} share a rack"
                );
            }
        }
    }
}

#[test]
fn higher_levels_cost_more_rent() {
    // Differentiated guarantees must be reflected in what the data owner
    // pays: a 4-replica ring pays roughly twice the rent of a 2-replica
    // ring with the same traffic.
    let mut cloud = paper_cloud(0xC);
    let low = cloud
        .create_application(AppSpec::new("low").level(LevelSpec::new(2, 40)))
        .unwrap();
    let high = cloud
        .create_application(AppSpec::new("high").level(LevelSpec::new(4, 40)))
        .unwrap();
    let mut report = None;
    for _ in 0..10 {
        cloud.begin_epoch();
        report = Some(cloud.end_epoch());
    }
    let vnodes = |app: AppId| {
        let ring = report.as_ref().unwrap().rings.iter();
        ring.filter(|r| r.ring == RingId::new(app.0, 0))
            .map(|r| r.vnodes)
            .sum::<usize>()
    };
    let (low_vnodes, high_vnodes) = (vnodes(low), vnodes(high));
    // Rent is per vnode per epoch, so vnode counts are the cost proxy.
    let ratio = high_vnodes as f64 / low_vnodes as f64;
    assert!(
        (ratio - 2.0).abs() < 0.15,
        "4-replica ring should cost ≈2× the 2-replica ring, got {ratio}"
    );
}

#[test]
fn confidence_weighting_demands_more_replicas() {
    // With low-confidence servers, eq. (2) availability shrinks, so the
    // same threshold needs more replicas: at conf 0.6 three perfectly
    // spread replicas reach only 189 × 0.36 = 68 < th(3) = 88.2, so a
    // fourth replica becomes mandatory.
    let topology = Topology::paper();
    let trusted = Cluster::from_topology(&topology, |_, location| ServerSpec {
        location,
        capacities: Capacities::paper(4 << 30, 3_000.0),
        monthly_cost: 100.0,
        confidence: 1.0,
    });
    let shaky = Cluster::from_topology(&topology, |_, location| ServerSpec {
        location,
        capacities: Capacities::paper(4 << 30, 3_000.0),
        monthly_cost: 100.0,
        confidence: 0.6,
    });
    let run = |cluster: Cluster| {
        let mut cloud = SkuteCloud::new(SkuteConfig::paper(), Topology::paper(), cluster);
        let app = cloud
            .create_application(AppSpec::new("a").level(LevelSpec::new(3, 30)))
            .unwrap();
        let mut report = None;
        for _ in 0..10 {
            cloud.begin_epoch();
            report = Some(cloud.end_epoch());
        }
        let ring = report.unwrap().rings.into_iter();
        ring.filter(|r| r.ring == RingId::new(app.0, 0))
            .map(|r| r.vnodes)
            .sum::<usize>()
    };
    let trusted_vnodes = run(trusted);
    let shaky_vnodes = run(shaky);
    assert!(
        shaky_vnodes > trusted_vnodes,
        "conf 0.6 cloud must hold more replicas ({shaky_vnodes}) than conf 1.0 ({trusted_vnodes})"
    );
}
