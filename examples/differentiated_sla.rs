//! Differentiated availability guarantees (the paper's Fig. 1 scenario):
//! three applications share one cloud, each on its own virtual ring with a
//! different availability level — satisfied by 2, 3 and 4 replicas — and the
//! decentralized economy maintains all three simultaneously.
//!
//! Run with: `cargo run --release --example differentiated_sla`

use skute::prelude::*;

fn main() {
    let topology = Topology::paper();
    let cluster = Cluster::from_topology(&topology, |i, location| ServerSpec {
        location,
        capacities: Capacities::paper(4 << 30, 3_000.0),
        monthly_cost: if i % 10 < 7 { 100.0 } else { 125.0 },
        confidence: 1.0,
    });
    let mut cloud = SkuteCloud::new(SkuteConfig::paper(), topology, cluster);

    // Three tenants with increasing durability demands.
    let apps = [("blog", 2usize), ("shop", 3), ("bank", 4)].map(|(name, replicas)| {
        let id = cloud
            .create_application(AppSpec::new(name).level(LevelSpec::new(replicas, 32)))
            .expect("capacity");
        (name, replicas, id)
    });

    for (name, replicas, _) in &apps {
        let th = threshold_for_replicas(cloud.topology(), *replicas);
        println!("{name:>5}: SLA needs {replicas} replicas, threshold {th:.1}");
    }

    // Let the economy converge.
    let mut last = None;
    for _ in 0..12 {
        cloud.begin_epoch();
        last = Some(cloud.end_epoch());
    }
    let report = last.unwrap();

    println!("\nafter convergence:");
    println!(
        "{:>5} {:>10} {:>14} {:>12} {:>8}",
        "app", "vnodes", "replicas/part", "mean avail", "SLA ok"
    );
    for (i, (name, replicas, _)) in apps.iter().enumerate() {
        let ring = &report.rings[i];
        println!(
            "{:>5} {:>10} {:>14.2} {:>12.1} {:>7.1}%",
            name,
            ring.vnodes,
            ring.vnodes as f64 / ring.partitions as f64,
            ring.mean_availability,
            100.0 * ring.sla_satisfied_frac,
        );
        assert!(
            ring.vnodes >= replicas * ring.partitions,
            "ring must reach its replica target"
        );
    }

    // Each ring is independent: the bank's ring has strictly more replicas
    // per partition than the blog's, on the very same 200 servers.
    let per_part = |i: usize| report.rings[i].vnodes as f64 / report.rings[i].partitions as f64;
    assert!(per_part(2) > per_part(1));
    assert!(per_part(1) > per_part(0));
    println!("\ndifferentiated guarantees hold on shared infrastructure ✓");
}
