//! Criterion micro-benchmarks of Skute's hot paths: the diversity metric,
//! ring routing, availability evaluation (eq. 2), candidate scoring
//! (eq. 3), workload sampling and a full end-to-end epoch tick.

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};
use rand::rngs::StdRng;
use rand::SeedableRng;

use skute_baseline::CtxFixture;
use skute_core::placement::{economic_target, TargetQuery};
use skute_core::{availability_of, greedy_max_availability};
use skute_geo::{diversity, Location, Topology};
use skute_ring::{RingId, VirtualRing};
use skute_sim::{paper, Simulation};
use skute_workload::{Pareto, Poisson};

fn bench_diversity(c: &mut Criterion) {
    let t = Topology::paper();
    let servers: Vec<Location> = t.iter_servers().collect();
    c.bench_function("geo/diversity_pair", |b| {
        b.iter(|| {
            let mut acc = 0u32;
            for i in 0..servers.len() {
                acc += u32::from(diversity(
                    black_box(&servers[i]),
                    black_box(&servers[(i * 7 + 13) % servers.len()]),
                ));
            }
            acc
        })
    });
}

fn bench_routing(c: &mut Criterion) {
    let ring = VirtualRing::new(RingId::new(0, 0), 200);
    let keys: Vec<[u8; 8]> = (0..1024u64).map(|i| i.to_le_bytes()).collect();
    c.bench_function("ring/route_1024_keys", |b| {
        b.iter(|| {
            let mut acc = 0u64;
            for k in &keys {
                acc ^= ring.route(black_box(k)).0;
            }
            acc
        })
    });
}

fn bench_availability(c: &mut Criterion) {
    let t = Topology::paper();
    let mut group = c.benchmark_group("core/availability_eq2");
    for k in [2usize, 4, 8] {
        let replicas: Vec<(Location, f64)> = (0..k)
            .map(|i| (t.server_at((i * 37 % 200) as u64), 1.0))
            .collect();
        group.bench_with_input(BenchmarkId::from_parameter(k), &replicas, |b, r| {
            b.iter(|| availability_of(black_box(r)))
        });
    }
    group.finish();
    c.bench_function("core/greedy_max_availability_k4", |b| {
        b.iter(|| greedy_max_availability(black_box(&t), 4))
    });
}

fn bench_candidate_selection(c: &mut Criterion) {
    let fixture = CtxFixture::paper();
    let ctx = fixture.ctx();
    let existing = vec![skute_cluster::ServerId(0), skute_cluster::ServerId(57)];
    let query = TargetQuery {
        existing: &existing,
        size: 1 << 20,
        region_queries: &[],
        rent_below: None,
    };
    c.bench_function("core/economic_target_200_servers", |b| {
        b.iter(|| economic_target(black_box(&ctx), black_box(&query)))
    });
}

fn bench_workload(c: &mut Criterion) {
    c.bench_function("workload/pareto_1000", |b| {
        let d = Pareto::paper();
        let mut rng = StdRng::seed_from_u64(1);
        b.iter(|| d.sample_n(&mut rng, 1000))
    });
    c.bench_function("workload/poisson_lambda_3000", |b| {
        let d = Poisson::new(3000.0);
        let mut rng = StdRng::seed_from_u64(1);
        b.iter(|| d.sample(&mut rng))
    });
}

fn bench_epoch_tick(c: &mut Criterion) {
    c.bench_function("sim/epoch_tick_48_partitions", |b| {
        let mut sim = Simulation::new(paper::scaled_scenario("bench-tick", 16, 3000, 1));
        // Converge before measuring the steady-state tick.
        for _ in 0..10 {
            sim.step();
        }
        b.iter(|| sim.step().report.epoch)
    });
}

criterion_group!(
    benches,
    bench_diversity,
    bench_routing,
    bench_availability,
    bench_candidate_selection,
    bench_workload,
    bench_epoch_tick,
);
criterion_main!(benches);
