//! Deterministic replay and qualitative shape of every paper scenario at
//! reduced scale — cheap versions of the figure benches that run in the
//! regular test suite.

use skute::prelude::*;
use skute::sim::paper;

fn fingerprint(obs: &[Observation]) -> Vec<(usize, u64, u64, String)> {
    obs.iter()
        .map(|o| {
            let r = &o.report;
            (
                r.total_vnodes(),
                r.actions.replications(),
                r.actions.migrations,
                format!("{:.6}", r.rent_paid),
            )
        })
        .collect()
}

#[test]
fn identical_seeds_replay_identically() {
    let run = |seed| {
        let mut s = paper::scaled_scenario("det", 16, 2_000, 12);
        s.seed = seed;
        s.schedule = Schedule::new().at(6, CloudEvent::RemoveServers { count: 10 });
        fingerprint(&Simulation::new(s).run())
    };
    assert_eq!(run(1), run(1));
    assert_eq!(run(2), run(2));
    assert_ne!(run(1), run(2));
}

#[test]
fn identical_seeds_produce_identical_observation_series() {
    // Stronger than the fingerprint test above: every field of every
    // per-epoch `Observation` (reports, per-ring stats, cheap/expensive
    // means, offered rates) must match exactly — bitwise-equal floats —
    // across two independently constructed runs of the same scenario.
    let run = || {
        let mut s = paper::scaled_scenario("obs-det", 8, 1_500, 20);
        s.seed = 7;
        s.schedule = Schedule::new().at(9, CloudEvent::RemoveServers { count: 5 });
        Simulation::new(s).run()
    };
    let a = run();
    let b = run();
    assert_eq!(a.len(), b.len());
    for (epoch, (oa, ob)) in a.iter().zip(&b).enumerate() {
        assert_eq!(oa, ob, "observations diverge at epoch {epoch}");
    }
}

#[test]
fn identical_seeds_are_bitwise_identical_at_paper_scale() {
    // The M = 200 acceptance scenario of the epoch-loop optimization: the
    // full paper-scale partition count must replay bitwise-identically
    // (every float of every Observation) across two independent runs of
    // the rent-indexed decision pipeline.
    let run = || {
        let mut s = paper::scaled_scenario("det-200", 200, 3_000, 8);
        s.seed = 0xD200;
        Simulation::new(s).run()
    };
    let a = run();
    let b = run();
    assert_eq!(a.len(), b.len());
    for (epoch, (oa, ob)) in a.iter().zip(&b).enumerate() {
        assert_eq!(oa, ob, "observations diverge at epoch {epoch}");
    }
}

#[test]
fn thread_counts_replay_bitwise_identically() {
    // The parallel epoch pipeline's acceptance bar: threads = 1 runs every
    // plan pass on the caller's thread; larger budgets fan the same
    // chunks out across workers. Every field of every per-epoch
    // Observation — floats included — must be bitwise identical, through
    // traffic, repairs, economic decisions and a failure burst.
    let run = |threads: usize| {
        let mut s = paper::scaled_scenario("threads-det", 16, 2_500, 14);
        s.seed = 0x7EAD;
        s.config.threads = threads;
        s.schedule = Schedule::new().at(7, CloudEvent::RemoveServers { count: 8 });
        Simulation::new(s).run()
    };
    let sequential = run(1);
    for threads in [2usize, 8] {
        let parallel = run(threads);
        assert_eq!(sequential.len(), parallel.len());
        for (epoch, (a, b)) in sequential.iter().zip(&parallel).enumerate() {
            assert_eq!(a, b, "threads = {threads} diverges at epoch {epoch}");
        }
    }
}

#[test]
fn thread_counts_replay_bitwise_identically_at_paper_scale() {
    // Same bar at the paper's M = 200 (600 partitions across three rings):
    // the chunked plan passes must leave no trace in the trajectory (an
    // odd budget splits the 16 chunks unevenly over the workers).
    let run = |threads: usize| {
        let mut s = paper::scaled_scenario("threads-det-200", 200, 3_000, 6);
        s.seed = 0xD200;
        s.config.threads = threads;
        Simulation::new(s).run()
    };
    let sequential = run(1);
    for threads in [2usize, 3, 8] {
        let parallel = run(threads);
        for (epoch, (a, b)) in sequential.iter().zip(&parallel).enumerate() {
            assert_eq!(a, b, "threads = {threads} diverges at epoch {epoch}");
        }
    }
}

#[test]
fn index_placements_match_the_scan_through_repairs_and_a_failure_burst() {
    // In debug builds every eq.-(3) target selection also runs the
    // brute-force full-cluster scan and asserts the index's winner and
    // score bit for bit. This scenario drives that check through traffic,
    // profit decisions, availability repairs and a failure burst that
    // retires servers under the index's snapshot.
    let mut s = paper::scaled_scenario("oracle-eq", 24, 3_000, 15);
    s.seed = 0x0514CE;
    s.schedule = Schedule::new().at(8, CloudEvent::RemoveServers { count: 12 });
    let obs = Simulation::new(s).run();
    assert_eq!(obs.len(), 15);
    let actions = |range: std::ops::Range<usize>| {
        obs[range]
            .iter()
            .map(|o| o.report.actions.availability_replications)
            .sum::<u64>()
    };
    assert!(actions(0..7) > 0, "the initial repairs place replicas");
    assert!(actions(7..15) > 0, "the burst's repairs place replicas");
}

#[test]
fn traffic_commit_modes_conserve_per_server_queries_on_all_scenarios() {
    // The traffic commit's acceptance bar on every paper scenario, epoch
    // by epoch: per ring every offered query is either served or dropped,
    // no server serves past its query capacity, and the servers' served
    // meters add up to what the rings report — with every float of every
    // Observation and every served/dropped meter **bitwise identical** at
    // threads 1, 2, 3 and 8 (fig4's Slashdot spike saturates servers, so the
    // spill and drop branches are covered).
    let close = |a: f64, b: f64| (a - b).abs() <= 1e-6 * a.abs().max(b.abs()).max(1.0);
    for scenario in [
        paper::base_scenario(),
        paper::fig2_scenario(),
        paper::fig3_scenario(),
        paper::fig4_scenario(),
        paper::fig5_scenario(),
    ] {
        let run = |threads: usize| {
            let mut s = scenario.clone();
            s.epochs = 15;
            s.config.threads = threads;
            let mut sim = Simulation::new(s);
            let mut out = Vec::new();
            for _ in 0..15 {
                let obs = sim.step();
                let meters: Vec<(ServerId, u64, u64)> = sim
                    .cloud()
                    .cluster()
                    .alive()
                    .map(|srv| {
                        assert!(
                            srv.usage.queries_served
                                <= srv.capacities.query_capacity * (1.0 + 1e-12),
                            "{}: {:?} served past its capacity",
                            scenario.name,
                            srv.id
                        );
                        (
                            srv.id,
                            srv.usage.queries_served.to_bits(),
                            srv.usage.queries_dropped.to_bits(),
                        )
                    })
                    .collect();
                out.push((obs, meters));
            }
            out
        };
        let inline = run(1);
        for (epoch, (obs, meters)) in inline.iter().enumerate() {
            let mut ring_served = 0.0;
            for ring in &obs.report.rings {
                assert!(
                    close(
                        ring.queries_offered,
                        ring.queries_served + ring.queries_dropped
                    ),
                    "{} epoch {epoch}: offered {} != served {} + dropped {}",
                    scenario.name,
                    ring.queries_offered,
                    ring.queries_served,
                    ring.queries_dropped
                );
                ring_served += ring.queries_served;
            }
            let served: f64 = meters.iter().map(|&(_, s, _)| f64::from_bits(s)).sum();
            assert!(
                close(served, ring_served),
                "{} epoch {epoch}: servers served {served}, rings report {ring_served}",
                scenario.name
            );
        }
        for threads in [2usize, 3, 8] {
            let threaded = run(threads);
            assert_eq!(inline.len(), threaded.len());
            for (epoch, (a, b)) in inline.iter().zip(&threaded).enumerate() {
                assert_eq!(
                    a, b,
                    "threads = {threads} diverges on {} at epoch {epoch}",
                    scenario.name
                );
            }
        }
    }
}

#[test]
fn fig2_shape_scaled() {
    // Convergence: vnodes reach 9·M and stay; cheap servers outnumber
    // expensive in hosted vnodes.
    let mut sim = Simulation::new(paper::scaled_scenario("fig2-it", 16, 3_000, 25));
    let obs = sim.run();
    let last = obs.last().unwrap();
    assert_eq!(last.report.total_vnodes(), (2 + 3 + 4) * 16);
    assert!(last.cheap_mean_vnodes > last.expensive_mean_vnodes);
    // Stability: no availability repairs in the last five epochs.
    let late_repairs: u64 = obs[20..]
        .iter()
        .map(|o| o.report.actions.availability_replications)
        .sum();
    assert_eq!(late_repairs, 0);
}

#[test]
fn fig3_shape_scaled() {
    let mut s = paper::scaled_scenario("fig3-it", 16, 3_000, 45);
    s.schedule = Schedule::new()
        .at(15, CloudEvent::AddServers { count: 20 })
        .at(30, CloudEvent::RemoveServers { count: 20 });
    let mut sim = Simulation::new(s);
    let obs = sim.run();
    let totals: Vec<usize> = obs.iter().map(|o| o.report.total_vnodes()).collect();
    // Flat across the upgrade…
    assert_eq!(totals[14], totals[25]);
    // …and recovered after the failure.
    assert!(*totals.last().unwrap() >= totals[28]);
    for ring in &obs.last().unwrap().report.rings {
        assert!(ring.sla_satisfied_frac > 0.99);
    }
}

#[test]
fn fig4_shape_scaled() {
    let mut s = paper::scaled_scenario("fig4-it", 16, 3_000, 60);
    s.trace = TraceKind::Slashdot(SlashdotTrace {
        base: 3_000.0,
        peak: 60_000.0,
        spike_start: 15,
        ramp_epochs: 5,
        decay_epochs: 30,
    });
    s.load_fractions = vec![4.0, 2.0, 1.0];
    let mut sim = Simulation::new(s);
    let obs = sim.run();
    // Load per server follows the spike.
    let base_load = obs[10].report.rings[0].load_per_server;
    let peak_load = obs
        .iter()
        .map(|o| o.report.rings[0].load_per_server)
        .fold(0.0, f64::max);
    assert!(peak_load > 10.0 * base_load, "{peak_load} vs {base_load}");
    // Shares at the peak follow 4/7, 2/7, 1/7.
    let peak = obs
        .iter()
        .max_by(|a, b| a.offered_rate.total_cmp(&b.offered_rate))
        .unwrap();
    let served: Vec<f64> = peak.report.rings.iter().map(|r| r.queries_served).collect();
    let total: f64 = served.iter().sum();
    assert!((served[0] / total - 4.0 / 7.0).abs() < 0.05);
    assert!((served[2] / total - 1.0 / 7.0).abs() < 0.05);
    // Nearly nothing dropped.
    let dropped: f64 = obs
        .iter()
        .flat_map(|o| o.report.rings.iter().map(|r| r.queries_dropped))
        .sum();
    let offered: f64 = obs.iter().map(|o| o.offered_rate).sum();
    assert!(
        dropped / offered < 0.01,
        "dropped {:.3}%",
        100.0 * dropped / offered
    );
}

#[test]
fn fig5_shape_scaled() {
    let mut s = paper::scaled_scenario("fig5-it", 12, 1_000, 60);
    s.server_storage_bytes = 512 << 20;
    s.config.split_threshold_bytes = 16 << 20;
    s.inserts = Some(InsertGenerator {
        rate_per_epoch: 300.0,
        object_bytes: 500 * 1000,
        key_dist: Pareto::paper(),
        unique_key_factor: 1000,
    });
    let mut sim = Simulation::new(s);
    let obs = sim.run();
    // No failures while the cloud is comfortably below 60% used.
    for o in &obs {
        if o.report.storage_frac() < 0.6 {
            assert_eq!(
                o.report.insert_failures,
                0,
                "failure at {:.1}% used",
                100.0 * o.report.storage_frac()
            );
        }
    }
    // The stream keeps landing: storage grows monotonically until late.
    let first = obs[0].report.storage_frac();
    let last = obs.last().unwrap().report.storage_frac();
    assert!(last > first + 0.2, "{first} → {last}");
}

#[test]
fn paper_scenarios_all_validate_and_build() {
    for scenario in [
        paper::base_scenario(),
        paper::fig2_scenario(),
        paper::fig3_scenario(),
        paper::fig4_scenario(),
        paper::fig5_scenario(),
        paper::outage_scenario(),
    ] {
        scenario.validate();
        let mut short = scenario.clone();
        short.epochs = 1;
        let mut sim = Simulation::new(short);
        let obs = sim.step();
        assert_eq!(obs.report.epoch, 1);
        assert!(obs.report.total_vnodes() >= 600);
    }
}
