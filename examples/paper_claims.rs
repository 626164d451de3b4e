//! The paper's claims as one executed scorecard: Figs. 1–5 of §III, the
//! baselines table, the geo-proximity table, the overhead table and the
//! two ablations. Each claim runs its scenario, prints the paper's value,
//! the measured value and the threshold it is judged against, and passes
//! or fails; the process exits non-zero on any miss.
//!
//! The per-epoch series behind the figures come from the CLI instead, e.g.
//! `skute-sim --scenario fig5 --print-every 10 --csv fig5.csv`.
//!
//! Run with: `cargo run --release --example paper_claims` (≈ 4 s)

use skute::baseline::{
    evaluate, CheapestPlacement, CtxFixture, EvaluationConfig, MaxSpreadPlacement, RandomPlacement,
    StrategyOutcome, SuccessorPlacement,
};
use skute::core::placement::EconomicPlacement;
use skute::prelude::*;
use skute::sim::paper;

/// One claim: where the paper makes it, what it says, and the run that
/// checks it.
struct Claim {
    id: &'static str,
    title: &'static str,
    paper: &'static str,
    check: fn() -> Verdict,
}

/// What a claim's run measured, the threshold it is judged against, and
/// whether it met it.
struct Verdict {
    measured: String,
    threshold: &'static str,
    pass: bool,
}

const CLAIMS: [Claim; 10] = [
    Claim {
        id: "fig1",
        title: "Fig. 1 / §I — differentiated availability per application",
        paper: "one ring per availability level; levels satisfied by 2, 3, 4 replicas",
        check: fig1_differentiation,
    },
    Claim {
        id: "fig2",
        title: "Fig. 2 / §III-B — replication process at startup",
        paper: "system soon reaches equilibrium; fewer vnodes at expensive servers",
        check: fig2_convergence,
    },
    Claim {
        id: "fig3",
        title: "Fig. 3 / §III-C — per-ring vnode totals under server arrival and failure",
        paper: "totals constant across the epoch-100 upgrade; rise after the epoch-200 failure",
        check: fig3_elasticity,
    },
    Claim {
        id: "fig4",
        title: "Fig. 4 / §III-D — query load per ring per server under a Slashdot spike",
        paper:
            "load fractions 4/7 ≈ 0.571, 2/7 ≈ 0.286, 1/7 ≈ 0.143; per-server load stays balanced",
        check: fig4_slashdot,
    },
    Claim {
        id: "fig5",
        title: "Fig. 5 / §III-E — storage saturation: insert failures vs used capacity",
        paper: "no data losses for used capacity up to 96% of total storage",
        check: fig5_saturation,
    },
    Claim {
        id: "ablation_rent",
        title: "Ablation A1 — rent terms α (storage) and β (query load), eq. (1)",
        paper: "rent is a congestion signal: α makes it track storage pressure",
        check: ablation_rent,
    },
    Claim {
        id: "ablation_window",
        title: "Ablation A2 — decision window f (§II-C) under a load spike + failure burst",
        paper:
            "a vnode acts after f epochs of same-sign balance: f trades reaction speed for churn",
        check: ablation_window,
    },
    Claim {
        id: "table_baselines",
        title: "A3 — replica placement baselines (200 partitions, 20-server failure bursts)",
        paper: "geography-aware economic placement gives availability at minimum cost",
        check: table_baselines,
    },
    Claim {
        id: "table_geo",
        title: "E-GEO — data moves close to its clients (§I, virtual-ring advantage 2)",
        paper: "data of a regionally accessed application moves close to that region",
        check: table_geo_proximity,
    },
    Claim {
        id: "table_overhead",
        title: "E-OVH — communication overhead across the Fig. 3 run (§IV future work)",
        paper: "(future work) analyze latency and communication overhead",
        check: table_overhead,
    },
];

fn main() {
    let mut passed = 0;
    for claim in &CLAIMS {
        println!("=== [{}] {} ===", claim.id, claim.title);
        let v = (claim.check)();
        println!("paper     : {}", claim.paper);
        println!("measured  : {}", v.measured);
        println!("threshold : {}", v.threshold);
        println!("verdict   : {}\n", if v.pass { "PASS" } else { "FAIL" });
        passed += usize::from(v.pass);
    }
    println!("{passed}/{} claims reproduced", CLAIMS.len());
    if passed < CLAIMS.len() {
        std::process::exit(1);
    }
}

/// Formats a ratio as a percentage with one decimal.
fn pct(x: f64) -> String {
    format!("{:.1}%", 100.0 * x)
}

/// Mean of `metric` over the last `window` observations.
fn tail_mean(obs: &[Observation], window: usize, metric: impl Fn(&Observation) -> f64) -> f64 {
    let slice = &obs[obs.len().saturating_sub(window)..];
    slice.iter().map(metric).sum::<f64>() / slice.len() as f64
}

/// Sum of `metric` over the rings of one epoch, in ring order.
fn ring_sum(report: &EpochReport, metric: impl Fn(&RingReport) -> f64) -> f64 {
    report.rings.iter().map(metric).sum()
}

/// Mean SLA satisfaction over the rings of one epoch.
fn mean_sla(report: &EpochReport) -> f64 {
    ring_sum(report, |r| r.sla_satisfied_frac) / report.rings.len() as f64
}

fn fig1_differentiation() -> Verdict {
    let mut scenario = paper::base_scenario();
    scenario.epochs = 60;
    let obs = Simulation::new(scenario).run();
    let report = &obs.last().expect("epochs ran").report;
    let per_partition = |r: &RingReport| r.vnodes as f64 / r.partitions as f64;
    let ok = report
        .rings
        .iter()
        .all(|r| per_partition(r) >= r.target_replicas as f64 * 0.95);
    let rings = &report.rings;
    let ordered = rings[0].vnodes < rings[1].vnodes && rings[1].vnodes < rings[2].vnodes;
    Verdict {
        measured: format!(
            "rings at {:.2}/{:.2}/{:.2} replicas per partition (targets {}/{}/{})",
            per_partition(&rings[0]),
            per_partition(&rings[1]),
            per_partition(&rings[2]),
            rings[0].target_replicas,
            rings[1].target_replicas,
            rings[2].target_replicas,
        ),
        threshold:
            "every ring ≥ 95% of its target replicas per partition; vnodes ring0 < ring1 < ring2",
        pass: ok && ordered,
    }
}

fn fig2_convergence() -> Verdict {
    let obs = Simulation::new(paper::fig2_scenario()).run();
    let final_total = tail_mean(&obs, 20, |o| o.report.total_vnodes() as f64);
    let early_total = obs[0].report.total_vnodes();
    let cheap = tail_mean(&obs, 20, |o| o.cheap_mean_vnodes);
    let expensive = tail_mean(&obs, 20, |o| o.expensive_mean_vnodes);
    let repairs_late = tail_mean(&obs, 20, |o| {
        o.report.actions.availability_replications as f64
    });
    Verdict {
        measured: format!(
            "vnodes {early_total} → {final_total:.0} ({repairs_late:.2} repairs/epoch at the end); \
             cheap servers host {cheap:.2} vnodes on average, expensive {expensive:.2}"
        ),
        threshold: "mean vnodes per cheap server > per expensive server over the last 20 epochs",
        pass: cheap > expensive,
    }
}

fn fig3_elasticity() -> Verdict {
    let obs = Simulation::new(paper::fig3_scenario()).run();
    let at = |epoch: usize, ring: usize| obs[epoch - 1].report.rings[ring].vnodes as f64;
    let window_mean = |lo: usize, hi: usize, ring: usize| {
        let s: f64 = (lo..hi).map(|e| at(e, ring)).sum();
        s / (hi - lo) as f64
    };
    let mut reproduced = true;
    let mut rings = Vec::new();
    for ring in 0..3 {
        let before_add = window_mean(80, 100, ring);
        let after_add = window_mean(120, 140, ring);
        let before_fail = window_mean(180, 200, ring);
        let after_fail = window_mean(260, 300, ring);
        let add_stable = (after_add - before_add).abs() / before_add < 0.05;
        let fail_recovered = after_fail >= before_fail * 0.98;
        reproduced &= add_stable && fail_recovered;
        rings.push(format!(
            "ring{ring} {before_add:.0} → {after_add:.0} across the upgrade, \
             {before_fail:.0} → {after_fail:.0} across the failure"
        ));
    }
    let sla_end = mean_sla(&obs.last().expect("epochs ran").report);
    Verdict {
        measured: format!("{}; final SLA {}", rings.join("; "), pct(sla_end)),
        threshold: "per ring: |Δ| < 5% across the upgrade, ≥ 98% of the pre-failure total after it; final SLA > 95%",
        pass: reproduced && sla_end > 0.95,
    }
}

fn fig4_slashdot() -> Verdict {
    let obs = Simulation::new(paper::fig4_scenario()).run();
    // Ring shares at the peak must follow 4/7, 2/7, 1/7.
    let peak = obs
        .iter()
        .max_by(|a, b| a.offered_rate.total_cmp(&b.offered_rate))
        .expect("epochs ran");
    let served: Vec<f64> = peak.report.rings.iter().map(|r| r.queries_served).collect();
    let total_served: f64 = served.iter().sum();
    let shares: Vec<f64> = served.iter().map(|s| s / total_served).collect();
    // Load balance across servers over the spike plateau.
    let spike_cv: f64 = obs[110..150]
        .iter()
        .map(|o| o.report.rings[0].load_cv)
        .sum::<f64>()
        / 40.0;
    let dropped: f64 = obs
        .iter()
        .map(|o| ring_sum(&o.report, |r| r.queries_dropped))
        .sum();
    let offered: f64 = obs.iter().map(|o| o.offered_rate).sum();
    let shares_ok = (shares[0] - 4.0 / 7.0).abs() < 0.05
        && (shares[1] - 2.0 / 7.0).abs() < 0.05
        && (shares[2] - 1.0 / 7.0).abs() < 0.05;
    Verdict {
        measured: format!(
            "peak-epoch ring shares {:.3}/{:.3}/{:.3} at rate {:.0}; ring0 load CV over the \
             spike plateau {:.3}; dropped {:.4}% of all queries",
            shares[0],
            shares[1],
            shares[2],
            peak.offered_rate,
            spike_cv,
            100.0 * dropped / offered,
        ),
        threshold: "each peak share within 0.05 of 4/7, 2/7, 1/7; < 1% of all queries dropped",
        pass: shares_ok && dropped / offered < 0.01,
    }
}

fn fig5_saturation() -> Verdict {
    let obs = Simulation::new(paper::fig5_scenario()).run();
    // First epoch with a sustained failure rate (> 1% of the stream).
    let sustained = obs.iter().find(|o| o.report.insert_failures > 20);
    let first_any = obs.iter().find(|o| o.report.insert_failures > 0);
    let used = |o: Option<&Observation>| {
        o.map_or("never".into(), |o| {
            format!("{} used", pct(o.report.storage_frac()))
        })
    };
    Verdict {
        measured: format!(
            "first stray failure at {}; sustained failures from {}; {} used at the end",
            used(first_any),
            used(sustained),
            pct(obs.last().expect("epochs ran").report.storage_frac())
        ),
        pass: sustained.is_none_or(|o| o.report.storage_frac() > 0.85),
        threshold:
            "sustained failures (> 20 per epoch, 1% of the stream) start above 85% used, or never",
    }
}

/// Coefficient of variation of the alive servers' storage fractions.
fn storage_cv(sim: &Simulation) -> f64 {
    let fracs: Vec<f64> = sim
        .cloud()
        .cluster()
        .alive()
        .map(|s| s.storage_frac())
        .collect();
    let n = fracs.len() as f64;
    let mean = fracs.iter().sum::<f64>() / n;
    if mean == 0.0 {
        return 0.0;
    }
    let var = fracs.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / n;
    var.sqrt() / mean
}

fn ablation_rent() -> Verdict {
    // Storage and load balance with each rent term of eq. (1) disabled in
    // turn, on a scaled scenario with a storage-heavy insert stream.
    let run = |alpha: f64, beta: f64| {
        let mut scenario = paper::scaled_scenario("ablation-rent", 24, 6_000, 40);
        scenario.config.economy.alpha = alpha;
        scenario.config.economy.beta = beta;
        scenario.server_storage_bytes = 512 << 20;
        scenario.config.split_threshold_bytes = 16 << 20;
        scenario.inserts = Some(InsertGenerator {
            rate_per_epoch: 300.0,
            object_bytes: 500 * 1000,
            key_dist: Pareto::paper(),
            unique_key_factor: 1000,
        });
        let mut sim = Simulation::new(scenario);
        let mut insert_failures = 0;
        let mut migrations = 0;
        let mut last = None;
        for _ in 0..40 {
            let obs = sim.step();
            insert_failures += obs.report.insert_failures;
            migrations += obs.report.actions.migrations;
            last = Some(obs.report);
        }
        let load_cv = ring_sum(&last.expect("epochs ran"), |r| r.load_cv) / 3.0;
        let storage_cv = storage_cv(&sim);
        println!(
            "{alpha:>7.1} {beta:>7.1} {storage_cv:>12.3} {load_cv:>10.3} \
             {insert_failures:>14} {migrations:>12}"
        );
        storage_cv
    };
    println!(
        "{:>7} {:>7} {:>12} {:>10} {:>14} {:>12}",
        "alpha", "beta", "storage CV", "load CV", "insert fails", "migrations"
    );
    let cvs: Vec<f64> = [(0.0, 0.0), (0.0, 1.0), (1.0, 0.0), (1.0, 1.0), (2.0, 2.0)]
        .into_iter()
        .map(|(alpha, beta)| run(alpha, beta))
        .collect();
    let (no_alpha, baseline) = (cvs[1], cvs[3]);
    Verdict {
        measured: format!(
            "with α=0 the storage imbalance is {:.2}× the full economy's",
            no_alpha / baseline.max(1e-9)
        ),
        threshold: "storage CV at α=0, β=1 ≥ storage CV at α=β=1",
        pass: no_alpha >= baseline,
    }
}

fn ablation_window() -> Verdict {
    // Time-to-scale-out, churn and SLA stability per decision window f,
    // under a Slashdot spike and a concurrent 20-server failure burst.
    let run = |window: usize| {
        let mut scenario = paper::scaled_scenario("ablation-window", 24, 3_000, 90);
        scenario.config.economy.decision_window = window;
        scenario.trace = TraceKind::Slashdot(SlashdotTrace {
            base: 3_000.0,
            peak: 90_000.0,
            spike_start: 15,
            ramp_epochs: 5,
            decay_epochs: 40,
        });
        scenario.load_fractions = vec![4.0, 2.0, 1.0];
        scenario.schedule = Schedule::new().at(30, CloudEvent::RemoveServers { count: 20 });
        let mut sim = Simulation::new(scenario);
        let mut first_scale_out = None;
        let mut peak_vnodes = 0;
        let mut churn = 0u64;
        let mut offered = 0.0;
        let mut dropped = 0.0;
        let mut final_sla = 0.0;
        for epoch in 0..90u64 {
            let obs = sim.step();
            let r = &obs.report;
            if r.actions.profit_replications > 0 && first_scale_out.is_none() && epoch >= 15 {
                first_scale_out = Some(epoch - 15);
            }
            peak_vnodes = peak_vnodes.max(r.total_vnodes());
            churn += r.actions.profit_replications + r.actions.suicides + r.actions.migrations;
            offered += obs.offered_rate;
            dropped += ring_sum(r, |x| x.queries_dropped);
            final_sla = mean_sla(r);
        }
        println!(
            "{:>4} {:>16} {:>12} {:>14.2} {:>10} {:>11}",
            window,
            first_scale_out
                .map(|e| format!("{e} epochs"))
                .unwrap_or_else(|| "never".into()),
            peak_vnodes,
            churn as f64 / 90.0,
            pct(dropped / f64::max(offered, 1.0)),
            pct(final_sla),
        );
        (first_scale_out, final_sla)
    };
    println!(
        "{:>4} {:>16} {:>12} {:>14} {:>10} {:>11}",
        "f", "scale-out lag", "peak vnodes", "churn/epoch", "dropped", "final SLA"
    );
    let outcomes: Vec<(Option<u64>, f64)> = [1usize, 2, 4, 8].into_iter().map(run).collect();
    let lag = |o: &(Option<u64>, f64)| o.0.unwrap_or(u64::MAX);
    let ordered = lag(&outcomes[0]) <= lag(&outcomes[3]);
    Verdict {
        measured: format!(
            "f=1 lag {:?} vs f=8 lag {:?}; lowest final SLA {}",
            outcomes[0].0,
            outcomes[3].0,
            pct(outcomes.iter().map(|o| o.1).fold(f64::INFINITY, f64::min)),
        ),
        threshold: "f=1 scales out no later than f=8; every window's final SLA > 95%",
        pass: ordered && outcomes.iter().all(|o| o.1 > 0.95),
    }
}

fn table_baselines() -> Verdict {
    // 200 partitions at k = 2, 3, 4 replicas per policy on the §III-A
    // cluster: availability, rent and survival of 20-server failure bursts.
    let row = |o: &StrategyOutcome| {
        println!(
            "{:<16} {:>12.1} {:>10} {:>12.4} {:>12} {:>10}",
            o.name,
            o.mean_availability,
            pct(o.sla_satisfied_frac),
            o.mean_rent,
            pct(o.surviving_sla_frac),
            pct(o.lost_partition_frac),
        );
    };
    let fixture = CtxFixture::paper();
    let mut economic_sla = Vec::new();
    for k in [2usize, 3, 4] {
        let cfg = EvaluationConfig {
            partitions: 200,
            replicas: k,
            threshold: threshold_for_replicas(&fixture.topology, k),
            failures: 20,
            trials: 20,
            seed: 0xBA5E,
        };
        println!("--- k = {k} replicas (threshold {:.1}) ---", cfg.threshold);
        println!(
            "{:<16} {:>12} {:>10} {:>12} {:>12} {:>10}",
            "strategy", "mean avail", "SLA ok", "mean rent", "survive SLA", "lost all"
        );
        let mut strategies: Vec<Box<dyn PlacementStrategy>> = vec![
            Box::new(EconomicPlacement),
            Box::new(MaxSpreadPlacement),
            Box::new(CheapestPlacement),
            Box::new(SuccessorPlacement),
            Box::new(RandomPlacement::new(7)),
        ];
        let outcomes: Vec<StrategyOutcome> = strategies
            .iter_mut()
            .map(|s| evaluate(s.as_mut(), &fixture, &cfg))
            .collect();
        outcomes.iter().for_each(row);
        let (economic, spread, successor) = (&outcomes[0], &outcomes[1], &outcomes[3]);
        println!(
            "→ economic matches max-spread availability ({}/{} SLA) at {} of its rent; \
             successor-list survives bursts at only {}\n",
            pct(economic.sla_satisfied_frac),
            pct(spread.sla_satisfied_frac),
            pct(economic.mean_rent / spread.mean_rent.max(1e-12)),
            pct(successor.surviving_sla_frac),
        );
        economic_sla.push(economic.sla_satisfied_frac);
    }
    Verdict {
        measured: format!(
            "economic placement meets the SLA for {} of partitions at k = 2, 3, 4",
            economic_sla
                .iter()
                .map(|&f| pct(f))
                .collect::<Vec<_>>()
                .join("/")
        ),
        threshold: "economic SLA satisfaction ≥ 99% at every k",
        pass: economic_sla.iter().all(|&f| f >= 0.99),
    }
}

fn table_geo_proximity() -> Verdict {
    // Mean client→serving-replica distance (diversity units, the latency
    // proxy) at startup and in steady state, uniform vs regional clients.
    let run = |geo: ClientGeo, name: &str| {
        let mut scenario = paper::scaled_scenario(name, 32, 6_000, 60);
        scenario.client_geo = geo;
        let series: Vec<f64> = Simulation::new(scenario)
            .run()
            .iter()
            .map(|o| {
                let served = ring_sum(&o.report, |x| x.queries_served);
                ring_sum(&o.report, |x| x.mean_client_distance * x.queries_served) / served.max(1.0)
            })
            .collect();
        let early = series[0];
        let late = series[series.len() - 10..].iter().sum::<f64>() / 10.0;
        (early, late)
    };
    let (u_early, u_late) = run(ClientGeo::Uniform, "geo-uniform");
    let (s_early, s_late) = run(
        ClientGeo::SingleCountry {
            continent: 0,
            country: 0,
        },
        "geo-regional",
    );
    println!(
        "{:<23} {:>12} {:>12}",
        "client geography", "epoch 1", "steady state"
    );
    for (name, early, late) in [
        ("uniform (all countries)", u_early, u_late),
        ("single country", s_early, s_late),
    ] {
        println!("{name:<23} {early:>12.2} {late:>12.2}");
    }
    Verdict {
        measured: format!(
            "regional clients served at distance {s_late:.1} (was {s_early:.1} at startup; \
             uniform control {u_late:.1})"
        ),
        threshold: "steady-state distance < 0.8 × startup and < 0.6 × the uniform control",
        pass: s_late < s_early * 0.8 && s_late < 0.6 * u_late,
    }
}

fn table_overhead() -> Verdict {
    // Every byte the economy moves between servers across the Fig. 3 run,
    // split into startup, steady state, the upgrade and the failure burst.
    const GIB: f64 = (1u64 << 30) as f64;
    let obs = Simulation::new(paper::fig3_scenario()).run();
    let phase = |name: &str, lo: usize, hi: usize| {
        let repl: u64 = obs[lo..hi]
            .iter()
            .map(|o| o.report.actions.replicated_bytes)
            .sum();
        let migr: u64 = obs[lo..hi]
            .iter()
            .map(|o| o.report.actions.migrated_bytes)
            .sum();
        println!(
            "{:<26} {:>10.2} GiB replicated {:>10.2} GiB migrated ({:>5} epochs)",
            name,
            repl as f64 / GIB,
            migr as f64 / GIB,
            hi - lo,
        );
        (repl + migr) as f64 / GIB
    };
    let startup = phase("startup (1-40)", 0, 40);
    let steady = phase("steady state (41-99)", 40, 99);
    phase("upgrade +20 (100-140)", 99, 140);
    let failure = phase("failure −20 (200-240)", 199, 240);
    let stored = obs[198].report.storage_used as f64 / GIB;
    let lost = stored * 20.0 / 220.0; // data share of the 20 dead servers
    let steady_per_epoch = steady / 59.0;
    let quiet_steady = steady_per_epoch < 0.05 * startup.max(1e-9);
    let proportionate = failure < 4.0 * lost && failure > 0.5 * lost;
    Verdict {
        measured: format!(
            "steady state moves {steady_per_epoch:.3} GiB/epoch (startup {startup:.1} GiB); \
             failure recovery moved {failure:.1} GiB, {:.2}× the ≈ {lost:.1} GiB on the 20 \
             dead servers",
            failure / lost.max(1e-9)
        ),
        threshold: "steady GiB/epoch < 5% of the startup total; recovery 0.5–4× the lost data",
        pass: quiet_steady && proportionate,
    }
}
