//! Cost of one epoch at M partitions: the scale probe of the epoch loop.
//!
//! Runs `paper::scaled_scenario("epoch_churn_m2000", M, 1.5·M, E)`,
//! threads = 1, in one of two regimes: `churn` (the default) under
//! `paper::churn_schedule` (from epoch 40, every 60 epochs, 20 servers
//! retired one per epoch, each replaced 30 epochs later), or `steady`
//! with no scheduled event. The first `min(100, E/2)` epochs warm up
//! untimed; the rest form the timed window, stepped with `CloudMetrics`
//! attached. Prints the window's wall-clock ms/epoch, the pipeline's own
//! ms/epoch per phase (what the phases do not cover — query generation,
//! `begin_epoch`, scheduled events — is `other`), the process's peak
//! resident set (`VmHWM` from `/proc/self/status`), and the vnodes alive
//! at the end with the peak resident bytes per vnode (fixed process cost
//! included).
//!
//! Run with: `cargo run --release --example scale_epoch -- [M] [EPOCHS]
//! [SEED] [churn|steady]` (defaults: M = 2000, 300 epochs, seed 1,
//! churn). One run is one sample: compare trees with alternating runs.

use std::sync::Arc;
use std::time::Instant;

use skute::prelude::{CloudMetrics, Registry};
use skute::sim::{paper, Simulation};

/// The most epochs stepped before the timed window.
const WARM_UP: u64 = 100;

/// The pipeline's phase totals so far, in seconds: plan, commit, repair,
/// decisions, report.
fn phase_sums(metrics: &CloudMetrics) -> [f64; 5] {
    [
        metrics.phase_traffic_plan.sum(),
        metrics.phase_traffic_commit.sum(),
        metrics.phase_repair.sum(),
        metrics.phase_decisions.sum(),
        metrics.phase_report.sum(),
    ]
}

/// The process's peak resident set in MiB, if `/proc` reports it.
fn vm_hwm_mib() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

fn main() {
    let mut args = std::env::args().skip(1);
    let mut arg = |name: &str, default: u64| match args.next() {
        None => default,
        Some(v) => v
            .parse()
            .unwrap_or_else(|_| panic!("{name} must be an unsigned integer, got {v:?}")),
    };
    let partitions = arg("M", 2000);
    let epochs = arg("EPOCHS", 300);
    let seed = arg("SEED", 1);
    let regime = args.next().unwrap_or_else(|| "churn".into());
    let steady = match regime.as_str() {
        "churn" => false,
        "steady" => true,
        other => panic!("the regime must be churn or steady, got {other:?}"),
    };
    let warm_up = WARM_UP.min(epochs / 2);
    let window = epochs - warm_up;
    assert!(window > 0, "EPOCHS must be at least 1");

    let queries = partitions * 3 / 2;
    let mut scenario =
        paper::scaled_scenario("epoch_churn_m2000", partitions as usize, queries, epochs);
    scenario.seed = seed;
    if !steady {
        scenario.schedule = paper::churn_schedule(epochs);
    }

    let started = Instant::now();
    let mut sim = Simulation::new(scenario);
    let setup_ms = started.elapsed().as_secs_f64() * 1e3;
    for _ in 0..warm_up {
        sim.step();
    }
    let metrics = CloudMetrics::register(&Arc::new(Registry::new()));
    sim.attach_metrics(Arc::clone(&metrics));
    let started = Instant::now();
    let mut vnodes = 0;
    for _ in 0..window {
        vnodes = sim.step().report.rings.iter().map(|r| r.vnodes).sum();
    }
    let per_epoch = |seconds: f64| seconds * 1e3 / window as f64;
    let total = per_epoch(started.elapsed().as_secs_f64());
    let phases = phase_sums(&metrics).map(per_epoch);
    let other = total - phases.iter().sum::<f64>();

    println!(
        "M {partitions} queries {queries} seed {seed} {regime} window epochs {}-{epochs} \
         setup {setup_ms:.1} ms",
        warm_up + 1
    );
    let [plan, commit, repair, decisions, report] = phases;
    println!(
        "ms/epoch {total:.3} plan {plan:.3} commit {commit:.3} repair {repair:.3} \
         decisions {decisions:.3} report {report:.3} other {other:.3}"
    );
    let peak = vm_hwm_mib();
    match peak {
        Some(mib) => println!("VmHWM {mib:.1} MiB"),
        None => println!("VmHWM unavailable"),
    }
    match peak {
        Some(mib) if vnodes > 0 => {
            let bytes = mib * 1024.0 * 1024.0 / vnodes as f64;
            println!("vnodes {vnodes} bytes/vnode {bytes:.0}");
        }
        _ => println!("vnodes {vnodes} bytes/vnode unavailable"),
    }
}
