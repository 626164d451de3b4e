//! Metric handles must survive being hammered from `skute-exec` worker
//! pool tasks without losing increments — the exact setting the core
//! pipeline uses them in. Every count is read back the way a scrape sees
//! it: from the registry's rendered exposition.

use std::time::Duration;

use skute_exec::WorkerPool;
use skute_obs::Registry;

/// The value of one series (`name{labels}`) in `registry`'s exposition.
fn sample(registry: &Registry, series: &str) -> f64 {
    let text = registry.render();
    let prefix = format!("{series} ");
    let value = text
        .lines()
        .find_map(|l| l.strip_prefix(prefix.as_str()))
        .unwrap_or_else(|| panic!("missing {series} in:\n{text}"));
    value.trim().parse().unwrap()
}

#[test]
fn counter_loses_no_increments_under_worker_pool() {
    let registry = Registry::new();
    let counter = registry.counter("skute_hammer_total", "Hammered from the pool.");
    let pool = WorkerPool::new(8);
    const TASKS: usize = 64;
    const PER_TASK: u64 = 10_000;
    let tasks: Vec<usize> = (0..TASKS).collect();
    let _ = pool.run_tasks(tasks, move |_, _| {
        for _ in 0..PER_TASK {
            counter.inc();
        }
    });
    assert_eq!(
        sample(&registry, "skute_hammer_total"),
        (TASKS as u64 * PER_TASK) as f64
    );
}

#[test]
fn histogram_loses_no_observations_under_worker_pool() {
    let registry = Registry::new();
    let hist = registry.histogram_with(
        "skute_hammer_seconds",
        "Observed from the pool.",
        &[],
        &[0.5, 1.5, 2.5, 3.5],
    );
    let pool = WorkerPool::new(8);
    const TASKS: usize = 32;
    const PER_TASK: usize = 4_000;
    let tasks: Vec<usize> = (0..TASKS).collect();
    let _ = pool.run_tasks(tasks, move |_, i| {
        // Each task writes a known mix: observation value cycles 0..4 s.
        for k in 0..PER_TASK {
            hist.observe_duration(Duration::from_secs(((i + k) % 4) as u64));
        }
    });
    let total = (TASKS * PER_TASK) as f64;
    assert_eq!(sample(&registry, "skute_hammer_seconds_count"), total);
    // Every residue class appears equally often, so each of the four
    // buckets holds exactly a quarter of the observations.
    let bucket = |le: &str| {
        sample(
            &registry,
            &format!("skute_hammer_seconds_bucket{{le=\"{le}\"}}"),
        )
    };
    assert_eq!(bucket("0.5"), total / 4.0); // value 0
    assert_eq!(bucket("1.5"), total / 2.0); // values 0,1
    assert_eq!(bucket("2.5"), 3.0 * total / 4.0);
    assert_eq!(bucket("3.5"), total);
    // Fixed-point sum is exact for integral observations:
    // Σ = total/4 * (0 + 1 + 2 + 3).
    let expected_sum = total / 4.0 * 6.0;
    assert!((sample(&registry, "skute_hammer_seconds_sum") - expected_sum).abs() < 1e-6);
}

#[test]
fn concurrent_registration_is_idempotent() {
    let registry = std::sync::Arc::new(Registry::new());
    let pool = WorkerPool::new(4);
    let tasks: Vec<usize> = (0..16).collect();
    let reg = registry.clone();
    let _ = pool.run_tasks(tasks, move |_, _| {
        let c = reg.counter_with(
            "skute_reg_total",
            "Registered from many tasks.",
            &[("op", "x")],
        );
        c.inc();
    });
    assert_eq!(sample(&registry, "skute_reg_total{op=\"x\"}"), 16.0);
    // One family, one series in the rendered output.
    let text = registry.render();
    assert_eq!(text.matches("skute_reg_total{").count(), 1);
}
