//! The epoch-loop throughput benchmark: the rent-indexed decision pipeline
//! against the brute-force full-scan oracle at M ∈ {16, 50, 200} partitions
//! per application, from a cold start (covering the decision-heavy
//! convergence phase), plus the M = 200 thread-scaling rows at pipeline
//! threads ∈ {1, 2, 4, 8}, a pool-overhead row (M = 16 at 8 threads:
//! dispatch handoff dominates, charting the persistent pool's fixed cost),
//! a convergence/churn row (M = 200 under a
//! failure burst plus a capacity upgrade — many actions per epoch) that
//! also charts the decision commit pass's speculation hit rate, and an
//! outage-burst row (M = 200 under a whole-country failure) gating the
//! repair pass's throughput under correlated failures, and the M = 2000
//! memory-scale rows (steady + churn) anchoring the gate's scaling-slope
//! guard and the `bytes_per_partition` RSS figure. Rows
//! sharing a workload replay the same bitwise trajectory; only wall clock
//! differs. Prints the comparison table and writes the machine-readable
//! perf trajectory to `BENCH_epoch.json` at the workspace root; CI's
//! bench-smoke job diffs that file against the committed one with the
//! `bench_gate` binary (rows matched by `(partitions, threads, workload)`
//! key; unmatched rows skip with a warning, and the hit rate and memory
//! figure are informational).
//!
//! Run with `cargo bench -p skute-bench --bench epoch_loop`.

use skute_bench::{perf, workspace_root};

fn main() {
    println!("epoch_loop: indexed vs brute-force decision pipeline\n");
    // Measured before the sweep: the sweep's own M = 2000 rows would
    // otherwise leave the allocator holding enough freed pages that the
    // RSS delta reads zero.
    let bytes_per_partition = perf::measure_bytes_per_partition();
    let results = perf::standard_sweep();
    perf::print_table(&results);
    if let Some(bpp) = bytes_per_partition {
        println!("\nbytes/partition (RSS delta at M = 2000): {bpp}");
    }
    let path = workspace_root().join("BENCH_epoch.json");
    match perf::write_json_full(&path, &results, bytes_per_partition) {
        Ok(()) => println!("\nwrote {}", path.display()),
        Err(e) => println!("\n(could not write {}: {e})", path.display()),
    }
    if let Some(r) = results
        .iter()
        .find(|r| r.partitions == 200 && r.threads == 1 && r.workload == perf::Workload::Steady)
    {
        println!(
            "M = 200 speedup: {:.2}x ({:.2} → {:.2} epochs/sec)",
            r.speedup(),
            r.brute_force.epochs_per_sec,
            r.indexed.epochs_per_sec
        );
    }
    for workload in [perf::Workload::Churn, perf::Workload::Outage] {
        if let Some(r) = results.iter().find(|r| r.workload == workload) {
            println!(
                "M = {} {} speculation hit rate: {} ({} hits / {} misses)",
                r.partitions,
                workload.label(),
                match r.spec_hit_rate() {
                    Some(hr) => format!("{:.0}%", hr * 100.0),
                    None => "n/a".to_string(),
                },
                r.indexed.spec_hits,
                r.indexed.spec_misses
            );
        }
    }
}
