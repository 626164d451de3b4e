//! # skute-bench
//!
//! Benchmark support: shared helpers for the figure-regeneration harnesses
//! (`benches/fig*.rs`), the ablation sweeps (`benches/ablation_*.rs`), the
//! baseline comparison table (`benches/table_baselines.rs`) and the
//! criterion micro-benchmarks (`benches/micro.rs`).
//!
//! Every figure bench is a `harness = false` bench target: `cargo bench -p
//! skute-bench --bench fig2_convergence` runs the deterministic simulation,
//! prints the paper-vs-measured series to stdout and writes the full
//! time-series CSV under `target/figures/`.

#![warn(missing_docs)]

use std::path::PathBuf;

use skute_sim::{Observation, Recorder, Scenario, Simulation};

/// The workspace root, two levels above this crate's manifest.
fn workspace_root() -> PathBuf {
    let mut p = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
    p.pop(); // crates/
    p.pop(); // workspace root
    p
}

/// Directory the figure benches write their CSVs to.
pub fn figures_dir() -> PathBuf {
    // target/ relative to the workspace root, independent of cwd quirks.
    let target = std::env::var_os("CARGO_TARGET_DIR")
        .map(PathBuf::from)
        .unwrap_or_else(|| {
            let mut p = workspace_root();
            p.push("target");
            p
        });
    target.join("figures")
}

/// Runs a scenario to completion, printing a progress line every
/// `print_every` epochs via `row`, and returns the recorder.
pub fn run_and_record(
    scenario: Scenario,
    print_every: u64,
    mut row: impl FnMut(&Observation),
) -> Recorder {
    let epochs = scenario.epochs;
    let mut sim = Simulation::new(scenario);
    let mut recorder = Recorder::new();
    for epoch in 0..epochs {
        let obs = sim.step();
        if print_every > 0 && (epoch % print_every == 0 || epoch + 1 == epochs) {
            row(&obs);
        }
        recorder.push(obs);
    }
    recorder
}

/// Formats a ratio as a percentage with one decimal.
pub fn pct(x: f64) -> String {
    format!("{:.1}%", 100.0 * x)
}

/// Prints the standard bench footer with the CSV location.
pub fn footer(name: &str, recorder: &Recorder) {
    let path = figures_dir().join(format!("{name}.csv"));
    match recorder.write_csv(&path) {
        Ok(()) => println!("\nfull time series: {}", path.display()),
        Err(e) => println!("\n(could not write CSV: {e})"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use skute_sim::paper;

    #[test]
    fn run_and_record_counts_epochs() {
        let mut printed = 0;
        let rec = run_and_record(paper::scaled_scenario("bench-t", 4, 50, 6), 2, |_| {
            printed += 1;
        });
        assert_eq!(rec.len(), 6);
        assert_eq!(printed, 4, "epochs 0, 2, 4 and the final epoch 5");
    }

    #[test]
    fn pct_formats() {
        assert_eq!(pct(0.5), "50.0%");
        assert_eq!(pct(1.0), "100.0%");
    }

    #[test]
    fn figures_dir_is_under_target() {
        let d = figures_dir();
        assert!(d.ends_with("figures"));
    }
}
