//! # skute-benchmark
//!
//! The repository's benchmark: four seeded workloads over the serve, store
//! and epoch layers, each measured from outside — wire timing, `/metrics`
//! deltas and timed calls into public functions. `README.md` has the
//! metric catalogue and how to read the numbers; `BENCHMARK.json` at the
//! repository root declares the same workloads and metrics to the driver.
//!
//! One process runs one workload once ([`run_workload`]); the binary's
//! full-set mode starts one such child per workload.

#![warn(missing_docs)]

pub mod catalog;
pub mod compare;
pub mod epoch;
pub mod json;
pub mod loadgen;
pub mod report;
pub mod serve;
pub mod stats;
pub mod store;
pub mod trace;

use report::{Outcome, RunArgs};

/// Runs the workload `args` names: the end-to-end run, or with
/// `args.trace` the traced run that prints the per-layer metrics.
pub fn run_workload(args: &RunArgs) -> std::io::Result<Outcome> {
    if let Some(spec) = serve::spec(&args.workload) {
        return if args.trace {
            serve::run_traced(&spec, args)
        } else {
            serve::run_end_to_end(&spec, args)
        };
    }
    match (args.workload.as_str(), args.trace) {
        ("epoch_churn_m2000", false) => epoch::run_end_to_end(args),
        ("epoch_churn_m2000", true) => epoch::run_traced(args),
        ("store_direct_lsm", false) => store::run_end_to_end(args),
        ("store_direct_lsm", true) => store::run_traced(args),
        (other, _) => Err(std::io::Error::new(
            std::io::ErrorKind::InvalidInput,
            format!("unknown workload {other:?}"),
        )),
    }
}
