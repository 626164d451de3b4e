//! `skute-sim` — command-line runner for the paper's simulation scenarios.
//!
//! ```text
//! skute-sim [--scenario base|fig2|fig3|fig4|fig5|outage] [--epochs N]
//!           [--seed N] [--csv PATH] [--print-every N] [--threads N]
//!           [--backend mem|lsm] [--fault-plan NAME] [--fault-seed N]
//!           [--scrub-every N] [--metrics-json PATH]
//! ```
//!
//! Runs the chosen scenario, prints a progress table, and optionally
//! writes the full per-epoch time series as CSV. `--metrics-json PATH`
//! attaches the write-only [`CloudMetrics`] sink and writes an
//! end-of-run JSON snapshot of every metric (per-phase wall-clock
//! timings, action/fault counters, storage-engine totals) —
//! the metrics layer never feeds back into decisions, so stdout and CSV
//! stay byte-identical with or without it.

use std::process::ExitCode;

use skute::prelude::*;
use skute::sim::paper;

struct Args {
    scenario: String,
    epochs: Option<u64>,
    seed: Option<u64>,
    csv: Option<String>,
    print_every: u64,
    threads: Option<usize>,
    backend: BackendKind,
    fault_plan: Option<FaultPlanKind>,
    fault_seed: Option<u64>,
    scrub_every: Option<u64>,
    metrics_json: Option<String>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        scenario: "base".to_string(),
        epochs: None,
        seed: None,
        csv: None,
        print_every: 10,
        threads: None,
        backend: BackendKind::default(),
        fault_plan: None,
        fault_seed: None,
        scrub_every: None,
        metrics_json: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = |name: &str| it.next().ok_or_else(|| format!("{name} expects a value"));
        match flag.as_str() {
            "--scenario" | "-s" => args.scenario = value("--scenario")?,
            "--epochs" | "-e" => {
                args.epochs = Some(
                    value("--epochs")?
                        .parse()
                        .map_err(|e| format!("--epochs: {e}"))?,
                )
            }
            "--seed" => {
                args.seed = Some(
                    value("--seed")?
                        .parse()
                        .map_err(|e| format!("--seed: {e}"))?,
                )
            }
            "--csv" => args.csv = Some(value("--csv")?),
            "--print-every" => {
                args.print_every = value("--print-every")?
                    .parse()
                    .map_err(|e| format!("--print-every: {e}"))?
            }
            "--threads" | "-t" => {
                args.threads = Some(
                    value("--threads")?
                        .parse()
                        .map_err(|e| format!("--threads: {e}"))?,
                )
            }
            "--backend" | "-b" => {
                args.backend = value("--backend")?
                    .parse()
                    .map_err(|e| format!("--backend: {e}"))?
            }
            "--fault-plan" => {
                args.fault_plan = Some(
                    value("--fault-plan")?
                        .parse()
                        .map_err(|e| format!("--fault-plan: {e}"))?,
                )
            }
            "--fault-seed" => {
                args.fault_seed = Some(
                    value("--fault-seed")?
                        .parse()
                        .map_err(|e| format!("--fault-seed: {e}"))?,
                )
            }
            "--scrub-every" => {
                args.scrub_every = Some(
                    value("--scrub-every")?
                        .parse()
                        .map_err(|e| format!("--scrub-every: {e}"))?,
                )
            }
            "--metrics-json" => args.metrics_json = Some(value("--metrics-json")?),
            "--help" | "-h" => {
                println!(
                    "skute-sim: run a Skute paper scenario\n\n\
                     USAGE: skute-sim [--scenario base|fig2|fig3|fig4|fig5|outage]\n\
                            [--epochs N] [--seed N] [--csv PATH] [--print-every N]\n\
                            [--threads N] [--backend mem|lsm]\n\
                            [--fault-plan NAME] [--fault-seed N]\n\
                            [--scrub-every N] [--metrics-json PATH]\n\n\
                     --threads sets the epoch pipeline's worker budget (0 = all\n\
                     cores); same-seed output is bitwise identical at any value.\n\
                     --backend selects the replica storage engine: mem (default,\n\
                     in-memory oracle) or lsm (durable WAL + SSTable stores);\n\
                     same-seed output is bitwise identical on either engine.\n\
                     --fault-plan selects the seeded fault family: storage\n\
                     faults injected into the LSM engine (torn-tails|\n\
                     flaky-fsync|partial-flush|bit-flips|all) or server/\n\
                     network degradation (gray = per-server read-only/slow/\n\
                     partitioned modes plus a rotating continental cut,\n\
                     partition = the continental cut alone); --fault-seed N\n\
                     seeds the plan (and defaults it to 'all'); the seed\n\
                     defaults to the scenario seed. Storage faults are\n\
                     transient by construction — same-seed same-plan output is\n\
                     bitwise identical, faulted or not. Gray and partition\n\
                     plans price degraded servers down through the confidence\n\
                     EWMA, so they change the trajectory relative to a clean\n\
                     run — but stay bitwise identical across --threads and\n\
                     --backend for a given seed.\n\
                     --scrub-every N folds the quarantine scrub into the epoch\n\
                     loop every N epochs (0 = disabled, the default); scrubs\n\
                     are observability-only and never perturb the trajectory.\n\
                     --metrics-json writes an end-of-run JSON snapshot of the\n\
                     observability registry (per-phase timings, action\n\
                     counters, storage-engine totals). The sink is\n\
                     write-only: stdout and CSV are byte-identical with or\n\
                     without it."
                );
                std::process::exit(0);
            }
            other => return Err(format!("unknown flag: {other}")),
        }
    }
    Ok(args)
}

fn scenario_by_name(name: &str) -> Option<Scenario> {
    Some(match name {
        "base" => paper::base_scenario(),
        "fig2" => paper::fig2_scenario(),
        "fig3" => paper::fig3_scenario(),
        "fig4" => paper::fig4_scenario(),
        "fig5" => paper::fig5_scenario(),
        "outage" => paper::outage_scenario(),
        _ => return None,
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e} (try --help)");
            return ExitCode::FAILURE;
        }
    };
    let Some(mut scenario) = scenario_by_name(&args.scenario) else {
        eprintln!(
            "error: unknown scenario {:?} (expected base|fig2|fig3|fig4|fig5|outage)",
            args.scenario
        );
        return ExitCode::FAILURE;
    };
    if let Some(epochs) = args.epochs {
        scenario.epochs = epochs;
    }
    if let Some(seed) = args.seed {
        scenario.seed = seed;
    }
    scenario.config.backend = args.backend;
    // --fault-plan picks the fault family; --fault-seed seeds it (and
    // implies the all-families plan when no family was named). A plan
    // without an explicit seed inherits the scenario seed.
    let fault_kind = match (args.fault_plan, args.fault_seed) {
        (Some(kind), _) => Some(kind),
        (None, Some(_)) => Some(FaultPlanKind::All),
        (None, None) => None,
    };
    if let Some(kind) = fault_kind {
        scenario.config.fault_plan = FaultPlan {
            kind,
            seed: args.fault_seed.unwrap_or(scenario.seed),
        };
    }
    if let Some(threads) = args.threads {
        scenario.config.threads = threads;
    }
    if let Some(every) = args.scrub_every {
        scenario.config.scrub_every = every;
    }
    println!(
        "scenario {} — {} servers, {} apps, {} epochs, seed {}",
        scenario.name,
        scenario.topology.server_count(),
        scenario.apps.len(),
        scenario.epochs,
        scenario.seed
    );
    println!(
        "{:>6} {:>7} {:>8} {:>10} {:>9} {:>8} {:>9} {:>9}",
        "epoch", "alive", "vnodes", "rate", "used%", "fails", "repairs", "migr"
    );
    let epochs = scenario.epochs;
    let mut sim = Simulation::new(scenario);
    // Observability sink: attached only on request; it is write-only, so
    // the trajectory (stdout, CSV) is bitwise identical either way.
    let registry = args.metrics_json.as_ref().map(|_| Registry::new());
    if let Some(registry) = &registry {
        sim.attach_metrics(CloudMetrics::register(registry));
    }
    let mut recorder = Recorder::new();
    for epoch in 0..epochs {
        let obs = sim.step();
        if args.print_every > 0 && (epoch % args.print_every == 0 || epoch + 1 == epochs) {
            let r = &obs.report;
            println!(
                "{:>6} {:>7} {:>8} {:>10.0} {:>8.1}% {:>8} {:>9} {:>9}",
                r.epoch,
                r.alive_servers,
                r.total_vnodes(),
                obs.offered_rate,
                100.0 * r.storage_frac(),
                r.insert_failures,
                r.actions.availability_replications,
                r.actions.migrations,
            );
        }
        recorder.push(obs);
    }
    // Summary (absent when the run had zero epochs).
    if let Some(last) = recorder.observations().last() {
        println!("\nfinal state:");
        for ring in &last.report.rings {
            println!(
                "  {}: {} vnodes over {} partitions, SLA satisfied {:.1}%, mean availability {:.1}",
                ring.ring,
                ring.vnodes,
                ring.partitions,
                100.0 * ring.sla_satisfied_frac,
                ring.mean_availability,
            );
        }
    }
    if let Some(path) = args.csv {
        match recorder.write_csv(&path) {
            Ok(()) => println!("wrote {path}"),
            Err(e) => {
                eprintln!("error: could not write {path}: {e}");
                return ExitCode::FAILURE;
            }
        }
    }
    if let (Some(path), Some(registry)) = (&args.metrics_json, &registry) {
        sim.cloud().refresh_storage_metrics();
        if let Err(e) = std::fs::write(path, registry.render_json()) {
            eprintln!("error: could not write {path}: {e}");
            return ExitCode::FAILURE;
        }
        // To stderr: stdout stays byte-identical across metrics on/off.
        eprintln!("wrote {path}");
    }
    ExitCode::SUCCESS
}
