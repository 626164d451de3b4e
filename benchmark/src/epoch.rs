//! `epoch_churn_m2000`: `skute_sim::Simulation` at M = 2000 under server
//! churn. The end-to-end run steps it with one worker thread; the traced
//! run also steps the same epochs with two, the only place `exec`'s pool
//! and the parallel commits execute.
//!
//! `core` (pipeline, placement, decisions, repair) and `economy` do all
//! the work here; no server and no LSM. The churn — every 60 epochs, 20
//! servers retired one per epoch and, ten epochs later, 20 added one per
//! epoch — keeps the decision and repair passes busy after the cold-start
//! convergence, which a steady scenario would leave idle.
//!
//! Servers leave one per epoch, not 20 at once: a simultaneous loss of 20
//! of 200 servers takes both replicas of about one in a hundred
//! two-replica partitions with it, so every run would report lost
//! partitions by construction. One at a time, the repair pass restores
//! each partition before the next server leaves, and "no partition lost"
//! is a check that can fail.
//!
//! One seed gives one trajectory whatever the thread count, so every run
//! re-executes epochs with threads = 2 and compares a checksum of every
//! epoch report.

use std::sync::Arc;
use std::time::Instant;

use skute_core::{CloudMetrics, EpochReport};
use skute_exec::WorkerPool;
use skute_obs::Registry;
use skute_sim::{paper, CloudEvent, Schedule, Simulation};

use crate::report::{peak_rss_mib, setup_seconds, Outcome, RunArgs};
use crate::trace::Tracer;

/// Partitions per application (three applications: 2, 3 and 4 replicas).
const PARTITIONS: usize = 2000;
/// Queries per epoch.
const QUERIES: u64 = 3000;
/// Servers retired, and later added back, per churn period — one per
/// epoch, so a period has as many retiring as adding epochs.
const CHURN: u64 = 20;
/// First retirement.
const FIRST_REMOVAL: u64 = 40;
/// Epochs from one period's first retirement to the next's.
const CHURN_PERIOD: u64 = 60;
/// Epochs from a period's first retirement to its first addition.
const ADD_AFTER: u64 = 30;
/// The schedule is laid out for this many epochs per second of window
/// (five times what this host steps at M = 2000) plus the settle epochs.
const SCHEDULE_EPOCHS_PER_SECOND: f64 = 400.0;

/// Epochs every run executes whatever the window: the exact-repeat counts
/// are taken over this prefix, and the other-thread-count reference run
/// covers it.
pub const PREFIX_EPOCHS: usize = 100;

fn scenario(args: &RunArgs, threads: usize) -> skute_sim::Scenario {
    let epochs = (args.seconds * args.shrink as f64 * SCHEDULE_EPOCHS_PER_SECOND) as u64
        + PREFIX_EPOCHS as u64
        + 2 * CHURN_PERIOD;
    let mut s = paper::scaled_scenario(&args.workload, args.sized(PARTITIONS), QUERIES, epochs);
    s.seed = args.seed;
    s.config = s.config.with_threads(threads);
    let mut schedule = Schedule::new();
    let mut removal = FIRST_REMOVAL;
    while removal < epochs {
        for i in 0..CHURN {
            schedule = schedule
                .at(removal + i, CloudEvent::RemoveServers { count: 1 })
                .at(removal + ADD_AFTER + i, CloudEvent::AddServers { count: 1 });
        }
        removal += CHURN_PERIOD;
    }
    s.schedule = schedule;
    s
}

/// FNV-1a over the fields of a report that define the trajectory.
fn fold_report(mut hash: u64, report: &EpochReport) -> u64 {
    let mut eat = |v: u64| {
        for byte in v.to_le_bytes() {
            hash = (hash ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    eat(report.epoch);
    eat(report.alive_servers as u64);
    eat(report.storage_used);
    eat(report.partitions_lost);
    eat(report.rent_paid.to_bits());
    eat(report.utility_earned.to_bits());
    let a = &report.actions;
    eat(a.availability_replications);
    eat(a.profit_replications);
    eat(a.migrations);
    eat(a.suicides);
    eat(a.replicated_bytes);
    eat(a.migrated_bytes);
    for ring in &report.rings {
        eat(ring.vnodes as u64);
        eat(ring.mean_availability.to_bits());
        eat(ring.queries_served.to_bits());
    }
    for (server, vnodes) in &report.vnodes_per_server {
        eat(u64::from(server.0));
        eat(*vnodes as u64);
    }
    hash
}

/// What stepping a simulation for a while produced.
#[derive(Default)]
struct Stepped {
    /// Wall time of each `step()`.
    step_ns: Vec<u64>,
    /// Running trajectory checksum after each epoch.
    checksums: Vec<u64>,
    /// Σ `total_vnodes` over the epochs: one decision per vnode per epoch.
    decisions: u64,
    /// Epochs that lost a partition's last replica.
    lost_epochs: u64,
    /// Counts over the first [`PREFIX_EPOCHS`] epochs.
    prefix: skute_core::ActionCounts,
    /// The last report.
    last: Option<EpochReport>,
}

impl Stepped {
    fn seconds(&self) -> f64 {
        self.step_ns.iter().sum::<u64>() as f64 / 1e9
    }

    /// Epochs executed, timed or not.
    fn epochs(&self) -> usize {
        self.checksums.len()
    }

    /// Folds one epoch's report into the checks (not into the timings).
    fn record(&mut self, report: EpochReport) {
        let previous = self
            .checksums
            .last()
            .copied()
            .unwrap_or(0xcbf2_9ce4_8422_2325);
        self.checksums.push(fold_report(previous, &report));
        self.decisions += report.total_vnodes() as u64;
        self.lost_epochs += u64::from(report.partitions_lost > 0);
        if self.epochs() <= PREFIX_EPOCHS {
            self.prefix.merge(&report.actions);
        }
        self.last = Some(report);
    }
}

/// Steps `sim` while `more(epochs so far, seconds stepped so far)` holds.
fn step_while(sim: &mut Simulation, mut more: impl FnMut(usize, f64) -> bool) -> Stepped {
    let mut out = Stepped::default();
    let mut seconds = 0.0;
    while more(out.epochs(), seconds) {
        let started = Instant::now();
        let observation = sim.step();
        let took = started.elapsed();
        seconds += took.as_secs_f64();
        out.step_ns.push(took.as_nanos() as u64);
        out.record(observation.report);
    }
    out
}

/// Steps past the window, untimed, to the quiet epochs between a period's
/// last retirement and its first addition, so the final-epoch SLA check
/// does not land in the dip a retirement causes by design.
fn settle(sim: &mut Simulation, stepped: &mut Stepped) {
    const SETTLE: u64 = CHURN + 5;
    loop {
        let epoch = stepped.epochs() as u64;
        let since_removal = (epoch + CHURN_PERIOD - FIRST_REMOVAL) % CHURN_PERIOD;
        if epoch >= FIRST_REMOVAL && since_removal == SETTLE {
            return;
        }
        stepped.record(sim.step().report);
    }
}

/// The checks every epoch run ends with: no partition lost, every ring at
/// its SLA, and the same trajectory with threads = 2 over the prefix.
fn check(args: &RunArgs, stepped: &Stepped, outcome: &mut Outcome) {
    outcome.attempted += stepped.epochs() as u64;
    outcome.failed += stepped.lost_epochs;
    let last = stepped.last.as_ref().expect("at least one epoch ran");
    for ring in &last.rings {
        if ring.sla_satisfied_frac < 1.0 {
            outcome.problem(format!(
                "ring {:?} at {:.4} SLA satisfaction in final epoch {}",
                ring.ring, ring.sla_satisfied_frac, last.epoch
            ));
        }
    }
    let epochs = PREFIX_EPOCHS.min(stepped.epochs());
    let mut reference = Simulation::new(scenario(args, 2));
    let reference = step_while(&mut reference, |n, _| n < epochs);
    same_trajectory(stepped, &reference, epochs, outcome);
}

/// Counts the first `epochs` epochs of two runs of one seed as checked, and
/// every epoch from their first differing checksum on as failed.
fn same_trajectory(a: &Stepped, b: &Stepped, epochs: usize, outcome: &mut Outcome) {
    outcome.attempted += epochs as u64;
    if let Some(first) = (0..epochs).find(|&e| a.checksums[e] != b.checksums[e]) {
        outcome.failed += (epochs - first) as u64;
        outcome.problem(format!(
            "the trajectories of two thread counts diverge at epoch {}",
            first + 1
        ));
    }
}

/// The stepping condition of a window of `share` of the run: until the
/// time is up, the prefix is covered, and the current churn period is
/// complete — the periods are the equal slices the metrics are taken over.
fn window_open(args: &RunArgs, share: f64) -> impl FnMut(usize, f64) -> bool {
    let window = args.seconds * share;
    let prefix = PREFIX_EPOCHS / args.shrink.min(PREFIX_EPOCHS);
    move |epochs, seconds| seconds < window || epochs < prefix || epochs as u64 % CHURN_PERIOD != 0
}

/// The end-to-end run, threads = 1: `ops_per_s` is epochs per second and
/// `p50_us` the median time of one `step()`, each the median over churn
/// periods (60 epochs holding the same 20 retiring, 20 adding and 20 quiet
/// epochs). No metrics sink is attached, so the pipeline takes no
/// timestamps of its own.
pub fn run_end_to_end(args: &RunArgs) -> std::io::Result<Outcome> {
    let mut outcome = Outcome::default();
    let started = Instant::now();
    let mut sim = Simulation::new(scenario(args, 1));
    let first_setup = started.elapsed().as_secs_f64();

    let mut stepped = step_while(&mut sim, window_open(args, 1.0));
    let periods: Vec<Vec<u64>> = stepped
        .step_ns
        .chunks_exact(CHURN_PERIOD as usize)
        .map(<[u64]>::to_vec)
        .collect();
    let rates: Vec<(u64, f64)> = periods
        .iter()
        .map(|p| (p.len() as u64, p.iter().sum::<u64>() as f64 / 1e9))
        .collect();
    outcome.set_rate(&rates, "epochs per churn period");
    outcome.set_latency_us(periods, "step()");

    settle(&mut sim, &mut stepped);
    drop(sim);
    outcome.set("peak_rss_mib", peak_rss_mib(), 1);
    check(args, &stepped, &mut outcome);
    let (setup_s, reps) = setup_seconds(first_setup, || {
        let started = Instant::now();
        let sim = Simulation::new(scenario(args, 1));
        let seconds = started.elapsed().as_secs_f64();
        drop(sim);
        Ok(seconds)
    })?;
    outcome.set("setup_s", setup_s, reps);
    Ok(outcome)
}

/// Span name and metric name of each pipeline phase, in the order of
/// [`phase_sums`].
const PHASES: [(&str, &str); 5] = [
    ("core.phase.traffic_plan", "core.phase_s.traffic_plan"),
    ("core.phase.traffic_commit", "core.phase_s.traffic_commit"),
    ("core.phase.repair", "core.phase_s.repair"),
    ("core.phase.decisions", "core.phase_s.decisions"),
    ("core.phase.report", "core.phase_s.report"),
];

fn phase_sums(metrics: &CloudMetrics) -> [f64; 5] {
    [
        metrics.phase_traffic_plan.sum(),
        metrics.phase_traffic_commit.sum(),
        metrics.phase_repair.sum(),
        metrics.phase_decisions.sum(),
        metrics.phase_report.sum(),
    ]
}

/// The traced run: the same epochs three times. Plain with threads = 1
/// for a third of the window; plain with threads = 2, whose trajectory
/// must equal the first pass epoch for epoch; and with threads = 1, a
/// `CloudMetrics` sink attached and one `sim.step` span per epoch whose
/// children are that epoch's phase times as the pipeline measured them
/// (what the children do not cover — query generation, `begin_epoch`,
/// scheduled events — is the span's self time, `sim.other_s`).
pub fn run_traced(args: &RunArgs) -> std::io::Result<Outcome> {
    let mut outcome = Outcome::default();
    let mut sim = Simulation::new(scenario(args, 1));
    let plain = step_while(&mut sim, window_open(args, 1.0 / 3.0));
    let epochs = plain.epochs();
    drop(sim);

    let mut sim = Simulation::new(scenario(args, 2));
    let parallel = step_while(&mut sim, |n, _| n < epochs);
    drop(sim);
    outcome.set(
        "core.epochs_per_s",
        epochs as f64 / plain.seconds(),
        epochs as u64,
    );
    outcome.set(
        "core.epochs_per_s_t2",
        epochs as f64 / parallel.seconds(),
        epochs as u64,
    );
    same_trajectory(&plain, &parallel, epochs, &mut outcome);

    let mut sim = Simulation::new(scenario(args, 1));
    let metrics = CloudMetrics::register(&Arc::new(Registry::new()));
    sim.attach_metrics(Arc::clone(&metrics));
    let mut tracer = Tracer::new();
    let mut before = phase_sums(&metrics);
    let mut epoch = 0u32;
    let mut traced = step_while(&mut sim, |n, _| {
        // Runs between steps: close the previous epoch's span, open the next.
        if n > 0 {
            let after = phase_sums(&metrics);
            let mut at = tracer.open_start_ns().expect("a step span is open");
            for (i, (span, _)) in PHASES.iter().enumerate() {
                let ns = ((after[i] - before[i]) * 1e9) as u64;
                tracer.child(span, epoch, at, ns);
                at += ns;
            }
            before = after;
            tracer.exit();
            epoch += 1;
        }
        let more = n < epochs;
        if more {
            tracer.enter("sim.step", epoch);
        }
        more
    });

    let per_epoch = |seconds: f64| seconds / epochs as f64;
    for (span, name) in PHASES {
        let agg = tracer.aggregate(span);
        outcome.set(name, per_epoch(agg.total_ns as f64 / 1e9), agg.count);
    }
    let step = tracer.aggregate("sim.step");
    outcome.set(
        "sim.other_s",
        per_epoch(step.self_ns as f64 / 1e9),
        step.count,
    );
    outcome.set(
        "trace_overhead_frac",
        1.0 - plain.seconds() / traced.seconds(),
        epochs as u64,
    );
    let mut step_ns = plain.step_ns.clone();
    step_ns.sort_unstable();
    outcome.set(
        "core.step_p99_ms",
        crate::stats::quantile(&step_ns, 0.99) as f64 / 1e6,
        epochs as u64,
    );
    outcome.set(
        "core.ns_per_decision",
        plain.seconds() * 1e9 / plain.decisions.max(1) as f64,
        plain.decisions,
    );
    let prefix = &plain.prefix;
    let actions = prefix.replications() + prefix.migrations + prefix.suicides;
    outcome.set("core.actions", actions as f64, actions);
    outcome.set(
        "core.spec_hit_rate",
        prefix.spec_hit_rate().unwrap_or(0.0),
        prefix.spec_hits + prefix.spec_misses,
    );
    outcome.set(
        "core.decision_batches",
        prefix.decision_batches as f64,
        prefix.decision_batches,
    );
    outcome.set(
        "core.batch_conflicts",
        prefix.batch_conflicts as f64,
        prefix.batch_conflicts,
    );
    outcome.set("exec.dispatch_us", dispatch_us(), DISPATCHES);
    outcome.notes.push(format!(
        "{epochs} epochs: {:.1}/s plain, {:.1}/s with the metrics sink and spans",
        epochs as f64 / plain.seconds(),
        epochs as f64 / traced.seconds()
    ));

    if plain.checksums != traced.checksums {
        outcome.problem("attaching the metrics sink changed the trajectory");
    }
    settle(&mut sim, &mut traced);
    check(args, &traced, &mut outcome);
    tracer.write_json(
        &args.workload,
        &args.out_dir.join(format!("trace-{}.json", args.workload)),
    )?;
    Ok(outcome)
}

const DISPATCHES: u64 = 10_000;

/// Mean cost of handing the two-thread pool a batch of 64 empty tasks:
/// what every parallel region pays before any work is done.
fn dispatch_us() -> f64 {
    let pool = WorkerPool::new(2);
    let started = Instant::now();
    for _ in 0..DISPATCHES {
        let done = pool.run_tasks((0..64u32).collect(), |_, task| task);
        std::hint::black_box(done);
    }
    started.elapsed().as_secs_f64() * 1e6 / DISPATCHES as f64
}
