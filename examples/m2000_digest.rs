//! Trajectory digest of the epoch loop at M = 2000 under server churn.
//!
//! Runs `paper::scaled_scenario("epoch_churn_m2000", 2000, 3000, E)` with
//! the benchmark's churn schedule (from epoch 40, every 60 epochs, 20
//! servers retired one per epoch and, 30 epochs later, 20 added one per
//! epoch) and folds every epoch's `format!("{:?}", observation)` into one
//! FNV-1a hash. Two trees with equal digests for a seed stepped the same
//! trajectory, bit for bit, on the host that ran both: `Debug` prints every
//! float so that it parses back to the same bits.
//!
//! Run with: `cargo run --release --example m2000_digest -- [SEED] [EPOCHS]`
//! (defaults: seed 1, 700 epochs). Prints the running digest every 100
//! epochs and the final one last.

use skute::sim::{paper, CloudEvent, Schedule, Simulation};

/// Partitions per application (three applications: 2, 3 and 4 replicas).
const PARTITIONS: usize = 2000;
/// Queries per epoch.
const QUERIES: u64 = 3000;
/// Servers retired, and later added back, per churn period.
const CHURN: u64 = 20;
/// First retirement.
const FIRST_REMOVAL: u64 = 40;
/// Epochs from one period's first retirement to the next's.
const CHURN_PERIOD: u64 = 60;
/// Epochs from a period's first retirement to its first addition.
const ADD_AFTER: u64 = 30;

/// FNV-1a over `bytes`, continuing from `hash`.
fn fnv1a(mut hash: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        hash = (hash ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

fn main() {
    let mut args = std::env::args().skip(1);
    let mut arg = |name: &str, default: u64| match args.next() {
        None => default,
        Some(v) => v
            .parse()
            .unwrap_or_else(|_| panic!("{name} must be an unsigned integer, got {v:?}")),
    };
    let seed = arg("SEED", 1);
    let epochs = arg("EPOCHS", 700);

    let mut scenario = paper::scaled_scenario("epoch_churn_m2000", PARTITIONS, QUERIES, epochs);
    scenario.seed = seed;
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
    scenario.schedule = schedule;

    let mut sim = Simulation::new(scenario);
    let mut digest = 0xcbf2_9ce4_8422_2325;
    for epoch in 1..=epochs {
        let observation = sim.step();
        digest = fnv1a(digest, format!("{observation:?}").as_bytes());
        if epoch % 100 == 0 && epoch != epochs {
            println!("epoch {epoch:>5}: {digest:016x}");
        }
    }
    println!("seed {seed} epochs {epochs} digest {digest:016x}");
}
