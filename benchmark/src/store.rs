//! `store_direct_lsm`: one `LsmStore` driven through its public functions,
//! with the in-memory `PartitionStore` executing the same script as oracle.
//!
//! No server, no routing, one client, no timers: the store's flush,
//! compaction and WAL counts repeat exactly for a seed. The script mixes
//! the uses that trade against each other in an LSM — fresh puts,
//! overwrites, hits, misses, a full scan, a fork (bulk copy) and a crash
//! recovery — so a gain for one that costs another shows in `ops_per_s`.
//!
//! Flush policy, as the engine ships: every accepted write is appended to
//! the WAL with `write_all` + `File::flush` (no fsync), the memtable
//! flushes to a sorted run at 64 KiB, and more than four runs compact
//! into one. Latencies are this sandbox's page-cache numbers, not a
//! device's.

use std::time::Instant;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use skute_store::{LsmStore, PartitionStore, Record, Version};

use crate::report::{peak_rss_mib, setup_seconds, Outcome, RunArgs};
use crate::trace::Tracer;

/// Keys loaded during set-up (≈ 6 MB of entries against a 64 KiB memtable:
/// larger than the store's own cache by two orders of magnitude).
const KEYS: usize = 20_000;
/// Bytes per value.
const VALUE_BYTES: usize = 256;
/// Point operations of each kind per cycle.
const PER_CYCLE: usize = 1_000;
/// Cycles per group; a group ends with one scan, one fork and one
/// recovery, and the window is only checked between groups so every run
/// measures the same mix.
const CYCLES_PER_GROUP: usize = 5;

fn key(index: usize) -> Vec<u8> {
    format!("k{index:06}").into_bytes()
}

/// A key that sorts between two loaded keys and is never written.
fn missing_key(index: usize) -> Vec<u8> {
    format!("k{index:06}~").into_bytes()
}

fn value(index: usize, seq: u64) -> Vec<u8> {
    let mut v = format!("k{index:06}|{seq}|").into_bytes();
    v.resize(v.len().max(VALUE_BYTES), b'.');
    v
}

/// The store under test, its oracle, and the script's position.
struct Script {
    lsm: LsmStore,
    oracle: PartitionStore,
    rng: StdRng,
    keys: usize,
    per_cycle: usize,
    seq: u64,
    /// LSM calls made.
    calls: u64,
    /// LSM calls made under a tracer: the span's request id, so the kept
    /// spans are the first traced calls, not the first calls.
    traced_calls: u32,
    /// Time spent inside LSM calls: the window counts this, not the
    /// oracle's work or the checks.
    busy_ns: u64,
    /// Per-call samples of the point operations (overwrite, hit, miss).
    point_ns: Vec<u64>,
    timings: Timings,
    attempted: u64,
    failed: u64,
    problems: Vec<String>,
}

/// One group of the script: the equal slice the metrics are taken over.
struct Group {
    calls: u64,
    seconds: f64,
    point_ns: Vec<u64>,
}

fn rate(groups: &[Group]) -> f64 {
    groups.iter().map(|g| g.calls).sum::<u64>() as f64
        / groups.iter().map(|g| g.seconds).sum::<f64>()
}

/// Σ nanoseconds and call counts per kind of call.
#[derive(Default)]
struct Timings {
    put: (u64, u64),
    overwrite: (u64, u64),
    hit: (u64, u64),
    miss: (u64, u64),
    scan: (u64, u64),
    fork: (u64, u64),
    replay: (u64, u64),
    mem_put: (u64, u64),
    mem_get: (u64, u64),
    space_amp: (f64, u64),
}

fn mean((sum, count): (u64, u64)) -> f64 {
    sum as f64 / count.max(1) as f64
}

impl Script {
    fn new(args: &RunArgs) -> Self {
        Self {
            lsm: LsmStore::create(),
            oracle: PartitionStore::new(),
            rng: StdRng::seed_from_u64(args.seed ^ 0x5703_e5ee_d000_0001),
            keys: args.sized(KEYS),
            per_cycle: args.sized(PER_CYCLE),
            seq: 0,
            calls: 0,
            traced_calls: 0,
            busy_ns: 0,
            point_ns: Vec::new(),
            timings: Timings::default(),
            attempted: 0,
            failed: 0,
            problems: Vec::new(),
        }
    }

    /// Times one LSM call, inside a span when tracing.
    fn timed<T>(
        &mut self,
        tracer: &mut Option<Tracer>,
        span: &'static str,
        call: impl FnOnce(&mut LsmStore) -> T,
    ) -> (T, u64) {
        if let Some(t) = tracer {
            t.enter(span, self.traced_calls);
            self.traced_calls = self.traced_calls.saturating_add(1);
        }
        let started = Instant::now();
        let out = call(&mut self.lsm);
        let ns = started.elapsed().as_nanos() as u64;
        if let Some(t) = tracer {
            t.exit();
        }
        self.calls += 1;
        self.busy_ns += ns;
        (out, ns)
    }

    fn next_version(&mut self) -> Version {
        self.seq += 1;
        Version::new(1, self.seq, 0)
    }

    /// Writes `index` to the LSM (timed) and to the oracle.
    fn put(&mut self, index: usize, tracer: &mut Option<Tracer>, span: &'static str) -> u64 {
        let version = self.next_version();
        let record = Record::put(value(index, self.seq), version);
        let for_lsm = record.clone();
        let (applied, ns) = self.timed(tracer, span, |lsm| lsm.apply(key(index), for_lsm));
        let started = Instant::now();
        let oracle_applied = self.oracle.apply(key(index), record);
        self.timings.mem_put.0 += started.elapsed().as_nanos() as u64;
        self.timings.mem_put.1 += 1;
        self.attempted += 1;
        if applied != oracle_applied {
            self.failed += 1;
        }
        ns
    }

    /// The load pass: every key once, in a seeded hashed order. This is
    /// the workload's set-up.
    fn load(&mut self, tracer: &mut Option<Tracer>) {
        // An odd step walks every residue of a power-of-two modulus, and a
        // long one leaves no two neighbours adjacent; indices past `keys`
        // are skipped.
        let modulus = self.keys.next_power_of_two().max(4);
        let step = self.rng.gen_range(modulus / 4..modulus / 2) | 1;
        let mut at = self.rng.gen_range(0..modulus);
        for _ in 0..modulus {
            at = (at + step) % modulus;
            if at < self.keys {
                let ns = self.put(at, tracer, "store.put");
                self.timings.put.0 += ns;
                self.timings.put.1 += 1;
            }
        }
        self.compare_with_oracle("after the load pass");
    }

    /// One cycle: `per_cycle` overwrites, then as many hits, then as many
    /// misses, each on uniformly drawn keys.
    fn cycle(&mut self, tracer: &mut Option<Tracer>) {
        for _ in 0..self.per_cycle {
            let index = self.rng.gen_range(0..self.keys);
            let ns = self.put(index, tracer, "store.overwrite");
            self.point_ns.push(ns);
            self.timings.overwrite.0 += ns;
            self.timings.overwrite.1 += 1;
        }
        for _ in 0..self.per_cycle {
            let index = self.rng.gen_range(0..self.keys);
            let k = key(index);
            let (found, ns) = self.timed(tracer, "store.get_hit", |lsm| lsm.get(&k));
            self.point_ns.push(ns);
            self.timings.hit.0 += ns;
            self.timings.hit.1 += 1;
            let started = Instant::now();
            let expected = self.oracle.get(&k).cloned();
            self.timings.mem_get.0 += started.elapsed().as_nanos() as u64;
            self.timings.mem_get.1 += 1;
            self.attempted += 1;
            if found != expected || found.is_none() {
                self.failed += 1;
            }
        }
        for _ in 0..self.per_cycle {
            let k = missing_key(self.rng.gen_range(0..self.keys));
            let (found, ns) = self.timed(tracer, "store.get_miss", |lsm| lsm.get(&k));
            self.point_ns.push(ns);
            self.timings.miss.0 += ns;
            self.timings.miss.1 += 1;
            self.attempted += 1;
            if found.is_some() {
                self.failed += 1;
            }
        }
    }

    /// The bulk operations that end a group: a full ordered scan, a fork,
    /// and a crash (the store is leaked with `mem::forget`, so nothing is
    /// flushed or cleaned up) followed by `LsmStore::open`, which replays
    /// the WAL.
    fn bulk(&mut self, tracer: &mut Option<Tracer>) {
        let ((entries, bytes), ns) = self.timed(tracer, "store.scan", |lsm| {
            let (mut entries, mut bytes) = (0u64, 0u64);
            lsm.for_each(&mut |k, record| {
                entries += 1;
                bytes += k.len() as u64 + record.logical_size;
            });
            (entries, bytes)
        });
        self.timings.scan.0 += ns;
        self.timings.scan.1 += 1;
        self.attempted += 1;
        if entries != self.oracle.len() as u64 || bytes != self.oracle.logical_bytes() {
            self.failed += 1;
            self.problems.push(format!(
                "scan saw {entries} entries / {bytes} bytes, oracle holds {} / {}",
                self.oracle.len(),
                self.oracle.logical_bytes()
            ));
        }

        let ((fork, _copied), ns) = self.timed(tracer, "store.fork", |lsm| lsm.fork());
        self.timings.fork.0 += ns;
        self.timings.fork.1 += 1;
        self.attempted += 1;
        if fork.len() != self.oracle.len() || fork.logical_bytes() != self.oracle.logical_bytes() {
            self.failed += 1;
            self.problems
                .push("a fork differs from the oracle".to_string());
        }
        drop(fork);

        let amp = self.lsm.physical_bytes() as f64 / self.lsm.logical_bytes().max(1) as f64;
        self.timings.space_amp.0 += amp;
        self.timings.space_amp.1 += 1;

        let dir = self.lsm.dir().to_path_buf();
        let ((), ns) = self.timed(tracer, "store.replay", |lsm| {
            let crashed = std::mem::replace(lsm, LsmStore::create());
            std::mem::forget(crashed);
            *lsm = LsmStore::open(dir);
        });
        self.timings.replay.0 += ns;
        self.timings.replay.1 += 1;
        self.attempted += 1;
        self.compare_with_oracle("after WAL replay");
    }

    /// Full state comparison: same keys, same records, same accounting.
    fn compare_with_oracle(&mut self, when: &str) {
        let snapshot = self.lsm.snapshot();
        let equal = snapshot.len() == self.oracle.len()
            && self.lsm.logical_bytes() == self.oracle.logical_bytes()
            && snapshot.iter().eq(self.oracle.iter());
        if !equal {
            self.failed += 1;
            self.problems
                .push(format!("LSM state differs from the oracle {when}"));
        }
    }

    /// Runs whole groups until `seconds` of LSM time have been spent.
    /// Returns, per group, the calls made, the LSM time they took and the
    /// point operations' samples.
    fn run(&mut self, seconds: f64, tracer: &mut Option<Tracer>) -> Vec<Group> {
        let started = self.busy_ns;
        let mut groups = Vec::new();
        while ((self.busy_ns - started) as f64) < seconds * 1e9 {
            let (busy, calls) = (self.busy_ns, self.calls);
            for _ in 0..CYCLES_PER_GROUP {
                self.cycle(tracer);
            }
            self.bulk(tracer);
            groups.push(Group {
                calls: self.calls - calls,
                seconds: (self.busy_ns - busy) as f64 / 1e9,
                point_ns: std::mem::take(&mut self.point_ns),
            });
        }
        groups
    }

    fn finish(mut self, outcome: &mut Outcome) {
        self.compare_with_oracle("at the end of the run");
        outcome.attempted += self.attempted;
        outcome.failed += self.failed;
        for problem in self.problems.drain(..) {
            outcome.problem(problem);
        }
    }
}

/// The end-to-end run. `setup_s` is create + load pass; `ops_per_s` is
/// store calls per second of store time; `p50_us` is over the point
/// operations (equal thirds overwrite, hit, miss). Each is the median over
/// the groups of the script.
pub fn run_end_to_end(args: &RunArgs) -> std::io::Result<Outcome> {
    let mut outcome = Outcome::default();
    let loaded = |args: &RunArgs| {
        let started = Instant::now();
        let mut script = Script::new(args);
        script.load(&mut None);
        (script, started.elapsed().as_secs_f64())
    };
    let (mut script, first_setup) = loaded(args);
    let groups = script.run(args.seconds, &mut None);
    let rates: Vec<(u64, f64)> = groups.iter().map(|g| (g.calls, g.seconds)).collect();
    outcome.set_rate(&rates, "store calls per group");
    outcome.set_latency_us(
        groups.into_iter().map(|g| g.point_ns).collect(),
        "point operations",
    );
    script.finish(&mut outcome);
    outcome.set("peak_rss_mib", peak_rss_mib(), 1);
    let (setup_s, reps) = setup_seconds(first_setup, || {
        let (script, seconds) = loaded(args);
        script.finish(&mut outcome);
        Ok(seconds)
    })?;
    outcome.set("setup_s", setup_s, reps);
    Ok(outcome)
}

/// The traced run: half the window plain, half with one span per store
/// call; per-call means, the engine's exact counts after the load pass,
/// and the oracle's times beside them.
pub fn run_traced(args: &RunArgs) -> std::io::Result<Outcome> {
    let mut outcome = Outcome::default();
    let mut script = Script::new(args);
    script.load(&mut None);
    let activity = script.lsm.activity();
    for (name, count) in [
        ("store.wal_appends", activity.wal_appends),
        ("store.flushes", activity.memtable_flushes),
        ("store.compactions", activity.compactions),
    ] {
        outcome.set(name, count as f64, count);
    }

    let plain = script.run(args.seconds / 2.0, &mut None);
    let mut tracer = Some(Tracer::new());
    let traced = script.run(args.seconds / 2.0, &mut tracer);
    let tracer = tracer.expect("the traced pass keeps its tracer");
    outcome.set(
        "trace_overhead_frac",
        1.0 - rate(&traced) / rate(&plain),
        traced.iter().map(|g| g.calls).sum(),
    );

    let mut point_ns: Vec<u64> = plain
        .iter()
        .flat_map(|g| g.point_ns.iter().copied())
        .collect();
    point_ns.sort_unstable();
    outcome.set(
        "store.point_p99_us",
        crate::stats::quantile(&point_ns, 0.99) as f64 / 1e3,
        point_ns.len() as u64,
    );

    let t = &script.timings;
    for (name, timing, scale) in [
        ("store.put_ns", t.put, 1.0),
        ("store.overwrite_ns", t.overwrite, 1.0),
        ("store.get_hit_ns", t.hit, 1.0),
        ("store.get_miss_ns", t.miss, 1.0),
        ("store.scan_ms", t.scan, 1e-6),
        ("store.fork_ms", t.fork, 1e-6),
        ("store.replay_ms", t.replay, 1e-6),
        ("store.mem_put_ns", t.mem_put, 1.0),
        ("store.mem_get_ns", t.mem_get, 1.0),
    ] {
        outcome.set(name, mean(timing) * scale, timing.1);
    }
    outcome.set(
        "store.space_amp",
        t.space_amp.0 / t.space_amp.1.max(1) as f64,
        t.space_amp.1,
    );
    script.finish(&mut outcome);
    tracer.write_json(
        &args.workload,
        &args.out_dir.join(format!("trace-{}.json", args.workload)),
    )?;
    Ok(outcome)
}
