//! The two serving workloads: an in-process `SkuteServer` driven over
//! loopback TCP by [`crate::loadgen`], and — in the traced run — a
//! single-threaded *layer replay* of the same seeded request stream
//! through the public functions the server itself calls.

use std::io::{self, BufReader, Read};
use std::sync::Arc;
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

use skute_cluster::{Capacities, Cluster, ServerSpec};
use skute_core::{
    AppId, AppSpec, ClientRead, CloudMetrics, LevelSpec, ReadConsistency, SkuteCloud, SkuteConfig,
    TrafficBatch,
};
use skute_economy::scoring::{proximity, RegionQueries};
use skute_geo::{Location, RegionWeight, Topology};
use skute_obs::Registry;
use skute_ring::{RingId, VirtualRing};
use skute_server::{http, ServerConfig, SkuteServer};
use skute_store::BackendKind;

use crate::loadgen::{
    closed_loop, open_loop, scrape, Conn, KvClient, Mix, Op, OpStream, OpenLoop, Planned, Served,
};
use crate::report::{peak_rss_mib, setup_seconds, Outcome, RunArgs};
use crate::stats;
use crate::trace::Tracer;

/// Client threads, each with one connection: the host has two cores, and
/// the generator may not use more threads than that. They share one core
/// with the server (see [`confine_to_serving_core`]).
pub const CONNECTIONS: usize = 2;

/// Wall-clock milliseconds per epoch tick of the served cloud.
const EPOCH_MS: u64 = 100;

/// Share of the window the closed loop (phase A) gets; the open loop
/// (phase B) gets the rest.
const CLOSED_SHARE: f64 = 0.4;

/// Turns each phase takes in the end-to-end run; a metric is the median
/// over the turns of what one turn measured.
///
/// Two reasons. Measured over ten seeds (README.md has the table): with
/// one closed-loop phase followed by one open-loop phase, a single stall
/// owned the open loop's pooled p99 (128 ms and 51 ms where the other runs
/// read 4.3–7.5 ms), while it is one turn's reading among ten here. And by
/// construction: on `serve_write_lsm` the open loop only reads, so after
/// one long closed-loop phase it would see the stores frozen wherever the
/// writes left them in their flush and compaction cycle, while in turns it
/// samples that cycle ten times.
const TURNS: usize = 10;

/// Turns the untraced and the traced pass of the layer replay each take.
const REPLAY_TURNS: u32 = 8;

/// A phase-B request that took longer than this from its due time was
/// held up by something other than its own service: at these rates a
/// request is served in tens of microseconds.
const STALL: Duration = Duration::from_millis(1);

/// What distinguishes the two serving workloads.
#[derive(Debug, Clone, Copy)]
pub struct ServeSpec {
    /// Replica storage engine.
    pub backend: BackendKind,
    /// Partitions of the served ring.
    pub partitions: usize,
    /// Keys preloaded (and then read, overwritten, deleted).
    pub keys: usize,
    /// Bytes per value.
    pub value_bytes: usize,
    /// Request mix of the closed loop, the preload's overwrites and the
    /// layer replay.
    pub mix: Mix,
    /// Request mix of the open loop.
    pub open_mix: Mix,
    /// `X-Consistency` sent on reads (`None` = the server default, one).
    pub consistency: Option<&'static str>,
    /// Phase-B rate in requests per second over all connections.
    pub open_rate: f64,
    /// `scan(prefix, 20)` calls timed for `core.scan_us`.
    pub scan_reps: usize,
}

const READ_MOSTLY: Mix = Mix {
    get: 95,
    put: 5,
    delete: 0,
};

/// The spec of a serving workload by name.
pub fn spec(workload: &str) -> Option<ServeSpec> {
    match workload {
        // Fits memory by construction; M = 2000 makes the tick's lock hold
        // (≈ 5 ms every 100 ms) the thing that sets the open-loop tail.
        "serve_read_mem" => Some(ServeSpec {
            backend: BackendKind::Mem,
            partitions: 2000,
            keys: 20_000,
            value_bytes: 128,
            mix: READ_MOSTLY,
            open_mix: READ_MOSTLY,
            consistency: None,
            open_rate: 8_000.0,
            scan_reps: 20,
        }),
        // ≈ 225 KB per replica store against the 64 KiB memtable after the
        // preload and about as much again written inside the window, so
        // every one of the 96 stores flushes repeatedly and compacts while
        // it is measured. The preload costs ≈ 0.13 ms per key and runs
        // three times in every run, which is what caps the key count.
        "serve_write_lsm" => Some(ServeSpec {
            backend: BackendKind::Lsm,
            partitions: 32,
            keys: 24_000,
            value_bytes: 256,
            mix: Mix {
                get: 45,
                put: 50,
                delete: 5,
            },
            // Reads only: with writes in it the open loop's tail is the
            // sandbox disk's fsync (a memtable flush syncs the run, the
            // directory and the WAL under the cloud lock) and one-second
            // p99s ranged from 0.5 to 119 ms within single runs. The write
            // path is priced by the closed loop; the open loop reads the
            // runs those writes leave behind.
            open_mix: Mix {
                get: 100,
                put: 0,
                delete: 0,
            },
            consistency: Some("quorum"),
            open_rate: 2_000.0,
            scan_reps: 3,
        }),
        _ => None,
    }
}

/// The server configuration a workload runs under.
pub fn server_config(spec: &ServeSpec, seed: u64, epoch_ms: u64) -> ServerConfig {
    ServerConfig {
        replicas: 3,
        partitions: spec.partitions,
        seed,
        backend: spec.backend,
        epoch_ms,
        ..ServerConfig::default()
    }
}

/// The ten `X-Country` values of the paper topology.
pub fn countries(topology: &Topology) -> Vec<String> {
    topology
        .iter_countries()
        .map(|(ct, co)| format!("{ct}.{co}"))
        .collect()
}

/// A `SkuteServer` serving on its own thread.
pub struct RunningServer {
    /// `ip:port` it listens on.
    pub addr: String,
    thread: JoinHandle<io::Result<()>>,
}

impl RunningServer {
    /// Binds (which builds and warms the cloud) and starts serving.
    pub fn start(config: ServerConfig) -> io::Result<Self> {
        let server = SkuteServer::bind(config)?;
        let addr = server.addr().to_string();
        // The accept loop, the tick thread and every connection thread
        // descend from this thread and inherit its cores.
        let thread = thread::spawn(move || {
            confine_to_serving_core();
            server.run()
        });
        Ok(Self { addr, thread })
    }

    /// `POST /shutdown`, then waits for the server and every thread it
    /// started. Callers drop their connections first: a connection thread
    /// only ends when its peer hangs up.
    pub fn stop(self) -> io::Result<()> {
        let mut conn = Conn::connect(&self.addr)?;
        conn.request("POST", "/shutdown", &[("Connection", "close")], b"")?;
        drop(conn);
        self.thread
            .join()
            .map_err(|_| io::Error::other("server thread panicked"))?
    }
}

/// A served, preloaded cloud and the clients that preloaded it.
struct Serving {
    server: RunningServer,
    clients: Vec<KvClient>,
}

/// The seeded request stream of connection `conn_index`: the wire clients
/// and the layer replay draw from equal streams.
pub fn op_stream(spec: &ServeSpec, args: &RunArgs, conn_index: usize) -> OpStream {
    OpStream::new(
        args.seed,
        conn_index,
        CONNECTIONS,
        args.sized(spec.keys),
        spec.value_bytes,
        countries(&Topology::paper()),
    )
}

/// Bind + warm-up + preload: everything `setup_s` covers.
fn set_up(spec: &ServeSpec, args: &RunArgs) -> io::Result<Serving> {
    let server = RunningServer::start(server_config(spec, args.seed, EPOCH_MS))?;
    let mut clients = (0..CONNECTIONS)
        .map(|c| KvClient::connect(&server.addr, op_stream(spec, args, c), spec.consistency))
        .collect::<io::Result<Vec<_>>>()?;
    on_each(&mut clients, |_, client| client.preload());
    Ok(Serving { server, clients })
}

fn tear_down(serving: Serving) -> io::Result<()> {
    drop(serving.clients);
    serving.server.stop()
}

extern "C" {
    /// `sched_setaffinity(2)`, from the C library std already links.
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
}

/// Confines the calling thread — and every thread it starts from now on —
/// to the host's last core. Every thread of a serving run, generator and
/// server alike, is confined this way: the run has one core.
///
/// Left to the scheduler on this two-core VM, the four threads of a run
/// change cores every second or so, and a request whose client and server
/// thread sit on different cores pays a cross-core wake-up of an idle
/// virtual CPU. Ten seeds each way, interleaved in time (README.md has
/// the table): unpinned, `serve_read_mem`'s open-loop median was 63 µs
/// against 25 µs and the spread of `ops_per_s` 0.29 against 0.10;
/// `serve_write_lsm` served 16 % fewer requests with twice the spread.
/// Splitting the sides (generator on core 0, server on core 1) made every
/// request pay two such wake-ups and was no steadier. The cost is stated
/// in README.md: the numbers are one core's, and cross-core contention on
/// the cloud lock is never exercised. The tick thread still competes with
/// the connection threads for the lock, so taking the lock off the request
/// path (ROADMAP item 4) would still show.
///
/// Best effort: with one core there is nothing to do, and where the call
/// is refused the run is merely noisier.
fn confine_to_serving_core() {
    let cores = thread::available_parallelism()
        .map_or(1, |n| n.get())
        .min(64);
    if cores < 2 {
        return;
    }
    let mask: u64 = 1 << (cores - 1);
    // SAFETY: pid 0 names the calling thread; `mask` is a live, aligned
    // u64 and `cpusetsize` is exactly its size, so the kernel reads eight
    // valid bytes and writes nothing.
    let _ = unsafe { sched_setaffinity(0, std::mem::size_of::<u64>(), &mask) };
}

/// Runs `f(connection index, client)` on every client, one generator
/// thread each, and waits for all.
fn on_each<R: Send>(
    clients: &mut [KvClient],
    f: impl Fn(usize, &mut KvClient) -> R + Sync,
) -> Vec<R> {
    thread::scope(|scope| {
        let f = &f;
        let handles: Vec<_> = clients
            .iter_mut()
            .enumerate()
            .map(|(index, client)| {
                scope.spawn(move || {
                    confine_to_serving_core();
                    f(index, client)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    })
}

/// Phase A: every connection in a closed loop for `window`.
fn phase_a(clients: &mut [KvClient], mix: Mix, window: Duration) -> Vec<Vec<Served>> {
    let start = Instant::now();
    on_each(clients, |_, client| closed_loop(client, mix, start, window))
}

/// Phase B: `rate` requests per second spread evenly over the
/// connections, their schedules interleaved, for `window`.
fn phase_b(clients: &mut [KvClient], spec: &ServeSpec, window: Duration) -> Vec<OpenLoop> {
    let mix = spec.open_mix;
    let interval = Duration::from_secs_f64(CONNECTIONS as f64 / spec.open_rate);
    let count = (window.as_secs_f64() / interval.as_secs_f64()) as u64;
    let start = Instant::now() + Duration::from_millis(2);
    on_each(clients, |index, client| {
        let offset = interval.mul_f64(index as f64 / CONNECTIONS as f64);
        open_loop(start + offset, interval, count, || {
            let planned = client.stream.plan(mix);
            client.execute(planned);
        })
    })
}

fn completed(loops: &[Vec<Served>]) -> u64 {
    loops.iter().map(|l| l.len() as u64).sum()
}

/// What every connection measured in one phase-B turn.
fn merged(turn: &[OpenLoop]) -> Vec<u64> {
    turn.iter()
        .flat_map(|l| l.from_due_ns.iter().copied())
        .collect()
}

fn tally(clients: &[KvClient], outcome: &mut Outcome) {
    for client in clients {
        outcome.attempted += client.attempted;
        outcome.failed += client.failed;
        if let Some(first) = &client.first_failure {
            outcome.problem(format!("first failure: {first}"));
        }
    }
}

/// The end-to-end run: set-up (repeated for `setup_s`), phase A for
/// `ops_per_s`, phase B for `p50_us`, then every key re-read.
pub fn run_end_to_end(spec: &ServeSpec, args: &RunArgs) -> io::Result<Outcome> {
    let mut outcome = Outcome::default();
    let started = Instant::now();
    let mut serving = set_up(spec, args)?;
    let first_setup = started.elapsed().as_secs_f64();

    // The two phases take turns, and each metric is the median over the
    // turns of what one turn measured (see `TURNS`).
    let window = Duration::from_secs_f64(args.seconds);
    let a_turn = window.mul_f64(CLOSED_SHARE / TURNS as f64);
    let b_turn = window.mul_f64((1.0 - CLOSED_SHARE) / TURNS as f64);
    let mut rates = Vec::new();
    let mut open_turns = Vec::new();
    for _ in 0..TURNS {
        let a = phase_a(&mut serving.clients, spec.mix, a_turn);
        rates.push((completed(&a), a_turn.as_secs_f64()));
        open_turns.push(phase_b(&mut serving.clients, spec, b_turn));
    }
    outcome.set_rate(&rates, "closed loop, 2 connections, per turn");

    let sent: usize = open_turns
        .iter()
        .flatten()
        .map(|l| l.from_due_ns.len())
        .sum();
    let late: u64 = open_turns.iter().flatten().map(|l| l.late).sum();
    outcome.notes.push(format!(
        "open loop at {} req/s: late_frac {:.4}",
        spec.open_rate,
        late as f64 / sent.max(1) as f64
    ));
    outcome.set_latency_us(
        open_turns.iter().map(|turn| merged(turn)).collect(),
        "open loop, from due time, per turn",
    );

    on_each(&mut serving.clients, |_, client| client.verify_all());
    tally(&serving.clients, &mut outcome);
    tear_down(serving)?;
    outcome.set("peak_rss_mib", peak_rss_mib(), 1);
    let (setup_s, reps) = setup_seconds(first_setup, || {
        let started = Instant::now();
        let serving = set_up(spec, args)?;
        let seconds = started.elapsed().as_secs_f64();
        tear_down(serving)?;
        Ok(seconds)
    })?;
    outcome.set("setup_s", setup_s, reps);
    Ok(outcome)
}

/// Δ of one series between two scrapes (0 when absent from both).
fn delta(
    before: &std::collections::BTreeMap<String, f64>,
    after: &std::collections::BTreeMap<String, f64>,
    series: &str,
) -> f64 {
    after.get(series).copied().unwrap_or(0.0) - before.get(series).copied().unwrap_or(0.0)
}

const PHASES: [&str; 5] = [
    "traffic_plan",
    "traffic_commit",
    "repair",
    "decisions",
    "report",
];

/// The traced run: a shorter wire run bracketed by `/metrics` scrapes for
/// the server's and the store's counters, then the layer replay, without
/// spans and with them.
pub fn run_traced(spec: &ServeSpec, args: &RunArgs) -> io::Result<Outcome> {
    let mut outcome = Outcome::default();
    let quarter = Duration::from_secs_f64(args.seconds / 4.0);

    let mut serving = set_up(spec, args)?;
    let s0 = scrape(serving.clients[0].conn())?;
    let a = phase_a(&mut serving.clients, spec.mix, quarter);
    let s1 = scrape(serving.clients[0].conn())?;
    let b_started = Instant::now();
    let b = phase_b(&mut serving.clients, spec, quarter);
    let b_seconds = b_started.elapsed().as_secs_f64();
    let s2 = scrape(serving.clients[0].conn())?;
    on_each(&mut serving.clients, |_, client| client.verify_all());
    tally(&serving.clients, &mut outcome);
    tear_down(serving)?;

    // server: handler time from the server's own histogram around phase A.
    let (mut handler_sum, mut handler_count) = (0.0, 0.0);
    for (op, name) in [
        (Op::Get, "server.handler_us.get"),
        (Op::Put, "server.handler_us.put"),
        (Op::Delete, "server.handler_us.delete"),
    ] {
        let label = format!("{{op=\"{}\"}}", op.name());
        let sum = delta(
            &s0,
            &s1,
            &format!("skute_server_request_seconds_sum{label}"),
        );
        let count = delta(
            &s0,
            &s1,
            &format!("skute_server_request_seconds_count{label}"),
        );
        handler_sum += sum;
        handler_count += count;
        if count > 0.0 {
            outcome.set(name, sum / count * 1e6, count as u64);
        }
    }
    let client_mean_us = a
        .iter()
        .flatten()
        .map(|served| u64::from(served.service_ns))
        .sum::<u64>() as f64
        / completed(&a).max(1) as f64
        / 1e3;
    outcome.set(
        "server.wire_us",
        client_mean_us - handler_sum / handler_count.max(1.0) * 1e6,
        completed(&a),
    );

    // server: the tick's hold of the cloud lock during phase B, beside the
    // share of phase-B requests that were held up.
    let ticks = delta(&s1, &s2, "skute_server_epoch_ticks_total");
    let tick_seconds: f64 = PHASES
        .iter()
        .map(|p| {
            delta(
                &s1,
                &s2,
                &format!("skute_epoch_phase_seconds_sum{{phase=\"{p}\"}}"),
            )
        })
        .sum();
    outcome.set("server.ticks", ticks, ticks as u64);
    outcome.set(
        "server.tick_ms",
        tick_seconds / ticks.max(1.0) * 1e3,
        ticks as u64,
    );
    outcome.set(
        "server.tick_hold_frac",
        tick_seconds / b_seconds,
        ticks as u64,
    );
    let mut from_due: Vec<u64> = b
        .iter()
        .flat_map(|l| l.from_due_ns.iter().copied())
        .collect();
    from_due.sort_unstable();
    let sent = from_due.len() as u64;
    let stalled = from_due
        .iter()
        .filter(|&&ns| ns > STALL.as_nanos() as u64)
        .count();
    outcome.set("server.stall_frac", stalled as f64 / sent as f64, sent);
    outcome.set(
        "server.late_frac",
        b.iter().map(|l| l.late).sum::<u64>() as f64 / sent as f64,
        sent,
    );
    outcome.set(
        "server.open_p99_us",
        stats::quantile(&from_due, 0.99) as f64 / 1e3,
        sent,
    );
    outcome.set(
        "server.open_p999_us",
        stats::quantile(&from_due, 0.999) as f64 / 1e3,
        sent,
    );

    // core and store: what the cloud counted over both phases.
    for (name, series) in [
        ("core.quorum_reads", "skute_read_quorum_reads_total"),
        ("core.quorum_divergent", "skute_read_quorum_divergent_total"),
        (
            "core.read_repairs_applied",
            "skute_read_repairs_total{stage=\"applied\"}",
        ),
        ("core.degraded_reads", "skute_degraded_reads_total"),
        (
            "store.flushes",
            "skute_storage_engine_ops{op=\"memtable_flush\"}",
        ),
        (
            "store.compactions",
            "skute_storage_engine_ops{op=\"compaction\"}",
        ),
    ] {
        outcome.set(name, delta(&s0, &s2, series), 1);
    }
    let writes: f64 = ["put", "delete"]
        .iter()
        .map(|op| {
            delta(
                &s0,
                &s2,
                &format!("skute_server_requests_total{{op=\"{op}\"}}"),
            )
        })
        .sum();
    let appends = delta(&s0, &s2, "skute_storage_engine_ops{op=\"wal_append\"}");
    outcome.set(
        "store.wal_appends_per_write",
        appends / writes.max(1.0),
        writes as u64,
    );

    // The layer replay on one cloud, passes without and with spans taking
    // turns: the LSM stores keep changing under the writes, and two long
    // passes one after the other would compare two different stores.
    let mut replay = Replay::new(spec, args)?;
    let mut tracer = Some(Tracer::new());
    let (mut plain_requests, mut plain_seconds) = (0u64, 0.0);
    let (mut traced_requests, mut traced_seconds) = (0u64, 0.0);
    for _ in 0..REPLAY_TURNS {
        let (requests, seconds) = replay.run(quarter / REPLAY_TURNS, &mut None);
        plain_requests += requests;
        plain_seconds += seconds;
        let (requests, seconds) = replay.run(quarter / REPLAY_TURNS, &mut tracer);
        traced_requests += requests;
        traced_seconds += seconds;
    }
    let tracer = tracer.expect("the traced passes keep their tracer");
    let plain_rate = plain_requests as f64 / plain_seconds;
    let traced_rate = traced_requests as f64 / traced_seconds;
    outcome.set(
        "trace_overhead_frac",
        1.0 - traced_rate / plain_rate,
        traced_requests,
    );
    outcome.notes.push(format!(
        "layer replay: {plain_rate:.0} req/s without spans, {traced_rate:.0} req/s with"
    ));
    for (name, span) in [
        ("server.parse_ns", "server.parse"),
        ("server.write_ns", "server.write"),
        ("core.get_one_ns", "core.get_one"),
        ("core.get_quorum_ns", "core.get_quorum"),
        ("core.put_ns", "core.put"),
        ("core.delete_ns", "core.delete"),
    ] {
        let agg = tracer.aggregate(span);
        if agg.count > 0 {
            outcome.set(name, agg.mean_self_ns(), agg.count);
        }
    }
    replay.time_small_layers(spec, &mut outcome);
    outcome.attempted += replay.attempted;
    outcome.failed += replay.failed;
    if let Some(first) = replay.first_failure.take() {
        outcome.problem(format!("replay: {first}"));
    }
    tracer.write_json(
        &args.workload,
        &args.out_dir.join(format!("trace-{}.json", args.workload)),
    )?;
    Ok(outcome)
}

/// A cloud built with the public calls `SkuteServer::bind` makes, in the
/// same order, so that same seed ⇒ same placement as the wire server
/// before its first tick.
pub struct ReplayCloud {
    /// The cloud.
    pub cloud: SkuteCloud,
    /// Its one application.
    pub app: AppId,
    /// The paper topology it was built on.
    pub topology: Topology,
}

impl ReplayCloud {
    /// Builds and warms the cloud `config` describes.
    pub fn build(config: &ServerConfig) -> io::Result<Self> {
        let topology = Topology::paper();
        let cluster = Cluster::from_topology(&topology, |i, location| ServerSpec {
            location,
            capacities: Capacities::paper(
                config.server_storage_bytes,
                config.server_query_capacity,
            ),
            monthly_cost: if i % 10 < 7 { 100.0 } else { 125.0 },
            confidence: 1.0,
        });
        let cloud_config = SkuteConfig::paper()
            .with_seed(config.seed)
            .with_threads(config.threads)
            .with_backend(config.backend);
        let mut cloud = SkuteCloud::new(cloud_config, topology.clone(), cluster);
        let app = cloud
            .create_application(
                AppSpec::new("kv").level(LevelSpec::new(config.replicas, config.partitions)),
            )
            .map_err(|e| io::Error::other(format!("application setup failed: {e:?}")))?;
        cloud.set_metrics(CloudMetrics::register(&Arc::new(Registry::new())));
        let uniform: Vec<RegionWeight> = topology
            .iter_countries()
            .map(|(ct, co)| RegionWeight {
                location: Location::client_in_country(ct, co),
                weight: 1.0,
            })
            .collect();
        cloud.begin_epoch();
        for _ in 0..config.warmup_epochs {
            cloud
                .deliver_queries_multi(vec![TrafficBatch {
                    app,
                    level: 0,
                    queries: 50_000.0,
                    regions: uniform.clone(),
                }])
                .map_err(|e| io::Error::other(format!("warmup traffic failed: {e:?}")))?;
            cloud.end_epoch();
            cloud.begin_epoch();
        }
        Ok(Self {
            cloud,
            app,
            topology,
        })
    }

    /// The `Location` an `X-Country` header names, as the server derives
    /// it (`None` for a malformed or unknown country).
    pub fn client_location(&self, header: &str) -> Option<Location> {
        let (ct, co) = header.split_once('.')?;
        let (ct, co) = (ct.trim().parse().ok()?, co.trim().parse().ok()?);
        self.topology
            .iter_countries()
            .any(|c| c == (ct, co))
            .then(|| Location::client_in_country(ct, co))
    }
}

/// A reader the replay refills with one request's bytes at a time, so one
/// `BufReader` lives across requests as the server's per-connection
/// reader does.
#[derive(Default)]
struct Feed {
    bytes: Vec<u8>,
    pos: usize,
}

impl Read for Feed {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        let n = buf.len().min(self.bytes.len() - self.pos);
        buf[..n].copy_from_slice(&self.bytes[self.pos..self.pos + n]);
        self.pos += n;
        Ok(n)
    }
}

/// The layer replay: the connections' request streams, alternated on one
/// thread, each request taken through `server.parse` → `core.<op>` →
/// `server.write` by direct calls to the functions the server calls.
///
/// The status and header mapping between those calls is a copy of the
/// server's private handler (`crates/` is not this package's to change);
/// `tests/replay.rs` holds the copy to the handler, response for response.
pub struct Replay {
    target: ReplayCloud,
    streams: Vec<OpStream>,
    consistency: Option<&'static str>,
    mix: Mix,
    reader: BufReader<Feed>,
    response: Vec<u8>,
    /// Requests made under a tracer: the span's request id, so the kept
    /// spans are the first traced requests, whatever ran before them.
    traced: u32,
    attempted: u64,
    failed: u64,
    first_failure: Option<String>,
}

impl Replay {
    /// Builds the cloud and preloads it with the keys the wire clients
    /// preload, through the same request path.
    pub fn new(spec: &ServeSpec, args: &RunArgs) -> io::Result<Self> {
        let mut replay = Self {
            target: ReplayCloud::build(&server_config(spec, args.seed, EPOCH_MS))?,
            streams: (0..CONNECTIONS).map(|c| op_stream(spec, args, c)).collect(),
            consistency: spec.consistency,
            mix: spec.mix,
            reader: BufReader::new(Feed::default()),
            response: Vec::new(),
            traced: 0,
            attempted: 0,
            failed: 0,
            first_failure: None,
        };
        for index in 0..CONNECTIONS {
            for slot in 0..replay.streams[index].owned() {
                let planned = replay.streams[index].plan_at(Op::Put, slot);
                replay.request(index, planned, &mut None);
            }
        }
        Ok(replay)
    }

    /// Replays requests for `window`; returns how many and how long.
    fn run(&mut self, window: Duration, tracer: &mut Option<Tracer>) -> (u64, f64) {
        let started = Instant::now();
        let mut requests = 0u64;
        while started.elapsed() < window {
            // Check the clock once per round of connections, not per request.
            for index in 0..CONNECTIONS {
                self.step(index, tracer);
                requests += 1;
            }
        }
        (requests, started.elapsed().as_secs_f64())
    }

    /// Draws connection `index`'s next request from the workload's mix and
    /// takes it through the layers; returns what was drawn.
    pub fn step(&mut self, index: usize, tracer: &mut Option<Tracer>) -> Planned {
        let planned = self.streams[index].plan(self.mix);
        self.request(index, planned, tracer);
        planned
    }

    /// The bytes `server.write` produced for the latest request.
    pub fn last_response(&self) -> &[u8] {
        &self.response
    }

    /// Requests replayed so far, and how many of them failed their check.
    pub fn tally(&self) -> (u64, u64) {
        (self.attempted, self.failed)
    }

    fn fail(&mut self, what: String) {
        self.failed += 1;
        self.first_failure.get_or_insert(what);
    }

    /// One request through the three layers. The request bytes are built
    /// and the result is checked outside the spans: both are the
    /// generator's work, not the server's.
    fn request(&mut self, index: usize, planned: Planned, tracer: &mut Option<Tracer>) {
        let id = self.traced;
        if tracer.is_some() {
            self.traced = self.traced.saturating_add(1);
        }
        self.attempted += 1;
        let stream = &self.streams[index];
        let key = stream.key(planned.slot);
        let body = match planned.op {
            Op::Put => stream.value(planned.slot, planned.seq),
            _ => Vec::new(),
        };
        let method = match planned.op {
            Op::Get => "GET",
            Op::Put => "PUT",
            Op::Delete => "DELETE",
        };
        let mut headers = vec![("X-Country", stream.country(planned.country))];
        if let (Op::Get, Some(c)) = (planned.op, self.consistency) {
            headers.push(("X-Consistency", c));
        }
        let feed = self.reader.get_mut();
        feed.bytes.clear();
        feed.pos = 0;
        http::write_request(
            &mut feed.bytes,
            method,
            &format!("/kv/{key}"),
            &headers,
            &body,
        )
        .expect("writing to a Vec cannot fail");

        let enter = |t: &mut Option<Tracer>, name| {
            if let Some(t) = t {
                t.enter(name, id);
            }
        };
        let exit = |t: &mut Option<Tracer>| {
            if let Some(t) = t {
                t.exit();
            }
        };

        enter(tracer, "request");
        enter(tracer, "server.parse");
        let request = http::read_request(&mut self.reader)
            .expect("the replay wrote a well-formed request")
            .expect("the feed holds one request");
        let path = request.path();
        let key_bytes = path.as_bytes()["/kv/".len()..].to_vec();
        let client = request
            .header("x-country")
            .and_then(|h| self.target.client_location(h));
        let consistency = request
            .header("x-consistency")
            .map_or(Ok(ReadConsistency::One), |raw| {
                raw.trim().parse::<ReadConsistency>()
            })
            .expect("the replay sends a valid consistency");
        exit(tracer);

        let (cloud, app) = (&mut self.target.cloud, self.target.app);
        let mut read: Option<ClientRead> = None;
        let status = match planned.op {
            Op::Put => {
                enter(tracer, "core.put");
                let result = cloud.put(app, 0, &key_bytes, request.body.clone());
                exit(tracer);
                if result.is_ok() {
                    204
                } else {
                    500
                }
            }
            Op::Delete => {
                enter(tracer, "core.delete");
                let result = cloud.delete(app, 0, &key_bytes);
                exit(tracer);
                if result.is_ok() {
                    204
                } else {
                    500
                }
            }
            Op::Get => {
                enter(
                    tracer,
                    match consistency {
                        ReadConsistency::One => "core.get_one",
                        ReadConsistency::Quorum => "core.get_quorum",
                    },
                );
                let result = cloud.client_get_with(app, 0, &key_bytes, client, consistency);
                exit(tracer);
                match result {
                    Ok(r) => {
                        let status = if r.value.is_some() { 200 } else { 404 };
                        read = Some(r);
                        status
                    }
                    Err(_) => 500,
                }
            }
        };

        enter(tracer, "server.write");
        let mut extra: Vec<(String, String)> = match &read {
            Some(r) => vec![
                ("X-Served-By".to_string(), r.served_by.to_string()),
                ("X-Proximity".to_string(), format!("{:.6}", r.proximity)),
                ("X-Consistency".to_string(), consistency.to_string()),
                ("X-Replicas-Read".to_string(), r.replicas_read.to_string()),
            ],
            None => Vec::new(),
        };
        if read.as_ref().is_some_and(|r| r.degraded) {
            extra.push(("X-Degraded".to_string(), "true".to_string()));
        }
        let extra_refs: Vec<(&str, &str)> = extra
            .iter()
            .map(|(k, v)| (k.as_str(), v.as_str()))
            .collect();
        let found: Option<Option<&[u8]>> = read.as_ref().map(|r| r.value.as_deref());
        let (content_type, payload): (&str, &[u8]) = match found {
            Some(Some(value)) => ("application/octet-stream", value),
            Some(None) => ("text/plain", b"not found\n"),
            None => ("text/plain", b""),
        };
        self.response.clear();
        http::write_response(
            &mut self.response,
            status,
            content_type,
            payload,
            &extra_refs,
            true,
        )
        .expect("writing to a Vec cannot fail");
        exit(tracer);
        exit(tracer);

        match (planned.op, status, found) {
            (Op::Get, 200 | 404, Some(value)) => {
                if !self.streams[index].read_is_correct(planned.slot, value) {
                    let state = self.streams[index].state(planned.slot);
                    self.fail(format!(
                        "get {key}: expected {state:?}, got status {status}"
                    ));
                }
            }
            (Op::Put | Op::Delete, 204, _) => self.streams[index].settle(&planned, true),
            (op, status, _) => {
                self.streams[index].settle(&planned, false);
                self.fail(format!("{} {key}: status {status}", op.name()));
            }
        }
    }

    /// The small layers a request passes through, timed on their own:
    /// ring routing, eq.-(4) proximity, and the ring-wide scan.
    fn time_small_layers(&self, spec: &ServeSpec, outcome: &mut Outcome) {
        const CALLS: u64 = 200_000;
        let ring = VirtualRing::new(RingId::new(0, 0), spec.partitions);
        let keys: Vec<String> = (0..1024).map(|i| format!("k{i:06}")).collect();
        let started = Instant::now();
        for i in 0..CALLS {
            std::hint::black_box(ring.route(keys[i as usize % keys.len()].as_bytes()));
        }
        outcome.set(
            "ring.route_ns",
            started.elapsed().as_nanos() as f64 / CALLS as f64,
            CALLS,
        );

        let topology = &self.target.topology;
        let servers: Vec<Location> = topology.iter_servers().collect();
        let (ct, co) = topology.iter_countries().next().expect("a country");
        let regions = [RegionQueries {
            location: Location::client_in_country(ct, co),
            queries: 1.0,
        }];
        let started = Instant::now();
        for i in 0..CALLS {
            let server = &servers[i as usize % servers.len()];
            std::hint::black_box(proximity(&regions, server, topology));
        }
        outcome.set(
            "economy.proximity_ns",
            started.elapsed().as_nanos() as f64 / CALLS as f64,
            CALLS,
        );

        let started = Instant::now();
        for i in 0..spec.scan_reps {
            let prefix = format!("k{:04}", i * 7);
            let rows = self
                .target
                .cloud
                .scan(self.target.app, 0, prefix.as_bytes(), 20)
                .expect("the application exists");
            std::hint::black_box(rows);
        }
        outcome.set(
            "core.scan_us",
            started.elapsed().as_nanos() as f64 / 1e3 / spec.scan_reps as f64,
            spec.scan_reps as u64,
        );
    }
}
