//! The HTTP front end: a [`SkuteCloud`] behind a thread-per-connection
//! TCP listener, with an epoch tick thread that feeds observed per-country
//! traffic back into the economy and a `/metrics` endpoint exposing the
//! full [`skute_core::CloudMetrics`] catalogue plus server-side request
//! metrics.

use std::collections::BTreeMap;
use std::io::{self, BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, PoisonError};
use std::thread;
use std::time::{Duration, Instant};

use skute_cluster::{Capacities, Cluster, ServerSpec};
use skute_core::{
    AppId, AppSpec, CoreError, FaultPlan, FaultPlanKind, LevelSpec, ReadConsistency, SkuteCloud,
    SkuteConfig, TrafficBatch,
};
use skute_geo::{Location, RegionWeight, Topology};
use skute_obs::{exponential_buckets, Counter, Gauge, Histogram, Registry};
use skute_store::{BackendKind, StoreError};

use crate::http::{self, Request};

/// Configuration for [`SkuteServer::bind`].
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Listen address (`127.0.0.1:0` picks a free port).
    pub addr: String,
    /// Replicas per partition of the served ring (the SLA's `n`).
    pub replicas: usize,
    /// Partitions of the served ring.
    pub partitions: usize,
    /// Seed for the cloud's decision process.
    pub seed: u64,
    /// Worker threads for the epoch pipeline (1 = sequential).
    pub threads: usize,
    /// Storage backend for the replicas.
    pub backend: BackendKind,
    /// Wall-clock milliseconds per epoch tick (0 disables the tick
    /// thread; epochs then only advance via [`SkuteServer::tick_now`]).
    pub epoch_ms: u64,
    /// Epochs of uniform warmup traffic driven before serving, so the
    /// rings reach their SLA replica counts.
    pub warmup_epochs: u64,
    /// Per-server storage capacity in bytes.
    pub server_storage_bytes: u64,
    /// Per-server query capacity per epoch.
    pub server_query_capacity: f64,
    /// Query-units each HTTP request contributes to the epoch's offered
    /// load (scales request counts to the economy's units).
    pub queries_per_request: f64,
    /// Per-connection socket read timeout in milliseconds (0 = none).
    /// Bounds how long a stalled client can pin a connection thread.
    pub read_timeout_ms: u64,
    /// Per-connection socket write timeout in milliseconds (0 = none).
    pub write_timeout_ms: u64,
}

impl Default for ServerConfig {
    fn default() -> Self {
        Self {
            addr: "127.0.0.1:0".to_string(),
            replicas: 3,
            partitions: 32,
            seed: 42,
            threads: 1,
            backend: BackendKind::Mem,
            epoch_ms: 1_000,
            warmup_epochs: 8,
            server_storage_bytes: 4 << 30,
            server_query_capacity: 3_000.0,
            queries_per_request: 1.0,
            read_timeout_ms: 30_000,
            write_timeout_ms: 30_000,
        }
    }
}

/// What a request asks for: the `op` label of the request metrics and
/// the index of their per-operation tables.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Op {
    Get,
    Put,
    Delete,
    Scan,
    Metrics,
    Health,
    Fault,
    Shutdown,
    Other,
}

impl Op {
    /// Every operation, in declaration (= registration and index) order.
    const ALL: [Op; 9] = [
        Op::Get,
        Op::Put,
        Op::Delete,
        Op::Scan,
        Op::Metrics,
        Op::Health,
        Op::Fault,
        Op::Shutdown,
        Op::Other,
    ];

    /// The operation of `method` on the percent-decoded `path`.
    fn of(method: &str, path: &[u8]) -> Op {
        match (method, path) {
            ("GET", b"/metrics") => Op::Metrics,
            ("GET", b"/healthz") => Op::Health,
            ("POST", b"/fault") => Op::Fault,
            ("POST", b"/shutdown") => Op::Shutdown,
            ("GET", b"/scan") => Op::Scan,
            ("GET", p) if p.starts_with(b"/kv/") => Op::Get,
            ("PUT", p) if p.starts_with(b"/kv/") => Op::Put,
            ("DELETE", p) if p.starts_with(b"/kv/") => Op::Delete,
            _ => Op::Other,
        }
    }

    fn as_str(self) -> &'static str {
        match self {
            Op::Get => "get",
            Op::Put => "put",
            Op::Delete => "delete",
            Op::Scan => "scan",
            Op::Metrics => "metrics",
            Op::Health => "health",
            Op::Fault => "fault",
            Op::Shutdown => "shutdown",
            Op::Other => "other",
        }
    }
}

/// The class a response status falls in: the `outcome` label of
/// `skute_server_responses_total` and the index of its table.
#[derive(Debug, Clone, Copy)]
enum Outcome {
    Ok,
    NotFound,
    ClientError,
    ServerError,
}

impl Outcome {
    const ALL: [Outcome; 4] = [
        Outcome::Ok,
        Outcome::NotFound,
        Outcome::ClientError,
        Outcome::ServerError,
    ];

    fn of(status: u16) -> Outcome {
        match status {
            200..=299 => Outcome::Ok,
            404 => Outcome::NotFound,
            400..=499 => Outcome::ClientError,
            _ => Outcome::ServerError,
        }
    }

    fn as_str(self) -> &'static str {
        match self {
            Outcome::Ok => "ok",
            Outcome::NotFound => "not_found",
            Outcome::ClientError => "client_error",
            Outcome::ServerError => "server_error",
        }
    }
}

/// Server-side request metrics, registered alongside the cloud's. The
/// per-operation and per-outcome tables are indexed by `Op as usize` and
/// `Outcome as usize`.
struct ServerMetrics {
    requests: [Counter; Op::ALL.len()],
    latency: [Histogram; Op::ALL.len()],
    responses: [Counter; Outcome::ALL.len()],
    active_connections: Gauge,
    epoch_pending_queries: Gauge,
    epoch_ticks: Counter,
}

impl ServerMetrics {
    fn register(registry: &Registry) -> Self {
        Self {
            requests: Op::ALL.map(|op| {
                registry.counter_with(
                    "skute_server_requests_total",
                    "HTTP requests accepted, by operation.",
                    &[("op", op.as_str())],
                )
            }),
            latency: Op::ALL.map(|op| {
                registry.histogram_with(
                    "skute_server_request_seconds",
                    "Request handling latency, by operation.",
                    &[("op", op.as_str())],
                    &exponential_buckets(1e-5, 4.0, 10),
                )
            }),
            responses: Outcome::ALL.map(|outcome| {
                registry.counter_with(
                    "skute_server_responses_total",
                    "HTTP responses written, by outcome class (requests minus responses counts requests that died unanswered).",
                    &[("outcome", outcome.as_str())],
                )
            }),
            active_connections: registry.gauge(
                "skute_server_active_connections",
                "Currently open client connections.",
            ),
            epoch_pending_queries: registry.gauge(
                "skute_server_epoch_pending_queries",
                "Query-units charged since the last epoch tick, rounded (request queue depth in economy units).",
            ),
            epoch_ticks: registry.counter(
                "skute_server_epoch_ticks_total",
                "Epoch ticks driven by the server.",
            ),
        }
    }
}

/// The cloud plus the per-epoch traffic tally, guarded by one mutex so
/// client operations and epoch ticks serialize.
struct CloudSlot {
    cloud: SkuteCloud,
    app: AppId,
    /// Query-units observed this epoch, per client country.
    tally: BTreeMap<(u16, u16), f64>,
    /// The tally's total, kept as requests are charged: what the
    /// `skute_server_epoch_pending_queries` gauge shows, rounded.
    pending: f64,
}

/// Shared state behind the listener.
struct ServerState {
    slot: Mutex<CloudSlot>,
    topology: Topology,
    registry: Arc<Registry>,
    metrics: ServerMetrics,
    config: ServerConfig,
    shutdown: AtomicBool,
}

/// A bound, warmed-up Skute HTTP server. See the crate docs for the
/// protocol.
pub struct SkuteServer {
    listener: TcpListener,
    addr: SocketAddr,
    state: Arc<ServerState>,
}

impl SkuteServer {
    /// Builds the cloud (paper topology, 200 servers, 70/30 cost split),
    /// registers one `kv` application, drives `warmup_epochs` of uniform
    /// traffic so the ring reaches its SLA, and binds the listener.
    pub fn bind(config: ServerConfig) -> io::Result<SkuteServer> {
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

        let registry = Arc::new(Registry::new());
        let cloud_metrics = skute_core::CloudMetrics::register(&registry);
        cloud.set_metrics(cloud_metrics);
        let metrics = ServerMetrics::register(&registry);

        // Warmup: uniform traffic across every country at roughly the
        // capacity the generator will offer, so replica counts settle
        // before the first client request arrives.
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

        let listener = TcpListener::bind(&config.addr as &str)?;
        let addr = listener.local_addr()?;
        listener.set_nonblocking(true)?;
        Ok(SkuteServer {
            listener,
            addr,
            state: Arc::new(ServerState {
                slot: Mutex::new(CloudSlot {
                    cloud,
                    app,
                    tally: BTreeMap::new(),
                    pending: 0.0,
                }),
                topology,
                registry,
                metrics,
                config,
                shutdown: AtomicBool::new(false),
            }),
        })
    }

    /// The bound address (resolves port 0).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Advances one epoch immediately (test hook; the tick thread does
    /// the same on its timer).
    pub fn tick_now(&self) {
        tick(&self.state);
    }

    /// Serves until a `POST /shutdown` arrives. Spawns the epoch tick
    /// thread (when `epoch_ms > 0`) and one thread per connection. Borrows
    /// the server, so [`SkuteServer::tick_now`] stays callable while it
    /// serves.
    pub fn run(&self) -> io::Result<()> {
        let state = Arc::clone(&self.state);
        let ticker = if state.config.epoch_ms > 0 {
            let tick_state = Arc::clone(&state);
            Some(thread::spawn(move || {
                let period = Duration::from_millis(tick_state.config.epoch_ms);
                while !tick_state.shutdown.load(Ordering::SeqCst) {
                    sleep_then_tick(&tick_state, period);
                }
            }))
        } else {
            None
        };
        let mut workers = Vec::new();
        while !state.shutdown.load(Ordering::SeqCst) {
            match self.listener.accept() {
                Ok((stream, _)) => {
                    let conn_state = Arc::clone(&state);
                    workers.push(thread::spawn(move || handle_connection(conn_state, stream)));
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                    thread::sleep(Duration::from_millis(5));
                }
                Err(e) => return Err(e),
            }
            // Reap finished connection threads so the vec stays bounded.
            workers.retain(|h| !h.is_finished());
        }
        for h in workers {
            let _ = h.join();
        }
        if let Some(t) = ticker {
            let _ = t.join();
        }
        Ok(())
    }
}

/// Tick pacing: sleeps in short slices so shutdown stays responsive,
/// then runs one epoch tick.
fn sleep_then_tick(state: &Arc<ServerState>, period: Duration) {
    let start = Instant::now();
    while start.elapsed() < period {
        if state.shutdown.load(Ordering::SeqCst) {
            return;
        }
        thread::sleep(Duration::from_millis(
            25.min(period.as_millis() as u64).max(1),
        ));
    }
    tick(state);
}

/// One epoch tick: converts the tally into a [`TrafficBatch`], runs the
/// decision process, opens the next epoch, and clears the tally. A
/// poisoned cloud lock skips the tick: the epoch does not advance on a
/// cloud a panic left half-updated.
fn tick(state: &Arc<ServerState>) {
    let Ok(mut slot) = state.slot.lock() else {
        return;
    };
    let total: f64 = slot.tally.values().sum();
    if total > 0.0 {
        let regions: Vec<RegionWeight> = slot
            .tally
            .iter()
            .map(|(&(ct, co), &weight)| RegionWeight {
                location: Location::client_in_country(ct, co),
                weight,
            })
            .collect();
        let app = slot.app;
        slot.cloud
            .deliver_queries_multi(vec![TrafficBatch {
                app,
                level: 0,
                queries: total,
                regions,
            }])
            .expect("registered app");
    }
    slot.cloud.end_epoch();
    slot.cloud.begin_epoch();
    slot.tally.clear();
    slot.pending = 0.0;
    state.metrics.epoch_ticks.inc();
    state.metrics.epoch_pending_queries.set(0);
}

/// Capacity a connection's response buffer keeps between requests; one
/// large response does not pin its size for the connection's lifetime.
const OUT_RETAIN: usize = 64 * 1024;

/// Takes one connection off `skute_server_active_connections` when
/// dropped, so a handler that panics still closes its count.
struct OpenConnection<'a>(&'a Gauge);

impl Drop for OpenConnection<'_> {
    fn drop(&mut self) {
        self.0.sub(1);
    }
}

fn handle_connection(state: Arc<ServerState>, stream: TcpStream) {
    state.metrics.active_connections.add(1);
    let _open = OpenConnection(&state.metrics.active_connections);
    serve_connection(&state, stream);
}

/// The request loop of one connection: one read per request and one
/// write per response, the response encoded into a buffer the connection
/// owns and reuses.
fn serve_connection(state: &Arc<ServerState>, stream: TcpStream) {
    let _ = stream.set_nodelay(true);
    // Connections came off a nonblocking listener; reads must block.
    let _ = stream.set_nonblocking(false);
    let timeout = |ms: u64| (ms > 0).then(|| Duration::from_millis(ms));
    let _ = stream.set_read_timeout(timeout(state.config.read_timeout_ms));
    let _ = stream.set_write_timeout(timeout(state.config.write_timeout_ms));
    let Ok(read_half) = stream.try_clone() else {
        return;
    };
    let mut reader = BufReader::new(read_half);
    let mut writer = stream;
    let mut out = Vec::new();
    loop {
        // Wait for the first byte of the next request. EOF, a read timeout
        // or a reset here is an idle keep-alive connection ending: close
        // without a response, which a client would take for the answer to
        // its next request.
        match reader.fill_buf() {
            Ok(buffered) if !buffered.is_empty() => {}
            _ => return,
        }
        let request = match http::read_request(&mut reader) {
            Ok(Some(request)) => request,
            Ok(None) => return,
            Err(e) => {
                // The message stopped half way (timeout or EOF), or it is
                // malformed.
                let (status, body): (u16, &[u8]) = match e.kind() {
                    io::ErrorKind::WouldBlock
                    | io::ErrorKind::TimedOut
                    | io::ErrorKind::UnexpectedEof => (408, b"request timeout\n"),
                    _ => (400, b"bad request\n"),
                };
                let _ = http::write_response(&mut writer, status, "text/plain", body, &[], false);
                state.metrics.responses[Outcome::ClientError as usize].inc();
                return;
            }
        };
        let keep_alive = !request.wants_close();
        let close_after = handle_request(state, request, &mut writer, &mut out, keep_alive);
        if close_after || !keep_alive || state.shutdown.load(Ordering::SeqCst) {
            return;
        }
        out.shrink_to(OUT_RETAIN);
    }
}

/// Routes one request, encodes the response into `out` and sends it in
/// one write; returns true when the connection must close (shutdown
/// acknowledged, or the response could not be written whole).
fn handle_request(
    state: &Arc<ServerState>,
    request: Request,
    writer: &mut TcpStream,
    out: &mut Vec<u8>,
    keep_alive: bool,
) -> bool {
    let started = Instant::now();
    let path = request.path_bytes();
    let op = Op::of(&request.method, &path);
    state.metrics.requests[op as usize].inc();
    out.clear();
    let status = match op {
        // A handler that panicked holding the cloud lock poisoned it, and
        // every later request that needs the cloud answers 503: the
        // server can no longer serve.
        Op::Health if state.slot.is_poisoned() => reply(out, 503, POISONED, keep_alive),
        Op::Health => reply(out, 200, b"ok\n", keep_alive),
        Op::Metrics => {
            {
                // The counters stay readable through a poisoned lock, so
                // a scrape still shows what the server did before.
                let slot = state.slot.lock().unwrap_or_else(PoisonError::into_inner);
                slot.cloud.refresh_storage_metrics();
            }
            // Count this response *before* rendering so the scrape's
            // own request/response pair balances in its own output.
            state.metrics.responses[Outcome::Ok as usize].inc();
            http::encode_response(
                out,
                200,
                "text/plain; version=0.0.4",
                state.registry.render().as_bytes(),
                &[],
                keep_alive,
            );
            200
        }
        Op::Shutdown => reply(out, 200, b"shutting down\n", false),
        Op::Get | Op::Put | Op::Delete => handle_kv(state, request, op, &path, out, keep_alive),
        Op::Scan => handle_scan(state, &request, out, keep_alive),
        Op::Fault => handle_fault(state, &request, out, keep_alive),
        Op::Other => reply(out, 404, b"not found\n", keep_alive),
    };
    let written = writer.write_all(out).is_ok();
    if op != Op::Metrics {
        state.metrics.responses[Outcome::of(status) as usize].inc();
    }
    state.metrics.latency[op as usize].observe_duration(started.elapsed());
    if op == Op::Shutdown {
        state.shutdown.store(true, Ordering::SeqCst);
    }
    op == Op::Shutdown || !written
}

/// The body of the `503` that every request needing the cloud answers once
/// a panicked handler has poisoned the cloud lock.
const POISONED: &[u8] = b"cloud lock poisoned\n";

/// Encodes a `text/plain` response with no extra headers; returns `status`.
fn reply(out: &mut Vec<u8>, status: u16, body: &[u8], keep_alive: bool) -> u16 {
    http::encode_response(out, status, "text/plain", body, &[], keep_alive);
    status
}

/// Parses `X-Country: <continent>.<country>` into a client location,
/// validated against the topology. `Ok(None)` means no header.
fn client_location(state: &ServerState, request: &Request) -> Result<Option<Location>, String> {
    let Some(raw) = request.header("x-country") else {
        return Ok(None);
    };
    let parsed = raw.split_once('.').and_then(|(ct, co)| {
        Some((
            ct.trim().parse::<u16>().ok()?,
            co.trim().parse::<u16>().ok()?,
        ))
    });
    let Some((ct, co)) = parsed else {
        return Err(format!("malformed X-Country {raw:?} (want ct.co)"));
    };
    if !state.topology.iter_countries().any(|c| c == (ct, co)) {
        return Err(format!("unknown country {ct}.{co}"));
    }
    Ok(Some(Location::client_in_country(ct, co)))
}

/// The read consistency a request asks for in its `X-Consistency` header
/// (`one` when absent).
fn read_consistency(request: &Request) -> Result<ReadConsistency, String> {
    match request.header("x-consistency") {
        Some(raw) => raw.trim().parse(),
        None => Ok(ReadConsistency::One),
    }
}

/// Charges one request's query-units to the epoch tally.
fn charge(state: &ServerState, slot: &mut CloudSlot, client: Option<Location>) {
    let key = client
        .map(|l| (l.continent, l.country))
        .unwrap_or((u16::MAX, u16::MAX));
    // Requests with no declared country still count as offered load;
    // bucket them under the first country so weights stay normalizable.
    let key = if key.0 == u16::MAX {
        state.topology.iter_countries().next().unwrap_or((0, 0))
    } else {
        key
    };
    *slot.tally.entry(key).or_insert(0.0) += state.config.queries_per_request;
    slot.pending += state.config.queries_per_request;
    state
        .metrics
        .epoch_pending_queries
        .set(slot.pending.round() as i64);
}

/// `GET` / `PUT` / `DELETE /kv/<key>`, the key being the bytes the
/// percent-decoded `path` holds after `/kv/`: encodes the response into
/// `out` and returns its status. A read that reaches no replica and a write
/// short of a majority answer `503` (unavailable: retry later, or from
/// elsewhere), as does every request once the cloud lock is poisoned;
/// every other cloud error answers `500`.
fn handle_kv(
    state: &Arc<ServerState>,
    request: Request,
    op: Op,
    path: &[u8],
    out: &mut Vec<u8>,
    keep_alive: bool,
) -> u16 {
    let key = &path["/kv/".len()..];
    if key.is_empty() {
        return reply(out, 400, b"empty key\n", keep_alive);
    }
    let client = match client_location(state, &request) {
        Ok(c) => c,
        Err(msg) => return reply(out, 400, format!("{msg}\n").as_bytes(), keep_alive),
    };
    // A read's consistency is parsed before the lock, so a request refused
    // with 400 charges nothing.
    let consistency = match op {
        Op::Get => match read_consistency(&request) {
            Ok(c) => c,
            Err(msg) => return reply(out, 400, format!("{msg}\n").as_bytes(), keep_alive),
        },
        _ => ReadConsistency::One,
    };
    let Ok(mut slot) = state.slot.lock() else {
        return reply(out, 503, POISONED, keep_alive);
    };
    charge(state, &mut slot, client);
    let app = slot.app;
    let written = match op {
        Op::Put => slot.cloud.put(app, 0, key, request.body),
        Op::Delete => slot.cloud.delete(app, 0, key),
        _ => {
            let read = match slot.cloud.client_get_with(app, 0, key, client, consistency) {
                Ok(read) => read,
                Err(e) => {
                    return reply(
                        out,
                        error_status(&e),
                        format!("get failed: {e:?}\n").as_bytes(),
                        keep_alive,
                    )
                }
            };
            drop(slot);
            let (status, content_type, body): (u16, &str, &[u8]) = match &read.value {
                Some(value) => (200, "application/octet-stream", value),
                None => (404, "text/plain", b"not found\n"),
            };
            http::encode_response_head(out, status, content_type, body.len(), keep_alive);
            http::encode_header(out, "X-Served-By", read.served_by);
            http::encode_header(out, "X-Proximity", format_args!("{:.6}", read.proximity));
            http::encode_header(out, "X-Consistency", consistency);
            http::encode_header(out, "X-Replicas-Read", read.replicas_read);
            // A degraded read answers from the replicas it reached; the
            // header lets clients detect the weakened quorum.
            if read.degraded {
                http::encode_header(out, "X-Degraded", "true");
            }
            http::encode_body(out, body);
            return status;
        }
    };
    match written {
        Ok(()) => reply(out, 204, b"", keep_alive),
        Err(e) => reply(
            out,
            error_status(&e),
            format!("{} failed: {e:?}\n", op.as_str()).as_bytes(),
            keep_alive,
        ),
    }
}

/// The status of a failed key operation: `503` when too few replicas
/// were reachable, `500` otherwise.
fn error_status(e: &CoreError) -> u16 {
    match e {
        CoreError::Store(StoreError::QuorumNotMet { .. }) => 503,
        _ => 500,
    }
}

/// `POST /fault`: swaps the live cloud onto a new fault plan without a
/// restart. The body is one line:
///
/// * `<plan> [seed]` — a [`FaultPlanKind`] name (`none`, `gray`,
///   `partition`, `all`, ...); the seed defaults to the server seed.
/// * `cut <continent>` — force a continental partition immediately.
/// * `heal` — heal any continental cut (forced or plan-derived).
///
/// Plan swaps take effect at the next epoch tick (gray state refreshes
/// in `begin_epoch`); `cut`/`heal` also wait for the next tick. CI's
/// server-smoke uses this to inject gray failures mid-run and assert
/// that acked writes survive.
fn handle_fault(
    state: &Arc<ServerState>,
    request: &Request,
    out: &mut Vec<u8>,
    keep_alive: bool,
) -> u16 {
    let body = String::from_utf8_lossy(&request.body);
    let mut words = body.split_whitespace();
    let verb = words.next().unwrap_or_default();
    let Ok(mut slot) = state.slot.lock() else {
        return reply(out, 503, POISONED, keep_alive);
    };
    let done = match verb {
        "" => {
            return reply(
                out,
                400,
                b"empty fault command (want '<plan> [seed]', 'cut <continent>' or 'heal')\n",
                keep_alive,
            )
        }
        "heal" => {
            slot.cloud.force_continent_partition(None);
            "fault: partition healed\n".to_string()
        }
        "cut" => {
            let continent = match words.next().map(str::parse::<u16>) {
                Some(Ok(c)) => c,
                _ => return reply(out, 400, b"cut wants a continent index\n", keep_alive),
            };
            slot.cloud.force_continent_partition(Some(continent));
            format!("fault: continent {continent} cut\n")
        }
        plan => {
            let kind = match plan.parse::<FaultPlanKind>() {
                Ok(k) => k,
                Err(msg) => return reply(out, 400, format!("{msg}\n").as_bytes(), keep_alive),
            };
            let seed = match words.next().map(str::parse::<u64>) {
                Some(Ok(s)) => s,
                Some(Err(e)) => {
                    return reply(
                        out,
                        400,
                        format!("bad fault seed: {e}\n").as_bytes(),
                        keep_alive,
                    )
                }
                None => state.config.seed,
            };
            slot.cloud.set_fault_plan(FaultPlan { kind, seed });
            format!("fault: plan {} seed {seed}\n", kind.as_str())
        }
    };
    reply(out, 200, done.as_bytes(), keep_alive)
}

/// `GET /scan?prefix=&limit=`: a [`ReadView::scan`] of the
/// percent-decoded `prefix` bytes at the requested consistency. The
/// body is encoded after the cloud lock is released, since `limit=0`
/// returns every row.
///
/// [`ReadView::scan`]: skute_core::ReadView::scan
fn handle_scan(
    state: &Arc<ServerState>,
    request: &Request,
    out: &mut Vec<u8>,
    keep_alive: bool,
) -> u16 {
    let prefix = request.query_param_bytes("prefix").unwrap_or_default();
    let limit = match request.query_param("limit") {
        Some(raw) => match raw.parse::<usize>() {
            Ok(n) => n,
            Err(_) => return reply(out, 400, b"bad limit\n", keep_alive),
        },
        None => 100,
    };
    let client = match client_location(state, request) {
        Ok(c) => c,
        Err(msg) => return reply(out, 400, format!("{msg}\n").as_bytes(), keep_alive),
    };
    let consistency = match read_consistency(request) {
        Ok(c) => c,
        Err(msg) => return reply(out, 400, format!("{msg}\n").as_bytes(), keep_alive),
    };
    let Ok(mut slot) = state.slot.lock() else {
        return reply(out, 503, POISONED, keep_alive);
    };
    charge(state, &mut slot, client);
    let app = slot.app;
    let scan = slot
        .cloud
        .read_view()
        .scan(app, 0, &prefix, limit, client, consistency);
    drop(slot);
    let scan = match scan {
        Ok(scan) => scan,
        Err(e) => {
            return reply(
                out,
                500,
                format!("scan failed: {e:?}\n").as_bytes(),
                keep_alive,
            )
        }
    };
    let mut body = Vec::new();
    for (key, value) in &scan.entries {
        body.extend_from_slice(http::percent_encode(key).as_bytes());
        body.push(b'\t');
        body.extend_from_slice(http::percent_encode(value).as_bytes());
        body.push(b'\n');
    }
    http::encode_response_head(out, 200, "text/plain", body.len(), keep_alive);
    http::encode_header(out, "X-Scan-Count", scan.entries.len());
    http::encode_header(out, "X-Consistency", consistency);
    if scan.degraded {
        http::encode_header(out, "X-Degraded", "true");
    }
    http::encode_body(out, &body);
    200
}
