//! `skute-load`: a closed-loop load generator for [`crate::SkuteServer`].
//!
//! `clients` threads share one atomic request budget; each thread holds a
//! keep-alive connection, draws operations from a weighted mix and client
//! countries from a weighted distribution, and records every request's
//! latency into one shared [`Histogram`]. The report carries exact
//! outcome counts (so CI can check them against the server's `/metrics`)
//! plus p50/p99/p999 latency.

use std::io::{self, BufReader};
use std::net::TcpStream;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use skute_obs::{exponential_buckets, Histogram};

use crate::http;

/// One operation kind in the load mix.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Op {
    /// Proximity-routed read.
    Get,
    /// Write with a generated value.
    Put,
    /// Tombstone write.
    Delete,
    /// Prefix scan.
    Scan,
}

impl Op {
    fn method(self) -> &'static str {
        match self {
            Op::Get => "GET",
            Op::Put => "PUT",
            Op::Delete => "DELETE",
            Op::Scan => "GET",
        }
    }
}

/// Configuration for [`run_load`].
#[derive(Debug, Clone)]
pub struct LoadConfig {
    /// Server address, e.g. `127.0.0.1:8080`.
    pub addr: String,
    /// Concurrent client threads.
    pub clients: usize,
    /// Total requests to issue across all clients.
    pub requests: u64,
    /// Key-space size; keys are `key-0 .. key-{keys-1}`.
    pub keys: u64,
    /// Value payload size for puts.
    pub value_bytes: usize,
    /// Weighted operation mix (weights need not sum to anything).
    pub mix: Vec<(Op, u32)>,
    /// Weighted client-country distribution (`(continent, country)` →
    /// weight). Empty means "no `X-Country` header".
    pub countries: Vec<((u16, u16), f64)>,
    /// Seed for the per-thread RNGs.
    pub seed: u64,
    /// `limit` parameter for scans.
    pub scan_limit: usize,
    /// `X-Consistency` header sent on reads and scans (`"one"` or
    /// `"quorum"`; `None` omits the header and takes the server default).
    pub consistency: Option<String>,
    /// Transport-level retries per request before it counts as a
    /// transport error. Retries back off exponentially with jitter so a
    /// reconnect storm against a recovering server spreads out.
    pub max_retries: u32,
}

impl Default for LoadConfig {
    fn default() -> Self {
        Self {
            addr: "127.0.0.1:8080".to_string(),
            clients: 4,
            requests: 1_000,
            keys: 256,
            value_bytes: 64,
            mix: vec![(Op::Get, 70), (Op::Put, 25), (Op::Delete, 2), (Op::Scan, 3)],
            countries: Vec::new(),
            seed: 1,
            scan_limit: 20,
            consistency: None,
            max_retries: 2,
        }
    }
}

/// Aggregated outcome of one [`run_load`] run.
#[derive(Debug)]
pub struct LoadReport {
    /// Requests actually issued (== the configured budget when the server
    /// stayed reachable).
    pub issued: u64,
    /// 2xx responses.
    pub ok: u64,
    /// 404 responses (expected for reads of never-written keys).
    pub not_found: u64,
    /// Other HTTP status codes, 503 excepted.
    pub http_errors: u64,
    /// 503 responses: no reachable replica for a read, or a write short
    /// of a majority.
    pub(crate) unavailable: u64,
    /// Connection-level failures that exhausted their retry budget (the
    /// request still counts as issued).
    pub transport_errors: u64,
    /// Transport-level retries (reconnect + re-send after backoff).
    pub(crate) retries: u64,
    /// 2xx responses flagged `X-Degraded: true` (the requested read
    /// consistency was not met).
    pub(crate) degraded: u64,
    /// Rows (`X-Scan-Count`) returned by scans that were not degraded.
    pub(crate) scan_rows: u64,
    /// Wall-clock duration of the run.
    pub(crate) elapsed: Duration,
    /// Latency of every completed request, in seconds.
    pub(crate) latency: Histogram,
}

impl LoadReport {
    /// Completed requests per second.
    pub(crate) fn throughput(&self) -> f64 {
        let secs = self.elapsed.as_secs_f64();
        if secs <= 0.0 {
            0.0
        } else {
            (self.ok + self.not_found + self.http_errors + self.unavailable) as f64 / secs
        }
    }

    /// Latency quantile in seconds (`None` before any request completed).
    pub(crate) fn quantile(&self, q: f64) -> Option<f64> {
        self.latency.quantile(q)
    }

    /// The two machine-greppable summary lines CI asserts on.
    pub fn summary_lines(&self) -> String {
        let q = |q: f64| self.quantile(q).unwrap_or(0.0) * 1e3;
        // New fields append at the END of the first line: CI's awk
        // indexes the earlier fields positionally.
        format!(
            "load: issued={} ok={} not_found={} http_errors={} transport_errors={} elapsed_ms={} throughput_rps={:.1} retries={} degraded={} scan_rows={} unavailable={}\nload: p50_ms={:.3} p99_ms={:.3} p999_ms={:.3}",
            self.issued,
            self.ok,
            self.not_found,
            self.http_errors,
            self.transport_errors,
            self.elapsed.as_millis(),
            self.throughput(),
            self.retries,
            self.degraded,
            self.scan_rows,
            self.unavailable,
            q(0.50),
            q(0.99),
            q(0.999),
        )
    }
}

/// Weighted pick from a slice; returns the index.
fn pick_weighted<T>(rng: &mut StdRng, items: &[(T, f64)]) -> usize {
    let total: f64 = items.iter().map(|(_, w)| w.max(0.0)).sum();
    if total <= 0.0 {
        return 0;
    }
    let mut roll = rng.gen_range(0.0..total);
    for (i, (_, w)) in items.iter().enumerate() {
        roll -= w.max(0.0);
        if roll < 0.0 {
            return i;
        }
    }
    items.len() - 1
}

struct ThreadTally {
    issued: u64,
    ok: u64,
    not_found: u64,
    http_errors: u64,
    unavailable: u64,
    transport_errors: u64,
    retries: u64,
    degraded: u64,
    scan_rows: u64,
}

/// Runs the closed loop to budget exhaustion.
pub fn run_load(config: LoadConfig) -> io::Result<LoadReport> {
    if config.clients == 0 || config.requests == 0 {
        return Err(io::Error::new(
            io::ErrorKind::InvalidInput,
            "clients and requests must be positive",
        ));
    }
    let budget = Arc::new(AtomicU64::new(config.requests));
    let latency = Histogram::new(&exponential_buckets(1e-4, 2.0, 16));
    let started = Instant::now();
    let mut handles = Vec::with_capacity(config.clients);
    for idx in 0..config.clients {
        let budget = Arc::clone(&budget);
        let latency = latency.clone();
        let config = config.clone();
        handles.push(thread::spawn(move || {
            client_loop(idx as u64, &config, &budget, &latency)
        }));
    }
    let mut report = LoadReport {
        issued: 0,
        ok: 0,
        not_found: 0,
        http_errors: 0,
        unavailable: 0,
        transport_errors: 0,
        retries: 0,
        degraded: 0,
        scan_rows: 0,
        elapsed: Duration::ZERO,
        latency,
    };
    let mut first_err: Option<io::Error> = None;
    for handle in handles {
        match handle.join() {
            Ok(Ok(tally)) => {
                report.issued += tally.issued;
                report.ok += tally.ok;
                report.not_found += tally.not_found;
                report.http_errors += tally.http_errors;
                report.unavailable += tally.unavailable;
                report.transport_errors += tally.transport_errors;
                report.retries += tally.retries;
                report.degraded += tally.degraded;
                report.scan_rows += tally.scan_rows;
            }
            Ok(Err(e)) => first_err = first_err.or(Some(e)),
            Err(_) => {
                first_err = first_err.or_else(|| Some(io::Error::other("load client panicked")));
            }
        }
    }
    report.elapsed = started.elapsed();
    match first_err {
        Some(e) if report.issued == 0 => Err(e),
        _ => Ok(report),
    }
}

/// One client thread: keep-alive connection; transport errors reconnect
/// and retry up to `max_retries` times with exponential backoff plus
/// jitter before the request counts as issued + transport_error.
fn client_loop(
    idx: u64,
    config: &LoadConfig,
    budget: &AtomicU64,
    latency: &Histogram,
) -> io::Result<ThreadTally> {
    let mut rng = StdRng::seed_from_u64(config.seed ^ (0x9e37_79b9 * (idx + 1)));
    let mut tally = ThreadTally {
        issued: 0,
        ok: 0,
        not_found: 0,
        http_errors: 0,
        unavailable: 0,
        transport_errors: 0,
        retries: 0,
        degraded: 0,
        scan_rows: 0,
    };
    let mix: Vec<(Op, f64)> = config.mix.iter().map(|&(op, w)| (op, w as f64)).collect();
    let value: Vec<u8> = (0..config.value_bytes)
        .map(|i| b'a' + (i % 26) as u8)
        .collect();
    let mut conn: Option<(BufReader<TcpStream>, TcpStream)> = None;
    let mut consecutive_failures = 0u32;
    loop {
        // Claim one request from the shared budget.
        let claimed = budget
            .fetch_update(Ordering::SeqCst, Ordering::SeqCst, |n| n.checked_sub(1))
            .is_ok();
        if !claimed {
            return Ok(tally);
        }
        tally.issued += 1;
        let op = mix[pick_weighted(&mut rng, &mix)].0;
        let key = format!("key-{}", rng.gen_range(0..config.keys));
        let target = match op {
            Op::Scan => format!("/scan?prefix=key-&limit={}", config.scan_limit),
            _ => format!("/kv/{key}"),
        };
        let country = if config.countries.is_empty() {
            None
        } else {
            let (ct, co) = config.countries[pick_weighted(&mut rng, &config.countries)].0;
            Some(format!("{ct}.{co}"))
        };
        let body: &[u8] = if op == Op::Put { &value } else { &[] };
        let consistency = match op {
            Op::Get | Op::Scan => config.consistency.as_deref(),
            _ => None,
        };

        let t0 = Instant::now();
        let mut attempt = 0u32;
        let outcome = loop {
            let result = issue(
                &mut conn,
                &config.addr,
                op.method(),
                &target,
                country.as_deref(),
                consistency,
                body,
            );
            match result {
                Ok(response) => break Ok(response),
                Err(e) => {
                    conn = None;
                    if attempt >= config.max_retries {
                        break Err(e);
                    }
                    attempt += 1;
                    tally.retries += 1;
                    // Exponential backoff (5ms · 2^attempt, capped) with
                    // full jitter so retrying clients desynchronize.
                    let base_ms = 5u64 << attempt.min(6);
                    thread::sleep(Duration::from_millis(rng.gen_range(1..=base_ms)));
                }
            }
        };
        match outcome {
            Ok(response) => {
                consecutive_failures = 0;
                latency.observe_duration(t0.elapsed());
                match response.status {
                    200..=299 => {
                        tally.ok += 1;
                        if response.header("x-degraded") == Some("true") {
                            tally.degraded += 1;
                        } else if op == Op::Scan {
                            tally.scan_rows += response
                                .header("x-scan-count")
                                .and_then(|n| n.parse::<u64>().ok())
                                .unwrap_or(0);
                        }
                    }
                    404 => tally.not_found += 1,
                    503 => tally.unavailable += 1,
                    _ => tally.http_errors += 1,
                }
            }
            Err(e) => {
                tally.transport_errors += 1;
                consecutive_failures += 1;
                if consecutive_failures >= 10 {
                    return Err(e);
                }
            }
        }
    }
}

/// Issues one request over the cached connection, dialing if needed.
fn issue(
    conn: &mut Option<(BufReader<TcpStream>, TcpStream)>,
    addr: &str,
    method: &str,
    target: &str,
    country: Option<&str>,
    consistency: Option<&str>,
    body: &[u8],
) -> io::Result<http::Response> {
    if conn.is_none() {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true).ok();
        stream.set_read_timeout(Some(Duration::from_secs(10))).ok();
        let reader = BufReader::new(stream.try_clone()?);
        *conn = Some((reader, stream));
    }
    let (reader, writer) = conn.as_mut().expect("connection just dialed");
    let mut headers: Vec<(&str, &str)> = Vec::new();
    if let Some(c) = country {
        headers.push(("X-Country", c));
    }
    if let Some(c) = consistency {
        headers.push(("X-Consistency", c));
    }
    http::write_request(writer, method, target, &headers, body)?;
    http::read_response(reader)
}

/// One-shot GET (CI uses this to scrape `/metrics` without curl).
pub fn scrape(addr: &str, path: &str) -> io::Result<String> {
    let stream = TcpStream::connect(addr)?;
    stream.set_read_timeout(Some(Duration::from_secs(10))).ok();
    let mut reader = BufReader::new(stream.try_clone()?);
    let mut writer = stream;
    http::write_request(&mut writer, "GET", path, &[("Connection", "close")], b"")?;
    let response = http::read_response(&mut reader)?;
    if response.status != 200 {
        return Err(io::Error::other(format!(
            "GET {path} returned {}",
            response.status
        )));
    }
    String::from_utf8(response.body)
        .map_err(|_| io::Error::new(io::ErrorKind::InvalidData, "non-UTF-8 response body"))
}

/// One-shot POST with a body (CI uses this to inject fault plans over
/// `/fault` mid-run).
pub fn post_body(addr: &str, path: &str, body: &[u8]) -> io::Result<u16> {
    let stream = TcpStream::connect(addr)?;
    stream.set_read_timeout(Some(Duration::from_secs(10))).ok();
    let mut reader = BufReader::new(stream.try_clone()?);
    let mut writer = stream;
    http::write_request(&mut writer, "POST", path, &[("Connection", "close")], body)?;
    let response = http::read_response(&mut reader)?;
    Ok(response.status)
}
