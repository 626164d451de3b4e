//! The benchmark's own load generator: exact per-request samples, a
//! closed and an open loop, and clients that check every response.
//!
//! It shares only the wire framing (`http::write_request` /
//! `http::read_response`) with the repository; `skute-load` and its
//! bucketed histogram are left alone.
//!
//! **Ownership.** Connection `c` of `n` only ever touches the keys whose
//! index is `≡ c (mod n)`, and every value embeds `key|seq`. A client
//! therefore knows, for each of its keys, exactly which write was last
//! acknowledged, and every `GET` must return that value byte for byte —
//! or 404 after an acknowledged `DELETE`.

use std::collections::BTreeMap;
use std::io::{self, BufReader};
use std::net::TcpStream;
use std::time::{Duration, Instant};

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use skute_server::http::{self, Response};

/// A request sent this long after it was due counts as late: the
/// generator, not the server, delayed it.
pub const LATE_AFTER: Duration = Duration::from_micros(50);

/// One keep-alive connection.
pub struct Conn {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl Conn {
    /// Dials `addr` (no Nagle delay, 10 s read deadline so a hung server
    /// fails the run instead of hanging it).
    pub fn connect(addr: &str) -> io::Result<Conn> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(Duration::from_secs(10)))?;
        Ok(Conn {
            reader: BufReader::new(stream.try_clone()?),
            writer: stream,
        })
    }

    /// One request, one response.
    pub fn request(
        &mut self,
        method: &str,
        target: &str,
        headers: &[(&str, &str)],
        body: &[u8],
    ) -> io::Result<Response> {
        http::write_request(&mut self.writer, method, target, headers, body)?;
        http::read_response(&mut self.reader)
    }
}

/// Parses a Prometheus text page into `series → value`, the series
/// spelled as on the page (`name{label="v"}`).
pub fn parse_metrics(page: &str) -> BTreeMap<String, f64> {
    page.lines()
        .filter(|l| !l.starts_with('#'))
        .filter_map(|l| {
            let (series, value) = l.rsplit_once(' ')?;
            Some((series.to_string(), value.parse().ok()?))
        })
        .collect()
}

/// `GET /metrics` on an open connection.
pub fn scrape(conn: &mut Conn) -> io::Result<BTreeMap<String, f64>> {
    let response = conn.request("GET", "/metrics", &[], b"")?;
    if response.status != 200 {
        return Err(io::Error::other(format!(
            "/metrics returned {}",
            response.status
        )));
    }
    Ok(parse_metrics(&String::from_utf8_lossy(&response.body)))
}

/// A request kind of the key-value mix.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Op {
    /// `GET /kv/<key>`
    Get,
    /// `PUT /kv/<key>`
    Put,
    /// `DELETE /kv/<key>`
    Delete,
}

impl Op {
    /// Lower-case name, as the server's `op` label spells it.
    pub fn name(self) -> &'static str {
        match self {
            Op::Get => "get",
            Op::Put => "put",
            Op::Delete => "delete",
        }
    }

    fn method(self) -> &'static str {
        match self {
            Op::Get => "GET",
            Op::Put => "PUT",
            Op::Delete => "DELETE",
        }
    }
}

/// Shares of the mix in percent; they sum to 100.
#[derive(Debug, Clone, Copy)]
pub struct Mix {
    /// Share of `GET`.
    pub get: u32,
    /// Share of `PUT`.
    pub put: u32,
    /// Share of `DELETE`.
    pub delete: u32,
}

/// What a client knows about one of its keys.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum KeyState {
    /// Never written, or the last acknowledged write was a `DELETE`.
    Absent,
    /// The last acknowledged write was the `PUT` with this sequence number.
    Value(u32),
    /// A write failed in flight; either outcome is legal until the next
    /// acknowledged write.
    Unknown,
}

/// One generated request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Planned {
    /// Kind.
    pub op: Op,
    /// Index into the stream's owned keys.
    pub slot: usize,
    /// Index into the stream's country list (`X-Country`).
    pub country: usize,
    /// Sequence number a `PUT` will embed.
    pub seq: u32,
}

/// The seeded operation stream of one connection, independent of any
/// transport: the wire clients and the single-threaded layer replay draw
/// the same requests from it.
pub struct OpStream {
    rng: StdRng,
    conn_index: usize,
    stride: usize,
    value_bytes: usize,
    countries: Vec<String>,
    state: Vec<KeyState>,
    next_seq: u32,
}

impl OpStream {
    /// The stream of connection `conn_index` of `stride`, owning every
    /// `stride`-th of `keys` keys.
    pub fn new(
        seed: u64,
        conn_index: usize,
        stride: usize,
        keys: usize,
        value_bytes: usize,
        countries: Vec<String>,
    ) -> Self {
        let owned = (keys + stride - 1 - conn_index) / stride;
        Self {
            rng: StdRng::seed_from_u64(seed ^ (0x9e37_79b9_7f4a_7c15u64 << conn_index)),
            conn_index,
            stride,
            value_bytes,
            countries,
            state: vec![KeyState::Absent; owned],
            next_seq: 1,
        }
    }

    /// Keys this stream owns.
    pub fn owned(&self) -> usize {
        self.state.len()
    }

    /// The key at `slot`.
    pub fn key(&self, slot: usize) -> String {
        format!("k{:06}", slot * self.stride + self.conn_index)
    }

    /// The `X-Country` value of a planned request.
    pub fn country(&self, index: usize) -> &str {
        &self.countries[index]
    }

    /// The value `PUT seq` writes under `slot`: `key|seq|` padded to the
    /// configured size.
    pub fn value(&self, slot: usize, seq: u32) -> Vec<u8> {
        let mut v = format!("{}|{seq}|", self.key(slot)).into_bytes();
        v.resize(v.len().max(self.value_bytes), b'.');
        v
    }

    /// What this stream knows about `slot`.
    pub fn state(&self, slot: usize) -> KeyState {
        self.state[slot]
    }

    /// Draws the next request: kind by `mix`, key and country uniform.
    pub fn plan(&mut self, mix: Mix) -> Planned {
        debug_assert_eq!(mix.get + mix.put + mix.delete, 100, "mix shares sum to 100");
        let roll = self.rng.gen_range(0..100u32);
        let op = if roll < mix.get {
            Op::Get
        } else if roll < mix.get + mix.put {
            Op::Put
        } else {
            Op::Delete
        };
        let slot = self.rng.gen_range(0..self.state.len());
        self.plan_at(op, slot)
    }

    /// A request of a fixed kind on a fixed key.
    pub fn plan_at(&mut self, op: Op, slot: usize) -> Planned {
        let country = self.rng.gen_range(0..self.countries.len());
        let seq = self.next_seq;
        if op == Op::Put {
            self.next_seq += 1;
        }
        Planned {
            op,
            slot,
            country,
            seq,
        }
    }

    /// Records the outcome of a write. Reads change nothing.
    pub fn settle(&mut self, planned: &Planned, acknowledged: bool) {
        self.state[planned.slot] = match (planned.op, acknowledged) {
            (Op::Get, _) => return,
            (_, false) => KeyState::Unknown,
            (Op::Put, true) => KeyState::Value(planned.seq),
            (Op::Delete, true) => KeyState::Absent,
        };
    }

    /// Checks a read against what the stream knows: `found` is the body
    /// of a 200, `None` a 404.
    pub fn read_is_correct(&self, slot: usize, found: Option<&[u8]>) -> bool {
        match (self.state[slot], found) {
            (KeyState::Unknown, _) | (KeyState::Absent, None) => true,
            (KeyState::Value(seq), Some(body)) => body == self.value(slot, seq),
            _ => false,
        }
    }
}

/// A wire client: one connection, one op stream, and the tally of what it
/// attempted and what failed (transport error, unexpected status, wrong
/// body).
pub struct KvClient {
    addr: String,
    conn: Conn,
    /// The stream this client draws from.
    pub stream: OpStream,
    consistency: Option<&'static str>,
    /// Requests sent.
    pub attempted: u64,
    /// Requests that failed or returned something wrong.
    pub failed: u64,
    /// The first failure, for the report.
    pub first_failure: Option<String>,
}

impl KvClient {
    /// Connects to `addr`.
    pub fn connect(
        addr: &str,
        stream: OpStream,
        consistency: Option<&'static str>,
    ) -> io::Result<Self> {
        Ok(Self {
            addr: addr.to_string(),
            conn: Conn::connect(addr)?,
            stream,
            consistency,
            attempted: 0,
            failed: 0,
            first_failure: None,
        })
    }

    /// The underlying connection (for `/metrics` scrapes between phases).
    pub fn conn(&mut self) -> &mut Conn {
        &mut self.conn
    }

    fn fail(&mut self, what: String) {
        self.failed += 1;
        self.first_failure.get_or_insert(what);
    }

    /// Sends one planned request and checks the response.
    pub fn execute(&mut self, planned: Planned) {
        self.attempted += 1;
        let key = self.stream.key(planned.slot);
        let target = format!("/kv/{key}");
        let body = match planned.op {
            Op::Put => self.stream.value(planned.slot, planned.seq),
            _ => Vec::new(),
        };
        let mut headers = vec![("X-Country", self.stream.country(planned.country))];
        if let (Op::Get, Some(c)) = (planned.op, self.consistency) {
            headers.push(("X-Consistency", c));
        }
        let result = self
            .conn
            .request(planned.op.method(), &target, &headers, &body);
        let response = match result {
            Ok(r) => r,
            Err(e) => {
                self.stream.settle(&planned, false);
                self.fail(format!("{} {key}: transport error: {e}", planned.op.name()));
                // The framing is lost; a fresh connection keeps later
                // requests from failing for this one's reason.
                if let Ok(conn) = Conn::connect(&self.addr) {
                    self.conn = conn;
                }
                return;
            }
        };
        match (planned.op, response.status) {
            (Op::Get, 200 | 404) => {
                let found = (response.status == 200).then_some(response.body.as_slice());
                if !self.stream.read_is_correct(planned.slot, found) {
                    self.fail(format!(
                        "get {key}: expected {:?}, got status {} with {} bytes",
                        self.stream.state(planned.slot),
                        response.status,
                        response.body.len()
                    ));
                }
            }
            (Op::Put | Op::Delete, 204) => self.stream.settle(&planned, true),
            (op, status) => {
                self.stream.settle(&planned, false);
                self.fail(format!("{} {key}: status {status}", op.name()));
            }
        }
    }

    /// Writes every owned key once (the preload).
    pub fn preload(&mut self) {
        for slot in 0..self.stream.owned() {
            let planned = self.stream.plan_at(Op::Put, slot);
            self.execute(planned);
        }
    }

    /// Re-reads every owned key and compares it with the last
    /// acknowledged write.
    pub fn verify_all(&mut self) {
        for slot in 0..self.stream.owned() {
            let planned = self.stream.plan_at(Op::Get, slot);
            self.execute(planned);
        }
    }
}

/// One completed request of a closed loop. Kept small: a phase completes
/// hundreds of thousands, and the samples live in the process whose peak
/// memory is one of the metrics.
#[derive(Debug, Clone, Copy)]
pub struct Served {
    /// Nanoseconds from send to full response (saturating at 4.29 s).
    pub service_ns: u32,
}

/// Closed loop: the next request goes out when the previous one has
/// completed, until `window` has passed since `start`. Returns every
/// completed request, in order.
pub fn closed_loop(
    client: &mut KvClient,
    mix: Mix,
    start: Instant,
    window: Duration,
) -> Vec<Served> {
    let mut out = Vec::new();
    loop {
        let sent = Instant::now();
        if sent.duration_since(start) >= window {
            return out;
        }
        let planned = client.stream.plan(mix);
        client.execute(planned);
        let done = Instant::now();
        out.push(Served {
            service_ns: u32::try_from(done.duration_since(sent).as_nanos()).unwrap_or(u32::MAX),
        });
    }
}

/// Samples of an open loop.
#[derive(Debug, Default)]
pub struct OpenLoop {
    /// Nanoseconds from the instant a request was **due** to its full
    /// response: the time a stall makes later requests wait is charged.
    pub from_due_ns: Vec<u64>,
    /// Nanoseconds from the actual send to the full response.
    pub service_ns: Vec<u64>,
    /// Requests sent more than [`LATE_AFTER`] after they were due.
    pub late: u64,
}

/// Sleeps most of the way to `due`, then spins: `thread::sleep` alone
/// overshoots by tens of microseconds, a pure spin would take a core from
/// the server on a two-core host.
fn wait_until(due: Instant) {
    const SPIN: Duration = Duration::from_micros(100);
    loop {
        let now = Instant::now();
        if now >= due {
            return;
        }
        let left = due - now;
        if left > SPIN {
            std::thread::sleep(left - SPIN);
        } else {
            std::hint::spin_loop();
        }
    }
}

/// Open loop: request `i` is due at `start + i·interval` whatever happened
/// to the requests before it, and its latency counts from that instant.
/// `issue` sends one request and returns when its response is complete.
pub fn open_loop(
    start: Instant,
    interval: Duration,
    count: u64,
    mut issue: impl FnMut(),
) -> OpenLoop {
    let mut out = OpenLoop::default();
    for i in 0..count {
        let due = start + interval.mul_f64(i as f64);
        wait_until(due);
        let sent = Instant::now();
        if sent.duration_since(due) > LATE_AFTER {
            out.late += 1;
        }
        issue();
        let done = Instant::now();
        out.service_ns
            .push(done.duration_since(sent).as_nanos() as u64);
        out.from_due_ns
            .push(done.duration_since(due).as_nanos() as u64);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Write;
    use std::net::TcpListener;

    fn stream() -> OpStream {
        OpStream::new(7, 1, 2, 11, 32, vec!["0.0".into(), "1.1".into()])
    }

    #[test]
    fn streams_own_disjoint_keys_and_embed_key_and_seq() {
        let s = stream();
        // 11 keys, stride 2: connection 1 owns the odd indices 1..=9.
        assert_eq!(s.owned(), 5);
        assert_eq!(s.key(0), "k000001");
        assert_eq!(s.key(4), "k000009");
        let v = s.value(2, 17);
        assert_eq!(v.len(), 32);
        assert!(v.starts_with(b"k000005|17|"));
    }

    #[test]
    fn read_check_follows_acknowledged_writes() {
        let mut s = stream();
        assert!(s.read_is_correct(3, None));
        assert!(!s.read_is_correct(3, Some(b"anything")));
        let put = s.plan_at(Op::Put, 3);
        s.settle(&put, true);
        let value = s.value(3, put.seq);
        assert!(s.read_is_correct(3, Some(&value)));
        assert!(!s.read_is_correct(3, None), "an acked write must be found");
        let newer = s.plan_at(Op::Put, 3);
        assert_ne!(newer.seq, put.seq);
        s.settle(&newer, true);
        assert!(
            !s.read_is_correct(3, Some(&value)),
            "a stale value is wrong"
        );
        let delete = s.plan_at(Op::Delete, 3);
        s.settle(&delete, true);
        assert!(s.read_is_correct(3, None));
        s.settle(&newer, false);
        assert!(s.read_is_correct(3, None) && s.read_is_correct(3, Some(b"x")));
    }

    #[test]
    fn same_seed_same_stream() {
        let mix = Mix {
            get: 45,
            put: 50,
            delete: 5,
        };
        let draw = |mut s: OpStream| -> Vec<(usize, usize, u32)> {
            (0..200)
                .map(|_| {
                    let p = s.plan(mix);
                    (p.op as usize, p.slot, p.seq)
                })
                .collect()
        };
        assert_eq!(draw(stream()), draw(stream()));
        let kinds = draw(stream());
        assert!([Op::Get, Op::Put, Op::Delete]
            .iter()
            .all(|&op| kinds.iter().any(|k| k.0 == op as usize)));
    }

    #[test]
    fn metrics_page_parses_labelled_series() {
        let page = "# HELP x y\n# TYPE x counter\nx_total 3\nh_sum{op=\"get\"} 0.25\nh_bucket{op=\"get\",le=\"+Inf\"} 9\n";
        let m = parse_metrics(page);
        assert_eq!(m["x_total"], 3.0);
        assert_eq!(m["h_sum{op=\"get\"}"], 0.25);
        assert_eq!(m["h_bucket{op=\"get\",le=\"+Inf\"}"], 9.0);
    }

    /// The property the open loop exists for: when the server stalls once,
    /// every request that was due during the stall is charged the time it
    /// waited, although each of them is *served* quickly once sent.
    #[test]
    fn open_loop_charges_queueing_to_the_requests_that_waited() {
        const STALL_AT: u64 = 20;
        const STALL: Duration = Duration::from_millis(60);
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        let stub = std::thread::spawn(move || {
            let (stream, _) = listener.accept().unwrap();
            stream.set_nodelay(true).unwrap();
            let mut reader = BufReader::new(stream.try_clone().unwrap());
            let mut writer = stream;
            let mut served = 0u64;
            while let Ok(Some(_)) = http::read_request(&mut reader) {
                if served == STALL_AT {
                    std::thread::sleep(STALL);
                }
                served += 1;
                http::write_response(&mut writer, 204, "text/plain", b"", &[], true).unwrap();
                writer.flush().unwrap();
            }
            served
        });
        let mut conn = Conn::connect(&addr).unwrap();
        let interval = Duration::from_millis(1);
        let run = open_loop(Instant::now(), interval, 100, || {
            assert_eq!(conn.request("PUT", "/kv/k", &[], b"v").unwrap().status, 204);
        });
        drop(conn);
        assert_eq!(stub.join().unwrap(), 100);

        let slow = |samples: &[u64]| {
            samples
                .iter()
                .filter(|&&ns| ns > STALL.as_nanos() as u64 / 4)
                .count()
        };
        // Exactly one request was slow to serve ...
        assert_eq!(slow(&run.service_ns), 1);
        // ... but the ~60 requests due during the stall all waited, the
        // first of them for most of it.
        assert!(
            slow(&run.from_due_ns) >= 30,
            "only {} requests were charged the stall",
            slow(&run.from_due_ns)
        );
        assert!(run.from_due_ns[STALL_AT as usize + 1] > STALL.as_nanos() as u64 * 3 / 4);
        assert!(run.late >= 30, "late = {}", run.late);
        // The schedule recovered: the last requests are on time again.
        assert!(run.from_due_ns[99] < STALL.as_nanos() as u64 / 4);
    }
}
