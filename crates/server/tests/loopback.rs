//! End-to-end loopback test: bind a real server on port 0, drive it with
//! `skute-load`, check /metrics coherence, and shut it down gracefully.

use std::thread;
use std::time::Duration;

use skute_server::{post_body, run_load, scrape, LoadConfig, Op, ServerConfig, SkuteServer};

/// Extracts the summed value of every series of `family` from a
/// Prometheus exposition.
fn metric_sum(exposition: &str, family: &str) -> f64 {
    exposition
        .lines()
        .filter(|l| !l.starts_with('#'))
        .filter(|l| {
            l.starts_with(family)
                && l.as_bytes()
                    .get(family.len())
                    .is_none_or(|&b| b == b'{' || b == b' ')
        })
        .filter_map(|l| l.rsplit(' ').next()?.parse::<f64>().ok())
        .sum()
}

fn metric_series(exposition: &str, family: &str, label: &str) -> f64 {
    exposition
        .lines()
        .filter(|l| l.starts_with(family) && l.contains(label))
        .filter_map(|l| l.rsplit(' ').next()?.parse::<f64>().ok())
        .sum()
}

#[test]
fn serve_load_scrape_shutdown() {
    let server = SkuteServer::bind(ServerConfig {
        addr: "127.0.0.1:0".to_string(),
        partitions: 8,
        warmup_epochs: 3,
        // The test ticks manually so nothing here is timing-dependent.
        epoch_ms: 0,
        ..ServerConfig::default()
    })
    .expect("bind on a free port");
    let addr = server.addr().to_string();
    // The test ticks only through HTTP-observable effects.
    let handle = thread::spawn(move || server.run());

    // Wait for the accept loop.
    let mut healthy = false;
    for _ in 0..100 {
        if scrape(&addr, "/healthz").is_ok() {
            healthy = true;
            break;
        }
        thread::sleep(Duration::from_millis(20));
    }
    assert!(healthy, "server never answered /healthz");

    // Closed-loop load: every country weighted equally, mixed ops.
    let report = run_load(LoadConfig {
        addr: addr.clone(),
        clients: 4,
        requests: 600,
        keys: 64,
        value_bytes: 32,
        mix: vec![(Op::Put, 40), (Op::Get, 50), (Op::Delete, 5), (Op::Scan, 5)],
        countries: (0..5)
            .flat_map(|ct| (0..2).map(move |co| ((ct, co), 1.0)))
            .collect(),
        seed: 7,
        scan_limit: 10,
        consistency: Some("quorum".to_string()),
        max_retries: 2,
    })
    .expect("load run completes");

    assert_eq!(report.issued, 600);
    assert_eq!(report.transport_errors, 0, "no reconnects on loopback");
    assert_eq!(
        report.ok + report.not_found + report.http_errors,
        report.issued,
        "every issued request got a response"
    );
    assert!(report.ok > 0, "some requests succeeded");
    let summary = report.summary_lines();
    assert!(
        !summary.contains("p99_ms=0.000"),
        "latency histogram populated: {summary}"
    );

    // Round-trip a specific key through raw HTTP to pin the data path.
    {
        use skute_server::http::{read_response, write_request};
        use std::io::BufReader;
        use std::net::TcpStream;
        let stream = TcpStream::connect(&addr).unwrap();
        let mut reader = BufReader::new(stream.try_clone().unwrap());
        let mut writer = stream;
        write_request(
            &mut writer,
            "PUT",
            "/kv/pinned",
            &[("X-Country", "1.1")],
            b"v1",
        )
        .unwrap();
        assert_eq!(read_response(&mut reader).unwrap().status, 204);
        write_request(
            &mut writer,
            "GET",
            "/kv/pinned",
            &[("X-Country", "1.1")],
            b"",
        )
        .unwrap();
        let resp = read_response(&mut reader).unwrap();
        assert_eq!(resp.status, 200);
        assert_eq!(resp.body, b"v1");
        assert!(resp.header("x-served-by").is_some());
        let proximity: f64 = resp.header("x-proximity").unwrap().parse().unwrap();
        assert!(proximity > 0.0);
        // Unknown country is a client error, not a crash.
        write_request(
            &mut writer,
            "GET",
            "/kv/pinned",
            &[("X-Country", "9.9")],
            b"",
        )
        .unwrap();
        assert_eq!(read_response(&mut reader).unwrap().status, 400);
        // Scan sees the pinned key.
        write_request(&mut writer, "GET", "/scan?prefix=pinned&limit=5", &[], b"").unwrap();
        let scan = read_response(&mut reader).unwrap();
        assert_eq!(scan.status, 200);
        assert!(String::from_utf8_lossy(&scan.body).contains("pinned\tv1"));
        // Scans take the same consistency levels as reads.
        write_request(
            &mut writer,
            "GET",
            "/scan?prefix=pinned&limit=5",
            &[("X-Consistency", "quorum")],
            b"",
        )
        .unwrap();
        let scan = read_response(&mut reader).unwrap();
        assert_eq!(scan.status, 200);
        assert_eq!(scan.header("x-consistency"), Some("quorum"));
        assert!(String::from_utf8_lossy(&scan.body).contains("pinned\tv1"));
        write_request(
            &mut writer,
            "GET",
            "/scan?prefix=pinned",
            &[("X-Consistency", "bogus")],
            b"",
        )
        .unwrap();
        assert_eq!(read_response(&mut reader).unwrap().status, 400);
        // Quorum read: majority of replicas consulted, headers say so.
        write_request(
            &mut writer,
            "GET",
            "/kv/pinned",
            &[("X-Country", "1.1"), ("X-Consistency", "quorum")],
            b"",
        )
        .unwrap();
        let quorum = read_response(&mut reader).unwrap();
        assert_eq!(quorum.status, 200);
        assert_eq!(quorum.body, b"v1");
        assert_eq!(quorum.header("x-consistency"), Some("quorum"));
        let replicas: usize = quorum.header("x-replicas-read").unwrap().parse().unwrap();
        assert!(replicas >= 2, "quorum read consulted a majority");
        // Unknown consistency level is a client error.
        write_request(
            &mut writer,
            "GET",
            "/kv/pinned",
            &[("X-Consistency", "linearizable")],
            b"",
        )
        .unwrap();
        assert_eq!(read_response(&mut reader).unwrap().status, 400);
        // Live fault injection round-trips; bad plans are rejected.
        write_request(&mut writer, "POST", "/fault", &[], b"gray 42").unwrap();
        assert_eq!(read_response(&mut reader).unwrap().status, 200);
        write_request(&mut writer, "POST", "/fault", &[], b"bogus-plan").unwrap();
        assert_eq!(read_response(&mut reader).unwrap().status, 400);
        write_request(&mut writer, "POST", "/fault", &[], b"heal").unwrap();
        assert_eq!(read_response(&mut reader).unwrap().status, 200);
        write_request(&mut writer, "POST", "/fault", &[], b"none").unwrap();
        assert_eq!(read_response(&mut reader).unwrap().status, 200);
    }

    // Coherence: the server counted exactly what the client issued.
    let exposition = scrape(&addr, "/metrics").expect("metrics scrape");
    let kv_requests = metric_series(&exposition, "skute_server_requests_total", "op=\"get\"")
        + metric_series(&exposition, "skute_server_requests_total", "op=\"put\"")
        + metric_series(&exposition, "skute_server_requests_total", "op=\"delete\"")
        + metric_series(&exposition, "skute_server_requests_total", "op=\"scan\"");
    // 600 load requests + 8 pinned kv/scan requests above (the /fault
    // posts count under their own op label).
    assert_eq!(
        kv_requests as u64, 608,
        "request counters match issued load"
    );
    let responses = metric_sum(&exposition, "skute_server_responses_total");
    let requests = metric_sum(&exposition, "skute_server_requests_total");
    assert_eq!(
        responses as u64, requests as u64,
        "every accepted request produced exactly one counted response"
    );
    assert!(
        exposition.contains("skute_epoch_phase_seconds_bucket"),
        "cloud phase histograms are exported"
    );
    assert!(
        exposition.contains("# TYPE skute_queries_total counter"),
        "cloud catalogue is exported"
    );

    // Graceful shutdown: POST /shutdown, run() returns.
    assert_eq!(post_body(&addr, "/shutdown", b"").unwrap(), 200);
    for _ in 0..200 {
        if handle.is_finished() {
            break;
        }
        thread::sleep(Duration::from_millis(20));
    }
    assert!(handle.is_finished(), "server exited after /shutdown");
    handle.join().unwrap().unwrap();
}

#[test]
fn epoch_tick_feeds_observed_traffic() {
    let server = SkuteServer::bind(ServerConfig {
        addr: "127.0.0.1:0".to_string(),
        partitions: 8,
        warmup_epochs: 2,
        epoch_ms: 0,
        ..ServerConfig::default()
    })
    .expect("bind");
    let addr = server.addr().to_string();
    // Serve on a thread but keep the tick under test control.
    let tick = {
        // Drive ticks before starting the accept loop via the public
        // test hook.
        server.tick_now();
        server.tick_now();
        server
    };
    let handle = thread::spawn(move || tick.run());
    for _ in 0..100 {
        if scrape(&addr, "/healthz").is_ok() {
            break;
        }
        thread::sleep(Duration::from_millis(20));
    }
    let before = scrape(&addr, "/metrics").unwrap();
    assert!(metric_series(&before, "skute_server_epoch_ticks_total", "") >= 2.0);
    assert_eq!(post_body(&addr, "/shutdown", b"").unwrap(), 200);
    let _ = handle.join().unwrap();
}

/// The wire contract of a connection: pipelined requests are answered in
/// order, an idle keep-alive connection is closed without a byte, and a
/// request that stops half way is answered 408.
#[test]
fn idle_closes_quietly_and_half_a_request_gets_408() {
    use skute_server::http::{read_response, write_request};
    use std::io::{BufReader, Read, Write};
    use std::net::TcpStream;

    let server = SkuteServer::bind(ServerConfig {
        addr: "127.0.0.1:0".to_string(),
        partitions: 8,
        warmup_epochs: 2,
        epoch_ms: 0,
        read_timeout_ms: 100,
        ..ServerConfig::default()
    })
    .expect("bind");
    let addr = server.addr().to_string();
    let handle = thread::spawn(move || server.run());
    let connect = || {
        let stream = TcpStream::connect(&addr).expect("server is listening");
        // A server that neither answers nor closes fails the test, not hangs it.
        stream
            .set_read_timeout(Some(Duration::from_secs(5)))
            .unwrap();
        stream
    };
    let client_errors = || {
        let page = scrape(&addr, "/metrics").expect("metrics scrape");
        metric_series(
            &page,
            "skute_server_responses_total",
            "outcome=\"client_error\"",
        )
    };

    // Two requests in one segment: both answered, in order, the GET's
    // headers in the documented order.
    let mut wire = Vec::new();
    write_request(&mut wire, "PUT", "/kv/p", &[("X-Country", "1.1")], b"v1").unwrap();
    write_request(&mut wire, "GET", "/kv/p", &[("X-Country", "1.1")], b"").unwrap();
    let mut stream = connect();
    stream.write_all(&wire).unwrap();
    let mut reader = BufReader::new(stream);
    assert_eq!(read_response(&mut reader).unwrap().status, 204);
    let hit = read_response(&mut reader).unwrap();
    assert_eq!((hit.status, hit.body.as_slice()), (200, &b"v1"[..]));
    let names: Vec<&str> = hit.headers.iter().map(|(k, _)| k.as_str()).collect();
    assert_eq!(
        names,
        [
            "content-type",
            "content-length",
            "connection",
            "x-served-by",
            "x-proximity",
            "x-consistency",
            "x-replicas-read"
        ]
    );

    // The same connection, now idle past the read timeout: closed with
    // nothing written, and nothing counted as a client error.
    let mut rest = Vec::new();
    reader.read_to_end(&mut rest).expect("a clean close");
    assert!(
        rest.is_empty(),
        "idle close wrote {:?}",
        String::from_utf8_lossy(&rest)
    );
    // So is a connection that never sent anything.
    connect().read_to_end(&mut rest).expect("a clean close");
    assert!(rest.is_empty());
    assert_eq!(client_errors(), 0.0);

    // A message that stops in its head, and one that stops in its body.
    for (n, half) in [
        &b"GET /kv/p HTT"[..],
        b"PUT /kv/p HTTP/1.1\r\nContent-Length: 10\r\n\r\nabc",
    ]
    .into_iter()
    .enumerate()
    {
        let mut stream = connect();
        stream.write_all(half).unwrap();
        let response = read_response(&mut BufReader::new(stream)).unwrap();
        assert_eq!(response.status, 408);
        assert_eq!(response.header("connection"), Some("close"));
        assert_eq!(client_errors(), (n + 1) as f64);
    }
    // Malformed input is still a 400.
    let mut stream = connect();
    stream.write_all(b"garbage\r\n\r\n").unwrap();
    assert_eq!(
        read_response(&mut BufReader::new(stream)).unwrap().status,
        400
    );

    assert_eq!(post_body(&addr, "/shutdown", b"").unwrap(), 200);
    handle.join().unwrap().unwrap();
}

/// One request on its own connection, answered in full.
fn exchange(addr: &str, method: &str, target: &str, body: &[u8]) -> skute_server::http::Response {
    exchange_with(addr, method, target, &[], body)
}

/// [`exchange`] with extra request headers.
fn exchange_with(
    addr: &str,
    method: &str,
    target: &str,
    headers: &[(&str, &str)],
    body: &[u8],
) -> skute_server::http::Response {
    use skute_server::http::{read_response, write_request};
    use std::io::BufReader;
    use std::net::TcpStream;

    let stream = TcpStream::connect(addr).expect("server is listening");
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    let mut reader = BufReader::new(stream.try_clone().unwrap());
    let mut writer = stream;
    let mut all = vec![("Connection", "close")];
    all.extend_from_slice(headers);
    write_request(&mut writer, method, target, &all, body).unwrap();
    read_response(&mut reader).expect("a response")
}

/// Binds a server with no tick thread and serves it on a thread.
fn serve(config: ServerConfig) -> (String, thread::JoinHandle<std::io::Result<()>>) {
    let server = SkuteServer::bind(ServerConfig {
        addr: "127.0.0.1:0".to_string(),
        partitions: 8,
        warmup_epochs: 2,
        epoch_ms: 0,
        ..config
    })
    .expect("bind");
    let addr = server.addr().to_string();
    (addr, thread::spawn(move || server.run()))
}

/// Keys are arbitrary bytes: two keys that differ only in a byte that is
/// not UTF-8 are two keys on the wire, for reads and for scans.
#[test]
fn keys_differing_in_a_non_utf8_byte_stay_apart() {
    let (addr, handle) = serve(ServerConfig::default());
    assert_eq!(exchange(&addr, "PUT", "/kv/bin-%FE", b"fe").status, 204);
    assert_eq!(exchange(&addr, "PUT", "/kv/bin-%FF", b"ff").status, 204);
    for (target, value) in [("/kv/bin-%FE", b"fe"), ("/kv/bin-%FF", b"ff")] {
        let got = exchange(&addr, "GET", target, b"");
        assert_eq!((got.status, &got.body[..]), (200, &value[..]), "{target}");
    }
    let scan = exchange(&addr, "GET", "/scan?prefix=bin-&limit=0", b"");
    assert_eq!(scan.status, 200);
    assert_eq!(scan.body, b"bin-%FE\tfe\nbin-%FF\tff\n");
    let one = exchange(&addr, "GET", "/scan?prefix=bin-%FF&limit=0", b"");
    assert_eq!(one.body, b"bin-%FF\tff\n");
    assert_eq!(post_body(&addr, "/shutdown", b"").unwrap(), 200);
    handle.join().unwrap().unwrap();
}

/// The pending-queries gauge shows the query-units charged since the
/// last tick, fractional units included: four requests at half a unit
/// each read 2.
#[test]
fn pending_queries_gauge_sums_fractional_units() {
    let (addr, handle) = serve(ServerConfig {
        queries_per_request: 0.5,
        ..ServerConfig::default()
    });
    assert_eq!(exchange(&addr, "PUT", "/kv/a", b"v").status, 204);
    assert_eq!(exchange(&addr, "GET", "/kv/a", b"").status, 200);
    assert_eq!(exchange(&addr, "GET", "/kv/b", b"").status, 404);
    assert_eq!(exchange(&addr, "DELETE", "/kv/a", b"").status, 204);
    // A read refused with 400 is not offered load: it charges nothing.
    let consistency = [("X-Consistency", "linearizable")];
    let refused = exchange_with(&addr, "GET", "/kv/a", &consistency, b"");
    assert_eq!(refused.status, 400);
    let page = scrape(&addr, "/metrics").unwrap();
    assert_eq!(metric_sum(&page, "skute_server_epoch_pending_queries"), 2.0);
    assert_eq!(post_body(&addr, "/shutdown", b"").unwrap(), 200);
    handle.join().unwrap().unwrap();
}
