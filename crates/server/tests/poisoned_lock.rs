//! A handler that panics while it holds the cloud lock poisons the lock,
//! and every later request that needs the cloud fails. This test forges
//! such a panic the way a dying disk would: it serves the LSM backend,
//! writes a key, then replaces the process's store root with a plain
//! file, so that the next write to a store not yet on disk panics on
//! creating its directory. From then on `/healthz` and every request that
//! needs the cloud (`/kv`, `/scan`, `/fault`) must answer 503, the epoch
//! tick must return without panicking, `/metrics` must still render, and
//! the panicked connection must no longer count as open.
//!
//! A test binary of its own: the store root is shared by every LSM store
//! of the process, and replacing it breaks all of them.

use std::fs;
use std::io::{self, BufReader};
use std::net::TcpStream;
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

use skute_server::http::{read_response, write_request};
use skute_server::{post_body, scrape, ServerConfig, SkuteServer};
use skute_store::lsm::fresh_store_dir;
use skute_store::BackendKind;

/// One request on its own connection: the response status, or the error
/// of a connection the server dropped without answering.
fn request(addr: &str, method: &str, path: &str, body: &[u8]) -> io::Result<u16> {
    let stream = TcpStream::connect(addr)?;
    stream.set_read_timeout(Some(Duration::from_secs(10)))?;
    let mut reader = BufReader::new(stream.try_clone()?);
    let mut writer = stream;
    let headers = [("Connection", "close"), ("X-Country", "1.1")];
    write_request(&mut writer, method, path, &headers, body)?;
    Ok(read_response(&mut reader)?.status)
}

#[test]
fn a_poisoned_cloud_lock_answers_503_and_metrics_still_render() {
    let server = Arc::new(
        SkuteServer::bind(ServerConfig {
            addr: "127.0.0.1:0".to_string(),
            backend: BackendKind::Lsm,
            partitions: 20,
            warmup_epochs: 2,
            epoch_ms: 0,
            ..ServerConfig::default()
        })
        .expect("bind on a free port"),
    );
    let addr = server.addr().to_string();
    let handle = thread::spawn({
        let server = Arc::clone(&server);
        move || server.run()
    });

    assert_eq!(request(&addr, "PUT", "/kv/first", b"v").unwrap(), 204);
    assert_eq!(request(&addr, "GET", "/kv/first", b"").unwrap(), 200);
    assert_eq!(request(&addr, "GET", "/healthz", b"").unwrap(), 200);

    // The disk goes away: the store root becomes a plain file.
    let root = fresh_store_dir()
        .parent()
        .expect("stores live under one root")
        .to_path_buf();
    assert!(root.is_dir(), "the first write created {}", root.display());
    fs::remove_dir_all(&root).unwrap();
    fs::write(&root, b"not a directory").unwrap();

    // Some later key lands on a replica whose store is not on disk yet;
    // creating its directory panics under the cloud lock, and the server
    // drops that connection without an answer.
    let dropped = (0..64).any(|i| request(&addr, "PUT", &format!("/kv/key-{i}"), b"v").is_err());
    assert!(dropped, "no write reached a store without a directory");

    assert_eq!(
        request(&addr, "GET", "/healthz", b"").unwrap(),
        503,
        "/healthz answers 503 once the cloud lock is poisoned"
    );
    for (method, path, body) in [
        ("GET", "/kv/first", &b""[..]),
        ("PUT", "/kv/second", b"v"),
        ("GET", "/scan", b""),
        ("POST", "/fault", b"heal"),
    ] {
        assert_eq!(
            request(&addr, method, path, body).unwrap(),
            503,
            "{method} {path} answers 503 through the poisoned lock"
        );
    }
    server.tick_now();
    let metrics = scrape(&addr, "/metrics").expect("/metrics renders through the poisoned lock");
    assert!(metrics.contains("skute_server_requests_total"));
    assert!(metrics.contains("skute_storage_engine_ops"));

    // The panicked connection closes its count as it unwinds: soon the
    // scrape's own connection is the only one open.
    let open = |page: &str| {
        page.lines()
            .find_map(|l| l.strip_prefix("skute_server_active_connections "))
            .and_then(|v| v.trim().parse::<i64>().ok())
    };
    let deadline = Instant::now() + Duration::from_secs(2);
    let mut last = open(&metrics);
    while last != Some(1) && Instant::now() < deadline {
        thread::sleep(Duration::from_millis(20));
        last = open(&scrape(&addr, "/metrics").unwrap());
    }
    assert_eq!(last, Some(1), "active connections after the panic");

    assert_eq!(post_body(&addr, "/shutdown", b"").unwrap(), 200);
    handle.join().unwrap().unwrap();
    let _ = fs::remove_file(&root);
}
