//! `skute-server` — serve a live Skute cloud over HTTP.
//!
//! ```text
//! skute-server [--addr HOST:PORT] [--replicas N] [--partitions N]
//!              [--seed N] [--threads N] [--backend mem|lsm]
//!              [--epoch-ms N] [--warmup-epochs N] [--queries-per-request F]
//!              [--read-timeout-ms N] [--write-timeout-ms N]
//! ```
//!
//! Prints `listening on <addr>` once the socket is bound (CI parses this
//! to discover the port when `--addr` ends in `:0`), then serves until a
//! `POST /shutdown` arrives. See the `skute_server` crate docs for the
//! protocol and metric catalogue.

use std::process::ExitCode;

use skute::prelude::*;
use skute::server::ServerConfig;
use skute_server::SkuteServer;

fn parse_args() -> Result<ServerConfig, String> {
    let mut config = ServerConfig::default();
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = |name: &str| it.next().ok_or_else(|| format!("{name} expects a value"));
        match flag.as_str() {
            "--addr" | "-a" => config.addr = value("--addr")?,
            "--replicas" => {
                config.replicas = value("--replicas")?
                    .parse()
                    .map_err(|e| format!("--replicas: {e}"))?
            }
            "--partitions" => {
                config.partitions = value("--partitions")?
                    .parse()
                    .map_err(|e| format!("--partitions: {e}"))?
            }
            "--seed" => {
                config.seed = value("--seed")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--threads" | "-t" => {
                config.threads = value("--threads")?
                    .parse()
                    .map_err(|e| format!("--threads: {e}"))?
            }
            "--backend" | "-b" => {
                config.backend = value("--backend")?
                    .parse::<BackendKind>()
                    .map_err(|e| format!("--backend: {e}"))?
            }
            "--epoch-ms" => {
                config.epoch_ms = value("--epoch-ms")?
                    .parse()
                    .map_err(|e| format!("--epoch-ms: {e}"))?
            }
            "--warmup-epochs" => {
                config.warmup_epochs = value("--warmup-epochs")?
                    .parse()
                    .map_err(|e| format!("--warmup-epochs: {e}"))?
            }
            "--queries-per-request" => {
                config.queries_per_request = value("--queries-per-request")?
                    .parse()
                    .map_err(|e| format!("--queries-per-request: {e}"))?
            }
            "--read-timeout-ms" => {
                config.read_timeout_ms = value("--read-timeout-ms")?
                    .parse()
                    .map_err(|e| format!("--read-timeout-ms: {e}"))?
            }
            "--write-timeout-ms" => {
                config.write_timeout_ms = value("--write-timeout-ms")?
                    .parse()
                    .map_err(|e| format!("--write-timeout-ms: {e}"))?
            }
            "--help" | "-h" => {
                println!(
                    "skute-server: serve a live Skute cloud over HTTP\n\n\
                     USAGE: skute-server [--addr HOST:PORT] [--replicas N]\n\
                            [--partitions N] [--seed N] [--threads N]\n\
                            [--backend mem|lsm] [--epoch-ms N]\n\
                            [--warmup-epochs N] [--queries-per-request F]\n\
                            [--read-timeout-ms N] [--write-timeout-ms N]\n\n\
                     Routes: GET /healthz, GET /metrics, GET|PUT|DELETE /kv/<key>,\n\
                     GET /scan?prefix=&limit=, POST /fault, POST /shutdown.\n\
                     Clients may send X-Country: <continent>.<country> to steer\n\
                     eq.-(4) proximity routing; observed per-country traffic\n\
                     feeds the epoch tick (every --epoch-ms milliseconds) so\n\
                     placement follows demand. Reads accept X-Consistency:\n\
                     one|quorum (quorum merges a majority of replicas LWW and\n\
                     schedules read-repair). A read only reads replicas its\n\
                     client can reach: a quorum short of a majority answers\n\
                     from those, flagged X-Degraded: true; a read that reaches\n\
                     none, or a write short of a majority, answers 503.\n\
                     POST /fault swaps the live fault plan: body\n\
                     '<plan> [seed]' (e.g. 'gray 42'),\n\
                     'cut <continent>', or 'heal'. --read/write-timeout-ms\n\
                     bound per-connection socket stalls (0 = no timeout)."
                );
                std::process::exit(0);
            }
            other => return Err(format!("unknown flag: {other}")),
        }
    }
    Ok(config)
}

fn main() -> ExitCode {
    let config = match parse_args() {
        Ok(c) => c,
        Err(e) => {
            eprintln!("error: {e} (try --help)");
            return ExitCode::FAILURE;
        }
    };
    let server = match SkuteServer::bind(config) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("error: bind failed: {e}");
            return ExitCode::FAILURE;
        }
    };
    println!("listening on {}", server.addr());
    match server.run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: server loop failed: {e}");
            ExitCode::FAILURE
        }
    }
}
