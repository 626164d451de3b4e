//! `skute-load` — closed-loop load generator for `skute-server`.
//!
//! ```text
//! skute-load --addr HOST:PORT [--clients N] [--requests N] [--keys N]
//!            [--value-bytes N] [--seed N] [--scan-limit N]
//!            [--mix get:70,put:25,delete:2,scan:3] [--uniform-countries]
//!            [--consistency one|quorum] [--retries N]
//! skute-load --addr HOST:PORT --scrape /metrics
//! skute-load --addr HOST:PORT --post /shutdown
//! ```
//!
//! Prints two machine-greppable `load:` summary lines (outcome counts and
//! p50/p99/p999 latency). `--scrape PATH` instead issues a single GET and
//! prints the body (CI uses this to pull `/metrics` without curl), and
//! `--post PATH` issues a single POST (the graceful `/shutdown`).

use std::process::ExitCode;

use skute::server::{post_body, run_load, scrape, LoadConfig, Op};

struct Args {
    load: LoadConfig,
    scrape: Option<String>,
    post: Option<String>,
    body: String,
}

fn parse_mix(raw: &str) -> Result<Vec<(Op, u32)>, String> {
    let mut mix = Vec::new();
    for part in raw.split(',') {
        let (name, weight) = part
            .split_once(':')
            .ok_or_else(|| format!("--mix entry {part:?} wants op:weight"))?;
        let op = match name.trim() {
            "get" => Op::Get,
            "put" => Op::Put,
            "delete" => Op::Delete,
            "scan" => Op::Scan,
            other => return Err(format!("--mix: unknown op {other:?}")),
        };
        let weight: u32 = weight
            .trim()
            .parse()
            .map_err(|e| format!("--mix weight: {e}"))?;
        mix.push((op, weight));
    }
    if mix.is_empty() {
        return Err("--mix must name at least one op".to_string());
    }
    Ok(mix)
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        load: LoadConfig::default(),
        scrape: None,
        post: None,
        body: String::new(),
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = |name: &str| it.next().ok_or_else(|| format!("{name} expects a value"));
        match flag.as_str() {
            "--addr" | "-a" => args.load.addr = value("--addr")?,
            "--clients" | "-c" => {
                args.load.clients = value("--clients")?
                    .parse()
                    .map_err(|e| format!("--clients: {e}"))?
            }
            "--requests" | "-n" => {
                args.load.requests = value("--requests")?
                    .parse()
                    .map_err(|e| format!("--requests: {e}"))?
            }
            "--keys" => {
                args.load.keys = value("--keys")?
                    .parse()
                    .map_err(|e| format!("--keys: {e}"))?
            }
            "--value-bytes" => {
                args.load.value_bytes = value("--value-bytes")?
                    .parse()
                    .map_err(|e| format!("--value-bytes: {e}"))?
            }
            "--seed" => {
                args.load.seed = value("--seed")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--scan-limit" => {
                args.load.scan_limit = value("--scan-limit")?
                    .parse()
                    .map_err(|e| format!("--scan-limit: {e}"))?
            }
            "--mix" => args.load.mix = parse_mix(&value("--mix")?)?,
            "--consistency" => {
                let raw = value("--consistency")?;
                match raw.as_str() {
                    "one" | "1" | "quorum" => args.load.consistency = Some(raw),
                    other => return Err(format!("--consistency: unknown level {other:?}")),
                }
            }
            "--retries" => {
                args.load.max_retries = value("--retries")?
                    .parse()
                    .map_err(|e| format!("--retries: {e}"))?
            }
            "--uniform-countries" => {
                // The paper topology: 5 continents × 2 countries, equal
                // weight (matches the simulator's uniform client geo).
                args.load.countries = (0..5u16)
                    .flat_map(|ct| (0..2u16).map(move |co| ((ct, co), 1.0)))
                    .collect();
            }
            "--scrape" => args.scrape = Some(value("--scrape")?),
            "--post" => args.post = Some(value("--post")?),
            "--body" => args.body = value("--body")?,
            "--help" | "-h" => {
                println!(
                    "skute-load: closed-loop load generator for skute-server\n\n\
                     USAGE: skute-load --addr HOST:PORT [--clients N] [--requests N]\n\
                            [--keys N] [--value-bytes N] [--seed N] [--scan-limit N]\n\
                            [--mix get:70,put:25,delete:2,scan:3]\n\
                            [--uniform-countries] [--consistency one|quorum]\n\
                            [--retries N]\n\
                            | --scrape PATH | --post PATH [--body TEXT]\n\n\
                     Prints 'load: issued=.. ok=.. .. retries=.. degraded=..\n\
                     scan_rows=.. unavailable=..' and 'load: p50_ms=..' summary\n\
                     lines (degraded: answers flagged X-Degraded; scan_rows:\n\
                     rows of the scans that were not; unavailable: 503s, a read\n\
                     that reached no replica or a write short of a majority,\n\
                     not counted in http_errors). --consistency sets the\n\
                     X-Consistency header on reads and scans (quorum = majority\n\
                     read; quorum GETs also schedule read-repair). --retries\n\
                     bounds transport-level retries per request (exponential\n\
                     backoff with jitter; default 2).\n\
                     --scrape GETs one path and prints the body; --post POSTs\n\
                     one path (e.g. /shutdown, or /fault with --body 'gray 42')\n\
                     and prints the status."
                );
                std::process::exit(0);
            }
            other => return Err(format!("unknown flag: {other}")),
        }
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e} (try --help)");
            return ExitCode::FAILURE;
        }
    };
    if let Some(path) = args.scrape {
        return match scrape(&args.load.addr, &path) {
            Ok(body) => {
                print!("{body}");
                ExitCode::SUCCESS
            }
            Err(e) => {
                eprintln!("error: scrape {path} failed: {e}");
                ExitCode::FAILURE
            }
        };
    }
    if let Some(path) = args.post {
        return match post_body(&args.load.addr, &path, args.body.as_bytes()) {
            Ok(status) => {
                println!("POST {path} -> {status}");
                if (200..300).contains(&status) {
                    ExitCode::SUCCESS
                } else {
                    ExitCode::FAILURE
                }
            }
            Err(e) => {
                eprintln!("error: POST {path} failed: {e}");
                ExitCode::FAILURE
            }
        };
    }
    match run_load(args.load) {
        Ok(report) => {
            println!("{}", report.summary_lines());
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("error: load run failed: {e}");
            ExitCode::FAILURE
        }
    }
}
