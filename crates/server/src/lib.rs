//! # skute-server
//!
//! An HTTP front end that serves real client traffic from a live
//! [`skute_core::SkuteCloud`], plus the `skute-load` closed-loop
//! generator that drives it. Both sides are std-only (`TcpListener` and
//! a minimal hand-rolled HTTP/1.1 subset in [`http`]) because the build
//! environment is offline.
//!
//! ## Protocol
//!
//! | Route | Meaning |
//! |---|---|
//! | `GET /healthz` | liveness probe: `200 ok`, or `503` once a handler has panicked holding the cloud lock (every later request that needs the cloud fails) |
//! | `GET /metrics` | Prometheus text exposition of the shared registry; renders through a poisoned cloud lock too |
//! | `GET /kv/<key>` | proximity-routed read ([`SkuteCloud::client_get_with`]); `X-Served-By` / `X-Proximity` / `X-Replicas-Read` response headers; 404 for absent keys; 503 when no replica is reachable |
//! | `PUT /kv/<key>` | write, body is the value, `204`; 503 when fewer than a majority of replicas ack |
//! | `DELETE /kv/<key>` | tombstone write, `204`; 503 as for `PUT` |
//! | `GET /scan?prefix=&limit=` | ordered prefix scan ([`skute_core::ReadView::scan`]) of the percent-decoded `prefix` bytes, one `key\tvalue` line each (percent-encoded); `X-Scan-Count` response header |
//! | `POST /fault` | swap the live fault plan (`gray 42`, `partition 7`, `cut 2`, `heal`, `none`) without a restart |
//! | `POST /shutdown` | graceful stop: respond, then drain and exit |
//!
//! A `<key>` is arbitrary bytes, percent-encoded in the path and decoded
//! byte for byte (`http::percent_decode_bytes`): `/kv/%FE` and
//! `/kv/%FF` name two keys.
//!
//! Reads and scans accept an `X-Consistency: one|quorum` request header
//! selecting the replica set each partition is read from: `one` answers
//! from the closest reachable replica, `quorum` reads a majority of the
//! partition's k replicas and merges last-writer-wins; a quorum `GET`
//! also schedules read-repair for the stale copies it saw. Neither reads
//! a replica its client cannot reach, and a `GET` and a scan read the
//! same replicas, so a `one` scan leaves out a key its replica missed
//! exactly when a `one` `GET` of it answers 404. Both echo
//! `X-Consistency`. When gray failures or a partition leave fewer
//! reachable replicas than a quorum read needs, it answers from those it
//! reached and flags the response with `X-Degraded: true`. When none is
//! reachable, a `GET` answers `503 Service Unavailable`, and a scan leaves
//! the partition out and flags itself degraded.
//!
//! Every message, request or response, is sent in one write (both ends
//! set `TCP_NODELAY`, so a second write would be a second segment). A
//! connection idle past the read timeout is closed without a response; a
//! request that stops half way is answered `408`, malformed input `400`.
//!
//! Clients declare their origin with an `X-Country: <continent>.<country>`
//! header; the server tallies per-country query-units and replays them
//! into the economy as a [`skute_core::TrafficBatch`] on every epoch tick,
//! so replica placement follows the *observed* geographic demand — the
//! serving-path analogue of the paper's simulated traffic (eq. 4 picks
//! the closest replica on reads).
//!
//! Epoch ticks run on a timer thread (`epoch_ms`); metrics are write-only
//! observers of the same [`skute_core::CloudMetrics`] catalogue the
//! simulator uses, so a serving cloud and a simulated cloud expose the
//! same trajectory instrumentation.
//!
//! [`SkuteCloud::client_get_with`]: skute_core::SkuteCloud::client_get_with

#![warn(missing_docs)]

pub mod http;
mod load;
mod server;

pub use load::{post_body, run_load, scrape, LoadConfig, LoadReport, Op};
pub use server::{ServerConfig, SkuteServer};
