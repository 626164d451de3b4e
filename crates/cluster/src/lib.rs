//! # skute-cluster
//!
//! The physical substrate of a Skute data cloud: servers with geographic
//! locations, capacity/usage accounting, the real-rent cost model, server
//! lifecycle (arrival, retirement/failure) and the **board** — "the virtual
//! rent of each server is announced at a board (i.e. an elected server) and
//! is updated at the beginning of a new epoch" (§II).
//!
//! The economic logic that *computes* prices lives in `skute-economy`; this
//! crate owns the physical facts: how much storage and bandwidth a server
//! has, how much was consumed this epoch, what the server costs per month,
//! and which servers are currently alive.

#![warn(missing_docs)]

mod board;
mod capacity;
mod cost;
mod server;

mod cluster;

pub use board::Board;
pub use capacity::{Capacities, UsageMeter};
pub use cluster::{Cluster, ServerSpec};
pub use cost::MarginalPrice;
pub use server::{Server, ServerId};
