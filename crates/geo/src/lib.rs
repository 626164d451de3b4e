//! # skute-geo
//!
//! Geographic model underlying Skute's availability reasoning.
//!
//! The paper (Bonvin et al., ICDE 2010, §I–II) locates every physical server
//! in a six-level hierarchy — *continent, country, datacenter, room, rack,
//! server* — and approximates the availability of a data partition by the
//! **geographical diversity** of the servers hosting its replicas. This crate
//! provides:
//!
//! * [`Location`]: a point in the six-level hierarchy,
//! * [`diversity()`]: the paper's 6-bit NOT-of-similarity distance (eq. 2's
//!   `diversity(s_i, s_j)` term),
//! * [`Topology`]: a description of a cloud's physical layout plus iteration
//!   and enumeration helpers,
//! * [`ClientGeo`]: distributions of query clients over the hierarchy, used
//!   by eq. (4)'s proximity weight `g_j`.
//!
//! The crate is dependency-free and purely functional; all randomized
//! sampling lives in `skute-workload`.

#![warn(missing_docs)]

mod distribution;
mod diversity;
mod hierarchy;
mod location;

pub use distribution::{ClientGeo, RegionWeight};
pub use diversity::diversity;
pub use hierarchy::{Topology, TopologyBuilder};
pub use location::{Level, Location};
