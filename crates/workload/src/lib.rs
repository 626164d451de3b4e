//! # skute-workload
//!
//! Workload generation for the Skute experiments (§III-A):
//!
//! * "The popularity of the virtual nodes (i.e. the query rate) is
//!   distributed according to **Pareto(1, 50)**" — [`Pareto`],
//! * "The number of queries per epoch is **Poisson** distributed with a mean
//!   rate λ=3000" — [`Poisson`],
//! * the Slashdot-effect load spike of Fig. 4 ("the mean rate … increases
//!   from 3000 to 183000 in 25 epochs and then slowly decreases for 250
//!   epochs") — [`SlashdotTrace`] and the [`LoadTrace`] trait,
//! * the storage-saturation insert stream of Fig. 5 ("2000 insert
//!   requests/epoch, each of 500 KB, Pareto(1, 50)-distributed") —
//!   [`InsertGenerator`],
//! * client-geography sampling over [`skute_geo::ClientGeo`].
//!
//! All samplers take explicit RNGs (`rand::Rng`) so every experiment is
//! seed-reproducible.

#![warn(missing_docs)]

mod dist;
mod inserts;
mod queries;
mod trace;

pub use dist::{Pareto, Poisson};
pub use inserts::{InsertGenerator, InsertRequest};
pub use queries::{pareto_popularities, AppTraffic, QueryGenerator};
pub use trace::{ConstantTrace, LoadTrace, SlashdotTrace};
