//! # skute-sim
//!
//! The epoch-driven simulation harness behind every experiment in the paper
//! (§III): it assembles a [`skute_core::SkuteCloud`] from a declarative
//! [`Scenario`], drives it epoch by epoch with generated query/insert
//! traffic, applies scheduled server arrivals and failures, and records the
//! per-epoch time series that Figs. 2–5 plot.
//!
//! The canonical configurations live in [`paper`]:
//!
//! * [`paper::base_scenario`] — §III-A: 200 servers over 10 countries, three
//!   applications at 2/3/4 replicas, M = 200 partitions each, Pareto(1, 50)
//!   popularity, Poisson λ = 3000 queries/epoch, 70% of servers at $100 and
//!   30% at $125;
//! * [`paper::fig3_scenario`] — +20 servers at epoch 100, −20 at epoch 200;
//! * [`paper::fig4_scenario`] — the Slashdot spike with 4/7, 2/7, 1/7
//!   application load fractions;
//! * [`paper::fig5_scenario`] — 2000 × 500 KB inserts/epoch until the cloud
//!   saturates.

#![warn(missing_docs)]

mod engine;
mod events;
pub mod paper;
mod recorder;
mod scenario;

pub use engine::{Observation, Simulation};
pub use events::{CloudEvent, Schedule};
pub use recorder::Recorder;
pub use scenario::{Scenario, ScenarioApp, TraceKind};
