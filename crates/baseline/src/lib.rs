//! # skute-baseline
//!
//! Baseline replica-placement policies used to contextualize Skute's
//! economic placement (eq. 3). The paper compares against the design space
//! of its references — economic placement without geography \[3, 4\] and
//! Dynamo-style successor-list placement \[5\] — so this crate implements the
//! four natural corners of that space behind the
//! [`skute_core::PlacementStrategy`] interface:
//!
//! * [`RandomPlacement`] — uniform random alive server,
//! * [`SuccessorPlacement`] — Dynamo-style: the next servers in id order
//!   (geography-blind, deterministic),
//! * [`CheapestPlacement`] — pure cost minimization (rent-greedy, the
//!   economic-only corner),
//! * [`MaxSpreadPlacement`] — pure geographic diversity, cost-blind.
//!
//! `harness` evaluates any strategy on availability, cost and failure
//! survival so the `paper_claims` example can print a comparison table.

#![warn(missing_docs)]

mod cheapest;
mod harness;
mod random;
mod spread;
mod successor;

pub use cheapest::CheapestPlacement;
pub use harness::{evaluate, CtxFixture, EvaluationConfig, StrategyOutcome};
pub use random::RandomPlacement;
pub use spread::MaxSpreadPlacement;
pub use successor::SuccessorPlacement;
