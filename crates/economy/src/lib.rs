//! # skute-economy
//!
//! The virtual economy of Skute (§II): every data partition's virtual nodes
//! behave as individual optimizers that pay **virtual rent** to the servers
//! hosting them and earn **utility** from the queries they answer. This
//! crate implements the paper's four equations as small, independently
//! testable components:
//!
//! * eq. (1) — [`RentModel`]: `c = up · (1 + α·storage_usage + β·query_load)`,
//! * eq. (2) is availability and lives in `skute-core` (it needs SLA context),
//! * eq. (3) — [`scoring::candidate_score`]: replication/migration target
//!   selection maximizing diversity gain minus rent,
//! * eq. (4) — [`scoring::proximity`]: the client-proximity weight `g_j`,
//! * eq. (5) — [`utility()`]: the per-epoch balance `b = u(pop, g) − c`.
//!
//! [`BalanceHistory`] tracks the f-epoch positive/negative balance streaks
//! that gate the replicate/migrate/suicide decisions of §II-C.

#![warn(missing_docs)]

pub mod balance;
pub mod config;
pub mod rent;
pub mod scoring;
pub mod utility;

pub use balance::{BalanceHistory, MAX_DECISION_WINDOW};
pub use config::EconomyConfig;
pub use rent::RentModel;
pub use scoring::{candidate_score, proximity, ProximityCache, RegionQueries};
pub use utility::{floored_utility, utility};
