//! # skute-core
//!
//! The Skute self-managed key-value store: the paper's primary contribution.
//!
//! Skute offers **differentiated data availability guarantees** to multiple
//! applications sharing one cloud of federated servers, at minimal rent
//! cost. Each application gets one *virtual ring* per availability level
//! (Fig. 1); every partition of every ring is represented by virtual nodes
//! (one per replica) that act as decentralized optimizers: at the end of
//! each epoch a virtual node decides to **replicate**, **migrate**,
//! **suicide** or do nothing (§II-C), driven by
//!
//! * the availability of its partition (eq. 2, `availability`),
//! * its balance `b = u(pop, g) − c` (eq. 5, `skute-economy`),
//! * candidate scoring `max Σ g·conf·diversity − c` (eq. 3),
//!
//! under per-epoch replication/migration bandwidth budgets and storage
//! capacities (`skute-cluster`).
//!
//! The entry point is [`SkuteCloud`]: commission a cluster, register
//! applications with [`AppSpec`], feed per-epoch query loads, and call
//! [`SkuteCloud::end_epoch`] to run the decentralized decision process and
//! collect an [`EpochReport`].
//!
//! ```
//! use skute_core::{AppSpec, LevelSpec, SkuteCloud, SkuteConfig};
//! use skute_cluster::{Capacities, Cluster, ServerSpec};
//! use skute_geo::Topology;
//!
//! let topology = Topology::paper();
//! let cluster = Cluster::from_topology(&topology, |i, location| ServerSpec {
//!     location,
//!     capacities: Capacities::paper(10 << 30, 3_000.0),
//!     monthly_cost: if i % 10 < 7 { 100.0 } else { 125.0 },
//!     confidence: 1.0,
//! });
//! let mut cloud = SkuteCloud::new(SkuteConfig::paper(), topology, cluster);
//! let app = cloud
//!     .create_application(AppSpec::new("photos").level(LevelSpec::new(3, 16)))
//!     .unwrap();
//! cloud.begin_epoch();
//! cloud.put(app, 0, b"user:1", b"hello".to_vec()).unwrap();
//! let report = cloud.end_epoch();
//! assert_eq!(report.epoch, 1);
//! let value = cloud.get(app, 0, b"user:1").unwrap().unwrap();
//! assert_eq!(value.as_ref(), b"hello");
//! ```

#![warn(missing_docs)]

mod app;
mod availability;
mod cloud;
mod config;
mod decision;
mod error;
mod health;
mod metrics;
mod obs;
mod pipeline;
pub mod placement;
mod vnode;

pub use app::{AppId, AppSpec, Application, AvailabilityLevel, LevelSpec};
pub use availability::{availability_of, threshold_for_replicas};
pub use cloud::{ClientRead, ClientScan, ReadConsistency, ReadView, SkuteCloud, TrafficBatch};
pub use config::SkuteConfig;
pub use decision::ActionCounts;
pub use error::CoreError;
pub use health::GrayMode;
pub use metrics::{EpochReport, RingReport, ScrubReport};
pub use obs::CloudMetrics;
pub use placement::{PlacementContext, PlacementStrategy};
// Fault-model types consumers configure the cloud with, re-exported so
// downstream crates (sim, server) need no direct skute-store dependency.
pub use skute_store::{FaultPlan, FaultPlanKind};
