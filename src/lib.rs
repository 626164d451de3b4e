//! # Skute
//!
//! A Rust reproduction of **"Cost-efficient and Differentiated Data
//! Availability Guarantees in Data Clouds"** (Bonvin, Papaioannou, Aberer —
//! ICDE 2010): a self-managed key-value store that dynamically allocates the
//! resources of a data cloud to several applications in a cost-efficient
//! way, offering and maintaining multiple differentiated availability
//! guarantees per application despite failures.
//!
//! The system is a **virtual economy**: every data partition is represented
//! by virtual nodes (one per replica) that act as individual optimizers —
//! each epoch they earn utility from answered queries, pay virtual rent to
//! their hosting server, and choose to replicate, migrate, or delete
//! themselves by net-benefit maximization.
//!
//! ## Crate map
//!
//! | crate | contents |
//! |---|---|
//! | [`geo`] | six-level geographic hierarchy, the 6-bit diversity metric |
//! | [`ring`] | consistent hashing, tokens, partitions, virtual rings |
//! | [`cluster`] | servers, capacities, cost model, the rent board |
//! | [`store`] | versioned records, partition stores, quorum R/W |
//! | [`economy`] | eq. (1) rent, eq. (3)/(4) scoring, eq. (5) balances |
//! | [`core`] | availability (eq. 2), SLAs, virtual-node agents, [`SkuteCloud`] |
//! | [`workload`] | Pareto/Poisson samplers, Slashdot trace, inserts |
//! | [`sim`] | epoch simulation engine and the paper's scenarios |
//! | [`baseline`] | random/successor/cheapest/max-spread placement baselines |
//! | [`obs`] | zero-dependency metrics registry + Prometheus exposition |
//! | [`server`] | HTTP serving front end and the `skute-load` generator |
//!
//! ## Quickstart
//!
//! ```
//! use skute::prelude::*;
//!
//! // A 200-server cloud spread over 5 continents (the paper's topology).
//! let topology = Topology::paper();
//! let cluster = Cluster::from_topology(&topology, |i, location| ServerSpec {
//!     location,
//!     capacities: Capacities::paper(4 << 30, 3_000.0),
//!     monthly_cost: if i % 10 < 7 { 100.0 } else { 125.0 },
//!     confidence: 1.0,
//! });
//! let mut cloud = SkuteCloud::new(SkuteConfig::paper(), topology, cluster);
//!
//! // An application whose SLA is satisfied by 3 geographically
//! // diverse replicas, over 32 partitions.
//! let app = cloud
//!     .create_application(AppSpec::new("photos").level(LevelSpec::new(3, 32)))
//!     .unwrap();
//!
//! // Store and read data; run epochs so the virtual economy replicates
//! // every partition up to its availability target.
//! cloud.begin_epoch();
//! cloud.put(app, 0, b"user:1:avatar", b"png-bytes".to_vec()).unwrap();
//! for _ in 0..6 {
//!     cloud.begin_epoch();
//!     cloud.end_epoch();
//! }
//! assert_eq!(
//!     cloud.get(app, 0, b"user:1:avatar").unwrap().unwrap().as_ref(),
//!     b"png-bytes"
//! );
//! ```

#![warn(missing_docs)]

pub use skute_baseline as baseline;
pub use skute_cluster as cluster;
pub use skute_core as core;
pub use skute_economy as economy;
pub use skute_geo as geo;
pub use skute_obs as obs;
pub use skute_ring as ring;
pub use skute_server as server;
pub use skute_sim as sim;
pub use skute_store as store;
pub use skute_workload as workload;

pub use skute_core::{
    AppId, AppSpec, AvailabilityLevel, CoreError, EpochReport, LevelSpec, RingReport, SkuteCloud,
    SkuteConfig,
};

/// One-stop imports for applications embedding Skute.
pub mod prelude {
    pub use skute_cluster::{Board, Capacities, Cluster, Server, ServerId, ServerSpec};
    pub use skute_core::{
        availability_of, threshold_for_replicas, AppId, AppSpec, AvailabilityLevel, ClientRead,
        CloudMetrics, CoreError, EpochReport, GrayMode, LevelSpec, PlacementStrategy,
        ReadConsistency, RingReport, ScrubReport, SkuteCloud, SkuteConfig, TrafficBatch,
    };
    pub use skute_economy::EconomyConfig;
    pub use skute_geo::{diversity, ClientGeo, Level, Location, Topology};
    pub use skute_obs::Registry;
    pub use skute_ring::{KeyRange, PartitionId, RingId, Token};
    pub use skute_server::{LoadConfig, LoadReport, ServerConfig, SkuteServer};
    pub use skute_sim::{
        CloudEvent, Observation, Recorder, Scenario, ScenarioApp, Schedule, Simulation, TraceKind,
    };
    pub use skute_store::{BackendKind, FaultPlan, FaultPlanKind, FaultStats};
    pub use skute_workload::{
        ConstantTrace, InsertGenerator, LoadTrace, Pareto, Poisson, QueryGenerator, SlashdotTrace,
    };
}
