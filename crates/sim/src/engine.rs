//! The epoch-driven simulation engine.

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

use skute_cluster::{Capacities, Cluster, ServerSpec};
use skute_core::{AppId, AppSpec, EpochReport, LevelSpec, SkuteCloud, TrafficBatch};
use skute_geo::Location;
use skute_workload::{pareto_popularities, QueryGenerator};

use crate::events::CloudEvent;
use crate::scenario::{Scenario, TraceKind};

/// One epoch's observation: the cloud's report plus derived statistics that
/// need cluster context (the cheap/expensive split of Fig. 2).
#[derive(Debug, Clone, PartialEq)]
pub struct Observation {
    /// The cloud's epoch report.
    pub report: EpochReport,
    /// Mean virtual nodes per alive cheap ($100) server.
    pub cheap_mean_vnodes: f64,
    /// Mean virtual nodes per alive expensive ($125) server.
    pub expensive_mean_vnodes: f64,
    /// Mean query rate the trace prescribed this epoch.
    pub offered_rate: f64,
}

/// Drives a [`SkuteCloud`] through a [`Scenario`], epoch by epoch.
pub struct Simulation {
    scenario: Scenario,
    cloud: SkuteCloud,
    apps: Vec<AppId>,
    query_gen: QueryGenerator<TraceKind>,
    rng: StdRng,
    added_servers: usize,
    insert_seq: u64,
}

impl Simulation {
    /// Builds the cloud described by `scenario`: commissions the cluster
    /// (70/30 cost split), registers the applications, and assigns
    /// Pareto(1, 50) popularity to every partition.
    ///
    /// # Panics
    /// Panics if the scenario is inconsistent (no application, one load
    /// fraction per application, an invalid configuration).
    pub fn new(scenario: Scenario) -> Self {
        scenario.validate();
        let mut rng = StdRng::seed_from_u64(scenario.seed ^ 0x51u64.wrapping_shl(32));
        let cluster = Cluster::from_topology(&scenario.topology, |i, location| ServerSpec {
            location,
            capacities: Capacities::paper(
                scenario.server_storage_bytes,
                scenario.server_query_capacity,
            ),
            monthly_cost: scenario.cost_of(i),
            confidence: 1.0,
        });
        let mut cloud = SkuteCloud::new(
            scenario.config.with_seed(scenario.seed),
            scenario.topology.clone(),
            cluster,
        );
        let mut apps = Vec::with_capacity(scenario.apps.len());
        for (i, app) in scenario.apps.iter().enumerate() {
            let id = cloud
                .create_application(
                    AppSpec::new(format!("app{i}")).level(
                        LevelSpec::new(app.replicas, app.partitions)
                            .with_initial_bytes(app.initial_partition_bytes),
                    ),
                )
                .expect("scenario cluster can seed every partition");
            let pops = pareto_popularities(&mut rng, app.partitions);
            cloud
                .assign_popularity(id, 0, |p| pops[p])
                .expect("level 0 exists");
            apps.push(id);
        }
        let query_gen = QueryGenerator::new(
            scenario.trace.clone(),
            &scenario.load_fractions,
            &scenario.client_geo,
            &scenario.topology,
        );
        Self {
            scenario,
            cloud,
            apps,
            query_gen,
            rng,
            added_servers: 0,
            insert_seq: 0,
        }
    }

    /// The underlying cloud (for ad-hoc inspection between steps).
    pub fn cloud(&self) -> &SkuteCloud {
        &self.cloud
    }

    /// Mutable access to the cloud (fault-injection tests).
    pub fn cloud_mut(&mut self) -> &mut SkuteCloud {
        &mut self.cloud
    }

    /// Attaches an observability sink to the cloud (see
    /// [`skute_core::CloudMetrics`]). Write-only: same-seed runs are
    /// bitwise identical with or without one attached.
    pub fn attach_metrics(&mut self, metrics: std::sync::Arc<skute_core::CloudMetrics>) {
        self.cloud.set_metrics(metrics);
    }

    /// Registered application ids, in scenario order.
    pub fn apps(&self) -> &[AppId] {
        &self.apps
    }

    /// Runs one epoch: lifecycle events → query traffic → inserts →
    /// decision process; returns the epoch's observation.
    pub fn step(&mut self) -> Observation {
        self.cloud.begin_epoch();
        let epoch = self.cloud.epoch();
        for event in self.scenario.schedule.events_at(epoch).to_vec() {
            self.apply_event(event);
        }
        // Queries: every application's traffic in one batched call, so the
        // per-ring delivery plan passes share a single fan-out.
        let traffic = self.query_gen.epoch(&mut self.rng, epoch);
        let offered_rate: f64 = traffic.iter().map(|t| t.queries).sum();
        let batches: Vec<TrafficBatch> = traffic
            .into_iter()
            .map(|t| TrafficBatch {
                app: self.apps[t.app_index],
                level: 0,
                queries: t.queries,
                regions: t.regions,
            })
            .collect();
        self.cloud
            .deliver_queries_multi(batches)
            .expect("registered apps");
        // Inserts (Fig. 5), spread round-robin over the applications.
        if let Some(gen) = self.scenario.inserts {
            let batch = gen.epoch(&mut self.rng, epoch);
            for req in batch {
                let app = self.apps[(self.insert_seq % self.apps.len() as u64) as usize];
                self.insert_seq += 1;
                // Failures are counted by the cloud (Fig. 5's metric).
                let _ = self.cloud.ingest_synthetic(app, 0, &req.key, req.bytes);
            }
        }
        let report = self.cloud.end_epoch();
        self.observe(report, offered_rate)
    }

    /// Runs the scenario to completion, returning every epoch's observation.
    pub fn run(&mut self) -> Vec<Observation> {
        let epochs = self.scenario.epochs;
        (0..epochs).map(|_| self.step()).collect()
    }

    fn apply_event(&mut self, event: CloudEvent) {
        match event {
            CloudEvent::AddServers { count } => {
                for _ in 0..count {
                    let idx = self.cloud.cluster().len();
                    let location = self.spawn_location();
                    let spec = ServerSpec {
                        location,
                        capacities: Capacities::paper(
                            self.scenario.server_storage_bytes,
                            self.scenario.server_query_capacity,
                        ),
                        monthly_cost: self.scenario.cost_of(idx),
                        confidence: 1.0,
                    };
                    self.cloud.add_server(spec);
                    self.added_servers += 1;
                }
            }
            CloudEvent::RemoveServers { count } => {
                let mut alive = self.cloud.cluster().alive_ids();
                alive.shuffle(&mut self.rng);
                for id in alive.into_iter().take(count) {
                    self.cloud.retire_server(id);
                }
            }
            CloudEvent::CountryOutage { continent, country } => {
                // Fully determined by the topology: every alive server in
                // the country fails, in ascending id order, consuming no
                // randomness (the RNG stream stays aligned with runs that
                // schedule no outage).
                let victims: Vec<_> = self
                    .cloud
                    .cluster()
                    .alive()
                    .filter(|s| s.location.continent == continent && s.location.country == country)
                    .map(|s| s.id)
                    .collect();
                for id in victims {
                    self.cloud.retire_server(id);
                }
            }
            CloudEvent::GrayFailures { seed } => {
                // RNG-free plan swap; gray modes derive from the plan's
                // own splitmix64 stream starting at the next epoch.
                self.cloud.set_fault_plan(skute_core::FaultPlan {
                    kind: skute_core::FaultPlanKind::Gray,
                    seed,
                });
            }
            CloudEvent::ContinentPartition { continent } => {
                self.cloud.force_continent_partition(Some(continent));
            }
            CloudEvent::PartitionHealed => {
                self.cloud.force_continent_partition(None);
            }
        }
    }

    /// Location for a newly added server: round-robin over the topology's
    /// countries, first rack of the first room of the first datacenter,
    /// with a server index beyond the original rack population so locations
    /// stay unique.
    fn spawn_location(&self) -> Location {
        let countries: Vec<(u16, u16)> = self.scenario.topology.iter_countries().collect();
        let (ct, co) = countries[self.added_servers % countries.len()];
        let wave = (self.added_servers / countries.len()) as u16;
        Location::new(ct, co, 0, 0, 0, 1000 + wave)
    }

    fn observe(&self, report: EpochReport, offered_rate: f64) -> Observation {
        let mut cheap_total = 0usize;
        let mut cheap_servers = 0usize;
        let mut expensive_total = 0usize;
        let mut expensive_servers = 0usize;
        for server in self.cloud.cluster().alive() {
            let vnodes = report
                .vnodes_per_server
                .get(&server.id)
                .copied()
                .unwrap_or(0);
            if server.monthly_cost <= self.scenario.cheap_cost {
                cheap_total += vnodes;
                cheap_servers += 1;
            } else {
                expensive_total += vnodes;
                expensive_servers += 1;
            }
        }
        Observation {
            report,
            cheap_mean_vnodes: if cheap_servers == 0 {
                0.0
            } else {
                cheap_total as f64 / cheap_servers as f64
            },
            expensive_mean_vnodes: if expensive_servers == 0 {
                0.0
            } else {
                expensive_total as f64 / expensive_servers as f64
            },
            offered_rate,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::paper;

    fn tiny() -> Scenario {
        paper::scaled_scenario("tiny", 8, 4, 40)
    }

    #[test]
    fn simulation_runs_and_reports() {
        let mut sim = Simulation::new(tiny());
        let obs = sim.step();
        assert_eq!(obs.report.epoch, 1);
        assert!(obs.report.total_vnodes() >= 3 * 8);
        assert!(obs.offered_rate > 0.0);
    }

    #[test]
    fn vnodes_converge_to_sla_targets() {
        let mut sim = Simulation::new(tiny());
        let mut last = None;
        for _ in 0..12 {
            last = Some(sim.step());
        }
        let report = last.unwrap().report;
        // Rings converge to ≈ k·M vnodes for k = 2, 3, 4.
        for (i, expect_k) in [2usize, 3, 4].iter().enumerate() {
            let ring = &report.rings[i];
            let per_partition = ring.vnodes as f64 / ring.partitions as f64;
            assert!(
                per_partition >= *expect_k as f64 * 0.95,
                "ring {i}: {per_partition} replicas/partition, want ≈ {expect_k}"
            );
            assert!(
                ring.sla_satisfied_frac > 0.9,
                "ring {i} satisfaction {}",
                ring.sla_satisfied_frac
            );
        }
    }

    #[test]
    fn removal_events_trigger_recovery() {
        let mut scenario = tiny();
        scenario.schedule =
            crate::Schedule::new().at(10, crate::CloudEvent::RemoveServers { count: 10 });
        scenario.epochs = 20;
        let mut sim = Simulation::new(scenario);
        let obs: Vec<Observation> = sim.run();
        assert_eq!(obs[9].report.alive_servers, 190);
        // After removal, repairs kick in and SLA satisfaction recovers.
        let last = &obs.last().unwrap().report;
        for ring in &last.rings {
            assert!(ring.sla_satisfied_frac > 0.9, "{}", ring.sla_satisfied_frac);
        }
    }

    #[test]
    fn addition_events_commission_servers() {
        let mut scenario = tiny();
        scenario.schedule =
            crate::Schedule::new().at(3, crate::CloudEvent::AddServers { count: 20 });
        scenario.epochs = 5;
        let mut sim = Simulation::new(scenario);
        let obs = sim.run();
        assert_eq!(obs[1].report.alive_servers, 200);
        assert_eq!(obs[4].report.alive_servers, 220);
    }

    #[test]
    fn deterministic_replay() {
        let series = |seed: u64| {
            let mut s = tiny();
            s.seed = seed;
            s.epochs = 6;
            let mut sim = Simulation::new(s);
            sim.run()
                .into_iter()
                .map(|o| (o.report.total_vnodes(), o.report.actions))
                .collect::<Vec<_>>()
        };
        assert_eq!(series(11), series(11));
    }

    #[test]
    fn cheap_servers_attract_more_vnodes_over_time() {
        let mut scenario = tiny();
        scenario.epochs = 30;
        let mut sim = Simulation::new(scenario);
        let obs = sim.run();
        let last = obs.last().unwrap();
        assert!(
            last.cheap_mean_vnodes >= last.expensive_mean_vnodes,
            "cheap {} vs expensive {}",
            last.cheap_mean_vnodes,
            last.expensive_mean_vnodes
        );
    }
}
