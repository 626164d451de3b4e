//! Applications and their differentiated availability levels.

use std::fmt;

/// Identifier of a registered application.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct AppId(pub u32);

impl fmt::Display for AppId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "app{}", self.0)
    }
}

/// One availability level of an application, calibrated against a topology.
///
/// `target_replicas` is the paper's "availability level … satisfied by k
/// replicas" (§III-A); `threshold` is the eq.-(2) availability the
/// partition's replica set must reach (see
/// [`crate::availability::threshold_for_replicas`]).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AvailabilityLevel {
    /// Replica count the SLA is designed around.
    pub(crate) target_replicas: usize,
    /// Minimum eq.-(2) availability `th`.
    pub threshold: f64,
}

/// Declarative description of one availability level at registration time.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LevelSpec {
    /// Replica count the SLA is designed around (k ≥ 1).
    pub(crate) replicas: usize,
    /// Initial number of partitions (the paper starts each application at
    /// M = 200).
    pub(crate) partitions: usize,
    /// Initial logical bytes preloaded into each partition.
    pub(crate) initial_partition_bytes: u64,
}

impl LevelSpec {
    /// A level satisfied by `replicas` replicas over `partitions` initial
    /// partitions, with no preloaded data.
    pub fn new(replicas: usize, partitions: usize) -> Self {
        Self {
            replicas,
            partitions,
            initial_partition_bytes: 0,
        }
    }

    /// Sets the preloaded logical bytes per partition.
    #[must_use]
    pub fn with_initial_bytes(mut self, bytes: u64) -> Self {
        self.initial_partition_bytes = bytes;
        self
    }
}

/// Declarative description of an application to register.
#[derive(Debug, Clone)]
pub struct AppSpec {
    /// Human-readable name.
    pub name: String,
    /// One entry per availability level (at least one required).
    pub(crate) levels: Vec<LevelSpec>,
}

impl AppSpec {
    /// An application with no levels yet; add at least one with
    /// [`AppSpec::level`].
    pub fn new(name: impl Into<String>) -> Self {
        Self {
            name: name.into(),
            levels: Vec::new(),
        }
    }

    /// Adds an availability level.
    #[must_use]
    pub fn level(mut self, level: LevelSpec) -> Self {
        self.levels.push(level);
        self
    }
}

/// A registered application.
#[derive(Debug, Clone)]
pub struct Application {
    /// Calibrated availability levels, one virtual ring each.
    pub levels: Vec<AvailabilityLevel>,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn level_spec_builder() {
        let l = LevelSpec::new(3, 200).with_initial_bytes(64);
        assert_eq!(l.replicas, 3);
        assert_eq!(l.partitions, 200);
        assert_eq!(l.initial_partition_bytes, 64);
    }

    #[test]
    fn app_spec_accumulates_levels() {
        let spec = AppSpec::new("photos")
            .level(LevelSpec::new(2, 100))
            .level(LevelSpec::new(4, 50));
        assert_eq!(spec.name, "photos");
        assert_eq!(spec.levels.len(), 2);
        assert_eq!(spec.levels[1].replicas, 4);
    }

    #[test]
    fn display_app_id() {
        assert_eq!(AppId(2).to_string(), "app2");
    }
}
