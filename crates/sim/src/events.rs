//! Scheduled lifecycle events: server arrivals and failures.

use std::collections::BTreeMap;

/// A lifecycle event applied at the start of a scheduled epoch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CloudEvent {
    /// Commission `count` new servers (§III-C adds 20 at epoch 100). Costs
    /// and capacities follow the scenario's server template; locations are
    /// spread round-robin over the existing countries.
    AddServers {
        /// Number of servers to add.
        count: usize,
    },
    /// Retire `count` random alive servers (§III-C removes 20 at epoch
    /// 200). All their replicas are lost.
    RemoveServers {
        /// Number of servers to fail.
        count: usize,
    },
    /// Correlated outage: **every** alive server located in one country
    /// fails in the same epoch (a grid or backbone failure). Unlike
    /// [`CloudEvent::RemoveServers`] the victims are not sampled — the
    /// event is fully determined by the topology, consumes no randomness,
    /// and stresses exactly what eq. (2) prices: partitions whose replica
    /// sets leaned on that country's diversity lose several replicas at
    /// once.
    CountryOutage {
        /// Continent index of the failing country.
        continent: u16,
        /// Country index within the continent.
        country: u16,
    },
    /// Switches the cloud onto a gray fault plan seeded with `seed`:
    /// from the next epoch on, per-server gray modes (read-only, slow,
    /// partitioned) and a rotating continental cut are derived from the
    /// fault stream and priced into confidence. RNG-free — the plan swap
    /// consumes no scenario randomness.
    GrayFailures {
        /// Seed of the gray fault stream.
        seed: u64,
    },
    /// Severs one continent from the rest of the cloud from the next
    /// epoch on (overriding whatever cut the fault plan derives).
    /// RNG-free and fully determined by the topology.
    ContinentPartition {
        /// Continent index to cut off.
        continent: u16,
    },
    /// Heals any continental partition (forced or plan-derived); server
    /// confidences recover through the health EWMA over the following
    /// epochs.
    PartitionHealed,
}

/// An epoch-indexed schedule of [`CloudEvent`]s.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Schedule {
    events: BTreeMap<u64, Vec<CloudEvent>>,
}

impl Schedule {
    /// An empty schedule.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds an event at `epoch` (events at the same epoch apply in
    /// insertion order).
    #[must_use]
    pub fn at(mut self, epoch: u64, event: CloudEvent) -> Self {
        self.events.entry(epoch).or_default().push(event);
        self
    }

    /// The events scheduled for `epoch`.
    pub(crate) fn events_at(&self, epoch: u64) -> &[CloudEvent] {
        self.events.get(&epoch).map(Vec::as_slice).unwrap_or(&[])
    }

    /// True when nothing is scheduled.
    #[cfg(test)]
    pub(crate) fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Total number of scheduled events.
    #[cfg(test)]
    pub(crate) fn len(&self) -> usize {
        self.events.values().map(Vec::len).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schedule_lookup() {
        let s = Schedule::new()
            .at(100, CloudEvent::AddServers { count: 20 })
            .at(200, CloudEvent::RemoveServers { count: 20 })
            .at(100, CloudEvent::RemoveServers { count: 1 })
            .at(
                300,
                CloudEvent::CountryOutage {
                    continent: 0,
                    country: 1,
                },
            );
        assert_eq!(s.len(), 4);
        assert_eq!(
            s.events_at(300),
            &[CloudEvent::CountryOutage {
                continent: 0,
                country: 1
            }]
        );
        assert_eq!(
            s.events_at(100),
            &[
                CloudEvent::AddServers { count: 20 },
                CloudEvent::RemoveServers { count: 1 }
            ]
        );
        assert_eq!(s.events_at(150), &[]);
        assert!(!s.is_empty());
        assert!(Schedule::new().is_empty());
    }
}
