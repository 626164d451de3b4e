//! Cloud topology: how many children each level of the hierarchy has.

use crate::location::{Level, Location};

/// A regular physical layout of a data cloud: the number of children at each
/// level of the geographic hierarchy.
///
/// The paper's simulation (§III-A) uses 10 countries, 2 datacenters per
/// country, 1 room per datacenter, 2 racks per room and 5 servers per rack
/// (200 servers); [`Topology::paper`] builds exactly that layout with the 10
/// countries spread over 5 continents.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Topology {
    continents: u16,
    countries_per_continent: u16,
    datacenters_per_country: u16,
    rooms_per_datacenter: u16,
    racks_per_room: u16,
    servers_per_rack: u16,
}

impl Topology {
    /// Starts building a topology. All levels default to one child.
    pub fn builder() -> TopologyBuilder {
        TopologyBuilder::default()
    }

    /// The topology of the paper's simulated cloud: 5 continents × 2
    /// countries × 2 datacenters × 1 room × 2 racks × 5 servers = 200 servers.
    pub fn paper() -> Self {
        Self::builder()
            .continents(5)
            .countries_per_continent(2)
            .datacenters_per_country(2)
            .rooms_per_datacenter(1)
            .racks_per_room(2)
            .servers_per_rack(5)
            .build()
    }

    /// Number of children of a node at the *parent* of `level` — e.g.
    /// `fanout(Level::Country)` is countries per continent.
    pub fn fanout(&self, level: Level) -> u16 {
        match level {
            Level::Continent => self.continents,
            Level::Country => self.countries_per_continent,
            Level::Datacenter => self.datacenters_per_country,
            Level::Room => self.rooms_per_datacenter,
            Level::Rack => self.racks_per_room,
            Level::Server => self.servers_per_rack,
        }
    }

    /// Total number of distinct subtrees at `level` (e.g. total racks).
    pub fn count_at(&self, level: Level) -> u64 {
        let mut total = 1u64;
        for l in Level::ALL {
            total *= u64::from(self.fanout(l));
            if l == level {
                break;
            }
        }
        total
    }

    /// Total number of servers in the topology.
    pub fn server_count(&self) -> u64 {
        self.count_at(Level::Server)
    }

    /// Total number of countries in the topology.
    pub fn country_count(&self) -> u64 {
        self.count_at(Level::Country)
    }

    /// Enumerates every server location in deterministic (lexicographic)
    /// order.
    pub fn iter_servers(&self) -> impl Iterator<Item = Location> + '_ {
        let n = self.server_count();
        (0..n).map(move |i| self.server_at(i))
    }

    /// Enumerates every `(continent, country)` pair.
    pub fn iter_countries(&self) -> impl Iterator<Item = (u16, u16)> + Clone + '_ {
        (0..self.continents)
            .flat_map(move |ct| (0..self.countries_per_continent).map(move |co| (ct, co)))
    }

    /// The location of the `index`-th server in lexicographic order.
    ///
    /// # Panics
    /// Panics if `index >= self.server_count()`.
    pub fn server_at(&self, index: u64) -> Location {
        assert!(
            index < self.server_count(),
            "server index {index} out of range for topology with {} servers",
            self.server_count()
        );
        let mut rem = index;
        let sv = (rem % u64::from(self.servers_per_rack)) as u16;
        rem /= u64::from(self.servers_per_rack);
        let rk = (rem % u64::from(self.racks_per_room)) as u16;
        rem /= u64::from(self.racks_per_room);
        let rm = (rem % u64::from(self.rooms_per_datacenter)) as u16;
        rem /= u64::from(self.rooms_per_datacenter);
        let dc = (rem % u64::from(self.datacenters_per_country)) as u16;
        rem /= u64::from(self.datacenters_per_country);
        let co = (rem % u64::from(self.countries_per_continent)) as u16;
        rem /= u64::from(self.countries_per_continent);
        let ct = rem as u16;
        Location::new(ct, co, dc, rm, rk, sv)
    }

    /// Lexicographic index of a server location (inverse of
    /// [`Topology::server_at`]).
    pub fn index_of(&self, loc: &Location) -> u64 {
        let mut idx = u64::from(loc.continent);
        idx = idx * u64::from(self.countries_per_continent) + u64::from(loc.country);
        idx = idx * u64::from(self.datacenters_per_country) + u64::from(loc.datacenter);
        idx = idx * u64::from(self.rooms_per_datacenter) + u64::from(loc.room);
        idx = idx * u64::from(self.racks_per_room) + u64::from(loc.rack);
        idx * u64::from(self.servers_per_rack) + u64::from(loc.server)
    }

    /// True when `loc` denotes a server that exists in this topology.
    pub fn contains(&self, loc: &Location) -> bool {
        loc.continent < self.continents
            && loc.country < self.countries_per_continent
            && loc.datacenter < self.datacenters_per_country
            && loc.room < self.rooms_per_datacenter
            && loc.rack < self.racks_per_room
            && loc.server < self.servers_per_rack
    }
}

/// Builder for [`Topology`]; every level defaults to a fanout of one.
#[derive(Debug, Clone)]
pub struct TopologyBuilder {
    continents: u16,
    countries_per_continent: u16,
    datacenters_per_country: u16,
    rooms_per_datacenter: u16,
    racks_per_room: u16,
    servers_per_rack: u16,
}

impl Default for TopologyBuilder {
    fn default() -> Self {
        Self {
            continents: 1,
            countries_per_continent: 1,
            datacenters_per_country: 1,
            rooms_per_datacenter: 1,
            racks_per_room: 1,
            servers_per_rack: 1,
        }
    }
}

impl TopologyBuilder {
    /// Sets the number of continents.
    pub fn continents(mut self, n: u16) -> Self {
        self.continents = n;
        self
    }

    /// Sets the number of countries per continent.
    pub fn countries_per_continent(mut self, n: u16) -> Self {
        self.countries_per_continent = n;
        self
    }

    /// Sets the number of datacenters per country.
    pub fn datacenters_per_country(mut self, n: u16) -> Self {
        self.datacenters_per_country = n;
        self
    }

    /// Sets the number of rooms per datacenter.
    pub fn rooms_per_datacenter(mut self, n: u16) -> Self {
        self.rooms_per_datacenter = n;
        self
    }

    /// Sets the number of racks per room.
    pub fn racks_per_room(mut self, n: u16) -> Self {
        self.racks_per_room = n;
        self
    }

    /// Sets the number of servers per rack.
    pub fn servers_per_rack(mut self, n: u16) -> Self {
        self.servers_per_rack = n;
        self
    }

    /// Finalizes the topology.
    ///
    /// # Panics
    /// Panics if any level has a fanout of zero.
    pub fn build(self) -> Topology {
        let t = Topology {
            continents: self.continents,
            countries_per_continent: self.countries_per_continent,
            datacenters_per_country: self.datacenters_per_country,
            rooms_per_datacenter: self.rooms_per_datacenter,
            racks_per_room: self.racks_per_room,
            servers_per_rack: self.servers_per_rack,
        };
        for level in Level::ALL {
            assert!(
                t.fanout(level) > 0,
                "topology fanout at {level} must be positive"
            );
        }
        t
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::diversity::diversity;
    use proptest::prelude::*;

    #[test]
    fn paper_topology_has_200_servers_in_10_countries() {
        let t = Topology::paper();
        assert_eq!(t.server_count(), 200);
        assert_eq!(t.country_count(), 10);
        assert_eq!(t.count_at(Level::Datacenter), 20);
        assert_eq!(t.count_at(Level::Room), 20);
        assert_eq!(t.count_at(Level::Rack), 40);
    }

    #[test]
    fn iter_servers_yields_distinct_valid_locations() {
        let t = Topology::paper();
        let servers: Vec<_> = t.iter_servers().collect();
        assert_eq!(servers.len(), 200);
        for s in &servers {
            assert!(t.contains(s));
        }
        let mut sorted = servers.clone();
        sorted.sort();
        sorted.dedup();
        assert_eq!(sorted.len(), 200, "locations must be unique");
    }

    #[test]
    fn server_at_and_index_of_are_inverse() {
        let t = Topology::paper();
        for i in 0..t.server_count() {
            assert_eq!(t.index_of(&t.server_at(i)), i);
        }
    }

    #[test]
    fn same_rack_servers_have_low_diversity() {
        let t = Topology::paper();
        let a = t.server_at(0);
        let b = t.server_at(1);
        assert_eq!(diversity(&a, &b), 1, "adjacent servers share a rack");
    }

    #[test]
    fn iter_countries_enumerates_all() {
        let t = Topology::paper();
        let countries: Vec<_> = t.iter_countries().collect();
        assert_eq!(countries.len(), 10);
        assert!(countries.contains(&(4, 1)));
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn server_at_panics_out_of_range() {
        let t = Topology::paper();
        let _ = t.server_at(200);
    }

    #[test]
    #[should_panic(expected = "must be positive")]
    fn zero_fanout_rejected() {
        let _ = Topology::builder().continents(0).build();
    }

    proptest! {
        #[test]
        fn prop_roundtrip_arbitrary_topology(
            ct in 1u16..4, co in 1u16..4, dc in 1u16..3,
            rm in 1u16..3, rk in 1u16..3, sv in 1u16..5
        ) {
            let t = Topology::builder()
                .continents(ct)
                .countries_per_continent(co)
                .datacenters_per_country(dc)
                .rooms_per_datacenter(rm)
                .racks_per_room(rk)
                .servers_per_rack(sv)
                .build();
            let n = t.server_count();
            prop_assert_eq!(
                n,
                u64::from(ct) * u64::from(co) * u64::from(dc)
                    * u64::from(rm) * u64::from(rk) * u64::from(sv)
            );
            for i in 0..n {
                prop_assert_eq!(t.index_of(&t.server_at(i)), i);
            }
        }
    }
}
