//! Points in the six-level geographic hierarchy.

use std::fmt;

/// One level of the geographic hierarchy, ordered from the most significant
/// (continent) to the least significant (server).
///
/// The paper encodes the similarity of two locations as a 6-bit number with
/// "leftmost significance" (§II-B); `Level::bit` returns the bit position
/// each level occupies in that encoding.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Level {
    /// Continent — bit 5, the most significant location part.
    Continent,
    /// Country — bit 4.
    Country,
    /// Datacenter — bit 3.
    Datacenter,
    /// Room — bit 2.
    Room,
    /// Rack — bit 1.
    Rack,
    /// Individual server — bit 0, the least significant part.
    Server,
}

impl Level {
    /// All levels from most to least significant.
    pub(crate) const ALL: [Level; 6] = [
        Level::Continent,
        Level::Country,
        Level::Datacenter,
        Level::Room,
        Level::Rack,
        Level::Server,
    ];

    /// Bit position of this level in the 6-bit similarity encoding
    /// (continent = 5 … server = 0).
    #[inline]
    pub(crate) const fn bit(self) -> u8 {
        match self {
            Level::Continent => 5,
            Level::Country => 4,
            Level::Datacenter => 3,
            Level::Room => 2,
            Level::Rack => 1,
            Level::Server => 0,
        }
    }
}

impl fmt::Display for Level {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let name = match self {
            Level::Continent => "continent",
            Level::Country => "country",
            Level::Datacenter => "datacenter",
            Level::Room => "room",
            Level::Rack => "rack",
            Level::Server => "server",
        };
        f.write_str(name)
    }
}

/// A point in the six-level geographic hierarchy.
///
/// Each field holds the *local index* of the component within its parent
/// (e.g. `rack` is the rack number inside its room). Two locations share a
/// component only if they agree on **all coarser components too** — "rack 0
/// in datacenter A" and "rack 0 in datacenter B" are physically distinct
/// racks, which the diversity metric (`diversity`) accounts for.
///
/// Query clients are also represented as `Location`s: the workload layer
/// places a client in a country by using [`Location::client_in_country`],
/// which yields a synthetic path that diverges from every server of that
/// country at the datacenter level.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Location {
    /// Continent index.
    pub continent: u16,
    /// Country index within the continent.
    pub country: u16,
    /// Datacenter index within the country.
    pub(crate) datacenter: u16,
    /// Room index within the datacenter.
    pub(crate) room: u16,
    /// Rack index within the room.
    pub(crate) rack: u16,
    /// Server index within the rack.
    pub(crate) server: u16,
}

/// Synthetic datacenter index marking "a client zone outside any datacenter".
const CLIENT_ZONE: u16 = u16::MAX;

impl Location {
    /// Builds a location from its six components, most significant first.
    #[inline]
    pub const fn new(
        continent: u16,
        country: u16,
        datacenter: u16,
        room: u16,
        rack: u16,
        server: u16,
    ) -> Self {
        Self {
            continent,
            country,
            datacenter,
            room,
            rack,
            server,
        }
    }

    /// The component at `level`.
    #[inline]
    pub(crate) const fn component(&self, level: Level) -> u16 {
        match level {
            Level::Continent => self.continent,
            Level::Country => self.country,
            Level::Datacenter => self.datacenter,
            Level::Room => self.room,
            Level::Rack => self.rack,
            Level::Server => self.server,
        }
    }

    /// The coarsest level at which the two locations differ, or `None` if
    /// they are the same server.
    #[cfg(test)]
    pub(crate) fn first_divergence(&self, other: &Location) -> Option<Level> {
        Level::ALL
            .into_iter()
            .find(|&l| self.component(l) != other.component(l))
    }

    /// A synthetic location for a query client situated in a country but in
    /// no particular datacenter. Its diversity to any server of the same
    /// country is the datacenter-level distance; to servers of other
    /// countries/continents the usual coarser distances apply.
    pub const fn client_in_country(continent: u16, country: u16) -> Self {
        Self::new(continent, country, CLIENT_ZONE, 0, 0, 0)
    }

    /// The `(continent, country)` prefix of this location.
    ///
    /// Query clients live at country granularity, and eq. (4) weighs both
    /// a client and a server by this prefix alone, whatever their finer
    /// levels: a client counts as its country's client zone, and every
    /// server of a country gets the same proximity weight. Proximity
    /// caches key on it.
    pub const fn country_key(&self) -> (u16, u16) {
        (self.continent, self.country)
    }
}

impl fmt::Display for Location {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "ct{}/co{}/dc{}/rm{}/rk{}/sv{}",
            self.continent, self.country, self.datacenter, self.room, self.rack, self.server
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn level_bits_are_leftmost_significant() {
        assert_eq!(Level::Continent.bit(), 5);
        assert_eq!(Level::Country.bit(), 4);
        assert_eq!(Level::Datacenter.bit(), 3);
        assert_eq!(Level::Room.bit(), 2);
        assert_eq!(Level::Rack.bit(), 1);
        assert_eq!(Level::Server.bit(), 0);
    }

    #[test]
    fn component_accessors_match_fields() {
        let loc = Location::new(1, 2, 3, 4, 5, 6);
        assert_eq!(loc.component(Level::Continent), 1);
        assert_eq!(loc.component(Level::Country), 2);
        assert_eq!(loc.component(Level::Datacenter), 3);
        assert_eq!(loc.component(Level::Room), 4);
        assert_eq!(loc.component(Level::Rack), 5);
        assert_eq!(loc.component(Level::Server), 6);
    }

    #[test]
    fn first_divergence_finds_coarsest_difference() {
        let a = Location::new(0, 1, 0, 0, 0, 0);
        let b = Location::new(0, 1, 2, 0, 0, 0);
        assert_eq!(a.first_divergence(&b), Some(Level::Datacenter));
        assert_eq!(a.first_divergence(&a), None);
        let d = Location::new(1, 1, 0, 0, 0, 0);
        assert_eq!(a.first_divergence(&d), Some(Level::Continent));
    }

    #[test]
    fn client_zone_diverges_at_datacenter() {
        let client = Location::client_in_country(0, 1);
        let server = Location::new(0, 1, 0, 0, 0, 0);
        assert_ne!(server, client);
        assert_eq!(client.first_divergence(&server), Some(Level::Datacenter));
    }

    #[test]
    fn country_key_is_the_two_level_prefix() {
        let loc = Location::new(3, 1, 2, 0, 1, 4);
        assert_eq!(loc.country_key(), (3, 1));
        assert_eq!(Location::client_in_country(3, 1).country_key(), (3, 1));
    }

    #[test]
    fn display_is_compact() {
        let loc = Location::new(1, 2, 3, 4, 5, 6);
        assert_eq!(loc.to_string(), "ct1/co2/dc3/rm4/rk5/sv6");
    }
}
