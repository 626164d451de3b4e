//! Identified key-range partitions.

use std::fmt;

use crate::token::KeyRange;

/// Identifier of a partition, unique within one [`crate::VirtualRing`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct PartitionId(pub u64);

impl fmt::Display for PartitionId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "p{}", self.0)
    }
}

/// A partition: an identified arc of the key ring.
///
/// The paper caps partitions at 256 MB, "after which the data of the
/// partition is split into two new ones" (§III-A); splitting is performed by
/// [`crate::VirtualRing::split_partition`], which allocates two fresh ids.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Partition {
    /// Partition identifier.
    pub id: PartitionId,
    /// The keys this partition is responsible for.
    pub range: KeyRange,
}

impl Partition {
    /// Creates a partition over `range`.
    pub(crate) const fn new(id: PartitionId, range: KeyRange) -> Self {
        Self { id, range }
    }
}

impl fmt::Display for Partition {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}@{}", self.id, self.range)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::token::Token;

    #[test]
    fn partition_owns_its_range() {
        let p = Partition::new(PartitionId(7), KeyRange::new(Token(100), Token(200)));
        assert!(p.range.contains(Token(150)));
        assert!(p.range.contains(Token(200)));
        assert!(!p.range.contains(Token(100)));
        assert!(!p.range.contains(Token(201)));
        assert_eq!(p.range.end, Token(200));
    }

    #[test]
    fn display_formats() {
        let p = Partition::new(PartitionId(3), KeyRange::new(Token(0), Token(16)));
        assert_eq!(PartitionId(3).to_string(), "p3");
        assert!(p.to_string().starts_with("p3@("));
    }
}
