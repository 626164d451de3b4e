//! Storage-layer errors.

use std::fmt;

/// Errors produced by the storage substrate.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StoreError {
    /// An operation could not assemble the required quorum: a write
    /// acked by fewer than a majority, or a read that reached no replica
    /// (`got: 0`).
    QuorumNotMet {
        /// Responses/acks required.
        needed: usize,
        /// Responses/acks obtained.
        got: usize,
    },
    /// The partition has no replica left (an unreachable one is
    /// [`StoreError::QuorumNotMet`]).
    NoReplicas,
    /// A write could not be placed because storage capacity ran out.
    CapacityExceeded,
}

impl fmt::Display for StoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StoreError::QuorumNotMet { needed, got } => {
                write!(f, "quorum not met: needed {needed}, got {got}")
            }
            StoreError::NoReplicas => f.write_str("no replicas reachable"),
            StoreError::CapacityExceeded => f.write_str("storage capacity exceeded"),
        }
    }
}

impl std::error::Error for StoreError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages() {
        assert_eq!(
            StoreError::QuorumNotMet { needed: 2, got: 1 }.to_string(),
            "quorum not met: needed 2, got 1"
        );
        assert_eq!(StoreError::NoReplicas.to_string(), "no replicas reachable");
        assert_eq!(
            StoreError::CapacityExceeded.to_string(),
            "storage capacity exceeded"
        );
    }
}
