//! # skute-ring
//!
//! Ring topology and consistent hashing for Skute.
//!
//! Skute "is built using a ring topology and a variant of consistent
//! hashing. Data is identified by a key and its location is given by the hash
//! function of this key, i.e. O(1) DHT. The key space is split into
//! partitions. … A virtual node (alternatively a partition) holds data for
//! the range of keys in (previous token, token]" (§I).
//!
//! This crate provides:
//! * [`KeyHasher`] — a stable, seedable 64-bit key hash,
//! * [`Token`] and [`KeyRange`] — positions on the ring and wrap-around
//!   `(prev, token]` ranges,
//! * [`Partition`] — an identified key range that can split when it outgrows
//!   the paper's 256 MB partition capacity,
//! * [`VirtualRing`] — one application availability level's set of
//!   partitions with O(log M) routing and partition splitting.
//!
//! The *multiple virtual rings on a single cloud* concept (one ring per
//! application per availability level, Fig. 1) is assembled in `skute-core`
//! from several `VirtualRing` values.

#![warn(missing_docs)]

mod hash;
mod partition;
mod token;
mod vring;

pub use hash::KeyHasher;
pub use partition::{Partition, PartitionId};
pub use token::{KeyRange, Token};
pub use vring::{RingId, VirtualRing};
