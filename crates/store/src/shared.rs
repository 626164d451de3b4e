//! The copy-on-write handle the in-memory replica store is held through.

use std::ops::Deref;
use std::sync::{Arc, OnceLock};

use crate::engine::PartitionStore;

/// A copy-on-write handle to a [`PartitionStore`] with value semantics.
///
/// Cloning is an `Arc` bump; the first mutation after a clone
/// (`make_mut`) detaches a private copy. This is the
/// storage type of mem replica stores: a replication transfer shares one
/// allocation instead of deep-copying the store per replica, and replicas
/// that still share an allocation hold identical contents.
///
/// Reads go through `Deref`, so the full [`PartitionStore`] read API is
/// available directly on the handle.
///
/// Every empty handle ([`Default`]) shares one process-wide empty store,
/// so a fresh replica allocates nothing until its first write detaches it.
#[derive(Debug, Clone)]
pub struct CowPartitionStore {
    inner: Arc<PartitionStore>,
}

impl Default for CowPartitionStore {
    fn default() -> Self {
        static EMPTY: OnceLock<Arc<PartitionStore>> = OnceLock::new();
        Self {
            inner: Arc::clone(EMPTY.get_or_init(Arc::default)),
        }
    }
}

impl CowPartitionStore {
    /// A handle over an empty store.
    pub(crate) fn new() -> Self {
        Self::default()
    }

    /// Wraps an existing store.
    pub(crate) fn from_store(store: PartitionStore) -> Self {
        Self {
            inner: Arc::new(store),
        }
    }

    /// Mutable access to the underlying store, detaching a private copy
    /// first if the allocation is shared with other handles.
    pub(crate) fn make_mut(&mut self) -> &mut PartitionStore {
        Arc::make_mut(&mut self.inner)
    }

    /// True when both handles point at the same allocation (and therefore
    /// hold byte-identical contents).
    #[cfg(test)]
    pub(crate) fn shares_storage_with(&self, other: &Self) -> bool {
        Arc::ptr_eq(&self.inner, &other.inner)
    }
}

impl Deref for CowPartitionStore {
    type Target = PartitionStore;

    fn deref(&self) -> &PartitionStore {
        &self.inner
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::value::{Record, Version};

    #[test]
    fn cow_clone_shares_until_written() {
        let mut a = CowPartitionStore::new();
        assert!(a
            .make_mut()
            .apply(&b"k"[..], Record::put(&b"v1"[..], Version::new(1, 0, 0))));
        let mut b = a.clone();
        assert!(a.shares_storage_with(&b));
        assert_eq!(b.get_value(b"k").unwrap().as_ref(), b"v1");
        // Writing through one handle detaches it; the other is untouched.
        assert!(b
            .make_mut()
            .apply(&b"k"[..], Record::put(&b"v2"[..], Version::new(2, 0, 0))));
        assert!(!a.shares_storage_with(&b));
        assert_eq!(a.get_value(b"k").unwrap().as_ref(), b"v1");
        assert_eq!(b.get_value(b"k").unwrap().as_ref(), b"v2");
    }

    #[test]
    fn cow_from_store_reads_through_deref() {
        let mut inner = PartitionStore::new();
        assert!(inner.apply(&b"a"[..], Record::put(&b"1"[..], Version::new(1, 0, 0))));
        let handle = CowPartitionStore::from_store(inner);
        assert_eq!(handle.len(), 1);
        assert_eq!(handle.logical_bytes(), 1 + 1);
        assert!(!handle.is_empty());
    }
}
