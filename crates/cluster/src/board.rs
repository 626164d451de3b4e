//! The rent board.
//!
//! "The virtual rent of each server is announced at a board (i.e. an elected
//! server) and is updated at the beginning of a new epoch" (§II). The board
//! is the only shared state the decentralized virtual-node agents consult:
//! posted prices plus liveness, nothing else.

use crate::server::ServerId;

/// Posted virtual-rent prices for the current epoch.
///
/// Dense: server ids are cluster slot indices, so a posting lives at
/// `prices[id.0]` and a lookup is one bounds-checked load.
#[derive(Debug, Clone, Default)]
pub struct Board {
    epoch: u64,
    prices: Vec<Option<f64>>,
    /// Number of `Some` slots in `prices`.
    posted: usize,
    version: u64,
}

impl Board {
    /// An empty board at epoch zero.
    pub fn new() -> Self {
        Self::default()
    }

    /// Clears all postings and advances the board to `epoch`.
    pub fn begin_epoch(&mut self, epoch: u64) {
        self.epoch = epoch;
        self.prices.clear();
        self.posted = 0;
        self.version += 1;
    }

    /// The epoch the current postings refer to.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// A counter bumped on every posting change ([`Board::post`],
    /// [`Board::withdraw`], [`Board::begin_epoch`]). Derived structures
    /// (e.g. a rent-sorted placement index) compare it against the value
    /// they were built at to decide whether they are stale.
    pub fn version(&self) -> u64 {
        self.version
    }

    /// Posts (or re-posts) the price of a server for this epoch.
    pub fn post(&mut self, server: ServerId, price: f64) {
        let slot = server.0 as usize;
        if slot >= self.prices.len() {
            self.prices.resize(slot + 1, None);
        }
        if self.prices[slot].replace(price).is_none() {
            self.posted += 1;
        }
        self.version += 1;
    }

    /// Withdraws a server's posting (server retired mid-epoch).
    pub fn withdraw(&mut self, server: ServerId) {
        if let Some(slot) = self.prices.get_mut(server.0 as usize) {
            if slot.take().is_some() {
                self.posted -= 1;
            }
        }
        self.version += 1;
    }

    /// The posted price of `server`, if any.
    pub fn price_of(&self, server: ServerId) -> Option<f64> {
        self.prices.get(server.0 as usize).copied().flatten()
    }

    /// Number of servers currently posted.
    pub fn len(&self) -> usize {
        self.posted
    }

    /// True when no server is posted.
    pub fn is_empty(&self) -> bool {
        self.posted == 0
    }

    /// The lowest posted price, used as the utility floor that stops
    /// unpopular virtual nodes from migrating forever (§II-C).
    pub fn min_price(&self) -> Option<f64> {
        self.prices.iter().flatten().copied().reduce(f64::min)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn postings_are_per_epoch() {
        let mut b = Board::new();
        b.begin_epoch(1);
        b.post(ServerId(0), 2.0);
        b.post(ServerId(1), 1.5);
        assert_eq!(b.len(), 2);
        assert_eq!(b.epoch(), 1);
        b.begin_epoch(2);
        assert!(b.is_empty(), "prices do not carry across epochs");
    }

    #[test]
    fn min_price_skips_unposted_slots() {
        let mut b = Board::new();
        assert_eq!(b.min_price(), None);
        b.post(ServerId(0), 2.0);
        b.post(ServerId(1), 1.5);
        b.post(ServerId(5), 3.0);
        assert_eq!(b.min_price(), Some(1.5));
        b.withdraw(ServerId(1));
        assert_eq!(b.min_price(), Some(2.0));
    }

    #[test]
    fn version_bumps_on_every_posting_change() {
        let mut b = Board::new();
        let v0 = b.version();
        b.post(ServerId(0), 2.0);
        let v1 = b.version();
        assert!(v1 > v0);
        b.withdraw(ServerId(0));
        let v2 = b.version();
        assert!(v2 > v1);
        b.begin_epoch(5);
        assert!(b.version() > v2);
    }

    #[test]
    fn repost_overwrites_and_withdraw_removes() {
        let mut b = Board::new();
        b.post(ServerId(0), 2.0);
        b.post(ServerId(0), 4.0);
        assert_eq!(b.price_of(ServerId(0)), Some(4.0));
        assert_eq!(b.len(), 1, "a re-post is still one posting");
        b.withdraw(ServerId(0));
        assert_eq!(b.price_of(ServerId(0)), None);
        b.withdraw(ServerId(0));
        b.withdraw(ServerId(9));
        assert!(b.is_empty(), "withdrawing nothing counts nothing");
        assert_eq!(b.price_of(ServerId(9)), None);
    }
}
