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
    prices: Vec<Option<f64>>,
    version: u64,
}

impl Board {
    /// An empty board.
    pub fn new() -> Self {
        Self::default()
    }

    /// Clears all postings for a new epoch.
    pub fn begin_epoch(&mut self) {
        self.prices.clear();
        self.version += 1;
    }

    /// A counter bumped on every posting change ([`Board::post`],
    /// [`Board::withdraw`], [`Board::begin_epoch`]). The rent-sorted
    /// placement index of `skute-core`, its one reader, compares it
    /// against the value it was built at to decide whether it is stale.
    pub fn version(&self) -> u64 {
        self.version
    }

    /// Posts (or re-posts) the price of a server for this epoch.
    pub fn post(&mut self, server: ServerId, price: f64) {
        let slot = server.0 as usize;
        if slot >= self.prices.len() {
            self.prices.resize(slot + 1, None);
        }
        self.prices[slot] = Some(price);
        self.version += 1;
    }

    /// Withdraws a server's posting (server retired mid-epoch).
    pub fn withdraw(&mut self, server: ServerId) {
        if let Some(slot) = self.prices.get_mut(server.0 as usize) {
            *slot = None;
        }
        self.version += 1;
    }

    /// The posted price of `server`, if any.
    pub fn price_of(&self, server: ServerId) -> Option<f64> {
        self.prices.get(server.0 as usize).copied().flatten()
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
        b.begin_epoch();
        b.post(ServerId(0), 2.0);
        b.post(ServerId(1), 1.5);
        assert_eq!(b.min_price(), Some(1.5));
        b.begin_epoch();
        assert_eq!(b.min_price(), None, "prices do not carry across epochs");
        assert_eq!(b.price_of(ServerId(0)), None);
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
        b.begin_epoch();
        assert!(b.version() > v2);
    }

    #[test]
    fn repost_overwrites_and_withdraw_removes() {
        let mut b = Board::new();
        b.post(ServerId(0), 2.0);
        b.post(ServerId(0), 4.0);
        assert_eq!(b.price_of(ServerId(0)), Some(4.0));
        b.withdraw(ServerId(0));
        assert_eq!(b.price_of(ServerId(0)), None);
        b.withdraw(ServerId(0));
        b.withdraw(ServerId(9));
        assert_eq!(b.min_price(), None, "withdrawing nothing posts nothing");
        assert_eq!(b.price_of(ServerId(9)), None);
    }
}
