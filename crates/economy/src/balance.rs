//! Per-vnode balance bookkeeping and f-epoch streak detection.

use std::fmt;

/// The largest decision window f a [`BalanceHistory`] holds.
///
/// The window lives inline in every vnode, so the bound is the size of that
/// array, not a tuning knob: [`crate::EconomyConfig::validate`] rejects any
/// larger `decision_window`. The paper's default is 3 and the window
/// ablation sweeps 1, 2, 4 and 8.
pub(crate) const MAX_DECISION_WINDOW: usize = 8;

/// Rolling history of a virtual node's per-epoch balances
/// (`b = u(pop, g) − c`, eq. 5), with detection of the f-epoch positive and
/// negative streaks that drive the §II-C decision process.
///
/// The last f balances sit in an inline array, oldest first, so the
/// decision phase's storage-order pass reads them from the replica itself
/// instead of behind a per-vnode heap buffer. Every float leaves it in the
/// order it was recorded.
#[derive(Clone)]
pub struct BalanceHistory {
    /// `recent[..len]` are the balances of the current window, oldest
    /// first; the slots past `len` are stale.
    recent: [f64; MAX_DECISION_WINDOW],
    len: u8,
    window: u8,
}

impl BalanceHistory {
    /// A history that detects streaks of `window` (= f) epochs.
    ///
    /// # Panics
    /// Panics if `window == 0` or `window > MAX_DECISION_WINDOW`.
    pub fn new(window: usize) -> Self {
        assert!(window >= 1, "decision window must be at least one epoch");
        assert!(
            window <= MAX_DECISION_WINDOW,
            "decision window must be at most MAX_DECISION_WINDOW ({MAX_DECISION_WINDOW}) epochs"
        );
        Self {
            recent: [0.0; MAX_DECISION_WINDOW],
            len: 0,
            window: window as u8,
        }
    }

    /// Records one epoch's balance, dropping the oldest when the window is
    /// full.
    pub fn record(&mut self, balance: f64) {
        let (len, window) = (self.len(), self.window());
        if len == window {
            self.recent.copy_within(1..window, 0);
            self.recent[window - 1] = balance;
        } else {
            self.recent[len] = balance;
            self.len += 1;
        }
    }

    /// The configured window f.
    pub(crate) fn window(&self) -> usize {
        usize::from(self.window)
    }

    /// Number of balances in the current window (at most f; zero after
    /// [`BalanceHistory::reset_window`]).
    pub(crate) fn len(&self) -> usize {
        usize::from(self.len)
    }

    /// True when the current window holds no balance.
    pub(crate) fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The current window's balances, oldest first.
    fn recent(&self) -> &[f64] {
        &self.recent[..self.len()]
    }

    /// True when the last f epochs were all strictly negative — the §II-C
    /// trigger for migrate-or-suicide. Requires a full window of history.
    pub fn negative_streak(&self) -> bool {
        self.len == self.window && self.recent().iter().all(|&b| b < 0.0)
    }

    /// True when the last f epochs were all strictly positive — the §II-C
    /// precondition for profit-driven replication.
    pub fn positive_streak(&self) -> bool {
        self.len == self.window && self.recent().iter().all(|&b| b > 0.0)
    }

    /// Mean of the balances inside the current window (`None` before any
    /// epoch is recorded). Sums oldest first.
    pub fn window_mean(&self) -> Option<f64> {
        if self.is_empty() {
            None
        } else {
            Some(self.recent().iter().sum::<f64>() / self.len() as f64)
        }
    }

    /// Clears the streak state (used after a vnode migrates, so the clock
    /// restarts at the new server).
    pub fn reset_window(&mut self) {
        self.len = 0;
    }
}

impl fmt::Debug for BalanceHistory {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("BalanceHistory")
            .field("window", &self.window)
            .field("recent", &self.recent())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::VecDeque;

    /// The heap-backed history the inline array replaced: the oracle of
    /// `prop_inline_window_matches_the_deque`.
    struct DequeHistory {
        window: usize,
        recent: VecDeque<f64>,
    }

    impl DequeHistory {
        fn new(window: usize) -> Self {
            Self {
                window,
                recent: VecDeque::with_capacity(window),
            }
        }

        fn record(&mut self, balance: f64) {
            if self.recent.len() == self.window {
                self.recent.pop_front();
            }
            self.recent.push_back(balance);
        }

        fn negative_streak(&self) -> bool {
            self.recent.len() == self.window && self.recent.iter().all(|&b| b < 0.0)
        }

        fn positive_streak(&self) -> bool {
            self.recent.len() == self.window && self.recent.iter().all(|&b| b > 0.0)
        }

        fn window_mean(&self) -> Option<f64> {
            if self.recent.is_empty() {
                None
            } else {
                Some(self.recent.iter().sum::<f64>() / self.recent.len() as f64)
            }
        }
    }

    #[test]
    fn no_streak_before_full_window() {
        let mut h = BalanceHistory::new(3);
        h.record(-1.0);
        h.record(-1.0);
        assert!(!h.negative_streak(), "window not yet full");
        h.record(-1.0);
        assert!(h.negative_streak());
        assert!(!h.positive_streak());
    }

    #[test]
    fn mixed_signs_break_streaks() {
        let mut h = BalanceHistory::new(3);
        for b in [-1.0, 2.0, -1.0] {
            h.record(b);
        }
        assert!(!h.negative_streak());
        assert!(!h.positive_streak());
    }

    #[test]
    fn zero_balance_breaks_both_streaks() {
        let mut h = BalanceHistory::new(2);
        h.record(0.0);
        h.record(0.0);
        assert!(!h.negative_streak(), "break-even is not a loss");
        assert!(!h.positive_streak(), "break-even is not a profit");
    }

    #[test]
    fn window_slides() {
        let mut h = BalanceHistory::new(2);
        h.record(-5.0);
        h.record(1.0);
        h.record(1.0);
        assert!(h.positive_streak(), "old loss slid out of the window");
        assert!((h.window_mean().unwrap() - 1.0).abs() < 1e-12);
        assert_eq!(h.len(), 2);
    }

    #[test]
    fn reset_window_clears_streaks() {
        let mut h = BalanceHistory::new(1);
        h.record(2.0);
        assert!(h.positive_streak());
        h.reset_window();
        assert!(!h.positive_streak());
        assert!(h.is_empty());
        assert_eq!(h.window_mean(), None);
        assert_eq!(format!("{h:?}"), "BalanceHistory { window: 1, recent: [] }");
    }

    #[test]
    #[should_panic(expected = "at least one epoch")]
    fn zero_window_rejected() {
        let _ = BalanceHistory::new(0);
    }

    #[test]
    #[should_panic(expected = "MAX_DECISION_WINDOW")]
    fn oversized_window_rejected() {
        let _ = BalanceHistory::new(MAX_DECISION_WINDOW + 1);
    }

    proptest! {
        #[test]
        fn prop_streaks_are_mutually_exclusive(
            window in 1usize..5,
            balances in proptest::collection::vec(-10.0f64..10.0, 0..20)
        ) {
            let mut h = BalanceHistory::new(window);
            for b in &balances {
                h.record(*b);
            }
            prop_assert!(!(h.negative_streak() && h.positive_streak()));
        }

        #[test]
        fn prop_negative_streak_matches_last_f(
            window in 1usize..5,
            balances in proptest::collection::vec(-10.0f64..10.0, 1..20)
        ) {
            let mut h = BalanceHistory::new(window);
            for b in &balances {
                h.record(*b);
            }
            let expected = balances.len() >= window
                && balances[balances.len() - window..].iter().all(|&b| b < 0.0);
            prop_assert_eq!(h.negative_streak(), expected);
        }

        /// The inline window answers exactly like the deque it replaced:
        /// after every step of a random sequence of records and window
        /// resets, both streak bits are equal and the window means are
        /// equal by bits. `bias` makes most balances negative (1) or
        /// positive (2), so full-window streaks occur at every f; selector
        /// 0 resets the window and 1 records a break-even zero.
        #[test]
        fn prop_inline_window_matches_the_deque(
            window in 1usize..=MAX_DECISION_WINDOW,
            bias in 0u8..3,
            steps in proptest::collection::vec((0u8..32, 0.0f64..10.0), 0..48)
        ) {
            let mut inline = BalanceHistory::new(window);
            let mut deque = DequeHistory::new(window);
            for (i, &(selector, magnitude)) in steps.iter().enumerate() {
                let sign = match bias {
                    0 if selector % 2 == 0 => 1.0,
                    0 | 1 => -1.0,
                    _ => 1.0,
                };
                match selector {
                    0 => {
                        inline.reset_window();
                        deque.recent.clear();
                    }
                    1 => {
                        inline.record(0.0);
                        deque.record(0.0);
                    }
                    2..=5 => {
                        inline.record(-sign * magnitude);
                        deque.record(-sign * magnitude);
                    }
                    _ => {
                        inline.record(sign * magnitude);
                        deque.record(sign * magnitude);
                    }
                }
                prop_assert_eq!(inline.negative_streak(), deque.negative_streak(), "step {}", i);
                prop_assert_eq!(inline.positive_streak(), deque.positive_streak(), "step {}", i);
                prop_assert_eq!(
                    inline.window_mean().map(f64::to_bits),
                    deque.window_mean().map(f64::to_bits),
                    "step {}",
                    i
                );
                prop_assert_eq!(inline.len(), deque.recent.len(), "step {}", i);
            }
        }
    }
}
