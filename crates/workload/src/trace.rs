//! Load traces: mean query rate as a function of the epoch.

/// A time-varying mean query rate.
pub trait LoadTrace {
    /// Mean queries per epoch at `epoch`.
    fn rate(&self, epoch: u64) -> f64;
}

/// A constant rate (the paper's steady state, λ = 3000).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ConstantTrace(pub f64);

impl LoadTrace for ConstantTrace {
    fn rate(&self, _epoch: u64) -> f64 {
        self.0
    }
}

/// The Fig. 4 Slashdot effect: base rate until `spike_start`, linear ramp to
/// `peak` over `ramp_epochs`, then linear decay back to base over
/// `decay_epochs`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SlashdotTrace {
    /// Base mean rate (paper: 3000).
    pub base: f64,
    /// Peak mean rate (paper: 183 000).
    pub peak: f64,
    /// Epoch at which the spike begins (paper: 100).
    pub spike_start: u64,
    /// Ramp duration in epochs (paper: 25).
    pub ramp_epochs: u64,
    /// Decay duration in epochs (paper: 250).
    pub decay_epochs: u64,
}

impl SlashdotTrace {
    /// The exact Fig. 4 parameters.
    pub fn paper() -> Self {
        Self {
            base: 3_000.0,
            peak: 183_000.0,
            spike_start: 100,
            ramp_epochs: 25,
            decay_epochs: 250,
        }
    }
}

impl LoadTrace for SlashdotTrace {
    fn rate(&self, epoch: u64) -> f64 {
        let ramp_end = self.spike_start + self.ramp_epochs;
        let decay_end = ramp_end + self.decay_epochs;
        if epoch < self.spike_start || epoch >= decay_end {
            self.base
        } else if epoch < ramp_end {
            let t = (epoch - self.spike_start) as f64 / self.ramp_epochs as f64;
            self.base + t * (self.peak - self.base)
        } else {
            let t = (epoch - ramp_end) as f64 / self.decay_epochs as f64;
            self.peak - t * (self.peak - self.base)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constant_is_constant() {
        let t = ConstantTrace(3000.0);
        assert_eq!(t.rate(0), 3000.0);
        assert_eq!(t.rate(1_000_000), 3000.0);
    }

    #[test]
    fn slashdot_matches_paper_shape() {
        let t = SlashdotTrace::paper();
        assert_eq!(t.rate(0), 3000.0);
        assert_eq!(t.rate(99), 3000.0);
        // Peak reached at epoch 125.
        assert_eq!(t.rate(125), 183_000.0);
        // Midway through the ramp.
        let mid = t.rate(112);
        assert!(mid > 3000.0 && mid < 183_000.0);
        // Decaying after the peak.
        assert!(t.rate(200) < 183_000.0);
        assert!(t.rate(200) > t.rate(300));
        // Back to base at 125 + 250 = 375.
        assert_eq!(t.rate(375), 3000.0);
        assert_eq!(t.rate(1000), 3000.0);
    }

    #[test]
    fn slashdot_is_monotone_on_ramp_and_decay() {
        let t = SlashdotTrace::paper();
        for e in 100..124 {
            assert!(t.rate(e + 1) >= t.rate(e), "ramp must rise at {e}");
        }
        for e in 125..374 {
            assert!(t.rate(e + 1) <= t.rate(e), "decay must fall at {e}");
        }
    }
}
