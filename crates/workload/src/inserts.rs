//! The Fig. 5 storage-saturation insert stream.

use rand::Rng;

use crate::dist::{Pareto, Poisson};

/// One insert request: a key and the logical object size.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct InsertRequest {
    /// Object key.
    pub key: Vec<u8>,
    /// Logical size in bytes.
    pub bytes: u64,
}

/// Generates the paper's saturation workload: "we saturate the cloud
/// capacity at a rate of 2000 insert requests/epoch (each of 500 KB). These
/// requests are Pareto(1, 50)-distributed" (§III-E).
///
/// The Pareto distribution is read as skewing the *keys* of the inserts
/// (hot objects are overwritten/extended far more often than cold ones):
/// each request's key id is a Pareto(1, 50) draw quantized to an integer, so
/// the induced partition load is heavy-tailed like the query popularity.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct InsertGenerator {
    /// Mean insert requests per epoch (paper: 2000).
    pub rate_per_epoch: f64,
    /// Logical size of each object (paper: 500 KB).
    pub object_bytes: u64,
    /// Key-skew distribution.
    pub key_dist: Pareto,
    /// Distinct-key multiplier: key ids are taken modulo
    /// `rate_per_epoch × unique_key_factor` so the keyspace keeps growing
    /// but stays bounded.
    pub unique_key_factor: u64,
}

impl InsertGenerator {
    /// The paper's Fig. 5 parameters.
    pub fn paper() -> Self {
        Self {
            rate_per_epoch: 2000.0,
            object_bytes: 500 * 1000,
            key_dist: Pareto::paper(),
            unique_key_factor: 1000,
        }
    }

    /// Samples one epoch's insert batch (Poisson-sized around the rate).
    pub fn epoch(&self, rng: &mut impl Rng, epoch: u64) -> Vec<InsertRequest> {
        let count = Poisson::new(self.rate_per_epoch).sample(rng);
        let keyspace = (self.rate_per_epoch as u64).max(1) * self.unique_key_factor;
        (0..count)
            .map(|i| {
                let raw = self.key_dist.sample(rng) as u64;
                let id = raw % keyspace;
                InsertRequest {
                    key: format!("obj:{id}:{epoch}:{i}").into_bytes(),
                    bytes: self.object_bytes,
                }
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn paper_rates() {
        let g = InsertGenerator::paper();
        assert_eq!(g.object_bytes, 500_000);
        assert_eq!(g.rate_per_epoch, 2000.0);
    }

    #[test]
    fn epoch_batch_sizes_cluster_around_rate() {
        let g = InsertGenerator::paper();
        let mut rng = StdRng::seed_from_u64(5);
        let mean: f64 = (0..200)
            .map(|e| g.epoch(&mut rng, e).len() as f64)
            .sum::<f64>()
            / 200.0;
        assert!((mean - 2000.0).abs() < 15.0, "mean batch {mean}");
    }

    #[test]
    fn keys_are_unique_within_epoch_and_sized() {
        let g = InsertGenerator::paper();
        let mut rng = StdRng::seed_from_u64(5);
        let batch = g.epoch(&mut rng, 3);
        let mut keys: Vec<_> = batch.iter().map(|r| r.key.clone()).collect();
        keys.sort();
        keys.dedup();
        assert_eq!(keys.len(), batch.len(), "per-epoch keys are unique");
        assert!(batch.iter().all(|r| r.bytes == 500_000));
    }

    #[test]
    fn deterministic_per_seed() {
        let g = InsertGenerator::paper();
        let a = g.epoch(&mut StdRng::seed_from_u64(7), 0);
        let b = g.epoch(&mut StdRng::seed_from_u64(7), 0);
        assert_eq!(a, b);
    }
}
