//! Durability accounting for the replica-repair plane.
//!
//! The repair machinery itself lives inside each DHT variant (probe /
//! need / pull exchanges plus read-repair on the get path); this module
//! holds what the *harness* needs: a deterministic census of replica
//! placement across the live population, used to feed the monitor
//! gauges (`dht.blocks.under_replicated`, `dht.repair.inflight`,
//! `dht.blocks.lost`) and to assert durability in tests and benches.

use std::collections::BTreeMap;

use verme_chord::Id;

use crate::block::BlockStore;

/// One snapshot of replica placement across the live population.
///
/// Built with [`DurabilityCensus::take`] from the seeded key set and the
/// live nodes' block stores. All counts are deterministic: stores are
/// `BTreeMap`-backed and the caller supplies keys in a fixed order.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct DurabilityCensus {
    /// Seeded keys inspected.
    pub keys: usize,
    /// Keys with at least one live holder but fewer than the target.
    pub under_replicated: usize,
    /// Keys with zero live holders (unrecoverable).
    pub lost: usize,
    /// The smallest live-holder count over all non-lost keys (equals the
    /// target when the system is fully repaired; `usize::MAX` when every
    /// key is lost or no keys were inspected).
    pub min_replication: usize,
    /// Live holders per key, for detailed assertions.
    pub holders: BTreeMap<Id, usize>,
}

impl DurabilityCensus {
    /// Counts live holders of each seeded key across `stores` (the block
    /// stores of the *live* population only) against the replication
    /// `target` — `min(n, live_nodes)` from the caller's perspective.
    pub fn take<'a>(
        seeded: impl IntoIterator<Item = Id>,
        stores: impl IntoIterator<Item = &'a BlockStore> + Clone,
        target: usize,
    ) -> DurabilityCensus {
        let mut census = DurabilityCensus { min_replication: usize::MAX, ..Default::default() };
        for key in seeded {
            let n = stores.clone().into_iter().filter(|s| s.contains(key)).count();
            census.keys += 1;
            census.holders.insert(key, n);
            if n == 0 {
                census.lost += 1;
            } else {
                census.min_replication = census.min_replication.min(n);
                if n < target {
                    census.under_replicated += 1;
                }
            }
        }
        census
    }

    /// Fraction of seeded keys with zero live holders, in `[0, 1]`.
    pub fn loss_fraction(&self) -> f64 {
        if self.keys == 0 {
            0.0
        } else {
            self.lost as f64 / self.keys as f64
        }
    }

    /// True when every seeded key is held by at least `target` live
    /// nodes — full replication restored.
    pub fn fully_replicated(&self) -> bool {
        self.lost == 0 && self.under_replicated == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::block::Block;
    use bytes::Bytes;

    #[test]
    fn census_counts_lost_and_under_replicated() {
        let blocks: Vec<Block> = (0..3u8).map(|i| Block::new(Bytes::from(vec![i; 8]))).collect();
        let keys: Vec<Id> = blocks.iter().map(Block::key).collect();
        let mut a = BlockStore::new();
        let mut b = BlockStore::new();
        // keys[0]: two holders; keys[1]: one holder; keys[2]: lost.
        a.put(blocks[0].clone());
        b.put(blocks[0].clone());
        a.put(blocks[1].clone());
        let census = DurabilityCensus::take(keys.iter().copied(), [&a, &b], 2);
        assert_eq!(census.keys, 3);
        assert_eq!(census.lost, 1);
        assert_eq!(census.under_replicated, 1);
        assert_eq!(census.min_replication, 1);
        assert!(!census.fully_replicated());
        assert!((census.loss_fraction() - 1.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn empty_census_is_benign() {
        let census = DurabilityCensus::take([], std::iter::empty::<&BlockStore>(), 2);
        assert_eq!(census.keys, 0);
        assert_eq!(census.loss_fraction(), 0.0);
        assert!(census.fully_replicated());
    }
}
