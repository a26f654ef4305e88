//! Serving-side state that makes heavy traffic survivable: the hot-block
//! cache, get coalescing, lookup-result memoization, and the FIFO fetch
//! service queue.
//!
//! One [`ServingPlane`] lives inside each DHT node, next to its
//! [`OpTable`](crate::api::OpTable). Every structure is a `BTreeMap`, so
//! iteration order — and therefore the simulation — is deterministic.
//! All four features are config-gated off by default; a node whose
//! config leaves them off never touches this state on the hot path and
//! stays byte-identical to pre-plane behavior.
//!
//! Coherence model: blocks are content-addressed (`key = H(value)`), so a
//! cached value can never be *wrong* — but a cached or memoized entry can
//! go *stale* about placement when the repair plane, replication, or an
//! incoming store moves the block. Invalidation is therefore wired into
//! every path that writes an externally-received block into the local
//! store, and retries always drop the lookup memo before re-resolving.

use std::collections::BTreeMap;

use verme_chord::Id;
use verme_sim::{Addr, SimDuration, SimTime};

use crate::block::Block;

/// Per-node serving state: cache, coalescing ledger, lookup memo, and the
/// fetch service queue. See the module docs for the coherence model.
#[derive(Default)]
pub struct ServingPlane {
    /// Hot-block cache: key → (block, last-access sequence number).
    cache: BTreeMap<Id, (Block, u64)>,
    /// Monotone access counter backing least-recently-used eviction.
    access_seq: u64,
    /// Coalescing: key → op id of the in-flight leader get.
    leaders: BTreeMap<Id, u64>,
    /// Coalescing: leader op id → ops parked behind it.
    waiters: BTreeMap<u64, Vec<u64>>,
    /// Lookup memo: key → (responsible address, expiry instant).
    memo: BTreeMap<Id, (Addr, SimTime)>,
    /// Fetch service queue: the instant the serving "disk" frees up.
    busy_until: SimTime,
}

impl ServingPlane {
    /// Fresh, empty serving state.
    pub fn new() -> Self {
        ServingPlane::default()
    }

    // --- hot-block cache ------------------------------------------------

    /// Looks up `key`, bumping its recency on a hit.
    pub fn cache_lookup(&mut self, key: Id) -> Option<Block> {
        self.access_seq += 1;
        let seq = self.access_seq;
        self.cache.get_mut(&key).map(|(block, last)| {
            *last = seq;
            block.clone()
        })
    }

    /// Inserts `block` under its content key, evicting the
    /// least-recently-used entry if the cache would exceed `capacity`.
    pub fn cache_fill(&mut self, block: Block, capacity: usize) {
        if capacity == 0 {
            return;
        }
        self.access_seq += 1;
        self.cache.insert(block.key(), (block, self.access_seq));
        while self.cache.len() > capacity {
            // BTreeMap has no order by recency; scan for the minimum
            // sequence. Capacities are small (hot blocks), so O(n) per
            // eviction is fine and keeps the structure deterministic.
            let coldest = self
                .cache
                .iter()
                .min_by_key(|(_, (_, seq))| *seq)
                .map(|(k, _)| *k)
                .expect("cache over capacity implies non-empty");
            self.cache.remove(&coldest);
        }
    }

    /// Drops `key` from the cache; true if an entry actually existed
    /// (callers count invalidations only for real drops).
    pub fn cache_invalidate(&mut self, key: Id) -> bool {
        self.cache.remove(&key).is_some()
    }

    /// Number of cached blocks (inspection for tests).
    pub fn cache_len(&self) -> usize {
        self.cache.len()
    }

    // --- get coalescing -------------------------------------------------

    /// The in-flight leader op for `key`, if any.
    pub fn leader_for(&self, key: Id) -> Option<u64> {
        self.leaders.get(&key).copied()
    }

    /// Registers `op` as the in-flight leader get for `key`.
    pub fn set_leader(&mut self, key: Id, op: u64) {
        self.leaders.insert(key, op);
    }

    /// Parks `op` behind `leader`; it will be finished with the leader's
    /// result by [`ServingPlane::finish_leader`].
    pub fn add_waiter(&mut self, leader: u64, op: u64) {
        self.waiters.entry(leader).or_default().push(op);
    }

    /// Settles the leader entry for `(key, op)` and drains its waiters,
    /// in arrival order. A no-op (empty vec) if `op` is not the current
    /// leader for `key` — a later get may have claimed leadership after
    /// this op already finished.
    pub fn finish_leader(&mut self, key: Id, op: u64) -> Vec<u64> {
        if self.leaders.get(&key) == Some(&op) {
            self.leaders.remove(&key);
        }
        self.waiters.remove(&op).unwrap_or_default()
    }

    /// Outstanding parked gets (inspection for tests).
    pub fn waiting_gets(&self) -> usize {
        self.waiters.values().map(Vec::len).sum()
    }

    // --- lookup memoization ---------------------------------------------

    /// A still-fresh memoized responsible address for `key`, if any.
    /// Expired entries are dropped on the way out.
    pub fn memo_get(&mut self, key: Id, now: SimTime) -> Option<Addr> {
        match self.memo.get(&key) {
            Some((addr, expires)) if now < *expires => Some(*addr),
            Some(_) => {
                self.memo.remove(&key);
                None
            }
            None => None,
        }
    }

    /// Memoizes `key → addr` until `now + ttl`.
    pub fn memo_put(&mut self, key: Id, addr: Addr, now: SimTime, ttl: SimDuration) {
        self.memo.insert(key, (addr, now + ttl));
    }

    /// Drops the memo for `key` (retries must re-resolve).
    pub fn memo_invalidate(&mut self, key: Id) {
        self.memo.remove(&key);
    }

    // --- fetch service queue --------------------------------------------

    /// Admits one fetch into the FIFO service queue and returns the delay
    /// from `now` until its reply may be sent: queued-behind time plus
    /// `service`. With an idle queue this is exactly `service`.
    pub fn enqueue_service(&mut self, now: SimTime, service: SimDuration) -> SimDuration {
        let start = if self.busy_until > now { self.busy_until } else { now };
        self.busy_until = start + service;
        self.busy_until.saturating_since(now)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn id(n: u64) -> Id {
        Id::new(n as u128)
    }

    fn val(n: u8) -> Block {
        Block::new(bytes::Bytes::from(vec![n; 4]))
    }

    #[test]
    fn cache_lru_evicts_coldest() {
        let mut plane = ServingPlane::new();
        plane.cache_fill(val(1), 2);
        plane.cache_fill(val(2), 2);
        // Touch block 1 so block 2 is now the coldest.
        assert_eq!(plane.cache_lookup(val(1).key()), Some(val(1)));
        plane.cache_fill(val(3), 2);
        assert_eq!(plane.cache_len(), 2);
        assert_eq!(plane.cache_lookup(val(2).key()), None, "LRU entry should be gone");
        assert_eq!(plane.cache_lookup(val(1).key()), Some(val(1)));
        assert_eq!(plane.cache_lookup(val(3).key()), Some(val(3)));
    }

    #[test]
    fn cache_invalidate_reports_presence() {
        let mut plane = ServingPlane::new();
        let key = val(7).key();
        plane.cache_fill(val(7), 8);
        assert!(plane.cache_invalidate(key));
        assert!(!plane.cache_invalidate(key), "second drop must report absence");
        assert_eq!(plane.cache_lookup(key), None);
    }

    #[test]
    fn coalescing_leader_lifecycle() {
        let mut plane = ServingPlane::new();
        assert_eq!(plane.leader_for(id(5)), None);
        plane.set_leader(id(5), 10);
        assert_eq!(plane.leader_for(id(5)), Some(10));
        plane.add_waiter(10, 11);
        plane.add_waiter(10, 12);
        assert_eq!(plane.waiting_gets(), 2);
        assert_eq!(plane.finish_leader(id(5), 10), vec![11, 12]);
        assert_eq!(plane.leader_for(id(5)), None);
        assert_eq!(plane.waiting_gets(), 0);
    }

    #[test]
    fn finish_leader_ignores_stale_op() {
        let mut plane = ServingPlane::new();
        plane.set_leader(id(5), 10);
        plane.add_waiter(10, 11);
        // A different op finishing must not steal the leadership or the
        // waiters of op 10.
        assert_eq!(plane.finish_leader(id(5), 99), Vec::<u64>::new());
        assert_eq!(plane.leader_for(id(5)), Some(10));
        assert_eq!(plane.finish_leader(id(5), 10), vec![11]);
    }

    #[test]
    fn memo_expires_and_invalidates() {
        let mut plane = ServingPlane::new();
        let t0 = SimTime::ZERO;
        let ttl = SimDuration::from_secs(10);
        plane.memo_put(id(3), Addr::from_raw(42), t0, ttl);
        assert_eq!(plane.memo_get(id(3), t0 + SimDuration::from_secs(9)), Some(Addr::from_raw(42)));
        assert_eq!(plane.memo_get(id(3), t0 + ttl), None, "ttl boundary is exclusive");
        // The expired entry was dropped; re-memoize then invalidate.
        plane.memo_put(id(3), Addr::from_raw(43), t0, ttl);
        plane.memo_invalidate(id(3));
        assert_eq!(plane.memo_get(id(3), t0), None);
    }

    #[test]
    fn service_queue_is_fifo_and_drains() {
        let mut plane = ServingPlane::new();
        let t0 = SimTime::ZERO;
        let svc = SimDuration::from_millis(100);
        // Three simultaneous fetches queue behind one another.
        assert_eq!(plane.enqueue_service(t0, svc), SimDuration::from_millis(100));
        assert_eq!(plane.enqueue_service(t0, svc), SimDuration::from_millis(200));
        assert_eq!(plane.enqueue_service(t0, svc), SimDuration::from_millis(300));
        // After the queue drains, a later fetch pays only its own service.
        let later = t0 + SimDuration::from_secs(5);
        assert_eq!(plane.enqueue_service(later, svc), svc);
    }
}
