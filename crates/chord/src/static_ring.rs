//! Instant construction of fully-converged rings.
//!
//! Two experiment families need a ring whose routing state is already
//! correct: the churn experiments of §7.1 (which start converged, then
//! apply churn) and the worm experiments of §7.3 (which run on a 100 000
//! node *static* overlay — far too large to bootstrap join-by-join). A
//! [`StaticRing`] computes every node's successor list, predecessor, and
//! finger table directly from the sorted membership.

use verme_sim::{Addr, HostId, LatencyModel, Node, Runtime, SeedSource};

use crate::id::Id;
use crate::node::ChordNode;
use crate::proto::ChordConfig;
use crate::ring::NodeHandle;

/// A sorted ring membership with ground-truth routing queries.
///
/// # Example
///
/// ```
/// use verme_chord::{Id, NodeHandle, StaticRing};
/// use verme_sim::Addr;
///
/// let handles: Vec<NodeHandle> = (0..8)
///     .map(|i| NodeHandle::new(Id::new(i * 1000), Addr::from_raw(i as u64 + 1)))
///     .collect();
/// let ring = StaticRing::new(handles);
/// // The successor of key 2500 is the node with id 3000.
/// let s = ring.node(ring.successor_index(Id::new(2500)));
/// assert_eq!(s.id, Id::new(3000));
/// ```
#[derive(Clone, Debug)]
pub struct StaticRing {
    sorted: Vec<NodeHandle>,
}

impl StaticRing {
    /// Builds a ring from the given members.
    ///
    /// # Panics
    ///
    /// Panics if `handles` is empty or contains duplicate identifiers.
    pub fn new(mut handles: Vec<NodeHandle>) -> Self {
        assert!(!handles.is_empty(), "a ring needs at least one node");
        handles.sort_by_key(|h| h.id.raw());
        for w in handles.windows(2) {
            assert!(w[0].id != w[1].id, "duplicate node id {}", w[0].id);
        }
        StaticRing { sorted: handles }
    }

    /// The experiments' standard population: `n` members whose ids are
    /// the first `n` draws of `seed`'s `"ids"` stream, the `i`-th draw
    /// taking address `i + 1` — the address a fresh [`Runtime`] hands the
    /// `i`-th node spawned into it, which is the order
    /// [`spawn`](StaticRing::spawn) uses.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0` or two draws collide.
    pub fn random(n: usize, seed: u64) -> Self {
        let mut rng = SeedSource::new(seed).stream("ids");
        StaticRing::new(
            (0..n)
                .map(|i| NodeHandle::new(Id::random(&mut rng), Addr::from_raw(i as u64 + 1)))
                .collect(),
        )
    }

    /// Spawns `build(pos)` for every ring position `pos` and returns the
    /// members' addresses indexed by ring position.
    ///
    /// Every member's routing state names its peers by the addresses in
    /// their handles, and a [`Runtime`] assigns addresses in spawn order,
    /// so members are built and spawned in ascending handle-address order
    /// (not ring order), each on host `addr − 1`, and the runtime must hand
    /// every one the address its handle carries.
    ///
    /// # Panics
    ///
    /// Panics if the runtime assigns a member an address other than its
    /// handle's — the handles do not run `next..next + n` from the
    /// runtime's next free address, e.g. because it already spawned
    /// something — or if a host is outside the latency model.
    pub fn spawn<N: Node, L: LatencyModel>(
        &self,
        rt: &mut Runtime<N, L>,
        mut build: impl FnMut(usize) -> N,
    ) -> Vec<Addr> {
        let mut order: Vec<usize> = (0..self.sorted.len()).collect();
        order.sort_unstable_by_key(|&pos| self.sorted[pos].addr.raw());
        for pos in order {
            let want = self.sorted[pos].addr;
            let got = rt.spawn(HostId(want.raw() as usize - 1), build(pos));
            assert_eq!(got, want, "ring position {pos}: runtime assigned a different address");
        }
        self.sorted.iter().map(|h| h.addr).collect()
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.sorted.len()
    }

    /// True if the ring is empty (never true for a constructed ring).
    pub fn is_empty(&self) -> bool {
        self.sorted.is_empty()
    }

    /// The node at position `i` in id order.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn node(&self, i: usize) -> NodeHandle {
        self.sorted[i]
    }

    /// All members in id order.
    pub fn nodes(&self) -> &[NodeHandle] {
        &self.sorted
    }

    /// Index of the node responsible for `key` (its successor on the ring).
    pub fn successor_index(&self, key: Id) -> usize {
        match self.sorted.binary_search_by_key(&key.raw(), |h| h.id.raw()) {
            Ok(i) => i,
            Err(i) => i % self.sorted.len(),
        }
    }

    /// Index of the node preceding position `i`.
    pub fn predecessor_index(&self, i: usize) -> usize {
        (i + self.sorted.len() - 1) % self.sorted.len()
    }

    /// The `k` nodes following position `i` (exclusive), fewer if the ring
    /// is smaller.
    pub fn successors_of(&self, i: usize, k: usize) -> Vec<NodeHandle> {
        let n = self.sorted.len();
        (1..=k.min(n - 1)).map(|d| self.sorted[(i + d) % n]).collect()
    }

    /// Chord finger entries for the node at position `i`: for each bit `b`,
    /// the successor of `id + 2^b`, excluding entries that resolve to the
    /// node itself.
    pub fn fingers_of(&self, i: usize) -> Vec<(usize, NodeHandle)> {
        let mut out = Vec::new();
        self.for_each_finger(i, |b, j| out.push((b as usize, self.sorted[j])));
        out
    }

    /// Positions of the *distinct* nodes in `i`'s finger table (the compact
    /// form the worm simulator stores).
    pub fn distinct_finger_indices(&self, i: usize) -> Vec<usize> {
        let mut out: Vec<usize> = Vec::new();
        self.for_each_finger(i, |_, j| {
            if out.last() != Some(&j) && !out.contains(&j) {
                out.push(j);
            }
        });
        out
    }

    /// Calls `visit(b, j)` for every bit `b` whose finger
    /// `successor(id + 2^b)` is a member `j` other than `i`, in bit order.
    fn for_each_finger(&self, i: usize, mut visit: impl FnMut(u32, usize)) {
        let mut walk = ClockwiseWalk::new(&self.sorted, i);
        // Every target that does not pass the immediate successor *is*
        // that successor: on a large ring, all but the top ~log2 n bits.
        let near = bits_reaching(walk.gap());
        let next = (i + 1) % self.sorted.len();
        for b in 0..near {
            visit(b, next);
        }
        for b in near..Id::BITS {
            let j = walk.successor_at(1u128 << b);
            if j != i {
                visit(b, j);
            }
        }
    }

    /// Builds a fully-converged [`ChordNode`] for position `i`.
    pub fn build_node(&self, i: usize, cfg: ChordConfig) -> ChordNode {
        let me = self.sorted[i];
        let pred =
            if self.sorted.len() > 1 { Some(self.sorted[self.predecessor_index(i)]) } else { None };
        let succs = self.successors_of(i, cfg.num_successors);
        let fingers = self.fingers_of(i);
        ChordNode::with_state(me.id, cfg, pred, &succs, &fingers)
    }
}

/// A forward-only successor search around a sorted membership, as seen
/// from one member: the finger-resolution routine of both static rings.
///
/// Finger targets recede monotonically from their owner, so the finger
/// for one target is never nearer than the finger for the previous one:
/// it *is* the previous answer whenever that member still lies at or
/// beyond the new target — in particular every target that does not pass
/// the immediate successor resolves to that successor — and only
/// otherwise does a binary search run, over the positions past the
/// previous answer. A member of an `n`-node ring has O(log n) distinct
/// fingers, hence O(log n) searches instead of one per identifier bit.
#[derive(Clone, Debug)]
pub struct ClockwiseWalk<'a> {
    sorted: &'a [NodeHandle],
    i: usize,
    /// Clockwise position of the last answer: `1` is the immediate
    /// successor, `n` the member itself (one full turn away).
    r: usize,
    reach: u128,
}

impl<'a> ClockwiseWalk<'a> {
    /// Starts a walk from member `i` of `sorted` (distinct ids, ascending).
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn new(sorted: &'a [NodeHandle], i: usize) -> Self {
        assert!(i < sorted.len(), "member {i} out of range");
        ClockwiseWalk { sorted, i, r: 1, reach: 0 }
    }

    /// Clockwise distance to the immediate successor; zero on a singleton
    /// ring. A point at most this far past the member's id is succeeded
    /// by that successor.
    pub fn gap(&self) -> u128 {
        if self.sorted.len() > 1 {
            self.distance(1)
        } else {
            0
        }
    }

    /// Index of the successor of the point `reach` past the member's id
    /// (the member itself when no other lies at or beyond that point).
    ///
    /// # Panics
    ///
    /// Panics if `reach` is zero or smaller than in an earlier call.
    pub fn successor_at(&mut self, reach: u128) -> usize {
        assert!(reach > 0 && reach >= self.reach, "reach must be positive and non-decreasing");
        self.reach = reach;
        let n = self.sorted.len();
        if self.r < n && self.distance(self.r) < reach {
            let (mut lo, mut hi) = (self.r + 1, n);
            while lo < hi {
                let mid = lo + (hi - lo) / 2;
                if self.distance(mid) < reach {
                    lo = mid + 1;
                } else {
                    hi = mid;
                }
            }
            self.r = lo;
        }
        self.index(self.r)
    }

    /// The index of the member at clockwise position `r` (`1..=n`).
    fn index(&self, r: usize) -> usize {
        let k = self.i + r;
        if k < self.sorted.len() {
            k
        } else {
            k - self.sorted.len()
        }
    }

    fn distance(&self, r: usize) -> u128 {
        self.sorted[self.i].id.distance_to(self.sorted[self.index(r)].id)
    }
}

/// How many of the finger reaches `2^0, 2^1, …` are at most `limit`.
pub fn bits_reaching(limit: u128) -> u32 {
    Id::BITS - limit.leading_zeros()
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use verme_sim::runtime::UniformLatency;

    /// The finger rule this module used before [`ClockwiseWalk`]: one full
    /// binary search per identifier bit.
    fn reference_fingers(r: &StaticRing, i: usize) -> Vec<(usize, NodeHandle)> {
        let id = r.node(i).id;
        (0..Id::BITS)
            .map(|b| (b as usize, r.successor_index(id.finger_target(b))))
            .filter(|&(_, j)| j != i)
            .map(|(b, j)| (b, r.node(j)))
            .collect()
    }

    /// [`reference_fingers`] in the compact form: first occurrences only.
    fn reference_distinct_fingers(r: &StaticRing, i: usize) -> Vec<usize> {
        let mut out: Vec<usize> = Vec::new();
        for (_, h) in reference_fingers(r, i) {
            let j = r.successor_index(h.id);
            if !out.contains(&j) {
                out.push(j);
            }
        }
        out
    }

    fn ring_of(mut ids: Vec<u128>) -> StaticRing {
        ids.sort_unstable();
        ids.dedup();
        StaticRing::new(
            ids.into_iter()
                .enumerate()
                .map(|(i, id)| NodeHandle::new(Id::new(id), Addr::from_raw(i as u64 + 1)))
                .collect(),
        )
    }

    fn assert_fingers_match_reference(r: &StaticRing) -> Result<(), TestCaseError> {
        for i in 0..r.len() {
            prop_assert_eq!(r.fingers_of(i), reference_fingers(r, i), "fingers of {}", i);
            prop_assert_eq!(
                r.distinct_finger_indices(i),
                reference_distinct_fingers(r, i),
                "distinct fingers of {}",
                i
            );
        }
        Ok(())
    }

    proptest! {
        #[test]
        fn walked_fingers_equal_the_search_per_bit_reference(
            ids in prop::sample::select(vec![1usize, 2, 3, 17, 256])
                .prop_flat_map(|n| prop::collection::vec(any::<u128>(), n..=n)),
        ) {
            assert_fingers_match_reference(&ring_of(ids))?;
        }

        /// Hand-placed members: a run of adjacent ids (gap 1, so the
        /// shortest targets land exactly on members — `binary_search`'s
        /// `Ok` arm) and members sitting exactly on finger targets of the
        /// first one, wherever on the ring (wrap included) it is.
        #[test]
        fn walked_fingers_equal_the_reference_on_exact_hits(
            base: u128,
            run in 1u128..6,
            hit_bits in prop::collection::vec(0u32..Id::BITS, 0..6),
        ) {
            let mut ids: Vec<u128> = (0..=run).map(|d| base.wrapping_add(d)).collect();
            ids.extend(hit_bits.iter().map(|&b| Id::new(base).finger_target(b).raw()));
            assert_fingers_match_reference(&ring_of(ids))?;
        }

        /// The walk answers any non-decreasing sequence of reaches, not
        /// only powers of two, exactly like a fresh search for each.
        #[test]
        fn walk_equals_successor_index_for_any_monotone_reaches(
            ids in prop::collection::vec(any::<u128>(), 1..40),
            from: usize,
            mut reaches in prop::collection::vec(1u128..=u128::MAX, 1..50),
        ) {
            let r = ring_of(ids);
            let i = from % r.len();
            reaches.sort_unstable();
            let mut walk = ClockwiseWalk::new(r.nodes(), i);
            for reach in reaches {
                prop_assert_eq!(
                    walk.successor_at(reach),
                    r.successor_index(r.node(i).id.wrapping_add(reach))
                );
            }
        }
    }

    fn ring(n: u128) -> StaticRing {
        let handles = (0..n)
            .map(|i| NodeHandle::new(Id::new(i * 100 + 5), Addr::from_raw(i as u64 + 1)))
            .collect();
        StaticRing::new(handles)
    }

    #[test]
    fn successor_resolution_wraps() {
        let r = ring(10);
        assert_eq!(r.node(r.successor_index(Id::new(5))).id, Id::new(5));
        assert_eq!(r.node(r.successor_index(Id::new(6))).id, Id::new(105));
        assert_eq!(r.node(r.successor_index(Id::new(904))).id, Id::new(905));
        // Beyond the last node wraps to the first.
        assert_eq!(r.node(r.successor_index(Id::new(906))).id, Id::new(5));
        assert_eq!(r.node(r.successor_index(Id::new(u128::MAX))).id, Id::new(5));
    }

    #[test]
    fn successors_and_predecessors_are_adjacent() {
        let r = ring(10);
        let s = r.successors_of(0, 3);
        assert_eq!(s.iter().map(|h| h.id.raw()).collect::<Vec<_>>(), vec![105, 205, 305]);
        assert_eq!(r.predecessor_index(0), 9);
        assert_eq!(r.predecessor_index(5), 4);
    }

    #[test]
    fn successor_list_capped_by_ring_size() {
        let r = ring(3);
        assert_eq!(r.successors_of(0, 10).len(), 2, "never includes self");
    }

    #[test]
    fn fingers_point_at_true_successors() {
        let r = ring(16);
        for i in 0..16 {
            let id = r.node(i).id;
            for (b, h) in r.fingers_of(i) {
                let target = id.finger_target(b as u32);
                // h must be the first node at or after target.
                let expect = r.node(r.successor_index(target));
                assert_eq!(h, expect);
            }
        }
    }

    #[test]
    fn distinct_fingers_are_few_and_unique() {
        let r = ring(64);
        let d = r.distinct_finger_indices(0);
        let mut dd = d.clone();
        dd.sort_unstable();
        dd.dedup();
        assert_eq!(d.len(), dd.len(), "no duplicates");
        // For a 64-node ring, O(log n) distinct fingers.
        assert!(d.len() <= 10, "expected ≤10 distinct fingers, got {}", d.len());
        assert!(!d.contains(&0), "never points at self");
    }

    #[test]
    fn build_node_produces_converged_state() {
        let r = ring(12);
        let n = r.build_node(3, ChordConfig::default());
        assert!(n.is_joined());
        assert_eq!(n.predecessor().unwrap(), r.node(2));
        assert_eq!(n.successor_list()[0], r.node(4));
        assert_eq!(n.successor_list().len(), 10);
    }

    #[test]
    #[should_panic(expected = "duplicate node id")]
    fn rejects_duplicate_ids() {
        let h = NodeHandle::new(Id::new(7), Addr::from_raw(1));
        let h2 = NodeHandle::new(Id::new(7), Addr::from_raw(2));
        let _ = StaticRing::new(vec![h, h2]);
    }

    #[test]
    #[should_panic(expected = "at least one node")]
    fn rejects_empty() {
        let _ = StaticRing::new(Vec::new());
    }

    #[test]
    fn singleton_ring() {
        let r = ring(1);
        assert_eq!(r.len(), 1);
        assert_eq!(r.successor_index(Id::new(12345)), 0);
        assert!(r.successors_of(0, 10).is_empty());
        assert!(r.fingers_of(0).is_empty());
    }

    fn runtime(hosts: usize) -> Runtime<ChordNode, UniformLatency> {
        Runtime::new(UniformLatency::new(hosts, verme_sim::SimDuration::from_millis(20)), 1)
    }

    #[test]
    fn random_draws_the_ids_stream_in_address_order() {
        let r = StaticRing::random(40, 9);
        let mut rng = SeedSource::new(9).stream("ids");
        let mut by_addr = r.nodes().to_vec();
        by_addr.sort_by_key(|h| h.addr.raw());
        for (i, h) in by_addr.iter().enumerate() {
            assert_eq!(h.addr, Addr::from_raw(i as u64 + 1));
            assert_eq!(h.id, Id::random(&mut rng), "draw {i}");
        }
    }

    #[test]
    fn spawn_returns_the_handles_addresses_by_ring_position() {
        let r = StaticRing::random(40, 3);
        let mut rt = runtime(40);
        let mut built = Vec::new();
        let addrs = r.spawn(&mut rt, |pos| {
            built.push(pos);
            r.build_node(pos, ChordConfig::default())
        });
        // Ring order is not address order on a random ring, and members
        // are built in address order.
        assert!(built.windows(2).all(|w| r.node(w[0]).addr.raw() < r.node(w[1]).addr.raw()));
        assert_ne!(built, (0..40).collect::<Vec<_>>());
        assert_eq!(addrs, r.nodes().iter().map(|h| h.addr).collect::<Vec<_>>());
        for (pos, &addr) in addrs.iter().enumerate() {
            // The node living at a handle's address is the one that
            // handle names, on the host the address maps to.
            assert_eq!(rt.node(addr).expect("spawned").handle(), r.node(pos));
            assert_eq!(rt.host_of(addr), Some(HostId(addr.raw() as usize - 1)));
        }
    }

    #[test]
    #[should_panic(expected = "runtime assigned a different address")]
    fn spawn_into_a_used_runtime_panics() {
        let r = StaticRing::random(4, 3);
        let mut rt = runtime(5);
        rt.spawn(HostId(4), r.build_node(0, ChordConfig::default()));
        r.spawn(&mut rt, |pos| r.build_node(pos, ChordConfig::default()));
    }
}
