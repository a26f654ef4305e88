//! Instant construction of fully-converged rings.
//!
//! Two experiment families need a ring whose routing state is already
//! correct: the churn experiments of §7.1 (which start converged, then
//! apply churn) and the worm experiments of §7.3 (which run on a 100 000
//! node *static* overlay — far too large to bootstrap join-by-join). A
//! [`StaticRing`] computes every node's successor list, predecessor, and
//! finger table directly from the sorted membership.
//!
//! Its fingers follow a [`FingerRule`], the value the live node's finger
//! refresh reads too: Chord's [`ChordFingers`] by default, or Verme's
//! `SectionLayout`. One [`FingerSweep`] walks them under either, over the
//! whole ring or any range of it.

use std::ops::Range;

use verme_sim::{Addr, HostId, LatencyModel, Node, Runtime, SeedSource};

use crate::id::Id;
use crate::node::ChordNode;
use crate::proto::ChordConfig;
use crate::ring::NodeHandle;

/// Where a member's fingers aim and which member each one names.
pub trait FingerRule {
    /// The target of finger `b` of the member at `id`. How far past `id`
    /// it lies depends on `b` alone and grows with `b`: one
    /// [`FingerSweep`] then serves every member.
    fn target(&self, id: Id, b: u32) -> Id;
    /// A finger's entry, from its target's plain successor `s` and that
    /// node's predecessor `p` (`None` when a remote answer names only the
    /// successor); `id` reads a candidate's identifier. `None` leaves the
    /// finger unset.
    fn resolve<T>(&self, target: Id, s: T, p: Option<T>, id: impl Fn(&T) -> Id) -> Option<T>;
    /// How far past the member at `id` all targets with the same plain
    /// successor and predecessor resolve alike.
    fn alike_reach(&self, id: Id) -> u128;
}

/// Chord's finger rule: finger `b` aims at `id + 2^b` and names that
/// point's plain successor.
#[derive(Clone, Copy, Debug)]
pub struct ChordFingers;

impl FingerRule for ChordFingers {
    fn target(&self, id: Id, b: u32) -> Id {
        id.finger_target(b)
    }

    fn resolve<T>(&self, _: Id, s: T, _: Option<T>, _: impl Fn(&T) -> Id) -> Option<T> {
        Some(s)
    }

    fn alike_reach(&self, _: Id) -> u128 {
        u128::MAX
    }
}

/// A sorted ring membership with ground-truth routing queries, and the
/// finger rule its tables follow.
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
pub struct StaticRing<F: FingerRule = ChordFingers> {
    rule: F,
    sorted: Vec<NodeHandle>,
}

impl StaticRing {
    /// Builds a Chord ring from the given members.
    ///
    /// # Panics
    ///
    /// Panics if `handles` is empty or contains duplicate identifiers.
    pub fn new(handles: Vec<NodeHandle>) -> Self {
        StaticRing::with_rule(ChordFingers, handles)
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

    /// Builds a fully-converged [`ChordNode`] for position `i`.
    pub fn build_node(&self, i: usize, cfg: ChordConfig) -> ChordNode {
        let pred = self.predecessors_of(i, 1).first().copied();
        let succs = self.successors_of(i, cfg.num_successors);
        ChordNode::with_state(self.sorted[i].id, cfg, pred, &succs, &self.fingers_of(i))
    }
}

impl<F: FingerRule> StaticRing<F> {
    /// Builds a ring from the given members whose fingers follow `rule`.
    ///
    /// # Panics
    ///
    /// Panics if `handles` is empty or contains duplicate identifiers.
    pub fn with_rule(rule: F, mut handles: Vec<NodeHandle>) -> Self {
        assert!(!handles.is_empty(), "a ring needs at least one node");
        handles.sort_by_key(|h| h.id.raw());
        for w in handles.windows(2) {
            assert!(w[0].id != w[1].id, "duplicate node id {}", w[0].id);
        }
        StaticRing { rule, sorted: handles }
    }

    /// The finger rule the tables follow.
    pub fn rule(&self) -> &F {
        &self.rule
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

    /// The `k` nodes preceding position `i`, nearest first, fewer if the
    /// ring is smaller.
    pub fn predecessors_of(&self, i: usize, k: usize) -> Vec<NodeHandle> {
        let n = self.sorted.len();
        (1..=k.min(n - 1)).map(|d| self.sorted[(i + n - d) % n]).collect()
    }

    /// Finger entries for the node at position `i`: for each bit `b`, the
    /// rule's entry for target `b`, left out where the rule names nobody or
    /// the node itself.
    pub fn fingers_of(&self, i: usize) -> Vec<(usize, NodeHandle)> {
        let mut out = Vec::new();
        self.for_each_finger(&mut FingerSweep::new(&self.sorted), i, |b, j| {
            out.push((b as usize, self.sorted[j]))
        });
        out
    }

    /// Positions of the *distinct* nodes in `i`'s finger table (the compact
    /// form the worm simulator stores).
    pub fn distinct_finger_indices(&self, i: usize) -> Vec<usize> {
        let mut out = Vec::new();
        self.distinct_fingers_in(i..i + 1, &mut out, |_, _| {});
        out.into_iter().map(|j| j as usize).collect()
    }

    /// [`distinct_finger_indices`](StaticRing::distinct_finger_indices) of
    /// every member in `members`, in ring order, from one fresh
    /// [`FingerSweep`]: O(1) amortised per finger instead of a search.
    /// Each member's list is appended to `out`, and `visit(i, list)` is
    /// called after member `i`'s. Nothing is allocated but `out`'s growth:
    /// none when its spare capacity holds
    /// [`distinct_fingers_bound`](StaticRing::distinct_fingers_bound)`(members)`.
    ///
    /// A sweep's cursors are only lower bounds, so passes over adjacent
    /// ranges append exactly what one pass over their union appends.
    ///
    /// # Panics
    ///
    /// Panics if `members` ends past the ring or the ring has more than
    /// `u32::MAX` members.
    pub fn distinct_fingers_in(
        &self,
        members: Range<usize>,
        out: &mut Vec<u32>,
        mut visit: impl FnMut(usize, &[u32]),
    ) {
        assert!(members.end <= self.len(), "members {members:?} past a ring of {}", self.len());
        assert!(u32::try_from(self.len()).is_ok(), "a ring of {} members", self.len());
        let mut sweep = FingerSweep::new(&self.sorted);
        for i in members {
            let start = out.len();
            self.for_each_finger(&mut sweep, i, |_, j| {
                let (j, list) = (j as u32, &out[start..]);
                if list.last() != Some(&j) && !list.contains(&j) {
                    out.push(j);
                }
            });
            visit(i, &out[start..]);
        }
    }

    /// The most entries [`distinct_fingers_in`](StaticRing::distinct_fingers_in)
    /// appends for `members`: per member, one for all its near bits (which
    /// resolve as one) and one for each other bit, and never more than the
    /// other members. On a large ring that is about `log2 n` a member, where
    /// [`Id::BITS`] would be 128.
    pub fn distinct_fingers_bound(&self, members: Range<usize>) -> usize {
        let others = self.len() - 1;
        members.map(|i| (Id::BITS + 1 - self.near_bits(i)) as usize).map(|b| b.min(others)).sum()
    }

    /// How many of member `i`'s lowest finger bits are near. A target that
    /// passes neither the immediate successor nor the rule's alike reach
    /// has that successor as its plain successor and `i` as the
    /// predecessor, so all of them resolve as one: on a large ring, all but
    /// the top ~log2 n bits. Reaches grow with the bit, so these near bits
    /// are a prefix. It ends where `2^b` passes `alike` (neither rule aims
    /// short of `id + 2^b`) or earlier; a near bit left out is swept, which
    /// gives it the same entry.
    fn near_bits(&self, i: usize) -> u32 {
        let id = self.sorted[i].id;
        let alike = gap(&self.sorted, i).min(self.rule.alike_reach(id));
        let mut near = Id::BITS - alike.leading_zeros();
        while near > 0 && id.distance_to(self.rule.target(id, near - 1)) > alike {
            near -= 1;
        }
        near
    }

    /// Calls `visit(b, j)` for every bit `b` whose finger the rule resolves
    /// to a member `j` other than `i`, in bit order.
    fn for_each_finger(
        &self,
        sweep: &mut FingerSweep<'_>,
        i: usize,
        mut visit: impl FnMut(u32, usize),
    ) {
        let (id, near) = (self.sorted[i].id, self.near_bits(i));
        if near > 0 {
            let next = (i + 1) % self.len();
            if let Some(j) = self.resolve(self.rule.target(id, 0), next).filter(|&j| j != i) {
                (0..near).for_each(|b| visit(b, j));
            }
        }
        for b in near..Id::BITS {
            let target = self.rule.target(id, b);
            let s = sweep.successor(i, b, id.distance_to(target));
            if let Some(j) = self.resolve(target, s).filter(|&j| j != i) {
                visit(b, j);
            }
        }
    }

    /// The rule's entry for `target`, whose plain successor is member `s`.
    fn resolve(&self, target: Id, s: usize) -> Option<usize> {
        let p = if s == 0 { self.len() } else { s } - 1;
        self.rule.resolve(target, s, Some(p), |&j| self.sorted[j].id)
    }
}

/// The successor oracle of the finger walk: for member `i` and finger
/// bit `b`, the member succeeding the point `reach(b)` past `i`'s id,
/// where bit `b` reaches as far past every member.
///
/// Counting positions clockwise on the ring unrolled once (position
/// `p ≥ n` is member `p − n` one turn later, and `i + n` is `i` itself),
/// the answer `f_b(i)` is the first position in `(i, i + n]` whose id is at
/// least `id(i) + reach(b)`. It never moves back: not from one member to
/// the next (a later member's target lies further on), and not from one
/// bit to the next while reaches do not shrink. So the sweep keeps one
/// forward cursor per bit, the last answer for that bit, carried from
/// member to member, and each query starts at the latest of that cursor,
/// the member's answer for its previous bit and `i + 1`, gallops forward
/// and bisects the last stride. Walked in member order, a query costs
/// O(1) amortised; for a single member it costs what one search past the
/// previous answer costs.
#[derive(Clone, Debug)]
pub struct FingerSweep<'a> {
    sorted: &'a [NodeHandle],
    /// Per bit, the unrolled position of its latest answer.
    cursor: [usize; Id::BITS as usize],
    /// The latest query, `(member, bit, reach)`: queries may not go back.
    at: (usize, u32, u128),
    probes: u64,
}

impl<'a> FingerSweep<'a> {
    /// Starts a sweep over `sorted` (distinct ids, ascending).
    ///
    /// # Panics
    ///
    /// Panics if `sorted` is empty.
    pub fn new(sorted: &'a [NodeHandle]) -> Self {
        assert!(!sorted.is_empty(), "a sweep needs at least one member");
        FingerSweep { sorted, cursor: [0; Id::BITS as usize], at: (0, 0, 0), probes: 0 }
    }

    /// Clockwise distance from member `i` to its immediate successor; zero
    /// on a singleton ring. A point at most this far past the member's id
    /// is succeeded by that successor.
    pub fn gap(&self, i: usize) -> u128 {
        gap(self.sorted, i)
    }

    /// Index of the successor of the point `reach` past member `i`'s id
    /// (`i` itself when no other member lies at or beyond that point),
    /// where `reach` is finger bit `b`'s: the same for every member, and
    /// non-decreasing in `b`. A bit's cursor is only a lower bound for
    /// later members under that rule.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range, `b ≥ Id::BITS`, `(i, b)` comes
    /// before the previous query in member-then-bit order, or `reach` is
    /// zero or shorter than the member's previous reach.
    pub fn successor(&mut self, i: usize, b: u32, reach: u128) -> usize {
        let n = self.sorted.len();
        assert!(i < n, "member {i} out of range");
        let (member, bit, previous) = self.at;
        assert!(i > member || (i == member && b >= bit), "sweep queries must not go back");
        let mut lo = self.cursor[b as usize].max(i + 1);
        if i == member {
            assert!(reach >= previous, "reaches must be non-decreasing");
            lo = lo.max(self.cursor[bit as usize]);
        }
        assert!(reach > 0, "reaches must be positive");
        let (ids, base, end) = (self.sorted, self.sorted[i].id, i + n);
        let mut probes = 0;
        // True if unrolled position `p` (`i < p < i + n`) lies at least
        // `reach` past member `i`.
        let mut reaches = |p: usize| {
            probes += 1;
            base.distance_to(ids[if p < n { p } else { p - n }].id) >= reach
        };
        let mut hi = lo;
        if lo < end && !reaches(lo) {
            // Gallop until a position qualifies (`end`, the member itself,
            // always does), then bisect: `lo` falls short, `hi` qualifies.
            let mut step = 1;
            hi = loop {
                let probe = lo + step;
                if probe >= end {
                    break end;
                }
                if reaches(probe) {
                    break probe;
                }
                lo = probe;
                step *= 2;
            };
            while hi - lo > 1 {
                let mid = lo + (hi - lo) / 2;
                if reaches(mid) {
                    hi = mid;
                } else {
                    lo = mid;
                }
            }
        }
        self.probes += probes;
        self.cursor[b as usize] = hi;
        self.at = (i, b, reach);
        if hi < n {
            hi
        } else {
            hi - n
        }
    }

    /// How many ids the sweep has compared so far: its whole cost.
    pub fn probes(&self) -> u64 {
        self.probes
    }
}

/// Clockwise distance from member `i` of `sorted` to its immediate
/// successor; zero on a singleton ring.
fn gap(sorted: &[NodeHandle], i: usize) -> u128 {
    let n = sorted.len();
    if n > 1 {
        sorted[i].id.distance_to(sorted[(i + 1) % n].id)
    } else {
        0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use verme_sim::runtime::UniformLatency;

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

    proptest! {
        /// The sweep answers any non-decreasing reaches, not only powers
        /// of two, for any members and bits visited in order, exactly like
        /// a fresh search for each; and a bit whose answer is the previous
        /// bit's costs at most one probe.
        #[test]
        fn walk_equals_successor_index_for_any_monotone_reaches(
            ids in prop::collection::vec(any::<u128>(), 1..40),
            from: usize,
            scaled in prop::collection::vec((1u128..=u128::MAX, 0u32..Id::BITS), 128),
            picks in prop::collection::vec(any::<u128>(), 40),
        ) {
            let r = ring_of(ids);
            let mut reaches: Vec<u128> = scaled.iter().map(|&(v, s)| (v >> s).max(1)).collect();
            reaches.sort_unstable();
            let mut sweep = FingerSweep::new(r.nodes());
            for (i, pick) in picks.iter().enumerate().take(r.len()).skip(from % r.len()) {
                let mut previous = None;
                for b in (0..Id::BITS).filter(|&b| pick >> b & 1 == 1) {
                    let probes = sweep.probes();
                    let reach = reaches[b as usize];
                    let j = sweep.successor(i, b, reach);
                    prop_assert_eq!(j, r.successor_index(r.node(i).id.wrapping_add(reach)));
                    if previous == Some(j) {
                        prop_assert!(sweep.probes() - probes <= 1, "repeated answer re-searched");
                    }
                    previous = Some(j);
                }
            }
        }
    }

    /// Walked in member order, the sweep resolves a finger in a few probes
    /// where a search from the member costs about `2 log2 n`.
    #[test]
    fn a_whole_ring_sweep_costs_a_few_probes_per_finger() {
        let r = StaticRing::random(4096, 42);
        let mut sweep = FingerSweep::new(r.nodes());
        let mut searched = 0u64;
        for i in 0..r.len() {
            for b in Id::BITS - sweep.gap(i).leading_zeros()..Id::BITS {
                sweep.successor(i, b, 1u128 << b);
                searched += 1;
            }
        }
        assert!(
            sweep.probes() <= 3 * searched,
            "{} probes for {searched} searched fingers",
            sweep.probes()
        );
    }

    #[test]
    #[should_panic(expected = "sweep queries must not go back")]
    fn a_sweep_refuses_an_earlier_member() {
        let r = ring(8);
        let mut sweep = FingerSweep::new(r.nodes());
        sweep.successor(5, 0, 1);
        sweep.successor(4, 0, 1);
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
