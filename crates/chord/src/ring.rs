//! Per-node routing state: successor lists and finger tables.
//!
//! These are pure data structures — no I/O, no simulator coupling — so the
//! maintenance logic can be unit-tested exhaustively and reused by the
//! Verme overlay in `verme-core`.

use verme_sim::Addr;

use crate::id::Id;

/// The `(identifier, network address)` pair Chord stores in all routing
/// state. Knowing a `NodeHandle` is exactly what lets a node (or a worm on
/// it) contact a peer.
#[derive(Copy, Clone, Debug, PartialEq, Eq, Hash)]
pub struct NodeHandle {
    /// The peer's overlay identifier.
    pub id: Id,
    /// The peer's network address.
    pub addr: Addr,
}

impl NodeHandle {
    /// Creates a handle.
    pub fn new(id: Id, addr: Addr) -> Self {
        NodeHandle { id, addr }
    }

    /// Modelled wire size of a handle (16-byte id + address/port).
    pub const WIRE_SIZE: usize = 22;
}

/// An ordered list of the nodes that follow an owner on the ring.
///
/// Entries are kept sorted by clockwise distance from the owner and
/// truncated to a fixed capacity (the paper uses 10 successors). The same
/// structure, ordered by *counter-clockwise* distance, serves as Verme's
/// predecessor list.
///
/// # Example
///
/// ```
/// use verme_chord::{Id, NeighborList, NodeHandle};
/// use verme_sim::Addr;
///
/// let mut l = NeighborList::successors(Id::new(100), 3);
/// # let addr = Addr::NULL;
/// l.integrate(NodeHandle::new(Id::new(300), addr));
/// l.integrate(NodeHandle::new(Id::new(150), addr));
/// l.integrate(NodeHandle::new(Id::new(200), addr));
/// l.integrate(NodeHandle::new(Id::new(400), addr)); // evicted: over capacity
/// let ids: Vec<u128> = l.iter().map(|h| h.id.raw()).collect();
/// assert_eq!(ids, vec![150, 200, 300]);
/// ```
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct NeighborList {
    owner: Id,
    capacity: usize,
    clockwise: bool,
    entries: Vec<NodeHandle>,
}

impl NeighborList {
    /// A successor list: neighbors ordered by clockwise distance.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn successors(owner: Id, capacity: usize) -> Self {
        assert!(capacity > 0, "capacity must be positive");
        NeighborList { owner, capacity, clockwise: true, entries: Vec::with_capacity(capacity) }
    }

    /// A predecessor list: neighbors ordered by counter-clockwise distance
    /// (used by Verme's replica-toward-predecessor corner case).
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn predecessors(owner: Id, capacity: usize) -> Self {
        assert!(capacity > 0, "capacity must be positive");
        NeighborList { owner, capacity, clockwise: false, entries: Vec::with_capacity(capacity) }
    }

    /// An empty list with this one's owner, capacity and direction.
    pub fn emptied(&self) -> Self {
        NeighborList { entries: Vec::with_capacity(self.capacity), ..*self }
    }

    /// True if `id` lies strictly between the owner and `head`, walking
    /// in this list's direction.
    pub fn is_between(&self, id: Id, head: Id) -> bool {
        (1..self.rank(head)).contains(&self.rank(id))
    }

    fn rank(&self, id: Id) -> u128 {
        if self.clockwise {
            self.owner.distance_to(id)
        } else {
            id.distance_to(self.owner)
        }
    }

    /// Inserts `handle` in sorted position if it is not the owner, not a
    /// duplicate, and ranks within capacity. Returns true if the list
    /// changed.
    pub fn integrate(&mut self, handle: NodeHandle) -> bool {
        if handle.id == self.owner {
            return false;
        }
        let rank = self.rank(handle.id);
        debug_assert!(rank > 0);
        match self.entries.binary_search_by_key(&rank, |h| self.rank(h.id)) {
            Ok(pos) => {
                // Same id: refresh the address (node incarnation changed).
                if self.entries[pos].addr != handle.addr {
                    self.entries[pos] = handle;
                    true
                } else {
                    false
                }
            }
            Err(pos) => {
                if pos >= self.capacity {
                    return false;
                }
                self.entries.insert(pos, handle);
                self.entries.truncate(self.capacity);
                true
            }
        }
    }

    /// Merges a peer's list into this one (e.g. adopting the successor's
    /// successor list during stabilization).
    pub fn integrate_all<'a>(&mut self, handles: impl IntoIterator<Item = &'a NodeHandle>) {
        for h in handles {
            self.integrate(*h);
        }
    }

    /// Zave's *ordered* list update: adopts `chain` in advertisement
    /// order, keeping only entries that strictly advance around the
    /// circle past everything already adopted. On an empty list this is
    /// exactly `head · butlast(head.list)` — a stale entry deep in a
    /// peer's tail can never leapfrog ahead of fresher knowledge (as the
    /// rank-sorted [`integrate`](Self::integrate) merge would let it) and
    /// gets flushed one position per stabilization round instead.
    pub fn adopt_chain<'a>(&mut self, chain: impl IntoIterator<Item = &'a NodeHandle>) {
        for h in chain {
            if self.entries.len() >= self.capacity {
                break;
            }
            if h.id == self.owner {
                continue;
            }
            let rank = self.rank(h.id);
            if self.entries.last().is_some_and(|l| self.rank(l.id) >= rank) {
                continue;
            }
            self.entries.push(*h);
        }
    }

    /// Removes the entry with the given address (a detected failure).
    /// Returns true if an entry was removed.
    pub fn remove_addr(&mut self, addr: Addr) -> bool {
        let before = self.entries.len();
        self.entries.retain(|h| h.addr != addr);
        self.entries.len() != before
    }

    /// The nearest neighbor (first successor, or first predecessor).
    pub fn first(&self) -> Option<NodeHandle> {
        self.entries.first().copied()
    }

    /// All entries in rank order.
    pub fn iter(&self) -> impl Iterator<Item = &NodeHandle> {
        self.entries.iter()
    }

    /// All entries as a slice, in rank order.
    pub fn as_slice(&self) -> &[NodeHandle] {
        &self.entries
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True if the list is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The configured capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// The owner identifier this list is anchored at.
    pub fn owner(&self) -> Id {
        self.owner
    }
}

/// A finger table: long-range routing pointers.
///
/// Entry `i`'s *target* is defined by the overlay (`owner + 2^i` in Chord;
/// Verme shifts targets by a section so the pointed-at node has the
/// opposite type). The table itself only stores and queries entries.
///
/// Of the [`Id::BITS`] entries only O(log N) are distinct on an N-node
/// ring, so the table keeps each distinct handle once (24 bytes, with no
/// reference count) and one byte per entry naming it: routing reads a
/// dozen handles instead of 128 slots.
#[derive(Clone, Debug)]
pub struct FingerTable {
    owner: Id,
    /// Per finger, its handle's position in `interned`, or [`VACANT`].
    slots: [u8; Id::BITS as usize],
    /// The distinct handles, in no particular order; every one is named
    /// by at least one slot.
    interned: Vec<NodeHandle>,
}

/// The slot byte of an unset finger. Never a position in `interned`,
/// which holds at most one handle per slot (one more while `set` swaps).
const VACANT: u8 = u8::MAX;

impl FingerTable {
    /// Creates an empty table with one entry per bit of the id space.
    pub fn new(owner: Id) -> Self {
        FingerTable { owner, slots: [VACANT; Id::BITS as usize], interned: Vec::new() }
    }

    /// Number of finger slots.
    pub fn len(&self) -> usize {
        self.slots.len()
    }

    /// True if no finger is set.
    pub fn is_empty(&self) -> bool {
        self.interned.is_empty()
    }

    /// Sets finger `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn set(&mut self, i: usize, handle: Option<NodeHandle>) {
        if handle == self.get(i) {
            return; // The usual finger round: nothing moved.
        }
        let old = self.slots[i];
        // Name the new handle before dropping the old one: dropping may
        // move the last interned handle, and `slots[i]` follows it.
        self.slots[i] = match handle {
            None => VACANT,
            Some(h) => self.intern(h),
        };
        if old != VACANT {
            self.release(old);
        }
    }

    /// The position of `h` in `interned`, interning it if it is new.
    fn intern(&mut self, h: NodeHandle) -> u8 {
        let at = self.interned.iter().position(|e| *e == h).unwrap_or_else(|| {
            self.interned.push(h);
            self.interned.len() - 1
        });
        // At most one handle per slot, plus the one `set` is installing.
        u8::try_from(at).expect("more interned handles than finger slots")
    }

    /// Removes interned handle `at` once no slot names it, moving the last
    /// handle into its place.
    fn release(&mut self, at: u8) {
        if self.slots.contains(&at) {
            return;
        }
        self.interned.swap_remove(at as usize);
        let moved = self.interned.len() as u8;
        if moved != at {
            for s in self.slots.iter_mut().filter(|s| **s == moved) {
                *s = at;
            }
        }
    }

    /// Reads finger `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn get(&self, i: usize) -> Option<NodeHandle> {
        self.interned.get(self.slots[i] as usize).copied()
    }

    /// Removes every finger pointing at `addr` (a detected failure).
    /// Returns how many entries were cleared.
    pub fn remove_addr(&mut self, addr: Addr) -> usize {
        if !self.interned.iter().any(|e| e.addr == addr) {
            return 0;
        }
        let mut cleared = 0;
        for i in 0..self.slots.len() {
            if self.get(i).is_some_and(|h| h.addr == addr) {
                self.set(i, None);
                cleared += 1;
            }
        }
        cleared
    }

    /// The distinct populated fingers, de-duplicated by address, in the
    /// order of the first slot that names each — without allocating.
    pub fn iter_distinct(&self) -> impl Iterator<Item = NodeHandle> + '_ {
        let mut slots = self.slots.iter();
        let mut seen = 0u128; // bit `k`: a slot naming `interned[k]` was passed
        let mut unseen = self.interned.len();
        std::iter::from_fn(move || {
            while unseen > 0 {
                let k = *slots.next()? as usize;
                if k == VACANT as usize || seen & (1 << k) != 0 {
                    continue;
                }
                let addr = self.interned[k].addr;
                let dup = (0..self.interned.len())
                    .any(|j| seen & (1 << j) != 0 && self.interned[j].addr == addr);
                seen |= 1 << k;
                unseen -= 1;
                if !dup {
                    return Some(self.interned[k]);
                }
            }
            None
        })
    }

    /// All distinct populated fingers, de-duplicated by address.
    pub fn distinct(&self) -> Vec<NodeHandle> {
        self.iter_distinct().collect()
    }

    /// The id a finger binds `addr` to, if any. One address interned
    /// under two ids answers with the id its lowest slot names — what
    /// `iter_distinct().find(|h| h.addr == addr)` finds — but only a
    /// second hit pays for the slot scan that settles it.
    pub fn id_at(&self, addr: Addr) -> Option<Id> {
        let mut hits = self.interned.iter().filter(|e| e.addr == addr);
        let first = hits.next()?;
        if hits.next().is_none() {
            return Some(first.id);
        }
        self.slots
            .iter()
            .filter_map(|&s| self.interned.get(s as usize))
            .find(|e| e.addr == addr)
            .map(|e| e.id)
    }

    /// The populated finger whose id most closely *precedes* `key`
    /// (strictly inside `(owner, key)`) — Chord's greedy routing step.
    pub fn closest_preceding(&self, key: Id) -> Option<NodeHandle> {
        self.farthest_before(self.owner, key).map(|(_, h)| h)
    }

    /// The finger farthest clockwise from `owner` strictly inside
    /// `(owner, key)`, with that distance. One id bound to two addresses
    /// makes two handles of one rank: the one in the lowest slot wins.
    fn farthest_before(&self, owner: Id, key: Id) -> Option<(u128, NodeHandle)> {
        let first_slot = |k: usize| self.slots.iter().position(|&s| s as usize == k);
        let mut best: Option<(u128, usize)> = None;
        for (k, e) in self.interned.iter().enumerate() {
            if !e.id.in_open_open(owner, key) {
                continue;
            }
            let rank = owner.distance_to(e.id);
            if best.is_none_or(|(best_rank, b)| {
                rank > best_rank || (rank == best_rank && first_slot(k) < first_slot(b))
            }) {
                best = Some((rank, k));
            }
        }
        best.map(|(rank, k)| (rank, self.interned[k]))
    }

    /// The owner identifier.
    pub fn owner(&self) -> Id {
        self.owner
    }

    /// Bytes this table occupies, inline and on the heap.
    pub fn footprint_bytes(&self) -> usize {
        std::mem::size_of::<Self>() + self.interned.capacity() * std::mem::size_of::<NodeHandle>()
    }
}

/// Two tables are equal when they have the same owner and the same finger
/// in every slot; how the handles happen to be interned does not count.
impl PartialEq for FingerTable {
    fn eq(&self, other: &Self) -> bool {
        self.owner == other.owner && (0..self.slots.len()).all(|i| self.get(i) == other.get(i))
    }
}

impl Eq for FingerTable {}

/// Picks, among fingers and successors, the best next hop toward `key`:
/// the known node whose id most closely precedes `key`. Returns `None`
/// only when nothing precedes the key (i.e. our immediate neighborhood is
/// the destination).
pub fn closest_preceding_hop(
    owner: Id,
    fingers: &FingerTable,
    successors: &NeighborList,
    key: Id,
) -> Option<NodeHandle> {
    // A successor replaces a finger only by preceding `key` more closely.
    let mut best = fingers.farthest_before(owner, key);
    for h in successors.iter() {
        if h.id.in_open_open(owner, key) {
            let rank = owner.distance_to(h.id);
            if best.is_none_or(|(best_rank, _)| rank > best_rank) {
                best = Some((rank, *h));
            }
        }
    }
    best.map(|(_, h)| h)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn h(id: u128) -> NodeHandle {
        // Encode the id in the address so address-based operations
        // (removal, de-duplication) are meaningful in tests.
        NodeHandle::new(Id::new(id), Addr::from_raw(id as u64 + 1))
    }

    #[test]
    fn successor_list_orders_clockwise() {
        let mut l = NeighborList::successors(Id::new(100), 4);
        for id in [90u128, 300, 150, 200] {
            l.integrate(h(id));
        }
        let ids: Vec<u128> = l.iter().map(|x| x.id.raw()).collect();
        // 90 wraps: it is almost a full circle away, so it ranks last.
        assert_eq!(ids, vec![150, 200, 300, 90]);
        assert_eq!(l.first().unwrap().id, Id::new(150));
    }

    #[test]
    fn predecessor_list_orders_counter_clockwise() {
        let mut l = NeighborList::predecessors(Id::new(100), 3);
        for id in [90u128, 80, 95, 70] {
            l.integrate(h(id));
        }
        let ids: Vec<u128> = l.iter().map(|x| x.id.raw()).collect();
        assert_eq!(ids, vec![95, 90, 80]);
    }

    #[test]
    fn adopt_chain_keeps_advertisement_order_and_drops_leapfrogs() {
        // Owner 100 adopting successor 300's view [300, 150, 400]: the
        // stale 150 sits *behind* 300 from the owner's vantage, so the
        // ordered update drops it instead of promoting it to the head
        // (which the rank-sorted merge would do).
        let mut l = NeighborList::successors(Id::new(100), 3);
        l.adopt_chain(&[h(300), h(150), h(400), h(100), h(400)]);
        let ids: Vec<u128> = l.iter().map(|x| x.id.raw()).collect();
        assert_eq!(ids, vec![300, 400]);
    }

    #[test]
    fn adopt_chain_truncates_at_capacity() {
        let mut l = NeighborList::successors(Id::new(0), 2);
        l.adopt_chain(&[h(10), h(20), h(30)]);
        let ids: Vec<u128> = l.iter().map(|x| x.id.raw()).collect();
        assert_eq!(ids, vec![10, 20]);
    }

    #[test]
    fn capacity_evicts_farthest() {
        let mut l = NeighborList::successors(Id::new(0), 2);
        assert!(l.integrate(h(10)));
        assert!(l.integrate(h(20)));
        assert!(!l.integrate(h(30)), "beyond capacity, rejected");
        assert!(l.integrate(h(5)), "nearer node evicts the farthest");
        let ids: Vec<u128> = l.iter().map(|x| x.id.raw()).collect();
        assert_eq!(ids, vec![5, 10]);
        assert_eq!(l.len(), 2);
        assert_eq!(l.capacity(), 2);
    }

    #[test]
    fn owner_and_duplicates_are_ignored() {
        let mut l = NeighborList::successors(Id::new(42), 4);
        assert!(!l.integrate(h(42)), "own id rejected");
        assert!(l.integrate(h(50)));
        assert!(!l.integrate(h(50)), "exact duplicate rejected");
        assert_eq!(l.len(), 1);
    }

    #[test]
    fn remove_addr_works() {
        let mut l = NeighborList::successors(Id::new(0), 4);
        l.integrate(h(10));
        l.integrate(h(20));
        assert!(l.remove_addr(h(10).addr));
        assert!(!l.remove_addr(h(10).addr), "already gone");
        let ids: Vec<u128> = l.iter().map(|x| x.id.raw()).collect();
        assert_eq!(ids, vec![20]);

        let mut t = FingerTable::new(Id::new(0));
        t.set(3, Some(h(20)));
        t.set(5, Some(h(20)));
        t.set(7, Some(h(30)));
        assert_eq!(t.remove_addr(h(20).addr), 2);
        assert_eq!(t.distinct().len(), 1);
    }

    #[test]
    fn same_id_new_incarnation_refreshes_address() {
        let mut l = NeighborList::successors(Id::new(0), 4);
        let old = NodeHandle::new(Id::new(10), Addr::from_raw(1));
        let new = NodeHandle::new(Id::new(10), Addr::from_raw(2));
        assert!(l.integrate(old));
        assert!(l.integrate(new), "new incarnation replaces the stale address");
        assert_eq!(l.len(), 1);
        assert_eq!(l.first().unwrap().addr, Addr::from_raw(2));
    }

    #[test]
    fn finger_table_basics() {
        let owner = Id::new(1000);
        let mut t = FingerTable::new(owner);
        assert!(t.is_empty());
        assert_eq!(t.len(), 128);
        t.set(10, Some(h(5000)));
        t.set(20, Some(h(90_000)));
        assert_eq!(t.get(10).unwrap().id, Id::new(5000));
        assert!(!t.is_empty());
        assert_eq!(t.distinct().len(), 2);
    }

    #[test]
    fn every_slot_can_hold_its_own_handle() {
        let mut t = FingerTable::new(Id::new(0));
        for i in 0..t.len() {
            t.set(i, Some(h(1000 + i as u128)));
        }
        assert_eq!(t.distinct().len(), 128);
        // Replacing one of 128 distinct handles interns the 129th before
        // the displaced one goes.
        t.set(5, Some(h(5000)));
        t.set(127, None);
        for i in 0..127 {
            let expect = if i == 5 { h(5000) } else { h(1000 + i as u128) };
            assert_eq!(t.get(i), Some(expect), "slot {i}");
        }
        assert_eq!(t.get(127), None);
        assert_eq!(t.distinct().len(), 127);
    }

    #[test]
    fn a_handle_and_an_interned_finger_take_24_bytes() {
        assert_eq!(std::mem::size_of::<NodeHandle>(), 24);
        let mut t = FingerTable::new(Id::new(0));
        t.set(4, Some(h(16)));
        assert_eq!(std::mem::size_of_val(&t.interned[0]), 24);
        assert_eq!(
            t.footprint_bytes(),
            std::mem::size_of::<FingerTable>() + 24 * t.interned.capacity()
        );
    }

    #[test]
    fn overlay_messages_timers_and_nodes_keep_their_sizes() {
        use std::mem::size_of;
        // Read on x86-64 before both overlays ran one `OverlayNode`. Every
        // queued event holds a message or a timer; a node may only shrink.
        assert_eq!(size_of::<crate::ChordMsg>(), 80);
        assert_eq!(size_of::<verme_core::VermeMsg<()>>(), 96);
        assert_eq!(size_of::<crate::ChordTimer>(), 24);
        assert_eq!(size_of::<verme_core::VermeTimer>(), 16);
        assert!(size_of::<crate::ChordNode>() <= 608);
        assert!(size_of::<verme_core::VermeNode<()>>() <= 784);
    }

    #[test]
    fn one_address_at_two_ids_binds_to_the_lowest_slot() {
        let old = NodeHandle::new(Id::new(70), Addr::from_raw(1));
        let new = NodeHandle::new(Id::new(90), Addr::from_raw(1));
        let mut t = FingerTable::new(Id::new(0));
        assert_eq!(t.id_at(old.addr), None);
        t.set(9, Some(old));
        t.set(12, Some(h(300)));
        assert_eq!(t.id_at(old.addr), Some(old.id));
        t.set(6, Some(new)); // interned last, but in the lowest slot
        assert_eq!(t.id_at(old.addr), Some(new.id));
        t.set(6, None);
        assert_eq!(t.id_at(old.addr), Some(old.id));
        assert_eq!(t.id_at(Addr::from_raw(2)), None);
    }

    #[test]
    fn one_id_at_two_addresses_routes_to_the_lowest_slot() {
        let owner = Id::new(0);
        let old = NodeHandle::new(Id::new(70), Addr::from_raw(1));
        let new = NodeHandle::new(Id::new(70), Addr::from_raw(2));
        let mut t = FingerTable::new(owner);
        t.set(9, Some(old));
        t.set(6, Some(new)); // interned second, but in the lower slot
        assert_eq!(t.closest_preceding(Id::new(100)), Some(new));
        let s = NeighborList::successors(owner, 4);
        assert_eq!(closest_preceding_hop(owner, &t, &s, Id::new(100)), Some(new));
        t.set(3, Some(old));
        assert_eq!(t.closest_preceding(Id::new(100)), Some(old));
        assert_eq!(t.distinct(), vec![old, new], "first-slot order");
    }

    #[test]
    fn closest_preceding_prefers_farthest_before_key() {
        let owner = Id::new(0);
        let mut t = FingerTable::new(owner);
        t.set(4, Some(h(16)));
        t.set(6, Some(h(70)));
        t.set(8, Some(h(300)));
        // Key 100: finger 70 precedes it, 300 does not.
        assert_eq!(t.closest_preceding(Id::new(100)).unwrap().id, Id::new(70));
        // Key 17: only 16 precedes.
        assert_eq!(t.closest_preceding(Id::new(17)).unwrap().id, Id::new(16));
        // Key 5: nothing precedes.
        assert!(t.closest_preceding(Id::new(5)).is_none());
    }

    #[test]
    fn combined_hop_considers_successors() {
        let owner = Id::new(0);
        let t = FingerTable::new(owner);
        let mut s = NeighborList::successors(owner, 4);
        s.integrate(h(40));
        s.integrate(h(80));
        let hop = closest_preceding_hop(owner, &t, &s, Id::new(100)).unwrap();
        assert_eq!(hop.id, Id::new(80));
        assert!(closest_preceding_hop(owner, &t, &s, Id::new(10)).is_none());
    }

    #[test]
    #[should_panic(expected = "capacity must be positive")]
    fn zero_capacity_rejected() {
        let _ = NeighborList::successors(Id::ZERO, 0);
    }
}
