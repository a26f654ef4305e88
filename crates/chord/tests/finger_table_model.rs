//! Property test: the interned [`FingerTable`] against its old self.
//!
//! [`SlotTable`] below is the table as it was before interning — 128
//! `Option<NodeHandle>` slots, every query a scan over them — kept
//! verbatim as the reference model. Random edit sequences over a handle
//! pool with deliberately colliding ids (one id, two addresses) and
//! colliding addresses (one address, two ids) must leave both tables
//! answering every query alike after every step.

use proptest::prelude::*;

use verme_chord::{closest_preceding_hop, FingerTable, Id, NeighborList, NodeHandle};
use verme_sim::Addr;

/// The 128-slot finger table this crate had before handles were interned.
#[derive(Clone, Debug, PartialEq, Eq)]
struct SlotTable {
    owner: Id,
    entries: Vec<Option<NodeHandle>>,
}

impl SlotTable {
    fn new(owner: Id) -> Self {
        SlotTable { owner, entries: vec![None; Id::BITS as usize] }
    }

    fn len(&self) -> usize {
        self.entries.len()
    }

    fn is_empty(&self) -> bool {
        self.entries.iter().all(|e| e.is_none())
    }

    fn set(&mut self, i: usize, handle: Option<NodeHandle>) {
        self.entries[i] = handle;
    }

    fn get(&self, i: usize) -> Option<NodeHandle> {
        self.entries[i]
    }

    fn remove_addr(&mut self, addr: Addr) -> usize {
        let mut cleared = 0;
        for e in &mut self.entries {
            if e.is_some_and(|h| h.addr == addr) {
                *e = None;
                cleared += 1;
            }
        }
        cleared
    }

    fn distinct(&self) -> Vec<NodeHandle> {
        let mut out: Vec<NodeHandle> = Vec::new();
        for h in self.entries.iter().flatten() {
            if !out.iter().any(|o| o.addr == h.addr) {
                out.push(*h);
            }
        }
        out
    }

    fn closest_preceding(&self, key: Id) -> Option<NodeHandle> {
        let mut best: Option<NodeHandle> = None;
        let mut best_rank = 0u128;
        for h in self.entries.iter().flatten() {
            if h.id.in_open_open(self.owner, key) {
                let rank = self.owner.distance_to(h.id);
                if rank > best_rank {
                    best_rank = rank;
                    best = Some(*h);
                }
            }
        }
        best
    }
}

/// `closest_preceding_hop` as it was over [`SlotTable`].
fn slot_table_hop(
    owner: Id,
    fingers: &SlotTable,
    successors: &NeighborList,
    key: Id,
) -> Option<NodeHandle> {
    let mut best: Option<NodeHandle> = None;
    let mut best_rank = 0u128;
    let candidates = fingers.entries.iter().flatten().chain(successors.iter());
    for h in candidates {
        if h.id.in_open_open(owner, key) {
            let rank = owner.distance_to(h.id);
            if rank > best_rank {
                best_rank = rank;
                best = Some(*h);
            }
        }
    }
    best
}

#[derive(Clone, Copy, Debug)]
enum Edit {
    Set(usize, Option<NodeHandle>),
    RemoveAddr(Addr),
}

/// An owner, a successor list and an edit sequence over a pool of
/// `ids × addrs` handles. Small pools collide constantly; the largest
/// (15 × 11) holds more distinct handles than the table has slots.
fn scenario() -> impl Strategy<Value = (Id, Vec<NodeHandle>, Vec<Edit>, Vec<Id>)> {
    (prop::collection::vec(any::<u128>(), 1..16), 1u64..12, any::<u128>(), any::<bool>())
        .prop_flat_map(|(ids, addrs, owner, owner_in_pool)| {
            let owner = Id::new(if owner_in_pool { ids[0] } else { owner });
            // Keys on and beside every id in play, where the interval
            // tests flip, plus uniform ones.
            let keys: Vec<Id> = ids
                .iter()
                .chain([&owner.raw()])
                .flat_map(|&id| [id.wrapping_sub(1), id, id.wrapping_add(1)])
                .map(Id::new)
                .collect();
            let n = ids.len();
            let handle = move |ids: &[u128], (i, a): (usize, u64)| {
                NodeHandle::new(Id::new(ids[i]), Addr::from_raw(a))
            };
            let edit = {
                let ids = ids.clone();
                (0u8..10, 0usize..Id::BITS as usize, 0..n, 1..=addrs).prop_map(
                    move |(kind, slot, i, a)| match kind {
                        0..=5 => Edit::Set(slot, Some(handle(&ids, (i, a)))),
                        6..=7 => Edit::Set(slot, None),
                        _ => Edit::RemoveAddr(Addr::from_raw(a)),
                    },
                )
            };
            let successors = {
                let ids = ids.clone();
                prop::collection::vec((0..n, 1..=addrs), 0..4).prop_map(move |picks| {
                    picks.into_iter().map(|p| handle(&ids, p)).collect::<Vec<_>>()
                })
            };
            (
                successors,
                prop::collection::vec(edit, 1..300),
                prop::collection::vec(any::<u128>(), 4),
            )
                .prop_map(move |(successors, edits, uniform)| {
                    let keys = keys.iter().copied().chain(uniform.into_iter().map(Id::new));
                    (owner, successors, edits, keys.collect())
                })
        })
}

proptest! {
    #[test]
    fn interned_table_answers_like_the_slot_table(
        (owner, successors, edits, keys) in scenario(),
    ) {
        let mut table = FingerTable::new(owner);
        let mut model = SlotTable::new(owner);
        let mut list = NeighborList::successors(owner, 4);
        list.integrate_all(&successors);
        prop_assert_eq!(table.len(), model.len());

        for (step, edit) in edits.into_iter().enumerate() {
            match edit {
                Edit::Set(i, handle) => {
                    table.set(i, handle);
                    model.set(i, handle);
                }
                Edit::RemoveAddr(addr) => {
                    prop_assert_eq!(
                        table.remove_addr(addr),
                        model.remove_addr(addr),
                        "step {}: remove_addr({:?})", step, addr
                    );
                }
            }
            for i in 0..model.len() {
                prop_assert_eq!(table.get(i), model.get(i), "step {}: slot {}", step, i);
            }
            prop_assert_eq!(table.is_empty(), model.is_empty(), "step {}", step);
            prop_assert_eq!(table.distinct(), model.distinct(), "step {}", step);
            prop_assert_eq!(
                table.iter_distinct().collect::<Vec<_>>(),
                model.distinct(),
                "step {}", step
            );
            for &key in &keys {
                prop_assert_eq!(
                    table.closest_preceding(key),
                    model.closest_preceding(key),
                    "step {}: closest_preceding({:?})", step, key
                );
                prop_assert_eq!(
                    closest_preceding_hop(owner, &table, &list, key),
                    slot_table_hop(owner, &model, &list, key),
                    "step {}: closest_preceding_hop({:?})", step, key
                );
            }
        }

        // Equality reads the slots, not the interning history: a table
        // filled slot by slot in index order equals the edited one.
        let mut rebuilt = FingerTable::new(owner);
        for i in 0..model.len() {
            rebuilt.set(i, model.get(i));
        }
        prop_assert!(rebuilt == table && table == table.clone());
        if let Some(i) = (0..model.len()).find(|&i| model.get(i).is_some()) {
            rebuilt.set(i, None);
            prop_assert!(rebuilt != table, "tables differing in slot {} compare equal", i);
        }
    }
}
