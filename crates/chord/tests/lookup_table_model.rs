//! Property test: the in-place [`InFlight`] table against `HashMap`.
//!
//! `LookupTable` and the Verme node keep their per-lookup state in an
//! [`InFlight`] — a `Vec` scanned in place, whose `remove` swaps the last
//! entry into the hole — where they once kept a `HashMap`. Random
//! sequences of inserts (overwrites included), in-place writes, removes
//! and queries over a key space of twelve lookup ids, so hits, misses and
//! `swap_remove` reordering all recur, must leave both maps agreeing on
//! every key after every step.

use std::collections::HashMap;

use proptest::prelude::*;

use verme_chord::{InFlight, LookupId};
use verme_sim::Addr;

#[derive(Clone, Copy, Debug)]
enum Op {
    Insert(LookupId, u32),
    Write(LookupId, u32),
    Remove(LookupId),
    Contains(LookupId),
    Len,
}

/// Three initiators × four sequence numbers.
fn key() -> impl Strategy<Value = LookupId> {
    (0u64..3, 0u64..4).prop_map(|(origin, seq)| LookupId { origin: Addr::from_raw(origin), seq })
}

fn op() -> impl Strategy<Value = Op> {
    (0u8..10, key(), any::<u32>()).prop_map(|(kind, k, v)| match kind {
        0..=3 => Op::Insert(k, v),
        4..=5 => Op::Write(k, v),
        6..=7 => Op::Remove(k),
        8 => Op::Contains(k),
        _ => Op::Len,
    })
}

fn every_key() -> impl Iterator<Item = LookupId> {
    (0..3)
        .flat_map(|origin| (0..4).map(move |seq| LookupId { origin: Addr::from_raw(origin), seq }))
}

proptest! {
    #[test]
    fn in_flight_table_agrees_with_a_hash_map(ops in prop::collection::vec(op(), 1..200)) {
        let mut table: InFlight<LookupId, u32> = InFlight::default();
        let mut model: HashMap<LookupId, u32> = HashMap::new();
        prop_assert!(table.is_empty());

        for (step, op) in ops.into_iter().enumerate() {
            match op {
                Op::Insert(k, v) => {
                    prop_assert_eq!(table.insert(k, v), model.insert(k, v), "step {}: {:?}", step, op);
                }
                Op::Write(k, v) => {
                    let (t, m) = (table.get_mut(&k), model.get_mut(&k));
                    prop_assert_eq!(t.is_some(), m.is_some(), "step {}: {:?}", step, op);
                    if let (Some(t), Some(m)) = (t, m) {
                        *t = v;
                        *m = v;
                    }
                }
                Op::Remove(k) => {
                    prop_assert_eq!(table.remove(&k), model.remove(&k), "step {}: {:?}", step, op);
                }
                Op::Contains(k) => {
                    prop_assert_eq!(table.contains_key(&k), model.contains_key(&k), "step {}", step);
                }
                Op::Len => prop_assert_eq!(table.len(), model.len(), "step {}", step),
            }
            prop_assert_eq!(table.len(), model.len(), "step {}", step);
            prop_assert_eq!(table.is_empty(), model.is_empty(), "step {}", step);
            for k in every_key() {
                prop_assert_eq!(table.contains_key(&k), model.contains_key(&k), "step {}: {:?}", step, k);
                prop_assert_eq!(
                    table.get_mut(&k).copied(),
                    model.get(&k).copied(),
                    "step {}: {:?}", step, k
                );
            }
        }
    }
}
