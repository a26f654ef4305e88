//! Property test: the in-place [`InFlight`] table against `HashMap`.
//!
//! `LookupTable` and the Verme node keep their per-lookup state in an
//! [`InFlight`] — a `Vec` scanned in place, whose `remove` swaps the last
//! entry into the hole — where they once kept a `HashMap`, and its entries
//! expire on their own where a timer once collected them. Random sequences
//! of inserts (overwrites included, some expiring a few nanoseconds on and
//! some never), in-place writes, removes, queries and clock advances over
//! a key space of twelve lookup ids, so hits, misses, `swap_remove`
//! reordering and expiries at exactly `now` all recur, must leave the
//! table agreeing with a `HashMap` of live entries after every step: on
//! presence, value and length, and on holding no buffer once a write finds
//! the model empty. Reads never drop an entry, so the values are read from
//! a clone: the table itself meets its expired entries on its own writes.

use std::collections::HashMap;

use proptest::prelude::*;

use verme_chord::{InFlight, LookupId};
use verme_sim::{Addr, SimDuration, SimTime};

#[derive(Clone, Copy, Debug)]
enum Op {
    /// Insert, live for that many nanoseconds, or for ever on `None`.
    Insert(LookupId, u32, Option<u64>),
    Write(LookupId, u32),
    Remove(LookupId),
    Contains(LookupId),
    Len,
    /// Move the clock on by that many nanoseconds.
    Advance(u64),
}

/// Three initiators × four sequence numbers.
fn key() -> impl Strategy<Value = LookupId> {
    (0u64..3, 0u64..4).prop_map(|(origin, seq)| LookupId { origin: Addr::from_raw(origin), seq })
}

fn op() -> impl Strategy<Value = Op> {
    // A lifetime of 0 draws an entry that never expires.
    (0u8..12, key(), any::<u32>(), 0u64..4, 0u64..4).prop_map(|(kind, k, v, ttl, dt)| match kind {
        0..=3 => Op::Insert(k, v, Some(ttl).filter(|&ns| ns > 0)),
        4..=5 => Op::Write(k, v),
        6..=7 => Op::Remove(k),
        8 => Op::Contains(k),
        9 => Op::Len,
        _ => Op::Advance(dt),
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
        // The live entries only: each value beside its expiry.
        let mut model: HashMap<LookupId, (u32, SimTime)> = HashMap::new();
        let mut now = SimTime::ZERO;
        prop_assert_eq!(table.len(now), 0);

        for (step, op) in ops.into_iter().enumerate() {
            match op {
                Op::Insert(k, v, ttl) => {
                    let expiry = ttl.map_or(SimTime::MAX, |ns| now + SimDuration::from_nanos(ns));
                    prop_assert_eq!(
                        table.insert(k, v, expiry, now),
                        model.insert(k, (v, expiry)).map(|(v, _)| v),
                        "step {}: {:?}", step, op
                    );
                }
                Op::Write(k, v) => {
                    let (t, m) = (table.get_mut(&k, now), model.get_mut(&k));
                    prop_assert_eq!(t.is_some(), m.is_some(), "step {}: {:?}", step, op);
                    if let (Some(t), Some(m)) = (t, m) {
                        *t = v;
                        m.0 = v;
                    }
                }
                Op::Remove(k) => {
                    prop_assert_eq!(
                        table.remove(&k, now),
                        model.remove(&k).map(|(v, _)| v),
                        "step {}: {:?}", step, op
                    );
                }
                Op::Contains(k) => {
                    prop_assert_eq!(table.contains_key(&k, now), model.contains_key(&k), "step {}", step);
                }
                Op::Len => prop_assert_eq!(table.len(now), model.len(), "step {}", step),
                Op::Advance(dt) => {
                    now += SimDuration::from_nanos(dt);
                    model.retain(|_, (_, expiry)| now < *expiry);
                }
            }
            let wrote = matches!(op, Op::Insert(..) | Op::Write(..) | Op::Remove(_));
            if wrote && model.is_empty() {
                prop_assert_eq!(table.capacity(), (0, 0), "step {}: {:?}", step, op);
            }
            prop_assert_eq!(table.len(now), model.len(), "step {}", step);
            let mut probe = table.clone();
            for k in every_key() {
                prop_assert_eq!(table.contains_key(&k, now), model.contains_key(&k), "step {}: {:?}", step, k);
                prop_assert_eq!(
                    probe.get_mut(&k, now).copied(),
                    model.get(&k).map(|(v, _)| *v),
                    "step {}: {:?}", step, k
                );
            }
            if model.is_empty() {
                prop_assert_eq!(probe.capacity(), (0, 0), "step {}: a probed clone", step);
            }
        }
    }
}
