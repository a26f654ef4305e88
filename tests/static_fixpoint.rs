//! Rings built by joins converge to the static rings.
//!
//! Every figure, check bin and benchmark workload starts from a static
//! ring (`StaticRing`, `VermeStaticRing`), whose successor lists and
//! finger tables are computed from the sorted membership. This file checks
//! that those tables are the state the nodes' own maintenance reaches: a
//! ring of 8–48 members joined one every 2 s through its first member, on
//! 20 ms uniform latency, is run until two snapshots taken 60 simulated
//! seconds apart are equal (at most 60 minutes), and then every member's
//! successor list and finger table must equal the static ring's over the
//! same ids and addresses. Each case runs Chord and Verme over one set of
//! ids, drawn under a Verme layout of 4–1 024 sections of two or four
//! types, so most layouts are sparse: many sections hold one member or
//! none, and the §4.4 rule leaves many fingers unset.

use proptest::prelude::*;

use verme::chord::{ChordConfig, ChordNode, FingerRule, FingerTable, Id, NodeHandle, StaticRing};
use verme::core::{SectionLayout, VermeConfig, VermeNode, VermeStaticRing};
use verme::crypto::{CertificateAuthority, NodeType};
use verme::sim::runtime::UniformLatency;
use verme::sim::{Addr, HostId, Node, Runtime, SeedSource, SimDuration};

/// A member's successor list and its finger table as `(bit, entry)`.
type Tables = (Vec<NodeHandle>, Vec<(usize, NodeHandle)>);

fn finger_entries(table: &FingerTable) -> Vec<(usize, NodeHandle)> {
    (0..table.len()).filter_map(|b| table.get(b).map(|h| (b, h))).collect()
}

/// Spawns `make(k, bootstrap)` for every id in `ids` order, the first
/// alone and each later one 2 s after the previous, joining through the
/// first; runs until two snapshots 60 s apart agree and returns each
/// member's tables, indexed like `ids`.
fn join_until_quiet<N: Node>(
    n: usize,
    seed: u64,
    mut make: impl FnMut(usize, Option<Addr>) -> N,
    view: impl Fn(&N) -> Tables,
) -> Vec<Tables> {
    let mut rt = Runtime::new(UniformLatency::new(n, SimDuration::from_millis(20)), seed);
    let first = rt.spawn(HostId(0), make(0, None));
    let mut addrs = vec![first];
    for k in 1..n {
        rt.run_until(rt.now() + SimDuration::from_secs(2));
        addrs.push(rt.spawn(HostId(k), make(k, Some(first))));
    }
    let snapshot = |rt: &Runtime<N, UniformLatency>| -> Vec<Tables> {
        addrs.iter().map(|&a| view(rt.node(a).expect("no member fails"))).collect()
    };
    let mut last = snapshot(&rt);
    for _ in 0..60 {
        rt.run_until(rt.now() + SimDuration::from_secs(60));
        let now = snapshot(&rt);
        if now == last {
            break;
        }
        last = now;
    }
    last
}

/// Asserts that every member of `ring` holds the successor list and the
/// fingers the static ring gives its position; `live` is indexed by spawn
/// order, which is address − 1.
fn assert_static<F: FingerRule>(
    overlay: &str,
    live: &[Tables],
    ring: &StaticRing<F>,
    successors: usize,
) -> Result<(), TestCaseError> {
    for i in 0..ring.len() {
        let me = ring.node(i);
        let (succs, fingers) = &live[me.addr.raw() as usize - 1];
        let want = ring.successors_of(i, successors);
        prop_assert_eq!(
            succs,
            &want,
            "{} member {}: live {:?}, static {:?}",
            overlay,
            i,
            succs,
            want
        );
        let want = ring.fingers_of(i);
        let at = |table: &[(usize, NodeHandle)], b| table.iter().find(|e| e.0 == b).map(|e| e.1);
        let differ: Vec<_> = (0..Id::BITS as usize)
            .map(|b| (b, at(fingers, b), at(&want, b)))
            .filter(|(_, live, want)| live != want)
            .collect();
        prop_assert!(
            differ.is_empty(),
            "{} member {} of {:?}: (bit, live, static) {:?}",
            overlay,
            i,
            ring.nodes(),
            differ
        );
    }
    Ok(())
}

proptest! {
    #[test]
    fn joined_rings_reach_the_static_tables(
        n in 8usize..=48,
        log_sections in 2u32..=10,
        four_types: bool,
        seed: u64,
    ) {
        let types = if four_types && log_sections >= 3 { 4 } else { 2 };
        let layout = SectionLayout::with_sections(1 << log_sections, types);
        let mut rng = SeedSource::new(seed).stream("ids");
        let mut ids: Vec<Id> = Vec::with_capacity(n);
        while ids.len() < n {
            let id = layout.assign_id(&mut rng, NodeType::new((ids.len() % types as usize) as u8));
            if !ids.contains(&id) {
                ids.push(id);
            }
        }
        let handles: Vec<NodeHandle> = ids
            .iter()
            .enumerate()
            .map(|(k, &id)| NodeHandle::new(id, Addr::from_raw(k as u64 + 1)))
            .collect();

        let chord = ChordConfig::default();
        let live = join_until_quiet(
            n,
            seed,
            |k, bootstrap| match bootstrap {
                None => ChordNode::first(ids[k], chord.clone()),
                Some(b) => ChordNode::joining(ids[k], chord.clone(), b),
            },
            |node| (node.successor_list().to_vec(), finger_entries(node.finger_table())),
        );
        let ring = StaticRing::new(handles.clone());
        assert_static("Chord", &live, &ring, chord.num_successors)?;

        let verme = VermeConfig::new(layout);
        let mut ca = CertificateAuthority::new(seed);
        let live = join_until_quiet(
            n,
            seed,
            |k, bootstrap| {
                let (cert, keys) = ca.issue(ids[k].raw(), layout.type_of(ids[k]));
                let (cfg, verifier) = (verme.clone(), ca.verifier());
                match bootstrap {
                    None => VermeNode::<()>::first(cfg, cert, keys, verifier),
                    Some(b) => VermeNode::joining(cfg, cert, keys, verifier, b),
                }
            },
            |node| (node.successor_list().to_vec(), finger_entries(node.finger_table())),
        );
        let ring = VermeStaticRing::from_handles(layout, handles);
        let overlay = format!("Verme over {} sections of {types} types", layout.num_sections());
        assert_static(&overlay, &live, &ring, verme.num_successors)?;
    }
}
