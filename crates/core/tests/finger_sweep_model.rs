//! The finger walk against a search per bit.
//!
//! A static ring walks its fingers under its `FingerRule` (Chord's, or a
//! Verme `SectionLayout`) with one `FingerSweep`, which carries one forward
//! cursor per finger bit from member to member instead of searching the
//! ring afresh. Its answers rest on one argument: the successor of
//! `id + reach` never moves back, neither from one member to the next nor
//! from one bit to the next. This file checks the argument where it is
//! easiest to get wrong — rings of 1 to 64 members and of 256,
//! wrap-around, sparse and crowded Verme layouts of 4 to 4 096 sections,
//! members sitting exactly on finger targets — against the rule the rings
//! used before the sweep: one `successor_index` per bit, then (on Verme)
//! the §4.4 corner rule.
//!
//! One check, generic over the rule, serves both overlays. For every
//! member, three answers must equal that reference: the lists of one sweep
//! over the whole ring (`distinct_fingers_in(0..n, ..)`), a fresh sweep for
//! the member alone (`distinct_finger_indices`), and the full table
//! (`fingers_of`). The worm populations split the whole-ring pass into
//! ranges, one sweep each, so the passes over the ranges between random
//! cut points (with an empty range, a one-member range and a cut at the
//! last member among them) must append exactly the whole-ring lists, and
//! no member's list may pass `distinct_fingers_bound`, the capacity a
//! caller reserves so that the pass allocates nothing. The plain ring over
//! a Verme membership (the unshifted ablation) is checked the same way.
//! Below the rings, the sweep itself answers every bit of every member, in
//! order, as the search does, and an answer that repeats the member's
//! previous one costs at most one probe: the query starts there rather
//! than searching again.

use std::ops::Range;

use proptest::prelude::*;

use verme_chord::static_ring::{FingerRule, FingerSweep};
use verme_chord::{Id, NodeHandle, StaticRing};
use verme_core::{SectionLayout, VermeStaticRing};
use verme_sim::Addr;

/// Finger table by the search-per-bit rule: for each bit, `target(b)`'s
/// member under `resolve`, owners themselves left out.
fn reference(
    i: usize,
    target: impl Fn(u32) -> Id,
    resolve: impl Fn(Id) -> Option<usize>,
) -> Vec<(usize, usize)> {
    (0..Id::BITS)
        .filter_map(|b| resolve(target(b)).filter(|&j| j != i).map(|j| (b as usize, j)))
        .collect()
}

/// First occurrences of the table's members, in bit order.
fn distinct(table: &[(usize, usize)]) -> Vec<usize> {
    let mut out = Vec::new();
    for &(_, j) in table {
        if !out.contains(&j) {
            out.push(j);
        }
    }
    out
}

fn handles(mut ids: Vec<u128>) -> Vec<NodeHandle> {
    ids.sort_unstable();
    ids.dedup();
    ids.into_iter()
        .enumerate()
        .map(|(i, id)| NodeHandle::new(Id::new(id), Addr::from_raw(i as u64 + 1)))
        .collect()
}

/// One sweep over every bit of every member of `ring`, reaching `reach(b)`
/// past each, against `successor_index`.
fn check_sweep<F: FingerRule>(
    ring: &StaticRing<F>,
    reach: impl Fn(u32) -> u128,
) -> Result<(), TestCaseError> {
    let mut sweep = FingerSweep::new(ring.nodes());
    for i in 0..ring.len() {
        let mut previous = None;
        for b in 0..Id::BITS {
            let probes = sweep.probes();
            let j = sweep.successor(i, b, reach(b));
            prop_assert_eq!(j, ring.successor_index(ring.node(i).id.wrapping_add(reach(b))));
            if previous == Some(j) {
                prop_assert!(sweep.probes() - probes <= 1, "member {} bit {} searched again", i, b);
            }
            previous = Some(j);
        }
    }
    Ok(())
}

/// Every member's distinct fingers from one pass per range of `ranges`,
/// all appending to one buffer: the buffer, and the lists the visitor saw
/// (checked to come in member order).
fn passes<F: FingerRule>(
    ring: &StaticRing<F>,
    ranges: impl IntoIterator<Item = Range<usize>>,
) -> Result<(Vec<u32>, Vec<Vec<usize>>), TestCaseError> {
    let (mut out, mut lists) = (Vec::new(), Vec::new());
    for range in ranges {
        let mut next = range.start;
        ring.distinct_fingers_in(range.clone(), &mut out, |i, list| {
            assert_eq!(i, next, "members visited out of order");
            next += 1;
            lists.push(list.iter().map(|&j| j as usize).collect());
        });
        prop_assert_eq!(next, range.end, "members of {:?} left unvisited", range);
    }
    Ok((out, lists))
}

/// The ranges between the cuts `raw` picks on a ring of `n` members, plus
/// cuts that make an empty range at the start, a one-member range and a
/// range from the last member.
fn ranges(n: usize, raw: &[usize]) -> Vec<Range<usize>> {
    let mut cuts = vec![0, 0, n - 1, n];
    for &r in raw {
        let cut = r % n;
        cuts.extend([cut, cut + 1]);
    }
    cuts.sort_unstable();
    cuts.windows(2).map(|w| w[0]..w[1]).collect()
}

/// One rule's walk against the search per bit: the sweep under the rule's
/// reaches, then the passes over the ranges `cuts` picks against the
/// whole-ring pass, then every member's three finger answers against
/// `owner`, which resolves a target from a search of its own, and its
/// list's length against `distinct_fingers_bound`.
fn check<F: FingerRule>(
    ring: &StaticRing<F>,
    owner: impl Fn(Id) -> Option<usize>,
    cuts: &[usize],
) -> Result<(), TestCaseError> {
    let rule = ring.rule();
    check_sweep(ring, |b| rule.target(Id::ZERO, b).raw())?;
    let (whole, swept) = passes(ring, std::iter::once(0..ring.len()))?;
    prop_assert_eq!(swept.len(), ring.len());
    let (split, split_lists) = passes(ring, ranges(ring.len(), cuts))?;
    prop_assert_eq!(&split, &whole, "split passes append what the whole-ring pass does");
    prop_assert_eq!(&split_lists, &swept);
    for (i, swept) in swept.iter().enumerate() {
        prop_assert!(swept.len() <= ring.distinct_fingers_bound(i..i + 1), "bound of {}", i);
        let id = ring.node(i).id;
        let want = reference(i, |b| rule.target(id, b), &owner);
        let table: Vec<(usize, usize)> =
            ring.fingers_of(i).into_iter().map(|(b, h)| (b, ring.successor_index(h.id))).collect();
        prop_assert_eq!(&table, &want, "fingers_of({})", i);
        prop_assert_eq!(&ring.distinct_finger_indices(i), &distinct(&want), "fresh sweep, {}", i);
        prop_assert_eq!(swept, &distinct(&want), "whole-ring sweep, member {}", i);
    }
    Ok(())
}

/// Chord's rule over `ids`: each target's plain successor.
fn check_chord(ids: Vec<u128>, cuts: &[usize]) -> Result<(), TestCaseError> {
    let ring = StaticRing::new(handles(ids));
    check(&ring, |t| Some(ring.successor_index(t)), cuts)
}

/// Verme's rule over `ids` under `layout`: the §4.4 corner rule, then the
/// ablation, plain Chord fingers over the same membership.
fn check_verme(layout: SectionLayout, ids: Vec<u128>, cuts: &[usize]) -> Result<(), TestCaseError> {
    let ring = VermeStaticRing::from_handles(layout, handles(ids.clone()));
    check(&ring, |t| ring.corner_responsible_index(t), cuts)?;
    check_chord(ids, cuts)
}

/// How a Verme ring's members are placed.
#[derive(Clone, Copy, Debug)]
enum Placement {
    /// Anywhere: with many sections, most are empty or hold one member.
    Uniform,
    /// In a few adjacent sections, crowded, with every other one empty.
    Crowded { sections: u128 },
}

/// A layout with `2^log_sections` sections of `types` types.
fn layout(log_sections: u32, types: u8) -> SectionLayout {
    SectionLayout::with_sections(1u128 << log_sections, types)
}

/// `log2` of the section count and the type count of a valid layout,
/// 4 to 4 096 sections: `SectionLayout::with_sections` needs at least two
/// sections per type.
fn layouts() -> impl Strategy<Value = (u32, u8)> {
    let two = (2u32..=12).map(|s| (s, 2u8));
    prop::sample::select(two.chain((3u32..=12).map(|s| (s, 4u8))).collect::<Vec<_>>())
}

/// Ring sizes: 256 for one case in four, else any size up to 64.
fn sizes() -> impl Strategy<Value = usize> {
    (0u8..4, 1usize..=64).prop_map(|(k, n)| if k == 0 { 256 } else { n })
}

fn placements() -> impl Strategy<Value = Placement> {
    let crowded = (1u128..=4).map(|sections| Placement::Crowded { sections });
    prop::sample::select(std::iter::once(Placement::Uniform).chain(crowded).collect::<Vec<_>>())
}

/// The ids a placement puts on `layout` from raw draws.
fn place(layout: SectionLayout, placement: Placement, raw: &[(u128, u128)]) -> Vec<u128> {
    let low = layout.section_len() - 1;
    match placement {
        Placement::Uniform => raw.iter().map(|&(a, _)| a).collect(),
        Placement::Crowded { sections } => {
            let first = raw[0].0 >> layout.section_bits();
            raw.iter()
                .map(|&(a, b)| {
                    let section = (first + a % sections) % layout.num_sections();
                    layout.section_start(section).raw() | (b & low)
                })
                .collect()
        }
    }
}

/// A run of adjacent ids from `base` (gap 1: the shortest targets land
/// exactly on members), plus a member exactly on each picked target of
/// `base` and one either side of it.
fn exact_hits(
    base: u128,
    run: u128,
    hits: &[(u32, i8)],
    target: impl Fn(Id, u32) -> Id,
) -> Vec<u128> {
    let mut ids: Vec<u128> = (0..=run).map(|d| base.wrapping_add(d)).collect();
    for &(b, side) in hits {
        let t = target(Id::new(base), b).raw();
        ids.push(match side {
            0 => t,
            s if s > 0 => t.wrapping_add(1),
            _ => t.wrapping_sub(1),
        });
    }
    ids
}

fn hits() -> impl Strategy<Value = Vec<(u32, i8)>> {
    prop::collection::vec((0u32..Id::BITS, -1i8..=1), 0..12)
}

/// Raw cut points for the split passes.
fn cuts() -> impl Strategy<Value = Vec<usize>> {
    prop::collection::vec(any::<usize>(), 0..6)
}

proptest! {
    #[test]
    fn chord_sweeps_equal_the_search_per_bit(
        ids in sizes().prop_flat_map(|n| prop::collection::vec(any::<u128>(), n)),
        cuts in cuts(),
    ) {
        check_chord(ids, &cuts)?;
    }

    #[test]
    fn chord_sweeps_equal_the_search_per_bit_on_exact_hits(
        base: u128,
        run in 0u128..6,
        hits in hits(),
        cuts in cuts(),
    ) {
        check_chord(exact_hits(base, run, &hits, |id, b| id.finger_target(b)), &cuts)?;
    }

    #[test]
    fn verme_sweeps_equal_the_search_per_bit_and_the_corner_rule(
        (log_sections, types) in layouts(),
        placement in placements(),
        raw in sizes().prop_flat_map(|n| prop::collection::vec((any::<u128>(), any::<u128>()), n)),
        cuts in cuts(),
    ) {
        let layout = layout(log_sections, types);
        check_verme(layout, place(layout, placement, &raw), &cuts)?;
    }

    #[test]
    fn verme_sweeps_equal_the_search_per_bit_on_exact_hits(
        (log_sections, types) in layouts(),
        base: u128,
        run in 0u128..6,
        hits in hits(),
        cuts in cuts(),
    ) {
        let layout = layout(log_sections, types);
        let ids = exact_hits(base, run, &hits, |id, b| layout.finger_target(id, b));
        check_verme(layout, ids, &cuts)?;
    }
}
