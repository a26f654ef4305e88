//! Corrected ring maintenance: Zave's rectify rule, the inductive ring
//! invariant, and a bounded model checker for small rings.
//!
//! Chord's original stabilization protocol is provably incorrect: under
//! unlucky join/fail interleavings the ring can wedge or partition (Zave,
//! "How to Make Chord Correct"). This module carries the pieces of the
//! corrected protocol that are pure state logic, shared by the live
//! [`ChordNode`](crate::ChordNode) / `VermeNode` implementations, the
//! continuous invariant assertor threaded through `verme-sim`, and the
//! exhaustive small-ring model checker run in CI (`ring_check`):
//!
//! * [`MaintenanceMode`] — the config switch between the legacy
//!   stabilization rules (kept as the comparison arm) and the corrected
//!   protocol (two-phase join, rectify, forward-only successor reseed);
//! * [`rectify_decision`] — the corrected predecessor-update rule, and
//!   [`predecessor_decision`], which picks it or the legacy rule by mode;
//! * [`RingStance`] + [`check_ring`] — the inductive invariant, evaluated
//!   over a global snapshot of every live node's ring pointers;
//! * [`model`] — a small deterministic abstraction of the join/fail/
//!   stabilize state machine, exhaustively enumerated (with rotation
//!   symmetry reduction) by the `ring_check` bin.

use std::collections::{BTreeMap, BTreeSet};

/// Which ring-maintenance rules a node runs.
///
/// `Legacy` reproduces the pre-correction protocol byte-for-byte: joins
/// adopt the lookup answerer as predecessor immediately, `notify` installs
/// a candidate predecessor only when it falls in `(pred, self)`, and a
/// node whose successor list has emptied will accept a *backwards* refill
/// from the next notify — the exact state Zave's counterexamples wedge
/// and partition. `Corrected` is the default.
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq, Hash)]
pub enum MaintenanceMode {
    /// Original Chord stabilization (plus the PR-1 forward-finger reseed),
    /// kept behind this flag as the comparison arm for Ext. M.
    Legacy,
    /// Zave-corrected maintenance: two-phase joins (acquire successor
    /// first, learn the predecessor through rectify), the rectify rule
    /// with a liveness probe of the incumbent predecessor, and
    /// forward-only reseeds of an emptied successor list.
    #[default]
    Corrected,
}

impl MaintenanceMode {
    /// Short label for bench tables.
    pub fn label(self) -> &'static str {
        match self {
            MaintenanceMode::Legacy => "legacy",
            MaintenanceMode::Corrected => "corrected",
        }
    }
}

/// Outcome of the corrected rectify rule for a candidate predecessor.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum RectifyDecision {
    /// Install the candidate as the new predecessor immediately.
    Adopt,
    /// Keep the incumbent; the candidate brings no new information.
    Keep,
    /// The candidate is *behind* the incumbent: probe the incumbent for
    /// liveness and adopt the candidate only if the probe times out.
    ProbePred,
}

/// Zave's rectify rule, replacing legacy `notify`: given this node's id,
/// the incumbent predecessor (if any) and a candidate announced via
/// notify, decide how the predecessor pointer changes.
///
/// The legacy rule silently drops any candidate outside `(pred, self)`,
/// which strands the true predecessor forever once a stale incumbent dies
/// without being noticed. Rectify instead *probes* the incumbent in that
/// case and falls back to the candidate on timeout, so the predecessor
/// pointer is eventually correct whenever notifies keep arriving.
pub fn rectify_decision(
    self_id: u128,
    incumbent: Option<u128>,
    candidate: u128,
) -> RectifyDecision {
    if candidate == self_id {
        return RectifyDecision::Keep;
    }
    match incumbent {
        None => RectifyDecision::Adopt,
        Some(p) if p == candidate => RectifyDecision::Keep,
        Some(p) if in_open_open(p, candidate, self_id) => RectifyDecision::Adopt,
        Some(_) => RectifyDecision::ProbePred,
    }
}

/// What a notify from `candidate` does to a single predecessor pointer,
/// per mode. Legacy adopts only candidates inside `(pred, self)`, so a
/// stale dead incumbent silently strands the true predecessor — Zave's
/// counterexample; Corrected is [`rectify_decision`].
pub fn predecessor_decision(
    mode: MaintenanceMode,
    self_id: u128,
    incumbent: Option<u128>,
    candidate: u128,
) -> RectifyDecision {
    match mode {
        MaintenanceMode::Legacy => {
            let inside = incumbent.is_none_or(|p| in_open_open(p, candidate, self_id));
            if inside && candidate != self_id {
                RectifyDecision::Adopt
            } else {
                RectifyDecision::Keep
            }
        }
        MaintenanceMode::Corrected => rectify_decision(self_id, incumbent, candidate),
    }
}

/// Circular strict betweenness on the identifier ring: `x ∈ (a, b)`.
fn in_open_open(a: u128, x: u128, b: u128) -> bool {
    // Distance walked clockwise from `a`; degenerate `a == b` means the
    // whole ring minus the endpoint.
    let to_x = x.wrapping_sub(a);
    let to_b = b.wrapping_sub(a);
    if to_b == 0 {
        to_x != 0
    } else {
        to_x != 0 && to_x < to_b
    }
}

// ---------------------------------------------------------------------
// The inductive invariant
// ---------------------------------------------------------------------

/// One live node's ring pointers, as fed to [`check_ring`].
///
/// Both overlay variants export this shape ([`ChordNode::ring_stance`](crate::ChordNode::ring_stance)
/// (crate::ChordNode::ring_stance) and `VermeNode::ring_stance`): Chord
/// contributes at most one predecessor, the Verme section variant its
/// whole predecessor list.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RingStance {
    /// The node's identifier.
    pub id: u128,
    /// True once the node completed its join.
    pub joined: bool,
    /// Successor-list identifiers, nearest first.
    pub successors: Vec<u128>,
    /// Predecessor identifiers, nearest first (0 or 1 on Chord).
    pub predecessors: Vec<u128>,
}

/// A hard safety violation of the ring invariant.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum ViolationKind {
    /// A joined node's successor list names the node itself.
    SelfSuccessor,
    /// A successor list is not strictly ordered by clockwise distance
    /// from its owner (or contains duplicates).
    DisorderedList,
    /// Live pointers form two or more disjoint cycles — the partitioned
    /// ("loopy") state the corrected protocol must never enter.
    MultipleRings,
    /// The principal cycle visits identifiers out of clockwise order.
    DisorderedRing,
    /// No cycle exists even though every member still holds a live
    /// successor pointer (cannot happen in a total pointer graph; kept as
    /// a defensive check).
    NoRing,
}

impl ViolationKind {
    /// Stable label used in reports and traces.
    pub fn label(self) -> &'static str {
        match self {
            ViolationKind::SelfSuccessor => "self-successor",
            ViolationKind::DisorderedList => "disordered-list",
            ViolationKind::MultipleRings => "multiple-rings",
            ViolationKind::DisorderedRing => "disordered-ring",
            ViolationKind::NoRing => "no-ring",
        }
    }
}

/// One invariant violation, anchored at the node that exhibits it.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Violation {
    /// What broke.
    pub kind: ViolationKind,
    /// Identifier of the offending node (a cycle member for ring-level
    /// violations).
    pub node: u128,
}

/// The verdict of one global invariant evaluation.
///
/// `violations` are hard safety failures: states the corrected protocol
/// must never reach, under the standing redundancy assumption that
/// failures never wipe a node's entire successor list faster than
/// stabilization refills it. `wedged` and `appendage_nodes` are gauges,
/// not violations — a burst that kills more consecutive nodes than the
/// successor list holds legitimately wedges the survivor until the
/// forward-finger reseed repairs it, and freshly joined nodes are
/// appendages until their predecessor stabilizes.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct RingReport {
    /// Hard safety violations found in this snapshot.
    pub violations: Vec<Violation>,
    /// Live joined nodes with no live successor entry while other live
    /// members exist (the PR-1 wedge precursor).
    pub wedged: u64,
    /// Live nodes not yet on the principal cycle (joining nodes plus
    /// members whose predecessor chain has not absorbed them).
    pub appendage_nodes: u64,
    /// Number of members on the principal cycle (0 if none formed).
    pub ring_len: usize,
}

impl RingReport {
    /// True when the snapshot satisfies every safety clause.
    pub fn ok(&self) -> bool {
        self.violations.is_empty()
    }
}

/// Evaluates the full inductive invariant over a global snapshot of every
/// *live* node's [`RingStance`].
///
/// The caller filters to live nodes; entries whose ids do not appear in
/// the snapshot are treated as dead and skipped when resolving pointers.
/// The clauses, following Zave:
///
/// 1. *valid successor lists* — no self entries, strictly ordered by
///    clockwise distance from the owner;
/// 2. *at least one ring* — some live pointer cycle exists (conditional
///    on nobody being wedged, see [`RingReport`]);
/// 3. *at most one ring* — the live pointer graph contains a single
///    cycle;
/// 4. *ordered ring* — traversing the cycle visits identifiers in
///    clockwise order;
/// 5. *connected appendages* — every non-cycle member's successor chain
///    reaches the cycle (automatic in a functional graph with one cycle;
///    nodes with no live pointer are counted as `wedged`).
pub fn check_ring(stances: &[RingStance]) -> RingReport {
    let mut report = RingReport::default();
    let live: BTreeSet<u128> = stances.iter().map(|s| s.id).collect();
    // Members are live nodes that completed their join; only they carry
    // ring obligations. Joining nodes are appendages by definition.
    let members: BTreeMap<u128, &RingStance> =
        stances.iter().filter(|s| s.joined).map(|s| (s.id, s)).collect();
    report.appendage_nodes += (live.len() - members.len()) as u64;

    // Clause 1: list validity.
    for s in stances.iter() {
        if s.successors.contains(&s.id) {
            report.violations.push(Violation { kind: ViolationKind::SelfSuccessor, node: s.id });
        }
        for w in s.successors.windows(2) {
            if w[1].wrapping_sub(s.id) <= w[0].wrapping_sub(s.id) {
                report
                    .violations
                    .push(Violation { kind: ViolationKind::DisorderedList, node: s.id });
                break;
            }
        }
    }

    // Resolve each member's live successor pointer: first list entry that
    // is itself a live member.
    let mut succ: BTreeMap<u128, u128> = BTreeMap::new();
    for (&id, s) in &members {
        match s.successors.iter().find(|e| members.contains_key(e)) {
            Some(&nxt) => {
                succ.insert(id, nxt);
            }
            None => {
                if members.len() > 1 {
                    report.wedged += 1;
                }
            }
        }
    }

    // Cycle detection over the partial functional graph.
    let mut on_cycle: BTreeSet<u128> = BTreeSet::new();
    let mut cycles: Vec<Vec<u128>> = Vec::new();
    let mut color: BTreeMap<u128, u8> = BTreeMap::new(); // 0 unseen, 1 in-progress, 2 done
    for &start in succ.keys() {
        if color.get(&start).copied().unwrap_or(0) != 0 {
            continue;
        }
        let mut path: Vec<u128> = Vec::new();
        let mut cur = start;
        loop {
            match color.get(&cur).copied().unwrap_or(0) {
                1 => {
                    // Found a new cycle: the tail of `path` from `cur`.
                    let at = path.iter().position(|&p| p == cur).expect("on path");
                    let cyc: Vec<u128> = path[at..].to_vec();
                    on_cycle.extend(cyc.iter().copied());
                    cycles.push(cyc);
                    break;
                }
                2 => break, // Reached an already-explored region.
                _ => {
                    color.insert(cur, 1);
                    path.push(cur);
                    match succ.get(&cur) {
                        Some(&nxt) => cur = nxt,
                        None => break, // Chain ends at a wedged node.
                    }
                }
            }
        }
        for p in path {
            color.insert(p, 2);
        }
    }

    match cycles.len() {
        0 => {
            // With every member holding a live pointer a cycle must exist;
            // absence is only legitimate when wedging broke a chain.
            if report.wedged == 0 && members.len() > 1 {
                let node = *members.keys().next().expect("members nonempty");
                report.violations.push(Violation { kind: ViolationKind::NoRing, node });
            }
        }
        1 => {
            let cyc = &cycles[0];
            report.ring_len = cyc.len();
            // Clause 4: one full traversal from the minimum id must walk
            // strictly increasing clockwise distances.
            let at = cyc.iter().enumerate().min_by_key(|(_, &v)| v).map(|(i, _)| i).expect("cycle");
            let base = cyc[at];
            let mut last = 0u128;
            for k in 1..cyc.len() {
                let d = cyc[(at + k) % cyc.len()].wrapping_sub(base);
                if d <= last {
                    report
                        .violations
                        .push(Violation { kind: ViolationKind::DisorderedRing, node: base });
                    break;
                }
                last = d;
            }
        }
        _ => {
            // Clause 3: report one violation per extra cycle, anchored at
            // that cycle's minimum member.
            for cyc in cycles.iter().skip(1) {
                let node = *cyc.iter().min().expect("cycle nonempty");
                report.violations.push(Violation { kind: ViolationKind::MultipleRings, node });
            }
            report.ring_len = cycles.iter().map(Vec::len).max().unwrap_or(0);
        }
    }

    // Clause 5: members off the principal cycle are appendages. Note that
    // a *single* backwards refill is topologically invisible in a snapshot
    // (it forms a short cycle with every survivor as a connected
    // appendage, indistinguishable from a healthy mid-join transient); the
    // partition it risks only becomes a hard violation once a second
    // independent refill closes a disjoint cycle — `MultipleRings` above.
    report.appendage_nodes += members.keys().filter(|id| !on_cycle.contains(id)).count() as u64;
    report
}

pub mod model;

#[cfg(test)]
mod tests {
    use super::*;

    fn stance(id: u128, succs: &[u128], preds: &[u128]) -> RingStance {
        RingStance { id, joined: true, successors: succs.to_vec(), predecessors: preds.to_vec() }
    }

    #[test]
    fn rectify_adopts_closer_candidate_and_probes_behind() {
        assert_eq!(rectify_decision(100, None, 50), RectifyDecision::Adopt);
        assert_eq!(rectify_decision(100, Some(50), 80), RectifyDecision::Adopt);
        assert_eq!(rectify_decision(100, Some(80), 50), RectifyDecision::ProbePred);
        assert_eq!(rectify_decision(100, Some(80), 80), RectifyDecision::Keep);
        assert_eq!(rectify_decision(100, Some(80), 100), RectifyDecision::Keep);
    }

    #[test]
    fn perfect_ring_satisfies_invariant() {
        let snap = vec![
            stance(10, &[20, 30], &[30]),
            stance(20, &[30, 10], &[10]),
            stance(30, &[10, 20], &[20]),
        ];
        let r = check_ring(&snap);
        assert!(r.ok(), "violations: {:?}", r.violations);
        assert_eq!(r.ring_len, 3);
        assert_eq!(r.wedged, 0);
        assert_eq!(r.appendage_nodes, 0);
    }

    #[test]
    fn appendage_joins_via_chain() {
        // 15 joined between 10 and 20 but nobody points to it yet.
        let snap = vec![
            stance(10, &[20, 30], &[30]),
            stance(15, &[20, 30], &[]),
            stance(20, &[30, 10], &[10]),
            stance(30, &[10, 20], &[20]),
        ];
        let r = check_ring(&snap);
        assert!(r.ok(), "violations: {:?}", r.violations);
        assert_eq!(r.appendage_nodes, 1);
    }

    #[test]
    fn backwards_refill_forms_second_ring() {
        // The legacy wedge: 20's list emptied and a notify from 10
        // refilled it backwards, while 30..40 still form the main ring.
        let snap = vec![
            stance(10, &[20], &[40]),
            stance(20, &[10], &[10]),
            stance(30, &[40], &[20]),
            stance(40, &[30], &[30]),
        ];
        let r = check_ring(&snap);
        assert!(!r.ok());
        assert!(r.violations.iter().any(|v| v.kind == ViolationKind::MultipleRings));
    }

    #[test]
    fn wedged_node_is_a_gauge_not_a_violation() {
        // 20's entire successor list is dead (entries 21, 22 not live).
        let snap = vec![
            stance(10, &[20, 30], &[30]),
            stance(20, &[21, 22], &[10]),
            stance(30, &[10, 20], &[20]),
        ];
        let r = check_ring(&snap);
        assert!(r.ok(), "violations: {:?}", r.violations);
        assert_eq!(r.wedged, 1);
    }

    #[test]
    fn disordered_cycle_is_flagged() {
        let snap = vec![stance(10, &[30], &[]), stance(20, &[10], &[]), stance(30, &[20], &[])];
        let r = check_ring(&snap);
        assert!(r.violations.iter().any(|v| v.kind == ViolationKind::DisorderedRing));
    }

    #[test]
    fn self_entry_and_disorder_are_list_violations() {
        let snap = vec![stance(10, &[10], &[]), stance(20, &[30, 25], &[])];
        let r = check_ring(&snap);
        assert!(r.violations.iter().any(|v| v.kind == ViolationKind::SelfSuccessor));
        assert!(r.violations.iter().any(|v| v.kind == ViolationKind::DisorderedList));
    }
}
