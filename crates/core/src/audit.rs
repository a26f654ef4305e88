//! Containment-invariant auditing.
//!
//! The §3 design principle — *no routing entry may name a same-type node
//! outside the owner's island* — is Verme's entire security argument, so
//! operators (and this repository's tests) need a way to check it against
//! actual routing state rather than trusting the construction. This
//! module audits both live [`VermeNode`] state and [`VermeStaticRing`]
//! ground truth and reports every violation it finds.

use std::fmt;

use verme_chord::{Id, NodeHandle};

use crate::layout::SectionLayout;
use crate::node::VermeNode;
use crate::proto::Payload;
use crate::static_ring::VermeStaticRing;

/// One containment violation found by an audit.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum Violation {
    /// A finger names a same-type node outside the owner's section.
    SameTypeFinger {
        /// The offending entry.
        entry: NodeHandle,
    },
    /// A successor-list entry names a same-type node outside the owner's
    /// section (the list crossed two section boundaries — the §4.3
    /// provisioning assumption failed).
    SameTypeSuccessor {
        /// The offending entry.
        entry: NodeHandle,
    },
    /// A predecessor-list entry names a same-type node outside the
    /// owner's section.
    SameTypePredecessor {
        /// The offending entry.
        entry: NodeHandle,
    },
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Violation::SameTypeFinger { entry } => {
                write!(f, "finger names same-type node {} outside the island", entry.id)
            }
            Violation::SameTypeSuccessor { entry } => {
                write!(f, "successor list names same-type node {} outside the island", entry.id)
            }
            Violation::SameTypePredecessor { entry } => {
                write!(f, "predecessor list names same-type node {} outside the island", entry.id)
            }
        }
    }
}

/// Summary of an audit over many nodes.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct AuditReport {
    /// Nodes inspected.
    pub nodes_audited: usize,
    /// Total routing entries inspected.
    pub entries_checked: usize,
    /// Every violation found, in inspection order.
    pub violations: Vec<Violation>,
}

impl AuditReport {
    /// True if no violation was found.
    pub fn is_clean(&self) -> bool {
        self.violations.is_empty()
    }
}

impl fmt::Display for AuditReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "audited {} nodes / {} entries: {}",
            self.nodes_audited,
            self.entries_checked,
            if self.is_clean() {
                "clean".to_string()
            } else {
                format!("{} violations", self.violations.len())
            }
        )
    }
}

/// Audits one live node's routing state against the §3 invariant.
pub fn audit_node<P: Payload>(node: &VermeNode<P>) -> AuditReport {
    audit_entries(
        node.layout(),
        node.id(),
        node.successor_list().iter().copied(),
        node.predecessor_list().iter().copied(),
        node.finger_table().iter_distinct(),
    )
}

/// Merges per-node reports into one.
pub fn merge_reports(reports: impl IntoIterator<Item = AuditReport>) -> AuditReport {
    let mut out = AuditReport::default();
    for r in reports {
        out.nodes_audited += r.nodes_audited;
        out.entries_checked += r.entries_checked;
        out.violations.extend(r.violations);
    }
    out
}

/// Audits a static ring's derived routing state (successor lists of the
/// configured length, predecessor lists, and finger tables) for every
/// member.
pub fn audit_static_ring(ring: &VermeStaticRing, list_len: usize) -> AuditReport {
    merge_reports((0..ring.len()).map(|i| {
        audit_entries(
            ring.layout(),
            ring.node(i).id,
            ring.successors_of(i, list_len),
            ring.predecessors_of(i, list_len),
            ring.fingers_of(i).into_iter().map(|(_, h)| h),
        )
    }))
}

/// One node's report: every entry of its successors, predecessors and
/// fingers, in that order, checked with [`SectionLayout::admissible`].
fn audit_entries(
    layout: &SectionLayout,
    owner: Id,
    successors: impl IntoIterator<Item = NodeHandle>,
    predecessors: impl IntoIterator<Item = NodeHandle>,
    fingers: impl IntoIterator<Item = NodeHandle>,
) -> AuditReport {
    let mut report = AuditReport { nodes_audited: 1, ..Default::default() };
    let successors =
        successors.into_iter().map(|entry| (entry, Violation::SameTypeSuccessor { entry }));
    let predecessors =
        predecessors.into_iter().map(|entry| (entry, Violation::SameTypePredecessor { entry }));
    let fingers = fingers.into_iter().map(|entry| (entry, Violation::SameTypeFinger { entry }));
    for (entry, violation) in successors.chain(predecessors).chain(fingers) {
        report.entries_checked += 1;
        if !layout.admissible(owner, entry.id) {
            report.violations.push(violation);
        }
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layout::SectionLayout;
    use crate::proto::VermeConfig;
    use verme_crypto::CertificateAuthority;

    #[test]
    fn well_formed_rings_audit_clean() {
        let layout = SectionLayout::with_sections(16, 2);
        let ring = VermeStaticRing::generate(layout, 512, 3);
        let report = audit_static_ring(&ring, 10);
        assert!(report.is_clean(), "{report}: {:?}", &report.violations[..1]);
        assert_eq!(report.nodes_audited, 512);
        assert!(report.entries_checked > 512 * 20);
        assert!(report.to_string().contains("clean"));
    }

    #[test]
    fn live_nodes_audit_clean() {
        let layout = SectionLayout::with_sections(8, 2);
        let ring = VermeStaticRing::generate(layout, 128, 5);
        let mut ca = CertificateAuthority::new(5);
        let reports = (0..ring.len()).map(|i| {
            let node: VermeNode = ring.build_node(i, VermeConfig::new(layout), &mut ca);
            audit_node(&node)
        });
        let merged = merge_reports(reports);
        assert!(merged.is_clean(), "{merged}");
        assert_eq!(merged.nodes_audited, 128);
    }

    #[test]
    fn corrupted_state_is_flagged() {
        let layout = SectionLayout::with_sections(8, 2);
        let ring = VermeStaticRing::generate(layout, 128, 7);
        let mut ca = CertificateAuthority::new(7);
        // Find two same-type nodes in different sections and wire one into
        // the other's finger table by force.
        let a = 0;
        let b = (1..ring.len())
            .find(|&j| {
                ring.type_of_index(j) == ring.type_of_index(a)
                    && ring.section_of_index(j) != ring.section_of_index(a)
            })
            .expect("another same-type section exists");
        let me = ring.node(a);
        let ty = ring.type_of_index(a);
        let (cert, keys) = ca.issue(me.id.raw(), ty);
        let node: VermeNode = VermeNode::with_state(
            VermeConfig::new(layout),
            cert,
            keys,
            ca.verifier(),
            &[],
            &[],
            &[(127, ring.node(b))], // the forbidden edge
        );
        let report = audit_node(&node);
        assert_eq!(report.violations.len(), 1);
        assert!(matches!(report.violations[0], Violation::SameTypeFinger { .. }));
        assert!(report.violations[0].to_string().contains("outside the island"));
    }
}
