//! # verme-core — the Verme worm-containing overlay
//!
//! The paper's primary contribution: a Chord extension whose routing state
//! is reorganized so that a topological worm reading an infected node's
//! memory finds only (a) nodes of its own small *section* and (b) nodes of
//! the *opposite platform type* — which it cannot infect. The pieces:
//!
//! | module | holds |
//! |---|---|
//! | [`layout`] | [`SectionLayout`] (§4.3): identifiers are `[random \| type \| random]`, dividing the ring into sections that alternate types; the shifted finger targets of §4.4 |
//! | [`node`] | [`VermeNode`]: Chord's ring half, unchanged, as an embedded `verme_chord::RingCore`, plus what §4.4–4.5 and §5.2 add — finger targets and admissibility, the corner rule, recursive-only certified lookups with sealed replies and the piggyback hand-off, and a predecessor list stabilized like the successor list |
//! | [`proto`] | Verme's wire messages, lookup purposes and answers, configuration |
//! | [`static_ring`] | [`VermeStaticRing`]: instant converged rings plus the ground-truth queries (responsible node, replica sets, section membership) the experiments and the worm simulator build on |
//! | [`audit`] | the §3 containment invariant checked against a live node's or a static ring's routing state |
//! | [`tracker`] | §6.2: type-aware and uniform-random neighbor assignment for tracker-based (unstructured) swarms |
//!
//! The VerDi DHT variants that ride on this overlay live in `verme-dht`.

#![forbid(unsafe_code)]

pub mod audit;
pub mod layout;
pub mod node;
pub mod proto;
pub mod static_ring;
pub mod tracker;

pub use audit::{audit_node, audit_static_ring, merge_reports, AuditReport, Violation};
pub use layout::SectionLayout;
pub use node::{AnswerRequest, VermeNode, VermeOutcome};
pub use proto::{
    answer_body_size, AnswerBody, LookupPurpose, Payload, VermeAnswer, VermeConfig, VermeLookupId,
    VermeMsg, VermeTimer,
};
pub use static_ring::VermeStaticRing;
pub use tracker::{assign_random, assign_type_aware, SwarmAssignment, TrackerConfig};
