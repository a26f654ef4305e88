//! # verme-chord — the Chord baseline overlay
//!
//! A from-scratch implementation of Chord (Stoica et al., SIGCOMM '01) on
//! the `verme-sim` discrete-event runtime, matching the variant the paper
//! benchmarks against (p2psim's Chord): 10-entry successor lists,
//! periodic stabilization, finger tables, and lookups in the two traversal
//! modes the paper evaluates — recursive, and transitive (recursive forward
//! path, direct reply).
//!
//! The module layout separates pure data structures from the protocol,
//! and the protocol into its two rule sets over one node state — ring
//! maintenance ([`ring_core`]) and lookup relaying ([`relay`]) — each
//! written once for both overlays:
//!
//! | module | holds |
//! |---|---|
//! | [`id`] | circular identifier arithmetic ([`Id`]) |
//! | [`ring`] | successor/predecessor lists and finger tables |
//! | [`ring_core`] | [`RingCore`]: the routing state and every ring-maintenance rule (stabilize, notify, reseed, join completion, advert vetting, reroute choice) that Chord and Verme share, written once, plus the relay step ([`Relay`]: honest next hop, then the Byzantine consult); [`RingNode`] and [`ring_converged`] |
//! | [`relay`] | [`LookupTable`]: the lookups a node started and the ones it forwards, and every hop-by-hop lookup rule both overlays share — start, forward, duplicate check, ack, reply relay, hop-timeout reroute under one [`MAX_HOP_ATTEMPTS`] budget, completion bookkeeping, GC |
//! | [`behaviour`] | honest and Byzantine routing policies |
//! | [`proto`] | Chord's wire messages, lookup modes, configuration |
//! | [`node`] | [`ChordNode`]: a [`RingCore`] and a [`LookupTable`] plus what only Chord has — the single predecessor with its ping and rectify probe, sequence-numbered lookups in both modes, and the transitive hop's early release |
//! | [`maintain`] | [`MaintenanceMode`], Zave's rectify rule, the inductive ring invariant, and the small-ring model checker |
//! | [`static_ring`] | instant construction of converged rings |
//!
//! The Verme overlay in `verme-core` reuses [`id`] and [`ring`] and embeds
//! the same [`RingCore`] and [`LookupTable`]; its node keeps only what
//! paper §4.3–4.5 and §5.2 change.

#![forbid(unsafe_code)]

pub mod behaviour;
pub mod id;
pub mod maintain;
pub mod node;
pub mod proto;
pub mod relay;
pub mod ring;
pub mod ring_core;
pub mod static_ring;

pub use behaviour::{Behaviour, Byzantine, ByzantineConfig, Honest, RouteAction};
pub use id::Id;
pub use maintain::{
    check_ring, rectify_decision, MaintenanceMode, RectifyDecision, RingReport, RingStance,
    Violation, ViolationKind,
};
pub use node::{keys, ChordNode, NodeHealth};
pub use proto::{ChordConfig, ChordMsg, ChordTimer, LookupId, LookupMode, LookupResult};
pub use relay::{Hop, HopTimeout, LookupKind, LookupTable, MAX_HOP_ATTEMPTS};
pub use ring::{closest_preceding_hop, FingerTable, NeighborList, NodeHandle};
pub use ring_core::{rebuild_list, ring_converged, Relay, RingCore, RingNode};
pub use static_ring::StaticRing;
