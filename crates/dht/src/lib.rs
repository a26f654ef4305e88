//! # verme-dht — DHash and the three VerDi variants
//!
//! The DHT layer of the reproduction (paper §5). The paper defines VerDi
//! as DHash with two changes — replicas live at two opposite-type replica
//! points, and the lookup is adapted to the typed overlay — so the crate
//! is one [`DhtEngine`] (operations, serving, replication, repair; see
//! [`engine`]) and four small [`Variant`]s that supply what differs:
//!
//! | Node type | Variant | Paper | Overlay and lookup | Data path | Replica set | Impersonation exposure |
//! |---|---|---|---|---|---|---|
//! | [`DhashNode`] | [`Dhash`] | §5.1 | Chord, the key itself | direct fetch/store | responsible node + `r−1` successors | n/a (no defenses) |
//! | [`FastVerDiNode`] | [`Fast`] | §5.3.1 | Verme, type-adjusted point | direct + cross-section copy before the ack | `r/2` in-section at each of two points | active harvesting via lookups |
//! | [`SecureVerDiNode`] | [`Secure`] | §5.3.2 | Verme, piggybacked (with fan-out) | data rides the lookup | `r/2` in-section at the natural point | O(log n) neighbor sections only |
//! | [`CompromiseVerDiNode`] | [`Compromise`] | §5.3.3 | via an opposite-type relay | relay runs the Fast flow | as Fast | passive observation at relays |
//!
//! The four node types are aliases of `DhtEngine<Variant>` (static
//! dispatch) and all implement [`DhtNode`], so experiment harnesses drive
//! them generically. The Verme-side placement rule and the cross-section
//! copy that Fast and Compromise share live in [`verme`], which also
//! holds their one [`Placement`].

#![forbid(unsafe_code)]

pub mod api;
pub mod block;
pub mod compromise;
pub mod dhash;
pub mod engine;
pub mod fast;
pub mod repair;
pub mod secure;
pub mod serving;
pub mod verme;

pub use api::{keys, DhtConfig, DhtNode, OpKind, OpOutcome};
pub use block::{block_key, Block, BlockStore};
pub use compromise::{Compromise, CompromiseVerDiNode, ObservedClient};
pub use dhash::{Dhash, DhashNode};
pub use engine::{DhtEngine, DhtMsg, DhtTimer, Placement, Variant};
pub use fast::{Fast, FastVerDiNode};
pub use repair::DurabilityCensus;
pub use secure::{Secure, SecurePayload, SecureVerDiNode};
pub use serving::ServingPlane;
