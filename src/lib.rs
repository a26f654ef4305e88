//! # Verme — worm containment in overlay networks
//!
//! This is the facade crate of the Verme reproduction (DSN 2009). It
//! re-exports the public API of every workspace crate so that examples,
//! integration tests and downstream users can depend on a single crate.
//!
//! * [`sim`] — deterministic discrete-event simulation engine.
//! * [`obs`] — observability: lookup-path records, invariant checkers,
//!   trace/metrics exporters over the sim crate's causal tracing.
//! * [`net`] — network models (synthetic King matrix, transit-stub).
//! * [`crypto`] — simulated certificates and sealed replies.
//! * [`chord`] — the Chord baseline overlay.
//! * [`core`] — the Verme overlay (the paper's contribution).
//! * [`dht`] — DHash and the three VerDi variants.
//! * [`worm`] — the topological worm propagation model.

#![forbid(unsafe_code)]

pub use verme_chord as chord;
pub use verme_core as core;
pub use verme_crypto as crypto;
pub use verme_dht as dht;
pub use verme_net as net;
pub use verme_obs as obs;
pub use verme_sim as sim;
pub use verme_worm as worm;
