//! Chord wire messages, lookup modes, and protocol configuration.

use serde::{Deserialize, Serialize};
use verme_sim::{Addr, SimDuration, Wire};

use crate::id::Id;
use crate::maintain::MaintenanceMode;
use crate::ring::NodeHandle;

/// How a lookup traverses the overlay (paper §4.5 / §7.1.2).
///
/// * `Recursive` — each hop forwards to the next; the reply retraces the
///   path. This is the only mode Verme permits.
/// * `Transitive` — the forward path is recursive, but the responsible
///   node replies *directly* to the initiator. Fastest for Chord, but it
///   puts the initiator's address in every lookup message — exactly the
///   leak Verme must avoid.
#[derive(Copy, Clone, Debug, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum LookupMode {
    /// Hop-by-hop forwarding; reply retraces the path.
    Recursive,
    /// Hop-by-hop forwarding; reply short-cuts straight to the initiator.
    Transitive,
}

/// Globally unique lookup identifier: the initiator's address plus a
/// per-initiator sequence number.
#[derive(Copy, Clone, Debug, PartialEq, Eq, Hash)]
pub struct LookupId {
    /// Address of the initiating node.
    pub origin: Addr,
    /// Initiator-local sequence number.
    pub seq: u64,
}

/// What a completed lookup returns: the key's predecessor and the key's
/// successor list (the nodes a DHT would store replicas on). This matches
/// DHash's use of Chord, where a lookup returns "the successor list of the
/// key's predecessor".
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct LookupResult {
    /// The node answering the lookup (the key's predecessor).
    pub predecessor: NodeHandle,
    /// Successors of the key, nearest first. Never empty.
    pub successors: Vec<NodeHandle>,
}

impl LookupResult {
    /// The node responsible for the key (its first successor).
    pub fn responsible(&self) -> NodeHandle {
        self.successors[0]
    }
}

/// Chord's wire messages.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ChordMsg {
    /// Recursive/transitive lookup request, forwarded hop by hop.
    Lookup {
        /// Lookup identifier.
        lid: LookupId,
        /// Key being resolved.
        key: Id,
        /// The initiating node (id + address).
        origin: NodeHandle,
        /// Traversal mode.
        mode: LookupMode,
        /// Hops taken so far.
        hops: u32,
        /// True for overlay-maintenance lookups (finger refresh, join);
        /// relays use it to attribute bytes to the right budget.
        maint: bool,
    },
    /// Immediate receipt acknowledgment for a forwarded `Lookup`, so the
    /// upstream hop can detect a dead downstream and reroute.
    HopAck {
        /// Lookup identifier being acknowledged.
        lid: LookupId,
    },
    /// Lookup answer; retraces the path (recursive) or goes straight to
    /// the origin (transitive).
    LookupReply {
        /// Lookup identifier.
        lid: LookupId,
        /// The result.
        result: LookupResult,
        /// Total forward-path hops.
        hops: u32,
    },
    /// Stabilization: ask a successor for its predecessor + successor list.
    GetNeighbors {
        /// Matches the response to the request.
        token: u64,
    },
    /// Stabilization response.
    Neighbors {
        /// Token from the request.
        token: u64,
        /// The replier's current predecessor.
        predecessor: Option<NodeHandle>,
        /// The replier's successor list.
        successors: Vec<NodeHandle>,
    },
    /// Chord's `notify`: "I believe I am your predecessor".
    Notify {
        /// The notifying node.
        node: NodeHandle,
    },
    /// Graceful departure: the leaving node hands its routing state to its
    /// neighbors so they can splice it out without waiting for timeouts.
    Leaving {
        /// The departing node.
        node: NodeHandle,
        /// The departing node's successor list.
        successors: Vec<NodeHandle>,
        /// The departing node's predecessor.
        predecessor: Option<NodeHandle>,
    },
    /// Liveness probe (used on predecessors).
    Ping {
        /// Matches the response to the request.
        token: u64,
    },
    /// Liveness probe response.
    Pong {
        /// Token from the request.
        token: u64,
    },
}

/// Fixed per-message overhead: IP + UDP + protocol header.
pub const HEADER_BYTES: usize = 40;

impl Wire for ChordMsg {
    fn wire_size(&self) -> usize {
        match self {
            ChordMsg::Lookup { .. } => HEADER_BYTES + 8 + 16 + NodeHandle::WIRE_SIZE + 6,
            ChordMsg::HopAck { .. } => HEADER_BYTES + 8,
            ChordMsg::LookupReply { result, .. } => {
                HEADER_BYTES + 8 + 4 + NodeHandle::WIRE_SIZE * (1 + result.successors.len())
            }
            ChordMsg::GetNeighbors { .. } => HEADER_BYTES + 8,
            ChordMsg::Neighbors { successors, .. } => {
                HEADER_BYTES + 8 + NodeHandle::WIRE_SIZE * (1 + successors.len())
            }
            ChordMsg::Notify { .. } => HEADER_BYTES + NodeHandle::WIRE_SIZE,
            ChordMsg::Leaving { successors, predecessor, .. } => {
                HEADER_BYTES
                    + NodeHandle::WIRE_SIZE
                        * (1 + successors.len() + usize::from(predecessor.is_some()))
            }
            ChordMsg::Ping { .. } | ChordMsg::Pong { .. } => HEADER_BYTES + 8,
        }
    }
}

/// Timer tokens used by the Chord node.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ChordTimer {
    /// Periodic successor stabilization (paper setup: every 30 s).
    Stabilize,
    /// Periodic finger refresh (paper setup: every 60 s).
    FixFingers,
    /// The stabilization round `token` timed out: first successor is dead.
    StabTimeout {
        /// Round token.
        token: u64,
    },
    /// Predecessor ping `token` timed out: clear the predecessor.
    PredTimeout {
        /// Ping token.
        token: u64,
    },
    /// Rectify probe `token` timed out: the incumbent predecessor is
    /// dead, adopt the waiting notify candidate (corrected mode only).
    RectifyTimeout {
        /// Probe token.
        token: u64,
    },
    /// No `HopAck` for a forwarded lookup: downstream hop is dead.
    HopTimeout {
        /// The affected lookup.
        lid: LookupId,
        /// Which forwarding attempt this timer guards.
        attempt: u32,
    },
    /// An initiated lookup has been running too long: count it failed.
    LookupDeadline {
        /// Initiator-local sequence number.
        seq: u64,
    },
    /// Garbage-collect relay state for a lookup that never completed.
    RelayGc {
        /// The affected lookup.
        lid: LookupId,
    },
    /// Retry joining (the previous join lookup failed).
    JoinRetry,
}

/// Protocol parameters. Defaults follow the paper's simulation setup
/// (§7.1.1): 10 successors, stabilize every 30 s, fix fingers every 60 s.
#[derive(Clone, Debug, PartialEq)]
pub struct ChordConfig {
    /// Successor-list length.
    pub num_successors: usize,
    /// Interval between successor-stabilization rounds.
    pub stabilize_interval: SimDuration,
    /// Interval between finger-refresh rounds.
    pub fix_fingers_interval: SimDuration,
    /// How lookups traverse the overlay.
    pub lookup_mode: LookupMode,
    /// How long a hop waits for `HopAck` before rerouting.
    pub hop_timeout: SimDuration,
    /// Overall per-lookup deadline; a lookup that misses it is failed.
    pub lookup_deadline: SimDuration,
    /// Which ring-maintenance rules to run ([`MaintenanceMode::Corrected`]
    /// by default; `Legacy` is the Ext. M comparison arm).
    pub maintenance: MaintenanceMode,
}

impl Default for ChordConfig {
    fn default() -> Self {
        ChordConfig {
            num_successors: 10,
            stabilize_interval: SimDuration::from_secs(30),
            fix_fingers_interval: SimDuration::from_secs(60),
            lookup_mode: LookupMode::Recursive,
            hop_timeout: SimDuration::from_millis(500),
            lookup_deadline: SimDuration::from_secs(8),
            maintenance: MaintenanceMode::default(),
        }
    }
}

impl ChordConfig {
    /// Validates parameter sanity.
    ///
    /// # Errors
    ///
    /// Returns the first zero count or interval found.
    pub fn validate(&self) -> Result<(), verme_sim::InvalidConfig> {
        use verme_sim::config::ensure;
        ensure(self.num_successors > 0, "num_successors", "need at least one successor")?;
        ensure(!self.stabilize_interval.is_zero(), "stabilize_interval", "must be positive")?;
        ensure(!self.fix_fingers_interval.is_zero(), "fix_fingers_interval", "must be positive")?;
        ensure(!self.hop_timeout.is_zero(), "hop_timeout", "must be positive")?;
        ensure(!self.lookup_deadline.is_zero(), "lookup_deadline", "must be positive")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wire_sizes_scale_with_payload() {
        let lid = LookupId { origin: Addr::NULL, seq: 1 };
        let h = NodeHandle::new(Id::new(1), Addr::NULL);
        let small = ChordMsg::LookupReply {
            lid,
            result: LookupResult { predecessor: h, successors: vec![h] },
            hops: 3,
        };
        let big = ChordMsg::LookupReply {
            lid,
            result: LookupResult { predecessor: h, successors: vec![h; 10] },
            hops: 3,
        };
        assert!(big.wire_size() > small.wire_size());
        assert!(ChordMsg::HopAck { lid }.wire_size() >= HEADER_BYTES);
        assert!(ChordMsg::Ping { token: 0 }.wire_size() < small.wire_size());
    }

    #[test]
    fn default_config_matches_paper() {
        let cfg = ChordConfig::default();
        cfg.validate().expect("default config is valid");
        assert_eq!(cfg.num_successors, 10);
        assert_eq!(cfg.stabilize_interval, SimDuration::from_secs(30));
        assert_eq!(cfg.fix_fingers_interval, SimDuration::from_secs(60));
    }

    #[test]
    fn config_validation() {
        let err = ChordConfig { num_successors: 0, ..Default::default() }
            .validate()
            .expect_err("zero successors must be rejected");
        assert_eq!(err.field, "num_successors");
        let err = ChordConfig { hop_timeout: SimDuration::ZERO, ..Default::default() }
            .validate()
            .expect_err("zero hop timeout must be rejected");
        assert_eq!(err.field, "hop_timeout");
    }

    #[test]
    fn lookup_result_responsible_is_first_successor() {
        let a = NodeHandle::new(Id::new(1), Addr::NULL);
        let b = NodeHandle::new(Id::new(2), Addr::NULL);
        let r = LookupResult { predecessor: a, successors: vec![b, a] };
        assert_eq!(r.responsible(), b);
    }
}
