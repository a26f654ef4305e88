//! The overlay's wire messages and timers, written once for both rule
//! sets, and Chord's own wire types, lookup modes and configuration.

use serde::{Deserialize, Serialize};
use verme_sim::{Addr, SimDuration, Wire};

use crate::id::Id;
use crate::maintain::MaintenanceMode;
use crate::node::{ChordRules, Rules, Timing};
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

/// An overlay's wire messages, one enum for both rule sets: what differs
/// between Chord and Verme is what a lookup carries (`R::Ticket`, an
/// optional `R::Payload`) and what its reply is (`R::Reply`).
#[derive(Clone, Debug)]
pub enum OverlayMsg<R: Rules> {
    /// A lookup request, forwarded hop by hop.
    Lookup {
        /// Lookup identifier.
        lid: R::Lid,
        /// Key being resolved.
        key: Id,
        /// What the rule set carries beside the key: Chord's initiator,
        /// mode and budget; Verme's certificate and purpose.
        ticket: R::Ticket,
        /// An operation for the key's node (Secure-VerDi); never on Chord.
        piggyback: Option<R::Payload>,
        /// Hops taken so far.
        hops: u32,
    },
    /// Immediate receipt acknowledgment for a forwarded `Lookup`, so the
    /// upstream hop can detect a dead downstream and reroute.
    HopAck {
        /// Lookup identifier being acknowledged.
        lid: R::Lid,
    },
    /// Lookup answer; retraces the path, or on Chord's transitive mode
    /// goes straight to the origin.
    Reply {
        /// Lookup identifier.
        lid: R::Lid,
        /// The answer: Chord's plain result, Verme's sealed envelope.
        reply: R::Reply,
        /// Total forward-path hops.
        hops: u32,
    },
    /// Stabilization: ask a neighbor for its neighbor lists.
    GetNeighbors {
        /// Matches the response to the request.
        token: u64,
    },
    /// Stabilization response.
    Neighbors {
        /// Token from the request.
        token: u64,
        /// The replier's successor list.
        successors: Vec<NodeHandle>,
        /// The replier's predecessor side: Chord's one pointer, if set, or
        /// Verme's list.
        predecessors: Vec<NodeHandle>,
    },
    /// Chord's `notify`: "I believe I am your predecessor".
    Notify {
        /// The notifying node.
        node: NodeHandle,
    },
    /// Graceful departure: the leaving node hands its routing state to its
    /// neighbors so they can splice it out without waiting for timeouts.
    /// Reveals no more than a `Neighbors` reply does.
    Leaving {
        /// The departing node.
        node: NodeHandle,
        /// The departing node's successor list.
        successors: Vec<NodeHandle>,
        /// The departing node's predecessor side.
        predecessors: Vec<NodeHandle>,
    },
    /// Liveness probe.
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

impl<R: Rules> Wire for OverlayMsg<R> {
    fn wire_size(&self) -> usize {
        const H: usize = NodeHandle::WIRE_SIZE;
        HEADER_BYTES
            + match self {
                // Lookup id and key, then the rule set's part.
                OverlayMsg::Lookup { ticket, piggyback, .. } => {
                    8 + 16 + R::lookup_size(ticket, piggyback.as_ref())
                }
                OverlayMsg::Reply { reply, .. } => 8 + 4 + R::reply_size(reply),
                OverlayMsg::Neighbors { successors, predecessors, .. } => {
                    8 + H * (successors.len() + R::predecessor_slots(predecessors))
                }
                OverlayMsg::Notify { .. } => H,
                OverlayMsg::Leaving { successors, predecessors, .. } => {
                    H * (1 + successors.len() + predecessors.len())
                }
                OverlayMsg::HopAck { .. }
                | OverlayMsg::GetNeighbors { .. }
                | OverlayMsg::Ping { .. }
                | OverlayMsg::Pong { .. } => 8,
            }
    }
}

/// An overlay's timer tokens, one enum for both rule sets, generic over
/// the lookup id `L` and the predecessor side's own timer `Q`.
#[derive(Clone, Debug)]
pub enum OverlayTimer<L, Q> {
    /// Periodic stabilization (paper setup: every 30 s).
    Stabilize,
    /// Periodic finger refresh (paper setup: every 60 s).
    FixFingers,
    /// The successor round `token` timed out: the first successor is dead.
    StabTimeout {
        /// Round token.
        token: u64,
    },
    /// A predecessor-side probe timed out.
    Predecessor(Q),
    /// No `HopAck` for a forwarded lookup: downstream hop is dead.
    HopTimeout {
        /// The affected lookup.
        lid: L,
        /// Which forwarding attempt this timer guards.
        attempt: u32,
    },
    /// An initiated lookup has been running too long: count it failed.
    LookupDeadline {
        /// The lookup.
        lid: L,
    },
    /// Retry joining (the previous join lookup failed).
    JoinRetry,
}

/// What a Chord lookup carries beside its key.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ChordTicket {
    /// The initiating node (id + address).
    pub origin: NodeHandle,
    /// Traversal mode.
    pub mode: LookupMode,
    /// True for overlay-maintenance lookups (finger refresh, join);
    /// relays use it to attribute bytes to the right budget.
    pub maint: bool,
}

/// Chord's predecessor-side probes.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ChordPredTimer {
    /// The predecessor ping `token` timed out: clear the predecessor.
    Ping {
        /// Ping token.
        token: u64,
    },
    /// Rectify probe `token` timed out: the incumbent predecessor is
    /// dead, adopt the waiting notify candidate (corrected mode only).
    Rectify {
        /// Probe token.
        token: u64,
    },
}

/// Chord's wire messages.
pub type ChordMsg = OverlayMsg<ChordRules>;

/// Timer tokens used by the Chord node.
pub type ChordTimer = OverlayTimer<LookupId, ChordPredTimer>;

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
    /// The parameters the shared node reads.
    pub fn timing(&self) -> Timing {
        Timing {
            stabilize_interval: self.stabilize_interval,
            fix_fingers_interval: self.fix_fingers_interval,
            hop_timeout: self.hop_timeout,
            lookup_deadline: self.lookup_deadline,
            maintenance: self.maintenance,
        }
    }

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
        let small = ChordMsg::Reply {
            lid,
            reply: LookupResult { predecessor: h, successors: vec![h] },
            hops: 3,
        };
        let big = ChordMsg::Reply {
            lid,
            reply: LookupResult { predecessor: h, successors: vec![h; 10] },
            hops: 3,
        };
        assert!(big.wire_size() > small.wire_size());
        assert!(ChordMsg::HopAck { lid }.wire_size() >= HEADER_BYTES);
        assert!(ChordMsg::Ping { token: 0 }.wire_size() < small.wire_size());
    }

    #[test]
    fn wire_size_of_every_message_kind() {
        let lid = LookupId { origin: Addr::NULL, seq: 1 };
        let h = NodeHandle::new(Id::new(1), Addr::NULL);
        // Every kind, with `n` handles in each list it carries.
        let sizes = |n: usize| -> Vec<usize> {
            let (mode, s) = (LookupMode::Recursive, vec![h; n]);
            let ticket = ChordTicket { origin: h, mode, maint: false };
            let result = LookupResult { predecessor: h, successors: s.clone() };
            [
                ChordMsg::Lookup { lid, key: Id::new(2), ticket, piggyback: None, hops: 1 },
                ChordMsg::HopAck { lid },
                ChordMsg::Reply { lid, reply: result, hops: 3 },
                ChordMsg::GetNeighbors { token: 1 },
                ChordMsg::Neighbors { token: 1, predecessors: vec![h], successors: s.clone() },
                ChordMsg::Neighbors { token: 1, predecessors: vec![], successors: s.clone() },
                ChordMsg::Notify { node: h },
                ChordMsg::Leaving { node: h, successors: s.clone(), predecessors: vec![h] },
                ChordMsg::Leaving { node: h, successors: s, predecessors: vec![] },
                ChordMsg::Ping { token: 1 },
                ChordMsg::Pong { token: 1 },
            ]
            .iter()
            .map(Wire::wire_size)
            .collect()
        };
        // A `Neighbors` counts its predecessor slot even when it is empty.
        assert_eq!(sizes(0), [92, 48, 74, 48, 70, 70, 62, 84, 62, 48, 48]);
        assert_eq!(sizes(1), [92, 48, 96, 48, 92, 92, 62, 106, 84, 48, 48]);
        assert_eq!(sizes(10), [92, 48, 294, 48, 290, 290, 62, 304, 282, 48, 48]);
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
