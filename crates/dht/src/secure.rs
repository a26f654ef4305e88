//! Secure-VerDi (paper §5.3.2): the security end of the VerDi spectrum.
//!
//! The DHT operation is piggybacked inside the recursive lookup itself:
//! a `get`'s data rides back along the reverse lookup path (sealed to the
//! initiator), and a `put`'s data rides the forward path. No node ever
//! learns a non-neighbor's address — an impersonating node can at most
//! infect the sections of its own O(log n) overlay neighbors — at the
//! price of a data transfer on *every* hop, which is what Figures 6 and 7
//! charge it for.
//!
//! Because replies never carry addresses, Secure-VerDi does not need
//! dual-section replication: data is stored only at the key's natural
//! replica point (§5.3.2, "data does not need to be replicated in two
//! sections").

use std::collections::HashMap;

use verme_chord::Id;
use verme_core::{Payload, VermeNode};
use verme_sim::Addr;

use crate::api::{keys, DhtConfig, OpReq, PendingOp};
use crate::block::Block;
use crate::engine::{DataReply, DhtEngine, ECtx, NoExt, Placement, Variant};
use crate::verme;

/// The operation payload piggybacked inside Secure-VerDi lookups and
/// their sealed replies.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SecurePayload {
    /// Forward path: retrieve the block stored under `key`.
    GetReq {
        /// Block key.
        key: Id,
    },
    /// Forward path: store `value` under `key`.
    PutReq {
        /// Block key.
        key: Id,
        /// The block (travels the whole lookup path); the responsible node
        /// checks it against `key`.
        value: Block,
    },
    /// Reverse path: the block (travels the whole reverse path, sealed).
    GetResp {
        /// The block, if stored.
        value: Option<Block>,
    },
    /// Reverse path: store acknowledgment.
    PutResp {
        /// Whether the block was stored.
        ok: bool,
    },
}

impl Payload for SecurePayload {
    fn wire_size(&self) -> usize {
        match self {
            SecurePayload::GetReq { .. } => 17,
            SecurePayload::PutReq { value, .. } => 17 + value.len(),
            SecurePayload::GetResp { value } => 1 + value.as_ref().map_or(0, |v| v.len()),
            SecurePayload::PutResp { .. } => 2,
        }
    }
}

/// Fan-out bookkeeping for one operation's current attempt.
#[derive(Clone, Debug)]
struct FanoutState {
    /// Sibling lookups of the current attempt still in flight.
    inflight: u32,
    /// Siblings issued for this attempt so far (initial fan-out plus
    /// replacements); capped at twice the configured fan-out.
    spawned: u32,
    /// First hops this attempt has already routed over (plus any the
    /// suspicion counter blacklisted); replacements route around all of
    /// them.
    used: Vec<Addr>,
}

/// The Secure-VerDi variant: every operation rides a certified lookup to
/// the key's natural replica point, and the answer rides it back.
///
/// Lookup memoization is deliberately NOT used here: Secure-VerDi's whole
/// point is that every operation rides a certified lookup (§5.3.2), and a
/// memoized direct fetch would bypass exactly the certification the
/// variant pays for.
#[derive(Clone, Debug, Default)]
pub struct Secure {
    /// Maps an in-flight overlay lookup to `(op, attempt)` — the attempt
    /// tag lets stale fan-out siblings of a superseded attempt be told
    /// apart from the current one.
    lookup_to_op: HashMap<u64, (u64, u32)>,
    /// Fan-out bookkeeping for each operation's *current* attempt. The
    /// attempt only fails once every sibling has failed and no
    /// replacement path is left to try.
    fanout_inflight: HashMap<u64, FanoutState>,
}

/// A Secure-VerDi node: a payload-carrying [`VermeNode`] plus the block
/// store. There is no separate data plane — data rides the lookups.
pub type SecureVerDiNode = DhtEngine<Secure>;

/// The piggyback payload issuing `p` carries.
fn payload_of(p: &PendingOp) -> SecurePayload {
    match &p.req {
        OpReq::Get => SecurePayload::GetReq { key: p.key },
        OpReq::Put(block) => SecurePayload::PutReq { key: p.key, value: block.clone() },
    }
}

/// Records one failed fan-out sibling of an operation's attempt. The
/// attempt itself only fails once the *last* in-flight sibling of the
/// current attempt has failed — a forged reply racing ahead of an
/// honest copy must not burn the attempt while that copy is still in
/// flight. Siblings of a superseded attempt are ignored outright.
///
/// A sibling that failed *fast* (a detected forgery, not a timeout)
/// bought information with most of the attempt's deadline still left,
/// so when fan-out is configured we spend it: a replacement copy is
/// launched over a first hop this attempt has not routed through yet,
/// keeping the redundancy budget full instead of counting down to the
/// attempt's death. Total spawns per attempt are capped at three
/// times the configured fan-out, bounding the traffic an adversary
/// can extract. Repair writes stay single-path by design.
fn fail_sibling(eng: &mut SecureVerDiNode, op: u64, attempt: u32, ctx: &mut ECtx<'_, Secure>) {
    let Some(p) = eng.ops.get(op) else {
        eng.variant.fanout_inflight.remove(&op);
        return;
    };
    let (key, repair, payload) = (p.key, p.repair, payload_of(p));
    if !eng.ops.attempt_matches(op, attempt) {
        return; // Stale sibling of an earlier attempt.
    }
    let mut state = eng.variant.fanout_inflight.remove(&op).unwrap_or(FanoutState {
        inflight: 1,
        spawned: 1,
        used: Vec::new(),
    });
    state.inflight = state.inflight.saturating_sub(1);
    let fanout = eng.cfg.lookup_fanout;
    if fanout > 1 && state.spawned < 3 * fanout as u32 && !repair {
        if let Some(hop) = eng.overlay.route_first_hop_excluding(key, &state.used).map(|h| h.addr) {
            let exclude = state.used.clone();
            let lid = eng.with_overlay(ctx, |overlay, ictx| {
                overlay.start_replica_lookup_excluding(key, Some(payload), &exclude, ictx)
            });
            eng.variant.lookup_to_op.insert(lid, (op, attempt));
            state.used.push(hop);
            state.spawned += 1;
            state.inflight += 1;
            eng.variant.fanout_inflight.insert(op, state);
            return;
        }
    }
    if state.inflight == 0 {
        eng.fail_attempt(op, ctx);
    } else {
        eng.variant.fanout_inflight.insert(op, state);
    }
}

impl Variant for Secure {
    type Overlay = VermeNode<SecurePayload>;
    type Ext = NoExt;
    /// Round plus the prober's id. Secure-VerDi stores at a single
    /// replica point (§5.3.2), so probes have no cross-section variant.
    const PROBE_FIXED: usize = 8 + 16;
    const NEED_FIXED: usize = 8;

    /// Issues (or re-issues) the piggybacked lookup for a pending
    /// operation and arms the per-attempt timer.
    ///
    /// With `lookup_fanout > 1` each attempt sends redundant copies whose
    /// first hops are pairwise disjoint (and disjoint from any hops the
    /// suspicion counter has blacklisted): a Byzantine relay on one path
    /// cannot absorb the operation, because an independent copy routes
    /// around it. The first verified answer wins; stale siblings resolve
    /// against an already-finished operation and are ignored.
    fn issue_attempt(eng: &mut SecureVerDiNode, op: u64, ctx: &mut ECtx<'_, Self>) {
        let Some(p) = eng.ops.get(op) else {
            return;
        };
        let (key, attempt, repair, payload) = (p.key, p.attempt, p.repair, payload_of(p));
        let mut exclude = eng.route_avoiding(op, key);
        // Repair writes stay single-path: they are background traffic and
        // already retried by their own OpTable lifecycle.
        let fanout = if repair { 1 } else { eng.cfg.lookup_fanout.max(1) };
        let mut issued = 0u32;
        for i in 0..fanout {
            let hop = eng.overlay.route_first_hop_excluding(key, &exclude).map(|h| h.addr);
            if i > 0 && hop.is_none() {
                break; // No disjoint route left to fan out over.
            }
            let pb = payload.clone();
            let lid = eng.with_overlay(ctx, |overlay, ictx| {
                overlay.start_replica_lookup_excluding(key, Some(pb), &exclude, ictx)
            });
            eng.variant.lookup_to_op.insert(lid, (op, attempt));
            issued += 1;
            match hop {
                Some(h) => exclude.push(h),
                None => break,
            }
        }
        eng.variant.fanout_inflight.insert(
            op,
            FanoutState { inflight: issued.max(1), spawned: issued.max(1), used: exclude },
        );
        eng.arm_attempt_timer(op, attempt, ctx);
        Self::drain_overlay(eng, ctx);
    }

    /// Handles both directions of the piggyback protocol.
    fn drain_overlay(eng: &mut SecureVerDiNode, ctx: &mut ECtx<'_, Self>) {
        // 1. Operations that reached us as the responsible node.
        for req in eng.overlay.take_answer_requests() {
            let ok = match req.payload {
                SecurePayload::GetReq { key } => {
                    eng.serve_fetch(req.lid, key, None, ctx);
                    continue;
                }
                SecurePayload::PutReq { key, value } => {
                    let ok = eng.accept_block(key, &value, ctx);
                    if ok {
                        eng.replicate(&value, ctx);
                    }
                    ok
                }
                // Response payloads never appear on the forward path.
                other @ (SecurePayload::GetResp { .. } | SecurePayload::PutResp { .. }) => {
                    debug_assert!(false, "response payload on forward path: {other:?}");
                    continue;
                }
            };
            let (lid, resp) = (req.lid, SecurePayload::PutResp { ok });
            eng.with_overlay(ctx, |overlay, ictx| overlay.send_answer(lid, Some(resp), ictx));
        }
        // 2. Completions of operations we initiated.
        for o in eng.overlay.take_outcomes() {
            let Some((op, attempt_of_lookup)) = eng.variant.lookup_to_op.remove(&o.lid) else {
                continue;
            };
            let accepted = match o.app {
                Some(SecurePayload::GetResp { value }) => {
                    eng.accept_reply(op, DataReply::Fetched(value), ctx)
                }
                Some(SecurePayload::PutResp { ok }) => {
                    eng.accept_reply(op, DataReply::Stored(ok), ctx)
                }
                _ => {
                    // A reply arrived (the lookup "completed") but carried
                    // no usable payload — the forged-envelope signature of
                    // a hijack, since honest responsible nodes always
                    // attach a response.
                    if eng.cfg.hop_suspicion && o.answer.is_some() && eng.ops.get(op).is_some() {
                        ctx.metrics().count(keys::LOOKUPS_HIJACKED, 1);
                    }
                    false
                }
            };
            if !accepted {
                fail_sibling(eng, op, attempt_of_lookup, ctx);
            }
        }
    }

    fn attempt_over(eng: &mut SecureVerDiNode, op: u64) {
        eng.variant.fanout_inflight.remove(&op);
    }

    fn on_ext(_: &mut SecureVerDiNode, _: Addr, ext: NoExt, _: &mut ECtx<'_, Self>) {
        match ext {}
    }

    fn answer_piggybacked(
        eng: &mut SecureVerDiNode,
        lid: u64,
        value: Option<Block>,
        ctx: &mut ECtx<'_, Self>,
    ) {
        // send_answer returns false if the relay state already expired;
        // the initiator's retry covers that case.
        let resp = SecurePayload::GetResp { value };
        eng.with_overlay(ctx, |overlay, ictx| overlay.send_answer(lid, Some(resp), ictx));
    }
}

impl Placement<Secure> for Secure {
    fn anchors(eng: &SecureVerDiNode, key: Id) -> bool {
        verme::is_replica_anchor(&eng.overlay, key)
    }

    fn replica_candidates(eng: &SecureVerDiNode) -> Vec<Addr> {
        verme::section_successors(&eng.overlay)
    }

    fn replica_width(cfg: &DhtConfig) -> usize {
        cfg.replicas / 2
    }

    fn in_probed_range(eng: &SecureVerDiNode, key: Id, _from: Id, owner: Id) -> bool {
        eng.overlay.layout().same_section(key, owner)
    }
}
