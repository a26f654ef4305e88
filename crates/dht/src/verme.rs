//! What the VerDi variants share on the Verme side: section placement
//! (paper §5.2) for all three, and for the two dual-point variants (Fast
//! and Compromise) the cross-section copy of §5.3.1 with its repair-time
//! spot check.

use std::collections::HashMap;

use verme_chord::{Id, NodeHandle};
use verme_core::{Payload, VermeAnswer, VermeNode};
use verme_sim::{Addr, Scope, Wire};

use crate::block::Block;
use crate::engine::{
    send_as, send_background, DhtEngine, DhtMsg, ECtx, ExtMsg, Stored, Variant, HDR, REPAIR_BATCH,
};

/// True if this node anchors the replica set for `point` (it is the
/// first in-section node at or after the point, or — in the §5.2
/// corner — the last one before it). Only the anchor re-replicates a
/// block during data stabilization; without this check every holder
/// would push copies to *its own* successors and the block would
/// creep across the whole section over time.
pub(crate) fn is_replica_anchor<P: Payload>(overlay: &VermeNode<P>, point: Id) -> bool {
    let layout = overlay.layout();
    let me = overlay.id();
    if !layout.same_section(point, me) {
        return false;
    }
    if point.distance_to(me) < layout.section_len() {
        // Forward side: anchor iff no in-section node in [point, me).
        !overlay
            .predecessor_list()
            .iter()
            .any(|h| layout.same_section(h.id, point) && h.id.in_closed_open(point, me))
    } else {
        // Corner side: anchor iff no in-section node in (me, point].
        !overlay
            .successor_list()
            .iter()
            .any(|h| layout.same_section(h.id, point) && h.id.in_open_closed(me, point))
    }
}

/// The successors inside this node's own section, nearest first: where
/// VerDi keeps the in-section share of a replica set (§5.2).
pub(crate) fn section_successors<P: Payload>(overlay: &VermeNode<P>) -> Vec<Addr> {
    let (layout, me) = (overlay.layout(), overlay.id());
    overlay
        .successor_list()
        .iter()
        .filter(|h| layout.same_section(h.id, me))
        .map(|h| h.addr)
        .collect()
}

/// The replica holders a lookup resolved to; `None` if it failed or the
/// key's section is unpopulated.
pub(crate) fn replicas_of(answer: Option<VermeAnswer>) -> Option<Vec<NodeHandle>> {
    match answer {
        Some(VermeAnswer::Replicas { replicas }) if !replicas.is_empty() => Some(replicas),
        _ => None,
    }
}

/// True if this node anchors `key` under either of its two replica
/// points — the filter deciding which stored blocks a dual-point node
/// re-replicates and repairs.
pub(crate) fn anchors_key(overlay: &VermeNode<()>, key: Id) -> bool {
    is_replica_anchor(overlay, key)
        || is_replica_anchor(overlay, overlay.layout().paired_replica_point(key))
}

/// The other replica point for a key this node holds: if we sit in the
/// key's own section, the pair is one section forward; if the client
/// stored at the shifted point (we sit in `key + section_len`'s section),
/// the pair is the key's natural point. Either way the pair's section has
/// the opposite type of ours, so the §5.3.1 check permits our lookup.
fn paired_point(overlay: &VermeNode<()>, key: Id) -> Id {
    let layout = overlay.layout();
    if layout.same_section(key, overlay.id()) {
        layout.paired_replica_point(key)
    } else {
        key
    }
}

/// The wire cases of the cross-section copy.
#[derive(Clone, Debug)]
pub enum CrossMsg {
    /// Copy of a block to the responsible node of the *other* replica
    /// point (opposite type).
    CrossCopy {
        /// Copy transaction id.
        xid: u64,
        /// Block key.
        key: Id,
        /// The block; the receiver checks it against `key`.
        value: Block,
        /// True when part of a read-repair write or sent by the repair
        /// plane (ack charged to replication).
        repair: bool,
    },
    /// Cross-copy acknowledgment.
    CrossCopyAck {
        /// Transaction id from the request.
        xid: u64,
        /// Whether the copy was stored.
        ok: bool,
    },
}

impl Wire for CrossMsg {
    fn wire_size(&self) -> usize {
        match self {
            CrossMsg::CrossCopy { value, .. } => HDR + 8 + 16 + value.len(),
            CrossMsg::CrossCopyAck { .. } => HDR + 9,
        }
    }
}

impl ExtMsg for CrossMsg {
    fn scope(&self) -> Scope {
        match self {
            CrossMsg::CrossCopy { .. } => Scope::DhtServe,
            CrossMsg::CrossCopyAck { .. } => Scope::DhtOp,
        }
    }
}

/// A dual-point node's cross-section state.
#[derive(Clone, Debug, Default)]
pub struct CrossPlane {
    next_xid: u64,
    /// Stores whose paired-point lookup is in flight, by lookup id.
    lookups: HashMap<u64, Stored>,
    /// Cross copies awaiting acknowledgment, by xid: the client's
    /// operation id, the client, and whether the chain is a repair write.
    waiting: HashMap<u64, (u64, Addr, bool)>,
    /// Cross-section repair lookups in flight: lookup id → keys to probe.
    repair_lookups: HashMap<u64, Vec<Id>>,
    /// Rotation cursor over anchored keys for the bounded spot check.
    cursor: usize,
}

/// A variant that keeps `n/2` replicas at each of a key's two
/// opposite-type replica points (§5.2) over a payload-free Verme overlay.
pub trait DualPoint: Variant<Overlay = VermeNode<()>> {
    /// The variant's cross-section state.
    fn cross(&mut self) -> &mut CrossPlane;
    /// Embeds a cross-copy message in the variant's extension type.
    fn wrap(msg: CrossMsg) -> Self::Ext;
}

fn cross_msg<V: DualPoint>(msg: CrossMsg) -> DhtMsg<V> {
    DhtMsg::Ext(V::wrap(msg))
}

/// [`Variant::stored`] for dual-point variants (§5.3.1): before acking the
/// client, copy the block to the responsible node of the opposite-type
/// replica point.
pub(crate) fn cross_copy<V: DualPoint>(eng: &mut DhtEngine<V>, s: Stored, ctx: &mut ECtx<'_, V>) {
    let pair = paired_point(&eng.overlay, s.block.key());
    let lid = eng.with_overlay(ctx, |overlay, ictx| overlay.start_replica_lookup(pair, None, ictx));
    eng.variant.cross().lookups.insert(lid, s);
    V::drain_overlay(eng, ctx);
}

/// Continues a cross-plane lookup (paired-point copy or repair spot
/// check) that resolved; other lookup ids are ignored.
pub(crate) fn cross_outcome<V: DualPoint>(
    eng: &mut DhtEngine<V>,
    lid: u64,
    answer: Option<VermeAnswer>,
    ctx: &mut ECtx<'_, V>,
) {
    let replicas = replicas_of(answer);
    if let Some(s) = eng.variant.cross().lookups.remove(&lid) {
        let Some(replicas) = replicas else {
            // Cannot reach the paired section: the put fails honestly.
            send_as(ctx, s.client, DhtMsg::StoreAck { op: s.op, ok: false }, s.repair);
            return;
        };
        // Rotate with the client's retry attempt so a dead first replica
        // in the paired section does not fail every retry the same way.
        let target = replicas[s.attempt as usize % replicas.len()];
        let cross = eng.variant.cross();
        let xid = cross.next_xid;
        cross.next_xid += 1;
        cross.waiting.insert(xid, (s.op, s.client, s.repair));
        let msg = CrossMsg::CrossCopy { xid, key: s.block.key(), value: s.block, repair: s.repair };
        send_as(ctx, target.addr, cross_msg(msg), s.repair);
    } else if let Some(keys) = eng.variant.cross().repair_lookups.remove(&lid) {
        // Probe the paired anchor with the keys whose opposite-type
        // copies we are spot-checking.
        let Some(replicas) = replicas else {
            eng.probes_outstanding = eng.probes_outstanding.saturating_sub(1);
            return;
        };
        let owner = eng.overlay.id();
        let probe =
            DhtMsg::RepairProbe { round: eng.repair_round, from: owner, owner, keys, cross: true };
        send_background(ctx, replicas[0].addr, probe);
    }
}

/// Handles the cross-copy wire cases.
pub(crate) fn on_cross_msg<V: DualPoint>(
    eng: &mut DhtEngine<V>,
    from: Addr,
    msg: CrossMsg,
    ctx: &mut ECtx<'_, V>,
) {
    match msg {
        CrossMsg::CrossCopy { xid, key, value, repair } => {
            let ok = eng.accept_block(key, &value, ctx);
            if ok {
                eng.replicate(&value, ctx);
            }
            send_as(ctx, from, cross_msg(CrossMsg::CrossCopyAck { xid, ok }), repair);
        }
        CrossMsg::CrossCopyAck { xid, ok } => {
            if let Some((op, client, repair)) = eng.variant.cross().waiting.remove(&xid) {
                send_as(ctx, client, DhtMsg::StoreAck { op, ok }, repair);
            }
        }
    }
}

/// [`Variant::repair_extra`] for dual-point variants: one replica lookup
/// per key towards its paired point, bounded by the batch budget and
/// rotated across rounds so every anchored block is eventually verified
/// against the opposite-type section.
pub(crate) fn cross_spot_check<V: DualPoint>(
    eng: &mut DhtEngine<V>,
    anchored: &[Id],
    ctx: &mut ECtx<'_, V>,
) {
    if anchored.is_empty() {
        return;
    }
    let start = eng.variant.cross().cursor % anchored.len();
    let take = REPAIR_BATCH.min(anchored.len());
    eng.variant.cross().cursor = (start + take) % anchored.len();
    for i in 0..take {
        let k = anchored[(start + i) % anchored.len()];
        let pair = paired_point(&eng.overlay, k);
        let lid =
            eng.with_overlay(ctx, |overlay, ictx| overlay.start_replica_lookup(pair, None, ictx));
        eng.variant.cross().repair_lookups.insert(lid, vec![k]);
        eng.probes_outstanding += 1;
    }
    V::drain_overlay(eng, ctx);
}

/// [`Variant::push_cross`] for dual-point variants: a block the paired
/// section lacks travels as a cross copy, so its anchor replicates it
/// in-section like any other.
pub(crate) fn push_cross<V: DualPoint>(
    eng: &mut DhtEngine<V>,
    to: Addr,
    block: Block,
    ctx: &mut ECtx<'_, V>,
) {
    let cross = eng.variant.cross();
    let xid = cross.next_xid;
    cross.next_xid += 1;
    let msg = CrossMsg::CrossCopy { xid, key: block.key(), value: block, repair: true };
    send_background(ctx, to, cross_msg(msg));
}
