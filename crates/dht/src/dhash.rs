//! DHash: Chord's DHT layer (paper §5.1), the baseline VerDi is compared
//! against.
//!
//! `get` = lookup + direct fetch from the responsible node;
//! `put` = lookup + direct store on the responsible node, which acks the
//! client immediately and replicates to its successors in the background.
//! Background replication bytes are accounted separately
//! ([`keys::BYTES_REPLICATION`](crate::keys::BYTES_REPLICATION)), matching
//! the paper's Figure 7 footnote.

use std::collections::HashMap;

use verme_chord::{ChordNode, Id};
use verme_sim::Addr;

use crate::api::{DhtConfig, OpKind};
use crate::engine::{DhtEngine, ECtx, NoExt, Variant};

/// The DHash variant: looks up the key itself on Chord and keeps the
/// replicas on the responsible node and its `replicas − 1` successors.
#[derive(Clone, Debug, Default)]
pub struct Dhash {
    /// In-flight overlay lookups: lookup sequence number → operation.
    lookup_to_op: HashMap<u64, u64>,
}

/// A DHash node: a [`ChordNode`] plus the block store and data plane.
pub type DhashNode = DhtEngine<Dhash>;

impl Variant for Dhash {
    type Overlay = ChordNode;
    type Ext = NoExt;
    /// Round, plus both ends of the prober's responsibility range.
    const PROBE_FIXED: usize = 8 + 32;
    const NEED_FIXED: usize = 8;

    fn issue_attempt(eng: &mut DhashNode, op: u64, ctx: &mut ECtx<'_, Self>) {
        if eng.issue_from_memo(op, ctx) {
            return;
        }
        let Some(p) = eng.ops.get(op) else {
            return;
        };
        let (key, attempt) = (p.key, p.attempt);
        let avoid = eng.route_avoiding(op, key);
        let seq = eng
            .with_overlay(ctx, |overlay, ictx| overlay.start_lookup_excluding(key, &avoid, ictx));
        eng.variant.lookup_to_op.insert(seq, op);
        eng.arm_attempt_timer(op, attempt, ctx);
        Self::drain_overlay(eng, ctx);
    }

    fn drain_overlay(eng: &mut DhashNode, ctx: &mut ECtx<'_, Self>) {
        for o in eng.overlay.take_outcomes() {
            let Some(op) = eng.variant.lookup_to_op.remove(&o.seq) else {
                continue;
            };
            let Some(p) = eng.ops.get(op) else {
                continue;
            };
            let Some(result) = o.result else {
                eng.fail_attempt(op, ctx);
                continue;
            };
            let responsible = result.responsible().addr;
            if eng.cfg.memo_enabled && p.req.kind() == OpKind::Get {
                eng.serving.memo_put(p.key, responsible, ctx.now(), eng.cfg.memo_ttl);
            }
            eng.send_direct(op, responsible, ctx);
        }
    }

    fn on_ext(_: &mut DhashNode, _: Addr, ext: NoExt, _: &mut ECtx<'_, Self>) {
        match ext {}
    }

    /// True if this node believes it is responsible for `key`.
    fn anchors(eng: &DhashNode, key: Id) -> bool {
        match eng.overlay.predecessor() {
            Some(p) => key.in_open_closed(p.id, eng.overlay.id()),
            None => true,
        }
    }

    fn replica_candidates(eng: &DhashNode) -> Vec<Addr> {
        eng.overlay.successor_list().iter().map(|h| h.addr).collect()
    }

    fn replica_width(cfg: &DhtConfig) -> usize {
        cfg.replicas.saturating_sub(1)
    }

    /// The predecessor's id; this node's own id means the whole ring.
    fn range_start(eng: &DhashNode) -> Id {
        eng.overlay.predecessor().map_or(eng.overlay.id(), |p| p.id)
    }

    fn in_probed_range(_: &DhashNode, key: Id, from: Id, owner: Id) -> bool {
        from == owner || key.in_open_closed(from, owner)
    }

    /// The probed range is exactly this node's responsibility range, so
    /// every reported orphan is pulled back.
    fn reclaims(_: &DhashNode, _: Id) -> bool {
        true
    }
}
