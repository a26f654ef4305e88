//! Fast-VerDi (paper §5.3.1): the performance end of the VerDi spectrum.
//!
//! `get` = type-adjusted replica lookup (the overlay returns opposite-type
//! replica addresses, sealed) + direct fetch.
//! `put` = type-adjusted lookup + direct store on the responsible node,
//! which first copies the block to the *other* replica point (the
//! opposite-type section) and only then acknowledges the client — the
//! extra copy visible in Figures 6 and 7.
//!
//! Fast-VerDi's known weakness — an impersonating node can harvest
//! replica addresses by issuing lookups — is exactly what the Figure 8
//! worm experiment exploits.

use std::collections::HashMap;

use verme_core::VermeNode;
use verme_sim::Addr;

use crate::api::OpKind;
use crate::engine::{DhtEngine, ECtx, Variant};
use crate::verme::{self, CrossMsg, CrossPlane, DualPoint};

/// The Fast-VerDi variant: looks up whichever of the key's two replica
/// points has the opposite type, fetches and stores directly, and
/// cross-copies every stored block to the paired point.
#[derive(Clone, Debug, Default)]
pub struct Fast {
    /// In-flight operation lookups: lookup id → operation.
    lookup_to_op: HashMap<u64, u64>,
    cross: CrossPlane,
}

/// A Fast-VerDi node: a bare [`VermeNode`] (no piggyback — data stays off
/// the lookup path) plus the direct data plane with cross-section copies.
pub type FastVerDiNode = DhtEngine<Fast>;

impl DualPoint for Fast {
    fn cross(&mut self) -> &mut CrossPlane {
        &mut self.cross
    }

    fn wrap(msg: CrossMsg) -> CrossMsg {
        msg
    }
}

impl Variant for Fast {
    type Overlay = VermeNode<()>;
    type Ext = CrossMsg;
    /// Round, the prober's id, and the cross flag.
    const PROBE_FIXED: usize = 8 + 17;
    const NEED_FIXED: usize = 9;

    fn issue_attempt(eng: &mut FastVerDiNode, op: u64, ctx: &mut ECtx<'_, Self>) {
        if eng.issue_from_memo(op, ctx) {
            return;
        }
        let Some(p) = eng.ops.get(op) else {
            return;
        };
        let (key, attempt) = (p.key, p.attempt);
        let my_type = eng.overlay.node_type();
        let adjusted = eng.overlay.layout().replica_point_avoiding(key, my_type);
        let avoid = eng.route_avoiding(op, adjusted);
        let lid = eng.with_overlay(ctx, |overlay, ictx| {
            overlay.start_replica_lookup_excluding(adjusted, None, &avoid, ictx)
        });
        eng.variant.lookup_to_op.insert(lid, op);
        eng.arm_attempt_timer(op, attempt, ctx);
        Self::drain_overlay(eng, ctx);
    }

    fn drain_overlay(eng: &mut FastVerDiNode, ctx: &mut ECtx<'_, Self>) {
        for o in eng.overlay.take_outcomes() {
            let Some(op) = eng.variant.lookup_to_op.remove(&o.lid) else {
                verme::cross_outcome(eng, o.lid, o.answer, ctx);
                continue;
            };
            let Some(p) = eng.ops.get(op) else {
                continue;
            };
            let Some(replicas) = verme::replicas_of(o.answer) else {
                eng.fail_attempt(op, ctx);
                continue;
            };
            // Rotate across the replica list on retry: a dead first replica
            // would otherwise burn a full timeout on every attempt.
            let target = replicas[p.attempt as usize % replicas.len()].addr;
            if eng.cfg.memo_enabled && p.req.kind() == OpKind::Get && p.attempt == 0 {
                eng.serving.memo_put(p.key, target, ctx.now(), eng.cfg.memo_ttl);
            }
            eng.send_direct(op, target, ctx);
        }
        // Fast-VerDi never piggybacks, so answer requests cannot appear;
        // drain defensively anyway.
        debug_assert!(eng.overlay.take_answer_requests().is_empty());
    }

    fn on_ext(eng: &mut FastVerDiNode, from: Addr, ext: CrossMsg, ctx: &mut ECtx<'_, Self>) {
        verme::on_cross_msg(eng, from, ext, ctx);
    }
}
