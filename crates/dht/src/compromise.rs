//! Compromise-VerDi (paper §5.3.3): one level of indirection between
//! performance and security.
//!
//! The initiator never performs the lookup itself: it signs a statement
//! vouching for the operation and hands it — with its certificate — to an
//! *opposite-type* finger-table entry, which relays the operation using
//! the Fast-VerDi flow and forwards the result back. A compromised node
//! therefore cannot harvest addresses by issuing operations (the sealed
//! replica answers go to the relay, not to it); it can only *passively*
//! observe the initiators that happen to use it as a relay, at the rate
//! those neighbors issue requests — the Figure 8 Compromise curve.

use std::collections::HashMap;

use verme_chord::Id;
use verme_core::{VermeAnswer, VermeNode};
use verme_crypto::{Certificate, SignedStatement};
use verme_sim::{Addr, Scope, Wire};

use crate::api::{keys, DhtConfig, OpKind, OpReq};
use crate::block::Block;
use crate::engine::{
    send_as, send_data, DataReply, DhtEngine, DhtMsg, ECtx, ExtMsg, Stored, Variant, HDR,
};
use crate::verme::{self, CrossMsg, CrossPlane, DualPoint};

/// The signed, relayed operation request (initiator → relay).
#[derive(Clone, Debug)]
pub struct RelayRequest {
    /// Initiator's operation id (echoed in the relay's reply).
    pub rop: u64,
    /// The initiator's certificate.
    pub cert: Certificate,
    /// Signed statement vouching for the operation on `(key, rop)`.
    pub statement: SignedStatement<(u128, u64)>,
    /// Get, or put with the block contents.
    pub req: OpReq,
    /// Block key.
    pub key: Id,
    /// Initiator's retry attempt: the relay rotates its replica choice
    /// with it, so a dead first replica is not retried forever.
    pub attempt: u32,
    /// True for internal read-repair writes (the relayed chain is then
    /// background traffic).
    pub repair: bool,
}

/// Compromise-VerDi's extra wire cases: the relay protocol, plus the
/// cross-section copy it shares with Fast-VerDi.
#[derive(Clone, Debug)]
pub enum CompExt {
    /// Initiator → relay: please run this operation for me.
    RelayRequest(RelayRequest),
    /// Relay → initiator: the fetched block.
    RelayGetReply {
        /// Operation id from the request.
        rop: u64,
        /// The block, if found and genuine.
        value: Option<Block>,
    },
    /// Relay → initiator: put acknowledgment.
    RelayPutReply {
        /// Operation id from the request.
        rop: u64,
        /// Whether the store succeeded.
        ok: bool,
    },
    /// Cross-section copy (responsible → paired responsible) and its ack.
    Cross(CrossMsg),
}

/// Modelled size of a signed statement (digest + signature + signer key).
const STATEMENT_BYTES: usize = 80;

impl Wire for CompExt {
    fn wire_size(&self) -> usize {
        match self {
            CompExt::RelayRequest(r) => {
                let value_len = match &r.req {
                    OpReq::Get => 0,
                    OpReq::Put(block) => block.len(),
                };
                HDR + 8 + Certificate::WIRE_SIZE + STATEMENT_BYTES + 1 + 16 + value_len
            }
            CompExt::RelayGetReply { value, .. } => {
                HDR + 8 + 1 + value.as_ref().map_or(0, |v| v.len())
            }
            CompExt::RelayPutReply { .. } => HDR + 9,
            CompExt::Cross(m) => m.wire_size(),
        }
    }
}

impl ExtMsg for CompExt {
    fn scope(&self) -> Scope {
        match self {
            CompExt::Cross(m) => m.scope(),
            _ => Scope::DhtOp,
        }
    }
}

/// A relayed operation this node is executing on a client's behalf.
#[derive(Clone, Debug)]
struct RelayJob {
    client: Addr,
    rop: u64,
    req: OpReq,
    key: Id,
    /// Client's retry attempt: rotates the replica choice.
    attempt: u32,
    /// Read-repair write relayed on the client's behalf: the whole
    /// chain (and our replies) is background traffic.
    repair: bool,
}

/// A record of a client observed by this node while acting as a relay —
/// exactly the information an impersonating relay can passively harvest
/// (address plus certified type). Exposed for the worm experiments.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct ObservedClient {
    /// The client's network address.
    pub addr: Addr,
    /// The client's certified type.
    pub node_type: verme_crypto::NodeType,
}

/// The Compromise-VerDi variant: hands each operation to an
/// opposite-type relay, which runs the Fast-VerDi flow on its behalf.
#[derive(Clone, Debug, Default)]
pub struct Compromise {
    next_job: u64,
    /// Relay jobs in flight, by job id (the `op` of the relay's fetches
    /// and stores).
    jobs: HashMap<u64, RelayJob>,
    lookup_to_job: HashMap<u64, u64>,
    cross: CrossPlane,
    observed: Vec<ObservedClient>,
}

/// A Compromise-VerDi node.
pub type CompromiseVerDiNode = DhtEngine<Compromise>;

impl CompromiseVerDiNode {
    /// Clients this node has observed while acting as a relay (the
    /// passive-harvest channel of §5.3.3).
    pub fn observed_clients(&self) -> &[ObservedClient] {
        &self.variant.observed
    }
}

fn ext(msg: CompExt) -> DhtMsg<Compromise> {
    DhtMsg::Ext(msg)
}

/// A relay's lookup finished: move the job to the data phase.
fn continue_job(
    eng: &mut CompromiseVerDiNode,
    job_id: u64,
    answer: Option<VermeAnswer>,
    ctx: &mut ECtx<'_, Compromise>,
) {
    let Some(job) = eng.variant.jobs.get(&job_id) else {
        return;
    };
    let Some(replicas) = verme::replicas_of(answer) else {
        fail_job(eng, job_id, ctx);
        return;
    };
    // Rotate across the replica list with the client's retry attempt:
    // a dead first replica would otherwise fail every retry the same
    // way.
    let target = replicas[job.attempt as usize % replicas.len()].addr;
    let (key, attempt, repair) = (job.key, job.attempt, job.repair);
    match &job.req {
        OpReq::Get => {
            if eng.cfg.memo_enabled && attempt == 0 {
                // Relay-side memo: remember which replica this key
                // resolved to, so the next relayed first attempt can
                // skip the lookup entirely.
                eng.serving.memo_put(key, target, ctx.now(), eng.cfg.memo_ttl);
            }
            send_data(ctx, target, DhtMsg::Fetch { op: job_id, key });
        }
        OpReq::Put(block) => {
            let value = block.clone();
            send_as(ctx, target, DhtMsg::Store { op: job_id, key, value, attempt, repair }, repair);
        }
    }
}

fn fail_job(eng: &mut CompromiseVerDiNode, job_id: u64, ctx: &mut ECtx<'_, Compromise>) {
    let Some(job) = eng.variant.jobs.remove(&job_id) else {
        return;
    };
    let reply = match job.req {
        OpReq::Get => CompExt::RelayGetReply { rop: job.rop, value: None },
        OpReq::Put(_) => CompExt::RelayPutReply { rop: job.rop, ok: false },
    };
    send_as(ctx, job.client, ext(reply), job.repair);
}

/// A signed operation request arrived: verify it, then run the Fast-VerDi
/// flow on the client's behalf.
fn relay(
    eng: &mut CompromiseVerDiNode,
    from: Addr,
    request: RelayRequest,
    ctx: &mut ECtx<'_, Compromise>,
) {
    let RelayRequest { rop, cert, statement, req, key, attempt, repair } = request;
    // Verify the certificate and the vouching statement; an unverifiable
    // request is dropped (§5.3.3).
    if !cert.verify(eng.overlay.verifier()) {
        return;
    }
    let Ok(&(stmt_key, stmt_rop)) = statement.verify(&cert) else {
        return;
    };
    if stmt_key != key.raw() || stmt_rop != rop {
        return;
    }
    // Passive observation channel: relays see their clients.
    eng.variant.observed.push(ObservedClient { addr: from, node_type: cert.node_type() });

    let job_id = eng.variant.next_job;
    eng.variant.next_job += 1;
    let is_get = req.kind() == OpKind::Get;
    eng.variant.jobs.insert(job_id, RelayJob { client: from, rop, req, key, attempt, repair });
    if eng.cfg.memo_enabled && is_get {
        if attempt == 0 {
            if let Some(addr) = eng.serving.memo_get(key, ctx.now()) {
                // Relay-side memo hit: fetch directly from the remembered
                // replica, skipping the overlay lookup. A failed fetch
                // fails the job and the client's retry drops the memo
                // below.
                ctx.metrics().count(keys::LOOKUP_MEMO_HITS, 1);
                send_data(ctx, addr, DhtMsg::Fetch { op: job_id, key });
                return;
            }
        } else {
            // A retried relay request means the first answer failed:
            // never trust the memo, re-resolve.
            eng.serving.memo_invalidate(key);
        }
    }
    // Fast-VerDi flow on the client's behalf, from *our* type vantage
    // point.
    let my_type = eng.overlay.node_type();
    let adjusted = eng.overlay.layout().replica_point_avoiding(key, my_type);
    let lid =
        eng.with_overlay(ctx, |overlay, ictx| overlay.start_replica_lookup(adjusted, None, ictx));
    eng.variant.lookup_to_job.insert(lid, job_id);
    Compromise::drain_overlay(eng, ctx);
}

impl DualPoint for Compromise {
    fn cross(&mut self) -> &mut CrossPlane {
        &mut self.cross
    }

    fn wrap(msg: CrossMsg) -> CompExt {
        CompExt::Cross(msg)
    }
}

impl Variant for Compromise {
    type Overlay = VermeNode<()>;
    type Ext = CompExt;
    /// Round, the prober's id, and the cross flag.
    const PROBE_FIXED: usize = 8 + 17;
    const NEED_FIXED: usize = 9;

    /// Issues (or re-issues) the relayed operation for a pending op: picks
    /// a fresh opposite-type relay and sends it the signed request.
    fn issue_attempt(eng: &mut CompromiseVerDiNode, op: u64, ctx: &mut ECtx<'_, Self>) {
        let Some(p) = eng.ops.get(op) else {
            return;
        };
        let (req, key, attempt, repair) = (p.req.clone(), p.key, p.attempt, p.repair);
        eng.arm_attempt_timer(op, attempt, ctx);
        let avoid: Vec<Addr> =
            if eng.cfg.hop_suspicion { eng.ops.avoid(op).to_vec() } else { Vec::new() };
        let Some(relay) = eng.overlay.route_first_hop_excluding(key, &avoid) else {
            // No live opposite-type finger right now; maybe one appears
            // after repair, so this counts as a failed attempt, not a
            // failed operation.
            eng.fail_attempt(op, ctx);
            return;
        };
        if eng.cfg.hop_suspicion {
            // The relay IS the first hop here: the suspicion counter
            // rotates away from a relay that keeps eating operations.
            eng.ops.note_first_hop(op, Some(relay.addr));
        }
        let statement = eng.overlay.sign_statement((key.raw(), op));
        let cert = *eng.overlay.certificate();
        let msg = RelayRequest { rop: op, cert, statement, req, key, attempt, repair };
        send_as(ctx, relay.addr, ext(CompExt::RelayRequest(msg)), repair);
    }

    fn drain_overlay(eng: &mut CompromiseVerDiNode, ctx: &mut ECtx<'_, Self>) {
        for o in eng.overlay.take_outcomes() {
            match eng.variant.lookup_to_job.remove(&o.lid) {
                Some(job_id) => continue_job(eng, job_id, o.answer, ctx),
                None => verme::cross_outcome(eng, o.lid, o.answer, ctx),
            }
        }
        debug_assert!(eng.overlay.take_answer_requests().is_empty());
    }

    /// `op` is one of this node's relay-job ids: forward the result to
    /// the client the job runs for.
    fn on_data_reply(
        eng: &mut CompromiseVerDiNode,
        op: u64,
        reply: DataReply,
        ctx: &mut ECtx<'_, Self>,
    ) {
        let Some(job) = eng.variant.jobs.remove(&op) else {
            return;
        };
        match reply {
            DataReply::Fetched(value) => {
                let value = value.filter(|b| b.verifies(job.key));
                send_data(ctx, job.client, ext(CompExt::RelayGetReply { rop: job.rop, value }));
            }
            DataReply::Stored(ok) => {
                let reply = CompExt::RelayPutReply { rop: job.rop, ok };
                send_as(ctx, job.client, ext(reply), job.repair);
            }
        }
    }

    fn on_ext(eng: &mut CompromiseVerDiNode, from: Addr, msg: CompExt, ctx: &mut ECtx<'_, Self>) {
        match msg {
            CompExt::RelayRequest(r) => relay(eng, from, r, ctx),
            // The relay's answer to one of our own operations. A failed
            // get retries through a (possibly different) relay.
            CompExt::RelayGetReply { rop, value } => {
                eng.op_reply(rop, DataReply::Fetched(value), ctx);
            }
            CompExt::RelayPutReply { rop, ok } => eng.op_reply(rop, DataReply::Stored(ok), ctx),
            CompExt::Cross(m) => verme::on_cross_msg(eng, from, m, ctx),
        }
    }

    fn stored(eng: &mut CompromiseVerDiNode, s: Stored, ctx: &mut ECtx<'_, Self>) {
        verme::cross_copy(eng, s, ctx);
    }

    fn anchors(eng: &CompromiseVerDiNode, key: Id) -> bool {
        verme::anchors_key(&eng.overlay, key)
    }

    fn replica_candidates(eng: &CompromiseVerDiNode) -> Vec<Addr> {
        verme::section_successors(&eng.overlay)
    }

    fn replica_width(cfg: &DhtConfig) -> usize {
        cfg.replicas / 2
    }

    fn in_probed_range(eng: &CompromiseVerDiNode, key: Id, _from: Id, owner: Id) -> bool {
        eng.overlay.layout().same_section(key, owner)
    }

    fn repair_extra(eng: &mut CompromiseVerDiNode, anchored: &[Id], ctx: &mut ECtx<'_, Self>) {
        verme::cross_spot_check(eng, anchored, ctx);
    }

    fn push_cross(eng: &mut CompromiseVerDiNode, to: Addr, block: Block, ctx: &mut ECtx<'_, Self>) {
        verme::push_cross(eng, to, block, ctx);
    }
}
