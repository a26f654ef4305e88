//! The common DHT driver interface shared by DHash and the VerDi variants.
//!
//! All four systems expose the same two operations (paper §5.1):
//!
//! ```text
//! key   = put(value)
//! value = get(key)
//! ```
//!
//! Harnesses drive them generically through [`DhtNode`], which extends the
//! simulator's [`Node`] trait with operation injection and outcome
//! retrieval.

use std::collections::HashMap;

use bytes::Bytes;
use verme_chord::Id;
use verme_sim::{Addr, Ctx, Node, ProtoEvent, SimDuration, SimTime};

use crate::block::Block;
use crate::engine::DhtTimer;

/// Metric keys recorded by DHT nodes.
pub mod keys {
    /// Latency of each completed `get`, milliseconds.
    pub const GET_LATENCY_MS: &str = "dht.get.latency_ms";
    /// Latency of each completed `put`, milliseconds.
    pub const PUT_LATENCY_MS: &str = "dht.put.latency_ms";
    /// `get` operations completed successfully.
    pub const GET_COMPLETED: &str = "dht.get.completed";
    /// `put` operations completed successfully.
    pub const PUT_COMPLETED: &str = "dht.put.completed";
    /// Operations that failed (timeout, missing data, bad hash).
    pub const OP_FAILED: &str = "dht.op.failed";
    /// End-to-end retries issued after a failed attempt.
    pub const OP_RETRIES: &str = "dht.op.retries";
    /// Operations that succeeded after at least one retry.
    pub const OP_RECOVERED: &str = "dht.op.recovered";
    /// Bytes sent for foreground data transfer (fetch/store/relay).
    pub const BYTES_DATA: &str = "bytes.data";
    /// Bytes sent for background replication (excluded from Figure 7,
    /// matching the paper's accounting).
    pub const BYTES_REPLICATION: &str = "bytes.replication";
    /// Repair rounds that actually probed (the neighborhood changed).
    pub const REPAIR_ROUNDS: &str = "dht.repair.rounds";
    /// Blocks re-replicated by the repair plane (probe-diff pushes and
    /// pulls; excludes initial placement).
    pub const REPAIR_PUSHED: &str = "dht.repair.pushed";
    /// Read-repairs triggered on the get path (a fetch needed failover,
    /// so the first-line replica set is incomplete).
    pub const READ_REPAIR: &str = "dht.repair.read";
    /// Blocks handed off to the next responsible holder on graceful
    /// departure.
    pub const HANDOFF_BLOCKS: &str = "dht.handoff.blocks";
    /// Lookups answered with a forged routing result, unmasked when the
    /// fetched data failed verification (hash mismatch, missing block
    /// from a node claiming responsibility, unopenable sealed reply).
    pub const LOOKUPS_HIJACKED: &str = "dht.lookups.hijacked";
    /// Retries forced onto a different first hop after the same hop
    /// failed twice in a row (suspected misrouter).
    pub const SUSPECT_REROUTES: &str = "dht.op.suspect_reroutes";
    /// Gets answered from the local hot-block cache (no attempt issued).
    pub const CACHE_HITS: &str = "dht.cache.hits";
    /// Gets that consulted the hot-block cache and missed.
    pub const CACHE_MISSES: &str = "dht.cache.misses";
    /// Cache entries dropped because the block moved underneath them
    /// (repair push, replicate, handoff, or an incoming store).
    pub const CACHE_INVALIDATIONS: &str = "dht.cache.invalidations";
    /// Gets parked behind an in-flight get for the same key instead of
    /// issuing their own upstream fetch.
    pub const GETS_COALESCED: &str = "dht.gets.coalesced";
    /// Get attempts that skipped the overlay lookup because a fresh
    /// memoized lookup result named the responsible node.
    pub const LOOKUP_MEMO_HITS: &str = "dht.lookup.memo_hits";

    /// Monitor gauge: stored keys with fewer live holders than the
    /// replication target. Fed by harness samplers via
    /// [`crate::repair::DurabilityCensus`], never by the nodes
    /// themselves, so it has no registry descriptor.
    pub const GAUGE_UNDER_REPLICATED: &str = "dht.blocks.under_replicated";
    /// Monitor gauge: repair probes and read-repair operations in flight.
    pub const GAUGE_REPAIR_INFLIGHT: &str = "dht.repair.inflight";
    /// Monitor gauge: seeded keys with zero live holders (unrecoverable).
    pub const GAUGE_BLOCKS_LOST: &str = "dht.blocks.lost";

    /// Descriptors for every DHT metric, for registry export.
    pub fn descriptors() -> &'static [verme_sim::MetricDesc] {
        use verme_sim::MetricDesc;
        const DESCS: &[MetricDesc] = &[
            MetricDesc::histogram(GET_LATENCY_MS, "ms", "latency of each completed get"),
            MetricDesc::histogram(PUT_LATENCY_MS, "ms", "latency of each completed put"),
            MetricDesc::counter(GET_COMPLETED, "ops", "gets completed successfully"),
            MetricDesc::counter(PUT_COMPLETED, "ops", "puts completed successfully"),
            MetricDesc::counter(OP_FAILED, "ops", "operations that failed"),
            MetricDesc::counter(OP_RETRIES, "retries", "end-to-end retries after a failed attempt"),
            MetricDesc::counter(OP_RECOVERED, "ops", "operations recovered by a retry"),
            MetricDesc::counter(BYTES_DATA, "bytes", "foreground data-plane traffic"),
            MetricDesc::counter(BYTES_REPLICATION, "bytes", "background replication traffic"),
            MetricDesc::counter(REPAIR_ROUNDS, "rounds", "repair rounds that probed"),
            MetricDesc::counter(REPAIR_PUSHED, "blocks", "blocks re-replicated by repair"),
            MetricDesc::counter(READ_REPAIR, "ops", "read-repairs triggered on the get path"),
            MetricDesc::counter(HANDOFF_BLOCKS, "blocks", "blocks handed off on graceful leave"),
            MetricDesc::counter(LOOKUPS_HIJACKED, "lookups", "forged lookup answers unmasked"),
            MetricDesc::counter(
                SUSPECT_REROUTES,
                "retries",
                "retries rerouted around suspect hops",
            ),
            MetricDesc::counter(CACHE_HITS, "ops", "gets answered from the hot-block cache"),
            MetricDesc::counter(CACHE_MISSES, "ops", "gets that missed the hot-block cache"),
            MetricDesc::counter(
                CACHE_INVALIDATIONS,
                "blocks",
                "cache entries dropped on block movement",
            ),
            MetricDesc::counter(GETS_COALESCED, "ops", "gets coalesced onto an in-flight fetch"),
            MetricDesc::counter(LOOKUP_MEMO_HITS, "ops", "get attempts served by the lookup memo"),
        ];
        DESCS
    }
}

/// The kind of a DHT operation.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum OpKind {
    /// A `get(key)`.
    Get,
    /// A `put(value)`.
    Put,
}

impl OpKind {
    /// Stable label used in trace events.
    pub fn label(self) -> &'static str {
        match self {
            OpKind::Get => "get",
            OpKind::Put => "put",
        }
    }
}

/// The observable outcome of a DHT operation, drained with
/// [`DhtNode::take_op_outcomes`].
#[derive(Clone, Debug)]
pub struct OpOutcome {
    /// Operation id returned by `start_get`/`start_put`.
    pub op: u64,
    /// Get or put.
    pub kind: OpKind,
    /// The block key.
    pub key: Id,
    /// Whether the operation succeeded.
    pub ok: bool,
    /// The retrieved value (gets only; hash-verified).
    pub value: Option<Bytes>,
    /// Time from initiation to completion or failure.
    pub latency: SimDuration,
}

/// A DHT node drivable by the generic experiment harness.
///
/// All four systems in this crate implement it: [`DhashNode`], and the
/// Fast / Secure / Compromise VerDi variants.
///
/// [`DhashNode`]: crate::DhashNode
pub trait DhtNode: Node {
    /// Starts a `put(value)`. Returns the operation id; the outcome (and
    /// the block key) appears in [`take_op_outcomes`].
    ///
    /// [`take_op_outcomes`]: DhtNode::take_op_outcomes
    fn start_put(&mut self, value: Bytes, ctx: &mut Ctx<'_, Self::Msg, Self::Timer>) -> u64;

    /// Starts a `get(key)`. Returns the operation id.
    fn start_get(&mut self, key: Id, ctx: &mut Ctx<'_, Self::Msg, Self::Timer>) -> u64;

    /// Drains outcomes of operations that finished since the last call.
    fn take_op_outcomes(&mut self) -> Vec<OpOutcome>;

    /// Number of blocks stored locally (replica inspection for tests).
    fn stored_blocks(&self) -> usize;

    /// The local block store (replica placement inspection for the
    /// durability census and tests).
    fn store(&self) -> &crate::block::BlockStore;

    /// Repair work in flight on this node: outstanding repair probes plus
    /// pending read-repair operations. Feeds the
    /// [`keys::GAUGE_REPAIR_INFLIGHT`] monitor gauge.
    fn repair_inflight(&self) -> usize;
}

/// Configuration shared by all DHT implementations.
#[derive(Clone, Debug, PartialEq)]
pub struct DhtConfig {
    /// Replication factor `n` (DHash replicates on the `n` successors;
    /// VerDi splits `n/2` + `n/2` across the two typed replica points).
    pub replicas: usize,
    /// Deadline after which an operation is failed. This is a hard
    /// per-request bound: retries never extend it.
    pub op_deadline: SimDuration,
    /// Interval between background data-stabilization rounds.
    pub data_stabilize_interval: SimDuration,
    /// End-to-end retries after a failed attempt (0 disables retry).
    /// Each attempt also gets a slice of `op_deadline` as its own
    /// timeout, so an attempt stalled on a dead replica is retried
    /// instead of burning the whole deadline.
    pub max_retries: u32,
    /// Enables the active repair plane: periodic diff-based repair
    /// rounds, join/leave handoff, and read-repair. When false the node
    /// behaves exactly as before the repair plane existed (blind
    /// data-stabilization only).
    pub repair_enabled: bool,
    /// Interval between repair-round checks. A round only probes when
    /// the overlay neighborhood changed since the previous round, so a
    /// quiet ring sends no repair traffic at all.
    pub repair_interval: SimDuration,
    /// Redundant-path lookup fan-out (Secure-VerDi only): each attempt
    /// issues this many lookups with pairwise-disjoint first hops and
    /// takes the first verified answer. The default of 1 preserves the
    /// pre-adversary-plane behavior byte-for-byte.
    pub lookup_fanout: usize,
    /// Enables the per-hop suspicion counter: an attempt that fails twice
    /// in a row through the same first hop blacklists that hop for the
    /// operation's remaining retries and skips the backoff (deadline
    /// escalation). Off by default so honest runs stay byte-identical.
    pub hop_suspicion: bool,
    /// Enables the client-side hot-block cache: successful gets fill it,
    /// later gets for the same key are answered locally. Content
    /// addressing makes cached values always hash-valid; invalidation on
    /// block movement (store/replicate/repair) keeps the cache from
    /// masking placement changes. Off by default: cache-off runs are
    /// byte-identical to pre-plane output.
    pub cache_enabled: bool,
    /// Hot-block cache capacity in blocks; least-recently-used entries
    /// are evicted beyond it.
    pub cache_capacity: usize,
    /// Enables request coalescing: a get for a key with a get already in
    /// flight parks behind the leader and shares its single upstream
    /// fetch. Off by default.
    pub coalesce_gets: bool,
    /// Enables lookup-result memoization: the responsible address
    /// resolved by a get lookup is remembered for `memo_ttl` and reused
    /// by later first attempts, skipping the overlay lookup. Retries
    /// always drop the memo and re-resolve. Secure-VerDi is exempt — its
    /// certified lookups (§5.3.2) must not be bypassed. Off by default.
    pub memo_enabled: bool,
    /// Time-to-live of a memoized lookup result.
    pub memo_ttl: SimDuration,
    /// Per-fetch service time modeling the serving node's disk/CPU cost.
    /// Fetches for blocks queue FIFO on the serving node, which is what
    /// makes offered load saturate. Zero (the default) disables the
    /// queue entirely and preserves pre-plane behavior byte-for-byte.
    pub fetch_service_time: SimDuration,
}

impl Default for DhtConfig {
    fn default() -> Self {
        DhtConfig {
            replicas: 6,
            op_deadline: SimDuration::from_secs(30),
            data_stabilize_interval: SimDuration::from_secs(60),
            max_retries: 3,
            repair_enabled: true,
            repair_interval: SimDuration::from_secs(15),
            lookup_fanout: 1,
            hop_suspicion: false,
            cache_enabled: false,
            cache_capacity: 128,
            coalesce_gets: false,
            memo_enabled: false,
            memo_ttl: SimDuration::from_secs(30),
            fetch_service_time: SimDuration::ZERO,
        }
    }
}

impl DhtConfig {
    /// Validates parameter sanity.
    ///
    /// # Errors
    ///
    /// Returns an error if `replicas` is zero or odd (VerDi needs `n/2`
    /// per section), or an interval is zero.
    pub fn validate(&self) -> Result<(), verme_sim::InvalidConfig> {
        use verme_sim::config::ensure;
        ensure(self.replicas > 0, "replicas", "need at least one replica")?;
        ensure(
            self.replicas.is_multiple_of(2),
            "replicas",
            "replication factor must be even (n/2 per section)",
        )?;
        ensure(!self.op_deadline.is_zero(), "op_deadline", "must be positive")?;
        ensure(
            !self.data_stabilize_interval.is_zero(),
            "data_stabilize_interval",
            "must be positive",
        )?;
        ensure(
            !self.repair_enabled || !self.repair_interval.is_zero(),
            "repair_interval",
            "must be positive when repair is enabled",
        )?;
        ensure((1..=4).contains(&self.lookup_fanout), "lookup_fanout", "must be between 1 and 4")?;
        ensure(
            !self.cache_enabled || self.cache_capacity > 0,
            "cache_capacity",
            "must be positive when the cache is enabled",
        )?;
        ensure(
            !self.memo_enabled || !self.memo_ttl.is_zero(),
            "memo_ttl",
            "must be positive when memoization is enabled",
        )
    }

    /// Per-attempt timeout: the deadline split evenly across the maximum
    /// number of attempts, so a stalled attempt is abandoned in time to
    /// retry within the overall deadline.
    pub fn attempt_timeout(&self) -> SimDuration {
        self.op_deadline / (self.max_retries as u64 + 1)
    }

    /// Backoff before retry number `attempt` (1-based): 500 ms, doubling
    /// each time.
    pub fn backoff_for(&self, attempt: u32) -> SimDuration {
        const RETRY_BACKOFF: SimDuration = SimDuration::from_millis(500);
        RETRY_BACKOFF * 2u64.saturating_pow(attempt.saturating_sub(1))
    }
}

/// What a pending operation asked for. A put carries its block here, so
/// "a put without a value" cannot be represented.
#[derive(Clone, Debug)]
pub enum OpReq {
    /// A `get(key)`.
    Get,
    /// A `put(value)`: the block `start_put` built from the value.
    Put(Block),
}

impl OpReq {
    /// Get or put.
    pub fn kind(&self) -> OpKind {
        match self {
            OpReq::Get => OpKind::Get,
            OpReq::Put(_) => OpKind::Put,
        }
    }
}

/// A pending DHT operation tracked by an [`OpTable`].
pub struct PendingOp {
    /// Get, or put with the value being stored.
    pub req: OpReq,
    /// The block key.
    pub key: Id,
    /// When the operation started (the deadline anchors here).
    pub started: SimTime,
    /// Retries consumed so far (0 = first attempt).
    pub attempt: u32,
    /// Internal read-repair write: invisible to the harness (no
    /// [`OpOutcome`]) and to the foreground Figure-7 metrics; its data
    /// bytes are charged to [`keys::BYTES_REPLICATION`].
    pub repair: bool,
    /// First hop the current attempt routed through, recorded by the
    /// variant via [`OpTable::note_first_hop`] (suspicion tracking).
    pub last_hop: Option<Addr>,
    /// The first hop of the most recent *failed* attempt.
    pub prev_failed_hop: Option<Addr>,
    /// Consecutive failed attempts through `prev_failed_hop`.
    pub hop_strikes: u32,
    /// Hops this operation refuses to route through (suspected
    /// misrouters, blacklisted after two identical bad hops).
    pub avoid: Vec<Addr>,
}

/// What [`OpTable::finish`] resolved, for callers that react to
/// completions (read-repair triggers, repair-key dedup).
pub struct FinishedOp {
    /// Get or put.
    pub kind: OpKind,
    /// The block key.
    pub key: Id,
    /// Whether the operation succeeded.
    pub ok: bool,
    /// Retries the operation consumed.
    pub attempt: u32,
    /// Whether this was an internal read-repair write.
    pub repair: bool,
}

/// The operation lifecycle of the [`DhtEngine`](crate::DhtEngine): id
/// allocation, the hard per-request deadline, retry/backoff accounting,
/// metrics, trace events, and outcome collection.
///
/// Only *issuing* an attempt is variant-specific (each system routes its
/// request differently); everything around it lives here.
#[derive(Default)]
pub struct OpTable {
    next_op: u64,
    pending: HashMap<u64, PendingOp>,
    outcomes: Vec<OpOutcome>,
}

impl OpTable {
    /// Creates an empty table.
    pub fn new() -> Self {
        OpTable::default()
    }

    /// Registers a new operation: allocates its id, opens a fresh causal
    /// span, records it as pending, and arms the hard deadline timer.
    /// The caller must then issue the first attempt itself.
    ///
    /// With `repair` set this is an internal read-repair write: same
    /// lifecycle (deadline, retries, backoff), but the completion never
    /// surfaces as an [`OpOutcome`] and moves no foreground metrics —
    /// repair must stay invisible to Figure 7 and to harnesses counting
    /// operation results.
    pub fn start<M, T>(
        &mut self,
        req: OpReq,
        key: Id,
        repair: bool,
        cfg: &DhtConfig,
        ctx: &mut Ctx<'_, M, DhtTimer<T>>,
    ) -> u64 {
        let op = self.next_op;
        self.next_op += 1;
        ctx.begin_cause();
        let kind = if repair { "repair" } else { req.kind().label() };
        ctx.emit(ProtoEvent::OpStart { op, kind, key: key.raw() });
        if repair {
            ctx.metrics().count(keys::READ_REPAIR, 1);
        }
        self.pending.insert(
            op,
            PendingOp {
                req,
                key,
                started: ctx.now(),
                attempt: 0,
                repair,
                last_hop: None,
                prev_failed_hop: None,
                hop_strikes: 0,
                avoid: Vec::new(),
            },
        );
        ctx.set_timer(cfg.op_deadline, DhtTimer::OpDeadline { op });
        op
    }

    /// Pending internal read-repair writes (the node-local share of the
    /// [`keys::GAUGE_REPAIR_INFLIGHT`] gauge).
    pub fn repairs_pending(&self) -> usize {
        self.pending.values().filter(|p| p.repair).count()
    }

    /// The pending operation with this id, if still in flight.
    pub fn get(&self, op: u64) -> Option<&PendingOp> {
        self.pending.get(&op)
    }

    /// True if `op` is still pending on exactly this attempt number (used
    /// to discard stale per-attempt timers).
    pub fn attempt_matches(&self, op: u64, attempt: u32) -> bool {
        self.pending.get(&op).is_some_and(|p| p.attempt == attempt)
    }

    /// Records the first hop the current attempt routed through, for the
    /// per-hop suspicion counter. Call at issue time, before the attempt
    /// can fail.
    pub fn note_first_hop(&mut self, op: u64, hop: Option<Addr>) {
        if let Some(p) = self.pending.get_mut(&op) {
            p.last_hop = hop;
        }
    }

    /// The hops this operation currently refuses to route through.
    pub fn avoid(&self, op: u64) -> &[Addr] {
        self.pending.get(&op).map_or(&[], |p| p.avoid.as_slice())
    }

    /// One attempt failed (lookup failure, missing block, negative ack,
    /// attempt timeout). Retries with exponential backoff while the retry
    /// budget and the per-request deadline allow. Returns true when they
    /// do not: the op is exhausted, and the caller must finish it as
    /// failed the way it finishes every op, so that whatever it keeps
    /// beside the table (coalesced waiters, repair bookkeeping) settles.
    #[must_use]
    pub fn fail_attempt<M, T>(
        &mut self,
        op: u64,
        cfg: &DhtConfig,
        ctx: &mut Ctx<'_, M, DhtTimer<T>>,
    ) -> bool {
        let Some(p) = self.pending.get_mut(&op) else {
            return false;
        };
        let next_attempt = p.attempt + 1;
        let mut backoff = cfg.backoff_for(next_attempt);
        if cfg.hop_suspicion {
            // Per-hop suspicion: two consecutive failures through the
            // same first hop blacklist it for this operation's remaining
            // retries, and the retry fires immediately — against a
            // persistent misrouter, backing off onto the same route would
            // just burn the deadline.
            if let Some(h) = p.last_hop {
                if p.prev_failed_hop == Some(h) {
                    p.hop_strikes += 1;
                } else {
                    p.prev_failed_hop = Some(h);
                    p.hop_strikes = 1;
                }
                if p.hop_strikes >= 2 && !p.avoid.contains(&h) {
                    p.avoid.push(h);
                    backoff = SimDuration::from_millis(0);
                    if !p.repair {
                        ctx.metrics().count(keys::SUSPECT_REROUTES, 1);
                    }
                }
            }
        }
        let deadline = p.started + cfg.op_deadline;
        if next_attempt > cfg.max_retries || ctx.now() + backoff >= deadline {
            return true;
        }
        p.attempt = next_attempt;
        if !p.repair {
            ctx.metrics().count(keys::OP_RETRIES, 1);
        }
        ctx.emit(ProtoEvent::OpRetry { op, attempt: next_attempt });
        ctx.set_timer(backoff, DhtTimer::RetryOp { op });
        false
    }

    /// Completes (or fails) an operation: records latency and outcome
    /// metrics and queues the [`OpOutcome`] for the harness. Internal
    /// read-repair writes finish silently (trace event only) and are
    /// reported back to the caller via the returned [`FinishedOp`].
    pub fn finish<M, T>(
        &mut self,
        op: u64,
        ok: bool,
        value: Option<Bytes>,
        ctx: &mut Ctx<'_, M, T>,
    ) -> Option<FinishedOp> {
        let p = self.pending.remove(&op)?;
        let latency = ctx.now().saturating_since(p.started);
        let kind = p.req.kind();
        if p.repair {
            if ok {
                ctx.metrics().count(keys::REPAIR_PUSHED, 1);
            }
        } else if ok {
            if p.attempt > 0 {
                ctx.metrics().count(keys::OP_RECOVERED, 1);
            }
            match kind {
                OpKind::Get => {
                    ctx.metrics().record(keys::GET_LATENCY_MS, latency.as_millis_f64());
                    ctx.metrics().count(keys::GET_COMPLETED, 1);
                }
                OpKind::Put => {
                    ctx.metrics().record(keys::PUT_LATENCY_MS, latency.as_millis_f64());
                    ctx.metrics().count(keys::PUT_COMPLETED, 1);
                }
            }
        } else {
            ctx.metrics().count(keys::OP_FAILED, 1);
        }
        ctx.emit(ProtoEvent::OpEnd { op, ok });
        if !p.repair {
            self.outcomes.push(OpOutcome { op, kind, key: p.key, ok, value, latency });
        }
        Some(FinishedOp { kind, key: p.key, ok, attempt: p.attempt, repair: p.repair })
    }

    /// Drains outcomes of operations that finished since the last call.
    pub fn take_outcomes(&mut self) -> Vec<OpOutcome> {
        std::mem::take(&mut self.outcomes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_config_is_valid() {
        let cfg = DhtConfig::default();
        cfg.validate().expect("default config is valid");
        assert_eq!(cfg.replicas, 6);
    }

    #[test]
    fn odd_replication_rejected() {
        let err = DhtConfig { replicas: 5, ..Default::default() }
            .validate()
            .expect_err("odd replication factor must be rejected");
        assert_eq!(err.field, "replicas");
        assert!(err.constraint.contains("even"));
    }
}
