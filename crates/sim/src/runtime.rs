//! The node runtime: protocol state machines, message delivery, timers,
//! churn, and byte accounting.
//!
//! A protocol (Chord, Verme, a DHT, ...) is written as a type implementing
//! [`Node`]: a state machine that reacts to message arrivals and timer
//! firings by emitting new messages and timers through its [`Ctx`]. The
//! [`Runtime`] owns all live nodes, delivers messages with delays computed
//! by a [`LatencyModel`], and supports churn via
//! [`spawn`](Runtime::spawn) / [`kill`](Runtime::kill).
//!
//! Messages sent to a node that is dead at delivery time are silently
//! dropped, exactly as UDP datagrams to a crashed host would be; protocols
//! are responsible for their own timeouts.

use std::collections::HashSet;

use rand::rngs::StdRng;
use rand::Rng;

use crate::event::EventQueue;
use crate::metrics::MetricsSink;
use crate::profile::{ProfScope, Scope};
use crate::rng::SeedSource;
use crate::time::{SimDuration, SimTime};
use crate::trace::{CauseId, ProtoEvent, TraceEvent, TraceKind, Tracer};

/// Identifies a physical host (an index into the latency model's matrix).
///
/// Several node incarnations may run on the same host over the lifetime of
/// a simulation (a host whose node died may later rejoin with a fresh id).
#[derive(Copy, Clone, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct HostId(pub usize);

/// The network address of one node *incarnation*.
///
/// An `Addr` is unique for the lifetime of a run: when a node dies and its
/// host rejoins the overlay, the new incarnation gets a fresh `Addr`. This
/// mirrors the paper's threat model, where what a worm harvests is a set of
/// addresses it can attack.
#[derive(Copy, Clone, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Addr(u64);

impl Addr {
    /// A reserved address that never names a live node.
    pub const NULL: Addr = Addr(0);

    /// Creates an address from a raw incarnation number.
    ///
    /// Runtime-spawned nodes are assigned addresses automatically; this
    /// constructor exists for *static* overlay construction (the worm
    /// experiments build 100 000-node rings directly, without running the
    /// join protocol) and for tests.
    pub const fn from_raw(raw: u64) -> Addr {
        Addr(raw)
    }

    /// The raw incarnation number (stable, unique per run).
    pub const fn raw(self) -> u64 {
        self.0
    }
}

/// Wire-size accounting for protocol messages.
///
/// The runtime charges `wire_size()` bytes to the sender and receiver for
/// every message, and the latency model may add serialization delay
/// proportional to it. Sizes are modelled, not serialized: implementations
/// return the size the message *would* have on the wire.
pub trait Wire {
    /// The modelled size of this message in bytes, including headers.
    fn wire_size(&self) -> usize;
}

/// Computes one-way message delay between two hosts.
///
/// Implementations live in `verme-net` (synthetic King matrix, transit-stub
/// topologies). `bytes` lets bandwidth-aware models add serialization time
/// for large data transfers; pure latency models ignore it.
pub trait LatencyModel {
    /// One-way delay for a `bytes`-sized message from `from` to `to`.
    fn delay(&mut self, from: HostId, to: HostId, bytes: usize) -> SimDuration;

    /// Number of hosts this model can address (hosts are `0..num_hosts`).
    fn num_hosts(&self) -> usize;
}

/// A protocol state machine driven by the [`Runtime`].
///
/// All side effects go through the [`Ctx`]: sending messages, arming
/// timers, recording metrics. Handlers must not block and must not assume
/// any real-world time passes while they execute.
pub trait Node: Sized {
    /// Message type exchanged between nodes of this protocol.
    ///
    /// `Clone` lets the network inject duplicate deliveries during a
    /// [`Fault::Duplicate`](crate::fault::Fault::Duplicate) window; with
    /// duplication off the clone path is never taken.
    type Msg: Wire + Clone;
    /// Timer token type; delivered back verbatim when a timer fires.
    type Timer;

    /// Called once when the node is spawned into the runtime.
    fn on_start(&mut self, ctx: &mut Ctx<'_, Self::Msg, Self::Timer>);

    /// Called when a message from `from` arrives.
    fn on_message(&mut self, from: Addr, msg: Self::Msg, ctx: &mut Ctx<'_, Self::Msg, Self::Timer>);

    /// Called when a previously armed timer fires.
    fn on_timer(&mut self, timer: Self::Timer, ctx: &mut Ctx<'_, Self::Msg, Self::Timer>);

    /// Called when the node leaves gracefully (a planned departure, as
    /// opposed to a crash). The node may send farewell messages — e.g.
    /// handing its successor list to its neighbors — which are flushed
    /// before it is removed. Crashes never invoke this. Default: no-op.
    fn on_shutdown(&mut self, _ctx: &mut Ctx<'_, Self::Msg, Self::Timer>) {}
}

/// The effect interface handed to every [`Node`] hook.
///
/// A `Ctx` buffers the node's outgoing messages and timer requests; the
/// runtime flushes them after the hook returns. It also exposes the clock,
/// the node's own address, a deterministic RNG, and the shared metrics sink.
pub struct Ctx<'a, M, T> {
    now: SimTime,
    self_addr: Addr,
    rng: &'a mut StdRng,
    metrics: &'a mut MetricsSink,
    /// The causal span the current handler runs under: the cause attached
    /// to the message or timer being processed, or a span begun by the
    /// handler itself. Buffered sends, timers and emissions inherit it.
    cause: Option<CauseId>,
    next_cause: &'a mut CauseId,
    trace_on: bool,
    sends: Vec<(Addr, M, Option<CauseId>)>,
    timers: Vec<(SimDuration, T, Option<CauseId>)>,
    events: Vec<(Option<CauseId>, ProtoEvent)>,
}

impl<'a, M, T> Ctx<'a, M, T> {
    /// Current simulation time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// This node's own address.
    pub fn self_addr(&self) -> Addr {
        self.self_addr
    }

    /// Sends `msg` to `to`. Delivery is asynchronous and unreliable: if the
    /// destination is dead at delivery time the message vanishes.
    ///
    /// The message carries the current [`cause`](Ctx::cause); the
    /// receiving handler resumes that span.
    pub fn send(&mut self, to: Addr, msg: M) {
        self.sends.push((to, msg, self.cause));
    }

    /// Arms a timer to fire after `delay` with the given token.
    ///
    /// Timers cannot be cancelled; nodes should validate tokens when they
    /// fire (e.g. by matching against a current operation id). The timer
    /// carries the current [`cause`](Ctx::cause); the firing handler
    /// resumes that span (which is how retries stay attributed to their
    /// root operation).
    pub fn set_timer(&mut self, delay: SimDuration, timer: T) {
        self.timers.push((delay, timer, self.cause));
    }

    /// Deterministic random-number generator.
    pub fn rng(&mut self) -> &mut StdRng {
        self.rng
    }

    /// The run-wide metrics sink.
    pub fn metrics(&mut self) -> &mut MetricsSink {
        self.metrics
    }

    /// The causal span this handler currently runs under, if any.
    pub fn cause(&self) -> Option<CauseId> {
        self.cause
    }

    /// Begins a fresh causal span and makes it current: subsequent sends,
    /// timers and emissions belong to it. Call this at each *root*
    /// operation (a DHT get/put, a maintenance tick).
    ///
    /// Cause ids come from a plain per-runtime counter — never from the
    /// simulation RNG — so beginning spans cannot perturb a run.
    pub fn begin_cause(&mut self) -> CauseId {
        let id = *self.next_cause;
        *self.next_cause += 1;
        self.cause = Some(id);
        id
    }

    /// The current span, or a fresh one if the handler runs outside any
    /// span. Used by operations that are roots when invoked directly but
    /// sub-operations when a parent (e.g. a DHT op driving an overlay
    /// lookup) already owns the span.
    pub fn ensure_cause(&mut self) -> CauseId {
        match self.cause {
            Some(id) => id,
            None => self.begin_cause(),
        }
    }

    /// True if a tracer is installed on the runtime. Lets protocols skip
    /// building expensive event payloads when nobody is listening; plain
    /// [`emit`](Ctx::emit) calls are already cheap either way.
    pub fn tracing(&self) -> bool {
        self.trace_on
    }

    /// Emits a protocol-level event under the current cause. No-op (no
    /// buffering, no allocation) when tracing is disabled.
    pub fn emit(&mut self, event: ProtoEvent) {
        if self.trace_on {
            self.events.push((self.cause, event));
        }
    }

    /// Runs `f` with a context of a *different* message/timer type, then
    /// maps its effects back into this context.
    ///
    /// This is how layered protocols compose: a DHT node whose message
    /// enum wraps the overlay's messages delegates to the overlay's
    /// handlers through `nested`, wrapping each produced message and timer
    /// on the way out. The causal span is shared: the inner context starts
    /// under the outer's current cause, and a span begun inside (e.g. by
    /// an overlay lookup invoked outside any parent op) survives the
    /// return.
    pub fn nested<M2, T2, R>(
        &mut self,
        f: impl FnOnce(&mut Ctx<'_, M2, T2>) -> R,
        map_msg: impl Fn(M2) -> M,
        map_timer: impl Fn(T2) -> T,
    ) -> R {
        let mut inner: Ctx<'_, M2, T2> = Ctx {
            now: self.now,
            self_addr: self.self_addr,
            rng: &mut *self.rng,
            metrics: &mut *self.metrics,
            cause: self.cause,
            next_cause: &mut *self.next_cause,
            trace_on: self.trace_on,
            sends: Vec::new(),
            timers: Vec::new(),
            events: Vec::new(),
        };
        let out = f(&mut inner);
        let Ctx { cause, sends, timers, events, .. } = inner;
        self.cause = cause;
        self.sends.extend(sends.into_iter().map(|(to, m, c)| (to, map_msg(m), c)));
        self.timers.extend(timers.into_iter().map(|(d, t, c)| (d, map_timer(t), c)));
        self.events.extend(events);
        out
    }
}

/// Aggregate network statistics for a run.
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub struct NetStats {
    /// Messages handed to the network by senders.
    pub messages_sent: u64,
    /// Total bytes handed to the network by senders.
    pub bytes_sent: u64,
    /// Messages delivered to a live node.
    pub messages_delivered: u64,
    /// Messages dropped (dead destination or injected loss).
    pub messages_dropped: u64,
    /// Messages dropped because they crossed an active network partition.
    pub partition_dropped: u64,
    /// Extra copies injected by message duplication
    /// ([`Fault::Duplicate`](crate::fault::Fault::Duplicate) windows; not
    /// counted in `messages_sent`).
    pub messages_duplicated: u64,
    /// Messages given extra reordering jitter by an active reorder window.
    pub messages_reordered: u64,
}

enum RtEvent<M, T> {
    Deliver { from: Addr, to: Addr, msg: M, cause: Option<CauseId> },
    Timer { node: Addr, timer: T, cause: Option<CauseId> },
}

/// One assigned address: the host it was spawned on, which outlives the
/// node, and the node itself while it is alive. Boxed, so that a dead
/// address costs a pointer and not a node.
struct Slot<N> {
    host: HostId,
    node: Option<Box<N>>,
}

/// Where the table keeps `addr`. Addresses are handed out densely from 1
/// and never reused, so the table is a vector indexed by the raw address;
/// `Addr::NULL` and addresses nobody assigned have no slot.
fn slot_index(addr: Addr) -> Option<usize> {
    usize::try_from(addr.0.checked_sub(1)?).ok()
}

fn slot_of<N>(slots: &[Slot<N>], addr: Addr) -> Option<&Slot<N>> {
    slots.get(slot_index(addr)?)
}

fn slot_of_mut<N>(slots: &mut [Slot<N>], addr: Addr) -> Option<&mut Slot<N>> {
    slots.get_mut(slot_index(addr)?)
}

/// The live nodes of `slots`, in ascending address order.
fn live_nodes<N>(slots: &[Slot<N>]) -> impl Iterator<Item = (Addr, &N)> {
    (1u64..).zip(slots).filter_map(|(raw, slot)| Some((Addr(raw), slot.node.as_deref()?)))
}

/// A read-only snapshot of the runtime handed to a [`Sampler`] hook.
///
/// The view deliberately exposes no mutable access: samplers observe the
/// run, they never steer it. Anything a sampler computes therefore cannot
/// perturb the simulation, and a run with a sampler installed is
/// byte-identical to one without.
pub struct SampleView<'a, N: Node> {
    now: SimTime,
    metrics: &'a MetricsSink,
    stats: NetStats,
    pending: usize,
    alive: usize,
    slots: &'a [Slot<N>],
}

impl<'a, N: Node> SampleView<'a, N> {
    /// The simulated time of this sample point.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// The run-wide metrics sink (read-only).
    pub fn metrics(&self) -> &'a MetricsSink {
        self.metrics
    }

    /// Aggregate network statistics at this sample point.
    pub fn stats(&self) -> NetStats {
        self.stats
    }

    /// Number of events pending in the queue.
    pub fn pending_events(&self) -> usize {
        self.pending
    }

    /// Number of live nodes.
    pub fn num_alive(&self) -> usize {
        self.alive
    }

    /// Read access to the node at `addr`, if alive.
    pub fn node(&self, addr: Addr) -> Option<&'a N> {
        slot_of(self.slots, addr)?.node.as_deref()
    }

    /// All live nodes, in ascending address order: the same sequence in
    /// every process, so a sampler may fold per-node values into
    /// something order-sensitive.
    pub fn nodes(&self) -> impl Iterator<Item = (Addr, &'a N)> + '_ {
        live_nodes(self.slots)
    }
}

/// A periodic sampling hook: called every `sample_interval` of simulated
/// time with a read-only [`SampleView`]. See
/// [`Runtime::set_sampler`](Runtime::set_sampler).
pub type Sampler<N> = Box<dyn FnMut(&SampleView<'_, N>)>;

struct SamplerSlot<N: Node> {
    interval: SimDuration,
    next: SimTime,
    hook: Sampler<N>,
}

/// What a [`StepAssertor`] asks the runtime to record after evaluating a
/// step: counter increments and histogram samples, applied to the run's
/// [`MetricsSink`] once the read-only view is
/// released. Keeping the hook itself read-only means an assertor can
/// never perturb protocol state — assertor-on runs are message-for-message
/// identical to assertor-off runs, only their metric export differs.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct AssertorVerdict {
    /// `(key, increment)` counter bumps; zero increments are skipped.
    pub counts: Vec<(&'static str, u64)>,
    /// `(key, value)` histogram samples.
    pub records: Vec<(&'static str, f64)>,
}

impl AssertorVerdict {
    /// A verdict that records nothing.
    pub fn empty() -> Self {
        Self::default()
    }
}

/// A per-step invariant hook: called after **every** processed event with
/// a read-only [`SampleView`] of the post-event global state. See
/// [`Runtime::set_step_assertor`](Runtime::set_step_assertor).
pub type StepAssertor<N> = Box<dyn FnMut(&SampleView<'_, N>) -> AssertorVerdict>;

/// The discrete-event node runtime.
///
/// Owns the clock, the event queue, all live nodes, and the latency model.
/// Drive it with [`step`](Runtime::step) / [`run_until`](Runtime::run_until),
/// interleaving experiment actions (spawns, kills, injected operations via
/// [`invoke`](Runtime::invoke)) as needed.
///
/// # Example
///
/// ```
/// use verme_sim::{Addr, Ctx, HostId, Node, Runtime, SimDuration, SimTime, Wire};
/// use verme_sim::runtime::UniformLatency;
///
/// struct Ping;
/// #[derive(Clone)]
/// struct Msg;
/// impl Wire for Msg { fn wire_size(&self) -> usize { 20 } }
/// impl Node for Ping {
///     type Msg = Msg;
///     type Timer = ();
///     fn on_start(&mut self, _ctx: &mut Ctx<'_, Msg, ()>) {}
///     fn on_message(&mut self, from: Addr, _m: Msg, ctx: &mut Ctx<'_, Msg, ()>) {
///         // reflect the message once
///         if ctx.now() < SimTime::from_nanos(1_000_000_000) {
///             ctx.send(from, Msg);
///         }
///     }
///     fn on_timer(&mut self, _t: (), _ctx: &mut Ctx<'_, Msg, ()>) {}
/// }
///
/// let mut rt = Runtime::new(UniformLatency::new(2, SimDuration::from_millis(10)), 42);
/// let a = rt.spawn(HostId(0), Ping);
/// let b = rt.spawn(HostId(1), Ping);
/// rt.invoke(a, |_node, ctx| ctx.send(b, Msg));
/// rt.run_until(SimTime::from_nanos(2_000_000_000));
/// assert!(rt.stats().messages_delivered > 0);
/// ```
pub struct Runtime<N: Node, L> {
    now: SimTime,
    /// Pending events by slot number into `events`: the heap sifts
    /// 24-byte entries whatever the message type.
    queue: EventQueue<u32>,
    /// The pending events themselves; `None` marks a slot listed in `free`.
    events: Vec<Option<RtEvent<N::Msg, N::Timer>>>,
    free: Vec<u32>,
    /// Every address ever assigned, dead ones included ([`slot_index`]).
    slots: Vec<Slot<N>>,
    alive: usize,
    /// The buffers every [`Ctx`] collects its effects in, empty between
    /// hooks; reused so that a handler that sends does not allocate.
    sends: Vec<(Addr, N::Msg, Option<CauseId>)>,
    timers: Vec<(SimDuration, N::Timer, Option<CauseId>)>,
    latency: L,
    rng: StdRng,
    metrics: MetricsSink,
    stats: NetStats,
    next_cause: CauseId,
    loss_rate: f64,
    latency_factor: f64,
    dup_rate: f64,
    reorder_rate: f64,
    reorder_window: SimDuration,
    partition: Option<HashSet<HostId>>,
    tracer: Option<Tracer>,
    sampler: Option<SamplerSlot<N>>,
    assertor: Option<StepAssertor<N>>,
}

impl<N: Node, L: LatencyModel> Runtime<N, L> {
    /// Creates a runtime over the given latency model, seeded for
    /// reproducibility.
    pub fn new(latency: L, seed: u64) -> Self {
        Runtime {
            now: SimTime::ZERO,
            queue: EventQueue::new(),
            events: Vec::new(),
            free: Vec::new(),
            slots: Vec::new(),
            alive: 0,
            sends: Vec::new(),
            timers: Vec::new(),
            latency,
            rng: SeedSource::new(seed).stream("runtime"),
            metrics: MetricsSink::new(),
            stats: NetStats::default(),
            next_cause: 1,
            loss_rate: 0.0,
            latency_factor: 1.0,
            dup_rate: 0.0,
            reorder_rate: 0.0,
            reorder_window: SimDuration::ZERO,
            partition: None,
            tracer: None,
            sampler: None,
            assertor: None,
        }
    }

    /// Installs a tracing hook receiving every structural event
    /// (spawn/kill/send/deliver/drop) and every protocol emission, each
    /// timestamped and cause-attributed. Pass `None` to remove it. A
    /// [`FlightRecorder`](crate::FlightRecorder) handle's
    /// [`tracer()`](crate::FlightRecorder::tracer) is the usual hook.
    ///
    /// With no tracer installed, tracing is zero-cost: protocol
    /// [`emit`](Ctx::emit)s are discarded before buffering and the run is
    /// byte-identical to an untraced one.
    pub fn set_tracer(&mut self, tracer: Option<Tracer>) {
        self.tracer = tracer;
    }

    fn trace(&mut self, cause: Option<CauseId>, kind: TraceKind) {
        if let Some(t) = self.tracer.as_mut() {
            t(&TraceEvent { at: self.now, cause, kind });
        }
    }

    /// Installs a periodic sampling hook fired on the **simulated** clock:
    /// the first sample at `now + interval`, then every `interval`
    /// thereafter, interleaved in timestamp order with event processing. A
    /// sample at time *t* observes the state produced by every event
    /// scheduled strictly before *t* (events at exactly *t* run after the
    /// sample). The hook receives a read-only [`SampleView`], so sampling
    /// cannot perturb the run; with no sampler installed the event loop
    /// pays a single `Option` check per step.
    ///
    /// # Panics
    ///
    /// Panics if `interval` is zero.
    pub fn set_sampler(&mut self, interval: SimDuration, hook: Sampler<N>) {
        assert!(interval > SimDuration::ZERO, "sample interval must be positive");
        self.sampler = Some(SamplerSlot { interval, next: self.now + interval, hook });
    }

    /// Removes the sampling hook, if any.
    pub fn clear_sampler(&mut self) {
        self.sampler = None;
    }

    /// Installs a continuous invariant assertor: after **every** processed
    /// event (message delivery or timer — in particular after every
    /// stabilization, notify, and rectify step), the hook observes the
    /// post-event global state through a read-only [`SampleView`] and
    /// returns an [`AssertorVerdict`] of metrics to record. The runtime
    /// applies the verdict to the metrics sink after the view is dropped.
    ///
    /// Because the hook cannot mutate nodes, the network, or the RNG, a
    /// run with an assertor installed delivers exactly the same messages
    /// in exactly the same order as one without — only metric export
    /// differs. With no assertor installed the event loop pays a single
    /// `Option` check per step, keeping assertor-off runs byte-identical
    /// to pre-hook builds. Expensive checks should cheap-skip internally
    /// (e.g. fingerprint ring state and re-evaluate only on change).
    pub fn set_step_assertor(&mut self, hook: StepAssertor<N>) {
        self.assertor = Some(hook);
    }

    /// Fires the step assertor against the current state, then applies
    /// its verdict to the metrics sink.
    fn fire_assertor(&mut self) {
        // Take the slot so the hook can borrow the rest of `self` freely.
        let Some(mut hook) = self.assertor.take() else {
            return;
        };
        let _span = ProfScope::enter(Scope::ObsRecord);
        let verdict = {
            let view = SampleView {
                now: self.now,
                metrics: &self.metrics,
                stats: self.stats,
                pending: self.queue.len(),
                alive: self.alive,
                slots: &self.slots,
            };
            hook(&view)
        };
        for (key, n) in verdict.counts {
            if n > 0 {
                self.metrics.count(key, n);
            }
        }
        for (key, v) in verdict.records {
            self.metrics.record(key, v);
        }
        self.assertor = Some(hook);
    }

    /// Fires every due sample point up to and including `t`, advancing the
    /// clock to each sample point as it fires.
    fn fire_samples_until(&mut self, t: SimTime) {
        // Take the slot so the hook can borrow the rest of `self` freely.
        let Some(mut slot) = self.sampler.take() else {
            return;
        };
        let _span = ProfScope::enter(Scope::ObsRecord);
        while slot.next <= t {
            if self.now < slot.next {
                self.now = slot.next;
            }
            let view = SampleView {
                now: self.now,
                metrics: &self.metrics,
                stats: self.stats,
                pending: self.queue.len(),
                alive: self.alive,
                slots: &self.slots,
            };
            (slot.hook)(&view);
            slot.next += slot.interval;
        }
        self.sampler = Some(slot);
    }

    /// Current simulation time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Sets an i.i.d. message-loss probability (failure injection).
    ///
    /// # Panics
    ///
    /// Panics if `rate` is outside `[0, 1]`.
    pub fn set_loss_rate(&mut self, rate: f64) {
        assert!((0.0..=1.0).contains(&rate), "loss rate must be in [0,1]");
        self.loss_rate = rate;
    }

    /// The current i.i.d. message-loss probability.
    pub fn loss_rate(&self) -> f64 {
        self.loss_rate
    }

    /// Sets a multiplicative factor applied to every link delay (latency
    /// spike injection; `1.0` is nominal).
    ///
    /// # Panics
    ///
    /// Panics unless `factor` is finite and positive.
    pub fn set_latency_factor(&mut self, factor: f64) {
        assert!(factor.is_finite() && factor > 0.0, "latency factor must be finite and positive");
        self.latency_factor = factor;
    }

    /// The current latency multiplier.
    pub fn latency_factor(&self) -> f64 {
        self.latency_factor
    }

    /// Sets an i.i.d. message-duplication probability: each message that
    /// survives loss and partition filtering is delivered a second time
    /// with that probability, the extra copy landing between 1× and 2× the
    /// original's delay. `0.0` (the default) draws no randomness at all,
    /// so duplication-off runs are byte-identical to pre-knob builds.
    ///
    /// # Panics
    ///
    /// Panics if `rate` is outside `[0, 1]`.
    pub fn set_dup_rate(&mut self, rate: f64) {
        assert!((0.0..=1.0).contains(&rate), "duplication rate must be in [0,1]");
        self.dup_rate = rate;
    }

    /// The current i.i.d. message-duplication probability.
    pub fn dup_rate(&self) -> f64 {
        self.dup_rate
    }

    /// Sets bounded delivery reordering: each message is, with probability
    /// `rate`, delayed by an extra uniform draw from `(0, window]`, letting
    /// later sends overtake it by up to `window`. A `rate` of `0.0` (the
    /// default) draws no randomness, keeping reorder-off runs
    /// byte-identical to pre-knob builds.
    ///
    /// # Panics
    ///
    /// Panics if `rate` is outside `[0, 1]`, or if `rate` is positive with
    /// a zero `window`.
    pub fn set_reorder(&mut self, rate: f64, window: SimDuration) {
        assert!((0.0..=1.0).contains(&rate), "reorder rate must be in [0,1]");
        assert!(rate == 0.0 || !window.is_zero(), "reorder window must be non-zero");
        self.reorder_rate = rate;
        self.reorder_window = window;
    }

    /// The current reordering probability.
    pub fn reorder_rate(&self) -> f64 {
        self.reorder_rate
    }

    /// The current reordering jitter bound.
    pub fn reorder_window(&self) -> SimDuration {
        self.reorder_window
    }

    /// Installs (or clears) a network partition: messages between a host
    /// inside `side` and one outside it are dropped until the partition is
    /// cleared. Intra-side traffic is unaffected.
    pub fn set_partition(&mut self, side: Option<HashSet<HostId>>) {
        self.partition = side.filter(|s| !s.is_empty());
    }

    /// True if a partition is currently active.
    pub fn is_partitioned(&self) -> bool {
        self.partition.is_some()
    }

    /// Spawns a node on `host`, returning its fresh address.
    ///
    /// # Panics
    ///
    /// Panics if `host` is outside the latency model's host range.
    pub fn spawn(&mut self, host: HostId, node: N) -> Addr {
        assert!(
            host.0 < self.latency.num_hosts(),
            "host {} out of range ({} hosts)",
            host.0,
            self.latency.num_hosts()
        );
        self.slots.push(Slot { host, node: Some(Box::new(node)) });
        self.alive += 1;
        let addr = Addr(self.slots.len() as u64);
        self.trace(None, TraceKind::Spawn { addr, host });
        self.with_ctx(addr, |node, ctx| node.on_start(ctx));
        addr
    }

    /// Kills the node at `addr`, if alive. In-flight messages to it will be
    /// dropped at delivery time; its pending timers become no-ops.
    pub fn kill(&mut self, addr: Addr) -> bool {
        let removed = slot_of_mut(&mut self.slots, addr).and_then(|s| s.node.take()).is_some();
        if removed {
            self.alive -= 1;
            self.trace(None, TraceKind::Kill { addr });
        }
        removed
    }

    /// Gracefully shuts down the node at `addr`: its
    /// [`on_shutdown`](Node::on_shutdown) hook runs (farewell messages are
    /// flushed into the network) and then the node is removed. Returns
    /// `false` if the node was already dead.
    ///
    /// Contrast with [`kill`](Runtime::kill), which models a crash and
    /// gives the node no chance to say goodbye.
    pub fn shutdown(&mut self, addr: Addr) -> bool {
        if !self.is_alive(addr) {
            return false;
        }
        self.with_ctx(addr, |node, ctx| node.on_shutdown(ctx));
        self.kill(addr)
    }

    /// True if `addr` names a live node.
    pub fn is_alive(&self, addr: Addr) -> bool {
        self.node(addr).is_some()
    }

    /// The host a (live or dead) address was spawned on, if it ever existed.
    pub fn host_of(&self, addr: Addr) -> Option<HostId> {
        Some(slot_of(&self.slots, addr)?.host)
    }

    /// Shared read access to the node at `addr`.
    pub fn node(&self, addr: Addr) -> Option<&N> {
        slot_of(&self.slots, addr)?.node.as_deref()
    }

    /// Mutable access to the node at `addr` (for experiment harnesses; side
    /// effects should go through [`invoke`](Runtime::invoke) instead).
    pub fn node_mut(&mut self, addr: Addr) -> Option<&mut N> {
        slot_of_mut(&mut self.slots, addr)?.node.as_deref_mut()
    }

    /// Addresses of all live nodes, in ascending address order.
    pub fn alive_addrs(&self) -> impl Iterator<Item = Addr> + '_ {
        live_nodes(&self.slots).map(|(addr, _)| addr)
    }

    /// Number of live nodes.
    pub fn num_alive(&self) -> usize {
        self.alive
    }

    /// Invokes a closure on a live node with a full effect context, flushing
    /// any messages or timers it produces. Returns `None` if `addr` is dead.
    ///
    /// This is how experiment drivers inject operations (e.g. "issue a
    /// lookup now") without going through the network.
    pub fn invoke<R>(
        &mut self,
        addr: Addr,
        f: impl FnOnce(&mut N, &mut Ctx<'_, N::Msg, N::Timer>) -> R,
    ) -> Option<R> {
        if !self.is_alive(addr) {
            return None;
        }
        Some(self.with_ctx(addr, f))
    }

    /// The run-wide metrics sink.
    pub fn metrics(&self) -> &MetricsSink {
        &self.metrics
    }

    /// Mutable run-wide metrics sink.
    pub fn metrics_mut(&mut self) -> &mut MetricsSink {
        &mut self.metrics
    }

    /// Aggregate network statistics.
    pub fn stats(&self) -> NetStats {
        self.stats
    }

    /// The latency model.
    pub fn latency(&self) -> &L {
        &self.latency
    }

    /// Time of the next pending event, if any.
    pub fn peek_time(&self) -> Option<SimTime> {
        self.queue.peek_time()
    }

    /// Number of pending events.
    pub fn pending_events(&self) -> usize {
        self.queue.len()
    }

    /// Event slots ever allocated, free ones included.
    #[cfg(test)]
    fn event_slots(&self) -> usize {
        self.events.len()
    }

    /// Processes the next event, advancing the clock. Returns `false` if the
    /// queue was empty. Due sample points fire first, in timestamp order.
    pub fn step(&mut self) -> bool {
        let Some(next_t) = self.queue.peek_time() else {
            return false;
        };
        if self.sampler.is_some() {
            self.fire_samples_until(next_t);
        }
        let (at, slot) = self.queue.pop().expect("event peeked above");
        debug_assert!(at >= self.now, "event queue went backwards");
        self.now = at;
        let ev = self.events[slot as usize].take().expect("a queued slot holds its event");
        self.free.push(slot);
        match ev {
            RtEvent::Deliver { from, to, msg, cause } => {
                if self.is_alive(to) {
                    let _span = ProfScope::enter(Scope::SimDeliver);
                    self.stats.messages_delivered += 1;
                    self.trace(cause, TraceKind::Deliver { from, to });
                    self.with_ctx_caused(to, cause, |node, ctx| node.on_message(from, msg, ctx));
                } else {
                    let _span = ProfScope::enter(Scope::SimDeadLetter);
                    self.stats.messages_dropped += 1;
                    self.trace(cause, TraceKind::Drop { to });
                }
            }
            RtEvent::Timer { node, timer, cause } => {
                let _span = ProfScope::enter(Scope::SimTimer);
                if self.is_alive(node) {
                    self.with_ctx_caused(node, cause, |n, ctx| n.on_timer(timer, ctx));
                }
            }
        }
        if self.assertor.is_some() {
            self.fire_assertor();
        }
        true
    }

    /// Processes every event scheduled at or before `deadline`, leaving the
    /// clock at `deadline` (or later if an event moved it there). Sample
    /// points due by `deadline` fire even if no event follows them.
    pub fn run_until(&mut self, deadline: SimTime) {
        while let Some(t) = self.queue.peek_time() {
            if t > deadline {
                break;
            }
            self.step();
        }
        if self.sampler.is_some() {
            self.fire_samples_until(deadline);
        }
        if self.now < deadline {
            self.now = deadline;
        }
    }

    /// Runs until the event queue is completely drained.
    pub fn run_to_quiescence(&mut self) {
        while self.step() {}
    }

    /// Parks `ev` in a free slot of `events` and queues the slot number.
    fn schedule(&mut self, at: SimTime, ev: RtEvent<N::Msg, N::Timer>) {
        let slot = match self.free.pop() {
            Some(slot) => {
                self.events[slot as usize] = Some(ev);
                slot
            }
            None => {
                self.events.push(Some(ev));
                u32::try_from(self.events.len() - 1).expect("over u32::MAX pending events")
            }
        };
        self.queue.schedule(at, slot);
    }

    fn with_ctx<R>(
        &mut self,
        addr: Addr,
        f: impl FnOnce(&mut N, &mut Ctx<'_, N::Msg, N::Timer>) -> R,
    ) -> R {
        self.with_ctx_caused(addr, None, f)
    }

    fn with_ctx_caused<R>(
        &mut self,
        addr: Addr,
        cause: Option<CauseId>,
        f: impl FnOnce(&mut N, &mut Ctx<'_, N::Msg, N::Timer>) -> R,
    ) -> R {
        let trace_on = self.tracer.is_some();
        let slot = slot_of_mut(&mut self.slots, addr).expect("with_ctx on an unassigned address");
        let from_host = slot.host;
        let node = slot.node.as_deref_mut().expect("with_ctx on dead node");
        let mut ctx = Ctx {
            now: self.now,
            self_addr: addr,
            rng: &mut self.rng,
            metrics: &mut self.metrics,
            cause,
            next_cause: &mut self.next_cause,
            trace_on,
            sends: std::mem::take(&mut self.sends),
            timers: std::mem::take(&mut self.timers),
            events: Vec::new(),
        };
        let out = f(node, &mut ctx);
        let Ctx { mut sends, mut timers, events, .. } = ctx;
        for (cause, event) in events {
            self.trace(cause, TraceKind::Proto { node: addr, event });
        }
        for (to, msg, cause) in sends.drain(..) {
            let bytes = msg.wire_size();
            self.stats.messages_sent += 1;
            self.stats.bytes_sent += bytes as u64;
            self.trace(cause, TraceKind::Send { from: addr, to, bytes });
            if self.loss_rate > 0.0 && self.rng.gen::<f64>() < self.loss_rate {
                self.stats.messages_dropped += 1;
                self.trace(cause, TraceKind::Drop { to });
                continue;
            }
            let to_host = match slot_of(&self.slots, to) {
                Some(slot) => slot.host,
                None => {
                    // Address was never assigned: treat as unroutable.
                    self.stats.messages_dropped += 1;
                    continue;
                }
            };
            if let Some(side) = &self.partition {
                if side.contains(&from_host) != side.contains(&to_host) {
                    self.stats.messages_dropped += 1;
                    self.stats.partition_dropped += 1;
                    self.trace(cause, TraceKind::Drop { to });
                    continue;
                }
            }
            let mut delay = self.latency.delay(from_host, to_host, bytes);
            if self.latency_factor != 1.0 {
                delay = delay.mul_f64(self.latency_factor);
            }
            if self.reorder_rate > 0.0 && self.rng.gen::<f64>() < self.reorder_rate {
                // Bounded reordering: extra jitter in (0, window], so later
                // sends can overtake this one by at most the window.
                delay += self.reorder_window.mul_f64(self.rng.gen::<f64>());
                self.stats.messages_reordered += 1;
            }
            if self.dup_rate > 0.0 && self.rng.gen::<f64>() < self.dup_rate {
                // The duplicate took the "long path": it lands between 1×
                // and 2× the original's delay, after the original.
                let dup_delay = delay.mul_f64(1.0 + self.rng.gen::<f64>());
                self.stats.messages_duplicated += 1;
                self.schedule(
                    self.now + dup_delay,
                    RtEvent::Deliver { from: addr, to, msg: msg.clone(), cause },
                );
            }
            self.schedule(self.now + delay, RtEvent::Deliver { from: addr, to, msg, cause });
        }
        for (delay, timer, cause) in timers.drain(..) {
            self.schedule(self.now + delay, RtEvent::Timer { node: addr, timer, cause });
        }
        self.sends = sends;
        self.timers = timers;
        out
    }
}

/// A trivial latency model: every pair of distinct hosts is `delay` apart;
/// a host reaches itself in 1 µs. Useful for unit tests.
#[derive(Clone, Debug)]
pub struct UniformLatency {
    hosts: usize,
    delay: SimDuration,
}

impl UniformLatency {
    /// Creates a model with `hosts` hosts all `delay` apart.
    pub fn new(hosts: usize, delay: SimDuration) -> Self {
        UniformLatency { hosts, delay }
    }
}

impl LatencyModel for UniformLatency {
    fn delay(&mut self, from: HostId, to: HostId, _bytes: usize) -> SimDuration {
        if from == to {
            SimDuration::from_micros(1)
        } else {
            self.delay
        }
    }

    fn num_hosts(&self) -> usize {
        self.hosts
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[derive(Clone, Debug, PartialEq)]
    enum TestMsg {
        Ping(u32),
        Pong(u32),
    }

    impl Wire for TestMsg {
        fn wire_size(&self) -> usize {
            24
        }
    }

    #[derive(Default)]
    struct Echo {
        pings_seen: u32,
        pongs_seen: u32,
        timer_fired: bool,
    }

    impl Node for Echo {
        type Msg = TestMsg;
        type Timer = u8;

        fn on_start(&mut self, ctx: &mut Ctx<'_, TestMsg, u8>) {
            ctx.set_timer(SimDuration::from_secs(5), 7);
        }

        fn on_message(&mut self, from: Addr, msg: TestMsg, ctx: &mut Ctx<'_, TestMsg, u8>) {
            match msg {
                TestMsg::Ping(n) => {
                    self.pings_seen += 1;
                    ctx.send(from, TestMsg::Pong(n));
                    ctx.metrics().count("pings", 1);
                }
                TestMsg::Pong(_) => self.pongs_seen += 1,
            }
        }

        fn on_timer(&mut self, timer: u8, _ctx: &mut Ctx<'_, TestMsg, u8>) {
            assert_eq!(timer, 7);
            self.timer_fired = true;
        }
    }

    fn rt() -> Runtime<Echo, UniformLatency> {
        Runtime::new(UniformLatency::new(4, SimDuration::from_millis(50)), 1)
    }

    #[test]
    fn ping_pong_round_trip() {
        let mut rt = rt();
        let a = rt.spawn(HostId(0), Echo::default());
        let b = rt.spawn(HostId(1), Echo::default());
        rt.invoke(a, |_n, ctx| ctx.send(b, TestMsg::Ping(9)));
        rt.run_until(SimTime::ZERO + SimDuration::from_secs(1));
        assert_eq!(rt.node(b).unwrap().pings_seen, 1);
        assert_eq!(rt.node(a).unwrap().pongs_seen, 1);
        assert_eq!(rt.metrics().counter("pings"), 1);
        let stats = rt.stats();
        assert_eq!(stats.messages_sent, 2);
        assert_eq!(stats.messages_delivered, 2);
        assert_eq!(stats.bytes_sent, 48);
        // One 50 ms hop each way.
        assert_eq!(rt.now(), SimTime::ZERO + SimDuration::from_secs(1));
    }

    #[test]
    fn step_assertor_fires_per_event_and_records_without_perturbing() {
        let drive = |with_assertor: bool| {
            let mut rt = rt();
            if with_assertor {
                rt.set_step_assertor(Box::new(|view| {
                    let total: u32 = view.nodes().map(|(_, n)| n.pings_seen).sum();
                    AssertorVerdict {
                        counts: vec![("assert.steps", 1)],
                        records: vec![("assert.pings", f64::from(total))],
                    }
                }));
            }
            let a = rt.spawn(HostId(0), Echo::default());
            let b = rt.spawn(HostId(1), Echo::default());
            rt.invoke(a, |_n, ctx| ctx.send(b, TestMsg::Ping(9)));
            rt.run_to_quiescence();
            rt
        };
        let plain = drive(false);
        let hooked = drive(true);
        // The assertor observed every processed event (2 deliveries + 2
        // spawn timers) and its verdicts landed in the metrics...
        assert_eq!(hooked.metrics().counter("assert.steps"), 4);
        assert_eq!(hooked.metrics().histogram("assert.pings").map(|h| h.count()), Some(4));
        // ...while the simulation itself ran identically.
        assert_eq!(plain.stats(), hooked.stats());
        assert_eq!(plain.now(), hooked.now());
        assert_eq!(plain.metrics().counter("pings"), hooked.metrics().counter("pings"));
    }

    #[test]
    fn messages_to_dead_nodes_are_dropped() {
        let mut rt = rt();
        let a = rt.spawn(HostId(0), Echo::default());
        let b = rt.spawn(HostId(1), Echo::default());
        rt.invoke(a, |_n, ctx| ctx.send(b, TestMsg::Ping(1)));
        assert!(rt.kill(b));
        assert!(!rt.kill(b), "double kill reports false");
        rt.run_to_quiescence();
        assert_eq!(rt.stats().messages_dropped, 1);
        assert_eq!(rt.stats().messages_delivered, 0);
    }

    #[test]
    fn timers_fire_and_dead_node_timers_do_not() {
        let mut rt = rt();
        let a = rt.spawn(HostId(0), Echo::default());
        let b = rt.spawn(HostId(1), Echo::default());
        rt.kill(b);
        rt.run_to_quiescence();
        assert!(rt.node(a).unwrap().timer_fired);
        assert_eq!(rt.now(), SimTime::ZERO + SimDuration::from_secs(5));
    }

    #[test]
    fn addresses_are_unique_across_incarnations() {
        let mut rt = rt();
        let a = rt.spawn(HostId(0), Echo::default());
        rt.kill(a);
        let a2 = rt.spawn(HostId(0), Echo::default());
        assert_ne!(a, a2);
        assert_eq!(rt.host_of(a), Some(HostId(0)));
        assert_eq!(rt.host_of(a2), Some(HostId(0)));
        assert!(!rt.is_alive(a));
        assert!(rt.is_alive(a2));
    }

    #[test]
    fn loss_injection_drops_messages() {
        let mut rt = rt();
        rt.set_loss_rate(1.0);
        let a = rt.spawn(HostId(0), Echo::default());
        let b = rt.spawn(HostId(1), Echo::default());
        rt.invoke(a, |_n, ctx| ctx.send(b, TestMsg::Ping(1)));
        rt.run_to_quiescence();
        assert_eq!(rt.node(b).unwrap().pings_seen, 0);
        assert_eq!(rt.stats().messages_dropped, 1);
    }

    #[test]
    fn run_until_advances_clock_even_when_idle() {
        let mut rt = rt();
        rt.run_until(SimTime::ZERO + SimDuration::from_secs(30));
        assert_eq!(rt.now(), SimTime::ZERO + SimDuration::from_secs(30));
    }

    #[test]
    fn determinism_same_seed_same_trace() {
        let run = |seed: u64| {
            let mut rt: Runtime<Echo, UniformLatency> =
                Runtime::new(UniformLatency::new(4, SimDuration::from_millis(50)), seed);
            let a = rt.spawn(HostId(0), Echo::default());
            let b = rt.spawn(HostId(1), Echo::default());
            rt.set_loss_rate(0.5);
            for i in 0..100 {
                rt.invoke(a, |_n, ctx| ctx.send(b, TestMsg::Ping(i)));
            }
            rt.run_to_quiescence();
            (rt.stats(), rt.node(b).unwrap().pings_seen)
        };
        assert_eq!(run(7), run(7));
        assert_ne!(run(7).1, run(8).1, "different seeds should diverge under loss");
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn spawn_validates_host() {
        let mut rt = rt();
        rt.spawn(HostId(99), Echo::default());
    }

    #[test]
    fn invoke_on_dead_node_returns_none() {
        let mut rt = rt();
        let a = rt.spawn(HostId(0), Echo::default());
        rt.kill(a);
        assert!(rt.invoke(a, |_n, _ctx| ()).is_none());
    }

    #[test]
    fn unassigned_addresses_are_unroutable_not_indexed() {
        let mut rt = rt();
        let a = rt.spawn(HostId(0), Echo::default());
        let strangers = [Addr::NULL, Addr::from_raw(2), Addr::from_raw(u64::MAX)];
        let pending = rt.pending_events();
        rt.invoke(a, |_n, ctx| {
            for to in strangers {
                ctx.send(to, TestMsg::Ping(1));
            }
        });
        assert_eq!(rt.stats().messages_sent, 3);
        assert_eq!(rt.stats().messages_dropped, 3);
        assert_eq!(rt.pending_events(), pending, "nothing was queued for them");
        assert_eq!(rt.slots.len(), 1, "and the table did not grow towards them");
        for addr in strangers {
            assert!(!rt.is_alive(addr));
            assert!(rt.node(addr).is_none() && rt.node_mut(addr).is_none());
            assert_eq!(rt.host_of(addr), None);
            assert!(!rt.kill(addr) && !rt.shutdown(addr));
            assert!(rt.invoke(addr, |_n, _ctx| ()).is_none());
        }
        assert_eq!(rt.num_alive(), 1);
        rt.run_to_quiescence();
        assert_eq!(rt.stats().messages_delivered, 0);
    }

    #[test]
    fn alive_addrs_ascend_through_kills_and_respawns() {
        let mut rt = rt();
        let first: Vec<Addr> = (0..4).map(|i| rt.spawn(HostId(i), Echo::default())).collect();
        assert!(rt.kill(first[1]) && rt.shutdown(first[3]));
        let fresh = rt.spawn(HostId(1), Echo::default());
        assert!(rt.kill(first[0]));
        assert!(!rt.kill(first[0]), "a second kill changes nothing");
        let alive: Vec<Addr> = rt.alive_addrs().collect();
        assert_eq!(alive, [first[2], fresh]);
        assert_eq!(alive, [3, 5].map(Addr::from_raw), "fresh addresses, never reused");
        assert_eq!(rt.num_alive(), alive.len());
        // A dead address keeps its host: churn respawns on it.
        assert_eq!(rt.host_of(first[1]), Some(HostId(1)));
        assert_eq!(rt.host_of(first[3]), Some(HostId(3)));
    }

    /// A message of `8 + PAD` bytes carrying its send order.
    #[derive(Clone)]
    struct Padded<const PAD: usize> {
        seq: u64,
        _pad: [u8; PAD],
    }

    impl<const PAD: usize> Wire for Padded<PAD> {
        fn wire_size(&self) -> usize {
            8 + PAD
        }
    }

    /// Records the order messages arrive in; `bounce` sends each back.
    struct Relay<const PAD: usize> {
        bounce: bool,
        seen: Vec<u64>,
    }

    impl<const PAD: usize> Node for Relay<PAD> {
        type Msg = Padded<PAD>;
        type Timer = ();

        fn on_start(&mut self, _ctx: &mut Ctx<'_, Padded<PAD>, ()>) {}

        fn on_message(&mut self, from: Addr, msg: Padded<PAD>, ctx: &mut Ctx<'_, Padded<PAD>, ()>) {
            self.seen.push(msg.seq);
            if self.bounce {
                ctx.send(from, msg);
            }
        }

        fn on_timer(&mut self, _t: (), _ctx: &mut Ctx<'_, Padded<PAD>, ()>) {}
    }

    /// Bursts of simultaneous messages, each bounced back, with every
    /// burst sent while earlier ones are still in flight: slots are freed
    /// and refilled out of order all the way through.
    fn ping_pong_recycles_slots_in_fifo_order<const PAD: usize>() {
        assert_eq!(std::mem::size_of::<Padded<PAD>>(), 8 + PAD);
        let mut rt: Runtime<Relay<PAD>, UniformLatency> =
            Runtime::new(UniformLatency::new(2, SimDuration::from_millis(10)), 1);
        let a = rt.spawn(HostId(0), Relay { bounce: false, seen: Vec::new() });
        let b = rt.spawn(HostId(1), Relay { bounce: true, seen: Vec::new() });
        let mut sent = 0u64;
        let mut send_burst = |rt: &mut Runtime<Relay<PAD>, UniformLatency>, burst: usize| {
            rt.invoke(a, |_n, ctx| {
                for _ in 0..burst {
                    ctx.send(b, Padded { seq: sent, _pad: [0; PAD] });
                    sent += 1;
                }
            });
        };
        // Ten messages stay in flight throughout: every round sends a
        // burst and then handles as many deliveries and bounces.
        send_burst(&mut rt, 10);
        let mut peak = 0;
        for burst in [7, 1, 12, 3, 9].into_iter().cycle().take(400) {
            send_burst(&mut rt, burst);
            for _ in 0..2 * burst {
                peak = peak.max(rt.pending_events());
                rt.step();
            }
        }
        rt.run_to_quiescence();
        let in_order: Vec<u64> = (0..sent).collect();
        assert_eq!(rt.node(b).unwrap().seen, in_order, "arrivals at the bouncer");
        assert_eq!(rt.node(a).unwrap().seen, in_order, "bounces back at the sender");
        assert_eq!(rt.stats().messages_delivered, 2 * sent);
        assert!(rt.event_slots() <= peak, "{} slots for a peak of {peak}", rt.event_slots());
        assert!(peak as u64 * 50 < 2 * sent, "the run was long enough to recycle: peak {peak}");
    }

    #[test]
    fn event_slots_are_recycled_in_fifo_order_whatever_the_message_size() {
        ping_pong_recycles_slots_in_fifo_order::<8>();
        ping_pong_recycles_slots_in_fifo_order::<248>();
    }
}

#[cfg(test)]
mod sampler_tests {
    use super::tests_support::{run_ping_workload, Echo2, TestMsg2};
    use super::*;
    use std::cell::RefCell;
    use std::rc::Rc;

    fn rt() -> Runtime<Echo2, UniformLatency> {
        Runtime::new(UniformLatency::new(4, SimDuration::from_millis(50)), 1)
    }

    #[test]
    fn sampler_fires_on_schedule_and_sees_state() {
        let samples: Rc<RefCell<Vec<(SimTime, u64, usize)>>> = Rc::default();
        let sink = samples.clone();
        let mut rt = rt();
        let a = rt.spawn(HostId(0), Echo2::default());
        let b = rt.spawn(HostId(1), Echo2::default());
        rt.set_sampler(
            SimDuration::from_millis(100),
            Box::new(move |view| {
                sink.borrow_mut().push((
                    view.now(),
                    view.stats().messages_delivered,
                    view.num_alive(),
                ));
            }),
        );
        rt.invoke(a, |_n, ctx| ctx.send(b, TestMsg2::Ping(1)));
        rt.run_until(SimTime::ZERO + SimDuration::from_millis(500));
        let samples = samples.borrow();
        // 100, 200, 300, 400, 500 ms — sample points fire even when idle.
        assert_eq!(samples.len(), 5);
        assert_eq!(samples[0].0, SimTime::ZERO + SimDuration::from_millis(100));
        assert_eq!(samples[4].0, SimTime::ZERO + SimDuration::from_millis(500));
        // The ping lands at 50ms; the pong lands at exactly 100ms, which is
        // after the 100ms sample (samples precede same-time events).
        assert_eq!(samples[0].1, 1, "ping delivered before first sample, pong at t exactly");
        assert_eq!(samples[1].1, 2, "both legs delivered by 200ms");
        assert!(samples.iter().all(|s| s.2 == 2));
    }

    #[test]
    fn sampler_does_not_perturb_the_run() {
        let baseline = run_ping_workload(7, |_rt| {});
        let sampled = run_ping_workload(7, |rt| {
            rt.set_sampler(SimDuration::from_millis(37), Box::new(|_view| {}));
        });
        assert_eq!(baseline, sampled, "sampling must be invisible to the simulation");
    }

    #[test]
    fn profiler_counts_dispatches_and_does_not_perturb() {
        let baseline = run_ping_workload(7, |_rt| {});
        let mut rt = rt();
        crate::span_profiler_enable();
        let a = rt.spawn(HostId(0), Echo2::default());
        let b = rt.spawn(HostId(1), Echo2::default());
        rt.invoke(a, |_n, ctx| ctx.send(b, TestMsg2::Ping(1)));
        rt.kill(b);
        rt.run_to_quiescence();
        let totals = crate::span_profiler_disable().expect("profiler was enabled").scope_totals();
        let calls = |scope| totals.iter().find(|(s, _)| *s == scope).map_or(0, |(_, n)| n.calls);
        // The ping to the dead node is a dead letter; both nodes armed one
        // start timer each (b's is discarded but still popped).
        assert_eq!(calls(Scope::SimDeadLetter), 1);
        assert_eq!(calls(Scope::SimDeliver), 0);
        assert_eq!(calls(Scope::SimTimer), 2);
        // And a profiled run's simulation output matches an unprofiled one.
        crate::span_profiler_enable();
        let profiled = run_ping_workload(7, |_rt| {});
        crate::span_profiler_disable().expect("profiler was enabled");
        assert_eq!(baseline, profiled, "profiling must be invisible to the simulation");
    }

    #[test]
    fn nodes_iterate_in_address_order() {
        let mut rt = rt();
        let spawned: Vec<Addr> = (0..4).map(|i| rt.spawn(HostId(i), Echo2::default())).collect();
        rt.kill(spawned[1]);
        rt.spawn(HostId(1), Echo2::default());
        let order: Rc<RefCell<Vec<Vec<Addr>>>> = Rc::default();
        let sink = order.clone();
        rt.set_sampler(
            SimDuration::from_secs(1),
            Box::new(move |view| {
                sink.borrow_mut().push(view.nodes().map(|(a, _)| a).collect());
            }),
        );
        rt.run_until(SimTime::ZERO + SimDuration::from_secs(2));
        let order = order.borrow();
        assert_eq!(order.len(), 2);
        let expect: Vec<Addr> = [1, 3, 4, 5].map(Addr::from_raw).into();
        assert_eq!(order[0], expect, "nodes() yields the live addresses, ascending");
        assert_eq!(order[0], order[1]);
    }

    #[test]
    #[should_panic(expected = "sample interval must be positive")]
    fn zero_sample_interval_is_rejected() {
        let mut rt = rt();
        rt.set_sampler(SimDuration::ZERO, Box::new(|_| {}));
    }
}

#[cfg(test)]
mod tests_support {
    use super::*;

    #[derive(Clone, Debug, PartialEq)]
    pub enum TestMsg2 {
        Ping(u32),
        Pong(u32),
    }

    impl Wire for TestMsg2 {
        fn wire_size(&self) -> usize {
            24
        }
    }

    #[derive(Default)]
    pub struct Echo2 {
        pub pings_seen: u32,
    }

    impl Node for Echo2 {
        type Msg = TestMsg2;
        type Timer = u8;

        fn on_start(&mut self, ctx: &mut Ctx<'_, TestMsg2, u8>) {
            ctx.set_timer(SimDuration::from_secs(5), 7);
        }

        fn on_message(&mut self, from: Addr, msg: TestMsg2, ctx: &mut Ctx<'_, TestMsg2, u8>) {
            if let TestMsg2::Ping(n) = msg {
                self.pings_seen += 1;
                ctx.send(from, TestMsg2::Pong(n));
            }
        }

        fn on_timer(&mut self, _t: u8, _ctx: &mut Ctx<'_, TestMsg2, u8>) {}
    }

    /// Runs a fixed lossy ping workload after applying `configure`, and
    /// returns everything the simulation itself can observe. Used to prove
    /// observability hooks do not perturb runs.
    pub fn run_ping_workload(
        seed: u64,
        configure: impl FnOnce(&mut Runtime<Echo2, UniformLatency>),
    ) -> (NetStats, u32, SimTime, String) {
        let mut rt: Runtime<Echo2, UniformLatency> =
            Runtime::new(UniformLatency::new(4, SimDuration::from_millis(50)), seed);
        configure(&mut rt);
        rt.set_loss_rate(0.3);
        let a = rt.spawn(HostId(0), Echo2::default());
        let b = rt.spawn(HostId(1), Echo2::default());
        for i in 0..50 {
            rt.invoke(a, |_n, ctx| ctx.send(b, TestMsg2::Ping(i)));
        }
        rt.run_to_quiescence();
        let pings = rt.node(b).unwrap().pings_seen;
        let snapshot = rt.metrics_mut().render_snapshot();
        (rt.stats(), pings, rt.now(), snapshot)
    }
}

#[cfg(test)]
mod nested_tests {
    use super::*;
    use crate::time::{SimDuration, SimTime};

    // A two-layer protocol: Outer wraps Inner's messages, the way the DHT
    // nodes wrap their overlay.
    struct InnerLogic {
        echoes: u32,
    }

    #[derive(Clone)]
    enum OuterMsg {
        Inner(InnerMsg),
        Direct,
    }

    #[derive(Clone)]
    struct InnerMsg;

    impl Wire for OuterMsg {
        fn wire_size(&self) -> usize {
            match self {
                OuterMsg::Inner(_) => 10,
                OuterMsg::Direct => 20,
            }
        }
    }

    #[derive(Clone)]
    enum OuterTimer {
        Inner(u8),
        Own,
    }

    struct Outer {
        inner: InnerLogic,
        own_timer_fired: bool,
        inner_timer_fired: bool,
        directs: u32,
    }

    impl InnerLogic {
        fn on_msg(&mut self, from: Addr, ctx: &mut Ctx<'_, InnerMsg, u8>) {
            self.echoes += 1;
            if self.echoes < 3 {
                ctx.send(from, InnerMsg);
            }
            ctx.set_timer(SimDuration::from_secs(1), 7);
            ctx.metrics().count("inner.msgs", 1);
        }
    }

    impl Node for Outer {
        type Msg = OuterMsg;
        type Timer = OuterTimer;

        fn on_start(&mut self, ctx: &mut Ctx<'_, OuterMsg, OuterTimer>) {
            ctx.set_timer(SimDuration::from_secs(5), OuterTimer::Own);
        }

        fn on_message(
            &mut self,
            from: Addr,
            msg: OuterMsg,
            ctx: &mut Ctx<'_, OuterMsg, OuterTimer>,
        ) {
            match msg {
                OuterMsg::Inner(_) => {
                    let inner = &mut self.inner;
                    ctx.nested(|ictx| inner.on_msg(from, ictx), OuterMsg::Inner, OuterTimer::Inner);
                }
                OuterMsg::Direct => self.directs += 1,
            }
        }

        fn on_timer(&mut self, timer: OuterTimer, _ctx: &mut Ctx<'_, OuterMsg, OuterTimer>) {
            match timer {
                OuterTimer::Inner(t) => {
                    assert_eq!(t, 7);
                    self.inner_timer_fired = true;
                }
                OuterTimer::Own => self.own_timer_fired = true,
            }
        }
    }

    fn outer() -> Outer {
        Outer {
            inner: InnerLogic { echoes: 0 },
            own_timer_fired: false,
            inner_timer_fired: false,
            directs: 0,
        }
    }

    #[test]
    fn nested_effects_are_wrapped_and_delivered() {
        let mut rt: Runtime<Outer, UniformLatency> =
            Runtime::new(UniformLatency::new(2, SimDuration::from_millis(10)), 1);
        let a = rt.spawn(HostId(0), outer());
        let b = rt.spawn(HostId(1), outer());
        rt.invoke(a, |_n, ctx| {
            ctx.send(b, OuterMsg::Inner(InnerMsg));
            ctx.send(b, OuterMsg::Direct);
        });
        rt.run_until(SimTime::ZERO + SimDuration::from_secs(30));
        // The inner layers ping-ponged until b's third echo: b saw 3
        // inner messages, a saw 2.
        assert_eq!(rt.node(b).unwrap().inner.echoes, 3);
        assert_eq!(rt.node(a).unwrap().inner.echoes, 2);
        assert_eq!(rt.node(b).unwrap().directs, 1);
        // Inner timers round-tripped through the wrapper mapping.
        assert!(rt.node(a).unwrap().inner_timer_fired);
        assert!(rt.node(b).unwrap().inner_timer_fired);
        assert!(rt.node(a).unwrap().own_timer_fired);
        // Inner metrics recorded through the nested context.
        assert_eq!(rt.metrics().counter("inner.msgs"), 5);
    }
}

#[cfg(test)]
mod tracer_tests {
    use super::*;
    use crate::time::{SimDuration, SimTime};
    use crate::trace::FlightRecorder;
    use std::cell::RefCell;
    use std::rc::Rc;

    struct Silent;
    #[derive(Clone)]
    struct M;
    impl Wire for M {
        fn wire_size(&self) -> usize {
            11
        }
    }
    impl Node for Silent {
        type Msg = M;
        type Timer = ();
        fn on_start(&mut self, _ctx: &mut Ctx<'_, M, ()>) {}
        fn on_message(&mut self, _f: Addr, _m: M, _ctx: &mut Ctx<'_, M, ()>) {}
        fn on_timer(&mut self, _t: (), _ctx: &mut Ctx<'_, M, ()>) {}
    }

    #[test]
    fn tracer_observes_lifecycle_and_messages() {
        let log: Rc<RefCell<Vec<TraceEvent>>> = Rc::default();
        let sink = log.clone();
        let mut rt: Runtime<Silent, UniformLatency> =
            Runtime::new(UniformLatency::new(2, SimDuration::from_millis(5)), 1);
        rt.set_tracer(Some(Box::new(move |ev| sink.borrow_mut().push(ev.clone()))));
        let a = rt.spawn(HostId(0), Silent);
        let b = rt.spawn(HostId(1), Silent);
        rt.invoke(a, |_n, ctx| ctx.send(b, M));
        rt.run_until(SimTime::ZERO + SimDuration::from_secs(1));
        rt.kill(b);
        rt.invoke(a, |_n, ctx| ctx.send(b, M));
        rt.run_to_quiescence();
        let events = log.borrow();
        assert!(matches!(events[0].kind, TraceKind::Spawn { addr, .. } if addr == a));
        assert!(events.iter().any(|e| matches!(e.kind, TraceKind::Send { bytes: 11, .. })));
        assert!(events.iter().any(|e| matches!(e.kind, TraceKind::Deliver { .. })));
        assert!(events.iter().any(|e| matches!(e.kind, TraceKind::Kill { addr } if addr == b)));
        assert!(events.iter().any(|e| matches!(e.kind, TraceKind::Drop { to } if to == b)));
    }

    /// A node that begins a span on each ping and replies under it; the
    /// replier echoes under the delivered span.
    struct Spanner {
        seen_causes: Vec<Option<CauseId>>,
    }
    #[derive(Clone)]
    struct SpanMsg {
        reply: bool,
    }
    impl Wire for SpanMsg {
        fn wire_size(&self) -> usize {
            8
        }
    }
    impl Node for Spanner {
        type Msg = SpanMsg;
        type Timer = u8;
        fn on_start(&mut self, _ctx: &mut Ctx<'_, SpanMsg, u8>) {}
        fn on_message(&mut self, from: Addr, msg: SpanMsg, ctx: &mut Ctx<'_, SpanMsg, u8>) {
            self.seen_causes.push(ctx.cause());
            ctx.emit(ProtoEvent::Note { label: "seen", value: 1 });
            if msg.reply {
                ctx.send(from, SpanMsg { reply: false });
                ctx.set_timer(SimDuration::from_millis(1), 9);
            }
        }
        fn on_timer(&mut self, _t: u8, ctx: &mut Ctx<'_, SpanMsg, u8>) {
            self.seen_causes.push(ctx.cause());
        }
    }

    #[test]
    fn causes_flow_through_sends_and_timers() {
        let rec = FlightRecorder::new(64);
        let mut rt: Runtime<Spanner, UniformLatency> =
            Runtime::new(UniformLatency::new(2, SimDuration::from_millis(5)), 1);
        rt.set_tracer(Some(rec.tracer()));
        let a = rt.spawn(HostId(0), Spanner { seen_causes: Vec::new() });
        let b = rt.spawn(HostId(1), Spanner { seen_causes: Vec::new() });
        let root = rt
            .invoke(a, |_n, ctx| {
                let id = ctx.begin_cause();
                ctx.send(b, SpanMsg { reply: true });
                id
            })
            .unwrap();
        rt.run_to_quiescence();
        // b handled the ping under the root span, replied and armed a
        // timer under it; a's reply handler and b's timer resumed it.
        assert_eq!(rt.node(b).unwrap().seen_causes, vec![Some(root), Some(root)]);
        assert_eq!(rt.node(a).unwrap().seen_causes, vec![Some(root)]);
        let events = rec.snapshot();
        let sends: Vec<_> =
            events.iter().filter(|e| matches!(e.kind, TraceKind::Send { .. })).collect();
        assert_eq!(sends.len(), 2);
        assert!(sends.iter().all(|e| e.cause == Some(root)), "sends carry the root span");
        let notes: Vec<_> = events
            .iter()
            .filter(|e| matches!(e.kind, TraceKind::Proto { event: ProtoEvent::Note { .. }, .. }))
            .collect();
        assert_eq!(notes.len(), 2);
        assert!(notes.iter().all(|e| e.cause == Some(root)), "emissions carry the root span");
    }

    #[test]
    fn emit_is_dropped_without_tracer() {
        let mut rt: Runtime<Spanner, UniformLatency> =
            Runtime::new(UniformLatency::new(2, SimDuration::from_millis(5)), 1);
        let a = rt.spawn(HostId(0), Spanner { seen_causes: Vec::new() });
        rt.invoke(a, |_n, ctx| {
            assert!(!ctx.tracing());
            ctx.emit(ProtoEvent::Note { label: "ignored", value: 0 });
        });
        rt.run_to_quiescence();
        // Nothing to observe — the point is that this compiles and runs
        // without a tracer, and emit did not allocate into any sink.
    }

    #[test]
    fn fresh_causes_are_distinct_and_nested_spans_propagate() {
        let mut rt: Runtime<Spanner, UniformLatency> =
            Runtime::new(UniformLatency::new(2, SimDuration::from_millis(5)), 1);
        let a = rt.spawn(HostId(0), Spanner { seen_causes: Vec::new() });
        let (c1, c2, inner, after) = rt
            .invoke(a, |_n, ctx| {
                let c1 = ctx.begin_cause();
                let c2 = ctx.begin_cause();
                let inner =
                    ctx.nested(|ictx: &mut Ctx<'_, SpanMsg, u8>| ictx.begin_cause(), |m| m, |t| t);
                (c1, c2, inner, ctx.cause())
            })
            .unwrap();
        assert_ne!(c1, c2);
        assert_ne!(c2, inner);
        assert_eq!(after, Some(inner), "a span begun in a nested ctx survives the return");
        // ensure_cause keeps an existing span but mints one at a root.
        rt.invoke(a, |_n, ctx| {
            let e1 = ctx.ensure_cause();
            let e2 = ctx.ensure_cause();
            assert_eq!(e1, e2);
            assert!(e1 > inner);
        });
    }
}
