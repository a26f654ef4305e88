//! Scriptable, deterministic fault injection.
//!
//! A [`FaultPlan`] is a pure-data script of adverse conditions — background
//! churn, correlated mass failures ("worm kills"), message-loss bursts,
//! latency spikes, and temporary network partitions. A [`FaultRunner`]
//! executes the plan against a [`Runtime`], interleaving its own agenda with
//! the simulation's event queue so that every injected fault lands at an
//! exact virtual time. All randomness (churn inter-arrival draws, victim
//! selection, crash-vs-graceful coin flips) comes from a dedicated
//! [`SeedSource`] stream, so a given `(seed, plan)` pair replays bit for bit.
//!
//! The plan itself knows nothing about the protocol under test. Protocol
//! binding happens through [`FaultHooks`]: a `join` closure that spawns and
//! wires a fresh node, the victim ordering a burst's [`Selector`] reads
//! (e.g. `"arc:8"`, the first eight live nodes in ring order), and a
//! `ring_converged` predicate polled after each burst to measure
//! time-to-reconvergence. What the runner did lands in the runtime's
//! [`MetricsSink`](crate::MetricsSink) under [`keys`].
//!
//! # Example
//!
//! ```
//! use verme_sim::fault::{Fault, FaultPlan};
//! use verme_sim::{SimDuration, SimTime};
//!
//! let plan = FaultPlan::new()
//!     .with(Fault::Churn {
//!         start: SimTime::ZERO + SimDuration::from_secs(60),
//!         duration: SimDuration::from_mins(10),
//!         leave_rate_per_sec: 0.05,
//!         graceful_fraction: 0.5,
//!         rejoin_after: Some(SimDuration::from_secs(30)),
//!     })
//!     .with(Fault::KillBurst {
//!         at: SimTime::ZERO + SimDuration::from_mins(5),
//!         window: SimDuration::from_secs(2),
//!         selector: "arc:8".into(),
//!     });
//! assert!(plan.validate().is_ok());
//! ```

use rand::rngs::StdRng;
use rand::Rng;

use crate::event::EventQueue;
use crate::rng::{exp_duration, SeedSource};
use crate::runtime::{Addr, HostId, LatencyModel, NetConditions, Node, Runtime};
use crate::time::{SimDuration, SimTime};

/// Metric keys the runner records into the runtime's
/// [`MetricsSink`](crate::MetricsSink).
pub mod keys {
    /// Counter: nodes (re)joined by the churn process.
    pub const JOIN: &str = "fault.join";
    /// Counter: churn departures executed as crashes.
    pub const LEAVE_CRASH: &str = "fault.leave_crash";
    /// Counter: churn departures executed as graceful shutdowns.
    pub const LEAVE_GRACEFUL: &str = "fault.leave_graceful";
    /// Counter: nodes killed by correlated bursts.
    pub const BURST_KILL: &str = "fault.burst_kill";
    /// Counter: nodes flipped to a Byzantine routing behaviour.
    pub const BYZANTINE: &str = "fault.byzantine";
    /// Counter: nodes crashed by a [`Fault::Restart`](super::Fault::Restart).
    pub const RESTART: &str = "fault.restart";
    /// Counter: restarted nodes that rejoined under the same identifier.
    pub const RESTART_REJOIN: &str = "fault.restart_rejoin";
    /// Histogram: milliseconds from the end of a kill burst until the
    /// `ring_converged` hook first reported true.
    pub const RECONVERGE_MS: &str = "fault.reconverge_ms";

    /// Registry descriptors for every metric the fault runner records.
    pub fn descriptors() -> &'static [crate::metrics::MetricDesc] {
        use crate::metrics::MetricDesc;
        const DESCS: &[MetricDesc] = &[
            MetricDesc::counter(JOIN, "nodes", "nodes (re)joined by the churn process"),
            MetricDesc::counter(LEAVE_CRASH, "nodes", "churn departures executed as crashes"),
            MetricDesc::counter(LEAVE_GRACEFUL, "nodes", "churn departures executed gracefully"),
            MetricDesc::counter(BURST_KILL, "nodes", "nodes killed by correlated bursts"),
            MetricDesc::counter(BYZANTINE, "nodes", "nodes flipped to Byzantine behaviour"),
            MetricDesc::counter(RESTART, "nodes", "nodes crashed by a scripted restart"),
            MetricDesc::counter(RESTART_REJOIN, "nodes", "restarted nodes rejoined, same id"),
            MetricDesc::histogram(RECONVERGE_MS, "ms", "kill-burst end to ring reconvergence"),
        ];
        DESCS
    }
}

/// What a node remembers when it comes back from a [`Fault::Restart`].
#[derive(Copy, Clone, Debug, PartialEq, Eq, Hash)]
pub enum Recovery {
    /// The node rejoins with nothing but its identifier — routing state,
    /// stored blocks and pending operations are all gone, as after a disk
    /// wipe. The overlay must treat it as a brand-new joiner that happens
    /// to own an old id (the PR-8 rejoin path).
    Amnesia,
    /// The node rejoins with a checkpoint of its pre-crash state (routing
    /// pointers, stored blocks), as after a reboot with an intact disk.
    /// The state may be stale — neighbors moved on while it was down — so
    /// repair and stabilization must reconcile it (the PR-5
    /// hinted-handoff/read-repair paths).
    Persisted,
}

/// Which half of a restart the [`RestartHook`] is being asked to perform.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum RestartPhase {
    /// Called while the victim is still alive, just before the crash: the
    /// binding should snapshot whatever [`Recovery::Persisted`] is allowed
    /// to keep. The return value is ignored.
    Checkpoint,
    /// Called when the downtime elapses: the binding should respawn the
    /// *same identifier* (on the victim's original host) and return the new
    /// address, or `None` if rejoining is impossible right now.
    Rejoin,
}

/// One scripted adverse condition inside a [`FaultPlan`].
#[derive(Clone, Debug, PartialEq)]
pub enum Fault {
    /// Poisson background churn: nodes leave at `leave_rate_per_sec`
    /// (exponential inter-departure times), each leave being a graceful
    /// shutdown with probability `graceful_fraction` and a crash otherwise.
    /// If `rejoin_after` is set, every departure is balanced by a fresh
    /// join that much later, keeping the population roughly stable.
    Churn {
        /// When the churn window opens.
        start: SimTime,
        /// How long departures keep arriving.
        duration: SimDuration,
        /// Mean departures per simulated second (Poisson rate λ).
        leave_rate_per_sec: f64,
        /// Probability in `[0, 1]` that a departure is graceful.
        graceful_fraction: f64,
        /// Delay before a replacement node joins, or `None` for no rejoin.
        rejoin_after: Option<SimDuration>,
    },
    /// Correlated mass failure: every node matched by `selector` crashes
    /// at a time spread uniformly over `[at, at + window]`. This models
    /// the paper's worm-kill scenario — many nodes dying nearly at once.
    KillBurst {
        /// When the first victim dies.
        at: SimTime,
        /// Span over which the victims' crash times are spread.
        window: SimDuration,
        /// A [`Selector`] over [`FaultHooks::victim_order`], e.g. `"arc:8"`
        /// or `"span:3:4"`.
        selector: String,
    },
    /// Raises the runtime's message-loss rate to `rate` for `duration`,
    /// then restores whatever rate was in effect before.
    LossBurst {
        /// When the loss burst begins.
        at: SimTime,
        /// How long the elevated loss rate lasts.
        duration: SimDuration,
        /// Loss probability in `[0, 1]` during the burst.
        rate: f64,
    },
    /// Multiplies all message latencies by `factor` for `duration`, then
    /// restores the previous factor.
    LatencySpike {
        /// When the spike begins.
        at: SimTime,
        /// How long the spike lasts.
        duration: SimDuration,
        /// Latency multiplier (> 0); e.g. `10.0` for a 10× slowdown.
        factor: f64,
    },
    /// Flips every node matched by `selector` to a Byzantine routing
    /// behaviour at `at`; [`FaultHooks::corrupt`] installs it.
    Byzantine {
        /// When the nodes turn adversarial.
        at: SimTime,
        /// A [`Selector`] over [`FaultHooks::victim_order`], e.g.
        /// `"eclipse:12"`.
        selector: String,
    },
    /// Message-duplication burst: every message sent during the window is,
    /// with probability `rate`, delivered a second time (the extra copy
    /// landing between 1× and 2× the original's delay). Exercises
    /// idempotence of handlers — retries, repair pushes and farewell
    /// messages all arrive twice under this window.
    Duplicate {
        /// When the duplication window opens.
        at: SimTime,
        /// How long duplication lasts.
        duration: SimDuration,
        /// Per-message duplication probability in `[0, 1]`.
        rate: f64,
    },
    /// Bounded delivery reordering: every message sent during the window
    /// is, with probability `rate`, delayed by an extra uniform draw from
    /// `(0, window]` — so later sends can overtake it by up to `window`.
    /// FIFO-per-link assumptions (e.g. "my notify arrives before my next
    /// stabilize") break under this fault.
    Reorder {
        /// When the reordering window opens.
        at: SimTime,
        /// How long reordering lasts.
        duration: SimDuration,
        /// Per-message reorder probability in `[0, 1]`.
        rate: f64,
        /// Upper bound on the extra jitter a reordered message receives.
        window: SimDuration,
    },
    /// Crash-then-rejoin of the *same identifier*: every node matched by
    /// `selector` crashes at `at` and rejoins `down_for` later on its
    /// original host, with [`Recovery`] deciding what it remembers. Unlike
    /// [`Fault::Churn`] rejoins (fresh identifiers), a restart makes the
    /// overlay re-admit an id it may still carry dead pointers for.
    Restart {
        /// When the victims crash.
        at: SimTime,
        /// How long each victim stays down before rejoining.
        down_for: SimDuration,
        /// A [`Selector`] over [`FaultHooks::victim_order`], e.g. `"span:0:2"`.
        selector: String,
        /// What the victims remember when they come back.
        recovery: Recovery,
    },
    /// Cuts the network in two: messages between `side` hosts and the rest
    /// are dropped for `duration`, then whatever cut was in effect before
    /// (usually none) is restored.
    Partition {
        /// When the partition forms.
        at: SimTime,
        /// How long the partition lasts.
        duration: SimDuration,
        /// Hosts on one side of the cut (the other side is everyone else).
        side: Vec<HostId>,
    },
}

impl Fault {
    /// When the fault first acts: the instant the runner schedules it.
    pub fn start(&self) -> SimTime {
        match *self {
            Fault::Churn { start, .. } => start,
            Fault::KillBurst { at, .. }
            | Fault::LossBurst { at, .. }
            | Fault::LatencySpike { at, .. }
            | Fault::Byzantine { at, .. }
            | Fault::Duplicate { at, .. }
            | Fault::Reorder { at, .. }
            | Fault::Restart { at, .. }
            | Fault::Partition { at, .. } => at,
        }
    }

    /// The instant the fault's direct effects end (victims of a kill
    /// burst are all dead, a window has closed, a restarted node has
    /// rejoined). Scenarios run past the latest of these plus a settling
    /// tail.
    pub fn end(&self) -> SimTime {
        match *self {
            Fault::Churn { start, duration, rejoin_after, .. } => {
                start + duration + rejoin_after.unwrap_or(SimDuration::ZERO)
            }
            Fault::KillBurst { at, window, .. } => at + window,
            Fault::LossBurst { at, duration, .. }
            | Fault::LatencySpike { at, duration, .. }
            | Fault::Duplicate { at, duration, .. }
            | Fault::Reorder { at, duration, .. }
            | Fault::Partition { at, duration, .. } => at + duration,
            Fault::Byzantine { at, .. } => at,
            Fault::Restart { at, down_for, .. } => at + down_for,
        }
    }

    /// Lays a window fault's setting over `net`; other faults leave it
    /// alone.
    pub(crate) fn impose(&self, net: &mut NetConditions) {
        match self {
            Fault::LossBurst { rate, .. } => net.loss_rate = *rate,
            Fault::LatencySpike { factor, .. } => net.latency_factor = *factor,
            Fault::Duplicate { rate, .. } => net.dup_rate = *rate,
            Fault::Reorder { rate, window, .. } => {
                net.reorder_rate = *rate;
                net.reorder_window = *window;
            }
            Fault::Partition { side, .. } => net.partition = side.iter().copied().collect(),
            Fault::Churn { .. }
            | Fault::KillBurst { .. }
            | Fault::Byzantine { .. }
            | Fault::Restart { .. } => {}
        }
    }
}

/// A pure-data script of faults, executed by a [`FaultRunner`].
///
/// Plans are built with [`with`](FaultPlan::with) and checked by
/// [`validate`](FaultPlan::validate); an invalid plan is rejected before
/// any fault is injected.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct FaultPlan {
    faults: Vec<Fault>,
}

impl FaultPlan {
    /// Creates an empty plan.
    pub fn new() -> Self {
        FaultPlan::default()
    }

    /// Adds one fault to the plan.
    #[must_use]
    pub fn with(mut self, fault: Fault) -> Self {
        self.faults.push(fault);
        self
    }

    /// The scripted faults, in insertion order.
    pub fn faults(&self) -> &[Fault] {
        &self.faults
    }

    /// Checks every fault's parameters, returning the first problem found.
    /// A window fault's setting must pass [`NetConditions::check`], its
    /// duration must be non-zero, a partition needs a side and a reorder
    /// window a jitter bound. Every selector must be one
    /// [`Selector::parse`] reads; its error quotes the text.
    pub fn validate(&self) -> Result<(), String> {
        for (i, f) in self.faults.iter().enumerate() {
            let err = |msg: String| Err(format!("fault #{i}: {msg}"));
            let mut net = NetConditions::default();
            f.impose(&mut net);
            if let Err(e) = net.check() {
                return err(e);
            }
            match f {
                Fault::Churn { leave_rate_per_sec, graceful_fraction, duration, .. } => {
                    // Gaps are drawn with mean 1 / rate, which a subnormal
                    // rate makes infinite.
                    let gap = 1.0 / leave_rate_per_sec;
                    if !(gap.is_finite() && gap > 0.0) {
                        return err(format!(
                            "leave rate must be positive with a finite mean gap: \
                             {leave_rate_per_sec}"
                        ));
                    }
                    if !(0.0..=1.0).contains(graceful_fraction) {
                        return err(format!(
                            "graceful fraction must be in [0, 1]: {graceful_fraction}"
                        ));
                    }
                    if duration.is_zero() {
                        return err("churn duration must be non-zero".into());
                    }
                }
                Fault::KillBurst { selector, .. }
                | Fault::Restart { selector, .. }
                | Fault::Byzantine { selector, .. } => {
                    if let Err(e) = Selector::parse(selector) {
                        return err(e);
                    }
                }
                Fault::Partition { side, .. } if side.is_empty() => {
                    return err("partition side must be non-empty".into());
                }
                Fault::Reorder { window, .. } if window.is_zero() => {
                    return err("reorder jitter window must be non-zero".into());
                }
                Fault::LossBurst { duration, .. }
                | Fault::LatencySpike { duration, .. }
                | Fault::Duplicate { duration, .. }
                | Fault::Reorder { duration, .. }
                | Fault::Partition { duration, .. } => {
                    if duration.is_zero() {
                        return err("window duration must be non-zero".into());
                    }
                }
            }
        }
        Ok(())
    }
}

/// Spawns a fresh node and initiates its join; returns its address, or
/// `None` if joining is impossible right now (e.g. no live bootstrap).
pub type JoinHook<N, L> = Box<dyn FnMut(&mut Runtime<N, L>, &mut StdRng) -> Option<Addr>>;
/// True once the overlay's routing structure is consistent again; polled
/// after each kill burst to measure reconvergence time.
pub type ConvergencePredicate<N, L> = Box<dyn FnMut(&Runtime<N, L>) -> bool>;
/// Installs a Byzantine behaviour on the listed nodes. Must be
/// deterministic given the same runtime state and address order.
pub type CorruptHook<N, L> = Box<dyn FnMut(&mut Runtime<N, L>, &[Addr])>;
/// Performs one phase of a [`Fault::Restart`] for one victim: at
/// [`RestartPhase::Checkpoint`] snapshot what [`Recovery::Persisted`] may
/// keep (return value ignored); at [`RestartPhase::Rejoin`] respawn the
/// *same identifier* and return the new address, or `None` if rejoining is
/// impossible. The runner itself performs the crash between the phases.
pub type RestartHook<N, L> =
    Box<dyn FnMut(&mut Runtime<N, L>, &mut StdRng, Addr, Recovery, RestartPhase) -> Option<Addr>>;

/// Protocol bindings the [`FaultRunner`] reads and calls back into.
///
/// The runner is generic over the protocol; these bindings tell it how to
/// add a node, which ordering selectors read, and how to decide that the
/// overlay has healed after a burst.
pub struct FaultHooks<N: Node, L: LatencyModel> {
    /// How to spawn and join a replacement node.
    pub join: JoinHook<N, L>,
    /// The fixed ordering of the original population every [`Selector`]
    /// reads — ring order, or an adversary's eclipse order.
    pub victim_order: Vec<Addr>,
    /// When the overlay counts as healed after a burst.
    pub ring_converged: ConvergencePredicate<N, L>,
    /// How to turn selected nodes Byzantine ([`Fault::Byzantine`]).
    pub corrupt: CorruptHook<N, L>,
    /// How to checkpoint and re-admit a node across a [`Fault::Restart`].
    pub restart: RestartHook<N, L>,
}

impl<N: Node, L: LatencyModel> FaultHooks<N, L> {
    /// Hooks for protocols without join/convergence machinery: `join` does
    /// nothing, the victim ordering is empty (every selector matches
    /// nobody), `ring_converged` is always true. Useful for plans that
    /// only script loss, latency or partitions.
    pub fn inert() -> Self {
        FaultHooks {
            join: Box::new(|_, _| None),
            victim_order: Vec::new(),
            ring_converged: Box::new(|_| true),
            corrupt: Box::new(|_, _| {}),
            restart: Box::new(|_, _, _, _, _| None),
        }
    }
}

/// A victim selector over [`FaultHooks::victim_order`]. The two grammars
/// every experiment's kill bursts, restarts and Byzantine flips are
/// written in:
///
/// | text | selects |
/// |---|---|
/// | `arc:N`, `eclipse:N` | the first `N` entries of the ordering still alive |
/// | `span:S:L` | the entries still alive among the `L` positions from `S`, wrapping |
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum Selector {
    /// `arc:N` / `eclipse:N`.
    Leading {
        /// How many live entries to take.
        take: usize,
    },
    /// `span:S:L`.
    Span {
        /// First position of the arc.
        start: usize,
        /// Positions the arc covers (capped at one full turn).
        len: usize,
    },
}

impl Selector {
    /// Parses a selector string.
    ///
    /// # Errors
    ///
    /// Names the offending text when the prefix is not one of the table's,
    /// a count is missing or extra, or a count is not a `usize`.
    pub fn parse(text: &str) -> Result<Selector, String> {
        let (kind, counts) = text.split_once(':').unwrap_or((text, ""));
        let counts: Vec<usize> = counts
            .split(':')
            .map(|c| c.parse().map_err(|_| format!("selector {text:?}: {c:?} is not a count")))
            .collect::<Result<_, _>>()?;
        match (kind, counts.as_slice()) {
            ("arc" | "eclipse", &[take]) => Ok(Selector::Leading { take }),
            ("span", &[start, len]) => Ok(Selector::Span { start, len }),
            _ => Err(format!("selector {text:?}: expected arc:N, eclipse:N or span:S:L")),
        }
    }

    /// The members of `order` this selector names that are in `live`, in
    /// `order`'s order.
    pub fn select(self, order: &[Addr], live: &[Addr]) -> Vec<Addr> {
        let alive = |a: &Addr| live.contains(a);
        match self {
            Selector::Leading { take } => order.iter().copied().filter(alive).take(take).collect(),
            Selector::Span { start, len } => {
                let n = order.len();
                (0..len.min(n)).map(|d| order[(start % n + d) % n]).filter(alive).collect()
            }
        }
    }
}

/// The [`JoinHook`] of every churn experiment: draw a bootstrap among the
/// `candidates` still alive (nothing joins when none is), let `build`
/// make the joining node — drawing whatever else it needs from the same
/// `rng`, after the bootstrap — and spawn it on host 0. The runner's own
/// `"faults"` stream is not touched.
pub fn join_via_live_bootstrap<N: Node, L: LatencyModel>(
    candidates: Vec<Addr>,
    mut rng: StdRng,
    mut build: impl FnMut(&mut StdRng, Addr) -> N + 'static,
) -> JoinHook<N, L> {
    Box::new(move |rt, _faults_rng| {
        let live: Vec<Addr> = candidates.iter().copied().filter(|&a| rt.is_alive(a)).collect();
        let bootstrap = *live.get(rng.gen_range(0..live.len().max(1)))?;
        let node = build(&mut rng, bootstrap);
        Some(rt.spawn(HostId(0), node))
    })
}

/// The runner's private agenda entries.
enum Action {
    /// Run fault `i` of the plan: its start, and for churn every later
    /// departure (each one schedules the next while the window is open).
    Start(usize),
    /// A replacement join balancing an earlier churn departure.
    Rejoin,
    /// Crash one kill-burst victim.
    Kill(Addr),
    /// Poll for reconvergence after a burst whose window closed at
    /// `window_end`, giving up at `deadline`.
    Settle { window_end: SimTime, deadline: SimTime },
    /// Close window fault `i` of the plan.
    Close(usize),
    /// Re-admit one restarted victim under its old identifier.
    RestartRejoin { addr: Addr, recovery: Recovery },
}

/// How often `ring_converged` is polled after a burst.
const POLL_INTERVAL: SimDuration = SimDuration::from_millis(500);
/// How long after a burst's window the runner keeps polling before
/// declaring the burst unrecovered.
const CONVERGE_TIMEOUT: SimDuration = SimDuration::from_mins(5);
/// Population floor below which churn departures are skipped.
const MIN_POPULATION: usize = 4;

/// Executes a [`FaultPlan`] against a [`Runtime`].
///
/// Create with [`new`](FaultRunner::new), then drive the simulation with
/// [`run_until`](FaultRunner::run_until) instead of calling
/// `Runtime::run_until` directly — the runner interleaves its agenda with
/// the runtime's event queue. What it did is counted in the runtime's
/// metrics sink under [`keys`].
pub struct FaultRunner<N: Node, L: LatencyModel> {
    plan: FaultPlan,
    hooks: FaultHooks<N, L>,
    rng: StdRng,
    agenda: EventQueue<Action>,
    /// Live nodes eligible for churn departures, in deterministic spawn
    /// order (never derived from runtime hash-map iteration).
    population: Vec<Addr>,
    /// The window faults open now, by plan index, in the order they
    /// opened.
    open: Vec<usize>,
    /// The network in force when `open` was last empty.
    baseline: NetConditions,
}

impl<N: Node, L: LatencyModel> FaultRunner<N, L> {
    /// Builds a runner for `plan`.
    ///
    /// `population` is the initial set of churn-eligible nodes in a
    /// deterministic order (e.g. spawn order); `seeds` provides the
    /// dedicated `"faults"` randomness stream.
    ///
    /// # Errors
    ///
    /// Returns the validation error if the plan is malformed.
    pub fn new(
        plan: FaultPlan,
        hooks: FaultHooks<N, L>,
        seeds: SeedSource,
        population: Vec<Addr>,
    ) -> Result<Self, String> {
        plan.validate()?;
        let mut agenda = EventQueue::new();
        for (i, fault) in plan.faults().iter().enumerate() {
            agenda.schedule(fault.start(), Action::Start(i));
        }
        Ok(FaultRunner {
            plan,
            hooks,
            rng: seeds.stream("faults"),
            agenda,
            population,
            open: Vec::new(),
            baseline: NetConditions::default(),
        })
    }

    /// Advances the simulation to `deadline`, executing every scheduled
    /// fault on the way. Safe to call repeatedly with increasing deadlines.
    pub fn run_until(&mut self, rt: &mut Runtime<N, L>, deadline: SimTime) {
        while let Some(at) = self.agenda.peek_time() {
            if at > deadline {
                break;
            }
            rt.run_until(at);
            let (_, action) = self.agenda.pop().expect("agenda entry vanished");
            self.execute(rt, action);
        }
        rt.run_until(deadline);
    }

    /// Drops addresses that are no longer alive (killed outside the
    /// runner, e.g. by a worm scenario running alongside the plan), then
    /// returns the live members of the victim ordering `selector` names.
    fn select(&mut self, rt: &Runtime<N, L>, selector: &str) -> Vec<Addr> {
        self.population.retain(|&a| rt.is_alive(a));
        let selector = Selector::parse(selector).expect("the plan was validated");
        selector.select(&self.hooks.victim_order, &self.population)
    }

    fn execute(&mut self, rt: &mut Runtime<N, L>, action: Action) {
        match action {
            Action::Start(i) => self.start(rt, i),
            Action::Rejoin => {
                if let Some(addr) = (self.hooks.join)(rt, &mut self.rng) {
                    self.population.push(addr);
                    rt.metrics_mut().count(keys::JOIN, 1);
                }
            }
            Action::Kill(addr) => {
                if rt.kill(addr) {
                    self.population.retain(|&a| a != addr);
                    rt.metrics_mut().count(keys::BURST_KILL, 1);
                }
            }
            Action::Settle { window_end, deadline } => {
                if (self.hooks.ring_converged)(rt) {
                    let took = rt.now().saturating_since(window_end);
                    rt.metrics_mut().record(keys::RECONVERGE_MS, took.as_millis_f64());
                } else if rt.now() < deadline {
                    let next = Action::Settle { window_end, deadline };
                    self.agenda.schedule(rt.now() + POLL_INTERVAL, next);
                }
            }
            Action::Close(i) => {
                self.open.retain(|&j| j != i);
                self.impose_windows(rt);
            }
            Action::RestartRejoin { addr, recovery } => {
                if let Some(new_addr) =
                    (self.hooks.restart)(rt, &mut self.rng, addr, recovery, RestartPhase::Rejoin)
                {
                    self.population.push(new_addr);
                    rt.metrics_mut().count(keys::RESTART_REJOIN, 1);
                }
            }
        }
    }

    /// Runs fault `i`: the one `match` on what a fault does when it
    /// fires. A churn entry runs once per departure, each scheduling the
    /// next while its window is open.
    fn start(&mut self, rt: &mut Runtime<N, L>, i: usize) {
        match self.plan.faults()[i].clone() {
            Fault::Churn {
                start,
                duration,
                leave_rate_per_sec,
                graceful_fraction,
                rejoin_after,
            } => {
                let window_end = start + duration;
                if rt.now() >= window_end {
                    return;
                }
                self.population.retain(|&a| rt.is_alive(a));
                if self.population.len() > MIN_POPULATION {
                    // Deterministic victim choice from our own ordered
                    // population — never from runtime hash-map iteration.
                    let idx = self.rng.gen_range(0..self.population.len());
                    let victim = self.population.swap_remove(idx);
                    if self.rng.gen::<f64>() < graceful_fraction {
                        rt.shutdown(victim);
                        rt.metrics_mut().count(keys::LEAVE_GRACEFUL, 1);
                    } else {
                        rt.kill(victim);
                        rt.metrics_mut().count(keys::LEAVE_CRASH, 1);
                    }
                    if let Some(delay) = rejoin_after {
                        self.agenda.schedule(rt.now() + delay, Action::Rejoin);
                    }
                }
                let next = rt.now() + exp_duration(&mut self.rng, 1.0 / leave_rate_per_sec);
                if next < window_end {
                    self.agenda.schedule(next, Action::Start(i));
                }
            }
            Fault::KillBurst { at, window, selector } => {
                let victims = self.select(rt, &selector);
                // Spread the crashes uniformly over the window so repair
                // traffic overlaps the ongoing failures, as in a real worm
                // kill.
                let n = victims.len() as u64;
                for (k, addr) in victims.into_iter().enumerate() {
                    let offset = if n > 1 {
                        SimDuration::from_nanos(window.as_nanos() / (n - 1) * k as u64)
                    } else {
                        SimDuration::ZERO
                    };
                    self.agenda.schedule(at + offset, Action::Kill(addr));
                }
                let window_end = at + window;
                let deadline = window_end + CONVERGE_TIMEOUT;
                self.agenda.schedule(window_end, Action::Settle { window_end, deadline });
            }
            Fault::LossBurst { duration, .. }
            | Fault::LatencySpike { duration, .. }
            | Fault::Duplicate { duration, .. }
            | Fault::Reorder { duration, .. }
            | Fault::Partition { duration, .. } => {
                if self.open.is_empty() {
                    self.baseline = rt.net().clone();
                }
                self.open.push(i);
                self.impose_windows(rt);
                self.agenda.schedule(rt.now() + duration, Action::Close(i));
            }
            Fault::Restart { down_for, selector, recovery, .. } => {
                for addr in self.select(rt, &selector) {
                    // A victim may die between selection and its turn (an
                    // earlier victim's checkpoint may take it down): skip
                    // it safely — no checkpoint, no crash, no rejoin.
                    if !rt.is_alive(addr) {
                        continue;
                    }
                    (self.hooks.restart)(
                        rt,
                        &mut self.rng,
                        addr,
                        recovery,
                        RestartPhase::Checkpoint,
                    );
                    rt.kill(addr);
                    self.population.retain(|&a| a != addr);
                    rt.metrics_mut().count(keys::RESTART, 1);
                    let rejoin = Action::RestartRejoin { addr, recovery };
                    self.agenda.schedule(rt.now() + down_for, rejoin);
                }
            }
            Fault::Byzantine { selector, .. } => {
                let targets = self.select(rt, &selector);
                (self.hooks.corrupt)(rt, &targets);
                if !targets.is_empty() {
                    rt.metrics_mut().count(keys::BYZANTINE, targets.len() as u64);
                }
            }
        }
    }

    /// Sets the runtime's network to the baseline with every open window's
    /// setting laid over it in opening order: for each condition, the last
    /// window still open that sets it wins, or else the baseline.
    fn impose_windows(&self, rt: &mut Runtime<N, L>) {
        let mut net = self.baseline.clone();
        for &j in &self.open {
            self.plan.faults()[j].impose(&mut net);
        }
        rt.set_net(net);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runtime::{Ctx, UniformLatency, Wire};

    /// Minimal protocol: every node pings a random peer each second and
    /// counts ping/pong traffic, so faults visibly perturb its metrics.
    struct PingNode {
        peers: Vec<Addr>,
        shutdowns_sent: u64,
    }

    #[derive(Clone)]
    enum Msg {
        Ping,
        Pong,
        Bye,
    }

    impl Wire for Msg {
        fn wire_size(&self) -> usize {
            16
        }
    }

    impl Node for PingNode {
        type Msg = Msg;
        type Timer = ();

        fn on_start(&mut self, ctx: &mut Ctx<'_, Msg, ()>) {
            ctx.set_timer(SimDuration::from_secs(1), ());
        }

        fn on_message(&mut self, from: Addr, msg: Msg, ctx: &mut Ctx<'_, Msg, ()>) {
            match msg {
                Msg::Ping => {
                    ctx.metrics().count("ping.received", 1);
                    ctx.send(from, Msg::Pong);
                }
                Msg::Pong => ctx.metrics().count("pong.received", 1),
                Msg::Bye => ctx.metrics().count("bye.received", 1),
            }
        }

        fn on_timer(&mut self, _t: (), ctx: &mut Ctx<'_, Msg, ()>) {
            if !self.peers.is_empty() {
                let idx = ctx.rng().gen_range(0..self.peers.len());
                ctx.send(self.peers[idx], Msg::Ping);
            }
            ctx.set_timer(SimDuration::from_secs(1), ());
        }

        fn on_shutdown(&mut self, ctx: &mut Ctx<'_, Msg, ()>) {
            for &p in &self.peers {
                ctx.send(p, Msg::Bye);
            }
            self.shutdowns_sent += 1;
        }
    }

    fn build(n: usize, seed: u64) -> (Runtime<PingNode, UniformLatency>, Vec<Addr>) {
        let mut rt = Runtime::new(UniformLatency::new(n, SimDuration::from_millis(10)), seed);
        let addrs: Vec<Addr> = (0..n)
            .map(|i| rt.spawn(HostId(i), PingNode { peers: Vec::new(), shutdowns_sent: 0 }))
            .collect();
        for (i, &a) in addrs.iter().enumerate() {
            let peers: Vec<Addr> = addrs
                .iter()
                .copied()
                .enumerate()
                .filter(|&(j, _)| j != i)
                .map(|(_, p)| p)
                .collect();
            rt.node_mut(a).expect("just spawned").peers = peers;
        }
        (rt, addrs)
    }

    fn secs(s: u64) -> SimTime {
        SimTime::ZERO + SimDuration::from_secs(s)
    }

    #[test]
    fn validate_rejects_bad_parameters() {
        let churn = |leave_rate_per_sec| Fault::Churn {
            start: SimTime::ZERO,
            duration: SimDuration::from_secs(10),
            leave_rate_per_sec,
            graceful_fraction: 0.5,
            rejoin_after: None,
        };
        let (at, d) = (SimTime::ZERO, SimDuration::from_secs(1));
        let cases = [
            (churn(0.0), "leave rate"),
            // Positive, but its mean gap 1 / rate is infinite.
            (churn(5e-324), "leave rate"),
            (Fault::LossBurst { at, duration: d, rate: 1.5 }, "loss rate"),
            (Fault::LatencySpike { at, duration: d, factor: f64::INFINITY }, "latency factor"),
            (Fault::Duplicate { at, duration: d, rate: -0.1 }, "duplication rate"),
            (Fault::Reorder { at, duration: d, rate: f64::NAN, window: d }, "reorder rate"),
            (Fault::Partition { at, duration: d, side: Vec::new() }, "partition side"),
            // A selector the parser rejects is rejected by the plan,
            // quoted.
            (Fault::KillBurst { at, window: d, selector: "section:0".into() }, "\"section:0\""),
            (
                Fault::Restart {
                    at,
                    down_for: d,
                    selector: "frac:0.1".into(),
                    recovery: Recovery::Amnesia,
                },
                "\"frac:0.1\"",
            ),
            (Fault::Byzantine { at, selector: "arc:".into() }, "\"arc:\""),
        ];
        for (fault, names) in cases {
            let plan = FaultPlan::new().with(fault.clone());
            let err = plan.validate().expect_err(&format!("{fault:?}"));
            assert!(err.contains(names), "{err} should name {names}");
        }
    }

    #[test]
    fn churn_kills_and_rejoins_nodes() {
        let (mut rt, addrs) = build(12, 7);
        let plan = FaultPlan::new().with(Fault::Churn {
            start: secs(5),
            duration: SimDuration::from_secs(60),
            leave_rate_per_sec: 0.2,
            graceful_fraction: 0.5,
            rejoin_after: Some(SimDuration::from_secs(5)),
        });
        let hooks: FaultHooks<PingNode, UniformLatency> = FaultHooks {
            join: Box::new(|rt, _rng| {
                Some(rt.spawn(HostId(0), PingNode { peers: Vec::new(), shutdowns_sent: 0 }))
            }),
            ..FaultHooks::inert()
        };
        let mut runner =
            FaultRunner::new(plan, hooks, SeedSource::new(7), addrs).expect("valid plan");
        runner.run_until(&mut rt, secs(120));
        let m = rt.metrics();
        let (crashes, graceful) = (m.counter(keys::LEAVE_CRASH), m.counter(keys::LEAVE_GRACEFUL));
        assert!(crashes > 0 && graceful > 0, "a 60 s window at 0.2/s leaves both ways");
        assert_eq!(
            m.counter(keys::JOIN),
            crashes + graceful,
            "every leave is balanced by a rejoin"
        );
        // Graceful leavers sent farewell messages.
        assert!(rt.metrics().counter("bye.received") > 0);
    }

    #[test]
    fn kill_burst_reports_impact_and_reconvergence() {
        let (mut rt, addrs) = build(10, 11);
        let plan = FaultPlan::new().with(Fault::KillBurst {
            at: secs(10),
            window: SimDuration::from_secs(2),
            selector: "arc:3".into(),
        });
        let hooks: FaultHooks<PingNode, UniformLatency> = FaultHooks {
            victim_order: addrs.clone(),
            // Healed once the population is back under ping load for a bit.
            ring_converged: Box::new(|rt| rt.now() >= secs(20)),
            ..FaultHooks::inert()
        };
        let mut runner =
            FaultRunner::new(plan, hooks, SeedSource::new(11), addrs.clone()).expect("valid plan");
        runner.run_until(&mut rt, secs(60));
        assert_eq!(rt.metrics().counter(keys::BURST_KILL), 3);
        assert!(addrs[..3].iter().all(|&a| !rt.is_alive(a)), "arc:3 kills the first three");
        assert_eq!(rt.num_alive(), 7);
        // Healed at 20 s, 8 s after the window closed at 12 s.
        let took = rt.metrics().histogram(keys::RECONVERGE_MS).expect("should reconverge");
        assert_eq!((took.count(), took.mean()), (1, 8_000.0));
    }

    #[test]
    fn loss_latency_and_partition_restore_previous_state() {
        let (mut rt, addrs) = build(6, 3);
        rt.set_net(NetConditions { loss_rate: 0.01, ..NetConditions::default() });
        let plan = FaultPlan::new()
            .with(Fault::LossBurst { at: secs(5), duration: SimDuration::from_secs(5), rate: 0.9 })
            .with(Fault::LatencySpike {
                at: secs(12),
                duration: SimDuration::from_secs(5),
                factor: 10.0,
            })
            .with(Fault::Partition {
                at: secs(20),
                duration: SimDuration::from_secs(5),
                side: vec![HostId(0), HostId(1)],
            });
        let mut runner = FaultRunner::new(plan, FaultHooks::inert(), SeedSource::new(3), addrs)
            .expect("valid plan");

        runner.run_until(&mut rt, secs(7));
        assert_eq!(rt.net().loss_rate, 0.9);
        runner.run_until(&mut rt, secs(13));
        assert_eq!(rt.net().loss_rate, 0.01, "previous loss rate restored");
        assert_eq!(rt.net().latency_factor, 10.0);
        runner.run_until(&mut rt, secs(21));
        assert_eq!(rt.net().latency_factor, 1.0, "latency factor restored");
        assert!(!rt.net().partition.is_empty());
        runner.run_until(&mut rt, secs(30));
        assert!(rt.net().partition.is_empty(), "partition healed");
        assert!(rt.stats().partition_dropped > 0, "cross-partition traffic was dropped");
    }

    #[test]
    fn overlapping_windows_restore_the_baseline_not_each_other() {
        // Regression: window A (0.9, 5–15 s) and window B (0.5, 10–20 s)
        // overlap. The old "restore whatever I saw at start" scheme had
        // A's end restore the baseline while B was still open, and B's end
        // then re-impose A's 0.9 forever. The open list restores in any
        // order: A's end leaves B in force, B's end restores the baseline.
        let (mut rt, addrs) = build(6, 3);
        rt.set_net(NetConditions { loss_rate: 0.01, ..NetConditions::default() });
        let plan = FaultPlan::new()
            .with(Fault::LossBurst { at: secs(5), duration: SimDuration::from_secs(10), rate: 0.9 })
            .with(Fault::LossBurst {
                at: secs(10),
                duration: SimDuration::from_secs(10),
                rate: 0.5,
            });
        let mut runner = FaultRunner::new(plan, FaultHooks::inert(), SeedSource::new(3), addrs)
            .expect("valid plan");
        runner.run_until(&mut rt, secs(7));
        assert_eq!(rt.net().loss_rate, 0.9, "window A in force");
        runner.run_until(&mut rt, secs(12));
        assert_eq!(rt.net().loss_rate, 0.5, "window B opened second, wins");
        runner.run_until(&mut rt, secs(17));
        assert_eq!(rt.net().loss_rate, 0.5, "A's end must not clobber B");
        runner.run_until(&mut rt, secs(25));
        assert_eq!(rt.net().loss_rate, 0.01, "B's end restores the true baseline");
    }

    #[test]
    fn overlapping_partitions_keep_the_later_cut_until_it_heals() {
        // A cuts host 0 off over 10–20 s, B host 1 over 15–25 s: A's heal
        // must leave B's cut in force, and B's heal restore no cut.
        let (mut rt, addrs) = build(6, 5);
        let cut = |at, host| Fault::Partition {
            at: secs(at),
            duration: SimDuration::from_secs(10),
            side: vec![HostId(host)],
        };
        let plan = FaultPlan::new().with(cut(10, 0)).with(cut(15, 1));
        let mut runner = FaultRunner::new(plan, FaultHooks::inert(), SeedSource::new(5), addrs)
            .expect("valid plan");
        runner.run_until(&mut rt, secs(12));
        assert_eq!(rt.net().partition, [HostId(0)].into());
        runner.run_until(&mut rt, secs(22));
        assert_eq!(rt.net().partition, [HostId(1)].into(), "A's heal must not end B's cut");
        runner.run_until(&mut rt, secs(26));
        assert!(rt.net().partition.is_empty(), "B's heal restores no partition");
    }

    #[test]
    fn nested_latency_windows_unwind_in_any_order() {
        // Outer spike (×10, 5–25 s) fully contains inner spike (×3,
        // 10–15 s): the inner end must fall back to the outer's factor,
        // and the outer end to the baseline.
        let (mut rt, addrs) = build(6, 9);
        let plan = FaultPlan::new()
            .with(Fault::LatencySpike {
                at: secs(5),
                duration: SimDuration::from_secs(20),
                factor: 10.0,
            })
            .with(Fault::LatencySpike {
                at: secs(10),
                duration: SimDuration::from_secs(5),
                factor: 3.0,
            });
        let mut runner = FaultRunner::new(plan, FaultHooks::inert(), SeedSource::new(9), addrs)
            .expect("valid plan");
        runner.run_until(&mut rt, secs(12));
        assert_eq!(rt.net().latency_factor, 3.0);
        runner.run_until(&mut rt, secs(18));
        assert_eq!(rt.net().latency_factor, 10.0, "inner end falls back to the outer window");
        runner.run_until(&mut rt, secs(30));
        assert_eq!(rt.net().latency_factor, 1.0, "outer end restores nominal latency");
    }

    #[test]
    fn same_instant_bursts_both_select_before_either_kills() {
        let (mut rt, addrs) = build(8, 13);
        let burst =
            Fault::KillBurst { at: secs(5), window: SimDuration::ZERO, selector: "arc:2".into() };
        let plan = FaultPlan::new().with(burst.clone()).with(burst);
        let hooks = FaultHooks { victim_order: addrs.clone(), ..FaultHooks::inert() };
        let mut runner =
            FaultRunner::new(plan, hooks, SeedSource::new(13), addrs.clone()).expect("valid plan");
        runner.run_until(&mut rt, secs(10));
        // Agenda ties run in insertion order: the second start runs before
        // the kills the first scheduled, so it picks the same two victims.
        let dead: Vec<Addr> = addrs.iter().copied().filter(|&a| !rt.is_alive(a)).collect();
        assert_eq!(dead, addrs[..2]);
        assert_eq!(rt.metrics().counter(keys::BURST_KILL), 2);
    }

    #[test]
    fn a_churn_gap_past_the_clock_runs_to_the_deadline() {
        let (mut rt, addrs) = build(6, 7);
        // The first gap draw is thousands of years of simulated time.
        let plan = FaultPlan::new().with(Fault::Churn {
            start: secs(1),
            duration: SimDuration::from_secs(60),
            leave_rate_per_sec: 1e-12,
            graceful_fraction: 0.5,
            rejoin_after: None,
        });
        let mut runner = FaultRunner::new(plan, FaultHooks::inert(), SeedSource::new(7), addrs)
            .expect("valid plan");
        runner.run_until(&mut rt, secs(120));
        assert_eq!(rt.now(), secs(120));
        let m = rt.metrics();
        assert_eq!(m.counter(keys::LEAVE_CRASH) + m.counter(keys::LEAVE_GRACEFUL), 1);
    }

    #[test]
    fn duplicate_window_injects_extra_deliveries_and_restores() {
        let (mut rt, addrs) = build(8, 21);
        let plan = FaultPlan::new().with(Fault::Duplicate {
            at: secs(5),
            duration: SimDuration::from_secs(20),
            rate: 1.0,
        });
        let mut runner = FaultRunner::new(plan, FaultHooks::inert(), SeedSource::new(21), addrs)
            .expect("valid plan");
        runner.run_until(&mut rt, secs(10));
        assert_eq!(rt.net().dup_rate, 1.0);
        runner.run_until(&mut rt, secs(40));
        assert_eq!(rt.net().dup_rate, 0.0, "duplication restored after the window");
        let stats = rt.stats();
        assert!(stats.messages_duplicated > 0, "rate-1.0 window duplicated nothing");
        assert!(
            stats.messages_delivered > stats.messages_sent,
            "duplicates should inflate deliveries past sends"
        );
    }

    #[test]
    fn reorder_window_jitters_deliveries_and_restores() {
        let (mut rt, addrs) = build(8, 23);
        let plan = FaultPlan::new().with(Fault::Reorder {
            at: secs(5),
            duration: SimDuration::from_secs(20),
            rate: 1.0,
            window: SimDuration::from_secs(2),
        });
        let mut runner = FaultRunner::new(plan, FaultHooks::inert(), SeedSource::new(23), addrs)
            .expect("valid plan");
        runner.run_until(&mut rt, secs(10));
        assert_eq!(rt.net().reorder_rate, 1.0);
        assert_eq!(rt.net().reorder_window, SimDuration::from_secs(2));
        runner.run_until(&mut rt, secs(40));
        assert_eq!(rt.net().reorder_rate, 0.0, "reordering restored after the window");
        assert!(rt.stats().messages_reordered > 0, "rate-1.0 window reordered nothing");
    }

    #[test]
    fn restart_crashes_then_rejoins_via_the_hook() {
        let (mut rt, addrs) = build(8, 31);
        let first = addrs[0];
        let plan = FaultPlan::new().with(Fault::Restart {
            at: secs(10),
            down_for: SimDuration::from_secs(5),
            selector: "arc:1".into(),
            recovery: Recovery::Persisted,
        });
        // The binding records each phase so the test can assert ordering.
        let phases = std::rc::Rc::new(std::cell::RefCell::new(Vec::new()));
        let phases_hook = phases.clone();
        let hooks: FaultHooks<PingNode, UniformLatency> = FaultHooks {
            victim_order: addrs.clone(),
            restart: Box::new(move |rt, _rng, addr, recovery, phase| {
                phases_hook.borrow_mut().push((addr, recovery, phase));
                match phase {
                    RestartPhase::Checkpoint => None,
                    RestartPhase::Rejoin => {
                        let host = rt.host_of(addr).expect("victim had a host");
                        Some(rt.spawn(host, PingNode { peers: Vec::new(), shutdowns_sent: 0 }))
                    }
                }
            }),
            ..FaultHooks::inert()
        };
        let mut runner =
            FaultRunner::new(plan, hooks, SeedSource::new(31), addrs).expect("valid plan");
        runner.run_until(&mut rt, secs(12));
        assert!(!rt.is_alive(first), "victim crashed at 10 s");
        assert_eq!(rt.num_alive(), 7);
        runner.run_until(&mut rt, secs(20));
        assert_eq!(rt.num_alive(), 8, "victim rejoined after 5 s down");
        assert_eq!(rt.metrics().counter(keys::RESTART), 1);
        assert_eq!(rt.metrics().counter(keys::RESTART_REJOIN), 1);
        let recorded = phases.borrow();
        assert_eq!(
            *recorded,
            vec![
                (first, Recovery::Persisted, RestartPhase::Checkpoint),
                (first, Recovery::Persisted, RestartPhase::Rejoin),
            ],
            "checkpoint fires before the crash, rejoin after the downtime"
        );
    }

    #[test]
    fn restart_of_an_already_dead_node_is_a_safe_noop() {
        let (mut rt, addrs) = build(8, 37);
        let (first, doomed) = (addrs[0], addrs[1]);
        let plan = FaultPlan::new().with(Fault::Restart {
            at: secs(10),
            down_for: SimDuration::from_secs(5),
            selector: "arc:2".into(),
            recovery: Recovery::Amnesia,
        });
        let hooks: FaultHooks<PingNode, UniformLatency> = FaultHooks {
            victim_order: addrs.clone(),
            // The first victim's checkpoint kills the second after both
            // were selected: the runner must skip the dead one.
            restart: Box::new(move |rt, _, addr, _, _| {
                assert_eq!(addr, first, "hook must not fire for a dead victim");
                rt.kill(doomed);
                None
            }),
            ..FaultHooks::inert()
        };
        let mut runner =
            FaultRunner::new(plan, hooks, SeedSource::new(37), addrs).expect("valid plan");
        runner.run_until(&mut rt, secs(30));
        assert_eq!(rt.metrics().counter(keys::RESTART), 1);
        assert_eq!(rt.metrics().counter(keys::RESTART_REJOIN), 0);
        assert_eq!(rt.num_alive(), 6, "nothing else was touched");
    }

    #[test]
    fn zero_duration_windows_are_rejected_up_front() {
        let cases = [
            FaultPlan::new().with(Fault::LossBurst {
                at: secs(1),
                duration: SimDuration::ZERO,
                rate: 0.5,
            }),
            FaultPlan::new().with(Fault::LatencySpike {
                at: secs(1),
                duration: SimDuration::ZERO,
                factor: 2.0,
            }),
            FaultPlan::new().with(Fault::Duplicate {
                at: secs(1),
                duration: SimDuration::ZERO,
                rate: 0.5,
            }),
            FaultPlan::new().with(Fault::Reorder {
                at: secs(1),
                duration: SimDuration::ZERO,
                rate: 0.5,
                window: SimDuration::from_secs(1),
            }),
            FaultPlan::new().with(Fault::Reorder {
                at: secs(1),
                duration: SimDuration::from_secs(1),
                rate: 0.5,
                window: SimDuration::ZERO,
            }),
        ];
        for (i, plan) in cases.iter().enumerate() {
            assert!(plan.validate().is_err(), "zero-duration case {i} must fail validation");
        }
    }

    #[test]
    fn same_seed_same_plan_is_reproducible() {
        let run = |seed: u64| -> String {
            let (mut rt, addrs) = build(12, seed);
            let plan = FaultPlan::new()
                .with(Fault::Churn {
                    start: secs(2),
                    duration: SimDuration::from_secs(40),
                    leave_rate_per_sec: 0.25,
                    graceful_fraction: 0.3,
                    rejoin_after: None,
                })
                .with(Fault::LossBurst {
                    at: secs(10),
                    duration: SimDuration::from_secs(10),
                    rate: 0.5,
                });
            let mut runner =
                FaultRunner::new(plan, FaultHooks::inert(), SeedSource::new(seed), addrs)
                    .expect("valid plan");
            runner.run_until(&mut rt, secs(60));
            rt.metrics_mut().render_snapshot()
        };
        assert_eq!(run(42), run(42), "same seed must give byte-identical metrics");
        assert_ne!(run(42), run(43), "different seed should perturb the run");
    }

    #[test]
    fn selectors_resolve_over_the_ordering_skipping_the_dead() {
        let a = |raw: u64| Addr::from_raw(raw);
        // The ordering is not address order; 30 and 60 are dead.
        let order: Vec<Addr> = [50, 30, 10, 60, 20, 40].map(a).to_vec();
        let live: Vec<Addr> = [10, 20, 40, 50].map(a).to_vec();
        let table: [(&str, &[u64]); 9] = [
            ("arc:0", &[]),
            // The take counts only live entries (30 is passed over).
            ("arc:3", &[50, 10, 20]),
            ("eclipse:3", &[50, 10, 20]),
            ("arc:99", &[50, 10, 20, 40]),
            // A span covers positions, so dead members shrink it.
            ("span:0:3", &[50, 10]),
            ("span:4:4", &[20, 40, 50]),
            ("span:10:2", &[20, 40]),
            ("span:3:0", &[]),
            // At most one full turn, from the wrapped start.
            ("span:7:18446744073709551615", &[10, 20, 40, 50]),
        ];
        for (text, want) in table {
            let got = Selector::parse(text).expect(text).select(&order, &live);
            assert_eq!(got, want.iter().copied().map(a).collect::<Vec<_>>(), "{text}");
        }
        assert!(Selector::parse("span:1:2").unwrap().select(&[], &live).is_empty());

        for text in [
            "",
            "arc",
            "arc:",
            "arc:x",
            "arc:-1",
            "arc:1:2",
            "eclipse:",
            "eclipse-skip:2:2",
            "eclipse-skip:3",
            "span:",
            "span:1",
            "span:x:2",
            "span:1:2:3",
            "span:1:",
            "span:0:99999999999999999999999",
            "frac:0.2",
            "section:3",
            "Arc:3",
            " arc:3",
        ] {
            let err = Selector::parse(text).expect_err(text);
            assert!(err.contains(&format!("{text:?}")), "{err} should quote {text:?}");
        }
    }

    #[test]
    fn join_hook_draws_the_bootstrap_before_the_builder_draws() {
        use rand::SeedableRng;
        let (mut rt, addrs) = build(6, 3);
        let seen = std::rc::Rc::new(std::cell::RefCell::new(Vec::new()));
        let record = seen.clone();
        let mut hook: JoinHook<PingNode, UniformLatency> = join_via_live_bootstrap(
            addrs.clone(),
            StdRng::seed_from_u64(11),
            move |rng, bootstrap| {
                record.borrow_mut().push((bootstrap, rng.gen::<u64>()));
                PingNode { peers: vec![bootstrap], shutdowns_sent: 0 }
            },
        );
        rt.kill(addrs[1]);
        rt.kill(addrs[4]);
        let live = [addrs[0], addrs[2], addrs[3], addrs[5]];
        // The hook's own stream, replayed: bootstrap index first, then
        // the builder's draw; the runner's stream is never touched.
        let mut replay = StdRng::seed_from_u64(11);
        let mut faults_rng = StdRng::seed_from_u64(99);
        for _ in 0..5 {
            let joined = hook(&mut rt, &mut faults_rng).expect("live candidates");
            let expect = (live[replay.gen_range(0..live.len())], replay.gen::<u64>());
            assert_eq!(seen.borrow().last(), Some(&expect));
            assert_eq!(rt.host_of(joined), Some(HostId(0)));
            assert_eq!(rt.node(joined).expect("spawned").peers, vec![expect.0]);
        }
        assert_eq!(faults_rng.gen::<u64>(), StdRng::seed_from_u64(99).gen::<u64>());

        // Nobody left to bootstrap through — joiners are not candidates,
        // only the original six ever are: nothing joins and the builder
        // is not called.
        for a in live {
            rt.kill(a);
        }
        let before = rt.num_alive();
        assert_eq!(hook(&mut rt, &mut faults_rng), None);
        assert_eq!((rt.num_alive(), seen.borrow().len()), (before, 5));
    }
}
