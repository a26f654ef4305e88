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
//! wires a fresh node, a `select_victims` closure that interprets a kill
//! burst's selector string (e.g. `"section:3"` for the paper's worm
//! scenario), and a `ring_converged` predicate polled after each burst to
//! measure time-to-reconvergence.
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
//!         selector: "section:0".into(),
//!     });
//! assert!(plan.validate().is_ok());
//! ```

use std::collections::BTreeMap;

use rand::rngs::StdRng;
use rand::Rng;

use crate::event::EventQueue;
use crate::rng::{exp_duration, SeedSource};
use crate::runtime::{Addr, HostId, LatencyModel, Node, Runtime};
use crate::time::{SimDuration, SimTime};
use crate::trace::{FlightRecorder, TraceEvent};

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
    /// Correlated mass failure: every node matched by `selector` (as
    /// interpreted by [`FaultHooks::select_victims`]) crashes at a time
    /// spread uniformly over `[at, at + window]`. This models the paper's
    /// worm-kill scenario — all nodes of the vulnerable type in a section
    /// range dying nearly at once.
    KillBurst {
        /// When the first victim dies.
        at: SimTime,
        /// Span over which the victims' crash times are spread.
        window: SimDuration,
        /// Protocol-interpreted victim filter, e.g. `"section:3"` or
        /// `"frac:0.25"`.
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
    /// Flips every node matched by `selector` (resolved through
    /// [`FaultHooks::select_victims`], the same language kill bursts use)
    /// to a scripted Byzantine routing behaviour at `at`. The `attack`
    /// string is protocol-interpreted by [`FaultHooks::corrupt`] — e.g.
    /// `"misroute:0.5"` or `"poison"` — so the runner stays
    /// protocol-agnostic, exactly as it is for victim selection.
    Byzantine {
        /// When the nodes turn adversarial.
        at: SimTime,
        /// Protocol-interpreted node filter, e.g. `"frac:0.2"` or
        /// `"section:3"`.
        selector: String,
        /// Protocol-interpreted attack script.
        attack: String,
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
        /// Protocol-interpreted victim filter, e.g. `"frac:0.1"`.
        selector: String,
        /// What the victims remember when they come back.
        recovery: Recovery,
    },
    /// Cuts the network in two: messages between `side` hosts and the rest
    /// are dropped for `duration`, then connectivity is restored.
    Partition {
        /// When the partition forms.
        at: SimTime,
        /// How long the partition lasts.
        duration: SimDuration,
        /// Hosts on one side of the cut (the other side is everyone else).
        side: Vec<HostId>,
    },
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

    /// Adversarial churn timed against the repair plane: one
    /// [`Fault::KillBurst`] per repair round, each phased to land just
    /// after the round's reactive kick window (`kick_delay` past the
    /// round boundary, plus a small margin) — so every burst's damage
    /// sits unrepaired for nearly a full `repair_interval` instead of
    /// being caught by the kick the previous burst triggered. This is
    /// the worst-case phase an adversary who knows the repair cadence
    /// can pick; compare against uniformly-timed [`Fault::Churn`] at the
    /// same kill rate to price the timing advantage.
    pub fn with_repair_phased_kills(
        mut self,
        start: SimTime,
        repair_interval: SimDuration,
        kick_delay: SimDuration,
        rounds: u32,
        selector: &str,
    ) -> Self {
        for i in 0..rounds {
            let at =
                start + repair_interval * u64::from(i) + kick_delay + SimDuration::from_millis(250);
            self = self.with(Fault::KillBurst {
                at,
                window: SimDuration::from_millis(50),
                selector: selector.to_string(),
            });
        }
        self
    }

    /// The scripted faults, in insertion order.
    pub fn faults(&self) -> &[Fault] {
        &self.faults
    }

    /// Checks every fault's parameters, returning the first problem found.
    pub fn validate(&self) -> Result<(), String> {
        for (i, f) in self.faults.iter().enumerate() {
            let err = |msg: String| Err(format!("fault #{i}: {msg}"));
            match f {
                Fault::Churn { leave_rate_per_sec, graceful_fraction, duration, .. } => {
                    if !(leave_rate_per_sec.is_finite() && *leave_rate_per_sec > 0.0) {
                        return err(format!("leave rate must be positive: {leave_rate_per_sec}"));
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
                Fault::KillBurst { selector, .. } => {
                    if selector.is_empty() {
                        return err("kill-burst selector must be non-empty".into());
                    }
                }
                Fault::LossBurst { rate, duration, .. } => {
                    if !(0.0..=1.0).contains(rate) {
                        return err(format!("loss rate must be in [0, 1]: {rate}"));
                    }
                    if duration.is_zero() {
                        return err("loss-burst duration must be non-zero".into());
                    }
                }
                Fault::LatencySpike { factor, duration, .. } => {
                    if !(factor.is_finite() && *factor > 0.0) {
                        return err(format!("latency factor must be positive: {factor}"));
                    }
                    if duration.is_zero() {
                        return err("latency-spike duration must be non-zero".into());
                    }
                }
                Fault::Duplicate { rate, duration, .. } => {
                    if !(0.0..=1.0).contains(rate) {
                        return err(format!("duplication rate must be in [0, 1]: {rate}"));
                    }
                    if duration.is_zero() {
                        return err("duplication-window duration must be non-zero".into());
                    }
                }
                Fault::Reorder { rate, duration, window, .. } => {
                    if !(0.0..=1.0).contains(rate) {
                        return err(format!("reorder rate must be in [0, 1]: {rate}"));
                    }
                    if duration.is_zero() {
                        return err("reorder-window duration must be non-zero".into());
                    }
                    if window.is_zero() {
                        return err("reorder jitter window must be non-zero".into());
                    }
                }
                Fault::Restart { selector, .. } => {
                    if selector.is_empty() {
                        return err("restart selector must be non-empty".into());
                    }
                }
                Fault::Byzantine { selector, attack, .. } => {
                    if selector.is_empty() {
                        return err("byzantine selector must be non-empty".into());
                    }
                    if attack.is_empty() {
                        return err("byzantine attack must be non-empty".into());
                    }
                }
                Fault::Partition { side, duration, .. } => {
                    if side.is_empty() {
                        return err("partition side must be non-empty".into());
                    }
                    if duration.is_zero() {
                        return err("partition duration must be non-zero".into());
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
/// Returns the subset of the population matched by a kill-burst selector
/// string. Must be deterministic given the same runtime state, selector,
/// and population order.
pub type VictimSelector<N, L> = Box<dyn FnMut(&Runtime<N, L>, &str, &[Addr]) -> Vec<Addr>>;
/// True once the overlay's routing structure is consistent again; polled
/// after each kill burst to measure reconvergence time.
pub type ConvergencePredicate<N, L> = Box<dyn FnMut(&Runtime<N, L>) -> bool>;
/// Installs a Byzantine behaviour (described by the attack string) on the
/// listed nodes. Must be deterministic given the same runtime state,
/// attack, and address order.
pub type CorruptHook<N, L> = Box<dyn FnMut(&mut Runtime<N, L>, &str, &[Addr])>;
/// Performs one phase of a [`Fault::Restart`] for one victim: at
/// [`RestartPhase::Checkpoint`] snapshot what [`Recovery::Persisted`] may
/// keep (return value ignored); at [`RestartPhase::Rejoin`] respawn the
/// *same identifier* and return the new address, or `None` if rejoining is
/// impossible. The runner itself performs the crash between the phases.
pub type RestartHook<N, L> =
    Box<dyn FnMut(&mut Runtime<N, L>, &mut StdRng, Addr, Recovery, RestartPhase) -> Option<Addr>>;

/// Protocol bindings the [`FaultRunner`] calls back into.
///
/// The runner is generic over the protocol; these closures tell it how to
/// add a node, how to interpret a kill burst's selector, and how to decide
/// that the overlay has healed after a burst.
pub struct FaultHooks<N: Node, L: LatencyModel> {
    /// How to spawn and join a replacement node.
    pub join: JoinHook<N, L>,
    /// How to resolve a kill-burst selector against the live population.
    pub select_victims: VictimSelector<N, L>,
    /// When the overlay counts as healed after a burst.
    pub ring_converged: ConvergencePredicate<N, L>,
    /// How to turn selected nodes Byzantine ([`Fault::Byzantine`]).
    pub corrupt: CorruptHook<N, L>,
    /// How to checkpoint and re-admit a node across a [`Fault::Restart`].
    pub restart: RestartHook<N, L>,
}

impl<N: Node, L: LatencyModel> FaultHooks<N, L> {
    /// Hooks for protocols without join/convergence machinery: `join` does
    /// nothing, `select_victims` matches nobody, `ring_converged` is always
    /// true. Useful for plans that only script loss, latency or partitions.
    pub fn inert() -> Self {
        FaultHooks {
            join: Box::new(|_, _| None),
            select_victims: Box::new(|_, _, _| Vec::new()),
            ring_converged: Box::new(|_| true),
            corrupt: Box::new(|_, _, _| {}),
            restart: Box::new(|_, _, _, _, _| None),
        }
    }
}

/// A victim selector over a fixed ordering of the original population —
/// ring order, or an adversary's eclipse order. The three grammars every
/// experiment's kill bursts, restarts and Byzantine flips are written in:
///
/// | text | selects |
/// |---|---|
/// | `arc:N`, `eclipse:N` | the first `N` entries of the ordering still alive |
/// | `eclipse-skip:S:N` | past the first `S` entries (dead or alive), the next `N` still alive |
/// | `span:S:L` | the entries still alive among the `L` positions from `S`, wrapping |
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum Selector {
    /// `arc:N` / `eclipse:N` (`skip` 0) and `eclipse-skip:S:N`.
    Leading {
        /// Entries of the ordering passed over before any is taken.
        skip: usize,
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
            ("arc" | "eclipse", &[take]) => Ok(Selector::Leading { skip: 0, take }),
            ("eclipse-skip", &[skip, take]) => Ok(Selector::Leading { skip, take }),
            ("span", &[start, len]) => Ok(Selector::Span { start, len }),
            _ => Err(format!(
                "selector {text:?}: expected arc:N, eclipse:N, eclipse-skip:S:N or span:S:L"
            )),
        }
    }

    /// The members of `order` this selector names that are in `live`, in
    /// `order`'s order.
    pub fn select(self, order: &[Addr], live: &[Addr]) -> Vec<Addr> {
        let alive = |a: &Addr| live.contains(a);
        match self {
            Selector::Leading { skip, take } => {
                order.iter().copied().skip(skip).filter(alive).take(take).collect()
            }
            Selector::Span { start, len } => {
                let n = order.len();
                (0..len.min(n)).map(|d| order[(start % n + d) % n]).filter(alive).collect()
            }
        }
    }
}

/// The [`VictimSelector`] that reads every selector string as a
/// [`Selector`] over `order`. Text [`Selector::parse`] rejects selects
/// nobody: a plan whose selectors come from outside the program is
/// parsed before it is run (`verme_chaos::run_trial` does), and the
/// experiments generate theirs.
pub fn ordered_selector<N: Node, L: LatencyModel>(order: Vec<Addr>) -> VictimSelector<N, L> {
    Box::new(move |_rt, text, population| {
        Selector::parse(text).map_or_else(|_| Vec::new(), |s| s.select(&order, population))
    })
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

/// Measured impact of one kill burst.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct BurstImpact {
    /// The burst's selector string.
    pub selector: String,
    /// When the burst began.
    pub at: SimTime,
    /// How many nodes the burst killed.
    pub killed: usize,
    /// Time from the end of the kill window until `ring_converged` first
    /// reported true, or `None` if it never did before the poll deadline.
    pub reconverged_after: Option<SimDuration>,
    /// Per-counter increase between the start of the burst and the moment
    /// convergence was decided (healed or timed out) — repair traffic,
    /// failed lookups, timeouts, and so on.
    pub counter_delta: BTreeMap<&'static str, u64>,
    /// The flight-recorder contents captured the moment convergence was
    /// decided — the structured events surrounding the burst. Empty unless
    /// the runner was built [`with_recorder`](FaultRunner::with_recorder).
    pub events: Vec<TraceEvent>,
}

/// Everything the runner observed while executing a plan.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct FaultReport {
    /// Churn departures executed as crashes.
    pub leaves_crash: u64,
    /// Churn departures executed as graceful shutdowns.
    pub leaves_graceful: u64,
    /// Replacement nodes joined.
    pub joins: u64,
    /// Nodes flipped Byzantine by [`Fault::Byzantine`] entries.
    pub byzantine: u64,
    /// Nodes crashed by [`Fault::Restart`] entries.
    pub restarts: u64,
    /// Restarted nodes successfully re-admitted under the same identifier.
    pub restart_rejoins: u64,
    /// One entry per executed [`Fault::KillBurst`], in execution order.
    pub bursts: Vec<BurstImpact>,
}

/// Overlapping-window bookkeeping for one runtime knob (loss rate, latency
/// factor, …). The effective value is the *most recently opened* window
/// still active, falling back to the baseline captured when the first
/// window opened. Restoring by token — rather than each window snapshotting
/// "previous" at start — keeps overlapping windows from clobbering the
/// baseline: with windows A then B overlapping, A's end leaves B's value in
/// force and B's end restores the true baseline, regardless of end order.
struct WindowStack<V> {
    /// `(token, value)` per still-open window, in open order.
    active: Vec<(u64, V)>,
    /// The knob's value before the first active window opened.
    baseline: Option<V>,
    next_token: u64,
}

impl<V: Copy> WindowStack<V> {
    fn new() -> Self {
        WindowStack { active: Vec::new(), baseline: None, next_token: 0 }
    }

    /// Opens a window imposing `value`; `current` is captured as the
    /// baseline if no window is active. Returns the window's token.
    fn open(&mut self, current: V, value: V) -> u64 {
        if self.active.is_empty() {
            self.baseline = Some(current);
        }
        let token = self.next_token;
        self.next_token += 1;
        self.active.push((token, value));
        token
    }

    /// Closes the window named by `token` and returns the value now in
    /// force: the most recently opened window still active, or the baseline
    /// once all windows have closed.
    fn close(&mut self, token: u64) -> V {
        self.active.retain(|&(t, _)| t != token);
        match self.active.last() {
            Some(&(_, v)) => v,
            None => self.baseline.take().expect("window closed with no baseline captured"),
        }
    }
}

/// The runner's private agenda entries.
enum Action {
    /// One Poisson departure from churn window `fault_idx`, plus
    /// scheduling of the next tick while the window is open.
    ChurnTick { fault_idx: usize },
    /// A replacement join balancing an earlier churn departure.
    Rejoin,
    /// Select and schedule the victims of kill burst `fault_idx`.
    BurstStart { fault_idx: usize },
    /// Crash one burst victim.
    BurstKillOne { burst_idx: usize, addr: Addr },
    /// Start polling for reconvergence after burst `burst_idx`.
    BurstSettle { burst_idx: usize, window_end: SimTime, deadline: SimTime },
    /// Raise the loss rate; schedules its own restore.
    LossStart { fault_idx: usize },
    /// Close loss window `token`, restoring what the stack says is next.
    LossEnd { token: u64 },
    /// Raise the latency factor; schedules its own restore.
    LatencyStart { fault_idx: usize },
    /// Close latency window `token`, restoring what the stack says is next.
    LatencyEnd { token: u64 },
    /// Raise the duplication rate; schedules its own restore.
    DupStart { fault_idx: usize },
    /// Close duplication window `token`.
    DupEnd { token: u64 },
    /// Raise the reordering knobs; schedules its own restore.
    ReorderStart { fault_idx: usize },
    /// Close reorder window `token`.
    ReorderEnd { token: u64 },
    /// Checkpoint and crash the victims of restart `fault_idx`.
    RestartStart { fault_idx: usize },
    /// Re-admit one restarted victim under its old identifier.
    RestartRejoin { addr: Addr, recovery: Recovery },
    /// Install the partition.
    PartitionStart { fault_idx: usize },
    /// Heal the partition.
    PartitionEnd,
    /// Flip the selected nodes to a Byzantine behaviour.
    ByzantineStart { fault_idx: usize },
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
/// the runtime's event queue. Call [`into_report`](FaultRunner::into_report)
/// when done.
pub struct FaultRunner<N: Node, L: LatencyModel> {
    plan: FaultPlan,
    hooks: FaultHooks<N, L>,
    rng: StdRng,
    agenda: EventQueue<Action>,
    /// Live nodes eligible for churn departures, in deterministic spawn
    /// order (never derived from runtime hash-map iteration).
    population: Vec<Addr>,
    report: FaultReport,
    /// Counter snapshots taken at each burst's start, by burst index.
    burst_snapshots: Vec<BTreeMap<&'static str, u64>>,
    /// Flight recorder snapshotted into each burst's [`BurstImpact::events`].
    recorder: Option<FlightRecorder>,
    /// Overlapping-window bookkeeping, one stack per runtime knob.
    loss_windows: WindowStack<f64>,
    latency_windows: WindowStack<f64>,
    dup_windows: WindowStack<f64>,
    reorder_windows: WindowStack<(f64, SimDuration)>,
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
        for (fault_idx, fault) in plan.faults().iter().enumerate() {
            match *fault {
                Fault::Churn { start, .. } => {
                    agenda.schedule(start, Action::ChurnTick { fault_idx });
                }
                Fault::KillBurst { at, .. } => {
                    agenda.schedule(at, Action::BurstStart { fault_idx });
                }
                Fault::LossBurst { at, .. } => {
                    agenda.schedule(at, Action::LossStart { fault_idx });
                }
                Fault::LatencySpike { at, .. } => {
                    agenda.schedule(at, Action::LatencyStart { fault_idx });
                }
                Fault::Duplicate { at, .. } => {
                    agenda.schedule(at, Action::DupStart { fault_idx });
                }
                Fault::Reorder { at, .. } => {
                    agenda.schedule(at, Action::ReorderStart { fault_idx });
                }
                Fault::Restart { at, .. } => {
                    agenda.schedule(at, Action::RestartStart { fault_idx });
                }
                Fault::Partition { at, .. } => {
                    agenda.schedule(at, Action::PartitionStart { fault_idx });
                }
                Fault::Byzantine { at, .. } => {
                    agenda.schedule(at, Action::ByzantineStart { fault_idx });
                }
            }
        }
        Ok(FaultRunner {
            plan,
            hooks,
            rng: seeds.stream("faults"),
            agenda,
            population,
            report: FaultReport::default(),
            burst_snapshots: Vec::new(),
            recorder: None,
            loss_windows: WindowStack::new(),
            latency_windows: WindowStack::new(),
            dup_windows: WindowStack::new(),
            reorder_windows: WindowStack::new(),
        })
    }

    /// Attaches a [`FlightRecorder`] whose contents are snapshotted into
    /// [`BurstImpact::events`] the moment each burst's convergence is
    /// decided. The recorder is shared, not owned: install its
    /// [`tracer`](FlightRecorder::tracer) on the runtime yourself (possibly
    /// [`tee`](crate::trace::tee)d with another sink), and it keeps
    /// recording after the runner is done.
    #[must_use]
    pub fn with_recorder(mut self, recorder: FlightRecorder) -> Self {
        self.recorder = Some(recorder);
        self
    }

    /// Current churn-eligible population.
    pub fn population(&self) -> &[Addr] {
        &self.population
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

    /// Consumes the runner and returns what it observed.
    pub fn into_report(self) -> FaultReport {
        self.report
    }

    /// Drops addresses that are no longer alive (killed outside the
    /// runner, e.g. by a worm scenario running alongside the plan).
    fn prune_dead(&mut self, rt: &Runtime<N, L>) {
        self.population.retain(|&a| rt.is_alive(a));
    }

    fn execute(&mut self, rt: &mut Runtime<N, L>, action: Action) {
        match action {
            Action::ChurnTick { fault_idx } => self.churn_tick(rt, fault_idx),
            Action::Rejoin => {
                if let Some(addr) = (self.hooks.join)(rt, &mut self.rng) {
                    self.population.push(addr);
                    self.report.joins += 1;
                    rt.metrics_mut().count(keys::JOIN, 1);
                }
            }
            Action::BurstStart { fault_idx } => self.burst_start(rt, fault_idx),
            Action::BurstKillOne { burst_idx, addr } => {
                if rt.kill(addr) {
                    self.population.retain(|&a| a != addr);
                    self.report.bursts[burst_idx].killed += 1;
                    rt.metrics_mut().count(keys::BURST_KILL, 1);
                }
            }
            Action::BurstSettle { burst_idx, window_end, deadline } => {
                self.burst_settle(rt, burst_idx, window_end, deadline);
            }
            Action::LossStart { fault_idx } => {
                let Fault::LossBurst { duration, rate, .. } = self.plan.faults()[fault_idx] else {
                    unreachable!("loss action for non-loss fault");
                };
                let token = self.loss_windows.open(rt.loss_rate(), rate);
                rt.set_loss_rate(rate);
                self.agenda.schedule(rt.now() + duration, Action::LossEnd { token });
            }
            Action::LossEnd { token } => {
                let rate = self.loss_windows.close(token);
                rt.set_loss_rate(rate);
            }
            Action::LatencyStart { fault_idx } => {
                let Fault::LatencySpike { duration, factor, .. } = self.plan.faults()[fault_idx]
                else {
                    unreachable!("latency action for non-latency fault");
                };
                let token = self.latency_windows.open(rt.latency_factor(), factor);
                rt.set_latency_factor(factor);
                self.agenda.schedule(rt.now() + duration, Action::LatencyEnd { token });
            }
            Action::LatencyEnd { token } => {
                let factor = self.latency_windows.close(token);
                rt.set_latency_factor(factor);
            }
            Action::DupStart { fault_idx } => {
                let Fault::Duplicate { duration, rate, .. } = self.plan.faults()[fault_idx] else {
                    unreachable!("duplication action for non-duplication fault");
                };
                let token = self.dup_windows.open(rt.dup_rate(), rate);
                rt.set_dup_rate(rate);
                self.agenda.schedule(rt.now() + duration, Action::DupEnd { token });
            }
            Action::DupEnd { token } => {
                let rate = self.dup_windows.close(token);
                rt.set_dup_rate(rate);
            }
            Action::ReorderStart { fault_idx } => {
                let Fault::Reorder { duration, rate, window, .. } = self.plan.faults()[fault_idx]
                else {
                    unreachable!("reorder action for non-reorder fault");
                };
                let current = (rt.reorder_rate(), rt.reorder_window());
                let token = self.reorder_windows.open(current, (rate, window));
                rt.set_reorder(rate, window);
                self.agenda.schedule(rt.now() + duration, Action::ReorderEnd { token });
            }
            Action::ReorderEnd { token } => {
                let (rate, window) = self.reorder_windows.close(token);
                rt.set_reorder(rate, window);
            }
            Action::RestartStart { fault_idx } => self.restart_start(rt, fault_idx),
            Action::RestartRejoin { addr, recovery } => {
                if let Some(new_addr) =
                    (self.hooks.restart)(rt, &mut self.rng, addr, recovery, RestartPhase::Rejoin)
                {
                    self.population.push(new_addr);
                    self.report.restart_rejoins += 1;
                    rt.metrics_mut().count(keys::RESTART_REJOIN, 1);
                }
            }
            Action::PartitionStart { fault_idx } => {
                let Fault::Partition { duration, ref side, .. } = self.plan.faults()[fault_idx]
                else {
                    unreachable!("partition action for non-partition fault");
                };
                rt.set_partition(Some(side.iter().copied().collect()));
                self.agenda.schedule(rt.now() + duration, Action::PartitionEnd);
            }
            Action::PartitionEnd => rt.set_partition(None),
            Action::ByzantineStart { fault_idx } => {
                let Fault::Byzantine { selector, attack, .. } =
                    self.plan.faults()[fault_idx].clone()
                else {
                    unreachable!("byzantine action for non-byzantine fault");
                };
                self.prune_dead(rt);
                let targets = (self.hooks.select_victims)(rt, &selector, &self.population);
                (self.hooks.corrupt)(rt, &attack, &targets);
                self.report.byzantine += targets.len() as u64;
                if !targets.is_empty() {
                    rt.metrics_mut().count(keys::BYZANTINE, targets.len() as u64);
                }
            }
        }
    }

    fn churn_tick(&mut self, rt: &mut Runtime<N, L>, fault_idx: usize) {
        let Fault::Churn { start, duration, leave_rate_per_sec, graceful_fraction, rejoin_after } =
            self.plan.faults()[fault_idx].clone()
        else {
            unreachable!("churn action for non-churn fault");
        };
        let window_end = start + duration;
        if rt.now() >= window_end {
            return;
        }
        self.prune_dead(rt);
        if self.population.len() > MIN_POPULATION {
            // Deterministic victim choice from our own ordered population —
            // never from runtime hash-map iteration order.
            let idx = self.rng.gen_range(0..self.population.len());
            let victim = self.population.swap_remove(idx);
            let graceful = self.rng.gen::<f64>() < graceful_fraction;
            if graceful {
                rt.shutdown(victim);
                self.report.leaves_graceful += 1;
                rt.metrics_mut().count(keys::LEAVE_GRACEFUL, 1);
            } else {
                rt.kill(victim);
                self.report.leaves_crash += 1;
                rt.metrics_mut().count(keys::LEAVE_CRASH, 1);
            }
            if let Some(delay) = rejoin_after {
                self.agenda.schedule(rt.now() + delay, Action::Rejoin);
            }
        }
        let gap = exp_duration(&mut self.rng, 1.0 / leave_rate_per_sec);
        let next = rt.now() + gap;
        if next < window_end {
            self.agenda.schedule(next, Action::ChurnTick { fault_idx });
        }
    }

    fn burst_start(&mut self, rt: &mut Runtime<N, L>, fault_idx: usize) {
        let Fault::KillBurst { at, window, ref selector } = self.plan.faults()[fault_idx].clone()
        else {
            unreachable!("burst action for non-burst fault");
        };
        self.prune_dead(rt);
        let victims = (self.hooks.select_victims)(rt, selector, &self.population);
        let burst_idx = self.report.bursts.len();
        self.report.bursts.push(BurstImpact {
            selector: selector.clone(),
            at,
            killed: 0,
            reconverged_after: None,
            counter_delta: BTreeMap::new(),
            events: Vec::new(),
        });
        self.burst_snapshots.push(rt.metrics().counter_snapshot());
        // Spread the crashes uniformly over the window so repair traffic
        // overlaps the ongoing failures, as in a real worm kill.
        let n = victims.len() as u64;
        for (i, addr) in victims.into_iter().enumerate() {
            let offset = if n > 1 {
                SimDuration::from_nanos(window.as_nanos() / (n - 1) * i as u64)
            } else {
                SimDuration::ZERO
            };
            self.agenda.schedule(at + offset, Action::BurstKillOne { burst_idx, addr });
        }
        let window_end = at + window;
        self.agenda.schedule(
            window_end,
            Action::BurstSettle { burst_idx, window_end, deadline: window_end + CONVERGE_TIMEOUT },
        );
    }

    fn restart_start(&mut self, rt: &mut Runtime<N, L>, fault_idx: usize) {
        let Fault::Restart { down_for, ref selector, recovery, .. } =
            self.plan.faults()[fault_idx].clone()
        else {
            unreachable!("restart action for non-restart fault");
        };
        self.prune_dead(rt);
        let victims = (self.hooks.select_victims)(rt, selector, &self.population);
        for addr in victims {
            // A victim may already be dead (killed by an overlapping fault
            // or an external scenario between selection and now, or the
            // selector may name dead addresses outright): skip it safely —
            // no checkpoint, no crash, no rejoin.
            if !rt.is_alive(addr) {
                continue;
            }
            (self.hooks.restart)(rt, &mut self.rng, addr, recovery, RestartPhase::Checkpoint);
            rt.kill(addr);
            self.population.retain(|&a| a != addr);
            self.report.restarts += 1;
            rt.metrics_mut().count(keys::RESTART, 1);
            self.agenda.schedule(rt.now() + down_for, Action::RestartRejoin { addr, recovery });
        }
    }

    fn burst_settle(
        &mut self,
        rt: &mut Runtime<N, L>,
        burst_idx: usize,
        window_end: SimTime,
        deadline: SimTime,
    ) {
        let healed = (self.hooks.ring_converged)(rt);
        if healed || rt.now() >= deadline {
            let impact = &mut self.report.bursts[burst_idx];
            if healed {
                let took = rt.now().saturating_since(window_end);
                impact.reconverged_after = Some(took);
                rt.metrics_mut().record(keys::RECONVERGE_MS, took.as_millis_f64());
            }
            impact.counter_delta = rt.metrics().counter_delta(&self.burst_snapshots[burst_idx]);
            if let Some(rec) = &self.recorder {
                impact.events = rec.snapshot();
            }
        } else {
            self.agenda.schedule(
                rt.now() + POLL_INTERVAL,
                Action::BurstSettle { burst_idx, window_end, deadline },
            );
        }
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
    fn repair_phased_kills_follow_the_round_boundaries() {
        let interval = SimDuration::from_secs(15);
        let kick = SimDuration::from_secs(2);
        let plan =
            FaultPlan::new().with_repair_phased_kills(secs(30), interval, kick, 3, "frac:0.05");
        assert!(plan.validate().is_ok());
        assert_eq!(plan.faults().len(), 3);
        for (i, f) in plan.faults().iter().enumerate() {
            let Fault::KillBurst { at, selector, .. } = f else {
                panic!("expected a kill burst, got {f:?}");
            };
            let boundary = secs(30) + interval * i as u64;
            assert!(
                *at > boundary + kick && *at < boundary + interval,
                "burst {i} at {at:?} must land after round {i}'s kick window \
                 and before the next boundary"
            );
            assert_eq!(selector, "frac:0.05");
        }
    }

    #[test]
    fn validate_rejects_bad_parameters() {
        let bad_rate = FaultPlan::new().with(Fault::Churn {
            start: SimTime::ZERO,
            duration: SimDuration::from_secs(10),
            leave_rate_per_sec: 0.0,
            graceful_fraction: 0.5,
            rejoin_after: None,
        });
        assert!(bad_rate.validate().is_err());

        let bad_loss = FaultPlan::new().with(Fault::LossBurst {
            at: SimTime::ZERO,
            duration: SimDuration::from_secs(1),
            rate: 1.5,
        });
        assert!(bad_loss.validate().is_err());

        let empty_side = FaultPlan::new().with(Fault::Partition {
            at: SimTime::ZERO,
            duration: SimDuration::from_secs(1),
            side: Vec::new(),
        });
        assert!(empty_side.validate().is_err());
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
            select_victims: Box::new(|_, _, _| Vec::new()),
            ring_converged: Box::new(|_| true),
            corrupt: Box::new(|_, _, _| {}),
            restart: Box::new(|_, _, _, _, _| None),
        };
        let mut runner =
            FaultRunner::new(plan, hooks, SeedSource::new(7), addrs).expect("valid plan");
        runner.run_until(&mut rt, secs(120));
        let report = runner.into_report();
        let leaves = report.leaves_crash + report.leaves_graceful;
        assert!(leaves > 0, "no departures in a 60 s window at 0.2/s");
        assert!(report.leaves_crash > 0 && report.leaves_graceful > 0);
        assert_eq!(report.joins, leaves, "every leave should be balanced by a rejoin");
        assert_eq!(rt.metrics().counter(keys::JOIN), report.joins);
        // Graceful leavers sent farewell messages.
        assert!(rt.metrics().counter("bye.received") > 0);
    }

    #[test]
    fn kill_burst_reports_impact_and_reconvergence() {
        let (mut rt, addrs) = build(10, 11);
        let plan = FaultPlan::new().with(Fault::KillBurst {
            at: secs(10),
            window: SimDuration::from_secs(2),
            selector: "first:3".into(),
        });
        let hooks: FaultHooks<PingNode, UniformLatency> = FaultHooks {
            join: Box::new(|_, _| None),
            select_victims: Box::new(|_, sel, pop| {
                let n: usize = sel.strip_prefix("first:").expect("selector").parse().unwrap();
                pop.iter().copied().take(n).collect()
            }),
            // Healed once the population is back under ping load for a bit.
            ring_converged: Box::new(|rt| rt.now() >= secs(20)),
            corrupt: Box::new(|_, _, _| {}),
            restart: Box::new(|_, _, _, _, _| None),
        };
        let mut runner =
            FaultRunner::new(plan, hooks, SeedSource::new(11), addrs).expect("valid plan");
        runner.run_until(&mut rt, secs(60));
        let report = runner.into_report();
        assert_eq!(report.bursts.len(), 1);
        let burst = &report.bursts[0];
        assert_eq!(burst.killed, 3);
        let took = burst.reconverged_after.expect("should reconverge");
        assert!(took >= SimDuration::from_secs(7));
        assert!(!burst.counter_delta.is_empty(), "burst window saw no traffic at all");
        assert_eq!(rt.metrics().counter(keys::BURST_KILL), 3);
        assert_eq!(rt.num_alive(), 7);
    }

    #[test]
    fn recorder_attached_bursts_carry_surrounding_events() {
        use crate::trace::{FlightRecorder, TraceKind};

        let (mut rt, addrs) = build(8, 5);
        let recorder = FlightRecorder::new(256);
        rt.set_tracer(Some(recorder.tracer()));
        let plan = FaultPlan::new().with(Fault::KillBurst {
            at: secs(5),
            window: SimDuration::from_secs(1),
            selector: "first:2".into(),
        });
        let hooks: FaultHooks<PingNode, UniformLatency> = FaultHooks {
            join: Box::new(|_, _| None),
            select_victims: Box::new(|_, sel, pop| {
                let n: usize = sel.strip_prefix("first:").expect("selector").parse().unwrap();
                pop.iter().copied().take(n).collect()
            }),
            ring_converged: Box::new(|rt| rt.now() >= secs(10)),
            corrupt: Box::new(|_, _, _| {}),
            restart: Box::new(|_, _, _, _, _| None),
        };
        let mut runner = FaultRunner::new(plan, hooks, SeedSource::new(5), addrs)
            .expect("valid plan")
            .with_recorder(recorder.clone());
        runner.run_until(&mut rt, secs(30));
        let report = runner.into_report();
        assert_eq!(report.bursts.len(), 1);
        let events = &report.bursts[0].events;
        assert!(!events.is_empty(), "recorder-attached burst captured no events");
        assert!(
            events.iter().any(|e| matches!(e.kind, TraceKind::Kill { .. })),
            "snapshot should include the burst's kill events"
        );
        // The recorder is shared, not drained: it keeps recording afterwards.
        assert!(recorder.len() >= events.len() || recorder.evicted() > 0);
    }

    #[test]
    fn loss_latency_and_partition_restore_previous_state() {
        let (mut rt, addrs) = build(6, 3);
        rt.set_loss_rate(0.01);
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
        assert_eq!(rt.loss_rate(), 0.9);
        runner.run_until(&mut rt, secs(13));
        assert_eq!(rt.loss_rate(), 0.01, "previous loss rate restored");
        assert_eq!(rt.latency_factor(), 10.0);
        runner.run_until(&mut rt, secs(21));
        assert_eq!(rt.latency_factor(), 1.0, "latency factor restored");
        assert!(rt.is_partitioned());
        runner.run_until(&mut rt, secs(30));
        assert!(!rt.is_partitioned(), "partition healed");
        assert!(rt.stats().partition_dropped > 0, "cross-partition traffic was dropped");
    }

    #[test]
    fn overlapping_windows_restore_the_baseline_not_each_other() {
        // Regression: window A (0.9, 5–15 s) and window B (0.5, 10–20 s)
        // overlap. The old "restore whatever I saw at start" scheme had
        // A's end restore the baseline while B was still open, and B's end
        // then re-impose A's 0.9 forever. The stack restores in any order:
        // A's end leaves B in force, B's end restores the baseline.
        let (mut rt, addrs) = build(6, 3);
        rt.set_loss_rate(0.01);
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
        assert_eq!(rt.loss_rate(), 0.9, "window A in force");
        runner.run_until(&mut rt, secs(12));
        assert_eq!(rt.loss_rate(), 0.5, "window B opened second, wins");
        runner.run_until(&mut rt, secs(17));
        assert_eq!(rt.loss_rate(), 0.5, "A's end must not clobber B");
        runner.run_until(&mut rt, secs(25));
        assert_eq!(rt.loss_rate(), 0.01, "B's end restores the true baseline");
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
        assert_eq!(rt.latency_factor(), 3.0);
        runner.run_until(&mut rt, secs(18));
        assert_eq!(rt.latency_factor(), 10.0, "inner end falls back to the outer window");
        runner.run_until(&mut rt, secs(30));
        assert_eq!(rt.latency_factor(), 1.0, "outer end restores nominal latency");
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
        assert_eq!(rt.dup_rate(), 1.0);
        runner.run_until(&mut rt, secs(40));
        assert_eq!(rt.dup_rate(), 0.0, "duplication restored after the window");
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
        assert_eq!(rt.reorder_rate(), 1.0);
        assert_eq!(rt.reorder_window(), SimDuration::from_secs(2));
        runner.run_until(&mut rt, secs(40));
        assert_eq!(rt.reorder_rate(), 0.0, "reordering restored after the window");
        assert!(rt.stats().messages_reordered > 0, "rate-1.0 window reordered nothing");
    }

    #[test]
    fn restart_crashes_then_rejoins_via_the_hook() {
        let (mut rt, addrs) = build(8, 31);
        let first = addrs[0];
        let plan = FaultPlan::new().with(Fault::Restart {
            at: secs(10),
            down_for: SimDuration::from_secs(5),
            selector: "first:1".into(),
            recovery: Recovery::Persisted,
        });
        // The binding records each phase so the test can assert ordering.
        let phases = std::rc::Rc::new(std::cell::RefCell::new(Vec::new()));
        let phases_hook = phases.clone();
        let hooks: FaultHooks<PingNode, UniformLatency> = FaultHooks {
            join: Box::new(|_, _| None),
            select_victims: Box::new(|_, sel, pop| {
                let n: usize = sel.strip_prefix("first:").expect("selector").parse().unwrap();
                pop.iter().copied().take(n).collect()
            }),
            ring_converged: Box::new(|_| true),
            corrupt: Box::new(|_, _, _| {}),
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
        };
        let mut runner =
            FaultRunner::new(plan, hooks, SeedSource::new(31), addrs).expect("valid plan");
        runner.run_until(&mut rt, secs(12));
        assert!(!rt.is_alive(first), "victim crashed at 10 s");
        assert_eq!(rt.num_alive(), 7);
        runner.run_until(&mut rt, secs(20));
        assert_eq!(rt.num_alive(), 8, "victim rejoined after 5 s down");
        let report = runner.into_report();
        assert_eq!(report.restarts, 1);
        assert_eq!(report.restart_rejoins, 1);
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
        let doomed = addrs[0];
        let plan = FaultPlan::new().with(Fault::Restart {
            at: secs(10),
            down_for: SimDuration::from_secs(5),
            selector: "dead-one".into(),
            recovery: Recovery::Amnesia,
        });
        let hooks: FaultHooks<PingNode, UniformLatency> = FaultHooks {
            join: Box::new(|_, _| None),
            // Deliberately returns the dead address, bypassing the runner's
            // own population pruning: the runner must still skip it.
            select_victims: Box::new(move |_, _, _| vec![doomed]),
            ring_converged: Box::new(|_| true),
            corrupt: Box::new(|_, _, _| {}),
            restart: Box::new(|_, _, _, _, _| panic!("hook must not fire for a dead victim")),
        };
        let mut runner =
            FaultRunner::new(plan, hooks, SeedSource::new(37), addrs).expect("valid plan");
        rt.kill(doomed);
        runner.run_until(&mut rt, secs(30));
        let report = runner.into_report();
        assert_eq!(report.restarts, 0);
        assert_eq!(report.restart_rejoins, 0);
        assert_eq!(rt.metrics().counter(keys::RESTART), 0);
        assert_eq!(rt.num_alive(), 7, "nothing else was touched");
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
        let run = |seed: u64| -> (FaultReport, String) {
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
            (runner.into_report(), rt.metrics_mut().render_snapshot())
        };
        let (ra, ma) = run(42);
        let (rb, mb) = run(42);
        assert_eq!(ra, rb);
        assert_eq!(ma, mb, "same seed must give byte-identical metrics");
        let (rc, mc) = run(43);
        assert!(ra != rc || ma != mc, "different seed should perturb the run");
    }

    #[test]
    fn selectors_resolve_over_the_ordering_skipping_the_dead() {
        let a = |raw: u64| Addr::from_raw(raw);
        // The ordering is not address order; 30 and 60 are dead.
        let order: Vec<Addr> = [50, 30, 10, 60, 20, 40].map(a).to_vec();
        let live: Vec<Addr> = [10, 20, 40, 50].map(a).to_vec();
        let table: [(&str, &[u64]); 12] = [
            ("arc:0", &[]),
            ("arc:3", &[50, 10, 20]),
            ("eclipse:3", &[50, 10, 20]),
            ("arc:99", &[50, 10, 20, 40]),
            // The skip counts entries, dead or alive; the take counts
            // only live ones (60 is passed over without being counted).
            ("eclipse-skip:2:2", &[10, 20]),
            ("eclipse-skip:1:1", &[10]),
            ("eclipse-skip:6:1", &[]),
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
            "eclipse-skip:3",
            "eclipse-skip:1:2:3",
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
            let (rt, _) = build(1, 1);
            let mut closure = ordered_selector::<PingNode, UniformLatency>(order.clone());
            assert!(closure(&rt, text, &live).is_empty(), "{text:?} must select nobody");
        }
        let (rt, _) = build(1, 1);
        let mut closure = ordered_selector::<PingNode, UniformLatency>(order.clone());
        assert_eq!(closure(&rt, "arc:2", &live), [50, 10].map(a));
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
