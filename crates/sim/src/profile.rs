//! Scoped span profiler: per-subsystem wall-clock attribution.
//!
//! The profiler answers "where does the *simulator* spend its time" — a
//! question about the host machine, not the simulated world. It therefore
//! measures real [`std::time::Instant`] durations and keeps its results in
//! its own [`SpanProfile`], never in the shared
//! [`MetricsSink`](crate::MetricsSink): wall-clock numbers differ from run
//! to run, and letting them leak into the deterministic metrics space would
//! break byte-identical reproducibility.
//!
//! Time is classified by *protocol plane*: a fixed `Subsystem × Op`
//! taxonomy ([`Scope`]) with RAII guards ([`ProfScope`]) threaded through
//! the runtime dispatch and each plane's handlers. Scopes nest (chord
//! dispatch around a dht repair around an obs sample), and the profiler
//! keeps one aggregate per unique *stack path*, which is exactly the shape
//! flamegraph tooling wants.
//!
//! The engine is thread-local so protocol crates (`verme-chord`,
//! `verme-dht`, `verme-worm`) can enter scopes without any profiler handle
//! being threaded through their `Node` APIs. Profiling is strictly
//! observational: it reads only the host clock, never the simulation RNG,
//! queue order or any node state, so a profiled run is byte-identical in
//! simulation output to an unprofiled one. When disabled (the default),
//! `ProfScope::enter` is one thread-local boolean load and branch.

use std::cell::{Cell, RefCell};
use std::collections::HashMap;
use std::time::{Duration, Instant};

/// The fixed `Subsystem × Op` span taxonomy.
///
/// Keep this small and stable: every variant is a named row in the
/// attribution table and a frame name in the folded-stack export. Adding a
/// variant means updating [`Scope::ALL`].
#[derive(Copy, Clone, Debug, PartialEq, Eq, Hash)]
pub enum Scope {
    /// Runtime message dispatch to a live node.
    SimDeliver,
    /// Runtime timer dispatch.
    SimTimer,
    /// Runtime drop of a message to a dead node.
    SimDeadLetter,
    /// Chord/Verme ring maintenance (stabilize, finger refresh, pings).
    ChordStabilize,
    /// Chord/Verme lookup handling and relaying.
    ChordLookupRelay,
    /// DHT block repair and data stabilization.
    DhtRepair,
    /// DHT serving: fetch handling, cache and coalescing.
    DhtServe,
    /// DHT client-op state machines (get/put attempts, retries, deadlines).
    DhtOp,
    /// Worm-scenario topology construction (target lists, static rings).
    WormBuild,
    /// Worm outbreak event loop (the `WormSim` engine).
    WormRun,
    /// Worm scan/infection/activation handling.
    WormPropagate,
    /// Worm alert flooding (guardian and structural containment).
    WormAlert,
    /// Observability work: monitor sampling, gauge recording, tracing.
    ObsRecord,
    /// Experiment-harness overhead (scenario staging, aggregation).
    BenchHarness,
}

impl Scope {
    /// Every scope, in taxonomy order. `Scope as usize` indexes this.
    pub const ALL: &'static [Scope] = &[
        Scope::SimDeliver,
        Scope::SimTimer,
        Scope::SimDeadLetter,
        Scope::ChordStabilize,
        Scope::ChordLookupRelay,
        Scope::DhtRepair,
        Scope::DhtServe,
        Scope::DhtOp,
        Scope::WormBuild,
        Scope::WormRun,
        Scope::WormPropagate,
        Scope::WormAlert,
        Scope::ObsRecord,
        Scope::BenchHarness,
    ];

    /// The number of scopes in the taxonomy.
    pub const COUNT: usize = Self::ALL.len();

    /// The canonical `subsystem.op` name.
    pub fn name(self) -> &'static str {
        match self {
            Scope::SimDeliver => "sim.deliver",
            Scope::SimTimer => "sim.timer",
            Scope::SimDeadLetter => "sim.dead_letter",
            Scope::ChordStabilize => "chord.stabilize",
            Scope::ChordLookupRelay => "chord.lookup_relay",
            Scope::DhtRepair => "dht.repair",
            Scope::DhtServe => "dht.serve",
            Scope::DhtOp => "dht.op",
            Scope::WormBuild => "worm.build",
            Scope::WormRun => "worm.run",
            Scope::WormPropagate => "worm.propagate",
            Scope::WormAlert => "worm.alert",
            Scope::ObsRecord => "obs.record",
            Scope::BenchHarness => "bench.harness",
        }
    }

    /// The subsystem half of the name (`"chord"` for `chord.stabilize`).
    pub fn subsystem(self) -> &'static str {
        let name = self.name();
        &name[..name.find('.').unwrap_or(name.len())]
    }

    fn index(self) -> usize {
        // Declaration order matches `ALL` order by construction.
        self as usize
    }
}

/// Aggregate for one unique stack path (a node in the span tree).
#[derive(Clone, Debug)]
pub struct SpanNode {
    /// Parent node index in [`SpanProfile::nodes`], `None` for roots.
    pub parent: Option<usize>,
    /// The scope this path ends in.
    pub scope: Scope,
    /// Times a `ProfScope` for this path was entered.
    pub calls: u64,
    /// Wall time with this path on top of or inside the stack.
    pub total: Duration,
    /// Wall time with this path exactly on top (total minus children).
    pub self_wall: Duration,
}

/// One raw span, retained only when logging is enabled
/// (see [`span_profiler_enable_logged`]). Powers the Chrome-trace export.
#[derive(Clone, Copy, Debug)]
pub struct SpanEvent {
    /// Index into [`SpanProfile::nodes`] for the full stack path.
    pub node: usize,
    /// Host-clock offset from profiler enable to span entry.
    pub start: Duration,
    /// Span duration (entry to drop).
    pub dur: Duration,
}

/// Snapshot of a finished span-profiling session, returned by
/// [`span_profiler_disable`].
#[derive(Clone, Debug, Default)]
pub struct SpanProfile {
    /// The span tree: one aggregate per unique stack path, parents before
    /// children (parents always have a smaller index).
    pub nodes: Vec<SpanNode>,
    /// Raw span log (empty unless logging was enabled).
    pub spans: Vec<SpanEvent>,
    /// Spans not retained because the log cap was hit.
    pub dropped_spans: u64,
}

impl SpanProfile {
    /// The `;`-joined stack path for a node, e.g.
    /// `"worm.run;worm.propagate"` — the folded-stack frame syntax.
    pub fn path_name(&self, node: usize) -> String {
        let mut parts = Vec::new();
        let mut cur = Some(node);
        while let Some(i) = cur {
            parts.push(self.nodes[i].scope.name());
            cur = self.nodes[i].parent;
        }
        parts.reverse();
        parts.join(";")
    }

    /// Wall time attributed to named scopes: the sum of root-span totals.
    /// Compare against an externally measured wall clock to compute the
    /// unattributed remainder.
    pub fn attributed_total(&self) -> Duration {
        self.nodes.iter().filter(|n| n.parent.is_none()).map(|n| n.total).sum()
    }

    /// Per-scope rollup across all stack paths, in `Scope::ALL` order,
    /// scopes with zero calls omitted. `total` sums every path ending in
    /// the scope; `self_wall` is exclusive time.
    pub fn scope_totals(&self) -> Vec<(Scope, SpanNode)> {
        let mut agg: Vec<Option<SpanNode>> = vec![None; Scope::COUNT];
        for n in &self.nodes {
            let slot = agg[n.scope.index()].get_or_insert(SpanNode {
                parent: None,
                scope: n.scope,
                calls: 0,
                total: Duration::ZERO,
                self_wall: Duration::ZERO,
            });
            slot.calls += n.calls;
            slot.total += n.total;
            slot.self_wall += n.self_wall;
        }
        Scope::ALL.iter().filter_map(|&s| agg[s.index()].clone().map(|n| (s, n))).collect()
    }
}

struct Frame {
    node: usize,
    started: Instant,
    child_wall: Duration,
}

#[derive(Default)]
struct SpanEngine {
    epoch: Option<Instant>,
    stack: Vec<Frame>,
    nodes: Vec<SpanNode>,
    // (parent node or usize::MAX for root, scope index) -> node index.
    lookup: HashMap<(usize, usize), usize>,
    log: Option<Vec<SpanEvent>>,
    log_cap: usize,
    dropped_spans: u64,
}

impl SpanEngine {
    fn reset(&mut self, log_cap: Option<usize>) {
        self.epoch = Some(Instant::now());
        self.stack.clear();
        self.nodes.clear();
        self.lookup.clear();
        self.log = log_cap.map(|c| Vec::with_capacity(c.min(4096)));
        self.log_cap = log_cap.unwrap_or(0);
        self.dropped_spans = 0;
    }

    fn push(&mut self, scope: Scope) {
        let parent = self.stack.last().map(|f| f.node);
        let key = (parent.unwrap_or(usize::MAX), scope.index());
        let node = match self.lookup.get(&key) {
            Some(&i) => i,
            None => {
                let i = self.nodes.len();
                self.nodes.push(SpanNode {
                    parent,
                    scope,
                    calls: 0,
                    total: Duration::ZERO,
                    self_wall: Duration::ZERO,
                });
                self.lookup.insert(key, i);
                i
            }
        };
        self.nodes[node].calls += 1;
        self.stack.push(Frame { node, started: Instant::now(), child_wall: Duration::ZERO });
    }

    fn pop(&mut self) {
        // A guard that outlived its session (disable then drop) pops
        // against an empty or reset stack; absorb it silently.
        let Some(frame) = self.stack.pop() else {
            return;
        };
        let elapsed = frame.started.elapsed();
        let n = &mut self.nodes[frame.node];
        n.total += elapsed;
        n.self_wall += elapsed.saturating_sub(frame.child_wall);
        if let Some(parent) = self.stack.last_mut() {
            parent.child_wall += elapsed;
        }
        if let Some(log) = &mut self.log {
            if log.len() < self.log_cap {
                let start = frame.started - self.epoch.expect("epoch set while enabled");
                log.push(SpanEvent { node: frame.node, start, dur: elapsed });
            } else {
                self.dropped_spans += 1;
            }
        }
    }

    fn take(&mut self) -> SpanProfile {
        // Close any still-open frames so their time is not lost; the stack
        // is normally empty here (guards are scoped), but a caller holding
        // a guard across disable should still get a coherent tree.
        while !self.stack.is_empty() {
            self.pop();
        }
        self.epoch = None;
        SpanProfile {
            nodes: std::mem::take(&mut self.nodes),
            spans: self.log.take().unwrap_or_default(),
            dropped_spans: std::mem::take(&mut self.dropped_spans),
        }
    }
}

thread_local! {
    static SPAN_ENABLED: Cell<bool> = const { Cell::new(false) };
    static SPAN_ENGINE: RefCell<SpanEngine> = RefCell::new(SpanEngine::default());
}

/// Enables the span profiler on this thread, resetting any previous
/// session. Aggregates only (no raw span log).
pub fn span_profiler_enable() {
    SPAN_ENGINE.with(|e| e.borrow_mut().reset(None));
    SPAN_ENABLED.with(|f| f.set(true));
}

/// Enables the span profiler with a raw span log capped at `cap` entries
/// (for the Chrome-trace export). Spans beyond the cap are counted in
/// [`SpanProfile::dropped_spans`] but still aggregated.
pub fn span_profiler_enable_logged(cap: usize) {
    SPAN_ENGINE.with(|e| e.borrow_mut().reset(Some(cap)));
    SPAN_ENABLED.with(|f| f.set(true));
}

/// Disables the span profiler and returns the accumulated profile, or
/// `None` if it was not enabled on this thread.
pub fn span_profiler_disable() -> Option<SpanProfile> {
    if !SPAN_ENABLED.with(|f| f.replace(false)) {
        return None;
    }
    Some(SPAN_ENGINE.with(|e| e.borrow_mut().take()))
}

/// Whether the span profiler is enabled on this thread.
pub fn span_profiler_enabled() -> bool {
    SPAN_ENABLED.with(|f| f.get())
}

/// RAII guard for one profiled scope. Construct with [`ProfScope::enter`]
/// at the top of the code region to attribute; the span closes when the
/// guard drops. Costs one thread-local boolean branch when the profiler
/// is off.
#[must_use = "a ProfScope measures until dropped; binding it to _ closes it immediately"]
pub struct ProfScope {
    active: bool,
}

impl ProfScope {
    /// Opens a span for `scope` if the profiler is enabled on this thread.
    #[inline]
    pub fn enter(scope: Scope) -> ProfScope {
        if !SPAN_ENABLED.with(|f| f.get()) {
            return ProfScope { active: false };
        }
        SPAN_ENGINE.with(|e| e.borrow_mut().push(scope));
        ProfScope { active: true }
    }
}

impl Drop for ProfScope {
    fn drop(&mut self) {
        if self.active {
            SPAN_ENGINE.with(|e| e.borrow_mut().pop());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scope_indices_match_all_order() {
        for (i, &s) in Scope::ALL.iter().enumerate() {
            assert_eq!(s.index(), i, "Scope::ALL out of declaration order at {s:?}");
            assert!(s.name().contains('.'), "scope name {:?} is not subsystem.op", s.name());
            assert_eq!(s.subsystem(), &s.name()[..s.name().find('.').unwrap()]);
        }
        assert_eq!(Scope::COUNT, Scope::ALL.len());
    }

    #[test]
    fn span_profiler_builds_a_path_tree_with_self_time() {
        span_profiler_enable();
        assert!(span_profiler_enabled());
        {
            let _run = ProfScope::enter(Scope::WormRun);
            for _ in 0..3 {
                let _scan = ProfScope::enter(Scope::WormPropagate);
                std::hint::black_box(vec![0u8; 64]);
            }
            let _obs = ProfScope::enter(Scope::ObsRecord);
        }
        let p = span_profiler_disable().expect("was enabled");
        assert!(!span_profiler_enabled());
        assert_eq!(p.nodes.len(), 3, "three unique stack paths");
        let run = p.nodes.iter().position(|n| n.scope == Scope::WormRun).unwrap();
        let scan = p.nodes.iter().position(|n| n.scope == Scope::WormPropagate).unwrap();
        assert_eq!(p.nodes[run].parent, None);
        assert_eq!(p.nodes[scan].parent, Some(run));
        assert_eq!(p.nodes[run].calls, 1);
        assert_eq!(p.nodes[scan].calls, 3);
        assert_eq!(p.path_name(scan), "worm.run;worm.propagate");
        // Exclusive time never exceeds inclusive time, and the root's
        // total covers its children.
        for n in &p.nodes {
            assert!(n.self_wall <= n.total);
        }
        assert!(p.nodes[run].total >= p.nodes[scan].total);
        assert_eq!(p.attributed_total(), p.nodes[run].total);
        let totals = p.scope_totals();
        assert_eq!(totals.len(), 3);
        assert!(totals.iter().any(|(s, n)| *s == Scope::WormPropagate && n.calls == 3));
    }

    #[test]
    fn span_profiler_disable_without_enable_is_none() {
        assert!(span_profiler_disable().is_none());
        // A guard entered while disabled is inert.
        let g = ProfScope::enter(Scope::DhtRepair);
        drop(g);
        assert!(span_profiler_disable().is_none());
    }

    #[test]
    fn span_log_caps_and_counts_drops() {
        span_profiler_enable_logged(2);
        for _ in 0..5 {
            let _s = ProfScope::enter(Scope::DhtServe);
        }
        let p = span_profiler_disable().unwrap();
        assert_eq!(p.spans.len(), 2);
        assert_eq!(p.dropped_spans, 3);
        // Aggregates still see every span despite the log cap.
        assert_eq!(p.nodes[0].calls, 5);
        for s in &p.spans {
            assert_eq!(p.nodes[s.node].scope, Scope::DhtServe);
        }
    }

    #[test]
    fn open_guard_at_disable_is_closed_into_the_tree() {
        span_profiler_enable();
        let guard = ProfScope::enter(Scope::ChordStabilize);
        let p = span_profiler_disable().unwrap();
        assert_eq!(p.nodes.len(), 1);
        assert_eq!(p.nodes[0].calls, 1);
        // The guard outlived the session; dropping it now is a no-op for
        // the next session.
        span_profiler_enable();
        drop(guard);
        let p2 = span_profiler_disable().unwrap();
        // The stale pop is absorbed without corrupting the fresh tree.
        assert!(p2.nodes.len() <= 1, "stale guard must not invent paths");
    }
}
