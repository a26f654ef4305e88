//! The benchmark-side tracing plane: spans around every call into a
//! layer's public functions, event counts at the same boundaries, and the
//! one in-program source the crates already export (the span profiler).
//!
//! A [`Probe`] is threaded through every workload. Untraced, each of its
//! methods is a branch on one `bool` and the workload calls straight into
//! the crates, so the end-to-end numbers measure the program and not the
//! instrument. Traced, it records one [`Span`] per layer call (name,
//! start, end, parent), replaces `run_until` by a counted `step` loop, and
//! brackets each arm with `span_profiler_enable` / `span_profiler_disable`.

use std::collections::BTreeMap;
use std::time::Instant;

use verme_sim::{
    span_profiler_disable, span_profiler_enable, Addr, Ctx, HostId, LatencyModel, Node, Runtime,
    SimTime,
};

/// Layer prefixes: a span whose name starts with one of these is time
/// spent inside a crate; every other span is the benchmark's own code.
pub const LAYERS: &[&str] =
    &["sim.", "net.", "crypto.", "chord.", "core.", "dht.", "load.", "worm.", "chaos.", "obs."];

/// How often (in events) the counted step loop samples the queue depth.
const DEPTH_SAMPLE_EVERY: u64 = 256;

/// One recorded interval. Times are nanoseconds since the probe's origin.
#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    /// Span name; a layer call is named `<layer>.<what>`.
    pub name: &'static str,
    /// Entry time.
    pub start_ns: u64,
    /// Exit time (equal to `start_ns` while the span is still open).
    pub end_ns: u64,
    /// Index of the enclosing span, `None` for a root.
    pub parent: Option<usize>,
}

/// Handle returned by [`Probe::enter`]; pass it back to [`Probe::exit`].
#[derive(Copy, Clone, Debug)]
pub struct SpanId(usize);

/// Which node code an arm runs: the profiler has one `chord.*` scope pair
/// for both overlays, so the probe files it under the layer that ran.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum Overlay {
    /// `verme-chord` nodes (Chord, DHash).
    Chord,
    /// `verme-core` nodes (Verme, the VerDi variants).
    Verme,
    /// No overlay node code (the worm model).
    None,
}

/// Span recorder plus per-layer accumulators.
pub struct Probe {
    on: bool,
    origin: Instant,
    /// The recorded spans, parents before children.
    pub spans: Vec<Span>,
    open: Vec<usize>,
    profiling_since: Option<Instant>,
    /// Raw per-layer sums (traced runs only); the runner derives the
    /// catalogued metrics from them.
    pub sums: BTreeMap<&'static str, f64>,
    /// Raw per-layer maxima.
    pub peaks: BTreeMap<&'static str, f64>,
    /// Individual readings for metrics reported as percentiles.
    pub samples: BTreeMap<&'static str, Vec<f64>>,
}

impl Probe {
    /// A probe that records nothing.
    pub fn off() -> Self {
        Probe::new(false)
    }

    /// A recording probe.
    pub fn on() -> Self {
        Probe::new(true)
    }

    fn new(on: bool) -> Self {
        Probe {
            on,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            profiling_since: None,
            sums: BTreeMap::new(),
            peaks: BTreeMap::new(),
            samples: BTreeMap::new(),
        }
    }

    /// Opens a span under the innermost open one.
    pub fn enter(&mut self, name: &'static str) -> SpanId {
        if !self.on {
            return SpanId(usize::MAX);
        }
        let now = self.origin.elapsed().as_nanos() as u64;
        let idx = self.spans.len();
        self.spans.push(Span {
            name,
            start_ns: now,
            end_ns: now,
            parent: self.open.last().copied(),
        });
        self.open.push(idx);
        SpanId(idx)
    }

    /// Closes a span opened by [`enter`](Probe::enter).
    ///
    /// # Panics
    ///
    /// Panics if spans are closed out of order: that is a bug in a workload.
    pub fn exit(&mut self, id: SpanId) {
        if !self.on {
            return;
        }
        let top = self.open.pop().expect("exit without a matching enter");
        assert_eq!(top, id.0, "spans must nest");
        self.spans[top].end_ns = self.origin.elapsed().as_nanos() as u64;
    }

    /// Adds `v` to a per-layer accumulator (traced runs only).
    pub fn add(&mut self, name: &'static str, v: f64) {
        if self.on {
            *self.sums.entry(name).or_insert(0.0) += v;
        }
    }

    /// Keeps one reading of a percentile metric (traced runs only).
    pub fn sample(&mut self, name: &'static str, v: f64) {
        if self.on {
            self.samples.entry(name).or_default().push(v);
        }
    }

    /// Raises a per-layer maximum to at least `v` (traced runs only).
    pub fn max(&mut self, name: &'static str, v: f64) {
        if self.on {
            let slot = self.peaks.entry(name).or_insert(0.0);
            *slot = slot.max(v);
        }
    }

    /// Runs the simulation to `until`. Traced, this is the counted
    /// equivalent of `run_until`: same events in the same order, plus an
    /// event count and queue-depth samples.
    pub fn advance<N: Node, L: LatencyModel>(&mut self, rt: &mut Runtime<N, L>, until: SimTime) {
        if !self.on {
            rt.run_until(until);
            return;
        }
        let span = self.enter("sim.run_until");
        let mut events = 0u64;
        let mut peak = rt.pending_events();
        while rt.peek_time().is_some_and(|t| t <= until) {
            rt.step();
            events += 1;
            if events.is_multiple_of(DEPTH_SAMPLE_EVERY) {
                peak = peak.max(rt.pending_events());
            }
        }
        // No event at or before `until` is left; this only moves the clock.
        rt.run_until(until);
        self.exit(span);
        self.add("sim.events", events as f64);
        self.max("sim.queue_peak_depth", peak as f64);
    }

    /// `Runtime::invoke` inside a `sim.invoke` span.
    pub fn invoke<N: Node, L: LatencyModel, R>(
        &mut self,
        rt: &mut Runtime<N, L>,
        addr: Addr,
        f: impl FnOnce(&mut N, &mut Ctx<'_, N::Msg, N::Timer>) -> R,
    ) -> Option<R> {
        let span = self.enter("sim.invoke");
        let out = rt.invoke(addr, f);
        self.exit(span);
        out
    }

    /// `Runtime::spawn` inside a `sim.spawn` span.
    pub fn spawn<N: Node, L: LatencyModel>(
        &mut self,
        rt: &mut Runtime<N, L>,
        host: HostId,
        node: N,
    ) -> Addr {
        let span = self.enter("sim.spawn");
        let addr = rt.spawn(host, node);
        self.exit(span);
        addr
    }

    /// `Runtime::kill` inside a `sim.kill` span.
    pub fn kill<N: Node, L: LatencyModel>(&mut self, rt: &mut Runtime<N, L>, addr: Addr) {
        let span = self.enter("sim.kill");
        rt.kill(addr);
        self.exit(span);
    }

    /// Drops a runtime (and every node in it) inside a `sim.teardown` span.
    pub fn teardown<N: Node, L: LatencyModel>(&mut self, rt: Runtime<N, L>) {
        let span = self.enter("sim.teardown");
        drop(rt);
        self.exit(span);
    }

    /// Folds a finished runtime's network counters into the `sim` layer.
    pub fn net_stats<N: Node, L: LatencyModel>(&mut self, rt: &Runtime<N, L>) {
        let s = rt.stats();
        self.add("sim.msgs_sent", s.messages_sent as f64);
        self.add("sim.msgs_dropped", s.messages_dropped as f64);
        self.add("sim.bytes_sent", s.bytes_sent as f64);
    }

    /// Starts the in-program span profiler for one arm.
    pub fn profile_begin(&mut self) {
        if self.on {
            span_profiler_enable();
            self.profiling_since = Some(Instant::now());
        }
    }

    /// Stops the profiler and files its scope totals under the layers
    /// that ran during the arm.
    pub fn profile_end(&mut self, overlay: Overlay) {
        if !self.on {
            return;
        }
        let Some(profile) = span_profiler_disable() else {
            return;
        };
        let arm_s = self.profiling_since.take().map_or(0.0, |t| t.elapsed().as_secs_f64());
        match overlay {
            Overlay::Chord => self.add("chord.run_s", arm_s),
            Overlay::Verme => self.add("core.run_s", arm_s),
            Overlay::None => {}
        }
        self.add("bench.profiler_attributed_s", profile.attributed_total().as_secs_f64());
        for (scope, node) in profile.scope_totals() {
            let (calls, self_s): (Option<&'static str>, Option<&'static str>) =
                match (scope.name(), overlay) {
                    ("sim.deliver", _) => (Some("sim.deliver.calls"), Some("sim.deliver.self_s")),
                    ("sim.timer", _) => (Some("sim.timer.calls"), Some("sim.timer.self_s")),
                    ("sim.dead_letter", _) => (Some("sim.dead_letter.calls"), None),
                    ("chord.stabilize", Overlay::Chord) => {
                        (Some("chord.stabilize.calls"), Some("chord.stabilize.self_s"))
                    }
                    ("chord.lookup_relay", Overlay::Chord) => {
                        (Some("chord.lookup_relay.calls"), Some("chord.lookup_relay.self_s"))
                    }
                    ("chord.stabilize", Overlay::Verme) => (None, Some("core.stabilize.self_s")),
                    ("chord.lookup_relay", Overlay::Verme) => {
                        (None, Some("core.lookup_relay.self_s"))
                    }
                    ("dht.op", _) => (Some("dht.op.calls"), Some("dht.op.self_s")),
                    ("dht.serve", _) => (Some("dht.serve.calls"), Some("dht.serve.self_s")),
                    ("dht.repair", _) => (Some("dht.repair.calls"), Some("dht.repair.self_s")),
                    ("worm.build", _) => (Some("worm.build.calls"), Some("worm.build.self_s")),
                    ("worm.run", _) => (None, Some("worm.run.self_s")),
                    ("worm.propagate", _) => (Some("worm.propagate.calls"), None),
                    _ => (None, None),
                };
            if let Some(name) = calls {
                self.add(name, node.calls as f64);
            }
            if let Some(name) = self_s {
                self.add(name, node.self_wall.as_secs_f64());
            }
        }
    }
}

/// Self time per span: its duration minus the part its children cover.
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut own: Vec<u64> = spans.iter().map(|s| s.end_ns - s.start_ns).collect();
    for s in spans {
        if let Some(p) = s.parent {
            own[p] = own[p].saturating_sub(s.end_ns - s.start_ns);
        }
    }
    own
}

/// Splits the spans' self time into (inside a layer, benchmark's own), in
/// seconds.
pub fn layer_and_driver_s(spans: &[Span]) -> (f64, f64) {
    let own = self_times_ns(spans);
    let (mut layer, mut driver) = (0u64, 0u64);
    for (s, ns) in spans.iter().zip(own) {
        if LAYERS.iter().any(|l| s.name.starts_with(l)) {
            layer += ns;
        } else {
            driver += ns;
        }
    }
    (layer as f64 / 1e9, driver as f64 / 1e9)
}

/// Renders spans as the `trace.json` document: a name table plus one
/// `[name, start_ns, end_ns, parent]` row per span (`parent` is a row
/// index, `-1` for a root).
pub fn trace_json(workload: &str, seed: u64, spans: &[Span]) -> String {
    let mut names: Vec<&'static str> = spans.iter().map(|s| s.name).collect();
    names.sort_unstable();
    names.dedup();
    let mut out = String::with_capacity(spans.len() * 32 + 256);
    out.push_str(&format!("{{\"workload\":\"{workload}\",\"seed\":{seed},\"names\":["));
    for (i, n) in names.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!("\"{n}\""));
    }
    out.push_str("],\"columns\":[\"name\",\"start_ns\",\"end_ns\",\"parent\"],\"spans\":[\n");
    for (i, s) in spans.iter().enumerate() {
        let name = names.binary_search(&s.name).expect("name table covers every span");
        let parent = s.parent.map_or(-1, |p| p as i64);
        let sep = if i + 1 == spans.len() { "" } else { "," };
        out.push_str(&format!("[{name},{},{},{parent}]{sep}\n", s.start_ns, s.end_ns));
    }
    out.push_str("]}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span { name, start_ns, end_ns, parent }
    }

    #[test]
    fn self_time_is_duration_minus_children() {
        // workload [0,100] ─ setup [0,30] ─ net.build [5,25]
        //                  └ run   [30,95] ─ sim.run_until [30,60]
        //                                  └ sim.invoke    [60,70]
        let spans = vec![
            span("workload", 0, 100, None),
            span("setup", 0, 30, Some(0)),
            span("net.build", 5, 25, Some(1)),
            span("run", 30, 95, Some(0)),
            span("sim.run_until", 30, 60, Some(3)),
            span("sim.invoke", 60, 70, Some(3)),
        ];
        assert_eq!(self_times_ns(&spans), vec![5, 10, 20, 25, 30, 10]);
        let (layer, driver) = layer_and_driver_s(&spans);
        assert!((layer - 60e-9).abs() < 1e-15);
        assert!((driver - 40e-9).abs() < 1e-15);
        // Self times partition the root.
        assert!((layer + driver - 100e-9).abs() < 1e-15);
    }

    #[test]
    fn probe_records_nesting_and_off_probe_records_nothing() {
        let mut p = Probe::on();
        let a = p.enter("workload");
        let b = p.enter("sim.spawn");
        p.exit(b);
        p.exit(a);
        assert_eq!(p.spans.len(), 2);
        assert_eq!(p.spans[1].parent, Some(0));
        assert!(p.spans[0].end_ns >= p.spans[1].end_ns);

        let mut q = Probe::off();
        let a = q.enter("workload");
        q.add("sim.events", 3.0);
        q.exit(a);
        assert!(q.spans.is_empty() && q.sums.is_empty());
    }

    #[test]
    fn trace_json_parses_and_keeps_every_span() {
        let spans = vec![span("workload", 0, 9, None), span("sim.invoke", 2, 4, Some(0))];
        let doc = verme_obs::parse(&trace_json("w", 7, &spans)).expect("valid JSON");
        let rows = doc.get("spans").and_then(|s| s.as_array()).expect("spans array");
        assert_eq!(rows.len(), 2);
        assert_eq!(doc.get("seed").and_then(|s| s.as_u64()), Some(7));
    }
}
