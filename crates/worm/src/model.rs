//! The four-state worm propagation engine (paper §7.3).
//!
//! The model follows Staniford et al.'s parameterization as adopted by the
//! paper: a machine in the *scanning* state probes known addresses at a
//! fixed rate; hitting a vulnerable, not-yet-infected node moves it to
//! *infecting* for the infection time, after which the victim becomes
//! *inactive* (infected, worm dormant) and, after the activation delay,
//! starts *scanning* itself.
//!
//! The engine is topology-agnostic: each node has a *target list* — the
//! addresses its routing state would expose to a worm — and attack
//! scenarios may append targets at runtime ([`WormSim::add_targets`], used
//! by the impersonation-harvest scenarios).

use rand::rngs::StdRng;
use rand::Rng;

use verme_obs::monitor::Monitor;
use verme_sim::trace::{CauseId, FlightRecorder, ProtoEvent, TraceEvent, TraceKind};
use verme_sim::{Addr, EventQueue, ProfScope, Scope, SeedSource, SimDuration, SimTime, TimeSeries};

// Worm timing: the paper's (§7.3, after Staniford et al.).

/// Probes per second a scanning machine performs.
const SCAN_RATE_PER_SEC: u64 = 100;
/// Interval between two scans of one machine: 10 ms.
const SCAN_INTERVAL: SimDuration = SimDuration::from_nanos(1_000_000_000 / SCAN_RATE_PER_SEC);
/// Time to complete one infection.
const INFECT_TIME: SimDuration = SimDuration::from_millis(100);
/// Delay between a node's infection and its worm activating.
const ACTIVATION_DELAY: SimDuration = SimDuration::from_secs(1);

/// The per-node worm state (paper §7.3, plus the guardian extension's
/// `Immune` state).
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum WormState {
    /// Healthy (possibly vulnerable).
    NotInfected,
    /// Infected, actively probing targets.
    Scanning,
    /// Infected, currently delivering the worm to one victim.
    Infecting,
    /// Infected, worm not yet activated.
    Inactive,
    /// Infected, but its whole target list has been probed; it idles until
    /// [`WormSim::add_targets`] gives it fresh addresses.
    Exhausted,
    /// Immunized by a guardian alert before the worm arrived (the
    /// guardian-node defense of Zhou et al., implemented as an extension
    /// for comparison with Verme's structural containment).
    Immune,
}

impl WormState {
    /// True for every state in which the node carries the worm.
    pub fn is_infected(self) -> bool {
        !matches!(self, WormState::NotInfected | WormState::Immune)
    }
}

#[derive(Debug)]
enum Ev {
    Scan { node: u32 },
    InfectDone { attacker: u32, victim: u32 },
    Activate { node: u32 },
    Alert { node: u32 },
}

/// Detection timing for one section of the overlay: when the worm first
/// infected a node there versus when a monitor detector first covered it
/// (a per-section alert, or an outbreak-wide alert — whichever is earlier).
#[derive(Clone, Debug, PartialEq)]
pub struct SectionDetection {
    /// The section index (from the map given to [`WormSim::set_sections`]).
    pub section: u32,
    /// When the section's first node was infected.
    pub first_infection: SimTime,
    /// When a detector first covered this section, if one ever fired.
    pub first_alert: Option<SimTime>,
}

impl SectionDetection {
    /// Detection latency: first alert minus first infection. `None` if no
    /// alert covered the section; zero if the alert preceded the
    /// infection (detection won the race).
    pub fn latency(&self) -> Option<SimDuration> {
        self.first_alert.map(|a| a.saturating_since(self.first_infection))
    }
}

/// The monitor attachment: where samples go and how often they are taken.
struct MonSlot {
    mon: Monitor,
    interval: SimDuration,
    /// The next sample point; `None` once it would lie past
    /// [`SimTime::MAX`].
    next: Option<SimTime>,
}

/// The worm propagation simulator over a static overlay.
///
/// # Example
///
/// ```
/// use verme_sim::SimTime;
/// use verme_worm::WormSim;
///
/// // A 3-node chain: 0 knows 1, 1 knows 2.
/// let targets = vec![vec![1], vec![2], vec![]];
/// let vulnerable = vec![true, true, true];
/// let mut sim = WormSim::new(targets, vulnerable, 1);
/// sim.seed_infection(0);
/// sim.run_to_quiescence();
/// assert_eq!(sim.infected(), 3);
/// ```
pub struct WormSim {
    states: Vec<WormState>,
    vulnerable: Vec<bool>,
    targets: Vec<Vec<u32>>,
    scan_pos: Vec<u32>,
    queue: EventQueue<Ev>,
    now: SimTime,
    infected: usize,
    curve: TimeSeries,
    rng: StdRng,
    scans_performed: u64,
    collisions: u64,
    guardians: Vec<bool>,
    alerted: Vec<bool>,
    alert_hop_delay: SimDuration,
    immunized: usize,
    /// Optional flight recorder for infection-chain trace events.
    recorder: Option<FlightRecorder>,
    /// Causal span of each node's infection: seeds mint fresh roots,
    /// victims inherit their attacker's span, so one span traces one
    /// infection chain end to end.
    cause_of: Vec<Option<CauseId>>,
    next_cause: CauseId,
    /// Per-node section index, when the overlay's layout is known.
    sections: Option<Vec<u32>>,
    /// Infected count per section (indexed by section).
    section_infected: Vec<u32>,
    /// First infection time per section.
    section_first_infection: Vec<Option<SimTime>>,
    /// Causal span of the most recent infection per section, attributed to
    /// the alerts its gauge trips.
    section_last_cause: Vec<Option<CauseId>>,
    /// Time of the outbreak's first infection (the seed).
    first_infection: Option<SimTime>,
    /// Span of the most recent infection anywhere.
    last_infection_cause: Option<CauseId>,
    /// Guardian alerts raised so far (nodes entering the alerted set).
    alerts_raised: u64,
    monitor: Option<MonSlot>,
}

impl WormSim {
    /// Creates a simulator over `targets` (per-node harvestable address
    /// lists) and the vulnerability map.
    ///
    /// # Panics
    ///
    /// Panics if the vectors disagree in length or a target index is out
    /// of range.
    pub fn new(targets: Vec<Vec<u32>>, vulnerable: Vec<bool>, seed: u64) -> Self {
        let n = targets.len();
        assert_eq!(n, vulnerable.len(), "targets and vulnerable maps must align");
        for (i, list) in targets.iter().enumerate() {
            for &t in list {
                assert!((t as usize) < n, "node {i} targets out-of-range node {t}");
            }
        }
        WormSim {
            states: vec![WormState::NotInfected; n],
            vulnerable,
            targets,
            scan_pos: vec![0; n],
            queue: EventQueue::new(),
            now: SimTime::ZERO,
            infected: 0,
            curve: TimeSeries::new(),
            rng: SeedSource::new(seed).stream("worm"),
            scans_performed: 0,
            collisions: 0,
            guardians: vec![false; n],
            alerted: vec![false; n],
            alert_hop_delay: SimDuration::from_millis(50),
            immunized: 0,
            recorder: None,
            cause_of: vec![None; n],
            next_cause: 0,
            sections: None,
            section_infected: Vec::new(),
            section_first_infection: Vec::new(),
            section_last_cause: Vec::new(),
            first_infection: None,
            last_infection_cause: None,
            alerts_raised: 0,
            monitor: None,
        }
    }

    /// Attaches a flight recorder: infection milestones (`worm.seed`,
    /// `worm.infected`, `worm.activated`, `worm.alerted`) are recorded as
    /// cause-attributed [`Note`](ProtoEvent::Note) events, one causal span
    /// per infection chain. Per-scan probes are deliberately not recorded
    /// (they dominate the event volume and carry no chain information).
    #[must_use]
    pub fn with_recorder(mut self, recorder: FlightRecorder) -> Self {
        self.recorder = Some(recorder);
        self
    }

    /// The causal span of `node`'s infection chain, if it is infected and
    /// tracing reached it.
    pub fn cause_of(&self, node: u32) -> Option<CauseId> {
        self.cause_of[node as usize]
    }

    /// Declares the overlay's section map: `sections[i]` is node `i`'s
    /// section index. Enables per-section infection gauges (sampled into
    /// an attached [`Monitor`]) and the per-section
    /// [`detection_report`](WormSim::detection_report).
    ///
    /// # Panics
    ///
    /// Panics if the map does not cover the population.
    pub fn set_sections(&mut self, sections: Vec<u32>) {
        assert_eq!(sections.len(), self.states.len(), "section map must cover the population");
        let num = sections.iter().map(|&s| s as usize + 1).max().unwrap_or(0);
        self.section_infected = vec![0; num];
        self.section_first_infection = vec![None; num];
        self.section_last_cause = vec![None; num];
        // Account for nodes infected before the map was declared (seeds).
        for (i, &s) in sections.iter().enumerate() {
            if self.states[i].is_infected() {
                self.section_infected[s as usize] += 1;
                self.section_first_infection[s as usize]
                    .get_or_insert(self.first_infection.unwrap_or(self.now));
                self.section_last_cause[s as usize] = self.cause_of[i];
            }
        }
        self.sections = Some(sections);
    }

    /// Attaches a live [`Monitor`]: every `interval` of simulated time the
    /// outbreak gauges (`worm.infected`, `worm.immunized`, `worm.alerts`,
    /// and — when [`set_sections`](WormSim::set_sections) was called —
    /// `worm.section.<s>.infected` for each touched section) are sampled
    /// into it, carrying the causal span of the infection that last moved
    /// them. Sampling is read-only: an attached monitor never perturbs
    /// the outbreak.
    ///
    /// # Panics
    ///
    /// Panics if `interval` is zero.
    pub fn attach_monitor(&mut self, mon: Monitor, interval: SimDuration) {
        assert!(!interval.is_zero(), "sample interval must be positive");
        self.monitor = Some(MonSlot { mon, interval, next: self.now.checked_add(interval) });
    }

    /// The attached monitor, if any.
    pub fn monitor(&self) -> Option<&Monitor> {
        self.monitor.as_ref().map(|s| &s.mon)
    }

    /// Time of the outbreak's first infection (the first seed).
    pub fn first_infection(&self) -> Option<SimTime> {
        self.first_infection
    }

    /// First infection time of `section`, if the worm reached it and a
    /// section map was declared.
    pub fn section_first_infection(&self, section: u32) -> Option<SimTime> {
        self.section_first_infection.get(section as usize).copied().flatten()
    }

    /// Infected count per section (empty without a section map).
    pub fn section_infections(&self) -> &[u32] {
        &self.section_infected
    }

    /// Guardian alerts raised so far (nodes that entered the alerted set).
    pub fn alerts_raised(&self) -> u64 {
        self.alerts_raised
    }

    /// Per-section detection timing: for every section the worm reached,
    /// its first infection time and the time the attached monitor's
    /// detectors first covered it — via an alert on that section's own
    /// gauge or an outbreak-wide alert (a `worm.*` gauge that is not
    /// per-section), whichever came first. Empty without a monitor and a
    /// section map. Sections are reported in ascending order.
    pub fn detection_report(&self) -> Vec<SectionDetection> {
        let Some(slot) = &self.monitor else {
            return Vec::new();
        };
        let alerts = slot.mon.alerts();
        let global_first = alerts
            .iter()
            .filter(|a| a.series.starts_with("worm.") && !a.series.starts_with("worm.section."))
            .map(|a| a.at)
            .min();
        let mut out = Vec::new();
        for (s, first) in self.section_first_infection.iter().enumerate() {
            let Some(first_infection) = *first else {
                continue;
            };
            let prefix = format!("worm.section.{s}.");
            let section_first =
                alerts.iter().filter(|a| a.series.starts_with(&prefix)).map(|a| a.at).min();
            let first_alert = match (global_first, section_first) {
                (Some(g), Some(l)) => Some(g.min(l)),
                (g, l) => g.or(l),
            };
            out.push(SectionDetection { section: s as u32, first_infection, first_alert });
        }
        out
    }

    /// Fires every due sample point up to and including `t`, advancing the
    /// clock to each sample point.
    fn sample_until(&mut self, t: SimTime) {
        let (mon, interval, mut next) = match &self.monitor {
            Some(s) => (s.mon.clone(), s.interval, s.next),
            None => return,
        };
        let _span = ProfScope::enter(Scope::ObsRecord);
        while let Some(at) = next.filter(|&at| at <= t) {
            if self.now < at {
                self.now = at;
            }
            self.sample_into(&mon);
            next = at.checked_add(interval);
        }
        if let Some(s) = &mut self.monitor {
            s.next = next;
        }
    }

    /// Takes one sample of every outbreak gauge.
    fn sample_into(&self, mon: &Monitor) {
        let at = self.now;
        mon.observe("worm.infected", at, self.infected as f64, self.last_infection_cause);
        mon.observe("worm.immunized", at, self.immunized as f64, None);
        mon.observe("worm.alerts", at, self.alerts_raised as f64, None);
        for (s, &count) in self.section_infected.iter().enumerate() {
            // Sparse: a gauge is born when its section is first touched,
            // which is also what lets prefix rules fire per section.
            if count > 0 {
                mon.observe(
                    &format!("worm.section.{s}.infected"),
                    at,
                    count as f64,
                    self.section_last_cause[s],
                );
            }
        }
    }

    fn note(&self, node: u32, label: &'static str) {
        let Some(rec) = &self.recorder else {
            return;
        };
        rec.record(TraceEvent {
            at: self.now,
            cause: self.cause_of[node as usize],
            kind: TraceKind::Proto {
                node: Addr::from_raw(node as u64),
                event: ProtoEvent::Note { label, value: node as u64 },
            },
        });
    }

    /// Enables the guardian-node defense (Zhou et al.): when a scanning
    /// worm probes a guardian, the guardian detects it and floods an
    /// alert along the overlay's edges at `hop_delay` per hop; alerted
    /// healthy nodes become [`WormState::Immune`]. Guardians themselves
    /// are never infected (they run the detection sandbox).
    ///
    /// # Panics
    ///
    /// Panics if `guardians` has the wrong length or the delay is zero.
    pub fn set_guardians(&mut self, guardians: Vec<bool>, hop_delay: SimDuration) {
        assert_eq!(guardians.len(), self.states.len(), "guardian map must cover the population");
        assert!(!hop_delay.is_zero(), "alert hop delay must be positive");
        // Guardians are hardened machines: not part of the vulnerable set.
        for (v, &g) in self.vulnerable.iter_mut().zip(&guardians) {
            if g {
                *v = false;
            }
        }
        self.guardians = guardians;
        self.alert_hop_delay = hop_delay;
    }

    /// Nodes immunized by guardian alerts so far.
    pub fn immunized(&self) -> usize {
        self.immunized
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.states.len()
    }

    /// True if the population is empty.
    pub fn is_empty(&self) -> bool {
        self.states.is_empty()
    }

    /// Current simulation time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Number of infected nodes (any infected state).
    pub fn infected(&self) -> usize {
        self.infected
    }

    /// The infection curve: one point per infection event.
    pub fn curve(&self) -> &TimeSeries {
        &self.curve
    }

    /// Total scans performed so far.
    pub fn scans_performed(&self) -> u64 {
        self.scans_performed
    }

    /// Infection attempts that found an already-infected victim.
    pub fn collisions(&self) -> u64 {
        self.collisions
    }

    /// A node's current state.
    ///
    /// # Panics
    ///
    /// Panics if `node` is out of range.
    pub fn state(&self, node: u32) -> WormState {
        self.states[node as usize]
    }

    /// Infects `node` at the current time and activates it immediately
    /// (the outbreak's patient zero). No-op if already infected.
    pub fn seed_infection(&mut self, node: u32) {
        if self.states[node as usize].is_infected() {
            return;
        }
        self.next_cause += 1;
        self.cause_of[node as usize] = Some(self.next_cause);
        self.mark_infected(node);
        self.note(node, "worm.seed");
        self.begin_scanning(node);
    }

    /// Appends fresh targets to `node`'s list (harvested addresses),
    /// waking it if its scanner had run dry. Duplicates already probed
    /// will simply be probed once more.
    pub fn add_targets(&mut self, node: u32, fresh: &[u32]) {
        let n = self.states.len();
        for &t in fresh {
            assert!((t as usize) < n, "target {t} out of range");
        }
        self.targets[node as usize].extend_from_slice(fresh);
        if self.states[node as usize] == WormState::Exhausted {
            self.states[node as usize] = WormState::Scanning;
            let at = self.now + SCAN_INTERVAL;
            self.queue.schedule(at, Ev::Scan { node });
        }
    }

    /// Runs until the queue is empty or the clock passes `deadline`.
    /// Monitor sample points due by `deadline` fire in timestamp order
    /// with the outbreak's own events (samples precede same-time events).
    pub fn run_until(&mut self, deadline: SimTime) {
        let _span = ProfScope::enter(Scope::WormRun);
        while let Some(t) = self.queue.peek_time() {
            if t > deadline {
                break;
            }
            if self.monitor.is_some() {
                self.sample_until(t);
            }
            self.step();
        }
        if self.monitor.is_some() {
            self.sample_until(deadline);
        }
        if self.now < deadline {
            self.now = deadline;
        }
    }

    /// Runs until no events remain (the outbreak has burnt out).
    pub fn run_to_quiescence(&mut self) {
        let _span = ProfScope::enter(Scope::WormRun);
        while let Some(t) = self.queue.peek_time() {
            if self.monitor.is_some() {
                self.sample_until(t);
            }
            self.step();
        }
    }

    /// Time of the next pending event.
    pub fn peek_time(&self) -> Option<SimTime> {
        self.queue.peek_time()
    }

    fn step(&mut self) -> bool {
        let Some((t, ev)) = self.queue.pop() else {
            return false;
        };
        self.now = t;
        match ev {
            Ev::Scan { node } => {
                let _span = ProfScope::enter(Scope::WormPropagate);
                self.do_scan(node)
            }
            Ev::InfectDone { attacker, victim } => {
                let _span = ProfScope::enter(Scope::WormPropagate);
                if self.states[victim as usize] == WormState::NotInfected {
                    self.cause_of[victim as usize] = self.cause_of[attacker as usize];
                    self.mark_infected(victim);
                    self.note(victim, "worm.infected");
                    self.states[victim as usize] = WormState::Inactive;
                    self.queue.schedule(self.now + ACTIVATION_DELAY, Ev::Activate { node: victim });
                } else {
                    self.collisions += 1;
                }
                // The attacker resumes scanning either way.
                self.states[attacker as usize] = WormState::Scanning;
                self.queue.schedule(self.now + SCAN_INTERVAL, Ev::Scan { node: attacker });
            }
            Ev::Activate { node } => {
                let _span = ProfScope::enter(Scope::WormPropagate);
                if self.states[node as usize] == WormState::Inactive {
                    self.note(node, "worm.activated");
                    self.begin_scanning(node);
                }
            }
            Ev::Alert { node } => {
                let _span = ProfScope::enter(Scope::WormAlert);
                self.do_alert(node)
            }
        }
        true
    }

    fn do_alert(&mut self, node: u32) {
        let i = node as usize;
        if self.alerted[i] {
            return;
        }
        self.alerted[i] = true;
        self.alerts_raised += 1;
        self.note(node, "worm.alerted");
        if self.states[i] == WormState::NotInfected {
            self.states[i] = WormState::Immune;
            self.immunized += 1;
        }
        // Flood the alert along the node's own overlay edges. Each newly
        // reached node joins the alert's causal span (unless it already
        // has one from an infection), so the flood is attributable to the
        // outbreak that triggered it.
        for t in self.targets[i].clone() {
            if !self.alerted[t as usize] {
                if self.cause_of[t as usize].is_none() {
                    self.cause_of[t as usize] = self.cause_of[i];
                }
                self.queue.schedule(self.now + self.alert_hop_delay, Ev::Alert { node: t });
            }
        }
    }

    fn do_scan(&mut self, node: u32) {
        if self.states[node as usize] != WormState::Scanning {
            return; // Stale event (e.g. state changed by an infection).
        }
        let pos = self.scan_pos[node as usize] as usize;
        let list = &self.targets[node as usize];
        if pos >= list.len() {
            self.states[node as usize] = WormState::Exhausted;
            return;
        }
        let victim = list[pos];
        self.scan_pos[node as usize] += 1;
        self.scans_performed += 1;
        let v = victim as usize;
        // A probed guardian detects the worm and raises the alarm. The
        // alert chain inherits the probing attacker's causal span: the
        // defense reaction traces back to the infection that provoked it.
        if self.guardians[v] && !self.alerted[v] {
            if self.cause_of[v].is_none() {
                self.cause_of[v] = self.cause_of[node as usize];
            }
            self.queue.schedule(self.now, Ev::Alert { node: victim });
        }
        if self.vulnerable[v] && self.states[v] == WormState::NotInfected {
            self.states[node as usize] = WormState::Infecting;
            self.queue.schedule(self.now + INFECT_TIME, Ev::InfectDone { attacker: node, victim });
        } else {
            self.queue.schedule(self.now + SCAN_INTERVAL, Ev::Scan { node });
        }
    }

    fn begin_scanning(&mut self, node: u32) {
        self.states[node as usize] = WormState::Scanning;
        // De-synchronize scanners slightly, as real infections would be.
        let jitter = self.rng.gen_range(0..SCAN_INTERVAL.as_nanos().max(1));
        self.queue.schedule(self.now + SimDuration::from_nanos(jitter), Ev::Scan { node });
    }

    fn mark_infected(&mut self, node: u32) {
        debug_assert!(!self.states[node as usize].is_infected());
        self.states[node as usize] = WormState::Inactive;
        self.infected += 1;
        self.curve.push(self.now, self.infected as f64);
        self.last_infection_cause = self.cause_of[node as usize];
        if self.first_infection.is_none() {
            self.first_infection = Some(self.now);
        }
        if let Some(secs) = &self.sections {
            let s = secs[node as usize] as usize;
            self.section_infected[s] += 1;
            if self.section_first_infection[s].is_none() {
                self.section_first_infection[s] = Some(self.now);
            }
            self.section_last_cause[s] = self.cause_of[node as usize];
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scan_interval_is_what_the_scan_rate_rounds_to() {
        assert_eq!(SCAN_INTERVAL, SimDuration::from_secs_f64(1.0 / SCAN_RATE_PER_SEC as f64));
        assert_eq!(SCAN_INTERVAL.as_nanos(), 10_000_000);
    }

    #[test]
    fn chain_infection_propagates_fully() {
        let targets = vec![vec![1], vec![2], vec![3], vec![]];
        let mut sim = WormSim::new(targets, vec![true; 4], 1);
        sim.seed_infection(0);
        sim.run_to_quiescence();
        assert_eq!(sim.infected(), 4);
        for i in 0..4 {
            assert!(sim.state(i).is_infected());
        }
        // Each link costs ≥ infect_time + activation_delay.
        assert!(sim.now() >= SimTime::ZERO + SimDuration::from_millis(3 * 1100));
    }

    #[test]
    fn a_monitor_samples_to_the_end_of_time_and_the_run_returns() {
        let targets = vec![vec![1], vec![2], vec![]];
        let mut sim = WormSim::new(targets, vec![true; 3], 1);
        let mon = Monitor::new(16);
        // Sample points a third of the clock's range apart: the last one
        // lands on `SimTime::MAX` itself.
        sim.attach_monitor(mon.clone(), SimDuration::from_nanos(u64::MAX / 3));
        sim.seed_infection(0);
        sim.run_until(SimTime::MAX);
        assert_eq!(sim.infected(), 3);
        assert_eq!(sim.now(), SimTime::MAX);
        let third = u64::MAX / 3;
        let expect = [third, 2 * third, u64::MAX].map(SimTime::from_nanos);
        let sampled: Vec<SimTime> =
            mon.series_points("worm.infected").into_iter().map(|(at, _)| at).collect();
        assert_eq!(sampled, expect, "each point fires once, the last at the end of time");
        assert_eq!(mon.last_value("worm.infected"), Some((SimTime::MAX, 3.0)));
    }

    #[test]
    fn recorder_traces_one_span_per_infection_chain() {
        let rec = FlightRecorder::new(64);
        let targets = vec![vec![1], vec![2], vec![]];
        let mut sim = WormSim::new(targets, vec![true; 3], 1).with_recorder(rec.clone());
        sim.seed_infection(0);
        sim.run_to_quiescence();
        assert_eq!(sim.infected(), 3);
        // Every victim inherits the seed's causal span.
        let root = sim.cause_of(0).expect("seed has a span");
        assert_eq!(sim.cause_of(1), Some(root));
        assert_eq!(sim.cause_of(2), Some(root));
        let events = rec.snapshot();
        let labels: Vec<&str> = events
            .iter()
            .filter_map(|e| match &e.kind {
                TraceKind::Proto { event: ProtoEvent::Note { label, .. }, .. } => Some(*label),
                _ => None,
            })
            .collect();
        assert_eq!(labels.iter().filter(|l| **l == "worm.seed").count(), 1);
        assert_eq!(labels.iter().filter(|l| **l == "worm.infected").count(), 2);
        assert_eq!(labels.iter().filter(|l| **l == "worm.activated").count(), 2);
        assert!(events.iter().all(|e| e.cause == Some(root)));
    }

    #[test]
    fn alert_floods_inherit_the_outbreak_span() {
        // 0 infects 1; 1's scan probes guardian 2, whose alert floods to 3.
        let rec = FlightRecorder::new(64);
        let targets = vec![vec![1], vec![2], vec![3], vec![]];
        let mut sim =
            WormSim::new(targets, vec![true, true, false, false], 5).with_recorder(rec.clone());
        sim.set_guardians(vec![false, false, true, true], SimDuration::from_millis(10));
        sim.seed_infection(0);
        sim.run_to_quiescence();
        let root = sim.cause_of(0).expect("seed has a span");
        // Every recorded event — including the alert flood on the
        // never-infected guardians — carries the outbreak's span.
        let events = rec.snapshot();
        assert!(events.iter().any(|e| matches!(
            &e.kind,
            TraceKind::Proto { event: ProtoEvent::Note { label: "worm.alerted", .. }, .. }
        )));
        assert!(events.iter().all(|e| e.cause == Some(root)));
    }

    #[test]
    fn recorder_does_not_perturb_the_outbreak() {
        let targets: Vec<Vec<u32>> = (0..40u32).map(|i| vec![(i + 1) % 40, (i + 7) % 40]).collect();
        let mut plain = WormSim::new(targets.clone(), vec![true; 40], 9);
        plain.seed_infection(0);
        plain.run_to_quiescence();
        let mut traced =
            WormSim::new(targets, vec![true; 40], 9).with_recorder(FlightRecorder::new(16));
        traced.seed_infection(0);
        traced.run_to_quiescence();
        assert_eq!(plain.now(), traced.now());
        assert_eq!(plain.curve().points(), traced.curve().points());
    }

    #[test]
    fn invulnerable_nodes_block_propagation() {
        // 0 → 1 (invulnerable) → 2: the worm cannot cross node 1.
        let targets = vec![vec![1], vec![2], vec![]];
        let mut sim = WormSim::new(targets, vec![true, false, true], 1);
        sim.seed_infection(0);
        sim.run_to_quiescence();
        assert_eq!(sim.infected(), 1);
        assert_eq!(sim.state(1), WormState::NotInfected);
        assert_eq!(sim.state(2), WormState::NotInfected);
    }

    #[test]
    fn scan_rate_paces_the_outbreak() {
        // One attacker with 50 invulnerable targets followed by a victim:
        // it takes ~51 scan intervals to reach the victim.
        let mut targets = vec![vec![]; 52];
        targets[0] = (1..=51).collect();
        let mut vulnerable = vec![false; 52];
        vulnerable[0] = true;
        vulnerable[51] = true;
        let mut sim = WormSim::new(targets, vulnerable, 2);
        sim.seed_infection(0);
        sim.run_to_quiescence();
        assert_eq!(sim.infected(), 2);
        let t = sim.curve().points()[1].0;
        // 50 misses at 10 ms plus the infection: at least 500 ms.
        assert!(t >= SimTime::ZERO + SimDuration::from_millis(500), "too fast: {t}");
        assert_eq!(sim.scans_performed(), 51);
    }

    #[test]
    fn collisions_are_counted_not_double_infected() {
        // Two attackers race for the same victim.
        let targets = vec![vec![2], vec![2], vec![]];
        let mut sim = WormSim::new(targets, vec![true; 3], 3);
        sim.seed_infection(0);
        sim.seed_infection(1);
        sim.run_to_quiescence();
        assert_eq!(sim.infected(), 3);
        // Whether a collision happens depends on scan jitter; the count
        // must be consistent with exactly one successful infection of 2.
        assert!(sim.collisions() <= 1);
    }

    #[test]
    fn exhausted_scanner_wakes_on_new_targets() {
        let targets = vec![vec![], vec![]];
        let mut sim = WormSim::new(targets, vec![true, true], 4);
        sim.seed_infection(0);
        sim.run_to_quiescence();
        assert_eq!(sim.state(0), WormState::Exhausted);
        assert_eq!(sim.infected(), 1);
        sim.add_targets(0, &[1]);
        sim.run_to_quiescence();
        assert_eq!(sim.infected(), 2, "harvested target must be attacked");
    }

    #[test]
    fn curve_is_monotonic() {
        let targets: Vec<Vec<u32>> = (0..20).map(|i| vec![(i + 1) % 20]).collect();
        let mut sim = WormSim::new(targets, vec![true; 20], 5);
        sim.seed_infection(0);
        sim.run_to_quiescence();
        let pts = sim.curve().points();
        assert_eq!(pts.last().unwrap().1, 20.0);
        for w in pts.windows(2) {
            assert!(w[0].0 <= w[1].0 && w[0].1 < w[1].1);
        }
    }

    #[test]
    fn seeding_twice_is_idempotent() {
        let mut sim = WormSim::new(vec![vec![]], vec![true], 6);
        sim.seed_infection(0);
        sim.seed_infection(0);
        assert_eq!(sim.infected(), 1);
    }

    #[test]
    #[should_panic(expected = "out-of-range")]
    fn rejects_dangling_targets() {
        let _ = WormSim::new(vec![vec![5]], vec![true], 0);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    /// Strategy: a random small directed graph as target lists, plus a
    /// vulnerability map.
    fn population(max_n: usize) -> impl Strategy<Value = (Vec<Vec<u32>>, Vec<bool>)> {
        (2..max_n).prop_flat_map(|n| {
            let targets = prop::collection::vec(prop::collection::vec(0..n as u32, 0..6), n..=n);
            let vulnerable = prop::collection::vec(any::<bool>(), n..=n);
            (targets, vulnerable)
        })
    }

    proptest! {
        #[test]
        fn invulnerable_nodes_are_never_infected(
            (targets, vulnerable) in population(24),
            seed_pick: u8,
            rng_seed: u64,
        ) {
            let n = targets.len();
            let seed_node = (seed_pick as usize % n) as u32;
            let vuln = vulnerable.clone();
            let mut sim = WormSim::new(targets, vulnerable, rng_seed);
            sim.seed_infection(seed_node);
            sim.run_to_quiescence();
            for i in 0..n as u32 {
                if i != seed_node && !vuln[i as usize] {
                    prop_assert_eq!(sim.state(i), WormState::NotInfected);
                }
            }
        }

        #[test]
        fn infection_count_matches_states_and_curve(
            (targets, vulnerable) in population(24),
            rng_seed: u64,
        ) {
            let n = targets.len();
            let mut sim = WormSim::new(targets, vulnerable, rng_seed);
            sim.seed_infection(0);
            sim.run_to_quiescence();
            let by_state = (0..n as u32).filter(|&i| sim.state(i).is_infected()).count();
            prop_assert_eq!(by_state, sim.infected());
            prop_assert_eq!(sim.curve().last_value(), Some(sim.infected() as f64));
            // Curve is strictly increasing in value.
            for w in sim.curve().points().windows(2) {
                prop_assert!(w[0].1 < w[1].1);
                prop_assert!(w[0].0 <= w[1].0);
            }
        }

        #[test]
        fn infected_set_is_reachable_from_seed(
            (targets, vulnerable) in population(20),
            rng_seed: u64,
        ) {
            // Soundness: the worm never infects a node that is not
            // graph-reachable from the seed through vulnerable hops.
            let n = targets.len();
            let mut vulnerable = vulnerable;
            vulnerable[0] = true;
            // Compute reachability: seed + BFS over targets restricted to
            // vulnerable intermediate nodes.
            let mut reach = vec![false; n];
            reach[0] = true;
            let mut queue = vec![0usize];
            while let Some(u) = queue.pop() {
                for &v in &targets[u] {
                    let v = v as usize;
                    if !reach[v] && vulnerable[v] {
                        reach[v] = true;
                        queue.push(v);
                    }
                }
            }
            let mut sim = WormSim::new(targets, vulnerable, rng_seed);
            sim.seed_infection(0);
            sim.run_to_quiescence();
            for i in 0..n as u32 {
                if sim.state(i).is_infected() {
                    prop_assert!(reach[i as usize], "node {} infected but unreachable", i);
                }
            }
        }
    }
}

#[cfg(test)]
mod guardian_tests {
    use super::*;

    /// A ring of n nodes where each knows the next `deg` nodes.
    fn ring_targets(n: usize, deg: usize) -> Vec<Vec<u32>> {
        (0..n).map(|i| (1..=deg).map(|d| ((i + d) % n) as u32).collect()).collect()
    }

    #[test]
    fn guardians_raise_alerts_that_immunize() {
        let n = 100;
        let targets = ring_targets(n, 3);
        let mut sim = WormSim::new(targets, vec![true; n], 1);
        // Every 10th node is a guardian.
        let guardians: Vec<bool> = (0..n).map(|i| i % 10 == 5).collect();
        sim.set_guardians(guardians, SimDuration::from_millis(50));
        sim.seed_infection(0);
        sim.run_to_quiescence();
        assert!(sim.immunized() > 0, "alerts should immunize someone");
        assert!(
            sim.infected() < n - 10,
            "guardians should save part of the population: {} infected",
            sim.infected()
        );
        // Guardians themselves never get infected.
        for i in 0..n as u32 {
            if i % 10 == 5 {
                assert!(!sim.state(i).is_infected());
            }
        }
    }

    #[test]
    fn without_guardians_behavior_is_unchanged() {
        let n = 60;
        let run = |with: bool| {
            let mut sim = WormSim::new(ring_targets(n, 2), vec![true; n], 2);
            if with {
                sim.set_guardians(vec![false; n], SimDuration::from_millis(50));
            }
            sim.seed_infection(0);
            sim.run_to_quiescence();
            sim.infected()
        };
        assert_eq!(run(false), run(true));
        assert_eq!(run(false), n);
    }

    #[test]
    fn denser_guardian_coverage_contains_more() {
        // The worm spreads from node 0; guardians sit every `every` nodes
        // (offset so the seed's first probes do not hit one). Once any
        // guardian is probed its alert outruns the worm, so the infected
        // count is roughly the distance to the nearest guardian — denser
        // coverage means earlier detection and smaller outbreaks.
        let n = 200;
        let infected_with = |every: usize| {
            let mut sim = WormSim::new(ring_targets(n, 4), vec![true; n], 3);
            let guardians: Vec<bool> = (0..n).map(|i| i > 0 && i % every == every - 1).collect();
            sim.set_guardians(guardians, SimDuration::from_millis(500));
            sim.seed_infection(0);
            sim.run_to_quiescence();
            sim.infected()
        };
        let sparse = infected_with(64);
        let dense = infected_with(8);
        assert!(
            dense < sparse,
            "denser guardians should contain more (dense {dense} vs sparse {sparse})"
        );
        assert!(sparse < n, "even sparse guardians eventually contain the ring worm");
    }

    #[test]
    #[should_panic(expected = "guardian map must cover")]
    fn guardian_map_length_is_checked() {
        let mut sim = WormSim::new(vec![vec![]], vec![true], 0);
        sim.set_guardians(vec![true, false], SimDuration::from_millis(1));
    }
}

#[cfg(test)]
mod monitor_tests {
    use super::*;
    use verme_obs::detect::Rule;

    /// A ring of n nodes where each knows the next `deg` nodes.
    fn ring_targets(n: usize, deg: usize) -> Vec<Vec<u32>> {
        (0..n).map(|i| (1..=deg).map(|d| ((i + d) % n) as u32).collect()).collect()
    }

    /// Sections as contiguous blocks of `block` nodes.
    fn block_sections(n: usize, block: usize) -> Vec<u32> {
        (0..n).map(|i| (i / block) as u32).collect()
    }

    #[test]
    fn sampler_feeds_gauges_and_sections() {
        let n = 60;
        let mon = Monitor::new(256);
        let mut sim = WormSim::new(ring_targets(n, 3), vec![true; n], 1);
        sim.set_sections(block_sections(n, 20));
        sim.attach_monitor(mon.clone(), SimDuration::from_secs(1));
        sim.seed_infection(0);
        sim.run_to_quiescence();
        assert_eq!(sim.infected(), n);
        // The global gauge tracked the outbreak to its end.
        let (_, last) = mon.last_value("worm.infected").expect("gauge sampled");
        assert_eq!(last, n as f64);
        // All three sections were touched and got their own gauges.
        for s in 0..3 {
            let key = format!("worm.section.{s}.infected");
            let (_, v) = mon.last_value(&key).unwrap_or_else(|| panic!("missing {key}"));
            assert_eq!(v, 20.0);
        }
        // Samples carry the infection chain's causal span.
        let pts = mon.series_points("worm.infected");
        assert!(!pts.is_empty());
    }

    #[test]
    fn detectors_fire_and_latency_is_positive() {
        let n = 120;
        let mon = Monitor::new(256);
        mon.add_rule("worm.section.", Rule::Threshold { min: 3.0 });
        let mut sim = WormSim::new(ring_targets(n, 3), vec![true; n], 2);
        sim.set_sections(block_sections(n, 30));
        sim.attach_monitor(mon.clone(), SimDuration::from_secs(1));
        sim.seed_infection(0);
        sim.run_to_quiescence();
        let report = sim.detection_report();
        assert_eq!(report.len(), 4, "all four sections were infected");
        for d in &report {
            assert!(d.first_alert.is_some(), "section {} undetected", d.section);
            let lat = d.latency().unwrap();
            assert!(!lat.is_zero(), "threshold of 3 cannot fire at the first infection");
        }
        // Sections are reported in ascending order and the seed's section
        // is infected first.
        assert_eq!(report[0].section, 0);
        assert!(report.windows(2).all(|w| w[0].section < w[1].section));
        // The alert's cause traces back to the outbreak's single chain.
        let alert = mon.first_alert("worm.section.").unwrap();
        assert_eq!(alert.cause, sim.cause_of(0), "alert attributes the infection chain");
    }

    #[test]
    fn monitor_does_not_perturb_the_outbreak() {
        let n = 80;
        let run = |with_monitor: bool| {
            let mut sim = WormSim::new(ring_targets(n, 4), vec![true; n], 7);
            sim.set_sections(block_sections(n, 16));
            if with_monitor {
                let mon = Monitor::new(64);
                mon.add_rule("worm.", Rule::Threshold { min: 1.0 });
                sim.attach_monitor(mon, SimDuration::from_millis(250));
            }
            sim.seed_infection(0);
            sim.run_to_quiescence();
            (sim.now(), sim.curve().points().to_vec(), sim.scans_performed())
        };
        assert_eq!(run(false), run(true), "monitoring must be invisible to the outbreak");
    }

    #[test]
    fn quiet_run_raises_no_alerts() {
        let n = 40;
        let mon = Monitor::new(64);
        mon.add_rule("worm.", Rule::Threshold { min: 1.0 });
        let mut sim = WormSim::new(ring_targets(n, 2), vec![true; n], 3);
        sim.set_sections(block_sections(n, 10));
        sim.attach_monitor(mon.clone(), SimDuration::from_secs(1));
        // No seed: nothing happens, samples fire on the idle clock.
        sim.run_until(SimTime::ZERO + SimDuration::from_secs(30));
        assert_eq!(sim.infected(), 0);
        assert!(mon.alerts().is_empty(), "no infection, no alert");
        assert_eq!(mon.series_points("worm.infected").len(), 30);
        assert!(sim.detection_report().is_empty());
    }

    #[test]
    fn guardian_alert_gauge_detects_outbreaks() {
        let n = 100;
        let mon = Monitor::new(128);
        mon.add_rule("worm.alerts", Rule::Threshold { min: 1.0 });
        let mut sim = WormSim::new(ring_targets(n, 3), vec![true; n], 4);
        let guardians: Vec<bool> = (0..n).map(|i| i % 10 == 5).collect();
        sim.set_guardians(guardians, SimDuration::from_millis(50));
        sim.set_sections(block_sections(n, 25));
        sim.attach_monitor(mon.clone(), SimDuration::from_millis(500));
        sim.seed_infection(0);
        sim.run_to_quiescence();
        assert!(sim.alerts_raised() > 0);
        let first = mon.first_alert("worm.alerts").expect("guardian gauge fires");
        assert!(first.at >= sim.first_infection().unwrap());
    }

    #[test]
    fn sections_declared_after_seeding_count_the_seed() {
        let mut sim = WormSim::new(vec![vec![1], vec![]], vec![true; 2], 5);
        sim.seed_infection(0);
        sim.set_sections(vec![3, 3]);
        assert_eq!(sim.section_infections(), &[0, 0, 0, 1]);
        assert!(sim.section_first_infection(3).is_some());
        assert!(sim.section_first_infection(0).is_none());
    }

    #[test]
    #[should_panic(expected = "section map must cover")]
    fn section_map_length_is_checked() {
        let mut sim = WormSim::new(vec![vec![]], vec![true], 0);
        sim.set_sections(vec![0, 1]);
    }
}
