//! The five Figure-8 propagation scenarios.
//!
//! Each scenario runs on a static 100 000-node overlay (as in §7.3) — a
//! [`Population`], which derives every node's *harvestable target list*
//! from its real routing state — seeds the worm, and runs the four-state
//! model — plus, for the impersonation attacks, a harvest process feeding
//! the attacker fresh addresses at the rate the corresponding VerDi
//! variant permits:
//!
//! * **Chord** — the worm follows successors, predecessor and fingers;
//!   everything is reachable.
//! * **Verme** — routing state names only own-section (same-type) and
//!   opposite-type nodes; the worm is confined to one section.
//! * **Secure-VerDi + impersonator** — the attacker joins with an
//!   opposite-type identity; it can attack the (vulnerable-type) entries
//!   of its own routing state, i.e. O(log n) sections, and nothing more.
//! * **Fast-VerDi + impersonator** — the attacker additionally issues
//!   replica lookups (10/s in the paper) whose sealed answers hand it
//!   `n/2` vulnerable-type addresses in a fresh section each time.
//! * **Compromise-VerDi** — the attacker cannot issue useful lookups; it
//!   waits to be used as a *relay*. Relayed requests arrive at the rate
//!   its reverse-finger neighbors issue operations (1 lookup/s per node
//!   in the paper, weighted by how much of each neighbor's key space
//!   routes through the attacker first), and each relayed request leaks
//!   one client address plus the replica set the relay fetches.

use std::ops::Range;

use rand::Rng;

use verme_chord::static_ring::FingerRule;
use verme_chord::{Id, NodeHandle, StaticRing};
use verme_core::{SectionLayout, VermeStaticRing};
use verme_crypto::NodeType;
use verme_sim::{
    split_parts, Addr, ProfScope, Scope, SeedSource, SimDuration, SimTime, TimeSeries,
};

use verme_obs::Monitor;
use verme_sim::FlightRecorder;

use crate::model::{SectionDetection, WormSim};

/// Which propagation experiment to run.
#[derive(Clone, Debug, PartialEq)]
pub enum Scenario {
    /// A topological worm on plain Chord.
    ChordWorm,
    /// A topological worm on Verme, no impersonation.
    VermeWorm,
    /// Verme + Secure-VerDi with an impersonating node (no harvest
    /// channel beyond the attacker's own routing state).
    SecureVerDiImpersonation,
    /// Verme + Fast-VerDi with an impersonating node issuing replica
    /// lookups.
    FastVerDiImpersonation {
        /// Harvest lookups per second (paper: 10).
        lookups_per_sec: f64,
    },
    /// Verme + Compromise-VerDi with an impersonating relay.
    CompromiseVerDi {
        /// Operations per second each overlay node issues (paper: 1).
        node_lookup_rate_per_sec: f64,
    },
    /// **Ablation**: Verme's sectioned id layout but *plain Chord finger
    /// targets* (no `+ section length` shift, no corner rule). Shows that
    /// the §4.4 finger redefinition — not the id layout alone — is what
    /// contains the worm.
    VermeUnshiftedFingersAblation,
    /// **Related-work comparison**: plain Chord defended by guardian
    /// nodes (Zhou et al.) — a fraction of nodes runs detection and
    /// floods alerts that immunize healthy peers. The defense the paper
    /// positions Verme against.
    ChordWithGuardians {
        /// Fraction of the population running guardian detection.
        guardian_fraction: f64,
        /// Per-overlay-hop alert propagation delay, seconds.
        alert_hop_delay_s: f64,
    },
    /// **§6.1 threat model**: a Sybil attacker holding several
    /// opposite-type identities spread across the ring (each one a
    /// Secure-VerDi-style impersonator). Quantifies why certificate
    /// issuance must be rate-limited: containment degrades linearly in
    /// the number of identities.
    SybilImpersonation {
        /// Number of attacker identities.
        identities: usize,
    },
    /// **§6.2 generalization**: an unstructured, tracker-based swarm
    /// (BitTorrent-style) with the classic type-blind random neighbor
    /// assignment.
    SwarmRandomTracker,
    /// **§6.2 generalization**: the same swarm with the type-aware
    /// tracker that assigns neighbors in the Figure-1 island structure.
    SwarmTypeAwareTracker,
}

impl Scenario {
    /// The label used in the paper's Figure 8.
    pub fn label(&self) -> &'static str {
        match self {
            Scenario::ChordWorm => "Chord",
            Scenario::VermeWorm => "Verme",
            Scenario::SecureVerDiImpersonation => "Secure-VerDi + impersonation",
            Scenario::FastVerDiImpersonation { .. } => "Fast-VerDi + impersonation",
            Scenario::CompromiseVerDi { .. } => "Compromise-VerDi + impersonation",
            Scenario::VermeUnshiftedFingersAblation => "Verme (ablated fingers)",
            Scenario::ChordWithGuardians { .. } => "Chord + guardian nodes",
            Scenario::SybilImpersonation { .. } => "Verme + Sybil impersonation",
            Scenario::SwarmRandomTracker => "Swarm (random tracker)",
            Scenario::SwarmTypeAwareTracker => "Swarm (type-aware tracker)",
        }
    }
}

/// Successor-list length (paper: 10).
const NUM_SUCCESSORS: usize = 10;
/// Verme predecessor-list length (paper: 10).
const NUM_PREDECESSORS: usize = 10;
/// Replica addresses returned per harvested lookup (`n/2`; 3 here).
const REPLICAS_PER_ANSWER: usize = 3;
/// Populations smaller than this walk their fingers on the calling thread
/// alone; larger ones split the walk as [`split_parts`] says. At 4 096 members
/// the whole walk takes a few milliseconds, a thread start tens of
/// microseconds.
const PARALLEL_FLOOR: usize = 4_096;

/// Population and timing configuration. Defaults are the paper's §7.3
/// setup scaled down only in `nodes` (set it to 100 000 to reproduce the
/// figure exactly).
#[derive(Clone, Debug, PartialEq)]
pub struct ScenarioConfig {
    /// Overlay size (paper: 100 000).
    pub nodes: usize,
    /// Verme section count (paper: 4096, ≈24 nodes per section).
    pub sections: u128,
    /// Simulated time budget.
    pub duration: SimDuration,
    /// Master seed.
    pub seed: u64,
}

impl Default for ScenarioConfig {
    fn default() -> Self {
        ScenarioConfig {
            nodes: 100_000,
            sections: 4096,
            duration: SimDuration::from_secs(20_000),
            seed: 42,
        }
    }
}

/// How a population's routing state — and so its target lists — is
/// derived. Scenarios that name the same overlay run on the same
/// [`Population`].
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum Overlay {
    /// Plain Chord: uniform ids, `successor(id + 2^i)` fingers, one
    /// predecessor; a random half of the machines is vulnerable.
    Chord,
    /// Verme: sectioned typed ids, the §4.4 finger rule, a predecessor
    /// list; the type-A machines are vulnerable.
    Verme,
    /// Verme's ids and neighbor lists with plain Chord fingers (the
    /// ablation of §4.4).
    VermeUnshifted,
    /// The §6.2 unstructured swarm under a type-blind tracker.
    SwarmRandom,
    /// The §6.2 swarm under the type-aware (Figure 1 islands) tracker.
    SwarmTypeAware,
}

impl Scenario {
    /// The overlay this scenario attacks.
    pub fn overlay(&self) -> Overlay {
        match self {
            Scenario::ChordWorm | Scenario::ChordWithGuardians { .. } => Overlay::Chord,
            Scenario::VermeWorm
            | Scenario::SecureVerDiImpersonation
            | Scenario::FastVerDiImpersonation { .. }
            | Scenario::CompromiseVerDi { .. }
            | Scenario::SybilImpersonation { .. } => Overlay::Verme,
            Scenario::VermeUnshiftedFingersAblation => Overlay::VermeUnshifted,
            Scenario::SwarmRandomTracker => Overlay::SwarmRandom,
            Scenario::SwarmTypeAwareTracker => Overlay::SwarmTypeAware,
        }
    }
}

/// The outcome of one scenario run.
///
/// **Accounting.** `infected` counts every compromised host, *including*
/// the attacker's own seed hosts; `vulnerable` counts only the machines
/// the worm's exploit works on. A plain outbreak seeds a vulnerable
/// machine, so there `infected ≤ vulnerable`; an impersonation attack
/// seeds hosts the attacker controls outright (type-B identities, not
/// vulnerable), so a saturated Fast-VerDi run ends at
/// `infected = vulnerable + 1`. Always `infected ≤ vulnerable + seeds`.
#[derive(Clone, Debug)]
pub struct ScenarioResult {
    /// Infected machines over time (one point per infection).
    pub curve: TimeSeries,
    /// Final infected count, seed hosts included.
    pub infected: usize,
    /// Number of vulnerable machines in the population (for the guardian
    /// scenario: those that are not guardians).
    pub vulnerable: usize,
    /// Hosts the outbreak started from: 1, or the number of identities a
    /// Sybil attacker activated.
    pub seeds: usize,
    /// Population size.
    pub nodes: usize,
    /// Total scans performed.
    pub scans: u64,
    /// Infection collisions (two attackers racing for one victim).
    pub collisions: u64,
    /// Per-section detection timing (first infection vs first covering
    /// alert). Empty unless a [`Monitor`] was attached via
    /// [`Instrumentation`].
    pub detection: Vec<SectionDetection>,
}

impl ScenarioResult {
    /// Time at which `fraction` of the *vulnerable* population was
    /// infected, if reached.
    pub fn time_to_vulnerable_fraction(&self, fraction: f64) -> Option<SimTime> {
        self.curve.time_to_reach(self.vulnerable as f64 * fraction)
    }
}

/// Runs a scenario to its duration (or until the outbreak burns out).
///
/// # Panics
///
/// Panics if the configuration is structurally invalid (zero nodes,
/// non-power-of-two section count, ...).
pub fn run_scenario(scenario: &Scenario, cfg: &ScenarioConfig) -> ScenarioResult {
    run_scenario_instrumented(scenario, cfg, &Instrumentation::default())
}

/// Observers attached to a scenario run. Everything here is strictly
/// read-only with respect to the outbreak: attaching any combination
/// leaves the infection curve, scan count and collision count
/// byte-identical to an unobserved run.
#[derive(Default)]
pub struct Instrumentation {
    /// Flight recorder receiving cause-attributed infection milestones.
    pub recorder: Option<FlightRecorder>,
    /// Live monitor sampled on the simulated clock at the given interval.
    /// Detector rules should be installed on it *before* the run; alerts
    /// and gauge series are read from the same handle afterwards.
    pub monitor: Option<(Monitor, SimDuration)>,
}

/// [`run_scenario`] with live observers attached: a flight recorder, a
/// sampled [`Monitor`], or both. Every scenario also installs its
/// overlay's section map, so a monitored run yields per-section
/// `worm.section.<s>.infected` gauges and a populated
/// [`ScenarioResult::detection`] report.
///
/// Builds the scenario's [`Population`], then runs the outbreak on it;
/// to run several scenarios on one build use [`run_scenario_on`].
///
/// # Panics
///
/// Panics under the same conditions as [`run_scenario`].
pub fn run_scenario_instrumented(
    scenario: &Scenario,
    cfg: &ScenarioConfig,
    inst: &Instrumentation,
) -> ScenarioResult {
    let pop = Population::build(cfg, scenario.overlay());
    outbreak(scenario, cfg, inst, pop.ring.as_ref(), pop.hosts)
}

/// Runs `scenario` on a population built beforehand by
/// [`Population::build`] from the same `cfg`. The result equals
/// [`run_scenario_instrumented`]'s; the population is left untouched (the
/// worm model gets its own copy of the target lists), so every scenario
/// of one [`Overlay`] and one seed can share one build.
///
/// # Panics
///
/// Panics if `pop` was built for another overlay or population size, and
/// under the same conditions as [`run_scenario`].
pub fn run_scenario_on(
    pop: &Population,
    scenario: &Scenario,
    cfg: &ScenarioConfig,
    inst: &Instrumentation,
) -> ScenarioResult {
    assert_eq!(pop.overlay, scenario.overlay(), "{} runs on another overlay", scenario.label());
    assert_eq!(pop.hosts.targets.len(), cfg.nodes, "population built for another size");
    let hosts = {
        let _span = ProfScope::enter(Scope::WormBuild);
        pop.hosts.clone()
    };
    outbreak(scenario, cfg, inst, pop.ring.as_ref(), hosts)
}

// ----------------------------------------------------------------------
// Population
// ----------------------------------------------------------------------

/// What the worm model consumes: per-host target lists, the vulnerable
/// map and the section map.
#[derive(Clone, Debug)]
struct Hosts {
    targets: Vec<Vec<u32>>,
    vulnerable: Vec<bool>,
    sections: Vec<u32>,
}

/// A static overlay as a worm sees it: every host's *harvestable target
/// list* derived from its real routing state, which hosts are vulnerable,
/// and the section partition the monitor reports against — plus the Verme
/// ring itself where there is one (the impersonation attacks query it).
#[derive(Clone, Debug)]
pub struct Population {
    overlay: Overlay,
    ring: Option<VermeStaticRing>,
    hosts: Hosts,
}

impl Population {
    /// Builds the population `cfg` describes (`nodes`, `sections`, list
    /// lengths, `seed`) under `overlay`. From 4 096 members on, the ring's
    /// finger walk is split over [`split_parts`] threads; the population is
    /// the same.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is structurally invalid (fewer than
    /// two nodes, non-power-of-two section count, ...).
    pub fn build(cfg: &ScenarioConfig, overlay: Overlay) -> Population {
        Population::build_in(cfg, overlay, split_parts(cfg.nodes, PARALLEL_FLOOR))
    }

    /// [`build`](Population::build), walking the fingers in `parts`
    /// contiguous ranges of members.
    fn build_in(cfg: &ScenarioConfig, overlay: Overlay, parts: usize) -> Population {
        assert!(cfg.nodes > 1, "need a population");
        let _span = ProfScope::enter(Scope::WormBuild);
        let n = cfg.nodes;
        let (ring, hosts) = match overlay {
            Overlay::Chord => {
                let src = SeedSource::new(cfg.seed);
                let ring = chord_ring(n, &mut src.stream("chord-ids"));
                let targets = routing_targets(&ring, 1, parts);
                let mut vrng = src.stream("chord-vulnerable");
                let vulnerable = (0..n).map(|_| vrng.gen::<bool>()).collect();
                // Plain Chord has no native sections: contiguous id-order
                // blocks, node `i` of `n` in block `i·sections/n`.
                let s = cfg.sections.max(1);
                let sections = (0..n).map(|i| ((i as u128 * s) / n as u128) as u32).collect();
                (None, Hosts { targets, vulnerable, sections })
            }
            Overlay::Verme | Overlay::VermeUnshifted => {
                let layout = SectionLayout::with_sections(cfg.sections, 2);
                let ring = VermeStaticRing::generate(layout, n, cfg.seed);
                // The ablated piece: fingers resolved the plain Chord way
                // over the same membership.
                let targets = if overlay == Overlay::VermeUnshifted {
                    let plain = StaticRing::new(ring.nodes().to_vec());
                    routing_targets(&plain, NUM_PREDECESSORS, parts)
                } else {
                    routing_targets(&ring, NUM_PREDECESSORS, parts)
                };
                // One shared platform: exactly the type-A nodes.
                let vulnerable = (0..n).map(|i| ring.type_of_index(i) == NodeType::A).collect();
                let sections = (0..n).map(|i| ring.section_of_index(i) as u32).collect();
                (Some(ring), Hosts { targets, vulnerable, sections })
            }
            Overlay::SwarmRandom | Overlay::SwarmTypeAware => {
                (None, swarm_hosts(cfg, overlay == Overlay::SwarmTypeAware))
            }
        };
        Population { overlay, ring, hosts }
    }

    /// The overlay this population was built under.
    pub fn overlay(&self) -> Overlay {
        self.overlay
    }
}

/// `n` uniformly random distinct ids as a converged Chord ring.
fn chord_ring(n: usize, rng: &mut impl Rng) -> StaticRing {
    let mut ids: Vec<Id> = (0..n).map(|_| Id::random(rng)).collect();
    ids.sort_by_key(|i| i.raw());
    ids.dedup();
    assert_eq!(ids.len(), n, "id collision at simulated scale");
    let handles = ids
        .iter()
        .enumerate()
        .map(|(i, &id)| NodeHandle::new(id, Addr::from_raw(i as u64 + 1)))
        .collect();
    StaticRing::new(handles)
}

/// Every host's target list on a converged ring: its successor list,
/// then `preds` predecessors, then its distinct fingers, each address
/// once, in that order.
///
/// The fingers are walked in `parts` contiguous ranges of members: the
/// first on the calling thread, each other one on a scoped thread of its
/// own. A worker allocates nothing (glibc would give each allocating thread
/// an arena of its own, which stays resident): it appends into buffers
/// sized on the calling thread to the ring's bound for its range, about
/// `log2 n` fingers a member. The calling thread builds the lists, in
/// member order: the first range's while the workers walk, the others'
/// after the join, freeing each range's buffers once read.
fn routing_targets<F: FingerRule + Sync>(
    ring: &StaticRing<F>,
    preds: usize,
    parts: usize,
) -> Vec<Vec<u32>> {
    let n = ring.len();
    let mut walked: Vec<Walked> = (0..parts)
        .map(|k| {
            let members = k * n / parts..(k + 1) * n / parts;
            let fingers = Vec::with_capacity(ring.distinct_fingers_bound(members.clone()));
            Walked { lens: Vec::with_capacity(members.len()), members, fingers }
        })
        .collect();
    let walk = |part: &mut Walked| {
        let lens = &mut part.lens;
        ring.distinct_fingers_in(part.members.clone(), &mut part.fingers, |_, list| {
            lens.push(list.len() as u8)
        });
    };
    let (succs, preds) = (NUM_SUCCESSORS.min(n - 1), preds.min(n - 1));
    let mut targets: Vec<Vec<u32>> = Vec::with_capacity(n);
    let mut read = |part: Walked| {
        let mut rest = part.fingers.as_slice();
        for (i, len) in part.members.zip(part.lens) {
            let (fingers, tail) = rest.split_at(usize::from(len));
            rest = tail;
            // By clockwise offset from `i`: successors hold `1..=succs`,
            // predecessors `n - preds..n`; an entry is new unless a list
            // before it already holds its offset. Offsets and positions are
            // below `n`, so one subtraction wraps them.
            let wrap = |x: usize| if x < n { x } else { x - n };
            let at = |offset: usize| wrap(i + offset) as u32;
            let mut list: Vec<u32> = Vec::with_capacity(succs + preds + fingers.len());
            list.extend((1..=succs).map(at));
            list.extend((1..=preds).map(|d| n - d).filter(|&o| o > succs).map(at));
            let fresh = |&o: &usize| o > succs && o < n - preds;
            list.extend(fingers.iter().map(|&j| wrap(j as usize + n - i)).filter(fresh).map(at));
            targets.push(list);
        }
    };
    let (first, others) = walked.split_first_mut().expect("at least one part");
    std::thread::scope(|s| {
        for part in others {
            s.spawn(move || walk(part));
        }
        walk(first);
        read(std::mem::take(first));
    });
    walked.into_iter().skip(1).for_each(read);
    targets
}

/// One range of members and its walked fingers: each member's distinct
/// fingers back to back, and how many each has (at most [`Id::BITS`]).
#[derive(Default)]
struct Walked {
    members: Range<usize>,
    fingers: Vec<u32>,
    lens: Vec<u8>,
}

/// The §6.2 unstructured swarm: a tracker assigns every peer its
/// neighbor set; the worm follows those neighbor lists. Island size is
/// derived from the configured section count so structured and
/// unstructured runs are comparable.
fn swarm_hosts(cfg: &ScenarioConfig, type_aware: bool) -> Hosts {
    use verme_core::tracker::{assign_random, assign_type_aware, TrackerConfig};
    let n = cfg.nodes;
    let types: Vec<NodeType> =
        (0..n).map(|i| if i % 2 == 0 { NodeType::A } else { NodeType::B }).collect();
    let island_size = (n as u128 / cfg.sections).max(2) as usize;
    let assignment = if type_aware {
        let tcfg = TrackerConfig {
            island_size,
            same_type_neighbors: NUM_SUCCESSORS.min(island_size - 1),
            cross_type_neighbors: NUM_SUCCESSORS,
        };
        assign_type_aware(&types, &tcfg, cfg.seed)
    } else {
        assign_random(&types, 2 * NUM_SUCCESSORS, cfg.seed)
    };
    Hosts {
        targets: assignment.neighbors,
        vulnerable: types.iter().map(|&t| t == NodeType::A).collect(),
        // The tracker's island partition *is* this overlay's section map.
        sections: assignment.island_of,
    }
}

// ----------------------------------------------------------------------
// Outbreaks
// ----------------------------------------------------------------------

/// Seeds `scenario`'s outbreak on the given hosts and runs it to
/// `cfg.duration`. `ring` is the population's Verme ring, if it has one.
fn outbreak(
    scenario: &Scenario,
    cfg: &ScenarioConfig,
    inst: &Instrumentation,
    ring: Option<&VermeStaticRing>,
    hosts: Hosts,
) -> ScenarioResult {
    let verme = || ring.expect("a Verme population carries its ring");
    let src = SeedSource::new(cfg.seed);
    let mut rng = src.stream("seed-node");
    let mut vulnerable = hosts.vulnerable.iter().filter(|&&v| v).count();
    let mut guardians = None;
    let seeds: Vec<u32> = match scenario {
        // Patient zero: a random vulnerable machine.
        Scenario::ChordWorm | Scenario::SwarmRandomTracker | Scenario::SwarmTypeAwareTracker => {
            assert!(vulnerable > 0, "no vulnerable machines");
            vec![random_host(&mut rng, cfg.nodes, |i| hosts.vulnerable[i])]
        }
        // Plain Chord plus randomly placed guardian nodes.
        Scenario::ChordWithGuardians { guardian_fraction, alert_hop_delay_s } => {
            assert!((0.0..1.0).contains(guardian_fraction), "guardian fraction must be in [0,1)");
            let mut grng = src.stream("guardians");
            let guards: Vec<bool> =
                (0..cfg.nodes).map(|_| grng.gen::<f64>() < *guardian_fraction).collect();
            let seed = random_host(&mut rng, cfg.nodes, |i| hosts.vulnerable[i] && !guards[i]);
            vulnerable = hosts.vulnerable.iter().zip(&guards).filter(|&(&v, &g)| v && !g).count();
            guardians = Some((guards, SimDuration::from_secs_f64(*alert_hop_delay_s)));
            vec![seed]
        }
        // A random vulnerable (type-A) node — the plain Verme outbreak,
        // with or without the §4.4 fingers.
        Scenario::VermeWorm | Scenario::VermeUnshiftedFingersAblation => {
            vec![verme().random_index_of_type(NodeType::A, &mut rng) as u32]
        }
        // A random type-B node under attacker control: its certificate
        // claims type B, so its routing state points at type-A nodes it
        // can infect.
        Scenario::SecureVerDiImpersonation
        | Scenario::FastVerDiImpersonation { .. }
        | Scenario::CompromiseVerDi { .. } => {
            vec![verme().random_index_of_type(NodeType::B, &mut rng) as u32]
        }
        // §6.1: `identities` attacker-controlled type-B nodes, all
        // activated at once. Each contributes its own routing state's
        // worth of type-A victims (its fingers' sections), so containment
        // scales with the number of certificates the attacker could
        // obtain.
        //
        // Placement is *eclipse-style*, not uniform: a Sybil attacker does
        // not scatter its identities randomly — it concentrates them
        // around one victim section so their combined routing state
        // saturates the entries pointing into it
        // ([`VermeStaticRing::eclipse_cluster`]). The target section is
        // drawn once per seed; the cluster itself is deterministic given
        // the ring.
        Scenario::SybilImpersonation { identities } => {
            assert!(*identities > 0, "need at least one identity");
            let ring = verme();
            let target_section = rng.gen_range(0..ring.layout().num_sections());
            let avail = cfg.nodes - vulnerable;
            let cluster =
                ring.eclipse_cluster(target_section, NodeType::B, (*identities).min(avail));
            cluster.into_iter().map(|i| i as u32).collect()
        }
    };
    // The relay census reads the target lists the worm model is about to own.
    let clients = match scenario {
        Scenario::CompromiseVerDi { .. } => relay_clients(verme(), &hosts.targets, seeds[0]),
        _ => Vec::new(),
    };

    let mut sim = WormSim::new(hosts.targets, hosts.vulnerable, cfg.seed);
    if let Some(r) = &inst.recorder {
        sim = sim.with_recorder(r.clone());
    }
    // The overlay's section map is the partition the monitor reports against.
    sim.set_sections(hosts.sections);
    if let Some((mon, interval)) = &inst.monitor {
        sim.attach_monitor(mon.clone(), *interval);
    }
    if let Some((guards, hop_delay)) = guardians {
        sim.set_guardians(guards, hop_delay);
    }
    for &seed in &seeds {
        sim.seed_infection(seed);
    }

    let deadline = SimTime::ZERO + cfg.duration;
    let imp = seeds[0];
    match scenario {
        Scenario::FastVerDiImpersonation { lookups_per_sec } => {
            assert!(*lookups_per_sec > 0.0, "harvest rate must be positive");
            let mut hrng = src.stream("harvest");
            let interval = SimDuration::from_secs_f64(1.0 / lookups_per_sec);
            // One harvest lookup per interval, answered with a replica set.
            run_harvesting(&mut sim, deadline, vulnerable, imp, interval, || {
                (harvested_replicas(verme(), &mut hrng), interval)
            });
        }
        Scenario::CompromiseVerDi { node_lookup_rate_per_sec } => {
            assert!(*node_lookup_rate_per_sec > 0.0, "lookup rate must be positive");
            let total_w: f64 = clients.iter().map(|&(_, w)| w).sum();
            let lambda = node_lookup_rate_per_sec * total_w;
            if clients.is_empty() || lambda <= 0.0 {
                sim.run_until(deadline);
            } else {
                let mut hrng = src.stream("relay-arrivals");
                let first = verme_sim::rng::exp_duration(&mut hrng, 1.0 / lambda);
                run_harvesting(&mut sim, deadline, vulnerable, imp, first, || {
                    // One relayed operation: leaks the client's address
                    // (weighted sampling of "who used me as a relay this
                    // time") and the replica set the relay fetches on its
                    // behalf.
                    let mut pick = hrng.gen::<f64>() * total_w;
                    let mut client = clients[0].0;
                    for &(c, w) in &clients {
                        if pick < w {
                            client = c;
                            break;
                        }
                        pick -= w;
                    }
                    let mut fresh = harvested_replicas(verme(), &mut hrng);
                    fresh.push(client);
                    (fresh, verme_sim::rng::exp_duration(&mut hrng, 1.0 / lambda))
                });
            }
        }
        _ => sim.run_until(deadline),
    }

    assert!(
        sim.infected() <= vulnerable + seeds.len(),
        "{} infected of {vulnerable} vulnerable and {} seed hosts",
        sim.infected(),
        seeds.len()
    );
    ScenarioResult {
        infected: sim.infected(),
        vulnerable,
        seeds: seeds.len(),
        nodes: cfg.nodes,
        scans: sim.scans_performed(),
        collisions: sim.collisions(),
        detection: sim.detection_report(),
        curve: sim.curve().clone(),
    }
}

/// Runs the outbreak to `deadline` (or saturation) while a harvest
/// channel feeds the impersonator `imp`: the first arrival comes after
/// `first`, and each `arrival()` yields the addresses it leaks and the
/// time to the next one.
fn run_harvesting(
    sim: &mut WormSim,
    deadline: SimTime,
    vulnerable: usize,
    imp: u32,
    first: SimDuration,
    mut arrival: impl FnMut() -> (Vec<u32>, SimDuration),
) {
    let mut next = SimTime::ZERO + first;
    while sim.now() < deadline && sim.infected() <= vulnerable {
        sim.run_until(next.min(deadline));
        if sim.now() >= deadline {
            break;
        }
        let (fresh, gap) = arrival();
        sim.add_targets(imp, &fresh);
        next = sim.now() + gap;
    }
}

/// A uniformly random host satisfying `ok`: patient zero of the outbreaks
/// that start on an ordinary machine.
fn random_host(rng: &mut impl Rng, nodes: usize, ok: impl Fn(usize) -> bool) -> u32 {
    loop {
        let i = rng.gen_range(0..nodes);
        if ok(i) {
            return i as u32;
        }
    }
}

/// The answer to one lookup an impersonator (claimed type B) gets to see:
/// a random key, moved away from the claimed type, and the key's
/// in-section (type-A) replica set.
fn harvested_replicas(ring: &VermeStaticRing, rng: &mut impl Rng) -> Vec<u32> {
    let key = Id::random(rng);
    let point = ring.layout().replica_point_avoiding(key, NodeType::B);
    ring.replica_indices(point, REPLICAS_PER_ANSWER).into_iter().map(|i| i as u32).collect()
}

/// How often is the impersonator `imp` used as a relay, and by whom? A
/// node routes an operation through the routing entry that most closely
/// precedes the key, so entry `e` relays the fraction of the key space
/// between `e` and the next entry. Returns that fraction for every node
/// that has `imp` in its routing state (its "reverse" neighbors).
fn relay_clients(ring: &VermeStaticRing, targets: &[Vec<u32>], imp: u32) -> Vec<(u32, f64)> {
    let _span = ProfScope::enter(Scope::WormBuild);
    let mut clients: Vec<(u32, f64)> = Vec::new();
    for (x, list) in targets.iter().enumerate() {
        if x == imp as usize || !list.contains(&imp) {
            continue;
        }
        // Coverage of `imp` in x's routing table: by clockwise distance
        // from x, imp covers up to the next entry beyond it.
        let xid = ring.node(x).id;
        let d_imp = xid.distance_to(ring.node(imp as usize).id);
        let next = list
            .iter()
            .map(|&t| xid.distance_to(ring.node(t as usize).id))
            .filter(|&d| d > d_imp)
            .min()
            .unwrap_or(u128::MAX);
        let coverage = (next - d_imp) as f64 / u128::MAX as f64;
        if coverage > 0.0 {
            clients.push((x as u32, coverage));
        }
    }
    clients
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The Chord target-list builder as it stood before [`Population`].
    /// (It pushed the predecessor unchecked, naming it twice on a ring of
    /// at most `NUM_SUCCESSORS + 1` nodes, where the successor list
    /// already wraps onto it; the property below stays above that size.)
    fn reference_chord_targets(cfg: &ScenarioConfig) -> Vec<Vec<u32>> {
        let mut rng = SeedSource::new(cfg.seed).stream("chord-ids");
        let mut ids: Vec<Id> = Vec::with_capacity(cfg.nodes);
        while ids.len() < cfg.nodes {
            ids.push(Id::random(&mut rng));
        }
        ids.sort_by_key(|i| i.raw());
        let handles: Vec<NodeHandle> = ids
            .iter()
            .enumerate()
            .map(|(i, &id)| NodeHandle::new(id, Addr::from_raw(i as u64 + 1)))
            .collect();
        let ring = StaticRing::new(handles);
        let n = cfg.nodes;
        let mut targets: Vec<Vec<u32>> = Vec::with_capacity(n);
        for i in 0..n {
            let mut list: Vec<u32> = Vec::new();
            for d in 1..=NUM_SUCCESSORS.min(n - 1) {
                list.push(((i + d) % n) as u32);
            }
            list.push(ring.predecessor_index(i) as u32);
            for b in 0..Id::BITS {
                let j = ring.successor_index(ring.node(i).id.finger_target(b));
                if j != i && !list.contains(&(j as u32)) {
                    list.push(j as u32);
                }
            }
            targets.push(list);
        }
        targets
    }

    /// The two Verme-ring builders as they stood before [`Population`]:
    /// the §4.4 fingers (one `corner_responsible_index` search per bit),
    /// or with `ablated` the plain Chord ones over the same membership.
    fn reference_verme_targets(cfg: &ScenarioConfig, ablated: bool) -> Vec<Vec<u32>> {
        let layout = SectionLayout::with_sections(cfg.sections, 2);
        let ring = VermeStaticRing::generate(layout, cfg.nodes, cfg.seed);
        let n = cfg.nodes;
        let mut targets: Vec<Vec<u32>> = Vec::with_capacity(n);
        for i in 0..n {
            let mut list: Vec<u32> = Vec::new();
            for d in 1..=NUM_SUCCESSORS.min(n - 1) {
                list.push(((i + d) % n) as u32);
            }
            for d in 1..=NUM_PREDECESSORS.min(n - 1) {
                let j = ((i + n - d) % n) as u32;
                if !list.contains(&j) {
                    list.push(j);
                }
            }
            let id = ring.node(i).id;
            for b in 0..Id::BITS {
                let j = if ablated {
                    Some(ring.successor_index(id.finger_target(b)))
                } else {
                    ring.corner_responsible_index(layout.finger_target(id, b))
                };
                if let Some(j) = j.filter(|&j| j != i) {
                    if !list.contains(&(j as u32)) {
                        list.push(j as u32);
                    }
                }
            }
            targets.push(list);
        }
        targets
    }

    proptest! {
        #[test]
        fn population_target_lists_equal_the_three_old_builders(
            nodes in prop::sample::select(vec![12usize, 40, 300, 2_000]),
            sections in prop::sample::select(vec![4u128, 16, 64]),
            seed: u64,
        ) {
            let cfg = ScenarioConfig { nodes, sections, seed, ..ScenarioConfig::default() };
            let want = [
                reference_chord_targets(&cfg),
                reference_verme_targets(&cfg, false),
                reference_verme_targets(&cfg, true),
            ];
            // The finger walk split into 1 to 7 ranges, on as many
            // threads, whatever the cores and the parallel floor.
            for parts in [1, 2, 3, 7] {
                let chord = Population::build_in(&cfg, Overlay::Chord, parts);
                prop_assert_eq!(&chord.hosts.targets, &want[0], "{} parts", parts);
                let verme = Population::build_in(&cfg, Overlay::Verme, parts);
                prop_assert_eq!(&verme.hosts.targets, &want[1], "{} parts", parts);
                let ablated = Population::build_in(&cfg, Overlay::VermeUnshifted, parts);
                prop_assert_eq!(&ablated.hosts.targets, &want[2], "{} parts", parts);
                // Same membership, same victims, same section map.
                prop_assert_eq!(&ablated.hosts.vulnerable, &verme.hosts.vulnerable);
                prop_assert_eq!(&ablated.hosts.sections, &verme.hosts.sections);
            }
        }
    }

    #[test]
    fn tiny_rings_name_every_address_once() {
        // Three nodes, ten-entry lists: successors, predecessors and
        // fingers all wrap onto the same two peers.
        let cfg = ScenarioConfig { nodes: 3, sections: 4, ..ScenarioConfig::default() };
        for overlay in [Overlay::Chord, Overlay::Verme, Overlay::VermeUnshifted] {
            for (i, list) in Population::build(&cfg, overlay).hosts.targets.iter().enumerate() {
                let mut sorted = list.clone();
                sorted.sort_unstable();
                sorted.dedup();
                assert_eq!(sorted.len(), list.len(), "{overlay:?}: node {i} lists {list:?}");
                assert!(!list.contains(&(i as u32)));
            }
        }
    }

    #[test]
    fn shared_population_runs_equal_one_shot_runs() {
        let cfg = small_cfg();
        let verme = Population::build(&cfg, Overlay::Verme);
        for sc in [
            Scenario::VermeWorm,
            Scenario::SecureVerDiImpersonation,
            Scenario::FastVerDiImpersonation { lookups_per_sec: 10.0 },
            Scenario::CompromiseVerDi { node_lookup_rate_per_sec: 1.0 },
            Scenario::SybilImpersonation { identities: 4 },
        ] {
            let shared = run_scenario_on(&verme, &sc, &cfg, &Instrumentation::default());
            let alone = run_scenario(&sc, &cfg);
            assert_eq!(shared.curve.points(), alone.curve.points(), "{}", sc.label());
            assert_eq!((shared.scans, shared.collisions), (alone.scans, alone.collisions));
        }
    }

    #[test]
    #[should_panic(expected = "runs on another overlay")]
    fn a_scenario_refuses_another_overlays_population() {
        let cfg = small_cfg();
        let chord = Population::build(&cfg, Overlay::Chord);
        run_scenario_on(&chord, &Scenario::VermeWorm, &cfg, &Instrumentation::default());
    }

    #[test]
    fn infected_never_exceeds_vulnerable_plus_seeds() {
        let cfg = small_cfg();
        let arms = [
            (Scenario::ChordWorm, 1),
            (Scenario::VermeWorm, 1),
            (Scenario::SecureVerDiImpersonation, 1),
            (Scenario::FastVerDiImpersonation { lookups_per_sec: 10.0 }, 1),
            (Scenario::CompromiseVerDi { node_lookup_rate_per_sec: 1.0 }, 1),
            (Scenario::VermeUnshiftedFingersAblation, 1),
            (Scenario::ChordWithGuardians { guardian_fraction: 0.01, alert_hop_delay_s: 1.0 }, 1),
            (Scenario::SybilImpersonation { identities: 6 }, 6),
            (Scenario::SwarmRandomTracker, 1),
            (Scenario::SwarmTypeAwareTracker, 1),
        ];
        for (sc, seeds) in arms {
            let r = run_scenario(&sc, &cfg);
            assert_eq!(r.seeds, seeds, "{}", sc.label());
            assert!(
                r.infected <= r.vulnerable + r.seeds,
                "{}: {} infected of {} vulnerable + {} seeds",
                sc.label(),
                r.infected,
                r.vulnerable,
                r.seeds
            );
        }
        // The bound is tight exactly where the attacker brings its own
        // host: a saturated Fast-VerDi outbreak holds every victim plus
        // the impersonator.
        let fast = run_scenario(&Scenario::FastVerDiImpersonation { lookups_per_sec: 10.0 }, &cfg);
        assert_eq!(fast.infected, fast.vulnerable + 1);
    }

    fn small_cfg() -> ScenarioConfig {
        ScenarioConfig {
            nodes: 2048,
            sections: 64, // ~32 nodes per section
            duration: SimDuration::from_secs(5_000),
            ..Default::default()
        }
    }

    #[test]
    fn chord_worm_infects_everything_fast() {
        let r = run_scenario(&Scenario::ChordWorm, &small_cfg());
        assert_eq!(r.infected, r.vulnerable, "chord worm reaches all vulnerable nodes");
        let t_full = r.curve.points().last().unwrap().0;
        assert!(
            t_full < SimTime::ZERO + SimDuration::from_secs(120),
            "chord infection too slow: {t_full}"
        );
    }

    #[test]
    fn verme_confines_worm_to_one_section() {
        let cfg = small_cfg();
        let r = run_scenario(&Scenario::VermeWorm, &cfg);
        // One section holds ~nodes/sections members, half the ring is
        // vulnerable; containment means a tiny fraction got infected.
        let section_size = cfg.nodes as f64 / cfg.sections as f64;
        assert!(
            (r.infected as f64) <= 2.5 * section_size,
            "verme worm escaped its section: {} infected",
            r.infected
        );
        assert!(r.infected >= 2, "worm should at least spread within its section");
    }

    #[test]
    fn secure_impersonation_reaches_log_sections_only() {
        let cfg = small_cfg();
        let r = run_scenario(&Scenario::SecureVerDiImpersonation, &cfg);
        let section_size = cfg.nodes as f64 / cfg.sections as f64;
        // O(log n) sections: generous cap of 40 sections for 2048 nodes.
        assert!(
            (r.infected as f64) < 40.0 * section_size,
            "secure impersonation spread too far: {}",
            r.infected
        );
        assert!(
            r.infected as f64 > section_size,
            "impersonator should reach several sections: {}",
            r.infected
        );
        // And far fewer than the vulnerable population.
        assert!(r.infected < r.vulnerable / 4);
    }

    #[test]
    fn fast_impersonation_eventually_reaches_most_of_the_population() {
        let cfg = small_cfg();
        let r = run_scenario(&Scenario::FastVerDiImpersonation { lookups_per_sec: 10.0 }, &cfg);
        assert!(
            r.infected as f64 >= 0.9 * r.vulnerable as f64,
            "fast impersonation should saturate: {}/{}",
            r.infected,
            r.vulnerable
        );
    }

    #[test]
    fn ordering_chord_fastest_then_fast_then_compromise() {
        let cfg = small_cfg();
        let chord = run_scenario(&Scenario::ChordWorm, &cfg);
        let fast = run_scenario(&Scenario::FastVerDiImpersonation { lookups_per_sec: 10.0 }, &cfg);
        let comp = run_scenario(&Scenario::CompromiseVerDi { node_lookup_rate_per_sec: 1.0 }, &cfg);
        let t = |r: &ScenarioResult| r.time_to_vulnerable_fraction(0.5).map(|t| t.as_secs_f64());
        let (tc, tf) = (t(&chord).unwrap(), t(&fast).unwrap());
        assert!(tc < tf, "chord ({tc:.0}s) must beat fast-verdi ({tf:.0}s)");
        if let Some(tk) = t(&comp) {
            assert!(tf < tk, "fast ({tf:.0}s) must beat compromise ({tk:.0}s)");
        }
        // Verme and Secure stay near zero.
        let verme = run_scenario(&Scenario::VermeWorm, &cfg);
        assert!(t(&verme).is_none(), "verme must never reach half the population");
    }

    #[test]
    fn ablated_fingers_break_containment() {
        // The ablation proves §4.4 is load-bearing: with plain Chord
        // fingers over the same typed ring, the worm escapes its island
        // and reaches most of the vulnerable population.
        let cfg = small_cfg();
        let contained = run_scenario(&Scenario::VermeWorm, &cfg);
        let ablated = run_scenario(&Scenario::VermeUnshiftedFingersAblation, &cfg);
        assert!(
            ablated.infected > 10 * contained.infected,
            "ablated: {}, contained: {}",
            ablated.infected,
            contained.infected
        );
        assert!(ablated.infected as f64 > 0.8 * ablated.vulnerable as f64);
    }

    #[test]
    fn guardian_chord_sits_between_chord_and_verme() {
        let cfg = small_cfg();
        let chord = run_scenario(&Scenario::ChordWorm, &cfg);
        let guarded = run_scenario(
            &Scenario::ChordWithGuardians { guardian_fraction: 0.01, alert_hop_delay_s: 1.0 },
            &cfg,
        );
        let verme = run_scenario(&Scenario::VermeWorm, &cfg);
        assert!(
            guarded.infected < chord.infected,
            "guardians should blunt the outbreak ({} vs {})",
            guarded.infected,
            chord.infected
        );
        assert!(
            guarded.infected > verme.infected,
            "reactive alerts should not beat structural containment here ({} vs {})",
            guarded.infected,
            verme.infected
        );
    }

    #[test]
    fn sybil_containment_degrades_with_identity_count() {
        let cfg = small_cfg();
        let one = run_scenario(&Scenario::SybilImpersonation { identities: 1 }, &cfg);
        let ten = run_scenario(&Scenario::SybilImpersonation { identities: 10 }, &cfg);
        // Eclipse-style placement clusters the identities around one
        // section, so their finger tables overlap heavily: extra
        // certificates buy *depth* around the victim section, not the
        // near-linear breadth uniform placement would give. Degradation
        // is still monotone in the identity count, just sub-linear.
        assert!(
            ten.infected > one.infected,
            "more identities should reach more ({} vs {})",
            ten.infected,
            one.infected
        );
        // A single identity stays bounded at its own O(log n) neighbor
        // sections — the §6.1 point: certificates must be rate-limited.
        assert!(one.infected < one.vulnerable / 4, "{}/{}", one.infected, one.vulnerable);
    }

    #[test]
    fn type_aware_tracker_contains_unstructured_worms_too() {
        let cfg = small_cfg();
        let random = run_scenario(&Scenario::SwarmRandomTracker, &cfg);
        let aware = run_scenario(&Scenario::SwarmTypeAwareTracker, &cfg);
        assert!(
            random.infected as f64 > 0.9 * random.vulnerable as f64,
            "random tracker swarm should saturate: {}/{}",
            random.infected,
            random.vulnerable
        );
        let island = (cfg.nodes as u128 / cfg.sections).max(2) as usize;
        assert!(
            aware.infected <= island,
            "type-aware swarm must confine the worm to one island: {} > {island}",
            aware.infected
        );
    }

    #[test]
    fn results_are_deterministic() {
        let cfg = small_cfg();
        let a = run_scenario(&Scenario::VermeWorm, &cfg);
        let b = run_scenario(&Scenario::VermeWorm, &cfg);
        // The span profiler only observes: a run inside a profiling
        // session that did enter scopes is the same result.
        verme_sim::span_profiler_enable();
        let profiled = run_scenario(&Scenario::VermeWorm, &cfg);
        let profile = verme_sim::span_profiler_disable().expect("enabled above");
        assert!(!profile.attributed_total().is_zero(), "the profiled run entered no scope");
        let want = format!("{a:?}");
        assert_eq!(want, format!("{b:?}"));
        assert_eq!(want, format!("{profiled:?}"));
    }

    #[test]
    fn instrumented_run_does_not_perturb_the_outbreak() {
        let cfg = small_cfg();
        let plain = run_scenario(&Scenario::ChordWorm, &cfg);
        let mon = Monitor::new(512);
        mon.add_rule("worm.infected", verme_obs::Rule::Threshold { min: 5.0 });
        let inst = Instrumentation {
            recorder: Some(FlightRecorder::new(1024)),
            monitor: Some((mon.clone(), SimDuration::from_secs(5))),
        };
        let observed = run_scenario_instrumented(&Scenario::ChordWorm, &cfg, &inst);
        assert_eq!(plain.infected, observed.infected);
        assert_eq!(plain.scans, observed.scans);
        assert_eq!(plain.curve.points(), observed.curve.points());
        assert!(!mon.alerts().is_empty(), "chord outbreak must trip the threshold");
        assert!(!observed.detection.is_empty(), "section map must yield a detection report");
        // An unmonitored run reports nothing.
        assert!(plain.detection.is_empty());
    }

    #[test]
    fn guardian_scenario_reports_per_section_detection_latency() {
        let cfg = small_cfg();
        let mon = Monitor::new(512);
        mon.add_rule("worm.section.", verme_obs::Rule::Threshold { min: 1.0 });
        let inst =
            Instrumentation { recorder: None, monitor: Some((mon, SimDuration::from_secs(2))) };
        let r = run_scenario_instrumented(
            &Scenario::ChordWithGuardians { guardian_fraction: 0.02, alert_hop_delay_s: 1.0 },
            &cfg,
            &inst,
        );
        assert!(!r.detection.is_empty(), "chord worm must reach sections");
        let covered = r.detection.iter().filter(|d| d.latency().is_some()).count();
        assert!(covered > 0, "per-section threshold must cover infected sections");
        // Sections are reported in ascending order with valid indices.
        for w in r.detection.windows(2) {
            assert!(w[0].section < w[1].section);
        }
        for d in &r.detection {
            assert!((d.section as u128) < cfg.sections);
        }
    }

    #[test]
    fn verme_sections_match_the_native_layout() {
        // A monitored Verme outbreak stays in one native section: exactly
        // one per-section gauge should ever rise, and the detection
        // report must name very few sections.
        let cfg = small_cfg();
        let mon = Monitor::new(512);
        let inst = Instrumentation {
            recorder: None,
            monitor: Some((mon.clone(), SimDuration::from_secs(10))),
        };
        let r = run_scenario_instrumented(&Scenario::VermeWorm, &cfg, &inst);
        assert!(r.infected >= 2);
        let section_gauges =
            mon.gauge_keys().into_iter().filter(|k| k.starts_with("worm.section.")).count();
        assert!(
            section_gauges <= 2,
            "contained worm should touch at most a couple of sections, saw {section_gauges}"
        );
        assert_eq!(r.detection.len(), section_gauges);
    }
}
