//! Bounded model checking of ring maintenance on small rings.
//!
//! A deterministic abstraction of the join/fail/stabilize state machine,
//! exhaustively enumerated by the `ring_check` CI bin. Identifiers are
//! ring positions `0..slots`; each maintenance action is one atomic
//! transition (Zave's atomic-action model): the message exchanges inside
//! one stabilization round collapse into a single step, and the notify it
//! ends with is applied synchronously at the receiver.
//!
//! The rules are not the model's. Every maintenance decision — who owns
//! a key ([`owns_arc`]), what a join installs ([`joined_list`]), how a
//! list is rebuilt from a neighbor's advertisement ([`rebuild_list`]),
//! what a notify does to the predecessor ([`predecessor_decision`]) and
//! to an emptied successor list ([`refill_seed`]), how a farewell is
//! absorbed ([`NeighborList`]) — is the function `RingCore`, `ChordNode`
//! and `VermeNode` call, handed [`ModelParams::mode`] and never matching
//! on it. The model supplies what a proof needs around them: atomic
//! steps, guards, claimant branching, rotation canonicalisation,
//! exploration and the convergence check.
//!
//! Faithfulness notes:
//!
//! * **Joins** route through *claimants*: any live node whose local arc
//!   claim (`(a, head(a.succs)]`, or everything for a bare singleton)
//!   covers the joiner answers with its own — possibly stale — successor
//!   list. Every claimant is branched on, so the enumeration covers
//!   answers from nodes that have not yet absorbed a concurrent join.
//! * **Fingers** are an oracle toggled by [`ModelParams::finger_oracle`]:
//!   on, an emptied successor list reseeds to the true nearest live node
//!   (a fresh finger table); off, the reseed finds nothing (the fingers
//!   died with the successor arc), which is the regime where the legacy
//!   backwards notify-refill fires.
//! * **Failures** are guarded by [`ModelParams::guard_redundancy`] —
//!   Zave's standing assumption that a failure never wipes a node's last
//!   live successor entry. Turning the guard off explores the
//!   assumption-violating states bursts create in the wire simulator.
//! * Dead nodes never revive and joins are monotone, so the state space
//!   is finite; rotation symmetry (the rules only use circular distance)
//!   quotients it further.

use std::collections::{HashSet, VecDeque};

use verme_sim::Addr;

use super::{
    check_ring, predecessor_decision, MaintenanceMode, RectifyDecision, RingReport, RingStance,
    Violation,
};
use crate::id::Id;
use crate::ring::{NeighborList, NodeHandle};
use crate::ring_core::{joined_list, owns_arc, rebuild_list, refill_seed};

/// Which overlay variant the model runs.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum Variant {
    /// Plain Chord: a single predecessor pointer.
    Chord,
    /// The Verme section variant: a symmetric predecessor *list*
    /// maintained like the successor list.
    Section,
}

impl Variant {
    /// Short label for reports.
    pub fn label(self) -> &'static str {
        match self {
            Variant::Chord => "chord",
            Variant::Section => "section",
        }
    }
}

/// Model-checker configuration.
#[derive(Clone, Debug)]
pub struct ModelParams {
    /// Identifier-universe size (ring positions `0..slots`), ≤ 8.
    pub slots: usize,
    /// Successor-list (and section predecessor-list) capacity.
    pub list_len: usize,
    /// Overlay variant.
    pub variant: Variant,
    /// Maintenance rules under test.
    pub mode: MaintenanceMode,
    /// Enforce the redundancy assumption on fail transitions.
    pub guard_redundancy: bool,
    /// Whether the forward-finger reseed oracle finds a live node.
    pub finger_oracle: bool,
    /// Maximum fail events along any execution (counted as dead slots).
    pub max_fails: usize,
    /// Also enumerate graceful departures ([`ModelEvent::Leave`]): the
    /// leaver atomically hands its lists to its farewell recipients, then
    /// dies. Departures count against `max_fails` (dead is dead for the
    /// state-space bound). Off preserves the PR-8 state spaces exactly.
    pub allow_leaves: bool,
    /// Hard cap on distinct canonical states before bailing out.
    pub max_states: usize,
    /// Also check eventual convergence from every reachable state.
    pub check_convergence: bool,
}

#[derive(Copy, Clone, Debug, PartialEq, Eq, Hash)]
enum Status {
    Unborn,
    Joining,
    Active,
    Dead,
}

#[derive(Clone, Debug, PartialEq, Eq, Hash)]
struct MNode {
    status: Status,
    /// Chord predecessor pointer.
    pred: Option<u8>,
    /// Section predecessor list, nearest (counter-clockwise) first.
    preds: Vec<u8>,
    /// Successor list, nearest (clockwise) first.
    succs: Vec<u8>,
    /// True once the node ever held a successor entry — distinguishes a
    /// bootstrap singleton (may adopt a notify candidate into an empty
    /// list) from a wedged node (must not adopt backwards).
    seeded: bool,
}

impl MNode {
    fn unborn() -> Self {
        MNode {
            status: Status::Unborn,
            pred: None,
            preds: Vec::new(),
            succs: Vec::new(),
            seeded: false,
        }
    }
}

/// One global model state: slot `i` holds node `i`.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct ModelState {
    nodes: Vec<MNode>,
}

/// One transition, for violation traces.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum ModelEvent {
    /// Node `0` starts joining (acquires nothing yet).
    JoinStart(u8),
    /// Joining node `.0` completes its join through claimant `.1`.
    JoinFinish(u8, u8),
    /// Node `.0` fails.
    Fail(u8),
    /// Node `.0` departs gracefully: one atomic farewell round (the wire
    /// `Leaving` exchange collapsed into a single step), then the node is
    /// gone. Only enumerated when [`ModelParams::allow_leaves`] is set.
    Leave(u8),
    /// Node `.0` runs one full stabilization round.
    Stabilize(u8),
}

/// Outcome of one exhaustive enumeration.
#[derive(Clone, Debug, Default)]
pub struct ModelOutcome {
    /// Distinct canonical states reached.
    pub states: usize,
    /// Transitions taken (including ones landing on known states).
    pub transitions: usize,
    /// Total states that violated the invariant.
    pub violation_states: usize,
    /// A sample of violations: the event entering the state, the clause.
    pub samples: Vec<(ModelEvent, Violation)>,
    /// States from which deterministic stabilization failed to reach the
    /// ideal ring (only counted when `check_convergence` is set).
    pub convergence_failures: usize,
    /// True when `max_states` truncated the enumeration.
    pub truncated: bool,
}

impl ModelOutcome {
    /// True when the enumeration proved the invariant and (if checked)
    /// convergence, without truncation.
    pub fn proven(&self) -> bool {
        !self.truncated && self.violation_states == 0 && self.convergence_failures == 0
    }
}

// The one conversion between the model's compact state and what the
// maintenance rules take. Slot `i` is identifier `i` at address `i + 1`:
// slots `0..n` keep their circular order on the 2¹²⁸ ring, and the rules
// only compare circular distances, so they decide on slots exactly as
// they do on the nodes' identifiers.

fn handle(slot: u8) -> NodeHandle {
    NodeHandle::new(Id::new(slot.into()), Addr::from_raw(u64::from(slot) + 1))
}

fn handles(slots: &[u8]) -> Vec<NodeHandle> {
    slots.iter().copied().map(handle).collect()
}

fn slot(h: NodeHandle) -> u8 {
    h.id.raw() as u8
}

fn slots(list: &NeighborList) -> Vec<u8> {
    list.iter().copied().map(slot).collect()
}

/// `owner`'s successor (`clockwise`) or predecessor list holding `slots`,
/// which every list of a model state keeps in rank order.
fn list(owner: u8, cap: usize, clockwise: bool, slots: &[u8]) -> NeighborList {
    let id = Id::new(owner.into());
    let mut l = if clockwise {
        NeighborList::successors(id, cap)
    } else {
        NeighborList::predecessors(id, cap)
    };
    l.integrate_all(&handles(slots));
    l
}

impl ModelState {
    /// The initial state: slot 0 is a bare singleton, the rest unborn.
    pub fn initial(params: &ModelParams) -> Self {
        let mut nodes = vec![MNode::unborn(); params.slots];
        nodes[0].status = Status::Active;
        ModelState { nodes }
    }

    /// A converged ring over exactly the `live` slots (ideal lists),
    /// everything else unborn — the starting point for scripted traces.
    pub fn ideal(params: &ModelParams, live: &[u8]) -> Self {
        let mut st = ModelState { nodes: vec![MNode::unborn(); params.slots] };
        for &i in live {
            st.nodes[i as usize].status = Status::Active;
        }
        for &i in live {
            let (succs, pred, preds) = st.ideal_pointers(i, params);
            let seeded = !succs.is_empty();
            st.nodes[i as usize] = MNode { status: Status::Active, pred, preds, succs, seeded };
        }
        st
    }

    /// The successor list, Chord predecessor and section predecessor list
    /// node `i` holds on the converged ring over the active nodes.
    fn ideal_pointers(&self, i: u8, params: &ModelParams) -> (Vec<u8>, Option<u8>, Vec<u8>) {
        let want = params.list_len.min(self.actives().len().saturating_sub(1));
        let ahead = self.actives_from(i, true).take(want).collect();
        let behind: Vec<u8> = self.actives_from(i, false).take(want).collect();
        match params.variant {
            Variant::Chord => (ahead, behind.first().copied(), Vec::new()),
            Variant::Section => (ahead, None, behind),
        }
    }

    fn n(&self) -> usize {
        self.nodes.len()
    }

    fn active(&self, i: u8) -> bool {
        self.nodes[i as usize].status == Status::Active
    }

    fn actives(&self) -> Vec<u8> {
        (0..self.n() as u8).filter(|&i| self.active(i)).collect()
    }

    fn dead_count(&self) -> usize {
        self.nodes.iter().filter(|m| m.status == Status::Dead).count()
    }

    /// The active nodes in ring order from `from` (exclusive), clockwise
    /// or counter-clockwise, nearest first.
    fn actives_from(&self, from: u8, clockwise: bool) -> impl Iterator<Item = u8> + '_ {
        let (n, from) = (self.n(), from as usize);
        (1..n)
            .map(move |d| ((if clockwise { from + d } else { from + n - d }) % n) as u8)
            .filter(|&x| self.active(x))
    }

    /// The true nearest live node clockwise from `from` (exclusive), the
    /// forward-finger oracle.
    fn nearest_active_cw(&self, from: u8) -> Option<u8> {
        self.actives_from(from, true).next()
    }

    /// Live nodes whose local arc claim covers joining node `i` — the
    /// possible answerers of `i`'s join lookup, per `local_answer`.
    fn claimants(&self, i: u8) -> Vec<u8> {
        self.actives()
            .into_iter()
            .filter(|&a| {
                let s1 = self.nodes[a as usize].succs.first().map(|&s1| handle(s1).id);
                a != i && owns_arc(handle(a).id, s1, handle(i).id)
            })
            .collect()
    }

    /// The notify rule of `params.mode`, applied synchronously at `s` for
    /// candidate `c`.
    fn notify(&mut self, s: u8, c: u8, params: &ModelParams) {
        if s == c {
            return;
        }
        let cap = params.list_len;
        match params.variant {
            Variant::Chord => {
                let pred = self.nodes[s as usize].pred;
                let adopt = match predecessor_decision(
                    params.mode,
                    s.into(),
                    pred.map(u128::from),
                    c.into(),
                ) {
                    RectifyDecision::Adopt => true,
                    RectifyDecision::Keep => false,
                    // The probe resolves at once: adopt on timeout.
                    RectifyDecision::ProbePred => pred.is_some_and(|p| !self.active(p)),
                };
                if adopt {
                    self.nodes[s as usize].pred = Some(c);
                }
            }
            Variant::Section => {
                let mut preds = list(s, cap, false, &self.nodes[s as usize].preds);
                preds.integrate(handle(c));
                self.nodes[s as usize].preds = slots(&preds);
            }
        }
        if self.nodes[s as usize].succs.is_empty() {
            let finger = if params.finger_oracle { self.nearest_active_cw(s) } else { None };
            let seeded = self.nodes[s as usize].seeded;
            if let Some(seed) =
                refill_seed(params.mode, handle(s).id, seeded, finger.map(handle), handle(c))
            {
                let mut succs = list(s, cap, true, &[]);
                succs.integrate(seed);
                self.set_succs(s, &succs);
            }
        }
    }

    /// Installs `succs` at node `i`, latching `seeded` as `RingCore` does
    /// after every successor-list write.
    fn set_succs(&mut self, i: u8, succs: &NeighborList) {
        let node = &mut self.nodes[i as usize];
        node.succs = slots(succs);
        node.seeded |= !succs.is_empty();
    }

    fn join_finish(&mut self, i: u8, a: u8, params: &ModelParams) {
        let cap = params.list_len;
        let answer = handles(&self.nodes[a as usize].succs);
        let (succs, trusted) =
            joined_list(&list(i, cap, true, &[]), params.mode, handle(a), &answer);
        self.set_succs(i, &succs);
        self.nodes[i as usize].status = Status::Active;
        // A two-phase join trusts nobody: the predecessor side fills in
        // later through rectify, driven by notifies.
        if let Some(p) = trusted {
            match params.variant {
                Variant::Chord => self.nodes[i as usize].pred = Some(slot(p)),
                Variant::Section => {
                    let mut preds = list(i, cap, false, &[]);
                    preds.integrate(p);
                    self.nodes[i as usize].preds = slots(&preds);
                }
            }
        }
        self.notify_first_successor(i, params);
    }

    /// The notify a join and a stabilization round end with.
    fn notify_first_successor(&mut self, i: u8, params: &ModelParams) {
        if let Some(&s1) = self.nodes[i as usize].succs.first() {
            if self.active(s1) {
                self.notify(s1, i, params);
            }
        }
    }

    /// How many entries at the head of `list` are not active.
    fn dead_heads(&self, list: &[u8]) -> usize {
        list.iter().take_while(|&&x| !self.active(x)).count()
    }

    fn stabilize(&mut self, i: u8, params: &ModelParams) {
        // Predecessor liveness.
        match params.variant {
            Variant::Chord => {
                if self.nodes[i as usize].pred.is_some_and(|p| !self.active(p)) {
                    self.nodes[i as usize].pred = None;
                }
            }
            Variant::Section => {
                // Prune dead heads, then rebuild from p1's view.
                let dead = self.dead_heads(&self.nodes[i as usize].preds);
                self.nodes[i as usize].preds.drain(..dead);
                if let Some(&p1) = self.nodes[i as usize].preds.first() {
                    let old = list(i, params.list_len, false, &[]);
                    let tail = handles(&self.nodes[p1 as usize].preds);
                    let fresh = rebuild_list(&old, params.mode, handle(p1), None, &tail, false);
                    self.nodes[i as usize].preds = slots(&fresh);
                }
            }
        }
        // Successor head pruning (the StabTimeout walk).
        let dead = self.dead_heads(&self.nodes[i as usize].succs);
        self.nodes[i as usize].succs.drain(..dead);
        // Emptied list: the forward-finger reseed (both modes, PR-1).
        if self.nodes[i as usize].succs.is_empty() {
            // Oracle off, the fingers died with the arc and the node stays
            // wedged; on, only a singleton finds nobody.
            let Some(f) = self.nearest_active_cw(i).filter(|_| params.finger_oracle) else {
                return;
            };
            self.nodes[i as usize].succs = vec![f];
            self.nodes[i as usize].seeded = true;
        }
        // Rebuild from s1's view: its nearest predecessor, if any, and its
        // successor list, without liveness filtering.
        let s1 = self.nodes[i as usize].succs[0];
        let adv = &self.nodes[s1 as usize];
        let adv_pred = match params.variant {
            Variant::Chord => adv.pred,
            Variant::Section => adv.preds.first().copied(),
        };
        let old = list(i, params.list_len, true, &[]);
        let tail = handles(&adv.succs);
        let fresh = rebuild_list(&old, params.mode, handle(s1), adv_pred.map(handle), &tail, false);
        self.set_succs(i, &fresh);
        self.notify_first_successor(i, params);
    }

    /// Fail guard: `i` may die only if at least one live node remains
    /// and (when guarded) every other live node keeps ≥ 1 live entry.
    fn may_fail(&self, i: u8, params: &ModelParams) -> bool {
        if self.dead_count() >= params.max_fails {
            return false;
        }
        if self.nodes[i as usize].status == Status::Joining {
            return true; // No ring obligations yet.
        }
        let actives = self.actives();
        if actives.len() <= 1 {
            return false;
        }
        if !params.guard_redundancy {
            return true;
        }
        // The assumption protects nodes that would be orphaned: if `j`
        // names `i` at all, some other live entry must survive.
        actives.iter().all(|&j| {
            let succs = &self.nodes[j as usize].succs;
            j == i || !succs.contains(&i) || succs.iter().any(|&x| x != i && self.active(x))
        })
    }

    fn fail(&mut self, i: u8) {
        // A dying node leaves no residue of its own: in particular a
        // mid-join death drops its bootstrap bookkeeping entirely, so
        // this transition is exact (the satellite fix in ChordNode
        // clears `bootstrap` the same way).
        self.nodes[i as usize] = MNode { status: Status::Dead, ..MNode::unborn() };
    }

    /// Leave guard: only an active (joined) node sends farewells, some
    /// other live node must remain, and departures share the `max_fails`
    /// dead-slot budget. No redundancy guard — the atomic handoff is
    /// what a graceful departure substitutes for it.
    fn may_leave(&self, i: u8, params: &ModelParams) -> bool {
        params.allow_leaves
            && self.nodes[i as usize].status == Status::Active
            && self.dead_count() < params.max_fails
            && self.actives().len() > 1
    }

    /// One atomic graceful departure: the wire `on_shutdown` farewell
    /// (`Leaving { successors, predecessor(s) }` to the predecessor side
    /// and the first successor) and both `handle_leaving` executions
    /// collapsed into a single step, then the leaver is dead.
    fn leave(&mut self, i: u8, params: &ModelParams) {
        let leaver = self.nodes[i as usize].clone();
        let recipients: Vec<u8> = {
            let pred_side = match params.variant {
                Variant::Chord => leaver.pred,
                Variant::Section => leaver.preds.first().copied(),
            };
            let succ_side = leaver.succs.first().copied();
            let mut v: Vec<u8> = pred_side.into_iter().chain(succ_side).collect();
            v.dedup();
            v
        };
        self.fail(i);
        let (cap, gone) = (params.list_len, handle(i).addr);
        for r in recipients {
            // A farewell to a dead or unborn neighbor is a dead letter.
            if !self.active(r) {
                continue;
            }
            // The recipient splices the leaver out of its own pointers,
            // then absorbs the advertised lists by rank in both modes, each
            // into its list of the same direction.
            let mut succs = list(r, cap, true, &self.nodes[r as usize].succs);
            succs.remove_addr(gone);
            succs.integrate_all(&handles(&leaver.succs));
            self.set_succs(r, &succs);
            match params.variant {
                Variant::Chord => {
                    if self.nodes[r as usize].pred == Some(i) {
                        self.nodes[r as usize].pred = None;
                    }
                    // The advertised predecessor rides along as a notify.
                    if let Some(c) = leaver.pred {
                        if c != r && c != i {
                            self.notify(r, c, params);
                        }
                    }
                }
                Variant::Section => {
                    let mut preds = list(r, cap, false, &self.nodes[r as usize].preds);
                    preds.remove_addr(gone);
                    preds.integrate_all(&handles(&leaver.preds));
                    self.nodes[r as usize].preds = slots(&preds);
                }
            }
        }
    }

    /// Whether `ev` may fire in this state. An unborn node stabilizing, a
    /// fail the redundancy guard rejects, a claimant that does not cover
    /// the joiner, a slot outside the universe: all disabled.
    fn enabled(&self, ev: ModelEvent, params: &ModelParams) -> bool {
        let status = |i: u8| self.nodes.get(i as usize).map(|m| m.status);
        match ev {
            ModelEvent::JoinStart(i) => {
                status(i) == Some(Status::Unborn) && !self.actives().is_empty()
            }
            ModelEvent::JoinFinish(i, a) => {
                status(i) == Some(Status::Joining) && self.claimants(i).contains(&a)
            }
            ModelEvent::Fail(i) => {
                matches!(status(i), Some(Status::Joining | Status::Active))
                    && self.may_fail(i, params)
            }
            ModelEvent::Leave(i) => status(i).is_some() && self.may_leave(i, params),
            ModelEvent::Stabilize(i) => status(i) == Some(Status::Active),
        }
    }

    /// Takes the (enabled) transition `ev`.
    fn step(&mut self, ev: ModelEvent, params: &ModelParams) {
        match ev {
            ModelEvent::JoinStart(i) => self.nodes[i as usize].status = Status::Joining,
            ModelEvent::JoinFinish(i, a) => self.join_finish(i, a, params),
            ModelEvent::Fail(i) => self.fail(i),
            ModelEvent::Leave(i) => self.leave(i, params),
            ModelEvent::Stabilize(i) => self.stabilize(i, params),
        }
    }

    /// Every enabled transition from this state, node by node.
    pub fn transitions(&self, params: &ModelParams) -> Vec<(ModelEvent, ModelState)> {
        let n = self.n() as u8;
        (0..n)
            .flat_map(|i| {
                let finishes = (0..n).map(move |a| ModelEvent::JoinFinish(i, a));
                let live = [ModelEvent::Stabilize(i), ModelEvent::Fail(i), ModelEvent::Leave(i)];
                [ModelEvent::JoinStart(i)].into_iter().chain(finishes).chain(live)
            })
            .filter(|&ev| self.enabled(ev, params))
            .map(|ev| {
                let mut st = self.clone();
                st.step(ev, params);
                (ev, st)
            })
            .collect()
    }

    /// Applies one event if it is enabled in this state, returning
    /// whether anything happened; a disabled event leaves the state
    /// untouched — the public driver for scripted traces and property
    /// tests.
    pub fn apply(&mut self, ev: ModelEvent, params: &ModelParams) -> bool {
        let enabled = self.enabled(ev, params);
        if enabled {
            self.step(ev, params);
        }
        enabled
    }

    /// Global snapshot for the invariant checker. Slot indices map
    /// directly to `u128` identifiers (order-preserving, so circular
    /// distances agree).
    pub fn stances(&self) -> Vec<RingStance> {
        self.nodes
            .iter()
            .enumerate()
            .filter(|(_, m)| matches!(m.status, Status::Active | Status::Joining))
            .map(|(i, m)| RingStance {
                id: i as u128,
                joined: m.status == Status::Active,
                successors: m.succs.iter().map(|&x| x as u128).collect(),
                predecessors: match m.pred {
                    Some(p) => vec![p as u128],
                    None => m.preds.iter().map(|&x| x as u128).collect(),
                },
            })
            .collect()
    }

    /// Evaluates the inductive invariant on this state.
    pub fn check(&self) -> RingReport {
        check_ring(&self.stances())
    }

    /// Canonical serialization under identifier rotation.
    fn canonical(&self) -> Vec<u8> {
        let n = self.n();
        let mut best: Option<Vec<u8>> = None;
        for k in 0..n {
            let mut buf = Vec::with_capacity(n * 8);
            for j in 0..n {
                // The node occupying slot j after rotating ids by +k sat
                // at slot (j - k) mod n before.
                let m = &self.nodes[(j + n - k) % n];
                let rot = |x: u8| ((x as usize + k) % n) as u8;
                buf.push(match m.status {
                    Status::Unborn => 0,
                    Status::Joining => 1,
                    Status::Active => 2,
                    Status::Dead => 3,
                });
                buf.push(m.seeded as u8);
                buf.push(m.pred.map(|p| rot(p) + 1).unwrap_or(0));
                buf.push(m.preds.len() as u8);
                buf.extend(m.preds.iter().map(|&x| rot(x)));
                buf.push(m.succs.len() as u8);
                buf.extend(m.succs.iter().map(|&x| rot(x)));
            }
            if best.as_ref().is_none_or(|b| buf < *b) {
                best = Some(buf);
            }
        }
        best.expect("at least one rotation")
    }

    /// Runs deterministic maintenance rounds (finish pending joins via
    /// the lowest claimant, then stabilize every live node in slot
    /// order) until a fixpoint, and checks the fixpoint is the ideal
    /// ring over the surviving nodes.
    pub fn converges(&self, params: &ModelParams) -> Result<(), String> {
        let mut st = self.clone();
        let n = st.n();
        for _ in 0..(4 * n + 8) {
            let prev = st.clone();
            for i in 0..n as u8 {
                if st.nodes[i as usize].status == Status::Joining {
                    if let Some(&a) = st.claimants(i).first() {
                        st.join_finish(i, a, params);
                    }
                }
            }
            for i in 0..n as u8 {
                if st.active(i) {
                    st.stabilize(i, params);
                }
            }
            if st == prev {
                return st.is_ideal(params);
            }
        }
        Err("no fixpoint within the round budget".into())
    }

    fn is_ideal(&self, params: &ModelParams) -> Result<(), String> {
        for i in self.actives() {
            let node = &self.nodes[i as usize];
            let (succs, pred, preds) = self.ideal_pointers(i, params);
            if node.succs != succs {
                return Err(format!("node {i}: successors {:?}, ideal {succs:?}", node.succs));
            }
            if node.pred != pred {
                return Err(format!("node {i}: predecessor {:?}, ideal {pred:?}", node.pred));
            }
            if node.preds != preds {
                return Err(format!("node {i}: predecessors {:?}, ideal {preds:?}", node.preds));
            }
        }
        Ok(())
    }
}

/// Exhaustively enumerates every reachable state under `params`,
/// checking the invariant (and optionally convergence) at each one.
pub fn explore(params: &ModelParams) -> ModelOutcome {
    let mut out = ModelOutcome::default();
    let initial = ModelState::initial(params);
    let mut seen: HashSet<Vec<u8>> = HashSet::new();
    seen.insert(initial.canonical());
    let mut queue: VecDeque<ModelState> = VecDeque::new();
    queue.push_back(initial);
    out.states = 1;
    while let Some(st) = queue.pop_front() {
        if seen.len() >= params.max_states {
            out.truncated = true;
            break;
        }
        for (ev, next) in st.transitions(params) {
            out.transitions += 1;
            if !seen.insert(next.canonical()) {
                continue;
            }
            out.states += 1;
            let report = next.check();
            if !report.ok() {
                out.violation_states += 1;
                if out.samples.len() < 8 {
                    out.samples.push((ev, report.violations[0].clone()));
                }
            }
            if params.check_convergence && next.converges(params).is_err() {
                out.convergence_failures += 1;
            }
            queue.push_back(next);
        }
    }
    out
}

/// Like [`explore`], but tracks paths and returns the first invariant
/// violation found together with the event trace reaching it — the
/// diagnostic companion to the yes/no answer of [`explore`].
pub fn explore_trace(params: &ModelParams) -> Option<(Vec<ModelEvent>, ModelState, Violation)> {
    let initial = ModelState::initial(params);
    let mut seen: HashSet<Vec<u8>> = HashSet::new();
    seen.insert(initial.canonical());
    let mut queue: VecDeque<(ModelState, Vec<ModelEvent>)> = VecDeque::new();
    queue.push_back((initial, Vec::new()));
    while let Some((st, path)) = queue.pop_front() {
        if seen.len() >= params.max_states {
            return None;
        }
        for (ev, next) in st.transitions(params) {
            if !seen.insert(next.canonical()) {
                continue;
            }
            let mut next_path = path.clone();
            next_path.push(ev);
            let report = next.check();
            if let Some(v) = report.violations.first() {
                return Some((next_path, next, v.clone()));
            }
            queue.push_back((next, next_path));
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::super::ViolationKind;
    use super::*;
    use ModelEvent::{Fail, JoinFinish, JoinStart, Leave, Stabilize};

    fn params(variant: Variant, mode: MaintenanceMode) -> ModelParams {
        ModelParams {
            slots: 4,
            list_len: 2,
            variant,
            mode,
            guard_redundancy: true,
            finger_oracle: true,
            max_fails: 4,
            allow_leaves: false,
            max_states: 200_000,
            check_convergence: false,
        }
    }

    #[test]
    fn ring_of_two_forms_and_converges() {
        let p = params(Variant::Chord, MaintenanceMode::Corrected);
        let mut st = ModelState::initial(&p);
        st.nodes[2].status = Status::Joining;
        st.join_finish(2, 0, &p);
        assert!(st.converges(&p).is_ok(), "{:?}", st.converges(&p));
    }

    #[test]
    fn corrected_small_ring_is_safe() {
        for variant in [Variant::Chord, Variant::Section] {
            let p = params(variant, MaintenanceMode::Corrected);
            let out = explore(&p);
            assert!(!out.truncated);
            assert_eq!(out.violation_states, 0, "{variant:?}: {:?}", out.samples);
        }
    }

    /// The scripted double-wedge trace: a converged 8-ring loses two
    /// whole arcs at once ({2,3} and {6,7}, each spanning a full
    /// successor list, fingers dead too). Nodes 1 and 5 prune to empty;
    /// the stabilizations of 0 and 4 then notify them. Under legacy
    /// rules each notify refills *backwards*, closing the two disjoint
    /// 2-cycles {0,1} and {4,5} — a partitioned ring.
    fn wedge_trace(mode: MaintenanceMode) -> (ModelParams, ModelState) {
        let p = ModelParams {
            slots: 8,
            guard_redundancy: false,
            finger_oracle: false,
            ..params(Variant::Chord, mode)
        };
        let mut st = ModelState::ideal(&p, &[0, 1, 2, 3, 4, 5, 6, 7]);
        let script = [
            ModelEvent::Fail(2),
            ModelEvent::Fail(3),
            ModelEvent::Fail(6),
            ModelEvent::Fail(7),
            ModelEvent::Stabilize(1), // List [2, 3] prunes to empty: wedged.
            ModelEvent::Stabilize(5), // List [6, 7] prunes to empty: wedged.
            ModelEvent::Stabilize(0), // 0 keeps s1 = 1 and notifies it.
            ModelEvent::Stabilize(4), // 4 keeps s1 = 5 and notifies it.
        ];
        for ev in script {
            assert!(st.apply(ev, &p), "{ev:?} must be enabled");
        }
        (p, st)
    }

    #[test]
    fn legacy_double_refill_partitions_the_ring() {
        let (_, st) = wedge_trace(MaintenanceMode::Legacy);
        let report = st.check();
        assert!(
            report.violations.iter().any(|v| v.kind == ViolationKind::MultipleRings),
            "expected a multiple-rings violation, got {report:?}"
        );
    }

    #[test]
    fn corrected_wedges_safely_on_the_same_trace() {
        let (_, st) = wedge_trace(MaintenanceMode::Corrected);
        let report = st.check();
        assert!(report.ok(), "corrected arm violated: {:?}", report.violations);
        assert_eq!(report.wedged, 2, "nodes 1 and 5 should be wedged, not wrong");
    }

    #[test]
    fn corrected_stays_safe_even_unguarded() {
        let p = ModelParams {
            guard_redundancy: false,
            finger_oracle: false,
            ..params(Variant::Chord, MaintenanceMode::Corrected)
        };
        let out = explore(&p);
        assert!(!out.truncated);
        assert_eq!(out.violation_states, 0, "{:?}", out.samples);
    }

    #[test]
    fn corrected_small_ring_is_safe_with_leaves() {
        for variant in [Variant::Chord, Variant::Section] {
            let p =
                ModelParams { allow_leaves: true, ..params(variant, MaintenanceMode::Corrected) };
            let out = explore(&p);
            assert!(!out.truncated);
            assert_eq!(out.violation_states, 0, "{variant:?}: {:?}", out.samples);
        }
    }

    #[test]
    fn leave_hands_lists_over_and_dies() {
        let p = ModelParams {
            allow_leaves: true,
            ..params(Variant::Chord, MaintenanceMode::Corrected)
        };
        let mut st = ModelState::ideal(&p, &[0, 1, 2, 3]);
        assert!(st.apply(ModelEvent::Leave(1), &p), "leave must be enabled on an ideal ring");
        assert_eq!(st.nodes[1].status, Status::Dead);
        // Node 0 (the leaver's predecessor) learned 1's successors and no
        // longer points at 1.
        assert!(!st.nodes[0].succs.contains(&1));
        assert_eq!(st.nodes[0].succs.first(), Some(&2), "handoff skipped the ring ahead");
        // Node 2 (the leaver's successor) adopted the advertised
        // predecessor 0 via the notify that rides the farewell.
        assert_eq!(st.nodes[2].pred, Some(0));
        assert!(st.check().ok(), "{:?}", st.check().violations);
        assert!(st.converges(&p).is_ok(), "{:?}", st.converges(&p));
    }

    #[test]
    fn leave_is_guarded() {
        let p = ModelParams {
            allow_leaves: true,
            ..params(Variant::Chord, MaintenanceMode::Corrected)
        };
        // A singleton may not leave (the ring would be empty)…
        let mut st = ModelState::initial(&p);
        assert!(!st.apply(ModelEvent::Leave(0), &p));
        // …a joining node sends no farewell…
        st.nodes[1].status = Status::Joining;
        assert!(!st.apply(ModelEvent::Leave(1), &p));
        // …and with leaves disabled the event is never enabled.
        let p_off = ModelParams { allow_leaves: false, ..p.clone() };
        let mut ideal = ModelState::ideal(&p_off, &[0, 1, 2, 3]);
        assert!(!ideal.apply(ModelEvent::Leave(1), &p_off));
        assert!(
            ideal.transitions(&p_off).iter().all(|(ev, _)| !matches!(ev, ModelEvent::Leave(_))),
            "leaves-off must preserve the PR-8 transition set"
        );
    }

    #[test]
    fn leaves_off_state_space_matches_pr8() {
        // The allow_leaves=false enumeration must be exactly the old one.
        let p_off = params(Variant::Chord, MaintenanceMode::Corrected);
        let p_on = ModelParams { allow_leaves: true, ..p_off.clone() };
        let off = explore(&p_off);
        let on = explore(&p_on);
        assert!(on.states >= off.states, "leaves can only add reachable states");
        assert_eq!(on.violation_states, 0, "{:?}", on.samples);
    }

    /// Replays `trace` from the initial state under `ring_check --full`'s
    /// proof parameters (every event must be enabled) and returns the
    /// violations of the state it ends in.
    fn replay_full_proof(variant: Variant, trace: &[ModelEvent]) -> Vec<Violation> {
        let p = ModelParams {
            slots: 6,
            max_fails: 4,
            allow_leaves: true,
            ..params(variant, MaintenanceMode::Corrected)
        };
        let mut st = ModelState::initial(&p);
        for &ev in trace {
            assert!(st.apply(ev, &p), "{ev:?} must be enabled");
        }
        st.check().violations
    }

    const DISORDERED_AT_2: Violation = Violation { kind: ViolationKind::DisorderedRing, node: 2 };

    // The two traces `ring_check --full` has printed as its first
    // counter-examples since PR 10 added `Leave` (tracked whole in
    // `results/ring_check_full.txt`). They pin the open failure, not a
    // wanted behaviour: the PR that fixes the protocol — or the guard that
    // should have excluded these universes — flips both to `is_empty()`.

    #[test]
    fn open_failure_six_slot_chord_trace_ends_in_a_disordered_ring() {
        let trace = [
            JoinStart(1),
            JoinFinish(1, 0),
            JoinStart(2),
            JoinFinish(2, 1),
            Stabilize(2),
            JoinStart(3),
            JoinFinish(3, 1),
            Stabilize(1),
            JoinStart(4),
            JoinFinish(4, 2),
            Stabilize(2),
            JoinStart(5),
            JoinFinish(5, 4),
            Stabilize(3),
            Fail(0),
            Stabilize(4),
            Leave(1),
            Stabilize(5),
        ];
        assert_eq!(replay_full_proof(Variant::Chord, &trace), [DISORDERED_AT_2]);
    }

    #[test]
    fn open_failure_six_slot_section_trace_ends_in_a_disordered_ring() {
        let trace = [
            JoinStart(1),
            JoinFinish(1, 0),
            JoinStart(2),
            JoinFinish(2, 1),
            Stabilize(2),
            JoinStart(3),
            JoinFinish(3, 1),
            Stabilize(1),
            Leave(0),
            JoinStart(4),
            JoinStart(5),
            JoinFinish(5, 3),
            Stabilize(2),
            Leave(1),
            JoinFinish(4, 3),
            Stabilize(4),
        ];
        assert_eq!(replay_full_proof(Variant::Section, &trace), [DISORDERED_AT_2]);
    }

    #[test]
    fn rotation_canonicalization_identifies_rotated_states() {
        let p = params(Variant::Chord, MaintenanceMode::Corrected);
        let mut a = ModelState::initial(&p);
        a.nodes[1].status = Status::Joining;
        let mut b = ModelState::initial(&p);
        b.nodes[0] = MNode::unborn();
        b.nodes[2].status = Status::Active;
        b.nodes[3].status = Status::Joining;
        assert_eq!(a.canonical(), b.canonical());
    }
}
