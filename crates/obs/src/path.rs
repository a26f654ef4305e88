//! Lookup-path records assembled from trace events.
//!
//! A [`PathCollector`] listens to the trace stream (install it with
//! [`Runtime::set_tracer`](verme_sim::Runtime::set_tracer), usually
//! [`tee`](verme_sim::tee)d with a flight recorder) and folds the
//! protocol-level lookup events — `LookupStart`, `LookupHop`, `Reroute`,
//! `LookupEnd` — into one [`LookupPath`] per lookup: the ordered hop list
//! with per-hop node types, sections and timing. The invariant checkers in
//! [`crate::invariant`] run over these records.

use std::cell::RefCell;
use std::collections::HashMap;
use std::rc::Rc;

use verme_sim::trace::{CauseId, ProtoEvent, TraceEvent, TraceKind, Tracer};
use verme_sim::{Addr, SimDuration, SimTime};

/// One routing hop of a recorded lookup.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct HopRecord {
    /// When the forwarding node dispatched to this hop.
    pub at: SimTime,
    /// The hop's address.
    pub to: Addr,
    /// The hop's overlay identifier.
    pub to_id: u128,
    /// Zero-based hop index as reported by the protocol.
    pub hop: u32,
    /// The forwarding node's type, if the overlay has types.
    pub from_type: Option<u8>,
    /// This hop's type, if the overlay has types.
    pub to_type: Option<u8>,
    /// The forwarding node's section, if the overlay has sections.
    pub from_section: Option<u128>,
    /// This hop's section, if the overlay has sections.
    pub to_section: Option<u128>,
    /// True if this hop was dispatched by a timeout reroute rather than
    /// normal forward progress.
    pub after_reroute: bool,
}

/// The assembled record of one lookup.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct LookupPath {
    /// The causal span the lookup ran under.
    pub cause: Option<CauseId>,
    /// Initiator-local lookup id.
    pub op: u64,
    /// The key being resolved.
    pub key: u128,
    /// The initiator's overlay identifier.
    pub origin_id: u128,
    /// Lookup kind label (`"app"`, `"finger"`, ...).
    pub kind: &'static str,
    /// When the lookup began.
    pub started_at: SimTime,
    /// Hops in dispatch order.
    pub hops: Vec<HopRecord>,
    /// Number of timeout reroutes observed.
    pub reroutes: u32,
    /// When the lookup ended, if it did.
    pub ended_at: Option<SimTime>,
    /// Whether it produced an answer (`None` while still open).
    pub ok: Option<bool>,
    /// Hop count reported by the protocol at completion.
    pub reported_hops: Option<u32>,
}

impl LookupPath {
    /// True once a `LookupEnd` was observed.
    pub fn finished(&self) -> bool {
        self.ok.is_some()
    }

    /// Per-hop dispatch intervals: `rtts()[i]` is the time between
    /// dispatching hop `i` and the previous dispatch (or the lookup start
    /// for the first hop) — the round-trip the lookup spent on that leg.
    pub fn rtts(&self) -> Vec<SimDuration> {
        let mut prev = self.started_at;
        self.hops
            .iter()
            .map(|h| {
                let dt = h.at.saturating_since(prev);
                prev = h.at;
                dt
            })
            .collect()
    }

    /// Total wall-clock the lookup took, if it finished.
    pub fn latency(&self) -> Option<SimDuration> {
        self.ended_at.map(|end| end.saturating_since(self.started_at))
    }
}

#[derive(Default)]
struct State {
    open: HashMap<(Option<CauseId>, u64), LookupPath>,
    finished: Vec<LookupPath>,
    /// Keys that saw a `Reroute` since the last hop, so the next hop is
    /// flagged `after_reroute`.
    rerouted: HashMap<(Option<CauseId>, u64), u32>,
    /// Events that referenced a lookup never seen starting (e.g. it began
    /// before the tracer was installed).
    orphans: u64,
}

/// Folds the trace stream into [`LookupPath`] records.
///
/// Cheaply cloneable handle; all clones share one collection. Lookups are
/// keyed by `(cause, op)`, so initiator-local ids may repeat across nodes
/// as long as causes differ (which they do — every root operation has its
/// own span).
#[derive(Clone, Default)]
pub struct PathCollector {
    inner: Rc<RefCell<State>>,
}

impl PathCollector {
    /// Creates an empty collector.
    pub fn new() -> Self {
        Self::default()
    }

    /// Feeds one event. Non-lookup events are ignored.
    pub fn observe(&self, ev: &TraceEvent) {
        let TraceKind::Proto { node: _, ref event } = ev.kind else {
            return;
        };
        let mut st = self.inner.borrow_mut();
        match *event {
            ProtoEvent::LookupStart { op, key, origin_id, kind } => {
                st.open.insert(
                    (ev.cause, op),
                    LookupPath {
                        cause: ev.cause,
                        op,
                        key,
                        origin_id,
                        kind,
                        started_at: ev.at,
                        hops: Vec::new(),
                        reroutes: 0,
                        ended_at: None,
                        ok: None,
                        reported_hops: None,
                    },
                );
            }
            ProtoEvent::LookupHop {
                op,
                to,
                to_id,
                hop,
                from_type,
                to_type,
                from_section,
                to_section,
            } => {
                let key = (ev.cause, op);
                let after_reroute = st.rerouted.remove(&key).is_some();
                match st.open.get_mut(&key) {
                    Some(path) => path.hops.push(HopRecord {
                        at: ev.at,
                        to,
                        to_id,
                        hop,
                        from_type,
                        to_type,
                        from_section,
                        to_section,
                        after_reroute,
                    }),
                    None => st.orphans += 1,
                }
            }
            ProtoEvent::Reroute { op, to: _ } => {
                let key = (ev.cause, op);
                match st.open.get_mut(&key) {
                    Some(path) => {
                        path.reroutes += 1;
                        *st.rerouted.entry(key).or_insert(0) += 1;
                    }
                    None => st.orphans += 1,
                }
            }
            ProtoEvent::LookupEnd { op, ok, hops } => {
                let key = (ev.cause, op);
                st.rerouted.remove(&key);
                match st.open.remove(&key) {
                    Some(mut path) => {
                        path.ended_at = Some(ev.at);
                        path.ok = Some(ok);
                        path.reported_hops = Some(hops);
                        st.finished.push(path);
                    }
                    None => st.orphans += 1,
                }
            }
            _ => {}
        }
    }

    /// A [`Tracer`] feeding this collector.
    pub fn tracer(&self) -> Tracer {
        let handle = self.clone();
        Box::new(move |ev| handle.observe(ev))
    }

    /// Finished lookups, in completion order.
    pub fn finished(&self) -> Vec<LookupPath> {
        self.inner.borrow().finished.clone()
    }

    /// Lookups that started but have not ended yet.
    pub fn open_count(&self) -> usize {
        self.inner.borrow().open.len()
    }

    /// Events that referenced a lookup whose start was never observed.
    pub fn orphan_events(&self) -> u64 {
        self.inner.borrow().orphans
    }
}

impl std::fmt::Debug for PathCollector {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let st = self.inner.borrow();
        f.debug_struct("PathCollector")
            .field("open", &st.open.len())
            .field("finished", &st.finished.len())
            .field("orphans", &st.orphans)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn proto(at_ms: u64, cause: u64, event: ProtoEvent) -> TraceEvent {
        TraceEvent {
            at: SimTime::ZERO + SimDuration::from_millis(at_ms),
            cause: Some(cause),
            kind: TraceKind::Proto { node: Addr::from_raw(1), event },
        }
    }

    fn hop(op: u64, n: u32, to_id: u128) -> ProtoEvent {
        ProtoEvent::LookupHop {
            op,
            to: Addr::from_raw(100 + n as u64),
            to_id,
            hop: n,
            from_type: Some((n % 2) as u8),
            to_type: Some(((n + 1) % 2) as u8),
            from_section: Some(7),
            to_section: Some(8),
        }
    }

    #[test]
    fn assembles_a_full_path() {
        let pc = PathCollector::new();
        let mut t = pc.tracer();
        t(&proto(0, 5, ProtoEvent::LookupStart { op: 9, key: 42, origin_id: 1000, kind: "app" }));
        t(&proto(10, 5, hop(9, 0, 500)));
        t(&proto(25, 5, hop(9, 1, 450)));
        t(&proto(40, 5, ProtoEvent::LookupEnd { op: 9, ok: true, hops: 2 }));

        assert_eq!(pc.open_count(), 0);
        let done = pc.finished();
        assert_eq!(done.len(), 1);
        let p = &done[0];
        assert_eq!((p.cause, p.op, p.key, p.kind), (Some(5), 9, 42, "app"));
        assert_eq!(p.hops.len(), 2);
        assert_eq!(p.reported_hops, Some(2));
        assert_eq!(p.ok, Some(true));
        assert_eq!(p.rtts(), vec![SimDuration::from_millis(10), SimDuration::from_millis(15)]);
        assert_eq!(p.latency(), Some(SimDuration::from_millis(40)));
        assert_eq!(pc.orphan_events(), 0);
    }

    #[test]
    fn reroutes_flag_the_following_hop() {
        let pc = PathCollector::new();
        pc.observe(&proto(
            0,
            1,
            ProtoEvent::LookupStart { op: 1, key: 5, origin_id: 9, kind: "app" },
        ));
        pc.observe(&proto(1, 1, hop(1, 0, 800)));
        pc.observe(&proto(2, 1, ProtoEvent::Reroute { op: 1, to: Addr::from_raw(7) }));
        pc.observe(&proto(3, 1, hop(1, 1, 700)));
        pc.observe(&proto(4, 1, hop(1, 2, 600)));
        pc.observe(&proto(5, 1, ProtoEvent::LookupEnd { op: 1, ok: true, hops: 3 }));
        let p = &pc.finished()[0];
        assert_eq!(p.reroutes, 1);
        assert_eq!(
            p.hops.iter().map(|h| h.after_reroute).collect::<Vec<_>>(),
            vec![false, true, false]
        );
    }

    #[test]
    fn same_op_under_different_causes_stays_separate() {
        let pc = PathCollector::new();
        for cause in [1, 2] {
            pc.observe(&proto(
                0,
                cause,
                ProtoEvent::LookupStart { op: 3, key: cause as u128, origin_id: 0, kind: "x" },
            ));
        }
        assert_eq!(pc.open_count(), 2);
        pc.observe(&proto(9, 2, ProtoEvent::LookupEnd { op: 3, ok: false, hops: 0 }));
        let done = pc.finished();
        assert_eq!(done.len(), 1);
        assert_eq!(done[0].key, 2);
        assert_eq!(pc.open_count(), 1);
    }

    #[test]
    fn orphan_events_are_counted_not_lost() {
        let pc = PathCollector::new();
        pc.observe(&proto(1, 1, hop(77, 0, 1)));
        pc.observe(&proto(2, 1, ProtoEvent::LookupEnd { op: 77, ok: true, hops: 1 }));
        assert_eq!(pc.orphan_events(), 2);
        assert!(pc.finished().is_empty());
    }
}
