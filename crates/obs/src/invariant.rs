//! Routing invariants checked over recorded lookup paths.
//!
//! Two protocol invariants from the paper are mechanically checkable from
//! a [`LookupPath`]:
//!
//! * **Chord: monotone clockwise progress.** Every greedy hop strictly
//!   decreases the clockwise distance to the key. The only tolerated
//!   exception is the hop immediately following a timeout [`Reroute`]
//!   (`ProtoEvent::Reroute`): the fallback candidate comes from an older
//!   answer and may sit behind the dead hop, so it is held to the weaker
//!   bound of still being closer than the initiator.
//! * **Verme: opposite-type fingers.** Long-distance (cross-section) hops
//!   must connect nodes of *opposite* types — the §3 property the §4.4
//!   finger rule guarantees, which makes a single-type worm unable to
//!   cross sections. Intra-section
//!   hops (successor steps) are exempt.
//!
//! A third check ties the trace back to the metrics pipeline: in a
//! fault-free run, the recorded per-lookup hop counts must agree with the
//! protocol's own hop histogram.
//!
//! [`Reroute`]: verme_sim::ProtoEvent::Reroute

use verme_sim::metrics::Histogram;
use verme_sim::trace::CauseId;

use crate::path::LookupPath;

/// One invariant violation, pinned to a lookup and hop.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Violation {
    /// The offending lookup's causal span.
    pub cause: Option<CauseId>,
    /// The offending lookup's id.
    pub op: u64,
    /// The hop index at fault (protocol-reported).
    pub hop: u32,
    /// Human-readable description.
    pub detail: String,
}

impl std::fmt::Display for Violation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "op {} (cause {:?}) hop {}: {}", self.op, self.cause, self.hop, self.detail)
    }
}

/// Clockwise distance from `id` to `key` on the 2^128 ring.
fn clockwise(id: u128, key: u128) -> u128 {
    key.wrapping_sub(id)
}

/// Checks monotone clockwise progress on Chord-style greedy paths.
///
/// Returns every violation found (empty = all paths pass).
pub fn check_chord_monotone(paths: &[LookupPath]) -> Vec<Violation> {
    let mut out = Vec::new();
    for p in paths {
        let origin_dist = clockwise(p.origin_id, p.key);
        let mut prev_dist = origin_dist;
        for h in &p.hops {
            let d = clockwise(h.to_id, p.key);
            let ok = if h.after_reroute {
                // Fallback candidates may regress past the dead hop, but a
                // correct reroute never leaves the initiator's own arc.
                d < origin_dist
            } else {
                d < prev_dist
            };
            if !ok {
                out.push(Violation {
                    cause: p.cause,
                    op: p.op,
                    hop: h.hop,
                    detail: format!(
                        "clockwise distance went {prev_dist} -> {d} (origin {origin_dist}, \
                         after_reroute={})",
                        h.after_reroute
                    ),
                });
            }
            prev_dist = d;
        }
    }
    out
}

/// Checks the Verme opposite-type rule on cross-section hops.
///
/// Hops missing type or section tags (e.g. Chord paths fed in by mistake)
/// are reported as violations rather than silently skipped.
pub fn check_verme_opposite_types(paths: &[LookupPath]) -> Vec<Violation> {
    let mut out = Vec::new();
    for p in paths {
        for h in &p.hops {
            let (Some(fs), Some(ts)) = (h.from_section, h.to_section) else {
                out.push(Violation {
                    cause: p.cause,
                    op: p.op,
                    hop: h.hop,
                    detail: "hop carries no section tags; not a Verme path".into(),
                });
                continue;
            };
            if fs == ts {
                continue; // intra-section successor step
            }
            match (h.from_type, h.to_type) {
                (Some(ft), Some(tt)) if ft != tt => {}
                (Some(ft), Some(tt)) => out.push(Violation {
                    cause: p.cause,
                    op: p.op,
                    hop: h.hop,
                    detail: format!(
                        "cross-section hop {fs:x} -> {ts:x} connects same-type nodes \
                         ({ft} -> {tt})"
                    ),
                }),
                _ => out.push(Violation {
                    cause: p.cause,
                    op: p.op,
                    hop: h.hop,
                    detail: "cross-section hop carries no type tags".into(),
                }),
            }
        }
    }
    out
}

/// Checks that recorded paths agree with the protocol's hop histogram.
///
/// `paths` should be exactly the finished lookups of the kinds the
/// protocol records into `hist` (e.g. `"app"` lookups for
/// `chord.lookup.hops`), from a **fault-free** run — with failures, the
/// trace counts attempted hops while the histogram records confirmed ones.
///
/// # Errors
///
/// Describes the first mismatch found: trace-vs-protocol hop count on an
/// individual lookup, sample-count disagreement, or total-hops
/// disagreement.
pub fn check_hop_agreement(paths: &[LookupPath], hist: &Histogram) -> Result<(), String> {
    for p in paths {
        let observed = p.hops.len() as u32;
        let reported = p.reported_hops.unwrap_or(0);
        if observed != reported {
            return Err(format!(
                "op {} (cause {:?}): trace observed {observed} hops but protocol reported \
                 {reported}",
                p.op, p.cause
            ));
        }
    }
    if paths.len() != hist.count() {
        return Err(format!(
            "trace finished {} lookups but histogram holds {} samples",
            paths.len(),
            hist.count()
        ));
    }
    let trace_total: u64 = paths.iter().map(|p| p.hops.len() as u64).sum();
    let hist_total = (hist.mean() * hist.count() as f64).round() as u64;
    if trace_total != hist_total {
        return Err(format!("trace total {trace_total} hops but histogram total {hist_total}"));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::path::HopRecord;
    use verme_sim::{Addr, SimTime};

    fn hop_to(id: u128, hop: u32, after_reroute: bool) -> HopRecord {
        HopRecord {
            at: SimTime::ZERO,
            to: Addr::from_raw(1),
            to_id: id,
            hop,
            from_type: None,
            to_type: None,
            from_section: None,
            to_section: None,
            after_reroute,
        }
    }

    fn path(origin_id: u128, key: u128, hops: Vec<HopRecord>) -> LookupPath {
        let n = hops.len() as u32;
        LookupPath {
            cause: Some(1),
            op: 1,
            key,
            origin_id,
            kind: "app",
            started_at: SimTime::ZERO,
            hops,
            reroutes: 0,
            ended_at: Some(SimTime::ZERO),
            ok: Some(true),
            reported_hops: Some(n),
        }
    }

    #[test]
    fn monotone_progress_passes() {
        let p = path(0, 100, vec![hop_to(40, 0, false), hop_to(90, 1, false)]);
        assert!(check_chord_monotone(&[p]).is_empty());
    }

    #[test]
    fn regression_is_flagged() {
        let p = path(0, 100, vec![hop_to(90, 0, false), hop_to(40, 1, false)]);
        let v = check_chord_monotone(&[p]);
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].hop, 1);
        assert!(v[0].detail.contains("clockwise distance"));
    }

    #[test]
    fn wraparound_distances_are_handled() {
        // Key just past zero, origin just before: distance wraps correctly.
        let key = 10u128;
        let origin = u128::MAX - 5;
        let p = path(origin, key, vec![hop_to(2, 0, false), hop_to(8, 1, false)]);
        assert!(check_chord_monotone(&[p]).is_empty());
    }

    #[test]
    fn reroute_hop_gets_the_weak_bound_only() {
        // Hop 1 regresses behind hop 0 but stays inside the origin arc:
        // allowed after a reroute, flagged otherwise.
        let hops = |rerouted| vec![hop_to(80, 0, false), hop_to(50, 1, rerouted)];
        assert!(check_chord_monotone(&[path(0, 100, hops(true))]).is_empty());
        assert_eq!(check_chord_monotone(&[path(0, 100, hops(false))]).len(), 1);
        // Even after a reroute, leaving the origin arc is a violation.
        let p = path(0, 100, vec![hop_to(80, 0, false), hop_to(150, 1, true)]);
        assert_eq!(check_chord_monotone(&[p]).len(), 1);
    }

    fn verme_hop(hop: u32, fs: u128, ts: u128, ft: u8, tt: u8) -> HopRecord {
        HopRecord {
            from_type: Some(ft),
            to_type: Some(tt),
            from_section: Some(fs),
            to_section: Some(ts),
            ..hop_to(0, hop, false)
        }
    }

    #[test]
    fn opposite_type_rule_checks_cross_section_hops_only() {
        let good = path(
            0,
            1,
            vec![
                verme_hop(0, 3, 3, 1, 1), // intra-section, same type: fine
                verme_hop(1, 3, 9, 1, 0), // cross-section, opposite: fine
            ],
        );
        assert!(check_verme_opposite_types(&[good]).is_empty());

        let bad = path(0, 1, vec![verme_hop(0, 3, 9, 1, 1)]);
        let v = check_verme_opposite_types(&[bad]);
        assert_eq!(v.len(), 1);
        assert!(v[0].detail.contains("same-type"));
    }

    #[test]
    fn untagged_hops_are_violations_not_skips() {
        let p = path(0, 1, vec![hop_to(5, 0, false)]);
        assert_eq!(check_verme_opposite_types(&[p]).len(), 1);
    }

    #[test]
    fn hop_agreement_matches_histogram() {
        let paths = vec![
            path(0, 100, vec![hop_to(40, 0, false), hop_to(90, 1, false)]),
            path(0, 100, vec![hop_to(90, 0, false)]),
        ];
        let mut hist = Histogram::new();
        hist.record(2.0);
        hist.record(1.0);
        assert_eq!(check_hop_agreement(&paths, &hist), Ok(()));

        hist.record(5.0);
        let err = check_hop_agreement(&paths, &hist).unwrap_err();
        assert!(err.contains("histogram holds 3 samples"), "{err}");
    }

    #[test]
    fn hop_agreement_catches_trace_protocol_divergence() {
        let mut p = path(0, 100, vec![hop_to(40, 0, false)]);
        p.reported_hops = Some(9);
        let mut hist = Histogram::new();
        hist.record(1.0);
        let err = check_hop_agreement(&[p], &hist).unwrap_err();
        assert!(err.contains("protocol reported 9"), "{err}");
    }
}
