//! Perf-regression gates: baseline floors for the `perf_check` CI bin.
//!
//! The checked-in `crates/bench/baselines.json` records a
//! *floor* on events/s and a *ceiling* on the unattributed wall-time
//! fraction for each gated workload. Floors are deliberately generous
//! (≥ 2× slack against a local measurement) so the gate catches
//! catastrophic regressions — an accidental `O(n²)`, a debug-build
//! artifact in the hot loop, profiling left permanently on — without
//! flaking on slower CI machines. The comparison logic lives here, in
//! library code, so a unit test can prove the gate actually fails on an
//! injected 10× slowdown.

use verme_obs::Json;

/// One gated workload's floors, as read from `baselines.json`.
#[derive(Clone, Debug, PartialEq)]
pub struct PerfBaseline {
    /// Workload name (matches [`PerfMeasurement::name`]).
    pub name: String,
    /// Hard floor on processed events per wall-clock second.
    pub min_events_per_sec: f64,
    /// Ceiling on the unattributed fraction of wall time (1 − attributed),
    /// if the workload runs with the span profiler on.
    pub max_unattributed_frac: Option<f64>,
}

/// One measured workload, to be checked against its baseline.
#[derive(Clone, Debug)]
pub struct PerfMeasurement {
    /// Workload name.
    pub name: String,
    /// Measured events per wall-clock second.
    pub events_per_sec: f64,
    /// Measured unattributed wall-time fraction, if profiled.
    pub unattributed_frac: Option<f64>,
}

/// Parses `baselines.json`:
/// `{"baselines": [{"name": ..., "min_events_per_sec": ...,
/// "max_unattributed_frac": ...}, ...]}`.
pub fn parse_baselines(raw: &str) -> Result<Vec<PerfBaseline>, String> {
    let doc = verme_obs::parse(raw).map_err(|e| format!("invalid baselines JSON: {e:?}"))?;
    let list = doc
        .get("baselines")
        .and_then(Json::as_array)
        .ok_or_else(|| "missing \"baselines\" array".to_string())?;
    let mut out = Vec::with_capacity(list.len());
    for (i, b) in list.iter().enumerate() {
        let name = b
            .get("name")
            .and_then(Json::as_str)
            .ok_or_else(|| format!("baseline #{i}: missing \"name\""))?
            .to_string();
        let min_events_per_sec = b
            .get("min_events_per_sec")
            .and_then(Json::as_f64)
            .ok_or_else(|| format!("baseline {name:?}: missing \"min_events_per_sec\""))?;
        if !min_events_per_sec.is_finite() || min_events_per_sec <= 0.0 {
            return Err(format!("baseline {name:?}: floor must be positive"));
        }
        let max_unattributed_frac = match b.get("max_unattributed_frac") {
            None | Some(Json::Null) => None,
            Some(v) => Some(
                v.as_f64()
                    .filter(|f| (0.0..=1.0).contains(f))
                    .ok_or_else(|| format!("baseline {name:?}: bad \"max_unattributed_frac\""))?,
            ),
        };
        out.push(PerfBaseline { name, min_events_per_sec, max_unattributed_frac });
    }
    Ok(out)
}

/// Checks one measurement against the baseline of the same name.
///
/// Returns `Ok(summary)` when the workload clears its floors, `Err(why)`
/// on an events/s regression, unattributed-time growth, or a measurement
/// with no corresponding baseline (a gate that silently checks nothing is
/// itself a failure).
pub fn check_measurement(
    m: &PerfMeasurement,
    baselines: &[PerfBaseline],
) -> Result<String, String> {
    let b = baselines
        .iter()
        .find(|b| b.name == m.name)
        .ok_or_else(|| format!("{}: no baseline entry in baselines.json", m.name))?;
    if m.events_per_sec < b.min_events_per_sec {
        return Err(format!(
            "{}: {:.0} events/s is below the {:.0} events/s floor ({:.1}× too slow)",
            m.name,
            m.events_per_sec,
            b.min_events_per_sec,
            b.min_events_per_sec / m.events_per_sec.max(f64::MIN_POSITIVE),
        ));
    }
    if let (Some(frac), Some(max)) = (m.unattributed_frac, b.max_unattributed_frac) {
        if frac > max {
            return Err(format!(
                "{}: {:.1}% of wall time is unattributed (ceiling {:.1}%)",
                m.name,
                frac * 100.0,
                max * 100.0
            ));
        }
    }
    Ok(format!(
        "{}: {:.0} events/s (floor {:.0}), unattributed {}",
        m.name,
        m.events_per_sec,
        b.min_events_per_sec,
        match m.unattributed_frac {
            Some(f) => format!("{:.1}%", f * 100.0),
            None => "n/a".to_string(),
        }
    ))
}

/// Reads the checked-in baselines file: `$VERME_BASELINES` if set, else
/// `baselines.json` beside this crate's manifest (so the bin works from
/// any working directory).
pub fn load_baselines() -> Result<Vec<PerfBaseline>, String> {
    let path = std::env::var("VERME_BASELINES")
        .ok()
        .filter(|p| !p.is_empty())
        .unwrap_or_else(|| format!("{}/baselines.json", env!("CARGO_MANIFEST_DIR")));
    let raw = std::fs::read_to_string(&path).map_err(|e| format!("cannot read {path}: {e}"))?;
    parse_baselines(&raw)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn baseline() -> Vec<PerfBaseline> {
        vec![PerfBaseline {
            name: "wl".into(),
            min_events_per_sec: 1000.0,
            max_unattributed_frac: Some(0.25),
        }]
    }

    #[test]
    fn healthy_measurement_passes() {
        let m = PerfMeasurement {
            name: "wl".into(),
            events_per_sec: 2500.0,
            unattributed_frac: Some(0.08),
        };
        let summary = check_measurement(&m, &baseline()).expect("should pass");
        assert!(summary.contains("wl"));
    }

    #[test]
    fn injected_10x_slowdown_fails_the_gate() {
        // The acceptance demonstration: a workload that normally clears
        // the floor comfortably (2.5× headroom) drops 10× — the gate
        // must fail it.
        let healthy = 2500.0;
        let slowed = PerfMeasurement {
            name: "wl".into(),
            events_per_sec: healthy / 10.0,
            unattributed_frac: Some(0.08),
        };
        let err = check_measurement(&slowed, &baseline()).expect_err("10× slowdown must fail");
        assert!(err.contains("below the"), "unexpected message: {err}");
    }

    #[test]
    fn unattributed_growth_fails_the_gate() {
        let m = PerfMeasurement {
            name: "wl".into(),
            events_per_sec: 2500.0,
            unattributed_frac: Some(0.60),
        };
        let err = check_measurement(&m, &baseline()).expect_err("unattributed growth must fail");
        assert!(err.contains("unattributed"), "unexpected message: {err}");
    }

    #[test]
    fn missing_baseline_is_an_error() {
        let m = PerfMeasurement {
            name: "unknown".into(),
            events_per_sec: 1.0,
            unattributed_frac: None,
        };
        assert!(check_measurement(&m, &baseline()).is_err());
    }

    #[test]
    fn baselines_round_trip_through_the_parser() {
        let raw = r#"{"baselines":[
            {"name":"a","min_events_per_sec":100.0,"max_unattributed_frac":0.5},
            {"name":"b","min_events_per_sec":2e6}
        ]}"#;
        let parsed = parse_baselines(raw).unwrap();
        assert_eq!(parsed.len(), 2);
        assert_eq!(parsed[0].max_unattributed_frac, Some(0.5));
        assert_eq!(parsed[1].max_unattributed_frac, None);
        assert!(parse_baselines("{}").is_err());
        assert!(parse_baselines(r#"{"baselines":[{"name":"x"}]}"#).is_err());
    }

    #[test]
    fn checked_in_baselines_file_parses() {
        // Guard the real repo file against drift.
        let list = load_baselines().expect("crates/bench/baselines.json must parse");
        assert!(!list.is_empty());
        for b in &list {
            assert!(b.min_events_per_sec > 0.0);
        }
    }
}
