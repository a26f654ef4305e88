//! Replayable repro files: `CHAOS_repro_<hash>.json`.
//!
//! A [`Repro`] bundles everything a trial depends on — scenario, seed and
//! the (shrunk) schedule — together with the verdict that run produced.
//! Because [`run_trial`] is a pure function of
//! those inputs, [`Repro::replay`] reproduces the recorded report
//! bit-for-bit on any machine, and [`Repro::verify`] checks exactly that.
//!
//! The encoding is the workspace's hand-rolled JSON dialect
//! ([`verme_obs::json`]): nanosecond timestamps as plain integers, rates
//! as floats, every enum as a stable kebab-case string. Files are named
//! by an FNV-1a hash of their own canonical text, so distinct repros
//! never collide on disk and a renamed file still identifies itself.

use verme_obs::json::{self, Json};
use verme_sim::fault::Fault;
use verme_sim::{HostId, Recovery, SimDuration, SimTime};

use verme_chord::MaintenanceMode;

use crate::oracle::{Finding, OracleReport};
use crate::scenario::{run_trial, Scenario};

/// Format tag written into every repro file.
const KIND: &str = "chaos-repro";
/// Encoding version; bump on incompatible schema changes.
const VERSION: u64 = 1;

/// A self-contained, replayable witness of one failing trial.
#[derive(Clone, Debug, PartialEq)]
pub struct Repro {
    /// What was simulated.
    pub scenario: Scenario,
    /// The trial seed every random choice derived from.
    pub seed: u64,
    /// The (typically shrunk) fault schedule.
    pub schedule: Vec<Fault>,
    /// The verdict this exact `(scenario, seed, schedule)` produced.
    pub report: OracleReport,
}

impl Repro {
    /// Re-runs the trial from the recorded inputs.
    pub fn replay(&self) -> OracleReport {
        run_trial(&self.scenario, &self.schedule, self.seed)
    }

    /// True when replaying reproduces the recorded verdict exactly.
    pub fn verify(&self) -> bool {
        self.replay() == self.report
    }

    /// Canonical file name: `CHAOS_repro_<fnv1a64 of the text>.json`.
    pub fn file_name(&self) -> String {
        format!("CHAOS_repro_{:016x}.json", fnv1a64(self.to_json().as_bytes()))
    }

    /// Serializes to the repro dialect (compact, canonical member order).
    pub fn to_json(&self) -> String {
        Json::Obj(vec![
            ("kind".into(), KIND.into()),
            ("version".into(), VERSION.into()),
            ("scenario".into(), scenario_to_json(&self.scenario)),
            ("seed".into(), self.seed.into()),
            ("schedule".into(), Json::Arr(self.schedule.iter().map(fault_to_json).collect())),
            ("report".into(), report_to_json(&self.report)),
        ])
        .to_json()
    }

    /// Parses a repro file's text. Errors name the offending member so a
    /// hand-edited file fails with something actionable.
    pub fn from_json(text: &str) -> Result<Repro, String> {
        let v = json::parse(text).map_err(|e| e.to_string())?;
        if v.get("kind").and_then(Json::as_str) != Some(KIND) {
            return Err(format!("not a {KIND} file"));
        }
        let version = need_u64(&v, "version")?;
        if version != VERSION {
            return Err(format!("unsupported {KIND} version {version} (expected {VERSION})"));
        }
        let scenario = scenario_from_json(v.get("scenario").ok_or("missing scenario")?)?;
        let seed = need_u64(&v, "seed")?;
        let schedule = v
            .get("schedule")
            .and_then(Json::as_array)
            .ok_or("missing schedule array")?
            .iter()
            .map(fault_from_json)
            .collect::<Result<Vec<Fault>, String>>()?;
        let report = report_from_json(v.get("report").ok_or("missing report")?)?;
        Ok(Repro { scenario, seed, schedule, report })
    }
}

/// 64-bit FNV-1a: tiny, stable, good enough for file-name uniqueness.
fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

fn scenario_to_json(s: &Scenario) -> Json {
    match s {
        Scenario::Ring { mode, nodes, num_successors } => Json::Obj(vec![
            ("kind".into(), "ring".into()),
            (
                "mode".into(),
                match mode {
                    MaintenanceMode::Legacy => "legacy".into(),
                    MaintenanceMode::Corrected => "corrected".into(),
                },
            ),
            ("nodes".into(), (*nodes as u64).into()),
            ("num_successors".into(), (*num_successors as u64).into()),
        ]),
        Scenario::Durability { repair, nodes, blocks } => Json::Obj(vec![
            ("kind".into(), "durability".into()),
            ("repair".into(), (*repair).into()),
            ("nodes".into(), (*nodes as u64).into()),
            ("blocks".into(), (*blocks as u64).into()),
        ]),
    }
}

fn scenario_from_json(v: &Json) -> Result<Scenario, String> {
    match v.get("kind").and_then(Json::as_str) {
        Some("ring") => Ok(Scenario::Ring {
            mode: match v.get("mode").and_then(Json::as_str) {
                Some("legacy") => MaintenanceMode::Legacy,
                Some("corrected") => MaintenanceMode::Corrected,
                other => return Err(format!("unknown maintenance mode {other:?}")),
            },
            nodes: need_u64(v, "nodes")? as usize,
            num_successors: need_u64(v, "num_successors")? as usize,
        }),
        Some("durability") => Ok(Scenario::Durability {
            repair: v.get("repair").and_then(Json::as_bool).ok_or("missing repair flag")?,
            nodes: need_u64(v, "nodes")? as usize,
            blocks: need_u64(v, "blocks")? as usize,
        }),
        other => Err(format!("unknown scenario kind {other:?}")),
    }
}

fn fault_to_json(f: &Fault) -> Json {
    let time = |t: SimTime| Json::UInt(u128::from(t.as_nanos()));
    let dur = |d: SimDuration| Json::UInt(u128::from(d.as_nanos()));
    match f {
        Fault::Churn { start, duration, leave_rate_per_sec, graceful_fraction, rejoin_after } => {
            Json::Obj(vec![
                ("fault".into(), "churn".into()),
                ("start_ns".into(), time(*start)),
                ("duration_ns".into(), dur(*duration)),
                ("leave_rate_per_sec".into(), Json::Float(*leave_rate_per_sec)),
                ("graceful_fraction".into(), Json::Float(*graceful_fraction)),
                ("rejoin_after_ns".into(), rejoin_after.map_or(Json::Null, dur)),
            ])
        }
        Fault::KillBurst { at, window, selector } => Json::Obj(vec![
            ("fault".into(), "kill-burst".into()),
            ("at_ns".into(), time(*at)),
            ("window_ns".into(), dur(*window)),
            ("selector".into(), selector.as_str().into()),
        ]),
        Fault::LossBurst { at, duration, rate } => Json::Obj(vec![
            ("fault".into(), "loss-burst".into()),
            ("at_ns".into(), time(*at)),
            ("duration_ns".into(), dur(*duration)),
            ("rate".into(), Json::Float(*rate)),
        ]),
        Fault::LatencySpike { at, duration, factor } => Json::Obj(vec![
            ("fault".into(), "latency-spike".into()),
            ("at_ns".into(), time(*at)),
            ("duration_ns".into(), dur(*duration)),
            ("factor".into(), Json::Float(*factor)),
        ]),
        Fault::Byzantine { at, selector, attack } => Json::Obj(vec![
            ("fault".into(), "byzantine".into()),
            ("at_ns".into(), time(*at)),
            ("selector".into(), selector.as_str().into()),
            ("attack".into(), attack.as_str().into()),
        ]),
        Fault::Duplicate { at, duration, rate } => Json::Obj(vec![
            ("fault".into(), "duplicate".into()),
            ("at_ns".into(), time(*at)),
            ("duration_ns".into(), dur(*duration)),
            ("rate".into(), Json::Float(*rate)),
        ]),
        Fault::Reorder { at, duration, rate, window } => Json::Obj(vec![
            ("fault".into(), "reorder".into()),
            ("at_ns".into(), time(*at)),
            ("duration_ns".into(), dur(*duration)),
            ("rate".into(), Json::Float(*rate)),
            ("window_ns".into(), dur(*window)),
        ]),
        Fault::Restart { at, down_for, selector, recovery } => Json::Obj(vec![
            ("fault".into(), "restart".into()),
            ("at_ns".into(), time(*at)),
            ("down_for_ns".into(), dur(*down_for)),
            ("selector".into(), selector.as_str().into()),
            (
                "recovery".into(),
                match recovery {
                    Recovery::Amnesia => "amnesia".into(),
                    Recovery::Persisted => "persisted".into(),
                },
            ),
        ]),
        Fault::Partition { at, duration, side } => Json::Obj(vec![
            ("fault".into(), "partition".into()),
            ("at_ns".into(), time(*at)),
            ("duration_ns".into(), dur(*duration)),
            ("side".into(), Json::Arr(side.iter().map(|h| (h.0 as u64).into()).collect())),
        ]),
    }
}

fn fault_from_json(v: &Json) -> Result<Fault, String> {
    let time = |key: &str| need_u64(v, key).map(SimTime::from_nanos);
    let dur = |key: &str| need_u64(v, key).map(SimDuration::from_nanos);
    let rate = |key: &str| need_f64(v, key);
    match v.get("fault").and_then(Json::as_str) {
        Some("churn") => Ok(Fault::Churn {
            start: time("start_ns")?,
            duration: dur("duration_ns")?,
            leave_rate_per_sec: rate("leave_rate_per_sec")?,
            graceful_fraction: rate("graceful_fraction")?,
            rejoin_after: match v.get("rejoin_after_ns") {
                None | Some(Json::Null) => None,
                Some(j) => Some(SimDuration::from_nanos(
                    j.as_u64().ok_or("rejoin_after_ns must be an integer or null")?,
                )),
            },
        }),
        Some("kill-burst") => Ok(Fault::KillBurst {
            at: time("at_ns")?,
            window: dur("window_ns")?,
            selector: need_str(v, "selector")?,
        }),
        Some("loss-burst") => Ok(Fault::LossBurst {
            at: time("at_ns")?,
            duration: dur("duration_ns")?,
            rate: rate("rate")?,
        }),
        Some("latency-spike") => Ok(Fault::LatencySpike {
            at: time("at_ns")?,
            duration: dur("duration_ns")?,
            factor: rate("factor")?,
        }),
        Some("byzantine") => Ok(Fault::Byzantine {
            at: time("at_ns")?,
            selector: need_str(v, "selector")?,
            attack: need_str(v, "attack")?,
        }),
        Some("duplicate") => Ok(Fault::Duplicate {
            at: time("at_ns")?,
            duration: dur("duration_ns")?,
            rate: rate("rate")?,
        }),
        Some("reorder") => Ok(Fault::Reorder {
            at: time("at_ns")?,
            duration: dur("duration_ns")?,
            rate: rate("rate")?,
            window: dur("window_ns")?,
        }),
        Some("restart") => Ok(Fault::Restart {
            at: time("at_ns")?,
            down_for: dur("down_for_ns")?,
            selector: need_str(v, "selector")?,
            recovery: match v.get("recovery").and_then(Json::as_str) {
                Some("amnesia") => Recovery::Amnesia,
                Some("persisted") => Recovery::Persisted,
                other => return Err(format!("unknown recovery {other:?}")),
            },
        }),
        Some("partition") => Ok(Fault::Partition {
            at: time("at_ns")?,
            duration: dur("duration_ns")?,
            side: v
                .get("side")
                .and_then(Json::as_array)
                .ok_or("missing partition side")?
                .iter()
                .map(|j| j.as_u64().map(|n| HostId(n as usize)).ok_or("bad host id".to_string()))
                .collect::<Result<Vec<HostId>, String>>()?,
        }),
        other => Err(format!("unknown fault kind {other:?}")),
    }
}

fn report_to_json(r: &OracleReport) -> Json {
    Json::Obj(vec![(
        "findings".into(),
        Json::Arr(
            r.findings
                .iter()
                .map(|f| {
                    Json::Obj(vec![
                        ("oracle".into(), f.oracle.into()),
                        ("detail".into(), f.detail.as_str().into()),
                    ])
                })
                .collect(),
        ),
    )])
}

fn report_from_json(v: &Json) -> Result<OracleReport, String> {
    let findings = v
        .get("findings")
        .and_then(Json::as_array)
        .ok_or("missing findings array")?
        .iter()
        .map(|f| {
            let name = f.get("oracle").and_then(Json::as_str).ok_or("missing oracle name")?;
            Ok(Finding {
                oracle: crate::oracle::intern(name)
                    .ok_or_else(|| format!("unknown oracle {name:?}"))?,
                detail: need_str(f, "detail")?,
            })
        })
        .collect::<Result<Vec<Finding>, String>>()?;
    Ok(OracleReport { findings })
}

fn need_u64(v: &Json, key: &str) -> Result<u64, String> {
    v.get(key).and_then(Json::as_u64).ok_or_else(|| format!("missing or invalid {key}"))
}

fn need_f64(v: &Json, key: &str) -> Result<f64, String> {
    v.get(key).and_then(Json::as_f64).ok_or_else(|| format!("missing or invalid {key}"))
}

fn need_str(v: &Json, key: &str) -> Result<String, String> {
    v.get(key).and_then(Json::as_str).map(str::to_owned).ok_or_else(|| format!("missing {key}"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::oracle;
    use crate::profile::{sample_plan, ChaosProfile};

    fn sample_repro(seed: u64) -> Repro {
        let mut report = OracleReport::default();
        report.flag(oracle::RING_INVARIANT, "3 violations during the run".into());
        report.flag(oracle::RING_END, "end snapshot: DisorderedRing".into());
        Repro {
            scenario: Scenario::ring(MaintenanceMode::Legacy),
            seed,
            schedule: sample_plan(&ChaosProfile::ring(48, 3), seed),
            report,
        }
    }

    #[test]
    fn json_round_trips_exactly() {
        for seed in 0..50 {
            let r = sample_repro(seed);
            let text = r.to_json();
            let back = Repro::from_json(&text).expect("own output must parse");
            assert_eq!(back, r, "seed {seed}");
            assert_eq!(back.to_json(), text, "re-serialization is stable");
        }
    }

    #[test]
    fn every_fault_variant_round_trips() {
        let t = SimTime::from_nanos(11_000_000_000);
        let d = SimDuration::from_secs(5);
        let all = vec![
            Fault::Churn {
                start: t,
                duration: d,
                leave_rate_per_sec: 0.25,
                graceful_fraction: 0.5,
                rejoin_after: None,
            },
            Fault::KillBurst { at: t, window: d, selector: "span:3:4".into() },
            Fault::LossBurst { at: t, duration: d, rate: 0.125 },
            Fault::LatencySpike { at: t, duration: d, factor: 4.0 },
            Fault::Byzantine { at: t, selector: "frac:0.2".into(), attack: "drop-all".into() },
            Fault::Duplicate { at: t, duration: d, rate: 0.5 },
            Fault::Reorder { at: t, duration: d, rate: 0.5, window: d },
            Fault::Restart {
                at: t,
                down_for: d,
                selector: "span:0:2".into(),
                recovery: Recovery::Persisted,
            },
            Fault::Partition { at: t, duration: d, side: vec![HostId(0), HostId(3)] },
        ];
        for f in all {
            let back = fault_from_json(&fault_to_json(&f)).expect("round trip");
            assert_eq!(back, f);
        }
    }

    #[test]
    fn file_names_are_stable_and_distinct() {
        let a = sample_repro(1);
        let b = sample_repro(2);
        assert_eq!(a.file_name(), a.file_name());
        assert_ne!(a.file_name(), b.file_name());
        assert!(a.file_name().starts_with("CHAOS_repro_") && a.file_name().ends_with(".json"));
    }

    #[test]
    fn rejects_malformed_files() {
        assert!(Repro::from_json("{}").is_err());
        assert!(Repro::from_json("not json").is_err());
        let mut ok = sample_repro(3).to_json();
        ok = ok.replace("\"kind\":\"chaos-repro\"", "\"kind\":\"other\"");
        assert!(Repro::from_json(&ok).is_err());
    }

    #[test]
    fn deeply_nested_file_is_an_error_not_an_abort() {
        let err = Repro::from_json(&"[".repeat(1 << 20)).unwrap_err();
        assert!(err.contains("nested too deeply"), "{err}");
    }
}
