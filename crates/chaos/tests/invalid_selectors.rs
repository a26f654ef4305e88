//! A schedule whose selector the parser rejects — which only a
//! hand-edited repro file can contain; generated schedules use `span:` —
//! fails `FaultPlan::validate`, and the trial is a verdict
//! (`invalid-schedule`), never a panic.

use verme_chaos::oracle::INVALID_SCHEDULE;
use verme_chaos::profile::schedule_start;
use verme_chaos::{run_trial, Repro, Scenario};
use verme_chord::MaintenanceMode;
use verme_sim::{Fault, Recovery, SimDuration};

const BAD_SELECTORS: [&str; 6] =
    ["frac:0.2", "span:1", "span:x:2", "span:0:99999999999999999999999", "span:", "span"];

/// One schedule per fault kind that carries a selector.
fn schedules(selector: &str) -> [Vec<Fault>; 3] {
    let at = schedule_start();
    let selector = selector.to_string();
    [
        vec![Fault::KillBurst {
            at,
            window: SimDuration::from_secs(1),
            selector: selector.clone(),
        }],
        vec![Fault::Restart {
            at,
            down_for: SimDuration::from_secs(5),
            selector: selector.clone(),
            recovery: Recovery::Amnesia,
        }],
        // A valid entry first: the bad one is found wherever it sits.
        vec![
            Fault::KillBurst { at, window: SimDuration::from_secs(1), selector: "span:3:2".into() },
            Fault::Byzantine { at, selector },
        ],
    ]
}

#[test]
fn a_schedule_the_scenarios_cannot_interpret_is_a_verdict_not_a_panic() {
    for scenario in [Scenario::ring(MaintenanceMode::Corrected), Scenario::durability(true)] {
        for selector in BAD_SELECTORS {
            for schedule in schedules(selector) {
                let report = run_trial(&scenario, &schedule, 7);
                assert_eq!(report.oracles(), vec![INVALID_SCHEDULE], "{selector:?}: {report:?}");
                assert!(
                    report.findings[0].detail.contains(&format!("{selector:?}")),
                    "the finding should quote the selector: {report:?}"
                );
                assert_eq!(report, run_trial(&scenario, &schedule, 7), "{selector:?}");
            }
        }
    }
}

#[test]
fn a_repro_carrying_one_round_trips_and_verifies() {
    let scenario = Scenario::ring(MaintenanceMode::Legacy);
    for selector in BAD_SELECTORS {
        for schedule in schedules(selector) {
            let report = run_trial(&scenario, &schedule, 11);
            let repro = Repro { scenario: scenario.clone(), seed: 11, schedule, report };
            let parsed = Repro::from_json(&repro.to_json()).expect("own serialization parses");
            assert_eq!(parsed, repro, "{selector:?}");
            assert!(parsed.verify(), "{selector:?}: replay must reproduce the verdict");
        }
    }
}

#[test]
fn every_grammar_the_parser_reads_still_runs() {
    let scenario = Scenario::ring(MaintenanceMode::Corrected);
    for selector in ["span:0:1", "span:47:3", "arc:2", "eclipse:1"] {
        let [burst, ..] = schedules(selector);
        let report = run_trial(&scenario, &burst, 7);
        assert!(!report.oracles().contains(&INVALID_SCHEDULE), "{selector:?}: {report:?}");
    }
}

#[test]
fn a_repro_sized_at_zero_nodes_replays_to_a_verdict() {
    let scenario = Scenario::ring(MaintenanceMode::Corrected);
    let report = run_trial(&scenario, &[], 7);
    let text = Repro { scenario, seed: 7, schedule: Vec::new(), report }.to_json();
    // The hand edit: the same file with the overlay emptied.
    let edited = text.replacen("\"nodes\":48", "\"nodes\":0", 1);
    assert_ne!(edited, text, "the repro names its size: {text}");
    let repro = Repro::from_json(&edited).expect("an edited size still parses");
    assert!(matches!(repro.scenario, Scenario::Ring { nodes: 0, .. }));
    let replayed = repro.replay();
    assert_eq!(replayed.oracles(), vec![INVALID_SCHEDULE], "{replayed:?}");
    assert!(replayed.findings[0].detail.contains("`nodes`"), "{replayed:?}");
    assert!(!repro.verify(), "the recorded verdict was a pass, the replay is not");
    let rerecorded = Repro { report: replayed, ..repro };
    assert!(Repro::from_json(&rerecorded.to_json()).expect("parses").verify());
}
