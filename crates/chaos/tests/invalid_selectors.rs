//! A schedule whose selector the scenarios cannot interpret — which only
//! a hand-edited repro file can contain; generated schedules use `span:`
//! — is a verdict (`invalid-schedule`), never a panic.

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
            Fault::Byzantine { at, selector, attack: "drop-all".into() },
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
    for selector in ["span:0:1", "span:47:3", "arc:2", "eclipse:1", "eclipse-skip:2:1"] {
        let [burst, ..] = schedules(selector);
        let report = run_trial(&scenario, &burst, 7);
        assert!(!report.oracles().contains(&INVALID_SCHEDULE), "{selector:?}: {report:?}");
    }
}
