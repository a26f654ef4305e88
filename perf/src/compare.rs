//! `--compare A.json B.json`: per `(workload, end-to-end metric)` the two
//! medians, their ratio with its base, and pass/fail against the metric's
//! bound; plus the failed-operations row (no increase) and the
//! fingerprint row (exact).

use verme_obs::Json;

use crate::catalog::END_TO_END;
use crate::stats::{within_bound, worsening};

/// One compared `(workload, metric)` pair.
#[derive(Clone, Debug, PartialEq)]
pub struct Row {
    /// Workload name.
    pub workload: String,
    /// Metric name, or `ops_failed_frac` / `sim_fingerprint`.
    pub metric: String,
    /// What is printed for the pair.
    pub detail: String,
    /// Whether `B` is within the bound of `A` (or exactly equal).
    pub pass: bool,
}

fn workloads(doc: &Json) -> Result<&[(String, Json)], String> {
    doc.get("workloads").and_then(Json::as_object).ok_or_else(|| "no \"workloads\" object".into())
}

fn median_of(workload: &Json, metric: &str) -> Option<f64> {
    workload.get("end_to_end")?.get(metric)?.get("median")?.as_f64()
}

/// Compares two `result.json` documents, `a` being the base.
///
/// # Errors
///
/// Returns a message when either document lacks the expected shape or
/// the two do not cover the same workloads.
pub fn compare(a: &Json, b: &Json) -> Result<Vec<Row>, String> {
    let mut rows = Vec::new();
    let wb = workloads(b)?;
    for (name, wa) in workloads(a)? {
        let wb = wb
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, w)| w)
            .ok_or_else(|| format!("workload {name} is missing from the second file"))?;
        for e in END_TO_END {
            let (Some(ma), Some(mb)) = (median_of(wa, e.name), median_of(wb, e.name)) else {
                return Err(format!("{name}: no median for {}", e.name));
            };
            let worse = worsening(ma, mb, e.better);
            let floor =
                if e.floor > 0.0 { format!(" or {} {}", e.floor, e.unit) } else { String::new() };
            rows.push(Row {
                workload: name.clone(),
                metric: e.name.to_string(),
                detail: format!(
                    "{ma:.9} -> {mb:.9} {}  ratio {:.4} of base {ma:.9}  worsening {:+.2}% (bound {:.0}%{floor})",
                    e.unit,
                    mb / ma,
                    worse * 100.0,
                    e.bound * 100.0
                ),
                // `worse * ma` is the worsening in the metric's own unit.
                pass: within_bound(ma, mb, e.better, e.bound) || worse * ma <= e.floor,
            });
        }
        let ops = |w: &Json| Some((w.get("failed")?.as_u64()?, w.get("attempted")?.as_u64()?));
        let (Some((fa, aa)), Some((fb, ab))) = (ops(wa), ops(wb)) else {
            return Err(format!("{name}: no operation counts"));
        };
        // Both counts are sums over a child's iterations, whose number
        // differs with machine speed; the ratio is exact for a seed. A
        // change may lower it, never raise it.
        rows.push(Row {
            workload: name.clone(),
            metric: "ops_failed_frac".into(),
            detail: format!(
                "{fa}/{aa} = {:.6} -> {fb}/{ab} = {:.6}  (no increase)",
                fa as f64 / aa as f64,
                fb as f64 / ab as f64
            ),
            pass: aa > 0
                && ab > 0
                && u128::from(fb) * u128::from(aa) <= u128::from(fa) * u128::from(ab),
        });
        let fp = |w: &Json| w.get("fingerprint").and_then(Json::as_str).map(str::to_string);
        let (fpa, fpb) = (fp(wa), fp(wb));
        rows.push(Row {
            workload: name.clone(),
            metric: "sim_fingerprint".into(),
            detail: format!(
                "{} -> {}",
                fpa.as_deref().unwrap_or("?"),
                fpb.as_deref().unwrap_or("?")
            ),
            pass: fpa.is_some() && fpa == fpb,
        });
    }
    Ok(rows)
}

/// Prints the rows; returns true when every one passed.
pub fn print(rows: &[Row]) -> bool {
    for r in rows {
        let verdict = if r.pass { "pass" } else { "FAIL" };
        println!("{:<14} {:<16} {verdict}  {}", r.workload, r.metric, r.detail);
    }
    rows.iter().all(|r| r.pass)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn doc_with_setup(run_s: f64, setup_s: f64, fingerprint: &str, failed: u64) -> Json {
        let text = format!(
            r#"{{"workloads": {{"dht_ops": {{
                "fingerprint": "{fingerprint}", "attempted": 96, "failed": {failed},
                "end_to_end": {{
                    "run_s": {{"median": {run_s}}},
                    "setup_s": {{"median": {setup_s}}},
                    "peak_rss_mb": {{"median": 9.0}}
                }}}}}}}}"#
        );
        verme_obs::parse(&text).expect("test document parses")
    }

    fn doc(run_s: f64, fingerprint: &str, failed: u64) -> Json {
        doc_with_setup(run_s, 0.5, fingerprint, failed)
    }

    fn verdict(rows: &[Row], metric: &str) -> bool {
        rows.iter().find(|r| r.metric == metric).expect("row present").pass
    }

    #[test]
    fn a_slowdown_past_the_bound_fails_and_a_three_percent_one_passes() {
        let bound = END_TO_END.iter().find(|e| e.name == "run_s").expect("catalogued").bound;
        let base = doc(2.0, "abc", 0);
        let slow = compare(&base, &doc(2.0 * (1.0 + bound + 0.05), "abc", 0)).unwrap();
        assert!(!verdict(&slow, "run_s"));
        assert!(verdict(&slow, "setup_s") && verdict(&slow, "peak_rss_mb"));
        let ok = compare(&base, &doc(2.0 * 1.03, "abc", 0)).unwrap();
        assert!(ok.iter().all(|r| r.pass), "{ok:?}");
        // A speed-up never fails.
        assert!(verdict(&compare(&base, &doc(1.0, "abc", 0)).unwrap(), "run_s"));
    }

    #[test]
    fn a_near_zero_setup_is_held_to_the_floor_not_to_a_share() {
        // 200 ns -> 20 ms is a factor of 10^5 and still under the 0.05 s floor.
        let tiny = doc_with_setup(2.0, 2e-7, "abc", 0);
        assert!(verdict(&compare(&tiny, &doc_with_setup(2.0, 0.02, "abc", 0)).unwrap(), "setup_s"));
        assert!(!verdict(
            &compare(&tiny, &doc_with_setup(2.0, 0.06, "abc", 0)).unwrap(),
            "setup_s"
        ));
        // A real set-up is held to the share: 0.5 s -> 0.7 s is 40% and 0.2 s.
        let base = doc(2.0, "abc", 0);
        assert!(!verdict(&compare(&base, &doc_with_setup(2.0, 0.7, "abc", 0)).unwrap(), "setup_s"));
    }

    #[test]
    fn behaviour_changes_and_more_failures_fail_but_fewer_failures_pass() {
        let base = doc(2.0, "abc", 2);
        assert!(!verdict(&compare(&base, &doc(2.0, "abd", 2)).unwrap(), "sim_fingerprint"));
        assert!(!verdict(&compare(&base, &doc(2.0, "abc", 3)).unwrap(), "ops_failed_frac"));
        assert!(verdict(&compare(&base, &doc(2.0, "abc", 2)).unwrap(), "ops_failed_frac"));
        assert!(verdict(&compare(&base, &doc(2.0, "abc", 1)).unwrap(), "ops_failed_frac"));
    }

    #[test]
    fn malformed_documents_are_errors() {
        let base = doc(2.0, "abc", 0);
        assert!(compare(&base, &Json::Null).is_err());
        let other = verme_obs::parse(r#"{"workloads": {"ring_scale": {}}}"#).unwrap();
        assert!(compare(&base, &other).is_err());
    }
}
