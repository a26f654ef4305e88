//! The whole benchmark in one command: for each workload, a few timed
//! children and one traced child (each a fresh process, one busy thread),
//! the cross-child fingerprint check, `perf/out/result.json`, and
//! optionally one more line of the tracked `perf/trajectory.ndjson`.
//!
//! Every traced child also runs the kernels, because a single traced run
//! must report every per-layer metric. They do not depend on the workload,
//! so the suite treats the children's readings as repeats and stores each
//! kernel once, as their median.

use std::path::Path;
use std::process::Command;

use verme_obs::Json;

use crate::catalog::{END_TO_END, PER_LAYER, RUN_SECONDS, TIMED_CHILDREN};
use crate::kernels;
use crate::stats::summarize;
use crate::workloads::WORKLOADS;

/// What a child printed.
struct Child {
    result: Json,
    fingerprint: String,
    sim_stats: String,
    iterations: u64,
    /// The workload's own `failed` and `attempted`, summed over iterations.
    ops: (u64, u64),
}

fn run_child(workload: &str, seed: u64, trace: bool) -> Result<Child, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find own executable: {e}"))?;
    let output = Command::new(exe)
        .args(["--workload", workload])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &RUN_SECONDS.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .output()
        .map_err(|e| format!("cannot start child: {e}"))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    if !output.status.success() {
        return Err(format!(
            "{workload} child exited with {}:\n{}{}",
            output.status,
            stdout,
            String::from_utf8_lossy(&output.stderr)
        ));
    }
    let field = |key: &str| {
        let prefix = format!("{workload} {key} ");
        stdout
            .lines()
            .find_map(|l| l.strip_prefix(&prefix))
            .map(str::to_string)
            .ok_or_else(|| format!("{workload} child printed no {key} line"))
    };
    let last = stdout.lines().last().ok_or("child printed nothing")?;
    let ops = field("ops_failed_frac")?;
    let ops = ops
        .split_once('/')
        .and_then(|(f, a)| Some((f.parse().ok()?, a.parse().ok()?)))
        .ok_or_else(|| format!("bad operation counts: {ops}"))?;
    Ok(Child {
        result: verme_obs::parse(last).map_err(|e| format!("child result is not JSON: {e:?}"))?,
        fingerprint: field("sim_fingerprint")?,
        sim_stats: field("sim_stats")?,
        iterations: field("iterations")?
            .parse()
            .map_err(|e| format!("bad iteration count: {e}"))?,
        ops,
    })
}

fn value_of(child: &Child, metric: &str) -> Result<f64, String> {
    child
        .result
        .get("metrics")
        .and_then(|m| m.get(metric))
        .and_then(|m| m.get("value"))
        .and_then(Json::as_f64)
        .ok_or_else(|| format!("child reported no {metric}"))
}

fn obj(members: Vec<(&str, Json)>) -> Json {
    Json::Obj(members.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
}

/// Prints `label name median unit (min max n)` and returns the readings'
/// `result.json` object.
fn summary(label: &str, name: &str, unit: &str, values: Vec<f64>) -> Json {
    let s = summarize(&values);
    println!("{label} {name} {} {unit}  (min {} max {} n={})", s.median, s.min, s.max, s.n);
    obj(vec![
        ("unit", unit.into()),
        ("median", Json::Float(s.median)),
        ("min", Json::Float(s.min)),
        ("max", Json::Float(s.max)),
        ("n", (s.n as u64).into()),
        ("values", Json::Arr(values.into_iter().map(Json::Float).collect())),
    ])
}

fn commit() -> String {
    Command::new("git")
        .args(["rev-parse", "--short", "HEAD"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}

/// Runs every workload under `seed` and writes `<out_dir>/result.json`;
/// `record` also appends it to `trajectory`. Returns false when a child
/// was incorrect or the children's fingerprints disagree.
///
/// # Errors
///
/// Returns a message when a child cannot be run or its output read.
pub fn run(seed: u64, record: bool, out_dir: &Path, trajectory: &Path) -> Result<bool, String> {
    let mut all_ok = true;
    let mut workloads = Vec::new();
    let mut kernel_values: Vec<Vec<f64>> = vec![Vec::new(); kernels::NAMES.len()];
    for w in WORKLOADS {
        let mut timed = Vec::new();
        for _ in 0..TIMED_CHILDREN {
            timed.push(run_child(w.name, seed, false)?);
        }
        let traced = run_child(w.name, seed, true)?;

        let first = timed.first().unwrap_or(&traced);
        let mut correct = true;
        for c in timed.iter().chain([&traced]) {
            correct &= c.result.get("correct").and_then(Json::as_bool) == Some(true);
            if c.fingerprint != first.fingerprint {
                eprintln!("{}: fingerprints differ between children of one seed", w.name);
                correct = false;
            }
        }
        all_ok &= correct;

        let mut end_to_end = Vec::new();
        for e in END_TO_END {
            let values =
                timed.iter().map(|c| value_of(c, e.name)).collect::<Result<Vec<_>, _>>()?;
            end_to_end.push((e.name, summary(w.name, e.name, e.unit, values)));
        }
        let mut per_layer = Vec::new();
        for p in PER_LAYER {
            let v = value_of(&traced, p.name)?;
            if let Some(k) = kernels::NAMES.iter().position(|n| *n == p.name) {
                kernel_values[k].push(v);
                continue;
            }
            println!("{} {} {} {}", w.name, p.name, v, p.unit);
            per_layer.push((p.name, obj(vec![("unit", p.unit.into()), ("value", Json::Float(v))])));
        }
        let (failed, attempted) = first.ops;
        println!("{} ops_failed_frac {failed}/{attempted}", w.name);
        println!("{} sim_fingerprint {}", w.name, first.fingerprint);
        workloads.push((
            w.name,
            obj(vec![
                ("correct", Json::Bool(correct)),
                ("fingerprint", first.fingerprint.as_str().into()),
                ("sim_stats", first.sim_stats.as_str().into()),
                ("attempted", attempted.into()),
                ("failed", failed.into()),
                ("iterations", first.iterations.into()),
                ("end_to_end", obj(end_to_end)),
                ("per_layer", obj(per_layer)),
            ]),
        ));
    }

    let mut kernel_rows = Vec::new();
    for (values, name) in kernel_values.into_iter().zip(kernels::NAMES) {
        let unit = PER_LAYER.iter().find(|p| p.name == *name).map_or("", |p| p.unit);
        kernel_rows.push((*name, summary("kernels", name, unit, values)));
    }
    let kernel_rows = obj(kernel_rows);

    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get() as u64);
    let commit = commit();
    let header = |workloads: Json| {
        obj(vec![
            ("commit", commit.as_str().into()),
            ("seed", seed.into()),
            ("nproc", nproc.into()),
            ("seconds", RUN_SECONDS.into()),
            ("repeats", (TIMED_CHILDREN as u64).into()),
            ("workloads", workloads),
            ("kernels", kernel_rows.clone()),
        ])
    };
    let result = header(obj(workloads.clone()));
    let path = out_dir.join("result.json");
    std::fs::create_dir_all(out_dir)
        .and_then(|()| std::fs::write(&path, result.to_json() + "\n"))
        .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    eprintln!("wrote {}", path.display());

    if record {
        // The tracked history drops the long `sim_stats` strings; their hash,
        // the fingerprint, stays.
        let slim: Vec<(&str, Json)> = workloads
            .into_iter()
            .map(|(name, w)| {
                let Json::Obj(members) = w else { unreachable!("built as an object above") };
                let kept = members.into_iter().filter(|(k, _)| k != "sim_stats").collect();
                (name, Json::Obj(kept))
            })
            .collect();
        let line = header(obj(slim)).to_json() + "\n";
        use std::io::Write as _;
        std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(trajectory)
            .and_then(|mut f| f.write_all(line.as_bytes()))
            .map_err(|e| format!("cannot append to {}: {e}", trajectory.display()))?;
        eprintln!("appended to {}", trajectory.display());
    }
    Ok(all_ok)
}
