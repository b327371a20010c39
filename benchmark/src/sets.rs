//! A result set is every workload run several times, each run a fresh
//! process; `compare` holds two sets against the bounds of the end-to-end
//! metrics. Later changes are judged with these two commands, which is why
//! they live in the benchmark, where a change that claims a gain cannot edit
//! them.

use crate::json::Json;
use crate::stats::{median, quartiles, spread};
use crate::workload::{Workload, END_TO_END, WORKLOADS};
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};

pub struct SetOpts {
    pub workloads: Vec<&'static Workload>,
    pub seed: u64,
    /// Timed runs per workload, each with its own seed (`seed`, `seed+1`, …).
    pub runs: usize,
    pub seconds: f64,
    pub scratch: PathBuf,
    pub out: PathBuf,
}

/// Run one workload once in a fresh process and read its result file back.
fn child_run(w: &Workload, seed: u64, trace: bool, opts: &SetOpts) -> Result<Json, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current exe: {e}"))?;
    let out = opts.scratch.join(format!("result-{}.json", std::process::id()));
    std::fs::create_dir_all(&opts.scratch)
        .map_err(|e| format!("{}: {e}", opts.scratch.display()))?;
    let status = Command::new(exe)
        .args(["run", "--workload", w.name, "--seed", &seed.to_string()])
        .args(["--seconds", &opts.seconds.to_string(), "--trace", if trace { "1" } else { "0" }])
        .arg("--scratch")
        .arg(&opts.scratch)
        .arg("--out")
        .arg(&out)
        .arg("--quiet")
        .stdout(Stdio::null())
        .status()
        .map_err(|e| format!("spawn: {e}"))?;
    let text = std::fs::read_to_string(&out);
    let _ = std::fs::remove_file(&out);
    let result = Json::parse(&text.map_err(|e| {
        format!("{} seed {seed} trace {trace}: {status}, no result file: {e}", w.name)
    })?)?;
    if !status.success() {
        let why: Vec<&str> = result
            .get("failures")
            .map_or(&[][..], Json::arr)
            .iter()
            .filter_map(Json::str)
            .collect();
        return Err(format!("{} seed {seed} trace {trace}: {status}: {}", w.name, why.join("; ")));
    }
    Ok(result)
}

fn metric_value(run: &Json, name: &str) -> Option<f64> {
    run.get("metrics")?.get(name)?.get("value")?.num()
}

fn row(name: &str, value: f64, unit: &str, note: &str) {
    println!("  {name:<36} {value:>16.6} {unit:<8} {note}");
}

pub fn run_set(opts: &SetOpts) -> Result<(), String> {
    let mut workloads = Vec::new();
    for w in &opts.workloads {
        println!("== {} ==", w.name);
        let mut timed = Vec::new();
        for i in 0..opts.runs {
            let run = child_run(w, opts.seed + i as u64, false, opts)?;
            let cps = metric_value(&run, "cand_per_s").unwrap_or(0.0);
            println!("  timed run {i} (seed {}): {cps:.3} cand/s", opts.seed + i as u64);
            timed.push(run);
        }
        let traced = child_run(w, opts.seed, true, opts)?;
        let mut end_to_end = Vec::new();
        println!("  -- end to end: median of {} timed runs [q1 .. q3] --", opts.runs);
        for m in &END_TO_END {
            let values: Vec<f64> = timed.iter().filter_map(|r| metric_value(r, m.name)).collect();
            let (q1, q3) = quartiles(&values);
            row(
                m.name,
                median(&values),
                m.unit,
                &format!("[{q1:.6} .. {q3:.6}] spread {:.4}", spread(&values)),
            );
            end_to_end.push((
                m.name.to_string(),
                Json::obj([
                    ("unit", Json::text(m.unit)),
                    ("median", Json::Num(median(&values))),
                    ("q1", Json::Num(q1)),
                    ("q3", Json::Num(q3)),
                    ("spread", Json::Num(spread(&values))),
                    ("values", Json::Arr(values.into_iter().map(Json::Num).collect())),
                ]),
            ));
        }
        let failed: f64 = timed.iter().filter_map(|r| r.get("failed")?.num()).sum();
        let attempted: f64 = timed.iter().filter_map(|r| r.get("attempted")?.num()).sum();
        row(
            "fail_share",
            failed / attempted.max(1.0),
            "ratio",
            &format!("{failed} of {attempted} operations"),
        );
        println!("  -- per layer: one traced run --");
        for (name, metric) in traced.get("metrics").map_or(&[][..], Json::fields) {
            let unit = metric.get("unit").and_then(Json::str).unwrap_or("");
            row(name, metric.get("value").and_then(Json::num).unwrap_or(0.0), unit, "");
        }
        for warning in
            timed.iter().chain([&traced]).flat_map(|r| r.get("warnings").map_or(&[][..], Json::arr))
        {
            println!("  warning: {}", warning.str().unwrap_or(""));
        }
        workloads.push(Json::Obj(vec![
            ("name".into(), Json::Str(w.name.into())),
            ("end_to_end".into(), Json::Obj(end_to_end)),
            ("fail_share".into(), Json::Num(failed / attempted.max(1.0))),
            ("per_layer".into(), traced.get("metrics").cloned().unwrap_or(Json::Null)),
            ("timed".into(), Json::Arr(timed)),
            // The traced run's metrics are `per_layer` above; keep the rest.
            (
                "traced".into(),
                Json::Obj(
                    traced.fields().iter().filter(|(k, _)| k != "metrics").cloned().collect(),
                ),
            ),
        ]));
    }

    // Cross-workload rows: the paper's with/without-transfer comparison and
    // the cost of going remote. Printed, recorded, not gated.
    let med = |workload: &str, metric: &str| {
        workloads
            .iter()
            .find(|w| w.get("name").and_then(Json::str) == Some(workload))
            .and_then(|w| w.get("end_to_end")?.get(metric)?.get("median")?.num())
    };
    let mut derived = Vec::new();
    println!("== derived ==");
    for (name, unit, metric, a, b, ratio) in [
        ("transfer.cand_per_s_ratio", "ratio", "cand_per_s", "tab_lcs_pool", "tab_base_pool", true),
        ("transfer.top5_delta", "score", "top5_mean_score", "tab_lcs_pool", "tab_base_pool", false),
        (
            "remote.cand_per_s_ratio",
            "ratio",
            "cand_per_s",
            "tab_lcs_dist_tcp",
            "tab_lcs_pool",
            true,
        ),
    ] {
        if let (Some(va), Some(vb)) = (med(a, metric), med(b, metric)) {
            let (value, op) = if ratio { (va / vb, "/") } else { (va - vb, "-") };
            row(name, value, unit, &format!("{a} {op} {b} (base)"));
            derived.push((name.to_string(), Json::Num(value)));
        }
    }

    let set = Json::obj([
        ("seed", Json::Num(opts.seed as f64)),
        ("runs", Json::Num(opts.runs as f64)),
        ("seconds", Json::Num(opts.seconds)),
        ("workloads", Json::Arr(workloads)),
        ("derived", Json::Obj(derived)),
    ]);
    std::fs::write(&opts.out, set.pretty()).map_err(|e| format!("{}: {e}", opts.out.display()))?;
    println!("wrote {}", opts.out.display());
    Ok(())
}

fn load(path: &Path) -> Result<Json, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    Json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))
}

/// Hold set B against set A. Returns the process exit code: 0 when every
/// (workload, metric) is ok, 1 when one regressed, 2 when none regressed but
/// one is unresolved.
pub fn compare(a_path: &Path, b_path: &Path) -> Result<u8, String> {
    let (a, b) = (load(a_path)?, load(b_path)?);
    let find = |set: &Json, name: &str| {
        set.get("workloads")
            .map_or(&[][..], Json::arr)
            .iter()
            .find(|w| w.get("name").and_then(Json::str) == Some(name))
            .cloned()
    };
    let (mut regressed, mut unresolved) = (0, 0);
    println!(
        "{:<18} {:<16} {:>14} {:>14} {:>9}  {:>7} {:>7}  verdict",
        "workload", "metric", "A median", "B median", "B/A", "spread", "bound"
    );
    for w in &WORKLOADS {
        let (Some(wa), Some(wb)) = (find(&a, w.name), find(&b, w.name)) else {
            println!("{:<18} not in both sets", w.name);
            continue;
        };
        for m in &END_TO_END {
            let field = |set: &Json, key: &str| set.get("end_to_end")?.get(m.name)?.get(key)?.num();
            let (Some(ma), Some(mb)) = (field(&wa, "median"), field(&wb, "median")) else {
                println!("{:<18} {:<16} missing", w.name, m.name);
                unresolved += 1;
                continue;
            };
            let worse =
                if m.better == "higher" { (ma - mb) / ma.abs() } else { (mb - ma) / ma.abs() };
            let wide = field(&wa, "spread").unwrap_or(0.0).max(field(&wb, "spread").unwrap_or(0.0));
            // A metric whose runs scatter more than its bound cannot show a
            // change of the size of the bound: unresolved, not unchanged.
            let verdict = if worse > m.bound {
                regressed += 1;
                "regressed"
            } else if wide > m.bound {
                unresolved += 1;
                "unresolved"
            } else {
                "ok"
            };
            println!(
                "{:<18} {:<16} {ma:>14.6} {mb:>14.6} {:>9.4}  {wide:>7.4} {:>7.4}  {verdict} (ratio base A, {})",
                w.name, m.name, mb / ma, m.bound, m.unit
            );
        }
        // Counts the program makes repeat exactly on one commit; one that
        // moves is worth a line, though heartbeats and frames follow time.
        let moved: Vec<String> = wa
            .get("per_layer")
            .map_or(&[][..], Json::fields)
            .iter()
            .filter(|(name, _)| {
                name.ends_with("_n") || name.ends_with("_bytes") || name.ends_with("_tensors")
            })
            .filter_map(|(name, va)| {
                let va = va.get("value")?.num()?;
                let vb = wb.get("per_layer")?.get(name)?.get("value")?.num()?;
                (va != vb).then(|| format!("{name} {va} -> {vb}"))
            })
            .collect();
        if !moved.is_empty() {
            println!("{:<18} counts that differ: {}", w.name, moved.join(", "));
        }
    }
    println!("{regressed} regressed, {unresolved} unresolved");
    Ok(if regressed > 0 {
        1
    } else if unresolved > 0 {
        2
    } else {
        0
    })
}
