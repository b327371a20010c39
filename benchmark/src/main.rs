//! `benchmark`: one end-to-end search benchmark with per-layer attribution
//! measured from outside. See README.md; run it through run.sh, which
//! builds the `swt` binary the distributed workload starts as children.

mod api;
mod host;
mod json;
mod layers;
mod run;
mod sets;
mod stats;
mod timed;
mod workload;

use json::Json;
use std::path::PathBuf;
use std::process::ExitCode;
use workload::{Workload, RUN_SECONDS, SUITE_SEED, WORKLOADS};

const USAGE: &str = "\
usage: benchmark run --workload NAME [--seed N] [--seconds S] [--trace 0|1] [--scratch DIR] [--out FILE] [--quiet]
       benchmark set [--workload NAME]... [--seed N] [--runs N] [--seconds S] [--scratch DIR] [--out FILE]
       benchmark compare A.json B.json
       benchmark golden --workload NAME [--searches N] [--scratch DIR]
       benchmark manifest";

/// `--key value` pairs and bare flags, in order.
struct Args(Vec<String>);

impl Args {
    fn all(&self, key: &str) -> Vec<&str> {
        self.0.windows(2).filter(|w| w[0] == key).map(|w| w[1].as_str()).collect()
    }

    fn opt(&self, key: &str) -> Option<&str> {
        self.all(key).pop()
    }

    fn flag(&self, key: &str) -> bool {
        self.0.iter().any(|a| a == key)
    }

    fn parse<T: std::str::FromStr>(&self, key: &str, default: T) -> Result<T, String> {
        match self.opt(key) {
            None => Ok(default),
            Some(raw) => raw.parse().map_err(|_| format!("invalid value for {key}: `{raw}`")),
        }
    }

    fn workload(&self) -> Result<&'static Workload, String> {
        let name = self.opt("--workload").ok_or("--workload NAME is required")?;
        Workload::by_name(name).ok_or_else(|| {
            let names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
            format!("unknown workload `{name}`; the workloads are {}", names.join(", "))
        })
    }

    fn scratch(&self) -> PathBuf {
        self.opt("--scratch").map_or_else(|| PathBuf::from(".bench_scratch"), PathBuf::from)
    }

    fn seconds(&self) -> Result<f64, String> {
        let seconds: f64 = self.parse("--seconds", RUN_SECONDS as f64)?;
        if seconds.is_finite() && (1.0..=60.0).contains(&seconds) {
            Ok(seconds)
        } else {
            Err(format!("--seconds wants 1..=60, got {seconds}"))
        }
    }
}

fn run(args: &Args) -> Result<ExitCode, String> {
    let trace = match args.opt("--trace").unwrap_or("0") {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace wants 0 or 1, got `{other}`")),
    };
    let opts = run::Opts {
        workload: args.workload()?,
        seed: args.parse("--seed", SUITE_SEED)?,
        seconds: args.seconds()?,
        trace,
        scratch: args.scratch(),
    };
    let outcome = run::run(&opts)?;
    let correct = outcome.failures.is_empty();
    let metrics = Json::Obj(
        outcome
            .metrics
            .iter()
            .map(|m| {
                let fields = vec![
                    ("value".to_string(), Json::Num(m.value)),
                    ("unit".to_string(), Json::Str(m.unit.clone())),
                ];
                (m.name.clone(), Json::Obj(fields))
            })
            .collect(),
    );
    let result = vec![
        ("correct".to_string(), Json::Bool(correct)),
        ("attempted".to_string(), Json::Num(outcome.attempted as f64)),
        ("failed".to_string(), Json::Num(outcome.failed as f64)),
        ("metrics".to_string(), metrics),
    ];
    let strings = |xs: &[String]| Json::Arr(xs.iter().map(|s| Json::Str(s.clone())).collect());
    if let Some(path) = args.opt("--out") {
        let mut full = result.clone();
        full.push(("failures".into(), strings(&outcome.failures)));
        full.push(("warnings".into(), strings(&outcome.warnings)));
        full.push(("detail".into(), outcome.detail.clone()));
        std::fs::write(path, Json::Obj(full).pretty()).map_err(|e| format!("{path}: {e}"))?;
    }
    if !args.flag("--quiet") {
        println!(
            "{} seed {} {} run, {} s",
            opts.workload.name,
            opts.seed,
            if trace { "traced" } else { "timed" },
            opts.seconds
        );
        println!("{}", outcome.detail.pretty());
        for m in &outcome.metrics {
            println!("  {:<36} {:>16.6} {}", m.name, m.value, m.unit);
        }
        println!(
            "  {:<36} {:>16.6} ratio ({} of {} operations)",
            "fail_share",
            outcome.failed as f64 / outcome.attempted.max(1) as f64,
            outcome.failed,
            outcome.attempted
        );
    }
    for warning in &outcome.warnings {
        eprintln!("warning: {warning}");
    }
    for failure in &outcome.failures {
        eprintln!("FAILED CHECK: {failure}");
    }
    // The driver reads the last line of standard output.
    println!("{}", Json::Obj(result).compact());
    Ok(if correct { ExitCode::SUCCESS } else { ExitCode::FAILURE })
}

fn set(args: &Args) -> Result<ExitCode, String> {
    let mut workloads = Vec::new();
    for name in args.all("--workload") {
        workloads
            .push(Workload::by_name(name).ok_or_else(|| format!("unknown workload `{name}`"))?);
    }
    if workloads.is_empty() {
        workloads = WORKLOADS.iter().collect();
    }
    let scratch = args.scratch();
    let opts = sets::SetOpts {
        workloads,
        seed: args.parse("--seed", SUITE_SEED)?,
        runs: args.parse("--runs", 5usize)?.max(1),
        seconds: args.seconds()?,
        out: args.opt("--out").map_or_else(|| scratch.join("latest.json"), PathBuf::from),
        scratch,
    };
    sets::run_set(&opts)?;
    Ok(ExitCode::SUCCESS)
}

fn main() -> ExitCode {
    let args = Args(std::env::args().skip(2).collect());
    let outcome = match std::env::args().nth(1).as_deref() {
        Some("run") => run(&args),
        Some("set") => set(&args),
        Some("compare") => match args.0.as_slice() {
            [a, b] => sets::compare(a.as_ref(), b.as_ref()).map(ExitCode::from),
            _ => Err(USAGE.to_string()),
        },
        Some("golden") => args.workload().and_then(|w| {
            run::write_golden(w, args.parse("--searches", 8usize)?, &args.scratch())?;
            println!("wrote {}", run::golden_path(w).display());
            Ok(ExitCode::SUCCESS)
        }),
        Some("manifest") => {
            print!("{}", workload::manifest().pretty());
            Ok(ExitCode::SUCCESS)
        }
        _ => Err(USAGE.to_string()),
    };
    outcome.unwrap_or_else(|message| {
        eprintln!("benchmark: {message}");
        ExitCode::from(3)
    })
}
