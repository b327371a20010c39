//! `swt-experiments <figure|all|docs> [--flag value ...]`
//!
//! * a figure name (`fig2` … `fig11`, `table1/3/4`, `ablation`) runs that
//!   figure, writes its CSVs under `--out` and prints its measured block;
//! * `all` runs every figure in `FIGURES` order and writes `timings.csv`;
//! * `docs` rewrites each measured block of `EXPERIMENTS.md` (the fenced
//!   block whose info string is the figure's name) from the CSVs under
//!   `--out`, with the figure's verdicts.
//!
//! The flags are `ExpCtx`'s (see the library docs).

use std::time::Instant;
use swt_experiments::figures::FIGURES;
use swt_experiments::{fill_blocks, ExpCtx, Table};

fn main() {
    let mut args: Vec<String> = std::env::args().collect();
    let cmd = if args.len() > 1 { args.remove(1) } else { String::new() };
    let names: Vec<&str> = FIGURES.iter().map(|(name, _)| *name).collect();
    let chosen: Vec<_> = match cmd.as_str() {
        "all" | "docs" => FIGURES.to_vec(),
        _ => FIGURES.iter().filter(|(name, _)| *name == cmd).copied().collect(),
    };
    if chosen.is_empty() {
        eprintln!("usage: swt-experiments <{}|all|docs> [--flag value ...]", names.join("|"));
        std::process::exit(2);
    }
    let ctx = ExpCtx::from_vec(args);
    if cmd == "docs" {
        // A figure run over no apps computes nothing: its empty tables name
        // the CSVs to read back.
        let schema = ExpCtx { apps: Vec::new(), ..ctx.clone() };
        let blocks: Vec<(&str, String)> = chosen
            .iter()
            .map(|(name, figure)| {
                let mut fig = figure(&schema);
                fig.tables[0] = fig.tables[0].read_from(&ctx.out).unwrap_or_else(|e| panic!("{e}"));
                (*name, fig.render())
            })
            .collect();
        let md = std::fs::read_to_string("EXPERIMENTS.md").expect("read EXPERIMENTS.md");
        std::fs::write("EXPERIMENTS.md", fill_blocks(&md, &blocks)).expect("write EXPERIMENTS.md");
        return;
    }
    let mut timings = Table::new("timings", "bin,wall_s");
    for (name, figure) in chosen {
        let t0 = Instant::now();
        let fig = figure(&ctx);
        for table in &fig.tables {
            table.write(&ctx.out);
        }
        println!("\n== {name} ==\n{}", fig.render());
        timings.push(vec![name.to_string(), format!("{:.1}", t0.elapsed().as_secs_f64())]);
    }
    if cmd == "all" {
        timings.write(&ctx.out);
    }
}
