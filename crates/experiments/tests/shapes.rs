//! The paper's shapes that hold at quick scale, pinned through each
//! figure's own predicate on a quick-scale run at seed 1 (the first
//! recorded seed), over CIFAR-10 and Uno. Only predicates whose table does
//! not depend on the wall clock qualify, and only claims that hold at seed
//! 1: the ablation's "parent ≥ random" does not on Uno (EXPERIMENTS.md).

use std::path::PathBuf;
use swt_experiments::figures::{fig4, fig7, fig9};
use swt_experiments::{ExpCtx, Figure};

/// A quick-scale context at seed 1 writing under its own temporary
/// directory, removed when the guard drops.
struct Run {
    ctx: ExpCtx,
}

impl Run {
    fn new(name: &str) -> Run {
        let out: PathBuf =
            std::env::temp_dir().join(format!("swt_shapes_{name}_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&out);
        let args = ["shapes", "--apps", "cifar10,uno", "--seeds", "1", "--workers", "2", "--out"];
        let mut args: Vec<String> = args.iter().map(|s| s.to_string()).collect();
        args.push(out.to_string_lossy().into_owned());
        Run { ctx: ExpCtx::from_vec(args) }
    }
}

impl Drop for Run {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.ctx.out);
    }
}

fn assert_holds(fig: &Figure, claims: &[&str]) {
    let checks = fig.checks();
    for claim in claims {
        let found = checks.iter().find(|c| c.claim == *claim);
        let c = found.unwrap_or_else(|| panic!("no check {claim:?} among {checks:#?}"));
        assert!(c.ok, "{claim} does not hold ({})\n{}", c.detail, fig.render());
    }
}

#[test]
fn lcs_tail_beats_baseline_and_tau_b_keeps_up() {
    // Fig. 9 fully trains samples of the runs Fig. 7 searched: one directory.
    let run = Run::new("fig7_fig9");
    let claims = ["CIFAR-10: LCS tail > Baseline tail", "Uno: LCS tail > Baseline tail"];
    assert_holds(&fig7(&run.ctx), &claims);
    let claims =
        ["CIFAR-10: LCS tau-b ≥ Baseline tau-b − 0.1", "Uno: LCS tau-b ≥ Baseline tau-b − 0.1"];
    assert_holds(&fig9(&run.ctx), &claims);
}

#[test]
fn lcs_transfers_at_least_where_lp_does() {
    let run = Run::new("fig4");
    let claims =
        ["CIFAR-10: LCS transferable ≥ LP transferable", "Uno: LCS transferable ≥ LP transferable"];
    assert_holds(&fig4(&run.ctx), &claims);
}
