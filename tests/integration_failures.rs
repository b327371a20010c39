//! Integration: failure and edge paths — corrupt checkpoints, missing ids,
//! empty transfer plans, filesystem-backed stores, and degenerate NAS
//! budgets. Nothing here may panic; errors must surface as `Result`s or
//! empty statistics.

use std::sync::Arc;
use swt::checkpoint::{decode, encode, FormatError};
use swt::prelude::*;

#[path = "util/mod.rs"]
mod util;
use util::temp_dir;

#[test]
fn missing_checkpoint_is_an_error_not_a_panic() {
    let store = MemStore::new();
    assert!(store.load("nope").is_err());
    assert!(!store.exists("nope"));
    assert_eq!(store.size_bytes("nope"), None);
    assert!(!store.delete("nope"));
}

#[test]
fn corrupt_checkpoint_bytes_fail_to_decode() {
    // Truncations and flipped header bytes of a valid checkpoint must all
    // surface as FormatError.
    let mut rng = Rng::seed(1);
    let entries = vec![("w".to_string(), Tensor::rand_normal([3, 4], 0.0, 1.0, &mut rng))];
    let good = encode(&entries);
    assert_eq!(decode(&good).unwrap().len(), 1);

    let _: FormatError = decode(&[]).unwrap_err();
    for cut in [1, good.len() / 2, good.len() - 1] {
        assert!(decode(&good[..cut]).is_err(), "truncation at {cut} must fail");
    }
    let mut flipped = good.clone();
    flipped[0] ^= 0xFF;
    assert!(decode(&flipped).is_err(), "bad magic must fail");
}

#[test]
fn dir_store_round_trips_and_survives_deletes() {
    let dir = temp_dir("dirstore");
    let store = DirStore::new(&dir).unwrap();
    let mut rng = Rng::seed(2);
    let entries = vec![
        ("a/kernel".to_string(), Tensor::rand_normal([5, 2], 0.0, 1.0, &mut rng)),
        ("a/bias".to_string(), Tensor::rand_normal([2], 0.0, 1.0, &mut rng)),
    ];
    let bytes = store.save("c0", &entries).unwrap();
    assert!(bytes > 0);
    assert_eq!(store.size_bytes("c0"), Some(bytes));

    let back = store.load("c0").unwrap();
    assert_eq!(back.len(), entries.len());
    for ((n0, t0), (n1, t1)) in entries.iter().zip(&back) {
        assert_eq!(n0, n1);
        assert!(t0.approx_eq(t1, 0.0));
    }
    assert!(store.delete("c0"));
    assert!(store.load("c0").is_err());
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn empty_transfer_plan_is_a_harmless_noop() {
    // A receiver with no shapes in common with the provider: the plan is
    // empty and applying it changes nothing.
    let provider = ShapeSeq::from_params(vec![("p0/kernel".to_string(), Shape::new([7, 7]))]);
    let receiver = ShapeSeq::from_params(vec![("r0/kernel".to_string(), Shape::new([3, 5]))]);
    let plan = TransferPlan::build(Matcher::Lcs, &provider, &receiver);
    assert!(plan.is_empty());
    assert_eq!(plan.coverage(), 0.0);

    let space = SearchSpace::for_app(AppKind::Uno);
    let mut rng = Rng::seed(3);
    let spec = space.materialize(&space.sample(&mut rng)).unwrap();
    let mut model = Model::build(&spec, 4).unwrap();
    let before = model.state_dict();
    let stats = apply_transfer(&plan, &[], &mut model);
    assert_eq!((stats.tensors, stats.bytes), (0, 0));
    let after = model.state_dict();
    for ((_, t0), (_, t1)) in before.iter().zip(&after) {
        assert!(t0.approx_eq(t1, 0.0));
    }
}

#[test]
fn transfer_plan_skips_pairs_whose_checkpoint_is_missing() {
    // A plan whose provider tensors are absent from the checkpoint must
    // count skips rather than fail.
    let space = SearchSpace::for_app(AppKind::Uno);
    let mut rng = Rng::seed(5);
    let spec = space.materialize(&space.sample(&mut rng)).unwrap();
    let seq = ShapeSeq::of(&spec).unwrap();
    let plan = TransferPlan::build(Matcher::Lcs, &seq, &seq);
    assert!(!plan.is_empty());

    let mut model = Model::build(&spec, 6).unwrap();
    let stats = apply_transfer(&plan, &[], &mut model);
    assert_eq!(stats.tensors, 0);
    assert_eq!(stats.skipped, plan.tensors());
}

#[test]
fn one_candidate_budget_still_completes() {
    let problem = Arc::new(AppKind::Uno.problem(DataScale::Quick, 11));
    let space = Arc::new(SearchSpace::for_app(AppKind::Uno));
    let store: Arc<dyn CheckpointStore> = Arc::new(MemStore::new());
    let cfg = NasConfig::quick(TransferScheme::Lcs, 1, 2, 9);
    let trace = run_nas(problem, space, store, &cfg);
    assert_eq!(trace.events.len(), 1);
    let e = &trace.events[0];
    assert!(e.parent.is_none(), "a lone first candidate has no parent");
    assert_eq!(e.transfer_tensors, 0);
    assert!(e.score.is_finite());
}

#[test]
fn swt_refuses_flags_it_does_not_know() {
    let swt = |args: &[&str]| {
        let out = std::process::Command::new(env!("CARGO_BIN_EXE_swt"))
            .args(args)
            .output()
            .expect("the swt binary runs");
        (out.status.code(), String::from_utf8_lossy(&out.stderr).into_owned())
    };
    for (args, named) in [
        (&["run", "--candidates=2"][..], "`--candidates=2`"),
        (&["run", "--rungs", "1,4"], "`--rungs`"),
        (&["run", "--workers", "1", "--rugns", "1,4"], "`--rugns`"),
        (&["run", "--seed"], "`--seed`"),
        (&["dist-run", "--eta", "4"], "`--eta`"),
        (&["dist-top", "--addr", "127.0.0.1:1", "--early-stop", "2:0.02"], "`--early-stop`"),
        (
            &["dist-worker", "--connect", "127.0.0.1:1", "--worker-id", "1"],
            "unknown flag `--worker-id`",
        ),
        (&["dist-run", "--kill-after", "1:3"], "unknown flag `--kill-after`"),
        (&["dist-run", "--join-after", "2"], "unknown flag `--join-after`"),
        // A zero epoch count is refused before any evaluator or worker runs.
        (&["run", "--epochs", "0"], "--epochs"),
        (&["dist-run", "--epochs", "0"], "--epochs"),
        (&["dist-run", "--workers", "3", "--max-workers", "2"], "--max-workers"),
        (&["ckpt-server", "--spill", "x", "--bind=127.0.0.1:0"], "`--bind=127.0.0.1:0`"),
    ] {
        let (code, stderr) = swt(args);
        assert_eq!(code, Some(1), "{args:?} must fail: {stderr}");
        assert!(stderr.starts_with(&format!("{}: ", args[0])), "{args:?}: {stderr}");
        assert!(stderr.contains(named), "{args:?} must name {named}: {stderr}");
    }
    // A flag `dist-run` accepts is still unknown to `run`.
    let (code, stderr) = swt(&["run", "--store", "x"]);
    assert_eq!(code, Some(1), "{stderr}");
    assert!(stderr.contains("`--store`"), "{stderr}");
}
