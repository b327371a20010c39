//! Integration: provider checkpoint → transfer plan → receiver model, over
//! real search-space candidates (the paper's Fig. 6 steps ③–⑤ in-process).

use swt::prelude::*;

/// Find a (parent, mutated child) pair whose LCS plan moves at least one
/// tensor. Mutations can change every shape, so scan a few seeds.
fn sharing_pair(space: &SearchSpace) -> (ModelSpec, ModelSpec, TransferPlan) {
    for seed in 0..32 {
        let mut rng = Rng::seed(seed);
        let parent = space.sample(&mut rng);
        let child = space.mutate(&parent, &mut rng);
        let pspec = space.materialize(&parent).unwrap();
        let cspec = space.materialize(&child).unwrap();
        let plan = TransferPlan::build(
            Matcher::Lcs,
            &ShapeSeq::of(&pspec).unwrap(),
            &ShapeSeq::of(&cspec).unwrap(),
        );
        if !plan.is_empty() {
            return (pspec, cspec, plan);
        }
    }
    panic!("no shareable parent/child pair in 32 seeds");
}

#[test]
fn lcs_transfer_copies_parent_weights_into_child() {
    let space = SearchSpace::for_app(AppKind::Uno);
    let (pspec, cspec, plan) = sharing_pair(&space);

    let provider = Model::build(&pspec, 1).unwrap();
    let ckpt = provider.state_dict();
    let mut receiver = Model::build(&cspec, 2).unwrap();
    let before = receiver.state_dict();

    let stats = apply_transfer(&plan, &ckpt, &mut receiver);
    assert_eq!(stats.tensors, plan.tensors(), "plan fully applied");
    assert!(stats.bytes > 0);
    assert_eq!(stats.skipped, 0, "plans over materialized specs never skip");

    // Every transferred receiver tensor now holds the provider's values.
    let after = receiver.state_dict();
    let lookup = |entries: &[(String, Tensor)], name: &str| {
        entries.iter().find(|(n, _)| n == name).map(|(_, t)| t.clone()).unwrap()
    };
    for (pname, rname) in plan.pairs() {
        let want = lookup(&ckpt, pname);
        let got = lookup(&after, rname);
        assert!(got.approx_eq(&want, 0.0), "{pname} -> {rname} not copied");
    }
    // And at least one untouched parameter kept the receiver's own init.
    let touched: std::collections::HashSet<&str> =
        plan.pairs().iter().map(|(_, r)| r.as_str()).collect();
    let untouched_kept = before
        .iter()
        .filter(|(n, _)| !touched.contains(n.as_str()))
        .all(|(n, t)| lookup(&after, n).approx_eq(t, 0.0));
    assert!(untouched_kept, "non-plan parameters must be untouched");
}

#[test]
fn transferred_model_still_trains_and_infers() {
    let space = SearchSpace::for_app(AppKind::Uno);
    let (pspec, cspec, plan) = sharing_pair(&space);
    let provider = Model::build(&pspec, 3).unwrap();
    let mut receiver = Model::build(&cspec, 4).unwrap();
    apply_transfer(&plan, &provider.state_dict(), &mut receiver);

    let problem = AppKind::Uno.problem(DataScale::Quick, 5);
    let trainer = Trainer::new(problem.loss, problem.metric);
    let cfg = TrainConfig {
        epochs: 1,
        batch_size: problem.batch_size,
        adam: Default::default(),
        shuffle_seed: 6,
        early_stop: None,
        convergence: None,
    };
    let report = trainer.fit(&mut receiver, &problem.train, &problem.val, &cfg);
    assert!(report.final_metric.is_finite(), "post-transfer training diverged");
}

#[test]
fn lp_and_lcs_plans_agree_on_identical_sequences() {
    // Same architecture on both sides: both matchers must transfer
    // everything (coverage 1.0), and the pairs must be the identity map.
    let space = SearchSpace::for_app(AppKind::Cifar10);
    let mut rng = Rng::seed(9);
    let spec = space.materialize(&space.sample(&mut rng)).unwrap();
    let seq = ShapeSeq::of(&spec).unwrap();
    for matcher in [Matcher::Lp, Matcher::Lcs] {
        let plan = TransferPlan::build(matcher, &seq, &seq);
        assert!((plan.coverage() - 1.0).abs() < 1e-12, "{matcher:?}");
        assert!(plan.pairs().iter().all(|(p, r)| p == r), "{matcher:?}");
    }
}

#[test]
fn lp_never_moves_more_tensors_than_lcs_along_sampled_lineages() {
    // "Note that LP is a subset of LCS, therefore LCS will always transfer
    // at least as many tensors as LP." (Section IV-A) Checked on what a
    // search actually produces: every parent → `mutate` child step of four
    // 16-generation lineages per application, 64 pairs each.
    for app in AppKind::all() {
        let space = SearchSpace::for_app(app);
        let (mut lp_total, mut lcs_total) = (0, 0);
        for lineage in 0..4 {
            let mut rng = Rng::seed(0x11AE + lineage);
            let mut parent = space.sample(&mut rng);
            for step in 0..16 {
                let child = space.mutate(&parent, &mut rng);
                let provider = ShapeSeq::of(&space.materialize(&parent).unwrap()).unwrap();
                let receiver = ShapeSeq::of(&space.materialize(&child).unwrap()).unwrap();
                let lp = TransferPlan::build(Matcher::Lp, &provider, &receiver).tensors();
                let lcs = TransferPlan::build(Matcher::Lcs, &provider, &receiver).tensors();
                assert!(
                    lp <= lcs,
                    "{}: lineage {lineage} step {step}: LP moves {lp} tensors, LCS {lcs}",
                    app.name()
                );
                (lp_total, lcs_total) = (lp_total + lp, lcs_total + lcs);
                parent = child;
            }
        }
        assert!(lp_total > 0, "{}: no pair shared a prefix, the check is vacuous", app.name());
        println!("{}: 64 pairs, LP {lp_total} tensors, LCS {lcs_total}", app.name());
    }
}
