//! The strategy loop as a property of the loop alone: a fake backend
//! completes candidates in a seeded random order with scores that are a pure
//! function of `(id, arch)`, over seeds × strategies and provider policies ×
//! dispatch windows.
//!
//! The schedule: every run's canonical trace equals the same config's on a
//! backend that completes in id order, so completion order never reaches a
//! proposal. And the runner never blocks on a result with an evaluator idle
//! while the next proposal reads no score; `nas.dispatched_ahead` counts
//! exactly the proposals made before their canonical point: none at one
//! worker or in id order, at most the population less one under evolution.
//!
//! The lineage watermark it stamps on every dispatch (`Candidate::live_from`),
//! which is what a store acts on: the watermark never decreases, never passes
//! the candidate that carries it, and no candidate ever names a provider below
//! a watermark already issued, nor does a watermark pass the provider of a
//! candidate still out for evaluation — so dropping everything below it from
//! memory never takes a checkpoint a read still wants. And it is not vacuous:
//! under evolution it trails the dispatch front by at most the population
//! plus two windows.

use std::io;
use std::sync::Arc;
use swt_core::{TransferScheme, TransferStats};
use swt_data::AppKind;
use swt_nas::{
    run_nas_with_backend, BackendResult, Candidate, CandidateId, EvalBackend, EvalOutcome,
    NasConfig, NasTrace, ProviderPolicy, StrategyKind,
};
use swt_space::SearchSpace;
use swt_tensor::Rng;

struct OutOfOrder {
    window: usize,
    /// Completion order: `None` completes in id order.
    rng: Option<Rng>,
    pending: Vec<Candidate>,
    submitted: usize,
    /// Submits made before their canonical point: id `j` with fewer than
    /// `j + 1 - window` reports in.
    ahead: u64,
    /// Ids below this read no score at their canonical proposal point.
    score_free: usize,
    /// Highest watermark issued so far.
    issued: CandidateId,
    /// Widest gap seen between a candidate and its watermark.
    widest_gap: u64,
}

impl OutOfOrder {
    fn new(window: usize, rng: Option<Rng>, score_free: usize) -> Self {
        OutOfOrder {
            window,
            rng,
            pending: Vec::new(),
            submitted: 0,
            ahead: 0,
            score_free,
            issued: 0,
            widest_gap: 0,
        }
    }
}

/// A score that depends on the candidate alone, never on when it ran.
fn score_of(cand: &Candidate) -> f64 {
    let mut h = cand.id.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    for &c in cand.arch.choices() {
        h = (h ^ u64::from(c)).wrapping_mul(0x0100_0000_01B3);
    }
    (h % 1000) as f64
}

impl EvalBackend for OutOfOrder {
    fn capacity(&self) -> usize {
        self.window
    }

    fn submit(&mut self, cand: Candidate) -> io::Result<()> {
        assert_eq!(cand.id, self.submitted as u64, "proposals leave in id order");
        assert!(cand.live_from >= self.issued, "c{}: watermark went backwards", cand.id);
        assert!(cand.live_from <= cand.id, "c{}: watermark passed its own candidate", cand.id);
        // `issued` is now this watermark, so this covers every earlier one.
        assert!(
            cand.parent.is_none_or(|p| p >= cand.live_from),
            "c{} names provider {:?} below watermark {}",
            cand.id,
            cand.parent,
            cand.live_from
        );
        // Nor may it pass the provider of a candidate still out: that read
        // may not have happened yet (or happens again, after a reassignment).
        for out in &self.pending {
            assert!(
                out.parent.is_none_or(|p| p >= cand.live_from),
                "c{}: watermark {} passed provider {:?} of unreported c{}",
                cand.id,
                cand.live_from,
                out.parent,
                out.id
            );
        }
        self.issued = cand.live_from;
        self.widest_gap = self.widest_gap.max(cand.id - cand.live_from);
        // Ids are submitted in order, so everything below the oldest one
        // still out has been reported.
        let reported = self.pending.iter().map(|c| c.id).min().unwrap_or(cand.id);
        if cand.id >= reported + self.window as u64 {
            self.ahead += 1;
        }
        assert!(self.pending.len() < self.window, "more than a window in flight");
        self.pending.push(cand);
        self.submitted += 1;
        Ok(())
    }

    fn next_result(&mut self) -> io::Result<BackendResult> {
        assert!(
            self.pending.len() == self.window || self.submitted >= self.score_free,
            "waited with {} of {} evaluators busy while c{} read no score",
            self.pending.len(),
            self.window,
            self.submitted
        );
        let at = self.rng.as_mut().map_or(0, |rng| rng.below(self.pending.len()));
        let cand = self.pending.remove(at);
        let outcome = EvalOutcome {
            id: cand.id,
            score: score_of(&cand),
            train_secs: 0.0,
            transfer_secs: 0.0,
            save_secs: 0.0,
            checkpoint_bytes: 1,
            transfer: TransferStats::default(),
            epochs: 1,
        };
        Ok(BackendResult { cand, t_start: 0.0, t_end: 0.0, outcome })
    }
}

#[test]
fn the_watermark_is_monotone_and_never_passes_a_provider_still_to_be_named() {
    const CANDIDATES: usize = 60;
    const POPULATION: usize = 8;
    let space = Arc::new(SearchSpace::for_app(AppKind::Uno));
    // This binary's only test: the process-wide counter is this loop's.
    swt_obs::enable();
    let counted = swt_obs::registry::global().counter("nas.dispatched_ahead");
    let arms = [
        (StrategyKind::Evolution, ProviderPolicy::Parent),
        (StrategyKind::Evolution, ProviderPolicy::Nearest),
        (StrategyKind::Evolution, ProviderPolicy::Random),
        (StrategyKind::Random, ProviderPolicy::Parent),
    ];
    for seed in 0..6 {
        for (strategy, provider) in arms {
            for window in [1, 2, 4] {
                let cfg = NasConfig {
                    strategy,
                    population_size: POPULATION,
                    sample_size: 4,
                    provider,
                    ..NasConfig::quick(TransferScheme::Lcs, CANDIDATES, window, seed)
                };
                let score_free = match strategy {
                    StrategyKind::Evolution => POPULATION + window - 1,
                    StrategyKind::Random => CANDIDATES,
                };
                let run = |backend: &mut OutOfOrder| -> NasTrace {
                    let before = counted.get();
                    let trace = run_nas_with_backend("Uno", Arc::clone(&space), &cfg, backend)
                        .expect("the fake backend cannot fail");
                    assert_eq!(counted.get() - before, backend.ahead, "nas.dispatched_ahead");
                    trace
                };
                let mut shuffled =
                    OutOfOrder::new(window, Some(Rng::seed(seed ^ 0xBAC0)), score_free);
                let trace = run(&mut shuffled);
                let mut in_order = OutOfOrder::new(window, None, score_free);
                let in_order_trace = run(&mut in_order);

                let what = format!("seed {seed} {strategy:?} {provider:?} window {window}");
                assert_eq!(trace.events.len(), CANDIDATES, "{what}");
                assert_eq!(trace.canonical_csv(), in_order_trace.canonical_csv(), "{what}");
                assert_eq!(in_order.ahead, 0, "{what}: nothing waits, so nothing goes ahead");
                if window == 1 {
                    assert_eq!(shuffled.ahead, 0, "{what}");
                }
                if strategy == StrategyKind::Evolution {
                    assert!(shuffled.ahead < POPULATION as u64, "{what}: {}", shuffled.ahead);
                }
                let bound = (POPULATION + 2 * window) as u64;
                assert!(
                    strategy == StrategyKind::Random || shuffled.widest_gap <= bound,
                    "{what}: watermark trailed by {} > {bound}",
                    shuffled.widest_gap
                );
            }
        }
    }
}
