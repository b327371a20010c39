//! The lineage watermark the strategy loop stamps on every dispatch
//! (`Candidate::live_from`), as a property of the loop alone: a fake backend
//! completes candidates in a seeded random order with made-up scores, over
//! seeds × provider policies × dispatch windows × promotion waves on/off.
//!
//! What a store acts on: the watermark never decreases, never passes the
//! candidate that carries it, and no candidate ever names a provider below a
//! watermark already issued, nor does a watermark pass the provider of a
//! candidate still out for evaluation — so dropping everything below it from
//! memory never takes a checkpoint a read still wants. And it is not vacuous:
//! under evolution without promotion waves it trails the dispatch front by at
//! most the population plus two windows.

use std::io;
use std::sync::Arc;
use swt_core::{TransferScheme, TransferStats};
use swt_data::AppKind;
use swt_nas::{
    run_nas_with_backend, BackendResult, Candidate, CandidateId, EvalBackend, EvalOutcome,
    FidelityConfig, NasConfig, ProviderPolicy, StopReason, StrategyKind,
};
use swt_space::SearchSpace;
use swt_tensor::Rng;

struct OutOfOrder {
    window: usize,
    rng: Rng,
    pending: Vec<Candidate>,
    /// Highest watermark issued so far.
    issued: CandidateId,
    /// Widest gap seen between a candidate and its watermark.
    widest_gap: u64,
}

impl EvalBackend for OutOfOrder {
    fn capacity(&self) -> usize {
        self.window
    }

    fn submit(&mut self, cand: Candidate) -> io::Result<()> {
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
        assert!(self.pending.len() < self.window, "more than a window in flight");
        self.pending.push(cand);
        Ok(())
    }

    fn next_result(&mut self) -> io::Result<BackendResult> {
        let cand = self.pending.swap_remove(self.rng.below(self.pending.len()));
        let outcome = EvalOutcome {
            id: cand.id,
            score: f64::from(self.rng.below(1000) as u32),
            train_secs: 0.0,
            transfer_secs: 0.0,
            save_secs: 0.0,
            checkpoint_bytes: 1,
            transfer: TransferStats::default(),
            epochs: 1,
            stop: StopReason::BudgetExhausted,
        };
        Ok(BackendResult { cand, t_start: 0.0, t_end: 0.0, outcome })
    }
}

#[test]
fn the_watermark_is_monotone_and_never_passes_a_provider_still_to_be_named() {
    const CANDIDATES: usize = 60;
    const POPULATION: usize = 8;
    let space = Arc::new(SearchSpace::for_app(AppKind::Uno));
    for seed in 0..6 {
        for provider in [ProviderPolicy::Parent, ProviderPolicy::Nearest, ProviderPolicy::Random] {
            for window in [1, 2, 4] {
                for rungs in [vec![], vec![1, 2, 3]] {
                    let waves = !rungs.is_empty();
                    let cfg = NasConfig {
                        strategy: StrategyKind::Evolution,
                        population_size: POPULATION,
                        sample_size: 4,
                        provider,
                        fidelity: FidelityConfig::new(2, rungs, 0.0, None).unwrap(),
                        ..NasConfig::quick(TransferScheme::Lcs, CANDIDATES, window, seed)
                    };
                    let mut backend = OutOfOrder {
                        window,
                        rng: Rng::seed(seed ^ 0xBAC0),
                        pending: Vec::new(),
                        issued: 0,
                        widest_gap: 0,
                    };
                    let trace = run_nas_with_backend("Uno", Arc::clone(&space), &cfg, &mut backend)
                        .expect("the fake backend cannot fail");
                    let what = format!("seed {seed} {provider:?} window {window} waves {waves}");
                    if waves {
                        // 60 → 30 → 15 promotions; the last wave retires the
                        // first one's checkpoints as it resumes them.
                        assert_eq!(trace.events.len(), CANDIDATES + 30 + 15, "{what}");
                        assert!(backend.issued >= CANDIDATES as u64, "{what}: nothing retired");
                    } else {
                        assert_eq!(trace.events.len(), CANDIDATES, "{what}");
                        let bound = (POPULATION + 2 * window) as u64;
                        assert!(
                            backend.widest_gap <= bound,
                            "{what}: watermark trailed by {} > {bound}",
                            backend.widest_gap
                        );
                    }
                }
            }
        }
    }
}
