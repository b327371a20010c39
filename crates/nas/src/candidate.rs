//! Candidate records flowing between the scheduler and the evaluators.

use swt_space::ArchSeq;

/// Candidate identifier, unique within one NAS run and doubling as the
/// checkpoint id (`c{id}`).
pub type CandidateId = u64;

/// A candidate dispatched for evaluation. When `parent` is set and the run
/// uses a transfer scheme, the evaluator reads the parent's checkpoint and
/// transfers matched weights before training (Fig. 6 steps ④/⑤).
#[derive(Debug, Clone, PartialEq)]
pub struct Candidate {
    pub id: CandidateId,
    pub arch: ArchSeq,
    /// The provider (mutation parent) — `None` for warm-up/random candidates.
    pub parent: Option<CandidateId>,
    /// The lineage watermark when this candidate was dispatched: no
    /// candidate, this one included, will ever name a provider with an id
    /// below it, so those checkpoints need not stay in memory (the strategy
    /// loop stamps it; `0` retires nothing).
    pub live_from: CandidateId,
}

impl Candidate {
    /// A candidate that retires nothing (`live_from` 0).
    pub fn new(id: CandidateId, arch: ArchSeq, parent: Option<CandidateId>) -> Self {
        Candidate { id, arch, parent, live_from: 0 }
    }

    /// The checkpoint id used for this candidate in the store.
    pub fn checkpoint_id(&self) -> String {
        format!("c{}", self.id)
    }
}

/// A candidate with its evaluation outcome, as fed back to the strategy.
#[derive(Debug, Clone, PartialEq)]
pub struct ScoredCandidate {
    pub id: CandidateId,
    pub arch: ArchSeq,
    pub score: f64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn checkpoint_id_is_stable() {
        let c = Candidate::new(17, ArchSeq::new(vec![1, 2]), None);
        assert_eq!(c.checkpoint_id(), "c17");
    }
}
