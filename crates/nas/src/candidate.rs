//! Candidate records flowing between the scheduler and the evaluators.

use swt_space::ArchSeq;
use swt_wire::{ensure, WireError};

/// Candidate identifier, unique within one NAS run and doubling as the
/// checkpoint id (`c{id}`).
pub type CandidateId = u64;

swt_wire::wire_struct! {
    /// A candidate dispatched for evaluation. When `parent` is set and the run
    /// uses a transfer scheme, the evaluator reads the parent's checkpoint and
    /// transfers matched weights before training (Fig. 6 steps ④/⑤). It is
    /// also what the coordinator sends a worker, fields in declaration order.
    #[derive(Debug, Clone, PartialEq)]
    pub struct Candidate {
        pub id: CandidateId,
        /// The provider (mutation parent) — `None` for warm-up/random candidates.
        pub parent: Option<CandidateId>,
        pub arch: ArchSeq,
        /// The lineage watermark when this candidate was dispatched: no
        /// candidate, this one included, will ever name a provider with an id
        /// below it, so those checkpoints need not stay in memory (the strategy
        /// loop stamps it; `0` retires nothing). A reassigned candidate
        /// carries it unchanged, and the evaluator acts on the running maximum.
        pub live_from: CandidateId,
    }
    check = Candidate::check;
}

impl Candidate {
    /// A candidate that retires nothing (`live_from` 0).
    pub fn new(id: CandidateId, arch: ArchSeq, parent: Option<CandidateId>) -> Self {
        Candidate { id, arch, parent, live_from: 0 }
    }

    /// The watermark rules, checked on the wire both ways: the watermark
    /// retires neither the candidate itself nor its provider.
    fn check(&self) -> Result<(), WireError> {
        ensure(self.live_from <= self.id, "watermark beyond the candidate itself")?;
        ensure(self.parent.is_none_or(|p| p >= self.live_from), "provider below the watermark")
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
