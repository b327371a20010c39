//! Search spaces: variable nodes, sampling, mutation and materialisation.

use crate::arch::ArchSeq;
use swt_data::AppKind;
use swt_nn::{LayerSpec, ModelSpec, SpecError};
use swt_tensor::Rng;

/// A variable node: an ordered set of layer choices (Section II). The
/// architecture sequence stores the chosen index per node.
#[derive(Debug, Clone, PartialEq)]
pub struct VariableNode {
    /// Human-readable node name (e.g. `block0/conv0`).
    pub name: String,
    /// The candidate operations.
    pub choices: Vec<LayerSpec>,
}

impl VariableNode {
    pub fn new(name: impl Into<String>, choices: Vec<LayerSpec>) -> Self {
        assert!(!choices.is_empty(), "variable node needs at least one choice");
        VariableNode { name: name.into(), choices }
    }

    /// Number of choices.
    pub fn arity(&self) -> usize {
        self.choices.len()
    }
}

/// How many rejection-sampling attempts before giving up. Invalid candidates
/// (e.g. pooling a feature map below its window) are possible in every
/// template, like in DeepHyper; valid ones are plentiful, so this bound is
/// never reached in practice.
const MAX_ATTEMPTS: usize = 10_000;

/// A search space: an application template plus its variable nodes.
///
/// The skeleton (inputs, fixed layers, output head) is defined per
/// application in [`crate::apps`]; this type owns the generic machinery —
/// sampling, mutation, size accounting and materialisation.
///
/// ```
/// use swt_space::{distance, SearchSpace};
/// use swt_data::AppKind;
/// use swt_tensor::Rng;
///
/// let space = SearchSpace::for_app(AppKind::Uno);
/// let mut rng = Rng::seed(7);
/// let parent = space.sample(&mut rng);          // a valid random candidate
/// let child = space.mutate(&parent, &mut rng);  // exactly one node changed
/// assert_eq!(distance(&parent, &child), 1);
/// let spec = space.materialize(&child).unwrap();
/// assert!(spec.param_count().unwrap() > 0);
/// ```
#[derive(Debug, Clone)]
pub struct SearchSpace {
    kind: AppKind,
    nodes: Vec<VariableNode>,
}

impl SearchSpace {
    /// Build the paper's search space for an application (Section VII-A,
    /// scaled per DESIGN.md §5).
    pub fn for_app(kind: AppKind) -> SearchSpace {
        SearchSpace { kind, nodes: crate::apps::variable_nodes(kind) }
    }

    /// The application this space belongs to.
    pub fn kind(&self) -> AppKind {
        self.kind
    }

    /// The variable nodes, in architecture-sequence order.
    pub fn nodes(&self) -> &[VariableNode] {
        &self.nodes
    }

    /// Number of variable nodes (`#VNs` in Table I).
    pub fn num_nodes(&self) -> usize {
        self.nodes.len()
    }

    /// Total number of candidate models (valid or not), as `f64` because the
    /// paper's spaces overflow u64 ("2558T models").
    pub fn size(&self) -> f64 {
        self.nodes.iter().map(|n| n.arity() as f64).product()
    }

    /// The operations selected by an architecture sequence; a sequence of
    /// the wrong length, or a choice out of its node's range, is an error
    /// (a sequence can arrive from a socket).
    pub fn ops(&self, seq: &ArchSeq) -> Result<Vec<&LayerSpec>, SpecError> {
        if seq.len() != self.nodes.len() {
            return Err(SpecError::Length { expected: self.nodes.len(), got: seq.len() });
        }
        let picks = self.nodes.iter().zip(seq.choices()).enumerate();
        picks
            .map(|(node, (n, &choice))| {
                let arity = n.arity();
                n.choices.get(choice as usize).ok_or(SpecError::Choice { node, choice, arity })
            })
            .collect()
    }

    /// Materialise a sequence into a model spec (the fixed skeleton with the
    /// chosen operations spliced in). Fails for structurally invalid
    /// candidates and for sequences [`SearchSpace::ops`] refuses.
    pub fn materialize(&self, seq: &ArchSeq) -> Result<ModelSpec, SpecError> {
        crate::apps::assemble(self.kind, &self.ops(seq)?)
    }

    /// True iff the sequence materialises into a valid model.
    pub fn is_valid(&self, seq: &ArchSeq) -> bool {
        self.materialize(seq).is_ok()
    }

    /// A uniformly random sequence, not necessarily valid.
    pub fn random_seq(&self, rng: &mut Rng) -> ArchSeq {
        ArchSeq::new(self.nodes.iter().map(|n| rng.below(n.arity()) as u16).collect())
    }

    /// A uniformly random *valid* candidate (rejection sampling, like
    /// DeepHyper's sampler discarding broken graphs).
    pub fn sample(&self, rng: &mut Rng) -> ArchSeq {
        for _ in 0..MAX_ATTEMPTS {
            let seq = self.random_seq(rng);
            if self.is_valid(&seq) {
                return seq;
            }
        }
        panic!("no valid candidate found in {MAX_ATTEMPTS} attempts — degenerate space?");
    }

    /// Mutate exactly one variable node to a *different* choice, retrying
    /// until the child is valid. By construction `d(parent, child) = 1`
    /// (Algorithm 1, line 8).
    ///
    /// # Panics
    /// Panics if every node is single-choice (no mutation possible).
    pub fn mutate(&self, parent: &ArchSeq, rng: &mut Rng) -> ArchSeq {
        assert_eq!(parent.len(), self.nodes.len());
        assert!(self.nodes.iter().any(|n| n.arity() > 1), "space has no mutable node");
        for _ in 0..MAX_ATTEMPTS {
            let node = rng.below(self.nodes.len());
            let arity = self.nodes[node].arity();
            if arity < 2 {
                continue;
            }
            // Pick a different choice uniformly.
            let current = parent.get(node) as usize;
            let mut pick = rng.below(arity - 1);
            if pick >= current {
                pick += 1;
            }
            let child = parent.with_choice(node, pick as u16);
            if self.is_valid(&child) {
                return child;
            }
        }
        panic!("no valid mutation found in {MAX_ATTEMPTS} attempts");
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::arch::distance;
    use swt_data::AppKind;

    #[test]
    fn all_spaces_sample_valid_models() {
        let mut rng = Rng::seed(1);
        for kind in AppKind::all() {
            let space = SearchSpace::for_app(kind);
            assert!(space.num_nodes() > 0);
            assert!(space.size() > 1e5, "{} space too small: {}", kind.name(), space.size());
            for _ in 0..10 {
                let seq = space.sample(&mut rng);
                assert_eq!(seq.len(), space.num_nodes());
                let spec = space.materialize(&seq).expect("sampled candidate must be valid");
                // And it must build + declare parameters.
                assert!(spec.param_count().unwrap() > 0, "{}", kind.name());
            }
        }
    }

    #[test]
    fn mutation_has_distance_one() {
        let mut rng = Rng::seed(2);
        for kind in AppKind::all() {
            let space = SearchSpace::for_app(kind);
            let parent = space.sample(&mut rng);
            for _ in 0..20 {
                let child = space.mutate(&parent, &mut rng);
                assert_eq!(distance(&parent, &child), 1, "{}", kind.name());
                assert!(space.is_valid(&child));
            }
        }
    }

    #[test]
    fn sampling_is_seed_deterministic() {
        let space = SearchSpace::for_app(AppKind::Mnist);
        let mut r1 = Rng::seed(7);
        let mut r2 = Rng::seed(7);
        for _ in 0..5 {
            assert_eq!(space.sample(&mut r1), space.sample(&mut r2));
        }
    }

    #[test]
    fn sampling_reaches_distinct_candidates() {
        let space = SearchSpace::for_app(AppKind::Uno);
        let mut rng = Rng::seed(3);
        let seqs: std::collections::HashSet<ArchSeq> =
            (0..50).map(|_| space.sample(&mut rng)).collect();
        assert!(seqs.len() > 40, "only {} distinct candidates in 50 draws", seqs.len());
    }

    #[test]
    fn ops_selects_choices() {
        let space = SearchSpace::for_app(AppKind::Uno);
        let seq = ArchSeq::new(vec![0; space.num_nodes()]);
        let ops = space.ops(&seq).unwrap();
        assert_eq!(ops.len(), space.num_nodes());
        for (node, op) in space.nodes().iter().zip(&ops) {
            assert_eq!(&&node.choices[0], op);
        }
    }

    #[test]
    fn ops_rejects_bad_choice_index() {
        let space = SearchSpace::for_app(AppKind::Uno);
        let mut v = vec![0u16; space.num_nodes()];
        v[1] = 200;
        let arity = space.nodes()[1].arity();
        let err = SpecError::Choice { node: 1, choice: 200, arity };
        assert_eq!(space.materialize(&ArchSeq::new(v.clone())), Err(err));
        v.pop();
        let err = SpecError::Length { expected: space.num_nodes(), got: v.len() };
        assert_eq!(space.materialize(&ArchSeq::new(v)), Err(err));
    }
}
