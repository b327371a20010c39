//! Search strategies: random search and regularized evolution (Algorithm 1),
//! the latter integrated with weight transfer by always designating the
//! mutation parent as the provider (`d = 1` by construction).

use crate::candidate::{Candidate, CandidateId, ScoredCandidate};
use std::collections::VecDeque;
use std::sync::Arc;
use swt_space::SearchSpace;
use swt_tensor::Rng;

/// A search strategy proposes candidates and learns from their scores.
/// Implementations must be deterministic given the RNG and the report order.
pub trait SearchStrategy: Send {
    /// Propose the next candidate to evaluate.
    fn next(&mut self, rng: &mut Rng) -> Candidate;

    /// Receive a scored candidate. Reports arrive in id order, whatever
    /// order the evaluations finished in; a report draws nothing from the
    /// RNG.
    fn report(&mut self, scored: ScoredCandidate);

    /// The oldest id a future [`SearchStrategy::next`] can still name as a
    /// provider. Never decreases; every id below it is dead to the lineage.
    fn live_from(&self) -> CandidateId;

    /// The number of reports below which [`SearchStrategy::next`] reads no
    /// score: a proposal made with fewer reports in is the same whenever it
    /// is made, so the runner may make it early.
    fn score_free_below(&self) -> usize;
}

/// Uniform random search over valid candidates (the simplest strategy in
/// Section II; used here to generate the analysis traces of Figs. 2/4/5).
pub struct RandomSearch {
    space: Arc<SearchSpace>,
    next_id: CandidateId,
}

impl RandomSearch {
    pub fn new(space: Arc<SearchSpace>) -> Self {
        RandomSearch { space, next_id: 0 }
    }
}

impl SearchStrategy for RandomSearch {
    fn next(&mut self, rng: &mut Rng) -> Candidate {
        let id = self.next_id;
        self.next_id += 1;
        Candidate::new(id, self.space.sample(rng), None)
    }

    fn report(&mut self, _scored: ScoredCandidate) {}

    fn live_from(&self) -> CandidateId {
        self.next_id // random candidates have no provider at all
    }

    fn score_free_below(&self) -> usize {
        usize::MAX // no proposal ever reads a score
    }
}

/// Which population member becomes the weight-transfer provider of a new
/// child. The paper integrates with evolution so the mutation parent is
/// always the provider (`d = 1`, zero selection cost); the other policies
/// exist for the ablation study of that design choice.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ProviderPolicy {
    /// The mutation parent (Algorithm 1; the paper's choice).
    #[default]
    Parent,
    /// Scan the population for the member nearest in architecture distance
    /// (ties by score) — the general selector of Section V-B, costing a
    /// population scan per child.
    Nearest,
    /// A uniformly random population member — the strawman Figs. 4/5 show
    /// to be unreliable.
    Random,
    /// No provider: candidates train from scratch even though mutation
    /// still guides the search (isolates search-strategy effects from
    /// transfer effects).
    None,
}

/// Regularized (aging) evolution [Real et al. 2019], as integrated with
/// weight transfer in the paper's Algorithm 1:
///
/// * Until `population_size` candidates have been *scored*, propose random
///   candidates trained from scratch ("when the search strategy has trained
///   enough new candidates from scratch", Section VI).
/// * Afterwards, sample `sample_size` members, pick the best as the parent,
///   mutate one variable node to produce the child, and designate the
///   parent as the weight-transfer provider.
/// * The population ages: the oldest member is evicted when the population
///   exceeds `population_size`.
pub struct RegularizedEvolution {
    space: Arc<SearchSpace>,
    population_size: usize,
    sample_size: usize,
    provider: ProviderPolicy,
    population: VecDeque<ScoredCandidate>,
    scored: usize,
    next_id: CandidateId,
}

impl RegularizedEvolution {
    /// Paper configuration: population 64, sample 32 (Section VII-C).
    pub fn paper(space: Arc<SearchSpace>) -> Self {
        Self::new(space, 64, 32)
    }

    pub fn new(space: Arc<SearchSpace>, population_size: usize, sample_size: usize) -> Self {
        Self::with_provider(space, population_size, sample_size, ProviderPolicy::Parent)
    }

    /// Evolution with an explicit provider-selection policy (ablations).
    pub fn with_provider(
        space: Arc<SearchSpace>,
        population_size: usize,
        sample_size: usize,
        provider: ProviderPolicy,
    ) -> Self {
        assert!(population_size > 0 && sample_size > 0);
        assert!(sample_size <= population_size, "cannot sample more than the population");
        RegularizedEvolution {
            space,
            population_size,
            sample_size,
            provider,
            population: VecDeque::with_capacity(population_size + 1),
            scored: 0,
            next_id: 0,
        }
    }

    /// Current population (oldest first).
    pub fn population(&self) -> &VecDeque<ScoredCandidate> {
        &self.population
    }

    /// Total candidates scored so far.
    pub fn scored(&self) -> usize {
        self.scored
    }
}

impl SearchStrategy for RegularizedEvolution {
    fn next(&mut self, rng: &mut Rng) -> Candidate {
        let id = self.next_id;
        self.next_id += 1;
        // Warm-up phase: random candidates from scratch until the population
        // is filled (|P| >= N, Algorithm 1 line 5).
        if self.population.len() < self.population_size {
            return Candidate::new(id, self.space.sample(rng), None);
        }
        // Tournament: sample S of N, best wins (lines 6-7).
        let indices = rng.sample_indices(self.population.len(), self.sample_size);
        let parent = indices
            .into_iter()
            .map(|i| &self.population[i])
            .max_by(|a, b| a.score.partial_cmp(&b.score).unwrap_or(std::cmp::Ordering::Equal))
            .expect("sample is non-empty");
        let parent_id = parent.id;
        // Mutate one variable node (line 8); d(parent, child) = 1.
        let child_arch = self.space.mutate(&parent.arch, rng);
        let provider = match self.provider {
            ProviderPolicy::Parent => Some(parent_id),
            ProviderPolicy::None => None,
            ProviderPolicy::Random => Some(self.population[rng.below(self.population.len())].id),
            ProviderPolicy::Nearest => {
                let pool: Vec<swt_core::PoolEntry<CandidateId>> = self
                    .population
                    .iter()
                    .map(|p| swt_core::PoolEntry { id: p.id, arch: p.arch.clone(), score: p.score })
                    .collect();
                swt_core::select_nearest(&child_arch, &pool).map(|e| e.id)
            }
        };
        Candidate::new(id, child_arch, provider)
    }

    fn report(&mut self, scored: ScoredCandidate) {
        self.scored += 1;
        self.population.push_back(scored);
        // Aging eviction (regularization): drop the oldest.
        while self.population.len() > self.population_size {
            self.population.pop_front();
        }
    }

    /// Providers come from the population under every [`ProviderPolicy`],
    /// and it ages out in id order: its front is the oldest one left.
    fn live_from(&self) -> CandidateId {
        self.population.front().map_or(0, |oldest| oldest.id)
    }

    /// The warm-up: until the population is full, `next` draws a random
    /// architecture and reads nothing the reports wrote.
    fn score_free_below(&self) -> usize {
        self.population_size
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use swt_data::AppKind;
    use swt_space::distance;

    fn space() -> Arc<SearchSpace> {
        Arc::new(SearchSpace::for_app(AppKind::Uno))
    }

    fn score_of(arch: &swt_space::ArchSeq) -> f64 {
        // Deterministic fake score: fraction of zero choices.
        let zeros = arch.choices().iter().filter(|&&c| c == 0).count();
        zeros as f64 / arch.len() as f64
    }

    #[test]
    fn random_search_ids_are_sequential_and_parentless() {
        let mut s = RandomSearch::new(space());
        assert_eq!(s.score_free_below(), usize::MAX, "no proposal reads a score");
        let mut rng = Rng::seed(1);
        for expect in 0..10 {
            let c = s.next(&mut rng);
            assert_eq!(c.id, expect);
            assert!(c.parent.is_none());
            assert_eq!(s.live_from(), expect + 1, "nothing dispatched is ever a provider");
        }
    }

    #[test]
    fn evolution_warms_up_with_random_candidates() {
        let mut evo = RegularizedEvolution::new(space(), 8, 4);
        assert_eq!(evo.score_free_below(), 8, "the warm-up reads no score");
        let mut rng = Rng::seed(2);
        for _ in 0..8 {
            let c = evo.next(&mut rng);
            assert!(c.parent.is_none(), "warm-up candidates are from scratch");
            evo.report(ScoredCandidate { id: c.id, score: score_of(&c.arch), arch: c.arch });
        }
        // Population is full: children now carry parents at distance 1.
        for _ in 0..20 {
            let c = evo.next(&mut rng);
            let parent_id = c.parent.expect("post-warm-up children have parents");
            let parent = evo.population().iter().find(|p| p.id == parent_id).unwrap();
            assert_eq!(distance(&parent.arch, &c.arch), 1, "Algorithm 1: d is always one");
            evo.report(ScoredCandidate { id: c.id, score: score_of(&c.arch), arch: c.arch });
        }
    }

    #[test]
    fn evolution_population_ages_out() {
        let mut evo = RegularizedEvolution::new(space(), 4, 2);
        let mut rng = Rng::seed(3);
        let mut first_id = None;
        for _ in 0..10 {
            let c = evo.next(&mut rng);
            first_id.get_or_insert(c.id);
            evo.report(ScoredCandidate { id: c.id, score: 0.5, arch: c.arch });
        }
        assert_eq!(evo.population().len(), 4);
        assert_eq!(evo.live_from(), 6, "ids 6..10 are the population: 0..6 are dead");
        assert!(
            evo.population().iter().all(|p| p.id != first_id.unwrap()),
            "oldest member must have aged out"
        );
        assert_eq!(evo.scored(), 10);
    }

    #[test]
    fn tournament_prefers_high_scores() {
        // With sample_size == population_size the tournament is
        // deterministic: the parent is always the best member.
        let mut evo = RegularizedEvolution::new(space(), 6, 6);
        let mut rng = Rng::seed(4);
        let mut best: Option<(CandidateId, f64)> = None;
        for i in 0..6 {
            let c = evo.next(&mut rng);
            let score = i as f64 * 0.1;
            if best.is_none_or(|(_, s)| score > s) {
                best = Some((c.id, score));
            }
            evo.report(ScoredCandidate { id: c.id, score, arch: c.arch });
        }
        let c = evo.next(&mut rng);
        assert_eq!(c.parent, Some(best.unwrap().0));
    }

    #[test]
    #[should_panic(expected = "cannot sample more")]
    fn sample_larger_than_population_rejected() {
        RegularizedEvolution::new(space(), 4, 8);
    }

    fn run_policy(policy: ProviderPolicy, n: usize) -> Vec<Candidate> {
        let mut evo = RegularizedEvolution::with_provider(space(), 6, 3, policy);
        let mut rng = Rng::seed(8);
        let mut out = Vec::new();
        for _ in 0..n {
            let c = evo.next(&mut rng);
            out.push(c.clone());
            evo.report(ScoredCandidate { id: c.id, score: score_of(&c.arch), arch: c.arch });
        }
        out
    }

    #[test]
    fn provider_policy_none_never_sets_parent() {
        let cands = run_policy(ProviderPolicy::None, 20);
        assert!(cands.iter().all(|c| c.parent.is_none()));
    }

    #[test]
    fn provider_policy_nearest_picks_minimal_distance() {
        let mut evo = RegularizedEvolution::with_provider(space(), 6, 3, ProviderPolicy::Nearest);
        let mut rng = Rng::seed(9);
        for _ in 0..6 {
            let c = evo.next(&mut rng);
            evo.report(ScoredCandidate { id: c.id, score: score_of(&c.arch), arch: c.arch });
        }
        for _ in 0..10 {
            let c = evo.next(&mut rng);
            let provider_id = c.parent.expect("nearest policy sets a provider");
            let provider = evo.population().iter().find(|p| p.id == provider_id).unwrap();
            let dp = distance(&provider.arch, &c.arch);
            // No other member may be strictly closer.
            for member in evo.population() {
                assert!(distance(&member.arch, &c.arch) >= dp);
            }
            evo.report(ScoredCandidate { id: c.id, score: 0.1, arch: c.arch });
        }
    }

    #[test]
    fn provider_policy_random_stays_in_population() {
        let cands = run_policy(ProviderPolicy::Random, 30);
        let children: Vec<&Candidate> = cands.iter().filter(|c| c.parent.is_some()).collect();
        assert!(!children.is_empty());
        for c in children {
            assert!(c.parent.unwrap() < c.id, "provider must be a previously scored candidate");
        }
    }
}
