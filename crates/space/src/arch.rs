//! Architecture sequences and the similarity distance `d`.

use std::fmt;

swt_wire::wire_struct! {
    /// An architecture sequence: one choice index per variable node, uniquely
    /// identifying a candidate model within its search space (Section II).
    /// On the wire, the choices as a list.
    #[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
    pub struct ArchSeq {
        choices: Vec<u16>,
    }
}

impl ArchSeq {
    /// Wrap a vector of choice indices.
    pub fn new(choices: Vec<u16>) -> Self {
        ArchSeq { choices }
    }

    /// The choice indices.
    pub fn choices(&self) -> &[u16] {
        &self.choices
    }

    /// Number of variable nodes.
    pub fn len(&self) -> usize {
        self.choices.len()
    }

    /// True iff there are no variable nodes.
    pub fn is_empty(&self) -> bool {
        self.choices.is_empty()
    }

    /// Choice index of node `i`.
    pub fn get(&self, i: usize) -> u16 {
        self.choices[i]
    }

    /// Copy with node `i` set to `choice`.
    pub fn with_choice(&self, i: usize, choice: u16) -> ArchSeq {
        let mut choices = self.choices.clone();
        choices[i] = choice;
        ArchSeq { choices }
    }

    /// Compact `1-2-0-2` encoding used in trace files.
    pub fn encode(&self) -> String {
        self.choices.iter().map(|c| c.to_string()).collect::<Vec<_>>().join("-")
    }

    /// Parse the [`ArchSeq::encode`] format.
    pub fn decode(s: &str) -> Option<ArchSeq> {
        if s.is_empty() {
            return Some(ArchSeq::new(Vec::new()));
        }
        s.split('-')
            .map(|part| part.parse::<u16>().ok())
            .collect::<Option<Vec<_>>>()
            .map(ArchSeq::new)
    }
}

impl fmt::Display for ArchSeq {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[")?;
        for (i, c) in self.choices.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{c}")?;
        }
        write!(f, "]")
    }
}

/// The paper's similarity distance: the number of variable nodes whose
/// choices differ (`d = Σ arch_seq_A ⊕ arch_seq_B`, Section V-A).
///
/// # Panics
/// Panics if the sequences come from different spaces (different lengths).
pub fn distance(a: &ArchSeq, b: &ArchSeq) -> usize {
    assert_eq!(a.len(), b.len(), "distance requires sequences from the same search space");
    a.choices().iter().zip(b.choices()).filter(|(x, y)| x != y).count()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_example() {
        // d = 1 for [1,2,3] vs [0,2,3] (Section V-A).
        let a = ArchSeq::new(vec![1, 2, 3]);
        let b = ArchSeq::new(vec![0, 2, 3]);
        assert_eq!(distance(&a, &b), 1);
        assert_eq!(distance(&a, &a), 0);
    }

    #[test]
    fn distance_is_symmetric_and_bounded() {
        let a = ArchSeq::new(vec![1, 0, 4, 2, 2]);
        let b = ArchSeq::new(vec![0, 0, 4, 1, 3]);
        assert_eq!(distance(&a, &b), distance(&b, &a));
        assert!(distance(&a, &b) <= a.len());
        assert_eq!(distance(&a, &b), 3);
    }

    #[test]
    #[should_panic(expected = "same search space")]
    fn different_lengths_panic() {
        distance(&ArchSeq::new(vec![1]), &ArchSeq::new(vec![1, 2]));
    }

    #[test]
    fn encode_decode_round_trip() {
        let a = ArchSeq::new(vec![1, 12, 0, 7]);
        assert_eq!(a.encode(), "1-12-0-7");
        assert_eq!(ArchSeq::decode("1-12-0-7").unwrap(), a);
        assert_eq!(ArchSeq::decode(&a.encode()).unwrap(), a);
        assert!(ArchSeq::decode("1-x-2").is_none());
    }

    #[test]
    fn with_choice_changes_one_slot() {
        let a = ArchSeq::new(vec![1, 2, 3]);
        let b = a.with_choice(1, 9);
        assert_eq!(b.choices(), &[1, 9, 3]);
        assert_eq!(distance(&a, &b), 1);
    }

    #[test]
    fn display_matches_paper_notation() {
        assert_eq!(ArchSeq::new(vec![1, 2, 0, 2]).to_string(), "[1, 2, 0, 2]");
    }
}
