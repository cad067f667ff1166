//! The computation models whose similarity structure the paper compares.

use simsym_vm::InstructionSet;
use std::fmt;

/// A computation model: an instruction set together with the schedule
/// class, as far as the similarity theory distinguishes them.
///
/// The paper's hierarchy (§9), strictly increasing in power:
///
/// ```text
/// fair S   <   bounded-fair S   <   Q   <   L   <   L*
/// ```
///
/// * **Fair S** and **bounded-fair S** share the same similarity *labeling*
///   rules, but in fair-S systems processors cannot necessarily *learn*
///   their labels (the mimicry obstruction of §6, Fig. 3).
/// * **Q** strengthens the variable condition from label *sets* to label
///   *counts* — operationally, processors can eventually learn how many
///   neighbors a variable has.
/// * **L** additionally distinguishes processors that give the same name
///   to the same variable (they race for its lock).
/// * **L\*** (extended locking) distinguishes *any* two processors sharing
///   a variable, under any pair of names (§6).
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Model {
    /// Instruction set S under fair (but not bounded-fair) schedules.
    FairS,
    /// Instruction set S under bounded-fair schedules.
    BoundedFairS,
    /// Instruction set Q (fair and bounded-fair coincide — §4).
    Q,
    /// Instruction set L (fair schedules).
    L,
    /// Extended locking (§6).
    LStar,
}

impl Model {
    /// Whether the variable environment uses per-name label **counts**
    /// (Q-like) rather than label **sets** (S-like) — the §6 distinction.
    pub fn counts_neighbors(self) -> bool {
        !matches!(self, Model::FairS | Model::BoundedFairS)
    }

    /// Whether same-labeled processors may give the same name to a shared
    /// variable (false for L: Theorem 8's side condition splits them).
    pub fn allows_same_name_sharing(self) -> bool {
        !matches!(self, Model::L | Model::LStar)
    }

    /// Whether same-labeled processors may share a variable at all (false
    /// only for L*: §6 extended locking).
    pub fn allows_any_sharing(self) -> bool {
        !matches!(self, Model::LStar)
    }

    /// The instruction set executed by machines of this model.
    pub fn instruction_set(self) -> InstructionSet {
        match self {
            Model::FairS | Model::BoundedFairS => InstructionSet::S,
            Model::Q => InstructionSet::Q,
            Model::L => InstructionSet::L,
            Model::LStar => InstructionSet::LStar,
        }
    }

    /// All models, weakest first (the §9 hierarchy).
    pub const ALL: [Model; 5] = [
        Model::FairS,
        Model::BoundedFairS,
        Model::Q,
        Model::L,
        Model::LStar,
    ];
}

impl fmt::Display for Model {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Model::FairS => write!(f, "fair S"),
            Model::BoundedFairS => write!(f, "bounded-fair S"),
            Model::Q => write!(f, "Q"),
            Model::L => write!(f, "L"),
            Model::LStar => write!(f, "L*"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn q_counts_s_does_not() {
        assert!(Model::Q.counts_neighbors());
        assert!(Model::L.counts_neighbors());
        assert!(!Model::BoundedFairS.counts_neighbors());
        assert!(!Model::FairS.counts_neighbors());
    }

    #[test]
    fn sharing_rules() {
        assert!(Model::Q.allows_same_name_sharing());
        assert!(!Model::L.allows_same_name_sharing());
        assert!(!Model::LStar.allows_same_name_sharing());
        assert!(Model::L.allows_any_sharing());
        assert!(!Model::LStar.allows_any_sharing());
    }

    #[test]
    fn instruction_sets() {
        assert_eq!(Model::FairS.instruction_set(), InstructionSet::S);
        assert_eq!(Model::Q.instruction_set(), InstructionSet::Q);
        assert_eq!(Model::L.instruction_set(), InstructionSet::L);
        assert_eq!(Model::LStar.instruction_set(), InstructionSet::LStar);
    }

    #[test]
    fn ordering_matches_hierarchy() {
        for w in Model::ALL.windows(2) {
            assert!(w[0] < w[1]);
        }
    }

    #[test]
    fn display() {
        assert_eq!(Model::LStar.to_string(), "L*");
        assert_eq!(Model::BoundedFairS.to_string(), "bounded-fair S");
    }
}
