//! The three instruction sets of the paper (plus the §6 extension).

use std::fmt;

/// Which shared-memory instructions processors may execute — the `I`
/// component of `Σ = (N, state₀, I, SP)`.
///
/// * [`InstructionSet::S`] — *simple*: `read`/`write` on shared variables
///   plus arbitrary local computation.
/// * [`InstructionSet::L`] — *locking*: S plus `lock`/`unlock` on the lock
///   bit of each shared variable. Locking is the paper's archetype of an
///   operation that **encapsulates asymmetry** (§8): two processors that
///   race for the same lock are told apart by the hardware arbiter.
/// * [`InstructionSet::Q`] — *quasi-locking*: `peek`/`post` on multiset
///   variables. Strictly between S and L in power; the pivot of the
///   paper's theory because both S and L are analyzed as variants of Q.
/// * [`InstructionSet::LStar`] — *extended locking* (§6): L plus the
///   ability to lock a **list** of variables in one indivisible
///   instruction, which additionally distinguishes any two processors
///   sharing a variable (under any pair of names).
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum InstructionSet {
    /// Simple read/write.
    S,
    /// Read/write plus lock/unlock.
    L,
    /// Peek/post on multiset variables.
    Q,
    /// L plus multi-variable atomic locking (§6 “Extended Locking”).
    LStar,
}

impl InstructionSet {
    /// Whether `read`/`write` are available.
    pub fn allows_read_write(self) -> bool {
        matches!(
            self,
            InstructionSet::S | InstructionSet::L | InstructionSet::LStar
        )
    }

    /// Whether `lock`/`unlock` are available.
    pub fn allows_lock(self) -> bool {
        matches!(self, InstructionSet::L | InstructionSet::LStar)
    }

    /// Whether the indivisible multi-variable `lock_many` is available.
    pub fn allows_multi_lock(self) -> bool {
        matches!(self, InstructionSet::LStar)
    }

    /// Whether `peek`/`post` are available.
    pub fn allows_peek_post(self) -> bool {
        matches!(self, InstructionSet::Q)
    }

    /// Whether shared variables are Q-style multiset variables.
    pub fn uses_multi_vars(self) -> bool {
        self.allows_peek_post()
    }

    /// All instruction sets, in increasing order of power within the
    /// paper's hierarchy (§9): `S < Q < L < L*`.
    pub const ALL: [InstructionSet; 4] = [
        InstructionSet::S,
        InstructionSet::Q,
        InstructionSet::L,
        InstructionSet::LStar,
    ];
}

impl fmt::Display for InstructionSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            InstructionSet::S => write!(f, "S"),
            InstructionSet::L => write!(f, "L"),
            InstructionSet::Q => write!(f, "Q"),
            InstructionSet::LStar => write!(f, "L*"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn capabilities_match_paper() {
        use InstructionSet::*;
        assert!(S.allows_read_write() && !S.allows_lock() && !S.allows_peek_post());
        assert!(L.allows_read_write() && L.allows_lock() && !L.allows_peek_post());
        assert!(!Q.allows_read_write() && !Q.allows_lock() && Q.allows_peek_post());
        assert!(LStar.allows_multi_lock() && LStar.allows_lock());
        assert!(!L.allows_multi_lock());
    }

    #[test]
    fn only_q_uses_multi_vars() {
        assert!(InstructionSet::Q.uses_multi_vars());
        assert!(!InstructionSet::S.uses_multi_vars());
        assert!(!InstructionSet::L.uses_multi_vars());
        assert!(!InstructionSet::LStar.uses_multi_vars());
    }

    #[test]
    fn display() {
        let shown: Vec<String> = InstructionSet::ALL.iter().map(|i| i.to_string()).collect();
        assert_eq!(shown, vec!["S", "Q", "L", "L*"]);
    }
}
