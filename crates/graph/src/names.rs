//! Interned edge names (the set `NAMES` of the paper).
//!
//! Every edge of a system graph carries the *local name* a processor uses
//! for the variable at the other end — e.g. in a ring one processor may call
//! a variable `left` while its neighbor calls the same variable `right`.
//! Names are interned into dense [`NameId`]s so per-processor neighbor
//! tables can be plain vectors.

use std::collections::HashMap;
use std::fmt;

/// Identifier of an interned edge name.
///
/// `NameId`s are dense indices `0..name_count()` in interning order.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct NameId(u32);

impl NameId {
    /// Creates a name id from a dense index.
    pub fn new(index: usize) -> Self {
        NameId(u32::try_from(index).expect("name index exceeds u32"))
    }

    /// The dense index of this name.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Debug for NameId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

/// An interning table for edge names.
///
/// ```
/// use simsym_graph::NameTable;
/// let mut t = NameTable::new();
/// let left = t.intern("left");
/// let right = t.intern("right");
/// assert_ne!(left, right);
/// assert_eq!(t.intern("left"), left); // idempotent
/// assert_eq!(t.resolve(left), "left");
/// assert_eq!(t.len(), 2);
/// ```
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct NameTable {
    names: Vec<String>,
    lookup: HashMap<String, NameId>,
}

impl NameTable {
    /// Creates an empty name table.
    pub fn new() -> Self {
        Self::default()
    }

    /// Interns `name`, returning its id. Interning the same string twice
    /// returns the same id.
    pub fn intern(&mut self, name: &str) -> NameId {
        if let Some(&id) = self.lookup.get(name) {
            return id;
        }
        let id = NameId::new(self.names.len());
        self.names.push(name.to_owned());
        self.lookup.insert(name.to_owned(), id);
        id
    }

    /// Looks up an already-interned name.
    pub fn get(&self, name: &str) -> Option<NameId> {
        // Small tables (every built-in system has ≤ a handful of names)
        // resolve faster by scanning than by hashing the key.
        if self.names.len() <= 8 {
            return self.names.iter().position(|n| n == name).map(NameId::new);
        }
        self.lookup.get(name).copied()
    }

    /// The string for a name id.
    ///
    /// # Panics
    ///
    /// Panics if `id` was not produced by this table.
    pub fn resolve(&self, id: NameId) -> &str {
        &self.names[id.index()]
    }

    /// Number of interned names (`|NAMES|`).
    pub fn len(&self) -> usize {
        self.names.len()
    }

    /// Whether no names have been interned.
    pub fn is_empty(&self) -> bool {
        self.names.is_empty()
    }

    /// Iterates over all name ids in dense order.
    pub fn ids(&self) -> impl Iterator<Item = NameId> + '_ {
        (0..self.names.len()).map(NameId::new)
    }

    /// Iterates over `(id, string)` pairs in dense order.
    pub fn iter(&self) -> impl Iterator<Item = (NameId, &str)> + '_ {
        self.names
            .iter()
            .enumerate()
            .map(|(i, s)| (NameId::new(i), s.as_str()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn intern_is_idempotent() {
        let mut t = NameTable::new();
        let a = t.intern("a");
        let b = t.intern("b");
        assert_eq!(t.intern("a"), a);
        assert_eq!(t.intern("b"), b);
        assert_eq!(t.len(), 2);
    }

    #[test]
    fn resolve_round_trips() {
        let mut t = NameTable::new();
        let ids: Vec<_> = ["left", "right", "up"]
            .iter()
            .map(|s| t.intern(s))
            .collect();
        assert_eq!(t.resolve(ids[0]), "left");
        assert_eq!(t.resolve(ids[1]), "right");
        assert_eq!(t.resolve(ids[2]), "up");
    }

    #[test]
    fn get_finds_only_interned() {
        let mut t = NameTable::new();
        let a = t.intern("a");
        assert_eq!(t.get("a"), Some(a));
        assert_eq!(t.get("zz"), None);
    }

    #[test]
    fn ids_are_dense() {
        let mut t = NameTable::new();
        t.intern("x");
        t.intern("y");
        let ids: Vec<_> = t.ids().collect();
        assert_eq!(ids, vec![NameId::new(0), NameId::new(1)]);
    }

    #[test]
    fn empty_table() {
        let t = NameTable::new();
        assert!(t.is_empty());
        assert_eq!(t.len(), 0);
        assert_eq!(t.ids().count(), 0);
    }

    #[test]
    fn iter_yields_pairs_in_order() {
        let mut t = NameTable::new();
        t.intern("p");
        t.intern("q");
        let pairs: Vec<_> = t.iter().map(|(i, s)| (i.index(), s.to_owned())).collect();
        assert_eq!(pairs, vec![(0, "p".to_owned()), (1, "q".to_owned())]);
    }
}
