//! Typed identifiers for the two node classes of a system graph.
//!
//! The paper's network `N` is bipartite: nodes are either processors (`P`)
//! or shared variables (`V`). Newtypes keep the two index spaces apart at
//! compile time ([C-NEWTYPE]).

use std::fmt;

/// Identifier of a processor node.
///
/// `ProcId`s are dense indices `0..processor_count()` assigned in insertion
/// order by [`crate::SystemGraphBuilder::processor`].
///
/// ```
/// use simsym_graph::ProcId;
/// let p = ProcId::new(3);
/// assert_eq!(p.index(), 3);
/// ```
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ProcId(u32);

impl ProcId {
    /// Creates a processor id from a dense index.
    pub fn new(index: usize) -> Self {
        ProcId(u32::try_from(index).expect("processor index exceeds u32"))
    }

    /// The dense index of this processor, usable for slice indexing.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Debug for ProcId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "p{}", self.0)
    }
}

impl fmt::Display for ProcId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "p{}", self.0)
    }
}

/// Identifier of a shared-variable node.
///
/// `VarId`s are dense indices `0..variable_count()` assigned in insertion
/// order by [`crate::SystemGraphBuilder::variable`].
///
/// ```
/// use simsym_graph::VarId;
/// let v = VarId::new(0);
/// assert_eq!(v.index(), 0);
/// ```
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct VarId(u32);

impl VarId {
    /// Creates a variable id from a dense index.
    pub fn new(index: usize) -> Self {
        VarId(u32::try_from(index).expect("variable index exceeds u32"))
    }

    /// The dense index of this variable, usable for slice indexing.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Debug for VarId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "v{}", self.0)
    }
}

impl fmt::Display for VarId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "v{}", self.0)
    }
}

/// Either node class of the bipartite system graph.
///
/// Similarity labelings (in `simsym-core`) assign labels to *all* nodes, so
/// algorithms frequently need a single index space covering processors and
/// variables; [`Node::linear_index`] provides it (processors first, then
/// variables).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Node {
    /// A processor node.
    Proc(ProcId),
    /// A shared-variable node.
    Var(VarId),
}

impl Node {
    /// Returns the processor id if this node is a processor.
    pub fn as_proc(self) -> Option<ProcId> {
        match self {
            Node::Proc(p) => Some(p),
            Node::Var(_) => None,
        }
    }

    /// Returns the variable id if this node is a shared variable.
    pub fn as_var(self) -> Option<VarId> {
        match self {
            Node::Var(v) => Some(v),
            Node::Proc(_) => None,
        }
    }

    /// Returns `true` when the node is a processor.
    pub fn is_proc(self) -> bool {
        matches!(self, Node::Proc(_))
    }

    /// A single dense index over all nodes: processors occupy
    /// `0..proc_count`, variables `proc_count..proc_count + var_count`.
    pub fn linear_index(self, proc_count: usize) -> usize {
        match self {
            Node::Proc(p) => p.index(),
            Node::Var(v) => proc_count + v.index(),
        }
    }

    /// Inverse of [`Node::linear_index`].
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of range for the given node counts.
    pub fn from_linear_index(index: usize, proc_count: usize, var_count: usize) -> Self {
        if index < proc_count {
            Node::Proc(ProcId::new(index))
        } else {
            let v = index - proc_count;
            assert!(v < var_count, "linear node index {index} out of range");
            Node::Var(VarId::new(v))
        }
    }
}

impl From<ProcId> for Node {
    fn from(p: ProcId) -> Self {
        Node::Proc(p)
    }
}

impl From<VarId> for Node {
    fn from(v: VarId) -> Self {
        Node::Var(v)
    }
}

impl fmt::Debug for Node {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Node::Proc(p) => write!(f, "{p:?}"),
            Node::Var(v) => write!(f, "{v:?}"),
        }
    }
}

impl fmt::Display for Node {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Node::Proc(p) => write!(f, "{p}"),
            Node::Var(v) => write!(f, "{v}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn proc_id_round_trips_index() {
        for i in [0usize, 1, 17, 1000] {
            assert_eq!(ProcId::new(i).index(), i);
        }
    }

    #[test]
    fn var_id_round_trips_index() {
        for i in [0usize, 1, 17, 1000] {
            assert_eq!(VarId::new(i).index(), i);
        }
    }

    #[test]
    fn linear_index_is_dense_and_invertible() {
        let (pc, vc) = (3usize, 4usize);
        let mut seen = vec![false; pc + vc];
        for p in 0..pc {
            let n = Node::Proc(ProcId::new(p));
            let li = n.linear_index(pc);
            assert!(!seen[li]);
            seen[li] = true;
            assert_eq!(Node::from_linear_index(li, pc, vc), n);
        }
        for v in 0..vc {
            let n = Node::Var(VarId::new(v));
            let li = n.linear_index(pc);
            assert!(!seen[li]);
            seen[li] = true;
            assert_eq!(Node::from_linear_index(li, pc, vc), n);
        }
        assert!(seen.into_iter().all(|b| b));
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn from_linear_index_rejects_out_of_range() {
        let _ = Node::from_linear_index(7, 3, 4);
    }

    #[test]
    fn node_accessors() {
        let p = Node::from(ProcId::new(1));
        let v = Node::from(VarId::new(2));
        assert!(p.is_proc());
        assert!(!v.is_proc());
        assert_eq!(p.as_proc(), Some(ProcId::new(1)));
        assert_eq!(p.as_var(), None);
        assert_eq!(v.as_var(), Some(VarId::new(2)));
        assert_eq!(v.as_proc(), None);
    }

    #[test]
    fn display_forms() {
        assert_eq!(ProcId::new(2).to_string(), "p2");
        assert_eq!(VarId::new(5).to_string(), "v5");
        assert_eq!(Node::Proc(ProcId::new(0)).to_string(), "p0");
        assert_eq!(format!("{:?}", Node::Var(VarId::new(1))), "v1");
    }
}
