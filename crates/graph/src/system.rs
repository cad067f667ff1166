//! The validated system graph `N` and its builder.

use crate::{GraphError, NameId, NameTable, Node, ProcId, VarId};
use std::collections::HashMap;
use std::fmt;

/// The network `N` of a system `Σ = (N, state₀, I, SP)`: a bipartite graph
/// connecting processors to shared variables, with every edge labeled by the
/// local *name* the processor gives the variable.
///
/// Invariants (validated at build time, §2 of the paper):
///
/// * every processor has **exactly one** `n`-neighbor per name `n ∈ NAMES`,
///   so [`SystemGraph::n_nbr`] is total;
/// * there is at least one processor, and at least one variable whenever
///   `NAMES` is non-empty.
///
/// Connectivity is *not* an invariant — Section 5 of the paper deliberately
/// works with unconnected union systems of homogeneous families — but can be
/// queried with [`SystemGraph::is_connected`].
///
/// ```
/// use simsym_graph::SystemGraph;
///
/// let mut b = SystemGraph::builder();
/// let left = b.name("left");
/// let right = b.name("right");
/// let [p, q] = [b.processor(), b.processor()];
/// let [u, v] = [b.variable(), b.variable()];
/// // p's left is q's right and vice versa: a 2-ring.
/// b.connect(p, left, u)?;
/// b.connect(q, right, u)?;
/// b.connect(p, right, v)?;
/// b.connect(q, left, v)?;
/// let g = b.build()?;
/// assert_eq!(g.n_nbr(p, left), u);
/// assert_eq!(g.variable_degree(u), 2);
/// # Ok::<(), simsym_graph::GraphError>(())
/// ```
#[derive(Clone, PartialEq, Eq)]
pub struct SystemGraph {
    names: NameTable,
    /// Number of processors — kept explicitly because `proc_flat` is empty
    /// when `NAMES` is (a processor-only graph is legal).
    proc_count: usize,
    /// The `n-nbr` rows, flattened at stride `|NAMES|`:
    /// `proc_flat[p * name_count + n]` = the unique `n`-neighbor of `p`.
    /// One allocation for the whole graph — at the 10^5–10^6 processor
    /// tier, nested per-processor `Vec`s cost one heap block and a pointer
    /// chase per node.
    proc_flat: Vec<VarId>,
    /// CSR offsets into `var_edges_flat`: variable `v`'s edges live at
    /// `var_edges_flat[var_offsets[v] .. var_offsets[v + 1]]`.
    var_offsets: Vec<u32>,
    /// All `(processor, name)` edges, grouped by variable, each group
    /// sorted for determinism.
    var_edges_flat: Vec<(ProcId, NameId)>,
}

impl SystemGraph {
    /// Starts building a new system graph.
    pub fn builder() -> SystemGraphBuilder {
        SystemGraphBuilder::new()
    }

    /// Bulk constructor for regular topologies: `nbr(p, n)` names the
    /// variable index that is processor `p`'s `n`-neighbor. Builds the
    /// flat adjacency directly — `O(P·|NAMES| + E)` time, three
    /// allocations, no intermediate per-node maps — which is what makes
    /// 10^5–10^6-processor families constructible in milliseconds.
    ///
    /// Edges arrive in `(processor, name)` order, so each variable's edge
    /// group is born sorted; no per-variable sort pass is needed.
    ///
    /// # Errors
    ///
    /// * [`GraphError::NoProcessors`] if `procs == 0`;
    /// * [`GraphError::NoVariables`] if `names` is non-empty and
    ///   `vars == 0`;
    /// * [`GraphError::UnknownNode`] if `nbr` returns an index `>= vars`.
    pub fn from_fn(
        names: &[&str],
        procs: usize,
        vars: usize,
        mut nbr: impl FnMut(usize, usize) -> usize,
    ) -> Result<SystemGraph, GraphError> {
        if procs == 0 {
            return Err(GraphError::NoProcessors);
        }
        if !names.is_empty() && vars == 0 {
            return Err(GraphError::NoVariables);
        }
        let mut table = NameTable::default();
        for n in names {
            table.intern(n);
        }
        let nc = table.len();
        let mut proc_flat = Vec::with_capacity(procs * nc);
        let mut degree = vec![0u32; vars];
        for p in 0..procs {
            for n in 0..nc {
                let v = nbr(p, n);
                if v >= vars {
                    return Err(GraphError::UnknownNode {
                        what: format!("v{v}"),
                    });
                }
                proc_flat.push(VarId::new(v));
                degree[v] += 1;
            }
        }
        let mut var_offsets = Vec::with_capacity(vars + 1);
        let mut acc = 0u32;
        var_offsets.push(0);
        for &d in &degree {
            acc += d;
            var_offsets.push(acc);
        }
        // Scatter edges; iterating processors in order then names in order
        // writes each variable's group already sorted by (ProcId, NameId).
        let mut cursor: Vec<u32> = var_offsets[..vars].to_vec();
        let mut var_edges_flat = vec![(ProcId::new(0), NameId::new(0)); acc as usize];
        for p in 0..procs {
            for n in 0..nc {
                let v = proc_flat[p * nc + n].index();
                var_edges_flat[cursor[v] as usize] = (ProcId::new(p), NameId::new(n));
                cursor[v] += 1;
            }
        }
        Ok(SystemGraph {
            names: table,
            proc_count: procs,
            proc_flat,
            var_offsets,
            var_edges_flat,
        })
    }

    /// Number of processor nodes (`|P|`).
    pub fn processor_count(&self) -> usize {
        self.proc_count
    }

    /// Number of shared-variable nodes (`|V|`).
    pub fn variable_count(&self) -> usize {
        self.var_offsets.len() - 1
    }

    /// Total node count (`|P ∪ V|`).
    pub fn node_count(&self) -> usize {
        self.processor_count() + self.variable_count()
    }

    /// Total edge count.
    pub fn edge_count(&self) -> usize {
        self.var_edges_flat.len()
    }

    /// Approximate heap footprint of the adjacency structure in bytes —
    /// the scale-tier bench reports this alongside per-processor machine
    /// memory.
    pub fn approx_bytes(&self) -> usize {
        self.proc_flat.len() * std::mem::size_of::<VarId>()
            + self.var_offsets.len() * std::mem::size_of::<u32>()
            + self.var_edges_flat.len() * std::mem::size_of::<(ProcId, NameId)>()
    }

    /// The interned name table (`NAMES`).
    pub fn names(&self) -> &NameTable {
        &self.names
    }

    /// Number of edge names (`|NAMES|`).
    pub fn name_count(&self) -> usize {
        self.names.len()
    }

    /// Iterates over all processor ids.
    pub fn processors(&self) -> impl Iterator<Item = ProcId> + '_ {
        (0..self.processor_count()).map(ProcId::new)
    }

    /// Iterates over all variable ids.
    pub fn variables(&self) -> impl Iterator<Item = VarId> + '_ {
        (0..self.variable_count()).map(VarId::new)
    }

    /// Iterates over all nodes, processors first.
    pub fn nodes(&self) -> impl Iterator<Item = Node> + '_ {
        self.processors()
            .map(Node::Proc)
            .chain(self.variables().map(Node::Var))
    }

    /// The unique `n`-neighbor of processor `p` — the `n-nbr` function of §2.
    ///
    /// # Panics
    ///
    /// Panics if `p` or `name` is out of range for this graph.
    pub fn n_nbr(&self, p: ProcId, name: NameId) -> VarId {
        self.proc_flat[p.index() * self.names.len() + name.index()]
    }

    /// All neighbors of processor `p`, indexed by name (`result[n.index()]`
    /// is the `n`-neighbor).
    pub fn processor_neighbors(&self, p: ProcId) -> &[VarId] {
        let nc = self.names.len();
        &self.proc_flat[p.index() * nc..(p.index() + 1) * nc]
    }

    /// All `(processor, name)` edges incident to variable `v`, sorted.
    pub fn variable_edges(&self, v: VarId) -> &[(ProcId, NameId)] {
        let start = self.var_offsets[v.index()] as usize;
        let end = self.var_offsets[v.index() + 1] as usize;
        &self.var_edges_flat[start..end]
    }

    /// Number of edges incident to variable `v`.
    pub fn variable_degree(&self, v: VarId) -> usize {
        self.variable_edges(v).len()
    }

    /// The processors that call `v` by `name` (the `n`-neighbors of `v`).
    pub fn variable_n_neighbors(
        &self,
        v: VarId,
        name: NameId,
    ) -> impl Iterator<Item = ProcId> + '_ {
        self.variable_edges(v)
            .iter()
            .filter(move |&&(_, n)| n == name)
            .map(|&(p, _)| p)
    }

    /// The distinct processors adjacent to `v` (a processor may be adjacent
    /// under several names; it is reported once).
    pub fn variable_processors(&self, v: VarId) -> Vec<ProcId> {
        let mut ps: Vec<ProcId> = self.variable_edges(v).iter().map(|&(p, _)| p).collect();
        ps.sort_unstable();
        ps.dedup();
        ps
    }

    /// Whether the bipartite graph is connected (ignoring edge names).
    ///
    /// The paper generally assumes connected systems; the unconnected case
    /// arises for union systems of homogeneous families (§5) where it is
    /// compensated by bounded fairness.
    pub fn is_connected(&self) -> bool {
        let n = self.node_count();
        if n == 0 {
            return true;
        }
        let mut seen = vec![false; n];
        let mut stack = vec![0usize];
        seen[0] = true;
        let pc = self.processor_count();
        while let Some(i) = stack.pop() {
            if i < pc {
                for &v in self.processor_neighbors(ProcId::new(i)) {
                    let j = pc + v.index();
                    if !seen[j] {
                        seen[j] = true;
                        stack.push(j);
                    }
                }
            } else {
                for &(p, _) in self.variable_edges(VarId::new(i - pc)) {
                    let j = p.index();
                    if !seen[j] {
                        seen[j] = true;
                        stack.push(j);
                    }
                }
            }
        }
        seen.into_iter().all(|b| b)
    }

    /// Whether the system is *distributed* in the sense of §7: no variable
    /// is accessed by every processor.
    pub fn is_distributed(&self) -> bool {
        let pc = self.processor_count();
        self.variables()
            .all(|v| self.variable_processors(v).len() < pc)
    }

    /// The *induced subsystem* on a set of processors: the kept processors,
    /// every variable any of them references, and only the edges from kept
    /// processors. Used by the mimicry analysis of §6 (fair systems in S).
    ///
    /// Returns the subsystem together with the mapping from old variable ids
    /// to new ones. Processor `i` of the subsystem corresponds to
    /// `kept[i]` in `self`.
    ///
    /// # Panics
    ///
    /// Panics if `kept` is empty or contains an out-of-range or duplicate
    /// processor.
    pub fn induced_subsystem(&self, kept: &[ProcId]) -> (SystemGraph, HashMap<VarId, VarId>) {
        assert!(
            !kept.is_empty(),
            "subsystem must keep at least one processor"
        );
        let mut b = SystemGraphBuilder::new();
        b.names = self.names.clone();
        let mut proc_map: HashMap<ProcId, ProcId> = HashMap::new();
        for &p in kept {
            assert!(p.index() < self.processor_count(), "unknown processor {p}");
            let np = b.processor();
            assert!(
                proc_map.insert(p, np).is_none(),
                "duplicate processor {p} in subsystem"
            );
        }
        let mut var_map: HashMap<VarId, VarId> = HashMap::new();
        for &p in kept {
            for name in self.names.ids() {
                let v = self.n_nbr(p, name);
                let nv = *var_map.entry(v).or_insert_with(|| b.variable());
                b.connect(proc_map[&p], name, nv)
                    .expect("induced subsystem connection cannot conflict");
            }
        }
        let g = b.build().expect("induced subsystem is well formed");
        (g, var_map)
    }

    /// The disjoint union of two systems over the **same** name table.
    ///
    /// Processors and variables of `other` are appended after those of
    /// `self`; the returned offsets `(proc_offset, var_offset)` translate
    /// `other`'s ids into the union. This is the *union system* used to
    /// define the similarity labeling of a family (§5).
    ///
    /// # Panics
    ///
    /// Panics if the two graphs have different name tables — systems of a
    /// family share `NAMES` by definition.
    pub fn disjoint_union(&self, other: &SystemGraph) -> (SystemGraph, usize, usize) {
        assert_eq!(
            self.names, other.names,
            "disjoint union requires identical name tables"
        );
        let proc_offset = self.processor_count();
        let var_offset = self.variable_count();
        let mut proc_flat = self.proc_flat.clone();
        proc_flat.extend(
            other
                .proc_flat
                .iter()
                .map(|v| VarId::new(v.index() + var_offset)),
        );
        let base = *self.var_offsets.last().expect("offsets non-empty");
        let mut var_offsets = self.var_offsets.clone();
        var_offsets.extend(other.var_offsets[1..].iter().map(|&o| o + base));
        let mut var_edges_flat = self.var_edges_flat.clone();
        var_edges_flat.extend(
            other
                .var_edges_flat
                .iter()
                .map(|&(p, n)| (ProcId::new(p.index() + proc_offset), n)),
        );
        (
            SystemGraph {
                names: self.names.clone(),
                proc_count: proc_offset + other.proc_count,
                proc_flat,
                var_offsets,
                var_edges_flat,
            },
            proc_offset,
            var_offset,
        )
    }

    /// Multiset of variable degrees, sorted ascending — a cheap structural
    /// fingerprint used in tests.
    pub fn degree_sequence(&self) -> Vec<usize> {
        let mut ds: Vec<usize> = self.variables().map(|v| self.variable_degree(v)).collect();
        ds.sort_unstable();
        ds
    }
}

impl fmt::Debug for SystemGraph {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("SystemGraph")
            .field("processors", &self.processor_count())
            .field("variables", &self.variable_count())
            .field(
                "names",
                &self.names.iter().map(|(_, s)| s).collect::<Vec<_>>(),
            )
            .field("edges", &self.edge_count())
            .finish()
    }
}

/// Incremental builder for [`SystemGraph`] (non-consuming, [C-BUILDER]).
///
/// Declare names, processors and variables in any order, then connect each
/// processor to exactly one variable per name and call
/// [`SystemGraphBuilder::build`].
#[derive(Clone, Debug, Default)]
pub struct SystemGraphBuilder {
    names: NameTable,
    /// Sparse per-processor neighbor map, densified at build time.
    proc_nbrs: Vec<HashMap<NameId, VarId>>,
    var_count: usize,
}

impl SystemGraphBuilder {
    /// Creates an empty builder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Interns an edge name, adding it to `NAMES`.
    pub fn name(&mut self, name: &str) -> NameId {
        self.names.intern(name)
    }

    /// Declares a new processor and returns its id.
    pub fn processor(&mut self) -> ProcId {
        let id = ProcId::new(self.proc_nbrs.len());
        self.proc_nbrs.push(HashMap::new());
        id
    }

    /// Declares `n` new processors.
    pub fn processors(&mut self, n: usize) -> Vec<ProcId> {
        (0..n).map(|_| self.processor()).collect()
    }

    /// Declares a new shared variable and returns its id.
    pub fn variable(&mut self) -> VarId {
        let id = VarId::new(self.var_count);
        self.var_count += 1;
        id
    }

    /// Declares `n` new shared variables.
    pub fn variables(&mut self, n: usize) -> Vec<VarId> {
        (0..n).map(|_| self.variable()).collect()
    }

    /// Connects processor `p` to variable `v` under `name`.
    ///
    /// # Errors
    ///
    /// Returns [`GraphError::DuplicateNeighbor`] if `p` already has a
    /// neighbor under `name`, or [`GraphError::UnknownNode`] if `p` or `v`
    /// was not declared by this builder.
    pub fn connect(&mut self, p: ProcId, name: NameId, v: VarId) -> Result<(), GraphError> {
        if p.index() >= self.proc_nbrs.len() {
            return Err(GraphError::UnknownNode {
                what: format!("{p}"),
            });
        }
        if v.index() >= self.var_count {
            return Err(GraphError::UnknownNode {
                what: format!("{v}"),
            });
        }
        if name.index() >= self.names.len() {
            return Err(GraphError::UnknownNode {
                what: format!("{name:?}"),
            });
        }
        match self.proc_nbrs[p.index()].insert(name, v) {
            None => Ok(()),
            Some(existing) if existing == v => Ok(()),
            Some(existing) => {
                // restore
                self.proc_nbrs[p.index()].insert(name, existing);
                Err(GraphError::DuplicateNeighbor {
                    proc: p,
                    name,
                    existing,
                    conflicting: v,
                })
            }
        }
    }

    /// Finalizes the graph, validating the one-neighbor-per-name invariant.
    ///
    /// # Errors
    ///
    /// * [`GraphError::NoProcessors`] if no processor was declared;
    /// * [`GraphError::NoVariables`] if names exist but no variables do;
    /// * [`GraphError::MissingNeighbor`] if some processor lacks a neighbor
    ///   for some name.
    pub fn build(&self) -> Result<SystemGraph, GraphError> {
        if self.proc_nbrs.is_empty() {
            return Err(GraphError::NoProcessors);
        }
        if !self.names.is_empty() && self.var_count == 0 {
            return Err(GraphError::NoVariables);
        }
        let nn = self.names.len();
        let pc = self.proc_nbrs.len();
        let mut proc_flat = Vec::with_capacity(pc * nn);
        let mut degree = vec![0u32; self.var_count];
        for (pi, map) in self.proc_nbrs.iter().enumerate() {
            let p = ProcId::new(pi);
            for name in self.names.ids() {
                match map.get(&name) {
                    Some(&v) => {
                        proc_flat.push(v);
                        degree[v.index()] += 1;
                    }
                    None => return Err(GraphError::MissingNeighbor { proc: p, name }),
                }
            }
        }
        let mut var_offsets = Vec::with_capacity(self.var_count + 1);
        let mut total = 0u32;
        var_offsets.push(0);
        for &d in &degree {
            total += d;
            var_offsets.push(total);
        }
        // Scatter edges into per-variable groups, then sort each group so
        // `variable_edges` iterates in (processor, name) order regardless of
        // the order processors were declared in.
        let mut cursor: Vec<u32> = var_offsets[..self.var_count].to_vec();
        let mut var_edges_flat = vec![(ProcId::new(0), NameId::new(0)); total as usize];
        for (pi, row) in proc_flat.chunks_exact(nn.max(1)).enumerate() {
            let p = ProcId::new(pi);
            for (ni, v) in row.iter().enumerate() {
                let c = &mut cursor[v.index()];
                var_edges_flat[*c as usize] = (p, NameId::new(ni));
                *c += 1;
            }
        }
        for w in var_offsets.windows(2) {
            var_edges_flat[w[0] as usize..w[1] as usize].sort_unstable();
        }
        Ok(SystemGraph {
            names: self.names.clone(),
            proc_count: pc,
            proc_flat,
            var_offsets,
            var_edges_flat,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn two_ring() -> SystemGraph {
        let mut b = SystemGraph::builder();
        let left = b.name("left");
        let right = b.name("right");
        let ps = b.processors(2);
        let vs = b.variables(2);
        b.connect(ps[0], left, vs[0]).unwrap();
        b.connect(ps[1], right, vs[0]).unwrap();
        b.connect(ps[0], right, vs[1]).unwrap();
        b.connect(ps[1], left, vs[1]).unwrap();
        b.build().unwrap()
    }

    #[test]
    fn builds_two_ring() {
        let g = two_ring();
        assert_eq!(g.processor_count(), 2);
        assert_eq!(g.variable_count(), 2);
        assert_eq!(g.edge_count(), 4);
        assert_eq!(g.name_count(), 2);
        assert!(g.is_connected());
    }

    #[test]
    fn n_nbr_is_total_and_consistent() {
        let g = two_ring();
        let left = g.names().get("left").unwrap();
        let right = g.names().get("right").unwrap();
        let p0 = ProcId::new(0);
        let p1 = ProcId::new(1);
        // p0's left is p1's right.
        assert_eq!(g.n_nbr(p0, left), g.n_nbr(p1, right));
        assert_eq!(g.n_nbr(p0, right), g.n_nbr(p1, left));
        assert_ne!(g.n_nbr(p0, left), g.n_nbr(p0, right));
    }

    #[test]
    fn variable_edges_are_sorted() {
        let g = two_ring();
        for v in g.variables() {
            let edges = g.variable_edges(v);
            let mut sorted = edges.to_vec();
            sorted.sort_unstable();
            assert_eq!(edges, &sorted[..]);
        }
    }

    #[test]
    fn variable_n_neighbors_filters_by_name() {
        let g = two_ring();
        let left = g.names().get("left").unwrap();
        let v0 = VarId::new(0);
        let lefties: Vec<_> = g.variable_n_neighbors(v0, left).collect();
        assert_eq!(lefties, vec![ProcId::new(0)]);
    }

    #[test]
    fn missing_neighbor_is_rejected() {
        let mut b = SystemGraph::builder();
        let left = b.name("left");
        let p = b.processor();
        let _ = b.variable();
        // never connected
        let err = b.build().unwrap_err();
        assert_eq!(
            err,
            GraphError::MissingNeighbor {
                proc: p,
                name: left
            }
        );
    }

    #[test]
    fn duplicate_neighbor_is_rejected() {
        let mut b = SystemGraph::builder();
        let n = b.name("x");
        let p = b.processor();
        let v0 = b.variable();
        let v1 = b.variable();
        b.connect(p, n, v0).unwrap();
        let err = b.connect(p, n, v1).unwrap_err();
        assert!(matches!(err, GraphError::DuplicateNeighbor { .. }));
        // Re-connecting the same pair is idempotent, not an error.
        b.connect(p, n, v0).unwrap();
    }

    #[test]
    fn unknown_ids_are_rejected() {
        let mut b = SystemGraph::builder();
        let n = b.name("x");
        let p = b.processor();
        let v = b.variable();
        assert!(matches!(
            b.connect(ProcId::new(9), n, v),
            Err(GraphError::UnknownNode { .. })
        ));
        assert!(matches!(
            b.connect(p, n, VarId::new(9)),
            Err(GraphError::UnknownNode { .. })
        ));
        assert!(matches!(
            b.connect(p, NameId::new(9), v),
            Err(GraphError::UnknownNode { .. })
        ));
    }

    #[test]
    fn empty_builder_fails() {
        assert_eq!(
            SystemGraph::builder().build().unwrap_err(),
            GraphError::NoProcessors
        );
    }

    #[test]
    fn names_without_variables_fail() {
        let mut b = SystemGraph::builder();
        b.name("x");
        b.processor();
        assert_eq!(b.build().unwrap_err(), GraphError::NoVariables);
    }

    #[test]
    fn processor_with_no_names_is_fine() {
        let mut b = SystemGraph::builder();
        b.processor();
        let g = b.build().unwrap();
        assert_eq!(g.processor_count(), 1);
        assert_eq!(g.variable_count(), 0);
        assert!(g.is_connected());
    }

    #[test]
    fn disconnected_graph_detected() {
        // Two disjoint 1-proc/1-var components.
        let mut b = SystemGraph::builder();
        let n = b.name("x");
        let ps = b.processors(2);
        let vs = b.variables(2);
        b.connect(ps[0], n, vs[0]).unwrap();
        b.connect(ps[1], n, vs[1]).unwrap();
        let g = b.build().unwrap();
        assert!(!g.is_connected());
    }

    #[test]
    fn is_distributed_flags_central_variable() {
        // Star: all processors share one variable => not distributed.
        let mut b = SystemGraph::builder();
        let n = b.name("hub");
        let ps = b.processors(3);
        let v = b.variable();
        for p in ps {
            b.connect(p, n, v).unwrap();
        }
        let g = b.build().unwrap();
        assert!(!g.is_distributed());
        // A 2-ring is NOT distributed either: both processors access every
        // variable. A 3-ring is.
        assert!(!two_ring().is_distributed());
        assert!(crate::topology::uniform_ring(3).is_distributed());
    }

    #[test]
    fn induced_subsystem_keeps_referenced_variables() {
        let g = two_ring();
        let (sub, var_map) = g.induced_subsystem(&[ProcId::new(0)]);
        assert_eq!(sub.processor_count(), 1);
        assert_eq!(sub.variable_count(), 2); // p0 references both vars
        assert_eq!(var_map.len(), 2);
        // Each kept variable now has degree 1 (only p0's edges survive).
        for v in sub.variables() {
            assert_eq!(sub.variable_degree(v), 1);
        }
    }

    #[test]
    fn disjoint_union_offsets() {
        let g = two_ring();
        let (u, po, vo) = g.disjoint_union(&g);
        assert_eq!(po, 2);
        assert_eq!(vo, 2);
        assert_eq!(u.processor_count(), 4);
        assert_eq!(u.variable_count(), 4);
        assert!(!u.is_connected());
        // Edge structure is preserved in the second copy.
        let left = u.names().get("left").unwrap();
        assert_eq!(
            u.n_nbr(ProcId::new(2), left).index(),
            g.n_nbr(ProcId::new(0), left).index() + vo
        );
    }

    #[test]
    fn degree_sequence_sorted() {
        let g = two_ring();
        assert_eq!(g.degree_sequence(), vec![2, 2]);
    }

    #[test]
    fn debug_is_informative() {
        let s = format!("{:?}", two_ring());
        assert!(s.contains("SystemGraph"));
        assert!(s.contains("processors"));
    }

    #[test]
    fn nodes_iterates_procs_then_vars() {
        let g = two_ring();
        let nodes: Vec<_> = g.nodes().collect();
        assert_eq!(nodes.len(), 4);
        assert!(nodes[0].is_proc());
        assert!(nodes[1].is_proc());
        assert!(!nodes[2].is_proc());
        assert!(!nodes[3].is_proc());
    }
}
