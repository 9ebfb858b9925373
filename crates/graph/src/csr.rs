//! Compressed-sparse-row graph storage.

use crate::error::GraphError;
use crate::node::NodeId;
use crate::Result;

/// Whether arcs are stored for one direction or both.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum GraphKind {
    /// Every edge `{u, v}` is stored as the two arcs `u→v` and `v→u`.
    Undirected,
    /// Arcs are stored exactly as given.
    Directed,
}

/// An immutable graph in compressed-sparse-row form.
///
/// All algorithm layers in this workspace run against this structure: the
/// random-walk engine needs nothing more than *degree* and a *neighbor
/// slice*, both O(1) here. Neighbor lists are sorted, which additionally
/// gives O(log d) [`CsrGraph::has_edge`] checks and linear-time sorted-list
/// intersections for triangle counting.
///
/// Construct via [`crate::GraphBuilder`], [`CsrGraph::from_edges`], the
/// [`crate::generators`], or [`crate::edgelist`].
#[derive(Clone, Debug)]
pub struct CsrGraph {
    kind: GraphKind,
    /// `offsets[u]..offsets[u+1]` delimits `targets` entries of node `u`.
    offsets: Vec<usize>,
    /// Concatenated, per-node-sorted adjacency targets.
    targets: Vec<NodeId>,
    /// Logical edge count: undirected edges or directed arcs.
    num_edges: usize,
}

impl CsrGraph {
    /// Builds an undirected simple graph (self-loops and duplicate edges
    /// removed) over nodes `0..n` from an edge list.
    ///
    /// This is the convenience constructor used throughout tests and
    /// examples; [`crate::GraphBuilder`] also builds directed graphs.
    pub fn from_edges(n: usize, edges: &[(u32, u32)]) -> Result<Self> {
        let mut b = crate::GraphBuilder::undirected().with_nodes(n);
        for &(u, v) in edges {
            b.add_edge(u, v);
        }
        b.build()
    }

    /// Internal constructor from already-validated CSR parts.
    ///
    /// `targets` within each node range must be sorted. `num_edges` is the
    /// logical count (arcs for directed graphs, edges for undirected).
    pub(crate) fn from_parts(
        kind: GraphKind,
        offsets: Vec<usize>,
        targets: Vec<NodeId>,
        num_edges: usize,
    ) -> Self {
        debug_assert!(!offsets.is_empty());
        debug_assert_eq!(*offsets.last().unwrap(), targets.len());
        CsrGraph {
            kind,
            offsets,
            targets,
            num_edges,
        }
    }

    /// Number of nodes `n`.
    #[inline]
    pub fn n(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Number of logical edges `m` (undirected edges, or directed arcs).
    #[inline]
    pub fn m(&self) -> usize {
        self.num_edges
    }

    /// Storage directionality.
    #[inline]
    pub fn kind(&self) -> GraphKind {
        self.kind
    }

    /// Out-degree of `u` (== degree for undirected graphs).
    ///
    /// # Panics
    /// Panics if `u` is out of range (debug builds; release indexes).
    #[inline]
    pub fn degree(&self, u: NodeId) -> usize {
        let i = u.index();
        self.offsets[i + 1] - self.offsets[i]
    }

    /// Sorted slice of `u`'s (out-)neighbors.
    #[inline]
    pub fn neighbors(&self, u: NodeId) -> &[NodeId] {
        let i = u.index();
        &self.targets[self.offsets[i]..self.offsets[i + 1]]
    }

    /// Iterator over all node ids `0..n`.
    #[inline]
    pub fn nodes(&self) -> impl ExactSizeIterator<Item = NodeId> + '_ {
        (0..self.n() as u32).map(NodeId)
    }

    /// True if the arc `u→v` exists (for undirected graphs this is edge
    /// membership). O(log deg(u)) via binary search on the sorted slice.
    pub fn has_edge(&self, u: NodeId, v: NodeId) -> bool {
        self.neighbors(u).binary_search(&v).is_ok()
    }

    /// Iterator over logical edges.
    ///
    /// Undirected: each edge yielded once with `u <= v`. Directed: every arc.
    pub fn edges(&self) -> impl Iterator<Item = (NodeId, NodeId)> + '_ {
        self.nodes().flat_map(move |u| {
            self.neighbors(u)
                .iter()
                .copied()
                .filter(move |&v| self.kind == GraphKind::Directed || u <= v)
                .map(move |v| (u, v))
        })
    }

    /// Sum of all stored arc slots (2m for undirected simple graphs).
    #[inline]
    pub fn arc_count(&self) -> usize {
        self.targets.len()
    }

    /// True when the graph has no nodes.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.n() == 0
    }

    /// Returns the maximum degree over all nodes (0 for an empty graph).
    pub fn max_degree(&self) -> usize {
        self.nodes().map(|u| self.degree(u)).max().unwrap_or(0)
    }

    /// Validates an externally supplied node id against this graph.
    pub fn check_node(&self, u: NodeId) -> Result<()> {
        if u.index() < self.n() {
            Ok(())
        } else {
            Err(GraphError::InvalidInput(format!(
                "node {u} out of range (n = {})",
                self.n()
            )))
        }
    }

    /// Applies a batch of edge edits, producing the next-epoch graph and the
    /// sorted list of **touched** nodes — the nodes whose adjacency list
    /// changed (both endpoints for undirected edits; the source endpoint for
    /// directed arcs, since walks only consult out-neighbors).
    ///
    /// Deletions are applied before insertions, so an edge present in both
    /// lists is a delete-then-reinsert (a no-op for the edge set, but its
    /// endpoints still count as touched). Every deletion must name an
    /// existing edge and every insertion a non-existing one (after the
    /// batch's deletions); self-loops, out-of-range endpoints and duplicate
    /// entries within either list are rejected.
    ///
    /// Cost: `O(n + m + |batch| log |batch|)` — the CSR arrays are copied
    /// (they are immutable, and offsets shift), but only touched rows are
    /// re-merged; untouched rows are copied verbatim. The expensive
    /// downstream work (walk resampling) is what the touched set keeps
    /// small.
    pub fn with_edits(
        &self,
        insertions: &[(u32, u32)],
        deletions: &[(u32, u32)],
    ) -> Result<(CsrGraph, Vec<NodeId>)> {
        let n = self.n();
        let canon = |u: u32, v: u32, what: &str| -> Result<(u32, u32)> {
            if u as usize >= n || v as usize >= n {
                return Err(GraphError::InvalidInput(format!(
                    "{what} ({u}, {v}) out of range (n = {n})"
                )));
            }
            if u == v {
                return Err(GraphError::InvalidInput(format!(
                    "{what} ({u}, {v}) is a self-loop"
                )));
            }
            if self.kind == GraphKind::Undirected && u > v {
                Ok((v, u))
            } else {
                Ok((u, v))
            }
        };
        let mut ins: Vec<(u32, u32)> = insertions
            .iter()
            .map(|&(u, v)| canon(u, v, "insertion"))
            .collect::<Result<_>>()?;
        let mut del: Vec<(u32, u32)> = deletions
            .iter()
            .map(|&(u, v)| canon(u, v, "deletion"))
            .collect::<Result<_>>()?;
        ins.sort_unstable();
        del.sort_unstable();
        for (name, list) in [("insertion", &ins), ("deletion", &del)] {
            if let Some(w) = list.windows(2).find(|w| w[0] == w[1]) {
                return Err(GraphError::InvalidInput(format!(
                    "duplicate {name} ({}, {})",
                    w[0].0, w[0].1
                )));
            }
        }
        for &(u, v) in &del {
            if !self.has_edge(NodeId(u), NodeId(v)) {
                return Err(GraphError::InvalidInput(format!(
                    "deletion ({u}, {v}) does not exist"
                )));
            }
        }
        for &(u, v) in &ins {
            let replaced = del.binary_search(&(u, v)).is_ok();
            if !replaced && self.has_edge(NodeId(u), NodeId(v)) {
                return Err(GraphError::InvalidInput(format!(
                    "insertion ({u}, {v}) already exists"
                )));
            }
        }

        // Expand edges to arcs keyed by the node whose row they live in.
        let arcs_of = |list: &[(u32, u32)]| -> Vec<(u32, u32)> {
            let mut arcs: Vec<(u32, u32)> = Vec::with_capacity(list.len() * 2);
            for &(u, v) in list {
                arcs.push((u, v));
                if self.kind == GraphKind::Undirected {
                    arcs.push((v, u));
                }
            }
            arcs.sort_unstable();
            arcs
        };
        let add_arcs = arcs_of(&ins);
        let del_arcs = arcs_of(&del);

        let mut touched: Vec<NodeId> = add_arcs
            .iter()
            .chain(del_arcs.iter())
            .map(|&(u, _)| NodeId(u))
            .collect();
        touched.sort_unstable();
        touched.dedup();

        let mut offsets = Vec::with_capacity(n + 1);
        offsets.push(0usize);
        let mut targets: Vec<NodeId> =
            Vec::with_capacity(self.targets.len() + add_arcs.len() - del_arcs.len());
        let row_of = |arcs: &[(u32, u32)], u: u32| -> std::ops::Range<usize> {
            let lo = arcs.partition_point(|&(a, _)| a < u);
            let hi = arcs.partition_point(|&(a, _)| a <= u);
            lo..hi
        };
        for u in 0..n as u32 {
            let old = self.neighbors(NodeId(u));
            let adds = &add_arcs[row_of(&add_arcs, u)];
            let dels = &del_arcs[row_of(&del_arcs, u)];
            if adds.is_empty() && dels.is_empty() {
                targets.extend_from_slice(old);
            } else {
                // Merge: old minus dels, interleaved with adds, all sorted.
                let mut di = 0;
                let mut ai = 0;
                for &w in old {
                    if di < dels.len() && dels[di].1 == w.raw() {
                        di += 1;
                        continue;
                    }
                    while ai < adds.len() && adds[ai].1 < w.raw() {
                        targets.push(NodeId(adds[ai].1));
                        ai += 1;
                    }
                    targets.push(w);
                }
                for &(_, w) in &adds[ai..] {
                    targets.push(NodeId(w));
                }
            }
            offsets.push(targets.len());
        }
        let num_edges = self.num_edges + ins.len() - del.len();
        Ok((
            CsrGraph::from_parts(self.kind, offsets, targets, num_edges),
            touched,
        ))
    }

    /// Raw offsets (mainly for serialization and tests).
    pub fn offsets(&self) -> &[usize] {
        &self.offsets
    }

    /// Raw target array (mainly for serialization and tests).
    pub fn targets(&self) -> &[NodeId] {
        &self.targets
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn triangle() -> CsrGraph {
        CsrGraph::from_edges(3, &[(0, 1), (1, 2), (2, 0)]).unwrap()
    }

    #[test]
    fn triangle_basics() {
        let g = triangle();
        assert_eq!(g.n(), 3);
        assert_eq!(g.m(), 3);
        assert_eq!(g.arc_count(), 6);
        assert_eq!(g.kind(), GraphKind::Undirected);
        for u in g.nodes() {
            assert_eq!(g.degree(u), 2);
        }
        assert!(g.has_edge(NodeId(0), NodeId(2)));
        assert!(!g.has_edge(NodeId(0), NodeId(0)));
    }

    #[test]
    fn neighbors_are_sorted() {
        let g = CsrGraph::from_edges(5, &[(0, 4), (0, 2), (0, 1), (0, 3)]).unwrap();
        assert_eq!(
            g.neighbors(NodeId(0)),
            &[NodeId(1), NodeId(2), NodeId(3), NodeId(4)]
        );
        assert_eq!(g.degree(NodeId(0)), 4);
        assert_eq!(g.degree(NodeId(1)), 1);
    }

    #[test]
    fn edges_yields_each_once_undirected() {
        let g = triangle();
        let mut es: Vec<_> = g.edges().collect();
        es.sort();
        assert_eq!(
            es,
            vec![
                (NodeId(0), NodeId(1)),
                (NodeId(0), NodeId(2)),
                (NodeId(1), NodeId(2))
            ]
        );
    }

    #[test]
    fn isolated_nodes_have_zero_degree() {
        let g = CsrGraph::from_edges(4, &[(0, 1)]).unwrap();
        assert_eq!(g.degree(NodeId(2)), 0);
        assert_eq!(g.degree(NodeId(3)), 0);
        assert!(g.neighbors(NodeId(3)).is_empty());
        assert_eq!(g.max_degree(), 1);
    }

    #[test]
    fn empty_graph() {
        let g = CsrGraph::from_edges(0, &[]).unwrap();
        assert!(g.is_empty());
        assert_eq!(g.n(), 0);
        assert_eq!(g.m(), 0);
        assert_eq!(g.max_degree(), 0);
        assert_eq!(g.edges().count(), 0);
    }

    #[test]
    fn check_node_bounds() {
        let g = triangle();
        assert!(g.check_node(NodeId(2)).is_ok());
        assert!(g.check_node(NodeId(3)).is_err());
    }

    #[test]
    fn with_edits_applies_inserts_and_deletes() {
        let g = CsrGraph::from_edges(5, &[(0, 1), (1, 2), (2, 3)]).unwrap();
        let (g2, touched) = g.with_edits(&[(3, 4), (0, 2)], &[(1, 2)]).unwrap();
        assert_eq!(g2.n(), 5);
        assert_eq!(g2.m(), 4);
        assert!(g2.has_edge(NodeId(3), NodeId(4)));
        assert!(g2.has_edge(NodeId(0), NodeId(2)));
        assert!(!g2.has_edge(NodeId(1), NodeId(2)));
        assert!(g2.has_edge(NodeId(0), NodeId(1)), "untouched edge survives");
        assert_eq!(
            touched,
            vec![NodeId(0), NodeId(1), NodeId(2), NodeId(3), NodeId(4)]
        );
        // Rows stay sorted, and the edited graph equals a from-scratch build
        // of the same edge list.
        let fresh = CsrGraph::from_edges(5, &[(0, 1), (2, 3), (3, 4), (0, 2)]).unwrap();
        assert_eq!(g2.offsets(), fresh.offsets());
        assert_eq!(g2.targets(), fresh.targets());
    }

    #[test]
    fn with_edits_untouched_rows_copied_verbatim() {
        let g = CsrGraph::from_edges(6, &[(0, 1), (2, 3), (4, 5), (1, 2)]).unwrap();
        let (g2, touched) = g.with_edits(&[], &[(4, 5)]).unwrap();
        assert_eq!(touched, vec![NodeId(4), NodeId(5)]);
        for u in [0u32, 1, 2, 3] {
            assert_eq!(g2.neighbors(NodeId(u)), g.neighbors(NodeId(u)));
        }
        assert!(g2.neighbors(NodeId(4)).is_empty());
    }

    #[test]
    fn with_edits_delete_then_reinsert_is_touched_noop() {
        let g = triangle();
        let (g2, touched) = g.with_edits(&[(0, 1)], &[(1, 0)]).unwrap();
        assert_eq!(g2.m(), 3);
        assert!(g2.has_edge(NodeId(0), NodeId(1)));
        assert_eq!(touched, vec![NodeId(0), NodeId(1)]);
    }

    #[test]
    fn with_edits_rejects_bad_batches() {
        let g = triangle();
        assert!(g.with_edits(&[(0, 0)], &[]).is_err(), "self-loop");
        assert!(g.with_edits(&[(0, 3)], &[]).is_err(), "out of range");
        assert!(g.with_edits(&[(0, 1)], &[]).is_err(), "already exists");
        assert!(g.with_edits(&[], &[(0, 3)]).is_err(), "out of range del");
        let g4 = CsrGraph::from_edges(4, &[(0, 1)]).unwrap();
        assert!(g4.with_edits(&[], &[(2, 3)]).is_err(), "missing edge");
        assert!(
            g4.with_edits(&[(2, 3), (3, 2)], &[]).is_err(),
            "duplicate insertion across orientations"
        );
        assert!(
            g4.with_edits(&[], &[(0, 1), (1, 0)]).is_err(),
            "duplicate deletion across orientations"
        );
    }

    #[test]
    fn with_edits_directed_touches_only_sources() {
        let mut b = crate::GraphBuilder::directed().with_nodes(4);
        b.add_edge(0, 1);
        b.add_edge(1, 2);
        let g = b.build().unwrap();
        let (g2, touched) = g.with_edits(&[(2, 3)], &[(0, 1)]).unwrap();
        assert_eq!(touched, vec![NodeId(0), NodeId(2)]);
        assert!(!g2.has_edge(NodeId(0), NodeId(1)));
        assert!(g2.has_edge(NodeId(2), NodeId(3)));
        assert!(!g2.has_edge(NodeId(3), NodeId(2)), "directed arc only");
        assert_eq!(g2.m(), 2);
    }

    #[test]
    fn dedup_and_self_loop_removal_in_from_edges() {
        let g = CsrGraph::from_edges(3, &[(0, 1), (1, 0), (0, 0), (0, 1)]).unwrap();
        assert_eq!(g.m(), 1);
        assert_eq!(g.degree(NodeId(0)), 1);
        assert_eq!(g.degree(NodeId(2)), 0);
    }
}
