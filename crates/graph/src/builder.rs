//! Incremental graph construction: every build is a simple graph.

use crate::csr::{CsrGraph, GraphKind};
use crate::error::GraphError;
use crate::node::NodeId;
use crate::Result;

/// Accumulates edges and produces a simple [`CsrGraph`]: self-loops are
/// dropped and duplicate edges (for an undirected graph, in either
/// orientation) collapse to one.
///
/// ```
/// use rwd_graph::GraphBuilder;
/// let mut b = GraphBuilder::undirected().with_nodes(4);
/// b.add_edge(0, 1);
/// b.add_edge(1, 2);
/// b.add_edge(2, 3);
/// let g = b.build().unwrap();
/// assert_eq!((g.n(), g.m()), (4, 3));
/// ```
#[derive(Clone, Debug)]
pub struct GraphBuilder {
    kind: GraphKind,
    edges: Vec<(u32, u32)>,
    explicit_n: Option<usize>,
    max_seen: Option<u32>,
}

impl GraphBuilder {
    /// Starts an undirected builder.
    pub fn undirected() -> Self {
        Self::new(GraphKind::Undirected)
    }

    /// Starts a directed builder.
    pub fn directed() -> Self {
        Self::new(GraphKind::Directed)
    }

    fn new(kind: GraphKind) -> Self {
        GraphBuilder {
            kind,
            edges: Vec::new(),
            explicit_n: None,
            max_seen: None,
        }
    }

    /// Fixes the node count to `n`; edges must then stay within `[0, n)`.
    /// Without this, `n` is inferred as `max node id + 1`.
    pub fn with_nodes(mut self, n: usize) -> Self {
        self.explicit_n = Some(n);
        self
    }

    /// Pre-allocates capacity for `m` edges.
    pub fn with_edge_capacity(mut self, m: usize) -> Self {
        self.edges.reserve(m);
        self
    }

    /// Adds one edge (directed: the arc `u→v`).
    #[inline]
    pub fn add_edge(&mut self, u: u32, v: u32) {
        let hi = u.max(v);
        self.max_seen = Some(self.max_seen.map_or(hi, |m| m.max(hi)));
        self.edges.push((u, v));
    }

    /// Number of edges currently accumulated (before self-loops and
    /// duplicates are dropped).
    pub fn pending_edges(&self) -> usize {
        self.edges.len()
    }

    /// Consumes the builder and produces the CSR graph.
    pub fn build(self) -> Result<CsrGraph> {
        let GraphBuilder {
            kind,
            mut edges,
            explicit_n,
            max_seen,
        } = self;

        let inferred = max_seen.map_or(0, |m| m as usize + 1);
        let n = match explicit_n {
            Some(n) => {
                if inferred > n {
                    return Err(GraphError::InvalidInput(format!(
                        "edge references node {} but n = {n}",
                        inferred - 1
                    )));
                }
                n
            }
            None => inferred,
        };

        edges.retain(|&(u, v)| u != v);
        // Canonicalize undirected edges so duplicate detection sees (u,v) == (v,u).
        if kind == GraphKind::Undirected {
            for e in &mut edges {
                if e.0 > e.1 {
                    *e = (e.1, e.0);
                }
            }
        }
        edges.sort_unstable();
        edges.dedup();
        let num_edges = edges.len();

        // Counting sort into CSR. Undirected edges emit both arcs.
        let mut deg = vec![0usize; n];
        for &(u, v) in &edges {
            deg[u as usize] += 1;
            if kind == GraphKind::Undirected {
                deg[v as usize] += 1;
            }
        }

        let mut offsets = Vec::with_capacity(n + 1);
        let mut acc = 0usize;
        offsets.push(0);
        for d in &deg {
            acc += d;
            offsets.push(acc);
        }

        let mut cursor = offsets.clone();
        let mut targets = vec![NodeId(0); acc];
        for &(u, v) in &edges {
            targets[cursor[u as usize]] = NodeId(v);
            cursor[u as usize] += 1;
            if kind == GraphKind::Undirected {
                targets[cursor[v as usize]] = NodeId(u);
                cursor[v as usize] += 1;
            }
        }

        // Sort each adjacency range (stable ordering guarantees for
        // has_edge binary search and deterministic walks).
        for u in 0..n {
            targets[offsets[u]..offsets[u + 1]].sort_unstable();
        }

        Ok(CsrGraph::from_parts(kind, offsets, targets, num_edges))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn infers_node_count() {
        let mut b = GraphBuilder::undirected();
        b.add_edge(0, 5);
        let g = b.build().unwrap();
        assert_eq!(g.n(), 6);
        assert_eq!(g.m(), 1);
    }

    #[test]
    fn explicit_node_count_validates_range() {
        let mut b = GraphBuilder::undirected().with_nodes(3);
        b.add_edge(0, 5);
        assert!(b.build().is_err());
    }

    #[test]
    fn undirected_duplicates_collapse_across_orientations() {
        let mut b = GraphBuilder::undirected();
        b.add_edge(2, 1);
        b.add_edge(1, 2);
        let g = b.build().unwrap();
        assert_eq!(g.m(), 1);
        assert_eq!(g.degree(NodeId(1)), 1);
        assert_eq!(g.degree(NodeId(2)), 1);
    }

    #[test]
    fn directed_keeps_orientations_distinct() {
        let mut b = GraphBuilder::directed();
        b.add_edge(0, 1);
        b.add_edge(1, 0);
        let g = b.build().unwrap();
        assert_eq!(g.m(), 2);
        assert_eq!(g.kind(), GraphKind::Directed);
        assert_eq!(g.neighbors(NodeId(0)), &[NodeId(1)]);
        assert_eq!(g.neighbors(NodeId(1)), &[NodeId(0)]);
    }

    #[test]
    fn self_loop_policies() {
        // The one policy left: self-loops are dropped, in both kinds.
        for mut b in [GraphBuilder::undirected(), GraphBuilder::directed()] {
            b.add_edge(0, 0);
            b.add_edge(0, 1);
            b.add_edge(1, 1);
            let g = b.build().unwrap();
            assert_eq!((g.n(), g.m()), (2, 1));
            assert_eq!(g.neighbors(NodeId(0)), &[NodeId(1)]);
        }
    }

    #[test]
    fn multi_edge_policies() {
        // The one policy left: duplicate edges collapse to one.
        let mut b = GraphBuilder::undirected();
        b.add_edge(0, 1);
        b.add_edge(0, 1);
        let g = b.build().unwrap();
        assert_eq!(g.m(), 1);
        assert_eq!(g.neighbors(NodeId(0)), &[NodeId(1)]);
        assert_eq!(g.neighbors(NodeId(1)), &[NodeId(0)]);
        let mut b = GraphBuilder::directed();
        b.add_edge(0, 1);
        b.add_edge(0, 1);
        assert_eq!(b.build().unwrap().m(), 1);
    }

    #[test]
    fn empty_builder_builds_empty_graph() {
        let g = GraphBuilder::undirected().build().unwrap();
        assert_eq!(g.n(), 0);
        let g = GraphBuilder::undirected().with_nodes(7).build().unwrap();
        assert_eq!((g.n(), g.m()), (7, 0));
    }

    #[test]
    fn pending_edges_counts_raw_additions() {
        let mut b = GraphBuilder::undirected();
        b.add_edge(0, 1);
        b.add_edge(0, 1);
        assert_eq!(b.pending_edges(), 2);
    }
}
