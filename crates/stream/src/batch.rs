//! Timestamped edge-churn batches and their application to graphs.

use rwd_graph::weighted::WeightedCsrGraph;
use rwd_graph::{CsrGraph, GraphError, NodeId};
use rwd_walks::NodeSet;

/// One timestamped batch of edge churn.
///
/// Insertions carry a weight so one trace can drive both pipelines: the
/// unweighted application ignores the weight, the weighted application uses
/// it. Listing an edge in both `deletions` and `insertions` is a
/// delete-then-reinsert — a weight update on weighted graphs.
///
/// The node universe is fixed (`0..n`): churn adds and removes edges, never
/// nodes. A node that loses its last edge simply becomes isolated (walks
/// from it stay put, the documented degree-0 convention).
///
/// **Duplicate edits.** Real timestamped traces routinely repeat an edge
/// inside one window, so `apply`/`apply_weighted` canonicalize the batch
/// first: *identical* duplicates — the same edge listed twice in
/// `deletions`, or listed twice in `insertions` with the same weight (for
/// an undirected graph, in either orientation) — collapse to a single
/// edit. What can never be repaired silently is a **conflicting**
/// duplicate: the same edge inserted twice with different weights is
/// rejected before anything touches the graph, because either choice would
/// silently pick a winner and both pipelines must agree on the applied
/// edge list. Everything else (`insert-of-an-existing-edge` not shielded
/// by a same-batch deletion, deletion of a missing edge, self-loops,
/// out-of-range endpoints) is still rejected by the graph-level
/// `with_edits` validation — the batch never reaches it in a shape that
/// could break the simple-graph invariant the walk index assumes.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct EdgeBatch {
    /// Event time of the batch (opaque to the engine; reported back in
    /// [`crate::BatchReport`] so churn stats can be joined to a timeline).
    pub timestamp: u64,
    /// Edges to insert, with the weight used by weighted graphs.
    pub insertions: Vec<(u32, u32, f64)>,
    /// Edges to delete.
    pub deletions: Vec<(u32, u32)>,
}

/// Canonicalized edit lists produced by [`EdgeBatch::dedup_edits`]:
/// orientation-normalized, sorted, identical duplicates collapsed.
pub type DedupedEdits = (Vec<(u32, u32, f64)>, Vec<(u32, u32)>);

impl EdgeBatch {
    /// Creates an empty batch at `timestamp`.
    pub fn new(timestamp: u64) -> Self {
        EdgeBatch {
            timestamp,
            ..EdgeBatch::default()
        }
    }

    /// Number of edits (insertions plus deletions) in the batch.
    pub fn len(&self) -> usize {
        self.insertions.len() + self.deletions.len()
    }

    /// True when the batch contains no edits.
    pub fn is_empty(&self) -> bool {
        self.insertions.is_empty() && self.deletions.is_empty()
    }

    /// Canonicalizes the batch for application: orientation-normalizes
    /// edits (undirected graphs only), collapses identical duplicates, and
    /// rejects same-edge insertions whose weights disagree. Exposed so
    /// trace loaders can pre-clean windows; `apply`/`apply_weighted` call
    /// it internally.
    ///
    /// Weight identity is bitwise (`f64::to_bits`), the same equality the
    /// deterministic pipelines use everywhere else.
    pub fn dedup_edits(&self, undirected: bool) -> Result<DedupedEdits, GraphError> {
        let canon = |u: u32, v: u32| {
            if undirected && u > v {
                (v, u)
            } else {
                (u, v)
            }
        };
        let mut ins: Vec<(u32, u32, f64)> = self
            .insertions
            .iter()
            .map(|&(u, v, w)| {
                let (u, v) = canon(u, v);
                (u, v, w)
            })
            .collect();
        ins.sort_unstable_by_key(|a| (a.0, a.1, a.2.to_bits()));
        ins.dedup_by(|a, b| (a.0, a.1, a.2.to_bits()) == (b.0, b.1, b.2.to_bits()));
        if let Some(w) = ins
            .windows(2)
            .find(|w| (w[0].0, w[0].1) == (w[1].0, w[1].1))
        {
            return Err(GraphError::InvalidInput(format!(
                "batch inserts edge ({}, {}) twice with conflicting weights \
                 {} and {}",
                w[0].0, w[0].1, w[0].2, w[1].2
            )));
        }
        let mut del: Vec<(u32, u32)> = self.deletions.iter().map(|&(u, v)| canon(u, v)).collect();
        del.sort_unstable();
        del.dedup();
        Ok((ins, del))
    }

    /// Applies the batch to an unweighted graph, producing the next-epoch
    /// graph and its touched set. Insertion weights are ignored (but still
    /// conflict-checked — see [`EdgeBatch::dedup_edits`] — so a trace
    /// behaves identically whichever pipeline consumes it). See
    /// [`CsrGraph::with_edits`] for the remaining validation rules.
    pub fn apply(&self, g: &CsrGraph) -> Result<GraphDelta, GraphError> {
        let undirected = g.kind() == rwd_graph::GraphKind::Undirected;
        let edits = self.dedup_edits(undirected)?;
        let ins: Vec<(u32, u32)> = edits.0.iter().map(|&(u, v, _)| (u, v)).collect();
        let (graph, touched) = g.with_edits(&ins, &edits.1)?;
        let touched = NodeSet::from_nodes(graph.n(), touched);
        Ok(GraphDelta {
            graph,
            touched,
            edits,
        })
    }

    /// Applies the batch to a weighted graph: alias tables and cumulative
    /// weights are rebuilt only for touched rows
    /// ([`WeightedCsrGraph::with_edits`]). Identical duplicate edits are
    /// collapsed first ([`EdgeBatch::dedup_edits`]).
    pub fn apply_weighted(&self, g: &WeightedCsrGraph) -> Result<WeightedGraphDelta, GraphError> {
        let edits = self.dedup_edits(true)?;
        let (graph, touched) = g.with_edits(&edits.0, &edits.1)?;
        let touched = NodeSet::from_nodes(graph.n(), touched);
        Ok(WeightedGraphDelta {
            graph,
            touched,
            edits,
        })
    }
}

/// The result of applying an [`EdgeBatch`] to a [`CsrGraph`]: the next
/// epoch's graph plus the set of nodes whose adjacency changed — the only
/// nodes whose outgoing walks can have changed.
#[derive(Clone, Debug)]
pub struct GraphDelta {
    /// The post-batch graph.
    pub graph: CsrGraph,
    /// Nodes whose adjacency list changed.
    pub touched: NodeSet,
    /// The canonical edits that were applied ([`EdgeBatch::dedup_edits`]),
    /// which a durable engine journals.
    pub(crate) edits: DedupedEdits,
}

impl GraphDelta {
    /// Touched nodes in ascending id order.
    pub fn touched_nodes(&self) -> Vec<NodeId> {
        self.touched.to_vec()
    }
}

/// The result of applying an [`EdgeBatch`] to a [`WeightedCsrGraph`].
#[derive(Clone, Debug)]
pub struct WeightedGraphDelta {
    /// The post-batch graph (alias tables patched for touched rows only).
    pub graph: WeightedCsrGraph,
    /// Nodes whose adjacency list (and thus sampler) changed.
    pub touched: NodeSet,
    /// The canonical edits that were applied ([`EdgeBatch::dedup_edits`]).
    pub(crate) edits: DedupedEdits,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn apply_tracks_touched_endpoints() {
        let g = CsrGraph::from_edges(4, &[(0, 1), (1, 2)]).unwrap();
        let mut batch = EdgeBatch::new(42);
        batch.insertions.push((2, 3, 1.0));
        batch.deletions.push((0, 1));
        assert_eq!(batch.len(), 2);
        assert!(!batch.is_empty());
        let delta = batch.apply(&g).unwrap();
        assert_eq!(delta.graph.m(), 2);
        assert_eq!(
            delta.touched_nodes(),
            vec![NodeId(0), NodeId(1), NodeId(2), NodeId(3)]
        );
    }

    #[test]
    fn apply_weighted_uses_insertion_weights() {
        let g = WeightedCsrGraph::from_weighted_edges(3, &[(0, 1, 1.0)]).unwrap();
        let mut batch = EdgeBatch::new(0);
        batch.insertions.push((1, 2, 7.5));
        let delta = batch.apply_weighted(&g).unwrap();
        assert_eq!(delta.graph.m(), 2);
        assert!((delta.graph.strength(NodeId(2)) - 7.5).abs() < 1e-12);
        assert_eq!(delta.touched.to_vec(), vec![NodeId(1), NodeId(2)]);
    }

    #[test]
    fn invalid_batches_are_rejected() {
        let g = CsrGraph::from_edges(3, &[(0, 1)]).unwrap();
        let mut bad = EdgeBatch::new(0);
        bad.deletions.push((1, 2));
        assert!(bad.apply(&g).is_err());
    }

    #[test]
    fn identical_duplicate_edits_collapse() {
        // Regression (trace windows repeat edges): the same insertion in
        // both orientations and a repeated deletion must apply as single
        // edits instead of failing the whole batch — and must never create
        // a parallel edge.
        let g = CsrGraph::from_edges(4, &[(0, 1), (1, 2)]).unwrap();
        let mut batch = EdgeBatch::new(0);
        batch.insertions.push((2, 3, 1.5));
        batch.insertions.push((3, 2, 1.5)); // same undirected edge + weight
        batch.deletions.push((0, 1));
        batch.deletions.push((1, 0));
        let delta = batch.apply(&g).unwrap();
        assert_eq!(delta.graph.m(), 2);
        assert!(delta.graph.has_edge(NodeId(2), NodeId(3)));
        assert!(!delta.graph.has_edge(NodeId(0), NodeId(1)));
        assert_eq!(delta.graph.neighbors(NodeId(2)), &[NodeId(1), NodeId(3)]);

        // Weighted twin of the same batch.
        let wg = WeightedCsrGraph::from_weighted_edges(4, &[(0, 1, 2.0), (1, 2, 1.0)]).unwrap();
        let wd = batch.apply_weighted(&wg).unwrap();
        assert_eq!(wd.graph.m(), 2);
        assert!((wd.graph.strength(NodeId(3)) - 1.5).abs() < 1e-12);
    }

    #[test]
    fn conflicting_duplicate_insertions_are_rejected() {
        let g = CsrGraph::from_edges(4, &[(0, 1)]).unwrap();
        let wg = WeightedCsrGraph::from_weighted_edges(4, &[(0, 1, 1.0)]).unwrap();
        let mut batch = EdgeBatch::new(0);
        batch.insertions.push((2, 3, 1.0));
        batch.insertions.push((3, 2, 2.0)); // same edge, different weight
        let err = batch.apply(&g).unwrap_err();
        assert!(err.to_string().contains("conflicting weights"), "{err}");
        let err = batch.apply_weighted(&wg).unwrap_err();
        assert!(err.to_string().contains("conflicting weights"), "{err}");
    }

    #[test]
    fn directed_graphs_keep_orientations_distinct() {
        let mut b = rwd_graph::GraphBuilder::directed().with_nodes(3);
        b.add_edge(0, 1);
        let g = b.build().unwrap();
        let mut batch = EdgeBatch::new(0);
        // Opposite orientations are distinct arcs on a directed graph …
        batch.insertions.push((1, 2, 1.0));
        batch.insertions.push((2, 1, 1.0));
        let delta = batch.apply(&g).unwrap();
        assert_eq!(delta.graph.m(), 3);
        assert!(delta.graph.has_edge(NodeId(1), NodeId(2)));
        assert!(delta.graph.has_edge(NodeId(2), NodeId(1)));
        // … but an exact repeat of one arc still collapses.
        let mut batch = EdgeBatch::new(1);
        batch.insertions.push((1, 2, 1.0));
        batch.insertions.push((1, 2, 1.0));
        let delta = batch.apply(&g).unwrap();
        assert_eq!(delta.graph.m(), 2);
    }

    #[test]
    fn insert_of_existing_edge_still_rejected() {
        // Dedup must not weaken the graph-level validation: inserting an
        // edge that already exists (and is not deleted in the same batch)
        // stays an error on both pipelines.
        let g = CsrGraph::from_edges(3, &[(0, 1)]).unwrap();
        let wg = WeightedCsrGraph::from_weighted_edges(3, &[(0, 1, 1.0)]).unwrap();
        let mut batch = EdgeBatch::new(0);
        batch.insertions.push((1, 0, 3.0));
        assert!(batch.apply(&g).is_err());
        assert!(batch.apply_weighted(&wg).is_err());
    }
}
