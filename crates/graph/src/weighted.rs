//! Weighted graph extension.
//!
//! The paper notes its techniques "can also be easily extended to directed
//! and weighted graphs": the only change is the transition probability
//! `p_uw = w(u,w) / strength(u)` in place of `1/deg(u)`. This module supplies
//! the weighted substrate; `rwd-walks` contains the matching walker and DP.

use std::ops::Range;

use crate::csr::{CsrGraph, GraphKind};
use crate::error::GraphError;
use crate::node::NodeId;
use crate::Result;

/// An immutable weighted graph in CSR form with one sampler per node: a
/// Walker/Vose **alias table** for O(1) neighbor draws (the random-walk hot
/// path).
///
/// Undirected: each edge `{u, v, w}` is stored as both arcs with weight `w`.
/// The topology (offsets, sorted targets, edge count) is an undirected
/// [`CsrGraph`]; the weight and sampler columns are aligned with its
/// targets.
#[derive(Clone, Debug)]
pub struct WeightedCsrGraph {
    topo: CsrGraph,
    weights: Vec<f64>,
    /// Alias-table acceptance probabilities, aligned with the targets:
    /// bucket `i` of node `u` keeps its own neighbor with probability
    /// `alias_prob[row(u).start + i]`, else falls through to `alias[..]`.
    alias_prob: Vec<f64>,
    /// Alias-table fallback slots (indices *within* the node's row, so a
    /// row's table stays valid when offsets shift).
    alias: Vec<u32>,
}

/// Builds one node's Walker/Vose alias table in place.
///
/// `scaled` holds `w_i · d / total` on entry and is consumed as scratch.
/// Construction is deterministic (index stacks, no RNG), so the table — and
/// every sampler that consults it — is a pure function of the edge list.
fn fill_alias_table(scaled: &mut [f64], prob: &mut [f64], alias: &mut [u32]) {
    let d = scaled.len();
    let mut small: Vec<u32> = Vec::with_capacity(d);
    let mut large: Vec<u32> = Vec::with_capacity(d);
    for (i, &s) in scaled.iter().enumerate() {
        if s < 1.0 {
            small.push(i as u32);
        } else {
            large.push(i as u32);
        }
    }
    while !small.is_empty() && !large.is_empty() {
        let s = small.pop().expect("checked non-empty");
        let lg = *large.last().expect("checked non-empty");
        prob[s as usize] = scaled[s as usize];
        alias[s as usize] = lg;
        let rest = (scaled[lg as usize] + scaled[s as usize]) - 1.0;
        scaled[lg as usize] = rest;
        if rest < 1.0 {
            large.pop();
            small.push(lg);
        }
    }
    // Leftovers (either stack) keep their own bucket with probability 1;
    // their alias slot is never consulted but must stay in range.
    for &i in small.iter().chain(large.iter()) {
        prob[i as usize] = 1.0;
        alias[i as usize] = i;
    }
}

impl WeightedCsrGraph {
    /// Builds an undirected weighted simple graph over nodes `0..n`.
    ///
    /// Duplicate edges are rejected; weights must be strictly positive and
    /// finite; self-loops are rejected.
    pub fn from_weighted_edges(n: usize, edges: &[(u32, u32, f64)]) -> Result<Self> {
        let mut arcs: Vec<(u32, u32, f64)> = Vec::with_capacity(edges.len() * 2);
        for &(u, v, w) in edges {
            if u as usize >= n || v as usize >= n {
                return Err(GraphError::InvalidInput(format!(
                    "edge ({u}, {v}) out of range (n = {n})"
                )));
            }
            if u == v {
                return Err(GraphError::InvalidInput(format!("self-loop at {u}")));
            }
            if !(w.is_finite() && w > 0.0) {
                return Err(GraphError::InvalidInput(format!(
                    "edge ({u}, {v}) has non-positive weight {w}"
                )));
            }
            arcs.push((u, v, w));
            arcs.push((v, u, w));
        }
        arcs.sort_unstable_by_key(|a| (a.0, a.1));
        if arcs
            .windows(2)
            .any(|p| (p[0].0, p[0].1) == (p[1].0, p[1].1))
        {
            return Err(GraphError::InvalidInput("duplicate weighted edge".into()));
        }

        let mut offsets = vec![0usize; n + 1];
        for &(u, _, _) in &arcs {
            offsets[u as usize + 1] += 1;
        }
        for i in 0..n {
            offsets[i + 1] += offsets[i];
        }
        let targets: Vec<NodeId> = arcs.iter().map(|&(_, v, _)| NodeId(v)).collect();
        let topo = CsrGraph::from_parts(GraphKind::Undirected, offsets, targets, edges.len());
        let mut g = WeightedCsrGraph::over(topo);
        let mut scaled = Vec::new();
        for u in 0..n {
            let row = g.row(NodeId::new(u));
            g.push_row(arcs[row].iter().map(|&(_, _, w)| w), &mut scaled);
        }
        Ok(g)
    }

    /// A graph over `topo` with empty weight and sampler columns, sized for
    /// every arc; the caller pushes the rows.
    fn over(topo: CsrGraph) -> Self {
        let slots = topo.arc_count();
        WeightedCsrGraph {
            topo,
            weights: Vec::with_capacity(slots),
            alias_prob: Vec::with_capacity(slots),
            alias: Vec::with_capacity(slots),
        }
    }

    /// The slot range of `u`'s row in the target, weight and sampler
    /// columns.
    #[inline]
    fn row(&self, u: NodeId) -> Range<usize> {
        let offsets = self.topo.offsets();
        offsets[u.index()]..offsets[u.index() + 1]
    }

    /// Number of nodes.
    #[inline]
    pub fn n(&self) -> usize {
        self.topo.n()
    }

    /// Number of undirected edges.
    #[inline]
    pub fn m(&self) -> usize {
        self.topo.m()
    }

    /// Degree (number of incident edges) of `u`.
    #[inline]
    pub fn degree(&self, u: NodeId) -> usize {
        self.topo.degree(u)
    }

    /// Total incident weight of `u` (the random-walk normalizer): the row's
    /// weights summed left to right.
    #[inline]
    pub fn strength(&self, u: NodeId) -> f64 {
        self.weights[self.row(u)]
            .iter()
            .fold(0.0, |acc, &w| acc + w)
    }

    /// Neighbor/weight pairs of `u`.
    pub fn neighbors(&self, u: NodeId) -> impl ExactSizeIterator<Item = (NodeId, f64)> + '_ {
        let row = self.row(u);
        self.topo
            .neighbors(u)
            .iter()
            .copied()
            .zip(self.weights[row].iter().copied())
    }

    /// Samples a neighbor of `u` with probability proportional to edge
    /// weight in **O(1)** via the precomputed Walker/Vose alias table, given
    /// a uniform draw `x ∈ [0, 1)`. Returns `None` for isolated nodes.
    ///
    /// The single draw is split into a bucket index (high part) and an
    /// acceptance fraction (low part), so one `f64` drives both decisions:
    /// one draw per step.
    #[inline]
    pub fn pick_neighbor_alias(&self, u: NodeId, x: f64) -> Option<NodeId> {
        let Range { start: lo, end: hi } = self.row(u);
        let d = hi - lo;
        if d == 0 {
            return None;
        }
        let scaled = x * d as f64;
        let mut bucket = scaled as usize;
        if bucket >= d {
            bucket = d - 1; // x is < 1.0, but guard fp edge cases
        }
        let frac = scaled - bucket as f64;
        let slot = if frac < self.alias_prob[lo + bucket] {
            bucket
        } else {
            self.alias[lo + bucket] as usize
        };
        Some(self.topo.targets()[lo + slot])
    }

    /// Iterator over node ids.
    pub fn nodes(&self) -> impl ExactSizeIterator<Item = NodeId> + '_ {
        self.topo.nodes()
    }

    /// True if `{u, v}` is an edge. O(log deg(u)).
    pub fn has_edge(&self, u: NodeId, v: NodeId) -> bool {
        self.topo.has_edge(u, v)
    }

    /// Applies a batch of weighted edge edits, producing the next-epoch
    /// graph and the sorted list of **touched** nodes (endpoints of any
    /// applied edit). Deletions are applied before insertions, so listing an
    /// edge in both acts as a **weight update**.
    ///
    /// Weights must be positive and finite; the topology edit and the rest
    /// of its validation are [`CsrGraph::with_edits`]'s. Samplers are
    /// patched, not rebuilt: untouched rows' weight and alias columns are
    /// copied verbatim (alias fallback slots are row-relative,
    /// so they stay valid when offsets shift), and only touched rows are
    /// rebuilt. The result is bit-identical to
    /// [`WeightedCsrGraph::from_weighted_edges`] on the final edge list —
    /// alias construction is deterministic per row.
    pub fn with_edits(
        &self,
        insertions: &[(u32, u32, f64)],
        deletions: &[(u32, u32)],
    ) -> Result<(WeightedCsrGraph, Vec<NodeId>)> {
        for &(u, v, w) in insertions {
            if !(w.is_finite() && w > 0.0) {
                return Err(GraphError::InvalidInput(format!(
                    "insertion ({u}, {v}) has non-positive weight {w}"
                )));
            }
        }
        let pairs: Vec<(u32, u32)> = insertions.iter().map(|&(u, v, _)| (u, v)).collect();
        let (topo, touched) = self.topo.with_edits(&pairs, deletions)?;
        // Inserted weights keyed by the row they land in (both arcs).
        let mut add_arcs: Vec<(u32, u32, f64)> = insertions
            .iter()
            .flat_map(|&(u, v, w)| [(u, v, w), (v, u, w)])
            .collect();
        add_arcs.sort_unstable_by_key(|a| (a.0, a.1));

        let mut g = WeightedCsrGraph::over(topo);
        let (mut row, mut scaled) = (Vec::new(), Vec::new());
        let mut copied = 0usize;
        for &u in &touched {
            let old = self.row(u);
            g.copy_rows(self, copied..old.start);
            copied = old.end;
            // The new row's weights: an inserted arc's weight, else the
            // surviving old arc's (both rows are sorted by target).
            let a = add_arcs.partition_point(|&(x, _, _)| x < u.raw());
            let b = add_arcs.partition_point(|&(x, _, _)| x <= u.raw());
            let mut adds = add_arcs[a..b].iter().peekable();
            let mut olds = self.neighbors(u);
            row.clear();
            row.extend(g.topo.neighbors(u).iter().map(|&v| {
                if let Some(&(_, _, w)) = adds.next_if(|arc| arc.1 == v.raw()) {
                    w
                } else {
                    olds.find(|&(t, _)| t == v)
                        .expect("a kept arc is in the old row")
                        .1
                }
            }));
            g.push_row(row.iter().copied(), &mut scaled);
        }
        g.copy_rows(self, copied..self.weights.len());
        Ok((g, touched))
    }

    /// Appends one row's weights and rebuilds its alias table. The
    /// constructor and [`WeightedCsrGraph::with_edits`]
    /// write every row they build through here, so a patched row is
    /// bitwise the row a from-scratch build produces.
    fn push_row(&mut self, row: impl IntoIterator<Item = f64>, scaled: &mut Vec<f64>) {
        let lo = self.weights.len();
        self.weights.extend(row);
        let d = self.weights.len() - lo;
        self.alias_prob.resize(lo + d, 1.0);
        self.alias.resize(lo + d, 0);
        if d > 0 {
            let total = self.weights[lo..].iter().fold(0.0, |acc, &w| acc + w);
            scaled.clear();
            scaled.extend(self.weights[lo..].iter().map(|&w| w * d as f64 / total));
            fill_alias_table(scaled, &mut self.alias_prob[lo..], &mut self.alias[lo..]);
        }
    }

    /// Appends the columns of `from`'s slots `range` verbatim.
    fn copy_rows(&mut self, from: &WeightedCsrGraph, range: Range<usize>) {
        self.weights.extend_from_slice(&from.weights[range.clone()]);
        self.alias_prob
            .extend_from_slice(&from.alias_prob[range.clone()]);
        self.alias.extend_from_slice(&from.alias[range]);
    }
}

/// The deterministic `(seed, u, v) → weight` mix behind [`weighted_twin`]:
/// splitmix64-style finalizer into `(0, 2]`. Exported so other weight
/// sources (e.g. temporal-trace insertions) can share one weight universe
/// per seed bit-for-bit instead of hand-syncing a copy of the formula.
pub fn twin_weight(seed: u64, u: u32, v: u32) -> f64 {
    let mut z = seed ^ (((u as u64) << 32) | v as u64);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    let w = ((z >> 11) as f64 / (1u64 << 53) as f64) * 2.0;
    w.max(1e-9)
}

/// Deterministic weighted twin of an unweighted graph: the same edge set
/// with each weight drawn by [`twin_weight`] — the standard fixture for
/// benchmarking and testing the weighted pipeline against a structurally
/// identical unweighted one.
pub fn weighted_twin(g: &crate::CsrGraph, seed: u64) -> Result<WeightedCsrGraph> {
    let edges: Vec<(u32, u32, f64)> = g
        .edges()
        .map(|(u, v)| (u.raw(), v.raw(), twin_weight(seed, u.raw(), v.raw())))
        .collect();
    WeightedCsrGraph::from_weighted_edges(g.n(), &edges)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn wg() -> WeightedCsrGraph {
        WeightedCsrGraph::from_weighted_edges(3, &[(0, 1, 1.0), (0, 2, 3.0)]).unwrap()
    }

    /// The O(log d) oracle the alias table is checked against: a neighbor
    /// of `u` drawn with probability proportional to its weight, given a
    /// uniform `x ∈ [0, 1)`, by binary search over the row's prefix sums.
    fn pick_neighbor(g: &WeightedCsrGraph, u: NodeId, x: f64) -> Option<NodeId> {
        let mut acc = 0.0;
        let prefix: Vec<(NodeId, f64)> = g
            .neighbors(u)
            .map(|(v, w)| {
                acc += w;
                (v, acc)
            })
            .collect();
        let needle = x * prefix.last()?.1;
        let idx = prefix.partition_point(|&(_, c)| c <= needle);
        Some(prefix[idx.min(prefix.len() - 1)].0)
    }

    #[test]
    fn strength_and_degree() {
        let g = wg();
        assert_eq!(g.n(), 3);
        assert_eq!(g.m(), 2);
        assert_eq!(g.degree(NodeId(0)), 2);
        assert!((g.strength(NodeId(0)) - 4.0).abs() < 1e-12);
        assert!((g.strength(NodeId(1)) - 1.0).abs() < 1e-12);
        assert_eq!(g.degree(NodeId(1)), 1);
    }

    #[test]
    fn pick_neighbor_respects_weights() {
        let g = wg();
        // Node 0 neighbors: 1 (w=1), 2 (w=3); cumulative [1, 4].
        assert_eq!(pick_neighbor(&g, NodeId(0), 0.0), Some(NodeId(1)));
        assert_eq!(pick_neighbor(&g, NodeId(0), 0.24), Some(NodeId(1)));
        assert_eq!(pick_neighbor(&g, NodeId(0), 0.26), Some(NodeId(2)));
        assert_eq!(pick_neighbor(&g, NodeId(0), 0.999), Some(NodeId(2)));
    }

    #[test]
    fn isolated_node_has_no_neighbor() {
        let g = WeightedCsrGraph::from_weighted_edges(2, &[]).unwrap();
        assert_eq!(pick_neighbor(&g, NodeId(0), 0.5), None);
        assert_eq!(g.pick_neighbor_alias(NodeId(0), 0.5), None);
        assert_eq!(g.strength(NodeId(0)), 0.0);
    }

    /// Reconstructs each neighbor's selection probability from the alias
    /// table analytically: P(j) = Σ_i [prob_i·(i=j) + (1−prob_i)·(alias_i=j)] / d.
    fn alias_distribution(g: &WeightedCsrGraph, u: NodeId) -> Vec<f64> {
        let d = g.degree(u);
        let mut p = vec![0.0f64; d];
        let lo = g.row(u).start;
        for i in 0..d {
            p[i] += g.alias_prob[lo + i] / d as f64;
            p[g.alias[lo + i] as usize] += (1.0 - g.alias_prob[lo + i]) / d as f64;
        }
        p
    }

    #[test]
    fn alias_table_encodes_exact_weights() {
        let g = WeightedCsrGraph::from_weighted_edges(
            5,
            &[
                (0, 1, 0.25),
                (0, 2, 3.5),
                (0, 3, 1.0),
                (0, 4, 7.25),
                (1, 2, 2.0),
            ],
        )
        .unwrap();
        for u in g.nodes() {
            let p = alias_distribution(&g, u);
            let total = g.strength(u);
            for (i, (_, w)) in g.neighbors(u).enumerate() {
                assert!(
                    (p[i] - w / total).abs() < 1e-12,
                    "node {u} slot {i}: alias {} vs exact {}",
                    p[i],
                    w / total
                );
            }
        }
    }

    #[test]
    fn alias_sampler_respects_extreme_weights() {
        // 1e-12 vs 1e12: the alias draw at any plausible x picks the heavy
        // neighbor; only an acceptance fraction below ~2e-24 (i.e. x within
        // 1e-24 of a bucket boundary) could pick 1.
        let g = WeightedCsrGraph::from_weighted_edges(3, &[(0, 1, 1e-12), (0, 2, 1e12)]).unwrap();
        for x in [1e-6, 0.1, 0.37, 0.5, 0.73, 0.999_999] {
            assert_eq!(
                g.pick_neighbor_alias(NodeId(0), x),
                Some(NodeId(2)),
                "x={x}"
            );
        }
    }

    #[test]
    fn alias_sampler_covers_all_neighbors_of_uniform_node() {
        // Equal weights: bucket i keeps itself (prob 1), so x ∈ [i/d, (i+1)/d)
        // maps to neighbor i exactly.
        let g = WeightedCsrGraph::from_weighted_edges(4, &[(0, 1, 2.0), (0, 2, 2.0), (0, 3, 2.0)])
            .unwrap();
        assert_eq!(g.pick_neighbor_alias(NodeId(0), 0.1), Some(NodeId(1)));
        assert_eq!(g.pick_neighbor_alias(NodeId(0), 0.5), Some(NodeId(2)));
        assert_eq!(g.pick_neighbor_alias(NodeId(0), 0.9), Some(NodeId(3)));
    }

    #[test]
    fn rejects_bad_inputs() {
        assert!(WeightedCsrGraph::from_weighted_edges(2, &[(0, 0, 1.0)]).is_err());
        assert!(WeightedCsrGraph::from_weighted_edges(2, &[(0, 1, 0.0)]).is_err());
        assert!(WeightedCsrGraph::from_weighted_edges(2, &[(0, 1, f64::NAN)]).is_err());
        assert!(WeightedCsrGraph::from_weighted_edges(2, &[(0, 3, 1.0)]).is_err());
        assert!(
            WeightedCsrGraph::from_weighted_edges(2, &[(0, 1, 1.0), (1, 0, 2.0)]).is_err(),
            "duplicate across orientations must be rejected"
        );
    }

    /// Asserts two weighted graphs are bit-identical in every column —
    /// the contract `with_edits` promises against a from-scratch build.
    fn assert_same(a: &WeightedCsrGraph, b: &WeightedCsrGraph) {
        assert_eq!(a.topo.offsets(), b.topo.offsets());
        assert_eq!(a.topo.targets(), b.topo.targets());
        assert_eq!(
            a.weights.iter().map(|w| w.to_bits()).collect::<Vec<_>>(),
            b.weights.iter().map(|w| w.to_bits()).collect::<Vec<_>>()
        );
        assert_eq!(
            a.alias_prob.iter().map(|w| w.to_bits()).collect::<Vec<_>>(),
            b.alias_prob.iter().map(|w| w.to_bits()).collect::<Vec<_>>()
        );
        assert_eq!(a.alias, b.alias);
        assert_eq!(a.m(), b.m());
    }

    #[test]
    fn with_edits_matches_from_scratch_build() {
        let g = WeightedCsrGraph::from_weighted_edges(
            5,
            &[(0, 1, 1.0), (0, 2, 3.0), (1, 2, 0.5), (3, 4, 2.0)],
        )
        .unwrap();
        let (g2, touched) = g
            .with_edits(&[(2, 4, 1.5), (0, 3, 0.25)], &[(1, 2)])
            .unwrap();
        assert_eq!(
            touched,
            vec![NodeId(0), NodeId(1), NodeId(2), NodeId(3), NodeId(4)]
        );
        let fresh = WeightedCsrGraph::from_weighted_edges(
            5,
            &[
                (0, 1, 1.0),
                (0, 2, 3.0),
                (3, 4, 2.0),
                (2, 4, 1.5),
                (0, 3, 0.25),
            ],
        )
        .unwrap();
        assert_same(&g2, &fresh);
    }

    #[test]
    fn with_edits_weight_update_via_delete_insert() {
        let g = wg();
        let (g2, touched) = g.with_edits(&[(0, 1, 5.0)], &[(1, 0)]).unwrap();
        assert_eq!(touched, vec![NodeId(0), NodeId(1)]);
        assert_eq!(g2.m(), 2);
        let fresh = WeightedCsrGraph::from_weighted_edges(3, &[(0, 1, 5.0), (0, 2, 3.0)]).unwrap();
        assert_same(&g2, &fresh);
    }

    #[test]
    fn with_edits_untouched_rows_copied_verbatim() {
        let g = WeightedCsrGraph::from_weighted_edges(6, &[(0, 1, 1.0), (2, 3, 0.7), (4, 5, 2.0)])
            .unwrap();
        let (g2, touched) = g.with_edits(&[], &[(4, 5)]).unwrap();
        assert_eq!(touched, vec![NodeId(4), NodeId(5)]);
        let fresh = WeightedCsrGraph::from_weighted_edges(6, &[(0, 1, 1.0), (2, 3, 0.7)]).unwrap();
        assert_same(&g2, &fresh);
        assert_eq!(g2.degree(NodeId(4)), 0);
        assert_eq!(g2.pick_neighbor_alias(NodeId(4), 0.5), None);
    }

    #[test]
    fn with_edits_rejects_bad_batches() {
        let g = wg();
        assert!(g.with_edits(&[(0, 0, 1.0)], &[]).is_err(), "self-loop");
        assert!(g.with_edits(&[(0, 9, 1.0)], &[]).is_err(), "out of range");
        assert!(g.with_edits(&[(0, 1, 1.0)], &[]).is_err(), "exists");
        assert!(g.with_edits(&[(1, 2, 0.0)], &[]).is_err(), "zero weight");
        assert!(g.with_edits(&[(1, 2, f64::NAN)], &[]).is_err(), "nan");
        assert!(g.with_edits(&[], &[(1, 2)]).is_err(), "missing edge");
        assert!(
            g.with_edits(&[(1, 2, 1.0), (2, 1, 2.0)], &[]).is_err(),
            "duplicate insertion across orientations"
        );
        assert!(
            g.with_edits(&[], &[(0, 1), (1, 0)]).is_err(),
            "duplicate deletion across orientations"
        );
    }

    #[test]
    fn neighbors_iterate_with_weights() {
        let g = wg();
        let nbrs: Vec<_> = g.neighbors(NodeId(0)).collect();
        assert_eq!(nbrs, vec![(NodeId(1), 1.0), (NodeId(2), 3.0)]);
    }
}
