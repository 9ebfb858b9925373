//! The L-length random-walk engine.
//!
//! An *L-length random walk* (paper §2) starts at a node and takes at most
//! `L` steps; nodes may repeat. A walk standing on an isolated node stays
//! put (documented degree-0 convention).
//!
//! [`WalkGraph`] is the one seam between the walk machinery and the
//! transition rule: index build, incremental refresh and Monte-Carlo
//! estimation are generic over it, and so are the exact dynamic programs
//! through [`WalkGraph::step_mean`], so the paper's weighted extension is
//! only a different transition rule over the same algorithms.

use rwd_graph::weighted::WeightedCsrGraph;
use rwd_graph::{CsrGraph, NodeId};

use crate::nodeset::NodeSet;
use crate::rng::WalkRng;

/// A graph random walks step on. Implementations are statically
/// dispatched, so every step loop compiles to the graph's own step rule.
pub trait WalkGraph: Sync {
    /// Number of nodes (the walk universe is `0..n`).
    fn n(&self) -> usize;

    /// Takes one step from `u`, drawing from `rng`; stays at `u` when it
    /// has no neighbors.
    fn step(&self, u: NodeId, rng: &mut WalkRng) -> NodeId;

    /// The one-step expectation `E[f(Z_1) | Z_0 = u]` under this graph's
    /// transition rule, or `None` when `u` has no neighbors (the caller
    /// applies the stay-put convention).
    fn step_mean(&self, u: NodeId, f: &[f64]) -> Option<f64>;
}

/// Uniform steps: one `gen_index` draw over the neighbor list.
impl WalkGraph for CsrGraph {
    #[inline]
    fn n(&self) -> usize {
        CsrGraph::n(self)
    }

    #[inline]
    fn step(&self, u: NodeId, rng: &mut WalkRng) -> NodeId {
        let nbrs = self.neighbors(u);
        if nbrs.is_empty() {
            u
        } else {
            nbrs[rng.gen_index(nbrs.len())]
        }
    }

    /// `Σ f[w] / d_u`.
    #[inline]
    fn step_mean(&self, u: NodeId, f: &[f64]) -> Option<f64> {
        let nbrs = self.neighbors(u);
        if nbrs.is_empty() {
            None
        } else {
            let sum: f64 = nbrs.iter().map(|w| f[w.index()]).sum();
            Some(sum / nbrs.len() as f64)
        }
    }
}

/// Weight-proportional steps through the O(1) alias table (one uniform
/// draw per step, no binary search).
impl WalkGraph for WeightedCsrGraph {
    #[inline]
    fn n(&self) -> usize {
        WeightedCsrGraph::n(self)
    }

    #[inline]
    fn step(&self, u: NodeId, rng: &mut WalkRng) -> NodeId {
        self.pick_neighbor_alias(u, rng.gen_f64()).unwrap_or(u)
    }

    /// `Σ w(u,x)·f[x] / strength(u)`, with the strength summed left to
    /// right in the same pass, as [`WeightedCsrGraph::strength`] sums it.
    #[inline]
    fn step_mean(&self, u: NodeId, f: &[f64]) -> Option<f64> {
        let (sum, strength) = self.neighbors(u).fold((0.0, 0.0), |(sum, total), (w, wt)| {
            (sum + wt * f[w.index()], total + wt)
        });
        (strength != 0.0).then(|| sum / strength)
    }
}

/// Runs an L-length walk from `start`, writing the visited sequence
/// (including `start`, so `l + 1` entries) into `out`.
pub fn record_walk<G: WalkGraph>(
    g: &G,
    start: NodeId,
    l: u32,
    rng: &mut WalkRng,
    out: &mut Vec<NodeId>,
) {
    out.clear();
    out.reserve(l as usize + 1);
    let mut u = start;
    out.push(u);
    for _ in 0..l {
        u = g.step(u, rng);
        out.push(u);
    }
}

/// Simulates an L-length walk from `start` and returns the hop count at
/// which it *first* enters `set` — the sampled value of `min{t : Z_t ∈ S}`
/// from Eq. (3) — or `None` if the walk does not hit within `l` hops.
///
/// Hop 0 counts: if `start ∈ set` the result is `Some(0)` without stepping.
pub fn first_hit<G: WalkGraph>(
    g: &G,
    start: NodeId,
    l: u32,
    set: &NodeSet,
    rng: &mut WalkRng,
) -> Option<u32> {
    if set.contains(start) {
        return Some(0);
    }
    let mut u = start;
    for t in 1..=l {
        u = g.step(u, rng);
        if set.contains(u) {
            return Some(t);
        }
    }
    None
}

/// The sampled value of the truncated variable `T^L_uS` (Eq. 3): the first
/// hit hop, or `l` when the walk never hits.
#[inline]
pub fn truncated_hit_time<G: WalkGraph>(
    g: &G,
    start: NodeId,
    l: u32,
    set: &NodeSet,
    rng: &mut WalkRng,
) -> u32 {
    first_hit(g, start, l, set, rng).unwrap_or(l)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rwd_graph::generators::{classic, paper_example};

    #[test]
    fn record_walk_has_l_plus_one_entries_and_valid_edges() {
        let g = paper_example::figure1();
        let mut rng = WalkRng::from_seed(5);
        let mut buf = Vec::new();
        record_walk(&g, NodeId(0), 4, &mut rng, &mut buf);
        assert_eq!(buf.len(), 5);
        assert_eq!(buf[0], NodeId(0));
        for w in buf.windows(2) {
            assert!(
                g.has_edge(w[0], w[1]),
                "step {:?} -> {:?} not an edge",
                w[0],
                w[1]
            );
        }
    }

    #[test]
    fn isolated_node_walk_stays_put() {
        let g = CsrGraph::from_edges(3, &[(0, 1)]).unwrap();
        let mut rng = WalkRng::from_seed(1);
        let mut buf = Vec::new();
        record_walk(&g, NodeId(2), 3, &mut rng, &mut buf);
        assert_eq!(buf, vec![NodeId(2); 4]);
    }

    #[test]
    fn first_hit_zero_for_member_start() {
        let g = paper_example::figure1();
        let set = NodeSet::from_nodes(g.n(), [NodeId(0)]);
        let mut rng = WalkRng::from_seed(2);
        assert_eq!(first_hit(&g, NodeId(0), 4, &set, &mut rng), Some(0));
    }

    #[test]
    fn first_hit_on_path_is_deterministic_at_forced_moves() {
        // Path 0-1: from 0 the only move is to 1.
        let g = classic::path(2).unwrap();
        let set = NodeSet::from_nodes(2, [NodeId(1)]);
        let mut rng = WalkRng::from_seed(3);
        assert_eq!(first_hit(&g, NodeId(0), 4, &set, &mut rng), Some(1));
    }

    #[test]
    fn miss_returns_none_and_truncation_returns_l() {
        // Path 0-1-2-3, target {3}, l = 1: cannot reach from 0.
        let g = classic::path(4).unwrap();
        let set = NodeSet::from_nodes(4, [NodeId(3)]);
        let mut rng = WalkRng::from_seed(4);
        assert_eq!(first_hit(&g, NodeId(0), 1, &set, &mut rng), None);
        let mut rng = WalkRng::from_seed(4);
        assert_eq!(truncated_hit_time(&g, NodeId(0), 1, &set, &mut rng), 1);
    }

    #[test]
    fn empty_target_set_never_hits() {
        let g = paper_example::figure1();
        let set = NodeSet::new(g.n());
        let mut rng = WalkRng::from_seed(9);
        assert_eq!(first_hit(&g, NodeId(0), 10, &set, &mut rng), None);
    }

    #[test]
    fn weighted_walk_follows_heavy_edge() {
        use rwd_graph::weighted::WeightedCsrGraph;
        // Node 0's neighbors: 1 (weight 1e-9) and 2 (weight 1e9); a single
        // step should essentially always pick 2.
        let g = WeightedCsrGraph::from_weighted_edges(3, &[(0, 1, 1e-9), (0, 2, 1e9)]).unwrap();
        let mut rng = WalkRng::from_seed(10);
        let hits = (0..200)
            .filter(|_| g.step(NodeId(0), &mut rng) == NodeId(2))
            .count();
        assert_eq!(hits, 200);
    }

    #[test]
    fn weighted_first_hit_member_start() {
        use rwd_graph::weighted::WeightedCsrGraph;
        let g = WeightedCsrGraph::from_weighted_edges(2, &[(0, 1, 1.0)]).unwrap();
        let set = NodeSet::from_nodes(2, [NodeId(1)]);
        let mut rng = WalkRng::from_seed(11);
        assert_eq!(first_hit(&g, NodeId(1), 3, &set, &mut rng), Some(0));
        assert_eq!(first_hit(&g, NodeId(0), 3, &set, &mut rng), Some(1));
    }
}
