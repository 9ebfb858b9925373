//! Exact dynamic programs for hitting times and hit probabilities.
//!
//! These implement the recursions of the paper's Theorems 2.1–2.3. Each call
//! computes the quantity for **all** source nodes simultaneously in `O(mL)`
//! time and `O(n)` space (two level buffers) — the engine behind the exact
//! (DP-based) greedy algorithms `DPF1`/`DPF2`. Every program is generic
//! over [`WalkGraph`]: the one-step expectation
//! ([`WalkGraph::step_mean`]) is `1/d_u`-uniform on a
//! [`CsrGraph`](rwd_graph::CsrGraph) and `w(u,x)/strength(u)` on a
//! weighted graph (the paper's weighted extension).

use rwd_graph::NodeId;

use crate::nodeset::NodeSet;
use crate::walker::WalkGraph;

/// Generalized hitting time `h^L_uS` (Eq. 4) for every source `u`.
///
/// `h[u] = 0` for `u ∈ S`; otherwise
/// `h^ℓ_uS = 1 + Σ_{w ∈ N(u)} P(u→w) h^{ℓ-1}_wS` with `h^{ℓ-1}_wS = 0`
/// for `w ∈ S` — equivalent to the paper's sum over `w ∈ V\S`. Isolated
/// nodes follow the stay-put convention and thus have `h = L` when outside
/// `S`. The empty set yields `h = L` everywhere (a walk can never hit ∅).
///
/// ```
/// use rwd_graph::generators::classic::path;
/// use rwd_graph::NodeId;
/// use rwd_walks::{hitting, NodeSet};
///
/// // Path 0-1-2, target {2}, L = 2: from node 1 the walk hits at hop 1
/// // with probability 1/2 and truncates at 2 otherwise: E = 1.5.
/// let g = path(3).unwrap();
/// let set = NodeSet::from_nodes(3, [NodeId(2)]);
/// let h = hitting::hitting_time_to_set(&g, &set, 2);
/// assert!((h[1] - 1.5).abs() < 1e-12);
/// assert_eq!(h[2], 0.0);
/// ```
pub fn hitting_time_to_set<G: WalkGraph>(g: &G, set: &NodeSet, l: u32) -> Vec<f64> {
    let n = g.n();
    debug_assert_eq!(set.capacity(), n);
    // Level 0: T^0 = 0 for every node.
    let mut prev = vec![0.0f64; n];
    if l == 0 {
        return prev;
    }
    let mut next = vec![0.0f64; n];
    for _level in 1..=l {
        for u in 0..n {
            let id = NodeId::new(u);
            next[u] = if set.contains(id) {
                0.0
            } else {
                // Stay-put: an isolated node's "neighbor" is itself.
                1.0 + g.step_mean(id, &prev).unwrap_or(prev[u])
            };
        }
        std::mem::swap(&mut prev, &mut next);
    }
    prev
}

/// Hit probability `p^L_uS` (Eq. 8) for every source `u`.
///
/// `p[u] = 1` for `u ∈ S`; `p^0_uS = 0` outside `S`;
/// `p^ℓ_uS = Σ_{w ∈ N(u)} P(u→w) p^{ℓ-1}_wS` otherwise.
pub fn hit_probability_to_set<G: WalkGraph>(g: &G, set: &NodeSet, l: u32) -> Vec<f64> {
    let n = g.n();
    debug_assert_eq!(set.capacity(), n);
    let mut prev = vec![0.0f64; n];
    for u in set.iter() {
        prev[u.index()] = 1.0;
    }
    if l == 0 {
        return prev;
    }
    let mut next = vec![0.0f64; n];
    for _level in 1..=l {
        for u in 0..n {
            let id = NodeId::new(u);
            next[u] = if set.contains(id) {
                1.0
            } else {
                // Stay-put: remains 0 outside S.
                g.step_mean(id, &prev).unwrap_or(prev[u])
            };
        }
        std::mem::swap(&mut prev, &mut next);
    }
    prev
}

/// Node-to-node hitting time `h^L_uv` (Eq. 2) for every source `u` — the
/// singleton-set case of [`hitting_time_to_set`].
pub fn hitting_time_to_node<G: WalkGraph>(g: &G, v: NodeId, l: u32) -> Vec<f64> {
    let set = NodeSet::from_nodes(g.n(), [v]);
    hitting_time_to_set(g, &set, l)
}

/// Exact objective `F1(S) = nL − Σ_{u ∈ V\S} h^L_uS` (Problem 1, Eq. 6).
pub fn exact_f1<G: WalkGraph>(g: &G, set: &NodeSet, l: u32) -> f64 {
    let h = hitting_time_to_set(g, set, l);
    let total: f64 = h.iter().sum(); // members contribute 0
    g.n() as f64 * l as f64 - total
}

/// Exact objective `F2(S) = Σ_u p^L_uS` (Problem 2, Eq. 7).
pub fn exact_f2<G: WalkGraph>(g: &G, set: &NodeSet, l: u32) -> f64 {
    hit_probability_to_set(g, set, l).iter().sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use rwd_graph::generators::{classic, paper_example};
    use rwd_graph::weighted::WeightedCsrGraph;
    use rwd_graph::CsrGraph;

    fn set_of(n: usize, nodes: &[u32]) -> NodeSet {
        NodeSet::from_nodes(n, nodes.iter().map(|&u| NodeId(u)))
    }

    #[test]
    fn member_nodes_have_zero_hitting_time() {
        let g = paper_example::figure1();
        let s = set_of(8, &[4, 5]);
        let h = hitting_time_to_set(&g, &s, 4);
        assert_eq!(h[4], 0.0);
        assert_eq!(h[5], 0.0);
    }

    #[test]
    fn empty_set_gives_l_everywhere() {
        let g = paper_example::figure1();
        let s = NodeSet::new(8);
        for l in [0u32, 1, 3, 7] {
            let h = hitting_time_to_set(&g, &s, l);
            assert!(h.iter().all(|&x| (x - l as f64).abs() < 1e-12), "l = {l}");
            let p = hit_probability_to_set(&g, &s, l);
            assert!(p.iter().all(|&x| x == 0.0));
        }
    }

    #[test]
    fn bounded_by_l_lemma_2_1() {
        let g = paper_example::figure1();
        let s = set_of(8, &[2]);
        for l in 0..8 {
            let h = hitting_time_to_set(&g, &s, l);
            assert!(h.iter().all(|&x| (0.0..=l as f64 + 1e-12).contains(&x)));
        }
    }

    #[test]
    fn path_two_nodes_closed_form() {
        // Path 0-1, target {1}: from 0 the walk hits at time 1 always.
        let g = classic::path(2).unwrap();
        let s = set_of(2, &[1]);
        let h = hitting_time_to_set(&g, &s, 5);
        assert!((h[0] - 1.0).abs() < 1e-12);
        let p = hit_probability_to_set(&g, &s, 5);
        assert!((p[0] - 1.0).abs() < 1e-12);
    }

    #[test]
    fn star_hitting_time_closed_form() {
        // Star with hub 0 and 3 leaves; target = {hub}. Any leaf hits at
        // time 1; the hub is a member.
        let g = classic::star(4).unwrap();
        let s = set_of(4, &[0]);
        let h = hitting_time_to_set(&g, &s, 6);
        for &h_leaf in &h[1..4] {
            assert!((h_leaf - 1.0).abs() < 1e-12);
        }
        // Target = one leaf: from the hub, P(hit leaf in one step) = 1/3.
        // h^1_{hub,leaf} = 1 (truncated), p^1 = 1/3.
        let s = set_of(4, &[1]);
        let p = hit_probability_to_set(&g, &s, 1);
        assert!((p[0] - 1.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn cycle_probability_symmetry() {
        let g = classic::cycle(6).unwrap();
        let s = set_of(6, &[0]);
        let p = hit_probability_to_set(&g, &s, 4);
        // Nodes equidistant from 0 must have equal probabilities.
        assert!((p[1] - p[5]).abs() < 1e-12);
        assert!((p[2] - p[4]).abs() < 1e-12);
        let h = hitting_time_to_set(&g, &s, 4);
        assert!((h[1] - h[5]).abs() < 1e-12);
        assert!((h[2] - h[4]).abs() < 1e-12);
    }

    #[test]
    fn isolated_node_conventions() {
        let g = CsrGraph::from_edges(3, &[(0, 1)]).unwrap();
        let s = set_of(3, &[0]);
        let h = hitting_time_to_set(&g, &s, 5);
        assert!(
            (h[2] - 5.0).abs() < 1e-12,
            "isolated node never hits: h = L"
        );
        let p = hit_probability_to_set(&g, &s, 5);
        assert_eq!(p[2], 0.0);
        // Isolated member node.
        let s = set_of(3, &[2]);
        let h = hitting_time_to_set(&g, &s, 5);
        assert_eq!(h[2], 0.0);
    }

    #[test]
    fn monotone_in_l() {
        // Larger L ⇒ larger (truncated) hitting time and larger hit probability.
        let g = paper_example::figure1();
        let s = set_of(8, &[6]);
        let mut last_h = -1.0;
        let mut last_p = -1.0;
        for l in 0..10 {
            let h: f64 = hitting_time_to_set(&g, &s, l).iter().sum();
            let p: f64 = hit_probability_to_set(&g, &s, l).iter().sum();
            assert!(h >= last_h - 1e-12);
            assert!(p >= last_p - 1e-12);
            last_h = h;
            last_p = p;
        }
    }

    #[test]
    fn monotone_in_set_inclusion() {
        // S ⊆ T ⇒ h_uT ≤ h_uS and p_uT ≥ p_uS (Theorem 3.1/3.2 machinery).
        let g = paper_example::figure1();
        let s = set_of(8, &[1]);
        let t = set_of(8, &[1, 6]);
        let hs = hitting_time_to_set(&g, &s, 6);
        let ht = hitting_time_to_set(&g, &t, 6);
        let ps = hit_probability_to_set(&g, &s, 6);
        let pt = hit_probability_to_set(&g, &t, 6);
        for u in 0..8 {
            assert!(ht[u] <= hs[u] + 1e-12);
            assert!(pt[u] >= ps[u] - 1e-12);
        }
    }

    #[test]
    fn f1_f2_empty_set_are_zero() {
        let g = paper_example::figure1();
        let s = NodeSet::new(8);
        assert!(exact_f1(&g, &s, 6).abs() < 1e-12);
        assert!(exact_f2(&g, &s, 6).abs() < 1e-12);
    }

    #[test]
    fn f2_full_set_is_n() {
        let g = paper_example::figure1();
        let s = NodeSet::from_nodes(8, g.nodes());
        assert!((exact_f2(&g, &s, 3) - 8.0).abs() < 1e-12);
        assert!((exact_f1(&g, &s, 3) - 24.0).abs() < 1e-12); // nL − 0
    }

    #[test]
    fn hitting_time_to_node_matches_singleton_set() {
        let g = paper_example::figure1();
        let direct = hitting_time_to_node(&g, NodeId(4), 5);
        let via_set = hitting_time_to_set(&g, &set_of(8, &[4]), 5);
        assert_eq!(direct, via_set);
    }

    #[test]
    fn weighted_uniform_weights_match_unweighted() {
        let g = paper_example::figure1();
        let edges: Vec<(u32, u32, f64)> = g.edges().map(|(u, v)| (u.raw(), v.raw(), 1.0)).collect();
        let wg = WeightedCsrGraph::from_weighted_edges(8, &edges).unwrap();
        let s = set_of(8, &[1, 6]);
        // Weight 1.0 makes `strength` exactly `d` and every `1.0·x` exact,
        // so the two transition rules agree bit for bit.
        let bits = |v: Vec<f64>| v.into_iter().map(f64::to_bits).collect::<Vec<_>>();
        assert_eq!(
            bits(hitting_time_to_set(&g, &s, 6)),
            bits(hitting_time_to_set(&wg, &s, 6))
        );
        assert_eq!(
            bits(hit_probability_to_set(&g, &s, 6)),
            bits(hit_probability_to_set(&wg, &s, 6))
        );
    }

    #[test]
    fn weighted_skew_changes_hitting_time() {
        // Triangle 0-1-2; target {1}. Heavier 0-1 edge pulls walks from 0
        // toward 1 faster.
        let balanced =
            WeightedCsrGraph::from_weighted_edges(3, &[(0, 1, 1.0), (0, 2, 1.0), (1, 2, 1.0)])
                .unwrap();
        let skewed =
            WeightedCsrGraph::from_weighted_edges(3, &[(0, 1, 10.0), (0, 2, 1.0), (1, 2, 1.0)])
                .unwrap();
        let s = set_of(3, &[1]);
        let hb = hitting_time_to_set(&balanced, &s, 8);
        let hs = hitting_time_to_set(&skewed, &s, 8);
        assert!(hs[0] < hb[0]);
    }
}
