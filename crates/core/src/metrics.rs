//! Evaluation metrics: AHT (`M1`) and EHN (`M2`).
//!
//! The paper evaluates every algorithm with two metrics (§4.1):
//!
//! * **AHT** — average hitting time `M1(S) = Σ_{u∈V\S} h^L_uS / |V\S|`
//!   (lower is better),
//! * **EHN** — expected number of hitting nodes `M2(S) = Σ_u E[X^L_uS]`
//!   (higher is better),
//!
//! both estimated with Algorithm 2 at `R = 500` — the default of
//! [`MetricParams`]. Exact DP variants are provided for small graphs and
//! for validating the estimates; they take any [`WalkGraph`], so a
//! weighted graph is graded under its own transition rule.

use rwd_graph::{CsrGraph, NodeId};
use rwd_walks::estimate::SampleEstimator;
use rwd_walks::{hitting, NodeSet, WalkGraph};

/// Parameters for metric estimation.
#[derive(Clone, Copy, Debug)]
pub struct MetricParams {
    /// Walk-length bound `L`.
    pub l: u32,
    /// Walks per node (paper: 500 for metric evaluation).
    pub r: usize,
    /// Seed for the evaluation walks (kept distinct from solver seeds so
    /// algorithms are never graded on their own training walks).
    pub seed: u64,
}

impl Default for MetricParams {
    fn default() -> Self {
        MetricParams {
            l: 6,
            r: 500,
            seed: 0xE7A1_5EED,
        }
    }
}

/// Both metrics for one selection.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Metrics {
    /// Average hitting time (lower better).
    pub aht: f64,
    /// Expected number of hitting nodes (higher better).
    pub ehn: f64,
}

/// Estimates AHT and EHN with one Algorithm 2 run (shared walks).
///
/// ```
/// use rwd_core::metrics::{evaluate, MetricParams};
/// use rwd_graph::generators::classic::star;
/// use rwd_graph::NodeId;
///
/// let g = star(20).unwrap();
/// let m = evaluate(&g, &[NodeId(0)], MetricParams { l: 4, r: 100, seed: 1 });
/// assert_eq!(m.aht, 1.0);  // every leaf hits the hub in one hop
/// assert_eq!(m.ehn, 20.0); // and everyone is dominated
/// ```
pub fn evaluate(g: &CsrGraph, nodes: &[NodeId], p: MetricParams) -> Metrics {
    let set = NodeSet::from_nodes(g.n(), nodes.iter().copied());
    let est = SampleEstimator::new(p.l, p.r, p.seed).estimate(g, &set);
    Metrics {
        aht: est.aht(&set, p.l),
        ehn: est.ehn(),
    }
}

/// Estimated AHT only.
pub fn aht(g: &CsrGraph, nodes: &[NodeId], p: MetricParams) -> f64 {
    evaluate(g, nodes, p).aht
}

/// Estimated EHN only.
pub fn ehn(g: &CsrGraph, nodes: &[NodeId], p: MetricParams) -> f64 {
    evaluate(g, nodes, p).ehn
}

/// Exact AHT via the Eq. (4) DP (`O(mL)`).
pub fn aht_exact<G: WalkGraph>(g: &G, nodes: &[NodeId], l: u32) -> f64 {
    let set = NodeSet::from_nodes(g.n(), nodes.iter().copied());
    let outside = g.n() - set.len();
    if outside == 0 {
        return l as f64;
    }
    let h = hitting::hitting_time_to_set(g, &set, l);
    h.iter().sum::<f64>() / outside as f64
}

/// Exact EHN via the Eq. (8) DP.
pub fn ehn_exact<G: WalkGraph>(g: &G, nodes: &[NodeId], l: u32) -> f64 {
    let set = NodeSet::from_nodes(g.n(), nodes.iter().copied());
    hitting::exact_f2(g, &set, l)
}

/// Exact metrics pair.
pub fn evaluate_exact<G: WalkGraph>(g: &G, nodes: &[NodeId], l: u32) -> Metrics {
    Metrics {
        aht: aht_exact(g, nodes, l),
        ehn: ehn_exact(g, nodes, l),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rwd_graph::generators::{classic, paper_example};

    #[test]
    fn estimated_tracks_exact() {
        let g = paper_example::figure1();
        let nodes = [NodeId(1), NodeId(6)];
        let p = MetricParams {
            l: 4,
            r: 4000,
            seed: 9,
        };
        let est = evaluate(&g, &nodes, p);
        let exact = evaluate_exact(&g, &nodes, 4);
        assert!((est.aht - exact.aht).abs() < 0.1, "{est:?} vs {exact:?}");
        assert!((est.ehn - exact.ehn).abs() < 0.2);
    }

    #[test]
    fn exact_values_on_star() {
        let g = classic::star(11).unwrap();
        // Target = hub: every leaf hits at time 1 ⇒ AHT = 1, EHN = 11.
        let m = evaluate_exact(&g, &[NodeId(0)], 5);
        assert!((m.aht - 1.0).abs() < 1e-12);
        assert!((m.ehn - 11.0).abs() < 1e-12);
    }

    #[test]
    fn better_selections_score_better() {
        let g = paper_example::figure1();
        // Hubs (v2, v7) vs leaves (v1, v8).
        let hubs = evaluate_exact(&g, &[NodeId(1), NodeId(6)], 4);
        let leaves = evaluate_exact(&g, &[NodeId(0), NodeId(7)], 4);
        assert!(hubs.aht < leaves.aht);
        assert!(hubs.ehn > leaves.ehn);
    }

    #[test]
    fn full_coverage_edge_cases() {
        let g = classic::path(3).unwrap();
        let all = [NodeId(0), NodeId(1), NodeId(2)];
        assert_eq!(aht_exact(&g, &all, 7), 7.0);
        assert_eq!(ehn_exact(&g, &all, 7), 3.0);
    }

    #[test]
    fn default_params_match_paper() {
        let p = MetricParams::default();
        assert_eq!(p.r, 500);
        assert_eq!(p.l, 6);
    }

    #[test]
    fn aht_is_in_hop_units() {
        let g = paper_example::figure1();
        let m = evaluate(
            &g,
            &[NodeId(1)],
            MetricParams {
                l: 4,
                r: 200,
                seed: 1,
            },
        );
        assert!(m.aht > 0.0 && m.aht <= 4.0);
        assert!(m.ehn >= 1.0 && m.ehn <= 8.0);
    }
}
