//! Partial-cover extension (the paper's third future-work direction).
//!
//! *Given `α ∈ (0, 1]`, find the minimum number of targeted nodes that
//! dominate at least `α·n` nodes in expectation.* Greedy partial cover over
//! the walk index: keep selecting the maximal-coverage-gain node (Problem 2
//! gain rule) until the estimated `F̂2(S)` crosses `α·n`. Because `F2` is
//! monotone submodular, this greedy is the classic `H(n)`-approximate
//! partial-cover algorithm. The rounds run on the delta engine's maintained
//! argmax, which picks exactly what a full gain sweep per round would.

use std::time::Instant;

use rwd_graph::{CsrGraph, NodeId};
use rwd_walks::WalkIndex;

use crate::greedy::approx::GainRule;
use crate::greedy::delta::DeltaGainEngine;
use crate::Result;

/// Result of the partial-cover greedy.
#[derive(Clone, Debug)]
pub struct CoverageResult {
    /// Selected nodes in pick order.
    pub nodes: Vec<NodeId>,
    /// Estimated `F̂2(S)` after each pick.
    pub coverage_trace: Vec<f64>,
    /// The coverage target `α·n` that was requested.
    pub target: f64,
    /// Whether the target was reached within `max_k` picks.
    pub reached: bool,
    /// Wall-clock time including index construction.
    pub elapsed: std::time::Duration,
}

impl CoverageResult {
    /// Number of nodes the greedy needed.
    pub fn k(&self) -> usize {
        self.nodes.len()
    }

    /// Final estimated expected number of dominated nodes.
    pub fn achieved(&self) -> f64 {
        self.coverage_trace.last().copied().unwrap_or(0.0)
    }
}

/// Parameters for [`min_nodes_for_coverage`].
#[derive(Clone, Copy, Debug)]
pub struct CoverageParams {
    /// Fraction of nodes to dominate in expectation (`0 < α ≤ 1`).
    pub alpha: f64,
    /// Walk-length bound `L`.
    pub l: u32,
    /// Walks per node `R`.
    pub r: usize,
    /// RNG seed.
    pub seed: u64,
    /// Hard cap on the number of selections (`0` = up to `n`).
    pub max_k: usize,
    /// Worker threads (`0` = all cores).
    pub threads: usize,
}

impl Default for CoverageParams {
    fn default() -> Self {
        CoverageParams {
            alpha: 0.9,
            l: 6,
            r: 100,
            seed: 0,
            max_k: 0,
            threads: 0,
        }
    }
}

/// Greedy partial cover: minimum (greedy) node set whose estimated expected
/// domination reaches `α·n`.
pub fn min_nodes_for_coverage(g: &CsrGraph, p: CoverageParams) -> Result<CoverageResult> {
    if !(p.alpha > 0.0 && p.alpha <= 1.0) {
        return Err(crate::CoreError::InvalidParams(format!(
            "alpha = {} outside (0, 1]",
            p.alpha
        )));
    }
    if p.r == 0 {
        return Err(crate::CoreError::InvalidParams("r must be >= 1".into()));
    }
    let start = Instant::now();
    let n = g.n();
    let target = p.alpha * n as f64;
    let cap = if p.max_k == 0 { n } else { p.max_k.min(n) };

    let idx = WalkIndex::build_with_threads(g, p.l, p.r, p.seed, p.threads);
    let mut engine = DeltaGainEngine::with_threads(&idx, GainRule::Coverage, p.threads);
    let mut nodes = Vec::new();
    let mut coverage_trace = Vec::new();

    while engine.est_f2() < target && nodes.len() < cap {
        let (pick, _) = engine
            .best_candidate()
            .expect("fewer than n picks leave a candidate");
        engine.update(pick);
        nodes.push(pick);
        coverage_trace.push(engine.est_f2());
    }

    let reached = engine.est_f2() >= target;
    Ok(CoverageResult {
        nodes,
        coverage_trace,
        target,
        reached,
        elapsed: start.elapsed(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::greedy::approx::GainEngine;
    use crate::greedy::driver::greedy_plain;
    use rwd_graph::generators::{barabasi_albert, classic};

    /// The partial cover's picks and coverage trace must equal, bit for
    /// bit, one full gain sweep per round (the driver's plain rounds over
    /// the sweep engine) and that engine's `F̂2` after each pick; the stop
    /// rule must fire exactly at the target or the cap.
    fn assert_matches_sweep_replay(g: &CsrGraph, p: CoverageParams) {
        let res = min_nodes_for_coverage(g, p).unwrap();
        let idx = WalkIndex::build_with_threads(g, p.l, p.r, p.seed, p.threads);
        let mut sweep = GainEngine::with_threads(&idx, GainRule::Coverage, p.threads);
        assert_eq!(greedy_plain(&mut sweep, res.k()).nodes, res.nodes);
        let mut replay = GainEngine::with_threads(&idx, GainRule::Coverage, p.threads);
        for (&pick, &coverage) in res.nodes.iter().zip(&res.coverage_trace) {
            assert!(replay.est_f2() < res.target, "picked past the target");
            replay.update(pick);
            assert_eq!(replay.est_f2().to_bits(), coverage.to_bits(), "{pick}");
        }
        assert_eq!(res.reached, replay.est_f2() >= res.target);
        assert!(res.reached || res.k() == p.max_k);
    }

    #[test]
    fn picks_and_trace_match_a_sweep_replay() {
        // Run to the target on a BA graph.
        let ba = barabasi_albert(300, 3, 5).unwrap();
        assert_matches_sweep_replay(
            &ba,
            CoverageParams {
                alpha: 0.95,
                l: 5,
                r: 50,
                seed: 1,
                ..Default::default()
            },
        );
        // Stopped by the cap on `max_k_caps_selection`'s path, where two
        // candidates tie for the maximal gain in round 2 and the smaller id
        // must win.
        assert_matches_sweep_replay(
            &classic::path(40).unwrap(),
            CoverageParams {
                alpha: 1.0,
                l: 2,
                r: 32,
                seed: 2,
                max_k: 3,
                ..Default::default()
            },
        );
    }

    #[test]
    fn star_needs_one_node() {
        let g = classic::star(50).unwrap();
        let p = CoverageParams {
            alpha: 0.9,
            l: 4,
            r: 64,
            seed: 3,
            ..Default::default()
        };
        let res = min_nodes_for_coverage(&g, p).unwrap();
        assert!(res.reached);
        assert_eq!(res.k(), 1, "the hub dominates everything");
        assert_eq!(res.nodes[0], NodeId(0));
        assert!(res.achieved() >= res.target);
    }

    #[test]
    fn coverage_trace_is_monotone() {
        let g = barabasi_albert(300, 3, 5).unwrap();
        let p = CoverageParams {
            alpha: 0.95,
            l: 5,
            r: 50,
            seed: 1,
            ..Default::default()
        };
        let res = min_nodes_for_coverage(&g, p).unwrap();
        assert!(res.reached);
        for w in res.coverage_trace.windows(2) {
            assert!(w[1] >= w[0] - 1e-9, "coverage must not shrink");
        }
    }

    #[test]
    fn higher_alpha_needs_no_fewer_nodes() {
        let g = barabasi_albert(300, 3, 5).unwrap();
        let mk = |alpha| {
            let p = CoverageParams {
                alpha,
                l: 5,
                r: 50,
                seed: 1,
                ..Default::default()
            };
            min_nodes_for_coverage(&g, p).unwrap().k()
        };
        assert!(mk(0.5) <= mk(0.9));
    }

    #[test]
    fn max_k_caps_selection() {
        let g = classic::path(40).unwrap();
        let p = CoverageParams {
            alpha: 1.0,
            l: 2,
            r: 32,
            seed: 2,
            max_k: 3,
            ..Default::default()
        };
        let res = min_nodes_for_coverage(&g, p).unwrap();
        assert_eq!(res.k(), 3);
        assert!(
            !res.reached,
            "a 40-path cannot be 100%-dominated by 3 nodes at L=2"
        );
    }

    #[test]
    fn invalid_params_rejected() {
        let g = classic::path(5).unwrap();
        let bad_alpha = CoverageParams {
            alpha: 0.0,
            ..Default::default()
        };
        assert!(min_nodes_for_coverage(&g, bad_alpha).is_err());
        let bad_r = CoverageParams {
            r: 0,
            ..Default::default()
        };
        assert!(min_nodes_for_coverage(&g, bad_r).is_err());
    }
}
