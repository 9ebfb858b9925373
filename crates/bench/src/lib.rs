//! Shared fixtures for the `repro` experiment harness.

#![warn(missing_docs)]

pub mod experiments;

use rwd_graph::generators::barabasi_albert;
use rwd_graph::CsrGraph;

/// The paper's synthetic evaluation graph (§4.2, Figs. 2–5): a power-law
/// random graph with 1,000 nodes and ≈10k edges.
pub fn paper_synthetic() -> CsrGraph {
    barabasi_albert(1_000, 10, 0x2013).expect("valid parameters")
}

/// A smaller graph for tests that sweep many configurations.
pub fn small_synthetic() -> CsrGraph {
    barabasi_albert(300, 5, 0x2013).expect("valid parameters")
}

/// Default output directory for repro TSVs.
pub const RESULTS_DIR: &str = "results";

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fixtures_have_expected_scale() {
        let g = paper_synthetic();
        assert_eq!(g.n(), 1_000);
        assert!((9_000..10_500).contains(&g.m()), "m = {}", g.m());
        assert!(small_synthetic().n() == 300);
    }
}
