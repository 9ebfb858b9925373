//! Property tests for the O(1) alias-table neighbor sampler.
//!
//! The alias table must encode *exactly* the same categorical distribution
//! as the O(log d) cumulative-weight binary search it replaced. Two checks:
//!
//! * an analytical one — unfolding the table reconstructs `w_i / strength`
//!   for every neighbor to fp precision, and
//! * a statistical one — on random weighted stars, the empirical neighbor
//!   counts of both samplers (driven by the same uniform stream) pass a
//!   chi-squared-style comparison against each other and against the exact
//!   weights.

use proptest::prelude::*;
use proptest::TestRng;
use rwd_graph::weighted::WeightedCsrGraph;
use rwd_graph::NodeId;

/// The O(log d) oracle: a neighbor of `u` drawn with probability
/// proportional to its weight, given a uniform `x ∈ [0, 1)`, by binary
/// search over the row's prefix sums.
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

/// Uniform f64 in [0, 1) from the proptest shim's deterministic RNG.
fn unit_f64(rng: &mut TestRng) -> f64 {
    (rng.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
}

/// Builds a star: node 0 joined to nodes `1..=d` with the given weights.
fn star(weights: &[f64]) -> WeightedCsrGraph {
    let edges: Vec<(u32, u32, f64)> = weights
        .iter()
        .enumerate()
        .map(|(i, &w)| (0, i as u32 + 1, w))
        .collect();
    WeightedCsrGraph::from_weighted_edges(weights.len() + 1, &edges).unwrap()
}

/// Pearson's chi-squared statistic of observed counts vs expected counts.
fn chi_squared(observed: &[u64], expected: &[f64]) -> f64 {
    observed
        .iter()
        .zip(expected)
        .map(|(&o, &e)| {
            let diff = o as f64 - e;
            diff * diff / e.max(1e-12)
        })
        .sum()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Statistical agreement: alias draws and binary-search draws over the
    /// same weighted node produce neighbor distributions that both match
    /// the exact weights within a generous chi-squared bound.
    #[test]
    fn alias_and_binary_search_sample_the_same_distribution(
        (weights, seed) in (2usize..=12).prop_flat_map(|d| {
            // Weights in [1, 1000] — up to 3 orders of magnitude of skew.
            (collection::vec(1u32..=1000, d..=d), 0u64..u64::MAX)
        }).prop_map(|(ws, seed)| {
            (ws.into_iter().map(|w| w as f64).collect::<Vec<f64>>(), seed)
        }),
    ) {
        let g = star(&weights);
        let hub = NodeId(0);
        let d = weights.len();
        let total: f64 = weights.iter().sum();
        const SAMPLES: u64 = 4000;

        let mut rng = TestRng::new(seed);
        let mut alias_counts = vec![0u64; d];
        let mut bsearch_counts = vec![0u64; d];
        for _ in 0..SAMPLES {
            let x = unit_f64(&mut rng);
            // Same uniform draw drives both samplers: any systematic
            // distribution difference shows up directly in the counts.
            let a = g.pick_neighbor_alias(hub, x).unwrap();
            let b = pick_neighbor(&g, hub, x).unwrap();
            alias_counts[a.index() - 1] += 1;
            bsearch_counts[b.index() - 1] += 1;
        }

        let expected: Vec<f64> = weights
            .iter()
            .map(|w| w / total * SAMPLES as f64)
            .collect();
        // 99.9th-percentile chi-squared for d−1 ≤ 11 dof is ≈ 31.3; use a
        // slack bound so the 24 cases stay flake-free while still catching
        // a mis-built table (which shifts counts by whole percents).
        let bound = 60.0;
        let chi_alias = chi_squared(&alias_counts, &expected);
        let chi_bsearch = chi_squared(&bsearch_counts, &expected);
        prop_assert!(
            chi_alias < bound,
            "alias sampler diverges from weights: chi2 {chi_alias} (d={d})"
        );
        prop_assert!(
            chi_bsearch < bound,
            "oracle sampler diverges from weights: chi2 {chi_bsearch} (d={d})"
        );
        // And the two empirical distributions agree with each other — pooled
        // form (a−b)²/(a+b), which stays finite when one sampler lands zero
        // draws in a rare category.
        let chi_cross: f64 = alias_counts
            .iter()
            .zip(&bsearch_counts)
            .filter(|&(&a, &b)| a + b > 0)
            .map(|(&a, &b)| {
                let diff = a as f64 - b as f64;
                diff * diff / (a + b) as f64
            })
            .sum();
        prop_assert!(
            chi_cross < bound,
            "samplers disagree with each other: chi2 {chi_cross} (d={d})"
        );
    }

    /// Analytical agreement: unfolding the alias table via repeated sampling
    /// on a fine deterministic grid reproduces each neighbor's probability
    /// to ~1/GRID accuracy (the grid hits every bucket boundary pattern).
    #[test]
    fn alias_grid_sweep_matches_weights(
        weights in (2usize..=8).prop_flat_map(|d| collection::vec(1u32..=64, d..=d))
            .prop_map(|ws| ws.into_iter().map(|w| w as f64).collect::<Vec<f64>>()),
    ) {
        let g = star(&weights);
        let hub = NodeId(0);
        let d = weights.len();
        let total: f64 = weights.iter().sum();
        const GRID: usize = 200_000;
        let mut counts = vec![0u64; d];
        for i in 0..GRID {
            // Midpoint grid avoids landing exactly on bucket boundaries.
            let x = (i as f64 + 0.5) / GRID as f64;
            let v = g.pick_neighbor_alias(hub, x).unwrap();
            counts[v.index() - 1] += 1;
        }
        for (i, &w) in weights.iter().enumerate() {
            let got = counts[i] as f64 / GRID as f64;
            let want = w / total;
            prop_assert!(
                (got - want).abs() < 2.0 / GRID as f64 * d as f64 + 1e-9,
                "neighbor {i}: grid mass {got} vs exact {want}"
            );
        }
    }
}
