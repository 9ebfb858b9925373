//! The weighted extension: estimator, index and DP must agree with each
//! other on weighted graphs the same way the unweighted pipeline does.

use rwd_graph::weighted::WeightedCsrGraph;
use rwd_graph::NodeId;
use rwd_walks::estimate::SampleEstimator;
use rwd_walks::{hitting, NodeSet, WalkIndex};

fn triangle_skewed() -> WeightedCsrGraph {
    // Triangle 0-1-2 with a heavy 0-1 edge.
    WeightedCsrGraph::from_weighted_edges(3, &[(0, 1, 8.0), (0, 2, 1.0), (1, 2, 1.0)]).unwrap()
}

#[test]
fn weighted_estimator_tracks_weighted_dp() {
    let g = triangle_skewed();
    let set = NodeSet::from_nodes(3, [NodeId(1)]);
    let l = 5;
    let est = SampleEstimator::new(l, 6000, 3).estimate(&g, &set);
    let h = hitting::hitting_time_to_set(&g, &set, l);
    let p = hitting::hit_probability_to_set(&g, &set, l);
    for u in 0..3 {
        assert!(
            (est.hit_time[u] - h[u]).abs() < 0.05,
            "node {u}: est {} dp {}",
            est.hit_time[u],
            h[u]
        );
        assert!((est.hit_prob[u] - p[u]).abs() < 0.03);
    }
}

#[test]
fn skewed_weights_shift_the_estimates() {
    // With a heavy 0-1 edge, node 0 should hit {1} faster than node 2 does.
    let g = triangle_skewed();
    let set = NodeSet::from_nodes(3, [NodeId(1)]);
    let est = SampleEstimator::new(4, 4000, 9).estimate(&g, &set);
    assert!(
        est.hit_time[0] < est.hit_time[2],
        "0 (heavy edge) {} should beat 2 {}",
        est.hit_time[0],
        est.hit_time[2]
    );
}

#[test]
fn weighted_index_is_deterministic_and_valid() {
    let g = triangle_skewed();
    let a = WalkIndex::build(&g, 4, 16, 7);
    let b = WalkIndex::build(&g, 4, 16, 7);
    assert_eq!(a.total_postings(), b.total_postings());
    for layer in 0..16 {
        for v in 0..3 {
            assert_eq!(a.postings(layer, NodeId(v)), b.postings(layer, NodeId(v)));
            for p in a.postings(layer, NodeId(v)) {
                assert!(p.weight >= 1 && p.weight <= 4);
                assert_ne!(p.id, NodeId(v), "no self-postings");
            }
        }
    }
}

#[test]
fn weighted_index_replay_tracks_weighted_dp() {
    let g = triangle_skewed();
    let idx = WalkIndex::build(&g, 5, 4000, 21);
    let set = NodeSet::from_nodes(3, [NodeId(2)]);
    let replay = idx.estimate_hit_times(&set);
    let exact = hitting::hitting_time_to_set(&g, &set, 5);
    for u in 0..3 {
        assert!(
            (replay[u] - exact[u]).abs() < 0.06,
            "node {u}: index {} dp {}",
            replay[u],
            exact[u]
        );
    }
}

#[test]
fn heavy_edges_dominate_postings() {
    // Star with one overwhelmingly heavy spoke: nearly all of the hub's
    // walks should first visit the heavy leaf.
    let g = WeightedCsrGraph::from_weighted_edges(4, &[(0, 1, 1000.0), (0, 2, 1.0), (0, 3, 1.0)])
        .unwrap();
    let idx = WalkIndex::build(&g, 1, 200, 5);
    let to_heavy: usize = (0..200)
        .map(|layer| {
            idx.postings(layer, NodeId(1))
                .iter()
                .filter(|p| p.id == NodeId(0))
                .count()
        })
        .sum();
    assert!(
        to_heavy > 190,
        "hub hit the heavy leaf only {to_heavy}/200 times"
    );
}
