//! Thread-count invariance regression tests.
//!
//! The walk machinery keys every sampled walk by a `(seed, node,
//! walk-index)` RNG stream, so estimates must be **bit-identical** for any
//! worker count — the property the module docs promise and every
//! reproducibility claim in this repo rests on. These tests pin it on a
//! 500-node Barabási–Albert graph at 1, 2 and 8 threads.
//!
//! All compared quantities are exact sums of small integers in `f64`
//! (≤ 2^53), so even the cross-thread reductions are associative and
//! `assert_eq!` on the raw bits is the right comparison — no tolerances.

use rwd::prelude::*;
use rwd::walks::estimate::SampleEstimator;
use rwd_core::greedy::approx::{GainEngine, GainRule};

const THREADS: [usize; 3] = [1, 2, 8];

fn ba_graph() -> CsrGraph {
    rwd::graph::generators::barabasi_albert(500, 4, 0xD5EED).unwrap()
}

/// The BA graph with deterministic pseudo-random edge weights: the weighted
/// twin of [`ba_graph`] for the weighted build and estimator invariance
/// tests.
fn weighted_ba_graph() -> rwd::graph::weighted::WeightedCsrGraph {
    rwd::graph::weighted::weighted_twin(&ba_graph(), 0xD5EED).unwrap()
}

#[test]
fn sample_estimator_is_thread_invariant() {
    // Uniform steps on the BA graph, alias-table steps on its weighted twin:
    // both run the estimator's parallel node-chunk fan-out.
    fn check<G: rwd::walks::WalkGraph>(g: &G, what: &str) {
        let set = NodeSet::from_nodes(g.n(), [NodeId(0), NodeId(17), NodeId(230)]);
        let estimate = |threads| {
            SampleEstimator {
                l: 6,
                r: 40,
                seed: 42,
                threads,
            }
            .estimate(g, &set)
        };
        let baseline = estimate(THREADS[0]);
        for &threads in &THREADS[1..] {
            let est = estimate(threads);
            assert_eq!(
                est.f1.to_bits(),
                baseline.f1.to_bits(),
                "{what}, {threads} threads"
            );
            assert_eq!(
                est.f2.to_bits(),
                baseline.f2.to_bits(),
                "{what}, {threads} threads"
            );
            assert_eq!(est.hit_time, baseline.hit_time, "{what}, {threads} threads");
            assert_eq!(est.hit_prob, baseline.hit_prob, "{what}, {threads} threads");
        }
    }
    check(&ba_graph(), "unweighted");
    check(&weighted_ba_graph(), "weighted");
}

#[test]
fn walk_index_is_thread_invariant() {
    let g = ba_graph();
    let set = NodeSet::from_nodes(g.n(), [NodeId(3), NodeId(99)]);
    let baseline = WalkIndex::build_with_threads(&g, 5, 16, 7, THREADS[0]);
    for threads in &THREADS[1..] {
        let idx = WalkIndex::build_with_threads(&g, 5, 16, 7, *threads);
        assert_eq!(
            idx.total_postings(),
            baseline.total_postings(),
            "{threads} threads"
        );
        for layer in 0..idx.r() {
            for v in g.nodes() {
                assert_eq!(
                    idx.postings(layer, v),
                    baseline.postings(layer, v),
                    "layer {layer}, node {v}, {threads} threads"
                );
            }
        }
        assert_eq!(
            idx.estimate_hit_times(&set),
            baseline.estimate_hit_times(&set),
            "{threads} threads"
        );
        assert_eq!(
            idx.estimate_hit_probs(&set),
            baseline.estimate_hit_probs(&set),
            "{threads} threads"
        );
    }
}

#[test]
fn weighted_walk_index_is_thread_invariant() {
    // The weighted build runs the same 2-D (layer × node-chunk) grid as the
    // unweighted one; alias-table draws come from per-(seed, node, layer)
    // streams, so postings must be bit-identical at any worker count.
    let g = weighted_ba_graph();
    let set = NodeSet::from_nodes(g.n(), [NodeId(3), NodeId(99)]);
    let baseline = WalkIndex::build_with_threads(&g, 5, 16, 7, THREADS[0]);
    for threads in &THREADS[1..] {
        let idx = WalkIndex::build_with_threads(&g, 5, 16, 7, *threads);
        assert_eq!(
            idx.total_postings(),
            baseline.total_postings(),
            "{threads} threads"
        );
        for layer in 0..idx.r() {
            for v in g.nodes() {
                assert_eq!(
                    idx.postings(layer, v),
                    baseline.postings(layer, v),
                    "layer {layer}, node {v}, {threads} threads"
                );
            }
        }
        assert_eq!(
            idx.estimate_hit_times(&set),
            baseline.estimate_hit_times(&set),
            "{threads} threads"
        );
        assert_eq!(
            idx.estimate_hit_probs(&set),
            baseline.estimate_hit_probs(&set),
            "{threads} threads"
        );
    }
    // And the convenience all-cores entry point agrees with the explicit one.
    let all_cores = WalkIndex::build(&g, 5, 16, 7);
    assert_eq!(all_cores.total_postings(), baseline.total_postings());
    for layer in 0..baseline.r() {
        for v in g.nodes() {
            assert_eq!(all_cores.postings(layer, v), baseline.postings(layer, v));
        }
    }
}

#[test]
fn index_estimates_are_thread_invariant_above_gate() {
    // The layer-parallel replay estimators: large enough (r·n past the
    // shared sweep gate) that multi-thread calls actually fan out, and the
    // chunk-ordered integer reductions must be bit-identical to serial.
    let g = rwd::graph::generators::barabasi_albert(2_100, 4, 0xD5EED).unwrap();
    let idx = WalkIndex::build(&g, 5, 16, 7);
    assert!(
        idx.r() * idx.n() >= rwd::walks::parallel::MIN_PARALLEL_SWEEP_WORK,
        "fixture must cross the sweep gate"
    );
    let set = NodeSet::from_nodes(g.n(), [NodeId(3), NodeId(99), NodeId(1_500)]);
    let times = idx.estimate_hit_times_with_threads(&set, THREADS[0]);
    let probs = idx.estimate_hit_probs_with_threads(&set, THREADS[0]);
    for threads in &THREADS[1..] {
        assert_eq!(
            idx.estimate_hit_times_with_threads(&set, *threads),
            times,
            "hit times, {threads} threads"
        );
        assert_eq!(
            idx.estimate_hit_probs_with_threads(&set, *threads),
            probs,
            "hit probs, {threads} threads"
        );
    }
    // The threadless entry points resolve to all cores and must agree too.
    assert_eq!(idx.estimate_hit_times(&set), times);
    assert_eq!(idx.estimate_hit_probs(&set), probs);
}

#[test]
fn gain_sweep_is_thread_invariant() {
    let g = ba_graph();
    let idx = WalkIndex::build(&g, 5, 12, 21);
    for rule in [
        GainRule::HittingTime,
        GainRule::Coverage,
        GainRule::Combined { lambda: 0.4 },
    ] {
        let mut baseline = GainEngine::with_threads(&idx, rule, THREADS[0]);
        baseline.update(NodeId(11));
        let expected = baseline.gains_all();
        for threads in &THREADS[1..] {
            let mut engine = GainEngine::with_threads(&idx, rule, *threads);
            engine.update(NodeId(11));
            let gains = engine.gains_all();
            for (u, (a, b)) in gains.iter().zip(&expected).enumerate() {
                assert_eq!(
                    a.to_bits(),
                    b.to_bits(),
                    "rule {rule:?}, node {u}, {threads} threads"
                );
            }
        }
    }
}

#[test]
fn solver_output_is_thread_invariant() {
    // End to end: the approximate greedy driven by the parallel machinery
    // must pick the same nodes regardless of worker count. `threads` rides
    // in via Params.
    let g = ba_graph();
    let pick = |threads: usize| {
        let params = Params {
            k: 6,
            l: 5,
            r: 24,
            seed: 3,
            threads,
            ..Params::default()
        };
        ApproxGreedy::new(Problem::MaxCoverage, params)
            .run(&g)
            .unwrap()
            .nodes
    };
    let baseline = pick(THREADS[0]);
    for threads in &THREADS[1..] {
        assert_eq!(pick(*threads), baseline, "{threads} threads");
    }
}
