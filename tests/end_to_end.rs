//! End-to-end pipelines through the façade crate: datasets → solvers →
//! metrics → extensions, the way a downstream user would wire things up.

use rwd::core::algo::approx_combined;
use rwd::core::greedy::driver;
use rwd::core::objective::{EdgeCoverage, Objective};
use rwd::prelude::*;

#[test]
fn dataset_to_selection_to_metrics() {
    let g = rwd::datasets::Dataset::CaGrQc
        .synthetic_connected(0.08)
        .unwrap();
    let params = Params {
        k: 10,
        l: 6,
        r: 80,
        seed: 1,
        ..Params::default()
    };
    let sel = ApproxGreedy::new(Problem::MaxCoverage, params)
        .run(&g)
        .unwrap();
    assert_eq!(sel.nodes.len(), 10);

    let m = metrics::evaluate(
        &g,
        &sel.nodes,
        MetricParams {
            l: 6,
            r: 300,
            seed: 2,
        },
    );
    assert!(m.ehn > 10.0, "selection must dominate more than itself");
    assert!(m.aht < 6.0, "AHT must beat the truncation bound");

    // Cross-check the estimated metrics against the exact DP.
    let exact = metrics::evaluate_exact(&g, &sel.nodes, 6);
    assert!(
        (m.aht - exact.aht).abs() < 0.25,
        "{} vs {}",
        m.aht,
        exact.aht
    );
    assert!((m.ehn - exact.ehn).abs() / exact.ehn < 0.1);
}

#[test]
fn edge_list_round_trip_pipeline() {
    // Generate → write → reload → solve: the CLI's workflow as a library.
    let g = rwd::graph::generators::watts_strogatz(300, 4, 0.2, 8).unwrap();
    let dir = std::env::temp_dir().join("rwd_e2e");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("overlay.edges");
    rwd::graph::edgelist::write_edge_list(&g, &path).unwrap();
    let reloaded = rwd::graph::edgelist::read_edge_list(&path).unwrap();
    assert_eq!(reloaded.graph.n(), 300);
    assert_eq!(reloaded.graph.m(), g.m());

    let sel = ApproxGreedy::new(
        Problem::MinHittingTime,
        Params {
            k: 5,
            l: 4,
            r: 50,
            seed: 3,
            ..Params::default()
        },
    )
    .run(&reloaded.graph)
    .unwrap();
    assert_eq!(sel.nodes.len(), 5);
    std::fs::remove_file(&path).ok();
}

#[test]
fn coverage_extension_full_pipeline() {
    let g = rwd::datasets::Dataset::Brightkite
        .synthetic_connected(0.01)
        .unwrap();
    let res = min_nodes_for_coverage(
        &g,
        CoverageParams {
            alpha: 0.8,
            l: 6,
            r: 60,
            seed: 4,
            ..Default::default()
        },
    )
    .unwrap();
    assert!(res.reached, "80% coverage must be reachable");
    assert!(res.k() < g.n() / 2, "greedy needs far fewer than n/2 nodes");

    // Verify the claim with an independent exact evaluation.
    let exact = metrics::ehn_exact(&g, &res.nodes, 6);
    assert!(
        exact >= 0.7 * g.n() as f64,
        "exact EHN {exact} should confirm ≈80% domination of n = {}",
        g.n()
    );
}

#[test]
fn combined_objective_interpolates_metrics() {
    let g = rwd::graph::generators::watts_strogatz(800, 6, 0.1, 6).unwrap();
    let params = Params {
        k: 12,
        l: 3,
        r: 80,
        seed: 5,
        ..Params::default()
    };
    let pure1 = approx_combined(&g, 1.0, params).unwrap();
    let pure2 = approx_combined(&g, 0.0, params).unwrap();
    let blend = approx_combined(&g, 0.5, params).unwrap();
    assert_eq!(blend.nodes.len(), 12);

    // Endpoint equivalence with the dedicated problems.
    let f1 = ApproxGreedy::new(Problem::MinHittingTime, params)
        .run(&g)
        .unwrap();
    let f2 = ApproxGreedy::new(Problem::MaxCoverage, params)
        .run(&g)
        .unwrap();
    assert_eq!(pure1.nodes, f1.nodes);
    assert_eq!(pure2.nodes, f2.nodes);

    // The blend's metrics must sit within the envelope of the pure
    // solutions (tiny slack for sampling noise).
    let m1 = metrics::evaluate_exact(&g, &pure1.nodes, 3);
    let m2 = metrics::evaluate_exact(&g, &pure2.nodes, 3);
    let mb = metrics::evaluate_exact(&g, &blend.nodes, 3);
    let lo = m1.aht.min(m2.aht) - 0.05;
    let hi = m1.aht.max(m2.aht) + 0.05;
    assert!(
        (lo..=hi).contains(&mb.aht),
        "blend AHT {mb:?} outside [{lo}, {hi}]"
    );
}

#[test]
fn edge_coverage_greedy_runs_and_improves() {
    // Extension 2: greedy over the edge-coverage objective via the generic
    // driver — covered edges must grow with every pick.
    let g = rwd::graph::generators::barabasi_albert(120, 3, 12).unwrap();
    let f3 = EdgeCoverage::build(&g, 4, 12, 9);
    let out = driver::greedy(&f3, 6, true);
    assert_eq!(out.nodes.len(), 6);
    for w in out.objective_trace.windows(2) {
        assert!(w[1] >= w[0] - 1e-9, "edge coverage must not shrink");
    }
    assert!(
        *out.objective_trace.last().unwrap() <= g.m() as f64,
        "cannot cover more edges than exist"
    );
    // The greedy pick must beat a random pick of the same size.
    let random: Vec<NodeId> = (100..106).map(NodeId).collect();
    let random_set = NodeSet::from_nodes(g.n(), random);
    assert!(
        out.objective_trace.last().unwrap() >= &f3.eval(&random_set),
        "greedy edge coverage under random?"
    );
}

#[test]
fn weighted_extension_pipeline() {
    // The weighted walker + DP wired end to end: uniform weights reproduce
    // the unweighted DP; a skewed bridge edge drags walks across it.
    use rwd::graph::weighted::WeightedCsrGraph;
    use rwd::walks::hitting::{hit_probability_to_set, hitting_time_to_set};

    let g = rwd::graph::generators::classic::cycle(12).unwrap();
    let uniform: Vec<(u32, u32, f64)> = g.edges().map(|(u, v)| (u.raw(), v.raw(), 1.0)).collect();
    let wg = WeightedCsrGraph::from_weighted_edges(12, &uniform).unwrap();
    let set = NodeSet::from_nodes(12, [NodeId(0)]);
    let hw = hitting_time_to_set(&wg, &set, 6);
    let hu = hitting_time_to_set(&g, &set, 6);
    for u in 0..12 {
        assert!((hw[u] - hu[u]).abs() < 1e-12);
    }

    // Skew all weights toward node 0's edges: hit probabilities increase.
    let skewed: Vec<(u32, u32, f64)> = g
        .edges()
        .map(|(u, v)| {
            let w = if u == NodeId(0) || v == NodeId(0) {
                25.0
            } else {
                1.0
            };
            (u.raw(), v.raw(), w)
        })
        .collect();
    let wg2 = WeightedCsrGraph::from_weighted_edges(12, &skewed).unwrap();
    let p_uniform = hit_probability_to_set(&wg, &set, 6);
    let p_skewed = hit_probability_to_set(&wg2, &set, 6);
    assert!(
        p_skewed[1] > p_uniform[1],
        "heavier edges into 0 raise hits"
    );
    assert!(p_skewed[11] > p_uniform[11]);
}

#[test]
fn facade_prelude_suffices_for_the_basic_workflow() {
    // Everything a user needs must be importable from rwd::prelude.
    let g = CsrGraph::from_edges(5, &[(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)]).unwrap();
    let b = GraphBuilder::undirected();
    drop(b);
    let sel = DpGreedy::new(
        Problem::MaxCoverage,
        Params {
            k: 2,
            l: 3,
            r: 1,
            seed: 0,
            ..Params::default()
        },
    )
    .run(&g)
    .unwrap();
    let set: NodeSet = sel.to_set(5);
    assert_eq!(set.len(), 2);
    let _ = baselines::degree_top_k(&g, 2).unwrap();
    let idx = WalkIndex::build(&g, 3, 8, 0);
    assert_eq!(idx.n(), 5);
}
