//! Weighted-graph extension: item placement on a *trust-weighted* network.
//!
//! The paper notes its techniques "can also be easily extended to directed
//! and weighted graphs" — the only change is the transition probability
//! `p_uw = w(u,w)/strength(u)`. In an Epinions-style trust network, users
//! follow strong-trust edges more often than weak ones, so the right
//! placement depends on the *weights*, not just the topology.
//!
//! This example builds one topology with two weightings (uniform vs
//! trust-skewed), solves Problem 2 on both with the weighted approximate
//! greedy, and shows that (a) the selections differ and (b) each selection
//! wins under the weighting it was optimized for.
//!
//! Run with:
//! ```sh
//! cargo run --release --example weighted_trust_network
//! ```

use rwd::core::metrics;
use rwd::core::report::{fmt_f, Table};
use rwd::graph::weighted::WeightedCsrGraph;
use rwd::prelude::*;
use rwd::walks::rng::WalkRng;

fn main() {
    // A power-law topology: who *can* see whom.
    let topology = rwd::graph::generators::barabasi_albert(1_500, 4, 17).expect("topology");

    // Uniform trust: every tie browsed equally often.
    let uniform: Vec<(u32, u32, f64)> = topology
        .edges()
        .map(|(u, v)| (u.raw(), v.raw(), 1.0))
        .collect();

    // Skewed trust: a random 10% of ties are 20x-strong "close friends";
    // they attract almost all browsing traffic.
    let mut rng = WalkRng::from_seed(99);
    let skewed: Vec<(u32, u32, f64)> = topology
        .edges()
        .map(|(u, v)| {
            let w = if rng.gen_bool(0.1) { 20.0 } else { 1.0 };
            (u.raw(), v.raw(), w)
        })
        .collect();

    let g_uniform = WeightedCsrGraph::from_weighted_edges(topology.n(), &uniform).unwrap();
    let g_skewed = WeightedCsrGraph::from_weighted_edges(topology.n(), &skewed).unwrap();
    println!(
        "trust network: n = {}, m = {}, 10% of ties carry 20x trust\n",
        topology.n(),
        topology.m()
    );

    let params = Params {
        k: 15,
        l: 5,
        r: 150,
        seed: 4,
        ..Params::default()
    };
    let solver = ApproxGreedy::new(Problem::MaxCoverage, params);
    let sel_uniform = solver.run(&g_uniform).expect("uniform");
    let sel_skewed = solver.run(&g_skewed).expect("skewed");

    let overlap = sel_uniform
        .nodes
        .iter()
        .filter(|u| sel_skewed.nodes.contains(u))
        .count();
    println!(
        "placements overlap on {overlap}/{} nodes — trust weights move {} seeds\n",
        params.k,
        params.k - overlap
    );

    // Cross-evaluate each placement under each weighting (exact weighted DP).
    let mut t = Table::new([
        "placement \\ world",
        "uniform trust (EHN)",
        "skewed trust (EHN)",
    ]);
    for (name, sel) in [
        ("optimized for uniform", &sel_uniform),
        ("optimized for skewed", &sel_skewed),
    ] {
        let on_uniform = metrics::evaluate_exact(&g_uniform, &sel.nodes, 5);
        let on_skewed = metrics::evaluate_exact(&g_skewed, &sel.nodes, 5);
        t.row([
            name.to_string(),
            fmt_f(on_uniform.ehn, 1),
            fmt_f(on_skewed.ehn, 1),
        ]);
    }
    println!("{}", t.render());
    println!("Each placement wins (or ties) in the world it was optimized");
    println!("for — ignoring trust weights leaves reach on the table.");
}
