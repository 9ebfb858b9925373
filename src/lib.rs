//! # rwd — Random-Walk Domination in large graphs
//!
//! A complete Rust implementation of
//! *"Random-walk domination in large graphs: problem definitions and fast
//! solutions"* (Li, Yu, Huang, Cheng — ICDE 2014, arXiv:1302.4546), built
//! from scratch: graph substrate, walk machinery, exact and approximate
//! greedy solvers, baselines, metrics, datasets and a full experiment
//! harness.
//!
//! This façade crate re-exports the workspace members:
//!
//! * [`graph`] — CSR graphs, builders, generators, I/O ([`rwd_graph`])
//! * [`walks`] — walk engine, exact DP hitting times, estimators, walk
//!   index ([`rwd_walks`])
//! * [`core`] — problems, objectives, greedy solvers, baselines, metrics
//!   ([`rwd_core`])
//! * [`stream`] — the evolving-graph subsystem: edge churn, incremental
//!   walk-index maintenance, seed repair ([`rwd_stream`])
//! * [`serve`] — the serving path: snapshot-consistent epochs and an
//!   online point-query API over the evolving engine ([`rwd_serve`])
//! * [`datasets`] — SNAP stand-ins, the scalability series and temporal
//!   edge traces ([`rwd_datasets`])
//!
//! ## Example
//!
//! ```
//! use rwd::prelude::*;
//!
//! // A small power-law social network.
//! let g = rwd::graph::generators::barabasi_albert(500, 4, 42).unwrap();
//!
//! // Place k = 8 items so as many users as possible discover one while
//! // social-browsing at most L = 6 hops (Problem 2, approximate greedy).
//! let params = Params { k: 8, l: 6, r: 100, seed: 1, ..Params::default() };
//! let sel = ApproxGreedy::new(Problem::MaxCoverage, params).run(&g).unwrap();
//!
//! // Grade the placement with the paper's metrics: 8 well-placed items
//! // should dominate a large fraction of the 500 users in expectation.
//! let m = rwd::core::metrics::evaluate_exact(&g, &sel.nodes, 6);
//! assert!(m.ehn > 200.0, "greedy should dominate much of the graph");
//! ```

pub use rwd_core as core;
pub use rwd_datasets as datasets;
pub use rwd_graph as graph;
pub use rwd_serve as serve;
pub use rwd_stream as stream;
pub use rwd_walks as walks;

/// Convenient glob-import surface for applications.
pub mod prelude {
    pub use rwd_core::algo::{ApproxGreedy, DpGreedy, SamplingGreedy};
    pub use rwd_core::baselines;
    pub use rwd_core::coverage::{min_nodes_for_coverage, CoverageParams};
    pub use rwd_core::greedy::Strategy;
    pub use rwd_core::metrics::{self, MetricParams};
    pub use rwd_core::problem::{Params, Problem, Selection};
    pub use rwd_graph::{CsrGraph, GraphBuilder, NodeId};
    pub use rwd_serve::{Query, Server, Snapshot};
    pub use rwd_stream::{EdgeBatch, StreamConfig, StreamEngine};
    pub use rwd_walks::{NodeSet, WalkIndex};
}
