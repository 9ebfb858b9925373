//! # rwd-graph
//!
//! Graph substrate for the random-walk domination library.
//!
//! This crate provides everything the algorithm layers need from a graph:
//!
//! * [`CsrGraph`] — a compact, immutable compressed-sparse-row adjacency
//!   structure with O(1) degree and neighbor-slice access (the representation
//!   every hot loop in the walk engine runs against),
//! * [`GraphBuilder`] — edge accumulation into a simple graph (self-loops
//!   dropped, duplicate edges collapsed),
//! * [`generators`] — synthetic graph models (Barabási–Albert, Erdős–Rényi,
//!   Chung–Lu power-law, Watts–Strogatz, random-regular, classic topologies,
//!   and the running example of the paper's Figure 1),
//! * [`edgelist`] — whitespace edge-list I/O with dense relabeling,
//! * [`traversal`] — BFS and connected components,
//! * [`stats`] — degree and clustering summaries,
//! * [`subgraph`] — induced subgraphs.
//!
//! The paper works with undirected, unweighted graphs; the structures here
//! also support directed graphs (walks follow out-arcs) and a weighted
//! variant lives in [`weighted`] to back the paper's "easily extended to
//! directed and weighted graphs" remark.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod builder;
pub mod csr;
pub mod edgelist;
pub mod error;
pub mod generators;
pub mod node;
pub mod stats;
pub mod subgraph;
pub mod traversal;
pub mod weighted;

pub use builder::GraphBuilder;
pub use csr::{CsrGraph, GraphKind};
pub use error::GraphError;
pub use node::NodeId;

/// Crate-wide result alias.
pub type Result<T> = std::result::Result<T, GraphError>;
