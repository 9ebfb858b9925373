//! # rwd-serve
//!
//! The serving path: an online query API over the evolving
//! [`rwd_stream::StreamEngine`] with **snapshot-consistent epochs**.
//!
//! * [`snapshot`] — [`Snapshot`]: an epoch-stamped, cheaply-cloneable view
//!   of one engine state (Arc'd graph + walk index + seed set). Readers
//!   *pin* a snapshot and query it for as long as they like; a batch
//!   applying concurrently never mutates pinned state (the engine
//!   copies-on-write instead), so every answer is coherent — index, seeds
//!   and objective all from the same epoch,
//! * [`server`] — [`Server`]: a thread-pooled request loop (std `mpsc`
//!   multiplexing, no external runtime — the same std-only discipline as
//!   the rest of the workspace). Queries fan out over a worker pool
//!   against the currently published snapshot; batches funnel through a
//!   single writer thread that owns the
//!   [`StreamEngine`](rwd_stream::StreamEngine), applies each batch and
//!   *publishes* the next epoch's snapshot only after the batch fully
//!   lands — readers see epoch `e` or `e+1`, never a mix. Submissions
//!   return a [`Ticket`] — an async-shaped one-shot handle (`poll`/`wait`).
//!
//! Point queries ([`Snapshot::hit_time`], [`Snapshot::hit_prob`],
//! [`Snapshot::coverage`], [`Snapshot::top_m_uncovered`]) are answered
//! from the index's dual-view columns in `O(postings)` per query — never a
//! full `estimate_*` sweep — and are **bit-identical** to the sweeps on
//! the same epoch's index (`rwd_walks::point`). Every answer carries its
//! epoch, so callers can reason about answer stability across churn.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub(crate) mod metrics;
pub mod server;
pub mod snapshot;

/// The engine a [`Server`] drives: the evolving engine itself, which
/// journals, snapshots and recovers on its own. The end-to-end benchmark
/// (`e2e-bench/`) names it `ServeEngine`.
pub use rwd_stream::StreamEngine as ServeEngine;
pub use server::{ApplyOutcome, Query, QueryAnswer, QueryValue, Server, ServerHandle, Ticket};
pub use snapshot::Snapshot;

/// Errors produced by the serving layer.
#[derive(Debug)]
pub enum ServeError {
    /// The server is shutting down and no longer accepts requests.
    Closed,
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServeError::Closed => write!(f, "server is shut down"),
        }
    }
}

impl std::error::Error for ServeError {}

/// Crate-wide result alias.
pub type Result<T> = std::result::Result<T, ServeError>;
