//! # rwd-stream
//!
//! The evolving-graph subsystem: everything the static pipeline
//! (sample → index → greedy) needs to serve a graph under **edge churn**
//! without rebuilding from scratch.
//!
//! * [`batch`] — [`EdgeBatch`]: a timestamped set of edge insertions and
//!   deletions, applied to [`rwd_graph::CsrGraph`] or
//!   [`rwd_graph::weighted::WeightedCsrGraph`] to produce the next-epoch
//!   graph plus the set of *touched* endpoints ([`GraphDelta`] /
//!   [`WeightedGraphDelta`]); weighted application patches alias tables
//!   only for touched rows,
//! * [`maintain`] — [`SeedMaintainer`]: repairs the current seed set after
//!   each batch by replaying greedy rounds over a
//!   [`rwd_core::greedy::DeltaGainEngine`], evicting a seed only when its
//!   round's marginal-gain argmax actually changed; the engine state
//!   persists **across epochs** — each refresh's posting edit script
//!   ([`rwd_walks::PostingDelta`]) is absorbed in `O(touched)` and
//!   still-valid rounds replay from their recorded logs instead of
//!   re-streaming the index (bit-identical to a cold replay, with a
//!   crossover fallback for huge batches),
//! * [`engine`] — [`StreamEngine`]: the evolving pipeline tying it
//!   together. The `R` walk layers are tiled into contiguous
//!   [`rwd_walks::LayerRange`]s, one partial [`rwd_walks::WalkIndex`] per
//!   shard, all over one graph epoch ([`EpochGraph`], the only place the
//!   weighted/unweighted choice lives). A batch is staged once into the
//!   next epoch; every shard then resamples exactly the `(src, layer)` walk
//!   groups the batch can have changed, and the epoch advances
//!   all-or-nothing. Because walks derive from counter-based
//!   `(seed, src, layer)` RNG streams, the maintained index is
//!   **bit-identical** to a from-scratch build on the post-update graph at
//!   any shard count. Each batch reports its churn ([`BatchReport`]:
//!   groups resampled, postings rewritten, seeds swapped, per-shard rows),
//! * [`journal`] — [`BatchJournal`]: the epoch-stamped write-ahead batch
//!   log (length-prefixed, CRC-checksummed records, fsync'd before any
//!   shard commits) plus the scan that classifies a torn tail (truncate
//!   and continue) versus mid-journal corruption (named error),
//! * [`durable`] — the optional data directory of a [`StreamEngine`]
//!   ([`StreamEngine::create_durable`], [`StreamEngine::open_durable_with`]):
//!   journal every batch ahead of its commit, snapshot the whole engine at
//!   a configurable cadence (compacting the journal), and recover after a
//!   crash to a state **bit-identical** to the live engine that wrote the
//!   surviving prefix.
//!
//! The determinism contract carries over from the static pipeline: the
//! state after any prefix of batches is a pure function of
//! `(base graph, batches, config)` — independent of thread count — and
//! equals the state a cold start on the current graph would produce.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod batch;
pub mod durable;
pub mod engine;
pub mod journal;
pub mod maintain;
pub(crate) mod obs;

pub use batch::{EdgeBatch, GraphDelta, WeightedGraphDelta};
pub use durable::{DurabilityConfig, OpenMode, RecoveryReport};
pub use engine::{BatchReport, EpochGraph, ShardBatchStats, StreamConfig, StreamEngine};
pub use journal::BatchJournal;
pub use maintain::{MaintainReport, SeedMaintainer};
pub use rwd_walks::PostingDelta;

/// Errors produced by the evolving-graph subsystem.
#[derive(Debug)]
pub enum StreamError {
    /// A batch failed validation against the current graph.
    Graph(rwd_graph::GraphError),
    /// The engine configuration is invalid for the given graph.
    InvalidConfig(String),
    /// The requested shard count cannot tile the walk layers: zero shards,
    /// or more shards than layers (some shard would own no layers).
    InvalidShardCount {
        /// Requested shard count.
        shards: usize,
        /// Walk layers available to tile (`R`).
        layers: usize,
    },
    /// A durable-storage operation (journal append, snapshot write,
    /// recovery load) failed at the I/O layer.
    Durability {
        /// What the engine was doing when the I/O failed.
        context: String,
        /// The underlying I/O error.
        source: std::io::Error,
    },
    /// A journal record before the tail failed its CRC or structural
    /// checks — unlike a torn tail (which recovery truncates and survives),
    /// mid-journal corruption means committed history is unreadable and is
    /// rejected by name.
    CorruptJournal(String),
    /// A snapshot in the data directory failed validation (bad magic,
    /// checksum mismatch, missing shard file, manifest inconsistency).
    CorruptSnapshot(String),
    /// The data directory holds no loadable snapshot to recover from.
    NoSnapshot(std::path::PathBuf),
}

impl std::fmt::Display for StreamError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StreamError::Graph(e) => write!(f, "batch rejected: {e}"),
            StreamError::InvalidConfig(msg) => write!(f, "invalid stream config: {msg}"),
            StreamError::InvalidShardCount { shards, layers } => write!(
                f,
                "invalid shard count: {shards} shards over {layers} walk \
                 layers (need 1 <= shards <= layers)"
            ),
            StreamError::Durability { context, source } => {
                write!(f, "durability I/O failure during {context}: {source}")
            }
            StreamError::CorruptJournal(msg) => write!(f, "corrupt journal: {msg}"),
            StreamError::CorruptSnapshot(msg) => write!(f, "corrupt snapshot: {msg}"),
            StreamError::NoSnapshot(dir) => {
                write!(f, "no loadable snapshot in data dir {}", dir.display())
            }
        }
    }
}

impl std::error::Error for StreamError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            StreamError::Graph(e) => Some(e),
            StreamError::Durability { source, .. } => Some(source),
            StreamError::InvalidConfig(_)
            | StreamError::InvalidShardCount { .. }
            | StreamError::CorruptJournal(_)
            | StreamError::CorruptSnapshot(_)
            | StreamError::NoSnapshot(_) => None,
        }
    }
}

impl From<rwd_graph::GraphError> for StreamError {
    fn from(e: rwd_graph::GraphError) -> Self {
        StreamError::Graph(e)
    }
}

/// Crate-wide result alias.
pub type Result<T> = std::result::Result<T, StreamError>;
