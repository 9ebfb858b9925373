//! # rwd-walks
//!
//! L-length random-walk machinery for random-walk domination:
//!
//! * [`rng`] — deterministic per-(node, walk) RNG streams so that every
//!   sampled quantity is reproducible bit-for-bit regardless of thread count,
//! * [`nodeset`] — a flat bitset for target-set membership tests,
//! * [`walker`] — the walk engine: the [`WalkGraph`] seam (uniform steps
//!   on [`rwd_graph::CsrGraph`], alias-table steps on
//!   [`rwd_graph::weighted::WeightedCsrGraph`]) that index build, refresh
//!   and estimation are generic over, plus record and first-hit queries,
//! * [`hitting`] — exact dynamic programs for the hitting time `h^L_uS`
//!   (Eq. 4), node-to-node hitting time (Eq. 2) and the hit probability
//!   `p^L_uS` (Eq. 8), all-sources in `O(mL)` per call,
//! * [`enumerate`] — brute-force expectations by enumerating every walk on
//!   tiny graphs (an independent test oracle for the DP),
//! * [`estimate`] — the paper's Algorithm 2 Monte-Carlo estimator with the
//!   Hoeffding sample-size bounds of Lemmas 3.3/3.4,
//! * [`index`] — the paper's Algorithm 3 inverted walk index backing the
//!   approximate greedy algorithm (Algorithm 6),
//! * [`delta`] — the compact posting edit script an incremental refresh
//!   emits (removed/added inverted postings per resampled group), the
//!   input to cross-epoch warm starts downstream,
//! * [`point`] — single-node hitting-time / hit-probability / coverage
//!   queries over the index's forward view, `O(postings)` per query and
//!   bit-identical to the full-sweep estimators (the serving-path entry
//!   points),
//! * [`parallel`] — the shared worker-count policy every fan-out uses,
//! * [`storage`] — the column store behind the index: every posting column
//!   is either heap-owned or a zero-copy window into an `mmap(2)`-backed
//!   RWDIDX4 file, promoted to the heap only when first mutated,
//! * [`crc`] — streaming CRC-32 backing the content checksums every
//!   durable artifact (index files, snapshots, journal records) carries.
//!
//! Degree-0 convention: a walk at an isolated node stays put (self-loop
//! semantics) in both the DP and the sampler, so the two always agree.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod crc;
pub mod delta;
pub mod enumerate;
pub mod estimate;
pub mod hitting;
pub mod index;
pub mod nodeset;
pub(crate) mod obs;
pub mod parallel;
pub mod point;
pub mod rng;
pub mod storage;
pub mod walker;

pub use delta::{LayerDelta, PostingDelta, PostingEdit};
pub use estimate::{Estimates, SampleEstimator};
pub use index::{
    inspect_index_file, IndexFileInfo, LayerRange, LoadStats, Posting, PostingsRef, RefreshStats,
    WalkIndex,
};
pub use nodeset::NodeSet;
pub use point::{top_m_from_counts, PartialContribution};
pub use rng::WalkRng;
pub use storage::{Column, MmapRegion};
pub use walker::WalkGraph;
