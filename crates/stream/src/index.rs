//! Epoch-to-epoch maintenance of the walk index.

use std::sync::Arc;

use rwd_graph::weighted::WeightedCsrGraph;
use rwd_graph::CsrGraph;
use rwd_walks::{LayerRange, PostingDelta, RefreshStats, WalkIndex};

use crate::batch::{GraphDelta, WeightedGraphDelta};

/// A [`WalkIndex`] maintained across graph epochs.
///
/// The wrapper pins the build parameters (walk kind, seed, worker budget)
/// so every refresh replays the right RNG streams, and accumulates the
/// lifetime churn statistics. The invariant it preserves — asserted by the
/// equivalence test suite — is that after any number of
/// [`IncrementalIndex::apply`] calls, the wrapped index is bit-identical to
/// `WalkIndex::build` (or `build_weighted`) on the current graph: postings,
/// forward views, and per-node aggregates alike.
///
/// The index lives behind an [`Arc`] so the serving layer can pin a
/// snapshot of one epoch at zero cost: [`IncrementalIndex::share`] hands
/// out the current epoch's handle, and the next `apply` mutates in place
/// when no snapshot still holds it (the steady state) or clones first when
/// one does (`Arc::make_mut`). The clone is shallow — the walk layers are
/// themselves shared `Arc`s, so it copies `R` layer pointers and the two
/// per-node aggregate columns — and the refresh then replaces each layer it
/// patches with a fresh one, leaving the pinned layers intact: a pinned
/// reader never observes a mid-refresh index.
#[derive(Clone, Debug)]
pub struct IncrementalIndex {
    idx: Arc<WalkIndex>,
    weighted: bool,
    threads: usize,
    lifetime: RefreshStats,
}

impl IncrementalIndex {
    /// Builds the epoch-0 index over an unweighted graph.
    pub fn build(g: &CsrGraph, l: u32, r: usize, seed: u64, threads: usize) -> Self {
        IncrementalIndex {
            idx: Arc::new(WalkIndex::build_with_threads(g, l, r, seed, threads)),
            weighted: false,
            threads,
            lifetime: RefreshStats::default(),
        }
    }

    /// Builds the epoch-0 index over a weighted graph.
    pub fn build_weighted(
        g: &WeightedCsrGraph,
        l: u32,
        r: usize,
        seed: u64,
        threads: usize,
    ) -> Self {
        IncrementalIndex {
            idx: Arc::new(WalkIndex::build_weighted_with_threads(
                g, l, r, seed, threads,
            )),
            weighted: true,
            threads,
            lifetime: RefreshStats::default(),
        }
    }

    /// Builds the epoch-0 index for one shard: only the layers in `range`,
    /// each bitwise identical to the same layer of the full `R`-layer
    /// monolith (the per-`(seed, node, layer)` RNG streams use absolute
    /// layer indices). Refreshes replay the same absolute streams, so the
    /// shard tracks its slice of the monolith across epochs.
    pub fn build_layer_range(
        g: &CsrGraph,
        l: u32,
        range: LayerRange,
        seed: u64,
        threads: usize,
    ) -> Self {
        IncrementalIndex {
            idx: Arc::new(WalkIndex::build_layer_range(g, l, range, seed, threads)),
            weighted: false,
            threads,
            lifetime: RefreshStats::default(),
        }
    }

    /// Weighted twin of [`IncrementalIndex::build_layer_range`].
    pub fn build_weighted_layer_range(
        g: &WeightedCsrGraph,
        l: u32,
        range: LayerRange,
        seed: u64,
        threads: usize,
    ) -> Self {
        IncrementalIndex {
            idx: Arc::new(WalkIndex::build_weighted_layer_range(
                g, l, range, seed, threads,
            )),
            weighted: true,
            threads,
            lifetime: RefreshStats::default(),
        }
    }

    /// Wraps an index loaded from a snapshot file (the durable layer's
    /// recovery path). The lifetime churn counters restart at zero — they
    /// describe this process's work, not the index's history — so they are
    /// excluded from recovery-equality checks.
    pub(crate) fn from_loaded(idx: WalkIndex, weighted: bool, threads: usize) -> Self {
        IncrementalIndex {
            idx: Arc::new(idx),
            weighted,
            threads,
            lifetime: RefreshStats::default(),
        }
    }

    /// Advances the index to the next epoch: resamples exactly the walk
    /// groups the delta's touched set can have changed. Snapshots pinned
    /// via [`IncrementalIndex::share`] keep observing the previous epoch.
    ///
    /// # Panics
    /// Panics if the index was built over a weighted graph (use
    /// [`IncrementalIndex::apply_weighted`]) or the delta changed `n`.
    pub fn apply(&mut self, delta: &GraphDelta) -> RefreshStats {
        self.apply_collecting(delta).0
    }

    /// [`IncrementalIndex::apply`] that additionally returns the refresh's
    /// posting edit script — the input cross-epoch consumers (persistent
    /// gain engines) absorb to skip re-deriving from the full index.
    pub fn apply_collecting(&mut self, delta: &GraphDelta) -> (RefreshStats, PostingDelta) {
        assert!(
            !self.weighted,
            "index was built weighted; apply the weighted delta"
        );
        let (stats, posting_delta) = Arc::make_mut(&mut self.idx).refresh_collecting(
            &delta.graph,
            &delta.touched,
            self.threads,
        );
        self.lifetime.merge(&stats);
        (stats, posting_delta)
    }

    /// Weighted twin of [`IncrementalIndex::apply`].
    pub fn apply_weighted(&mut self, delta: &WeightedGraphDelta) -> RefreshStats {
        self.apply_weighted_collecting(delta).0
    }

    /// Weighted twin of [`IncrementalIndex::apply_collecting`].
    pub fn apply_weighted_collecting(
        &mut self,
        delta: &WeightedGraphDelta,
    ) -> (RefreshStats, PostingDelta) {
        assert!(
            self.weighted,
            "index was built unweighted; apply the unweighted delta"
        );
        let (stats, posting_delta) = Arc::make_mut(&mut self.idx).refresh_weighted_collecting(
            &delta.graph,
            &delta.touched,
            self.threads,
        );
        self.lifetime.merge(&stats);
        (stats, posting_delta)
    }

    /// The maintained index (always equal to a cold build on the current
    /// graph).
    pub fn index(&self) -> &WalkIndex {
        &self.idx
    }

    /// A shared handle to the current epoch's index. Cloning the `Arc` is
    /// O(1); holding it pins this epoch — a later [`IncrementalIndex::apply`]
    /// leaves the pinned index untouched (copy-on-write at layer grain).
    pub fn share(&self) -> Arc<WalkIndex> {
        Arc::clone(&self.idx)
    }

    /// Whether the index samples weighted walks.
    pub fn is_weighted(&self) -> bool {
        self.weighted
    }

    /// Accumulated churn over every applied batch.
    pub fn lifetime_stats(&self) -> RefreshStats {
        self.lifetime
    }

    /// Unwraps the maintained index (a shallow clone if a snapshot still
    /// shares it).
    pub fn into_index(self) -> WalkIndex {
        Arc::try_unwrap(self.idx).unwrap_or_else(|arc| (*arc).clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::batch::EdgeBatch;
    use rwd_graph::generators::erdos_renyi_gnp;

    #[test]
    fn apply_matches_cold_build_across_epochs() {
        let g0 = erdos_renyi_gnp(70, 0.07, 3).unwrap();
        let mut inc = IncrementalIndex::build(&g0, 5, 4, 17, 0);
        assert!(!inc.is_weighted());

        let mut batch = EdgeBatch::new(1);
        batch.insertions.push((0, 69, 1.0));
        let delta = batch.apply(&g0).unwrap();
        let stats = inc.apply(&delta);
        assert!(stats.groups_resampled > 0);
        assert!(*inc.index() == WalkIndex::build(&delta.graph, 5, 4, 17));

        // Second epoch on top of the first.
        let mut batch2 = EdgeBatch::new(2);
        batch2.deletions.push((0, 69));
        let delta2 = batch2.apply(&delta.graph).unwrap();
        inc.apply(&delta2);
        assert!(*inc.index() == WalkIndex::build(&delta2.graph, 5, 4, 17));
        assert!(inc.lifetime_stats().groups_resampled >= stats.groups_resampled);
    }

    #[test]
    fn shared_handle_pins_its_epoch() {
        // A snapshot taken before a batch keeps observing the old epoch
        // bit for bit, while the maintained index advances.
        let g0 = erdos_renyi_gnp(50, 0.1, 8).unwrap();
        let mut inc = IncrementalIndex::build(&g0, 4, 3, 5, 0);
        let pinned = inc.share();
        let before = (*pinned).clone();

        let (u, v) = (0..50u32)
            .flat_map(|u| ((u + 1)..50).map(move |v| (u, v)))
            .find(|&(u, v)| !g0.has_edge(rwd_graph::NodeId(u), rwd_graph::NodeId(v)))
            .unwrap();
        let mut batch = EdgeBatch::new(1);
        batch.insertions.push((u, v, 1.0));
        let delta = batch.apply(&g0).unwrap();
        inc.apply(&delta);

        assert!(*pinned == before, "pinned epoch mutated under the reader");
        assert!(*inc.index() == WalkIndex::build(&delta.graph, 4, 3, 5));
        assert!(*inc.index() != *pinned, "engine should have advanced");

        // With the pin dropped, the next apply mutates in place again (no
        // observable difference, just the steady-state path).
        drop(pinned);
        let mut batch2 = EdgeBatch::new(2);
        batch2.deletions.push((u, v));
        let delta2 = batch2.apply(&delta.graph).unwrap();
        inc.apply(&delta2);
        assert!(*inc.index() == WalkIndex::build(&delta2.graph, 4, 3, 5));
    }

    #[test]
    #[should_panic(expected = "built weighted")]
    fn unweighted_delta_on_weighted_index_panics() {
        let g = rwd_graph::generators::classic::path(6).unwrap();
        let wg = rwd_graph::weighted::weighted_twin(&g, 2).unwrap();
        let mut inc = IncrementalIndex::build_weighted(&wg, 3, 2, 5, 0);
        let mut batch = EdgeBatch::new(0);
        batch.insertions.push((0, 2, 1.0));
        let delta = batch.apply(&g).unwrap();
        inc.apply(&delta);
    }
}
