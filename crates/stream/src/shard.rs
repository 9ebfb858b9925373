//! Per-shard engines and the scatter-gather coordinator.
//!
//! A [`ShardSet`] splits the `R` walk layers into contiguous
//! [`LayerRange`]s and gives each range to a [`ShardEngine`] that owns its
//! own graph replica and partial walk index. Every [`EdgeBatch`] is
//! broadcast to all shards in two phases:
//!
//! 1. **Stage** — each shard applies the batch *functionally* to its graph
//!    replica, producing (but not committing) the next-epoch graph and
//!    touched set. Any validation error aborts here with every shard's
//!    state untouched, so the epoch advances all-or-nothing.
//! 2. **Commit** — each shard swaps in its staged graph and refreshes the
//!    walk groups the touched set can have changed, reporting per-shard
//!    [`RefreshStats`] and wall time ([`ShardBatchStats`]).
//!
//! Exactness is structural, not approximate: walk layers derive from
//! counter-based `(seed, node, absolute-layer)` RNG streams, so a shard's
//! layers are bitwise the monolith's layers; seed maintenance runs a
//! [`DeltaGainEngine`](rwd_core::greedy::delta::DeltaGainEngine) over the
//! shard tiling that merges staged integer gain deltas in absolute layer
//! order, so every pick, gain, and objective is bit-identical to the
//! single-process [`StreamEngine`](crate::StreamEngine) on the same trace.

use std::sync::Arc;
use std::time::Instant;

use rwd_graph::weighted::WeightedCsrGraph;
use rwd_graph::{CsrGraph, NodeId};
use rwd_walks::{LayerRange, PostingDelta, RefreshStats, WalkIndex};

use crate::batch::{EdgeBatch, GraphDelta, WeightedGraphDelta};
use crate::engine::{BatchReport, StreamConfig};
use crate::index::IncrementalIndex;
use crate::maintain::{MaintainReport, SeedMaintainer};
use crate::{Result, StreamError};

/// The current graph epoch, unweighted or weighted. Graph epochs are
/// [`Arc`]'d: batch application is functional (it builds the next graph and
/// swaps it in), so a snapshot holding the previous epoch's handle stays
/// valid and untouched for as long as it likes.
#[derive(Clone, Debug)]
pub(crate) enum EvolvingGraph {
    Unweighted(Arc<CsrGraph>),
    Weighted(Arc<WeightedCsrGraph>),
}

/// A batch delta staged by phase 1 of [`ShardSet::apply`], not yet
/// committed to any shard.
enum StagedDelta {
    Unweighted(GraphDelta),
    Weighted(WeightedGraphDelta),
}

/// What one shard spent on one committed batch — the per-shard rows of
/// [`BatchReport::shards`].
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ShardBatchStats {
    /// Shard ordinal (position in the layer tiling).
    pub shard: usize,
    /// The contiguous layer range the shard owns.
    pub layers: LayerRange,
    /// Walk groups resampled / postings rewritten inside that range.
    pub refresh: RefreshStats,
    /// Wall time of the shard's commit: graph swap, index refresh, and —
    /// when a snapshot pins the epoch — the shallow index clone before it
    /// (layer pointers plus the two per-node aggregate columns).
    pub refresh_ms: f64,
}

/// One shard of the engine: a contiguous [`LayerRange`] of the walk index
/// plus its own replica of the evolving graph. The shard's layers are
/// bitwise identical to the same layers of the monolithic index at every
/// epoch (absolute-layer RNG streams), which is what makes the coordinator
/// exact rather than approximate.
#[derive(Clone, Debug)]
pub struct ShardEngine {
    shard: usize,
    range: LayerRange,
    graph: EvolvingGraph,
    index: IncrementalIndex,
}

impl ShardEngine {
    /// Shard ordinal in the tiling.
    pub fn shard(&self) -> usize {
        self.shard
    }

    /// The contiguous layer range this shard owns.
    pub fn range(&self) -> LayerRange {
        self.range
    }

    /// The shard's partial walk index (layers `range`, bitwise the
    /// monolith's slice).
    pub fn index(&self) -> &WalkIndex {
        self.index.index()
    }

    /// Shared handle to the shard's current-epoch partial index; holding it
    /// pins the epoch (the next commit copies-on-write).
    pub fn index_shared(&self) -> Arc<WalkIndex> {
        self.index.share()
    }

    /// Accumulated churn this shard has absorbed over every batch.
    pub fn lifetime_stats(&self) -> RefreshStats {
        self.index.lifetime_stats()
    }

    /// Phase 1: applies the batch functionally to the shard's graph
    /// replica. No shard state changes; an error leaves everything as-is.
    fn stage(&self, batch: &EdgeBatch) -> Result<StagedDelta> {
        Ok(match &self.graph {
            EvolvingGraph::Unweighted(g) => StagedDelta::Unweighted(batch.apply(g)?),
            EvolvingGraph::Weighted(g) => StagedDelta::Weighted(batch.apply_weighted(g)?),
        })
    }

    /// Phase 2: swaps in the staged graph and refreshes the shard's layer
    /// range. Returns the shard's stats, the refresh's posting edit script
    /// (absolute layers — the warm-start input for seed maintenance), plus
    /// the (shard-independent) touched-node and edge counts.
    fn commit(&mut self, staged: StagedDelta) -> (ShardBatchStats, PostingDelta, usize, usize) {
        let start = Instant::now();
        let (refresh, posting_delta, touched, edges) = match (&mut self.graph, staged) {
            (EvolvingGraph::Unweighted(g), StagedDelta::Unweighted(delta)) => {
                let (stats, edits) = self.index.apply_collecting(&delta);
                let touched = delta.touched.len();
                let edges = delta.graph.m();
                *g = Arc::new(delta.graph);
                (stats, edits, touched, edges)
            }
            (EvolvingGraph::Weighted(g), StagedDelta::Weighted(delta)) => {
                let (stats, edits) = self.index.apply_weighted_collecting(&delta);
                let touched = delta.touched.len();
                let edges = delta.graph.m();
                *g = Arc::new(delta.graph);
                (stats, edits, touched, edges)
            }
            _ => unreachable!("staged delta kind always matches the shard's graph kind"),
        };
        let refresh_ms = start.elapsed().as_secs_f64() * 1e3;
        (
            ShardBatchStats {
                shard: self.shard,
                layers: self.range,
                refresh,
                refresh_ms,
            },
            posting_delta,
            touched,
            edges,
        )
    }

    /// Reassembles a shard from recovered parts (snapshot load path). The
    /// caller is responsible for `index` actually covering `range` of the
    /// monolithic index over `graph` — the recovery proptests hold the
    /// result to bitwise equality with a live engine.
    pub(crate) fn from_parts(
        shard: usize,
        range: LayerRange,
        graph: EvolvingGraph,
        index: IncrementalIndex,
    ) -> Self {
        ShardEngine {
            shard,
            range,
            graph,
            index,
        }
    }
}

/// A durability hook [`ShardSet::apply_hooked`] invokes after phase 1 has
/// staged a batch on every shard (so validation has passed and the commit
/// is certain to succeed) and before phase 2 commits anything: arguments
/// are the batch and the epoch the commit will publish. An `Err` aborts
/// the apply with no shard changed — the write-ahead contract.
pub(crate) type ApplyHook<'a> = &'a mut dyn FnMut(&EdgeBatch, u64) -> std::io::Result<()>;

/// Validates the engine configuration against the graph size. Shared by
/// every constructor path.
pub(crate) fn validate_config(cfg: &StreamConfig, n: usize) -> Result<()> {
    if cfg.k == 0 || cfg.k > n {
        return Err(StreamError::InvalidConfig(format!(
            "k = {} outside [1, n = {n}]",
            cfg.k
        )));
    }
    if cfg.r == 0 {
        return Err(StreamError::InvalidConfig("r must be >= 1".into()));
    }
    if cfg.l == 0 || cfg.l > u16::MAX as u32 {
        return Err(StreamError::InvalidConfig(format!(
            "l = {} outside [1, {}]",
            cfg.l,
            u16::MAX
        )));
    }
    if let rwd_core::greedy::approx::GainRule::Combined { lambda } = cfg.rule {
        if !(0.0..=1.0).contains(&lambda) {
            return Err(StreamError::InvalidConfig(format!(
                "lambda = {lambda} outside [0, 1]"
            )));
        }
    }
    Ok(())
}

/// Rejects shard counts the layer tiling cannot satisfy: `0` shards, or
/// more shards than there are walk layers (some shard would own no layers).
/// Named error instead of the panic `LayerRange::partition` would raise.
pub(crate) fn validate_shards(shards: usize, layers: usize) -> Result<()> {
    if shards == 0 || shards > layers {
        return Err(StreamError::InvalidShardCount { shards, layers });
    }
    Ok(())
}

/// The scatter-gather coordinator: a tiling of [`ShardEngine`]s plus the
/// shared [`SeedMaintainer`]. See the module docs for the two-phase batch
/// protocol and the exactness argument.
#[derive(Clone, Debug)]
pub struct ShardSet {
    cfg: StreamConfig,
    shards: Vec<ShardEngine>,
    maintainer: SeedMaintainer,
    epoch: u64,
}

impl ShardSet {
    /// Cold-starts `shard_count` shards over an unweighted graph: balanced
    /// contiguous layer ranges, one graph replica and partial index each,
    /// then a bootstrap seed selection over the tiling.
    pub fn new(graph: CsrGraph, cfg: StreamConfig, shard_count: usize) -> Result<Self> {
        validate_config(&cfg, graph.n())?;
        validate_shards(shard_count, cfg.r)?;
        let ranges = LayerRange::partition(cfg.r, shard_count);
        let shards: Vec<ShardEngine> = ranges
            .iter()
            .enumerate()
            .map(|(s, &range)| ShardEngine {
                shard: s,
                range,
                graph: EvolvingGraph::Unweighted(Arc::new(graph.clone())),
                index: IncrementalIndex::build_layer_range(
                    &graph,
                    cfg.l,
                    range,
                    cfg.seed,
                    cfg.threads,
                ),
            })
            .collect();
        Ok(Self::bootstrap(cfg, shards))
    }

    /// Weighted twin of [`ShardSet::new`].
    pub fn new_weighted(
        graph: WeightedCsrGraph,
        cfg: StreamConfig,
        shard_count: usize,
    ) -> Result<Self> {
        validate_config(&cfg, graph.n())?;
        validate_shards(shard_count, cfg.r)?;
        let ranges = LayerRange::partition(cfg.r, shard_count);
        let shards: Vec<ShardEngine> = ranges
            .iter()
            .enumerate()
            .map(|(s, &range)| ShardEngine {
                shard: s,
                range,
                graph: EvolvingGraph::Weighted(Arc::new(graph.clone())),
                index: IncrementalIndex::build_weighted_layer_range(
                    &graph,
                    cfg.l,
                    range,
                    cfg.seed,
                    cfg.threads,
                ),
            })
            .collect();
        Ok(Self::bootstrap(cfg, shards))
    }

    fn bootstrap(cfg: StreamConfig, shards: Vec<ShardEngine>) -> Self {
        let mut maintainer = SeedMaintainer::new(cfg.rule, cfg.k, cfg.threads);
        let refs: Vec<&WalkIndex> = shards.iter().map(|s| s.index.index()).collect();
        maintainer.maintain_sharded(&refs);
        ShardSet {
            cfg,
            shards,
            maintainer,
            epoch: 0,
        }
    }

    /// Reassembles a coordinator from recovered shards at `epoch`. Seed
    /// maintenance bootstraps cold over the loaded tiling — bit-identical
    /// to the warm state the live engine carried, because warm ≡ cold is
    /// the maintainer's proptested invariant.
    pub(crate) fn from_recovered(cfg: StreamConfig, shards: Vec<ShardEngine>, epoch: u64) -> Self {
        let mut set = Self::bootstrap(cfg, shards);
        set.epoch = epoch;
        set
    }

    /// Applies one churn batch across every shard, all-or-nothing: phase 1
    /// stages the batch functionally on every shard (any rejection returns
    /// an error with no shard changed and the epoch not advanced); phase 2
    /// commits shard by shard, then one seed-maintenance pass runs over the
    /// refreshed tiling and the epoch advances. Readers therefore never
    /// observe a partially-landed batch: the epoch stamp moves only after
    /// the last shard has committed.
    ///
    /// No-op batches short-circuit exactly like the single-process engine:
    /// no refresh, no replay, no epoch bump, per-shard rows empty.
    pub fn apply(&mut self, batch: &EdgeBatch) -> Result<BatchReport> {
        self.apply_hooked(batch, None)
    }

    /// [`ShardSet::apply`] with an optional durability hook threaded
    /// between phase 1 (stage) and phase 2 (commit) — the write-ahead
    /// point: validation has passed, nothing has changed yet, and the
    /// commit that follows is infallible. No-op batches never reach the
    /// hook (they don't advance the epoch, so there is nothing to log).
    pub(crate) fn apply_hooked(
        &mut self,
        batch: &EdgeBatch,
        hook: Option<ApplyHook<'_>>,
    ) -> Result<BatchReport> {
        if batch.is_empty() {
            return Ok(BatchReport {
                epoch: self.epoch,
                timestamp: batch.timestamp,
                insertions: 0,
                deletions: 0,
                edges: self.edges(),
                touched_nodes: 0,
                refresh: RefreshStats {
                    groups_total: self.n() * self.cfg.r,
                    ..RefreshStats::default()
                },
                maintain: MaintainReport {
                    seeds_swapped: 0,
                    rounds_kept: self.maintainer.seeds().len(),
                    objective: self.maintainer.objective(),
                    touched_postings: 0,
                    first_invalid_round: None,
                    warm: false,
                    absorbed_postings: 0,
                    replayed_rounds: 0,
                },
                maintain_ms: 0.0,
                shards: Vec::new(),
            });
        }
        let metrics = crate::obs::stream_metrics();
        // Phase 1 — stage on every shard before touching any state.
        let stage_start = Instant::now();
        let staged: Vec<StagedDelta> = self
            .shards
            .iter()
            .map(|s| s.stage(batch))
            .collect::<Result<_>>()?;
        metrics.stage_ns.record_duration(stage_start.elapsed());
        // Write-ahead point: the batch is valid on every shard and the
        // epoch it will publish is known; journal it before any state
        // changes so a crash either loses the whole batch or none of it.
        if let Some(hook) = hook {
            let journal_timer = metrics.journal_ns.time();
            hook(batch, self.epoch + 1).map_err(|e| StreamError::Durability {
                context: "write-ahead journal append".into(),
                source: e,
            })?;
            journal_timer.stop();
        }
        // Phase 2 — commit every shard, gathering per-shard stats and the
        // per-shard posting edit scripts (absolute layers, so the
        // maintainer consumes them without translation).
        let mut shard_stats = Vec::with_capacity(self.shards.len());
        let mut edits = Vec::with_capacity(self.shards.len());
        let (mut touched_nodes, mut edges) = (0usize, 0usize);
        for (shard, delta) in self.shards.iter_mut().zip(staged) {
            let (stats, posting_delta, touched, m) = shard.commit(delta);
            metrics.refresh_ns.record((stats.refresh_ms * 1e6) as u64);
            shard_stats.push(stats);
            edits.push(posting_delta);
            (touched_nodes, edges) = (touched, m);
        }
        let refresh = Self::merge_refresh(shard_stats.iter().map(|s| s.refresh));
        let refs: Vec<&WalkIndex> = self.shards.iter().map(|s| s.index.index()).collect();
        let maintain_start = Instant::now();
        let maintain = self.maintainer.maintain_sharded_warm(&refs, &edits);
        let maintain_elapsed = maintain_start.elapsed();
        let maintain_ms = maintain_elapsed.as_secs_f64() * 1e3;
        if maintain.warm {
            metrics.maintain_warm_ns.record_duration(maintain_elapsed);
        } else {
            metrics.maintain_cold_ns.record_duration(maintain_elapsed);
        }
        let publish_start = Instant::now();
        self.epoch += 1;
        let report = BatchReport {
            epoch: self.epoch,
            timestamp: batch.timestamp,
            insertions: batch.insertions.len(),
            deletions: batch.deletions.len(),
            edges,
            touched_nodes,
            refresh,
            maintain,
            maintain_ms,
            shards: shard_stats,
        };
        // Churn counters folded out of the report, then the publish stamp.
        metrics.batches.inc();
        metrics.insertions.add(report.insertions as u64);
        metrics.deletions.add(report.deletions as u64);
        metrics.touched_nodes.add(report.touched_nodes as u64);
        metrics
            .groups_resampled
            .add(report.refresh.groups_resampled as u64);
        metrics
            .postings_added
            .add(report.refresh.postings_added as u64);
        metrics
            .postings_removed
            .add(report.refresh.postings_removed as u64);
        metrics
            .seeds_swapped
            .add(report.maintain.seeds_swapped as u64);
        metrics
            .replayed_rounds
            .add(report.maintain.replayed_rounds as u64);
        metrics.epoch.set(self.epoch as i64);
        metrics.publish_ns.record_duration(publish_start.elapsed());
        Ok(report)
    }

    /// Sums per-shard refresh stats into the whole-index view: every
    /// counter adds, including `groups_total` (the per-shard totals
    /// `n · |range|` tile `n · R` exactly).
    fn merge_refresh(stats: impl Iterator<Item = RefreshStats>) -> RefreshStats {
        stats.fold(RefreshStats::default(), |mut acc, s| {
            acc.groups_resampled += s.groups_resampled;
            acc.groups_total += s.groups_total;
            acc.postings_removed += s.postings_removed;
            acc.postings_added += s.postings_added;
            acc
        })
    }

    /// Node count of the (shared) node universe.
    pub fn n(&self) -> usize {
        self.shards[0].index.index().n()
    }

    /// Edges in the current graph epoch.
    pub fn edges(&self) -> usize {
        match &self.shards[0].graph {
            EvolvingGraph::Unweighted(g) => g.m(),
            EvolvingGraph::Weighted(g) => g.m(),
        }
    }

    /// Sets the seed maintainer's warm-start crossover (see
    /// [`SeedMaintainer::set_crossover`]): `0.0` forces every batch's
    /// maintenance pass cold, `1.0` warms unconditionally. Results never
    /// change — warmth only moves wall time.
    pub fn set_maintain_crossover(&mut self, crossover: f64) {
        self.maintainer.set_crossover(crossover);
    }

    /// The maintained seed set in selection order.
    pub fn seeds(&self) -> &[NodeId] {
        self.maintainer.seeds()
    }

    /// Marginal gain of each maintained seed at its selection round.
    pub fn gain_trace(&self) -> &[f64] {
        self.maintainer.gain_trace()
    }

    /// Estimated objective of the maintained seed set.
    pub fn objective(&self) -> f64 {
        self.maintainer.objective()
    }

    /// The shards in layer order.
    pub fn shards(&self) -> &[ShardEngine] {
        &self.shards
    }

    /// Number of shards in the tiling.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// The layer ranges of the tiling, in order.
    pub fn ranges(&self) -> Vec<LayerRange> {
        self.shards.iter().map(|s| s.range).collect()
    }

    /// Borrowed handles to every shard's partial index, in layer order —
    /// the tiling [`SeedMaintainer::maintain_sharded`] and the serving
    /// layer's scatter-gather queries consume.
    pub fn shard_indexes(&self) -> Vec<&WalkIndex> {
        self.shards.iter().map(|s| s.index.index()).collect()
    }

    /// Shared handles to every shard's current-epoch partial index; holding
    /// them pins the epoch shard by shard (each next commit
    /// copies-on-write).
    pub fn shard_indexes_shared(&self) -> Vec<Arc<WalkIndex>> {
        self.shards.iter().map(|s| s.index.share()).collect()
    }

    /// The current unweighted graph (`None` when running weighted). All
    /// replicas are equal; shard 0's is returned.
    pub fn graph(&self) -> Option<&CsrGraph> {
        match &self.shards[0].graph {
            EvolvingGraph::Unweighted(g) => Some(g),
            EvolvingGraph::Weighted(_) => None,
        }
    }

    /// The current weighted graph (`None` when running unweighted).
    pub fn weighted_graph(&self) -> Option<&WeightedCsrGraph> {
        match &self.shards[0].graph {
            EvolvingGraph::Unweighted(_) => None,
            EvolvingGraph::Weighted(g) => Some(g),
        }
    }

    /// Shared handle to the current unweighted graph epoch (`None` when
    /// running weighted).
    pub fn graph_shared(&self) -> Option<Arc<CsrGraph>> {
        match &self.shards[0].graph {
            EvolvingGraph::Unweighted(g) => Some(Arc::clone(g)),
            EvolvingGraph::Weighted(_) => None,
        }
    }

    /// Shared handle to the current weighted graph epoch (`None` when
    /// running unweighted).
    pub fn weighted_graph_shared(&self) -> Option<Arc<WeightedCsrGraph>> {
        match &self.shards[0].graph {
            EvolvingGraph::Unweighted(_) => None,
            EvolvingGraph::Weighted(g) => Some(Arc::clone(g)),
        }
    }

    /// Number of batches applied since the cold start.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// The engine configuration.
    pub fn config(&self) -> &StreamConfig {
        &self.cfg
    }

    /// Accumulated index-churn statistics over every applied batch, summed
    /// across shards (so the totals describe the whole `n · R`-group
    /// index).
    pub fn lifetime_stats(&self) -> RefreshStats {
        Self::merge_refresh(self.shards.iter().map(|s| s.index.lifetime_stats()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rwd_core::greedy::approx::GainRule;
    use rwd_graph::generators::erdos_renyi_gnp;

    fn cfg() -> StreamConfig {
        StreamConfig {
            l: 5,
            r: 6,
            k: 4,
            seed: 13,
            rule: GainRule::HittingTime,
            threads: 0,
        }
    }

    #[test]
    fn shard_count_is_validated_by_name() {
        let g = erdos_renyi_gnp(40, 0.1, 2).unwrap();
        let err = ShardSet::new(g.clone(), cfg(), 0).unwrap_err();
        assert!(
            matches!(
                err,
                StreamError::InvalidShardCount {
                    shards: 0,
                    layers: 6
                }
            ),
            "{err}"
        );
        assert!(err.to_string().contains("shard count"), "{err}");
        let err = ShardSet::new(g.clone(), cfg(), 7).unwrap_err();
        assert!(
            matches!(
                err,
                StreamError::InvalidShardCount {
                    shards: 7,
                    layers: 6
                }
            ),
            "{err}"
        );
        assert!(ShardSet::new(g, cfg(), 6).is_ok());
    }

    #[test]
    fn failed_batch_leaves_every_shard_unchanged() {
        let g = erdos_renyi_gnp(40, 0.1, 2).unwrap();
        let mut set = ShardSet::new(g, cfg(), 3).unwrap();
        let seeds = set.seeds().to_vec();
        let before: Vec<WalkIndex> = set.shard_indexes().into_iter().cloned().collect();
        let mut bad = EdgeBatch::new(1);
        bad.insertions.push((0, 1, 1.0));
        bad.deletions.push((0, 0)); // self-loop: rejected in phase 1
        assert!(set.apply(&bad).is_err());
        assert_eq!(set.epoch(), 0, "failed batch must not advance the epoch");
        assert_eq!(set.seeds(), &seeds[..]);
        for (idx, want) in set.shard_indexes().into_iter().zip(&before) {
            assert!(*idx == *want, "shard index changed by a rejected batch");
        }
    }

    #[test]
    fn per_shard_rows_tile_the_merged_report() {
        let g = erdos_renyi_gnp(60, 0.08, 9).unwrap();
        let mut set = ShardSet::new(g.clone(), cfg(), 4).unwrap();
        let mut batch = EdgeBatch::new(5);
        let (u, v) = (0..60u32)
            .flat_map(|u| ((u + 1)..60).map(move |v| (u, v)))
            .find(|&(u, v)| !g.has_edge(NodeId(u), NodeId(v)))
            .unwrap();
        batch.insertions.push((u, v, 1.0));
        let report = set.apply(&batch).unwrap();
        assert_eq!(report.shards.len(), 4);
        assert_eq!(
            report.shards.iter().map(|s| s.layers.len()).sum::<usize>(),
            6,
            "shard rows must tile all R layers"
        );
        let summed: usize = report
            .shards
            .iter()
            .map(|s| s.refresh.groups_resampled)
            .sum();
        assert_eq!(report.refresh.groups_resampled, summed);
        assert_eq!(report.refresh.groups_total, 60 * 6);
        let lifetime = set.lifetime_stats();
        assert_eq!(lifetime.groups_resampled, summed);
        assert_eq!(lifetime.groups_total, 60 * 6);
    }
}
