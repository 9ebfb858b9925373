//! The evolving engine: graph → index → seeds, per batch.
//!
//! A [`StreamEngine`] tiles the `R` walk layers into contiguous
//! [`LayerRange`]s, one partial walk index per shard, all over **one**
//! graph epoch ([`EpochGraph`]). Every [`EdgeBatch`] lands in two phases:
//!
//! 1. **Stage** — the batch is applied *functionally* to the current
//!    graph once, producing (but not committing) the next-epoch graph and
//!    the touched set. A validation error aborts here with the engine
//!    untouched, so the epoch advances all-or-nothing.
//! 2. **Commit** — every shard refreshes the walk groups the touched set
//!    can have changed against that one staged graph, reporting per-shard
//!    [`RefreshStats`] and wall time ([`ShardBatchStats`]); then the graph
//!    epoch swaps in, one seed-maintenance pass runs over the refreshed
//!    tiling and the epoch advances.
//!
//! Exactness is structural, not approximate: walk layers derive from
//! counter-based `(seed, node, absolute-layer)` RNG streams, so a shard's
//! layers are bitwise the monolith's layers; seed maintenance runs a
//! [`DeltaGainEngine`](rwd_core::greedy::delta::DeltaGainEngine) over the
//! shard tiling that merges staged integer gain deltas in absolute layer
//! order, so every pick, gain, and objective is bit-identical to the
//! 1-shard engine on the same trace.

use std::sync::Arc;
use std::time::Instant;

use rwd_core::greedy::approx::GainRule;
use rwd_graph::weighted::WeightedCsrGraph;
use rwd_graph::{CsrGraph, NodeId};
use rwd_walks::{LayerRange, NodeSet, PostingDelta, RefreshStats, WalkIndex};

use crate::batch::EdgeBatch;
use crate::durable::Durable;
use crate::maintain::{MaintainReport, SeedMaintainer};
use crate::{Result, StreamError};

/// Configuration of a [`StreamEngine`].
#[derive(Clone, Copy, Debug)]
pub struct StreamConfig {
    /// Walk-length bound `L`.
    pub l: u32,
    /// Walks per node `R`.
    pub r: usize,
    /// Seed-set budget `k`.
    pub k: usize,
    /// Walk RNG seed (the counter-based streams that make maintenance
    /// exact all derive from it).
    pub seed: u64,
    /// Gain rule the maintained seed set optimizes.
    pub rule: GainRule,
    /// Worker threads (`0` = all cores). Changing this never changes any
    /// result, only wall time.
    pub threads: usize,
}

impl Default for StreamConfig {
    fn default() -> Self {
        // The paper's real-data defaults (L = 6, R = 100, k = 10).
        StreamConfig {
            l: 6,
            r: 100,
            k: 10,
            seed: 0,
            rule: GainRule::HittingTime,
            threads: 0,
        }
    }
}

/// Per-batch churn report — the observability surface of the subsystem.
#[derive(Clone, Debug)]
pub struct BatchReport {
    /// Epoch number after this batch (epoch 0 is the cold start).
    pub epoch: u64,
    /// The batch's event timestamp, echoed back.
    pub timestamp: u64,
    /// Edge insertions applied.
    pub insertions: usize,
    /// Edge deletions applied.
    pub deletions: usize,
    /// Edges in the post-batch graph.
    pub edges: usize,
    /// Nodes whose adjacency changed.
    pub touched_nodes: usize,
    /// Index-maintenance accounting summed across shards (groups
    /// resampled, postings rewritten, over the whole `n · R`-group index).
    pub refresh: RefreshStats,
    /// Seed-maintenance accounting (swaps, kept prefix, objective, warm
    /// path).
    pub maintain: MaintainReport,
    /// Wall time of the seed-maintenance pass — the refresh half of the
    /// batch is timed per shard in [`BatchReport::shards`]; together the
    /// two tell where a batch's latency went (0 for no-op batches).
    pub maintain_ms: f64,
    /// Per-shard breakdown of the refresh, in layer order (one row per
    /// shard; empty for short-circuited no-op batches).
    pub shards: Vec<ShardBatchStats>,
}

impl BatchReport {
    /// Fraction of walk groups the batch forced to resample.
    pub fn resampled_fraction(&self) -> f64 {
        if self.refresh.groups_total == 0 {
            0.0
        } else {
            self.refresh.groups_resampled as f64 / self.refresh.groups_total as f64
        }
    }

    /// First greedy round this batch invalidated (`None` when the whole
    /// seed prefix survived) — the maintain-side stability signal.
    pub fn first_invalid_round(&self) -> Option<usize> {
        self.maintain.first_invalid_round
    }

    /// Total refresh wall time summed across shards (each shard row also
    /// carries its own `refresh_ms`).
    pub fn refresh_ms(&self) -> f64 {
        self.shards.iter().map(|s| s.refresh_ms).sum()
    }
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
    /// Wall time of the shard's commit: the index refresh and — when a
    /// snapshot pins the epoch — the shallow index clone before it (layer
    /// pointers plus the two per-node aggregate columns).
    pub refresh_ms: f64,
}

/// The graph of one epoch, unweighted or weighted — the only place the
/// engine records which kind of walk it runs. Both arms are [`Arc`]'d:
/// batch application is functional (it builds the next graph and swaps it
/// in), so a holder of a previous epoch's handle keeps an untouched graph
/// for as long as it likes, and cloning is O(1).
#[derive(Clone, Debug)]
pub enum EpochGraph {
    /// Uniform-step walks over a [`CsrGraph`].
    Unweighted(Arc<CsrGraph>),
    /// Weight-proportional walks over a [`WeightedCsrGraph`].
    Weighted(Arc<WeightedCsrGraph>),
}

impl EpochGraph {
    /// Number of nodes.
    pub fn n(&self) -> usize {
        match self {
            EpochGraph::Unweighted(g) => g.n(),
            EpochGraph::Weighted(g) => g.n(),
        }
    }

    /// Number of edges.
    pub fn m(&self) -> usize {
        match self {
            EpochGraph::Unweighted(g) => g.m(),
            EpochGraph::Weighted(g) => g.m(),
        }
    }

    /// Phase 1: applies the batch functionally, returning the next epoch's
    /// graph and the touched nodes. `self` is left as-is either way.
    fn stage(&self, batch: &EdgeBatch) -> Result<(EpochGraph, NodeSet)> {
        Ok(match self {
            EpochGraph::Unweighted(g) => {
                let delta = batch.apply(g)?;
                (EpochGraph::Unweighted(Arc::new(delta.graph)), delta.touched)
            }
            EpochGraph::Weighted(g) => {
                let delta = batch.apply_weighted(g)?;
                (EpochGraph::Weighted(Arc::new(delta.graph)), delta.touched)
            }
        })
    }

    /// Builds the layers of `range` over this graph.
    fn build_layer_range(&self, cfg: &StreamConfig, range: LayerRange) -> WalkIndex {
        match self {
            EpochGraph::Unweighted(g) => {
                WalkIndex::build_layer_range(&**g, cfg.l, range, cfg.seed, cfg.threads)
            }
            EpochGraph::Weighted(g) => {
                WalkIndex::build_layer_range(&**g, cfg.l, range, cfg.seed, cfg.threads)
            }
        }
    }

    /// Refreshes `idx` onto this graph (see [`WalkIndex::refresh`]).
    fn refresh(
        &self,
        idx: &mut WalkIndex,
        touched: &NodeSet,
        threads: usize,
    ) -> (RefreshStats, PostingDelta) {
        match self {
            EpochGraph::Unweighted(g) => idx.refresh(&**g, touched, threads),
            EpochGraph::Weighted(g) => idx.refresh(&**g, touched, threads),
        }
    }
}

/// Validates the engine configuration against the graph size and the
/// shard count against the layer count. Every constructor path — cold
/// start and snapshot load — runs it before building or loading indexes.
pub(crate) fn validate(cfg: &StreamConfig, n: usize, shards: usize) -> Result<()> {
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
    if let GainRule::Combined { lambda } = cfg.rule {
        if !(0.0..=1.0).contains(&lambda) {
            return Err(StreamError::InvalidConfig(format!(
                "lambda = {lambda} outside [0, 1]"
            )));
        }
    }
    // Named error instead of the panic `LayerRange::partition` would raise
    // for 0 shards or more shards than layers (an empty shard).
    if shards == 0 || shards > cfg.r {
        return Err(StreamError::InvalidShardCount {
            shards,
            layers: cfg.r,
        });
    }
    Ok(())
}

/// The evolving random-walk domination system: applies [`EdgeBatch`]es to
/// the graph, maintains the walk index incrementally, and repairs the seed
/// set — reporting what each batch actually cost.
///
/// [`StreamEngine::new`] runs one shard (the whole index);
/// [`StreamEngine::with_shards`] tiles the `R` walk layers across `N`
/// partial indexes over the same graph epoch (see the module docs for the
/// two-phase batch protocol). The shard count is **never observable in
/// any result** — only in wall time and in the per-shard rows of
/// [`BatchReport::shards`].
///
/// [`StreamEngine::create_durable`] and [`StreamEngine::open_durable_with`]
/// make the engine durable: it then journals and snapshots itself (see
/// [`crate::durable`]) and answers exactly as in memory.
///
/// Invariant (asserted by the equivalence suites): after any sequence of
/// batches, the maintained index (concatenated across shards) is
/// bit-identical to a cold `WalkIndex::build` on the current graph, and
/// `engine.seeds()` equals the static `Strategy::Delta` selection on that
/// index — the evolving system never drifts from what a from-scratch run
/// would compute.
///
/// Every shard index lives behind an [`Arc`] so the serving layer can pin
/// an epoch at zero cost ([`StreamEngine::shard_indexes_shared`]): the next
/// commit mutates a shard in place when nothing else holds it (the steady
/// state) or clones it first when something does (`Arc::make_mut`). The
/// clone is shallow — the walk layers are themselves shared `Arc`s — and
/// the refresh replaces each layer it patches with a fresh one, so a
/// pinned reader never observes a mid-refresh index.
#[derive(Debug)]
pub struct StreamEngine {
    cfg: StreamConfig,
    graph: EpochGraph,
    /// Partial indexes in layer order, tiling `[0, R)`.
    shards: Vec<Arc<WalkIndex>>,
    maintainer: SeedMaintainer,
    epoch: u64,
    /// Churn accumulated over every applied batch, summed across shards.
    lifetime: RefreshStats,
    /// The data directory the engine journals into and snapshots under
    /// (`None` in memory); see [`crate::durable`].
    pub(crate) durable: Option<Durable>,
}

impl StreamEngine {
    /// Cold-starts the system on an unweighted graph: builds the epoch-0
    /// index and bootstraps the seed set. Single-shard.
    pub fn new(graph: CsrGraph, cfg: StreamConfig) -> Result<Self> {
        Self::with_shards(graph, cfg, 1)
    }

    /// Cold-starts a sharded engine: the `R` walk layers are tiled into
    /// `shards` balanced contiguous ranges, one partial index each, then a
    /// bootstrap seed selection runs over the tiling. Every result (seeds,
    /// gains, objectives, index bits) is identical to the 1-shard engine;
    /// only wall time and the per-shard report rows differ. Rejects
    /// `shards == 0` and `shards > cfg.r` with
    /// [`StreamError::InvalidShardCount`].
    pub fn with_shards(graph: CsrGraph, cfg: StreamConfig, shards: usize) -> Result<Self> {
        Self::cold_start(EpochGraph::Unweighted(Arc::new(graph)), cfg, shards)
    }

    /// Weighted twin of [`StreamEngine::with_shards`].
    pub fn with_shards_weighted(
        graph: WeightedCsrGraph,
        cfg: StreamConfig,
        shards: usize,
    ) -> Result<Self> {
        Self::cold_start(EpochGraph::Weighted(Arc::new(graph)), cfg, shards)
    }

    fn cold_start(graph: EpochGraph, cfg: StreamConfig, shard_count: usize) -> Result<Self> {
        validate(&cfg, graph.n(), shard_count)?;
        let shards = LayerRange::partition(cfg.r, shard_count)
            .into_iter()
            .map(|range| Arc::new(graph.build_layer_range(&cfg, range)))
            .collect();
        Ok(Self::from_parts(cfg, graph, shards, 0))
    }

    /// Assembles an engine at `epoch` from a graph and the shard indexes
    /// over it (already [`validate`]d, tiling `[0, R)` in order), and
    /// bootstraps the seed set over the tiling. The cold start and the
    /// snapshot load both end here; a loaded engine's cold bootstrap is
    /// bit-identical to the warm state the live engine carried, because
    /// warm ≡ cold is the maintainer's proptested invariant.
    pub(crate) fn from_parts(
        cfg: StreamConfig,
        graph: EpochGraph,
        shards: Vec<Arc<WalkIndex>>,
        epoch: u64,
    ) -> Self {
        let mut maintainer = SeedMaintainer::new(cfg.rule, cfg.k, cfg.threads);
        let refs: Vec<&WalkIndex> = shards.iter().map(|s| &**s).collect();
        maintainer.maintain(&refs, None);
        StreamEngine {
            cfg,
            graph,
            shards,
            maintainer,
            epoch,
            lifetime: RefreshStats::default(),
            durable: None,
        }
    }

    /// Applies one churn batch end to end: graph edit → incremental index
    /// refresh on every shard → seed repair. On a batch validation error
    /// the engine state is unchanged (phase 1 stages the edit functionally
    /// before anything commits), and readers never observe a
    /// partially-landed batch: the epoch stamp moves only after the last
    /// shard has committed.
    ///
    /// **Durability.** A durable engine journals the canonical batch,
    /// fsync'd, after phase 1 and before phase 2 (the write-ahead point),
    /// so a failed append changes nothing. After the commit it snapshots at
    /// the configured cadence; a failed periodic snapshot is counted in
    /// `rwd_durable_snapshot_failures_total` and retried at the next batch,
    /// never returned: the journal already holds the batch, and an error
    /// would tell a client to resend edits that landed.
    ///
    /// **No-op batches.** A batch with no edits short-circuits: nothing is
    /// refreshed or journaled, no greedy round is replayed, and —
    /// deliberately — the epoch does **not** advance. The epoch stamps
    /// *state*, not batch arrivals: readers cache per-epoch answers, so
    /// identical state must keep an identical stamp. The returned report
    /// carries the current epoch with all churn counters at zero and no
    /// per-shard rows.
    pub fn apply(&mut self, batch: &EdgeBatch) -> Result<BatchReport> {
        if batch.is_empty() {
            return Ok(BatchReport {
                epoch: self.epoch,
                timestamp: batch.timestamp,
                insertions: 0,
                deletions: 0,
                edges: self.graph.m(),
                touched_nodes: 0,
                refresh: RefreshStats {
                    groups_total: self.graph.n() * self.cfg.r,
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
        // Phase 1 — stage the batch once, into the next graph epoch.
        let stage_start = Instant::now();
        let (next, touched) = self.graph.stage(batch)?;
        metrics.stage_ns.record_duration(stage_start.elapsed());
        // Write-ahead point: the batch is valid and the epoch it will
        // publish is known; journal it before any state changes so a crash
        // either loses the whole batch or none of it.
        if let Some(durable) = &mut self.durable {
            let journal_timer = metrics.journal_ns.time();
            durable.append(batch, self.epoch + 1, &self.graph)?;
            journal_timer.stop();
        }
        // Phase 2 — every shard refreshes against the staged epoch,
        // gathering per-shard stats and posting edit scripts (absolute
        // layers, so the maintainer consumes them without translation).
        let mut shard_stats = Vec::with_capacity(self.shards.len());
        let mut edits = Vec::with_capacity(self.shards.len());
        for (shard, idx) in self.shards.iter_mut().enumerate() {
            let start = Instant::now();
            let (refresh, delta) = next.refresh(Arc::make_mut(idx), &touched, self.cfg.threads);
            let refresh_ms = start.elapsed().as_secs_f64() * 1e3;
            metrics.refresh_ns.record((refresh_ms * 1e6) as u64);
            shard_stats.push(ShardBatchStats {
                shard,
                layers: idx.layer_range(),
                refresh,
                refresh_ms,
            });
            edits.push(delta);
        }
        self.graph = next;
        // Every counter adds across shards, including `groups_total` (the
        // per-shard totals `n · |range|` tile `n · R` exactly).
        let refresh = shard_stats
            .iter()
            .fold(RefreshStats::default(), |mut acc, s| {
                acc.groups_resampled += s.refresh.groups_resampled;
                acc.groups_total += s.refresh.groups_total;
                acc.postings_removed += s.refresh.postings_removed;
                acc.postings_added += s.refresh.postings_added;
                acc
            });
        self.lifetime.merge(&refresh);
        let refs: Vec<&WalkIndex> = self.shards.iter().map(|s| &**s).collect();
        let maintain_start = Instant::now();
        let maintain = self.maintainer.maintain(&refs, Some(&edits));
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
            edges: self.graph.m(),
            touched_nodes: touched.len(),
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
        self.snapshot_on_cadence();
        Ok(report)
    }

    /// The maintained seed set in selection order.
    pub fn seeds(&self) -> &[NodeId] {
        self.maintainer.seeds()
    }

    /// Marginal gain of each maintained seed at its selection round.
    pub fn gain_trace(&self) -> &[f64] {
        self.maintainer.gain_trace()
    }

    /// Estimated objective of the maintained seed set (the gain-trace sum
    /// every [`BatchReport`] also carries).
    pub fn objective(&self) -> f64 {
        self.maintainer.objective()
    }

    /// Number of shards the engine runs (1 for [`StreamEngine::new`]).
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// The contiguous layer ranges of the shard tiling, in order.
    pub fn shard_ranges(&self) -> Vec<LayerRange> {
        self.shards.iter().map(|s| s.layer_range()).collect()
    }

    /// Borrowed handles to every shard's partial index, in layer order —
    /// the tiling [`SeedMaintainer::maintain`] consumes.
    pub fn shard_indexes(&self) -> Vec<&WalkIndex> {
        self.shards.iter().map(|s| &**s).collect()
    }

    /// Shared handles to every shard's current-epoch partial index;
    /// holding them pins the epoch on every shard. The scatter half of the
    /// serving layer's scatter-gather queries.
    pub fn shard_indexes_shared(&self) -> Vec<Arc<WalkIndex>> {
        self.shards.clone()
    }

    /// The current unweighted graph (`None` when running weighted).
    pub fn graph(&self) -> Option<&CsrGraph> {
        match &self.graph {
            EpochGraph::Unweighted(g) => Some(g),
            EpochGraph::Weighted(_) => None,
        }
    }

    /// The current weighted graph (`None` when running unweighted).
    pub fn weighted_graph(&self) -> Option<&WeightedCsrGraph> {
        match &self.graph {
            EpochGraph::Unweighted(_) => None,
            EpochGraph::Weighted(g) => Some(g),
        }
    }

    /// Shared handle to the current graph epoch. Graph epochs are
    /// immutable once published, so the handle stays valid across later
    /// batches; together with [`StreamEngine::shard_indexes_shared`] this
    /// is the snapshot publication surface the serving layer builds on.
    pub fn graph_shared(&self) -> EpochGraph {
        self.graph.clone()
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
        self.lifetime
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rwd_core::algo::select_from_index;
    use rwd_core::Strategy;
    use rwd_graph::generators::erdos_renyi_gnp;

    fn cfg(k: usize) -> StreamConfig {
        StreamConfig {
            l: 5,
            r: 6,
            k,
            seed: 13,
            rule: GainRule::HittingTime,
            threads: 0,
        }
    }

    #[test]
    fn engine_never_drifts_from_cold_start() {
        let g0 = erdos_renyi_gnp(90, 0.06, 21).unwrap();
        let mut engine = StreamEngine::new(g0.clone(), cfg(5)).unwrap();

        let mut batch = EdgeBatch::new(100);
        'outer: for u in 0..90u32 {
            for v in (u + 1)..90 {
                if !g0.has_edge(NodeId(u), NodeId(v)) {
                    batch.insertions.push((u, v, 1.0));
                    if batch.insertions.len() == 2 {
                        break 'outer;
                    }
                }
            }
        }
        let report = engine.apply(&batch).unwrap();
        assert_eq!(report.epoch, 1);
        assert_eq!(report.timestamp, 100);
        assert!(report.touched_nodes >= 2);
        assert!(report.refresh.groups_resampled > 0);
        assert!(report.resampled_fraction() > 0.0);
        assert_eq!(report.shards.len(), 1, "1-shard engine, one report row");

        // Cold-start comparison on the evolved graph.
        let g1 = engine.graph().unwrap().clone();
        let fresh = WalkIndex::build(&g1, 5, 6, 13);
        assert!(
            *engine.shard_indexes()[0] == fresh,
            "index drifted from cold start"
        );
        let sel = select_from_index(&fresh, GainRule::HittingTime, 5, Strategy::Delta, 0).unwrap();
        assert_eq!(engine.seeds(), &sel.nodes[..], "seeds drifted");
    }

    #[test]
    fn weighted_engine_round_trips() {
        let g0 = erdos_renyi_gnp(60, 0.08, 4).unwrap();
        let w0 = rwd_graph::weighted::weighted_twin(&g0, 7).unwrap();
        let mut engine = StreamEngine::with_shards_weighted(w0.clone(), cfg(4), 1).unwrap();
        assert!(engine.graph().is_none());
        let del = g0.edges().next().map(|(u, v)| (u.raw(), v.raw())).unwrap();
        let mut batch = EdgeBatch::new(7);
        batch.deletions.push(del);
        batch.insertions.push((del.0, del.1, 2.5)); // weight update
        let report = engine.apply(&batch).unwrap();
        assert_eq!(report.touched_nodes, 2);
        let w1 = engine.weighted_graph().unwrap().clone();
        let fresh = WalkIndex::build(&w1, 5, 6, 13);
        assert!(*engine.shard_indexes()[0] == fresh);
    }

    #[test]
    fn empty_batch_is_a_true_noop() {
        // Regression: an empty batch used to pay the full pipeline — a
        // zero-touched refresh plus a complete k-round maintain replay —
        // and still bumped the epoch. It must now short-circuit: same
        // epoch, untouched index and seeds, all-zero churn counters, and
        // the objective echoed from the last real pass.
        let g0 = erdos_renyi_gnp(60, 0.08, 9).unwrap();
        let mut engine = StreamEngine::new(g0, cfg(4)).unwrap();
        let seeds = engine.seeds().to_vec();
        let objective = engine.objective();
        let index_before = engine.shard_indexes()[0].clone();

        let report = engine.apply(&EdgeBatch::new(77)).unwrap();
        assert_eq!(engine.epoch(), 0, "no-op batch must not bump the epoch");
        assert_eq!(report.epoch, 0);
        assert_eq!(report.timestamp, 77);
        assert_eq!((report.insertions, report.deletions), (0, 0));
        assert_eq!(report.touched_nodes, 0);
        assert_eq!(report.refresh.groups_resampled, 0);
        assert_eq!(report.refresh.postings_rewritten(), 0);
        assert_eq!(report.refresh.groups_total, 60 * 6);
        assert!(report.shards.is_empty(), "no-op batch refreshes no shard");
        assert_eq!(report.maintain.seeds_swapped, 0);
        assert_eq!(report.maintain.rounds_kept, 4);
        assert_eq!(report.maintain.touched_postings, 0);
        assert_eq!(report.maintain.objective.to_bits(), objective.to_bits());
        assert_eq!(engine.seeds(), &seeds[..]);
        assert!(*engine.shard_indexes()[0] == index_before);
        assert_eq!(engine.lifetime_stats(), RefreshStats::default());

        // A later real batch then advances to epoch 1 as usual.
        let mut batch = EdgeBatch::new(78);
        let g = engine.graph().unwrap();
        let (u, v) = (0..60u32)
            .flat_map(|u| ((u + 1)..60).map(move |v| (u, v)))
            .find(|&(u, v)| !g.has_edge(NodeId(u), NodeId(v)))
            .unwrap();
        batch.insertions.push((u, v, 1.0));
        let report = engine.apply(&batch).unwrap();
        assert_eq!(report.epoch, 1);
    }

    #[test]
    fn shared_handles_pin_the_published_epoch() {
        let g0 = erdos_renyi_gnp(50, 0.1, 3).unwrap();
        let mut engine = StreamEngine::new(g0, cfg(3)).unwrap();
        let idx0 = engine.shard_indexes_shared().remove(0);
        let EpochGraph::Unweighted(g0_shared) = engine.graph_shared() else {
            panic!("engine runs unweighted");
        };
        let before = (*idx0).clone();

        let mut batch = EdgeBatch::new(1);
        let (u, v) = (0..50u32)
            .flat_map(|u| ((u + 1)..50).map(move |v| (u, v)))
            .find(|&(u, v)| !g0_shared.has_edge(NodeId(u), NodeId(v)))
            .unwrap();
        batch.insertions.push((u, v, 1.0));
        engine.apply(&batch).unwrap();

        // The pinned epoch is untouched; the engine moved on.
        assert!(*idx0 == before);
        assert!(!g0_shared.has_edge(NodeId(u), NodeId(v)));
        assert!(engine.graph().unwrap().has_edge(NodeId(u), NodeId(v)));
        assert!(*engine.shard_indexes()[0] != *idx0);
    }

    #[test]
    fn failed_batch_leaves_state_unchanged() {
        let g0 = erdos_renyi_gnp(40, 0.1, 2).unwrap();
        let mut engine = StreamEngine::new(g0, cfg(3)).unwrap();
        let seeds = engine.seeds().to_vec();
        let mut bad = EdgeBatch::new(1);
        bad.deletions.push((0, 0)); // self-loop: rejected
        assert!(engine.apply(&bad).is_err());
        assert_eq!(engine.epoch(), 0);
        assert_eq!(engine.seeds(), &seeds[..]);
    }

    #[test]
    fn invalid_config_rejected() {
        let g = erdos_renyi_gnp(10, 0.3, 1).unwrap();
        assert!(StreamEngine::new(g.clone(), cfg(0)).is_err());
        assert!(StreamEngine::new(g.clone(), cfg(11)).is_err());
        let mut c = cfg(2);
        c.r = 0;
        assert!(StreamEngine::new(g.clone(), c).is_err());
        let mut c = cfg(2);
        c.rule = GainRule::Combined { lambda: 2.0 };
        assert!(StreamEngine::new(g, c).is_err());
    }

    #[test]
    fn sharded_engine_tracks_the_monolith_bitwise() {
        let g0 = erdos_renyi_gnp(70, 0.08, 31).unwrap();
        let mut mono = StreamEngine::new(g0.clone(), cfg(4)).unwrap();
        let mut sharded = StreamEngine::with_shards(g0.clone(), cfg(4), 3).unwrap();
        assert_eq!(sharded.shard_count(), 3);
        assert_eq!(
            sharded
                .shard_ranges()
                .iter()
                .map(|rg| rg.len())
                .sum::<usize>(),
            6
        );
        assert_eq!(sharded.seeds(), mono.seeds());

        let mut batch = EdgeBatch::new(1);
        let (u, v) = (0..70u32)
            .flat_map(|u| ((u + 1)..70).map(move |v| (u, v)))
            .find(|&(u, v)| !g0.has_edge(NodeId(u), NodeId(v)))
            .unwrap();
        batch.insertions.push((u, v, 1.0));
        let rm = mono.apply(&batch).unwrap();
        let rs = sharded.apply(&batch).unwrap();
        assert_eq!(rs.epoch, rm.epoch);
        assert_eq!(rs.refresh, rm.refresh, "merged refresh must match");
        assert_eq!(rs.maintain, rm.maintain);
        assert_eq!(rs.shards.len(), 3);
        assert_eq!(sharded.seeds(), mono.seeds());
        let bits = |t: &[f64]| t.iter().map(|g| g.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(sharded.gain_trace()), bits(mono.gain_trace()));

        // Each shard's post-churn index is the monolith's slice, bitwise.
        let full = mono.shard_indexes()[0];
        for (idx, rg) in sharded.shard_indexes().iter().zip(sharded.shard_ranges()) {
            let slice = WalkIndex::build_layer_range(mono.graph().unwrap(), 5, rg, 13, 0);
            assert!(**idx == slice, "shard {rg:?} drifted from the monolith");
        }
        assert_eq!(full.n(), 70);
    }

    #[test]
    fn shard_count_errors_are_named() {
        let g = erdos_renyi_gnp(20, 0.2, 1).unwrap();
        let err = StreamEngine::with_shards(g.clone(), cfg(3), 0).unwrap_err();
        assert!(matches!(
            err,
            StreamError::InvalidShardCount {
                shards: 0,
                layers: 6
            }
        ));
        let err = StreamEngine::with_shards(g, cfg(3), 9).unwrap_err();
        assert!(err.to_string().contains("9 shards"), "{err}");
    }

    #[test]
    fn shard_count_is_validated_by_name() {
        let g = erdos_renyi_gnp(40, 0.1, 2).unwrap();
        let err = StreamEngine::with_shards(g.clone(), cfg(4), 0).unwrap_err();
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
        // One shard per layer is the finest tiling; one more is rejected.
        let err = StreamEngine::with_shards(g.clone(), cfg(4), 7).unwrap_err();
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
        assert!(StreamEngine::with_shards(g, cfg(4), 6).is_ok());
    }

    #[test]
    fn failed_batch_leaves_every_shard_unchanged() {
        let g = erdos_renyi_gnp(40, 0.1, 2).unwrap();
        let mut engine = StreamEngine::with_shards(g, cfg(4), 3).unwrap();
        let seeds = engine.seeds().to_vec();
        let before: Vec<WalkIndex> = engine.shard_indexes().into_iter().cloned().collect();
        let mut bad = EdgeBatch::new(1);
        bad.insertions.push((0, 1, 1.0));
        bad.deletions.push((0, 0)); // self-loop: rejected in phase 1
        assert!(engine.apply(&bad).is_err());
        assert_eq!(engine.epoch(), 0, "failed batch must not advance the epoch");
        assert_eq!(engine.seeds(), &seeds[..]);
        for (idx, want) in engine.shard_indexes().into_iter().zip(&before) {
            assert!(*idx == *want, "shard index changed by a rejected batch");
        }
    }

    #[test]
    fn per_shard_rows_tile_the_merged_report() {
        let g = erdos_renyi_gnp(60, 0.08, 9).unwrap();
        let mut engine = StreamEngine::with_shards(g.clone(), cfg(4), 4).unwrap();
        let mut batch = EdgeBatch::new(5);
        let (u, v) = (0..60u32)
            .flat_map(|u| ((u + 1)..60).map(move |v| (u, v)))
            .find(|&(u, v)| !g.has_edge(NodeId(u), NodeId(v)))
            .unwrap();
        batch.insertions.push((u, v, 1.0));
        let report = engine.apply(&batch).unwrap();
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
        let lifetime = engine.lifetime_stats();
        assert_eq!(lifetime.groups_resampled, summed);
        assert_eq!(lifetime.groups_total, 60 * 6);
    }
}
