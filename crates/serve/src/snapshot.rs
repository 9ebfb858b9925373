//! Epoch-stamped, cheaply-cloneable views of one engine state.

use std::sync::Arc;

use rwd_graph::NodeId;
use rwd_stream::StreamEngine;
use rwd_walks::{top_m_from_counts, NodeSet, PartialContribution, WalkIndex};

/// The graph of one epoch, shared with the engine that published it.
pub use rwd_stream::EpochGraph as SnapshotGraph;

/// One coherent engine state: graph, walk index (one partial index per
/// shard), seed set and objective, all from the same epoch, all behind
/// `Arc`s.
///
/// Cloning is O(1) (a handful of reference-count bumps); holding any clone
/// **pins** the epoch — the writer publishes later epochs as *new*
/// snapshots and copy-on-writes each shard's index instead of mutating
/// pinned state, so a reader that interleaves queries with concurrent churn
/// still sees one frozen world. Because the coordinator advances the epoch
/// only after **every** shard has committed a batch (all-or-nothing
/// publish), the per-shard handles captured here always describe the same
/// epoch.
///
/// Point queries **scatter** to the shards — each returns its exact integer
/// contribution over its layer range ([`PartialContribution`], per-node
/// covered-layer counts) — and the snapshot **gathers** them with integer
/// addition before the single final division by `R`. Per-layer
/// contributions are small integers (exactly representable in `f64`), so
/// the merged answers are bit-identical to the monolithic point queries,
/// which are themselves bit-identical to the full-sweep
/// `estimate_hit_times` / `estimate_hit_probs` on this epoch's index (the
/// contract `rwd_walks::point` pins with property tests).
#[derive(Clone, Debug)]
pub struct Snapshot {
    epoch: u64,
    graph: SnapshotGraph,
    /// Per-shard partial indexes in layer order (length 1 for the
    /// single-shard engine — the historical monolith).
    shards: Vec<Arc<WalkIndex>>,
    /// Total walk layers `R` across all shards — the one divisor every
    /// gathered query applies.
    r_total: usize,
    seeds: Arc<Vec<NodeId>>,
    seed_set: Arc<NodeSet>,
    objective: f64,
}

impl Snapshot {
    /// Captures the engine's current state. (The server's writer publishes
    /// one per batch; cheap relative to a batch, O(k + n/64 + shards) for
    /// the seed bitset and the per-shard handles.)
    pub fn capture(engine: &StreamEngine) -> Snapshot {
        let shards = engine.shard_indexes_shared();
        let n = shards[0].n();
        let seeds: Vec<NodeId> = engine.seeds().to_vec();
        let seed_set = NodeSet::from_nodes(n, seeds.iter().copied());
        Snapshot {
            epoch: engine.epoch(),
            graph: engine.graph_shared(),
            shards,
            r_total: engine.config().r,
            seeds: Arc::new(seeds),
            seed_set: Arc::new(seed_set),
            objective: engine.objective(),
        }
    }

    /// The epoch this snapshot observes (0 = cold start; +1 per non-empty
    /// batch — no-op batches do not advance it).
    #[inline]
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// The epoch's graph.
    pub fn graph(&self) -> &SnapshotGraph {
        &self.graph
    }

    /// The per-shard partial indexes, in layer order (length 1 on a
    /// single-shard engine).
    pub fn shards(&self) -> &[Arc<WalkIndex>] {
        &self.shards
    }

    /// Number of shards this snapshot gathers over.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// Total walk layers `R` across all shards.
    pub fn r(&self) -> usize {
        self.r_total
    }

    /// The maintained seed set, in selection order.
    pub fn seeds(&self) -> &[NodeId] {
        &self.seeds
    }

    /// The maintained seed set as a membership bitset.
    pub fn seed_set(&self) -> &NodeSet {
        &self.seed_set
    }

    /// Estimated objective `F̂` of the maintained seed set (the greedy
    /// gain-trace sum; auditable via
    /// `rwd_core::algo::objective_from_index`).
    #[inline]
    pub fn objective(&self) -> f64 {
        self.objective
    }

    /// Number of nodes.
    pub fn n(&self) -> usize {
        self.graph.n()
    }

    /// Number of edges at this epoch.
    pub fn m(&self) -> usize {
        self.graph.m()
    }

    /// Gathers the integer point contributions for `v` across every shard.
    fn contribution(&self, v: NodeId, set: &NodeSet) -> PartialContribution {
        let mut c = PartialContribution::default();
        for shard in &self.shards {
            c.merge(&shard.point_contribution(v, set));
        }
        c
    }

    /// Gathers per-node covered-layer counts across every shard (integer
    /// elementwise sums — each layer contributes the same count the
    /// monolith would).
    fn merged_counts(&self, set: &NodeSet) -> Vec<u32> {
        let mut iter = self.shards.iter();
        let first = iter.next().expect("a snapshot always has >= 1 shard");
        let mut cnt = first.covered_layer_counts(set);
        for shard in iter {
            for (acc, c) in cnt.iter_mut().zip(shard.covered_layer_counts(set)) {
                *acc += c;
            }
        }
        cnt
    }

    /// Estimated `L`-truncated hitting time of `v` into the maintained seed
    /// set — `estimate_hit_times(seeds)[v]` bit for bit, in
    /// `O(Σ_i |forward(i, v)|)`: per-shard integer hop sums, one final
    /// division by `R`. (A seed contributes hop 0 on every layer, so the
    /// gathered sum divides to exactly `0.0`, matching the monolith's
    /// member short-circuit.)
    pub fn hit_time(&self, v: NodeId) -> f64 {
        let c = self.contribution(v, &self.seed_set);
        c.hop_sum as f64 / self.r_total as f64
    }

    /// Estimated probability that `v`'s `L`-walk reaches the maintained
    /// seed set — `estimate_hit_probs(seeds)[v]` bit for bit (gathered hit
    /// counts over `R`; a member hits on all `R` layers, dividing to
    /// exactly `1.0`).
    pub fn hit_prob(&self, v: NodeId) -> f64 {
        let c = self.contribution(v, &self.seed_set);
        c.hits as f64 / self.r_total as f64
    }

    /// Expected number of nodes the maintained seed set dominates
    /// (`F̂2(seeds)`), streamed from the seeds' inverted lists only —
    /// per-shard integer counts, summed, one division.
    pub fn coverage(&self) -> f64 {
        let cnt = self.merged_counts(&self.seed_set);
        let total: u64 = cnt.iter().map(|&c| c as u64).sum();
        total as f64 / self.r_total as f64
    }

    /// Expected number of nodes an **arbitrary** set dominates at this
    /// epoch.
    ///
    /// # Panics
    /// Panics if `set` was built over a different node universe.
    pub fn coverage_of(&self, set: &NodeSet) -> f64 {
        let cnt = self.merged_counts(set);
        let total: u64 = cnt.iter().map(|&c| c as u64).sum();
        total as f64 / self.r_total as f64
    }

    /// The `m` nodes least covered by the maintained seed set (lowest hit
    /// probability first, ties toward the smaller id), each with its
    /// sweep-identical probability — the selection runs once over the
    /// gathered counts.
    pub fn top_m_uncovered(&self, m: usize) -> Vec<(NodeId, f64)> {
        let cnt = self.merged_counts(&self.seed_set);
        top_m_from_counts(&cnt, self.r_total, m)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rwd_core::greedy::approx::GainRule;
    use rwd_graph::generators::erdos_renyi_gnp;
    use rwd_graph::CsrGraph;
    use rwd_stream::{DurabilityConfig, EdgeBatch, OpenMode, StreamConfig, StreamError};

    fn cfg() -> StreamConfig {
        StreamConfig {
            l: 5,
            r: 6,
            k: 4,
            seed: 3,
            rule: GainRule::HittingTime,
            threads: 0,
        }
    }

    /// The configuration the publication tests run under (their static
    /// selection check needs the coverage rule).
    fn serve_cfg() -> StreamConfig {
        StreamConfig {
            l: 4,
            r: 5,
            k: 3,
            seed: 11,
            rule: GainRule::Coverage,
            threads: 0,
        }
    }

    fn absent_edge(g: &CsrGraph) -> (u32, u32) {
        let n = g.n() as u32;
        (0..n)
            .flat_map(|u| ((u + 1)..n).map(move |v| (u, v)))
            .find(|&(u, v)| !g.has_edge(NodeId(u), NodeId(v)))
            .expect("graph is not complete")
    }

    #[test]
    fn capture_reflects_engine_state_and_pins_it() {
        let g0 = erdos_renyi_gnp(80, 0.06, 17).unwrap();
        let mut engine = StreamEngine::new(g0.clone(), cfg()).unwrap();
        let snap = Snapshot::capture(&engine);
        assert_eq!(snap.epoch(), 0);
        assert_eq!(snap.n(), 80);
        assert_eq!(snap.m(), g0.m());
        assert_eq!(snap.shard_count(), 1);
        assert_eq!(snap.r(), 6);
        assert_eq!(snap.seeds(), engine.seeds());
        assert_eq!(snap.objective().to_bits(), engine.objective().to_bits());
        assert_eq!(snap.seed_set().len(), 4);

        // Full-sweep references on the pinned epoch.
        let ht = snap.shards()[0].estimate_hit_times(snap.seed_set());
        let hp = snap.shards()[0].estimate_hit_probs(snap.seed_set());

        // Churn the engine; the pinned snapshot must not move.
        let (u, v) = (0..80u32)
            .flat_map(|u| ((u + 1)..80).map(move |v| (u, v)))
            .find(|&(u, v)| !g0.has_edge(NodeId(u), NodeId(v)))
            .unwrap();
        let mut batch = EdgeBatch::new(1);
        batch.insertions.push((u, v, 1.0));
        engine.apply(&batch).unwrap();

        assert_eq!(snap.epoch(), 0);
        assert_eq!(snap.m(), g0.m(), "pinned graph gained an edge");
        for w in 0..80u32 {
            let w = NodeId(w);
            assert_eq!(snap.hit_time(w).to_bits(), ht[w.index()].to_bits());
            assert_eq!(snap.hit_prob(w).to_bits(), hp[w.index()].to_bits());
        }

        // A fresh capture observes the new epoch.
        let snap2 = Snapshot::capture(&engine);
        assert_eq!(snap2.epoch(), 1);
        assert_eq!(snap2.m(), g0.m() + 1);
    }

    #[test]
    fn weighted_capture_works() {
        let g0 = erdos_renyi_gnp(40, 0.12, 2).unwrap();
        let w0 = rwd_graph::weighted::weighted_twin(&g0, 5).unwrap();
        let engine = StreamEngine::with_shards_weighted(w0, cfg(), 1).unwrap();
        let snap = Snapshot::capture(&engine);
        assert!(matches!(snap.graph(), SnapshotGraph::Weighted(_)));
        assert_eq!(snap.n(), 40);
        // coverage_of on an arbitrary set agrees with the point query sum.
        let probe = NodeSet::from_nodes(40, [NodeId(1), NodeId(3)]);
        let total: f64 = (0..40)
            .map(|v| snap.shards()[0].point_hit_prob(NodeId(v), &probe))
            .sum();
        assert!((snap.coverage_of(&probe) - total).abs() < 1e-9);
    }

    #[test]
    fn sharded_snapshot_answers_bit_match_the_monolith() {
        let g0 = erdos_renyi_gnp(70, 0.08, 23).unwrap();
        let mut mono = StreamEngine::new(g0.clone(), cfg()).unwrap();
        let mut sharded = StreamEngine::with_shards(g0.clone(), cfg(), 4).unwrap();
        // Same trace through both engines.
        let (u, v) = (0..70u32)
            .flat_map(|u| ((u + 1)..70).map(move |v| (u, v)))
            .find(|&(u, v)| !g0.has_edge(NodeId(u), NodeId(v)))
            .unwrap();
        let mut batch = EdgeBatch::new(1);
        batch.insertions.push((u, v, 1.0));
        mono.apply(&batch).unwrap();
        sharded.apply(&batch).unwrap();

        let ms = Snapshot::capture(&mono);
        let ss = Snapshot::capture(&sharded);
        assert_eq!(ss.shard_count(), 4);
        assert_eq!(ss.epoch(), ms.epoch());
        assert_eq!(ss.seeds(), ms.seeds());
        assert_eq!(ss.objective().to_bits(), ms.objective().to_bits());
        for w in 0..70u32 {
            let w = NodeId(w);
            assert_eq!(ss.hit_time(w).to_bits(), ms.hit_time(w).to_bits());
            assert_eq!(ss.hit_prob(w).to_bits(), ms.hit_prob(w).to_bits());
        }
        assert_eq!(ss.coverage().to_bits(), ms.coverage().to_bits());
        assert_eq!(ss.top_m_uncovered(9), ms.top_m_uncovered(9));
        let probe = NodeSet::from_nodes(70, [NodeId(2), NodeId(5), NodeId(7)]);
        assert_eq!(
            ss.coverage_of(&probe).to_bits(),
            ms.coverage_of(&probe).to_bits()
        );
    }

    #[test]
    fn apply_publishes_after_the_batch_lands() {
        let g0 = erdos_renyi_gnp(60, 0.08, 21).unwrap();
        let mut engine = StreamEngine::new(g0.clone(), serve_cfg()).unwrap();
        let pinned = Snapshot::capture(&engine);
        assert_eq!(pinned.epoch(), 0);

        let (u, v) = absent_edge(&g0);
        let mut batch = EdgeBatch::new(5);
        batch.insertions.push((u, v, 1.0));
        let report = engine.apply(&batch).unwrap();
        assert_eq!(report.epoch, 1);
        assert_eq!(engine.epoch(), 1);
        assert_eq!(Snapshot::capture(&engine).epoch(), 1);
        // The pre-batch pin still observes epoch 0 in full.
        assert_eq!(pinned.epoch(), 0);
        assert_eq!(pinned.m(), g0.m());

        // A failed batch publishes nothing and changes nothing.
        let mut bad = EdgeBatch::new(6);
        bad.deletions.push((0, 0));
        assert!(engine.apply(&bad).is_err());
        assert_eq!(engine.epoch(), 1);
        assert_eq!(Snapshot::capture(&engine).epoch(), 1);

        // An empty batch keeps the same published epoch (engine no-op).
        let report = engine.apply(&EdgeBatch::new(7)).unwrap();
        assert_eq!(report.epoch, 1);
        assert_eq!(Snapshot::capture(&engine).epoch(), 1);
    }

    #[test]
    fn durable_backend_round_trips_through_recovery() {
        use std::sync::atomic::{AtomicU64, Ordering};
        static UNIQ: AtomicU64 = AtomicU64::new(0);
        let dir = std::env::temp_dir().join(format!(
            "rwd-serve-durable-{}-{}",
            std::process::id(),
            UNIQ.fetch_add(1, Ordering::Relaxed)
        ));

        let g0 = erdos_renyi_gnp(50, 0.1, 33).unwrap();
        let dcfg = DurabilityConfig { snapshot_every: 2 };
        let mut durable = StreamEngine::new(g0.clone(), serve_cfg())
            .unwrap()
            .create_durable(&dir, dcfg)
            .unwrap();
        let mut plain = StreamEngine::new(g0, serve_cfg()).unwrap();
        assert!(matches!(
            plain.snapshot_now(),
            Err(StreamError::InvalidConfig(_))
        ));

        // Drive both engines through the same churn; the durable one
        // additionally journals (and snapshots at cadence 2).
        for t in 0..3u64 {
            let (u, v) = absent_edge(durable.graph().unwrap());
            let mut batch = EdgeBatch::new(t);
            batch.insertions.push((u, v, 1.0));
            let a = durable.apply(&batch).unwrap();
            let b = plain.apply(&batch).unwrap();
            assert_eq!(a.epoch, b.epoch);
        }
        assert!(dir.join("snap-2/state.bin").exists());

        // Recover into a fresh engine: its snapshot must be bit-identical
        // to the live one it shadows.
        let live = Snapshot::capture(&durable);
        drop(durable);
        let (recovered, report) =
            StreamEngine::open_durable_with(&dir, dcfg, OpenMode::Mapped).unwrap();
        assert_eq!(report.recovered_epoch, 3);
        let snap = Snapshot::capture(&recovered);
        assert_eq!(snap.epoch(), live.epoch());
        assert_eq!(snap.seeds(), live.seeds());
        assert_eq!(snap.objective().to_bits(), live.objective().to_bits());
        for v in 0..50u32 {
            assert_eq!(
                snap.hit_time(NodeId(v)).to_bits(),
                live.hit_time(NodeId(v)).to_bits(),
                "hit_time diverged at node {v}"
            );
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn snapshots_match_static_selection_each_epoch() {
        use rwd_core::algo::select_from_index;
        use rwd_core::Strategy;

        let g0 = erdos_renyi_gnp(50, 0.1, 9).unwrap();
        let mut engine = StreamEngine::new(g0.clone(), serve_cfg()).unwrap();
        let mut g = g0;
        for t in 0..3u64 {
            let (u, v) = absent_edge(&g);
            let mut batch = EdgeBatch::new(t);
            batch.insertions.push((u, v, 1.0));
            engine.apply(&batch).unwrap();
            g = engine.graph().unwrap().clone();
            let snap = Snapshot::capture(&engine);
            let sel =
                select_from_index(&snap.shards()[0], GainRule::Coverage, 3, Strategy::Delta, 0)
                    .unwrap();
            assert_eq!(snap.seeds(), &sel.nodes[..], "epoch {}", snap.epoch());
            let sum: f64 = sel.gain_trace.iter().sum();
            assert_eq!(snap.objective().to_bits(), sum.to_bits());
        }
    }
}
