//! The serving writer: applies churn and publishes epoch snapshots.

use std::path::Path;

use rwd_stream::{
    BatchReport, DurabilityConfig, DurableEngine, EdgeBatch, OpenMode, RecoveryReport,
    StreamConfig, StreamEngine,
};

use crate::snapshot::Snapshot;
use crate::Result;

/// A [`StreamEngine`] with snapshot publication.
///
/// The contract readers rely on:
///
/// 1. [`ServeEngine::snapshot`] hands out the **currently published**
///    epoch; the handle stays coherent forever (pinning semantics — see
///    [`Snapshot`]).
/// 2. [`ServeEngine::apply`] runs the full batch pipeline (graph edit →
///    incremental index refresh → seed repair) and only *then* publishes
///    the next epoch. A failed batch publishes nothing. An empty batch is
///    the documented engine no-op: same epoch, same snapshot.
/// 3. Writers never mutate state a published snapshot can observe: the
///    graph epoch is swapped functionally and the index copy-on-writes
///    beneath outstanding pins. With **no** outstanding snapshot (direct
///    `ServeEngine` use between pins) the refresh mutates in place;
///    under a [`crate::Server`], the published snapshot itself is a
///    standing pin, so each batch first clones the index shallowly (the
///    walk layers are shared `Arc`s) and the refresh writes every layer
///    it patches as a new layer, leaving the pinned one to the snapshot.
#[derive(Debug)]
pub struct ServeEngine {
    backend: Backend,
    /// The published epoch. Re-captured after every effective batch; kept
    /// outside the backend so `snapshot()` is an O(1) clone, not a rebuild.
    /// `None` only transiently inside [`ServeEngine::apply`], where the
    /// engine's own handle must not count as a pin.
    current: Option<Snapshot>,
}

/// What the writer actually drives: a bare in-memory engine, or one wrapped
/// in a durability data directory (write-ahead journal + snapshots). The
/// serving contract is identical either way — a durable batch just fsyncs
/// its journal record before any shard commits.
#[derive(Debug)]
enum Backend {
    Plain(Box<StreamEngine>),
    Durable(Box<DurableEngine>),
}

impl Backend {
    fn stream(&self) -> &StreamEngine {
        match self {
            Backend::Plain(s) => s,
            Backend::Durable(d) => d.engine(),
        }
    }
}

impl ServeEngine {
    /// Wraps an already-running evolving engine (publishes its current
    /// state as-is).
    pub fn from_stream(stream: StreamEngine) -> Self {
        let current = Some(Snapshot::capture(&stream));
        ServeEngine {
            backend: Backend::Plain(Box::new(stream)),
            current,
        }
    }

    /// Wraps a durable engine (publishes its current state as-is). Every
    /// subsequent [`ServeEngine::apply`] journals the batch — fsync'd —
    /// before any shard commits, and snapshots at the durable engine's
    /// configured cadence.
    pub fn from_durable(durable: DurableEngine) -> Self {
        let current = Some(Snapshot::capture(durable.engine()));
        ServeEngine {
            backend: Backend::Durable(Box::new(durable)),
            current,
        }
    }

    /// Attaches a fresh data directory to `stream` and serves durably from
    /// it: the engine's current state becomes the base snapshot and a new
    /// journal opens at its epoch.
    pub fn create_durable(
        stream: StreamEngine,
        dir: impl AsRef<Path>,
        dcfg: DurabilityConfig,
    ) -> Result<Self> {
        Ok(Self::from_durable(DurableEngine::create(
            stream, dir, dcfg,
        )?))
    }

    /// Recovers the engine from a durability data directory (latest valid
    /// snapshot + journal replay, torn tail truncated) and serves from the
    /// recovered state — bit-identical to the engine that wrote the
    /// surviving prefix. Returns the recovery report alongside.
    ///
    /// `mode` picks where the shard columns live: [`OpenMode::Mapped`]
    /// serves point queries straight from `mmap`'d RWDIDX4 snapshot
    /// columns (published snapshots pin the mapping alongside the epoch —
    /// unchanged pinning semantics), [`OpenMode::Deserialize`] parses
    /// everything onto the heap first.
    pub fn open_durable_with(
        dir: impl AsRef<Path>,
        dcfg: DurabilityConfig,
        mode: OpenMode,
    ) -> Result<(Self, RecoveryReport)> {
        let (durable, report) = DurableEngine::open_with(dir, dcfg, mode)?;
        Ok((Self::from_durable(durable), report))
    }

    /// The currently published snapshot (O(1) clone; holding it pins the
    /// epoch).
    pub fn snapshot(&self) -> Snapshot {
        self.current
            .clone()
            .expect("a snapshot is always published")
    }

    /// Applies one churn batch and publishes the next epoch. Readers keep
    /// answering from their pinned snapshots throughout; the new epoch
    /// becomes visible only to snapshots taken after this returns.
    pub fn apply(&mut self, batch: &EdgeBatch) -> Result<BatchReport> {
        // Drop the engine's own handle first: with no other pin
        // outstanding the refresh then mutates the index in place; with
        // one outstanding (any reader, or the snapshot a `Server` keeps
        // published), `Arc::make_mut` inside the stream layer clones
        // before touching anything the pin can observe. Either way a new
        // snapshot is published afterwards — on error the engine state is
        // unchanged, so republishing it is correct.
        self.current = None;
        let result = match &mut self.backend {
            Backend::Plain(s) => s.apply(batch),
            Backend::Durable(d) => d.apply(batch),
        };
        self.current = Some(Snapshot::capture(self.backend.stream()));
        result.map_err(Into::into)
    }

    /// The wrapped evolving engine (read access).
    pub fn stream(&self) -> &StreamEngine {
        self.backend.stream()
    }

    /// The wrapped durable engine, when serving from a data directory.
    pub fn durable(&self) -> Option<&DurableEngine> {
        match &self.backend {
            Backend::Plain(_) => None,
            Backend::Durable(d) => Some(d),
        }
    }

    /// Forces a snapshot + journal compaction now (durable backend only;
    /// a no-op `Ok(epoch)` otherwise is deliberately *not* offered — the
    /// caller should know whether it is serving durably).
    pub fn snapshot_to_disk(&mut self) -> Result<u64> {
        match &mut self.backend {
            Backend::Plain(_) => Err(rwd_stream::StreamError::InvalidConfig(
                "snapshot_to_disk requires a durable backend (no data dir attached)".into(),
            )
            .into()),
            Backend::Durable(d) => d.snapshot_now().map_err(Into::into),
        }
    }

    /// The engine configuration.
    pub fn config(&self) -> &StreamConfig {
        self.backend.stream().config()
    }

    /// The published epoch number.
    pub fn epoch(&self) -> u64 {
        self.backend.stream().epoch()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rwd_core::greedy::approx::GainRule;
    use rwd_graph::generators::erdos_renyi_gnp;
    use rwd_graph::{CsrGraph, NodeId};

    fn cfg() -> StreamConfig {
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
    fn apply_publishes_after_the_batch_lands() {
        let g0 = erdos_renyi_gnp(60, 0.08, 21).unwrap();
        let mut serve = ServeEngine::from_stream(StreamEngine::new(g0.clone(), cfg()).unwrap());
        let pinned = serve.snapshot();
        assert_eq!(pinned.epoch(), 0);

        let (u, v) = absent_edge(&g0);
        let mut batch = EdgeBatch::new(5);
        batch.insertions.push((u, v, 1.0));
        let report = serve.apply(&batch).unwrap();
        assert_eq!(report.epoch, 1);
        assert_eq!(serve.epoch(), 1);
        assert_eq!(serve.snapshot().epoch(), 1);
        // The pre-batch pin still observes epoch 0 in full.
        assert_eq!(pinned.epoch(), 0);
        assert_eq!(pinned.m(), g0.m());

        // A failed batch publishes nothing and changes nothing.
        let mut bad = EdgeBatch::new(6);
        bad.deletions.push((0, 0));
        assert!(serve.apply(&bad).is_err());
        assert_eq!(serve.epoch(), 1);
        assert_eq!(serve.snapshot().epoch(), 1);

        // An empty batch keeps the same published epoch (engine no-op).
        let report = serve.apply(&EdgeBatch::new(7)).unwrap();
        assert_eq!(report.epoch, 1);
        assert_eq!(serve.snapshot().epoch(), 1);
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
        let stream = rwd_stream::StreamEngine::new(g0.clone(), cfg()).unwrap();
        let mut durable = ServeEngine::create_durable(
            stream,
            &dir,
            rwd_stream::DurabilityConfig { snapshot_every: 2 },
        )
        .unwrap();
        assert!(durable.durable().is_some());
        let mut plain = ServeEngine::from_stream(StreamEngine::new(g0, cfg()).unwrap());
        assert!(plain.durable().is_none());
        assert!(plain.snapshot_to_disk().is_err());

        // Drive both engines through the same churn; the durable one
        // additionally journals (and snapshots at cadence 2).
        for t in 0..3u64 {
            let (u, v) = absent_edge(durable.stream().graph().unwrap());
            let mut batch = EdgeBatch::new(t);
            batch.insertions.push((u, v, 1.0));
            let a = durable.apply(&batch).unwrap();
            let b = plain.apply(&batch).unwrap();
            assert_eq!(a.epoch, b.epoch);
        }

        // Recover into a fresh serving engine: published snapshot must be
        // bit-identical to the live one it shadows.
        let live = durable.snapshot();
        drop(durable);
        let (recovered, report) = ServeEngine::open_durable_with(
            &dir,
            rwd_stream::DurabilityConfig { snapshot_every: 2 },
            OpenMode::Mapped,
        )
        .unwrap();
        assert_eq!(report.recovered_epoch, 3);
        let snap = recovered.snapshot();
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
        let mut serve = ServeEngine::from_stream(StreamEngine::new(g0.clone(), cfg()).unwrap());
        let mut g = g0;
        for t in 0..3u64 {
            let (u, v) = absent_edge(&g);
            let mut batch = EdgeBatch::new(t);
            batch.insertions.push((u, v, 1.0));
            serve.apply(&batch).unwrap();
            g = serve.stream().graph().unwrap().clone();
            let snap = serve.snapshot();
            let sel =
                select_from_index(snap.index(), GainRule::Coverage, 3, Strategy::Delta, 0).unwrap();
            assert_eq!(snap.seeds(), &sel.nodes[..], "epoch {}", snap.epoch());
            let sum: f64 = sel.gain_trace.iter().sum();
            assert_eq!(snap.objective().to_bits(), sum.to_bits());
        }
    }
}
