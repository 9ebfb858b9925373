//! End-to-end trace replay: the evolving engine driven by the shared
//! temporal-trace workload must (a) accept every generated batch, (b) keep
//! its index equal to a cold build at every epoch, and (c) report churn
//! that scales with the touched set.

use rwd_core::greedy::approx::GainRule;
use rwd_datasets::{temporal_trace, TemporalTraceSpec, TraceModel};
use rwd_stream::{SeedMaintainer, StreamConfig, StreamEngine};
use rwd_walks::WalkIndex;

fn spec() -> TemporalTraceSpec {
    TemporalTraceSpec {
        model: TraceModel::ErdosRenyi { mean_degree: 10.0 },
        nodes: 300,
        batches: 5,
        batch_edits: 8,
        delete_fraction: 0.5,
        seed: 0xBEEF,
    }
}

fn config() -> StreamConfig {
    StreamConfig {
        l: 6,
        r: 8,
        k: 8,
        seed: 0x5EED,
        rule: GainRule::Coverage,
        threads: 0,
    }
}

#[test]
fn replaying_a_trace_never_drifts_from_cold_start() {
    let trace = temporal_trace(&spec()).unwrap();
    let cfg = config();
    let mut engine = StreamEngine::new(trace.base.clone(), cfg).unwrap();
    for batch in &trace.batches {
        let report = engine.apply(batch).unwrap();
        assert_eq!(report.insertions, 4);
        assert_eq!(report.deletions, 4);
        assert!(report.touched_nodes >= 2 && report.touched_nodes <= 16);
        // Churn proportionality: far fewer groups resampled than exist.
        assert!(
            report.refresh.groups_resampled < report.refresh.groups_total,
            "batch resampled everything: {:?}",
            report.refresh
        );
        // The maintained index equals a cold build on the current graph.
        let fresh = WalkIndex::build(engine.graph().unwrap(), cfg.l, cfg.r, cfg.seed);
        assert!(
            *engine.shard_indexes()[0] == fresh,
            "epoch {} drifted",
            report.epoch
        );
    }
    assert_eq!(engine.epoch(), 5);
    assert!(engine.lifetime_stats().groups_resampled > 0);
}

#[test]
fn weighted_replay_with_twin_base_stays_exact() {
    let trace = temporal_trace(&spec()).unwrap();
    let cfg = config();
    let wbase = rwd_graph::weighted::weighted_twin(&trace.base, spec().seed).unwrap();
    let mut engine = StreamEngine::with_shards_weighted(wbase, cfg, 1).unwrap();
    for batch in &trace.batches {
        engine.apply(batch).unwrap();
    }
    let fresh = WalkIndex::build(engine.weighted_graph().unwrap(), cfg.l, cfg.r, cfg.seed);
    assert!(
        *engine.shard_indexes()[0] == fresh,
        "weighted replay drifted"
    );
}

/// The warm path over a multi-batch trace: on a hub-dominated graph with
/// two edits per batch, every batch repairs warm, at least half of all
/// greedy rounds replay from their logs, and each batch's objective is
/// bitwise that of a cold pass over the same shards.
#[test]
fn low_churn_trace_stays_warm_and_bitwise_cold() {
    let trace = temporal_trace(&TemporalTraceSpec {
        model: TraceModel::BarabasiAlbert { mdeg: 12 },
        nodes: 4_000,
        batches: 12,
        batch_edits: 2,
        delete_fraction: 0.5,
        seed: 0x2013,
    })
    .unwrap();
    let cfg = StreamConfig {
        l: 8,
        r: 16,
        k: 10,
        seed: 7,
        rule: GainRule::HittingTime,
        threads: 0,
    };
    let mut engine = StreamEngine::new(trace.base.clone(), cfg).unwrap();
    let mut replayed = 0;
    for batch in &trace.batches {
        let report = engine.apply(batch).unwrap();
        assert!(report.maintain.warm, "epoch {} went cold", report.epoch);
        replayed += report.maintain.replayed_rounds;
        let cold = SeedMaintainer::new(cfg.rule, cfg.k, cfg.threads)
            .maintain(&engine.shard_indexes(), None);
        assert_eq!(
            report.maintain.objective.to_bits(),
            cold.objective.to_bits(),
            "epoch {} drifted from a cold pass",
            report.epoch
        );
    }
    let rounds = trace.batches.len() * cfg.k;
    assert!(
        replayed * 2 >= rounds,
        "only {replayed} of {rounds} rounds replayed"
    );
}
