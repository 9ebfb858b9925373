//! Snapshot-consistency stress test — the serving acceptance criterion.
//!
//! Reader threads pin snapshots and fire point queries **while** churn
//! batches apply concurrently through the same server. Every answer must
//! be coherent: stamped with a single epoch `e`, and bit-identical to the
//! full-sweep static estimators run on a from-scratch rebuild of epoch
//! `e`'s index with epoch `e`'s statically selected seeds. A torn read —
//! an index from one epoch paired with seeds from another, or a
//! mid-refresh index — would mismatch every reference.
//!
//! The same race runs twice: once against the single-shard engine, once
//! against the sharded scatter-gather coordinator — every gathered answer
//! must still bit-match the per-epoch **monolithic** rebuild, and a torn
//! cross-shard read (one shard at epoch `e`, another at `e+1`) would
//! break the bit-match just like a torn single-shard read.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use rwd_core::algo::select_from_index;
use rwd_core::greedy::approx::GainRule;
use rwd_core::Strategy;
use rwd_datasets::temporal::{temporal_trace, TemporalTraceSpec, TraceModel};
use rwd_graph::{CsrGraph, NodeId};
use rwd_serve::{Query, QueryValue, Server};
use rwd_stream::{EdgeBatch, StreamConfig, StreamEngine};
use rwd_walks::{NodeSet, WalkIndex};

const N: usize = 120;
const L: u32 = 5;
const R: usize = 6;
const K: usize = 4;
const WALK_SEED: u64 = 0x5EED;
const RULE: GainRule = GainRule::HittingTime;

/// Everything a static rebuild of one epoch knows.
struct EpochRef {
    hit_times: Vec<f64>,
    hit_probs: Vec<f64>,
    seeds: Vec<NodeId>,
    objective: f64,
    coverage: f64,
    ranked: Vec<(NodeId, f64)>,
}

fn build_reference(g: &CsrGraph) -> EpochRef {
    let idx = WalkIndex::build(g, L, R, WALK_SEED);
    let sel = select_from_index(&idx, RULE, K, Strategy::Delta, 0).unwrap();
    let set = NodeSet::from_nodes(g.n(), sel.nodes.iter().copied());
    let hit_times = idx.estimate_hit_times(&set);
    let hit_probs = idx.estimate_hit_probs(&set);
    // Independent integer-exact coverage: per layer, |set ∪ hit sources|.
    let mut total = 0u64;
    for layer in 0..idx.r() {
        let mut covered = NodeSet::new(g.n());
        for &s in &sel.nodes {
            covered.insert(s);
            for &id in idx.postings(layer, s).ids() {
                covered.insert(NodeId(id));
            }
        }
        total += covered.len() as u64;
    }
    let coverage = total as f64 / idx.r() as f64;
    let mut ranked: Vec<(NodeId, f64)> = g.nodes().map(|v| (v, hit_probs[v.index()])).collect();
    ranked.sort_by(|a, b| a.1.total_cmp(&b.1).then(a.0.cmp(&b.0)));
    let objective: f64 = sel.gain_trace.iter().sum();
    EpochRef {
        hit_times,
        hit_probs,
        seeds: sel.nodes,
        objective,
        coverage,
        ranked,
    }
}

fn check(refs: &[EpochRef], epoch: u64, query: &Query, value: &QueryValue) {
    let re = &refs[epoch as usize];
    match (query, value) {
        (Query::HitTime(v), QueryValue::Scalar(x)) => {
            assert_eq!(
                x.to_bits(),
                re.hit_times[v.index()].to_bits(),
                "hit_time({v}) torn at epoch {epoch}"
            );
        }
        (Query::HitProb(v), QueryValue::Scalar(x)) => {
            assert_eq!(
                x.to_bits(),
                re.hit_probs[v.index()].to_bits(),
                "hit_prob({v}) torn at epoch {epoch}"
            );
        }
        (Query::Coverage, QueryValue::Scalar(x)) => {
            assert_eq!(
                x.to_bits(),
                re.coverage.to_bits(),
                "coverage torn at {epoch}"
            );
        }
        (Query::TopUncovered(m), QueryValue::Ranked(got)) => {
            let want = &re.ranked[..(*m).min(re.ranked.len())];
            assert_eq!(got.len(), want.len());
            for (g, w) in got.iter().zip(want) {
                assert_eq!(g.0, w.0, "ranking torn at epoch {epoch}");
                assert_eq!(g.1.to_bits(), w.1.to_bits());
            }
        }
        (Query::Seeds, QueryValue::Seeds { seeds, objective }) => {
            assert_eq!(&seeds[..], &re.seeds[..], "seeds torn at epoch {epoch}");
            assert_eq!(
                objective.to_bits(),
                re.objective.to_bits(),
                "objective torn at epoch {epoch}"
            );
        }
        (q, v) => panic!("answer shape mismatch: {q:?} -> {v:?}"),
    }
}

fn query_mix(i: usize) -> Query {
    match i % 5 {
        0 => Query::HitTime(NodeId((i * 17 % N) as u32)),
        1 => Query::HitProb(NodeId((i * 31 % N) as u32)),
        2 => Query::Coverage,
        3 => Query::TopUncovered(1 + i % 7),
        _ => Query::Seeds,
    }
}

fn run_stress(shards: usize) {
    // A deterministic churn trace, valid-by-construction batch by batch.
    let spec = TemporalTraceSpec {
        model: TraceModel::ErdosRenyi { mean_degree: 8.0 },
        nodes: N,
        batches: 5,
        batch_edits: 8,
        delete_fraction: 0.5,
        seed: 42,
    };
    let trace = temporal_trace(&spec).unwrap();

    // Static references for every epoch (0 = cold start).
    let mut graphs = vec![trace.base.clone()];
    for batch in &trace.batches {
        let next = batch.apply(graphs.last().unwrap()).unwrap().graph;
        graphs.push(next);
    }
    let refs: Arc<Vec<EpochRef>> = Arc::new(graphs.iter().map(build_reference).collect());
    let total_epochs = trace.batches.len() as u64;

    let cfg = StreamConfig {
        l: L,
        r: R,
        k: K,
        seed: WALK_SEED,
        rule: RULE,
        threads: 0,
    };
    let engine = StreamEngine::with_shards(trace.base.clone(), cfg, shards).unwrap();
    let server = Server::start(engine, 3);
    let handle = server.handle();

    // A long-lived pin taken at epoch 0: it must keep answering from epoch
    // 0 no matter how much churn applies underneath.
    let pinned = handle.snapshot();
    assert_eq!(pinned.epoch(), 0);

    let done = Arc::new(AtomicBool::new(false));
    let readers: Vec<_> = (0..3)
        .map(|rid: usize| {
            let handle = handle.clone();
            let refs = Arc::clone(&refs);
            let done = Arc::clone(&done);
            std::thread::spawn(move || {
                let mut issued = 0usize;
                let mut i = rid * 97;
                while !done.load(Ordering::Relaxed) || issued < 40 {
                    i += 1;
                    issued += 1;
                    let query = query_mix(i);
                    let answer = handle.query(query.clone()).unwrap().wait();
                    assert!(
                        answer.epoch <= total_epochs,
                        "epoch {} past the final batch",
                        answer.epoch
                    );
                    check(&refs, answer.epoch, &query, &answer.value);
                    if issued > 400 {
                        break; // safety valve; plenty of interleaving by now
                    }
                }
                issued
            })
        })
        .collect();

    // Writer: stream the batches through the server while readers hammer
    // it. Each outcome resolves only after its epoch is published.
    for (i, batch) in trace.batches.iter().enumerate() {
        let outcome = handle.apply(batch.clone()).unwrap().wait();
        let report = outcome.report.expect("trace batches are valid");
        assert_eq!(report.epoch, i as u64 + 1);
        // Interleaved no-op batch: must not advance the published epoch.
        let noop = handle.apply(EdgeBatch::new(999)).unwrap().wait();
        assert_eq!(noop.report.expect("no-op is valid").epoch, i as u64 + 1);
        std::thread::yield_now();
    }
    done.store(true, Ordering::Relaxed);
    for r in readers {
        let issued = r.join().expect("reader panicked");
        assert!(issued >= 40, "reader exited early ({issued} queries)");
    }

    // Queries submitted after the last publication observe the final epoch.
    let final_answer = handle.query(Query::Seeds).unwrap().wait();
    assert_eq!(final_answer.epoch, total_epochs);

    // The epoch-0 pin never moved: full bit-identity against the epoch-0
    // rebuild, after all the churn.
    assert_eq!(pinned.epoch(), 0);
    assert_eq!(pinned.m(), graphs[0].m());
    for v in 0..N as u32 {
        let v = NodeId(v);
        assert_eq!(
            pinned.hit_time(v).to_bits(),
            refs[0].hit_times[v.index()].to_bits(),
            "pinned hit_time({v}) drifted"
        );
        assert_eq!(
            pinned.hit_prob(v).to_bits(),
            refs[0].hit_probs[v.index()].to_bits(),
            "pinned hit_prob({v}) drifted"
        );
    }
    assert_eq!(pinned.seeds(), &refs[0].seeds[..]);

    server.shutdown();
    // The final engine state equals the final static rebuild (reachable
    // through any still-held snapshot handle): every shard's maintained
    // index bit-matches a from-scratch build of its layer range.
    let last = handle.snapshot();
    assert_eq!(last.epoch(), total_epochs);
    assert_eq!(last.shard_count(), shards);
    for shard in last.shards() {
        let fresh = WalkIndex::build_layer_range(
            graphs.last().unwrap(),
            L,
            shard.layer_range(),
            WALK_SEED,
            0,
        );
        assert!(**shard == fresh, "served shard index drifted from rebuild");
    }
    if shards == 1 {
        let fresh = WalkIndex::build(graphs.last().unwrap(), L, R, WALK_SEED);
        assert!(
            *last.shards()[0] == fresh,
            "served index drifted from rebuild"
        );
    }
}

#[test]
fn concurrent_readers_always_observe_one_coherent_epoch() {
    run_stress(1);
}

/// The same reader/writer race against a 4-shard coordinator (uneven
/// tiling of the 6 walk layers): scattered point queries gathered across
/// shards must bit-match the monolithic per-epoch rebuild throughout, and
/// no reader may ever observe a half-published epoch.
#[test]
fn concurrent_readers_race_the_sharded_coordinator() {
    run_stress(4);
}
