//! The sharded-engine acceptance suite: **scatter-gather ≡ monolith**.
//!
//! For every shard count that can tile the walk layers (1, 2, 4, 8 capped
//! at `R`), at every thread count, after any sequence of random churn
//! batches, the sharded coordinator must be **bit-identical** to the
//! single-shard engine on the same trace: same seeds, same per-round gain
//! trace, same objective, same point-query answers, and every per-shard
//! maintained index bitwise equal to a from-scratch build of its layer
//! range on the final graph.
//!
//! Why this holds: walks derive from counter-based `(seed, src, layer)`
//! RNG streams keyed by the **absolute** layer index, so a shard over
//! layers `[lo, hi)` reproduces exactly the monolith's layers through both
//! build and refresh; per-layer contributions are small exact integers, so
//! summing per-shard integer partials and dividing once by `R` equals the
//! monolith's arithmetic bit-for-bit.

use proptest::prelude::*;
use proptest::Strategy as PropStrategy;
use rwd::core::greedy::approx::GainRule;
use rwd::datasets::temporal::trace_weight;
use rwd::graph::weighted::weighted_twin;
use rwd::prelude::*;
use rwd::stream::EdgeBatch;

const THREADS: [usize; 3] = [1, 2, 8];
const SHARDS: [usize; 4] = [1, 2, 4, 8];

/// A random churn instance: base graph, a few batches of raw edit picks,
/// and walk parameters (same shape as the stream_equivalence suite).
fn churn_instance() -> impl PropStrategy<Value = (CsrGraph, Vec<EdgeBatch>, u32, usize, u64)> {
    (20usize..=60)
        .prop_flat_map(|n| {
            let max_edges = (n * 2).min(n * (n - 1) / 2);
            (
                Just(n),
                proptest::collection::vec((0..n as u32, 0..n as u32), n / 2..=max_edges),
                proptest::collection::vec(
                    proptest::collection::vec((0u64..u64::MAX, 0..3u8), 1..=5),
                    1..=3,
                ),
                2u32..=6,   // l
                1usize..=5, // r — shard counts above r are skipped per case
                0u64..u64::MAX,
            )
        })
        .prop_map(|(n, edges, batch_picks, l, r, seed)| {
            let g = CsrGraph::from_edges(n, &edges).expect("valid edges");
            let batches = resolve_batches(&g, &batch_picks, seed);
            (g, batches, l, r, seed)
        })
}

/// Turns raw `(pick, kind)` draws into valid batches against the evolving
/// edge set: kind 0 deletes a live edge, other kinds insert an absent pair.
fn resolve_batches(g: &CsrGraph, batch_picks: &[Vec<(u64, u8)>], seed: u64) -> Vec<EdgeBatch> {
    let n = g.n() as u64;
    let mut live: Vec<(u32, u32)> = g.edges().map(|(u, v)| (u.raw(), v.raw())).collect();
    let mut member: std::collections::HashSet<(u32, u32)> = live.iter().copied().collect();
    let mut batches = Vec::new();
    for (t, picks) in batch_picks.iter().enumerate() {
        let mut batch = EdgeBatch::new(t as u64);
        let mut edited: std::collections::HashSet<(u32, u32)> = std::collections::HashSet::new();
        for &(pick, kind) in picks {
            if kind == 0 {
                if live.is_empty() {
                    continue;
                }
                let mut i = (pick % live.len() as u64) as usize;
                let mut found = None;
                for _ in 0..live.len() {
                    if !edited.contains(&live[i]) {
                        found = Some(i);
                        break;
                    }
                    i = (i + 1) % live.len();
                }
                let Some(i) = found else { continue };
                let e = live.swap_remove(i);
                member.remove(&e);
                edited.insert(e);
                batch.deletions.push(e);
            } else {
                let mut x = pick;
                let mut found = None;
                for _ in 0..64 {
                    let a = (x % n) as u32;
                    let b = ((x / n) % n) as u32;
                    x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
                    if a == b {
                        continue;
                    }
                    let e = if a < b { (a, b) } else { (b, a) };
                    if member.contains(&e) || edited.contains(&e) {
                        continue;
                    }
                    found = Some(e);
                    break;
                }
                if let Some(e) = found {
                    member.insert(e);
                    live.push(e);
                    edited.insert(e);
                    batch
                        .insertions
                        .push((e.0, e.1, trace_weight(seed, e.0, e.1)));
                }
            }
        }
        if !batch.is_empty() {
            batches.push(batch);
        }
    }
    batches
}

/// Bit-level fingerprint of everything a sharded engine answers: seeds,
/// gain trace, objective, and the full point-query surface of the final
/// epoch's snapshot (hit time + hit probability per node, coverage,
/// top-uncovered ranking).
type Fingerprint = (
    Vec<NodeId>,
    Vec<u64>,
    u64,
    Vec<u64>,
    u64,
    Vec<(NodeId, u64)>,
);

fn fingerprint(engine: &StreamEngine) -> Fingerprint {
    let snap = Snapshot::capture(engine);
    let n = snap.n();
    let mut points = Vec::with_capacity(2 * n);
    for v in 0..n as u32 {
        points.push(snap.hit_time(NodeId(v)).to_bits());
        points.push(snap.hit_prob(NodeId(v)).to_bits());
    }
    (
        engine.seeds().to_vec(),
        engine.gain_trace().iter().map(|x| x.to_bits()).collect(),
        engine.objective().to_bits(),
        points,
        snap.coverage().to_bits(),
        snap.top_m_uncovered(5)
            .into_iter()
            .map(|(v, x)| (v, x.to_bits()))
            .collect(),
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Unweighted: at every shard count × thread count, the coordinator
    /// matches the single-shard engine bitwise and every shard's
    /// post-churn maintained index equals a from-scratch build of its
    /// layer range on the final graph.
    #[test]
    fn sharded_equals_monolith_unweighted(
        (g0, batches, l, r, seed) in churn_instance()
    ) {
        prop_assume!(!batches.is_empty());
        let k = (g0.n() / 10).max(1);
        let cfg = rwd::stream::StreamConfig {
            l, r, k, seed, rule: GainRule::HittingTime, threads: 1,
        };
        let mut reference = StreamEngine::new(g0.clone(), cfg).unwrap();
        for batch in &batches {
            reference.apply(batch).expect("resolved batches are valid");
        }
        let want = fingerprint(&reference);

        for shards in SHARDS.into_iter().filter(|&s| s <= r) {
            for threads in THREADS {
                let cfg = rwd::stream::StreamConfig { threads, ..cfg };
                let mut eng = StreamEngine::with_shards(g0.clone(), cfg, shards).unwrap();
                for batch in &batches {
                    eng.apply(batch).expect("resolved batches are valid");
                }
                let got = fingerprint(&eng);
                prop_assert_eq!(
                    &got, &want,
                    "shards {} threads {}: answers drifted from the monolith",
                    shards, threads
                );
                let final_g = eng.graph().unwrap();
                for (idx, rg) in eng.shard_indexes().iter().zip(eng.shard_ranges()) {
                    let fresh = WalkIndex::build_layer_range(final_g, l, rg, seed, 0);
                    prop_assert!(
                        **idx == fresh,
                        "shards {shards} threads {threads}: maintained shard \
                         [{}, {}) != rebuilt layer range",
                        rg.start(), rg.end()
                    );
                }
            }
        }
    }

    /// Weighted twin: alias-table-driven walks sharded over layer ranges
    /// must still reproduce the single-shard engine bit-for-bit.
    #[test]
    fn sharded_equals_monolith_weighted(
        (g0, batches, l, r, seed) in churn_instance()
    ) {
        prop_assume!(!batches.is_empty());
        let w0 = weighted_twin(&g0, seed).expect("twin");
        let k = (g0.n() / 10).max(1);
        let cfg = rwd::stream::StreamConfig {
            l, r, k, seed, rule: GainRule::Coverage, threads: 1,
        };
        let mut reference = StreamEngine::with_shards_weighted(w0.clone(), cfg, 1).unwrap();
        for batch in &batches {
            reference.apply(batch).expect("resolved batches are valid");
        }
        let want = fingerprint(&reference);

        for shards in SHARDS.into_iter().filter(|&s| s <= r) {
            for threads in THREADS {
                let cfg = rwd::stream::StreamConfig { threads, ..cfg };
                let mut eng =
                    StreamEngine::with_shards_weighted(w0.clone(), cfg, shards).unwrap();
                for batch in &batches {
                    eng.apply(batch).expect("resolved batches are valid");
                }
                let got = fingerprint(&eng);
                prop_assert_eq!(
                    &got, &want,
                    "shards {} threads {}: weighted answers drifted from the monolith",
                    shards, threads
                );
                let final_g = eng.weighted_graph().unwrap();
                for (idx, rg) in eng.shard_indexes().iter().zip(eng.shard_ranges()) {
                    let fresh = WalkIndex::build_weighted_layer_range(final_g, l, rg, seed, 0);
                    prop_assert!(
                        **idx == fresh,
                        "shards {shards} threads {threads}: maintained weighted shard \
                         [{}, {}) != rebuilt layer range",
                        rg.start(), rg.end()
                    );
                }
            }
        }
    }
}
