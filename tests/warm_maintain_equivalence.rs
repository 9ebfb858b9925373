//! Warm-start acceptance suite: **warm maintenance ≡ cold rebuild**.
//!
//! The seed maintainer keeps its gain engine alive across epochs: each
//! batch's refresh emits a posting edit script, the engine absorbs it in
//! `O(touched)`, and still-valid recorded rounds replay from their logs
//! instead of re-streaming the index. This suite pins the contract that
//! warmth is **purely a wall-time optimization**: after any sequence of
//! random churn batches, a warm engine and a standalone maintainer run
//! cold over the engine's shards after every batch (`maintain(shards,
//! None)`) must agree **bitwise** on seeds, gain traces, objectives and
//! touched-posting counts, at every shard count × thread count, on both
//! unweighted and weighted graphs, under the hitting-time, coverage and
//! combined rules.

use proptest::prelude::*;
use proptest::Strategy as PropStrategy;
use rwd::core::greedy::approx::GainRule;
use rwd::datasets::temporal::trace_weight;
use rwd::graph::weighted::weighted_twin;
use rwd::prelude::*;
use rwd::stream::{EdgeBatch, SeedMaintainer, StreamConfig};

const SHARDS: [usize; 3] = [1, 2, 4];
const THREADS: [usize; 3] = [1, 2, 8];

/// A random churn instance: base graph, a few batches of raw edit picks
/// resolved into valid batches against the evolving edge set, and walk
/// parameters. `r` starts at 4 so every shard count in [`SHARDS`] tiles.
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
                4usize..=6, // r
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
/// edge set: kind 0 deletes a live edge (skipped when none is free), other
/// kinds insert an absent pair (skipped when the graph is complete).
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

/// Drives a batch trace through a warm engine and, after every batch,
/// runs a standalone maintainer cold over the engine's shards, asserting
/// bitwise agreement; returns the final seed set (for cross-configuration
/// comparison).
fn assert_warm_equals_cold(
    mut warm: StreamEngine,
    batches: &[EdgeBatch],
    tag: &str,
) -> Result<Vec<NodeId>, TestCaseError> {
    let cfg = *warm.config();
    let mut cold = SeedMaintainer::new(cfg.rule, cfg.k, cfg.threads);
    cold.maintain(&warm.shard_indexes(), None);
    let bits = |t: &[f64]| t.iter().map(|g| g.to_bits()).collect::<Vec<_>>();
    for (b, batch) in batches.iter().enumerate() {
        let rw = warm.apply(batch).expect("resolved batches are valid");
        let rc = cold.maintain(&warm.shard_indexes(), None);
        prop_assert_eq!(warm.seeds(), cold.seeds(), "{} batch {}: seeds", tag, b);
        prop_assert_eq!(
            bits(warm.gain_trace()),
            bits(cold.gain_trace()),
            "{} batch {}: gain trace",
            tag,
            b
        );
        prop_assert_eq!(
            warm.objective().to_bits(),
            cold.objective().to_bits(),
            "{} batch {}: objective",
            tag,
            b
        );
        // The reports must agree on everything except how the answer was
        // produced (warm flag, absorbed/replayed accounting, wall times).
        prop_assert_eq!(rw.maintain.seeds_swapped, rc.seeds_swapped);
        prop_assert_eq!(rw.maintain.rounds_kept, rc.rounds_kept);
        prop_assert_eq!(rw.maintain.first_invalid_round, rc.first_invalid_round);
        prop_assert_eq!(
            rw.maintain.touched_postings,
            rc.touched_postings,
            "{} batch {}: touched postings",
            tag,
            b
        );
        prop_assert_eq!(rw.maintain.objective.to_bits(), rc.objective.to_bits());
        // A pass without deltas is cold: it never absorbs or replays.
        prop_assert!(!rc.warm, "{} batch {}", tag, b);
        prop_assert_eq!(rc.replayed_rounds, 0, "{} batch {}", tag, b);
        prop_assert_eq!(rc.absorbed_postings, 0);
    }
    Ok(warm.seeds().to_vec())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Unweighted: warm ≡ forced-cold at every shard × thread count, and
    /// every configuration lands on the same final seed set.
    #[test]
    fn warm_maintenance_equals_cold_unweighted(
        (g0, batches, l, r, seed) in churn_instance()
    ) {
        prop_assume!(!batches.is_empty());
        let k = (g0.n() / 12).max(2);
        let mut reference: Option<Vec<NodeId>> = None;
        for shards in SHARDS {
            for threads in THREADS {
                let cfg = StreamConfig {
                    l, r, k, seed, rule: GainRule::HittingTime, threads,
                };
                let warm = StreamEngine::with_shards(g0.clone(), cfg, shards).unwrap();
                let tag = format!("shards {shards} threads {threads}");
                let finals = assert_warm_equals_cold(warm, &batches, &tag)?;
                match &reference {
                    None => reference = Some(finals),
                    Some(want) => prop_assert_eq!(&finals, want, "{}: drift", tag),
                }
            }
        }
    }

    /// Unweighted under the combined rule: both `D` tables go through one
    /// layer pass, in the cold commit and in the replay's live work alike.
    #[test]
    fn warm_maintenance_equals_cold_combined(
        (g0, batches, l, r, seed) in churn_instance()
    ) {
        prop_assume!(!batches.is_empty());
        let k = (g0.n() / 12).max(2);
        let mut reference: Option<Vec<NodeId>> = None;
        for shards in SHARDS {
            for threads in THREADS {
                let cfg = StreamConfig {
                    l, r, k, seed, rule: GainRule::Combined { lambda: 0.35 }, threads,
                };
                let warm = StreamEngine::with_shards(g0.clone(), cfg, shards).unwrap();
                let tag = format!("combined shards {shards} threads {threads}");
                let finals = assert_warm_equals_cold(warm, &batches, &tag)?;
                match &reference {
                    None => reference = Some(finals),
                    Some(want) => prop_assert_eq!(&finals, want, "{}: drift", tag),
                }
            }
        }
    }

    /// Weighted twin: alias-table patching, weighted refresh deltas and
    /// warm absorption compose to the same bitwise guarantee.
    #[test]
    fn warm_maintenance_equals_cold_weighted(
        (g0, batches, l, r, seed) in churn_instance()
    ) {
        prop_assume!(!batches.is_empty());
        let w0 = weighted_twin(&g0, seed).expect("twin");
        let k = (g0.n() / 12).max(2);
        let mut reference: Option<Vec<NodeId>> = None;
        for shards in SHARDS {
            for threads in THREADS {
                let cfg = StreamConfig {
                    l, r, k, seed, rule: GainRule::Coverage, threads,
                };
                let warm = StreamEngine::with_shards_weighted(w0.clone(), cfg, shards).unwrap();
                let tag = format!("weighted shards {shards} threads {threads}");
                let finals = assert_warm_equals_cold(warm, &batches, &tag)?;
                match &reference {
                    None => reference = Some(finals),
                    Some(want) => prop_assert_eq!(&finals, want, "{}: drift", tag),
                }
            }
        }
    }
}
