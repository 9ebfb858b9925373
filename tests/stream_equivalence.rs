//! The evolving-graph acceptance suite: **incremental ≡ rebuild**.
//!
//! After any sequence of random update batches, at any thread count, the
//! incrementally maintained walk index must be **bit-identical** — inverted
//! postings, forward views, per-node aggregates — to a from-scratch
//! `build`/`build_weighted` on the final graph, and the maintained seed set
//! must equal the static `Strategy::Delta` selection on that rebuilt index.
//! The resampling argument this rests on: walks derive from counter-based
//! `(seed, src, layer)` RNG streams, so a group whose visit set avoids
//! every touched node replays identically, and only groups reachable from
//! the touched set are re-walked.
//!
//! Refreshes also run while a clone of the index is held (the serving
//! layer's pinned epoch): clones share the walk layers and the aggregate
//! pair, so the refresh must write fresh ones and leave the pinned bits
//! alone.

use proptest::prelude::*;
use proptest::Strategy as PropStrategy;
use rwd::core::algo::select_from_index;
use rwd::core::greedy::approx::GainRule;
use rwd::datasets::temporal::trace_weight;
use rwd::graph::weighted::weighted_twin;
use rwd::prelude::*;
use rwd::stream::EdgeBatch;

const THREADS: [usize; 3] = [1, 2, 8];

/// A random churn instance: base graph, a few batches of raw edit picks,
/// and walk parameters. Edit picks are resolved into valid batches against
/// the evolving edge set (delete an existing edge / insert an absent one),
/// so every generated case applies cleanly.
fn churn_instance() -> impl PropStrategy<Value = (CsrGraph, Vec<EdgeBatch>, u32, usize, u64)> {
    (20usize..=70)
        .prop_flat_map(|n| {
            let max_edges = (n * 2).min(n * (n - 1) / 2);
            (
                Just(n),
                proptest::collection::vec((0..n as u32, 0..n as u32), n / 2..=max_edges),
                proptest::collection::vec(
                    proptest::collection::vec((0u64..u64::MAX, 0..3u8), 1..=6),
                    1..=3,
                ),
                2u32..=7,   // l
                1usize..=5, // r
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
                // Probe for a live edge not already edited this batch —
                // deletions apply before insertions, so deleting a
                // same-batch insertion would be invalid.
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
                // Probe a bounded number of pair candidates from the pick.
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

/// Every inverted posting, forward entry and per-node aggregate of `idx`,
/// copied out through the public read API: a deep image that does not
/// share storage with the index it was taken from.
fn image(idx: &WalkIndex) -> Vec<u64> {
    let mut out = Vec::new();
    for layer in 0..idx.r() {
        for v in (0..idx.n()).map(NodeId::new) {
            for view in [idx.postings(layer, v), idx.forward(layer, v)] {
                out.push(view.len() as u64);
                out.extend(
                    view.iter()
                        .map(|p| (p.id.raw() as u64) << 16 | p.weight as u64),
                );
            }
        }
    }
    for v in (0..idx.n()).map(NodeId::new) {
        out.extend([idx.posting_count(v), idx.posting_hop_sum(v)]);
    }
    out
}

/// Batches at even positions refresh while a clone of the index is held.
/// Returns the clone and the image of its pre-batch bits.
fn pin_if_even(b: usize, idx: &WalkIndex) -> Option<(WalkIndex, Vec<u64>)> {
    b.is_multiple_of(2).then(|| (idx.clone(), image(idx)))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Unweighted: maintained index ≡ rebuilt index (bitwise) at 1/2/8
    /// threads, and the resampled-group count never exceeds the bound the
    /// touched set implies. Every other batch refreshes under a held
    /// clone, which must keep its pre-batch bits.
    #[test]
    fn incremental_equals_rebuild_unweighted(
        (g0, batches, l, r, seed) in churn_instance()
    ) {
        prop_assume!(!batches.is_empty());
        for threads in THREADS {
            let mut idx = WalkIndex::build_with_threads(&g0, l, r, seed, threads);
            let mut g = g0.clone();
            for (b, batch) in batches.iter().enumerate() {
                let delta = batch.apply(&g).expect("resolved batches are valid");
                let pinned = pin_if_even(b, &idx);
                let (stats, _) = idx.refresh(&delta.graph, &delta.touched, threads);
                prop_assert!(stats.groups_resampled >= delta.touched.len() * r);
                prop_assert!(stats.groups_resampled <= stats.groups_total);
                if let Some((held, before)) = pinned {
                    prop_assert!(
                        image(&held) == before,
                        "threads {threads}, batch {b}: refresh changed a pinned clone"
                    );
                }
                g = delta.graph;
            }
            let fresh = WalkIndex::build_with_threads(&g, l, r, seed, threads);
            prop_assert!(idx == fresh, "threads {threads}: maintained != rebuilt");
        }
    }

    /// Weighted twin of the same property — alias tables patched per row
    /// must reproduce the walks of a fully rebuilt weighted graph, with the
    /// same held clone on every other batch.
    #[test]
    fn incremental_equals_rebuild_weighted(
        (g0, batches, l, r, seed) in churn_instance()
    ) {
        prop_assume!(!batches.is_empty());
        let w0 = weighted_twin(&g0, seed).expect("twin");
        for threads in THREADS {
            let mut idx = WalkIndex::build_with_threads(&w0, l, r, seed, threads);
            let mut wg = w0.clone();
            for (b, batch) in batches.iter().enumerate() {
                let delta = batch.apply_weighted(&wg).expect("resolved batches are valid");
                let pinned = pin_if_even(b, &idx);
                idx.refresh(&delta.graph, &delta.touched, threads);
                if let Some((held, before)) = pinned {
                    prop_assert!(
                        image(&held) == before,
                        "threads {threads}, batch {b}: refresh changed a pinned clone"
                    );
                }
                wg = delta.graph;
            }
            let fresh = WalkIndex::build_with_threads(&wg, l, r, seed, threads);
            prop_assert!(idx == fresh, "threads {threads}: maintained != rebuilt");
        }
    }

    /// Seed maintenance: after replaying the batches through the full
    /// engine, the maintained seed set equals the static `Strategy::Delta`
    /// selection on a from-scratch index of the final graph.
    #[test]
    fn maintained_seeds_equal_rebuild_selection(
        (g0, batches, l, r, seed) in churn_instance()
    ) {
        prop_assume!(!batches.is_empty());
        let k = (g0.n() / 10).max(1);
        for rule in [GainRule::HittingTime, GainRule::Coverage] {
            let cfg = rwd::stream::StreamConfig {
                l, r, k, seed, rule, threads: 0,
            };
            let mut engine = StreamEngine::new(g0.clone(), cfg).unwrap();
            for batch in &batches {
                engine.apply(batch).expect("resolved batches are valid");
            }
            let fresh = WalkIndex::build(engine.graph().unwrap(), l, r, seed);
            let sel =
                select_from_index(&fresh, rule, k, rwd::core::Strategy::Delta, 0).unwrap();
            prop_assert_eq!(
                engine.seeds(), &sel.nodes[..],
                "{:?}: maintained seeds != rebuilt selection", rule
            );
        }
    }
}
