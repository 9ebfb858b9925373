//! Property tests for the walk index's forward view.
//!
//! The forward view must be the **exact transpose** of the inverted
//! postings: for every layer, the multiset of `(src, node, hop)` triples
//! read through `forward(layer, src)` equals the multiset read through
//! `postings(layer, node)` — on random graphs, at any walk length, walk
//! count and thread count, and across a save/load round trip (the file
//! stores only the inverted lists; `load` re-derives the forward view).

use proptest::prelude::*;
use proptest::Strategy;
use rwd_graph::{CsrGraph, NodeId};
use rwd_walks::WalkIndex;

/// A random simple graph (5..=40 nodes) plus walk-index parameters.
fn random_instance() -> impl Strategy<Value = (CsrGraph, u32, usize, u64)> {
    (5usize..=40)
        .prop_flat_map(|n| {
            let max_edges = (n * (n - 1) / 2).min(120);
            (
                Just(n),
                proptest::collection::vec((0..n as u32, 0..n as u32), 1..=max_edges),
                1u32..=8,   // l
                1usize..=6, // r
                0u64..u64::MAX,
            )
        })
        .prop_map(|(n, edges, l, r, seed)| {
            let g = CsrGraph::from_edges(n, &edges).expect("valid edges");
            (g, l, r, seed)
        })
}

/// Every `(src, node, hop)` triple one view of a layer yields, sorted.
fn triples(n: usize, view: impl Fn(NodeId) -> Vec<(u32, u32, u32)>) -> Vec<(u32, u32, u32)> {
    let mut out: Vec<(u32, u32, u32)> = (0..n).flat_map(|v| view(NodeId::new(v))).collect();
    out.sort_unstable();
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The tentpole invariant: per layer, forward view ≡ transpose of the
    /// inverted postings (same `(src, node, hop)` multiset).
    #[test]
    fn forward_view_is_exact_transpose((g, l, r, seed) in random_instance()) {
        let idx = WalkIndex::build(&g, l, r, seed);
        for layer in 0..idx.r() {
            let inverted = triples(idx.n(), |v| {
                idx.postings(layer, v)
                    .iter()
                    .map(|p| (p.id.raw(), v.raw(), p.weight))
                    .collect()
            });
            let forward = triples(idx.n(), |src| {
                idx.forward(layer, src)
                    .iter()
                    .map(|p| (src.raw(), p.id.raw(), p.weight))
                    .collect()
            });
            prop_assert_eq!(&inverted, &forward, "layer {} transpose mismatch", layer);
            // Bonus shape checks: each forward list is (hop, id)-sorted —
            // the canonical walk-visit order that lets gain repairs stop at
            // the first hop past their threshold — and no walk visits more
            // than l nodes.
            for src in g.nodes() {
                let fr = idx.forward(layer, src);
                prop_assert!(fr.len() <= l as usize, "forward({}) too long", src);
                let keys: Vec<(u16, u32)> = fr
                    .weights()
                    .iter()
                    .copied()
                    .zip(fr.ids().iter().copied())
                    .collect();
                prop_assert!(
                    keys.windows(2).all(|w| w[0] < w[1]),
                    "forward({}) not (hop, id)-sorted", src
                );
                prop_assert!(
                    fr.weights().iter().all(|&w| 1 <= w && w as u32 <= l),
                    "forward({}) hop outside 1..=l", src
                );
            }
        }
    }

    /// Thread invariance extends to the forward view: the transposition is
    /// derived from the (thread-invariant) inverted columns.
    #[test]
    fn forward_view_is_thread_invariant((g, l, r, seed) in random_instance()) {
        let one = WalkIndex::build_with_threads(&g, l, r, seed, 1);
        let many = WalkIndex::build_with_threads(&g, l, r, seed, 4);
        for layer in 0..one.r() {
            for src in g.nodes() {
                prop_assert_eq!(one.forward(layer, src), many.forward(layer, src));
            }
        }
    }
}

#[test]
fn forward_view_survives_save_load() {
    // load reads only the inverted lists from the file; it must rebuild an
    // identical forward view by the same canonical transposition.
    let g = rwd_graph::generators::barabasi_albert(200, 3, 77).unwrap();
    let idx = WalkIndex::build(&g, 6, 8, 9);
    let dir = std::env::temp_dir().join("rwd_forward_io");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("fwd.rwdidx");
    idx.save(&path).unwrap();
    let loaded = WalkIndex::load(&path).unwrap();
    for layer in 0..idx.r() {
        for src in g.nodes() {
            assert_eq!(loaded.forward(layer, src), idx.forward(layer, src));
        }
    }
    std::fs::remove_dir_all(&dir).ok();
}
