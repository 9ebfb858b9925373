//! Cross-crate equivalence for the zero-copy storage path.
//!
//! The mapped open's correctness story is the same one every other layer
//! of this codebase tells: **bit-identity**. A `WalkIndex` served from an
//! `mmap`ed RWDIDX4 file must be indistinguishable — on every read path
//! the stack exposes — from the owned index that wrote it, and the first
//! refresh, which writes overlays over its mapped bases, must land on
//! exactly the bits an owned-from-the-start refresh produces, at every
//! shard count and thread count.
//!
//! The walks crate pins format-level round trips and rejection
//! (`crates/walks/tests/storage.rs`); this suite pins the *consumers*:
//! point queries, coverage/uncovered ranking, both gain engines, and the
//! shard-grain maintenance loop.

use proptest::prelude::*;
use proptest::Strategy as PropStrategy;
use rwd::core::greedy::{DeltaGainEngine, GainEngine, GainRule};
use rwd::prelude::*;
use rwd::walks::LayerRange;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};

const THREADS: [usize; 3] = [1, 2, 8];
const SHARDS: [usize; 3] = [1, 2, 4];

static UNIQ: AtomicU64 = AtomicU64::new(0);

fn tmp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "rwd-storage-eq-{tag}-{}-{}",
        std::process::id(),
        UNIQ.fetch_add(1, Ordering::Relaxed)
    ));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// True when this host has the zero-copy path at all; elsewhere the suite
/// degenerates to (already covered) owned-path assertions and exits early.
fn mapped_path_available() -> bool {
    cfg!(unix) && cfg!(target_endian = "little")
}

/// A random simple graph, walk parameters and a random query set.
fn random_instance() -> impl PropStrategy<Value = (CsrGraph, u32, usize, u64, Vec<u32>)> {
    (5usize..=40)
        .prop_flat_map(|n| {
            let max_edges = (n * (n - 1) / 2).min(120);
            (
                Just(n),
                proptest::collection::vec((0..n as u32, 0..n as u32), 1..=max_edges),
                1u32..=8,   // l
                1usize..=6, // r
                0u64..u64::MAX,
                proptest::collection::vec(0..n as u32, 0..=6), // set members
            )
        })
        .prop_map(|(n, edges, l, r, seed, members)| {
            let g = CsrGraph::from_edges(n, &edges).expect("valid edges");
            (g, l, r, seed, members)
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// A mapped open answers every read path with the owned index's bits:
    /// point queries, coverage, uncovered ranking, the streaming gain
    /// sweep, the delta gain engine across a greedy round, and a re-save.
    #[test]
    fn mapped_open_is_bit_identical_on_every_read_path(
        (g, l, r, seed, members) in random_instance(),
        m in 0usize..=12,
    ) {
        if !mapped_path_available() {
            return Ok(());
        }
        let idx = WalkIndex::build(&g, l, r, seed);
        let dir = tmp_dir("paths");
        let path = dir.join("mono.rwdidx");
        idx.save(&path).unwrap();
        let mapped = WalkIndex::open_mapped(&path).unwrap();
        prop_assert_eq!(&mapped, &idx);
        prop_assert!(mapped.mapped_bytes() > 0);

        // Point-query surface.
        let set = NodeSet::from_nodes(g.n(), members.into_iter().map(NodeId));
        for v in g.nodes() {
            prop_assert_eq!(
                mapped.point_hit_time(v, &set).to_bits(),
                idx.point_hit_time(v, &set).to_bits(),
                "hit time diverges at {}", v
            );
            prop_assert_eq!(
                mapped.point_hit_prob(v, &set).to_bits(),
                idx.point_hit_prob(v, &set).to_bits(),
                "hit prob diverges at {}", v
            );
        }
        prop_assert_eq!(mapped.coverage(&set).to_bits(), idx.coverage(&set).to_bits());
        let (got, want) = (mapped.top_m_uncovered(m, &set), idx.top_m_uncovered(m, &set));
        prop_assert_eq!(got.len(), want.len());
        for (a, b) in got.iter().zip(&want) {
            prop_assert_eq!(a.0, b.0);
            prop_assert_eq!(a.1.to_bits(), b.1.to_bits());
        }

        // Both gain engines, through a full greedy round on the delta one.
        for rule in [GainRule::HittingTime, GainRule::Coverage] {
            let ga = GainEngine::new(&idx, rule).gains_all();
            let gb = GainEngine::new(&mapped, rule).gains_all();
            for (a, b) in ga.iter().zip(&gb) {
                prop_assert_eq!(a.to_bits(), b.to_bits());
            }
            let mut ea = DeltaGainEngine::new(&idx, rule);
            let mut eb = DeltaGainEngine::new(&mapped, rule);
            for v in g.nodes() {
                prop_assert_eq!(ea.gain(v).to_bits(), eb.gain(v).to_bits());
            }
            let (pa, pb) = (ea.best_candidate(), eb.best_candidate());
            prop_assert_eq!(
                pa.map(|(v, x)| (v, x.to_bits())),
                pb.map(|(v, x)| (v, x.to_bits()))
            );
            if let Some((pick, _)) = pa {
                ea.update(pick);
                eb.update(pick);
                for v in g.nodes() {
                    prop_assert_eq!(ea.gain(v).to_bits(), eb.gain(v).to_bits());
                }
            }
        }

        // Save round-trip: the mapped index re-saves to the same bytes.
        let resaved = dir.join("resaved.rwdidx");
        mapped.save(&resaved).unwrap();
        prop_assert_eq!(std::fs::read(&path).unwrap(), std::fs::read(&resaved).unwrap());
        std::fs::remove_dir_all(&dir).ok();
    }
}

/// Contiguous tiling of `r` layers into `shards` ranges, matching the
/// engine's scatter-gather layout.
fn tile(r: usize, shards: usize) -> Vec<LayerRange> {
    (0..shards)
        .map(|s| LayerRange::new(s * r / shards, (s + 1) * r / shards))
        .collect()
}

/// Overlay-over-map refresh ≡ owned refresh across the shard × thread
/// grid: each shard is saved to its own file and reopened zero-copy, as
/// durable snapshots store and recover shards, then refreshes against the
/// churned graph. Its layer bases stay mapped, the heap holds only the
/// overlays and aggregates the refresh wrote, and it must land bit-exactly
/// on the owned shard's refresh — which itself equals a from-scratch build
/// on the new graph.
#[test]
fn overlay_refresh_keeps_mapped_bases_and_matches_owned_refresh_across_shards_and_threads() {
    if !mapped_path_available() {
        return;
    }
    let (l, r, seed) = (5u32, 8usize, 23u64);
    // Large enough that the churn below changes a few rows of each layer,
    // well under the fold share (on an 80-node graph it folds some views).
    let g0 = rwd::graph::generators::barabasi_albert(1000, 3, 17).unwrap();
    let dir = tmp_dir("grid");

    // Churn between low-degree nodes: drop the live edge with the smallest
    // endpoint degrees, add two absent ones between degree-3 nodes.
    let deg = |u: u32| g0.degree(NodeId(u));
    let mut edges: Vec<(u32, u32)> = g0.edges().map(|(u, v)| (u.raw(), v.raw())).collect();
    let at = (0..edges.len())
        .min_by_key(|&i| deg(edges[i].0) + deg(edges[i].1))
        .unwrap();
    let dropped = edges.swap_remove(at);
    let mut added = Vec::new();
    'outer: for u in 0..g0.n() as u32 {
        for v in (u + 1)..g0.n() as u32 {
            if deg(u) == 3 && deg(v) == 3 && !g0.has_edge(NodeId(u), NodeId(v)) {
                edges.push((u, v));
                added.push((u, v));
                if added.len() == 2 {
                    break 'outer;
                }
            }
        }
    }
    assert_eq!(added.len(), 2, "sample graph is not complete");
    let g1 = CsrGraph::from_edges(g0.n(), &edges).unwrap();
    let touched = NodeSet::from_nodes(
        g0.n(),
        [dropped]
            .into_iter()
            .chain(added)
            .flat_map(|(u, v)| [NodeId(u), NodeId(v)]),
    );

    for shards in SHARDS {
        for threads in THREADS {
            for range in tile(r, shards) {
                let mut owned = WalkIndex::build_layer_range(&g0, l, range, seed, threads);
                let path = dir.join(format!("shard-{}.rwdidx", range.start()));
                owned.save(&path).unwrap();
                owned.refresh(&g1, &touched, threads);

                let mut mapped = WalkIndex::open_mapped(&path).unwrap();
                assert_eq!(mapped.mapped_layers(), range.len());
                let mapped_before = mapped.mapped_bytes();
                mapped.refresh(&g1, &touched, threads);
                assert_eq!(
                    mapped, owned,
                    "overlaid refresh drifted at shards={shards} threads={threads} {range:?}"
                );
                assert_eq!(
                    mapped.mapped_layers(),
                    range.len(),
                    "layer bases stay mapped under their overlays"
                );
                // The aggregate pair is the only column a refresh writes
                // whole; every layer base keeps its mapped bytes.
                assert_eq!(mapped.mapped_bytes(), mapped_before - 16 * g0.n());
                assert_eq!(
                    mapped.heap_bytes() + mapped.mapped_bytes(),
                    owned.heap_bytes(),
                    "the heap holds only what the owned refresh wrote beside its bases"
                );
                assert_eq!(
                    mapped,
                    WalkIndex::build_layer_range(&g1, l, range, seed, threads),
                    "maintained shard != from-scratch build on the new graph"
                );
            }
        }
    }
    std::fs::remove_dir_all(&dir).ok();
}
