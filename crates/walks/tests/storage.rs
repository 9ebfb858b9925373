//! Corpus tests for the RWDIDX4 index format and the zero-copy open.
//!
//! Three claims are pinned here. **Round trip:** files written by `save()`
//! deserialize-load to the same bits `open_mapped` serves in place, for
//! monolithic indexes and layer-range shards alike. **Rejection:** a
//! truncated, misaligned or bit-rotted file fails with a *named* error on
//! every open path — never a panic, never a silently wrong index (the
//! index module's unit tests pin header corruption and the retired
//! RWDIDX1/2/3 magics on every decoder). **Bounded load memory:**
//! the deserializing open's transient high-water mark stays under a
//! quarter of the final index footprint, so peak RSS during a load is
//! ≤ 1.25× the index it produces.

use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};

use rwd_graph::{CsrGraph, NodeId};
use rwd_walks::{inspect_index_file, LayerRange, NodeSet, WalkIndex};

static UNIQ: AtomicU64 = AtomicU64::new(0);

fn tmp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "rwd-storage-{tag}-{}-{}",
        std::process::id(),
        UNIQ.fetch_add(1, Ordering::Relaxed)
    ));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// True when this host has the zero-copy path at all.
fn mapped_path_available() -> bool {
    cfg!(unix) && cfg!(target_endian = "little")
}

/// A small deterministic graph with some structure to walk.
fn sample_graph() -> CsrGraph {
    rwd_graph::generators::barabasi_albert(60, 3, 11).unwrap()
}

#[test]
fn v4_load_and_mapped_open_are_bit_identical_to_the_built_index() {
    let g = sample_graph();
    let idx = WalkIndex::build(&g, 6, 8, 5);
    let dir = tmp_dir("v4");
    let path = dir.join("mono.rwdidx");
    idx.save(&path).unwrap();

    // Deserialize path: every column back on the heap, same bits.
    let loaded = WalkIndex::load(&path).unwrap();
    assert_eq!(loaded, idx);
    assert_eq!(loaded.mapped_bytes(), 0);

    let info = inspect_index_file(&path).unwrap();
    assert_eq!(info.version, 4);
    assert_eq!(
        (info.n, info.l, info.layer_count, info.layer_base),
        (60, 6, 8, 0)
    );
    assert_eq!(info.section_align, 8);
    assert!(info.crc_ok);
    assert_eq!(info.total_postings, idx.total_postings() as u64);

    if !mapped_path_available() {
        std::fs::remove_dir_all(&dir).ok();
        return;
    }

    // Zero-copy path: same bits by value, columns live in the map.
    let mapped = WalkIndex::open_mapped(&path).unwrap();
    assert_eq!(mapped, idx);
    assert_eq!(mapped.mapped_layers(), idx.r());
    assert!(mapped.mapped_bytes() > 0, "postings should live in the map");
    assert_eq!(
        mapped.heap_bytes(),
        0,
        "a fresh whole-file mapped open owns no column bytes"
    );
    assert_eq!(
        mapped.memory_bytes(),
        mapped.heap_bytes() + mapped.mapped_bytes()
    );

    // Round-trip: re-saving the mapped index reproduces the exact file.
    let resaved = dir.join("resaved.rwdidx");
    mapped.save(&resaved).unwrap();
    assert_eq!(
        std::fs::read(&path).unwrap(),
        std::fs::read(&resaved).unwrap(),
        "save of a mapped index must be byte-identical to the source file"
    );

    std::fs::remove_dir_all(&dir).ok();
}

/// Layer-range shards round-trip the way durable snapshots store them:
/// each shard saved to its own file by `build_layer_range(..).save(..)`,
/// reopened by `load` and `open_mapped`, with its layer base intact.
#[test]
fn v4_layer_range_opens_match_build_layer_range() {
    let g = sample_graph();
    let dir = tmp_dir("range");
    for range in LayerRange::partition(7, 3) {
        let built = WalkIndex::build_layer_range(&g, 4, range, 21, 0);
        let path = dir.join(format!("shard-{}.rwdidx", range.start()));
        built.save(&path).unwrap();

        assert_eq!(WalkIndex::load(&path).unwrap(), built);
        let info = inspect_index_file(&path).unwrap();
        assert_eq!(
            (info.layer_base, info.layer_count),
            (range.start() as u64, range.len() as u64)
        );
        if mapped_path_available() {
            let mapped = WalkIndex::open_mapped(&path).unwrap();
            assert_eq!(mapped, built);
            assert_eq!(mapped.layer_range(), range);
            assert_eq!(mapped.mapped_layers(), range.len());
        }
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn mapped_open_rejects_non_v4_files_by_name() {
    if !mapped_path_available() {
        return;
    }
    let g = sample_graph();
    let idx = WalkIndex::build(&g, 3, 4, 9);
    let dir = tmp_dir("reject");

    // What save() writes is V4 and opens in place.
    let p4 = dir.join("v4.rwdidx");
    idx.save(&p4).unwrap();
    assert_eq!(WalkIndex::open_mapped(&p4).unwrap(), idx);

    // The retired layouts are named, whatever payload follows the magic.
    for old in ["RWDIDX1", "RWDIDX2", "RWDIDX3"] {
        let p = dir.join(format!("{old}.rwdidx"));
        std::fs::write(&p, format!("{old}\0some old payload")).unwrap();
        let err = WalkIndex::open_mapped(&p).unwrap_err();
        assert!(err.to_string().contains(old), "{err}");
    }
    // Arbitrary bytes are named as not an index at all.
    let junk = dir.join("junk.rwdidx");
    std::fs::write(&junk, b"definitely not an index").unwrap();
    let err = WalkIndex::open_mapped(&junk).unwrap_err();
    assert!(err.to_string().contains("bad magic"), "{err}");

    std::fs::remove_dir_all(&dir).ok();
}

/// Every structural damage mode of a V4 file yields the same named error
/// on the deserializing and (where available) the mapped open path.
#[test]
fn damaged_v4_files_are_rejected_by_name_on_every_open_path() {
    let g = sample_graph();
    let idx = WalkIndex::build(&g, 5, 6, 13);
    let dir = tmp_dir("damage");
    let path = dir.join("mono.rwdidx");
    idx.save(&path).unwrap();
    let pristine = std::fs::read(&path).unwrap();

    let open_errors = |p: &PathBuf| -> Vec<String> {
        let mut errs = vec![WalkIndex::load(p).unwrap_err().to_string()];
        if mapped_path_available() {
            errs.push(WalkIndex::open_mapped(p).unwrap_err().to_string());
        }
        errs
    };

    // Cut inside the fixed header: truncated.
    let p = dir.join("header-cut.rwdidx");
    std::fs::write(&p, &pristine[..30]).unwrap();
    for e in open_errors(&p) {
        assert!(e.contains("truncated"), "{e}");
    }

    // Cut inside the sections: the tiling no longer accounts for the file.
    let p = dir.join("tail-cut.rwdidx");
    std::fs::write(&p, &pristine[..pristine.len() - 9]).unwrap();
    for e in open_errors(&p) {
        assert!(e.contains("size mismatch before checksum trailer"), "{e}");
    }

    // Header claims a section alignment this build does not read.
    let p = dir.join("misaligned.rwdidx");
    let mut bytes = pristine.clone();
    bytes[48..56].copy_from_slice(&4u64.to_le_bytes());
    std::fs::write(&p, &bytes).unwrap();
    for e in open_errors(&p) {
        assert!(e.contains("unsupported section alignment"), "{e}");
    }

    // Entry table claims a layer bigger than the file.
    let p = dir.join("huge-layer.rwdidx");
    let mut bytes = pristine.clone();
    bytes[56..64].copy_from_slice(&(1u64 << 30).to_le_bytes());
    std::fs::write(&p, &bytes).unwrap();
    for e in open_errors(&p) {
        assert!(e.contains("exceeds file size"), "{e}");
    }

    // A flipped payload bit: structure intact, checksum names the rot —
    // and inspect still reports the header facts with `crc_ok: false`.
    let p = dir.join("bitrot.rwdidx");
    let mut bytes = pristine.clone();
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0x01;
    std::fs::write(&p, &bytes).unwrap();
    for e in open_errors(&p) {
        assert!(e.contains("content checksum mismatch"), "{e}");
    }
    let info = inspect_index_file(&p).unwrap();
    assert!(!info.crc_ok, "inspect must notice the rot");
    assert_eq!((info.version, info.n, info.layer_count), (4, 60, 6));

    std::fs::remove_dir_all(&dir).ok();
}

/// The bounded-peak claim behind the deserializing open: transient buffers
/// (CRC chunk + per-worker section buffer + transposition staging) stay
/// under a quarter of the final index, i.e. peak RSS ≤ 1.25× the loaded
/// index, for the one-worker load the bound is defined at. The fixture is
/// past the load's work gate, so 2 and 8 workers take the multi-part path,
/// which must land on the same index.
#[test]
fn deserializing_load_peak_memory_is_bounded() {
    let g = rwd_graph::generators::barabasi_albert(2000, 6, 3).unwrap();
    let idx = WalkIndex::build(&g, 8, 6, 4242);
    assert!(
        idx.n() + idx.total_postings() >= rwd_walks::parallel::MIN_PARALLEL_SWEEP_WORK,
        "fixture must cross the load's work gate"
    );
    let dir = tmp_dir("peak");
    let p = dir.join("mono.rwdidx");
    idx.save(&p).unwrap();

    let (loaded, stats) = WalkIndex::load_with_stats(&p, 1).unwrap();
    assert_eq!(loaded, idx);
    assert!(
        stats.transient_peak_bytes <= idx.memory_bytes() / 4,
        "load held {} transient bytes against a {}-byte index",
        stats.transient_peak_bytes,
        idx.memory_bytes()
    );
    for threads in [2, 8] {
        let (loaded, _) = WalkIndex::load_with_stats(&p, threads).unwrap();
        assert!(loaded == idx, "a {threads}-worker load drifted");
    }

    std::fs::remove_dir_all(&dir).ok();
}

/// Overlays over mapped bases: refreshing a mapped index writes the rows
/// the batch changed into heap overlays, leaves every layer base in the
/// map, and lands on bits identical to refreshing an owned index —
/// overlaid-over-the-map ≡ overlaid-over-owned.
#[test]
fn refresh_overlays_mapped_bases_and_matches_owned_refresh() {
    if !mapped_path_available() {
        return;
    }
    // Large enough that one edge changes a few rows of each layer, well
    // under the fold share (on a 60-node graph it folds some views).
    let g0 = rwd_graph::generators::barabasi_albert(1000, 3, 11).unwrap();
    let idx = WalkIndex::build(&g0, 5, 6, 31);
    let dir = tmp_dir("overlay");
    let path = dir.join("mono.rwdidx");
    idx.save(&path).unwrap();

    // The next graph: one fresh edge between low-degree endpoints.
    let mut edges: Vec<(u32, u32)> = g0.edges().map(|(u, v)| (u.raw(), v.raw())).collect();
    let low = |u: u32| g0.degree(NodeId(u)) == 3;
    let extra = (0..g0.n() as u32)
        .flat_map(|u| ((u + 1)..g0.n() as u32).map(move |v| (u, v)))
        .find(|&(u, v)| low(u) && low(v) && !g0.has_edge(NodeId(u), NodeId(v)))
        .expect("sample graph has two unlinked degree-3 nodes");
    edges.push(extra);
    let g1 = CsrGraph::from_edges(g0.n(), &edges).unwrap();
    let touched = NodeSet::from_nodes(g0.n(), [NodeId(extra.0), NodeId(extra.1)]);

    let mut owned = idx.clone();
    owned.refresh(&g1, &touched, 0);

    let mut mapped = WalkIndex::open_mapped(&path).unwrap();
    assert_eq!(mapped.mapped_layers(), idx.r());
    let mapped_before = mapped.mapped_bytes();
    mapped.refresh(&g1, &touched, 0);
    assert_eq!(
        mapped, owned,
        "overlay-over-map refresh drifted from owned refresh"
    );
    assert_eq!(
        mapped.mapped_layers(),
        idx.r(),
        "every layer base stays mapped under its overlay"
    );
    // The aggregate pair is the only column a refresh writes whole.
    let aggregates = 16 * g0.n();
    assert_eq!(mapped.mapped_bytes(), mapped_before - aggregates);
    assert_eq!(
        mapped.heap_bytes() + mapped.mapped_bytes(),
        owned.heap_bytes(),
        "the heap holds only what the owned refresh wrote beside its bases"
    );
    assert!(mapped.heap_bytes() > aggregates, "no overlay was written");
    assert_eq!(mapped, WalkIndex::build(&g1, 5, 6, 31));

    std::fs::remove_dir_all(&dir).ok();
}
