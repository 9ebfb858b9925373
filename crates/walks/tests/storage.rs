//! Corpus tests for the RWDIDX4 index format and the zero-copy open.
//!
//! Three claims are pinned here. **Round trip:** files written by `save()`
//! deserialize-load to the same bits `open_mapped` serves in place, for
//! monolithic indexes and layer-range shards alike. **Rejection:** a
//! truncated, misaligned or bit-rotted file, and a checksum-valid file
//! holding an out-of-range id, hop or aggregate, fails with a *named* error
//! on every open path — never a panic, never a silently wrong index (the
//! index module's unit tests pin header corruption and the retired
//! RWDIDX1/2/3 magics on every decoder). **Bounded load memory:** the
//! deserializing open's peak heap, counted by this binary's allocator,
//! stays within 1.25× the index it produces.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

use rwd_graph::{CsrGraph, NodeId};
use rwd_walks::{inspect_index_file, LayerRange, NodeSet, WalkIndex};

/// The system allocator, charging each thread for the bytes it allocates
/// and frees, so a measurement on one thread ignores tests running on
/// others.
struct Counting;

thread_local! {
    /// Heap bytes this thread holds (its allocations minus its frees), and
    /// their high-water mark since the last [`heap_peak_from_here`].
    static HELD: Cell<(isize, isize)> = const { Cell::new((0, 0)) };
}

fn charge(bytes: isize) {
    // A thread being torn down has no counter left; its frees go uncounted.
    let _ = HELD.try_with(|h| {
        let (held, peak) = h.get();
        h.set((held + bytes, peak.max(held + bytes)));
    });
}

// SAFETY: every call forwards to `System` unchanged; the counter neither
// allocates nor touches the memory.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc(layout);
        if !p.is_null() {
            charge(layout.size() as isize);
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc_zeroed(layout);
        if !p.is_null() {
            charge(layout.size() as isize);
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
        charge(-(layout.size() as isize));
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let p = System.realloc(ptr, layout, new_size);
        if !p.is_null() {
            // Charged as a move: both blocks count until the old one goes.
            charge(new_size as isize);
            charge(-(layout.size() as isize));
        }
        p
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// Runs `f` and returns its output with the most heap this thread held
/// above its starting point while `f` ran.
fn heap_peak_from_here<T>(f: impl FnOnce() -> T) -> (T, usize) {
    let start = HELD.with(|h| {
        let (held, _) = h.get();
        h.set((held, held));
        held
    });
    let out = f();
    let (_, peak) = HELD.with(Cell::get);
    (out, (peak - start) as usize)
}

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

/// The bounded-peak claim behind the deserializing open: for the one-worker
/// load the bound is defined at, the heap the load holds at its peak —
/// the columns it keeps plus the layer it is transposing — stays within
/// 1.25× the index it produces. That load runs inline on this thread, so
/// the per-thread count sees all of it and nothing from other tests. The
/// file's bytes come from a map where the host maps the file, which holds
/// the same page-cache pages a read of the file would fill and no heap;
/// elsewhere the load drops its heap read of the file before it copies
/// any layer, so the same bound holds. The fixture is past
/// the load's work gate, so 2 and 8 workers take the multi-part path,
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

    let (loaded, peak) = heap_peak_from_here(|| WalkIndex::load_with_threads(&p, 1).unwrap());
    assert_eq!(loaded, idx);
    let ratio = peak as f64 / idx.memory_bytes() as f64;
    println!(
        "one-worker load peaked at {peak} heap bytes for a {}-byte index ({ratio:.3}x)",
        idx.memory_bytes()
    );
    assert!(ratio <= 1.25, "the load peaked at {ratio:.3}x the index");
    for threads in [2, 8] {
        let loaded = WalkIndex::load_with_threads(&p, threads).unwrap();
        assert!(loaded == idx, "a {threads}-worker load drifted");
    }

    std::fs::remove_dir_all(&dir).ok();
}

/// Where each section of an RWDIDX4 file starts, read from its header the
/// way the format lays them out: per layer the inverted offsets, ids and
/// hops, then the forward ones, each padded to 8 bytes; then the per-node
/// counts and hop sums.
struct Sections {
    n: usize,
    l: u16,
    /// Per layer: `[offsets, ids, hops, fwd_offsets, fwd_ids, fwd_hops]`.
    layers: Vec<[usize; 6]>,
    counts: usize,
    hop_sums: usize,
}

impl Sections {
    fn of(bytes: &[u8]) -> Sections {
        let field = |i: usize| u64::from_le_bytes(bytes[8 + 8 * i..16 + 8 * i].try_into().unwrap());
        let (n, l, r) = (field(0) as usize, field(1) as u16, field(2) as usize);
        let mut at = 8 * (7 + r);
        let mut claim = |len: usize| {
            let start = at;
            at += len.next_multiple_of(8);
            start
        };
        let layers = (0..r)
            .map(|i| {
                let e = field(6 + i) as usize;
                [4 * (n + 1), 4 * e, 2 * e, 4 * (n + 1), 4 * e, 2 * e].map(&mut claim)
            })
            .collect();
        let (counts, hop_sums) = (claim(8 * n), claim(8 * n));
        assert_eq!(at + 4, bytes.len(), "the sections tile the file");
        Sections {
            n,
            l,
            layers,
            counts,
            hop_sums,
        }
    }
}

fn u64_at(bytes: &[u8], at: usize) -> u64 {
    u64::from_le_bytes(bytes[at..at + 8].try_into().unwrap())
}

/// Writes `bytes` to `path` under a freshly computed CRC-32 trailer, so
/// only the content checks can refuse them.
fn write_resealed(path: &Path, mut bytes: Vec<u8>) {
    let content = bytes.len() - 4;
    let crc = rwd_walks::crc::crc32(&bytes[..content]);
    bytes[content..].copy_from_slice(&crc.to_le_bytes());
    std::fs::write(path, bytes).unwrap();
}

/// A checksum-valid file whose content is out of range — an id, a hop or
/// an aggregate no build can write — is refused by name by both opens.
/// Unchecked, the first case opens mapped and the first
/// `estimate_hit_times` panics indexing past `n`. The larger
/// fixture is past the sweep's work gate, so the sweep runs in parts there
/// and the damage sits in the last one; of two faults, the first in file
/// order is named.
#[test]
fn checksum_valid_out_of_range_content_is_refused_by_name_on_both_opens() {
    let dir = tmp_dir("content");
    let p = dir.join("damaged.rwdidx");
    for (nodes, r) in [(200, 2), (2000, 4)] {
        let g = rwd_graph::generators::barabasi_albert(nodes, 3, 17).unwrap();
        let idx = WalkIndex::build(&g, 6, r, 99);
        let parts = idx.n() + idx.total_postings() >= rwd_walks::parallel::MIN_PARALLEL_SWEEP_WORK;
        assert_eq!(
            parts,
            nodes == 2000,
            "only the larger fixture is swept in parts"
        );
        let path = dir.join("mono.rwdidx");
        idx.save(&path).unwrap();
        let pristine = std::fs::read(&path).unwrap();
        let at = Sections::of(&pristine);
        let (n, l) = (at.n as u32, at.l);
        let [_, ids, hops, _, fwd_ids, fwd_hops] = at.layers[r - 1];
        let v = (0..at.n)
            .find(|&v| u64_at(&pristine, at.counts + 8 * v) > 0)
            .expect("some node has postings");
        let count = u64_at(&pristine, at.counts + 8 * v);

        let id = |at: usize, id: u32| (at, id.to_le_bytes().to_vec());
        let hop = |at: usize, hop: u16| (at, hop.to_le_bytes().to_vec());
        let node = |at: usize, value: u64| (at + 8 * v, value.to_le_bytes().to_vec());
        let ids_out = "posting id out of range";
        let hops_out = "hop weight outside 1..=L";
        let cases = [
            ("inverted id 1,000,000", vec![id(ids, 1_000_000)], ids_out),
            ("forward id n", vec![id(fwd_ids, n)], ids_out),
            ("inverted hop 0", vec![hop(hops, 0)], hops_out),
            ("inverted hop L + 1", vec![hop(hops, l + 1)], hops_out),
            ("forward hop 0", vec![hop(fwd_hops, 0)], hops_out),
            ("forward hop L + 1", vec![hop(fwd_hops, l + 1)], hops_out),
            (
                "hop sum above L x count",
                vec![node(at.hop_sums, l as u64 * count + 1)],
                "aggregate hop sum outside",
            ),
            (
                "counts summing past the entries",
                vec![node(at.counts, count + 1)],
                "aggregate posting counts disagree with the entry table",
            ),
            (
                "a first-layer id, then a last-layer hop",
                vec![id(at.layers[0][1], n), hop(hops, 0)],
                ids_out,
            ),
        ];
        let open_errors = |p: &Path| {
            let mut errs = vec![
                WalkIndex::load(p).unwrap_err(),
                WalkIndex::load_with_threads(p, 4).unwrap_err(),
            ];
            if mapped_path_available() {
                errs.push(WalkIndex::open_mapped(p).unwrap_err());
            }
            errs
        };
        for (what, edits, want) in cases {
            let what = format!("{nodes} nodes, {what}");
            let mut bytes = pristine.clone();
            for (pos, value) in edits {
                bytes[pos..pos + value.len()].copy_from_slice(&value);
            }
            write_resealed(&p, bytes.clone());
            for err in open_errors(&p) {
                assert_eq!(err.kind(), std::io::ErrorKind::InvalidData, "{what}: {err}");
                assert!(err.to_string().contains(want), "{what}: {err}");
            }
            // The same damage under the stale trailer is named as rot first.
            std::fs::write(&p, &bytes).unwrap();
            for err in open_errors(&p) {
                assert!(
                    err.to_string().contains("content checksum mismatch"),
                    "{what} under a stale trailer: {err}"
                );
            }
        }

        // The pristine bytes, resealed, still open to the built index.
        write_resealed(&p, pristine);
        assert_eq!(WalkIndex::load_with_threads(&p, 4).unwrap(), idx);
        if mapped_path_available() {
            assert_eq!(WalkIndex::open_mapped(&p).unwrap(), idx);
        }
    }

    // An empty file is no index at all.
    std::fs::write(&p, b"").unwrap();
    for err in [
        WalkIndex::load(&p).unwrap_err(),
        inspect_index_file(&p).unwrap_err(),
    ] {
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData, "{err}");
        assert!(err.to_string().contains("bad magic"), "{err}");
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
