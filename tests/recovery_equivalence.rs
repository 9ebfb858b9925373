//! The durability acceptance suite: **crash-exact recovery**.
//!
//! A durable engine journals every batch (fsync'd) before any shard
//! commits and snapshots at a configurable cadence. The contract proved
//! here: for a crash at *any* byte of the journal — every record
//! boundary, every mid-record truncation, a bit flip in the unsynced
//! tail — `StreamEngine::open_durable_with` reconstructs an engine **bit-identical**
//! to the live engine that wrote the surviving record prefix: same seeds,
//! same gain trace, same objective, same per-shard maintained indexes,
//! same point-query answers. A bit flip *before* the tail is committed
//! history going unreadable, and recovery must refuse it by name
//! (`CorruptJournal`) rather than silently resurrect a wrong state.
//!
//! Why exactness holds: the engine state after any batch prefix is a pure
//! function of `(base graph, batches, config)`, the journal stores the
//! canonicalized batches verbatim, and replay runs the normal apply path
//! — so surviving-prefix replay *is* the surviving-prefix engine.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

use proptest::prelude::*;
use proptest::Strategy as PropStrategy;
use rwd::core::greedy::approx::GainRule;
use rwd::datasets::temporal::trace_weight;
use rwd::graph::weighted::weighted_twin;
use rwd::prelude::*;
use rwd::stream::{DurabilityConfig, OpenMode, StreamError};

const THREADS: [usize; 3] = [1, 2, 8];
const SHARDS: [usize; 3] = [1, 2, 4];

static UNIQ: AtomicU64 = AtomicU64::new(0);

fn tmp_dir(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!(
        "rwd-recovery-eq-{tag}-{}-{}",
        std::process::id(),
        UNIQ.fetch_add(1, Ordering::Relaxed)
    ))
}

/// A random churn instance (same shape as the shard_equivalence suite).
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

/// Bit-level fingerprint of everything an engine answers: seeds, gain
/// trace, objective, and the full point-query surface of the snapshot.
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

/// Recursive data-dir copy, so each kill point mutates its own clone.
fn copy_dir(src: &Path, dst: &Path) {
    std::fs::create_dir_all(dst).unwrap();
    for entry in std::fs::read_dir(src).unwrap() {
        let e = entry.unwrap();
        let to = dst.join(e.file_name());
        if e.file_type().unwrap().is_dir() {
            copy_dir(&e.path(), &to);
        } else {
            std::fs::copy(e.path(), &to).unwrap();
        }
    }
}

/// The (single, cadence-0) journal file of a data dir.
fn journal_path(dir: &Path) -> PathBuf {
    let mut found: Vec<PathBuf> = std::fs::read_dir(dir)
        .unwrap()
        .filter_map(|e| {
            let p = e.unwrap().path();
            let name = p.file_name().unwrap().to_string_lossy().into_owned();
            (name.starts_with("journal-") && name.ends_with(".wal")).then_some(p)
        })
        .collect();
    found.sort();
    found.pop().expect("data dir holds a journal")
}

/// Byte offsets of every record boundary in a journal (offset 0 of the
/// record stream is the 16-byte header; `boundaries[i]` = end of record
/// `i-1` = the file length at which exactly `i` records survive).
fn record_boundaries(path: &Path) -> Vec<usize> {
    let buf = std::fs::read(path).unwrap();
    let mut offs = vec![16usize];
    let mut pos = 16usize;
    while pos + 8 <= buf.len() {
        let len = u32::from_le_bytes(buf[pos..pos + 4].try_into().unwrap()) as usize;
        if pos + 8 + len > buf.len() {
            break;
        }
        pos += 8 + len;
        offs.push(pos);
    }
    assert_eq!(
        *offs.last().unwrap(),
        buf.len(),
        "journal ends on a boundary"
    );
    offs
}

/// Builds the reference engine for a batch prefix from scratch.
fn reference_after(
    g0: &CsrGraph,
    weighted: bool,
    cfg: StreamConfig,
    shards: usize,
    batches: &[EdgeBatch],
) -> StreamEngine {
    let mut eng = if weighted {
        let w0 = weighted_twin(g0, cfg.seed).expect("twin");
        StreamEngine::with_shards_weighted(w0, cfg, shards)
    } else {
        StreamEngine::with_shards(g0.clone(), cfg, shards)
    }
    .expect("valid config");
    for b in batches {
        eng.apply(b).expect("resolved batches are valid");
    }
    eng
}

/// Asserts a recovered engine is bitwise equal to the reference: the full
/// query fingerprint plus every per-shard maintained index.
fn assert_recovered_equals(recovered: &StreamEngine, reference: &StreamEngine, what: &str) {
    assert_eq!(
        fingerprint(recovered),
        fingerprint(reference),
        "{what}: recovered answers drifted from the surviving-prefix engine"
    );
    let ri = recovered.shard_indexes();
    let fi = reference.shard_indexes();
    assert_eq!(ri.len(), fi.len(), "{what}: shard count drifted");
    for (s, (a, b)) in ri.iter().zip(fi.iter()).enumerate() {
        assert!(
            **a == **b,
            "{what}: recovered shard {s} index != surviving-prefix index"
        );
    }
}

/// One absent pair of the engine's current graph, as a follow-up batch.
fn followup_batch(engine: &StreamEngine, weighted: bool, seed: u64, t: u64) -> Option<EdgeBatch> {
    let n = if weighted {
        engine.weighted_graph()?.n()
    } else {
        engine.graph()?.n()
    } as u32;
    let absent = (0..n)
        .flat_map(|u| ((u + 1)..n).map(move |v| (u, v)))
        .find(|&(u, v)| {
            if weighted {
                !engine
                    .weighted_graph()
                    .expect("weighted engine")
                    .has_edge(NodeId(u), NodeId(v))
            } else {
                !engine
                    .graph()
                    .expect("unweighted engine")
                    .has_edge(NodeId(u), NodeId(v))
            }
        })?;
    let mut b = EdgeBatch::new(t);
    b.insertions
        .push((absent.0, absent.1, trace_weight(seed, absent.0, absent.1)));
    Some(b)
}

/// The kill-point sweep shared by the unweighted and weighted suites.
fn check_every_kill_point(
    g0: &CsrGraph,
    batches: &[EdgeBatch],
    weighted: bool,
    cfg: StreamConfig,
    shards: usize,
) {
    let dir = tmp_dir("trace");
    let engine = if weighted {
        let w0 = weighted_twin(g0, cfg.seed).expect("twin");
        StreamEngine::with_shards_weighted(w0, cfg, shards)
    } else {
        StreamEngine::with_shards(g0.clone(), cfg, shards)
    }
    .expect("valid config");
    // Cadence 0: the journal keeps every record, so each record boundary
    // is a distinct crash state over the same base snapshot.
    let mut durable = engine
        .create_durable(&dir, DurabilityConfig { snapshot_every: 0 })
        .unwrap();
    for b in batches {
        durable.apply(b).expect("resolved batches are valid");
    }
    let live = fingerprint(&durable);
    drop(durable);

    let journal = journal_path(&dir);
    let boundaries = record_boundaries(&journal);
    let records = boundaries.len() - 1;
    assert_eq!(records, batches.len(), "one journal record per batch");

    // Kill at every record boundary: exactly the first `i` batches
    // survive, and recovery reports a clean (un-torn) journal.
    for (i, &cut) in boundaries.iter().enumerate() {
        let killed = tmp_dir("cut");
        copy_dir(&dir, &killed);
        let jp = journal_path(&killed);
        std::fs::OpenOptions::new()
            .write(true)
            .open(&jp)
            .unwrap()
            .set_len(cut as u64)
            .unwrap();
        let (rec, report) =
            StreamEngine::open_durable_with(&killed, DurabilityConfig::default(), OpenMode::Mapped)
                .unwrap();
        assert!(
            report.torn_tail.is_none(),
            "boundary cut {cut} misread as torn: {:?}",
            report.torn_tail
        );
        assert_eq!(report.recovered_epoch, i as u64);
        let reference = reference_after(g0, weighted, cfg, shards, &batches[..i]);
        assert_recovered_equals(&rec, &reference, &format!("boundary {i}"));
        drop(rec);
        std::fs::remove_dir_all(&killed).ok();
    }

    // Kill mid-record (a torn append): the partial record is truncated,
    // the prefix before it survives.
    for (i, w) in boundaries.windows(2).enumerate() {
        let cut = w[0] + (w[1] - w[0]) / 2;
        assert!(cut > w[0] && cut < w[1]);
        let killed = tmp_dir("torn");
        copy_dir(&dir, &killed);
        let jp = journal_path(&killed);
        std::fs::OpenOptions::new()
            .write(true)
            .open(&jp)
            .unwrap()
            .set_len(cut as u64)
            .unwrap();
        let (rec, report) =
            StreamEngine::open_durable_with(&killed, DurabilityConfig::default(), OpenMode::Mapped)
                .unwrap();
        assert!(report.torn_tail.is_some(), "mid-record cut {cut} not torn");
        assert_eq!(report.recovered_epoch, i as u64);
        let reference = reference_after(g0, weighted, cfg, shards, &batches[..i]);
        assert_recovered_equals(&rec, &reference, &format!("torn record {i}"));

        // Recovery is not a dead end: the reopened journal accepts the
        // next batch and stays bit-exact with the reference.
        let mut rec = rec;
        let mut reference = reference;
        if let Some(extra) = followup_batch(&reference, weighted, cfg.seed, 1_000 + i as u64) {
            rec.apply(&extra).expect("follow-up batch applies");
            reference.apply(&extra).expect("follow-up batch applies");
            assert_recovered_equals(
                &rec,
                &reference,
                &format!("post-recovery batch after torn record {i}"),
            );
        }
        drop(rec);
        std::fs::remove_dir_all(&killed).ok();
    }

    // A bit flip in the final record is an unsynced-tail corruption: the
    // record is discarded (torn) and the prefix survives.
    {
        let killed = tmp_dir("flip-tail");
        copy_dir(&dir, &killed);
        let jp = journal_path(&killed);
        let mut buf = std::fs::read(&jp).unwrap();
        let off = boundaries[records - 1] + 9; // a payload byte of the last record
        buf[off] ^= 0x10;
        std::fs::write(&jp, &buf).unwrap();
        let (rec, report) =
            StreamEngine::open_durable_with(&killed, DurabilityConfig::default(), OpenMode::Mapped)
                .unwrap();
        assert!(
            report.torn_tail.is_some(),
            "tail bit flip not classified torn"
        );
        assert_eq!(report.recovered_epoch, (records - 1) as u64);
        let reference = reference_after(g0, weighted, cfg, shards, &batches[..records - 1]);
        assert_recovered_equals(&rec, &reference, "tail bit flip");
        drop(rec);
        std::fs::remove_dir_all(&killed).ok();
    }

    // A bit flip *before* the tail is unreadable committed history:
    // recovery must refuse by name, never reconstruct a wrong state.
    if records >= 2 {
        let killed = tmp_dir("flip-mid");
        copy_dir(&dir, &killed);
        let jp = journal_path(&killed);
        let mut buf = std::fs::read(&jp).unwrap();
        let off = boundaries[0] + 9; // a payload byte of the first record
        buf[off] ^= 0x10;
        std::fs::write(&jp, &buf).unwrap();
        match StreamEngine::open_durable_with(
            &killed,
            DurabilityConfig::default(),
            OpenMode::Mapped,
        ) {
            Err(StreamError::CorruptJournal(msg)) => {
                assert!(msg.contains("not a torn append"), "{msg}")
            }
            other => panic!("mid-journal bit flip must be CorruptJournal, got {other:?}"),
        }
        std::fs::remove_dir_all(&killed).ok();
    }

    // Untouched dir: full recovery equals the live engine it shadows —
    // through BOTH open paths. The zero-copy mapped open and the streaming
    // deserialize open must reconstruct the same bits before replaying the
    // same journal suffix.
    for mode in [OpenMode::Mapped, OpenMode::Deserialize] {
        let (rec, report) =
            StreamEngine::open_durable_with(&dir, DurabilityConfig::default(), mode).unwrap();
        assert!(report.torn_tail.is_none());
        assert_eq!(
            fingerprint(&rec),
            live,
            "full recovery ({mode:?} open) != live engine"
        );
        drop(rec);
    }
    std::fs::remove_dir_all(&dir).ok();
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Unweighted: crash-exact recovery at every kill point.
    #[test]
    fn recovery_is_crash_exact_unweighted(
        (g0, batches, l, r, seed) in churn_instance(),
        shard_pick in 0usize..3,
        thread_pick in 0usize..3,
    ) {
        prop_assume!(!batches.is_empty());
        let shards = SHARDS[shard_pick].min(r);
        let k = (g0.n() / 10).max(1);
        let cfg = StreamConfig {
            l, r, k, seed, rule: GainRule::HittingTime, threads: THREADS[thread_pick],
        };
        check_every_kill_point(&g0, &batches, false, cfg, shards);
    }

    /// Weighted twin: alias-table-driven walks recover bit-exactly too.
    #[test]
    fn recovery_is_crash_exact_weighted(
        (g0, batches, l, r, seed) in churn_instance(),
        shard_pick in 0usize..3,
        thread_pick in 0usize..3,
    ) {
        prop_assume!(!batches.is_empty());
        let shards = SHARDS[shard_pick].min(r);
        let k = (g0.n() / 10).max(1);
        let cfg = StreamConfig {
            l, r, k, seed, rule: GainRule::Coverage, threads: THREADS[thread_pick],
        };
        check_every_kill_point(&g0, &batches, true, cfg, shards);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// The full shard × thread grid, with snapshot cadence + compaction in
    /// play: recovery from the latest snapshot + journal suffix equals the
    /// live engine at shards {1,2,4} × threads {1,2,8}.
    #[test]
    fn recovery_grid_with_snapshot_cadence(
        (g0, batches, l, r, seed) in churn_instance(),
        cadence in 1u64..=2,
    ) {
        prop_assume!(!batches.is_empty());
        let k = (g0.n() / 10).max(1);
        for shards in SHARDS.into_iter().filter(|&s| s <= r) {
            for threads in THREADS {
                let cfg = StreamConfig {
                    l, r, k, seed, rule: GainRule::HittingTime, threads,
                };
                let dir = tmp_dir("grid");
                let engine = StreamEngine::with_shards(g0.clone(), cfg, shards).unwrap();
                let mut durable = engine
                    .create_durable(&dir, DurabilityConfig { snapshot_every: cadence })
                    .unwrap();
                for b in &batches {
                    durable.apply(b).expect("resolved batches are valid");
                }
                let live = fingerprint(&durable);
                drop(durable);

                let (rec, report) = StreamEngine::open_durable_with(
                    &dir,
                    DurabilityConfig { snapshot_every: cadence },
                    OpenMode::Mapped,
                )
                .unwrap();
                prop_assert!(report.torn_tail.is_none());
                prop_assert_eq!(
                    fingerprint(&rec), live,
                    "shards {} threads {} cadence {}: recovery != live engine",
                    shards, threads, cadence
                );
                // Cadence landed at least one mid-trace snapshot, so the
                // replay suffix must be shorter than the whole trace.
                prop_assert!(
                    report.snapshot_epoch >= (batches.len() as u64).saturating_sub(cadence),
                    "snapshot cadence {} did not advance the base epoch (got {})",
                    cadence, report.snapshot_epoch
                );
                drop(rec);
                std::fs::remove_dir_all(&dir).ok();
            }
        }
    }
}
