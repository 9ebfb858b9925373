//! Durability: write-ahead journal + periodic snapshots + crash-exact
//! recovery, as an optional part of [`StreamEngine`].
//!
//! A durable engine ([`StreamEngine::create_durable`],
//! [`StreamEngine::open_durable_with`]) owns a data directory with two
//! kinds of artifact:
//!
//! * `journal-<E>.wal` — the write-ahead batch journal based at snapshot
//!   epoch `E` (see [`crate::journal`] for the record format and the
//!   torn-tail rule). Every batch is appended and fsync'd **after** phase-1
//!   validation and **before** any shard commits, so the journal is always
//!   a durable prefix of the engine's committed history — a crash loses a
//!   batch entirely or not at all, never half of one.
//! * `snap-<E>/` — a full engine snapshot at epoch `E`: `graph.bin` (the
//!   canonical edge list, whose from-scratch rebuild is proven bitwise
//!   identical to the live CSR by the graph crate's own tests), one
//!   RWDIDX4 file per shard (reusing [`WalkIndex::save`], CRC-trailed),
//!   and `manifest.bin` written **last** — a snapshot without a valid
//!   manifest never existed. After a snapshot the journal rotates to the
//!   new base and older artifacts are compacted away.
//!
//! [`StreamEngine::open_durable_with`] recovers: the newest loadable
//! snapshot, then the journal suffix replayed through the normal apply path
//! (incremental refresh and warm seed maintenance included). Because every
//! transformation in the pipeline is bit-deterministic, the recovered
//! engine is **bitwise identical** to the live engine that wrote the
//! surviving prefix — the property `tests/recovery_equivalence.rs`
//! fault-injects at every record boundary, mid-record truncation, and
//! bit-flip. Seed-maintainer state is deliberately *not* serialized: a
//! cold bootstrap over the loaded tiling is bitwise equal to the warm state
//! (the maintainer's own proptested invariant), which keeps the snapshot
//! format small and honest.

use std::fs::File;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

use rwd_core::greedy::approx::GainRule;
use rwd_graph::weighted::WeightedCsrGraph;
use rwd_graph::{GraphBuilder, GraphKind, NodeId};
use rwd_walks::crc::crc32;
use rwd_walks::{LayerRange, WalkIndex};

use crate::batch::EdgeBatch;
use crate::engine::{self, EpochGraph, StreamConfig, StreamEngine};
use crate::journal::{self, BatchJournal};
use crate::{Result, StreamError};

const MANIFEST_MAGIC: &[u8; 8] = b"RWDSNP1\0";
const GRAPH_MAGIC: &[u8; 8] = b"RWDGRF1\0";

/// Durability policy of a durable [`StreamEngine`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct DurabilityConfig {
    /// Take a snapshot (and compact the journal) every this many applied
    /// non-empty batches; `0` disables periodic snapshots (journal-only —
    /// recovery then replays from the creation-time snapshot).
    pub snapshot_every: u64,
}

/// How [`StreamEngine::open_durable_with`] brings shard indexes back from
/// a snapshot.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum OpenMode {
    /// Zero-copy: RWDIDX4 shard files are `mmap(2)`-mapped in place
    /// ([`WalkIndex::open_mapped`]) — the first point query is answerable
    /// after a header walk and one CRC pass, no per-posting deserialize.
    /// Hosts without the mapped path (non-unix or big-endian) fall back to
    /// [`OpenMode::Deserialize`]. Journal replay then promotes exactly the
    /// layers it touches to the heap; recovered state stays bitwise equal
    /// to the deserializing open.
    Mapped,
    /// Parse every shard index into heap-owned columns
    /// ([`WalkIndex::load`]); higher open cost, no pinned file mappings.
    Deserialize,
}

/// What [`StreamEngine::open_durable_with`] did to get back to the live
/// state.
#[derive(Clone, Debug)]
pub struct RecoveryReport {
    /// Epoch of the snapshot recovery started from.
    pub snapshot_epoch: u64,
    /// Journal records replayed on top of the snapshot.
    pub epochs_replayed: u64,
    /// The epoch the recovered engine resumed at.
    pub recovered_epoch: u64,
    /// Why the journal tail was truncated, when it was (`None` = the
    /// journal ended cleanly on a record boundary).
    pub torn_tail: Option<String>,
    /// Wall time of the snapshot load (graph + shard indexes + bootstrap
    /// seed maintenance).
    pub snapshot_load_ms: f64,
    /// Wall time of the journal suffix replay.
    pub replay_ms: f64,
    /// Heap-owned walk-index column bytes after recovery (replay included).
    pub heap_bytes: usize,
    /// Still-mapped (zero-copy) walk-index column bytes after recovery —
    /// nonzero only for [`OpenMode::Mapped`] opens on hosts with the
    /// mapped path, and shrunk by whatever layers the journal replay
    /// promoted.
    pub mapped_bytes: usize,
}

/// The data-directory half of a durable [`StreamEngine`]: where it
/// journals and snapshots, and how many batches since the last snapshot.
#[derive(Debug)]
pub(crate) struct Durable {
    dir: PathBuf,
    journal: BatchJournal,
    dcfg: DurabilityConfig,
    since_snapshot: u64,
}

impl Durable {
    /// The write-ahead append [`StreamEngine::apply`] makes for a staged
    /// batch that will publish `epoch` over the current `graph`.
    pub(crate) fn append(
        &mut self,
        batch: &EdgeBatch,
        epoch: u64,
        graph: &EpochGraph,
    ) -> Result<()> {
        let undirected = match graph {
            EpochGraph::Unweighted(g) => g.kind() == GraphKind::Undirected,
            EpochGraph::Weighted(_) => true,
        };
        // Validation already passed on the staged graph, so
        // canonicalization cannot fail; the journaled record holds the
        // canonical edits (dedup is idempotent — replay stages the
        // identical delta).
        let appended = batch
            .dedup_edits(undirected)
            .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidInput, e.to_string()))
            .and_then(|(ins, del)| self.journal.append(epoch, batch.timestamp, &ins, &del));
        dio("write-ahead journal append", appended)
    }

    /// Snapshots `engine` at its current epoch, rotates the journal to the
    /// new base, and compacts older artifacts.
    fn snapshot(&mut self, engine: &StreamEngine) -> Result<u64> {
        let epoch = engine.epoch();
        save_snapshot(engine, &self.dir.join(format!("snap-{epoch}")))?;
        self.journal = dio(
            "journal rotate",
            BatchJournal::create(self.dir.join(format!("journal-{epoch}.wal")), epoch),
        )?;
        // Compaction. Best-effort: leftovers are harmless (recovery picks
        // the newest loadable snapshot and the newest journal base).
        for (e, p) in find_numbered(&self.dir, "snap-")? {
            if e < epoch {
                std::fs::remove_dir_all(&p).ok();
            }
        }
        for (e, p) in find_numbered(&self.dir, "journal-")? {
            if e < epoch {
                std::fs::remove_file(&p).ok();
            }
        }
        self.since_snapshot = 0;
        Ok(epoch)
    }
}

impl StreamEngine {
    /// Binds the engine to `dir`: writes the base snapshot at the current
    /// epoch and opens the journal there; every later
    /// [`StreamEngine::apply`] journals its batch first (an engine already
    /// bound elsewhere moves, leaving its old directory's history as it
    /// is). Rejects a directory that already holds durability artifacts —
    /// recover those with [`StreamEngine::open_durable_with`] instead of
    /// overwriting history.
    pub fn create_durable(mut self, dir: impl AsRef<Path>, dcfg: DurabilityConfig) -> Result<Self> {
        let dir = dir.as_ref().to_path_buf();
        dio("data dir create", std::fs::create_dir_all(&dir))?;
        if !find_numbered(&dir, "snap-")?.is_empty() || !find_numbered(&dir, "journal-")?.is_empty()
        {
            return Err(StreamError::InvalidConfig(format!(
                "data dir {} already holds durability artifacts; open_durable_with() recovers them",
                dir.display()
            )));
        }
        let epoch = self.epoch();
        save_snapshot(&self, &dir.join(format!("snap-{epoch}")))?;
        let journal = dio(
            "journal create",
            BatchJournal::create(dir.join(format!("journal-{epoch}.wal")), epoch),
        )?;
        publish_footprint(&self);
        self.durable = Some(Durable {
            dir,
            journal,
            dcfg,
            since_snapshot: 0,
        });
        Ok(self)
    }

    /// Recovers a durable engine from `dir`: loads the newest loadable
    /// snapshot (shard indexes placed as `mode` says), replays the journal
    /// suffix through the normal apply path, truncates a torn tail
    /// (reported, never fatal), and resumes journaling where the surviving
    /// history ends. Mid-journal corruption and unloadable snapshots fail
    /// with named errors instead of serving drifted state. Both modes
    /// recover the exact same state — the mode only chooses where the
    /// posting columns live (mapped file vs heap).
    pub fn open_durable_with(
        dir: impl AsRef<Path>,
        dcfg: DurabilityConfig,
        mode: OpenMode,
    ) -> Result<(Self, RecoveryReport)> {
        let dir = dir.as_ref().to_path_buf();
        let snaps = find_numbered(&dir, "snap-")?;
        if snaps.is_empty() {
            return Err(StreamError::NoSnapshot(dir));
        }
        // Newest loadable snapshot wins; a torn or rotted one falls back
        // to its predecessor (compaction keeps at most a crash-window's
        // worth of extras around).
        let load_start = Instant::now();
        let mut last_err = None;
        let mut loaded = None;
        for (epoch, path) in snaps.iter().rev() {
            match load_snapshot(path, mode) {
                Ok(engine) => {
                    loaded = Some((*epoch, engine));
                    break;
                }
                Err(e) => last_err = Some(e),
            }
        }
        let (snapshot_epoch, mut engine) = match loaded {
            Some(ok) => ok,
            None => return Err(last_err.expect("at least one snapshot was tried")),
        };
        let snapshot_load_ms = load_start.elapsed().as_secs_f64() * 1e3;

        let journals = find_numbered(&dir, "journal-")?;
        let replay_start = Instant::now();
        let (journal, epochs_replayed, torn_tail) = match journals.last() {
            None => {
                // Crash between base-snapshot write and journal creation:
                // the snapshot alone is the whole history.
                let j = dio(
                    "journal create",
                    BatchJournal::create(
                        dir.join(format!("journal-{snapshot_epoch}.wal")),
                        snapshot_epoch,
                    ),
                )?;
                (j, 0u64, None)
            }
            Some((base, path)) => {
                if *base > snapshot_epoch {
                    return Err(StreamError::CorruptJournal(format!(
                        "journal base epoch {base} is newer than the newest loadable \
                         snapshot (epoch {snapshot_epoch}); the intervening history is gone"
                    )));
                }
                let scan = journal::scan(path)?;
                let mut replayed = 0u64;
                for rec in &scan.records {
                    if rec.epoch <= snapshot_epoch {
                        continue;
                    }
                    let report = engine.apply(&rec.batch).map_err(|e| {
                        StreamError::CorruptJournal(format!(
                            "journaled batch for epoch {} failed to re-apply: {e}",
                            rec.epoch
                        ))
                    })?;
                    if report.epoch != rec.epoch {
                        return Err(StreamError::CorruptJournal(format!(
                            "replaying the record for epoch {} advanced the engine to \
                             epoch {} instead",
                            rec.epoch, report.epoch
                        )));
                    }
                    replayed += 1;
                }
                let j = dio(
                    "journal reopen",
                    BatchJournal::open_append(path, scan.valid_len),
                )?;
                (j, replayed, scan.torn_tail)
            }
        };
        let replay_ms = replay_start.elapsed().as_secs_f64() * 1e3;

        let metrics = crate::obs::durable_metrics();
        metrics.recoveries.inc();
        metrics.recovery_replayed_batches.add(epochs_replayed);
        metrics.recovery_ns.record_duration(load_start.elapsed());

        let (heap_bytes, mapped_bytes) = publish_footprint(&engine);
        let report = RecoveryReport {
            snapshot_epoch,
            epochs_replayed,
            recovered_epoch: engine.epoch(),
            torn_tail,
            snapshot_load_ms,
            replay_ms,
            heap_bytes,
            mapped_bytes,
        };
        engine.durable = Some(Durable {
            dir,
            journal,
            dcfg,
            since_snapshot: epochs_replayed,
        });
        Ok((engine, report))
    }

    /// Takes a snapshot at the current epoch, rotates the journal to the
    /// new base, and compacts: older snapshots and journal files are
    /// deleted once the new manifest is durable. Returns the snapshot
    /// epoch. An engine with no data dir refuses with
    /// [`StreamError::InvalidConfig`].
    pub fn snapshot_now(&mut self) -> Result<u64> {
        let Some(mut durable) = self.durable.take() else {
            return Err(StreamError::InvalidConfig(
                "snapshot_now requires a durable engine (no data dir attached)".into(),
            ));
        };
        let taken = durable.snapshot(self);
        self.durable = Some(durable);
        taken
    }

    /// The durable tail of [`StreamEngine::apply`] after a batch committed:
    /// counts it toward the snapshot cadence and, when one is due, takes
    /// it (a failure is counted and retried at the next batch).
    pub(crate) fn snapshot_on_cadence(&mut self) {
        let Some(durable) = &mut self.durable else {
            return;
        };
        durable.since_snapshot += 1;
        if durable.dcfg.snapshot_every > 0
            && durable.since_snapshot >= durable.dcfg.snapshot_every
            && self.snapshot_now().is_err()
        {
            crate::obs::durable_metrics().snapshot_failures.inc();
        }
        // Commits may have promoted mapped layers to the heap; keep the
        // resident-vs-mapped gauges truthful.
        publish_footprint(self);
    }
}

/// Pushes the engine's resident-vs-mapped column split to the global
/// `rwd_storage_{heap,mapped}_bytes` gauges and returns it.
fn publish_footprint(engine: &StreamEngine) -> (usize, usize) {
    let (mut heap, mut mapped) = (0usize, 0usize);
    for idx in engine.shard_indexes() {
        heap += idx.heap_bytes();
        mapped += idx.mapped_bytes();
    }
    rwd_walks::storage::record_storage_footprint(heap, mapped);
    (heap, mapped)
}

/// Maps an I/O failure into the named durability error.
fn dio<T>(context: &str, r: std::io::Result<T>) -> Result<T> {
    r.map_err(|source| StreamError::Durability {
        context: context.into(),
        source,
    })
}

/// Lists `<prefix><number>` entries of `dir` (an optional `.wal` suffix is
/// stripped), sorted ascending by number.
fn find_numbered(dir: &Path, prefix: &str) -> Result<Vec<(u64, PathBuf)>> {
    let mut out = Vec::new();
    let entries = match std::fs::read_dir(dir) {
        Ok(e) => e,
        Err(ref e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(out),
        Err(e) => return dio("data dir list", Err(e)),
    };
    for entry in entries {
        let entry = dio("data dir list", entry)?;
        let name = entry.file_name();
        let Some(name) = name.to_str() else { continue };
        let Some(rest) = name.strip_prefix(prefix) else {
            continue;
        };
        let rest = rest.strip_suffix(".wal").unwrap_or(rest);
        if let Ok(number) = rest.parse::<u64>() {
            out.push((number, entry.path()));
        }
    }
    out.sort_unstable_by_key(|(n, _)| *n);
    Ok(out)
}

/// Serializes the full engine state into `snap_dir`: `graph.bin`, one
/// walk-index file per shard, then `manifest.bin` last (commit point).
/// Every file ends in a CRC-32 trailer and is fsync'd before the manifest
/// lands.
pub(crate) fn save_snapshot(engine: &StreamEngine, snap_dir: &Path) -> Result<()> {
    let metrics = crate::obs::durable_metrics();
    let timer = metrics.snapshot_write_ns.time();
    dio("snapshot dir create", std::fs::create_dir_all(snap_dir))?;
    let graph = engine.graph_shared();

    // Graph: the canonical edge list. Rebuilding a CSR from it is bitwise
    // identical to the live graph (the graph crate's with_edits tests pin
    // exactly this equality for both the unweighted and weighted layouts).
    let mut graph_bytes = Vec::new();
    graph_bytes.extend_from_slice(GRAPH_MAGIC);
    match &graph {
        EpochGraph::Unweighted(g) => {
            graph_bytes.push(0u8);
            graph_bytes.push(match g.kind() {
                GraphKind::Undirected => 0u8,
                GraphKind::Directed => 1u8,
            });
            graph_bytes.extend_from_slice(&(g.n() as u64).to_le_bytes());
            graph_bytes.extend_from_slice(&(g.m() as u64).to_le_bytes());
            for (u, v) in g.edges() {
                graph_bytes.extend_from_slice(&u.raw().to_le_bytes());
                graph_bytes.extend_from_slice(&v.raw().to_le_bytes());
            }
        }
        EpochGraph::Weighted(g) => {
            graph_bytes.push(1u8);
            graph_bytes.push(0u8); // weighted graphs are always undirected
            graph_bytes.extend_from_slice(&(g.n() as u64).to_le_bytes());
            graph_bytes.extend_from_slice(&(g.m() as u64).to_le_bytes());
            for u in 0..g.n() as u32 {
                for (v, w) in g.neighbors(NodeId(u)) {
                    if v.raw() >= u {
                        graph_bytes.extend_from_slice(&u.to_le_bytes());
                        graph_bytes.extend_from_slice(&v.raw().to_le_bytes());
                        graph_bytes.extend_from_slice(&w.to_bits().to_le_bytes());
                    }
                }
            }
        }
    }
    write_with_crc(&snap_dir.join("graph.bin"), graph_bytes)?;

    // Per-shard walk indexes, one zero-copy-openable RWDIDX4 file each.
    for (i, idx) in engine.shard_indexes().iter().enumerate() {
        let path = snap_dir.join(format!("shard-{i}.rwdidx"));
        dio("shard index save", idx.save(&path))?;
        dio(
            "shard index sync",
            File::open(&path).and_then(|f| f.sync_all()),
        )?;
    }

    // Manifest last: a snapshot is valid iff its manifest parses, so a
    // crash mid-snapshot leaves an ignorable directory, never a lie.
    let cfg = engine.config();
    let mut m = Vec::new();
    m.extend_from_slice(MANIFEST_MAGIC);
    m.extend_from_slice(&engine.epoch().to_le_bytes());
    m.extend_from_slice(&(cfg.l as u64).to_le_bytes());
    m.extend_from_slice(&(cfg.r as u64).to_le_bytes());
    m.extend_from_slice(&(cfg.k as u64).to_le_bytes());
    m.extend_from_slice(&cfg.seed.to_le_bytes());
    m.extend_from_slice(&(cfg.threads as u64).to_le_bytes());
    let (rule_tag, lambda) = match cfg.rule {
        GainRule::HittingTime => (0u8, 0f64),
        GainRule::Coverage => (1u8, 0f64),
        GainRule::Combined { lambda } => (2u8, lambda),
    };
    m.push(rule_tag);
    m.extend_from_slice(&lambda.to_bits().to_le_bytes());
    m.push(u8::from(matches!(graph, EpochGraph::Weighted(_))));
    m.extend_from_slice(&(graph.n() as u64).to_le_bytes());
    let ranges = engine.shard_ranges();
    m.extend_from_slice(&(ranges.len() as u64).to_le_bytes());
    for rg in &ranges {
        m.extend_from_slice(&(rg.start() as u64).to_le_bytes());
        m.extend_from_slice(&(rg.end() as u64).to_le_bytes());
    }
    write_with_crc(&snap_dir.join("manifest.bin"), m)?;
    // Make the directory entries themselves durable (best-effort — not
    // every filesystem lets you fsync a directory handle).
    if let Ok(d) = File::open(snap_dir) {
        d.sync_all().ok();
    }
    timer.stop();
    metrics.snapshots_written.inc();
    Ok(())
}

fn write_with_crc(path: &Path, mut bytes: Vec<u8>) -> Result<()> {
    let sum = crc32(&bytes);
    bytes.extend_from_slice(&sum.to_le_bytes());
    dio("snapshot file write", std::fs::write(path, &bytes))?;
    dio(
        "snapshot file sync",
        File::open(path).and_then(|f| f.sync_all()),
    )
}

/// Reads a CRC-trailed snapshot file, verifying magic and checksum.
fn read_with_crc(path: &Path, magic: &[u8; 8], what: &str) -> Result<Vec<u8>> {
    let bytes = match std::fs::read(path) {
        Ok(b) => b,
        Err(e) => {
            return Err(StreamError::CorruptSnapshot(format!(
                "{what} {} unreadable: {e}",
                path.display()
            )))
        }
    };
    if bytes.len() < 12 || &bytes[..8] != magic {
        return Err(StreamError::CorruptSnapshot(format!(
            "{what} {} has a bad or truncated header",
            path.display()
        )));
    }
    let (content, trailer) = bytes.split_at(bytes.len() - 4);
    if crc32(content) != u32::from_le_bytes(trailer.try_into().unwrap()) {
        return Err(StreamError::CorruptSnapshot(format!(
            "{what} {} fails its content checksum",
            path.display()
        )));
    }
    Ok(content[8..].to_vec())
}

/// Loads one snapshot directory back into a [`StreamEngine`] at the
/// snapshot's epoch. Every cross-field inconsistency is a named
/// [`StreamError::CorruptSnapshot`].
pub(crate) fn load_snapshot(snap_dir: &Path, mode: OpenMode) -> Result<StreamEngine> {
    let corrupt = |msg: String| StreamError::CorruptSnapshot(msg);
    let m = read_with_crc(&snap_dir.join("manifest.bin"), MANIFEST_MAGIC, "manifest")?;
    let fixed = 8 * 6 + 1 + 8 + 1 + 8 + 8;
    if m.len() < fixed {
        return Err(corrupt(format!(
            "manifest in {} is too short ({} bytes)",
            snap_dir.display(),
            m.len()
        )));
    }
    let u64_at = |at: usize| u64::from_le_bytes(m[at..at + 8].try_into().unwrap());
    let epoch = u64_at(0);
    let l = u32::try_from(u64_at(8)).map_err(|_| {
        corrupt(format!(
            "manifest in {} records walk length {} beyond u32",
            snap_dir.display(),
            u64_at(8)
        ))
    })?;
    let cfg = StreamConfig {
        l,
        r: u64_at(16) as usize,
        k: u64_at(24) as usize,
        seed: u64_at(32),
        threads: u64_at(40) as usize,
        rule: match m[48] {
            0 => GainRule::HittingTime,
            1 => GainRule::Coverage,
            2 => GainRule::Combined {
                lambda: f64::from_bits(u64_at(49)),
            },
            tag => {
                return Err(corrupt(format!(
                    "manifest in {} names unknown gain rule tag {tag}",
                    snap_dir.display()
                )))
            }
        },
    };
    let weighted = m[57] != 0;
    let n = u64_at(58) as usize;
    let shard_count = u64_at(66) as usize;
    // The cold start's validation, before anything is sized from these
    // fields: a manifest the engine could not have been built from is
    // corruption, not a configuration to run.
    engine::validate(&cfg, n, shard_count).map_err(|e| {
        corrupt(format!(
            "manifest in {} fails engine validation: {e}",
            snap_dir.display()
        ))
    })?;
    if shard_count
        .checked_mul(16)
        .and_then(|t| t.checked_add(fixed))
        != Some(m.len())
    {
        return Err(corrupt(format!(
            "manifest in {} sizes {} bytes, which do not hold exactly {shard_count} shard ranges",
            snap_dir.display(),
            m.len()
        )));
    }
    // The ranges must tile [0, r) in order — the layout every shard-indexed
    // consumer (seed maintenance, point-query gather) merges by.
    let mut ranges = Vec::with_capacity(shard_count);
    for i in 0..shard_count {
        let start = u64_at(fixed + i * 16) as usize;
        let end = u64_at(fixed + i * 16 + 8) as usize;
        let next = ranges.last().map_or(0, LayerRange::end);
        if start != next || end <= start || end > cfg.r {
            return Err(corrupt(format!(
                "manifest in {} holds shard range [{start}, {end}) where the tiling of \
                 [0, {}) continues at layer {next}",
                snap_dir.display(),
                cfg.r
            )));
        }
        ranges.push(LayerRange::new(start, end));
    }
    if ranges.last().map(LayerRange::end) != Some(cfg.r) {
        return Err(corrupt(format!(
            "manifest in {} tiles fewer than its {} layers",
            snap_dir.display(),
            cfg.r
        )));
    }

    // Graph rebuild from the canonical edge list.
    let g = read_with_crc(&snap_dir.join("graph.bin"), GRAPH_MAGIC, "graph")?;
    if g.len() < 18 {
        return Err(corrupt(format!(
            "graph file in {} is too short",
            snap_dir.display()
        )));
    }
    let g_weighted = g[0] != 0;
    let g_kind = g[1];
    let g_n = u64::from_le_bytes(g[2..10].try_into().unwrap()) as usize;
    let g_m = u64::from_le_bytes(g[10..18].try_into().unwrap()) as usize;
    if g_weighted != weighted || g_n != n {
        return Err(corrupt(format!(
            "graph file in {} disagrees with the manifest (weighted {g_weighted} vs \
             {weighted}, n {g_n} vs {n})",
            snap_dir.display()
        )));
    }
    let body = &g[18..];
    let graph = if weighted {
        if body.len() != g_m * 16 {
            return Err(corrupt(format!(
                "graph file in {} holds {} edge bytes where {g_m} weighted edges need {}",
                snap_dir.display(),
                body.len(),
                g_m * 16
            )));
        }
        let edges: Vec<(u32, u32, f64)> = body
            .chunks_exact(16)
            .map(|c| {
                (
                    u32::from_le_bytes(c[0..4].try_into().unwrap()),
                    u32::from_le_bytes(c[4..8].try_into().unwrap()),
                    f64::from_bits(u64::from_le_bytes(c[8..16].try_into().unwrap())),
                )
            })
            .collect();
        let wg = WeightedCsrGraph::from_weighted_edges(n, &edges).map_err(|e| {
            corrupt(format!(
                "graph file in {} fails to rebuild: {e}",
                snap_dir.display()
            ))
        })?;
        EpochGraph::Weighted(Arc::new(wg))
    } else {
        if body.len() != g_m * 8 {
            return Err(corrupt(format!(
                "graph file in {} holds {} edge bytes where {g_m} edges need {}",
                snap_dir.display(),
                body.len(),
                g_m * 8
            )));
        }
        let mut b = match g_kind {
            0 => GraphBuilder::undirected(),
            1 => GraphBuilder::directed(),
            k => {
                return Err(corrupt(format!(
                    "graph file in {} names unknown graph kind {k}",
                    snap_dir.display()
                )))
            }
        }
        .with_nodes(n)
        .with_edge_capacity(g_m);
        for c in body.chunks_exact(8) {
            b.add_edge(
                u32::from_le_bytes(c[0..4].try_into().unwrap()),
                u32::from_le_bytes(c[4..8].try_into().unwrap()),
            );
        }
        let cg = b.build().map_err(|e| {
            corrupt(format!(
                "graph file in {} fails to rebuild: {e}",
                snap_dir.display()
            ))
        })?;
        if cg.m() != g_m {
            return Err(corrupt(format!(
                "graph file in {} rebuilt to {} edges, not the recorded {g_m} (the edge \
                 list was not canonical)",
                snap_dir.display(),
                cg.m()
            )));
        }
        EpochGraph::Unweighted(Arc::new(cg))
    };

    // Per-shard indexes, cross-checked against the manifest's tiling.
    // Mapped mode zero-copies the shard files; hosts without the mapped
    // path deserialize.
    let use_map = mode == OpenMode::Mapped && cfg!(unix) && cfg!(target_endian = "little");
    let mut shards = Vec::with_capacity(shard_count);
    for (i, &rg) in ranges.iter().enumerate() {
        let path = snap_dir.join(format!("shard-{i}.rwdidx"));
        let idx = if use_map {
            WalkIndex::open_mapped(&path)
        } else {
            WalkIndex::load_with_threads(&path, cfg.threads)
        }
        .map_err(|e| {
            corrupt(format!(
                "shard index {} failed to load: {e}",
                path.display()
            ))
        })?;
        if idx.n() != n
            || idx.l() != cfg.l
            || idx.seed() != cfg.seed
            || idx.layer_base() != rg.start()
            || idx.r() != rg.len()
        {
            return Err(corrupt(format!(
                "shard index {} disagrees with the manifest (n {} vs {n}, l {} vs {}, \
                 seed {} vs {}, layers [{}, {}) vs [{}, {}))",
                path.display(),
                idx.n(),
                idx.l(),
                cfg.l,
                idx.seed(),
                cfg.seed,
                idx.layer_base(),
                idx.layer_base() + idx.r(),
                rg.start(),
                rg.end()
            )));
        }
        shards.push(Arc::new(idx));
    }
    Ok(StreamEngine::from_parts(cfg, graph, shards, epoch))
}

#[cfg(test)]
mod tests {
    use super::*;
    use rwd_graph::generators::erdos_renyi_gnp;

    fn cfg() -> StreamConfig {
        StreamConfig {
            l: 4,
            r: 5,
            k: 3,
            seed: 17,
            rule: GainRule::HittingTime,
            threads: 1,
        }
    }

    fn tmp_dir(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join("rwd_durable_tests").join(name);
        std::fs::remove_dir_all(&dir).ok();
        dir
    }

    /// An owned image of every bitwise-comparable surface of an engine:
    /// epoch, seeds, gain and objective bits, the shard indexes, and the
    /// adjacency with weight bits (`1.0` on an unweighted graph). Taken
    /// before a live engine is dropped, so its recovery can be held to it.
    struct Image {
        fingerprint: (u64, Vec<u32>, Vec<u64>, u64),
        shards: Vec<WalkIndex>,
        weighted: bool,
        adjacency: Vec<Vec<(u32, u64)>>,
    }

    fn image(e: &StreamEngine) -> Image {
        let graph = e.graph_shared();
        let adjacency = match &graph {
            EpochGraph::Unweighted(g) => g
                .nodes()
                .map(|u| {
                    g.neighbors(u)
                        .iter()
                        .map(|v| (v.raw(), 1f64.to_bits()))
                        .collect()
                })
                .collect(),
            EpochGraph::Weighted(g) => g
                .nodes()
                .map(|u| {
                    g.neighbors(u)
                        .map(|(v, w)| (v.raw(), w.to_bits()))
                        .collect()
                })
                .collect(),
        };
        Image {
            fingerprint: (
                e.epoch(),
                e.seeds().iter().map(|s| s.raw()).collect(),
                e.gain_trace().iter().map(|g| g.to_bits()).collect(),
                e.objective().to_bits(),
            ),
            shards: e.shard_indexes().into_iter().cloned().collect(),
            weighted: matches!(graph, EpochGraph::Weighted(_)),
            adjacency,
        }
    }

    fn assert_engine_matches(e: &StreamEngine, want: &Image) {
        let got = image(e);
        assert_eq!(got.fingerprint, want.fingerprint);
        assert_eq!(got.shards.len(), want.shards.len());
        for (ia, ib) in got.shards.iter().zip(&want.shards) {
            assert!(ia == ib, "a shard index drifted");
        }
        assert_eq!(got.weighted, want.weighted, "weighted-ness diverged");
        assert_eq!(got.adjacency, want.adjacency);
    }

    /// Recovers `dir` with the zero-copy open every caller uses.
    fn open(dir: &Path, dcfg: DurabilityConfig) -> Result<(StreamEngine, RecoveryReport)> {
        StreamEngine::open_durable_with(dir, dcfg, OpenMode::Mapped)
    }

    fn churn_batches(g0: &rwd_graph::CsrGraph, count: usize) -> Vec<EdgeBatch> {
        // Alternate inserting absent edges and deleting ones we inserted.
        let n = g0.n() as u32;
        let mut live: Vec<(u32, u32)> = Vec::new();
        let mut batches = Vec::new();
        let mut cand = (0..n).flat_map(move |u| ((u + 1)..n).map(move |v| (u, v)));
        for t in 0..count {
            let mut b = EdgeBatch::new(100 + t as u64);
            if t % 3 == 2 {
                if let Some(e) = live.pop() {
                    b.deletions.push(e);
                }
            }
            for _ in 0..2 {
                if let Some((u, v)) = cand
                    .find(|&(u, v)| !g0.has_edge(NodeId(u), NodeId(v)) && !live.contains(&(u, v)))
                {
                    b.insertions.push((u, v, 1.0));
                    live.push((u, v));
                }
            }
            batches.push(b);
        }
        batches
    }

    #[test]
    fn create_apply_reopen_is_bit_identical() {
        let dir = tmp_dir("roundtrip");
        let g0 = erdos_renyi_gnp(50, 0.08, 3).unwrap();
        let engine = StreamEngine::with_shards(g0.clone(), cfg(), 2).unwrap();
        let mut durable = engine
            .create_durable(&dir, DurabilityConfig::default())
            .unwrap();
        for b in churn_batches(&g0, 5) {
            durable.apply(&b).unwrap();
        }
        assert_eq!(durable.epoch(), 5);
        let live = image(&durable);
        drop(durable);

        let (recovered, report) = open(&dir, DurabilityConfig::default()).unwrap();
        assert_eq!(report.snapshot_epoch, 0);
        assert_eq!(report.epochs_replayed, 5);
        assert_eq!(report.recovered_epoch, 5);
        assert!(report.torn_tail.is_none());
        assert_engine_matches(&recovered, &live);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn failed_periodic_snapshot_does_not_fail_the_committed_batch() {
        let dir = tmp_dir("snapshot_failure");
        let g0 = erdos_renyi_gnp(50, 0.08, 5).unwrap();
        let engine = StreamEngine::new(g0.clone(), cfg()).unwrap();
        let dcfg = DurabilityConfig { snapshot_every: 1 };
        let mut durable = engine.create_durable(&dir, dcfg).unwrap();
        let batches = churn_batches(&g0, 2);
        let failures = || crate::obs::durable_metrics().snapshot_failures.get();

        // A regular file where the epoch-1 snapshot directory must go.
        let blocker = dir.join("snap-1");
        std::fs::write(&blocker, b"in the way").unwrap();
        let before = failures();
        let report = durable.apply(&batches[0]).expect("the batch committed");
        assert_eq!(report.epoch, 1);
        assert_eq!(durable.epoch(), 1);
        assert!(failures() > before, "the failed snapshot is counted");

        // Unblocked, the next batch retries the overdue snapshot.
        std::fs::remove_file(&blocker).unwrap();
        durable.apply(&batches[1]).unwrap();
        assert!(dir.join("snap-2/manifest.bin").exists());

        let live = image(&durable);
        drop(durable);
        let (recovered, _) = open(&dir, dcfg).unwrap();
        assert_engine_matches(&recovered, &live);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn snapshot_cadence_compacts_and_recovery_still_matches() {
        let dir = tmp_dir("cadence");
        let g0 = erdos_renyi_gnp(50, 0.08, 7).unwrap();
        let engine = StreamEngine::new(g0.clone(), cfg()).unwrap();
        let dcfg = DurabilityConfig { snapshot_every: 2 };
        let mut durable = engine.create_durable(&dir, dcfg).unwrap();
        let newest = |prefix: &str| find_numbered(&dir, prefix).unwrap().pop().unwrap();
        let mut landed = Vec::new();
        for b in churn_batches(&g0, 5) {
            durable.apply(&b).unwrap();
            let (snap, _) = newest("snap-");
            if snap > 0 && landed.last() != Some(&snap) {
                landed.push(snap);
            }
            // An empty batch after each churn batch is a no-op: the epoch
            // stays, nothing is journaled, and it does not count toward
            // the cadence.
            let epoch = durable.epoch();
            let (_, journal) = newest("journal-");
            let len = std::fs::metadata(&journal).unwrap().len();
            let report = durable.apply(&EdgeBatch::new(900)).unwrap();
            assert_eq!((report.epoch, durable.epoch()), (epoch, epoch));
            assert_eq!(std::fs::metadata(&journal).unwrap().len(), len);
        }
        // Snapshots landed after batches 2 and 4 only; compaction keeps
        // only the newest snapshot and journal.
        assert_eq!(landed, vec![2, 4]);
        let snaps = find_numbered(&dir, "snap-").unwrap();
        let journals = find_numbered(&dir, "journal-").unwrap();
        assert_eq!(snaps.iter().map(|(e, _)| *e).collect::<Vec<_>>(), vec![4]);
        assert_eq!(
            journals.iter().map(|(e, _)| *e).collect::<Vec<_>>(),
            vec![4]
        );
        let live = image(&durable);
        drop(durable);

        let (recovered, report) = open(&dir, dcfg).unwrap();
        assert_eq!(report.snapshot_epoch, 4);
        assert_eq!(report.epochs_replayed, 1, "only the suffix replays");
        assert_engine_matches(&recovered, &live);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn torn_tail_recovers_the_surviving_prefix_and_resumes() {
        let dir = tmp_dir("torn");
        let g0 = erdos_renyi_gnp(40, 0.1, 11).unwrap();
        let mut prefix_engine = StreamEngine::new(g0.clone(), cfg()).unwrap();
        let engine = StreamEngine::new(g0.clone(), cfg()).unwrap();
        let mut durable = engine
            .create_durable(&dir, DurabilityConfig::default())
            .unwrap();
        let batches = churn_batches(&g0, 3);
        for b in &batches {
            durable.apply(b).unwrap();
        }
        drop(durable);
        // The reference engine applies only the surviving prefix (2 of 3).
        for b in &batches[..2] {
            prefix_engine.apply(b).unwrap();
        }
        // Tear the journal mid-way through the final record.
        let jpath = dir.join("journal-0.wal");
        let bytes = std::fs::read(&jpath).unwrap();
        std::fs::write(&jpath, &bytes[..bytes.len() - 7]).unwrap();

        let (mut recovered, report) = open(&dir, DurabilityConfig::default()).unwrap();
        assert_eq!(report.recovered_epoch, 2);
        assert!(report.torn_tail.is_some());
        assert_engine_matches(&recovered, &image(&prefix_engine));

        // The journal resumes cleanly: re-apply the lost batch and a fresh
        // reopen still agrees with the straight-line engine.
        recovered.apply(&batches[2]).unwrap();
        prefix_engine.apply(&batches[2]).unwrap();
        let live = image(&recovered);
        drop(recovered);
        let (again, report) = open(&dir, DurabilityConfig::default()).unwrap();
        assert!(report.torn_tail.is_none());
        assert_engine_matches(&again, &live);
        assert_engine_matches(&again, &image(&prefix_engine));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn mapped_open_zero_copies_a_v4_snapshot() {
        let dir = tmp_dir("mapped");
        let g0 = erdos_renyi_gnp(50, 0.08, 21).unwrap();
        let engine = StreamEngine::with_shards(g0.clone(), cfg(), 2).unwrap();
        let mut durable = engine
            .create_durable(&dir, DurabilityConfig::default())
            .unwrap();
        for b in churn_batches(&g0, 3) {
            durable.apply(&b).unwrap();
        }
        durable.snapshot_now().unwrap();
        let live = image(&durable);
        drop(durable);

        let (mapped, mrep) =
            StreamEngine::open_durable_with(&dir, DurabilityConfig::default(), OpenMode::Mapped)
                .unwrap();
        let (owned, orep) = StreamEngine::open_durable_with(
            &dir,
            DurabilityConfig::default(),
            OpenMode::Deserialize,
        )
        .unwrap();
        assert_eq!(mrep.epochs_replayed, 0);
        assert_engine_matches(&mapped, &live);
        assert_engine_matches(&owned, &live);
        // Deserialize mode owns everything; mapped mode (with nothing to
        // replay) serves every posting column straight from the file, and
        // the two accountings cover the same bytes.
        assert_eq!(orep.mapped_bytes, 0);
        if cfg!(all(unix, target_endian = "little")) {
            assert!(mrep.mapped_bytes > 0, "V4 snapshot did not map");
            assert_eq!(
                mrep.heap_bytes + mrep.mapped_bytes,
                orep.heap_bytes,
                "mapped and owned opens account different column totals"
            );
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn weighted_engine_round_trips_durably() {
        let dir = tmp_dir("weighted");
        let g0 = erdos_renyi_gnp(40, 0.1, 5).unwrap();
        let w0 = rwd_graph::weighted::weighted_twin(&g0, 9).unwrap();
        let engine = StreamEngine::with_shards_weighted(w0, cfg(), 2).unwrap();
        let mut durable = engine
            .create_durable(&dir, DurabilityConfig::default())
            .unwrap();
        let mut b = EdgeBatch::new(1);
        let (u, v) = (0..40u32)
            .flat_map(|u| ((u + 1)..40).map(move |v| (u, v)))
            .find(|&(u, v)| !g0.has_edge(NodeId(u), NodeId(v)))
            .unwrap();
        b.insertions.push((u, v, 2.25));
        durable.apply(&b).unwrap();
        durable.snapshot_now().unwrap();
        let live = image(&durable);
        drop(durable);
        let (recovered, report) = open(&dir, DurabilityConfig::default()).unwrap();
        assert_eq!(report.snapshot_epoch, 1);
        assert_eq!(report.epochs_replayed, 0);
        assert_engine_matches(&recovered, &live);
        // Weighted columns are bitwise equal, not just structurally: the
        // image's adjacency carries every weight's bits.
        assert!(live.weighted);
        assert_eq!(image(&recovered).adjacency, live.adjacency);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn open_names_missing_and_corrupt_state() {
        let dir = tmp_dir("errors");
        std::fs::create_dir_all(&dir).unwrap();
        assert!(matches!(
            open(&dir, DurabilityConfig::default()).unwrap_err(),
            StreamError::NoSnapshot(_)
        ));

        // A snapshot whose shard file is bit-rotted is rejected by name.
        let g0 = erdos_renyi_gnp(30, 0.12, 2).unwrap();
        let engine = StreamEngine::new(g0, cfg()).unwrap();
        let durable = engine
            .create_durable(&dir, DurabilityConfig::default())
            .unwrap();
        drop(durable);
        let shard = dir.join("snap-0").join("shard-0.rwdidx");
        let mut bytes = std::fs::read(&shard).unwrap();
        bytes[35] ^= 0x08; // RNG seed byte: only the CRC trailer can notice
        std::fs::write(&shard, &bytes).unwrap();
        let err = open(&dir, DurabilityConfig::default()).unwrap_err();
        assert!(
            matches!(&err, StreamError::CorruptSnapshot(m) if m.contains("checksum")),
            "{err}"
        );

        // A shard file in a retired layout is refused by name on both open
        // paths, never parsed.
        bytes[35] ^= 0x08;
        bytes[..8].copy_from_slice(b"RWDIDX3\0");
        std::fs::write(&shard, &bytes).unwrap();
        for mode in [OpenMode::Mapped, OpenMode::Deserialize] {
            let err = StreamEngine::open_durable_with(&dir, DurabilityConfig::default(), mode)
                .unwrap_err();
            assert!(
                matches!(&err, StreamError::CorruptSnapshot(m) if m.contains("retired RWDIDX3")),
                "{mode:?}: {err}"
            );
        }

        // create_durable() refuses to clobber an existing data dir.
        let g0 = erdos_renyi_gnp(30, 0.12, 2).unwrap();
        let engine = StreamEngine::new(g0, cfg()).unwrap();
        assert!(matches!(
            engine
                .create_durable(&dir, DurabilityConfig::default())
                .unwrap_err(),
            StreamError::InvalidConfig(_)
        ));
        std::fs::remove_dir_all(&dir).ok();
    }

    /// A manifest whose CRC is valid but which describes an engine the
    /// cold start would refuse is named corruption on both open paths:
    /// never a panic, an allocation sized by a lying field, or a silent
    /// truncation.
    #[test]
    fn invalid_manifests_are_named_corruption_in_both_open_modes() {
        // Overwrites the little-endian `u64` at `at` (offsets past the
        // magic, as `save_snapshot` lays the manifest out).
        fn put(m: &mut [u8], at: usize, v: u64) {
            m[at..at + 8].copy_from_slice(&v.to_le_bytes());
        }
        let dir = tmp_dir("bad_manifests");
        let g0 = erdos_renyi_gnp(30, 0.12, 6).unwrap();
        let c = StreamConfig { r: 6, ..cfg() };
        let engine = StreamEngine::with_shards(g0.clone(), c, 2).unwrap();
        drop(
            engine
                .create_durable(&dir, DurabilityConfig::default())
                .unwrap(),
        );
        let snap = dir.join("snap-0");
        let manifest = snap.join("manifest.bin");
        let good = read_with_crc(&manifest, MANIFEST_MAGIC, "manifest").unwrap();
        let shard_file = |i: usize| snap.join(format!("shard-{i}.rwdidx"));
        let good_shards: Vec<Vec<u8>> = (0..2)
            .map(|i| std::fs::read(shard_file(i)).unwrap())
            .collect();

        // (case, manifest patch, expected error text)
        type Case = (&'static str, fn(&mut Vec<u8>), &'static str);
        let cases: [Case; 7] = [
            (
                "k = n + 1",
                |m| put(m, 24, 31),
                "k = 31 outside [1, n = 30]",
            ),
            ("k = 0", |m| put(m, 24, 0), "k = 0 outside"),
            (
                "lambda = 2",
                |m| {
                    m[48] = 2;
                    put(m, 49, 2f64.to_bits());
                },
                "lambda = 2 outside [0, 1]",
            ),
            (
                "2^60 shards, no range entries",
                |m| {
                    put(m, 66, 1 << 60);
                    m.truncate(74);
                },
                "invalid shard count",
            ),
            (
                "2^60 shards over 2^61 layers, no range entries",
                |m| {
                    put(m, 16, 1 << 61);
                    put(m, 66, 1 << 60);
                    m.truncate(74);
                },
                "shard ranges",
            ),
            (
                "l = 2^32 + 4",
                |m| put(m, 8, (1 << 32) + 4),
                "walk length 4294967300 beyond u32",
            ),
            (
                "ranges [0, 2), [4, 6)",
                |m| {
                    put(m, 82, 2);
                    put(m, 90, 4);
                },
                "continues at layer 2",
            ),
        ];
        for (what, patch, want) in cases {
            let mut m = good.clone();
            patch(&mut m);
            write_with_crc(&manifest, [&MANIFEST_MAGIC[..], &m].concat()).unwrap();
            if what.starts_with("ranges") {
                // Shard files that match the gapped ranges, so only the
                // tiling itself is wrong.
                for (i, range) in [(0, 2), (4, 6)].into_iter().enumerate() {
                    WalkIndex::build_layer_range(
                        &g0,
                        c.l,
                        LayerRange::new(range.0, range.1),
                        c.seed,
                        1,
                    )
                    .save(shard_file(i))
                    .unwrap();
                }
            }
            for mode in [OpenMode::Mapped, OpenMode::Deserialize] {
                let err = StreamEngine::open_durable_with(&dir, DurabilityConfig::default(), mode)
                    .unwrap_err();
                assert!(
                    matches!(&err, StreamError::CorruptSnapshot(msg) if msg.contains(want)),
                    "{what} ({mode:?}): {err}"
                );
            }
            for (i, bytes) in good_shards.iter().enumerate() {
                std::fs::write(shard_file(i), bytes).unwrap();
            }
        }

        // The untouched manifest still opens.
        write_with_crc(&manifest, [&MANIFEST_MAGIC[..], &good].concat()).unwrap();
        assert!(open(&dir, DurabilityConfig::default()).is_ok());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn mid_journal_corruption_is_fatal_by_name() {
        let dir = tmp_dir("midcorrupt");
        let g0 = erdos_renyi_gnp(40, 0.1, 13).unwrap();
        let engine = StreamEngine::new(g0.clone(), cfg()).unwrap();
        let mut durable = engine
            .create_durable(&dir, DurabilityConfig::default())
            .unwrap();
        for b in churn_batches(&g0, 3) {
            durable.apply(&b).unwrap();
        }
        drop(durable);
        let jpath = dir.join("journal-0.wal");
        let mut bytes = std::fs::read(&jpath).unwrap();
        bytes[30] ^= 0x01; // record 0 payload: not the final record
        std::fs::write(&jpath, &bytes).unwrap();
        let err = open(&dir, DurabilityConfig::default()).unwrap_err();
        assert!(matches!(err, StreamError::CorruptJournal(_)), "{err}");
        std::fs::remove_dir_all(&dir).ok();
    }
}
