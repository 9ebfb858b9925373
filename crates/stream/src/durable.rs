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
//! * `snap-<E>/` — a full engine snapshot at epoch `E`: one RWDIDX4 file
//!   per shard ([`WalkIndex::save`]), then `state.bin` written **last**,
//!   once the shard files are fsync'd — a snapshot without a valid state
//!   file never existed. `state.bin` is a second schema on RWDIDX4's
//!   section codec ([`rwd_walks::storage`]): the epoch, engine config,
//!   graph kind, `n`, shard and edge counts as header fields, then the
//!   shard ranges and the canonical edge list (sources, targets and, when
//!   weighted, weight bits), whose rebuild the graph crate's tests prove
//!   bitwise equal to the live CSR. An open reads it with one read. After
//!   a snapshot the journal rotates to the new base and older artifacts
//!   are compacted away. A `snap-<E>/` in the retired layout
//!   (`manifest.bin` and `graph.bin`) is refused by name.
//!
//! An engine holds an exclusive `flock` on `<dir>/LOCK` for as long as it
//! lives, so one data directory has at most one live engine: a second
//! create or open is refused by name instead of interleaving journal
//! appends or compacting away the other engine's snapshot. The kernel
//! releases the lock when the engine drops or its process dies, so a crash
//! leaves no stale lock to clean up.
//!
//! [`StreamEngine::open_durable_with`] recovers: the newest loadable
//! snapshot, then the journal suffix staged record by record and committed
//! as one run. An index is a pure function of its graph (walks derive from
//! counter-based `(seed, src, layer)` RNG streams), and a refresh accepts
//! an index built on any predecessor graph given a touched set covering
//! every changed row, so the recovered engine is **bitwise identical** to
//! the live engine that wrote the surviving prefix — the property
//! `tests/recovery_equivalence.rs` fault-injects at every record boundary,
//! mid-record truncation, and bit-flip. Seed-maintainer state is
//! deliberately *not* serialized: the open's one cold maintainer pass is
//! bitwise equal to the warm state (the maintainer's own proptested
//! invariant), which keeps the snapshot format small and honest.

use std::fs::File;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

use rwd_core::greedy::approx::GainRule;
use rwd_graph::weighted::WeightedCsrGraph;
use rwd_graph::{GraphBuilder, GraphKind};
use rwd_walks::storage::{self, Schema, SectionWriter};
use rwd_walks::{LayerRange, WalkIndex};

use crate::batch::DedupedEdits;
use crate::engine::{self, EpochGraph, StagedRun, StreamConfig, StreamEngine};
use crate::journal::{self, BatchJournal};
use crate::{Result, StreamError};

/// A snapshot's `state.bin` on the section codec: twelve `u64` fields
/// (epoch, `l`, `r`, `k`, seed, threads, gain-rule tag, λ bits, graph kind,
/// `n`, shard count, edge count) and no table, then the shard ranges as
/// `(start, end)` pairs, the edge sources, the edge targets and, for a
/// weighted graph, the weight bits.
const STATE: Schema = Schema {
    noun: "snapshot state file",
    magic: b"RWDSNP2\0",
    retired: &[],
    retired_hint: "",
    fields: 12,
    table_len: None,
};

/// `state.bin`'s graph-kind field.
const UNDIRECTED: u64 = 0;
const DIRECTED: u64 = 1;
const WEIGHTED: u64 = 2;

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
    /// [`OpenMode::Deserialize`]. The journal replay's one refresh then
    /// writes only the rows the suffix changes, into heap overlays over the
    /// mapped layer bases (a view past the fold share is folded onto the
    /// heap instead); recovered state stays bitwise equal to the
    /// deserializing open.
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
    /// Wall time of the snapshot load: the one read of `state.bin`, the
    /// shard index opens and the graph rebuild from its edge list.
    pub snapshot_load_ms: f64,
    /// Wall time of everything after the load: the journal scan, staging
    /// the suffix, its one refresh per shard, and the open's one
    /// seed-maintenance pass (a bootstrap when nothing replays).
    pub replay_ms: f64,
    /// Heap-owned walk-index column bytes after recovery (replay included).
    pub heap_bytes: usize,
    /// Still-mapped (zero-copy) walk-index column bytes after recovery —
    /// nonzero only for [`OpenMode::Mapped`] opens on hosts with the
    /// mapped path. A replay keeps the layer bases mapped under its
    /// overlays; it moves the aggregate pair, and any view it folds, to the
    /// heap.
    pub mapped_bytes: usize,
}

/// The data-directory half of a durable [`StreamEngine`]: where it
/// journals and snapshots, and how many batches since the last snapshot.
#[derive(Debug)]
pub(crate) struct Durable {
    /// The data-dir lock, held for the engine's lifetime.
    _lock: File,
    dir: PathBuf,
    journal: BatchJournal,
    dcfg: DurabilityConfig,
    since_snapshot: u64,
    /// Epoch of the snapshot this engine created, loaded or last wrote.
    /// That snapshot already holds the state at this epoch, and a mapped
    /// open serves its shard files in place, so it is never rewritten.
    snapshot_epoch: u64,
}

impl Durable {
    /// The write-ahead append [`StreamEngine::apply`] makes for a staged
    /// batch that will publish `epoch`: the canonical edits staging applied
    /// (dedup is idempotent, so replay stages the identical delta).
    pub(crate) fn append(
        &mut self,
        (ins, del): &DedupedEdits,
        epoch: u64,
        timestamp: u64,
    ) -> Result<()> {
        let appended = self.journal.append(epoch, timestamp, ins, del);
        dio("write-ahead journal append", appended)
    }

    /// Snapshots `engine` at its current epoch, rotates the journal to the
    /// new base, and compacts older artifacts. At the epoch of the snapshot
    /// it already has, it writes nothing.
    fn snapshot(&mut self, engine: &StreamEngine) -> Result<u64> {
        let epoch = engine.epoch();
        if epoch == self.snapshot_epoch {
            return Ok(epoch);
        }
        save_snapshot(engine, &self.dir.join(format!("snap-{epoch}")))?;
        self.snapshot_epoch = epoch;
        self.journal = dio(
            "journal rotate",
            BatchJournal::create(self.dir.join(format!("journal-{epoch}.wal")), epoch),
        )?;
        write_step(None)?;
        // Compaction. Best-effort: leftovers are harmless (recovery picks
        // the newest loadable snapshot and the newest journal base).
        for (e, p) in find_numbered(&self.dir, "snap-")? {
            if e < epoch {
                std::fs::remove_dir_all(&p).ok();
                write_step(None)?;
            }
        }
        for (e, p) in find_numbered(&self.dir, "journal-")? {
            if e < epoch {
                std::fs::remove_file(&p).ok();
                write_step(None)?;
            }
        }
        self.since_snapshot = 0;
        Ok(epoch)
    }
}

/// A refused [`StreamEngine::create_durable`]: why, plus the engine,
/// handed back as it was. `Debug` and `Display` print the cause alone, and
/// `?` converts it into that [`StreamError`].
pub struct CreateDurableError {
    /// Why the data directory was refused.
    pub cause: StreamError,
    engine: Box<StreamEngine>,
}

impl CreateDurableError {
    /// The engine the refused call consumed, unchanged.
    pub fn into_engine(self) -> StreamEngine {
        *self.engine
    }
}

impl std::fmt::Debug for CreateDurableError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        std::fmt::Debug::fmt(&self.cause, f)
    }
}

impl std::fmt::Display for CreateDurableError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        std::fmt::Display::fmt(&self.cause, f)
    }
}

impl std::error::Error for CreateDurableError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        Some(&self.cause)
    }
}

impl From<CreateDurableError> for StreamError {
    fn from(e: CreateDurableError) -> Self {
        e.cause
    }
}

impl StreamEngine {
    /// Binds the engine to `dir`: writes the base snapshot at the current
    /// epoch and opens the journal there; every later
    /// [`StreamEngine::apply`] journals its batch first (an engine already
    /// bound elsewhere moves, leaving its old directory's history as it
    /// is). Rejects a directory that already holds durability artifacts —
    /// recover those with [`StreamEngine::open_durable_with`] instead of
    /// overwriting history — and one another live engine holds. A refusal
    /// or I/O failure hands the engine back inside the error
    /// ([`CreateDurableError::into_engine`]), bound where it was before.
    pub fn create_durable(
        mut self,
        dir: impl AsRef<Path>,
        dcfg: DurabilityConfig,
    ) -> std::result::Result<Self, CreateDurableError> {
        match self.bind_dir(dir.as_ref(), dcfg) {
            Ok(durable) => {
                publish_footprint(&self);
                self.durable = Some(durable);
                Ok(self)
            }
            Err(cause) => Err(CreateDurableError {
                cause,
                engine: Box::new(self),
            }),
        }
    }

    /// The fallible part of [`StreamEngine::create_durable`]: locks `dir`,
    /// checks it holds no history, and writes the base snapshot and journal.
    fn bind_dir(&self, dir: &Path, dcfg: DurabilityConfig) -> Result<Durable> {
        dio("data dir create", std::fs::create_dir_all(dir))?;
        let lock = lock_dir(dir)?;
        if !find_numbered(dir, "snap-")?.is_empty() || !find_numbered(dir, "journal-")?.is_empty() {
            return Err(StreamError::InvalidConfig(format!(
                "data dir {} already holds durability artifacts; open_durable_with() recovers them",
                dir.display()
            )));
        }
        let epoch = self.epoch();
        save_snapshot(self, &dir.join(format!("snap-{epoch}")))?;
        let journal = dio(
            "journal create",
            BatchJournal::create(dir.join(format!("journal-{epoch}.wal")), epoch),
        )?;
        Ok(Durable {
            _lock: lock,
            dir: dir.to_path_buf(),
            journal,
            dcfg,
            since_snapshot: 0,
            snapshot_epoch: epoch,
        })
    }

    /// Recovers a durable engine from `dir`: loads the newest loadable
    /// snapshot (shard indexes placed as `mode` says), replays the journal
    /// suffix, truncates a torn tail (reported, never fatal), and resumes
    /// journaling where the surviving history ends. The replay stages every
    /// record past the snapshot in order, then commits them as one run: one
    /// refresh per shard against the last staged graph and the union of the
    /// records' touched sets, and one cold seed-maintenance pass (with no
    /// records to replay, the open bootstraps the seed set instead). A
    /// record that fails to stage or holds no edits refuses the whole open
    /// as [`StreamError::CorruptJournal`], naming its epoch, before any
    /// shard is refreshed. Mid-journal corruption and unloadable snapshots
    /// fail with named errors instead of serving drifted state, and a
    /// directory another live engine holds is refused. Both modes recover
    /// the exact same state — the mode only chooses where the posting
    /// columns live (mapped file vs heap).
    pub fn open_durable_with(
        dir: impl AsRef<Path>,
        dcfg: DurabilityConfig,
        mode: OpenMode,
    ) -> Result<(Self, RecoveryReport)> {
        let dir = dir.as_ref().to_path_buf();
        if !dir.is_dir() {
            return Err(StreamError::NoSnapshot(dir));
        }
        let lock = lock_dir(&dir)?;
        let snaps = find_numbered(&dir, "snap-")?;
        if snaps.is_empty() {
            return Err(StreamError::NoSnapshot(dir));
        }
        // Newest loadable snapshot wins; a torn, rotted or misnamed one
        // falls back to its predecessor (compaction keeps at most a
        // crash-window's worth of extras around).
        let load_start = Instant::now();
        let mut last_err = None;
        let mut loaded = None;
        for &(epoch, ref path) in snaps.iter().rev() {
            match load_snapshot(path, epoch, mode) {
                Ok(engine) => {
                    loaded = Some((epoch, engine));
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
        let mut run = StagedRun::new(engine.graph_shared());
        let (journal, torn_tail) = match journals.last() {
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
                (j, None)
            }
            Some((base, path)) => {
                if *base > snapshot_epoch {
                    return Err(StreamError::CorruptJournal(format!(
                        "journal base epoch {base} is newer than the newest loadable \
                         snapshot (epoch {snapshot_epoch}); the intervening history is gone"
                    )));
                }
                // Every record past the snapshot stages in order, so each is
                // still validated against its own predecessor graph, and a
                // bad one refuses the open before any shard is refreshed.
                let scan = journal::scan(path)?;
                for rec in scan.records.iter().filter(|rec| rec.epoch > snapshot_epoch) {
                    run.stage(&rec.batch).map_err(|e| {
                        StreamError::CorruptJournal(format!(
                            "journaled batch for epoch {} failed to re-apply: {e}",
                            rec.epoch
                        ))
                    })?;
                    let staged = snapshot_epoch + run.batches();
                    if staged != rec.epoch {
                        return Err(StreamError::CorruptJournal(format!(
                            "replaying the record for epoch {} advanced the engine to \
                             epoch {staged} instead",
                            rec.epoch
                        )));
                    }
                }
                let j = dio(
                    "journal reopen",
                    BatchJournal::open_append(path, scan.valid_len),
                )?;
                (j, scan.torn_tail)
            }
        };
        // The open's one maintainer pass: the replay's single commit (cold,
        // as the loaded maintainer holds no engine state) or, with nothing
        // to replay, the bootstrap.
        let epochs_replayed = run.batches();
        if epochs_replayed == 0 {
            engine.bootstrap();
        } else {
            engine.commit(run);
        }
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
            _lock: lock,
            dir,
            journal,
            dcfg,
            since_snapshot: epochs_replayed,
            snapshot_epoch,
        });
        Ok((engine, report))
    }

    /// Takes a snapshot at the current epoch, rotates the journal to the
    /// new base, and compacts: older snapshots and journal files are
    /// deleted once the new state file is durable. Returns the snapshot
    /// epoch. At the epoch of the snapshot the engine created, loaded or
    /// last wrote, it writes nothing: that snapshot already holds this
    /// state, and rewriting it in place would truncate the files a mapped
    /// open serves from and leave no loadable snapshot during the rewrite.
    /// An engine with no data dir refuses with
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
        // Commits write overlays and may fold mapped bases onto the heap;
        // keep the resident-vs-mapped gauges truthful.
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

/// Takes the exclusive lock that makes the caller `dir`'s one live engine:
/// an `flock` on `<dir>/LOCK`, held while the returned file stays open.
fn lock_dir(dir: &Path) -> Result<File> {
    let file = dio(
        "data dir lock",
        File::options()
            .create(true)
            .truncate(false)
            .write(true)
            .open(dir.join("LOCK")),
    )?;
    let held = file.try_lock().map_err(|e| match e {
        std::fs::TryLockError::WouldBlock => std::io::Error::new(
            std::io::ErrorKind::WouldBlock,
            format!("{} is held by another live engine", dir.display()),
        ),
        std::fs::TryLockError::Error(e) => e,
    });
    dio("data dir lock", held.map(|()| file))
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

/// Serializes the full engine state into `snap_dir`: one walk-index file
/// per shard, then `state.bin` last (the commit point). Every file ends in
/// a CRC-32 trailer and the shard files are fsync'd before the state file
/// is written; it is fsync'd in turn, and then the directory, so its
/// entries are durable. A failure to open or fsync the directory fails the
/// snapshot, except `InvalidInput` and `Unsupported`: a filesystem that
/// cannot fsync a directory handle says so with one of those, and there
/// the directory sync stays best-effort.
pub(crate) fn save_snapshot(engine: &StreamEngine, snap_dir: &Path) -> Result<()> {
    let metrics = crate::obs::durable_metrics();
    let timer = metrics.snapshot_write_ns.time();
    dio("snapshot dir create", std::fs::create_dir_all(snap_dir))?;

    // Per-shard walk indexes, one zero-copy-openable RWDIDX4 file each.
    for (i, idx) in engine.shard_indexes().iter().enumerate() {
        let path = snap_dir.join(format!("shard-{i}.rwdidx"));
        dio("shard index save", idx.save(&path))?;
        write_step(Some(&path))?;
        dio(
            "shard index sync",
            File::open(&path).and_then(|f| f.sync_all()),
        )?;
        write_step(None)?;
    }

    // The state file last: a snapshot is valid iff its state file loads,
    // so a crash mid-snapshot leaves an ignorable directory, never a lie.
    let path = snap_dir.join("state.bin");
    dio("state file write", write_state(engine, &path))?;
    write_step(Some(&path))?;
    dio(
        "state file sync",
        File::open(&path).and_then(|f| f.sync_all()),
    )?;
    write_step(None)?;
    // Make the directory entries themselves durable.
    use std::io::ErrorKind::{InvalidInput, Unsupported};
    match File::open(snap_dir).and_then(|d| d.sync_all()) {
        Err(e) if matches!(e.kind(), InvalidInput | Unsupported) => {}
        synced => dio("snapshot dir sync", synced)?,
    }
    write_step(None)?;
    timer.stop();
    metrics.snapshots_written.inc();
    Ok(())
}

/// Writes `state.bin` ([`STATE`]): the engine's epoch, config and shard
/// ranges, and its graph as the canonical edge list. Rebuilding a CSR
/// from that list is bitwise identical to the live graph (the graph
/// crate's `with_edits` tests pin exactly this equality for both the
/// unweighted and weighted layouts).
fn write_state(engine: &StreamEngine, path: &Path) -> std::io::Result<()> {
    let cfg = engine.config();
    let (rule, lambda) = match cfg.rule {
        GainRule::HittingTime => (0, 0f64),
        GainRule::Coverage => (1, 0f64),
        GainRule::Combined { lambda } => (2, lambda),
    };
    let graph = engine.graph_shared();
    let (mut sources, mut targets, mut weights) = (Vec::new(), Vec::new(), Vec::new());
    let kind = match &graph {
        EpochGraph::Unweighted(g) => {
            (sources, targets) = g.edges().map(|(u, v)| (u.raw(), v.raw())).unzip();
            match g.kind() {
                GraphKind::Undirected => UNDIRECTED,
                GraphKind::Directed => DIRECTED,
            }
        }
        EpochGraph::Weighted(g) => {
            for u in g.nodes() {
                for (v, w) in g.neighbors(u).filter(|&(v, _)| v.raw() >= u.raw()) {
                    sources.push(u.raw());
                    targets.push(v.raw());
                    weights.push(w.to_bits());
                }
            }
            WEIGHTED
        }
    };
    let ranges: Vec<u64> = engine
        .shard_ranges()
        .iter()
        .flat_map(|rg| [rg.start() as u64, rg.end() as u64])
        .collect();
    let fields = [
        engine.epoch(),
        cfg.l as u64,
        cfg.r as u64,
        cfg.k as u64,
        cfg.seed,
        cfg.threads as u64,
        rule,
        lambda.to_bits(),
        kind,
        graph.n() as u64,
        ranges.len() as u64 / 2,
        sources.len() as u64,
    ];
    let file = std::io::BufWriter::new(File::create(path)?);
    let mut w = SectionWriter::new(file, &STATE, &fields, &[])?;
    w.section(&ranges)?;
    w.section(&sources)?;
    w.section(&targets)?;
    w.section(&weights)?;
    w.finish()
}

/// Ends one snapshot write step: a file written (the path in flight) or
/// fsync'd, the directory fsync, the journal rotation, or one compaction
/// delete. A test build can stop a snapshot here, as a crash would
/// ([`fail_point`]).
#[cfg(not(test))]
fn write_step(_: Option<&Path>) -> Result<()> {
    Ok(())
}
#[cfg(test)]
use fail_point::hit as write_step;

#[cfg(test)]
pub(crate) mod fail_point {
    //! A test build's crash injector for snapshots. Armed with step `i`
    //! (from 1), the `i`-th [`write_step`](super::write_step) on this
    //! thread fails the snapshot with the `"injected crash"` durability
    //! error, optionally after tearing the file that step wrote to half
    //! its length.

    use std::cell::Cell;
    use std::path::Path;

    use crate::{Result, StreamError};

    thread_local! {
        /// Write steps left until the crash (the crash step included), and
        /// whether it tears the file in flight.
        static ARMED: Cell<Option<(usize, bool)>> = const { Cell::new(None) };
    }

    /// Crashes the snapshot after its `step`-th write step.
    pub(crate) fn arm(step: usize, torn: bool) {
        ARMED.set(Some((step, torn)));
    }

    /// Disarms, and says whether the armed step was never reached.
    pub(crate) fn disarm() -> bool {
        ARMED.take().is_some()
    }

    pub(crate) fn hit(in_flight: Option<&Path>) -> Result<()> {
        match ARMED.get() {
            None => Ok(()),
            Some((left, torn)) if left > 1 => {
                ARMED.set(Some((left - 1, torn)));
                Ok(())
            }
            Some((_, torn)) => {
                ARMED.set(None);
                if let (true, Some(path)) = (torn, in_flight) {
                    let file = std::fs::OpenOptions::new().write(true).open(path);
                    file.and_then(|f| f.set_len(f.metadata()?.len() / 2))
                        .expect("tear the file in flight");
                }
                Err(StreamError::Durability {
                    context: "injected crash".into(),
                    source: std::io::Error::other("snapshot stopped at its armed write step"),
                })
            }
        }
    }
}

/// Loads one snapshot directory, named for `epoch`, back into a
/// [`StreamEngine`] at that epoch, from one read of its `state.bin`. Every
/// cross-field inconsistency is a named [`StreamError::CorruptSnapshot`],
/// including a state file that records another epoch than the directory's
/// name: the journal replay starts past the name, so serving such a
/// snapshot would skip or repeat history.
pub(crate) fn load_snapshot(snap_dir: &Path, epoch: u64, mode: OpenMode) -> Result<StreamEngine> {
    let corrupt = |msg: String| StreamError::CorruptSnapshot(msg);
    let path = snap_dir.join("state.bin");
    let at = path.display();
    let bad = |what: String| corrupt(format!("state file {at} {what}"));
    let bytes = match std::fs::read(&path) {
        Ok(b) => b,
        Err(e)
            if e.kind() == std::io::ErrorKind::NotFound
                && snap_dir.join("manifest.bin").exists() =>
        {
            return Err(corrupt(format!(
                "{} holds the retired manifest.bin and graph.bin layout and no state.bin; \
                 this build reads only state.bin — recover the directory with the build \
                 that wrote it and take a new snapshot",
                snap_dir.display()
            )))
        }
        Err(e) => return Err(bad(format!("unreadable: {e}"))),
    };
    let unreadable = |e: std::io::Error| bad(format!("failed to load: {e}"));
    let mut h = storage::read_header(&STATE, bytes.len() as u64, storage::read_bytes(&bytes))
        .map_err(unreadable)?;
    storage::check_trailer(&STATE, &bytes, 1).map_err(unreadable)?;
    let [recorded, l, r, k, seed, threads, rule, lambda, kind, n, shard_count, m] =
        <[u64; 12]>::try_from(&h.fields[..]).expect("the state schema has 12 fields");
    if recorded != epoch {
        return Err(bad(format!(
            "records epoch {recorded} but the directory names epoch {epoch}"
        )));
    }
    let l = u32::try_from(l).map_err(|_| bad(format!("records walk length {l} beyond u32")))?;
    let cfg = StreamConfig {
        l,
        r: r as usize,
        k: k as usize,
        seed,
        threads: threads as usize,
        rule: match rule {
            0 => GainRule::HittingTime,
            1 => GainRule::Coverage,
            2 => GainRule::Combined {
                lambda: f64::from_bits(lambda),
            },
            tag => return Err(bad(format!("names unknown gain rule tag {tag}"))),
        },
    };
    if kind > WEIGHTED {
        return Err(bad(format!("names unknown graph kind {kind}")));
    }
    let (n, shard_count) = (n as usize, shard_count as usize);
    // The cold start's validation, before anything is sized from these
    // fields: a state the engine could not have been built from is
    // corruption, not a configuration to run.
    engine::validate(&cfg, n, shard_count)
        .map_err(|e| bad(format!("fails engine validation: {e}")))?;
    let ranges_at = h
        .section::<u64>((shard_count as u64).saturating_mul(2))
        .map_err(|e| bad(format!("does not hold its {shard_count} shard ranges: {e}")))?;
    // The ranges must tile [0, r) in order — the layout every shard-indexed
    // consumer (seed maintenance, point-query gather) merges by.
    let mut ranges = Vec::with_capacity(shard_count);
    let mut bounds = storage::le_values::<u64>(&bytes[ranges_at..ranges_at + 16 * shard_count])
        .map(|b| b as usize);
    while let (Some(start), Some(end)) = (bounds.next(), bounds.next()) {
        let next = ranges.last().map_or(0, LayerRange::end);
        if start != next || end <= start || end > cfg.r {
            return Err(bad(format!(
                "holds shard range [{start}, {end}) where the tiling of \
                 [0, {}) continues at layer {next}",
                cfg.r
            )));
        }
        ranges.push(LayerRange::new(start, end));
    }
    if ranges.last().map(LayerRange::end) != Some(cfg.r) {
        return Err(bad(format!("tiles fewer than its {} layers", cfg.r)));
    }

    // Per-shard indexes, cross-checked against the state file's tiling.
    // They open before the graph is built: each shard file's own layout
    // bounds `n` by the file's length, so a lying `n` is refused here
    // instead of sizing the graph build. Mapped mode zero-copies the shard
    // files; hosts without the mapped path deserialize.
    let use_map = mode == OpenMode::Mapped && cfg!(unix) && cfg!(target_endian = "little");
    let mut shards = Vec::with_capacity(shard_count);
    for (i, &rg) in ranges.iter().enumerate() {
        let path = snap_dir.join(format!("shard-{i}.rwdidx"));
        let idx = if use_map {
            WalkIndex::open_mapped(&path)
        } else {
            WalkIndex::load_with_stats(&path, cfg.threads).map(|(idx, _)| idx)
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
                "shard index {} disagrees with the state file (n {} vs {n}, l {} vs {}, \
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

    // Graph rebuild from the canonical edge list.
    let no_edges = |e: std::io::Error| bad(format!("does not hold the {m} edges it records: {e}"));
    let src = h.section::<u32>(m).map_err(no_edges)?;
    let dst = h.section::<u32>(m).map_err(no_edges)?;
    let wts = h
        .section::<u64>(if kind == WEIGHTED { m } else { 0 })
        .map_err(no_edges)?;
    h.content_len().map_err(unreadable)?;
    let m = m as usize;
    let edges = storage::le_values::<u32>(&bytes[src..src + 4 * m])
        .zip(storage::le_values::<u32>(&bytes[dst..dst + 4 * m]));
    let rebuild = |e: rwd_graph::GraphError| bad(format!("fails to rebuild its graph: {e}"));
    let not_canonical = |rebuilt: usize| {
        bad(format!(
            "rebuilt to {rebuilt} edges, not the recorded {m} (the edge \
             list was not canonical)"
        ))
    };
    let graph = if kind == WEIGHTED {
        let weighted: Vec<(u32, u32, f64)> = edges
            .zip(storage::le_values::<u64>(&bytes[wts..wts + 8 * m]))
            .map(|((u, v), w)| (u, v, f64::from_bits(w)))
            .collect();
        let wg = WeightedCsrGraph::from_weighted_edges(n, &weighted).map_err(rebuild)?;
        if wg.m() != m {
            return Err(not_canonical(wg.m()));
        }
        EpochGraph::Weighted(Arc::new(wg))
    } else {
        let mut b = if kind == DIRECTED {
            GraphBuilder::directed()
        } else {
            GraphBuilder::undirected()
        }
        .with_nodes(n)
        .with_edge_capacity(m);
        for (u, v) in edges {
            b.add_edge(u, v);
        }
        let cg = b.build().map_err(rebuild)?;
        if cg.m() != m {
            return Err(not_canonical(cg.m()));
        }
        EpochGraph::Unweighted(Arc::new(cg))
    };

    Ok(StreamEngine::from_parts(cfg, graph, shards, epoch))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::EdgeBatch;
    use rwd_graph::generators::erdos_renyi_gnp;
    use rwd_graph::NodeId;

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
        assert!(dir.join("snap-2/state.bin").exists());

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
    fn a_failed_journal_append_leaves_nothing_behind() {
        let g0 = erdos_renyi_gnp(40, 0.1, 13).unwrap();
        let batches = churn_batches(&g0, 4);
        // A record is an 8-byte header (length, checksum) plus a payload
        // of at least 24 bytes: the write fails inside the length field,
        // inside the checksum, inside the payload, and after the whole
        // record (a failed fsync).
        for (case, bytes) in [2, 6, 20, usize::MAX].into_iter().enumerate() {
            let dir = tmp_dir(&format!("append_fault_{case}"));
            let engine = StreamEngine::new(g0.clone(), cfg()).unwrap();
            let mut durable = engine
                .create_durable(&dir, DurabilityConfig::default())
                .unwrap();
            durable.apply(&batches[0]).unwrap();
            let journal = &mut durable.durable.as_mut().unwrap().journal;
            journal.inject_append_fault(bytes);
            let err = durable.apply(&batches[1]).unwrap_err();
            assert!(
                matches!(&err, StreamError::Durability { context, .. } if context == "write-ahead journal append"),
                "{bytes}: {err}"
            );
            assert_eq!(
                durable.epoch(),
                1,
                "{bytes}: a refused batch publishes nothing"
            );
            for b in &batches[1..] {
                durable.apply(b).unwrap();
            }
            let live = image(&durable);
            drop(durable);
            let (recovered, report) = open(&dir, DurabilityConfig::default()).unwrap();
            assert_eq!(report.epochs_replayed, 4, "{bytes}");
            assert!(
                report.torn_tail.is_none(),
                "{bytes}: {:?}",
                report.torn_tail
            );
            assert_engine_matches(&recovered, &live);
            drop(recovered);
            std::fs::remove_dir_all(&dir).ok();
        }
    }

    #[test]
    fn a_live_engine_locks_its_data_dir() {
        fn refused<T>(attempt: Result<T>) {
            match attempt {
                Ok(_) => panic!("a second live engine got into the data dir"),
                Err(e) => assert!(
                    matches!(&e, StreamError::Durability { context, .. } if context == "data dir lock"),
                    "{e}"
                ),
            }
        }
        let dir = tmp_dir("lock");
        let g0 = erdos_renyi_gnp(40, 0.1, 5).unwrap();
        let engine = StreamEngine::new(g0.clone(), cfg()).unwrap();
        let mut durable = engine
            .create_durable(&dir, DurabilityConfig::default())
            .unwrap();
        for b in churn_batches(&g0, 2) {
            durable.apply(&b).unwrap();
        }
        let live = image(&durable);
        // While it lives, neither a recovery (in either mode) nor a second
        // creator may touch the directory.
        for mode in [OpenMode::Mapped, OpenMode::Deserialize] {
            refused(StreamEngine::open_durable_with(
                &dir,
                DurabilityConfig::default(),
                mode,
            ));
        }
        let second = StreamEngine::new(g0.clone(), cfg()).unwrap();
        let Err(refusal) = second.create_durable(&dir, DurabilityConfig::default()) else {
            panic!("a second live engine got into the data dir");
        };
        assert!(
            matches!(&refusal.cause, StreamError::Durability { context, .. } if context == "data dir lock"),
            "{refusal}"
        );
        // The refused engine comes back whole: it churns on and goes
        // durable in a fresh directory instead.
        let mut second = refusal.into_engine();
        for b in churn_batches(&g0, 3) {
            second.apply(&b).unwrap();
        }
        let other = tmp_dir("lock_other");
        let second = second
            .create_durable(&other, DurabilityConfig::default())
            .unwrap();
        let second_live = image(&second);
        drop(second);
        let (reopened, report) = open(&other, DurabilityConfig::default()).unwrap();
        assert_eq!(report.snapshot_epoch, 3);
        assert_engine_matches(&reopened, &second_live);
        drop(reopened);
        std::fs::remove_dir_all(&other).ok();
        // Dropping the engine releases the lock; the reopened engine holds
        // it in turn.
        drop(durable);
        let (reopened, report) = open(&dir, DurabilityConfig::default()).unwrap();
        assert_eq!(report.epochs_replayed, 2);
        assert_engine_matches(&reopened, &live);
        refused(open(&dir, DurabilityConfig::default()));
        drop(reopened);
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

        let (mut mapped, mrep) =
            StreamEngine::open_durable_with(&dir, DurabilityConfig::default(), OpenMode::Mapped)
                .unwrap();
        assert_eq!(mrep.epochs_replayed, 0);
        assert_engine_matches(&mapped, &live);
        // A snapshot at the epoch just loaded is already on disk: it must
        // not rewrite the files the mapped engine serves from.
        assert!(matches!(mapped.snapshot_now(), Ok(3)));
        assert_engine_matches(&mapped, &live);
        drop(mapped);
        let (owned, orep) = StreamEngine::open_durable_with(
            &dir,
            DurabilityConfig::default(),
            OpenMode::Deserialize,
        )
        .unwrap();
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
        drop(owned);
        let (reopened, report) = open(&dir, DurabilityConfig::default()).unwrap();
        assert_eq!((report.snapshot_epoch, report.epochs_replayed), (3, 0));
        assert_engine_matches(&reopened, &live);
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
        bytes[..8].copy_from_slice(b"RWDIDX4\0");
        std::fs::write(&shard, &bytes).unwrap();

        // A bit-rotted state file is rejected by name: its seed field is
        // structurally free, so only the CRC trailer can notice.
        let state = dir.join("snap-0").join("state.bin");
        let good_state = std::fs::read(&state).unwrap();
        let mut rot = good_state.clone();
        rot[8 + 4 * 8] ^= 0x08;
        std::fs::write(&state, &rot).unwrap();
        for mode in [OpenMode::Mapped, OpenMode::Deserialize] {
            let err = StreamEngine::open_durable_with(&dir, DurabilityConfig::default(), mode)
                .unwrap_err();
            assert!(
                matches!(&err, StreamError::CorruptSnapshot(m) if m.contains("content checksum mismatch")),
                "{mode:?}: {err}"
            );
        }

        // A snapshot in the retired layout — manifest.bin and graph.bin,
        // no state.bin — is refused by name, never parsed.
        std::fs::remove_file(&state).unwrap();
        std::fs::write(dir.join("snap-0/manifest.bin"), b"RWDSNP1\0").unwrap();
        std::fs::write(dir.join("snap-0/graph.bin"), b"RWDGRF1\0").unwrap();
        for mode in [OpenMode::Mapped, OpenMode::Deserialize] {
            let err = StreamEngine::open_durable_with(&dir, DurabilityConfig::default(), mode)
                .unwrap_err();
            assert!(
                matches!(&err, StreamError::CorruptSnapshot(m) if m.contains("retired manifest.bin")),
                "{mode:?}: {err}"
            );
        }
        std::fs::remove_file(dir.join("snap-0/manifest.bin")).unwrap();
        std::fs::remove_file(dir.join("snap-0/graph.bin")).unwrap();
        std::fs::write(&state, &good_state).unwrap();
        assert!(open(&dir, DurabilityConfig::default()).is_ok());

        // create_durable() refuses to clobber an existing data dir.
        let g0 = erdos_renyi_gnp(30, 0.12, 2).unwrap();
        let engine = StreamEngine::new(g0, cfg()).unwrap();
        assert!(matches!(
            engine
                .create_durable(&dir, DurabilityConfig::default())
                .unwrap_err()
                .cause,
            StreamError::InvalidConfig(_)
        ));
        std::fs::remove_dir_all(&dir).ok();
    }

    /// A decoded `state.bin`: its header fields and the values of its
    /// sections, written back through the codec by [`put_state`].
    #[derive(Clone)]
    struct State {
        fields: Vec<u64>,
        ranges: Vec<u64>,
        sources: Vec<u32>,
        targets: Vec<u32>,
        weights: Vec<u64>,
    }

    /// `state.bin`'s header fields by position.
    const L: usize = 1;
    const R: usize = 2;
    const K: usize = 3;
    const RULE: usize = 6;
    const LAMBDA: usize = 7;
    const KIND: usize = 8;
    const N: usize = 9;
    const SHARDS: usize = 10;
    const EDGES: usize = 11;

    fn get_state(path: &Path) -> State {
        fn values<T: storage::Pod>(h: &mut storage::Header, bytes: &[u8], count: u64) -> Vec<T> {
            let at = h.section::<T>(count).unwrap();
            let len = count as usize * std::mem::size_of::<T>();
            storage::le_values(&bytes[at..at + len]).collect()
        }
        let bytes = std::fs::read(path).unwrap();
        let read = storage::read_bytes(&bytes);
        let mut h = storage::read_header(&STATE, bytes.len() as u64, read).unwrap();
        let (shards, m) = (h.fields[SHARDS], h.fields[EDGES]);
        let weighted = h.fields[KIND] == WEIGHTED;
        State {
            ranges: values(&mut h, &bytes, 2 * shards),
            sources: values(&mut h, &bytes, m),
            targets: values(&mut h, &bytes, m),
            weights: values(&mut h, &bytes, if weighted { m } else { 0 }),
            fields: h.fields,
        }
    }

    /// Writes `state` as a CRC-valid state file, whatever its fields say.
    fn put_state(path: &Path, state: &State) {
        let file = File::create(path).unwrap();
        let mut w = SectionWriter::new(file, &STATE, &state.fields, &[]).unwrap();
        w.section(&state.ranges).unwrap();
        w.section(&state.sources).unwrap();
        w.section(&state.targets).unwrap();
        w.section(&state.weights).unwrap();
        w.finish().unwrap();
    }

    /// A state file whose CRC is valid but which describes an engine the
    /// cold start would refuse is named corruption on both open paths:
    /// never a panic, an allocation sized by a lying field, or a silent
    /// truncation.
    #[test]
    fn invalid_manifests_are_named_corruption_in_both_open_modes() {
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
        let state_file = snap.join("state.bin");
        let good = get_state(&state_file);
        // The codec writes the decoded state back byte for byte.
        let written = std::fs::read(&state_file).unwrap();
        put_state(&state_file, &good);
        assert_eq!(std::fs::read(&state_file).unwrap(), written);
        let shard_file = |i: usize| snap.join(format!("shard-{i}.rwdidx"));
        let good_shards: Vec<Vec<u8>> = (0..2)
            .map(|i| std::fs::read(shard_file(i)).unwrap())
            .collect();

        // (case, state patch, expected error text)
        type Case = (&'static str, fn(&mut State), &'static str);
        let cases: [Case; 10] = [
            (
                "k = n + 1",
                |s| s.fields[K] = 31,
                "k = 31 outside [1, n = 30]",
            ),
            ("k = 0", |s| s.fields[K] = 0, "k = 0 outside"),
            (
                "lambda = 2",
                |s| {
                    s.fields[RULE] = 2;
                    s.fields[LAMBDA] = 2f64.to_bits();
                },
                "lambda = 2 outside [0, 1]",
            ),
            (
                "2^60 shards, no range entries",
                |s| {
                    s.fields[SHARDS] = 1 << 60;
                    s.ranges.clear();
                },
                "invalid shard count",
            ),
            (
                "2^60 shards over 2^61 layers, no range entries",
                |s| {
                    s.fields[R] = 1 << 61;
                    s.fields[SHARDS] = 1 << 60;
                    s.ranges.clear();
                },
                "shard ranges",
            ),
            (
                "l = 2^32 + 4",
                |s| s.fields[L] = (1 << 32) + 4,
                "walk length 4294967300 beyond u32",
            ),
            (
                "ranges [0, 2), [4, 6)",
                |s| s.ranges = vec![0, 2, 4, 6],
                "continues at layer 2",
            ),
            (
                "counts 2^61 + m edges",
                |s| s.fields[EDGES] += 1 << 61,
                "edges it records",
            ),
            (
                "weighted, counts 2^60 + m edges",
                |s| {
                    s.fields[KIND] = WEIGHTED;
                    s.weights = vec![1f64.to_bits(); s.sources.len()];
                    s.fields[EDGES] += 1 << 60;
                },
                "edges it records",
            ),
            (
                "claims n = 31",
                |s| {
                    // The shard files bound n before the graph is
                    // decoded, so its lying edge count is never reached.
                    s.fields[N] = 31;
                    s.fields[EDGES] += 1 << 61;
                },
                "(n 30 vs 31,",
            ),
        ];
        for (what, patch, want) in cases {
            let mut state = good.clone();
            patch(&mut state);
            put_state(&state_file, &state);
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

        // The untouched state file still opens.
        put_state(&state_file, &good);
        assert!(open(&dir, DurabilityConfig::default()).is_ok());
        std::fs::remove_dir_all(&dir).ok();
    }

    /// Writes three batches with a snapshot every two, so the directory
    /// holds `snap-2/` and a journal whose one record publishes epoch 3,
    /// then puts `snap-2/`'s files under `snap-3/` as well (`copy`) or
    /// instead (a rename). Returns the live image.
    fn misnamed_snapshot(dir: &Path, copy: bool) -> Image {
        let g0 = erdos_renyi_gnp(50, 0.08, 23).unwrap();
        let engine = StreamEngine::new(g0.clone(), cfg()).unwrap();
        let dcfg = DurabilityConfig { snapshot_every: 2 };
        let mut durable = engine.create_durable(dir, dcfg).unwrap();
        for b in churn_batches(&g0, 3) {
            durable.apply(&b).unwrap();
        }
        let live = image(&durable);
        drop(durable);
        let (from, to) = (dir.join("snap-2"), dir.join("snap-3"));
        if copy {
            std::fs::create_dir(&to).unwrap();
            for entry in std::fs::read_dir(&from).unwrap() {
                let entry = entry.unwrap();
                std::fs::copy(entry.path(), to.join(entry.file_name())).unwrap();
            }
        } else {
            std::fs::rename(&from, &to).unwrap();
        }
        live
    }

    /// A snapshot whose manifest records another epoch than its directory
    /// name is refused, and the open falls back to its predecessor.
    #[test]
    fn a_snapshot_copied_under_a_newer_epoch_falls_back_to_the_real_one() {
        let dir = tmp_dir("misnamed_copy");
        let live = misnamed_snapshot(&dir, true);
        let (recovered, report) = open(&dir, DurabilityConfig::default()).unwrap();
        assert_eq!(
            (
                report.snapshot_epoch,
                report.epochs_replayed,
                report.recovered_epoch
            ),
            (2, 1, 3)
        );
        assert_engine_matches(&recovered, &live);
        drop(recovered);
        std::fs::remove_dir_all(&dir).ok();
    }

    /// With no predecessor to fall back to, the misnamed snapshot refuses
    /// the open by name and the journal is left as it was.
    #[test]
    fn a_snapshot_renamed_to_a_newer_epoch_refuses_the_open_by_name() {
        let dir = tmp_dir("misnamed_rename");
        misnamed_snapshot(&dir, false);
        let journal = dir.join("journal-2.wal");
        let before = std::fs::read(&journal).unwrap();
        let Err(err) = open(&dir, DurabilityConfig::default()) else {
            panic!("the misnamed snapshot was served");
        };
        assert!(
            matches!(&err, StreamError::CorruptSnapshot(m)
                if m.contains("records epoch 2 but the directory names epoch 3")),
            "{err}"
        );
        assert_eq!(std::fs::read(&journal).unwrap(), before);
        std::fs::remove_dir_all(&dir).ok();
    }

    /// The crash suite: a snapshot stopped after each of its write steps in
    /// turn — each shard file written and fsync'd, `state.bin` written and
    /// fsync'd, the directory fsync, the journal rotation and each
    /// compaction delete — with the file in flight whole or torn at half
    /// its length, and the engine dropped at once. Both open modes must
    /// land bitwise on the live state, and the next batch and snapshot must
    /// land and compact, on an unweighted and a weighted 2-shard engine.
    #[test]
    fn a_crash_at_every_snapshot_write_step_recovers_the_live_state() {
        let g0 = erdos_renyi_gnp(40, 0.1, 29).unwrap();
        let batches = churn_batches(&g0, 4);
        let epochs = |dir: &Path, prefix: &str| -> Vec<u64> {
            find_numbered(dir, prefix)
                .unwrap()
                .into_iter()
                .map(|(e, _)| e)
                .collect()
        };
        for weighted in [false, true] {
            for torn in [false, true] {
                let mut steps = 0;
                for step in 1.. {
                    let dir = tmp_dir(&format!("crash_{weighted}_{torn}_{step}"));
                    let engine = if weighted {
                        let w0 = rwd_graph::weighted::weighted_twin(&g0, 3).unwrap();
                        StreamEngine::with_shards_weighted(w0, cfg(), 2)
                    } else {
                        StreamEngine::with_shards(g0.clone(), cfg(), 2)
                    };
                    let mut durable = engine
                        .unwrap()
                        .create_durable(&dir, DurabilityConfig::default())
                        .unwrap();
                    for b in &batches[..3] {
                        durable.apply(b).unwrap();
                    }
                    let live = image(&durable);
                    fail_point::arm(step, torn);
                    let taken = durable.snapshot_now();
                    drop(durable);
                    let case = format!("weighted {weighted}, torn {torn}, step {step}");
                    if fail_point::disarm() {
                        // Armed past the last step: the snapshot completed.
                        assert!(matches!(taken, Ok(3)), "{case}");
                        std::fs::remove_dir_all(&dir).ok();
                        break;
                    }
                    steps = step;
                    assert!(
                        matches!(&taken, Err(StreamError::Durability { context, .. }) if context == "injected crash"),
                        "{case}: {taken:?}"
                    );
                    for mode in [OpenMode::Mapped, OpenMode::Deserialize] {
                        let (recovered, report) = StreamEngine::open_durable_with(
                            &dir,
                            DurabilityConfig::default(),
                            mode,
                        )
                        .unwrap_or_else(|e| panic!("{case} ({mode:?}): {e}"));
                        assert_eq!(report.recovered_epoch, 3, "{case}");
                        assert_engine_matches(&recovered, &live);
                    }
                    let (mut recovered, _) = open(&dir, DurabilityConfig::default()).unwrap();
                    recovered.apply(&batches[3]).unwrap();
                    assert!(matches!(recovered.snapshot_now(), Ok(4)), "{case}");
                    assert_eq!(epochs(&dir, "snap-"), vec![4], "{case}");
                    assert_eq!(epochs(&dir, "journal-"), vec![4], "{case}");
                    let after = image(&recovered);
                    drop(recovered);
                    let (reopened, report) = open(&dir, DurabilityConfig::default()).unwrap();
                    assert_eq!(report.epochs_replayed, 0, "{case}");
                    assert_engine_matches(&reopened, &after);
                    drop(reopened);
                    std::fs::remove_dir_all(&dir).ok();
                }
                // 2 shards × (write, fsync), the state file's write and
                // fsync, the directory fsync, the journal rotation, and the
                // deletes of snap-0 and journal-0.
                assert_eq!(steps, 10, "weighted {weighted}, torn {torn}");
            }
        }
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

    /// A checksum-valid record that does not replay — it deletes an absent
    /// edge, or holds no edits — refuses the whole open by name, and the
    /// refused open changes nothing: cut the record and the directory
    /// recovers the live image of the records before it.
    #[test]
    fn unreplayable_records_refuse_the_open_by_name() {
        let g0 = erdos_renyi_gnp(40, 0.1, 19).unwrap();
        let batches = churn_batches(&g0, 3);
        for (case, bad, want) in [
            (
                "absent deletion",
                true,
                "journaled batch for epoch 4 failed to re-apply",
            ),
            (
                "no edits",
                false,
                "replaying the record for epoch 4 advanced the engine to epoch 3 instead",
            ),
        ] {
            let dir = tmp_dir(&format!("unreplayable_{bad}"));
            let engine = StreamEngine::with_shards(g0.clone(), cfg(), 2).unwrap();
            let mut durable = engine
                .create_durable(&dir, DurabilityConfig::default())
                .unwrap();
            for b in &batches {
                durable.apply(b).unwrap();
            }
            let live = image(&durable);
            let g = durable.graph().unwrap();
            let absent = (0..40u32)
                .flat_map(|u| ((u + 1)..40).map(move |v| (u, v)))
                .find(|&(u, v)| !g.has_edge(NodeId(u), NodeId(v)))
                .unwrap();
            drop(durable);

            let path = dir.join("journal-0.wal");
            let len = std::fs::metadata(&path).unwrap().len();
            let deletions = if bad { vec![absent] } else { Vec::new() };
            BatchJournal::open_append(&path, len)
                .unwrap()
                .append(4, 104, &[], &deletions)
                .unwrap();
            for mode in [OpenMode::Mapped, OpenMode::Deserialize] {
                let err = StreamEngine::open_durable_with(&dir, DurabilityConfig::default(), mode)
                    .unwrap_err();
                assert!(
                    matches!(&err, StreamError::CorruptJournal(m) if m.contains(want)),
                    "{case} ({mode:?}): {err}"
                );
            }

            std::fs::OpenOptions::new()
                .write(true)
                .open(&path)
                .unwrap()
                .set_len(len)
                .unwrap();
            let (recovered, report) = open(&dir, DurabilityConfig::default()).unwrap();
            assert_eq!(report.epochs_replayed, 3, "{case}");
            assert!(report.torn_tail.is_none(), "{case}");
            assert_engine_matches(&recovered, &live);
            drop(recovered);
            std::fs::remove_dir_all(&dir).ok();
        }
    }
}
