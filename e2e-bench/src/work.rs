//! The three workloads and the phases they share.
//!
//! Every workload drives the production stack — an `rwd-serve` [`Server`]
//! over a durable 2-shard `rwd-stream` engine, one query worker, engine
//! threads set to 1 — and reports every end-to-end metric, so every one
//! also runs reads, writes and restarts outside its own headline phase.
//! Phases run in rounds spread over the run, so a slow stretch of the host
//! moves a few samples of every metric instead of all samples of one. Reads
//! race writes only in churn-write's churn phase, whose latencies are
//! reported apart (`race.*`, not gated), and every restart opens a data
//! directory that ends at a snapshot plus exactly [`SUFFIX`] journal
//! records.

use std::collections::{BTreeMap, HashMap};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

use rwd_core::greedy::approx::GainRule;
use rwd_graph::weighted::WeightedCsrGraph;
use rwd_graph::{CsrGraph, NodeId};
use rwd_serve::snapshot::SnapshotGraph;
use rwd_serve::{
    Query, QueryAnswer, QueryValue, ServeEngine, Server, ServerHandle, Snapshot, Ticket,
};
use rwd_stream::{
    BatchReport, DurabilityConfig, EdgeBatch, OpenMode, SeedMaintainer, StreamConfig, StreamEngine,
};
use rwd_walks::{LayerRange, WalkIndex};

use crate::host;
use crate::inputs::{Ask, Inputs};
use crate::trace::{mean, median, ms, quantile, us, Scrape, Tracer};

const L: u32 = 10;
const R: usize = 32;
const K: usize = 20;
const SHARDS: usize = 2;
const SNAPSHOT_EVERY: u64 = 8;
/// Journal records past the newest snapshot whenever a restart happens.
const SUFFIX: usize = 4;
/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 3;
/// Offered rate of the read-only open loop (queries per second).
const READ_RATE: f64 = 20_000.0;
/// Offered rate of the point-query stream beside the churn feeder.
const LIGHT_RATE: f64 = 2_000.0;
/// The open-loop generator sleeps until this long before a send is due,
/// then spins: waking an idle virtual CPU can take tens of microseconds,
/// which would otherwise count as lateness of every send at a low rate.
const SPIN_AHEAD: Duration = Duration::from_micros(40);
/// Shares of `--seconds` spent in read-only open loops (per workload), in
/// closed loops (every workload) and churning (churn-write).
const OPEN_SHARE: f64 = 0.3;
const RESTART_OPEN_SHARE: f64 = 0.1;
const CLOSED_SHARE: f64 = 0.1;
const CHURN_SHARE: f64 = 0.5;
const CHURN_OPEN_SHARE: f64 = 0.1;
/// Read rounds of serve-read.
const READ_ROUNDS: usize = 10;
/// Churn rounds of churn-write.
const CHURN_ROUNDS: usize = 6;
/// Queries per closed-loop burst.
const DEPTH: usize = 128;
/// Closed-loop slices per run, spread over it.
const CLOSED_SLICES: usize = 20;
/// Restart cycles after each snapshot cycle of writes; the restart
/// workload makes [`RESTART_CYCLES`].
const CYCLES_PER_ROUND: usize = 2;
const RESTART_CYCLES: usize = 3;
/// Distinct point queries the closed loop cycles through.
const POOL: usize = 4_096;

/// The CPU the benchmark's client threads run on.
pub const CLIENT_CPU: usize = 0;
/// The CPU every server thread — query worker and writer — runs on.
const SERVER_CPU: usize = 1;

/// Starts a server with one query worker. When the client is pinned, the
/// server's threads start on [`SERVER_CPU`] (threads inherit the spawner's
/// affinity).
fn start_server(engine: ServeEngine, pinned: bool) -> Server {
    if pinned {
        host::set_affinity(&[SERVER_CPU]);
    }
    let server = Server::start(engine, 1);
    if pinned {
        host::set_affinity(&[CLIENT_CPU]);
    }
    server
}

fn durability() -> DurabilityConfig {
    DurabilityConfig {
        snapshot_every: SNAPSHOT_EVERY,
    }
}

/// A workload: one traffic mix over one input shape.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    ServeRead,
    ChurnWrite,
    Restart,
}

impl Workload {
    pub const ALL: [Workload; 3] = [Workload::ServeRead, Workload::ChurnWrite, Workload::Restart];

    pub fn name(self) -> &'static str {
        match self {
            Workload::ServeRead => "serve-read",
            Workload::ChurnWrite => "churn-write",
            Workload::Restart => "restart",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Whether the workload runs the weighted pipeline.
    pub fn weighted(self) -> bool {
        self == Workload::Restart
    }

    /// Churn batches and queries to generate for a run of `seconds`.
    pub fn sizes(self, seconds: f64) -> (usize, usize) {
        let n = SNAPSHOT_EVERY as usize;
        // Snapshot cycles of the write phase in serve-read and restart.
        let write_cycles = |per_second: f64| ((seconds * per_second) as usize).max(1);
        match self {
            // Whole snapshot cycles plus the suffix for the write phase.
            Workload::ServeRead => (
                write_cycles(0.4) * n + SUFFIX,
                (READ_RATE * seconds * OPEN_SHARE) as usize,
            ),
            Workload::ChurnWrite => {
                // Far more batches than a run can commit; the length keeps
                // the journal suffix fixed even if the trace runs out.
                let batches = (40.0 * seconds) as usize / n * n + SUFFIX;
                let rate = LIGHT_RATE * CHURN_SHARE + READ_RATE * CHURN_OPEN_SHARE;
                (batches, (rate * seconds) as usize)
            }
            // The prefix every set-up applies, then the write phase.
            Workload::Restart => (n + SUFFIX + write_cycles(0.25) * n, 8_192),
        }
    }
}

fn stream_config(seed: u64) -> StreamConfig {
    StreamConfig {
        l: L,
        r: R,
        k: K,
        seed: seed ^ 0x005E_ED0F_3A1C,
        rule: GainRule::HittingTime,
        threads: 1,
    }
}

/// What one pass measured.
#[derive(Default)]
pub struct Run {
    pub attempted: u64,
    pub failed: u64,
    pub errors: Vec<String>,
    pub setup_s: Vec<f64>,
    pub point_us: Vec<f64>,
    pub set_us: Vec<f64>,
    /// Open-loop latencies of queries that raced the churn feeder.
    pub race_point_us: Vec<f64>,
    pub race_set_us: Vec<f64>,
    pub queue_us: Vec<f64>,
    pub service_us: Vec<f64>,
    pub late_us: Vec<f64>,
    /// Queries sent and queries offered by the open loops.
    pub sent: f64,
    pub offered: f64,
    pub capacity_qps: Vec<f64>,
    pub commits: Vec<CommitRec>,
    pub ingest_edits: f64,
    pub ingest_s: f64,
    pub restarts: Vec<RestartRec>,
    pub direct_point_us: Vec<f64>,
    pub direct_set_us: Vec<f64>,
    pub open_mapped_ms: Vec<f64>,
    pub build_ms: f64,
    pub postings: f64,
    pub bootstrap_ms: f64,
    pub snapshot_mb: f64,
    /// Peak RSS (MB) at the end of each phase, to show which phase sets it.
    pub peaks: Vec<(&'static str, f64)>,
    /// Peak RSS (MB) at the end of the last timed phase: `peak_rss_mb`.
    pub peak_rss_mb: f64,
    /// Requests sent per server endpoint, for the traced audit.
    by_endpoint: BTreeMap<&'static str, u64>,
    next_op: u64,
}

impl Run {
    fn fail(&mut self, why: String) {
        self.failed += 1;
        if self.errors.len() < 8 {
            self.errors.push(why);
        }
    }

    fn mark(&mut self, phase: &'static str) {
        self.peaks.push((phase, host::peak_rss_mb()));
    }

    /// Marks the end of the last timed phase. The gated peak RSS is read
    /// here, so no correctness check or traced-only work that follows can
    /// set it.
    fn end_timed(&mut self, phase: &'static str) {
        self.mark(phase);
        self.peak_rss_mb = host::peak_rss_mb();
    }

    fn op(&mut self) -> u64 {
        self.next_op += 1;
        self.next_op
    }

    /// Takes over another run's operation counts and failures only.
    fn absorb_outcomes(&mut self, other: Run) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        for e in other.errors {
            if self.errors.len() < 8 {
                self.errors.push(e);
            }
        }
    }

    /// Takes over another run's commits as well.
    fn absorb(&mut self, mut other: Run) {
        self.commits.append(&mut other.commits);
        self.ingest_edits += other.ingest_edits;
        self.ingest_s += other.ingest_s;
        self.absorb_outcomes(other);
    }

    fn sent_to(&mut self, ask: Ask) {
        *self.by_endpoint.entry(endpoint(ask)).or_default() += 1;
    }
}

fn endpoint(ask: Ask) -> &'static str {
    match ask {
        Ask::HitTime(_) => "hit_time",
        Ask::HitProb(_) => "hit_prob",
        Ask::Coverage => "coverage",
        Ask::Top(_) => "top",
        Ask::Seeds => "seeds",
    }
}

/// Shared context of one pass.
pub struct Ctx<'a> {
    pub workload: Workload,
    pub seconds: f64,
    pub seed: u64,
    pub dir: PathBuf,
    pub inputs: &'a Inputs,
    pub tracer: &'a Tracer,
    /// Whether the client runs pinned to [`CLIENT_CPU`] and the server to
    /// [`SERVER_CPU`].
    pub pinned: bool,
}

impl Ctx<'_> {
    fn phase(&self, share: f64) -> Duration {
        Duration::from_secs_f64(self.seconds * share)
    }
}

// ---------------------------------------------------------------- answers --

/// A query answer reduced to bits, so equality is bitwise.
#[derive(Clone, Debug, PartialEq)]
enum Val {
    Scalar(u64),
    Ranked(Vec<(u32, u64)>),
    Seeds(Vec<u32>, u64),
    Other(String),
}

fn val(v: &QueryValue) -> Val {
    match v {
        QueryValue::Scalar(x) => Val::Scalar(x.to_bits()),
        QueryValue::Ranked(r) => {
            Val::Ranked(r.iter().map(|(n, p)| (n.raw(), p.to_bits())).collect())
        }
        QueryValue::Seeds { seeds, objective } => {
            Val::Seeds(seeds.iter().map(|s| s.raw()).collect(), objective.to_bits())
        }
        other => Val::Other(format!("{other:?}")),
    }
}

/// Answers one query with a direct `Snapshot` call, timing the call.
fn direct(snap: &Snapshot, ask: Ask, run: &mut Run) -> Val {
    let t = Instant::now();
    let v = match ask {
        Ask::HitTime(v) => Val::Scalar(snap.hit_time(NodeId(v)).to_bits()),
        Ask::HitProb(v) => Val::Scalar(snap.hit_prob(NodeId(v)).to_bits()),
        Ask::Coverage => Val::Scalar(snap.coverage().to_bits()),
        Ask::Top(m) => val(&QueryValue::Ranked(snap.top_m_uncovered(m as usize))),
        Ask::Seeds => Val::Seeds(
            snap.seeds().iter().map(|s| s.raw()).collect(),
            snap.objective().to_bits(),
        ),
    };
    let took = us(t.elapsed());
    if ask.is_point() {
        run.direct_point_us.push(took);
    } else if ask.is_set() {
        run.direct_set_us.push(took);
    }
    v
}

/// Expected answers on one epoch, from direct `Snapshot` calls on that
/// epoch: learnt lazily from a pinned snapshot, or up front when the state
/// is about to be killed.
struct Expect {
    epoch: u64,
    memo: HashMap<Ask, Val>,
}

impl Expect {
    fn new(snap: &Snapshot) -> Expect {
        Expect {
            epoch: snap.epoch(),
            memo: HashMap::new(),
        }
    }

    fn learn(&mut self, snap: &Snapshot, asks: &[Ask], run: &mut Run) {
        for &a in asks.iter().chain([Ask::Seeds].iter()) {
            self.memo.entry(a).or_insert_with(|| direct(snap, a, run));
        }
    }

    fn check(
        &mut self,
        snap: Option<&Snapshot>,
        ask: Ask,
        answer: &QueryAnswer,
        run: &mut Run,
    ) -> Result<(), String> {
        if let (false, Some(snap)) = (self.memo.contains_key(&ask), snap) {
            let v = direct(snap, ask, run);
            self.memo.insert(ask, v);
        }
        self.verify(ask, answer)
    }

    /// Checks an answer against an expectation already learnt.
    fn verify(&self, ask: Ask, answer: &QueryAnswer) -> Result<(), String> {
        if answer.epoch != self.epoch {
            return Err(format!(
                "{ask:?} answered at epoch {} instead of {}",
                answer.epoch, self.epoch
            ));
        }
        let want = self
            .memo
            .get(&ask)
            .ok_or_else(|| format!("no expected answer for {ask:?}"))?;
        let got = val(&answer.value);
        if got == *want {
            Ok(())
        } else {
            Err(format!("{ask:?} answered {got:?}, expected {want:?}"))
        }
    }
}

// ------------------------------------------------------------------ loads --

/// The workload's query sequence, replayed from the start and wrapping.
struct Asks<'a> {
    asks: &'a [Ask],
    at: usize,
}

impl<'a> Asks<'a> {
    fn new(asks: &'a [Ask]) -> Self {
        Asks { asks, at: 0 }
    }

    fn next(&mut self) -> Ask {
        let a = self.asks[self.at % self.asks.len()];
        self.at += 1;
        a
    }
}

struct Sent {
    ask: Ask,
    sched: Instant,
    late: Duration,
    ticket: Ticket<QueryAnswer>,
}

/// Open loop: sends one query every `1 / rate` seconds from its scheduled
/// time, sleeping in between and spinning for the last [`SPIN_AHEAD`],
/// until `stop(scheduled offset, sent)` holds.
fn open_loop(
    handle: &ServerHandle,
    asks: &mut Asks<'_>,
    rate: f64,
    mut stop: impl FnMut(Duration, usize) -> bool,
    run: &mut Run,
) -> Vec<Sent> {
    let period = Duration::from_secs_f64(1.0 / rate);
    let t0 = Instant::now() + Duration::from_millis(1);
    let mut sent = Vec::new();
    let mut i = 0u32;
    loop {
        let offset = period * i;
        if stop(offset, sent.len()) {
            break;
        }
        let sched = t0 + offset;
        let now = Instant::now();
        if sched > now + SPIN_AHEAD {
            std::thread::sleep(sched - SPIN_AHEAD - now);
        }
        while Instant::now() < sched {
            std::hint::spin_loop();
        }
        let send = Instant::now();
        let ask = asks.next();
        i += 1;
        match handle.query(ask.query()) {
            Ok(ticket) => {
                run.sent_to(ask);
                sent.push(Sent {
                    ask,
                    sched,
                    late: send - sched,
                    ticket,
                });
            }
            Err(e) => {
                run.attempted += 1;
                run.fail(format!("query refused: {e}"));
            }
        }
    }
    // Offered: what the schedule asks for over the window the generator
    // actually took; a generator that falls behind stretches the window.
    if let Some(last) = sent.last() {
        let window = (last.sched + last.late).saturating_duration_since(t0) + period;
        run.sent += sent.len() as f64;
        run.offered += rate * window.as_secs_f64();
    }
    sent
}

/// Waits for every open-loop answer, checks it, and records its latency
/// from the scheduled send (generator lateness included). Answers that
/// raced the churn feeder are recorded apart (`race`).
fn collect(
    sent: Vec<Sent>,
    race: bool,
    run: &mut Run,
    tracer: &Tracer,
    mut verify: impl FnMut(Ask, &QueryAnswer, &mut Run) -> Result<(), String>,
) {
    for s in sent {
        let a = s.ticket.wait();
        run.attempted += 1;
        run.late_us.push(us(s.late));
        if let QueryValue::Invalid(why) = &a.value {
            run.fail(format!("{:?} answered Invalid: {why}", s.ask));
            continue;
        }
        if let Err(e) = verify(s.ask, &a, run) {
            run.fail(e);
            continue;
        }
        let lat = us(s.late + a.latency);
        if race {
            if s.ask.is_point() {
                run.race_point_us.push(lat);
            } else if s.ask.is_set() {
                run.race_set_us.push(lat);
            }
        } else if s.ask.is_point() {
            run.point_us.push(lat);
            run.queue_us.push(us(a.queue));
            run.service_us.push(us(a.service));
        } else if s.ask.is_set() {
            run.set_us.push(lat);
        }
        if tracer.on() {
            let op = run.op();
            let send = s.sched + s.late;
            let root = tracer.span("query", op, None, s.sched, send + a.latency);
            tracer.span("gen.late", op, root, s.sched, send);
            let mut c = send;
            tracer.part("serve.queue", op, root, &mut c, a.queue);
            tracer.part("serve.service", op, root, &mut c, a.service);
        }
    }
}

/// The first `n` point queries of the sequence: the closed loop's pool,
/// learnt up front so answers are checked as they arrive.
fn point_pool(asks: &[Ask], n: usize) -> Vec<Ask> {
    asks.iter()
        .copied()
        .filter(|a| a.is_point())
        .take(n)
        .collect()
}

/// Closed loop over `pool` (point queries whose answers `expect` knows) for
/// `dur`: sends a burst of [`DEPTH`] queries, waits for every answer,
/// checks each, and sends the next burst. Records the completion rate of
/// one slice; `reads.capacity_qps` is the median over a run's
/// [`CLOSED_SLICES`] slices.
///
/// A pinned client runs on the query worker's CPU meanwhile: the worker
/// answers a whole burst while the client waits, so the rate counts the
/// CPU cost of a query on one CPU, not how fast the host moves cache lines
/// and wake-ups between two CPUs, which varies with where the host places
/// them.
fn closed_loop(
    handle: &ServerHandle,
    pool: &[Ask],
    expect: &Expect,
    dur: Duration,
    pinned: bool,
    run: &mut Run,
) {
    if pinned {
        host::set_affinity(&[SERVER_CPU]);
    }
    let mut asks = Asks::new(pool);
    let mut burst = Vec::with_capacity(DEPTH);
    let mut completed = 0u64;
    let start = Instant::now();
    while start.elapsed() < dur {
        for _ in 0..DEPTH {
            let ask = asks.next();
            match handle.query(ask.query()) {
                Ok(t) => {
                    run.sent_to(ask);
                    burst.push((ask, t));
                }
                Err(e) => {
                    run.attempted += 1;
                    run.fail(format!("query refused: {e}"));
                }
            }
        }
        for (ask, ticket) in burst.drain(..) {
            let answer = ticket.wait();
            run.attempted += 1;
            completed += 1;
            if let Err(e) = expect.verify(ask, &answer) {
                run.fail(e);
            }
        }
    }
    run.capacity_qps
        .push(completed as f64 / start.elapsed().as_secs_f64());
    if pinned {
        host::set_affinity(&[CLIENT_CPU]);
    }
}

// ---------------------------------------------------------------- commits --

/// Engine-reported parts of one batch's apply service, read as deltas of
/// the process-wide registry around the commit (traced passes only).
#[derive(Clone, Copy, Debug, Default)]
pub struct ApplyParts {
    pub stage_ms: f64,
    pub journal_ms: f64,
    pub append_ms: f64,
    pub publish_ms: f64,
    pub snapshot_ms: f64,
    pub journal_bytes: u64,
    pub snapshots: u64,
}

pub struct CommitRec {
    pub total_ms: f64,
    pub queue_ms: f64,
    pub service_ms: f64,
    pub edits: usize,
    pub report: BatchReport,
    pub parts: Option<ApplyParts>,
}

impl CommitRec {
    pub fn refresh_sum_ms(&self) -> f64 {
        self.report.shards.iter().map(|s| s.refresh_ms).sum()
    }

    pub fn refresh_max_ms(&self) -> f64 {
        self.report
            .shards
            .iter()
            .map(|s| s.refresh_ms)
            .fold(0.0, f64::max)
    }

    /// Apply service not covered by any part the engine reports.
    pub fn apply_unattributed_ms(&self) -> Option<f64> {
        self.parts.map(|p| {
            self.service_ms
                - p.stage_ms
                - p.journal_ms
                - self.refresh_sum_ms()
                - self.report.maintain_ms
                - p.publish_ms
                - p.snapshot_ms
        })
    }
}

const PHASE: &str = "rwd_stream_phase_ns";

fn apply_parts(before: &Scrape, after: &Scrape) -> ApplyParts {
    ApplyParts {
        stage_ms: after.delta_ms(before, PHASE, &[("phase", "stage")]),
        journal_ms: after.delta_ms(before, PHASE, &[("phase", "journal")]),
        append_ms: after.delta_ms(before, "rwd_durable_journal_append_ns", &[]),
        publish_ms: after.delta_ms(before, PHASE, &[("phase", "publish")]),
        snapshot_ms: after.delta_ms(before, "rwd_durable_snapshot_write_ns", &[]),
        journal_bytes: after.counter("rwd_durable_journal_bytes_total")
            - before.counter("rwd_durable_journal_bytes_total"),
        snapshots: after.counter("rwd_durable_snapshots_written_total")
            - before.counter("rwd_durable_snapshots_written_total"),
    }
}

/// Submits one batch and waits for its epoch to be published.
fn commit(handle: &ServerHandle, batch: &EdgeBatch, tracer: &Tracer, run: &mut Run) {
    run.attempted += 1;
    let batch = batch.clone();
    let edits = batch.len();
    let before = tracer.on().then(Scrape::global);
    let t0 = Instant::now();
    let outcome = match handle.apply(batch) {
        Ok(ticket) => ticket.wait(),
        Err(e) => return run.fail(format!("batch refused: {e}")),
    };
    let t1 = Instant::now();
    let report = match outcome.report {
        Ok(r) => r,
        Err(e) => return run.fail(format!("batch rejected: {e}")),
    };
    let parts = before.map(|b| apply_parts(&b, &Scrape::global()));
    let rec = CommitRec {
        total_ms: ms(t1 - t0),
        queue_ms: ms(outcome.queue),
        service_ms: ms(outcome.service),
        edits,
        report,
        parts,
    };
    if let Some(p) = parts {
        let op = run.op();
        let root = tracer.span("serve.commit", op, None, t0, t1);
        let mut c = t0;
        tracer.part("serve.apply_queue", op, root, &mut c, outcome.queue);
        let svc = tracer.span("serve.apply_service", op, root, c, c + outcome.service);
        let d = |v: f64| Duration::from_secs_f64(v.max(0.0) / 1e3);
        tracer.part("stream.stage", op, svc, &mut c, d(p.stage_ms));
        tracer.part("stream.journal", op, svc, &mut c, d(p.journal_ms));
        for s in &rec.report.shards {
            tracer.part("walks.refresh", op, svc, &mut c, d(s.refresh_ms));
        }
        tracer.part("core.maintain", op, svc, &mut c, d(rec.report.maintain_ms));
        tracer.part("stream.publish", op, svc, &mut c, d(p.publish_ms));
        if p.snapshots > 0 {
            tracer.part("durable.snapshot", op, svc, &mut c, d(p.snapshot_ms));
        }
    }
    run.commits.push(rec);
}

/// Closed-loop feeder: the next batch goes in once the previous epoch is
/// published. Stops after a batch for which `stop(applied, elapsed)` holds.
/// Returns the number of batches sent.
fn feed(
    handle: &ServerHandle,
    batches: &[EdgeBatch],
    tracer: &Tracer,
    run: &mut Run,
    mut stop: impl FnMut(usize, Duration) -> bool,
) -> usize {
    let t0 = Instant::now();
    let mut edits = 0;
    let mut sent = 0;
    for b in batches {
        commit(handle, b, tracer, run);
        edits += b.len();
        sent += 1;
        if stop(sent, t0.elapsed()) {
            break;
        }
    }
    run.ingest_s += t0.elapsed().as_secs_f64();
    run.ingest_edits += edits as f64;
    sent
}

// ---------------------------------------------------------------- restart --

pub struct RestartRec {
    pub total_ms: f64,
    pub drop_ms: f64,
    pub open_ms: f64,
    pub load_ms: f64,
    pub replay_ms: f64,
    pub start_ms: f64,
    pub first_ms: f64,
    pub replayed: u64,
    pub heap_mb: f64,
    pub mapped_mb: f64,
}

impl RestartRec {
    /// Restart time not covered by a measured or reported part.
    pub fn unattributed_ms(&self) -> f64 {
        self.total_ms - self.drop_ms - self.load_ms - self.replay_ms - self.start_ms - self.first_ms
    }
}

/// Drops every handle on the running server, reopens the data directory
/// mapped, starts a new server and waits for the first point query.
fn restart(
    prev: Server,
    ctx: &Ctx<'_>,
    first: Ask,
    expect: &mut Expect,
    run: &mut Run,
) -> Option<Server> {
    let tracer = ctx.tracer;
    run.attempted += 1;
    let t0 = Instant::now();
    prev.shutdown();
    let t_drop = Instant::now();
    // Not part of the cycle: hands the dropped state's heap back to the
    // kernel, so the peak RSS does not depend on which allocator arenas
    // the next server's threads happen to draw.
    host::trim_heap();
    let t_trimmed = Instant::now();
    let trim = t_trimmed - t_drop;
    let opened = ServeEngine::open_durable_with(&ctx.dir, durability(), OpenMode::Mapped);
    let t_open = Instant::now();
    let (engine, rep) = match opened {
        Ok(x) => x,
        Err(e) => {
            run.fail(format!("reopen failed: {e}"));
            return None;
        }
    };
    let server = start_server(engine, ctx.pinned);
    let t_start = Instant::now();
    let answer = server.handle().query(first.query()).map(Ticket::wait);
    let t1 = Instant::now();
    let rec = RestartRec {
        total_ms: ms(t1 - t0 - trim),
        drop_ms: ms(t_drop - t0),
        open_ms: ms(t_open - t_drop - trim),
        load_ms: rep.snapshot_load_ms,
        replay_ms: rep.replay_ms,
        start_ms: ms(t_start - t_open),
        first_ms: ms(t1 - t_start),
        replayed: rep.epochs_replayed,
        heap_mb: rep.heap_bytes as f64 / 1048576.0,
        mapped_mb: rep.mapped_bytes as f64 / 1048576.0,
    };
    let op = run.op();
    let root = tracer.span("restart", op, None, t0, t1);
    tracer.span("restart.drop", op, root, t0, t_drop);
    tracer.span("bench.trim_heap", op, root, t_drop, t_trimmed);
    let open = tracer.span("durable.open", op, root, t_trimmed, t_open);
    let mut c = t_trimmed;
    tracer.part(
        "durable.snapshot_load",
        op,
        open,
        &mut c,
        Duration::from_secs_f64(rec.load_ms / 1e3),
    );
    tracer.part(
        "durable.replay",
        op,
        open,
        &mut c,
        Duration::from_secs_f64(rec.replay_ms / 1e3),
    );
    tracer.span("serve.start", op, root, t_open, t_start);
    tracer.span("serve.first_answer", op, root, t_start, t1);

    let checked = match answer {
        Ok(a) => expect.check(None, first, &a, run),
        Err(e) => Err(format!("first query refused: {e}")),
    }
    .and_then(|()| {
        let snap = server.handle().snapshot();
        let got = direct(&snap, Ask::Seeds, run);
        if rep.recovered_epoch == expect.epoch && got == expect.memo[&Ask::Seeds] {
            Ok(())
        } else {
            Err(format!(
                "recovered epoch {} with seeds {got:?}, live state was epoch {}",
                rep.recovered_epoch, expect.epoch
            ))
        }
    });
    if let Err(e) = checked {
        run.fail(e);
    } else {
        run.restarts.push(rec);
    }
    if tracer.on() {
        open_shard_files(&ctx.dir, run);
    }
    Some(server)
}

/// Newest snapshot directory of the data dir.
fn newest_snapshot(dir: &Path) -> Option<PathBuf> {
    std::fs::read_dir(dir)
        .ok()?
        .filter_map(|e| e.ok())
        .filter_map(|e| {
            let name = e.file_name().into_string().ok()?;
            let epoch: u64 = name.strip_prefix("snap-")?.parse().ok()?;
            Some((epoch, e.path()))
        })
        .max_by_key(|(epoch, _)| *epoch)
        .map(|(_, p)| p)
}

fn snapshot_files(dir: &Path) -> Vec<PathBuf> {
    let mut files: Vec<PathBuf> = newest_snapshot(dir)
        .and_then(|s| std::fs::read_dir(s).ok())
        .into_iter()
        .flatten()
        .filter_map(|e| e.ok().map(|e| e.path()))
        .collect();
    files.sort();
    files
}

/// Benchmark-timed `WalkIndex::open_mapped` of every shard file of the
/// newest snapshot (header walk and CRC sweep included).
fn open_shard_files(dir: &Path, run: &mut Run) {
    for f in snapshot_files(dir) {
        if f.extension().is_some_and(|x| x == "rwdidx") {
            let t = Instant::now();
            let idx = WalkIndex::open_mapped(&f);
            let took = ms(t.elapsed());
            match idx {
                Ok(_) => run.open_mapped_ms.push(took),
                Err(e) => run.fail(format!("open_mapped {}: {e}", f.display())),
            }
        }
    }
}

fn snapshot_mb(dir: &Path) -> f64 {
    snapshot_files(dir)
        .iter()
        .filter_map(|f| std::fs::metadata(f).ok())
        .map(|m| m.len() as f64)
        .sum::<f64>()
        / 1048576.0
}

// ------------------------------------------------------------------ setup --

fn base_graphs(inputs: &Inputs, weighted: bool) -> (Option<CsrGraph>, Option<WeightedCsrGraph>) {
    if weighted {
        let g = WeightedCsrGraph::from_weighted_edges(inputs.nodes, &inputs.edges)
            .expect("generated edges are a simple weighted graph");
        (None, Some(g))
    } else {
        let plain: Vec<(u32, u32)> = inputs.edges.iter().map(|&(u, v, _)| (u, v)).collect();
        let g = CsrGraph::from_edges(inputs.nodes, &plain).expect("generated edges are valid");
        (Some(g), None)
    }
}

/// Benchmark-timed walk-index build per shard range and bootstrap greedy
/// over the built shards (traced passes only; not part of any timed phase).
fn time_build(ctx: &Ctx<'_>, run: &mut Run) {
    let cfg = stream_config(ctx.seed);
    let (g, wg) = base_graphs(ctx.inputs, ctx.workload.weighted());
    let op = run.op();
    let t0 = Instant::now();
    let shards: Vec<WalkIndex> = LayerRange::partition(R, SHARDS)
        .into_iter()
        .map(|range| match (&g, &wg) {
            (Some(g), _) => WalkIndex::build_layer_range(g, L, range, cfg.seed, cfg.threads),
            (_, Some(wg)) => {
                WalkIndex::build_weighted_layer_range(wg, L, range, cfg.seed, cfg.threads)
            }
            _ => unreachable!("one graph is always built"),
        })
        .collect();
    let t1 = Instant::now();
    let refs: Vec<&WalkIndex> = shards.iter().collect();
    SeedMaintainer::new(cfg.rule, cfg.k, cfg.threads).maintain_sharded(&refs);
    let t2 = Instant::now();
    ctx.tracer.span("walks.build", op, None, t0, t1);
    ctx.tracer.span("core.bootstrap", op, None, t1, t2);
    run.build_ms = ms(t1 - t0);
    run.bootstrap_ms = ms(t2 - t1);
    run.postings = shards.iter().map(|s| s.total_postings() as f64).sum();
}

/// Generated inputs in memory → first timed operation: CSR construction,
/// index build, bootstrap greedy, base snapshot and server start, plus the
/// trace prefix `prefix`. Runs [`SETUPS`] times and keeps the last server.
fn setup(ctx: &Ctx<'_>, prefix: &[EdgeBatch], run: &mut Run) -> Server {
    let mut server: Option<Server> = None;
    for _ in 0..SETUPS {
        if let Some(old) = server.take() {
            old.shutdown();
        }
        std::fs::remove_dir_all(&ctx.dir).ok();
        host::trim_heap();
        let op = run.op();
        let t0 = Instant::now();
        let (g, wg) = base_graphs(ctx.inputs, ctx.workload.weighted());
        let cfg = stream_config(ctx.seed);
        let engine = match (g, wg) {
            (Some(g), _) => StreamEngine::with_shards(g, cfg, SHARDS),
            (_, Some(wg)) => StreamEngine::with_shards_weighted(wg, cfg, SHARDS),
            _ => unreachable!("one graph is always built"),
        }
        .expect("valid engine configuration");
        let t_engine = Instant::now();
        let serve = ServeEngine::create_durable(engine, &ctx.dir, durability())
            .expect("the data directory is writable");
        let t_durable = Instant::now();
        let s = start_server(serve, ctx.pinned);
        let t_start = Instant::now();
        if !prefix.is_empty() {
            // Part of set-up: the prefix's commits are checked, not timed.
            let mut fed = Run::default();
            feed(
                &s.handle(),
                prefix,
                &Tracer::new(false),
                &mut fed,
                |_, _| false,
            );
            run.absorb_outcomes(fed);
        }
        let t1 = Instant::now();
        run.setup_s.push((t1 - t0).as_secs_f64());
        let root = ctx.tracer.span("setup", op, None, t0, t1);
        ctx.tracer.span("setup.engine", op, root, t0, t_engine);
        ctx.tracer
            .span("durable.create", op, root, t_engine, t_durable);
        ctx.tracer.span("serve.start", op, root, t_durable, t_start);
        server = Some(s);
    }
    server.expect("at least one set-up")
}

/// Traced audit: the server's per-endpoint request counts must equal what
/// the benchmark sent between two `Query::Metrics` scrapes.
struct Audit {
    before: Scrape,
    sent: BTreeMap<&'static str, u64>,
}

fn scrape_server(handle: &ServerHandle) -> Option<Scrape> {
    match handle.query(Query::Metrics).ok()?.wait().value {
        QueryValue::Metrics(text) => Some(Scrape::parse(&text)),
        _ => None,
    }
}

impl Audit {
    fn start(handle: &ServerHandle, run: &Run, tracer: &Tracer) -> Option<Audit> {
        if !tracer.on() {
            return None;
        }
        Some(Audit {
            before: scrape_server(handle)?,
            sent: run.by_endpoint.clone(),
        })
    }

    fn finish(self, handle: &ServerHandle, run: &mut Run) {
        run.attempted += 1;
        let Some(after) = scrape_server(handle) else {
            return run.fail("metrics endpoint did not answer".into());
        };
        let count = |s: &Scrape, e: &str| s.hist("rwd_serve_service_ns", &[("endpoint", e)]).0;
        for e in [
            "hit_time", "hit_prob", "coverage", "top", "seeds", "metrics",
        ] {
            let sent = run.by_endpoint.get(e).copied().unwrap_or(0)
                - self.sent.get(e).copied().unwrap_or(0)
                + u64::from(e == "metrics");
            let served = count(&after, e) - count(&self.before, e);
            if sent != served {
                return run.fail(format!(
                    "endpoint {e}: sent {sent}, server counted {served}"
                ));
            }
        }
    }
}

// -------------------------------------------------------------- workloads --

/// Runs one pass of `ctx.workload`.
pub fn run(ctx: &Ctx<'_>) -> Run {
    let mut run = Run::default();
    match ctx.workload {
        Workload::ServeRead => serve_read(ctx, &mut run),
        Workload::ChurnWrite => churn_write(ctx, &mut run),
        Workload::Restart => restart_workload(ctx, &mut run),
    }
    std::fs::remove_dir_all(&ctx.dir).ok();
    // Last, with every server gone and the peak RSS already read, so it
    // moves no end-to-end metric.
    if ctx.tracer.on() {
        time_build(ctx, &mut run);
        run.mark("build");
    }
    run
}

/// The `i`-th point query of `asks` (wrapping): the first query a
/// restarted server answers.
fn nth_point(asks: &[Ask], i: usize) -> Ask {
    let points: Vec<Ask> = asks.iter().copied().filter(|a| a.is_point()).collect();
    points[i % points.len()]
}

/// Restart cycles at the fixed journal position the data dir is at now,
/// while `more(cycles done)` holds. Every cycle is checked against the live
/// state at kill time, learnt up front for `asks`. Returns the last server
/// and that expectation, or `None` when a reopen failed.
fn cycles(
    ctx: &Ctx<'_>,
    mut server: Server,
    asks: &[Ask],
    run: &mut Run,
    mut more: impl FnMut(usize) -> bool,
) -> Option<(Server, Expect)> {
    let live = server.handle().snapshot();
    let mut expect = Expect::new(&live);
    expect.learn(&live, asks, run);
    drop(live);
    let mut i = 0;
    while more(i) {
        server = restart(server, ctx, nth_point(asks, i), &mut expect, run)?;
        i += 1;
    }
    Some((server, expect))
}

/// One read slice: an open loop at [`READ_RATE`] for `open`, then
/// `slices` closed-loop slices over `pool` of `closed` each. Answers are
/// checked against `expect`, which learns missing ones from `pinned`.
/// Traced passes audit the server's per-endpoint counts around the slice.
#[allow(clippy::too_many_arguments)]
fn read_slice(
    handle: &ServerHandle,
    cursor: &mut Asks<'_>,
    pool: &[Ask],
    (open, closed, slices): (Duration, Duration, usize),
    pinned: Option<&Snapshot>,
    expect: &mut Expect,
    ctx: &Ctx<'_>,
    run: &mut Run,
) {
    let audit = Audit::start(handle, run, ctx.tracer);
    let sent = open_loop(handle, cursor, READ_RATE, |at, _| at >= open, run);
    collect(sent, false, run, ctx.tracer, |ask, a, run| {
        expect.check(pinned, ask, a, run)
    });
    for _ in 0..slices {
        closed_loop(handle, pool, expect, closed, ctx.pinned, run);
    }
    if let Some(audit) = audit {
        audit.finish(handle, run);
    }
}

/// The write phase's snapshot cycles: the first ends at the first snapshot
/// plus [`SUFFIX`] records, every later one [`SNAPSHOT_EVERY`] batches on,
/// so the data dir is at a snapshot plus exactly [`SUFFIX`] records after
/// each.
fn snapshot_cycles(trace: &[EdgeBatch]) -> Vec<&[EdgeBatch]> {
    let n = SNAPSHOT_EVERY as usize;
    let (first, rest) = trace.split_at(n + SUFFIX);
    std::iter::once(first).chain(rest.chunks_exact(n)).collect()
}

fn serve_read(ctx: &Ctx<'_>, run: &mut Run) {
    let asks = &ctx.inputs.asks;
    let mut server = setup(ctx, &[], run);
    run.mark("setup");

    // Reads on the built index, nothing writing, in rounds spread over
    // the phase so a slow stretch of the host moves one round, not all.
    let handle = server.handle();
    let pinned = handle.snapshot();
    let mut expect = Expect::new(&pinned);
    let pool = point_pool(asks, POOL);
    expect.learn(&pinned, &pool, run);
    let mut cursor = Asks::new(asks);
    let per_round = CLOSED_SLICES / READ_ROUNDS;
    let slice = (
        ctx.phase(OPEN_SHARE / READ_ROUNDS as f64),
        ctx.phase(CLOSED_SHARE / CLOSED_SLICES as f64),
        per_round,
    );
    for _ in 0..READ_ROUNDS {
        read_slice(
            &handle,
            &mut cursor,
            &pool,
            slice,
            Some(&pinned),
            &mut expect,
            ctx,
            run,
        );
    }
    drop((pinned, handle));
    run.mark("reads");

    // Writes with nothing reading, one snapshot cycle at a time, each
    // followed by restarts at the fixed journal position.
    for batches in snapshot_cycles(&ctx.inputs.trace) {
        feed(&server.handle(), batches, ctx.tracer, run, |_, _| false);
        run.snapshot_mb = snapshot_mb(&ctx.dir);
        let points = &asks[..asks.len().min(64)];
        match cycles(ctx, server, points, run, |i| i < CYCLES_PER_ROUND) {
            Some((s, _)) => server = s,
            None => return,
        }
    }
    run.end_timed("writes");
    server.shutdown();
}

fn churn_write(ctx: &Ctx<'_>, run: &mut Run) {
    let asks = &ctx.inputs.asks;
    let trace = &ctx.inputs.trace;
    let mut server = setup(ctx, &[], run);
    run.mark("setup");
    let n = SNAPSHOT_EVERY as usize;
    let churn = ctx.phase(CHURN_SHARE / CHURN_ROUNDS as f64);
    let per_round = CLOSED_SLICES.div_ceil(CHURN_ROUNDS);
    let slice = (
        ctx.phase(CHURN_OPEN_SHARE / CHURN_ROUNDS as f64),
        ctx.phase(CLOSED_SHARE / (per_round * CHURN_ROUNDS) as f64),
        per_round,
    );
    let pool = point_pool(asks, POOL);
    let mut cursor = Asks::new(asks);
    let mut fed_upto = 0;

    // Rounds of churn beside the light stream, each ending at a snapshot
    // plus SUFFIX records, then restarts there and a read slice on the
    // recovered state with nothing writing.
    for _ in 0..CHURN_ROUNDS {
        let handle = server.handle();
        let audit = Audit::start(&handle, run, ctx.tracer);
        let done_feeding = AtomicBool::new(false);
        let (sent, fed) = std::thread::scope(|s| {
            let feeder = s.spawn(|| {
                let mut fed = Run::default();
                let sent = feed(
                    &handle,
                    &trace[fed_upto..],
                    ctx.tracer,
                    &mut fed,
                    |i, at| at >= churn && (fed_upto + i) % n == SUFFIX,
                );
                done_feeding.store(true, Ordering::SeqCst);
                (fed, sent)
            });
            let sent = open_loop(
                &handle,
                &mut cursor,
                LIGHT_RATE,
                |_, _| done_feeding.load(Ordering::SeqCst),
                run,
            );
            (sent, feeder.join().expect("feeder thread"))
        });
        fed_upto += fed.1;
        run.absorb(fed.0);

        // Answers racing the writes come from many epochs; each must be of
        // the right kind and from an epoch that was published.
        let published = handle.snapshot().epoch();
        collect(sent, true, run, ctx.tracer, |ask, a, _| {
            let kind_ok = match a.value {
                QueryValue::Scalar(_) => ask.is_point() || ask == Ask::Coverage,
                QueryValue::Ranked(_) => matches!(ask, Ask::Top(_)),
                QueryValue::Seeds { .. } => ask == Ask::Seeds,
                _ => false,
            };
            if kind_ok && a.epoch <= published {
                Ok(())
            } else {
                Err(format!(
                    "{ask:?} answered {:?} at epoch {}",
                    a.value, a.epoch
                ))
            }
        });
        if let Some(audit) = audit {
            audit.finish(&handle, run);
        }
        drop(handle);
        run.snapshot_mb = snapshot_mb(&ctx.dir);
        let points = &asks[..asks.len().min(64)];
        match cycles(ctx, server, points, run, |i| i < CYCLES_PER_ROUND) {
            Some((s, _)) => server = s,
            None => return,
        }
        let handle = server.handle();
        let pinned = handle.snapshot();
        let mut expect = Expect::new(&pinned);
        expect.learn(&pinned, &pool, run);
        read_slice(
            &handle,
            &mut cursor,
            &pool,
            slice,
            Some(&pinned),
            &mut expect,
            ctx,
            run,
        );
    }
    run.end_timed("rounds");

    // The final published state against a cold rebuild.
    let last = server.handle().snapshot();
    cold_rebuild_matches(ctx, &last, asks, run);
    run.mark("check");
    drop(last);
    server.shutdown();
}

/// The final published state must equal a cold single-shard `StreamEngine`
/// rebuild on the final graph: seeds, objective and sampled answers.
fn cold_rebuild_matches(ctx: &Ctx<'_>, last: &Snapshot, asks: &[Ask], run: &mut Run) {
    run.attempted += 1;
    let SnapshotGraph::Unweighted(g) = last.graph() else {
        return run.fail("churn-write runs unweighted".into());
    };
    let cold = match StreamEngine::new((**g).clone(), stream_config(ctx.seed)) {
        Ok(e) => e,
        Err(e) => return run.fail(format!("cold rebuild failed: {e}")),
    };
    let cold = Snapshot::capture(&cold);
    let sample: Vec<Ask> = asks
        .iter()
        .copied()
        .take(400)
        .chain([Ask::Coverage, Ask::Top(10), Ask::Seeds])
        .collect();
    let mut unused = Run::default();
    for ask in sample {
        let (want, got) = (
            direct(&cold, ask, &mut unused),
            direct(last, ask, &mut unused),
        );
        if want != got {
            return run.fail(format!("{ask:?}: served {got:?}, cold rebuild {want:?}"));
        }
    }
}

fn restart_workload(ctx: &Ctx<'_>, run: &mut Run) {
    let asks = &ctx.inputs.asks;
    let cycles_of_trace = snapshot_cycles(&ctx.inputs.trace);
    let mut server = setup(ctx, cycles_of_trace[0], run);
    run.mark("setup");
    run.snapshot_mb = snapshot_mb(&ctx.dir);
    let pool = point_pool(asks, POOL);
    let mut cursor = Asks::new(asks);
    let rounds = cycles_of_trace.len() - 1;
    let per_round = CLOSED_SLICES.div_ceil(rounds);
    let slice = (
        ctx.phase(RESTART_OPEN_SHARE / rounds as f64),
        ctx.phase(CLOSED_SHARE / (per_round * rounds) as f64),
        per_round,
    );

    // Rounds of restarts at the fixed journal position, reads on the
    // recovered, partly mapped index of the last one, and one snapshot
    // cycle of writes that brings the data dir back to that position.
    for batches in &cycles_of_trace[1..] {
        let Some((s, mut expect)) = cycles(ctx, server, asks, run, |i| i < RESTART_CYCLES) else {
            return;
        };
        server = s;
        let handle = server.handle();
        read_slice(
            &handle,
            &mut cursor,
            &pool,
            slice,
            None,
            &mut expect,
            ctx,
            run,
        );
        feed(&handle, batches, ctx.tracer, run, |_, _| false);
    }
    run.end_timed("rounds");
    server.shutdown();
}

// ---------------------------------------------------------------- metrics --

/// End-to-end metrics of one pass, by name.
pub fn end_to_end(run: &Run) -> BTreeMap<&'static str, f64> {
    let mut m = BTreeMap::new();
    m.insert("setup_s", median(&run.setup_s));
    m.insert("peak_rss_mb", run.peak_rss_mb);
    m.insert("query_p50_us", median(&run.point_us));
    let commits: Vec<f64> = run.commits.iter().map(|c| c.total_ms).collect();
    m.insert("commit_p50_ms", median(&commits));
    m.insert(
        "ingest_edits_per_s",
        run.ingest_edits / run.ingest_s.max(1e-9),
    );
    let restarts: Vec<f64> = run.restarts.iter().map(|r| r.total_ms).collect();
    m.insert("restart_ttfa_ms", median(&restarts));
    m
}

/// Read metrics measured in every run but not gated, because the host's
/// memory bandwidth moves them more than any bound allows: the open-loop
/// p50 of Coverage and TopUncovered queries, and closed-loop capacity.
pub fn ungated_reads(run: &Run) -> (f64, f64) {
    (median(&run.set_us), median(&run.capacity_qps))
}

/// Latencies of the reads that raced the churn feeder, as a report line;
/// `None` when no read raced a write (every workload but churn-write).
pub fn race_line(run: &Run) -> Option<String> {
    (!run.race_point_us.is_empty()).then(|| {
        format!(
            "race.query_p50_us {} us race.query_p99_us {} us race.set_query_p50_us {} us (point samples {}, set samples {})",
            median(&run.race_point_us),
            quantile(&run.race_point_us, 0.99),
            median(&run.race_set_us),
            run.race_point_us.len(),
            run.race_set_us.len(),
        )
    })
}

/// Per-layer metrics of one traced pass, by name.
pub fn per_layer(run: &Run) -> BTreeMap<&'static str, f64> {
    let mut m = BTreeMap::new();
    let of = |f: &dyn Fn(&CommitRec) -> Option<f64>| -> Vec<f64> {
        run.commits.iter().filter_map(f).collect()
    };
    let (set_query, capacity) = ungated_reads(run);
    m.insert("reads.set_query_p50_us", set_query);
    m.insert("reads.capacity_qps", capacity);
    m.insert("serve.queue_us", median(&run.queue_us));
    m.insert("serve.service_us", median(&run.service_us));
    m.insert("serve.point_us", median(&run.direct_point_us));
    m.insert("serve.set_query_us", median(&run.direct_set_us));
    m.insert("serve.apply_queue_ms", median(&of(&|c| Some(c.queue_ms))));
    m.insert(
        "serve.apply_service_ms",
        median(&of(&|c| Some(c.service_ms))),
    );
    m.insert(
        "stream.stage_ms",
        median(&of(&|c| c.parts.map(|p| p.stage_ms))),
    );
    m.insert(
        "stream.publish_ms",
        median(&of(&|c| c.parts.map(|p| p.publish_ms))),
    );
    m.insert(
        "journal.append_ms",
        median(&of(&|c| c.parts.map(|p| p.append_ms))),
    );
    let bytes: f64 = of(&|c| c.parts.map(|p| p.journal_bytes as f64))
        .iter()
        .sum();
    let edits: f64 = of(&|c| c.parts.map(|_| c.edits as f64)).iter().sum();
    m.insert("journal.bytes_per_edit", bytes / edits.max(1.0));
    m.insert(
        "walks.refresh_ms",
        median(&of(&|c| Some(c.refresh_sum_ms()))),
    );
    m.insert(
        "walks.refresh_max_shard_ms",
        median(&of(&|c| Some(c.refresh_max_ms()))),
    );
    m.insert(
        "walks.groups_resampled",
        mean(&of(&|c| Some(c.report.refresh.groups_resampled as f64))),
    );
    m.insert(
        "walks.postings_rewritten",
        mean(&of(&|c| Some(c.report.refresh.postings_rewritten() as f64))),
    );
    m.insert(
        "core.maintain_ms",
        median(&of(&|c| Some(c.report.maintain_ms))),
    );
    m.insert(
        "core.warm_share",
        mean(&of(&|c| Some(f64::from(u8::from(c.report.maintain.warm))))),
    );
    m.insert(
        "core.replayed_rounds",
        mean(&of(&|c| Some(c.report.maintain.replayed_rounds as f64))),
    );
    m.insert("core.bootstrap_ms", run.bootstrap_ms);
    let snaps = of(&|c| c.parts.filter(|p| p.snapshots > 0).map(|p| p.snapshot_ms));
    m.insert("durable.snapshot_ms", median(&snaps));
    m.insert(
        "durable.snapshots",
        of(&|c| c.parts.map(|p| p.snapshots as f64)).iter().sum(),
    );
    m.insert("durable.snapshot_mb", run.snapshot_mb);
    let rs = |f: &dyn Fn(&RestartRec) -> f64| -> Vec<f64> { run.restarts.iter().map(f).collect() };
    m.insert("durable.snapshot_load_ms", median(&rs(&|r| r.load_ms)));
    m.insert("durable.replay_ms", median(&rs(&|r| r.replay_ms)));
    m.insert(
        "durable.epochs_replayed",
        median(&rs(&|r| r.replayed as f64)),
    );
    m.insert("walks.open_mapped_ms", median(&run.open_mapped_ms));
    m.insert("walks.heap_mb", median(&rs(&|r| r.heap_mb)));
    m.insert("walks.mapped_mb", median(&rs(&|r| r.mapped_mb)));
    m.insert("walks.build_ms", run.build_ms);
    m.insert("walks.postings", run.postings);
    m.insert("serve.start_ms", median(&rs(&|r| r.start_ms)));
    m.insert("serve.first_answer_us", 1e3 * median(&rs(&|r| r.first_ms)));
    m.insert("gen.late_p50_us", median(&run.late_us));
    m.insert("gen.late_max_us", quantile(&run.late_us, 1.0));
    m.insert("gen.achieved_vs_offered", run.sent / run.offered.max(1.0));
    m.insert("query_p99_us", quantile(&run.point_us, 0.99));
    m.insert("query_p99_samples", run.point_us.len() as f64);
    m.insert(
        "budget.commit_unattributed_ms",
        mean(&of(&|c| Some(c.total_ms - c.queue_ms - c.service_ms))),
    );
    m.insert(
        "budget.apply_unattributed_ms",
        mean(&of(&|c| c.apply_unattributed_ms())),
    );
    m.insert(
        "budget.restart_unattributed_ms",
        mean(&rs(&|r| r.unattributed_ms())),
    );
    m
}

/// The budget identities of the traced pass, as report lines: each
/// operation's parts plus an explicit unattributed remainder sum to its
/// end-to-end time (shown as per-operation means, which add exactly).
pub fn budget_lines(run: &Run) -> Vec<String> {
    let mut out = Vec::new();
    let traced: Vec<&CommitRec> = run.commits.iter().filter(|c| c.parts.is_some()).collect();
    if !traced.is_empty() {
        let avg = |f: &dyn Fn(&CommitRec) -> f64| {
            traced.iter().map(|c| f(c)).sum::<f64>() / traced.len() as f64
        };
        let part = |f: &dyn Fn(&ApplyParts) -> f64| avg(&|c| f(&c.parts.expect("traced")));
        out.push(format!(
            "budget commit (n={}): total {:.3} ms = apply queue {:.3} + apply service {:.3} + unattributed {:.3}",
            traced.len(),
            avg(&|c| c.total_ms),
            avg(&|c| c.queue_ms),
            avg(&|c| c.service_ms),
            avg(&|c| c.total_ms - c.queue_ms - c.service_ms),
        ));
        out.push(format!(
            "budget apply service: {:.3} ms = stage {:.3} + journal {:.3} + refresh {:.3} + maintain {:.3} + publish {:.3} + snapshot {:.3} + unattributed {:.3}",
            avg(&|c| c.service_ms),
            part(&|p| p.stage_ms),
            part(&|p| p.journal_ms),
            avg(&|c| c.refresh_sum_ms()),
            avg(&|c| c.report.maintain_ms),
            part(&|p| p.publish_ms),
            part(&|p| p.snapshot_ms),
            avg(&|c| c.apply_unattributed_ms().expect("traced")),
        ));
    }
    if !run.restarts.is_empty() {
        let n = run.restarts.len() as f64;
        let avg = |f: &dyn Fn(&RestartRec) -> f64| run.restarts.iter().map(f).sum::<f64>() / n;
        out.push(format!(
            "budget restart (n={}): total {:.3} ms = drop {:.3} + open {:.3} (snapshot_load {:.3} + replay {:.3} + rest {:.3}) + start {:.3} + first answer {:.3} + gaps {:.3}; unattributed (open rest + gaps) {:.3}",
            run.restarts.len(),
            avg(&|r| r.total_ms),
            avg(&|r| r.drop_ms),
            avg(&|r| r.open_ms),
            avg(&|r| r.load_ms),
            avg(&|r| r.replay_ms),
            avg(&|r| r.open_ms - r.load_ms - r.replay_ms),
            avg(&|r| r.start_ms),
            avg(&|r| r.first_ms),
            avg(&|r| r.total_ms - r.drop_ms - r.open_ms - r.start_ms - r.first_ms),
            avg(&|r| r.unattributed_ms()),
        ));
    }
    out
}
