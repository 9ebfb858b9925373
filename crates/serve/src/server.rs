//! The thread-pooled request loop: `mpsc` batch/query multiplexing over a
//! published snapshot, std-only (no external runtime).
//!
//! Shape: queries fan out over a pool of worker threads, each answering
//! against the snapshot published at the moment it picks the job up —
//! every answer is coherent (one epoch) because the worker pins exactly
//! one snapshot per request. Churn batches funnel through a single writer
//! thread that owns the [`StreamEngine`]; it applies each batch (journaled
//! first when the engine is durable), then captures and publishes one
//! [`Snapshot`] of the next epoch, so queries racing a batch see epoch `e`
//! or `e + 1`, never a mix. The published snapshot is a standing pin, so
//! each batch first clones every shard index shallowly (the walk layers are
//! shared `Arc`s) and the refresh writes each layer it patches as a new
//! one, leaving the pinned layer to readers.
//!
//! Submission is async-shaped without a runtime: [`ServerHandle::query`]
//! and [`ServerHandle::apply`] return immediately with a [`Ticket`] — a
//! one-shot handle the caller can `poll` (non-blocking) or `wait` on.

use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::{Arc, Condvar, Mutex, RwLock};
use std::time::{Duration, Instant};

use rwd_graph::NodeId;
use rwd_stream::{BatchReport, EdgeBatch, StreamEngine};

use crate::metrics::{ServerMetrics, BATCH_ENDPOINT};
use crate::snapshot::Snapshot;
use crate::{Result, ServeError};

/// A point query against the published snapshot.
#[derive(Clone, Debug)]
pub enum Query {
    /// Estimated `L`-truncated hitting time of a node into the seed set.
    HitTime(NodeId),
    /// Estimated probability that a node's walk reaches the seed set.
    HitProb(NodeId),
    /// Expected number of nodes the seed set dominates (`F̂2`).
    Coverage,
    /// The `m` least-covered nodes with their hit probabilities.
    TopUncovered(usize),
    /// The maintained seed set and its objective.
    Seeds,
    /// A point-in-time metrics snapshot in the Prometheus text exposition
    /// format: this server's per-endpoint request metrics followed by the
    /// process-wide engine metrics. Answered from atomic reads only — the
    /// writer thread is never involved.
    Metrics,
}

/// The payload of a [`QueryAnswer`].
#[derive(Clone, Debug, PartialEq)]
pub enum QueryValue {
    /// A scalar estimate (hit time, hit probability, coverage).
    Scalar(f64),
    /// A ranked node list (least-covered first).
    Ranked(Vec<(NodeId, f64)>),
    /// The seed set in selection order plus its objective.
    Seeds {
        /// Maintained seeds, selection order.
        seeds: Vec<NodeId>,
        /// Gain-trace-sum objective of the maintained set.
        objective: f64,
    },
    /// A rendered metrics snapshot (Prometheus text exposition format).
    Metrics(String),
    /// The query was invalid against the answering snapshot (e.g. a node
    /// id outside the universe). The request still resolves — an invalid
    /// query must never take down a pool worker or strand its ticket.
    Invalid(String),
}

/// One answered query, stamped with its epoch provenance.
#[derive(Clone, Debug)]
pub struct QueryAnswer {
    /// Epoch of the snapshot that answered the query.
    pub epoch: u64,
    /// Submission-to-answer latency (`queue` + `service`, measured
    /// end-to-end).
    pub latency: Duration,
    /// Time the request sat in the queue before a worker dequeued it.
    pub queue: Duration,
    /// Time the worker spent answering (dequeue to answer).
    pub service: Duration,
    /// The answer payload.
    pub value: QueryValue,
}

/// One applied batch, as seen by the serving layer.
#[derive(Clone, Debug)]
pub struct ApplyOutcome {
    /// The engine's churn report (`report.epoch` is the published epoch).
    pub report: std::result::Result<BatchReport, String>,
    /// Submission-to-publication latency (`queue` + `service`, measured
    /// end-to-end).
    pub latency: Duration,
    /// Time the batch sat in the queue before the writer dequeued it.
    pub queue: Duration,
    /// Time the writer spent applying and publishing (dequeue to
    /// publication).
    pub service: Duration,
}

/// A one-shot result handle: async-shaped without a runtime.
///
/// Cloning is cheap and every clone resolves: the fulfilled value stays in
/// the cell (reads clone it out), so two threads waiting on clones of the
/// same ticket both observe the answer — neither can strand the other.
#[derive(Debug)]
pub struct Ticket<T> {
    cell: Arc<(Mutex<Option<T>>, Condvar)>,
}

impl<T> Clone for Ticket<T> {
    fn clone(&self) -> Self {
        Ticket {
            cell: Arc::clone(&self.cell),
        }
    }
}

impl<T: Clone> Ticket<T> {
    fn new() -> Self {
        Ticket {
            cell: Arc::new((Mutex::new(None), Condvar::new())),
        }
    }

    fn fulfill(&self, value: T) {
        let (lock, cv) = &*self.cell;
        *lock.lock().expect("ticket lock poisoned") = Some(value);
        cv.notify_all();
    }

    /// Non-blocking poll: clones the value out if it has arrived (the
    /// cell keeps it, so later polls — and other clones — see it too).
    pub fn poll(&self) -> Option<T> {
        self.cell.0.lock().expect("ticket lock poisoned").clone()
    }

    /// Blocks until the value arrives.
    pub fn wait(self) -> T {
        let (lock, cv) = &*self.cell;
        let mut slot = lock.lock().expect("ticket lock poisoned");
        loop {
            if let Some(v) = slot.as_ref() {
                return v.clone();
            }
            slot = cv.wait(slot).expect("ticket lock poisoned");
        }
    }
}

struct QueryJob {
    query: Query,
    submitted: Instant,
    ticket: Ticket<QueryAnswer>,
}

struct ApplyJob {
    batch: EdgeBatch,
    submitted: Instant,
    ticket: Ticket<ApplyOutcome>,
}

struct Shared {
    current: RwLock<Snapshot>,
    metrics: ServerMetrics,
}

impl Shared {
    fn pin(&self) -> Snapshot {
        self.current.read().expect("snapshot lock poisoned").clone()
    }

    fn publish(&self, snap: Snapshot) {
        *self.current.write().expect("snapshot lock poisoned") = snap;
    }
}

fn answer(snap: &Snapshot, query: &Query, metrics: &ServerMetrics) -> QueryValue {
    // Validate node ids against the answering snapshot's universe here,
    // where the error can resolve the ticket: a panic inside a pool worker
    // would kill the worker and strand the submitter's `wait` forever.
    let check = |v: NodeId| -> Option<QueryValue> {
        if v.index() >= snap.n() {
            Some(QueryValue::Invalid(format!(
                "node {v} outside the universe {}",
                snap.n()
            )))
        } else {
            None
        }
    };
    match *query {
        Query::HitTime(v) => check(v).unwrap_or_else(|| QueryValue::Scalar(snap.hit_time(v))),
        Query::HitProb(v) => check(v).unwrap_or_else(|| QueryValue::Scalar(snap.hit_prob(v))),
        Query::Coverage => QueryValue::Scalar(snap.coverage()),
        Query::TopUncovered(m) => QueryValue::Ranked(snap.top_m_uncovered(m)),
        Query::Seeds => QueryValue::Seeds {
            seeds: snap.seeds().to_vec(),
            objective: snap.objective(),
        },
        // Rendered here, before this request's own record() — the snapshot
        // reflects every request answered strictly before it.
        Query::Metrics => QueryValue::Metrics(metrics.render()),
    }
}

/// The live submission side of a server: dropped (as a whole) on shutdown,
/// which closes both channels once in-flight sends finish.
struct Submitters {
    query_tx: Sender<QueryJob>,
    apply_tx: Sender<ApplyJob>,
}

/// A running serving instance: one writer thread (owns the engine), a pool
/// of query workers, and a published-snapshot slot they multiplex over.
///
/// Shutdown contract: [`Server::shutdown`] revokes the submitters (later
/// submissions — from *any* cloned handle — fail with
/// [`ServeError::Closed`]), lets the threads drain every request already
/// accepted, and joins them. A ticket obtained from a successful
/// submission therefore always resolves.
pub struct Server {
    handle: ServerHandle,
    workers: Vec<std::thread::JoinHandle<()>>,
    writer: Option<std::thread::JoinHandle<()>>,
}

/// A cloneable submission handle onto a [`Server`].
#[derive(Clone)]
pub struct ServerHandle {
    shared: Arc<Shared>,
    subs: Arc<RwLock<Option<Submitters>>>,
}

impl ServerHandle {
    /// Submits a point query; returns immediately with a [`Ticket`].
    pub fn query(&self, query: Query) -> Result<Ticket<QueryAnswer>> {
        let ticket = Ticket::new();
        let job = QueryJob {
            query,
            submitted: Instant::now(),
            ticket: ticket.clone(),
        };
        let subs = self.subs.read().expect("submitter lock poisoned");
        match subs.as_ref() {
            Some(s) => {
                self.shared.metrics.query_depth.inc();
                s.query_tx.send(job).map_err(|_| {
                    self.shared.metrics.query_depth.dec();
                    ServeError::Closed
                })?;
            }
            None => return Err(ServeError::Closed),
        }
        Ok(ticket)
    }

    /// Submits a churn batch; returns immediately with a [`Ticket`]. The
    /// outcome resolves once the next epoch is published (or the batch is
    /// rejected).
    pub fn apply(&self, batch: EdgeBatch) -> Result<Ticket<ApplyOutcome>> {
        let ticket = Ticket::new();
        let job = ApplyJob {
            batch,
            submitted: Instant::now(),
            ticket: ticket.clone(),
        };
        let subs = self.subs.read().expect("submitter lock poisoned");
        match subs.as_ref() {
            Some(s) => {
                self.shared.metrics.apply_depth.inc();
                s.apply_tx.send(job).map_err(|_| {
                    self.shared.metrics.apply_depth.dec();
                    ServeError::Closed
                })?;
            }
            None => return Err(ServeError::Closed),
        }
        Ok(ticket)
    }

    /// Pins the currently published snapshot directly (bypasses the queue
    /// — for callers that want to run many point queries against one
    /// coherent epoch themselves).
    pub fn snapshot(&self) -> Snapshot {
        self.shared.pin()
    }
}

/// Test-only writer-fault injector: runs just before each batch is applied
/// and may panic to simulate an engine crash mid-batch.
type FaultHook = Box<dyn FnMut(&EdgeBatch) + Send>;

impl Server {
    /// Starts the request loop over `engine` with `query_workers` pool
    /// threads (clamped to ≥ 1) plus one writer thread.
    pub fn start(engine: StreamEngine, query_workers: usize) -> Server {
        Self::start_inner(engine, query_workers, None)
    }

    /// Test-only entry point that threads a fault injector into the writer
    /// loop: `fault` runs just before each batch is applied and may panic,
    /// simulating an engine panic mid-batch. Exists so the poisoned-writer
    /// contract (tickets resolve, queries survive, shutdown joins) is
    /// testable without contriving a genuine engine panic.
    #[doc(hidden)]
    pub fn start_with_fault(
        engine: StreamEngine,
        query_workers: usize,
        fault: FaultHook,
    ) -> Server {
        Self::start_inner(engine, query_workers, Some(fault))
    }

    fn start_inner(engine: StreamEngine, query_workers: usize, fault: Option<FaultHook>) -> Server {
        let metrics = ServerMetrics::new();
        let initial = Snapshot::capture(&engine);
        metrics.published_epoch.set(initial.epoch() as i64);
        let shared = Arc::new(Shared {
            current: RwLock::new(initial),
            metrics,
        });
        let (query_tx, query_rx) = channel::<QueryJob>();
        let (apply_tx, apply_rx) = channel::<ApplyJob>();
        let query_rx = Arc::new(Mutex::new(query_rx));

        let workers: Vec<_> = (0..query_workers.max(1))
            .map(|_| {
                let shared = Arc::clone(&shared);
                let rx = Arc::clone(&query_rx);
                std::thread::spawn(move || query_worker(&shared, &rx))
            })
            .collect();
        let writer = {
            let shared = Arc::clone(&shared);
            std::thread::spawn(move || write_loop(engine, &shared, &apply_rx, fault))
        };

        Server {
            handle: ServerHandle {
                shared,
                subs: Arc::new(RwLock::new(Some(Submitters { query_tx, apply_tx }))),
            },
            workers,
            writer: Some(writer),
        }
    }

    /// A cloneable submission handle.
    pub fn handle(&self) -> ServerHandle {
        self.handle.clone()
    }

    /// Revokes submission, drains every accepted request and joins all
    /// threads. Cloned handles outlive the server but report
    /// [`ServeError::Closed`] afterwards.
    pub fn shutdown(self) {
        let Server {
            handle,
            workers,
            writer,
        } = self;
        // Closing the channels (threads exit after draining) — cloned
        // handles only hold the revocation slot, never a sender, so this
        // is the last reference to both senders.
        *handle.subs.write().expect("submitter lock poisoned") = None;
        // Joins swallow a panicked thread instead of re-panicking: shutdown
        // must complete (and drop the remaining threads' channels) even if
        // a worker or the writer died — the failure already surfaced to
        // clients through their resolved tickets.
        for w in workers {
            let _ = w.join();
        }
        if let Some(w) = writer {
            let _ = w.join();
        }
    }
}

fn query_worker(shared: &Shared, rx: &Mutex<Receiver<QueryJob>>) {
    let metrics = &shared.metrics;
    loop {
        // Hold the receiver lock only for the dequeue, not the answer.
        let job = match rx.lock().expect("query queue poisoned").recv() {
            Ok(job) => job,
            Err(_) => return, // all senders dropped: shutdown
        };
        let dequeued = Instant::now();
        metrics.query_depth.dec();
        let queue = dequeued.duration_since(job.submitted);
        // Pin exactly one snapshot for the whole request — the coherence
        // contract (index, seeds, objective all from one epoch).
        metrics.pinned_snapshots.inc();
        let snap = shared.pin();
        let lag = metrics.published_epoch.get() - snap.epoch() as i64;
        if lag > 0 {
            metrics.epoch_lag.add(lag as u64);
        }
        let value = answer(&snap, &job.query, metrics);
        // One end timestamp serves both durations, so latency is exactly
        // queue + service and the split costs no extra clock read.
        let end = Instant::now();
        let service = end.duration_since(dequeued);
        // Record before fulfilling: a waiter released by the fulfill must
        // find its own request already counted in the next snapshot.
        metrics.record(ServerMetrics::endpoint(&job.query), queue, service);
        job.ticket.fulfill(QueryAnswer {
            epoch: snap.epoch(),
            latency: end.duration_since(job.submitted),
            queue,
            service,
            value,
        });
        metrics.pinned_snapshots.dec();
    }
}

fn write_loop(
    mut engine: StreamEngine,
    shared: &Shared,
    rx: &Receiver<ApplyJob>,
    mut fault: Option<FaultHook>,
) {
    let metrics = &shared.metrics;
    while let Ok(job) = rx.recv() {
        let dequeued = Instant::now();
        metrics.apply_depth.dec();
        let queue = dequeued.duration_since(job.submitted);
        // The engine is not unwind-safe in the type-system sense (interior
        // &mut), but a panic poisons the loop permanently below — the
        // possibly-inconsistent engine is never applied to or published
        // again, so catching the unwind cannot leak broken state.
        let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            if let Some(f) = fault.as_mut() {
                f(&job.batch);
            }
            engine.apply(&job.batch).map_err(|e| e.to_string())
        }));
        match caught {
            Ok(report) => {
                // Published whether or not the batch applied: a rejected
                // batch leaves the engine unchanged, so republishing it is
                // correct.
                let snap = Snapshot::capture(&engine);
                metrics.published_epoch.set(snap.epoch() as i64);
                shared.publish(snap);
                let end = Instant::now();
                let service = end.duration_since(dequeued);
                // Record before fulfilling (see `query_worker`).
                metrics.record(BATCH_ENDPOINT, queue, service);
                job.ticket.fulfill(ApplyOutcome {
                    report,
                    latency: end.duration_since(job.submitted),
                    queue,
                    service,
                });
            }
            Err(panic) => {
                let msg = panic_message(panic.as_ref());
                let end = Instant::now();
                let service = end.duration_since(dequeued);
                metrics.record(BATCH_ENDPOINT, queue, service);
                job.ticket.fulfill(ApplyOutcome {
                    report: Err(format!("writer poisoned: engine panicked mid-batch: {msg}")),
                    latency: end.duration_since(job.submitted),
                    queue,
                    service,
                });
                // Poisoned: the engine may be mid-mutation, so it must never
                // apply or publish again. Queries keep answering from the
                // last snapshot published *before* the panic; every apply
                // ticket already queued or submitted later resolves with
                // the closed error instead of hanging its `wait`.
                let closed = ServeError::Closed.to_string();
                while let Ok(job) = rx.recv() {
                    metrics.apply_depth.dec();
                    let dequeued = Instant::now();
                    job.ticket.fulfill(ApplyOutcome {
                        report: Err(closed.clone()),
                        latency: job.submitted.elapsed(),
                        queue: dequeued.duration_since(job.submitted),
                        service: Duration::ZERO,
                    });
                }
                return;
            }
        }
    }
}

/// Best-effort extraction of a panic payload's message (the common `&str`
/// and `String` payloads; anything else gets a placeholder).
fn panic_message(panic: &(dyn std::any::Any + Send)) -> &str {
    if let Some(s) = panic.downcast_ref::<&str>() {
        s
    } else if let Some(s) = panic.downcast_ref::<String>() {
        s
    } else {
        "<non-string panic payload>"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rwd_core::greedy::approx::GainRule;
    use rwd_graph::generators::erdos_renyi_gnp;
    use rwd_stream::StreamConfig;

    fn engine(n: usize, seed: u64) -> StreamEngine {
        let g = erdos_renyi_gnp(n, 0.1, seed).unwrap();
        StreamEngine::new(
            g,
            StreamConfig {
                l: 4,
                r: 5,
                k: 3,
                seed: 7,
                rule: GainRule::HittingTime,
                threads: 1,
            },
        )
        .unwrap()
    }

    #[test]
    fn queries_round_trip_with_epoch_provenance() {
        let serve = engine(40, 3);
        let reference = Snapshot::capture(&serve);
        let server = Server::start(serve, 2);
        let handle = server.handle();

        let t1 = handle.query(Query::HitTime(NodeId(5))).unwrap();
        let t2 = handle.query(Query::Seeds).unwrap();
        let a1 = t1.wait();
        assert_eq!(a1.epoch, 0);
        assert_eq!(a1.value, QueryValue::Scalar(reference.hit_time(NodeId(5))));
        let a2 = t2.wait();
        match a2.value {
            QueryValue::Seeds {
                ref seeds,
                objective,
            } => {
                assert_eq!(&seeds[..], reference.seeds());
                assert_eq!(objective.to_bits(), reference.objective().to_bits());
            }
            ref other => panic!("unexpected answer {other:?}"),
        }
        server.shutdown();
    }

    #[test]
    fn applies_publish_new_epochs_for_queries() {
        let serve = engine(40, 5);
        let g = serve.graph().unwrap().clone();
        let server = Server::start(serve, 1);
        let handle = server.handle();

        let (u, v) = (0..40u32)
            .flat_map(|u| ((u + 1)..40).map(move |v| (u, v)))
            .find(|&(u, v)| !g.has_edge(NodeId(u), NodeId(v)))
            .unwrap();
        let mut batch = EdgeBatch::new(1);
        batch.insertions.push((u, v, 1.0));
        let outcome = handle.apply(batch).unwrap().wait();
        let report = outcome.report.expect("valid batch");
        assert_eq!(report.epoch, 1);

        // Queries submitted after the publication see epoch 1.
        let ans = handle.query(Query::Coverage).unwrap().wait();
        assert_eq!(ans.epoch, 1);
        // Invalid batches resolve with an error outcome, not a hang.
        let mut bad = EdgeBatch::new(2);
        bad.deletions.push((0, 0));
        let outcome = handle.apply(bad).unwrap().wait();
        assert!(outcome.report.is_err());
        server.shutdown();
    }

    #[test]
    fn out_of_range_query_resolves_instead_of_killing_the_worker() {
        // Regression: an out-of-range node id used to panic the pool
        // worker (NodeSet::contains indexes out of bounds), stranding the
        // ticket forever and losing the worker for the server's lifetime.
        let serve = engine(30, 7);
        let server = Server::start(serve, 1);
        let handle = server.handle();
        let bad = handle.query(Query::HitTime(NodeId(999))).unwrap().wait();
        assert_eq!(bad.epoch, 0);
        match bad.value {
            QueryValue::Invalid(ref msg) => assert!(msg.contains("999"), "{msg}"),
            ref other => panic!("expected Invalid, got {other:?}"),
        }
        let bad = handle.query(Query::HitProb(NodeId(30))).unwrap().wait();
        assert!(matches!(bad.value, QueryValue::Invalid(_)));
        // The (single) worker survived and keeps answering.
        let ok = handle.query(Query::HitTime(NodeId(29))).unwrap().wait();
        assert!(matches!(ok.value, QueryValue::Scalar(_)));
        server.shutdown();
    }

    #[test]
    fn cloned_tickets_all_resolve() {
        // Regression: `wait`/`poll` used to take() the value, so the
        // second waiter on a cloned ticket blocked forever.
        let serve = engine(30, 11);
        let server = Server::start(serve, 1);
        let handle = server.handle();
        let t1 = handle.query(Query::Coverage).unwrap();
        let t2 = t1.clone();
        let waiter = std::thread::spawn(move || t2.wait());
        let a = t1.wait();
        let b = waiter.join().expect("cloned waiter resolved");
        assert_eq!(a.epoch, b.epoch);
        assert_eq!(a.value, b.value);
        server.shutdown();
    }

    #[test]
    fn writer_panic_resolves_all_tickets_and_keeps_queries_alive() {
        // Regression: a panic inside `engine.apply` used to kill the writer
        // thread outright — every pending `wait()` hung forever and
        // `shutdown()` itself panicked on the join. The contract now: the
        // poisoning batch's ticket resolves with the panic message, every
        // queued and later apply ticket resolves with Closed, queries keep
        // serving the last published snapshot, and shutdown joins cleanly.
        let serve = engine(40, 13);
        let g = serve.graph().unwrap().clone();
        let server = Server::start_with_fault(
            serve,
            2,
            Box::new(|batch: &EdgeBatch| {
                if batch.timestamp == 666 {
                    panic!("injected engine fault at t={}", batch.timestamp);
                }
            }),
        );
        let handle = server.handle();

        // One good batch lands first, so the published snapshot is epoch 1.
        let (u, v) = (0..40u32)
            .flat_map(|u| ((u + 1)..40).map(move |v| (u, v)))
            .find(|&(u, v)| !g.has_edge(NodeId(u), NodeId(v)))
            .unwrap();
        let mut good = EdgeBatch::new(1);
        good.insertions.push((u, v, 1.0));
        let outcome = handle.apply(good).unwrap().wait();
        assert_eq!(outcome.report.expect("valid batch").epoch, 1);

        // Poison the writer, with more applies already queued behind the
        // poisoning batch from several client threads.
        let poison_ticket = handle.apply(EdgeBatch::new(666)).unwrap();
        let waiters: Vec<_> = (0..3)
            .map(|i| {
                let h = handle.clone();
                std::thread::spawn(move || h.apply(EdgeBatch::new(1000 + i)).unwrap().wait())
            })
            .collect();

        let poisoned = poison_ticket.wait();
        let msg = poisoned.report.expect_err("poisoning batch must fail");
        assert!(msg.contains("writer poisoned"), "{msg}");
        assert!(msg.contains("injected engine fault"), "{msg}");
        for w in waiters {
            let outcome = w.join().expect("client thread resolved");
            let msg = outcome.report.expect_err("queued apply must fail");
            assert!(msg.contains("shut down"), "{msg}");
        }
        // A fresh apply after the poisoning also resolves (no hang).
        let late = handle.apply(EdgeBatch::new(2000)).unwrap().wait();
        assert!(late.report.is_err());

        // Queries still answer, from the last snapshot published before
        // the panic.
        let ans = handle.query(Query::Coverage).unwrap().wait();
        assert_eq!(ans.epoch, 1);
        assert!(matches!(ans.value, QueryValue::Scalar(_)));

        server.shutdown();
        assert!(matches!(
            handle.apply(EdgeBatch::new(3000)),
            Err(ServeError::Closed)
        ));
    }

    #[test]
    fn poll_is_nonblocking_and_handles_survive_shutdown_errors() {
        let serve = engine(30, 9);
        let server = Server::start(serve, 1);
        let handle = server.handle();
        let ticket = handle.query(Query::TopUncovered(4)).unwrap();
        // Eventually resolves via polling.
        let mut answer = None;
        for _ in 0..10_000 {
            if let Some(a) = ticket.poll() {
                answer = Some(a);
                break;
            }
            std::thread::yield_now();
        }
        let answer = answer.expect("query resolved");
        match answer.value {
            QueryValue::Ranked(ranked) => assert_eq!(ranked.len(), 4),
            other => panic!("unexpected answer {other:?}"),
        }
        server.shutdown();
        // After shutdown the handle reports Closed instead of panicking.
        assert!(matches!(
            handle.query(Query::Coverage),
            Err(ServeError::Closed)
        ));
    }
}
