//! Design-ratio gates: each test times one design choice against the
//! alternative it replaced, and asserts the ratio that made the choice
//! worth its code.
//!
//! A gate prints one line: the core count, the two timings its ratio
//! compares, the ratio, and the values its structural asserts check. The
//! structural asserts hold on every runner. The ratio is asserted only with
//! 4 or more cores, since on fewer the parallel paths have little to win;
//! there the gate prints "fewer than 4 cores — not asserted". Where the
//! two sides a gate times compute the same result, it also asserts that
//! they agree bit for bit. Timings are the best of three runs.
//!
//! The gates are `#[ignore]`d, so the tier-1 `cargo test` skips them. CI's
//! "Perf gates" step runs them in release, one at a time so no two share
//! cores:
//!
//! ```sh
//! cargo test --release -p rwd-bench --test gates -- --ignored --nocapture --test-threads 1
//! ```
//!
//! Every fixture is a temporal trace on 4,000 nodes from graph seed
//! `0x2013`, with walk seed 7 and R = 16:
//!
//! * **The small scale** (gates 1–5, 8 and 9): Erdős–Rényi with mean degree
//!   12, six 20-edit batches, L = 8, k = 20. On a 4,000-node
//!   Barabási–Albert graph the hubs' inverted lists are a double-digit
//!   share of the whole index, which makes per-seed repair work
//!   degenerate-large next to one sweep. A homogeneous graph is the
//!   representative regime for the strategy comparisons. A batch touches at
//!   most 40 nodes (two endpoints per edit), inside the 10% regime the
//!   refresh gate targets.
//! * **The maintain trace** (gate 6): Barabási–Albert with 12 attachments
//!   per node, twelve 2-edit batches, k = 10 (the paper's real-data
//!   default). Warm repair targets the steady state, a handful of edits per
//!   batch. It is measured on the paper's hub-dominated topology, where
//!   greedy rounds are expensive to stream (hub posting lists) yet the
//!   argmax prefix is stable under churn: exactly what log replay turns
//!   into O(log) work. A homogeneous graph is the wrong fixture here for the
//!   reason it is the right one above: its near-tied gains reorder under any
//!   churn, forcing real cold recomputation that no warm start can, or
//!   should, skip. Deep seed tails on a graph this small are near-tied too,
//!   hence k = 10.
//! * **The durability trace** (gate 7): a sparse weighted Erdős–Rényi
//!   graph (mean degree 4) at L = 48, one thread, a snapshot every 3
//!   batches. This is the regime durability pays off in. A rebuild
//!   re-samples every `(src, layer)` walk, L cumulative-weight neighbor
//!   draws each, most of which revisit already-hit nodes and add no
//!   posting; recovery loads exactly the surviving postings. The cadence
//!   divides the trace, so the crash lands on a compaction boundary (an
//!   empty journal suffix), the steady state a cadence-driven deployment
//!   crashes in; replay exactness is the recovery suite's job. Both sides
//!   run the same single-thread engine configuration, so the ratio compares
//!   work done, not scheduler luck.

use std::path::PathBuf;
use std::sync::RwLock;
use std::time::Instant;

use rwd_core::algo::{delta_greedy_with_stats, select_from_index};
use rwd_core::greedy::approx::GainRule;
use rwd_core::Strategy;
use rwd_datasets::{temporal_trace, TemporalTrace, TemporalTraceSpec, TraceModel};
use rwd_graph::weighted::weighted_twin;
use rwd_graph::NodeId;
use rwd_obs::{Counter, EpochStabilityTracker, Gauge, Histogram};
use rwd_serve::{Query, Server, Snapshot};
use rwd_stream::{
    DurabilityConfig, GraphDelta, OpenMode, SeedMaintainer, StreamConfig, StreamEngine,
};
use rwd_walks::WalkIndex;

const N: usize = 4_000;
const GRAPH_SEED: u64 = 0x2013;

/// The small scale's engine configuration; the other fixtures override
/// fields of it.
const CFG: StreamConfig = StreamConfig {
    l: 8,
    r: 16,
    k: 20,
    seed: 7,
    rule: GainRule::HittingTime,
    threads: 0,
};

/// A temporal trace on `N` nodes from `GRAPH_SEED`, half of each batch's
/// edits deletions: the base graph and its churn batches.
fn trace(model: TraceModel, batches: usize, batch_edits: usize) -> TemporalTrace {
    temporal_trace(&TemporalTraceSpec {
        model,
        nodes: N,
        batches,
        batch_edits,
        delete_fraction: 0.5,
        seed: GRAPH_SEED,
    })
    .expect("valid trace spec")
}

/// The small scale: Erdős–Rényi, mean degree 12, six 20-edit batches.
fn small() -> TemporalTrace {
    trace(TraceModel::ErdosRenyi { mean_degree: 12.0 }, 6, 20)
}

/// Runs `trial` three times and keeps the run that reports the lowest time
/// (ms, or µs for a latency percentile), with that run's output.
fn best_of_3<T>(mut trial: impl FnMut() -> (f64, T)) -> (f64, T) {
    let mut best = trial();
    for _ in 1..3 {
        let run = trial();
        if run.0 < best.0 {
            best = run;
        }
    }
    best
}

/// Wall time of `f` in ms, with its output.
fn timed<T>(f: impl FnOnce() -> T) -> (f64, T) {
    let t0 = Instant::now();
    let out = f();
    (t0.elapsed().as_secs_f64() * 1e3, out)
}

fn cores() -> usize {
    std::thread::available_parallelism().map_or(1, |c| c.get())
}

/// Prints the gate's line after the core count, asserts the checks that
/// hold on every runner, then asserts the ratio bound with 4 or more cores.
fn report(line: String, every_runner: &[(bool, &str)], ratio_holds: bool) {
    let cores = cores();
    println!("cores={cores} {line}");
    for &(holds, what) in every_runner {
        assert!(holds, "{what}: {line}");
    }
    if cores >= 4 {
        assert!(ratio_holds, "ratio bound missed on {cores} cores: {line}");
    } else {
        println!("fewer than 4 cores — not asserted");
    }
}

/// p99 service time in µs of 1000 point queries against `snap` (hit times
/// and hit probabilities in turn), from the log-bucketed histogram the
/// engine's own metrics use, with every answer's bits.
fn point_p99_us(snap: &Snapshot) -> (f64, Vec<u64>) {
    let h = Histogram::new();
    let answers = (0..1000usize)
        .map(|i| {
            let v = NodeId((i * 131 % N) as u32);
            let t0 = Instant::now();
            let x = if i % 2 == 0 {
                snap.hit_time(v)
            } else {
                snap.hit_prob(v)
            };
            h.record_duration(t0.elapsed());
            assert!(x.is_finite());
            x.to_bits()
        })
        .collect();
    (h.quantile(0.99) / 1e3, answers)
}

/// A fresh per-process directory under the system temp dir.
fn scratch_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("rwd-gates-{}-{name}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    dir
}

/// The 2-D build grid splits layers and node chunks across workers, so the
/// weighted build (alias-table walks) must scale with cores.
#[test]
#[ignore = "timing gate, run by CI's Perf gates step"]
fn gate_1_multi_thread_build() {
    let wg = weighted_twin(&small().base, GRAPH_SEED).expect("valid weighted twin");
    let build = |threads| WalkIndex::build_with_threads(&wg, CFG.l, CFG.r, CFG.seed, threads);
    let (one_ms, one) = best_of_3(|| timed(|| build(1)));
    let (all_ms, all) = best_of_3(|| timed(|| build(0)));
    assert!(one == all, "thread count changed the weighted index");
    let speedup = one_ms / all_ms;
    report(
        format!(
            "weighted build 1 thread {one_ms:.3} ms vs all cores {all_ms:.3} ms -> {speedup:.2}x"
        ),
        &[],
        speedup >= 2.0,
    );
}

/// `Strategy::Delta` pays closed-form initialization plus output-sensitive
/// per-round repairs, where CELF pays a full `gains_all` sweep plus
/// re-evaluations. Its rounds after the first must touch fewer postings
/// than the index holds.
#[test]
#[ignore = "timing gate, run by CI's Perf gates step"]
fn gate_2_delta_greedy_beats_celf() {
    let idx = WalkIndex::build_with_threads(&small().base, CFG.l, CFG.r, CFG.seed, 0);
    let (celf_ms, celf) = best_of_3(|| {
        timed(|| {
            select_from_index(&idx, CFG.rule, CFG.k, Strategy::Celf, 0)
                .expect("valid selection parameters")
        })
    });
    let (delta_ms, (delta, touched)) = best_of_3(|| {
        timed(|| {
            delta_greedy_with_stats(&idx, CFG.rule, CFG.k, 0).expect("valid selection parameters")
        })
    });
    assert_eq!(celf.nodes, delta.nodes, "delta must select CELF's seeds");
    assert_eq!(
        celf.gain_trace, delta.gain_trace,
        "delta must report CELF's gains"
    );
    let total = idx.total_postings();
    let speedup = celf_ms / delta_ms;
    report(
        format!(
            "CELF {celf_ms:.3} ms vs delta {delta_ms:.3} ms -> {speedup:.2}x; \
             touched/round {touched:?} of {total} postings"
        ),
        &[(
            touched[1..].iter().all(|&t| t < total),
            "delta rounds after the first must touch fewer postings than the index",
        )],
        speedup >= 2.0,
    );
}

/// A refresh resamples only the walk groups that reach a batch's touched
/// endpoints. With at most 10% of nodes touched per batch, it must beat a
/// per-batch rebuild, and no batch may resample every group.
#[test]
#[ignore = "timing gate, run by CI's Perf gates step"]
fn gate_3_incremental_refresh_beats_rebuild() {
    let t = small();
    let idx = WalkIndex::build_with_threads(&t.base, CFG.l, CFG.r, CFG.seed, 0);
    let mut deltas: Vec<GraphDelta> = Vec::new();
    for b in &t.batches {
        let prev = deltas.last().map_or(&t.base, |d| &d.graph);
        deltas.push(b.apply(prev).expect("trace batches are valid"));
    }
    let (refresh_ms, refreshed) = best_of_3(|| {
        timed(|| {
            let mut inc = idx.clone();
            deltas
                .iter()
                .map(|d| {
                    let (stats, _) = inc.refresh(&d.graph, &d.touched, 0);
                    (inc.clone(), stats.groups_resampled)
                })
                .collect::<Vec<_>>()
        })
    });
    let (rebuild_ms, rebuilt) = best_of_3(|| {
        timed(|| {
            deltas
                .iter()
                .map(|d| WalkIndex::build_with_threads(&d.graph, CFG.l, CFG.r, CFG.seed, 0))
                .collect::<Vec<_>>()
        })
    });
    for ((inc, _), cold) in refreshed.iter().zip(&rebuilt) {
        assert!(inc == cold, "a refresh must be bit-identical to a rebuild");
    }
    let touched: Vec<usize> = deltas.iter().map(|d| d.touched.len()).collect();
    let groups: Vec<usize> = refreshed.iter().map(|&(_, g)| g).collect();
    let total = N * CFG.r;
    let speedup = rebuild_ms / refresh_ms;
    report(
        format!(
            "refresh {refresh_ms:.3} ms vs rebuild {rebuild_ms:.3} ms -> {speedup:.2}x; \
             touched/batch {touched:?} of {N} nodes; groups resampled/batch {groups:?} \
             of {total}"
        ),
        &[
            (
                touched.iter().all(|&t| t * 10 <= N),
                "a batch touched more than 10% of the nodes",
            ),
            (
                groups.iter().all(|&g| g < total),
                "a batch resampled every group",
            ),
        ],
        speedup >= 2.0,
    );
}

/// The serving path answers one node from the dual-view index in
/// O(postings). Its service p99, measured against a pinned snapshot after
/// queries raced the whole churn trace, must stay under one full
/// `estimate_hit_times` sweep.
#[test]
#[ignore = "timing gate, run by CI's Perf gates step"]
fn gate_4_point_queries_beat_the_sweep() {
    let t = small();
    let engine = StreamEngine::new(t.base.clone(), CFG).expect("valid configuration");
    let server = Server::start(engine, cores().saturating_sub(1).max(1));
    let handle = server.handle();
    // The whole trace is queued up front, so the queries below race real
    // batch applications.
    let applies: Vec<_> = t
        .batches
        .iter()
        .map(|b| handle.apply(b.clone()).expect("server accepting"))
        .collect();
    let queries: Vec<Query> = (1..=1500usize)
        .map(|i| match i % 16 {
            13 => Query::Seeds,
            14 => Query::TopUncovered(8),
            15 => Query::Coverage,
            j if j % 2 == 0 => Query::HitTime(NodeId((i * 131 % N) as u32)),
            _ => Query::HitProb(NodeId((i * 197 % N) as u32)),
        })
        .collect();
    for window in queries.chunks(64) {
        let tickets: Vec<_> = window
            .iter()
            .map(|q| handle.query(q.clone()).expect("server accepting"))
            .collect();
        tickets.into_iter().for_each(|ticket| drop(ticket.wait()));
    }
    let applied = applies.len();
    for ticket in applies {
        ticket.wait().report.expect("trace batches are valid");
    }
    let snap = handle.snapshot();
    server.shutdown();
    assert_eq!(snap.epoch(), applied as u64);

    let (service_us, _) = point_p99_us(&snap);
    let (sweep_ms, _) =
        best_of_3(|| timed(|| snap.shards()[0].estimate_hit_times(snap.seed_set())));
    let sweep_us = sweep_ms * 1e3;
    report(
        format!(
            "point service p99 {service_us:.1} µs vs full sweep {sweep_us:.1} µs -> {:.1}x; \
             {applied} batches applied while querying",
            sweep_us / service_us
        ),
        &[(applied >= 1, "no batch applied while querying")],
        service_us < sweep_us,
    );
}

/// A scatter-gather answer reads every shard's partial index, so the
/// coordination overhead must stay bounded: the worst sharded point-query
/// p99 within 2x of the single-shard engine's.
#[test]
#[ignore = "timing gate, run by CI's Perf gates step"]
fn gate_5_sharded_point_queries_within_2x() {
    let t = small();
    let counts = [1usize, 2, 4];
    let mut p99s = Vec::new();
    let mut single = None;
    for shards in counts {
        let mut eng =
            StreamEngine::with_shards(t.base.clone(), CFG, shards).expect("valid shard count");
        for b in &t.batches {
            eng.apply(b).expect("trace batches are valid");
        }
        let (p99, answers) = point_p99_us(&Snapshot::capture(&eng));
        let bits = (eng.seeds().to_vec(), eng.objective().to_bits(), answers);
        match &single {
            None => single = Some(bits),
            Some(want) => assert!(
                bits == *want,
                "{shards}-shard seeds, objective or point answers drifted"
            ),
        }
        p99s.push(p99);
    }
    let base = p99s[0];
    let worst = p99s.iter().copied().fold(0.0, f64::max);
    report(
        format!(
            "single-shard point p99 {base:.1} µs vs worst sharded {worst:.1} µs -> {:.2}x; \
             shard counts {counts:?}",
            worst / base
        ),
        &[(p99s.len() >= 2, "fewer than 2 shard counts")],
        worst <= 2.0 * base,
    );
}

/// A warm maintainer keeps its gain engine across epochs, absorbs each
/// refresh's posting-edit script and replays still-valid rounds from their
/// logs. It must beat a maintainer given no edit scripts, which rebuilds
/// cold over the same shards every batch, and the trace must exercise the
/// fast path: every batch warm, half the rounds or more replayed.
#[test]
#[ignore = "timing gate, run by CI's Perf gates step"]
fn gate_6_warm_maintenance_beats_cold() {
    let t = trace(TraceModel::BarabasiAlbert { mdeg: 12 }, 12, 2);
    let cfg = StreamConfig { k: 10, ..CFG };
    // One pass over the trace: the warm engine applies each batch, then the
    // cold maintainer repairs the same shards; both agree bitwise. Returns
    // the warm and cold maintain totals in ms, the warm batches and the
    // rounds replayed.
    let run = || {
        let mut eng = StreamEngine::new(t.base.clone(), cfg).expect("valid configuration");
        let mut cold = SeedMaintainer::new(cfg.rule, cfg.k, cfg.threads);
        cold.maintain(&eng.shard_indexes(), None);
        let (mut warm_ms, mut cold_ms, mut warm, mut replayed) = (0.0, 0.0, 0, 0);
        for b in &t.batches {
            let rw = eng.apply(b).expect("trace batches are valid");
            let (ms, rc) = timed(|| cold.maintain(&eng.shard_indexes(), None));
            warm_ms += rw.maintain_ms;
            cold_ms += ms;
            warm += usize::from(rw.maintain.warm);
            replayed += rw.maintain.replayed_rounds;
            assert!(!rc.warm, "a pass without edit scripts is cold");
            assert_eq!(
                rw.maintain.objective.to_bits(),
                rc.objective.to_bits(),
                "warm objective drifted from cold"
            );
            assert_eq!(
                rw.maintain.touched_postings, rc.touched_postings,
                "warm touched-posting count drifted from cold"
            );
        }
        assert_eq!(eng.seeds(), cold.seeds(), "warm seeds drifted from cold");
        (warm_ms, cold_ms, warm, replayed)
    };
    // The cold total keeps its own best of the same three runs.
    let mut cold_ms = f64::INFINITY;
    let (warm_ms, (warm, replayed)) = best_of_3(|| {
        let (warm_ms, cold, warm, replayed) = run();
        cold_ms = cold_ms.min(cold);
        (warm_ms, (warm, replayed))
    });
    let (batches, rounds) = (t.batches.len(), t.batches.len() * cfg.k);
    let speedup = cold_ms / warm_ms;
    report(
        format!(
            "warm maintain {warm_ms:.3} ms vs cold {cold_ms:.3} ms -> {speedup:.2}x; \
             {warm}/{batches} batches warm, {replayed}/{rounds} rounds replayed"
        ),
        &[
            (warm == batches, "a batch fell back cold"),
            (
                replayed * 2 >= rounds,
                "fewer than half the rounds replayed from logs",
            ),
        ],
        speedup >= 2.0,
    );
}

/// Recovery (the newest snapshot, mapped, plus the journal suffix) must
/// beat rebuilding the engine from the final graph, and land bitwise on
/// both the live engine and the rebuild.
#[test]
#[ignore = "timing gate, run by CI's Perf gates step"]
fn gate_7_recovery_beats_rebuild() {
    let t = trace(TraceModel::ErdosRenyi { mean_degree: 4.0 }, 6, 20);
    let cfg = StreamConfig {
        l: 6 * CFG.l,
        threads: 1,
        ..CFG
    };
    let wg = weighted_twin(&t.base, GRAPH_SEED).expect("valid weighted twin");
    let dir = scratch_dir("recovery");
    let live = {
        let eng = StreamEngine::with_shards_weighted(wg, cfg, 1).expect("valid configuration");
        let mut durable = eng
            .create_durable(&dir, DurabilityConfig { snapshot_every: 3 })
            .expect("fresh data dir");
        for b in &t.batches {
            durable.apply(b).expect("trace batches are valid");
        }
        (durable.seeds().to_vec(), durable.objective().to_bits())
    };
    // Each run drops its engine after the clock stops, so the next open
    // finds the data dir unlocked.
    let (recovery_ms, (recovered, graph)) = best_of_3(|| {
        let (ms, (eng, report)) = timed(|| {
            StreamEngine::open_durable_with(&dir, DurabilityConfig::default(), OpenMode::Mapped)
                .expect("recovers")
        });
        assert!(report.torn_tail.is_none(), "clean shutdown misread as torn");
        let image = (eng.seeds().to_vec(), eng.objective().to_bits());
        (ms, (image, eng.weighted_graph().expect("weighted").clone()))
    });
    std::fs::remove_dir_all(&dir).ok();
    let (rebuild_ms, rebuilt) = best_of_3(|| {
        timed(|| {
            StreamEngine::with_shards_weighted(graph.clone(), cfg, 1).expect("valid configuration")
        })
    });
    assert_eq!(recovered, live, "recovery must equal the live engine");
    assert_eq!(
        recovered,
        (rebuilt.seeds().to_vec(), rebuilt.objective().to_bits()),
        "recovery must equal a from-scratch rebuild"
    );
    let speedup = rebuild_ms / recovery_ms;
    report(
        format!("recovery {recovery_ms:.3} ms vs rebuild {rebuild_ms:.3} ms -> {speedup:.2}x"),
        &[],
        speedup >= 2.0,
    );
}

/// The metrics hot path must cost next to nothing: the server worker's
/// point-query service window with its instruments keeps p99 within 1.1x of
/// the bare window. The stability telemetry must cover the trace's epochs.
#[test]
#[ignore = "timing gate, run by CI's Perf gates step"]
fn gate_8_instrumentation_within_1_1x() {
    let t = small();
    let mut eng = StreamEngine::new(t.base.clone(), CFG).expect("valid configuration");
    let mut tracker = EpochStabilityTracker::new();
    let seeds = |e: &StreamEngine| e.seeds().iter().map(|s| s.raw()).collect::<Vec<_>>();
    tracker.observe(0, &seeds(&eng), eng.objective(), None);
    for b in &t.batches {
        let rep = eng.apply(b).expect("trace batches are valid");
        tracker.observe(rep.epoch, &seeds(&eng), rep.maintain.objective, None);
    }
    let epoch_rows = tracker.history().len().saturating_sub(1);

    let published = RwLock::new(Snapshot::capture(&eng));
    let (service, queue, depth, pinned, published_epoch, lag) = (
        Histogram::new(),
        Histogram::new(),
        Gauge::new(),
        Gauge::new(),
        Gauge::new(),
        Counter::new(),
    );
    published_epoch.set(eng.epoch() as i64);
    // p99 in µs of the worker's service window over 8000 point queries: a
    // dequeue timestamp, pin the published snapshot (a read lock and a
    // cheap clone), answer, an end timestamp. Instrumented, the window also
    // holds what `query_worker` does inside it (the depth and pinned gauges
    // and the epoch-lag check); the histogram records and the unpin come
    // after the end timestamp, as there.
    let probe = |instrumented: bool| {
        let latency = Histogram::new();
        for i in 0..8000usize {
            let v = NodeId((i * 131 % N) as u32);
            let dequeued = Instant::now();
            if instrumented {
                depth.dec();
                pinned.inc();
            }
            let snap = published.read().expect("snapshot lock").clone();
            if instrumented {
                let behind = published_epoch.get() - snap.epoch() as i64;
                if behind > 0 {
                    lag.add(behind as u64);
                }
            }
            let x = if i % 2 == 0 {
                snap.hit_time(v)
            } else {
                snap.hit_prob(v)
            };
            let window = dequeued.elapsed();
            latency.record_duration(window);
            assert!(x.is_finite());
            if instrumented {
                service.record_duration(window);
                queue.record(0);
                pinned.dec();
            }
        }
        latency.quantile(0.99) / 1e3
    };
    // Each run probes the bare window, then the instrumented one; the bare
    // p99 keeps its own best of the same three runs.
    let mut plain_us = f64::INFINITY;
    let (instrumented_us, ()) = best_of_3(|| {
        plain_us = plain_us.min(probe(false));
        (probe(true), ())
    });
    assert_eq!(
        service.count(),
        3 * 8000,
        "an instrumented probe went unrecorded"
    );
    let ratio = instrumented_us / plain_us;
    report(
        format!(
            "instrumented point p99 {instrumented_us:.2} µs vs plain {plain_us:.2} µs -> \
             {ratio:.3}x; {epoch_rows} per-epoch stability rows"
        ),
        &[(epoch_rows > 0, "stability telemetry has no per-epoch rows")],
        ratio <= 1.1,
    );
}

/// `open_mapped` maps an RWDIDX4 file and makes one checksum-and-range
/// sweep over it, with no per-posting copy, so it must beat the
/// deserializing load of the same file, which makes the same sweep and
/// then copies and transposes every layer, by 5x. A fresh mapped open owns
/// no heap.
#[test]
#[ignore = "timing gate, run by CI's Perf gates step"]
fn gate_9_mapped_open_beats_deserialize() {
    let idx = WalkIndex::build_with_threads(&small().base, CFG.l, CFG.r, CFG.seed, 0);
    let dir = scratch_dir("open");
    std::fs::create_dir_all(&dir).expect("scratch dir");
    let path = dir.join("index.rwdidx");
    idx.save(&path).expect("index saves");
    let (load_ms, loaded) =
        best_of_3(|| timed(|| WalkIndex::load_with_threads(&path, 0).expect("index loads")));
    let (mapped_ms, mapped) = best_of_3(|| {
        timed(|| WalkIndex::open_mapped(&path).expect("the mapped path works on Linux"))
    });
    assert!(loaded == idx, "the deserializing open drifted");
    assert!(mapped == idx, "the mapped open drifted");
    let heap = mapped.heap_bytes();
    drop(mapped);
    std::fs::remove_dir_all(&dir).ok();
    let speedup = load_ms / mapped_ms;
    report(
        format!(
            "deserialize open {load_ms:.3} ms vs mapped {mapped_ms:.3} ms -> {speedup:.1}x; \
             {heap} heap bytes after the mapped open"
        ),
        &[(heap == 0, "a fresh mapped open owns heap bytes")],
        speedup >= 5.0,
    );
}
