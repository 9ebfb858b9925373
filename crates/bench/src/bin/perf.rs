//! The repo's perf trajectory: one binary, one JSON snapshot per PR.
//!
//! Times the sampling→index→greedy hot path end to end —
//!
//! * inverted-index build, unweighted and weighted (alias-table walks),
//!   single-threaded vs all cores (the 2-D build-grid speedup),
//! * one full `gains_all` sweep (the per-round cost of paper-faithful
//!   Algorithm 6),
//! * a complete CELF lazy greedy from a prebuilt index,
//! * the same selection under `Strategy::Delta` — the output-sensitive
//!   engine over the dual-view index — with per-round touched-posting
//!   counts showing how little each round actually re-reads,
//! * the evolving pipeline: a deterministic temporal edge trace applied
//!   batch by batch, timing graph edit + **incremental index refresh**
//!   against a full per-batch rebuild (asserted bit-identical), with
//!   per-batch resampled-group counts,
//! * the serving path: the threaded query server answering point queries
//!   **while churn batches apply concurrently** — throughput plus
//!   p50/p99/max point-query latency, against the full-sweep estimator
//!   time the point path replaces,
//! * the sharded engine core: the same churn trace through 1/2/4-shard
//!   scatter-gather coordinators (results asserted identical to the
//!   single-shard engine), with per-count batch-apply totals and gathered
//!   point-query service latency,
//! * cross-epoch seed repair: the churn trace through a warm engine
//!   (persistent gain tables patched by each refresh's posting-edit
//!   script, recorded rounds replayed from their logs) vs one forced cold
//!   every batch — seeds asserted bit-identical, the warm-vs-cold ratio
//!   feeding the CI gate,
//! * the durability layer: the fsync'd write-ahead journal append per
//!   batch (read from the `rwd_durable_journal_append_ns` histogram), one
//!   full snapshot write, and crash recovery (snapshot + journal-suffix
//!   replay) vs a from-scratch rebuild — asserted bit-identical, the ratio
//!   feeding the CI gate,
//! * the observability layer: the cost of the metrics hot path itself —
//!   the same point query with and without an RAII timer + histogram
//!   record around it (the ratio feeding the ≤ 1.1x CI gate) — plus
//!   cross-epoch answer-stability telemetry (per-epoch seed-set Jaccard,
//!   seeds swapped, objective drift) over the churn trace,
//! * the open path: bringing a saved index back — zero-copy `mmap` open
//!   of an RWDIDX4 snapshot vs deserializing the same file vs rebuilding
//!   from the graph, plus the restart drill end to end (durable engine
//!   open in both modes through the first answered point query), with the
//!   heap/mapped byte split and the deserializer's transient peak as the
//!   RSS story — the mapped-vs-deserialize ratio feeding the CI gate,
//!
//! and writes the measurements as JSON (default `BENCH_10.json`, the
//! PR-10 snapshot; earlier `BENCH_<n>.json` files stay beside it so the
//! trajectory is diffable).
//!
//! Schema `rwd-perf/10` (the durability block reports the fsync'd append
//! itself as `journal_append_ms_per_batch`; `rwd-perf/9` added the `open`
//! block):
//! every timing records the worker count it actually ran with, and
//! `available_parallelism` is a top-level field — so a snapshot taken
//! on a 1-core container is self-describing instead of silently reporting
//! ~1.0 speedups. All latency percentiles come from `rwd-obs`'s
//! log-bucketed histograms (32 sub-buckets per octave, ≤ 3.2% relative
//! error) — the exact quantile implementation the engine itself exposes —
//! instead of a private sort-and-index.
//!
//! Usage: `cargo run --release -p rwd-bench --bin perf -- [--scale small|full]
//! [--out PATH] [--reps N]`. The small scale exists for CI, where the run
//! must take seconds; numbers are only comparable within one machine.
//!
//! The full scale keeps the Barabási–Albert graph of every previous
//! snapshot (trajectory comparability). The small scale uses an
//! Erdős–Rényi graph: on a 4k-node BA graph the hubs' inverted lists are a
//! double-digit percentage of the whole index, which makes per-seed repair
//! work degenerate-large relative to one sweep — a homogeneous graph is
//! the representative regime for the strategy comparison CI asserts.

use std::time::Instant;

use rwd_core::algo::{delta_greedy_with_stats, select_from_index};
use rwd_core::greedy::approx::{GainEngine, GainRule};
use rwd_core::Strategy;
use rwd_datasets::temporal::{temporal_trace, TemporalTraceSpec, TraceModel};
use rwd_graph::generators::{barabasi_albert, erdos_renyi_gnp};
use rwd_graph::weighted::weighted_twin;
use rwd_graph::{CsrGraph, NodeId};
use rwd_serve::{Query, Server, Snapshot};
use rwd_stream::{SeedMaintainer, StreamConfig, StreamEngine};
use rwd_walks::{NodeSet, WalkIndex};

#[derive(Clone, Copy)]
enum Model {
    /// Barabási–Albert with `mdeg` attachments per node.
    Ba,
    /// Erdős–Rényi `G(n, p)` with `p = mdeg / n` (mean degree `mdeg`).
    ErdosRenyi,
}

impl Model {
    fn json_name(self) -> &'static str {
        match self {
            Model::Ba => "barabasi_albert",
            Model::ErdosRenyi => "erdos_renyi_gnp",
        }
    }

    fn build(self, n: usize, mdeg: usize, seed: u64) -> CsrGraph {
        match self {
            Model::Ba => barabasi_albert(n, mdeg, seed).expect("valid BA parameters"),
            Model::ErdosRenyi => {
                erdos_renyi_gnp(n, mdeg as f64 / n as f64, seed).expect("valid ER parameters")
            }
        }
    }
}

struct Scale {
    name: &'static str,
    model: Model,
    n: usize,
    mdeg: usize,
    l: u32,
    r: usize,
    k: usize,
    /// Temporal-trace batches timed by the stream block.
    stream_batches: usize,
    /// Edits per batch — sized so touched nodes stay ≤ 10% of `n` (at most
    /// two endpoints per edit), the regime the incremental-vs-rebuild CI
    /// assertion targets.
    stream_edits: usize,
}

const FULL: Scale = Scale {
    name: "full",
    model: Model::Ba,
    n: 50_000,
    mdeg: 8,
    l: 10,
    r: 16,
    k: 20,
    stream_batches: 6,
    stream_edits: 100,
};

const SMALL: Scale = Scale {
    name: "small",
    model: Model::ErdosRenyi,
    n: 4_000,
    mdeg: 12,
    l: 8,
    r: 16,
    k: 20,
    stream_batches: 6,
    stream_edits: 20,
};

const GRAPH_SEED: u64 = 0x2013;
const WALK_SEED: u64 = 7;

/// Best-of-`reps` wall time of `f`, in milliseconds.
fn time_ms<T>(reps: usize, mut f: impl FnMut() -> T) -> (f64, T) {
    let mut best = f64::INFINITY;
    let mut last = None;
    for _ in 0..reps.max(1) {
        let t0 = Instant::now();
        let out = f();
        best = best.min(t0.elapsed().as_secs_f64() * 1e3);
        last = Some(out);
    }
    (best, last.expect("reps >= 1"))
}

fn fmt_ms(v: f64) -> String {
    format!("{v:.3}")
}

/// A number for the JSON snapshot: `null` when the measurement does not
/// exist on this host (e.g. mapped opens off-unix).
fn json_num(v: f64) -> String {
    if v.is_finite() {
        fmt_ms(v)
    } else {
        String::from("null")
    }
}

/// One named timing with the worker count it actually ran with.
struct Timing {
    name: &'static str,
    ms: f64,
    threads: usize,
}

/// Latency percentile over samples in µs, computed through the same
/// log-bucketed [`rwd_obs::Histogram`] the engine's metrics registry
/// exposes — one quantile implementation everywhere, instead of the old
/// private sort-and-index.
fn percentile_us(samples_us: &[f64], q: f64) -> f64 {
    let h = rwd_obs::Histogram::new();
    for &s in samples_us {
        h.record((s * 1e3).max(0.0) as u64);
    }
    h.quantile(q) / 1e3
}

fn main() {
    let mut scale = FULL;
    let mut out_path = String::from("BENCH_10.json");
    let mut reps = 3usize;
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--scale" => match args.next().as_deref() {
                Some("small") => scale = SMALL,
                Some("full") => scale = FULL,
                other => {
                    eprintln!("--scale expects small|full, got {other:?}");
                    std::process::exit(2);
                }
            },
            "--out" => match args.next() {
                Some(p) => out_path = p,
                None => {
                    eprintln!("--out expects a path");
                    std::process::exit(2);
                }
            },
            "--reps" => match args.next().map(|v| v.parse::<usize>()) {
                Some(Ok(v)) if v >= 1 => reps = v,
                other => {
                    eprintln!("--reps expects a positive integer, got {other:?}");
                    std::process::exit(2);
                }
            },
            other => {
                eprintln!("unknown argument {other}; usage: perf [--scale small|full] [--out PATH] [--reps N]");
                std::process::exit(2);
            }
        }
    }

    let cores = std::thread::available_parallelism().map_or(1, |t| t.get());
    // Layer-parallel passes cap their fan-out at the layer count.
    let layer_threads = cores.min(scale.r);
    eprintln!(
        "perf: scale={} n={} mdeg={} l={} r={} k={} reps={} available_parallelism={}",
        scale.name, scale.n, scale.mdeg, scale.l, scale.r, scale.k, reps, cores
    );

    let g = scale.model.build(scale.n, scale.mdeg, GRAPH_SEED);
    let wg = weighted_twin(&g, GRAPH_SEED).expect("valid weighted twin");
    let mut timings: Vec<Timing> = Vec::new();
    let mut record = |name: &'static str, ms: f64, threads: usize| {
        eprintln!("  {name:<27}: {} ms ({threads} thread(s))", fmt_ms(ms));
        timings.push(Timing { name, ms, threads });
    };

    // --- index builds: 1 thread vs all cores, unweighted and weighted ----
    let (uw_1t, idx_1t) = time_ms(reps, || {
        WalkIndex::build_with_threads(&g, scale.l, scale.r, WALK_SEED, 1)
    });
    record("index_build_unweighted_1t", uw_1t, 1);
    let (uw_all, idx) = time_ms(reps, || {
        WalkIndex::build_with_threads(&g, scale.l, scale.r, WALK_SEED, 0)
    });
    record("index_build_unweighted_all", uw_all, cores);
    assert_eq!(
        idx.total_postings(),
        idx_1t.total_postings(),
        "thread count changed the index"
    );

    let (w_1t, widx_1t) = time_ms(reps, || {
        WalkIndex::build_with_threads(&wg, scale.l, scale.r, WALK_SEED, 1)
    });
    record("index_build_weighted_1t", w_1t, 1);
    let (w_all, widx) = time_ms(reps, || {
        WalkIndex::build_with_threads(&wg, scale.l, scale.r, WALK_SEED, 0)
    });
    record("index_build_weighted_all", w_all, cores);
    assert_eq!(
        widx.total_postings(),
        widx_1t.total_postings(),
        "thread count changed the weighted index"
    );

    // --- one paper-faithful gains_all sweep ------------------------------
    let (sweep_ms, _) = time_ms(reps, || {
        let engine = GainEngine::new(&idx, GainRule::HittingTime);
        engine.gains_all()
    });
    record("gains_all_sweep", sweep_ms, layer_threads);

    // --- full k-selection via CELF on the prebuilt index -----------------
    let (celf_ms, celf) = time_ms(reps, || {
        select_from_index(&idx, GainRule::HittingTime, scale.k, Strategy::Celf, 0)
            .expect("valid selection parameters")
    });
    record("celf_greedy_full", celf_ms, layer_threads);
    eprintln!("      CELF evaluations       : {}", celf.evaluations);

    // --- the same selection via delta-maintained gains -------------------
    let (delta_ms, (delta, touched)) = time_ms(reps, || {
        delta_greedy_with_stats(&idx, GainRule::HittingTime, scale.k, 0)
            .expect("valid selection parameters")
    });
    record("delta_greedy_full", delta_ms, layer_threads);
    assert_eq!(
        celf.nodes, delta.nodes,
        "Strategy::Delta must select the same seeds as CELF"
    );
    assert_eq!(
        celf.gain_trace, delta.gain_trace,
        "Strategy::Delta must report identical gains"
    );
    eprintln!(
        "      touched postings/round : {touched:?} (index total {})",
        idx.total_postings()
    );

    // --- evolving pipeline: incremental refresh vs per-batch rebuild -----
    // The trace spec reuses the scale's model/seed, so its base graph is
    // the graph already benchmarked above; each batch is timed once (the
    // index mutates, so reps would measure a different epoch).
    let spec = TemporalTraceSpec {
        model: match scale.model {
            Model::Ba => TraceModel::BarabasiAlbert { mdeg: scale.mdeg },
            Model::ErdosRenyi => TraceModel::ErdosRenyi {
                mean_degree: scale.mdeg as f64,
            },
        },
        nodes: scale.n,
        batches: scale.stream_batches,
        batch_edits: scale.stream_edits,
        delete_fraction: 0.5,
        seed: GRAPH_SEED,
    };
    let trace = temporal_trace(&spec).expect("valid trace spec");
    assert_eq!(trace.base.m(), g.m(), "trace base must be the bench graph");
    let mut inc = idx.clone();
    let mut cur = g.clone();
    let (mut apply_ms, mut refresh_ms, mut rebuild_ms) = (0.0f64, 0.0f64, 0.0f64);
    let mut touched_per_batch: Vec<usize> = Vec::new();
    let mut groups_per_batch: Vec<usize> = Vec::new();
    for batch in &trace.batches {
        let t0 = Instant::now();
        let delta = batch.apply(&cur).expect("trace batches are valid");
        apply_ms += t0.elapsed().as_secs_f64() * 1e3;
        let t1 = Instant::now();
        let (stats, _) = inc.refresh(&delta.graph, &delta.touched, 0);
        refresh_ms += t1.elapsed().as_secs_f64() * 1e3;
        let t2 = Instant::now();
        let rebuilt = WalkIndex::build_with_threads(&delta.graph, scale.l, scale.r, WALK_SEED, 0);
        rebuild_ms += t2.elapsed().as_secs_f64() * 1e3;
        assert!(
            inc == rebuilt,
            "incremental refresh must be bit-identical to a rebuild"
        );
        touched_per_batch.push(delta.touched.len());
        groups_per_batch.push(stats.groups_resampled);
        cur = delta.graph;
    }
    let groups_total = inc.n() * inc.r();
    let max_touched_fraction = touched_per_batch
        .iter()
        .map(|&t| t as f64 / scale.n as f64)
        .fold(0.0f64, f64::max);
    record("stream_batch_apply_total", apply_ms, 1);
    record("stream_refresh_total", refresh_ms, cores);
    record("stream_rebuild_total", rebuild_ms, cores);
    eprintln!(
        "      stream: {} batches × {} edits; touched/batch {touched_per_batch:?}; \
         groups resampled/batch {groups_per_batch:?} of {groups_total}; \
         incremental {refresh_ms:.1} ms vs rebuild {rebuild_ms:.1} ms ({:.2}x)",
        scale.stream_batches,
        scale.stream_edits,
        rebuild_ms / refresh_ms.max(1e-9),
    );

    // --- serving path: point queries racing concurrent churn -------------
    // The comparator the CI gate uses: one full-sweep hit-time estimate on
    // the current index — the cost a point query must stay well under.
    let final_seeds = select_from_index(&inc, GainRule::HittingTime, scale.k, Strategy::Delta, 0)
        .expect("valid selection parameters")
        .nodes;
    let final_set = NodeSet::from_nodes(scale.n, final_seeds.iter().copied());
    let (full_sweep_ms, _) = time_ms(reps, || inc.estimate_hit_times(&final_set));
    record("estimate_hit_times_sweep", full_sweep_ms, cores);

    let serve_queries: usize = if scale.n >= 10_000 { 4000 } else { 1500 };
    let query_workers = cores.saturating_sub(1).max(1);
    let serve_cfg = StreamConfig {
        l: scale.l,
        r: scale.r,
        k: scale.k,
        seed: WALK_SEED,
        rule: GainRule::HittingTime,
        threads: 0,
    };
    let stream_engine = StreamEngine::new(g.clone(), serve_cfg).expect("valid serve configuration");
    let server = Server::start(stream_engine, query_workers);
    let handle = server.handle();
    // Feed the whole churn trace to the writer up front: the queries below
    // then race real batch applications the entire run.
    let apply_tickets: Vec<_> = trace
        .batches
        .iter()
        .map(|b| handle.apply(b.clone()).expect("server accepting"))
        .collect();
    let t0 = Instant::now();
    let mut point_us: Vec<f64> = Vec::with_capacity(serve_queries);
    let mut other_queries = 0usize;
    const WINDOW: usize = 64;
    let mut pending: Vec<(bool, rwd_serve::Ticket<rwd_serve::QueryAnswer>)> =
        Vec::with_capacity(WINDOW);
    let mut issued = 0usize;
    while issued < serve_queries {
        pending.clear();
        while pending.len() < WINDOW && issued < serve_queries {
            issued += 1;
            let (point, query) = match issued % 16 {
                15 => (false, Query::Coverage),
                14 => (false, Query::TopUncovered(8)),
                13 => (false, Query::Seeds),
                i if i % 2 == 0 => (
                    true,
                    Query::HitTime(NodeId((issued * 131 % scale.n) as u32)),
                ),
                _ => (
                    true,
                    Query::HitProb(NodeId((issued * 197 % scale.n) as u32)),
                ),
            };
            pending.push((point, handle.query(query).expect("server accepting")));
        }
        for (point, ticket) in pending.drain(..) {
            let answer = ticket.wait();
            if point {
                point_us.push(answer.latency.as_secs_f64() * 1e6);
            } else {
                other_queries += 1;
            }
        }
    }
    let serve_wall_s = t0.elapsed().as_secs_f64();
    let mut batches_applied = 0usize;
    for t in apply_tickets {
        let outcome = t.wait();
        outcome.report.expect("trace batches are valid");
        batches_applied += 1;
    }
    let final_snapshot = handle.snapshot();
    server.shutdown();
    assert_eq!(final_snapshot.epoch(), batches_applied as u64);
    let (p50_us, p99_us) = (
        percentile_us(&point_us, 0.50),
        percentile_us(&point_us, 0.99),
    );
    let max_us = point_us.iter().copied().fold(0.0f64, f64::max);
    let throughput_qps = serve_queries as f64 / serve_wall_s.max(1e-9);

    // Service time of one point query against a pinned snapshot — the
    // apples-to-apples comparator against the full sweep it replaces
    // (end-to-end latency above additionally includes queueing behind
    // other requests and, on starved machines, behind churn CPU).
    let mut service_us: Vec<f64> = Vec::with_capacity(1000);
    for i in 0..1000usize {
        let v = NodeId((i * 131 % scale.n) as u32);
        let t = Instant::now();
        let x = if i % 2 == 0 {
            final_snapshot.hit_time(v)
        } else {
            final_snapshot.hit_prob(v)
        };
        service_us.push(t.elapsed().as_secs_f64() * 1e6);
        assert!(x.is_finite());
    }
    let service_p99_us = percentile_us(&service_us, 0.99);
    record("serve_point_service_p99", service_p99_us / 1e3, 1);
    eprintln!(
        "      serve: {serve_queries} queries ({} point + {other_queries} set) over \
         {query_workers} worker(s) racing {batches_applied} batches; \
         {throughput_qps:.0} q/s; end-to-end point p50 {p50_us:.1} µs \
         p99 {p99_us:.1} µs max {max_us:.1} µs; service p99 {service_p99_us:.1} µs \
         vs full sweep {full_sweep_ms:.3} ms",
        point_us.len(),
    );

    // --- observability: the cost of the metrics hot path itself ----------
    // The CI gate: the instrumented point-query service unit must keep p99
    // within 1.1x of the uninstrumented one. The measured unit mirrors the
    // server worker's service window exactly: a dequeue timestamp, then
    // pin the published snapshot (RwLock read + cheap clone) and answer,
    // then an end timestamp. Inside that window this PR added only a few
    // atomic gauge updates (queue-depth dec, pinned-snapshot inc, epoch
    // lag check); the two histogram records and the pinned dec happen
    // after the end timestamp — exactly as in `query_worker` — so they
    // cost throughput but never inflate a request's reported service
    // time. Best-of-reps on each side gives the same noise discipline as
    // `time_ms`.
    let obs_queries = 8000usize;
    let obs_reps = reps.max(3);
    let published = std::sync::RwLock::new(final_snapshot.clone());
    let service_probe_hist = rwd_obs::Histogram::new();
    let queue_probe_hist = rwd_obs::Histogram::new();
    let probe_depth = rwd_obs::Gauge::new();
    let probe_pinned = rwd_obs::Gauge::new();
    let probe_epoch = rwd_obs::Gauge::new();
    let probe_lag = rwd_obs::Counter::new();
    probe_epoch.set(final_snapshot.epoch() as i64);
    let (mut plain_p99_us, mut instr_p99_us) = (f64::INFINITY, f64::INFINITY);
    for _ in 0..obs_reps {
        let mut us: Vec<f64> = Vec::with_capacity(obs_queries);
        for i in 0..obs_queries {
            let v = NodeId((i * 131 % scale.n) as u32);
            let dequeued = Instant::now();
            let snap = published.read().expect("snapshot lock").clone();
            let x = if i % 2 == 0 {
                snap.hit_time(v)
            } else {
                snap.hit_prob(v)
            };
            let end = Instant::now();
            us.push(end.duration_since(dequeued).as_secs_f64() * 1e6);
            assert!(x.is_finite());
        }
        plain_p99_us = plain_p99_us.min(percentile_us(&us, 0.99));
        us.clear();
        for i in 0..obs_queries {
            let v = NodeId((i * 131 % scale.n) as u32);
            let dequeued = Instant::now();
            probe_depth.dec();
            probe_pinned.inc();
            let snap = published.read().expect("snapshot lock").clone();
            let lag = probe_epoch.get() - snap.epoch() as i64;
            if lag > 0 {
                probe_lag.add(lag as u64);
            }
            let x = if i % 2 == 0 {
                snap.hit_time(v)
            } else {
                snap.hit_prob(v)
            };
            let end = Instant::now();
            let service = end.duration_since(dequeued);
            us.push(service.as_secs_f64() * 1e6);
            assert!(x.is_finite());
            service_probe_hist.record_duration(service);
            queue_probe_hist.record(0);
            probe_pinned.dec();
        }
        instr_p99_us = instr_p99_us.min(percentile_us(&us, 0.99));
    }
    assert_eq!(
        service_probe_hist.count() as usize,
        obs_queries * obs_reps,
        "every instrumented probe must be recorded"
    );
    let instrumentation_ratio = instr_p99_us / plain_p99_us.max(1e-9);
    record("point_p99_plain", plain_p99_us / 1e3, 1);
    record("point_p99_instrumented", instr_p99_us / 1e3, 1);

    // Cross-epoch answer stability over the same churn trace: per-epoch
    // seed-set Jaccard vs the previous epoch, seeds swapped, objective
    // drift — the telemetry the stability tracker feeds the serving layer.
    let mut stab_eng = StreamEngine::new(g.clone(), serve_cfg).expect("valid serve configuration");
    let mut tracker = rwd_obs::EpochStabilityTracker::new();
    let seeds_u32 =
        |eng: &StreamEngine| -> Vec<u32> { eng.seeds().iter().map(|s| s.raw()).collect() };
    tracker.observe(0, &seeds_u32(&stab_eng), stab_eng.objective(), None);
    for batch in &trace.batches {
        let rep = stab_eng.apply(batch).expect("trace batches are valid");
        tracker.observe(
            rep.epoch,
            &seeds_u32(&stab_eng),
            rep.maintain.objective,
            None,
        );
    }
    let stability = tracker.summary();
    eprintln!(
        "      metrics: instrumented point p99 {instr_p99_us:.2} µs vs plain \
         {plain_p99_us:.2} µs ({instrumentation_ratio:.3}x); stability over \
         {} epochs: Jaccard mean {:.3} min {:.3}, {} seeds swapped, \
         |objective drift| max {:.3}",
        trace.batches.len(),
        stability.mean_jaccard,
        stability.min_jaccard,
        stability.total_swapped,
        stability.max_abs_objective_drift,
    );

    // --- sharded engine core: scatter-gather vs the single-shard engine --
    // The same churn trace through 1/2/4-shard coordinators. Correctness is
    // asserted inline (seeds, objective and gathered point answers must be
    // bit-identical across shard counts); the rows feed the CI gate keeping
    // sharded point-query p99 within 2x of single-shard.
    let shard_counts: Vec<usize> = [1usize, 2, 4]
        .into_iter()
        .filter(|&s| s <= scale.r)
        .collect();
    struct ShardRow {
        shards: usize,
        apply_ms: f64,
        p50_us: f64,
        p99_us: f64,
    }
    let mut shard_rows: Vec<ShardRow> = Vec::new();
    let mut shard_baseline: Option<(Vec<NodeId>, u64, Vec<u64>)> = None;
    for &s in &shard_counts {
        let mut eng =
            StreamEngine::with_shards(g.clone(), serve_cfg, s).expect("valid shard count");
        let t0 = Instant::now();
        for batch in &trace.batches {
            eng.apply(batch).expect("trace batches are valid");
        }
        let shard_apply_ms = t0.elapsed().as_secs_f64() * 1e3;
        let snap = Snapshot::capture(&eng);
        let mut us: Vec<f64> = Vec::with_capacity(1000);
        let mut answers: Vec<u64> = Vec::with_capacity(1000);
        for i in 0..1000usize {
            let v = NodeId((i * 131 % scale.n) as u32);
            let t = Instant::now();
            let x = if i % 2 == 0 {
                snap.hit_time(v)
            } else {
                snap.hit_prob(v)
            };
            us.push(t.elapsed().as_secs_f64() * 1e6);
            answers.push(x.to_bits());
        }
        let (p50, p99) = (percentile_us(&us, 0.50), percentile_us(&us, 0.99));
        match &shard_baseline {
            None => {
                shard_baseline = Some((eng.seeds().to_vec(), eng.objective().to_bits(), answers))
            }
            Some((seeds, obj, base_answers)) => {
                assert_eq!(eng.seeds(), &seeds[..], "{s}-shard seeds drifted");
                assert_eq!(
                    eng.objective().to_bits(),
                    *obj,
                    "{s}-shard objective drifted"
                );
                assert_eq!(&answers, base_answers, "{s}-shard point answers drifted");
            }
        }
        shard_rows.push(ShardRow {
            shards: s,
            apply_ms: shard_apply_ms,
            p50_us: p50,
            p99_us: p99,
        });
    }
    let shard_base_p99 = shard_rows[0].p99_us;
    let shard_worst_p99 = shard_rows.iter().map(|r| r.p99_us).fold(0.0f64, f64::max);
    eprintln!(
        "      shard: counts {shard_counts:?} all bit-identical over {} batches; \
         single-shard service p99 {shard_base_p99:.1} µs, worst sharded p99 \
         {shard_worst_p99:.1} µs",
        scale.stream_batches,
    );

    // --- cross-epoch seed repair: warm absorb-and-replay vs cold ---------
    // A low-churn scale-free trace through one engine, whose maintainer
    // persists its gain tables across epochs (absorbing each refresh's
    // posting-edit script and replaying still-valid recorded rounds from
    // their logs). After each batch a standalone maintainer fed no deltas
    // rebuilds the gain engine from scratch over the same shards. Results
    // are asserted bit-identical — the warm path buys wall time only.
    //
    // The trace is deliberately *not* the refresh-stress trace above: warm
    // repair targets the steady state (a handful of edits per batch, not
    // one that rewrites a double-digit percentage of this small index),
    // and it is measured on the paper's hub-dominated topology, where
    // greedy rounds are expensive to stream (hub posting lists) yet the
    // argmax prefix is stable under churn — exactly what log replay
    // converts into O(log) work. A homogeneous graph is the wrong fixture
    // here for the same reason it is the right one above: its near-tied
    // gain profile reorders under any churn, forcing genuine (cold)
    // recomputation that no warm start can — or should — skip.
    let maintain_edits = (scale.stream_edits / 10).max(2);
    let maintain_spec = TemporalTraceSpec {
        model: TraceModel::BarabasiAlbert { mdeg: scale.mdeg },
        batch_edits: maintain_edits,
        batches: scale.stream_batches * 2,
        ..spec
    };
    let maintain_trace = temporal_trace(&maintain_spec).expect("valid trace spec");
    let mg = maintain_trace.base.clone();
    // k = 10 is the paper's real-data default (ICDE'14 §6). Deep seed
    // tails on a graph this small are near-tied and genuinely reorder
    // under churn; the steady-state prefix regime is what this fixture
    // measures, and the equivalence asserts below hold at any k.
    let maintain_cfg = StreamConfig { k: 10, ..serve_cfg };
    // The trace is stateful (each batch's cost depends on the previous
    // epoch), so best-of-reps wraps the *whole* trace: every rep rebuilds
    // the engine and the cold maintainer, replays all batches, and the warm
    // and cold totals each keep their own best rep — the same noise
    // discipline `time_ms` gives the stateless sections.
    let (mut warm_maintain_ms, mut cold_maintain_ms) = (f64::INFINITY, f64::INFINITY);
    let (mut warm_batches, mut replayed_total, mut absorbed_total) = (0usize, 0usize, 0usize);
    for _ in 0..reps {
        let mut warm_eng =
            StreamEngine::new(mg.clone(), maintain_cfg).expect("valid configuration");
        let mut cold = SeedMaintainer::new(maintain_cfg.rule, maintain_cfg.k, maintain_cfg.threads);
        cold.maintain(&warm_eng.shard_indexes(), None);
        let (mut warm_ms, mut cold_ms) = (0.0f64, 0.0f64);
        (warm_batches, replayed_total, absorbed_total) = (0, 0, 0);
        for batch in &maintain_trace.batches {
            let rw = warm_eng.apply(batch).expect("trace batches are valid");
            let t0 = Instant::now();
            let rc = cold.maintain(&warm_eng.shard_indexes(), None);
            cold_ms += t0.elapsed().as_secs_f64() * 1e3;
            warm_ms += rw.maintain_ms;
            warm_batches += rw.maintain.warm as usize;
            replayed_total += rw.maintain.replayed_rounds;
            absorbed_total += rw.maintain.absorbed_postings;
            assert!(!rc.warm, "a pass without deltas is cold");
            assert_eq!(
                rw.maintain.objective.to_bits(),
                rc.objective.to_bits(),
                "warm maintenance objective drifted from cold"
            );
            assert_eq!(
                rw.maintain.touched_postings, rc.touched_postings,
                "warm maintenance touched-posting accounting drifted from cold"
            );
        }
        assert_eq!(
            warm_eng.seeds(),
            cold.seeds(),
            "warm maintenance seeds drifted from cold"
        );
        warm_maintain_ms = warm_maintain_ms.min(warm_ms);
        cold_maintain_ms = cold_maintain_ms.min(cold_ms);
    }
    let warm_speedup = cold_maintain_ms / warm_maintain_ms.max(1e-9);
    record("maintain_cold_total", cold_maintain_ms, layer_threads);
    record("maintain_warm_total", warm_maintain_ms, layer_threads);
    eprintln!(
        "      maintain: {} batches × {maintain_edits} edits; {warm_batches} warm, \
         {replayed_total} rounds replayed from logs, {absorbed_total} net postings \
         absorbed; warm {warm_maintain_ms:.3} ms vs cold {cold_maintain_ms:.3} ms \
         ({warm_speedup:.2}x)",
        maintain_trace.batches.len(),
    );

    // --- durability: journal append, snapshot write, recovery vs rebuild
    // Three costs of the durable layer: (a) the per-batch write-ahead
    // journal tax — the fsync'd append itself, averaged over every batch
    // of the journaled reps from the histogram e2e-bench reads as
    // `journal.append_ms`; (b) one full engine snapshot write; (c) crash
    // recovery (latest snapshot + journal-suffix replay) vs a from-scratch
    // rebuild on the final graph, asserted bit-identical — the ratio feeds
    // the CI gate.
    use rwd_stream::{DurabilityConfig, OpenMode};
    let durability_root =
        std::env::temp_dir().join(format!("rwd-perf-durability-{}", std::process::id()));
    std::fs::remove_dir_all(&durability_root).ok();

    let appends = rwd_obs::global().histogram(
        "rwd_durable_journal_append_ns",
        "Wall time of one journal append including fsync (nanoseconds)",
    );
    let appends_before = (appends.count(), appends.sum());
    let mut journaled_apply_total = f64::INFINITY;
    // Each rep's engine takes one snapshot of its final epoch: a second
    // snapshot at the same epoch writes nothing, so it cannot be timed.
    let mut snapshot_write_ms = f64::INFINITY;
    let mut snapshot_epoch = 0;
    for rep in 0..reps {
        let dir = durability_root.join(format!("wal-{rep}"));
        let eng = StreamEngine::new(g.clone(), serve_cfg).expect("valid configuration");
        let mut durable = eng
            .create_durable(&dir, DurabilityConfig { snapshot_every: 0 })
            .expect("fresh data dir");
        let t0 = Instant::now();
        for b in &trace.batches {
            durable.apply(b).expect("trace batches are valid");
        }
        journaled_apply_total = journaled_apply_total.min(t0.elapsed().as_secs_f64() * 1e3);
        let t0 = Instant::now();
        snapshot_epoch = durable.snapshot_now().expect("snapshot writes");
        snapshot_write_ms = snapshot_write_ms.min(t0.elapsed().as_secs_f64() * 1e3);
    }
    // One append per journaled (non-empty) batch.
    let appended = (appends.count() - appends_before.0).max(1);
    let journal_append_per_batch =
        (appends.sum() - appends_before.1) as f64 / 1e6 / appended as f64;
    record("stream_apply_journaled_total", journaled_apply_total, cores);
    record("snapshot_write", snapshot_write_ms, 1);

    // A crash-shaped data dir, in the regime durability pays off in: a
    // sparse *weighted* graph at a long walk length. Rebuilding from
    // scratch re-samples every (src, layer) walk — L cumulative-weight
    // neighbor draws per walk, most of which revisit already-hit nodes and
    // add no posting — while recovery deserializes exactly the surviving
    // postings. The snapshot cadence divides the trace, so the crash lands
    // on a compaction boundary (empty journal suffix) — the steady state a
    // cadence-driven deployment crashes in; suffix-replay *exactness* is
    // the recovery proptests' job, and per-epoch replay cost is the stream
    // section's `incremental_refresh` line. Both sides run the same
    // single-thread engine config, so the ratio compares work done, not
    // scheduler luck (snapshot load honours the engine's thread budget).
    let durability_spec = TemporalTraceSpec {
        model: TraceModel::ErdosRenyi { mean_degree: 4.0 },
        nodes: scale.n,
        batches: scale.stream_batches,
        batch_edits: scale.stream_edits,
        delete_fraction: 0.5,
        seed: GRAPH_SEED,
    };
    let durability_l = 6 * scale.l;
    let durability_cfg = StreamConfig {
        l: durability_l,
        r: scale.r,
        k: scale.k,
        seed: WALK_SEED,
        rule: GainRule::HittingTime,
        threads: 1,
    };
    let durability_trace = temporal_trace(&durability_spec).expect("valid trace spec");
    let durability_wg =
        weighted_twin(&durability_trace.base, GRAPH_SEED).expect("valid weighted twin");
    let recovery_dir = durability_root.join("recover");
    let crash_cadence = (scale.stream_batches as u64 / 2).max(1);
    let (live_seeds, live_objective) = {
        let eng = StreamEngine::with_shards_weighted(durability_wg.clone(), durability_cfg, 1)
            .expect("valid configuration");
        let mut durable = eng
            .create_durable(
                &recovery_dir,
                DurabilityConfig {
                    snapshot_every: crash_cadence,
                },
            )
            .expect("fresh data dir");
        for b in &durability_trace.batches {
            durable.apply(b).expect("trace batches are valid");
        }
        (durable.seeds().to_vec(), durable.objective().to_bits())
    };
    let mut recovery_ms = f64::INFINITY;
    let mut recovered = None;
    for _ in 0..reps {
        // One live engine per data dir: the previous rep's engine lets go
        // of the directory before this rep's clock starts.
        drop(recovered.take());
        let t0 = Instant::now();
        let opened = StreamEngine::open_durable_with(
            &recovery_dir,
            DurabilityConfig::default(),
            OpenMode::Mapped,
        )
        .expect("recovers");
        recovery_ms = recovery_ms.min(t0.elapsed().as_secs_f64() * 1e3);
        recovered = Some(opened);
    }
    let (recovered, recovery_report) = recovered.expect("reps >= 1");
    assert!(
        recovery_report.torn_tail.is_none(),
        "clean shutdown misread as torn"
    );
    let final_graph = recovered.weighted_graph().expect("weighted engine").clone();
    let mut durability_rebuild_ms = f64::INFINITY;
    let mut cold = None;
    for _ in 0..reps {
        let t0 = Instant::now();
        let eng = StreamEngine::with_shards_weighted(final_graph.clone(), durability_cfg, 1)
            .expect("valid configuration");
        durability_rebuild_ms = durability_rebuild_ms.min(t0.elapsed().as_secs_f64() * 1e3);
        cold = Some(eng);
    }
    let cold = cold.expect("reps >= 1");
    assert_eq!(
        recovered.seeds(),
        cold.seeds(),
        "recovered seeds must equal a from-scratch rebuild"
    );
    assert_eq!(
        recovered.objective().to_bits(),
        cold.objective().to_bits(),
        "recovered objective must equal a from-scratch rebuild"
    );
    assert_eq!(
        recovered.seeds(),
        &live_seeds[..],
        "recovered seeds must equal the live engine's"
    );
    assert_eq!(
        recovered.objective().to_bits(),
        live_objective,
        "recovered objective must equal the live engine's"
    );
    let recovery_speedup = durability_rebuild_ms / recovery_ms.max(1e-9);
    record("recovery", recovery_ms, cores);
    record("recovery_cold_rebuild", durability_rebuild_ms, cores);
    eprintln!(
        "      durability: journal append {journal_append_per_batch:.3} ms/batch \
         (journaled apply {journaled_apply_total:.1} ms over {} batches); snapshot \
         write {snapshot_write_ms:.1} ms at epoch {snapshot_epoch}; recovery {recovery_ms:.1} ms (snapshot epoch {}, {} \
         epochs replayed) vs rebuild {durability_rebuild_ms:.1} ms \
         ({recovery_speedup:.2}x)",
        scale.stream_batches, recovery_report.snapshot_epoch, recovery_report.epochs_replayed,
    );
    drop(recovered);

    // --- open path: mmap open vs deserialize open vs rebuild -------------
    // How fast a saved index comes back. Three ways to the same bits
    // (asserted): `open_mapped` maps the RWDIDX4 file and validates the
    // CRC once — no per-posting parse; `load` streams and deserializes
    // every column to the heap; a rebuild re-samples every walk. The
    // mapped-vs-deserialize ratio feeds the CI gate; the heap/mapped byte
    // split plus the deserializer's transient peak is the RSS story the
    // storage tests assert (peak ≤ 1.25x the final index).
    let mapped_available = cfg!(unix) && cfg!(target_endian = "little");
    let open_dir = durability_root.join("open");
    std::fs::create_dir_all(&open_dir).expect("fresh open dir");
    let index_path = open_dir.join("index.rwdidx");
    idx.save(&index_path).expect("index snapshot writes");
    let index_file_bytes = std::fs::metadata(&index_path)
        .expect("snapshot exists")
        .len();

    let (deser_open_ms, (loaded, load_stats)) = time_ms(reps, || {
        WalkIndex::load_with_stats(&index_path, 0).expect("index snapshot loads")
    });
    assert_eq!(loaded, idx, "deserialize open drifted from the saved index");
    record("index_open_deserialize", deser_open_ms, cores);
    let load_peak_ratio =
        (idx.memory_bytes() + load_stats.transient_peak_bytes) as f64 / idx.memory_bytes() as f64;

    let (mapped_open_ms, mapped_heap, mapped_bytes) = if mapped_available {
        let (ms, mapped) = time_ms(reps, || {
            WalkIndex::open_mapped(&index_path).expect("index snapshot maps")
        });
        assert_eq!(mapped, idx, "mapped open drifted from the saved index");
        record("index_open_mapped", ms, 1);
        (ms, mapped.heap_bytes(), mapped.mapped_bytes())
    } else {
        (f64::NAN, 0, 0)
    };
    let mapped_vs_deserialize = deser_open_ms / mapped_open_ms.max(1e-9);
    let mapped_vs_rebuild = uw_all / mapped_open_ms.max(1e-9);

    // The restart drill end to end: a durable open in both modes on
    // the durability section's data dir, through the first answered point
    // query — time-to-first-answer after a process restart.
    let open_modes: &[(OpenMode, bool)] = &[
        (OpenMode::Mapped, mapped_available),
        (OpenMode::Deserialize, true),
    ];
    let mut engine_open_ms = [f64::NAN; 2];
    let mut ttfa_ms = [f64::NAN; 2];
    let mut first_bits: Option<(Vec<NodeId>, u64, u64)> = None;
    for (slot, &(mode, available)) in open_modes.iter().enumerate() {
        if !available {
            continue;
        }
        for _ in 0..reps {
            let t0 = Instant::now();
            let (eng, rep) =
                StreamEngine::open_durable_with(&recovery_dir, DurabilityConfig::default(), mode)
                    .expect("recovers");
            let opened = t0.elapsed().as_secs_f64() * 1e3;
            let snap = Snapshot::capture(&eng);
            let first = snap.hit_time(NodeId(0));
            let ttfa = t0.elapsed().as_secs_f64() * 1e3;
            assert!(first.is_finite() || first.is_infinite());
            assert!(rep.torn_tail.is_none(), "clean dir misread as torn");
            engine_open_ms[slot] = engine_open_ms[slot].min(opened);
            ttfa_ms[slot] = ttfa_ms[slot].min(ttfa);
            let bits = (
                eng.seeds().to_vec(),
                eng.objective().to_bits(),
                first.to_bits(),
            );
            match &first_bits {
                None => first_bits = Some(bits),
                Some(base) => assert_eq!(&bits, base, "{mode:?} open drifted"),
            }
        }
    }
    eprintln!(
        "      open: {index_file_bytes} B index; mapped {} ms vs deserialize \
         {deser_open_ms:.3} ms ({mapped_vs_deserialize:.1}x) vs rebuild {uw_all:.3} ms; \
         {mapped_bytes} B mapped + {mapped_heap} B heap after mapped open; deserialize \
         peak {load_peak_ratio:.3}x final; engine restart TTFA mapped {} ms vs \
         deserialize {:.1} ms",
        fmt_ms(mapped_open_ms),
        fmt_ms(ttfa_ms[0]),
        ttfa_ms[1],
    );
    std::fs::remove_dir_all(&durability_root).ok();

    let unix_secs = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map_or(0, |d| d.as_secs());

    let timing_lines: Vec<String> = timings
        .iter()
        .map(|t| {
            format!(
                "    \"{}\": {{ \"ms\": {}, \"threads\": {} }}",
                t.name,
                fmt_ms(t.ms),
                t.threads
            )
        })
        .collect();
    let touched_json: Vec<String> = touched.iter().map(|t| t.to_string()).collect();
    let join = |v: &[usize]| {
        v.iter()
            .map(|t| t.to_string())
            .collect::<Vec<_>>()
            .join(", ")
    };

    let stability_epoch_lines: Vec<String> = tracker
        .history()
        .iter()
        .skip(1)
        .map(|rec| {
            format!(
                "        {{ \"epoch\": {}, \"jaccard\": {}, \"seeds_swapped\": {}, \
                 \"objective\": {}, \"objective_drift\": {} }}",
                rec.epoch,
                fmt_ms(rec.jaccard),
                rec.seeds_swapped,
                fmt_ms(rec.objective),
                fmt_ms(rec.objective_drift)
            )
        })
        .collect();

    let shard_row_lines: Vec<String> = shard_rows
        .iter()
        .map(|r| {
            format!(
                "      {{ \"shards\": {}, \"batch_apply_ms_total\": {}, \
                 \"point_service_p50_us\": {}, \"point_service_p99_us\": {} }}",
                r.shards,
                fmt_ms(r.apply_ms),
                fmt_ms(r.p50_us),
                fmt_ms(r.p99_us)
            )
        })
        .collect();

    let json = format!(
        r#"{{
  "schema": "rwd-perf/10",
  "pr": 10,
  "unix_secs": {unix_secs},
  "available_parallelism": {cores},
  "scale": "{scale_name}",
  "graph": {{ "model": "{model}", "n": {n}, "m": {m}, "mdeg": {mdeg}, "seed": {gseed} }},
  "params": {{ "l": {l}, "r": {r}, "k": {k}, "walk_seed": {wseed}, "reps": {reps} }},
  "index": {{ "total_postings": {postings}, "memory_bytes": {mem}, "views": 2 }},
  "timings": {{
{timings}
  }},
  "speedups": {{
    "unweighted_build_all_vs_1t": {uw_speedup},
    "weighted_build_all_vs_1t": {w_speedup},
    "delta_vs_celf_greedy": {delta_speedup},
    "incremental_vs_rebuild": {stream_speedup}
  }},
  "greedy_evaluations": {celf_evals},
  "greedy_delta": {{
    "evaluations": {delta_evals},
    "touched_postings_per_round": [{touched}],
    "index_postings": {postings}
  }},
  "stream": {{
    "batches": {stream_batches},
    "edits_per_batch": {stream_edits},
    "touched_nodes_per_batch": [{stream_touched}],
    "groups_resampled_per_batch": [{stream_groups}],
    "groups_total": {groups_total},
    "max_touched_fraction": {max_touched},
    "batch_apply_ms_total": {apply_ms_s},
    "incremental_refresh_ms_total": {refresh_ms_s},
    "full_rebuild_ms_total": {rebuild_ms_s}
  }},
  "serve": {{
    "query_workers": {query_workers},
    "queries_total": {serve_queries},
    "point_queries": {point_queries},
    "set_queries": {other_queries},
    "batches_applied_concurrently": {batches_applied},
    "throughput_qps": {throughput_qps_s},
    "point_p50_us": {p50_us_s},
    "point_p99_us": {p99_us_s},
    "point_max_us": {max_us_s},
    "point_service_p99_us": {service_p99_us_s},
    "full_sweep_ms": {full_sweep_ms_s}
  }},
  "shard": {{
    "counts": [{shard_counts_s}],
    "trace_batches": {stream_batches},
    "rows": [
{shard_rows_s}
    ],
    "single_shard_point_service_p99_us": {shard_base_p99_s},
    "max_sharded_point_service_p99_us": {shard_worst_p99_s}
  }},
  "maintain": {{
    "trace_batches": {maintain_batches},
    "edits_per_batch": {maintain_edits},
    "k": {maintain_k},
    "warm_batches": {warm_batches},
    "replayed_rounds_total": {replayed_total},
    "absorbed_postings_total": {absorbed_total},
    "cold_maintain_ms_total": {cold_maintain_ms_s},
    "warm_maintain_ms_total": {warm_maintain_ms_s},
    "warm_vs_cold": {warm_speedup_s}
  }},
  "durability": {{
    "trace_batches": {stream_batches},
    "journaled_apply_ms_total": {journaled_apply_s},
    "journal_append_ms_per_batch": {journal_append_s},
    "snapshot_write_ms": {snapshot_write_s},
    "snapshot_epoch": {snapshot_epoch},
    "recovery_trace": {{ "model": "erdos_renyi_gnp", "n": {n}, "mean_degree": 4.0,
                        "weighted": true, "l": {durability_l}, "r": {r}, "threads": 1 }},
    "recovery_snapshot_epoch": {recovery_snap_epoch},
    "recovery_epochs_replayed": {recovery_replayed},
    "recovery_ms": {recovery_ms_s},
    "rebuild_ms": {durability_rebuild_s},
    "recovery_vs_rebuild": {recovery_speedup_s}
  }},
  "open": {{
    "mapped_available": {mapped_available},
    "index_file_bytes": {index_file_bytes},
    "index_memory_bytes": {mem},
    "mapped_open_ms": {mapped_open_s},
    "deserialize_open_ms": {deser_open_s},
    "rebuild_ms": {rebuild_open_s},
    "mapped_vs_deserialize": {mapped_vs_deser_s},
    "mapped_vs_rebuild": {mapped_vs_rebuild_s},
    "mapped_bytes_after_open": {mapped_bytes},
    "heap_bytes_after_open": {mapped_heap},
    "deserialize_transient_peak_bytes": {load_peak_bytes},
    "deserialize_peak_vs_final": {load_peak_ratio_s},
    "engine_open_mapped_ms": {engine_open_mapped_s},
    "engine_open_deserialize_ms": {engine_open_deser_s},
    "ttfa_mapped_ms": {ttfa_mapped_s},
    "ttfa_deserialize_ms": {ttfa_deser_s}
  }},
  "metrics": {{
    "probe_queries": {obs_queries},
    "point_p99_plain_us": {plain_p99_s},
    "point_p99_instrumented_us": {instr_p99_s},
    "instrumentation_overhead_ratio": {instr_ratio_s},
    "stability": {{
      "epochs": {stab_epochs},
      "mean_jaccard": {stab_mean_jac},
      "min_jaccard": {stab_min_jac},
      "total_seeds_swapped": {stab_swapped},
      "mean_abs_objective_drift": {stab_mean_drift},
      "max_abs_objective_drift": {stab_max_drift},
      "per_epoch": [
{stab_epoch_rows}
      ]
    }}
  }}
}}
"#,
        scale_name = scale.name,
        model = scale.model.json_name(),
        n = g.n(),
        m = g.m(),
        mdeg = scale.mdeg,
        gseed = GRAPH_SEED,
        l = scale.l,
        r = scale.r,
        k = scale.k,
        wseed = WALK_SEED,
        postings = idx.total_postings(),
        mem = idx.memory_bytes(),
        timings = timing_lines.join(",\n"),
        uw_speedup = fmt_ms(uw_1t / uw_all.max(1e-9)),
        w_speedup = fmt_ms(w_1t / w_all.max(1e-9)),
        delta_speedup = fmt_ms(celf_ms / delta_ms.max(1e-9)),
        stream_speedup = fmt_ms(rebuild_ms / refresh_ms.max(1e-9)),
        celf_evals = celf.evaluations,
        delta_evals = delta.evaluations,
        touched = touched_json.join(", "),
        stream_batches = scale.stream_batches,
        stream_edits = scale.stream_edits,
        stream_touched = join(&touched_per_batch),
        stream_groups = join(&groups_per_batch),
        max_touched = fmt_ms(max_touched_fraction),
        apply_ms_s = fmt_ms(apply_ms),
        refresh_ms_s = fmt_ms(refresh_ms),
        rebuild_ms_s = fmt_ms(rebuild_ms),
        point_queries = point_us.len(),
        throughput_qps_s = fmt_ms(throughput_qps),
        p50_us_s = fmt_ms(p50_us),
        p99_us_s = fmt_ms(p99_us),
        max_us_s = fmt_ms(max_us),
        service_p99_us_s = fmt_ms(service_p99_us),
        full_sweep_ms_s = fmt_ms(full_sweep_ms),
        shard_counts_s = join(&shard_counts),
        shard_rows_s = shard_row_lines.join(",\n"),
        shard_base_p99_s = fmt_ms(shard_base_p99),
        shard_worst_p99_s = fmt_ms(shard_worst_p99),
        maintain_batches = maintain_trace.batches.len(),
        maintain_k = maintain_cfg.k,
        cold_maintain_ms_s = fmt_ms(cold_maintain_ms),
        warm_maintain_ms_s = fmt_ms(warm_maintain_ms),
        warm_speedup_s = fmt_ms(warm_speedup),
        journaled_apply_s = fmt_ms(journaled_apply_total),
        journal_append_s = fmt_ms(journal_append_per_batch),
        snapshot_write_s = fmt_ms(snapshot_write_ms),
        recovery_snap_epoch = recovery_report.snapshot_epoch,
        recovery_replayed = recovery_report.epochs_replayed,
        recovery_ms_s = fmt_ms(recovery_ms),
        durability_rebuild_s = fmt_ms(durability_rebuild_ms),
        recovery_speedup_s = fmt_ms(recovery_speedup),
        mapped_open_s = json_num(mapped_open_ms),
        deser_open_s = fmt_ms(deser_open_ms),
        rebuild_open_s = fmt_ms(uw_all),
        mapped_vs_deser_s = json_num(mapped_vs_deserialize),
        mapped_vs_rebuild_s = json_num(mapped_vs_rebuild),
        load_peak_bytes = load_stats.transient_peak_bytes,
        load_peak_ratio_s = fmt_ms(load_peak_ratio),
        engine_open_mapped_s = json_num(engine_open_ms[0]),
        engine_open_deser_s = json_num(engine_open_ms[1]),
        ttfa_mapped_s = json_num(ttfa_ms[0]),
        ttfa_deser_s = json_num(ttfa_ms[1]),
        plain_p99_s = fmt_ms(plain_p99_us),
        instr_p99_s = fmt_ms(instr_p99_us),
        instr_ratio_s = fmt_ms(instrumentation_ratio),
        stab_epochs = stability.epochs,
        stab_mean_jac = fmt_ms(stability.mean_jaccard),
        stab_min_jac = fmt_ms(stability.min_jaccard),
        stab_swapped = stability.total_swapped,
        stab_mean_drift = fmt_ms(stability.mean_abs_objective_drift),
        stab_max_drift = fmt_ms(stability.max_abs_objective_drift),
        stab_epoch_rows = stability_epoch_lines.join(",\n"),
    );
    std::fs::write(&out_path, json).expect("write perf snapshot");
    eprintln!("perf: wrote {out_path}");
}
