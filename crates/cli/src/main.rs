//! `rwdom` — command-line interface for random-walk domination.
//!
//! ```text
//! rwdom gen      --model ba --nodes 1000 --degree 10 --seed 42 --out g.edges
//! rwdom stats    g.edges
//! rwdom select   g.edges --algo approx-f2 --k 30 --l 6 --r 100 [--eval]
//! rwdom eval     g.edges --nodes 5,17,99 --l 6 --r 500
//! rwdom cover    g.edges --alpha 0.9 --l 6 --r 100
//! rwdom stream   --model ba --nodes 2000 --batches 10 --batch-edits 20 --k 10
//! rwdom serve    --model ba --nodes 2000 --batches 5 --queries-per-batch 8
//! rwdom demo
//! ```
//!
//! Every subcommand is a thin veneer over the library crates; the CLI holds
//! no algorithmic logic of its own.

use std::collections::HashMap;
use std::process::ExitCode;

use rwd_core::algo::{ApproxGreedy, DpGreedy, SamplingGreedy};
use rwd_core::baselines;
use rwd_core::coverage::{min_nodes_for_coverage, CoverageParams};
use rwd_core::metrics::{self, MetricParams};
use rwd_core::problem::{Params, Problem, Selection};
use rwd_core::report::{fmt_f, fmt_secs, Table};
use rwd_graph::edgelist;
use rwd_graph::generators;
use rwd_graph::{CsrGraph, NodeId};

const USAGE: &str = "\
rwdom — random-walk domination in large graphs (ICDE 2014 reproduction)

USAGE:
  rwdom gen    --model <ba|gnm|gnp|ws|regular|powerlaw> --nodes <n> [model args] --out <file>
  rwdom stats  <edge-list>
  rwdom select <edge-list> --algo <algo> --k <k> [--l <L>] [--r <R>] [--seed <s>] [--eval]
  rwdom eval   <edge-list> --nodes <id,id,...> [--l <L>] [--r <R>]
  rwdom cover  <edge-list> --alpha <0..1] [--l <L>] [--r <R>] [--max-k <k>]
  rwdom stream --model <ba|er> --nodes <n> [--degree <d>] [--batches <B>]
               [--batch-edits <E>] [--delete-frac <f>] [--k <k>] [--l <L>]
               [--r <R>] [--seed <s>] [--problem <f1|f2>] [--shards <S>]
               [--weighted] [--verify] [--data-dir <dir>] [--snapshot-every <N>]
               [--metrics-every <N>] [--mmap]
  rwdom serve  --model <ba|er> --nodes <n> [stream flags] [--workers <W>]
               [--queries-per-batch <Q>] [--script <file>] [--shards <S>]
               [--data-dir <dir>] [--snapshot-every <N>] [--mmap]
  rwdom recover <data-dir> [--verify] [--mmap]
  rwdom index  info <path>
  rwdom demo

MODELS (gen):
  ba        --degree <m_attach>            Barabási–Albert
  gnm       --edges <m>                    uniform G(n, m)
  gnp       --p <prob>                     G(n, p)
  ws        --degree <k even> --beta <b>   Watts–Strogatz
  regular   --degree <d>                   random d-regular
  powerlaw  --edges <m> --gamma <g>        Chung–Lu power law

ALGORITHMS (select):
  approx-f1 approx-f2       Algorithm 6 (linear time; the paper's ApproxF1/F2)
  dp-f1 dp-f2               exact DP greedy (small graphs; DPF1/DPF2)
  sampling-f1 sampling-f2   §3.1 sampling greedy (medium graphs)
  degree dominate random pagerank          baselines

STREAM: drives a deterministic temporal edge trace through the evolving
  pipeline — per batch: graph edit, incremental walk-index refresh (only
  touched (src, layer) groups resampled), seed repair — and prints churn
  stats. --shards <S> tiles the R walk layers into S partial indexes over
  one graph (identical results, per-shard breakdown in the output; needs
  1 <= S <= R). --verify additionally rebuilds each shard's layer range
  from scratch every epoch and asserts the maintained index is
  bit-identical.

DURABILITY: --data-dir attaches a fresh data directory to the evolving
  engine — every batch is write-ahead journaled (fsync'd before any shard
  commits) and the whole engine is snapshotted every --snapshot-every
  non-empty batches (0 = journal only), compacting the journal. `rwdom
  recover <dir>` reloads the latest snapshot, replays the journal suffix
  (truncating a torn tail), and prints a recovery report; --verify
  additionally rebuilds the pipeline from scratch on the recovered graph
  and asserts the recovered state is bit-identical.

SERVE: starts the online query server over the evolving engine and drives
  a request trace through it, printing one row per request with its epoch
  provenance, queue wait, and service time. The trace comes from --script
  (lines: `batch`, `hit_time <v>`, `hit_prob <v>`, `coverage`, `top <m>`,
  `seeds`, `metrics`; `#` comments) or is generated: each churn batch
  followed by --queries-per-batch point queries. Queries are answered from
  pinned snapshots in O(postings), never a full sweep. `metrics` returns a
  point-in-time Prometheus-text snapshot of the server's per-endpoint
  histograms plus the process-wide engine metrics (printed after the
  request table).

STORAGE: walk indexes are saved in the 8-byte-aligned RWDIDX4 format, the
  only one this build reads (files in the retired RWDIDX1/2/3 layouts are
  refused by name); its posting columns can be served zero-copy straight
  from an mmap'd file. `rwdom recover --mmap` (and `serve`/`stream` with
  --data-dir and --mmap) opens shard indexes mapped: a header walk plus
  one CRC pass, no per-posting deserialize — bitwise identical answers
  either way. `rwdom index info <path>` prints a file's format version,
  dimensions, layer range, posting count, section alignment, and CRC
  status without constructing the index.

OBSERVABILITY: rwdom stream --metrics-every <N> prints the process-wide
  metrics registry (per-phase batch timings, churn counters, durability
  I/O) as a table every N batches, plus an end-of-trace seed-stability
  report (per-epoch Jaccard overlap, seeds swapped, objective drift).
";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("error: {msg}\n\n{USAGE}");
            ExitCode::FAILURE
        }
    }
}

/// Splits `args` into positional arguments and `--flag value` pairs.
fn parse(args: &[String]) -> Result<(Vec<String>, HashMap<String, String>), String> {
    let mut positional = Vec::new();
    let mut flags = HashMap::new();
    let mut it = args.iter().peekable();
    while let Some(a) = it.next() {
        if let Some(name) = a.strip_prefix("--") {
            // Boolean flags take no value; detect by peeking.
            let is_bool = matches!(name, "eval" | "connected" | "weighted" | "verify" | "mmap");
            if is_bool {
                flags.insert(name.to_string(), "true".to_string());
            } else {
                let v = it
                    .next()
                    .ok_or_else(|| format!("flag --{name} needs a value"))?;
                flags.insert(name.to_string(), v.clone());
            }
        } else {
            positional.push(a.clone());
        }
    }
    Ok((positional, flags))
}

fn get<T: std::str::FromStr>(
    flags: &HashMap<String, String>,
    name: &str,
    default: Option<T>,
) -> Result<T, String> {
    match flags.get(name) {
        Some(v) => v
            .parse::<T>()
            .map_err(|_| format!("flag --{name}: cannot parse `{v}`")),
        None => default.ok_or_else(|| format!("missing required flag --{name}")),
    }
}

fn run(args: &[String]) -> Result<(), String> {
    let Some(cmd) = args.first() else {
        return Err("no subcommand given".into());
    };
    let rest = &args[1..];
    match cmd.as_str() {
        "gen" => cmd_gen(rest),
        "stats" => cmd_stats(rest),
        "select" => cmd_select(rest),
        "eval" => cmd_eval(rest),
        "cover" => cmd_cover(rest),
        "stream" => cmd_stream(rest),
        "serve" => cmd_serve(rest),
        "recover" => cmd_recover(rest),
        "index" => cmd_index(rest),
        "demo" => cmd_demo(),
        "help" | "--help" | "-h" => {
            println!("{USAGE}");
            Ok(())
        }
        other => Err(format!("unknown subcommand `{other}`")),
    }
}

fn load(path: &str) -> Result<CsrGraph, String> {
    let loaded = edgelist::read_edge_list(path).map_err(|e| e.to_string())?;
    Ok(loaded.graph)
}

fn cmd_gen(args: &[String]) -> Result<(), String> {
    let (_, flags) = parse(args)?;
    let model: String = get(&flags, "model", None)?;
    let n: usize = get(&flags, "nodes", None)?;
    let seed: u64 = get(&flags, "seed", Some(42))?;
    let out: String = get(&flags, "out", None)?;

    let g = match model.as_str() {
        "ba" => {
            let d: usize = get(&flags, "degree", Some(4))?;
            generators::barabasi_albert(n, d, seed)
        }
        "gnm" => {
            let m: usize = get(&flags, "edges", None)?;
            generators::erdos_renyi_gnm(n, m, seed)
        }
        "gnp" => {
            let p: f64 = get(&flags, "p", None)?;
            generators::erdos_renyi_gnp(n, p, seed)
        }
        "ws" => {
            let d: usize = get(&flags, "degree", Some(4))?;
            let beta: f64 = get(&flags, "beta", Some(0.2))?;
            generators::watts_strogatz(n, d, beta, seed)
        }
        "regular" => {
            let d: usize = get(&flags, "degree", Some(4))?;
            generators::random_regular(n, d, seed)
        }
        "powerlaw" => {
            let m: usize = get(&flags, "edges", None)?;
            let gamma: f64 = get(&flags, "gamma", Some(2.3))?;
            generators::power_law_cl(n, m, gamma, seed)
        }
        other => return Err(format!("unknown model `{other}`")),
    }
    .map_err(|e| e.to_string())?;

    edgelist::write_edge_list(&g, &out).map_err(|e| e.to_string())?;
    println!("wrote {} (n = {}, m = {})", out, g.n(), g.m());
    Ok(())
}

fn cmd_stats(args: &[String]) -> Result<(), String> {
    let (pos, _) = parse(args)?;
    let path = pos.first().ok_or("stats needs an edge-list path")?;
    let g = load(path)?;
    let s = rwd_graph::stats::degree_stats(&g);
    let comps = rwd_graph::traversal::connected_components(&g);
    let mut t = Table::new(["property", "value"]);
    t.row(["nodes", &g.n().to_string()]);
    t.row(["edges", &g.m().to_string()]);
    t.row(["min degree", &s.min.to_string()]);
    t.row(["median degree", &s.median.to_string()]);
    t.row(["mean degree", &fmt_f(s.mean, 2)]);
    t.row(["max degree", &s.max.to_string()]);
    t.row(["components", &comps.count.to_string()]);
    t.row([
        "largest component",
        &comps.sizes.iter().max().copied().unwrap_or(0).to_string(),
    ]);
    if g.n() <= 100_000 {
        t.row([
            "clustering",
            &fmt_f(rwd_graph::stats::global_clustering(&g), 4),
        ]);
    }
    println!("{}", t.render());
    Ok(())
}

fn cmd_select(args: &[String]) -> Result<(), String> {
    let (pos, flags) = parse(args)?;
    let path = pos.first().ok_or("select needs an edge-list path")?;
    let g = load(path)?;
    let algo: String = get(&flags, "algo", None)?;
    let params = Params {
        k: get(&flags, "k", None)?,
        l: get(&flags, "l", Some(6))?,
        r: get(&flags, "r", Some(100))?,
        seed: get(&flags, "seed", Some(0))?,
        ..Params::default()
    };

    let sel: Selection = match algo.as_str() {
        "approx-f1" => ApproxGreedy::new(Problem::MinHittingTime, params).run(&g),
        "approx-f2" => ApproxGreedy::new(Problem::MaxCoverage, params).run(&g),
        "dp-f1" => DpGreedy::new(Problem::MinHittingTime, params).run(&g),
        "dp-f2" => DpGreedy::new(Problem::MaxCoverage, params).run(&g),
        "sampling-f1" => SamplingGreedy::new(Problem::MinHittingTime, params).run(&g),
        "sampling-f2" => SamplingGreedy::new(Problem::MaxCoverage, params).run(&g),
        "degree" => baselines::degree_top_k(&g, params.k),
        "dominate" => baselines::dominate_greedy(&g, params.k),
        "random" => baselines::random_k(&g, params.k, params.seed),
        "pagerank" => baselines::pagerank_top_k(&g, params.k),
        other => return Err(format!("unknown algorithm `{other}`")),
    }
    .map_err(|e| e.to_string())?;

    println!(
        "# {} selected {} nodes in {}s",
        sel.algorithm,
        sel.nodes.len(),
        fmt_secs(sel.elapsed)
    );
    let ids: Vec<String> = sel.nodes.iter().map(|u| u.to_string()).collect();
    println!("{}", ids.join(","));

    if flags.contains_key("eval") {
        let m = metrics::evaluate(
            &g,
            &sel.nodes,
            MetricParams {
                l: params.l,
                r: 500,
                seed: params.seed ^ 0xE7A1,
            },
        );
        println!("# AHT = {} EHN = {}", fmt_f(m.aht, 4), fmt_f(m.ehn, 2));
    }
    Ok(())
}

fn cmd_eval(args: &[String]) -> Result<(), String> {
    let (pos, flags) = parse(args)?;
    let path = pos.first().ok_or("eval needs an edge-list path")?;
    let g = load(path)?;
    let nodes_arg: String = get(&flags, "nodes", None)?;
    let nodes: Vec<NodeId> = nodes_arg
        .split(',')
        .map(|tok| {
            tok.trim()
                .parse::<u32>()
                .map(NodeId)
                .map_err(|_| format!("bad node id `{tok}`"))
        })
        .collect::<Result<_, _>>()?;
    for u in &nodes {
        g.check_node(*u).map_err(|e| e.to_string())?;
    }
    let l: u32 = get(&flags, "l", Some(6))?;
    let r: usize = get(&flags, "r", Some(500))?;
    let m = metrics::evaluate(&g, &nodes, MetricParams { l, r, seed: 0xE7A1 });
    println!("AHT = {} (lower better)", fmt_f(m.aht, 4));
    println!(
        "EHN = {} of {} nodes (higher better)",
        fmt_f(m.ehn, 2),
        g.n()
    );
    Ok(())
}

fn cmd_cover(args: &[String]) -> Result<(), String> {
    let (pos, flags) = parse(args)?;
    let path = pos.first().ok_or("cover needs an edge-list path")?;
    let g = load(path)?;
    let p = CoverageParams {
        alpha: get(&flags, "alpha", Some(0.9))?,
        l: get(&flags, "l", Some(6))?,
        r: get(&flags, "r", Some(100))?,
        seed: get(&flags, "seed", Some(0))?,
        max_k: get(&flags, "max-k", Some(0))?,
        threads: 0,
    };
    let res = min_nodes_for_coverage(&g, p).map_err(|e| e.to_string())?;
    println!(
        "target {} nodes ({}% of {}): {} — {} selections, achieved {}",
        fmt_f(res.target, 1),
        fmt_f(p.alpha * 100.0, 0),
        g.n(),
        if res.reached {
            "REACHED"
        } else {
            "NOT reached"
        },
        res.k(),
        fmt_f(res.achieved(), 1)
    );
    let ids: Vec<String> = res.nodes.iter().map(|u| u.to_string()).collect();
    println!("{}", ids.join(","));
    Ok(())
}

/// The evolving-pipeline setup shared by `stream` and `serve`: a temporal
/// trace spec plus an engine configuration, parsed from the same flags.
struct StreamSetup {
    model_name: String,
    spec: rwd_datasets::temporal::TemporalTraceSpec,
    cfg: rwd_stream::StreamConfig,
    problem: String,
    weighted: bool,
    shards: usize,
    /// `--data-dir`: attach a durability data directory (write-ahead
    /// journal + snapshots) to the engine.
    data_dir: Option<String>,
    dcfg: rwd_stream::DurabilityConfig,
}

fn parse_stream_setup(
    cmd: &str,
    pos: &[String],
    flags: &HashMap<String, String>,
) -> Result<StreamSetup, String> {
    use rwd_core::greedy::approx::GainRule;
    use rwd_datasets::temporal::{TemporalTraceSpec, TraceModel};
    use rwd_stream::StreamConfig;

    if let Some(extra) = pos.first() {
        return Err(format!(
            "{cmd} takes no positional arguments (got `{extra}`); it \
             generates its own temporal trace — use --model/--nodes/--seed"
        ));
    }
    let model_name: String = get(flags, "model", Some("ba".to_string()))?;
    let nodes: usize = get(flags, "nodes", Some(2_000))?;
    let model = match model_name.as_str() {
        "ba" => TraceModel::BarabasiAlbert {
            mdeg: get(flags, "degree", Some(4))?,
        },
        "er" => TraceModel::ErdosRenyi {
            mean_degree: get(flags, "degree", Some(8.0))?,
        },
        other => return Err(format!("unknown {cmd} model `{other}` (ba|er)")),
    };
    let seed: u64 = get(flags, "seed", Some(42))?;
    let spec = TemporalTraceSpec {
        model,
        nodes,
        batches: get(flags, "batches", Some(10))?,
        batch_edits: get(flags, "batch-edits", Some(20))?,
        delete_fraction: get(flags, "delete-frac", Some(0.5))?,
        seed,
    };
    let problem: String = get(flags, "problem", Some("f1".to_string()))?;
    let rule = match problem.as_str() {
        "f1" => GainRule::HittingTime,
        "f2" => GainRule::Coverage,
        other => return Err(format!("unknown problem `{other}` (f1|f2)")),
    };
    let cfg = StreamConfig {
        l: get(flags, "l", Some(6))?,
        r: get(flags, "r", Some(16))?,
        k: get(flags, "k", Some(10))?,
        seed: seed ^ 0x5EED,
        rule,
        threads: 0,
    };
    // Validated by the engine constructors, which reject 0 and > R with a
    // named `InvalidShardCount` error — never clamped here.
    let shards: usize = get(flags, "shards", Some(1))?;
    let data_dir = flags.get("data-dir").cloned();
    let snapshot_every: u64 = get(flags, "snapshot-every", Some(4))?;
    if data_dir.is_none() && flags.contains_key("snapshot-every") {
        return Err("--snapshot-every needs --data-dir".into());
    }
    if data_dir.is_none() && flags.contains_key("mmap") {
        return Err("--mmap needs --data-dir (it reopens the written snapshot zero-copy)".into());
    }
    Ok(StreamSetup {
        model_name,
        spec,
        cfg,
        problem,
        weighted: flags.contains_key("weighted"),
        shards,
        data_dir,
        dcfg: rwd_stream::DurabilityConfig { snapshot_every },
    })
}

/// Renders the process-wide metrics registry as a table: one row per
/// counter/gauge sample with its value, one row per histogram series with
/// count and log-bucket percentiles. Built by parsing the registry's own
/// Prometheus exposition — the table shows exactly what a scraper sees.
fn metrics_table() -> String {
    use rwd_obs::text;
    let rendered = rwd_obs::global().render();
    let samples = match text::parse(&rendered) {
        Ok(s) => s,
        Err(e) => return format!("# unparseable metrics exposition: {e}"),
    };
    let mut t = Table::new(["metric", "count", "p50", "p99", "value/sum"]);
    let series = |s: &text::Sample| -> String {
        let labels: Vec<String> = s
            .labels
            .iter()
            .filter(|(k, _)| k != "le")
            .map(|(k, v)| format!("{k}={v}"))
            .collect();
        if labels.is_empty() {
            s.name.clone()
        } else {
            format!("{}{{{}}}", s.name, labels.join(","))
        }
    };
    for s in &samples {
        if s.name.ends_with("_bucket") || s.name.ends_with("_sum") {
            continue;
        }
        if let Some(hist) = s.name.strip_suffix("_count") {
            let labels: Vec<(&str, &str)> = s
                .labels
                .iter()
                .map(|(k, v)| (k.as_str(), v.as_str()))
                .collect();
            let snap = text::histogram_snapshot(&samples, hist, &labels)
                .expect("count row implies a decodable histogram");
            t.row([
                series(s).replacen("_count", "", 1),
                snap.count().to_string(),
                fmt_f(snap.quantile(0.50), 0),
                fmt_f(snap.quantile(0.99), 0),
                snap.sum.to_string(),
            ]);
        } else {
            t.row([
                series(s),
                String::new(),
                String::new(),
                String::new(),
                fmt_f(s.value, 0),
            ]);
        }
    }
    t.render()
}

/// Starts the engine `stream` and `serve` drive over `base`: its weighted
/// twin under `--weighted`, `--shards` partial indexes, and bound to
/// `--data-dir` (base snapshot plus write-ahead journal) when given.
fn start_engine(
    setup: &StreamSetup,
    base: &rwd_graph::CsrGraph,
) -> Result<rwd_stream::StreamEngine, String> {
    use rwd_stream::StreamEngine;

    let engine = if setup.weighted {
        let wbase =
            rwd_graph::weighted::weighted_twin(base, setup.spec.seed).map_err(|e| e.to_string())?;
        StreamEngine::with_shards_weighted(wbase, setup.cfg, setup.shards)
    } else {
        StreamEngine::with_shards(base.clone(), setup.cfg, setup.shards)
    }
    .map_err(|e| e.to_string())?;
    match &setup.data_dir {
        Some(dir) => engine
            .create_durable(dir, setup.dcfg)
            .map_err(|e| e.to_string()),
        None => Ok(engine),
    }
}

/// Drives a deterministic temporal edge trace through the evolving
/// pipeline and prints per-batch churn statistics.
fn cmd_stream(args: &[String]) -> Result<(), String> {
    use rwd_datasets::temporal::temporal_trace;
    use rwd_stream::EpochGraph;

    let (pos, flags) = parse(args)?;
    let setup = parse_stream_setup("stream", &pos, &flags)?;
    let StreamSetup {
        ref model_name,
        spec,
        cfg,
        ref problem,
        weighted,
        shards,
        ref data_dir,
        dcfg,
    } = setup;
    let verify = flags.contains_key("verify");
    let metrics_every: u64 = get(&flags, "metrics-every", Some(0))?;

    let trace = temporal_trace(&spec).map_err(|e| e.to_string())?;
    println!(
        "# stream: model={model_name} n={} m0={} batches={} edits/batch={} \
         problem={problem} k={} l={} r={} shards={shards}{}",
        trace.base.n(),
        trace.base.m(),
        spec.batches,
        spec.batch_edits,
        cfg.k,
        cfg.l,
        cfg.r,
        if weighted { " weighted" } else { "" },
    );

    let mut engine = start_engine(&setup, &trace.base)?;

    let groups_total = trace.base.n() * cfg.r;
    let mut t = Table::new([
        "epoch",
        "+e",
        "-e",
        "touched",
        "groups",
        "groups%",
        "postings",
        "swaps",
        "kept",
        "objective",
        "refresh ms",
        "maint ms",
        "warm",
        "replayed",
    ]);
    // Per-shard refresh breakdown, one row per (epoch, shard); rendered
    // after the churn table when running more than one shard.
    let mut st = Table::new([
        "epoch",
        "shard",
        "layers",
        "groups",
        "postings",
        "refresh ms",
    ]);
    // End-of-trace stability accounting (the ROADMAP "answer-stability"
    // metrics), accumulated from each batch's MaintainReport.
    let mut kept_hist: std::collections::BTreeMap<usize, usize> = std::collections::BTreeMap::new();
    let mut total_swapped = 0usize;
    let mut warm_batches = 0usize;
    let mut replayed_total = 0usize;
    let (mut refresh_ms_total, mut maintain_ms_total) = (0.0f64, 0.0f64);
    let initial_objective = engine.objective();
    let mut prev_objective = initial_objective;
    let mut max_step = 0.0f64;
    let mut tracker = (metrics_every > 0).then(|| {
        let mut tr = rwd_obs::EpochStabilityTracker::new();
        let seeds: Vec<u32> = engine.seeds().iter().map(|s| s.raw()).collect();
        tr.observe(0, &seeds, initial_objective, None);
        tr
    });
    for (bi, batch) in trace.batches.iter().enumerate() {
        let rep = engine.apply(batch).map_err(|e| e.to_string())?;
        if let Some(tr) = &mut tracker {
            let seeds: Vec<u32> = engine.seeds().iter().map(|s| s.raw()).collect();
            tr.observe(rep.epoch, &seeds, rep.maintain.objective, None);
        }
        if metrics_every > 0 && (bi as u64 + 1).is_multiple_of(metrics_every) {
            println!("# metrics after batch {}", bi + 1);
            println!("{}", metrics_table());
        }
        *kept_hist.entry(rep.maintain.rounds_kept).or_insert(0) += 1;
        total_swapped += rep.maintain.seeds_swapped;
        warm_batches += rep.maintain.warm as usize;
        replayed_total += rep.maintain.replayed_rounds;
        refresh_ms_total += rep.refresh_ms();
        maintain_ms_total += rep.maintain_ms;
        max_step = max_step.max((rep.maintain.objective - prev_objective).abs());
        prev_objective = rep.maintain.objective;
        t.row([
            rep.epoch.to_string(),
            rep.insertions.to_string(),
            rep.deletions.to_string(),
            rep.touched_nodes.to_string(),
            rep.refresh.groups_resampled.to_string(),
            fmt_f(rep.resampled_fraction() * 100.0, 2),
            rep.refresh.postings_rewritten().to_string(),
            rep.maintain.seeds_swapped.to_string(),
            rep.maintain.rounds_kept.to_string(),
            fmt_f(rep.maintain.objective, 2),
            fmt_f(rep.refresh_ms(), 2),
            fmt_f(rep.maintain_ms, 2),
            if rep.maintain.warm { "yes" } else { "cold" }.to_string(),
            rep.maintain.replayed_rounds.to_string(),
        ]);
        for row in &rep.shards {
            st.row([
                rep.epoch.to_string(),
                row.shard.to_string(),
                format!("[{}, {})", row.layers.start(), row.layers.end()),
                row.refresh.groups_resampled.to_string(),
                row.refresh.postings_rewritten().to_string(),
                fmt_f(row.refresh_ms, 2),
            ]);
        }
        if verify {
            // Rebuild each shard's layer range from scratch on the current
            // graph; the maintained partial indexes must match bitwise.
            // (With shards = 1 this is the historical full-index check.)
            let rebuilt = match engine.graph_shared() {
                EpochGraph::Unweighted(g) => rebuild_shards(&*g, &engine),
                EpochGraph::Weighted(g) => rebuild_shards(&*g, &engine),
            };
            if engine.shard_indexes().into_iter().ne(&rebuilt) {
                return Err(format!(
                    "epoch {}: maintained index diverged from a rebuild",
                    rep.epoch
                ));
            }
        }
    }
    println!("{}", t.render());
    if shards > 1 {
        println!("# per-shard refresh breakdown");
        println!("{}", st.render());
    }
    if let Some(dir) = data_dir {
        println!(
            "# durability: journaled {} batches to {dir} (snapshot every {} batches)",
            spec.batches, dcfg.snapshot_every,
        );
    }
    let life = engine.lifetime_stats();
    println!(
        "# lifetime: {} of {} group-epochs resampled ({}%), {} postings rewritten{}",
        life.groups_resampled,
        groups_total * spec.batches,
        fmt_f(
            100.0 * life.groups_resampled as f64 / (groups_total * spec.batches).max(1) as f64,
            2
        ),
        life.postings_rewritten(),
        if verify {
            " — every epoch verified bit-identical to a rebuild"
        } else {
            ""
        },
    );
    println!(
        "# time split: refresh {} ms, maintain {} ms over {} batches ({}/{} warm, {} rounds replayed from logs)",
        fmt_f(refresh_ms_total, 2),
        fmt_f(maintain_ms_total, 2),
        spec.batches,
        warm_batches,
        spec.batches,
        replayed_total,
    );
    let hist: Vec<String> = kept_hist
        .iter()
        .rev()
        .map(|(kept, batches)| format!("{kept}:{batches}"))
        .collect();
    println!(
        "# stability: kept-prefix histogram [{}] (kept:batches, k = {}), {} seeds swapped in total, \
         objective drift {} (bootstrap {} -> final {}, max batch step {})",
        hist.join(" "),
        cfg.k,
        total_swapped,
        fmt_f(prev_objective - initial_objective, 2),
        fmt_f(initial_objective, 2),
        fmt_f(prev_objective, 2),
        fmt_f(max_step, 2),
    );
    if let Some(tr) = &tracker {
        let mut st = Table::new(["epoch", "jaccard", "swapped", "objective", "drift"]);
        for rec in tr.history().iter().skip(1) {
            st.row([
                rec.epoch.to_string(),
                fmt_f(rec.jaccard, 3),
                rec.seeds_swapped.to_string(),
                fmt_f(rec.objective, 2),
                fmt_f(rec.objective_drift, 3),
            ]);
        }
        println!("# per-epoch answer stability (seed-set Jaccard vs previous epoch)");
        println!("{}", st.render());
        let sum = tr.summary();
        println!(
            "# stability summary: {} epochs, Jaccard mean {} min {}, {} seeds swapped, \
             |objective drift| mean {} max {}",
            sum.epochs,
            fmt_f(sum.mean_jaccard, 3),
            fmt_f(sum.min_jaccard, 3),
            sum.total_swapped,
            fmt_f(sum.mean_abs_objective_drift, 3),
            fmt_f(sum.max_abs_objective_drift, 3),
        );
    }
    let ids: Vec<String> = engine.seeds().iter().map(|u| u.to_string()).collect();
    println!("# final seeds: {}", ids.join(","));

    if let (true, Some(dir)) = (flags.contains_key("mmap"), data_dir) {
        // Snapshot the final state, drop the live engine, and reopen the
        // data dir zero-copy: the mapped engine must answer identically.
        use rwd_stream::{OpenMode, StreamEngine};
        let snap_epoch = engine.snapshot_now().map_err(|e| e.to_string())?;
        let live_seeds: Vec<NodeId> = engine.seeds().to_vec();
        let live_objective = engine.objective();
        drop(engine);
        let started = std::time::Instant::now();
        let (reopened, report) = StreamEngine::open_durable_with(dir, dcfg, OpenMode::Mapped)
            .map_err(|e| e.to_string())?;
        let open_ms = started.elapsed().as_secs_f64() * 1e3;
        if reopened.seeds() != live_seeds
            || reopened.objective().to_bits() != live_objective.to_bits()
        {
            return Err("mmap reopen diverged from the live engine".into());
        }
        println!(
            "# mmap reopen: snapshot epoch {snap_epoch} back in {} ms — {} bytes served \
             from the mapped file, {} on heap; seeds and objective bit-identical",
            fmt_f(open_ms, 2),
            report.mapped_bytes,
            report.heap_bytes,
        );
    }
    Ok(())
}

/// Rebuilds every shard of `engine` from scratch on `g` (the engine's
/// current graph): each layer range with the engine's walk length and
/// seed — the cold reference `--verify` holds maintained state to.
fn rebuild_shards<G: rwd_walks::WalkGraph>(
    g: &G,
    engine: &rwd_stream::StreamEngine,
) -> Vec<rwd_walks::WalkIndex> {
    let cfg = engine.config();
    engine
        .shard_ranges()
        .into_iter()
        .map(|rg| rwd_walks::WalkIndex::build_layer_range(g, cfg.l, rg, cfg.seed, cfg.threads))
        .collect()
}

/// Recovers an engine from a `--data-dir` and prints the recovery report;
/// `--verify` additionally rebuilds the whole pipeline from scratch on the
/// recovered graph and asserts the recovered state is bit-identical.
fn cmd_recover(args: &[String]) -> Result<(), String> {
    use rwd_stream::{DurabilityConfig, EpochGraph, OpenMode, SeedMaintainer, StreamEngine};

    let (pos, flags) = parse(args)?;
    let dir = pos.first().ok_or("recover needs a data-dir path")?;
    let verify = flags.contains_key("verify");
    let mode = if flags.contains_key("mmap") {
        OpenMode::Mapped
    } else {
        OpenMode::Deserialize
    };

    let (engine, report) = StreamEngine::open_durable_with(dir, DurabilityConfig::default(), mode)
        .map_err(|e| e.to_string())?;
    let recovery_ms = report.snapshot_load_ms + report.replay_ms;

    let mut t = Table::new(["property", "value"]);
    t.row(["data dir", dir]);
    t.row([
        "open mode",
        match mode {
            OpenMode::Mapped => "mmap (zero-copy shard indexes)",
            OpenMode::Deserialize => "deserialize (heap-owned shard indexes)",
        },
    ]);
    t.row(["snapshot epoch", &report.snapshot_epoch.to_string()]);
    t.row(["epochs replayed", &report.epochs_replayed.to_string()]);
    t.row(["recovered epoch", &report.recovered_epoch.to_string()]);
    t.row([
        "torn tail",
        report
            .torn_tail
            .as_deref()
            .unwrap_or("none (clean boundary)"),
    ]);
    t.row(["snapshot load ms", &fmt_f(report.snapshot_load_ms, 2)]);
    t.row(["journal replay ms", &fmt_f(report.replay_ms, 2)]);
    t.row(["recovery ms", &fmt_f(recovery_ms, 2)]);
    t.row(["index heap bytes", &report.heap_bytes.to_string()]);
    t.row(["index mapped bytes", &report.mapped_bytes.to_string()]);
    t.row(["nodes", &engine.graph_shared().n().to_string()]);
    t.row(["seeds", &engine.seeds().len().to_string()]);
    t.row(["objective", &fmt_f(engine.objective(), 4)]);
    println!("{}", t.render());

    if verify {
        // From-scratch rebuild on the recovered graph: by the determinism
        // contract the cold pipeline must land on the recovered state bit
        // for bit — index columns, seeds, and objective alike.
        let cfg = *engine.config();
        let started = std::time::Instant::now();
        let cold_shards = match engine.graph_shared() {
            EpochGraph::Unweighted(g) => rebuild_shards(&*g, &engine),
            EpochGraph::Weighted(g) => rebuild_shards(&*g, &engine),
        };
        let mut cold = SeedMaintainer::new(cfg.rule, cfg.k, cfg.threads);
        cold.maintain_sharded(&cold_shards.iter().collect::<Vec<_>>());
        let rebuild_ms = started.elapsed().as_secs_f64() * 1e3;

        if engine.seeds() != cold.seeds() {
            return Err("verify failed: recovered seeds differ from a from-scratch rebuild".into());
        }
        if engine.objective().to_bits() != cold.objective().to_bits() {
            return Err(
                "verify failed: recovered objective differs from a from-scratch rebuild".into(),
            );
        }
        if engine.shard_indexes().into_iter().ne(&cold_shards) {
            return Err(
                "verify failed: a recovered shard index differs from a from-scratch rebuild".into(),
            );
        }
        println!(
            "# verify: recovered state is bit-identical to a from-scratch rebuild \
             (recovery {} ms vs rebuild {} ms, {}x)",
            fmt_f(recovery_ms, 2),
            fmt_f(rebuild_ms, 2),
            fmt_f(rebuild_ms / recovery_ms.max(1e-9), 1),
        );
    }
    Ok(())
}

/// `rwdom index info <path>`: report an index file's header and section
/// facts (format version, dimensions, layer range, postings, alignment,
/// CRC status) without constructing the index — a header/section walk
/// plus one streamed checksum pass, O(R) memory.
fn cmd_index(args: &[String]) -> Result<(), String> {
    let (pos, _) = parse(args)?;
    match pos.first().map(String::as_str) {
        Some("info") => {}
        Some(other) => return Err(format!("unknown index subcommand `{other}` (try `info`)")),
        None => return Err("index needs a subcommand: rwdom index info <path>".into()),
    }
    let path = pos.get(1).ok_or("index info needs an index-file path")?;
    let info = rwd_walks::inspect_index_file(path).map_err(|e| e.to_string())?;
    let mut t = Table::new(["property", "value"]);
    t.row(["file", path]);
    t.row(["format", &format!("RWDIDX{}", info.version)]);
    t.row(["nodes (n)", &info.n.to_string()]);
    t.row(["walk length (L)", &info.l.to_string()]);
    t.row(["layers (R)", &info.layer_count.to_string()]);
    t.row([
        "layer range",
        &format!(
            "[{}, {}){}",
            info.layer_base,
            info.layer_base + info.layer_count,
            if info.layer_base == 0 {
                " (monolithic)"
            } else {
                " (shard)"
            }
        ),
    ]);
    t.row(["seed", &info.seed.to_string()]);
    t.row(["postings", &info.total_postings.to_string()]);
    t.row([
        "section align",
        &format!("{} bytes (zero-copy openable)", info.section_align),
    ]);
    t.row(["file bytes", &info.file_bytes.to_string()]);
    t.row([
        "crc",
        if info.crc_ok {
            "ok"
        } else {
            "MISMATCH (content is damaged)"
        },
    ]);
    println!("{}", t.render());
    Ok(())
}

/// One parsed request of a serve script.
enum ServeRequest {
    Batch,
    Query(rwd_serve::Query),
}

/// Parses a request script: one request per line (`#` comments, blank
/// lines ignored).
fn parse_serve_script(text: &str, n: usize) -> Result<Vec<ServeRequest>, String> {
    let node = |tok: Option<&str>, line: &str| -> Result<NodeId, String> {
        let raw: u32 = tok
            .ok_or_else(|| format!("`{line}`: missing node id"))?
            .parse()
            .map_err(|_| format!("`{line}`: bad node id"))?;
        if raw as usize >= n {
            return Err(format!("`{line}`: node {raw} outside universe {n}"));
        }
        Ok(NodeId(raw))
    };
    let mut out = Vec::new();
    for line in text.lines() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let mut it = line.split_whitespace();
        let req = match it.next().unwrap_or_default() {
            "batch" => ServeRequest::Batch,
            "hit_time" => ServeRequest::Query(rwd_serve::Query::HitTime(node(it.next(), line)?)),
            "hit_prob" => ServeRequest::Query(rwd_serve::Query::HitProb(node(it.next(), line)?)),
            "coverage" => ServeRequest::Query(rwd_serve::Query::Coverage),
            "top" => {
                let m: usize = it
                    .next()
                    .ok_or_else(|| format!("`{line}`: missing m"))?
                    .parse()
                    .map_err(|_| format!("`{line}`: bad m"))?;
                ServeRequest::Query(rwd_serve::Query::TopUncovered(m))
            }
            "seeds" => ServeRequest::Query(rwd_serve::Query::Seeds),
            "metrics" => ServeRequest::Query(rwd_serve::Query::Metrics),
            other => return Err(format!("unknown serve request `{other}` in `{line}`")),
        };
        out.push(req);
    }
    Ok(out)
}

/// The default request trace: every churn batch followed by a round-robin
/// mix of point queries over deterministic targets.
fn default_serve_script(batches: usize, queries_per_batch: usize, n: usize) -> Vec<ServeRequest> {
    use rwd_serve::Query;
    let mut out = Vec::new();
    let mut q = 0usize;
    for _ in 0..batches {
        out.push(ServeRequest::Batch);
        for _ in 0..queries_per_batch {
            q += 1;
            out.push(ServeRequest::Query(match q % 5 {
                0 => Query::Coverage,
                1 => Query::HitTime(NodeId((q * 131 % n) as u32)),
                2 => Query::HitProb(NodeId((q * 197 % n) as u32)),
                3 => Query::TopUncovered(3),
                _ => Query::Seeds,
            }));
        }
    }
    out
}

fn fmt_query(q: &rwd_serve::Query) -> String {
    use rwd_serve::Query;
    match q {
        Query::HitTime(v) => format!("hit_time {v}"),
        Query::HitProb(v) => format!("hit_prob {v}"),
        Query::Coverage => "coverage".into(),
        Query::TopUncovered(m) => format!("top {m}"),
        Query::Seeds => "seeds".into(),
        Query::Metrics => "metrics".into(),
    }
}

fn fmt_answer(value: &rwd_serve::QueryValue) -> String {
    use rwd_serve::QueryValue;
    match value {
        QueryValue::Scalar(x) => fmt_f(*x, 4),
        QueryValue::Ranked(nodes) => {
            let head: Vec<String> = nodes
                .iter()
                .take(4)
                .map(|(v, p)| format!("{v}@{}", fmt_f(*p, 3)))
                .collect();
            let ellipsis = if nodes.len() > 4 { ",…" } else { "" };
            format!("[{}{}]", head.join(","), ellipsis)
        }
        QueryValue::Seeds { seeds, objective } => {
            let ids: Vec<String> = seeds.iter().map(|u| u.to_string()).collect();
            format!("{{{}}} F̂={}", ids.join(","), fmt_f(*objective, 2))
        }
        QueryValue::Metrics(text) => format!("snapshot ({} samples)", count_samples(text)),
        QueryValue::Invalid(msg) => format!("invalid: {msg}"),
    }
}

/// Sample lines in a Prometheus exposition (non-comment, non-blank).
fn count_samples(text: &str) -> usize {
    text.lines()
        .map(str::trim)
        .filter(|l| !l.is_empty() && !l.starts_with('#'))
        .count()
}

/// Starts the online query server over the evolving engine and replays a
/// request trace through it, printing per-request epoch provenance and
/// latency.
fn cmd_serve(args: &[String]) -> Result<(), String> {
    use rwd_datasets::temporal::temporal_trace;
    use rwd_serve::{Server, Snapshot};

    let (pos, flags) = parse(args)?;
    let setup = parse_stream_setup("serve", &pos, &flags)?;
    let StreamSetup {
        ref model_name,
        spec,
        cfg,
        ref problem,
        weighted,
        shards,
        ref data_dir,
        dcfg,
    } = setup;
    let workers: usize = get(&flags, "workers", Some(2))?;
    let queries_per_batch: usize = get(&flags, "queries-per-batch", Some(6))?;

    let trace = temporal_trace(&spec).map_err(|e| e.to_string())?;
    let requests = match flags.get("script") {
        Some(path) => {
            let text = std::fs::read_to_string(path)
                .map_err(|e| format!("cannot read --script {path}: {e}"))?;
            parse_serve_script(&text, trace.base.n())?
        }
        None => default_serve_script(spec.batches, queries_per_batch, trace.base.n()),
    };

    let engine = start_engine(&setup, &trace.base)?;
    if let Some(dir) = data_dir {
        println!(
            "# durability: journaling batches to {dir} (snapshot every {} batches)",
            dcfg.snapshot_every,
        );
    }
    println!(
        "# serve: model={model_name} n={} m0={} problem={problem} k={} l={} r={} \
         shards={shards} workers={workers}{} — {} requests",
        trace.base.n(),
        trace.base.m(),
        cfg.k,
        cfg.l,
        cfg.r,
        if weighted { " weighted" } else { "" },
        requests.len(),
    );

    let server = Server::start(engine, workers);
    let handle = server.handle();
    let mut batches = trace.batches.iter();
    let mut t = Table::new([
        "#",
        "request",
        "epoch",
        "queue µs",
        "service µs",
        "latency µs",
        "answer",
    ]);
    // Summary percentiles come from the same log-bucketed histogram the
    // server itself exposes (not an ad-hoc sort), recorded in nanoseconds.
    let query_service_ns = rwd_obs::Histogram::new();
    let mut max_service_us = 0.0f64;
    let mut queries = 0usize;
    let mut last_metrics: Option<String> = None;
    let us = |d: std::time::Duration| d.as_secs_f64() * 1e6;
    for (i, req) in requests.iter().enumerate() {
        match req {
            ServeRequest::Batch => {
                let Some(batch) = batches.next() else {
                    return Err(format!(
                        "request {} asks for a batch but the trace has only {}",
                        i + 1,
                        spec.batches
                    ));
                };
                let outcome = handle
                    .apply(batch.clone())
                    .map_err(|e| e.to_string())?
                    .wait();
                match outcome.report {
                    Ok(rep) => {
                        t.row([
                            (i + 1).to_string(),
                            format!("batch +{} -{}", rep.insertions, rep.deletions),
                            rep.epoch.to_string(),
                            fmt_f(us(outcome.queue), 0),
                            fmt_f(us(outcome.service), 0),
                            fmt_f(us(outcome.latency), 0),
                            format!(
                                "touched {} groups {} swaps {}",
                                rep.touched_nodes,
                                rep.refresh.groups_resampled,
                                rep.maintain.seeds_swapped
                            ),
                        ]);
                    }
                    Err(e) => return Err(format!("batch {} rejected: {e}", i + 1)),
                }
            }
            ServeRequest::Query(q) => {
                let answer = handle.query(q.clone()).map_err(|e| e.to_string())?.wait();
                query_service_ns.record_duration(answer.service);
                max_service_us = max_service_us.max(us(answer.service));
                queries += 1;
                if let rwd_serve::QueryValue::Metrics(ref text) = answer.value {
                    last_metrics = Some(text.clone());
                }
                t.row([
                    (i + 1).to_string(),
                    fmt_query(q),
                    answer.epoch.to_string(),
                    fmt_f(us(answer.queue), 0),
                    fmt_f(us(answer.service), 0),
                    fmt_f(us(answer.latency), 0),
                    fmt_answer(&answer.value),
                ]);
            }
        }
    }
    println!("{}", t.render());
    server.shutdown();

    if queries > 0 {
        println!(
            "# {} point queries: service p50 = {} µs, p99 = {} µs, max = {} µs",
            queries,
            fmt_f(query_service_ns.quantile(0.50) / 1e3, 0),
            fmt_f(query_service_ns.quantile(0.99) / 1e3, 0),
            fmt_f(max_service_us, 0),
        );
    }
    if let Some(text) = last_metrics {
        println!("# metrics snapshot (last `metrics` request)");
        print!("{text}");
    }

    if let (true, Some(dir)) = (flags.contains_key("mmap"), data_dir) {
        // Restart drill: reopen the data dir zero-copy and time the first
        // served answer — the restarted server's state (snapshot + journal
        // suffix) is bit-identical to the one that just shut down.
        use rwd_stream::{OpenMode, StreamEngine};
        let started = std::time::Instant::now();
        let (reopened, report) = StreamEngine::open_durable_with(dir, dcfg, OpenMode::Mapped)
            .map_err(|e| e.to_string())?;
        let open_ms = started.elapsed().as_secs_f64() * 1e3;
        let snap = Snapshot::capture(&reopened);
        let q0 = std::time::Instant::now();
        let h = snap.hit_time(NodeId(0));
        let query_us = q0.elapsed().as_secs_f64() * 1e6;
        println!(
            "# mmap reopen: epoch {} back in {} ms ({} bytes mapped, {} journal epochs \
             replayed); first point query answered in {} µs (hit_time(0) = {})",
            report.recovered_epoch,
            fmt_f(open_ms, 2),
            report.mapped_bytes,
            report.epochs_replayed,
            fmt_f(query_us, 0),
            fmt_f(h, 4),
        );
    }
    Ok(())
}

/// Walks through the paper's Example 3.1 with full intermediate output.
fn cmd_demo() -> Result<(), String> {
    use rwd_core::greedy::approx::{GainEngine, GainRule};
    use rwd_graph::generators::paper_example::{figure1, v};
    use rwd_walks::WalkIndex;

    println!("Example 3.1 of the paper: R = 1, L = 2, k = 2 on Figure 1\n");
    let g = figure1();
    println!("graph: n = {}, m = {} (v1..v8 = ids 0..7)\n", g.n(), g.m());

    let walks: Vec<Vec<NodeId>> = [
        [1usize, 2, 3],
        [2, 3, 5],
        [3, 2, 5],
        [4, 7, 5],
        [5, 2, 6],
        [6, 7, 5],
        [7, 5, 7],
        [8, 7, 4],
    ]
    .iter()
    .map(|w| w.iter().map(|&x| v(x)).collect())
    .collect();
    let idx = WalkIndex::from_walks(8, 2, &walks);

    println!("Table 1 — inverted index:");
    for owner in 1..=8 {
        let entries: Vec<String> = idx
            .postings(0, v(owner))
            .iter()
            .map(|p| format!("<v{}, {}>", p.id.index() + 1, p.weight))
            .collect();
        println!("  v{owner}: {}", entries.join(", "));
    }

    let mut engine = GainEngine::new(&idx, GainRule::HittingTime);
    let gains = engine.gains_all();
    println!("\nfirst-round marginal gains σ_u(∅):");
    let pretty: Vec<String> = (1..=8)
        .map(|i| format!("v{i}={}", gains[v(i).index()]))
        .collect();
    println!("  {}", pretty.join("  "));

    engine.update(v(2));
    println!("\nselected v2 (ties break to the smaller id, as in the paper);");
    let d = engine.hit_times();
    let pretty: Vec<String> = (1..=8)
        .map(|i| format!("D[v{i}]={}", d[v(i).index()]))
        .collect();
    println!("updated D: {}", pretty.join("  "));

    let gains = engine.gains_all();
    let best = (0..8)
        .filter(|&u| !engine.selected().contains(NodeId(u)))
        .max_by(|&a, &b| {
            gains[a as usize]
                .total_cmp(&gains[b as usize])
                .then(b.cmp(&a))
        })
        .unwrap();
    println!(
        "\nsecond round selects v{} — final S = {{v2, v7}}",
        best + 1
    );
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(args: &[&str]) -> Vec<String> {
        args.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn parse_splits_positional_and_flags() {
        let (pos, flags) = parse(&argv(&["file.edges", "--k", "10", "--algo", "degree"])).unwrap();
        assert_eq!(pos, vec!["file.edges"]);
        assert_eq!(flags.get("k").unwrap(), "10");
        assert_eq!(flags.get("algo").unwrap(), "degree");
    }

    #[test]
    fn parse_boolean_flags_take_no_value() {
        let (pos, flags) = parse(&argv(&["f", "--eval", "--k", "3"])).unwrap();
        assert_eq!(pos, vec!["f"]);
        assert_eq!(flags.get("eval").unwrap(), "true");
        assert_eq!(flags.get("k").unwrap(), "3");
    }

    #[test]
    fn parse_rejects_dangling_flag() {
        assert!(parse(&argv(&["--k"])).is_err());
    }

    #[test]
    fn get_applies_defaults_and_validates() {
        let (_, flags) = parse(&argv(&["--k", "7"])).unwrap();
        assert_eq!(get::<usize>(&flags, "k", None).unwrap(), 7);
        assert_eq!(get::<u32>(&flags, "l", Some(6)).unwrap(), 6);
        assert!(get::<usize>(&flags, "missing", None).is_err());
        let (_, flags) = parse(&argv(&["--k", "notanumber"])).unwrap();
        assert!(get::<usize>(&flags, "k", None).is_err());
    }

    #[test]
    fn run_rejects_unknown_subcommand() {
        assert!(run(&argv(&["frobnicate"])).is_err());
        assert!(run(&argv(&[])).is_err());
    }

    #[test]
    fn demo_runs_clean() {
        assert!(cmd_demo().is_ok());
    }

    #[test]
    fn gen_stats_select_round_trip() {
        let dir = std::env::temp_dir().join("rwdom_cli_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("g.edges");
        let path_s = path.to_str().unwrap();
        run(&argv(&[
            "gen", "--model", "ba", "--nodes", "200", "--degree", "3", "--seed", "5", "--out",
            path_s,
        ]))
        .unwrap();
        run(&argv(&["stats", path_s])).unwrap();
        run(&argv(&[
            "select",
            path_s,
            "--algo",
            "approx-f2",
            "--k",
            "5",
            "--l",
            "4",
            "--r",
            "25",
        ]))
        .unwrap();
        run(&argv(&[
            "eval", path_s, "--nodes", "0,1,2", "--l", "4", "--r", "50",
        ]))
        .unwrap();
        run(&argv(&[
            "cover", path_s, "--alpha", "0.5", "--l", "4", "--r", "25",
        ]))
        .unwrap();
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn select_rejects_unknown_algorithm() {
        let dir = std::env::temp_dir().join("rwdom_cli_test2");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("g.edges");
        let path_s = path.to_str().unwrap();
        run(&argv(&[
            "gen", "--model", "gnm", "--nodes", "50", "--edges", "100", "--out", path_s,
        ]))
        .unwrap();
        assert!(run(&argv(&["select", path_s, "--algo", "magic", "--k", "3"])).is_err());
        assert!(run(&argv(&["eval", path_s, "--nodes", "999", "--l", "3"])).is_err());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn stream_runs_verified_on_small_trace() {
        run(&argv(&[
            "stream",
            "--model",
            "er",
            "--nodes",
            "200",
            "--degree",
            "8",
            "--batches",
            "3",
            "--batch-edits",
            "6",
            "--k",
            "4",
            "--l",
            "4",
            "--r",
            "6",
            "--verify",
            "--metrics-every",
            "2",
        ]))
        .unwrap();
        // Weighted path, coverage objective.
        run(&argv(&[
            "stream",
            "--model",
            "ba",
            "--nodes",
            "150",
            "--degree",
            "3",
            "--batches",
            "2",
            "--batch-edits",
            "4",
            "--k",
            "3",
            "--l",
            "4",
            "--r",
            "4",
            "--problem",
            "f2",
            "--weighted",
            "--verify",
        ]))
        .unwrap();
    }

    #[test]
    fn stream_runs_sharded_and_verified() {
        // 3 shards over r = 6 layers, verified bit-identical per epoch;
        // exercises the per-shard breakdown rendering too.
        run(&argv(&[
            "stream",
            "--model",
            "er",
            "--nodes",
            "150",
            "--degree",
            "8",
            "--batches",
            "2",
            "--batch-edits",
            "5",
            "--k",
            "3",
            "--l",
            "4",
            "--r",
            "6",
            "--shards",
            "3",
            "--verify",
        ]))
        .unwrap();
    }

    #[test]
    fn shard_count_is_rejected_by_name() {
        let base = |shards: &str| {
            argv(&[
                "stream",
                "--model",
                "er",
                "--nodes",
                "60",
                "--batches",
                "1",
                "--batch-edits",
                "2",
                "--k",
                "2",
                "--l",
                "3",
                "--r",
                "4",
                "--shards",
                shards,
            ])
        };
        let err = run(&base("0")).unwrap_err();
        assert!(err.contains("invalid shard count"), "{err}");
        let err = run(&base("5")).unwrap_err();
        assert!(err.contains("invalid shard count"), "{err}");
        assert!(err.contains("5 shards"), "{err}");
        // Serve shares the same setup parsing and engine validation.
        let err = run(&argv(&[
            "serve",
            "--model",
            "er",
            "--nodes",
            "60",
            "--batches",
            "1",
            "--k",
            "2",
            "--l",
            "3",
            "--r",
            "4",
            "--shards",
            "0",
        ]))
        .unwrap_err();
        assert!(err.contains("invalid shard count"), "{err}");
    }

    #[test]
    fn serve_replays_default_and_scripted_traces() {
        // Default generated request trace, unweighted.
        run(&argv(&[
            "serve",
            "--model",
            "er",
            "--nodes",
            "150",
            "--degree",
            "8",
            "--batches",
            "2",
            "--batch-edits",
            "5",
            "--k",
            "3",
            "--l",
            "4",
            "--r",
            "5",
            "--queries-per-batch",
            "4",
            "--workers",
            "2",
            "--shards",
            "2",
        ]))
        .unwrap();
        // Scripted trace, weighted pipeline.
        let dir = std::env::temp_dir().join("rwdom_cli_serve");
        std::fs::create_dir_all(&dir).unwrap();
        let script = dir.join("requests.txt");
        std::fs::write(
            &script,
            "# warm-up queries on epoch 0\nseeds\nhit_time 3\nbatch\ncoverage\ntop 4\nhit_prob 7\nmetrics\n",
        )
        .unwrap();
        run(&argv(&[
            "serve",
            "--model",
            "ba",
            "--nodes",
            "120",
            "--degree",
            "3",
            "--batches",
            "1",
            "--batch-edits",
            "4",
            "--k",
            "3",
            "--l",
            "4",
            "--r",
            "4",
            "--weighted",
            "--script",
            script.to_str().unwrap(),
        ]))
        .unwrap();
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn serve_rejects_bad_scripts() {
        let dir = std::env::temp_dir().join("rwdom_cli_serve_bad");
        std::fs::create_dir_all(&dir).unwrap();
        let mk = |name: &str, content: &str| {
            let p = dir.join(name);
            std::fs::write(&p, content).unwrap();
            p.to_str().unwrap().to_string()
        };
        let base = [
            "serve",
            "--model",
            "er",
            "--nodes",
            "50",
            "--batches",
            "1",
            "--batch-edits",
            "2",
            "--k",
            "2",
            "--l",
            "3",
            "--r",
            "3",
            "--script",
        ];
        let with_script = |p: String| {
            let mut v = argv(&base);
            v.push(p);
            v
        };
        // Unknown verb, out-of-range node, more `batch` lines than the trace.
        assert!(run(&with_script(mk("verb.txt", "frobnicate 3\n"))).is_err());
        assert!(run(&with_script(mk("range.txt", "hit_time 99\n"))).is_err());
        assert!(run(&with_script(mk("batches.txt", "batch\nbatch\n"))).is_err());
        // Missing script file.
        assert!(run(&with_script(dir.join("nope.txt").to_str().unwrap().into())).is_err());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn stream_journals_and_recover_verifies() {
        let dir = std::env::temp_dir().join("rwdom_cli_durable");
        std::fs::remove_dir_all(&dir).ok();
        let data = dir.join("data");
        let data_s = data.to_str().unwrap();
        run(&argv(&[
            "stream",
            "--model",
            "er",
            "--nodes",
            "120",
            "--degree",
            "8",
            "--batches",
            "5",
            "--batch-edits",
            "4",
            "--k",
            "3",
            "--l",
            "4",
            "--r",
            "5",
            "--data-dir",
            data_s,
            "--snapshot-every",
            "2",
        ]))
        .unwrap();
        // The dir now holds artifacts: a second stream run must refuse it
        // (recovery is `rwdom recover`'s job, not a silent overwrite).
        let err = run(&argv(&[
            "stream",
            "--model",
            "er",
            "--nodes",
            "120",
            "--degree",
            "8",
            "--batches",
            "1",
            "--batch-edits",
            "4",
            "--k",
            "3",
            "--l",
            "4",
            "--r",
            "5",
            "--data-dir",
            data_s,
        ]))
        .unwrap_err();
        assert!(err.contains("already holds durability artifacts"), "{err}");
        // Recovery replays the journal and the from-scratch rebuild check
        // passes bit-identically.
        run(&argv(&["recover", data_s, "--verify"])).unwrap();
        // `index info` reads a shard file the stream wrote, and names a
        // retired format instead of parsing it.
        let snap = std::fs::read_dir(&data)
            .unwrap()
            .map(|e| e.unwrap().file_name().into_string().unwrap())
            .find(|name| name.starts_with("snap-"))
            .expect("the stream left a snapshot");
        let shard = data.join(snap).join("shard-0.rwdidx");
        run(&argv(&["index", "info", shard.to_str().unwrap()])).unwrap();
        let old = dir.join("old.rwdidx");
        std::fs::write(&old, b"RWDIDX2\0 and an old payload").unwrap();
        let err = run(&argv(&["index", "info", old.to_str().unwrap()])).unwrap_err();
        assert!(err.contains("retired RWDIDX2"), "{err}");
        // Serve writes its batches durably too (fresh dir), weighted.
        let data2 = dir.join("data2");
        run(&argv(&[
            "serve",
            "--model",
            "ba",
            "--nodes",
            "100",
            "--degree",
            "3",
            "--batches",
            "2",
            "--batch-edits",
            "4",
            "--k",
            "3",
            "--l",
            "4",
            "--r",
            "4",
            "--queries-per-batch",
            "2",
            "--weighted",
            "--data-dir",
            data2.to_str().unwrap(),
        ]))
        .unwrap();
        run(&argv(&["recover", data2.to_str().unwrap(), "--verify"])).unwrap();
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn recover_rejects_bad_inputs() {
        // No data dir at all.
        assert!(run(&argv(&["recover"])).is_err());
        // A dir with no snapshot.
        let dir = std::env::temp_dir().join("rwdom_cli_recover_empty");
        std::fs::create_dir_all(&dir).unwrap();
        let err = run(&argv(&["recover", dir.to_str().unwrap()])).unwrap_err();
        assert!(err.contains("no loadable snapshot"), "{err}");
        // --snapshot-every without --data-dir is rejected up front.
        let err = run(&argv(&[
            "stream",
            "--model",
            "er",
            "--nodes",
            "60",
            "--batches",
            "1",
            "--snapshot-every",
            "2",
        ]))
        .unwrap_err();
        assert!(err.contains("--snapshot-every needs --data-dir"), "{err}");
        // So is --mmap without --data-dir: named before the engine starts
        // (which --shards 0 would fail), not after the whole run.
        for cmd in ["stream", "serve"] {
            let err = run(&argv(&[
                cmd,
                "--model",
                "er",
                "--nodes",
                "60",
                "--batches",
                "1",
                "--shards",
                "0",
                "--mmap",
            ]))
            .unwrap_err();
            assert!(err.contains("--mmap needs --data-dir"), "{cmd}: {err}");
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn stream_rejects_bad_flags() {
        assert!(run(&argv(&["stream", "--model", "nope"])).is_err());
        // Positional args (e.g. an edge-list path by analogy with select)
        // are rejected, not silently ignored.
        assert!(run(&argv(&["stream", "g.edges", "--nodes", "50"])).is_err());
        assert!(run(&argv(&[
            "stream",
            "--model",
            "er",
            "--nodes",
            "50",
            "--problem",
            "f9"
        ]))
        .is_err());
    }

    #[test]
    fn gen_rejects_unknown_model() {
        assert!(run(&argv(&[
            "gen",
            "--model",
            "nope",
            "--nodes",
            "10",
            "--out",
            "/tmp/never.edges"
        ]))
        .is_err());
    }
}
