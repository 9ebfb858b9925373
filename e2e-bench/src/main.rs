//! End-to-end benchmark of the durable sharded serving stack.
//!
//! ```text
//! cargo run --release --offline --manifest-path e2e-bench/Cargo.toml -- \
//!     --workload serve-read|churn-write|restart --seed N --seconds S --trace 0|1
//! ```
//!
//! Prints report lines starting with `#`, then one JSON object as the last
//! line: with `--trace 0` every end-to-end metric, with `--trace 1` every
//! per-layer metric of a traced pass that follows an untraced one (the
//! difference between the two is printed as the tracing overhead).

mod host;
mod inputs;
mod trace;
mod work;

use std::collections::BTreeMap;
use std::path::PathBuf;

use trace::Tracer;
use work::{Ctx, Workload};

/// End-to-end metrics: `(name, unit)`.
const END_TO_END: [(&str, &str); 6] = [
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("query_p50_us", "us"),
    ("commit_p50_ms", "ms"),
    ("ingest_edits_per_s", "edits/s"),
    ("restart_ttfa_ms", "ms"),
];

/// Per-layer metrics of the traced pass: `(name, unit)`. The tracing
/// overhead of each end-to-end metric follows as `overhead.<name>`.
const PER_LAYER: [(&str, &str); 46] = [
    ("reads.set_query_p50_us", "us"),
    ("reads.capacity_qps", "q/s"),
    ("serve.queue_us", "us"),
    ("serve.service_us", "us"),
    ("serve.point_us", "us"),
    ("serve.set_query_us", "us"),
    ("serve.apply_queue_ms", "ms"),
    ("serve.apply_service_ms", "ms"),
    ("stream.stage_ms", "ms"),
    ("stream.publish_ms", "ms"),
    ("journal.append_ms", "ms"),
    ("journal.bytes_per_edit", "B/edit"),
    ("walks.refresh_ms", "ms"),
    ("walks.refresh_max_shard_ms", "ms"),
    ("walks.groups_resampled", "count"),
    ("walks.postings_rewritten", "count"),
    ("core.maintain_ms", "ms"),
    ("core.warm_share", "ratio"),
    ("core.replayed_rounds", "count"),
    ("core.bootstrap_ms", "ms"),
    ("durable.snapshot_ms", "ms"),
    ("durable.snapshots", "count"),
    ("durable.snapshot_mb", "MB"),
    ("durable.snapshot_load_ms", "ms"),
    ("durable.replay_ms", "ms"),
    ("durable.epochs_replayed", "count"),
    ("walks.open_mapped_ms", "ms"),
    ("walks.heap_mb", "MB"),
    ("walks.mapped_mb", "MB"),
    ("walks.build_ms", "ms"),
    ("walks.postings", "count"),
    ("serve.start_ms", "ms"),
    ("serve.first_answer_us", "us"),
    ("gen.late_p50_us", "us"),
    ("gen.late_max_us", "us"),
    ("gen.achieved_vs_offered", "ratio"),
    ("query_p99_us", "us"),
    ("query_p99_samples", "count"),
    ("host.steal_ms", "ms"),
    ("host.nvcsw", "count"),
    ("host.nivcsw", "count"),
    ("host.probe_ms", "ms"),
    ("host.loadavg", "load"),
    ("budget.commit_unattributed_ms", "ms"),
    ("budget.apply_unattributed_ms", "ms"),
    ("budget.restart_unattributed_ms", "ms"),
];

const USAGE: &str =
    "usage: rwd-e2e-bench --workload serve-read|churn-write|restart --seed N --seconds S --trace 0|1";

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut flags: BTreeMap<String, String> = BTreeMap::new();
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        flags.insert(flag, value);
    }
    let get = |k: &str| flags.get(k).ok_or_else(|| format!("missing {k}"));
    let workload = get("--workload")?;
    let args = Args {
        workload: Workload::parse(workload)
            .ok_or_else(|| format!("unknown workload {workload}"))?,
        seed: get("--seed")?.parse().map_err(|e| format!("--seed: {e}"))?,
        seconds: get("--seconds")?
            .parse()
            .map_err(|e| format!("--seconds: {e}"))?,
        trace: match get("--trace")?.as_str() {
            "0" => false,
            "1" => true,
            other => return Err(format!("--trace takes 0 or 1, not {other}")),
        },
    };
    if !(args.seconds > 0.0 && args.seconds <= 600.0) {
        return Err("--seconds must lie in (0, 600]".into());
    }
    if flags.len() != 4 {
        return Err("unexpected flag".into());
    }
    Ok(args)
}

/// Working space inside the build's target directory, which lies inside
/// the checkout: data directories and the span dump.
fn data_root() -> PathBuf {
    let exe = std::env::current_exe().expect("the running executable has a path");
    exe.parent()
        .and_then(|p| p.parent())
        .map_or_else(|| PathBuf::from("."), PathBuf::from)
        .join("e2e-data")
}

fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".into()
    }
}

fn main() {
    let args = parse_args().unwrap_or_else(|e| {
        eprintln!("error: {e}\n{USAGE}");
        std::process::exit(2);
    });
    let one_arena = host::single_heap_arena();
    // The main thread is the open-loop generator: minimal timer slack, and
    // a CPU of its own when the host has two.
    let slack = host::minimise_timer_slack();
    let cpus = std::thread::available_parallelism().map_or(1, |n| n.get());
    let pinned = cpus >= 2 && host::set_affinity(&[work::CLIENT_CPU]);
    let watch = host::HostWatch::start();
    let name = args.workload.name();
    let (batches, asks) = args.workload.sizes(args.seconds);
    let inputs = inputs::generate(batches, asks, args.seed);
    println!(
        "# workload {name} seed {} seconds {} trace {} timer_slack_min {slack} one_arena {one_arena} cpus {cpus} pinned {pinned} inputs {:016x}",
        args.seed,
        args.seconds,
        u8::from(args.trace),
        inputs::fingerprint(&inputs)
    );
    println!(
        "# inputs nodes {} edges {} batches {} asks {} weighted {}",
        inputs.nodes,
        inputs.edges.len(),
        inputs.trace.len(),
        inputs.asks.len(),
        args.workload.weighted()
    );
    let root = data_root();
    let dir = root.join(format!("{name}-{}", std::process::id()));
    let pass = |tracer: &Tracer| {
        work::run(&Ctx {
            workload: args.workload,
            seconds: args.seconds,
            seed: args.seed,
            dir: dir.clone(),
            inputs: &inputs,
            tracer,
            pinned,
        })
    };

    let untraced = pass(&Tracer::new(false));
    let e2e = work::end_to_end(&untraced);
    let (mut attempted, mut failed) = (untraced.attempted, untraced.failed);
    let mut errors = untraced.errors.clone();
    let report = |e2e: &BTreeMap<&str, f64>, run: &work::Run, label: &str| {
        for (metric, unit) in END_TO_END {
            println!("# {label} {metric} {} {unit}", e2e[metric]);
        }
        let (set_query, capacity) = work::ungated_reads(run);
        println!(
            "# {label} ungated reads.set_query_p50_us {set_query} us reads.capacity_qps {capacity} q/s"
        );
        if let Some(race) = work::race_line(run) {
            println!("# {label} ungated {race}");
        }
        println!(
            "# {label} samples point {} set {} race {} capacity_slices {} commits {} restarts {} setups {} error_rate {}",
            run.point_us.len(),
            run.set_us.len(),
            run.race_point_us.len(),
            run.capacity_qps.len(),
            run.commits.len(),
            run.restarts.len(),
            run.setup_s.len(),
            run.failed as f64 / run.attempted.max(1) as f64
        );
        let peaks: Vec<String> = run
            .peaks
            .iter()
            .map(|(p, mb)| format!("{p} {mb:.1}"))
            .collect();
        println!("# {label} peak_rss_mb after phase: {}", peaks.join(", "));
    };
    report(&e2e, &untraced, "e2e");

    let mut metrics: Vec<(String, f64, &str)> = Vec::new();
    if args.trace {
        host::trim_heap();
        host::reset_peak_rss();
        let tracer = Tracer::new(true);
        let traced = pass(&tracer);
        attempted += traced.attempted;
        failed += traced.failed;
        errors.extend(traced.errors.iter().cloned());
        let traced_e2e = work::end_to_end(&traced);
        report(&traced_e2e, &traced, "traced");
        for (layer, n, total, own) in tracer.layers() {
            println!("# layer {layer} count {n} total_ms {total:.3} self_ms {own:.3}");
        }
        for line in work::budget_lines(&traced) {
            println!("# {line}");
        }
        let noise = watch.finish();
        let mut layer = work::per_layer(&traced);
        layer.insert("host.steal_ms", noise.steal_ms);
        layer.insert("host.nvcsw", noise.nvcsw as f64);
        layer.insert("host.nivcsw", noise.nivcsw as f64);
        layer.insert("host.probe_ms", noise.probe_ms);
        layer.insert("host.loadavg", noise.loadavg);
        for (metric, unit) in PER_LAYER {
            let v = *layer
                .get(metric)
                .unwrap_or_else(|| panic!("per-layer metric {metric} was not measured"));
            metrics.push((metric.to_string(), v, unit));
        }
        for (metric, unit) in END_TO_END {
            let overhead = traced_e2e[metric] - e2e[metric];
            println!("# overhead {metric} {overhead} {unit}");
            metrics.push((format!("overhead.{metric}"), overhead, unit));
        }
        let spans = root
            .join("spans")
            .join(format!("{name}-seed{}.tsv", args.seed));
        match tracer.write_tsv(&spans) {
            Ok(()) => println!("# spans {}", spans.display()),
            Err(e) => println!("# spans not written: {e}"),
        }
        print_noise(&noise);
    } else {
        print_noise(&watch.finish());
        for (metric, unit) in END_TO_END {
            metrics.push((metric.to_string(), e2e[metric], unit));
        }
    }
    for e in &errors {
        println!("# failure {e}");
    }

    let body: Vec<String> = metrics
        .iter()
        .map(|(k, v, unit)| {
            format!(
                "\"{k}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                json_number(*v)
            )
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        failed == 0 && attempted > 0,
        attempted.max(1),
        body.join(", ")
    );
}

fn print_noise(noise: &host::HostNoise) {
    println!(
        "# host steal_ms {} nvcsw {} nivcsw {} loadavg {} probe_ms {}",
        noise.steal_ms, noise.nvcsw, noise.nivcsw, noise.loadavg, noise.probe_ms
    );
}
