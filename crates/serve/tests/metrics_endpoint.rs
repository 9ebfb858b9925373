//! Metrics-endpoint acceptance test — the observability criterion.
//!
//! A server answers point queries from several client threads **while**
//! churn batches apply concurrently through the same server. Afterwards a
//! single `Query::Metrics` must return a parseable Prometheus-text
//! snapshot whose per-endpoint histogram counts equal the number of
//! requests actually served on each endpoint — no sample lost to the
//! concurrency, no sample invented.

use rwd_core::greedy::approx::GainRule;
use rwd_graph::{generators::erdos_renyi_gnp, NodeId};
use rwd_obs::text;
use rwd_serve::{Query, QueryValue, Server};
use rwd_stream::{EdgeBatch, StreamConfig, StreamEngine};

const N: usize = 80;
const CLIENTS: usize = 4;
const PER_CLIENT: u64 = 25;
const BATCHES: u64 = 12;

/// Count recorded in the exposition for one endpoint's service histogram.
fn served(samples: &[text::Sample], endpoint: &str) -> u64 {
    let snap = text::histogram_snapshot(samples, "rwd_serve_service_ns", &[("endpoint", endpoint)])
        .unwrap_or_else(|| panic!("no service histogram for endpoint {endpoint}"));
    snap.count()
}

#[test]
fn metrics_under_concurrent_churn_count_every_request() {
    let g = erdos_renyi_gnp(N, 0.08, 0xC0FFEE).unwrap();
    let missing: Vec<(u32, u32)> = (0..N as u32)
        .flat_map(|u| ((u + 1)..N as u32).map(move |v| (u, v)))
        .filter(|&(u, v)| !g.has_edge(NodeId(u), NodeId(v)))
        .take(BATCHES as usize)
        .collect();
    assert_eq!(missing.len() as u64, BATCHES);
    let engine = StreamEngine::new(
        g,
        StreamConfig {
            l: 4,
            r: 5,
            k: 3,
            seed: 11,
            rule: GainRule::HittingTime,
            threads: 1,
        },
    )
    .unwrap();
    let server = Server::start(engine, CLIENTS);
    let handle = server.handle();

    // Churn applies concurrently with the query clients below.
    let churn = {
        let h = handle.clone();
        std::thread::spawn(move || {
            for (t, (u, v)) in missing.into_iter().enumerate() {
                let mut batch = EdgeBatch::new(t as u64 + 1);
                batch.insertions.push((u, v, 1.0));
                let outcome = h.apply(batch).unwrap().wait();
                outcome.report.expect("valid churn batch");
            }
        })
    };
    let clients: Vec<_> = (0..CLIENTS)
        .map(|c| {
            let h = handle.clone();
            std::thread::spawn(move || {
                for i in 0..PER_CLIENT {
                    let v = NodeId(((c as u64 * PER_CLIENT + i) % N as u64) as u32);
                    let q = match i % 5 {
                        0 => Query::HitTime(v),
                        1 => Query::HitProb(v),
                        2 => Query::Coverage,
                        3 => Query::TopUncovered(4),
                        _ => Query::Seeds,
                    };
                    let ans = h.query(q).unwrap().wait();
                    // Satellite: queue wait and service time are split out
                    // and bounded by the end-to-end latency.
                    assert!(ans.queue <= ans.latency);
                    assert!(ans.service <= ans.latency);
                }
            })
        })
        .collect();
    for c in clients {
        c.join().expect("client thread");
    }
    churn.join().expect("churn thread");

    let ans = handle.query(Query::Metrics).unwrap().wait();
    let rendered = match ans.value {
        QueryValue::Metrics(text) => text,
        other => panic!("expected metrics answer, got {other:?}"),
    };
    let samples = text::parse(&rendered).expect("parseable Prometheus exposition");

    // Per-endpoint totals equal the requests actually served. Each of the
    // five point endpoints got PER_CLIENT/5 queries from each client; the
    // writer served every churn batch; the metrics endpoint has served
    // zero requests at the instant its own answer was rendered.
    let per_endpoint = CLIENTS as u64 * PER_CLIENT / 5;
    for endpoint in ["hit_time", "hit_prob", "coverage", "top", "seeds"] {
        assert_eq!(served(&samples, endpoint), per_endpoint, "{endpoint}");
    }
    assert_eq!(served(&samples, "batch"), BATCHES);
    assert_eq!(served(&samples, "metrics"), 0);
    // Queue histograms carry the same totals as service histograms.
    for endpoint in ["hit_time", "batch"] {
        let q = text::histogram_snapshot(&samples, "rwd_serve_queue_ns", &[("endpoint", endpoint)])
            .unwrap();
        assert_eq!(q.count(), served(&samples, endpoint), "{endpoint}");
    }
    // Scheduling gauges: queues drained; the published epoch advanced to
    // the last churn batch; only the in-flight metrics request may still
    // pin a snapshot.
    let gauge = |name: &str, label: Option<(&str, &str)>| -> f64 {
        samples
            .iter()
            .find(|s| s.name == name && label.is_none_or(|(k, v)| s.label(k) == Some(v)))
            .unwrap_or_else(|| panic!("missing {name}"))
            .value
    };
    assert_eq!(
        gauge("rwd_serve_queue_depth", Some(("queue", "query"))),
        0.0
    );
    assert_eq!(
        gauge("rwd_serve_queue_depth", Some(("queue", "apply"))),
        0.0
    );
    assert_eq!(gauge("rwd_serve_published_epoch", None), BATCHES as f64);
    assert!(gauge("rwd_serve_pinned_snapshots", None) >= 1.0);

    // The same snapshot also carries the process-wide engine metrics.
    assert!(rendered.contains("rwd_stream_batches_total"));

    server.shutdown();
}
