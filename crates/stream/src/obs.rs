//! Pre-registered handles into the process-wide metrics registry
//! ([`rwd_obs::global`]) for the streaming engine and the durability
//! layer. Registration happens once on first use; every batch thereafter
//! only touches lock-free atomics, so instrumentation adds a handful of
//! relaxed `fetch_add`s per phase to the apply path.

use std::sync::OnceLock;

use rwd_obs::{Counter, Gauge, Histogram};

/// Per-batch phase timings and churn counters for [`crate::StreamEngine`].
pub(crate) struct StreamMetrics {
    /// Phase 1: batch validation + functional staging into the next graph
    /// epoch (once per batch, whatever the shard count).
    pub stage_ns: Histogram,
    /// Write-ahead hook (journal append + fsync when durable).
    pub journal_ns: Histogram,
    /// One per-shard selective refresh (phase-2 commit).
    pub refresh_ns: Histogram,
    /// Warm-path seed maintenance (absorb + replay).
    pub maintain_warm_ns: Histogram,
    /// Cold-path seed maintenance (full re-selection).
    pub maintain_cold_ns: Histogram,
    /// Epoch advance + report assembly after the last shard commits.
    pub publish_ns: Histogram,
    /// Non-empty batches committed.
    pub batches: Counter,
    /// Edge insertions committed.
    pub insertions: Counter,
    /// Edge deletions committed.
    pub deletions: Counter,
    /// Touched endpoint nodes across committed batches.
    pub touched_nodes: Counter,
    /// Walk groups re-sampled (summed over shards).
    pub groups_resampled: Counter,
    /// Inverted postings added by refreshes.
    pub postings_added: Counter,
    /// Inverted postings removed by refreshes.
    pub postings_removed: Counter,
    /// Seeds evicted by maintenance across all batches.
    pub seeds_swapped: Counter,
    /// Greedy rounds replayed from recorded logs (warm path).
    pub replayed_rounds: Counter,
    /// Current committed epoch.
    pub epoch: Gauge,
}

pub(crate) fn stream_metrics() -> &'static StreamMetrics {
    static METRICS: OnceLock<StreamMetrics> = OnceLock::new();
    METRICS.get_or_init(|| {
        let reg = rwd_obs::global();
        let phase =
            |p: &str, help: &str| reg.histogram_with("rwd_stream_phase_ns", help, &[("phase", p)]);
        let phase_help = "Wall time of one batch-apply phase (nanoseconds)";
        StreamMetrics {
            stage_ns: phase("stage", phase_help),
            journal_ns: phase("journal", phase_help),
            refresh_ns: phase("refresh", phase_help),
            maintain_warm_ns: phase("maintain_warm", phase_help),
            maintain_cold_ns: phase("maintain_cold", phase_help),
            publish_ns: phase("publish", phase_help),
            batches: reg.counter("rwd_stream_batches_total", "Non-empty batches committed"),
            insertions: reg.counter("rwd_stream_insertions_total", "Edge insertions committed"),
            deletions: reg.counter("rwd_stream_deletions_total", "Edge deletions committed"),
            touched_nodes: reg.counter(
                "rwd_stream_touched_nodes_total",
                "Touched endpoint nodes across committed batches",
            ),
            groups_resampled: reg.counter(
                "rwd_stream_groups_resampled_total",
                "Walk groups re-sampled across committed batches (all shards)",
            ),
            postings_added: reg.counter(
                "rwd_stream_postings_added_total",
                "Inverted postings added by refreshes",
            ),
            postings_removed: reg.counter(
                "rwd_stream_postings_removed_total",
                "Inverted postings removed by refreshes",
            ),
            seeds_swapped: reg.counter(
                "rwd_stream_seeds_swapped_total",
                "Seeds evicted by maintenance across all batches",
            ),
            replayed_rounds: reg.counter(
                "rwd_stream_replayed_rounds_total",
                "Greedy rounds replayed from recorded logs (warm maintenance)",
            ),
            epoch: reg.gauge("rwd_stream_epoch", "Current committed engine epoch"),
        }
    })
}

/// Journal, snapshot, and recovery metrics of a durable
/// [`crate::StreamEngine`].
pub(crate) struct DurableMetrics {
    /// Bytes appended to the write-ahead journal (record framing included).
    pub journal_bytes: Counter,
    /// Journal records appended (one per committed non-empty batch).
    pub journal_appends: Counter,
    /// Wall time of one journal append including its fsync.
    pub journal_append_ns: Histogram,
    /// Wall time of one full engine snapshot write (all files + fsyncs).
    pub snapshot_write_ns: Histogram,
    /// Engine snapshots written.
    pub snapshots_written: Counter,
    /// Periodic snapshots that failed after their batch had committed
    /// (retried at the next batch).
    pub snapshot_failures: Counter,
    /// Crash recoveries performed by `StreamEngine::open_durable_with`.
    pub recoveries: Counter,
    /// Journaled batches replayed during recoveries.
    pub recovery_replayed_batches: Counter,
    /// Wall time of one full recovery (snapshot load + journal replay).
    pub recovery_ns: Histogram,
}

pub(crate) fn durable_metrics() -> &'static DurableMetrics {
    static METRICS: OnceLock<DurableMetrics> = OnceLock::new();
    METRICS.get_or_init(|| {
        let reg = rwd_obs::global();
        DurableMetrics {
            journal_bytes: reg.counter(
                "rwd_durable_journal_bytes_total",
                "Bytes appended to the write-ahead journal",
            ),
            journal_appends: reg.counter(
                "rwd_durable_journal_appends_total",
                "Write-ahead journal records appended",
            ),
            journal_append_ns: reg.histogram(
                "rwd_durable_journal_append_ns",
                "Wall time of one journal append including fsync (nanoseconds)",
            ),
            snapshot_write_ns: reg.histogram(
                "rwd_durable_snapshot_write_ns",
                "Wall time of one full engine snapshot write (nanoseconds)",
            ),
            snapshots_written: reg.counter(
                "rwd_durable_snapshots_written_total",
                "Engine snapshots written",
            ),
            snapshot_failures: reg.counter(
                "rwd_durable_snapshot_failures_total",
                "Periodic snapshots that failed after their batch committed (retried next batch)",
            ),
            recoveries: reg.counter(
                "rwd_durable_recoveries_total",
                "Crash recoveries performed by StreamEngine::open_durable_with",
            ),
            recovery_replayed_batches: reg.counter(
                "rwd_durable_recovery_replayed_batches_total",
                "Journaled batches replayed during recoveries",
            ),
            recovery_ns: reg.histogram(
                "rwd_durable_recovery_ns",
                "Wall time of one full recovery, snapshot load plus replay (nanoseconds)",
            ),
        }
    })
}
