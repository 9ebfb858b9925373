//! Pre-registered handles into the process-wide metrics registry
//! ([`rwd_obs::global`]), created once on first use so the refresh hot
//! path only touches lock-free atomics.

use std::sync::OnceLock;

use rwd_obs::{Counter, Gauge, Histogram};

pub(crate) struct WalkMetrics {
    /// Wall time of one selective-refresh call over a walk index.
    pub refresh_ns: Histogram,
    /// Walk groups re-sampled across every refresh in the process.
    pub groups_resampled: Counter,
    /// Layer views folded into a fresh base across every refresh.
    pub overlay_folds: Counter,
    /// Heap-owned posting-column bytes across the process's indexes.
    pub storage_heap_bytes: Gauge,
    /// Mapped (zero-copy, page-cache-backed) posting-column bytes.
    pub storage_mapped_bytes: Gauge,
}

pub(crate) fn metrics() -> &'static WalkMetrics {
    static METRICS: OnceLock<WalkMetrics> = OnceLock::new();
    METRICS.get_or_init(|| {
        let reg = rwd_obs::global();
        WalkMetrics {
            refresh_ns: reg.histogram(
                "rwd_walks_refresh_ns",
                "Wall time of one walk-index selective refresh (nanoseconds)",
            ),
            groups_resampled: reg.counter(
                "rwd_walks_groups_resampled_total",
                "Walk (src, layer) groups re-sampled across all refreshes",
            ),
            overlay_folds: reg.counter(
                "rwd_walks_overlay_folds_total",
                "Walk-index layer views whose overlay passed the fold share and were folded into a fresh base",
            ),
            storage_heap_bytes: reg.gauge(
                "rwd_storage_heap_bytes",
                "Heap-owned walk-index column bytes across the process",
            ),
            storage_mapped_bytes: reg.gauge(
                "rwd_storage_mapped_bytes",
                "Memory-mapped (zero-copy) walk-index column bytes across the process",
            ),
        }
    })
}
