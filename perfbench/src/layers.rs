//! The metric sets of the result line: the end-to-end metrics every
//! untraced run reports, and the per-layer metrics every traced run
//! reports (zero where a layer does not run on the workload).

use crate::trace::{LayerCounts, Tracer};
use crate::Metric;

/// End-to-end metrics, reported by every workload; see the README for what
/// each means on each workload.
pub struct EndToEnd {
    pub setup_s: f64,
    pub peak_rss_mb: f64,
    pub p50_ms: f64,
    pub p99_ms: f64,
    pub throughput_per_s: f64,
    pub quality: f64,
}

impl EndToEnd {
    pub fn metrics(&self) -> Vec<Metric> {
        vec![
            Metric {
                name: "setup_s",
                value: self.setup_s,
                unit: "s",
            },
            Metric {
                name: "peak_rss_mb",
                value: self.peak_rss_mb,
                unit: "MiB",
            },
            Metric {
                name: "p50_ms",
                value: self.p50_ms,
                unit: "ms",
            },
            Metric {
                name: "p99_ms",
                value: self.p99_ms,
                unit: "ms",
            },
            Metric {
                name: "throughput_per_s",
                value: self.throughput_per_s,
                unit: "1/s",
            },
            Metric {
                name: "quality",
                value: self.quality,
                unit: "share",
            },
        ]
    }
}

/// Per-layer metrics of a traced run. Times and counts are per pass over
/// the workload's input (see the README); `*_share` are fractions.
#[derive(Default)]
pub struct LayerMetrics {
    pub topic_busy_us: f64,
    pub topic_tables: f64,
    pub topic_tokens: f64,
    pub features_busy_us: f64,
    pub features_cols: f64,
    pub features_cells: f64,
    pub nn_busy_us: f64,
    pub nn_rows: f64,
    pub crf_busy_us: f64,
    pub crf_chains: f64,
    pub crf_chain_len_mean: f64,
    pub tabular_decode_us: f64,
    pub tabular_frames: f64,
    pub tabular_bytes: f64,
    pub core_predict_batch_us: f64,
    pub core_batches: f64,
    pub core_cols_per_batch: f64,
    pub core_unattributed_share: f64,
    pub core_artifact_load_us: f64,
    pub serve_submit_us: f64,
    pub serve_service_latency_us: f64,
    pub serve_batches: f64,
    pub serve_fill_cols_mean: f64,
    pub serve_rounds: f64,
    pub serve_rejected: f64,
    pub serve_expired: f64,
    pub serve_quarantined: f64,
    pub serve_worker_restarts: f64,
    pub serve_repeat_share: f64,
    pub serve_low_p50_ms: f64,
    pub serve_low_p99_ms: f64,
    pub serve_high_p50_ms: f64,
    pub serve_high_p99_ms: f64,
    pub index_insert_us: f64,
    pub index_inserts: f64,
    pub index_search_us: f64,
    pub index_exact_search_us: f64,
    pub index_save_us: f64,
    pub index_load_us: f64,
    pub index_sidecar_bytes: f64,
    pub gen_lag_p99_us: f64,
    pub speed_probe_ns: f64,
    pub trace_overhead_share: f64,
    pub fail_share: f64,
}

impl LayerMetrics {
    /// Fill the core/features/topic/nn/crf metrics from a layer replay:
    /// self times from `tracer`, counts from `counts`, both divided by
    /// `passes`.
    pub fn set_replay(&mut self, tracer: &Tracer, counts: &LayerCounts, passes: f64) {
        let self_us = tracer.self_time_us();
        let busy = |layer: &str| self_us.get(layer).copied().unwrap_or(0.0) / passes;
        let per = |count: u64| count as f64 / passes;
        self.topic_busy_us = busy("topic");
        self.topic_tables = per(counts.topic_tables);
        self.topic_tokens = per(counts.topic_tokens);
        self.features_busy_us = busy("features");
        self.features_cols = per(counts.feature_cols);
        self.features_cells = per(counts.feature_cells);
        self.nn_busy_us = busy("nn");
        self.nn_rows = per(counts.nn_rows);
        self.crf_busy_us = busy("crf");
        self.crf_chains = per(counts.crf_chains);
        self.crf_chain_len_mean = counts.crf_chain_cols as f64 / counts.crf_chains.max(1) as f64;
        self.core_predict_batch_us = busy("core");
        self.core_batches = per(counts.batches);
        self.core_cols_per_batch = counts.batch_cols as f64 / counts.batches.max(1) as f64;
        let replayed =
            self.topic_busy_us + self.features_busy_us + self.nn_busy_us + self.crf_busy_us;
        self.core_unattributed_share = if self.core_predict_batch_us > 0.0 {
            1.0 - replayed / self.core_predict_batch_us
        } else {
            0.0
        };
    }

    pub fn metrics(&self) -> Vec<Metric> {
        let m = |name, value, unit| Metric { name, value, unit };
        vec![
            m("topic.busy_us", self.topic_busy_us, "us"),
            m("topic.tables", self.topic_tables, "count"),
            m("topic.tokens", self.topic_tokens, "count"),
            m("features.busy_us", self.features_busy_us, "us"),
            m("features.cols", self.features_cols, "count"),
            m("features.cells", self.features_cells, "count"),
            m("nn.busy_us", self.nn_busy_us, "us"),
            m("nn.rows", self.nn_rows, "count"),
            m("crf.busy_us", self.crf_busy_us, "us"),
            m("crf.chains", self.crf_chains, "count"),
            m("crf.chain_len_mean", self.crf_chain_len_mean, "cols"),
            m("tabular.decode_us", self.tabular_decode_us, "us"),
            m("tabular.frames", self.tabular_frames, "count"),
            m("tabular.bytes", self.tabular_bytes, "bytes"),
            m("core.predict_batch_us", self.core_predict_batch_us, "us"),
            m("core.batches", self.core_batches, "count"),
            m("core.cols_per_batch", self.core_cols_per_batch, "cols"),
            m(
                "core.unattributed_share",
                self.core_unattributed_share,
                "share",
            ),
            m("core.artifact_load_us", self.core_artifact_load_us, "us"),
            m("serve.submit_us", self.serve_submit_us, "us"),
            m(
                "serve.service_latency_us",
                self.serve_service_latency_us,
                "us",
            ),
            m("serve.batches", self.serve_batches, "count"),
            m("serve.fill_cols_mean", self.serve_fill_cols_mean, "cols"),
            m("serve.rounds", self.serve_rounds, "count"),
            m("serve.rejected", self.serve_rejected, "count"),
            m("serve.expired", self.serve_expired, "count"),
            m("serve.quarantined", self.serve_quarantined, "count"),
            m("serve.worker_restarts", self.serve_worker_restarts, "count"),
            m("serve.repeat_share", self.serve_repeat_share, "share"),
            m("serve.low_p50_ms", self.serve_low_p50_ms, "ms"),
            m("serve.low_p99_ms", self.serve_low_p99_ms, "ms"),
            m("serve.high_p50_ms", self.serve_high_p50_ms, "ms"),
            m("serve.high_p99_ms", self.serve_high_p99_ms, "ms"),
            m("index.insert_us", self.index_insert_us, "us"),
            m("index.inserts", self.index_inserts, "count"),
            m("index.search_us", self.index_search_us, "us"),
            m("index.exact_search_us", self.index_exact_search_us, "us"),
            m("index.save_us", self.index_save_us, "us"),
            m("index.load_us", self.index_load_us, "us"),
            m("index.sidecar_bytes", self.index_sidecar_bytes, "bytes"),
            m("gen.lag_p99_us", self.gen_lag_p99_us, "us"),
            m("speed.probe_ns", self.speed_probe_ns, "ns"),
            m("trace.overhead_share", self.trace_overhead_share, "share"),
            m("fail_share", self.fail_share, "share"),
        ]
    }
}
