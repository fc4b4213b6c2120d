//! Service observability: lock-free counters and histograms updated on the
//! serving hot path, snapshotted into an immutable [`ServiceStats`].
//!
//! Everything here is `AtomicU64` with relaxed ordering — the counters are
//! monotonic telemetry, not synchronization, and a snapshot is allowed to
//! be *torn* across counters (e.g. `admitted` read just before a concurrent
//! request bumps `completed`). What must never happen is a counter update
//! slowing the batch loop down, so there are no locks anywhere in this
//! module.

use sato::ArtifactMeta;
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};

/// Number of log₂ latency buckets: bucket `i` covers `[2^i, 2^(i+1))` µs,
/// so 40 buckets span 1 µs to ~18 minutes.
pub const LATENCY_BUCKETS: usize = 40;

/// Number of batch-fill buckets: deciles of the configured target
/// `batch_cols` (bucket 10 = filled to or beyond the target — a batch can
/// overshoot when a multi-column table lands on the boundary).
pub const FILL_BUCKETS: usize = 11;

/// Log₂-bucketed latency histogram over microseconds.
pub(crate) struct LatencyHistogram {
    buckets: [AtomicU64; LATENCY_BUCKETS],
    sum_us: AtomicU64,
    max_us: AtomicU64,
}

impl LatencyHistogram {
    pub(crate) fn new() -> Self {
        LatencyHistogram {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            sum_us: AtomicU64::new(0),
            max_us: AtomicU64::new(0),
        }
    }

    pub(crate) fn record(&self, us: u64) {
        let idx = (63 - us.max(1).leading_zeros() as usize).min(LATENCY_BUCKETS - 1);
        self.buckets[idx].fetch_add(1, Relaxed);
        self.sum_us.fetch_add(us, Relaxed);
        self.max_us.fetch_max(us, Relaxed);
    }

    pub(crate) fn snapshot(&self) -> LatencySnapshot {
        LatencySnapshot {
            buckets: std::array::from_fn(|i| self.buckets[i].load(Relaxed)),
            sum_us: self.sum_us.load(Relaxed),
            max_us: self.max_us.load(Relaxed),
        }
    }
}

/// An immutable copy of the service's internal latency histogram, with
/// percentile estimation.
#[derive(Debug, Clone, PartialEq)]
pub struct LatencySnapshot {
    /// Per-bucket sample counts (bucket `i` covers `[2^i, 2^(i+1))` µs).
    pub buckets: [u64; LATENCY_BUCKETS],
    /// Sum of all recorded latencies in µs (for the mean).
    pub sum_us: u64,
    /// Largest recorded latency in µs.
    pub max_us: u64,
}

impl LatencySnapshot {
    /// Total recorded samples.
    pub fn count(&self) -> u64 {
        self.buckets.iter().sum()
    }

    /// Mean latency in µs (0 when empty).
    pub fn mean_us(&self) -> f64 {
        let n = self.count();
        if n == 0 {
            0.0
        } else {
            self.sum_us as f64 / n as f64
        }
    }

    /// Estimated `q`-quantile (`0.0 ..= 1.0`) in µs: the bucket holding the
    /// target rank is found by cumulative count and the value interpolated
    /// linearly inside it. Within a factor of two of the true quantile by
    /// construction; 0 when the histogram is empty.
    pub fn quantile_us(&self, q: f64) -> f64 {
        let n = self.count();
        if n == 0 {
            return 0.0;
        }
        let rank = (q.clamp(0.0, 1.0) * n as f64).ceil().max(1.0) as u64;
        let mut cum = 0u64;
        for (i, &count) in self.buckets.iter().enumerate() {
            if count == 0 {
                continue;
            }
            if cum + count >= rank {
                let lower = (1u64 << i) as f64;
                let upper = lower * 2.0;
                let into = (rank - cum) as f64 / count as f64;
                return (lower + into * (upper - lower)).min(self.max_us.max(1) as f64);
            }
            cum += count;
        }
        self.max_us as f64
    }
}

/// The service's shared counter block (one per [`SatoService`]).
///
/// [`SatoService`]: crate::SatoService
pub(crate) struct StatsCell {
    pub(crate) admitted: AtomicU64,
    pub(crate) rejected: AtomicU64,
    pub(crate) expired: AtomicU64,
    pub(crate) completed: AtomicU64,
    pub(crate) swaps: AtomicU64,
    pub(crate) swap_rollbacks: AtomicU64,
    pub(crate) batches: AtomicU64,
    pub(crate) batched_columns: AtomicU64,
    pub(crate) rounds: AtomicU64,
    pub(crate) worker_restarts: AtomicU64,
    pub(crate) quarantined: AtomicU64,
    pub(crate) indexed_columns: AtomicU64,
    pub(crate) index_rollbacks: AtomicU64,
    pub(crate) topic_memo_hits: AtomicU64,
    pub(crate) topic_memo_misses: AtomicU64,
    /// µs since service start at the worker's last liveness beat.
    pub(crate) heartbeat_us: AtomicU64,
    pub(crate) fill: [AtomicU64; FILL_BUCKETS],
    pub(crate) latency: LatencyHistogram,
}

impl StatsCell {
    pub(crate) fn new() -> Self {
        StatsCell {
            admitted: AtomicU64::new(0),
            rejected: AtomicU64::new(0),
            expired: AtomicU64::new(0),
            completed: AtomicU64::new(0),
            swaps: AtomicU64::new(0),
            swap_rollbacks: AtomicU64::new(0),
            batches: AtomicU64::new(0),
            batched_columns: AtomicU64::new(0),
            rounds: AtomicU64::new(0),
            worker_restarts: AtomicU64::new(0),
            quarantined: AtomicU64::new(0),
            indexed_columns: AtomicU64::new(0),
            index_rollbacks: AtomicU64::new(0),
            topic_memo_hits: AtomicU64::new(0),
            topic_memo_misses: AtomicU64::new(0),
            heartbeat_us: AtomicU64::new(0),
            fill: std::array::from_fn(|_| AtomicU64::new(0)),
            latency: LatencyHistogram::new(),
        }
    }

    /// Record a worker liveness beat, `us` microseconds after service
    /// start. Monotonic via `fetch_max`: a stalled clock read from a
    /// just-restarted worker can never move the heartbeat backwards.
    pub(crate) fn beat(&self, us: u64) {
        self.heartbeat_us.fetch_max(us, Relaxed);
    }

    /// Record one formed micro-batch of `cols` columns against the
    /// configured target.
    pub(crate) fn record_batch(&self, cols: usize, target: usize) {
        self.batches.fetch_add(1, Relaxed);
        self.batched_columns.fetch_add(cols as u64, Relaxed);
        let decile = (cols * 10 / target.max(1)).min(FILL_BUCKETS - 1);
        self.fill[decile].fetch_add(1, Relaxed);
    }

    /// Fold in one micro-batch's topic-memo hits and misses.
    pub(crate) fn record_topic_memo(&self, hits: u64, misses: u64) {
        self.topic_memo_hits.fetch_add(hits, Relaxed);
        self.topic_memo_misses.fetch_add(misses, Relaxed);
    }
}

/// A point-in-time snapshot of a running service's counters, returned by
/// [`SatoService::stats`]. Counters are cumulative since the service
/// started; the snapshot may be torn across counters (each counter is
/// individually consistent, their sum-relations only eventually so).
///
/// [`SatoService::stats`]: crate::SatoService::stats
#[derive(Debug, Clone, PartialEq)]
pub struct ServiceStats {
    /// Requests accepted into the queue.
    pub admitted: u64,
    /// Requests refused at admission because the queue was at depth.
    pub rejected: u64,
    /// Requests dropped at batch formation because their deadline had
    /// passed (they never reached the network).
    pub expired: u64,
    /// Requests answered with predictions.
    pub completed: u64,
    /// Artifact hot-swaps performed.
    pub swaps: u64,
    /// Hot-swap attempts rejected before the `Arc` swap — unreadable or
    /// corrupt artifact file, or a candidate that failed canary
    /// validation. The incumbent artifact kept serving each time.
    pub swap_rollbacks: u64,
    /// Micro-batches run through the network.
    pub batches: u64,
    /// Total columns across all micro-batches.
    pub batched_columns: u64,
    /// Batch-formation rounds the worker has completed pulling from the
    /// queue (the supervisor reads this as its progress signal).
    pub rounds: u64,
    /// Times the supervisor restarted a batcher worker that died to a
    /// panic escaping round containment.
    pub worker_restarts: u64,
    /// Requests failed with [`ServeError::Poisoned`] after quarantine
    /// bisection isolated them as the culprit of a panicking round.
    ///
    /// [`ServeError::Poisoned`]: crate::ServeError::Poisoned
    pub quarantined: u64,
    /// Columns inserted into the annotate-time ANN index (opt-in via
    /// [`ServiceConfig::index_on_annotate`]; idempotent re-inserts of an
    /// already-indexed column are not counted).
    ///
    /// [`ServiceConfig::index_on_annotate`]: crate::ServiceConfig::index_on_annotate
    pub indexed_columns: u64,
    /// Index operations rejected and rolled back: a
    /// [`SatoService::load_index`] candidate that failed to parse,
    /// checksum or match the serving artifact (the incumbent index kept
    /// serving), or an indexing pass that panicked mid-insert and dropped
    /// the possibly-torn index (it rebuilds from subsequent traffic).
    ///
    /// [`SatoService::load_index`]: crate::SatoService::load_index
    pub index_rollbacks: u64,
    /// Tables whose topic vector the worker took from its topic memo
    /// (see [`ServiceConfig::topic_memo_capacity`]) instead of running LDA
    /// inference.
    ///
    /// [`ServiceConfig::topic_memo_capacity`]: crate::ServiceConfig::topic_memo_capacity
    pub topic_memo_hits: u64,
    /// Tables of topic-aware artifacts whose topic vector the worker
    /// estimated while its topic memo was on.
    pub topic_memo_misses: u64,
    /// Age of the worker's last liveness heartbeat in µs at snapshot time.
    /// The worker beats at least every ~100 ms while alive (even idle or
    /// paused); a large value means the worker is stalled or gone.
    pub heartbeat_age_us: u64,
    /// Requests currently queued (instantaneous, not cumulative).
    pub queue_len: usize,
    /// Identity of the artifact currently serving.
    pub artifact: ArtifactMeta,
    /// Batch-fill histogram: bucket `i < 10` counts batches filled to
    /// `[i·10 %, (i+1)·10 %)` of the target `batch_cols`; bucket 10 counts
    /// batches at or beyond the target.
    pub batch_fill_deciles: [u64; FILL_BUCKETS],
    /// Per-request latency histogram (submission → response).
    pub latency: LatencySnapshot,
}

impl ServiceStats {
    /// Mean columns per formed micro-batch (0 when no batch has run).
    pub fn mean_batch_fill_cols(&self) -> f64 {
        if self.batches == 0 {
            0.0
        } else {
            self.batched_columns as f64 / self.batches as f64
        }
    }

    /// Median request latency in µs (estimated from the histogram).
    pub fn p50_us(&self) -> f64 {
        self.latency.quantile_us(0.50)
    }

    /// 99th-percentile request latency in µs (estimated from the histogram).
    pub fn p99_us(&self) -> f64 {
        self.latency.quantile_us(0.99)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn latency_histogram_buckets_and_quantiles() {
        let h = LatencyHistogram::new();
        assert_eq!(h.snapshot().quantile_us(0.5), 0.0);
        // 0 µs clamps into the first bucket instead of shifting out of range.
        h.record(0);
        h.record(1);
        for _ in 0..98 {
            h.record(1000);
        }
        let snap = h.snapshot();
        assert_eq!(snap.count(), 100);
        assert_eq!(snap.max_us, 1000);
        // p50 and p99 land in the 1000 µs bucket [512, 1024), clamped to max.
        let p50 = snap.quantile_us(0.50);
        let p99 = snap.quantile_us(0.99);
        assert!((512.0..=1000.0).contains(&p50), "p50 {p50}");
        assert!((512.0..=1000.0).contains(&p99), "p99 {p99}");
        assert!(p50 <= p99);
        // p0 effectively the minimum bucket.
        assert!(snap.quantile_us(0.0) <= 2.0);
        assert!((snap.mean_us() - 980.01).abs() < 0.5);
    }

    #[test]
    fn batch_fill_deciles_clamp_at_target() {
        let cell = StatsCell::new();
        cell.record_batch(0, 64); // 0 %
        cell.record_batch(31, 64); // 40 %
        cell.record_batch(64, 64); // exactly full
        cell.record_batch(200, 64); // overshoot clamps into the full bucket
        let fill: Vec<u64> = cell.fill.iter().map(|b| b.load(Relaxed)).collect();
        assert_eq!(fill[0], 1);
        assert_eq!(fill[4], 1);
        assert_eq!(fill[10], 2);
        assert_eq!(cell.batches.load(Relaxed), 4);
        assert_eq!(cell.batched_columns.load(Relaxed), 295);
    }
}
