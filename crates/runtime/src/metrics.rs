use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

/// Number of fixed latency buckets per stage histogram.
pub const LATENCY_BUCKETS: usize = 24;

/// Upper bound (inclusive) of latency bucket `i`, in nanoseconds.
///
/// Buckets are powers of two starting at 128 ns: bucket 0 holds
/// `(0, 128]` ns, bucket 1 `(128, 256]` ns, …; samples beyond the
/// last bound (≈ 1 s) land in the explicit overflow bucket, not in
/// bucket `LATENCY_BUCKETS - 1`.
pub fn bucket_bound_ns(i: usize) -> u64 {
    128u64 << i.min(LATENCY_BUCKETS - 1)
}

/// The finite bucket holding `ns`, or `None` when the sample exceeds
/// the last bucket bound and belongs in the overflow bucket.
fn bucket_index(ns: u64) -> Option<usize> {
    let mut idx = 0;
    while ns > bucket_bound_ns(idx) {
        if idx == LATENCY_BUCKETS - 1 {
            return None;
        }
        idx += 1;
    }
    Some(idx)
}

/// Lock-free accumulation side of one stage histogram.
#[derive(Debug, Default)]
pub(crate) struct HistInner {
    buckets: [AtomicU64; LATENCY_BUCKETS],
    overflow: AtomicU64,
    count: AtomicU64,
    sum_ns: AtomicU64,
}

impl HistInner {
    /// Records one sample: the reference [`HistInner::record_n`] is
    /// tested against.
    #[cfg(test)]
    pub(crate) fn record(&self, elapsed: Duration) {
        let ns = elapsed.as_nanos().min(u64::MAX as u128) as u64;
        match bucket_index(ns) {
            Some(i) => self.buckets[i].fetch_add(1, Ordering::Relaxed),
            None => self.overflow.fetch_add(1, Ordering::Relaxed),
        };
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum_ns.fetch_add(ns, Ordering::Relaxed);
    }

    /// Records `n` samples of identical duration in one shot. The
    /// engine measures one elapsed span per stage for a whole tick
    /// position of a group and attributes the mean to each tick, so
    /// histogram counts and totals stay per tick at a fraction of the
    /// clock reads.
    pub(crate) fn record_n(&self, each: Duration, n: u64) {
        if n == 0 {
            return;
        }
        let ns = each.as_nanos().min(u64::MAX as u128) as u64;
        match bucket_index(ns) {
            Some(i) => self.buckets[i].fetch_add(n, Ordering::Relaxed),
            None => self.overflow.fetch_add(n, Ordering::Relaxed),
        };
        self.count.fetch_add(n, Ordering::Relaxed);
        self.sum_ns
            .fetch_add(ns.saturating_mul(n), Ordering::Relaxed);
    }

    fn snapshot(&self) -> LatencyHistogram {
        let mut buckets = [0u64; LATENCY_BUCKETS];
        for (slot, bucket) in buckets.iter_mut().zip(self.buckets.iter()) {
            *slot = bucket.load(Ordering::Relaxed);
        }
        LatencyHistogram {
            buckets,
            overflow: self.overflow.load(Ordering::Relaxed),
            count: self.count.load(Ordering::Relaxed),
            sum_ns: self.sum_ns.load(Ordering::Relaxed),
        }
    }
}

/// A point-in-time copy of one stage's latency distribution.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LatencyHistogram {
    /// Sample count per finite bucket; see [`bucket_bound_ns`].
    pub buckets: [u64; LATENCY_BUCKETS],
    /// Samples beyond the last finite bucket bound. Counting these
    /// separately keeps [`LatencyHistogram::quantile_bound_ns`]
    /// honest: a quantile landing here has **no** claimable finite
    /// bound, instead of being silently attributed to the last bucket.
    pub overflow: u64,
    /// Total samples recorded (finite buckets + overflow).
    pub count: u64,
    /// Sum of all recorded latencies in nanoseconds (actual values,
    /// including overflow samples, so the mean stays exact).
    pub sum_ns: u64,
}

impl LatencyHistogram {
    /// Mean latency in nanoseconds (`0` before any sample). Overflow
    /// samples contribute their actual value, not a bucket bound.
    pub fn mean_ns(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum_ns as f64 / self.count as f64
        }
    }

    /// Elementwise sum of two histograms — the distribution that
    /// would have resulted from recording both sample sets into one
    /// histogram. Bucket bounds are fixed and identical across all
    /// histograms, so the merge is exact (no re-bucketing error);
    /// counters saturate rather than wrap on overflow.
    pub fn merged(&self, other: &LatencyHistogram) -> LatencyHistogram {
        let mut buckets = [0u64; LATENCY_BUCKETS];
        for (slot, (a, b)) in buckets
            .iter_mut()
            .zip(self.buckets.iter().zip(other.buckets.iter()))
        {
            *slot = a.saturating_add(*b);
        }
        LatencyHistogram {
            buckets,
            overflow: self.overflow.saturating_add(other.overflow),
            count: self.count.saturating_add(other.count),
            sum_ns: self.sum_ns.saturating_add(other.sum_ns),
        }
    }

    /// Upper bucket bound below which at least `q` (in `[0, 1]`) of
    /// the samples fall — a conservative quantile estimate. `None`
    /// before any sample, and `None` when the requested quantile
    /// lands in the overflow bucket (no finite bound would be
    /// truthful there). `q = 0` reports the bound of the first
    /// non-empty bucket (the minimum's bucket), so it too is `None`
    /// when every sample overflowed.
    pub fn quantile_bound_ns(&self, q: f64) -> Option<u64> {
        if self.count == 0 {
            return None;
        }
        // At least one sample must be covered: a target of zero would
        // let the scan stop at bucket 0 even when that bucket — or
        // every finite bucket — is empty.
        let target = ((q.clamp(0.0, 1.0) * self.count as f64).ceil() as u64).max(1);
        let mut seen = 0;
        for (i, &n) in self.buckets.iter().enumerate() {
            seen += n;
            if seen >= target {
                return Some(bucket_bound_ns(i));
            }
        }
        None
    }
}

/// Shared atomic counters behind [`RuntimeMetrics`] snapshots.
#[derive(Debug, Default)]
pub(crate) struct MetricsInner {
    pub(crate) sessions_active: AtomicU64,
    pub(crate) ticks_submitted: AtomicU64,
    pub(crate) ticks_processed: AtomicU64,
    pub(crate) alarms_raised: AtomicU64,
    pub(crate) degraded_ticks: AtomicU64,
    pub(crate) queue_depth_high_water: AtomicU64,
    pub(crate) alloc_free_ticks: AtomicU64,
    pub(crate) batched_deadline_queries: AtomicU64,
    pub(crate) sessions_replicated: AtomicU64,
    pub(crate) failovers: AtomicU64,
    pub(crate) replication_lag_hwm: AtomicU64,
    pub(crate) batch_ticks: AtomicU64,
    pub(crate) batch_sessions_hwm: AtomicU64,
    pub(crate) recalibrations: AtomicU64,
    pub(crate) log_latency: HistInner,
    pub(crate) detect_latency: HistInner,
}

impl MetricsInner {
    pub(crate) fn snapshot(&self) -> RuntimeMetrics {
        RuntimeMetrics {
            sessions_active: self.sessions_active.load(Ordering::Relaxed),
            ticks_submitted: self.ticks_submitted.load(Ordering::Relaxed),
            ticks_processed: self.ticks_processed.load(Ordering::Relaxed),
            alarms_raised: self.alarms_raised.load(Ordering::Relaxed),
            degraded_ticks: self.degraded_ticks.load(Ordering::Relaxed),
            queue_depth_high_water: self.queue_depth_high_water.load(Ordering::Relaxed),
            alloc_free_ticks: self.alloc_free_ticks.load(Ordering::Relaxed),
            batched_deadline_queries: self.batched_deadline_queries.load(Ordering::Relaxed),
            sessions_replicated: self.sessions_replicated.load(Ordering::Relaxed),
            failovers: self.failovers.load(Ordering::Relaxed),
            replication_lag_hwm: self.replication_lag_hwm.load(Ordering::Relaxed),
            batch_ticks: self.batch_ticks.load(Ordering::Relaxed),
            batch_sessions_hwm: self.batch_sessions_hwm.load(Ordering::Relaxed),
            recalibrations: self.recalibrations.load(Ordering::Relaxed),
            log_latency: self.log_latency.snapshot(),
            detect_latency: self.detect_latency.snapshot(),
        }
    }
}

/// A consistent-enough point-in-time view of the engine's counters.
///
/// All counters accumulate monotonically over the engine's lifetime
/// (they are not reset by session churn). Individual fields are read
/// with relaxed atomics: totals can be transiently off by in-flight
/// ticks relative to each other, but each counter is exact.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RuntimeMetrics {
    /// Sessions currently open (added and not yet closed).
    pub sessions_active: u64,
    /// Ticks accepted into session queues so far.
    pub ticks_submitted: u64,
    /// Ticks fully processed (logged + detected) so far.
    pub ticks_processed: u64,
    /// Processed ticks whose detection step raised any alarm.
    pub alarms_raised: u64,
    /// Processed ticks that took the degraded (no-reachability-query)
    /// path under overload.
    pub degraded_ticks: u64,
    /// Highest number of ticks simultaneously queued across all
    /// sessions observed so far.
    pub queue_depth_high_water: u64,
    /// Non-degraded processed ticks whose detection stage completed
    /// without heap allocation (aged or cache-hit deadline, or the
    /// scratch-buffer reachability walk; no cache insert, no
    /// complementary alarms).
    pub alloc_free_ticks: u64,
    /// Deadline-cache entries inserted by *batched* (coalesced)
    /// reachability walks rather than per-tick misses.
    pub batched_deadline_queries: u64,
    /// Session snapshots accepted into this node's replica store by
    /// the cluster replication ingress (`ReplicateSnapshot` frames
    /// stored, stale generations excluded).
    pub sessions_replicated: u64,
    /// Replica promotions served by this node (`PromoteSession`
    /// frames that turned a stored replica into a live session).
    pub failovers: u64,
    /// Highest replication backlog observed: snapshots queued on the
    /// egress side but not yet acknowledged by the backup. A
    /// high-water mark, not a rate — it answers "how stale could the
    /// backup have been at the worst moment".
    pub replication_lag_hwm: u64,
    /// Non-degraded ticks the drain stepped as structure-of-arrays
    /// lanes of a `BatchPlan` group. On a grouped engine that is every
    /// non-degraded queued tick; `SessionHandle::step_batch` steps its
    /// batch on the scalar kernels and does not count here. Zero unless
    /// `EngineConfig::cross_session_batch` is on.
    pub batch_ticks: u64,
    /// Widest lane set a single batched detection step has covered —
    /// how many sessions actually vectorized together at the best
    /// moment. A high-water mark, merged by max like the other
    /// high-waters.
    pub batch_sessions_hwm: u64,
    /// Mid-stream plant-model swaps accepted by live sessions
    /// (`SessionHandle::recalibrate` calls that succeeded). Rejected
    /// attempts leave the session untouched and are counted at the
    /// transport layer, not here.
    pub recalibrations: u64,
    /// Latency distribution of the logging stage (`DataLogger::record`).
    pub log_latency: LatencyHistogram,
    /// Latency distribution of the detection stage
    /// (`AdaptiveDetector::step` / `step_degraded`).
    pub detect_latency: LatencyHistogram,
}

impl RuntimeMetrics {
    /// Ticks submitted but not yet processed at snapshot time.
    pub fn backlog(&self) -> u64 {
        self.ticks_submitted.saturating_sub(self.ticks_processed)
    }

    /// A snapshot with every counter zero — the identity for
    /// [`RuntimeMetrics::merged`], so a fleet of shards can fold
    /// their snapshots without special-casing the empty fleet.
    pub fn zero() -> RuntimeMetrics {
        MetricsInner::default().snapshot()
    }

    /// Combines two independent engine snapshots into the view a
    /// single engine doing both workloads would have reported.
    ///
    /// This is the aggregation contract for sharded deployments
    /// (one `DetectionEngine` per I/O shard): additive counters sum
    /// (saturating), `sessions_active` sums because a session lives
    /// on exactly one shard, `queue_depth_high_water` takes the max —
    /// per-shard high-waters are observed at unrelated instants, so
    /// their sum would claim a global depth that never existed, while
    /// the max is a depth some queue really reached — and latency
    /// histograms merge elementwise (exact; shared fixed bounds).
    pub fn merged(&self, other: &RuntimeMetrics) -> RuntimeMetrics {
        RuntimeMetrics {
            sessions_active: self.sessions_active.saturating_add(other.sessions_active),
            ticks_submitted: self.ticks_submitted.saturating_add(other.ticks_submitted),
            ticks_processed: self.ticks_processed.saturating_add(other.ticks_processed),
            alarms_raised: self.alarms_raised.saturating_add(other.alarms_raised),
            degraded_ticks: self.degraded_ticks.saturating_add(other.degraded_ticks),
            queue_depth_high_water: self
                .queue_depth_high_water
                .max(other.queue_depth_high_water),
            alloc_free_ticks: self.alloc_free_ticks.saturating_add(other.alloc_free_ticks),
            batched_deadline_queries: self
                .batched_deadline_queries
                .saturating_add(other.batched_deadline_queries),
            sessions_replicated: self
                .sessions_replicated
                .saturating_add(other.sessions_replicated),
            failovers: self.failovers.saturating_add(other.failovers),
            // Like queue_depth_high_water: per-shard high-waters are
            // from unrelated instants, so the max is the only honest
            // aggregate.
            replication_lag_hwm: self.replication_lag_hwm.max(other.replication_lag_hwm),
            batch_ticks: self.batch_ticks.saturating_add(other.batch_ticks),
            // A lane width some batched step really reached; sums
            // would claim widths that never existed.
            batch_sessions_hwm: self.batch_sessions_hwm.max(other.batch_sessions_hwm),
            recalibrations: self.recalibrations.saturating_add(other.recalibrations),
            log_latency: self.log_latency.merged(&other.log_latency),
            detect_latency: self.detect_latency.merged(&other.detect_latency),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_bounds_double() {
        assert_eq!(bucket_bound_ns(0), 128);
        assert_eq!(bucket_bound_ns(1), 256);
        assert_eq!(bucket_bound_ns(10), 128 << 10);
    }

    #[test]
    fn bucket_index_routes_oversized_samples_to_overflow() {
        assert_eq!(bucket_index(1), Some(0));
        assert_eq!(bucket_index(128), Some(0));
        assert_eq!(bucket_index(129), Some(1));
        let last = bucket_bound_ns(LATENCY_BUCKETS - 1);
        assert_eq!(bucket_index(last), Some(LATENCY_BUCKETS - 1));
        assert_eq!(bucket_index(last + 1), None);
        assert_eq!(bucket_index(u64::MAX), None);
    }

    #[test]
    fn histogram_records_and_summarizes() {
        let hist = HistInner::default();
        hist.record(Duration::from_nanos(100));
        hist.record(Duration::from_nanos(300));
        hist.record(Duration::from_micros(10));
        let snap = hist.snapshot();
        assert_eq!(snap.count, 3);
        assert_eq!(snap.sum_ns, 100 + 300 + 10_000);
        assert_eq!(snap.buckets.iter().sum::<u64>(), 3);
        assert!((snap.mean_ns() - (10_400.0 / 3.0)).abs() < 1e-9);
        // Median bound: two of three samples are <= 512 ns.
        assert_eq!(snap.quantile_bound_ns(0.5), Some(512));
        assert_eq!(snap.quantile_bound_ns(1.0), Some(16384));
    }

    #[test]
    fn saturated_histogram_stays_honest() {
        // Three fast samples plus one far beyond the last bucket
        // bound (~1.07 s): the big sample must land in the overflow
        // bucket, keep the mean exact, and poison only the quantiles
        // that actually reach into the overflow region.
        let hist = HistInner::default();
        let last_bound = bucket_bound_ns(LATENCY_BUCKETS - 1);
        for _ in 0..3 {
            hist.record(Duration::from_nanos(100));
        }
        hist.record(Duration::from_secs(10));
        let snap = hist.snapshot();
        assert_eq!(snap.count, 4);
        assert_eq!(snap.overflow, 1);
        assert_eq!(snap.buckets.iter().sum::<u64>(), 3);
        // Mean uses the actual 10 s value, not a clamped bound.
        let expected_mean = (3.0 * 100.0 + 10e9) / 4.0;
        assert!((snap.mean_ns() - expected_mean).abs() < 1e-6);
        // 75% of samples fall in bucket 0; the p75 bound is finite.
        assert_eq!(snap.quantile_bound_ns(0.75), Some(128));
        // The max reaches into overflow: no finite bound is truthful.
        assert_eq!(snap.quantile_bound_ns(1.0), None);
        // Sanity: the overflow threshold itself still counts as finite.
        let edge = HistInner::default();
        edge.record(Duration::from_nanos(last_bound));
        assert_eq!(edge.snapshot().overflow, 0);
        assert_eq!(edge.snapshot().quantile_bound_ns(1.0), Some(last_bound));
    }

    #[test]
    fn zero_quantile_reports_first_nonempty_bucket_or_none() {
        // Samples only in bucket 3 (129*2^2 < 1500 <= 128*2^4): the
        // minimum's bound is bucket 3's, not bucket 0's.
        let hist = HistInner::default();
        hist.record(Duration::from_nanos(1500));
        hist.record(Duration::from_nanos(1600));
        let snap = hist.snapshot();
        assert_eq!(snap.quantile_bound_ns(0.0), Some(2048));
        // Every sample in overflow: no finite bound exists for any
        // quantile, q = 0 included (the regression: it used to report
        // Some(128) off the empty bucket 0).
        let over = HistInner::default();
        over.record(Duration::from_secs(10));
        let snap = over.snapshot();
        assert_eq!(snap.quantile_bound_ns(0.0), None);
        assert_eq!(snap.quantile_bound_ns(1.0), None);
    }

    #[test]
    fn empty_histogram_has_no_quantile() {
        let snap = HistInner::default().snapshot();
        assert_eq!(snap.quantile_bound_ns(0.5), None);
        assert_eq!(snap.mean_ns(), 0.0);
    }

    #[test]
    fn record_n_equals_n_identical_records() {
        let (batched, looped) = (HistInner::default(), HistInner::default());
        batched.record_n(Duration::from_nanos(700), 5);
        batched.record_n(Duration::from_secs(10), 2); // overflow bucket
        batched.record_n(Duration::from_nanos(1), 0); // no-op
        for _ in 0..5 {
            looped.record(Duration::from_nanos(700));
        }
        for _ in 0..2 {
            looped.record(Duration::from_secs(10));
        }
        assert_eq!(batched.snapshot(), looped.snapshot());
    }

    #[test]
    fn batch_counters_merge_by_sum_and_hwm_by_max() {
        let (a, b) = (MetricsInner::default(), MetricsInner::default());
        a.batch_ticks.store(100, Ordering::Relaxed);
        a.batch_sessions_hwm.store(16, Ordering::Relaxed);
        a.recalibrations.store(2, Ordering::Relaxed);
        b.batch_ticks.store(50, Ordering::Relaxed);
        b.batch_sessions_hwm.store(9, Ordering::Relaxed);
        b.recalibrations.store(3, Ordering::Relaxed);
        let merged = a.snapshot().merged(&b.snapshot());
        assert_eq!(merged.batch_ticks, 150);
        assert_eq!(merged.batch_sessions_hwm, 16, "lane width is a high-water");
        assert_eq!(merged.recalibrations, 5, "model swaps sum across shards");
        assert_eq!(RuntimeMetrics::zero().merged(&merged), merged);
    }

    #[test]
    fn histogram_merge_equals_single_histogram_of_both_sample_sets() {
        let (a, b, both) = (
            HistInner::default(),
            HistInner::default(),
            HistInner::default(),
        );
        let left = [100u64, 1_500, 40_000];
        let right = [90u64, 300, 10_000_000_000]; // last one overflows
        for &ns in &left {
            a.record(Duration::from_nanos(ns));
            both.record(Duration::from_nanos(ns));
        }
        for &ns in &right {
            b.record(Duration::from_nanos(ns));
            both.record(Duration::from_nanos(ns));
        }
        let merged = a.snapshot().merged(&b.snapshot());
        assert_eq!(merged, both.snapshot());
        // Merging with an empty histogram is the identity.
        assert_eq!(merged.merged(&HistInner::default().snapshot()), merged);
    }

    #[test]
    fn runtime_metrics_merge_sums_counters_and_maxes_high_water() {
        let (a, b) = (MetricsInner::default(), MetricsInner::default());
        a.sessions_active.store(3, Ordering::Relaxed);
        a.ticks_submitted.store(100, Ordering::Relaxed);
        a.ticks_processed.store(90, Ordering::Relaxed);
        a.queue_depth_high_water.store(7, Ordering::Relaxed);
        a.sessions_replicated.store(11, Ordering::Relaxed);
        a.failovers.store(1, Ordering::Relaxed);
        a.replication_lag_hwm.store(4, Ordering::Relaxed);
        a.log_latency.record(Duration::from_nanos(200));
        b.sessions_active.store(5, Ordering::Relaxed);
        b.ticks_submitted.store(40, Ordering::Relaxed);
        b.ticks_processed.store(40, Ordering::Relaxed);
        b.queue_depth_high_water.store(12, Ordering::Relaxed);
        b.alarms_raised.store(2, Ordering::Relaxed);
        b.sessions_replicated.store(9, Ordering::Relaxed);
        b.replication_lag_hwm.store(2, Ordering::Relaxed);
        let merged = a.snapshot().merged(&b.snapshot());
        assert_eq!(merged.sessions_active, 8);
        assert_eq!(merged.ticks_submitted, 140);
        assert_eq!(merged.backlog(), 10);
        assert_eq!(merged.alarms_raised, 2);
        assert_eq!(merged.queue_depth_high_water, 12);
        // Replication counters: totals sum, the lag high-water maxes
        // (two shards' worst backlogs are from unrelated instants).
        assert_eq!(merged.sessions_replicated, 20);
        assert_eq!(merged.failovers, 1);
        assert_eq!(merged.replication_lag_hwm, 4);
        assert_eq!(merged.log_latency.count, 1);
        // zero() is the fold identity and merge is symmetric.
        assert_eq!(RuntimeMetrics::zero().merged(&merged), merged);
        assert_eq!(b.snapshot().merged(&a.snapshot()), merged);
    }

    #[test]
    fn snapshot_copies_counters() {
        let inner = MetricsInner::default();
        inner.ticks_submitted.fetch_add(5, Ordering::Relaxed);
        inner.ticks_processed.fetch_add(3, Ordering::Relaxed);
        let snap = inner.snapshot();
        assert_eq!(snap.ticks_submitted, 5);
        assert_eq!(snap.backlog(), 2);
    }
}
