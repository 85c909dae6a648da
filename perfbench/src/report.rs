//! Metric catalogue, run record and result line.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::fs;
use std::path::Path;

/// One metric the benchmark reports.
#[derive(Debug, Clone, Copy)]
pub struct MetricDef {
    /// Name as printed.
    pub name: &'static str,
    /// Unit as printed.
    pub unit: &'static str,
    /// `lower` or `higher`.
    pub better: &'static str,
    /// End-to-end (untraced runs) or per-layer (traced runs).
    pub end_to_end: bool,
    /// How it is measured.
    pub about: &'static str,
}

const fn e2e(
    name: &'static str,
    unit: &'static str,
    better: &'static str,
    about: &'static str,
) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        end_to_end: true,
        about,
    }
}

const fn layer(
    name: &'static str,
    unit: &'static str,
    better: &'static str,
    about: &'static str,
) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        end_to_end: false,
        about,
    }
}

/// Every metric, end-to-end first. Per-layer metrics whose layer a
/// workload does not cross read 0 on that workload.
pub const METRICS: &[MetricDef] = &[
    e2e("setup_s", "s", "lower", "median over the set-ups of the windows before, in every gap of, and after the timed phase (servers up, connections made, every session opened; cluster: incl. first checkpoint)"),
    e2e("ticks_per_s", "ticks/s", "higher", "ticks whose outcome reached the caller / seconds of the timed phase"),
    e2e("latency_p50_us", "us", "lower", "median request latency over the timed phase (hand-off to last outcome in hand)"),
    e2e("latency_p90_us", "us", "lower", "90th-percentile request latency over the timed phase"),
    e2e("peak_rss_mib", "MiB", "lower", "VmHWM of the process at the end of the timed phase"),
    layer("runtime.worker_cpu_us_per_tick", "us", "lower", "schedstat run time of awsad-worker threads / ticks"),
    layer("runtime.worker_runq_wait_us_per_tick", "us", "lower", "schedstat run-queue wait of awsad-worker threads / ticks"),
    layer("runtime.worker_wakeups_per_tick", "count", "lower", "voluntary context switches of awsad-worker threads / ticks"),
    layer("net.shard_cpu_us_per_tick", "us", "lower", "schedstat run time of awsad-net-shard threads / ticks"),
    layer("net.shard_runq_wait_us_per_tick", "us", "lower", "schedstat run-queue wait of awsad-net-shard threads / ticks"),
    layer("net.shard_wakeups_per_tick", "count", "lower", "voluntary context switches of awsad-net-shard threads / ticks"),
    layer("serve.conn_cpu_us_per_tick", "us", "lower", "schedstat run time of awsad-serve-conn threads / ticks"),
    layer("serve.conn_runq_wait_us_per_tick", "us", "lower", "schedstat run-queue wait of awsad-serve-conn threads / ticks"),
    layer("serve.conn_wakeups_per_tick", "count", "lower", "voluntary context switches of awsad-serve-conn threads / ticks"),
    layer("cluster.replicator_cpu_us_per_tick", "us", "lower", "schedstat run time of awsad-replicator threads / ticks"),
    layer("cluster.replicator_runq_wait_us_per_tick", "us", "lower", "schedstat run-queue wait of awsad-replicator threads / ticks"),
    layer("bench.loadgen_cpu_us_per_tick", "us", "lower", "schedstat run time of the load thread (client libraries included; on fleet also its polling for outcomes) / ticks"),
    layer("reach.batch_walk_ns_per_lane", "ns", "lower", "deadline_batch_refs_with on each replayed fleet round's trusted states / lanes"),
    layer("reach.walk_ns", "ns", "lower", "per walked query in the replay: checked_deadline_with for per-tick walks, prewarm_deadline_cache time / entries for batched ones"),
    layer("reach.walks_per_tick", "ratio", "lower", "walked deadline queries (per-tick + batched prewarm entries) / ticks in the replay (exact)"),
    layer("reach.batched_walk_share", "ratio", "higher", "RuntimeMetrics batched_deadline_queries per processed tick over the traced half / the replay's walks per tick"),
    layer("reach.cache_hit_ratio", "ratio", "higher", "DeadlineCache hits / (hits + misses) in the replay, prewarm entries counted as misses as the cache counts them (exact)"),
    layer("core.batch_step_ns_per_lane", "ns", "lower", "BatchPlan::step_group over each replayed fleet round / lanes"),
    layer("core.step_ns", "ns", "lower", "AdaptiveDetector::step per tick in the scalar replay"),
    layer("core.record_ns", "ns", "lower", "DataLogger::record per tick in the scalar replay"),
    layer("core.alarm_ratio", "ratio", "lower", "ticks with any alarm / ticks (exact)"),
    layer("runtime.overhead_ns_per_tick", "ns", "lower", "worker CPU per tick minus the replay's record + prewarm + step (fleet: record + batch step) time per tick"),
    layer("runtime.submit_ns", "ns", "lower", "time in SessionHandle::submit per tick"),
    layer("runtime.detect_ns_mean", "ns", "lower", "RuntimeMetrics detect-stage histogram mean over the traced half"),
    layer("runtime.log_ns_mean", "ns", "lower", "RuntimeMetrics log-stage histogram mean over the traced half"),
    layer("runtime.batch_tick_ratio", "ratio", "higher", "RuntimeMetrics batch_ticks / ticks_processed over the traced half"),
    layer("runtime.lanes_hwm", "count", "higher", "RuntimeMetrics batch_sessions_hwm"),
    layer("runtime.queue_depth_hwm", "count", "lower", "RuntimeMetrics queue_depth_high_water"),
    layer("runtime.alloc_free_ratio", "ratio", "higher", "RuntimeMetrics alloc_free_ticks / ticks_processed over the traced half"),
    layer("serve.encode_ns_per_tick", "ns", "lower", "Frame::encode_with_corr of each replayed request and reply frame / ticks"),
    layer("serve.decode_ns_per_tick", "ns", "lower", "Frame::decode_enveloped of each replayed request and reply frame / ticks"),
    layer("serve.request_bytes_per_tick", "B", "lower", "encoded Tick request bytes incl. length prefix / ticks (exact)"),
    layer("serve.reply_bytes_per_tick", "B", "lower", "encoded TickOutcomes reply bytes incl. length prefix / ticks (exact)"),
    layer("net.frames_per_request", "count", "lower", "NetServer transport frames in + out / requests over the traced half (exact)"),
    layer("net.partial_frame_resumes", "count", "lower", "NetServer::partial_frame_resumes over the traced half (exact)"),
    layer("cluster.checkpoint_bytes", "B", "lower", "encoded SessionSnapshot frame of ClusterClient::checkpoint, mean over sessions (exact)"),
    layer("cluster.checkpoint_codec_ns", "ns", "lower", "encode + decode of that frame"),
    layer("cluster.frames_per_batch", "count", "lower", "shard transport frames in + out / batches over the traced half (exact)"),
    layer("cluster.replication_delivered_ratio", "ratio", "higher", "sum of Replicator::delivered / (delivered + dropped) over the traced half"),
    layer("cluster.replication_lag_hwm", "count", "lower", "RuntimeMetrics replication_lag_hwm, max over shards"),
    layer("process.cpu_us_per_tick", "us", "lower", "schedstat run time of every thread / ticks"),
    layer("process.ctx_switches_per_tick", "count", "lower", "voluntary + involuntary context switches of every thread / ticks"),
    layer("trace.overhead", "ratio", "higher", "ticks_per_s of the traced half / ticks_per_s of the untraced half of the same run"),
];

/// Metric values of one run, by name.
#[derive(Debug, Clone, Default)]
pub struct Values(pub BTreeMap<&'static str, f64>);

impl Values {
    /// Sets a metric (the name must be in [`METRICS`]).
    pub fn set(&mut self, name: &'static str, value: f64) {
        debug_assert!(
            METRICS.iter().any(|m| m.name == name),
            "unknown metric {name}"
        );
        self.0.insert(name, value);
    }

    /// A metric's value.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.get(name).copied()
    }

    /// Checks every metric of the chosen kind is present and finite.
    ///
    /// # Errors
    ///
    /// The first missing or non-finite metric.
    pub fn check(&self, end_to_end: bool) -> Result<(), String> {
        for m in METRICS.iter().filter(|m| m.end_to_end == end_to_end) {
            match self.get(m.name) {
                None => return Err(format!("metric {} missing", m.name)),
                Some(v) if !v.is_finite() => return Err(format!("metric {} is {v}", m.name)),
                Some(_) => {}
            }
        }
        Ok(())
    }

    /// The result line: `correct`, `attempted`, `failed` and the
    /// metrics of the chosen kind with their units.
    pub fn result_line(
        &self,
        end_to_end: bool,
        correct: bool,
        attempted: u64,
        failed: u64,
    ) -> String {
        let mut out = format!(
            "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{"
        );
        let mut first = true;
        for m in METRICS.iter().filter(|m| m.end_to_end == end_to_end) {
            let v = self.get(m.name).filter(|v| v.is_finite()).unwrap_or(0.0);
            if !first {
                out.push_str(", ");
            }
            first = false;
            let _ = write!(
                out,
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                json_num(v),
                m.unit
            );
        }
        out.push_str("}}");
        out
    }
}

/// A finite f64 in JSON, every digit kept.
pub fn json_num(v: f64) -> String {
    if v == v.trunc() && v.abs() < 1e15 {
        format!("{v:.1}")
    } else {
        format!("{v}")
    }
}

/// The metric catalogue as a table: name, unit, better, kind, how.
pub fn catalogue() -> String {
    let mut out = String::new();
    for m in METRICS {
        let kind = if m.end_to_end {
            "end_to_end"
        } else {
            "per_layer"
        };
        let _ = writeln!(
            out,
            "{:<42} {:<8} {:<7} {:<10} {}",
            m.name, m.unit, m.better, kind, m.about
        );
    }
    out
}

/// Host facts for the run record.
#[derive(Debug, Clone)]
pub struct Host {
    /// Commit of the checkout, or `unknown` outside a git checkout.
    pub commit: String,
    /// `available_parallelism`.
    pub nproc: usize,
    /// `/proc/cpuinfo` model name.
    pub cpu: String,
}

impl Host {
    /// Reads the host facts (no child processes).
    pub fn probe() -> Host {
        let cpu = fs::read_to_string("/proc/cpuinfo")
            .ok()
            .and_then(|s| {
                s.lines()
                    .find_map(|l| l.strip_prefix("model name"))
                    .map(|v| v.trim_start_matches([' ', '\t', ':']).trim().to_string())
            })
            .unwrap_or_else(|| "unknown".into());
        Host {
            commit: git_commit(Path::new(".git")).unwrap_or_else(|| "unknown".into()),
            nproc: std::thread::available_parallelism().map_or(1, |n| n.get()),
            cpu,
        }
    }
}

/// Resolves `HEAD` by reading the git directory directly.
fn git_commit(git: &Path) -> Option<String> {
    let head = fs::read_to_string(git.join("HEAD")).ok()?;
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return Some(head.to_string());
    };
    if let Ok(id) = fs::read_to_string(git.join(reference)) {
        return Some(id.trim().to_string());
    }
    fs::read_to_string(git.join("packed-refs"))
        .ok()?
        .lines()
        .find_map(|l| l.strip_suffix(reference).map(|id| id.trim().to_string()))
}
