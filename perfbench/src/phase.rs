//! The closed-loop load phase shared by every workload.
//!
//! One load thread issues a request, waits for its outcomes, and issues
//! the next. Throughput is ticks over the whole timed phase and latency
//! quantiles come from every request in it: the reference host's speed
//! drifts between levels over seconds, and whole-phase figures average
//! those levels where per-slice medians would pick one. The phase is
//! cut into slices; on untraced runs an untimed gap follows every slice
//! but the last, so the timed seconds are spread over a longer stretch
//! of the host's drift and a run averages more of its levels. On traced
//! runs the phase is split in half without gaps: the first half runs
//! untraced and is the reference for `trace.overhead`, the second
//! records spans and thread counters.

use std::time::{Duration, Instant};

use awsad_runtime::RuntimeMetrics;

use crate::procstat::{peak_rss_mib, LayerTimes, TaskLedger};
use crate::stats::{quantile_sorted, LatHist};
use crate::trace::Tracer;

/// One completed request.
#[derive(Debug, Clone, Copy)]
pub struct Done {
    /// Ticks whose outcomes reached the caller.
    pub ticks: u64,
    /// From handing the request to the system to holding its last
    /// outcome, ns.
    pub latency_ns: u64,
}

/// Counters the program already exports, read between slices.
#[derive(Debug, Clone, Copy)]
pub struct Counters {
    /// Engine counters, merged over every engine of the workload.
    pub engine: RuntimeMetrics,
    /// Transport frames in plus out, summed over servers.
    pub frames: u64,
    /// `NetServer::partial_frame_resumes`.
    pub partial_resumes: u64,
    /// Σ `Replicator::delivered`.
    pub repl_delivered: u64,
    /// Σ `Replicator::dropped`.
    pub repl_dropped: u64,
}

impl Default for Counters {
    fn default() -> Self {
        Counters {
            engine: RuntimeMetrics::zero(),
            frames: 0,
            partial_resumes: 0,
            repl_delivered: 0,
            repl_dropped: 0,
        }
    }
}

/// A workload's load side.
pub trait Load {
    /// Completes the next closed-loop request.
    ///
    /// # Errors
    ///
    /// A failed call; the load records it for the gate and stops.
    fn next(&mut self, tracer: &mut Tracer) -> Result<Done, String>;

    /// The program's own counters right now.
    fn counters(&self) -> Counters;

    /// Completes every request still in flight, checked but not timed,
    /// so none spans a gap; the next [`Load::next`] refills the loop.
    ///
    /// # Errors
    ///
    /// A failed call.
    fn settle(&mut self) -> Result<(), String> {
        Ok(())
    }
}

/// Phase timing.
#[derive(Debug, Clone, Copy)]
pub struct PhaseConfig {
    /// Untimed warm-up before the first timed request, s.
    pub warmup_s: f64,
    /// Timed length, s (split in half on traced runs).
    pub seconds: f64,
    /// Target slice length, s.
    pub slice_s: f64,
    /// Whether the second half is traced. Untraced runs have a gap after
    /// every slice but the last; traced runs have none.
    pub trace: bool,
    /// Untimed (but checked) load after each gap, s, so the next slice
    /// starts warm.
    pub rewarm_s: f64,
}

/// One slice of the timed phase.
#[derive(Debug, Clone, Default)]
pub struct Slice {
    /// Whether spans and thread counters were recorded.
    pub traced: bool,
    /// Measured length, s.
    pub secs: f64,
    /// Ticks completed.
    pub ticks: u64,
    /// Requests completed.
    pub requests: u64,
    /// Median request latency in the slice, us.
    pub p50_us: f64,
    /// 90th-percentile request latency in the slice, us.
    pub p90_us: f64,
}

impl Slice {
    /// Ticks per second.
    pub fn rate(&self) -> f64 {
        self.ticks as f64 / self.secs
    }
}

/// What the traced half measured.
#[derive(Debug, Clone, Default)]
pub struct Traced {
    /// Ticks completed while traced.
    pub ticks: u64,
    /// Requests completed while traced.
    pub requests: u64,
    /// Thread counters per layer.
    pub layers: LayerTimes,
    /// Program counters at the start of the traced half.
    pub before: Counters,
    /// Program counters at its end.
    pub after: Counters,
}

/// The phase's results.
#[derive(Debug, Clone)]
pub struct PhaseResult {
    /// Every timed slice in order.
    pub slices: Vec<Slice>,
    /// The traced half, on traced runs.
    pub traced: Option<Traced>,
    /// Peak resident set at the end of the untraced timed part, MiB.
    pub peak_rss_mib: f64,
    /// Request latencies of the untraced timed part.
    pub latency: LatHist,
    /// Requests completed during warm-up and re-warm-ups.
    pub warmup_requests: u64,
}

impl Default for PhaseResult {
    fn default() -> Self {
        PhaseResult {
            slices: Vec::new(),
            traced: None,
            peak_rss_mib: 0.0,
            latency: LatHist::default(),
            warmup_requests: 0,
        }
    }
}

/// Runs warm-up and the timed phase against `load`. In each gap of an
/// untraced phase the load settles, `gap` runs while nothing is timed,
/// and the load re-warms for [`PhaseConfig::rewarm_s`].
///
/// # Errors
///
/// The first failed request, or the first error of `gap`.
pub fn run_phase(
    load: &mut dyn Load,
    cfg: &PhaseConfig,
    tracer: &mut Tracer,
    gap: &mut dyn FnMut() -> Result<(), String>,
) -> Result<PhaseResult, String> {
    let mut out = PhaseResult::default();
    warm(load, tracer, cfg.warmup_s, &mut out)?;

    let parts: &[(bool, f64)] = if cfg.trace {
        &[(false, cfg.seconds / 2.0), (true, cfg.seconds / 2.0)]
    } else {
        &[(false, cfg.seconds)]
    };
    for &(traced, secs) in parts {
        let n = ((secs / cfg.slice_s).round() as usize).max(1);
        let slice_len = Duration::from_secs_f64(secs / n as f64);
        let mut ledger = traced.then(TaskLedger::start);
        let before = if traced {
            load.counters()
        } else {
            Counters::default()
        };
        tracer.set_on(traced);
        let gaps = if cfg.trace { 0 } else { n - 1 };
        let mut traced_totals = Traced::default();
        let mut lat_ns: Vec<f64> = Vec::new();
        for i in 1..=n {
            let start = Instant::now();
            let end = start + slice_len;
            let mut slice = Slice {
                traced,
                ..Slice::default()
            };
            while Instant::now() < end {
                let done = load.next(tracer)?;
                slice.ticks += done.ticks;
                slice.requests += 1;
                lat_ns.push(done.latency_ns as f64);
                if !traced {
                    out.latency.record(done.latency_ns);
                }
            }
            slice.secs = start.elapsed().as_secs_f64();
            lat_ns.sort_by(f64::total_cmp);
            slice.p50_us = quantile_sorted(&lat_ns, 0.5) / 1e3;
            slice.p90_us = quantile_sorted(&lat_ns, 0.9) / 1e3;
            lat_ns.clear();
            if let Some(ledger) = ledger.as_mut() {
                ledger.sample();
            }
            traced_totals.ticks += slice.ticks;
            traced_totals.requests += slice.requests;
            out.slices.push(slice);
            if i <= gaps {
                load.settle()?;
                gap()?;
                warm(load, tracer, cfg.rewarm_s, &mut out)?;
            }
        }
        tracer.set_on(false);
        if traced {
            traced_totals.before = before;
            traced_totals.after = load.counters();
            traced_totals.layers = ledger.expect("traced part has a ledger").finish();
            out.traced = Some(traced_totals);
        } else {
            out.peak_rss_mib = peak_rss_mib();
        }
    }
    Ok(out)
}

/// Untimed (but checked) load for `secs`.
fn warm(
    load: &mut dyn Load,
    tracer: &mut Tracer,
    secs: f64,
    out: &mut PhaseResult,
) -> Result<(), String> {
    let end = Instant::now() + Duration::from_secs_f64(secs);
    while Instant::now() < end {
        load.next(tracer)?;
        out.warmup_requests += 1;
    }
    Ok(())
}
