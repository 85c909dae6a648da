//! Cross-session batch-stepping throughput report and CI floor.
//!
//! Runs the same 64-session workload through the detection engine on a
//! single worker in two legs. Both run the engine's one drain, which
//! gathers co-pending ticks from every session; only the grouping
//! differs. The **ungrouped** leg (the engine default) steps each
//! session as a group of its own on the scalar kernels — the baseline
//! every earlier measurement used. The **grouped** leg sets
//! `cross_session_batch`, so same-plant sessions form one group and
//! each trace position steps as one SoA lane set. The legs' reps
//! alternate — ungrouped, grouped, ungrouped, grouped, … — so each
//! pair of reps sees the same host state, and the speedup is the
//! median of the per-pair ratios: drift between two back-to-back legs
//! can no longer move it. Emits `results/BENCH_batch.json` with every
//! pair's ratio, the median, and each leg's best rate.
//!
//! The workload is the regime the SoA path exists for: deadline
//! estimation dominating the per-tick budget. Each session runs an
//! 8-dimensional stable plant with re-estimation every tick and a
//! 128-step reachability horizon the trajectory never escapes, so
//! every tick pays a full-horizon walk. Ungrouped stepping walks each
//! session alone — 64 separate `A·x` chains per position, each
//! faulting its own session's precomputed drift/spread tables through
//! the cache; the batched walk advances all 64 lanes per horizon step
//! through one `A·X` kernel whose inner loop vectorizes across lanes
//! and reads one session's tables for the whole group.
//!
//! Two properties are enforced *in the binary* so CI fails loudly:
//!
//! * **bit-identity** — every session's outcome stream from the grouped
//!   leg must equal the ungrouped leg's, step for step;
//! * **the floor** — the median per-pair ratio of grouped to ungrouped
//!   throughput must be at least [`SPEEDUP_FLOOR`] at 64 sessions. The
//!   floor is deliberately below the typical measured speedup so
//!   scheduler noise does not flake CI, but far above 1.0 so a
//!   regression that quietly serializes the grouped path cannot land.

use std::time::Instant;

use awsad_bench::{write_json, Json};
use awsad_core::{AdaptiveDetector, AdaptiveStep, DataLogger, DetectorConfig};
use awsad_linalg::{Matrix, Vector};
use awsad_lti::LtiSystem;
use awsad_reach::{DeadlineEstimator, ReachConfig};
use awsad_runtime::{DetectionEngine, EngineConfig, RuntimeMetrics, Tick};
use awsad_sets::BoxSet;

/// Sessions per leg; the floor is stated at 64+ sessions.
const SESSIONS: usize = 64;
/// Ticks per session per rep.
const PER_SESSION: usize = 256;
/// Alternating ungrouped/grouped rep pairs; the gate reads the median
/// of their ratios.
const PAIRS: usize = 7;
/// Minimum median grouped/ungrouped throughput ratio before the binary
/// panics.
const SPEEDUP_FLOOR: f64 = 4.0;

/// Plant state dimension.
const DIM: usize = 8;
/// Reachability horizon: every tick's walk runs this many steps.
const HORIZON: usize = 512;

/// A stable 8-dimensional plant: contraction on the diagonal with a
/// nearest-neighbor coupling band, so the `A·x` chain is a real dense
/// walk rather than elementwise decay.
fn plant() -> LtiSystem {
    let mut rows = vec![vec![0.0f64; DIM]; DIM];
    for (i, row) in rows.iter_mut().enumerate() {
        row[i] = 0.96;
        if i + 1 < DIM {
            row[i + 1] = 0.02;
        }
        if i > 0 {
            row[i - 1] = -0.02;
        }
    }
    let row_refs: Vec<&[f64]> = rows.iter().map(|r| r.as_slice()).collect();
    let a = Matrix::from_rows(&row_refs).unwrap();
    LtiSystem::new_discrete_fully_observable(a, Matrix::identity(DIM), 0.02).unwrap()
}

fn session(sys: &LtiSystem) -> (DataLogger, AdaptiveDetector) {
    // Tight actuation, roomy safe set: the reach tube stays contained
    // for the whole horizon, so deadlines resolve Beyond and every
    // walk runs all HORIZON steps — the worst-case (and steady-state
    // healthy) estimation cost.
    let reach = ReachConfig::new(
        BoxSet::from_bounds(&[-0.1; DIM], &[0.1; DIM]).unwrap(),
        0.0,
        BoxSet::from_bounds(&[-50.0; DIM], &[50.0; DIM]).unwrap(),
        HORIZON,
    )
    .unwrap();
    let est = DeadlineEstimator::new(sys.a(), sys.b(), reach).unwrap();
    let cfg = DetectorConfig::new(Vector::from_slice(&[1e3; DIM]), 16).unwrap();
    let logger = DataLogger::new(sys.clone(), 16);
    let mut det = AdaptiveDetector::new(cfg, est).unwrap();
    det.set_reestimation_period(1);
    (logger, det)
}

struct RepReport {
    rate: f64,
    streams: Vec<Vec<AdaptiveStep>>,
    metrics: RuntimeMetrics,
}

/// One timed rep of one leg: a fresh engine, every session fed the
/// trace, drained.
fn run_rep(config: &EngineConfig, sys: &LtiSystem, trace: &[Tick]) -> RepReport {
    let engine = DetectionEngine::new(config.clone());
    let sessions: Vec<_> = (0..SESSIONS)
        .map(|_| {
            let (logger, detector) = session(sys);
            engine.add_session(logger, detector)
        })
        .collect();
    let start = Instant::now();
    // Round-robin: position p of every session is queued before
    // position p+1 of any, so the grouped leg's gather always finds
    // co-pending same-geometry ticks to group into SoA lanes.
    for t in 0..PER_SESSION {
        let tick = &trace[t % trace.len()];
        for (session, _) in &sessions {
            session.submit(tick.clone()).unwrap();
        }
    }
    engine.drain();
    let elapsed = start.elapsed().as_secs_f64();
    RepReport {
        rate: (SESSIONS * PER_SESSION) as f64 / elapsed,
        streams: sessions
            .iter()
            .map(|(_, outcomes)| outcomes.try_iter().map(|o| o.step).collect())
            .collect(),
        metrics: engine.metrics(),
    }
}

/// Every grouped rep's streams must equal the ungrouped reference,
/// session by session, step for step, and the rep must actually have
/// taken the vectorized path.
fn assert_identical(ungrouped: &RepReport, grouped: &RepReport) {
    assert_eq!(ungrouped.streams.len(), grouped.streams.len());
    for (i, (u, g)) in ungrouped.streams.iter().zip(&grouped.streams).enumerate() {
        assert_eq!(
            u.len(),
            PER_SESSION,
            "session {i}: ungrouped stream truncated"
        );
        assert_eq!(
            u, g,
            "session {i}: grouped stream diverged from ungrouped stepping"
        );
    }
    assert!(
        grouped.metrics.batch_ticks > 0,
        "grouped leg never took the vectorized path"
    );
}

fn median(values: &[f64]) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

fn main() {
    let sys = plant();
    let trace: Vec<Tick> = (0..16)
        .map(|t| {
            let estimate = Vector::from_slice(&std::array::from_fn::<f64, DIM, _>(|d| {
                0.3 + 0.01 * ((t * 3 + d) % 7) as f64
            }));
            Tick {
                estimate,
                input: Vector::zeros(sys.input_dim()),
            }
        })
        .collect();

    let ungrouped_config = EngineConfig {
        workers: 1,
        queue_capacity: 128,
        ..EngineConfig::default()
    };
    let grouped_config = EngineConfig {
        cross_session_batch: true,
        drain_batch: 64,
        ..ungrouped_config.clone()
    };
    let mut ratios = Vec::with_capacity(PAIRS);
    let (mut ungrouped_best, mut grouped_best) = (0.0f64, 0.0f64);
    let mut last = None;
    for _ in 0..PAIRS {
        let ungrouped = run_rep(&ungrouped_config, &sys, &trace);
        let grouped = run_rep(&grouped_config, &sys, &trace);
        assert_identical(&ungrouped, &grouped);
        ratios.push(grouped.rate / ungrouped.rate);
        ungrouped_best = ungrouped_best.max(ungrouped.rate);
        grouped_best = grouped_best.max(grouped.rate);
        last = Some((ungrouped, grouped));
    }
    let (ungrouped, grouped) = last.expect("at least one pair");
    let speedup = median(&ratios);
    println!(
        "ungrouped {ungrouped_best:>12.0} ticks/s best  (1 worker, {SESSIONS} sessions, detect mean {:.0} ns, log mean {:.0} ns)",
        ungrouped.metrics.detect_latency.mean_ns(),
        ungrouped.metrics.log_latency.mean_ns()
    );
    println!(
        "grouped   {grouped_best:>12.0} ticks/s best  (batch_ticks={}, lane hwm={}, detect mean {:.0} ns, log mean {:.0} ns)",
        grouped.metrics.batch_ticks,
        grouped.metrics.batch_sessions_hwm,
        grouped.metrics.detect_latency.mean_ns(),
        grouped.metrics.log_latency.mean_ns()
    );
    let shown: Vec<String> = ratios.iter().map(|r| format!("{r:.2}")).collect();
    println!(
        "speedup   {speedup:>12.2}x  median of {PAIRS} alternating pairs [{}] (floor {SPEEDUP_FLOOR}x)",
        shown.join(", ")
    );

    let report = Json::Obj(vec![
        ("bench".into(), Json::str("batch_throughput")),
        ("model".into(), Json::str("coupled-contraction-8d")),
        ("state_dim".into(), Json::Int(DIM as u64)),
        ("horizon".into(), Json::Int(HORIZON as u64)),
        ("sessions".into(), Json::Int(SESSIONS as u64)),
        (
            "ticks_per_config".into(),
            Json::Int((SESSIONS * PER_SESSION) as u64),
        ),
        ("pairs".into(), Json::Int(PAIRS as u64)),
        ("ungrouped_ticks_per_sec".into(), Json::Num(ungrouped_best)),
        ("grouped_ticks_per_sec".into(), Json::Num(grouped_best)),
        (
            "pair_speedups".into(),
            Json::Arr(ratios.iter().map(|&r| Json::Num(r)).collect()),
        ),
        ("speedup".into(), Json::Num(speedup)),
        ("speedup_floor".into(), Json::Num(SPEEDUP_FLOOR)),
        ("batch_ticks".into(), Json::Int(grouped.metrics.batch_ticks)),
        (
            "batch_sessions_hwm".into(),
            Json::Int(grouped.metrics.batch_sessions_hwm),
        ),
    ]);
    let path = write_json("BENCH_batch.json", &report);
    println!("wrote {}", path.display());

    assert!(
        speedup >= SPEEDUP_FLOOR,
        "median grouped/ungrouped throughput ratio {speedup:.2}x is below the \
         {SPEEDUP_FLOOR}x floor over the ungrouped single-core baseline"
    );
}
