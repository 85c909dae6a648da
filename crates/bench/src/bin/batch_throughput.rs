//! Cross-session batch-stepping throughput report and CI floor.
//!
//! Runs the same 64-session workload through the detection engine on a
//! single worker in two legs: the scalar per-session drain (the
//! baseline every earlier PR measured) and `cross_session_batch`,
//! where the mega-drain gathers co-pending ticks from every session
//! and steps them as one SoA lane group per trace position. The legs'
//! reps alternate — scalar, batched, scalar, batched, … — so each
//! pair of reps sees the same host state, and the speedup is the
//! median of the per-pair ratios: drift between two back-to-back legs
//! can no longer move it. Emits `results/BENCH_batch.json` with every
//! pair's ratio, the median, and each leg's best rate.
//!
//! The workload is the regime the SoA path exists for: deadline
//! estimation dominating the per-tick budget. Each session runs an
//! 8-dimensional stable plant with re-estimation every tick and a
//! 128-step reachability horizon the trajectory never escapes, so
//! every tick pays a full-horizon walk. Scalar stepping walks each
//! session alone — 64 separate `A·x` chains per position, each
//! faulting its own session's precomputed drift/spread tables through
//! the cache; the batched walk advances all 64 lanes per horizon step
//! through one `A·X` kernel whose inner loop vectorizes across lanes
//! and reads one session's tables for the whole group.
//!
//! Two properties are enforced *in the binary* so CI fails loudly:
//!
//! * **bit-identity** — every session's outcome stream from the batch
//!   leg must equal the scalar leg's, step for step;
//! * **the floor** — the median per-pair ratio of batched to scalar
//!   throughput must be at least [`SPEEDUP_FLOOR`] at 64 sessions. The
//!   floor is deliberately below the typical measured speedup so
//!   scheduler noise does not flake CI, but far above 1.0 so a
//!   regression that quietly serializes the batch path cannot land.

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
/// Alternating scalar/batched rep pairs; the gate reads the median of
/// their ratios.
const PAIRS: usize = 7;
/// Minimum median batched/scalar throughput ratio before the binary
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
    // position p+1 of any, so the batch leg's gather always finds
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

/// Every batched rep's streams must equal the scalar reference,
/// session by session, step for step, and the rep must actually have
/// taken the vectorized path.
fn assert_identical(scalar: &RepReport, batched: &RepReport) {
    assert_eq!(scalar.streams.len(), batched.streams.len());
    for (i, (s, b)) in scalar.streams.iter().zip(&batched.streams).enumerate() {
        assert_eq!(s.len(), PER_SESSION, "session {i}: scalar stream truncated");
        assert_eq!(
            s, b,
            "session {i}: batched stream diverged from scalar stepping"
        );
    }
    assert!(
        batched.metrics.batch_ticks > 0,
        "batch leg never took the vectorized path"
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

    let scalar_config = EngineConfig {
        workers: 1,
        queue_capacity: 128,
        ..EngineConfig::default()
    };
    let batched_config = EngineConfig {
        cross_session_batch: true,
        drain_batch: 64,
        ..scalar_config.clone()
    };
    let mut ratios = Vec::with_capacity(PAIRS);
    let (mut scalar_best, mut batched_best) = (0.0f64, 0.0f64);
    let mut last = None;
    for _ in 0..PAIRS {
        let scalar = run_rep(&scalar_config, &sys, &trace);
        let batched = run_rep(&batched_config, &sys, &trace);
        assert_identical(&scalar, &batched);
        ratios.push(batched.rate / scalar.rate);
        scalar_best = scalar_best.max(scalar.rate);
        batched_best = batched_best.max(batched.rate);
        last = Some((scalar, batched));
    }
    let (scalar, batched) = last.expect("at least one pair");
    let speedup = median(&ratios);
    println!(
        "scalar   {scalar_best:>12.0} ticks/s best  (1 worker, {SESSIONS} sessions, detect mean {:.0} ns, log mean {:.0} ns)",
        scalar.metrics.detect_latency.mean_ns(),
        scalar.metrics.log_latency.mean_ns()
    );
    println!(
        "batched  {batched_best:>12.0} ticks/s best  (batch_ticks={}, lane hwm={}, detect mean {:.0} ns, log mean {:.0} ns)",
        batched.metrics.batch_ticks,
        batched.metrics.batch_sessions_hwm,
        batched.metrics.detect_latency.mean_ns(),
        batched.metrics.log_latency.mean_ns()
    );
    let shown: Vec<String> = ratios.iter().map(|r| format!("{r:.2}")).collect();
    println!(
        "speedup  {speedup:>12.2}x  median of {PAIRS} alternating pairs [{}] (floor {SPEEDUP_FLOOR}x)",
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
        ("scalar_ticks_per_sec".into(), Json::Num(scalar_best)),
        ("batched_ticks_per_sec".into(), Json::Num(batched_best)),
        (
            "pair_speedups".into(),
            Json::Arr(ratios.iter().map(|&r| Json::Num(r)).collect()),
        ),
        ("speedup".into(), Json::Num(speedup)),
        ("speedup_floor".into(), Json::Num(SPEEDUP_FLOOR)),
        ("batch_ticks".into(), Json::Int(batched.metrics.batch_ticks)),
        (
            "batch_sessions_hwm".into(),
            Json::Int(batched.metrics.batch_sessions_hwm),
        ),
    ]);
    let path = write_json("BENCH_batch.json", &report);
    println!("wrote {}", path.display());

    assert!(
        speedup >= SPEEDUP_FLOOR,
        "median batched/scalar throughput ratio {speedup:.2}x is below the \
         {SPEEDUP_FLOOR}x floor over the scalar single-core baseline"
    );
}
