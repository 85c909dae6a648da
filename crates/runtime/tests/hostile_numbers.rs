//! Hostile numbers through the engine.
//!
//! `crates/core/tests/hostile_numbers.rs` shows that `step` and
//! `BatchPlan::step_group` agree on NaN, ±∞, ±`f64::MAX`, 1e300, a
//! subnormal and −0.0. These tests take the same values through the
//! engine's one drain: a grouped pool engine (same-key sessions step
//! as `BatchPlan` lanes), an ungrouped pool engine (each session alone,
//! after a deadline-cache prewarm), and `SessionHandle::step_batch` on
//! an engine without a pool. The values are mixed into ordinary ticks,
//! as estimates and as inputs, on sessions with and without an exact
//! deadline cache, at `r0 = 0` and `r0 > 0`, with a fixed pattern of
//! degraded ticks on the pool engines. Every session's outcome stream
//! must equal stepping its detector directly.

use awsad_core::{AdaptiveDetector, AdaptiveStep, DataLogger, DetectorConfig};
use awsad_linalg::{Matrix, Vector};
use awsad_lti::LtiSystem;
use awsad_reach::{CacheConfig, DeadlineCache, DeadlineEstimator, ReachConfig};
use awsad_runtime::{BackpressurePolicy, DetectionEngine, EngineConfig, Tick};
use awsad_sets::BoxSet;

/// Non-finite, overflowing, subnormal and signed-zero values.
const HOSTILE: [f64; 8] = [
    f64::NAN,
    f64::INFINITY,
    f64::NEG_INFINITY,
    f64::MAX,
    -f64::MAX,
    1e300,
    5e-324,
    -0.0,
];

const SESSIONS: usize = 6;
const TICKS: usize = 60;
const SEEDS: u64 = 12;

/// A sheared 2-D integrator, `|u| <= 0.5` per input, safe box ±5,
/// horizon 24, so windows shrink and grow and complementary detection
/// runs.
fn session(j: usize, cached: bool, r0: f64) -> (DataLogger, AdaptiveDetector) {
    let sys = LtiSystem::new_discrete(
        Matrix::from_rows(&[&[1.0, 0.05], &[0.0, 1.0]]).unwrap(),
        Matrix::identity(2),
        Matrix::identity(2),
        0.02,
    )
    .unwrap();
    let reach = ReachConfig::new(
        BoxSet::from_bounds(&[-0.5, -0.5], &[0.5, 0.5]).unwrap(),
        0.0,
        BoxSet::from_bounds(&[-5.0, -5.0], &[5.0, 5.0]).unwrap(),
        24,
    )
    .unwrap();
    let est = DeadlineEstimator::new(sys.a(), sys.b(), reach).unwrap();
    // Two window bounds, so a grouped engine forms two multi-session
    // groups with per-session thresholds and re-estimation periods.
    let tau = 0.12 + 0.04 * j as f64;
    let w_m = 6 + 2 * (j % 2);
    let cfg = DetectorConfig::new(Vector::from_slice(&[tau, tau]), w_m).unwrap();
    let mut det = AdaptiveDetector::new(cfg, est).unwrap();
    det.set_initial_radius(r0);
    det.set_reestimation_period(1 + j % 3);
    if cached && !j.is_multiple_of(3) {
        det.set_deadline_cache(DeadlineCache::new(CacheConfig::exact(64)));
    }
    (DataLogger::new(sys, w_m), det)
}

fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

fn unit(state: &mut u64) -> f64 {
    (splitmix(state) >> 11) as f64 / (1u64 << 53) as f64
}

/// Each session's ticks, from a noisy, weakly regulated walk. About one
/// value in forty is hostile, and one tick in six pins the estimate to
/// the origin, so trusted states repeat and cached sessions hit.
fn traces(seed: u64) -> Vec<Vec<Tick>> {
    let mut rng = seed;
    (0..SESSIONS)
        .map(|_| {
            let mut x = [0.0f64; 2];
            (0..TICKS)
                .map(|_| {
                    let u: Vec<f64> = x
                        .iter()
                        .map(|&xi| (-0.1 * xi + unit(&mut rng) - 0.5).clamp(-0.5, 0.5))
                        .collect();
                    let mut estimate = x.to_vec();
                    if splitmix(&mut rng).is_multiple_of(6) {
                        estimate = vec![0.0, 0.0];
                    }
                    let mut input = u.clone();
                    for v in estimate.iter_mut().chain(input.iter_mut()) {
                        if splitmix(&mut rng).is_multiple_of(40) {
                            *v = HOSTILE[(splitmix(&mut rng) % HOSTILE.len() as u64) as usize];
                        }
                    }
                    let noise = [unit(&mut rng) - 0.5, unit(&mut rng) - 0.5];
                    x = [
                        x[0] + 0.05 * x[1] + u[0] + 0.3 * noise[0],
                        x[1] + u[1] + 0.3 * noise[1],
                    ];
                    Tick {
                        estimate: Vector::from_slice(&estimate),
                        input: Vector::from_slice(&input),
                    }
                })
                .collect()
        })
        .collect()
}

/// The fixed degrade pattern of the pool engines.
fn degraded(j: usize, t: usize) -> bool {
    (t + 3 * j).is_multiple_of(11)
}

/// Session `j`'s trace stepped on a standalone detector.
fn direct(
    j: usize,
    cached: bool,
    r0: f64,
    trace: &[Tick],
    degrade: impl Fn(usize) -> bool,
) -> Vec<AdaptiveStep> {
    let (mut logger, mut det) = session(j, cached, r0);
    trace
        .iter()
        .enumerate()
        .map(|(t, tick)| {
            logger.record(tick.estimate.clone(), tick.input.clone());
            if degrade(t) {
                det.step_degraded(&logger)
            } else {
                det.step(&logger)
            }
        })
        .collect()
}

/// Every session of `traces`, submitted round-robin (with the degrade
/// pattern) to a pool engine of `config`, against direct stepping.
fn check_pool_engine(config: EngineConfig, cached: bool, r0: f64, traces: &[Vec<Tick>]) {
    let engine = DetectionEngine::new(config.clone());
    let sessions: Vec<_> = (0..SESSIONS)
        .map(|j| {
            let (logger, det) = session(j, cached, r0);
            engine.add_session(logger, det)
        })
        .collect();
    let mut feeds: Vec<_> = traces.iter().map(|trace| trace.iter()).collect();
    for t in 0..TICKS {
        for (j, ((handle, _), feed)) in sessions.iter().zip(&mut feeds).enumerate() {
            let tick = feed.next().expect("one tick per position").clone();
            if degraded(j, t) {
                handle.submit_degraded(tick).unwrap();
            } else {
                handle.submit(tick).unwrap();
            }
        }
    }
    engine.drain();
    for (j, (_, outcomes)) in sessions.iter().enumerate() {
        let got: Vec<AdaptiveStep> = outcomes.try_iter().map(|o| o.step).collect();
        let want = direct(j, cached, r0, &traces[j], |t| degraded(j, t));
        assert_eq!(
            got, want,
            "session {j}, {config:?}, cached {cached}, r0 {r0}"
        );
    }
    let m = engine.metrics();
    assert_eq!(m.ticks_processed, (SESSIONS * TICKS) as u64);
    if config.cross_session_batch {
        assert_eq!(m.batch_ticks, m.ticks_processed - m.degraded_ticks);
    }
}

#[test]
fn hostile_ticks_match_direct_stepping_on_grouped_and_ungrouped_pool_engines() {
    for seed in 0..SEEDS {
        let traces = traces(seed);
        for cached in [false, true] {
            for r0 in [0.0, 0.25] {
                for cross_session_batch in [false, true] {
                    let config = EngineConfig {
                        workers: 2,
                        cross_session_batch,
                        drain_batch: 8,
                        ..EngineConfig::default()
                    };
                    check_pool_engine(config, cached, r0, &traces);
                }
            }
        }
    }
}

#[test]
fn hostile_ticks_match_direct_stepping_through_step_batch() {
    for seed in 0..SEEDS {
        let traces = traces(seed);
        for cached in [false, true] {
            for r0 in [0.0, 0.25] {
                // Requests of 13 ticks against a capacity of 10: the
                // last three of each degrade, in chunks of 4.
                let engine = DetectionEngine::without_pool(EngineConfig {
                    queue_capacity: 10,
                    backpressure: BackpressurePolicy::Degrade,
                    drain_batch: 4,
                    ..EngineConfig::default()
                });
                for (j, trace) in traces.iter().enumerate() {
                    let (logger, det) = session(j, cached, r0);
                    let (handle, _outcomes) = engine.add_session(logger, det);
                    let got: Vec<AdaptiveStep> = trace
                        .chunks(13)
                        .flat_map(|request| handle.step_batch(request.to_vec()).unwrap())
                        .map(|o| o.step)
                        .collect();
                    let want = direct(j, cached, r0, trace, |t| t % 13 >= 10);
                    assert_eq!(got, want, "session {j}, cached {cached}, r0 {r0}");
                }
            }
        }
    }
}
