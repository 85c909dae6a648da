//! Shared support for the server test suites: the pinned attack
//! scenario, its direct-engine reference, and a counter poll.

#![allow(dead_code)]

use std::time::{Duration, Instant};

use awsad_core::{AdaptiveDetector, AdaptiveStep, DetectorConfig};
use awsad_models::Simulator;
use awsad_runtime::{DetectionEngine, EngineConfig, Tick, TickOutcome};
use awsad_serve::wire::WireTick;

/// The pinned scenario: vehicle turning (Table 1 row 2) under a
/// deterministic trace that regulates for a while, then takes a bias
/// jump which must trip alarms. Pure arithmetic — no RNG — so every
/// run and every transport sees the exact same floats.
pub fn pinned_trace(len: usize) -> Vec<WireTick> {
    let model = Simulator::VehicleTurning.build();
    (0..len)
        .map(|t| {
            let mut estimate = model.x0.clone().into_vec();
            estimate[0] += 0.01 * ((t % 4) as f64);
            if t >= len / 2 {
                // Sensor bias attack onset halfway through.
                estimate[0] += 0.9;
            }
            WireTick {
                estimate,
                input: vec![0.0; model.system.input_dim()],
            }
        })
        .collect()
}

/// Steps the pinned scenario through a local engine — the reference
/// stream every transported/resumed run must equal byte-for-byte.
pub fn direct_engine_steps(trace: &[WireTick]) -> Vec<AdaptiveStep> {
    let model = Simulator::VehicleTurning.build();
    let w_m = model.default_max_window;
    let det_cfg = DetectorConfig::new(model.threshold.clone(), w_m).unwrap();
    let detector = AdaptiveDetector::new(det_cfg, model.deadline_estimator(w_m).unwrap()).unwrap();
    let logger = model.data_logger(w_m);
    let engine = DetectionEngine::new(EngineConfig::default());
    let (session, outcomes) = engine.add_session(logger, detector);
    for tick in trace {
        session
            .submit(Tick {
                estimate: awsad_linalg::Vector::from_slice(&tick.estimate),
                input: awsad_linalg::Vector::from_slice(&tick.input),
            })
            .unwrap();
    }
    engine.drain();
    outcomes.try_iter().map(|o: TickOutcome| o.step).collect()
}

/// Polls until the predicate holds or the deadline passes — counter
/// updates race the test thread, never the protocol itself.
pub fn wait_for(mut pred: impl FnMut() -> bool) {
    let deadline = Instant::now() + Duration::from_secs(10);
    while !pred() {
        assert!(Instant::now() < deadline, "condition not reached in time");
        std::thread::sleep(Duration::from_millis(10));
    }
}
