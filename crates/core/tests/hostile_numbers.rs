//! Hostile numbers through both step paths.
//!
//! `AdaptiveDetector::step` and `BatchPlan::step_group` run the same
//! phases; the only code they do not share is two kernels, the
//! reachability walk and the current-window mean (scalar for one lane,
//! batched for a group). These tests feed both paths NaN, ±∞,
//! ±`f64::MAX`, 1e300, a subnormal and −0.0, as estimates and as
//! inputs, mixed into ordinary ticks across several lanes, with and
//! without a deadline cache, at `r0 = 0` and `r0 > 0`. Every outcome
//! must be defined, equal on both paths, and fail-safe:
//!
//! * a non-finite trusted state has the deadline `Within(0)`;
//! * a window holding a non-finite residual alarms (the NaN rule of
//!   `WindowDetector::exceeds`);
//! * a session's first entry has a zero residual (nothing predicted
//!   it), so a non-finite first estimate alarms one tick later, when
//!   the prediction made from it is compared.

use awsad_core::{
    AdaptiveDetector, AdaptiveStep, BatchLane, BatchPlan, DataLogger, DetectorConfig,
};
use awsad_linalg::{Matrix, Vector};
use awsad_lti::LtiSystem;
use awsad_reach::{
    BatchScratch, CacheConfig, Deadline, DeadlineCache, DeadlineEstimator, DeadlineScratch,
    ReachConfig,
};
use awsad_sets::BoxSet;
use proptest::prelude::*;

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

const LANES: usize = 5;
const TICKS: usize = 48;

/// A sheared 2-D integrator, `|u| <= 0.5` per input, safe box ±5,
/// horizon 24: deadlines from the interior are at most about ten
/// steps, so windows (`w_m` 6–10) shrink and grow and complementary
/// detection runs.
fn plant() -> (LtiSystem, ReachConfig) {
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
    (sys, reach)
}

fn estimator() -> DeadlineEstimator {
    let (sys, reach) = plant();
    DeadlineEstimator::new(sys.a(), sys.b(), reach).unwrap()
}

/// Lane `j` of a group: per-lane thresholds, window bounds,
/// re-estimation periods and cache capacities, one shared estimator
/// and radius (the grouping contract).
fn lane(j: usize, cached: bool, r0: f64) -> (DataLogger, AdaptiveDetector) {
    let (sys, reach) = plant();
    let est = DeadlineEstimator::new(sys.a(), sys.b(), reach).unwrap();
    let tau = 0.12 + 0.04 * j as f64;
    let w_m = 6 + 2 * (j % 3);
    let cfg = DetectorConfig::new(Vector::from_slice(&[tau, tau]), w_m).unwrap();
    let mut det = AdaptiveDetector::new(cfg, est).unwrap();
    det.set_initial_radius(r0);
    det.set_reestimation_period(1 + j % 2);
    if cached && !j.is_multiple_of(4) {
        let capacity = if j % 3 == 2 { 2 } else { 64 };
        det.set_deadline_cache(DeadlineCache::new(CacheConfig::exact(capacity)));
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

/// One recorded tick: `(estimate, input)`.
type Tick = (Vector, Vector);

/// One row of ticks per step, one tick per lane, from a noisy, weakly
/// regulated walk per lane. About one value in forty is replaced by a
/// hostile one (in the estimate or the input), and one tick in six
/// pins the estimate to the origin, so trusted states repeat and cached
/// lanes hit.
fn ticks(seed: u64) -> Vec<Vec<Tick>> {
    let mut rng = seed;
    let mut states = [[0.0f64; 2]; LANES];
    (0..TICKS)
        .map(|_| {
            states
                .iter_mut()
                .map(|x| {
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
                    *x = [
                        x[0] + 0.05 * x[1] + u[0] + 0.3 * noise[0],
                        x[1] + u[1] + 0.3 * noise[1],
                    ];
                    (Vector::from_slice(&estimate), Vector::from_slice(&input))
                })
                .collect()
        })
        .collect()
}

/// Whether the window `[step − window, step]` holds a non-finite
/// residual.
fn window_has_non_finite(logger: &DataLogger, step: &AdaptiveStep) -> bool {
    (step.step.saturating_sub(step.window)..=step.step)
        .filter_map(|t| logger.entry(t))
        .any(|e| !e.residual.is_finite())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// `step` per lane and one multi-lane `step_group` produce equal
    /// streams and equal cache statistics on hostile ticks, and every
    /// window holding a non-finite residual alarms.
    #[test]
    fn step_and_step_group_agree_on_hostile_ticks(seed in any::<u64>()) {
        let ticks = ticks(seed);
        for cached in [false, true] {
            for r0 in [0.0, 0.25] {
                let mut scalar: Vec<_> = (0..LANES).map(|j| lane(j, cached, r0)).collect();
                let mut grouped: Vec<_> = (0..LANES).map(|j| lane(j, cached, r0)).collect();
                let mut plan = BatchPlan::new();
                let mut non_finite_windows = 0usize;
                for (t, row) in ticks.iter().enumerate() {
                    let mut expected = Vec::with_capacity(LANES);
                    for (j, (logger, det)) in scalar.iter_mut().enumerate() {
                        let (estimate, input) = row[j].clone();
                        logger.record(estimate, input);
                        let step = det.step(logger);
                        if window_has_non_finite(logger, &step) {
                            non_finite_windows += 1;
                            prop_assert!(
                                step.current_alarm,
                                "lane {j} tick {t}: a non-finite residual in the window must alarm"
                            );
                        }
                        expected.push(step);
                    }
                    let mut lanes: Vec<BatchLane<'_>> = grouped
                        .iter_mut()
                        .enumerate()
                        .map(|(j, (logger, detector))| {
                            let (estimate, input) = row[j].clone();
                            logger.record(estimate, input);
                            BatchLane { logger, detector }
                        })
                        .collect();
                    let mut got = Vec::with_capacity(LANES);
                    plan.step_group(&mut lanes, &mut got);
                    prop_assert_eq!(
                        &got,
                        &expected,
                        "tick {} (cached {}, r0 {})",
                        t,
                        cached,
                        r0
                    );
                }
                for (j, ((_, s), (_, g))) in scalar.iter().zip(&grouped).enumerate() {
                    prop_assert_eq!(
                        g.deadline_cache_stats(),
                        s.deadline_cache_stats(),
                        "lane {} cache stats (r0 {})",
                        j,
                        r0
                    );
                }
                prop_assert!(non_finite_windows > 0, "no hostile window was exercised");
            }
        }
    }
}

/// A non-finite trusted state gets the deadline `Within(0)` from the
/// scalar walk and from the batched walk, whatever the other states
/// of the batch; every other hostile state gets equal answers from
/// both walks.
#[test]
fn non_finite_trusted_states_have_deadline_zero_on_both_walks() {
    let est = estimator();
    let mut states = vec![Vector::from_slice(&[0.0, 0.0])];
    for &v in &HOSTILE {
        states.push(Vector::from_slice(&[v, 0.0]));
        states.push(Vector::from_slice(&[1.5, v]));
        states.push(Vector::from_slice(&[v, v]));
    }
    let refs: Vec<&Vector> = states.iter().collect();
    let mut scratch = DeadlineScratch::new();
    let mut batch_scratch = BatchScratch::new();
    for r0 in [0.0, 0.25] {
        let mut batched = Vec::new();
        est.deadline_batch_refs_with(&refs, r0, &mut batch_scratch, &mut batched)
            .unwrap();
        for (x, &walked) in states.iter().zip(&batched) {
            let scalar = est.checked_deadline_with(x, r0, &mut scratch).unwrap();
            assert_eq!(walked, scalar, "{x:?} at r0 {r0}");
            if !x.is_finite() {
                assert_eq!(scalar, Deadline::Within(0), "{x:?} at r0 {r0}");
            }
        }
    }
}

/// A session's first entry has no prediction, so its residual is
/// zero and a non-finite first estimate does not alarm at once; the
/// next tick compares against a prediction made from it and alarms.
#[test]
fn a_non_finite_first_estimate_alarms_one_tick_later() {
    let ordinary = Vector::from_slice(&[0.5, -0.5]);
    let input = Vector::zeros(2);
    for &v in HOSTILE.iter().filter(|v| !v.is_finite()) {
        let first = Vector::from_slice(&[v, 0.0]);
        let (mut logger, mut det) = lane(1, true, 0.0);
        let (mut g_logger, mut g_det) = lane(1, true, 0.0);
        let mut plan = BatchPlan::new();
        let mut grouped = Vec::new();
        for estimate in [&first, &ordinary] {
            logger.record(estimate.clone(), input.clone());
            g_logger.record(estimate.clone(), input.clone());
            let step = det.step(&logger);
            plan.step_group(
                &mut [BatchLane {
                    logger: &g_logger,
                    detector: &mut g_det,
                }],
                &mut grouped,
            );
            assert_eq!(grouped.last(), Some(&step), "{v}");
        }
        let (first_step, second_step) = (&grouped[0], &grouped[1]);
        assert_eq!(first_step.deadline, Deadline::Within(0), "{v}");
        assert!(!first_step.alarm(), "{v}: the first residual is zero");
        assert!(
            second_step.current_alarm,
            "{v}: the prediction from it is not finite"
        );
    }
}
