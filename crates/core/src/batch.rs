//! Cross-session batched stepping.
//!
//! [`BatchPlan`] steps a *group* of detection sessions one tick at a
//! time. It runs the same per-lane phases as
//! [`AdaptiveDetector::step`] (the deadline source, the commit of a
//! walked deadline, window adjustment with complementary detection,
//! the threshold decision), so `step` is the one-lane case of a group.
//! Only two kernels differ, and each runs once for the whole group:
//! every lane that needs a fresh deadline is answered by **one**
//! batched reachability walk
//! ([`awsad_reach::DeadlineEstimator::deadline_batch_refs_with`]), and
//! every lane's current-window mean by **one** structure-of-arrays
//! kernel call ([`awsad_linalg::kernels::soa::window_mean_lanes`]).
//! Per lane, each kernel performs the scalar kernel's f64 operations in
//! the same order, so the produced [`AdaptiveStep`] stream — and the
//! deadline-cache statistics — are bit-identical to stepping each
//! session alone.
//!
//! # Grouping contract
//!
//! A group must be homogeneous where the shared kernels demand it:
//! every lane has the same state dimension, the same initial radius,
//! and estimators running bit-identical walks (equal
//! [`awsad_reach::DeadlineEstimator::fingerprint`]s — in practice,
//! sessions of the same plant model and reach configuration). A lane
//! taking a *degraded* step is stepped by
//! [`AdaptiveDetector::step_degraded`] beside the group instead.
//! Thresholds, window bounds, re-estimation periods and deadline
//! caches may all differ per lane — those phases stay per-lane.

use awsad_linalg::kernels::soa::{self, SoaBatch};
use awsad_linalg::Vector;
use awsad_reach::{BatchScratch, Deadline};

use crate::adaptive::DeadlinePhase;
use crate::{AdaptiveDetector, AdaptiveStep, DataLogger};

/// One session's view inside a batched step: its logger (with the
/// current tick already recorded) and its detector.
#[derive(Debug)]
pub struct BatchLane<'a> {
    /// The lane's data logger; the caller must have recorded the
    /// current tick's `(estimate, input)` before the batched step.
    pub logger: &'a DataLogger,
    /// The lane's adaptive detector.
    pub detector: &'a mut AdaptiveDetector,
}

/// Reusable buffers and the stepping logic for cross-session batched
/// detection. See the [module docs](self) for the grouping contract
/// and the bit-identity argument.
#[derive(Debug, Default)]
pub struct BatchPlan {
    currents: Vec<usize>,
    phases: Vec<DeadlinePhase>,
    walk_lanes: Vec<usize>,
    walk_scratch: BatchScratch,
    walk_deadlines: Vec<Deadline>,
    alloc_free: Vec<bool>,
    scalar_mean: Vec<bool>,
    means: SoaBatch,
    offsets: Vec<usize>,
    factors: Vec<f64>,
}

impl BatchPlan {
    /// Creates a plan with empty scratch buffers.
    pub fn new() -> Self {
        Self::default()
    }

    /// Steps every lane of `lanes` one tick, appending one
    /// [`AdaptiveStep`] per lane (in lane order) to `out`. The results
    /// are bit-identical to calling `lane.detector.step(lane.logger)`
    /// on each lane in isolation, provided the [grouping
    /// contract](self) holds.
    ///
    /// # Panics
    ///
    /// Panics when a lane's logger is empty (record the tick first),
    /// when lanes disagree on state dimension or initial radius, or
    /// when a lane's estimator rejects the batched walk (dimension
    /// mismatch within the group).
    pub fn step_group(&mut self, lanes: &mut [BatchLane<'_>], out: &mut Vec<AdaptiveStep>) {
        let n_lanes = lanes.len();
        if n_lanes == 0 {
            return;
        }

        // Deadline source per lane; lanes that need a walk queue up.
        self.currents.clear();
        self.phases.clear();
        self.walk_lanes.clear();
        for (j, lane) in lanes.iter_mut().enumerate() {
            self.currents.push(
                lane.logger
                    .current_step()
                    .expect("record the current step before detection"),
            );
            let phase = lane.detector.deadline_phase(lane.logger);
            if matches!(phase, DeadlinePhase::Walk { .. }) {
                self.walk_lanes.push(j);
            }
            self.phases.push(phase);
        }

        // Walk kernel: one batched walk answers every queued lane,
        // each column bit-identical to that lane's scalar walk.
        self.walk_deadlines.clear();
        if let Some(&first) = self.walk_lanes.first() {
            let r0 = lanes[first].detector.initial_radius();
            let trusted: Vec<&Vector> = self
                .walk_lanes
                .iter()
                .map(|&j| {
                    let lane = &lanes[j];
                    assert_eq!(
                        lane.detector.initial_radius().to_bits(),
                        r0.to_bits(),
                        "grouped lanes must share the initial radius"
                    );
                    lane.detector.trusted_estimate(lane.logger)
                })
                .collect();
            lanes[first]
                .detector
                .estimator()
                .deadline_batch_refs_with(
                    &trusted,
                    r0,
                    &mut self.walk_scratch,
                    &mut self.walk_deadlines,
                )
                .expect("grouped lanes share the estimator's state dimension");
        }

        // Commit walked deadlines and open every lane's step. Walk
        // lanes are in lane order, so one cursor realigns the walk.
        let base = out.len();
        let mut walked = self.walk_deadlines.iter();
        self.alloc_free.clear();
        for (j, lane) in lanes.iter_mut().enumerate() {
            let (deadline, alloc_free) = match self.phases[j] {
                DeadlinePhase::Ready(deadline) => (deadline, true),
                DeadlinePhase::Walk { cache_miss } => {
                    let deadline = *walked.next().expect("one walked deadline per walk lane");
                    lane.detector
                        .commit_walked_deadline(lane.logger, deadline, cache_miss);
                    (deadline, !cache_miss)
                }
            };
            out.push(
                lane.detector
                    .open_step(lane.logger, self.currents[j], deadline),
            );
            self.alloc_free.push(alloc_free);
        }

        // Mean kernel: one SoA call evaluates every lane's
        // current-window mean; per lane the accumulation order equals
        // `window_mean_into` exactly. A lane whose window is not fully
        // retained (only possible for hand-built loggers — the detector
        // never outruns retention) takes the scalar check instead.
        let dim = lanes[0].logger.system().state_dim();
        self.means.reset(dim, n_lanes);
        self.offsets.clear();
        self.factors.clear();
        self.scalar_mean.clear();
        self.offsets.push(0);
        let mut entries: Vec<&[f64]> = Vec::new();
        for (lane, step) in lanes.iter().zip(&out[base..]) {
            assert_eq!(
                lane.logger.system().state_dim(),
                dim,
                "grouped lanes must share the state dimension"
            );
            let start = step.step.saturating_sub(step.window);
            let retained = lane
                .logger
                .oldest_step()
                .is_some_and(|first| start >= first);
            if retained {
                entries.extend((start..=step.step).map(|t| {
                    lane.logger
                        .entry(t)
                        .expect("retained window is contiguous")
                        .residual
                        .as_slice()
                }));
                let divisor = (step.step - start).max(1);
                self.factors.push(1.0 / divisor as f64);
            } else {
                self.factors.push(1.0);
            }
            self.scalar_mean.push(!retained);
            self.offsets.push(entries.len());
        }
        soa::window_mean_lanes(&entries, &self.offsets, &self.factors, &mut self.means);
        drop(entries);

        // Threshold decision and close, per lane.
        for (j, (lane, step)) in lanes.iter_mut().zip(&mut out[base..]).enumerate() {
            let current_alarm = if self.scalar_mean[j] {
                lane.detector
                    .check_current(lane.logger, step.step, step.window)
            } else {
                lane.detector.exceeds_mean(self.means.lane(j))
            };
            lane.detector
                .close_step(step, current_alarm, self.alloc_free[j]);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::DetectorConfig;
    use awsad_linalg::Matrix;
    use awsad_lti::LtiSystem;
    use awsad_reach::{CacheConfig, DeadlineCache, DeadlineEstimator, ReachConfig};
    use awsad_sets::BoxSet;

    fn splitmix(state: &mut u64) -> u64 {
        *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn rand_unit(state: &mut u64) -> f64 {
        (splitmix(state) >> 11) as f64 / (1u64 << 52) as f64
    }

    /// Integrator plant, |u| <= 1, safe |x| <= 5, horizon 40.
    fn session(
        tau: f64,
        w_m: usize,
        period: usize,
        cache: Option<usize>,
        r0: f64,
    ) -> (DataLogger, AdaptiveDetector) {
        let sys = LtiSystem::new_discrete_fully_observable(
            Matrix::identity(1),
            Matrix::from_rows(&[&[1.0]]).unwrap(),
            0.02,
        )
        .unwrap();
        let reach = ReachConfig::new(
            BoxSet::from_bounds(&[-1.0], &[1.0]).unwrap(),
            0.0,
            BoxSet::from_bounds(&[-5.0], &[5.0]).unwrap(),
            40,
        )
        .unwrap();
        let est = DeadlineEstimator::new(sys.a(), sys.b(), reach).unwrap();
        let cfg = DetectorConfig::new(Vector::from_slice(&[tau]), w_m).unwrap();
        let logger = DataLogger::new(sys, w_m);
        let mut det = AdaptiveDetector::new(cfg, est).unwrap();
        det.set_initial_radius(r0);
        det.set_reestimation_period(period);
        if let Some(cap) = cache {
            det.set_deadline_cache(DeadlineCache::new(CacheConfig::exact(cap)));
        }
        (logger, det)
    }

    /// Drives `n_lanes` heterogeneous sessions (mixed thresholds,
    /// window bounds, re-estimation periods, cache configurations) for
    /// `ticks` steps twice — once scalar, once through the plan — and
    /// asserts bit-identical step streams and cache statistics.
    fn assert_group_matches_scalar(r0: f64, seed: u64) {
        let n_lanes = 7usize;
        let ticks = 60usize;
        let mut direct = Vec::new();
        let mut batched = Vec::new();
        for j in 0..n_lanes {
            let tau = 0.02 + 0.03 * j as f64;
            let w_m = 6 + 2 * (j % 3);
            let period = 1 + j % 3;
            let cache = match j % 3 {
                0 => None,
                1 => Some(64),
                _ => Some(2), // tiny: exercises evictions
            };
            direct.push(session(tau, w_m, period, cache, r0));
            batched.push(session(tau, w_m, period, cache, r0));
        }
        let mut plan = BatchPlan::new();
        let mut state = seed;
        for t in 0..ticks {
            // Estimates wander toward the safe boundary so deadlines
            // shrink and complementary detection fires; a few repeats
            // guarantee cache hits.
            let mut xs: Vec<f64> = (0..n_lanes)
                .map(|_| -5.4 + 10.8 * rand_unit(&mut state))
                .collect();
            if t % 5 == 0 {
                xs.iter_mut().for_each(|x| *x = 1.25);
            }
            let mut scalar_steps = Vec::new();
            for (j, (logger, det)) in direct.iter_mut().enumerate() {
                logger.record(Vector::from_slice(&[xs[j]]), Vector::zeros(1));
                scalar_steps.push(det.step(logger));
            }
            let mut lanes: Vec<BatchLane<'_>> = Vec::new();
            for (j, (logger, det)) in batched.iter_mut().enumerate() {
                logger.record(Vector::from_slice(&[xs[j]]), Vector::zeros(1));
                let _ = j;
                lanes.push(BatchLane {
                    logger,
                    detector: det,
                });
            }
            let mut batch_steps = Vec::new();
            plan.step_group(&mut lanes, &mut batch_steps);
            assert_eq!(batch_steps, scalar_steps, "tick {t}");
        }
        for (j, ((_, d), (_, b))) in direct.iter().zip(&batched).enumerate() {
            assert_eq!(
                b.deadline_cache_stats(),
                d.deadline_cache_stats(),
                "lane {j} cache stats"
            );
        }
    }

    #[test]
    fn batched_group_bit_identical_to_scalar_steps() {
        assert_group_matches_scalar(0.0, 0x00d1_ce5e_ed00_0001);
    }

    #[test]
    fn batched_group_bit_identical_with_initial_radius() {
        assert_group_matches_scalar(0.25, 0x00d1_ce5e_ed00_0002);
    }

    #[test]
    fn empty_group_is_a_no_op() {
        let mut plan = BatchPlan::new();
        let mut out = Vec::new();
        plan.step_group(&mut [], &mut out);
        assert!(out.is_empty());
    }

    #[test]
    fn degraded_interleaving_stays_bit_identical() {
        // Degraded ticks are stepped scalar (as the engine routes
        // them); the batched lanes around them must still match.
        let n_lanes = 4usize;
        let mut direct: Vec<_> = (0..n_lanes)
            .map(|_| session(0.05, 8, 1, Some(32), 0.0))
            .collect();
        let mut batched: Vec<_> = (0..n_lanes)
            .map(|j| {
                let _ = j;
                session(0.05, 8, 1, Some(32), 0.0)
            })
            .collect();
        let mut plan = BatchPlan::new();
        let mut state = 0xabad_1deau64;
        for t in 0..40 {
            let xs: Vec<f64> = (0..n_lanes)
                .map(|_| -5.2 + 10.4 * rand_unit(&mut state))
                .collect();
            // Lane j is degraded on ticks where (t + j) % 7 == 0.
            let mut scalar_steps = Vec::new();
            for (j, (logger, det)) in direct.iter_mut().enumerate() {
                logger.record(Vector::from_slice(&[xs[j]]), Vector::zeros(1));
                scalar_steps.push(if (t + j) % 7 == 0 {
                    det.step_degraded(logger)
                } else {
                    det.step(logger)
                });
            }
            let mut batch_steps: Vec<Option<AdaptiveStep>> = vec![None; n_lanes];
            let mut lanes = Vec::new();
            let mut lane_ids = Vec::new();
            for (j, (logger, det)) in batched.iter_mut().enumerate() {
                logger.record(Vector::from_slice(&[xs[j]]), Vector::zeros(1));
                if (t + j) % 7 == 0 {
                    batch_steps[j] = Some(det.step_degraded(logger));
                } else {
                    lane_ids.push(j);
                    lanes.push(BatchLane {
                        logger,
                        detector: det,
                    });
                }
            }
            let mut group_out = Vec::new();
            plan.step_group(&mut lanes, &mut group_out);
            for (k, j) in lane_ids.into_iter().enumerate() {
                batch_steps[j] = Some(group_out[k].clone());
            }
            for j in 0..n_lanes {
                assert_eq!(
                    batch_steps[j].as_ref().unwrap(),
                    &scalar_steps[j],
                    "tick {t} lane {j}"
                );
            }
        }
    }
}
