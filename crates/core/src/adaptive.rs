use awsad_linalg::{Matrix, Vector};
use awsad_lti::LtiSystem;
use awsad_reach::{CacheStats, Deadline, DeadlineCache, DeadlineEstimator, DeadlineScratch};

use crate::snapshot::RecalibrationState;
use crate::{DataLogger, DetectError, DetectorConfig, DetectorSnapshot, Result, WindowDetector};

/// The outcome of one adaptive-detector step.
#[derive(Debug, Clone, PartialEq)]
pub struct AdaptiveStep {
    /// The control step this outcome belongs to.
    pub step: usize,
    /// The deadline estimated from the newest trusted state.
    pub deadline: Deadline,
    /// The window size `w_c` chosen for this step.
    pub window: usize,
    /// The window size `w_p` used at the previous step.
    pub previous_window: usize,
    /// Whether the window ending at this step tripped the threshold.
    pub current_alarm: bool,
    /// End-steps of complementary-detection windows that tripped while
    /// shrinking the window (Fig. 3). Empty when the window grew or
    /// stayed.
    pub complementary_alarms: Vec<usize>,
}

impl AdaptiveStep {
    /// Whether any alarm (current or complementary) fired this step.
    pub fn alarm(&self) -> bool {
        self.current_alarm || !self.complementary_alarms.is_empty()
    }
}

/// How a step's deadline resolves before any reachability walk (see
/// [`AdaptiveDetector::deadline_phase`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum DeadlinePhase {
    /// The deadline is already committed (aged estimate or cache hit).
    Ready(Deadline),
    /// A reachability walk from the trusted estimate is needed;
    /// `cache_miss` records whether an installed cache counted a miss
    /// (the walked answer is then inserted at commit).
    Walk {
        /// Whether an installed deadline cache counted a miss.
        cache_miss: bool,
    },
}

/// The adaptive window-based detector (§4.2/§4.3).
///
/// Each step it:
///
/// 1. reads the newest **trusted** state estimate — the one just
///    outside the previous detection window (`x̄_{t−w_p−1}`, §3.3.1) —
///    from the [`DataLogger`];
/// 2. queries the [`DeadlineEstimator`] for the detection deadline
///    `t_d` from that state;
/// 3. sets `w_c = t_d` clamped into `[min_window, w_m]` (§4.3);
/// 4. if `w_c < w_p`, runs **complementary detection**: re-checks the
///    windows of size `w_c` ending at `t−w_p−1+w_c, …, t−1`, so no
///    logged point escapes the shrunken window unchecked (Fig. 3);
///    growing the window needs no extra work (Fig. 4);
/// 5. checks the window `[t−w_c, t]` against the threshold `τ`.
///
/// The deadline query may optionally account for bounded noise in the
/// trusted estimate via [`AdaptiveDetector::set_initial_radius`]
/// (§3.3.1's initial-state *set*).
#[derive(Debug, Clone)]
pub struct AdaptiveDetector {
    config: DetectorConfig,
    estimator: DeadlineEstimator,
    checker: WindowDetector,
    prev_window: usize,
    initial_radius: f64,
    complementary_enabled: bool,
    reestimation_period: usize,
    steps_since_estimate: usize,
    cached_deadline: Option<Deadline>,
    deadline_cache: Option<DeadlineCache>,
    scratch: DeadlineScratch,
    mean_scratch: Vector,
    last_step_alloc_free: bool,
    recalibration: Option<RecalibrationState>,
}

impl AdaptiveDetector {
    /// Creates an adaptive detector.
    ///
    /// # Errors
    ///
    /// Returns [`DetectError::DimensionMismatch`] when the threshold
    /// dimension differs from the estimator's state dimension.
    pub fn new(config: DetectorConfig, estimator: DeadlineEstimator) -> Result<Self> {
        if config.dim() != estimator.state_dim() {
            return Err(DetectError::DimensionMismatch {
                threshold_dim: config.dim(),
                state_dim: estimator.state_dim(),
            });
        }
        let checker = WindowDetector::new(config.threshold().clone());
        let prev_window = config.max_window();
        let mean_scratch = Vector::zeros(config.dim());
        Ok(AdaptiveDetector {
            config,
            estimator,
            checker,
            prev_window,
            initial_radius: 0.0,
            complementary_enabled: true,
            reestimation_period: 1,
            steps_since_estimate: 0,
            cached_deadline: None,
            deadline_cache: None,
            scratch: DeadlineScratch::new(),
            mean_scratch,
            last_step_alloc_free: false,
            recalibration: None,
        })
    }

    /// The detector configuration.
    pub fn config(&self) -> &DetectorConfig {
        &self.config
    }

    /// The deadline estimator in use.
    pub fn estimator(&self) -> &DeadlineEstimator {
        &self.estimator
    }

    /// The window size chosen at the previous step (`w_p`).
    pub fn previous_window(&self) -> usize {
        self.prev_window
    }

    /// Accounts for bounded noise of radius `r0` in the trusted state
    /// estimate when querying deadlines (§3.3.1).
    pub fn set_initial_radius(&mut self, r0: f64) {
        self.initial_radius = r0.max(0.0);
    }

    /// The initial-state radius used for deadline queries.
    pub fn initial_radius(&self) -> f64 {
        self.initial_radius
    }

    /// Whether a memoizing deadline cache is currently installed.
    pub fn has_deadline_cache(&self) -> bool {
        self.deadline_cache.is_some()
    }

    /// Whether the most recent [`AdaptiveDetector::step`] /
    /// [`AdaptiveDetector::step_degraded`] completed without heap
    /// allocation on the detect path: the deadline came from the aged
    /// estimate, a cache hit, or the scratch-buffer reachability walk
    /// (no cache insert), and no complementary alarms were collected.
    /// `false` before any step has run.
    pub fn last_step_was_alloc_free(&self) -> bool {
        self.last_step_alloc_free
    }

    /// Pre-populates the installed deadline cache for a batch of
    /// trusted states using one batched reachability walk
    /// ([`awsad_reach::DeadlineCache::prewarm`]), so the subsequent
    /// per-state [`AdaptiveDetector::step`] calls hit the cache. The
    /// inserted entries are bit-identical to what the per-state miss
    /// path would have stored.
    ///
    /// Returns the number of entries inserted — `0` when no cache is
    /// installed, every state is already cached, or any state's
    /// dimension mismatches (the batch is then rejected atomically and
    /// each step falls back to its own query).
    pub fn prewarm_deadline_cache(&mut self, states: &[&Vector]) -> usize {
        let Some(cache) = self.deadline_cache.as_mut() else {
            return 0;
        };
        cache
            .prewarm(&self.estimator, states, self.initial_radius)
            .unwrap_or(0)
    }

    /// Enables or disables complementary detection on window shrink.
    ///
    /// Disabling it exists **only** for the ablation study showing
    /// that points then escape detection; production use should leave
    /// it on.
    pub fn set_complementary_enabled(&mut self, enabled: bool) {
        self.complementary_enabled = enabled;
    }

    /// Queries the reachability estimator only every `period` steps,
    /// *conservatively aging* the cached deadline in between: a
    /// deadline of `t_d` steps estimated `j` steps ago is still valid
    /// as `t_d − j` (the unsafe set cannot arrive sooner than the
    /// worst case predicted then — the trusted state the estimate was
    /// taken from only recedes). This trades a bounded amount of
    /// pessimism (up to `period − 1` steps of unnecessarily small
    /// windows) for a `period`-fold cut in estimator cost — the
    /// paper's low-overhead requirement taken one step further for
    /// very fast control loops.
    ///
    /// A period of 1 (the default) re-estimates every step, exactly
    /// the paper's protocol.
    ///
    /// # Panics
    ///
    /// Panics when `period == 0`.
    pub fn set_reestimation_period(&mut self, period: usize) {
        assert!(period > 0, "re-estimation period must be positive");
        self.reestimation_period = period;
        self.steps_since_estimate = 0;
        self.cached_deadline = None;
    }

    /// Installs a memoizing [`DeadlineCache`] in front of the
    /// estimator's deadline search. Cached answers are bit-identical
    /// to uncached queries, so detection decisions are unchanged.
    pub fn set_deadline_cache(&mut self, cache: DeadlineCache) {
        self.deadline_cache = Some(cache);
    }

    /// Removes and returns the installed deadline cache, if any.
    pub fn take_deadline_cache(&mut self) -> Option<DeadlineCache> {
        self.deadline_cache.take()
    }

    /// Hit/miss/eviction counters of the installed deadline cache
    /// (`None` when no cache is installed).
    pub fn deadline_cache_stats(&self) -> Option<CacheStats> {
        self.deadline_cache.as_ref().map(|c| c.stats())
    }

    /// Runs one detection step against the logger's newest entry.
    ///
    /// This is the one-lane case of [`crate::BatchPlan::step_group`]:
    /// both run the same phases and differ only in two kernels, the
    /// reachability walk and the current-window mean, which run scalar
    /// here and batched across lanes there.
    ///
    /// # Panics
    ///
    /// Panics when the logger is empty (record the current step
    /// first) or its model dimension differs from the estimator's.
    pub fn step(&mut self, logger: &DataLogger) -> AdaptiveStep {
        let current = logger
            .current_step()
            .expect("record the current step before detection");
        let (deadline, alloc_free) = match self.deadline_phase(logger) {
            DeadlinePhase::Ready(deadline) => (deadline, true),
            DeadlinePhase::Walk { cache_miss } => {
                let deadline = self
                    .estimator
                    .checked_deadline_with(
                        self.trusted_estimate(logger),
                        self.initial_radius,
                        &mut self.scratch,
                    )
                    .expect("logger state dimension matches estimator");
                self.commit_walked_deadline(logger, deadline, cache_miss);
                (deadline, !cache_miss)
            }
        };
        let mut step = self.open_step(logger, current, deadline);
        let current_alarm = self.check_current(logger, current, step.window);
        self.close_step(&mut step, current_alarm, alloc_free);
        step
    }

    /// Runs one *degraded* detection step: no reachability query, the
    /// window grows to `w_m`, and the current window is still checked
    /// against `τ`.
    ///
    /// This is the documented overload fallback (used by the runtime's
    /// drop-to-degraded backpressure policy): growing the window is
    /// the conservative direction for false positives and needs no
    /// complementary re-checks (Fig. 4), while detection coverage of
    /// the current window is preserved. The reported deadline is
    /// [`Deadline::Beyond`] — "no estimate this step" — and the next
    /// regular [`AdaptiveDetector::step`] re-queries the estimator
    /// unconditionally.
    ///
    /// # Panics
    ///
    /// Panics when the logger is empty.
    pub fn step_degraded(&mut self, logger: &DataLogger) -> AdaptiveStep {
        let current = logger
            .current_step()
            .expect("record the current step before detection");
        // The aged in-detector deadline is no longer aligned with the
        // trusted state after a skipped query; force a refresh.
        self.steps_since_estimate = 0;
        self.cached_deadline = None;
        // `Beyond` sets w_c = w_m ≥ w_p, so no complementary window runs.
        let mut step = self.open_step(logger, current, Deadline::Beyond);
        let current_alarm = self.check_current(logger, current, step.window);
        self.close_step(&mut step, current_alarm, true);
        step
    }

    // --- Step phases ----------------------------------------------
    //
    // `step`, `step_degraded` and `crate::batch::BatchPlan::step_group`
    // are built from these phases. Between the phases sit the only two
    // kernels that differ by path: the reachability walk (scalar
    // `checked_deadline_with`, or one batched walk for a group) and the
    // current-window mean (`check_current`, or one SoA kernel call
    // judged by `exceeds_mean`). Both kernel pairs compute the same
    // f64 operations in the same order, so every path yields the same
    // bits and the same cache statistics.

    /// The trusted state estimate the deadline is walked from: the
    /// entry just outside the previous window (§3.3.1).
    pub(crate) fn trusted_estimate<'l>(&self, logger: &'l DataLogger) -> &'l Vector {
        &logger
            .trusted_entry(self.prev_window)
            .expect("logger has at least one entry")
            .estimate
    }

    /// Resolves the deadline source, re-queried every
    /// `reestimation_period` steps and conservatively aged in between.
    /// Aged estimates and cache hits are committed here; otherwise the
    /// caller walks from [`AdaptiveDetector::trusted_estimate`] and
    /// hands the answer to [`AdaptiveDetector::commit_walked_deadline`].
    pub(crate) fn deadline_phase(&mut self, logger: &DataLogger) -> DeadlinePhase {
        if let Some(cached) = self.cached_deadline {
            if self.steps_since_estimate < self.reestimation_period {
                self.steps_since_estimate += 1;
                let aged = match cached {
                    Deadline::Within(t_d) => Deadline::Within(t_d.saturating_sub(1)),
                    Deadline::Beyond => Deadline::Beyond,
                };
                self.cached_deadline = Some(aged);
                return DeadlinePhase::Ready(aged);
            }
        }
        let trusted = self.trusted_estimate(logger);
        let Some(cache) = self.deadline_cache.as_mut() else {
            return DeadlinePhase::Walk { cache_miss: false };
        };
        match cache.lookup(trusted, self.initial_radius) {
            Some(hit) => {
                self.steps_since_estimate = 1;
                self.cached_deadline = Some(hit);
                DeadlinePhase::Ready(hit)
            }
            None => DeadlinePhase::Walk { cache_miss: true },
        }
    }

    /// Commits a walked deadline: stores a cache miss's answer (a
    /// fresh memoized entry, the only allocation on a warm detect
    /// path) and restarts the aging count.
    pub(crate) fn commit_walked_deadline(
        &mut self,
        logger: &DataLogger,
        deadline: Deadline,
        cache_miss: bool,
    ) {
        if cache_miss {
            let trusted = self.trusted_estimate(logger);
            if let Some(cache) = self.deadline_cache.as_mut() {
                cache.insert_computed(trusted, self.initial_radius, deadline);
            }
        }
        self.steps_since_estimate = 1;
        self.cached_deadline = Some(deadline);
    }

    /// Opens the step at `current`: sets `w_c = t_d` clamped to
    /// `[min_window, w_m]` (§4.2) and, if the window shrinks, runs
    /// complementary detection over the windows of size `w_c` ending
    /// at `t−w_p−1+w_c, …, t−1` (Fig. 3); growing needs no extra work
    /// (Fig. 4). The returned step's `current_alarm` is set by
    /// [`AdaptiveDetector::close_step`].
    pub(crate) fn open_step(
        &mut self,
        logger: &DataLogger,
        current: usize,
        deadline: Deadline,
    ) -> AdaptiveStep {
        let w_p = self.prev_window;
        let w_c = deadline.window_size(self.config.min_window(), self.config.max_window());
        let mut complementary_alarms = Vec::new();
        if self.complementary_enabled && w_c < w_p && current > 0 {
            let first_end = current.saturating_sub(w_p + 1).saturating_add(w_c);
            for end in first_end..current {
                if self
                    .checker
                    .check_with(logger, end, w_c, &mut self.mean_scratch)
                    == Some(true)
                {
                    complementary_alarms.push(end);
                }
            }
        }
        AdaptiveStep {
            step: current,
            deadline,
            window: w_c,
            previous_window: w_p,
            current_alarm: false,
            complementary_alarms,
        }
    }

    /// The scalar current-window check: the window `[t−w_c, t]`
    /// against `τ`; a window that is not fully retained does not
    /// alarm.
    pub(crate) fn check_current(
        &mut self,
        logger: &DataLogger,
        current: usize,
        w_c: usize,
    ) -> bool {
        self.checker
            .check_with(logger, current, w_c, &mut self.mean_scratch)
            .unwrap_or(false)
    }

    /// The threshold decision on a current-window mean the batched
    /// kernel computed — the rule [`AdaptiveDetector::check_current`]
    /// applies to its scratch vector.
    pub(crate) fn exceeds_mean(&self, mean: &[f64]) -> bool {
        self.checker.exceeds_slice(mean)
    }

    /// Closes the step: records the current-window decision and
    /// publishes `w_c` as the next step's `w_p`. The step was
    /// allocation-free when its deadline was (no cache insert) and no
    /// complementary alarm was collected.
    pub(crate) fn close_step(
        &mut self,
        step: &mut AdaptiveStep,
        current_alarm: bool,
        deadline_alloc_free: bool,
    ) {
        step.current_alarm = current_alarm;
        self.prev_window = step.window;
        self.last_step_alloc_free = deadline_alloc_free && step.complementary_alarms.is_empty();
    }

    /// Resets the adaptation state for a fresh episode: the previous
    /// window returns to `w_m` and the aged deadline is dropped, so the
    /// next step re-queries. An installed [`DeadlineCache`] is kept
    /// with its entries and counters (its answers depend only on the
    /// trusted state, never on the episode).
    pub fn reset(&mut self) {
        self.prev_window = self.config.max_window();
        self.steps_since_estimate = 0;
        self.cached_deadline = None;
    }

    /// The recalibrated plant model in effect, when the session has
    /// accepted at least one [`AdaptiveDetector::recalibrate`].
    pub fn recalibration(&self) -> Option<&RecalibrationState> {
        self.recalibration.as_ref()
    }

    /// Number of accepted recalibrations (`0` while the detector still
    /// runs the model it was configured with).
    pub fn recalibration_count(&self) -> u64 {
        self.recalibration.as_ref().map_or(0, |r| r.count)
    }

    /// Swaps the session's plant model for `(a, b)` mid-stream: the
    /// deadline estimator is rebuilt from the new matrices under the
    /// unchanged [`awsad_reach::ReachConfig`], an installed deadline
    /// cache is cleared (its memoized walks reflect the old model),
    /// the aged deadline is dropped so the next step re-queries, and
    /// `logger` predicts with the new model from its next record on.
    ///
    /// What is deliberately *kept*: the previous window `w_p`, every
    /// retained log entry with its original residuals (history is
    /// immutable), thresholds, window bounds, the re-estimation
    /// period, and the initial radius. A recalibration changes the
    /// model, not the protocol.
    ///
    /// Returns the new recalibration count (1 on the first accepted
    /// swap). Detector and logger are left unchanged on error.
    ///
    /// # Errors
    ///
    /// [`DetectError::InvalidRecalibration`] when `a` is not `n × n`
    /// for the session's state dimension, `b` is not `n × m` for its
    /// input dimension, either matrix has a non-finite entry, or the
    /// replacement cannot seed a deadline estimator / plant model.
    pub fn recalibrate(&mut self, logger: &mut DataLogger, a: &Matrix, b: &Matrix) -> Result<u64> {
        let invalid = |reason| Err(DetectError::InvalidRecalibration { reason });
        let n = self.estimator.state_dim();
        let m = logger.system().input_dim();
        if !a.is_square() || a.rows() != n {
            return invalid("A must be n x n for the session's state dimension");
        }
        if b.rows() != n || b.cols() != m {
            return invalid("B must be n x m for the session's dimensions");
        }
        if !a.is_finite() || !b.is_finite() {
            return invalid("plant matrices must be finite");
        }
        let estimator = DeadlineEstimator::new(a, b, self.estimator.config().clone());
        let Ok(estimator) = estimator else {
            return invalid("replacement model cannot seed a deadline estimator");
        };
        let system = LtiSystem::new_discrete(
            a.clone(),
            b.clone(),
            logger.system().c().clone(),
            logger.system().dt(),
        );
        let Ok(system) = system else {
            return invalid("replacement model is not a valid plant");
        };
        self.estimator = estimator;
        logger.replace_system(system);
        if let Some(cache) = self.deadline_cache.as_mut() {
            cache.clear();
        }
        self.cached_deadline = None;
        self.steps_since_estimate = 0;
        let count = self.recalibration_count() + 1;
        self.recalibration = Some(RecalibrationState {
            a: a.clone(),
            b: b.clone(),
            count,
        });
        Ok(count)
    }

    /// Captures the detector's full mutable state, together with the
    /// retained window of `logger`, into a [`DetectorSnapshot`].
    ///
    /// Restoring the snapshot into a fresh detector/logger pair built
    /// from the same configuration continues the outcome stream
    /// bit-identically (see [`AdaptiveDetector::restore`]).
    pub fn snapshot(&self, logger: &DataLogger) -> DetectorSnapshot {
        DetectorSnapshot {
            prev_window: self.prev_window,
            steps_since_estimate: self.steps_since_estimate,
            cached_deadline: self.cached_deadline,
            initial_radius: self.initial_radius,
            complementary_enabled: self.complementary_enabled,
            reestimation_period: self.reestimation_period,
            recalibration: self.recalibration.clone(),
            logger: logger.snapshot(),
        }
    }

    /// Restores the state captured by [`AdaptiveDetector::snapshot`]
    /// into this detector and `logger`, so the next
    /// [`AdaptiveDetector::step`] produces exactly the outcome the
    /// snapshotted detector would have produced.
    ///
    /// An installed deadline cache is kept as-is (with the exact
    /// configuration it is decision-transparent, so a cold cache after
    /// restore changes cost, never outcomes).
    ///
    /// # Errors
    ///
    /// [`DetectError::InvalidSnapshot`] when the snapshot is
    /// inconsistent with this detector's configuration or internally
    /// (window bounds, a non-finite or negative radius, a zero
    /// re-estimation period, or a logger window that fails
    /// [`DataLogger::restore`] validation). Detector and logger are
    /// left unchanged on error.
    pub fn restore(&mut self, logger: &mut DataLogger, snapshot: &DetectorSnapshot) -> Result<()> {
        let invalid = |reason| Err(DetectError::InvalidSnapshot { reason });
        if snapshot.prev_window < self.config.min_window()
            || snapshot.prev_window > self.config.max_window()
        {
            return invalid("previous window outside [min_window, max_window]");
        }
        if !snapshot.initial_radius.is_finite() || snapshot.initial_radius < 0.0 {
            return invalid("initial radius must be finite and non-negative");
        }
        if snapshot.reestimation_period == 0 {
            return invalid("re-estimation period must be positive");
        }
        if snapshot.steps_since_estimate > snapshot.reestimation_period {
            return invalid("aging counter exceeds the re-estimation period");
        }
        // A recalibrated snapshot rebuilds the estimator and plant
        // model from its own (Â, B̂) — validated and constructed
        // *before* any mutation so an invalid block leaves both
        // detector and logger untouched.
        let rebuilt = match &snapshot.recalibration {
            Some(recal) => {
                let n = self.config.dim();
                if !recal.a.is_square()
                    || recal.a.rows() != n
                    || recal.b.rows() != n
                    || recal.b.cols() != logger.system().input_dim()
                {
                    return invalid("recalibration matrices mismatch the session dimensions");
                }
                if !recal.a.is_finite() || !recal.b.is_finite() {
                    return invalid("recalibration matrices must be finite");
                }
                if recal.count == 0 {
                    return invalid("recalibration count must be positive");
                }
                let Ok(estimator) =
                    DeadlineEstimator::new(&recal.a, &recal.b, self.estimator.config().clone())
                else {
                    return invalid("recalibration cannot seed a deadline estimator");
                };
                let Ok(system) = LtiSystem::new_discrete(
                    recal.a.clone(),
                    recal.b.clone(),
                    logger.system().c().clone(),
                    logger.system().dt(),
                ) else {
                    return invalid("recalibration is not a valid plant model");
                };
                Some((estimator, system))
            }
            None => {
                if self.recalibration.is_some() {
                    return invalid(
                        "snapshot predates this detector's recalibration; \
                         restore into a freshly configured pair",
                    );
                }
                None
            }
        };
        logger.restore(&snapshot.logger)?;
        if let Some((estimator, system)) = rebuilt {
            self.estimator = estimator;
            logger.replace_system(system);
            if let Some(cache) = self.deadline_cache.as_mut() {
                cache.clear();
            }
        }
        self.recalibration = snapshot.recalibration.clone();
        self.prev_window = snapshot.prev_window;
        self.steps_since_estimate = snapshot.steps_since_estimate;
        self.cached_deadline = snapshot.cached_deadline;
        self.initial_radius = snapshot.initial_radius;
        self.complementary_enabled = snapshot.complementary_enabled;
        self.reestimation_period = snapshot.reestimation_period;
        self.last_step_alloc_free = false;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use awsad_linalg::{Matrix, Vector};
    use awsad_lti::LtiSystem;
    use awsad_reach::ReachConfig;
    use awsad_sets::BoxSet;

    /// Integrator plant x_{t+1} = x_t + u_t with |u| <= 1 and
    /// safe |x| <= 5; threshold tau, max window w_m.
    fn setup(tau: f64, w_m: usize) -> (DataLogger, AdaptiveDetector) {
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
            w_m,
        )
        .unwrap();
        let est = DeadlineEstimator::new(sys.a(), sys.b(), reach).unwrap();
        let cfg = DetectorConfig::new(Vector::from_slice(&[tau]), w_m).unwrap();
        let logger = DataLogger::new(sys, w_m);
        let det = AdaptiveDetector::new(cfg, est).unwrap();
        (logger, det)
    }

    fn v(x: f64) -> Vector {
        Vector::from_slice(&[x])
    }

    #[test]
    fn dimension_mismatch_rejected() {
        let (_, det) = setup(0.1, 10);
        let bad_cfg = DetectorConfig::new(Vector::zeros(2), 10).unwrap();
        assert!(matches!(
            AdaptiveDetector::new(bad_cfg, det.estimator().clone()),
            Err(DetectError::DimensionMismatch { .. })
        ));
    }

    #[test]
    fn window_tracks_deadline_of_trusted_state() {
        let (mut logger, mut det) = setup(0.5, 10);
        // Steady at origin: deadline from 0 is 5 → window 5.
        for _ in 0..12 {
            logger.record(v(0.0), v(0.0));
            let out = det.step(&logger);
            assert!(!out.alarm());
            assert_eq!(out.window, 5);
        }
        assert_eq!(det.previous_window(), 5);
    }

    #[test]
    fn window_shrinks_near_unsafe_boundary() {
        let (mut logger, mut det) = setup(10.0, 10); // huge tau: no alarms
        let mut windows = Vec::new();
        // March the estimate toward the boundary at +5.
        for i in 0..14 {
            let x = (i as f64 * 0.35).min(4.5);
            logger.record(v(x), v(0.0));
            windows.push(det.step(&logger).window);
        }
        // The window must end strictly smaller than it started; the
        // trusted-state lag makes the descent trail the estimate.
        assert!(windows.last().unwrap() < &5);
        assert!(windows.first().unwrap() >= windows.last().unwrap());
    }

    #[test]
    fn beyond_deadline_uses_max_window() {
        // Strongly contracting plant: the deadline search never finds
        // an escape, so the detector sits at w_m.
        let sys = LtiSystem::new_discrete_fully_observable(
            Matrix::diagonal(&[0.2]),
            Matrix::from_rows(&[&[0.01]]).unwrap(),
            0.02,
        )
        .unwrap();
        let reach = ReachConfig::new(
            BoxSet::from_bounds(&[-1.0], &[1.0]).unwrap(),
            0.0,
            BoxSet::from_bounds(&[-5.0], &[5.0]).unwrap(),
            8,
        )
        .unwrap();
        let est = DeadlineEstimator::new(sys.a(), sys.b(), reach).unwrap();
        let cfg = DetectorConfig::new(v(0.5), 8).unwrap();
        let mut logger = DataLogger::new(sys, 8);
        let mut det = AdaptiveDetector::new(cfg, est).unwrap();
        logger.record(v(0.0), v(0.0));
        let out = det.step(&logger);
        assert_eq!(out.deadline, Deadline::Beyond);
        assert_eq!(out.window, 8);
    }

    #[test]
    fn alarm_when_residual_mean_exceeds_tau() {
        let (mut logger, mut det) = setup(0.2, 10);
        for _ in 0..8 {
            logger.record(v(0.0), v(0.0));
            assert!(!det.step(&logger).alarm());
        }
        // Estimate jumps by 2.0: residual 2.0, window 5 → mean 1/3 > 0.2.
        logger.record(v(2.0), v(0.0));
        let out = det.step(&logger);
        assert!(out.current_alarm);
        assert!(out.alarm());
    }

    /// Shared escape scenario (hand-verified timeline, paper
    /// normalization: window sum over `[t−w, t]` divided by `w`):
    ///
    /// * `t = 0..=5`: estimate 0 → residual 0, window settles at 5
    ///   (deadline from the origin of the integrator with safe ±5).
    /// * `t = 6`: estimate jumps to 0.8 → residual spike 0.8. Every
    ///   size-5 window containing it scores ≤ (0.8+0.5)/5 = 0.26 <
    ///   τ = 0.28, so the spike is diluted and no current alarm fires.
    /// * `t ≥ 7`: the estimate drifts +0.1/step toward the boundary
    ///   (residual 0.1 each step; any drift-only window scores ≤ 0.2).
    /// * `t = 12`: the *trusted* entry is now the spike state 0.8,
    ///   whose deadline is 4 → the window shrinks 5 → 4. The
    ///   complementary window `[6, 10]` scores (0.8+0.4)/4 = 0.30 >
    ///   τ: only complementary detection can still catch the spike —
    ///   every later window contains drift residuals only.
    ///
    /// Returns (any complementary alarm fired, any alarm at all fired).
    fn escape_scenario(enabled: bool) -> (bool, bool) {
        let (mut logger, mut det) = setup(0.28, 10);
        det.set_complementary_enabled(enabled);
        let mut complementary_fired = false;
        let mut any_fired = false;
        for t in 0..=18usize {
            let estimate = match t {
                0..=5 => 0.0,
                _ => 0.8 + 0.1 * (t as f64 - 6.0),
            };
            logger.record(v(estimate), v(0.0));
            let out = det.step(&logger);
            complementary_fired |= !out.complementary_alarms.is_empty();
            any_fired |= out.alarm();
        }
        (complementary_fired, any_fired)
    }

    #[test]
    fn complementary_detection_catches_escaping_point() {
        let (complementary, any) = escape_scenario(true);
        assert!(complementary, "complementary detection never fired");
        assert!(any);
    }

    #[test]
    fn disabled_complementary_lets_points_escape() {
        let (complementary, any) = escape_scenario(false);
        assert!(!complementary);
        assert!(
            !any,
            "without complementary detection the diluted spike must escape entirely"
        );
    }

    #[test]
    fn growing_window_needs_no_complementary_work() {
        let (mut logger, mut det) = setup(10.0, 10);
        // Start near the boundary: small window.
        logger.record(v(4.5), v(0.0));
        let w_small = det.step(&logger).window;
        assert!(w_small < 5);
        // Jump back to the center: deadline grows, window grows, no
        // complementary alarms possible.
        logger.record(v(0.0), v(0.0));
        let out = det.step(&logger);
        assert!(out.window >= w_small);
        assert!(out.complementary_alarms.is_empty());
    }

    #[test]
    fn initial_radius_tightens_windows() {
        let (mut logger, mut det) = setup(10.0, 10);
        let (mut logger2, mut det2) = setup(10.0, 10);
        det2.set_initial_radius(1.0);
        logger.record(v(3.0), v(0.0));
        logger2.record(v(3.0), v(0.0));
        let w_exact = det.step(&logger).window;
        let w_fuzzy = det2.step(&logger2).window;
        assert!(w_fuzzy < w_exact, "{w_fuzzy} !< {w_exact}");
    }

    #[test]
    fn reset_restores_max_window() {
        let (mut logger, mut det) = setup(10.0, 10);
        logger.record(v(4.5), v(0.0));
        det.step(&logger);
        assert!(det.previous_window() < 10);
        det.reset();
        assert_eq!(det.previous_window(), 10);
    }

    #[test]
    #[should_panic(expected = "record the current step")]
    fn stepping_empty_logger_panics() {
        let (logger, mut det) = setup(0.1, 10);
        det.step(&logger);
    }

    #[test]
    fn reestimation_period_ages_the_deadline_conservatively() {
        let (mut logger, mut det) = setup(10.0, 10);
        det.set_reestimation_period(4);
        // Steady at the origin: the fresh deadline is 5 (integrator,
        // safe +/-5); between queries it must count down 5,4,3,2 then
        // refresh back to 5.
        let mut observed = Vec::new();
        for _ in 0..9 {
            logger.record(v(0.0), v(0.0));
            let out = det.step(&logger);
            observed.push(out.deadline.steps().unwrap());
        }
        assert_eq!(observed, vec![5, 4, 3, 2, 5, 4, 3, 2, 5]);
    }

    #[test]
    fn reestimation_period_one_matches_default_protocol() {
        let run = |period: usize| {
            let (mut logger, mut det) = setup(0.28, 10);
            det.set_reestimation_period(period);
            let mut windows = Vec::new();
            for t in 0..20usize {
                let estimate = 0.1 * (t as f64);
                logger.record(v(estimate), v(0.0));
                windows.push(det.step(&logger).window);
            }
            windows
        };
        assert_eq!(run(1), run(1));
        // On a stream drifting monotonically toward the boundary,
        // aging only ever makes the window *more* conservative: the
        // period-3 detector's windows never exceed the per-step ones.
        let fresh = run(1);
        let aged = run(3);
        for (t, (f, a)) in fresh.iter().zip(aged.iter()).enumerate() {
            assert!(a <= f, "aged window {a} exceeds fresh {f} at t={t}");
        }
        // And the two start identically (the first step is a query).
        assert_eq!(fresh[0], aged[0]);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_reestimation_period_panics() {
        let (_, mut det) = setup(0.1, 10);
        det.set_reestimation_period(0);
    }

    #[test]
    fn exact_deadline_cache_leaves_decisions_unchanged() {
        use awsad_reach::CacheConfig;
        let (mut logger_a, mut plain) = setup(0.28, 10);
        let (mut logger_b, mut cached) = setup(0.28, 10);
        cached.set_deadline_cache(DeadlineCache::new(CacheConfig::exact(256)));
        for t in 0..=18usize {
            let estimate = match t {
                0..=5 => 0.0,
                _ => 0.8 + 0.1 * (t as f64 - 6.0),
            };
            logger_a.record(v(estimate), v(0.0));
            logger_b.record(v(estimate), v(0.0));
            assert_eq!(plain.step(&logger_a), cached.step(&logger_b), "t={t}");
        }
        let stats = cached.deadline_cache_stats().unwrap();
        assert!(stats.hits > 0, "repeated trusted states must hit");
        assert_eq!(plain.deadline_cache_stats(), None);
    }

    #[test]
    fn deadline_cache_can_be_taken_back_with_counters() {
        use awsad_reach::CacheConfig;
        let (mut logger, mut det) = setup(0.5, 10);
        det.set_deadline_cache(DeadlineCache::new(CacheConfig::exact(16)));
        logger.record(v(0.0), v(0.0));
        det.step(&logger);
        let cache = det.take_deadline_cache().unwrap();
        assert_eq!(cache.stats().misses, 1);
        assert_eq!(det.deadline_cache_stats(), None);
    }

    #[test]
    fn degraded_step_grows_to_max_window_and_still_detects() {
        let (mut logger, mut det) = setup(0.2, 10);
        // Near the boundary the regular step shrinks the window…
        logger.record(v(4.5), v(0.0));
        assert!(det.step(&logger).window < 10);
        // …a degraded step snaps back to w_m without an estimator
        // query and reports no deadline estimate.
        logger.record(v(4.5), v(0.0));
        let out = det.step_degraded(&logger);
        assert_eq!(out.window, 10);
        assert_eq!(out.deadline, Deadline::Beyond);
        assert!(out.complementary_alarms.is_empty());
        assert_eq!(det.previous_window(), 10);
        // Detection on the current window still happens: a residual
        // burst above tau*w trips the degraded step too.
        let (mut logger2, mut det2) = setup(0.2, 4);
        for _ in 0..4 {
            logger2.record(v(0.0), v(0.0));
            det2.step(&logger2);
        }
        logger2.record(v(8.0), v(0.0));
        assert!(det2.step_degraded(&logger2).current_alarm);
    }

    #[test]
    fn alloc_free_flag_tracks_cache_inserts_and_complementary_alarms() {
        use awsad_reach::CacheConfig;
        let (mut logger, mut det) = setup(0.5, 10);
        det.set_deadline_cache(DeadlineCache::new(CacheConfig::exact(16)));
        assert!(!det.last_step_was_alloc_free(), "before any step");
        logger.record(v(0.0), v(0.0));
        det.step(&logger);
        assert!(
            !det.last_step_was_alloc_free(),
            "a cache miss inserts a memoized entry"
        );
        logger.record(v(0.0), v(0.0));
        det.step(&logger);
        assert!(
            det.last_step_was_alloc_free(),
            "a repeated trusted state hits the cache"
        );
        // Without a cache the scratch walk itself is allocation-free.
        let (mut logger2, mut det2) = setup(0.5, 10);
        logger2.record(v(0.0), v(0.0));
        det2.step(&logger2);
        assert!(det2.last_step_was_alloc_free());
        // A complementary alarm collects end-steps → not alloc-free.
        let (mut logger3, mut det3) = setup(0.28, 10);
        for t in 0..=12usize {
            let estimate = match t {
                0..=5 => 0.0,
                _ => 0.8 + 0.1 * (t as f64 - 6.0),
            };
            logger3.record(v(estimate), v(0.0));
            let out = det3.step(&logger3);
            if !out.complementary_alarms.is_empty() {
                assert!(!det3.last_step_was_alloc_free());
            }
        }
    }

    #[test]
    fn prewarm_inserts_entries_identical_to_the_miss_path() {
        use awsad_reach::CacheConfig;
        let (mut logger_a, mut warm) = setup(0.5, 10);
        let (mut logger_b, mut cold) = setup(0.5, 10);
        warm.set_deadline_cache(DeadlineCache::new(CacheConfig::exact(64)));
        cold.set_deadline_cache(DeadlineCache::new(CacheConfig::exact(64)));
        let origin = v(0.0);
        assert_eq!(warm.prewarm_deadline_cache(&[&origin]), 1);
        // Re-prewarming the same state is a no-op.
        assert_eq!(warm.prewarm_deadline_cache(&[&origin]), 0);
        // A dimension-mismatched batch is rejected wholesale.
        let bad = Vector::zeros(2);
        assert_eq!(warm.prewarm_deadline_cache(&[&bad]), 0);
        // Without a cache prewarming is a no-op too.
        let (_, mut none) = setup(0.5, 10);
        assert_eq!(none.prewarm_deadline_cache(&[&origin]), 0);

        for _ in 0..4 {
            logger_a.record(v(0.0), v(0.0));
            logger_b.record(v(0.0), v(0.0));
            assert_eq!(warm.step(&logger_a), cold.step(&logger_b));
        }
        let w = warm.deadline_cache_stats().unwrap();
        let c = cold.deadline_cache_stats().unwrap();
        assert_eq!(w.misses, 1, "only the prewarm insert counts as a miss");
        assert_eq!(c.misses, 1);
        assert_eq!(w.hits, c.hits + 1, "warm detector hits on its first step");
    }

    #[test]
    fn snapshot_restore_resumes_bit_identical_mid_stream() {
        // Drive the escape scenario (spike + drift: window shrinks,
        // complementary alarms fire) with a re-estimation period > 1 so
        // the aging counter and cached deadline are both mid-flight at
        // the cut point. The restored pair must continue the exact
        // stream the uninterrupted pair produces.
        let trace: Vec<f64> = (0..=18)
            .map(|t| match t {
                0..=5 => 0.0,
                _ => 0.8 + 0.1 * (t as f64 - 6.0),
            })
            .collect();
        let (mut logger_a, mut det_a) = setup(0.28, 10);
        let (mut logger_b, mut det_b) = setup(0.28, 10);
        det_a.set_reestimation_period(3);
        det_b.set_reestimation_period(3);
        det_a.set_initial_radius(0.05);
        det_b.set_initial_radius(0.05);
        let cut = 11;
        // Uninterrupted reference run over the whole trace.
        let expected: Vec<AdaptiveStep> = trace
            .iter()
            .map(|&x| {
                logger_a.record(v(x), v(0.0));
                det_a.step(&logger_a)
            })
            .collect();
        // Interrupted run: step to the cut, snapshot, restore into a
        // freshly built pair, continue there.
        for &x in &trace[..cut] {
            logger_b.record(v(x), v(0.0));
            det_b.step(&logger_b);
        }
        let snap = det_b.snapshot(&logger_b);
        let (mut logger_c, mut det_c) = setup(0.28, 10);
        det_c.restore(&mut logger_c, &snap).unwrap();
        let mut resumed: Vec<AdaptiveStep> = Vec::new();
        for &x in &trace[cut..] {
            logger_c.record(v(x), v(0.0));
            resumed.push(det_c.step(&logger_c));
        }
        assert_eq!(resumed, expected[cut..].to_vec());
        // The reference run must actually exercise the interesting
        // machinery for the equality to mean anything.
        assert!(expected.iter().any(|s| s.alarm()));
        assert!(expected[cut..].iter().any(|s| s.window < 10));
    }

    #[test]
    fn restore_rejects_inconsistent_snapshots() {
        let (mut logger, mut det) = setup(0.5, 10);
        for _ in 0..6 {
            logger.record(v(0.0), v(0.0));
            det.step(&logger);
        }
        let good = det.snapshot(&logger);
        let (mut fresh_logger, mut fresh_det) = setup(0.5, 10);
        assert!(fresh_det.restore(&mut fresh_logger, &good).is_ok());

        let mut bad = good.clone();
        bad.prev_window = 99;
        assert!(matches!(
            fresh_det.restore(&mut fresh_logger, &bad),
            Err(DetectError::InvalidSnapshot { .. })
        ));
        let mut bad = good.clone();
        bad.reestimation_period = 0;
        assert!(matches!(
            fresh_det.restore(&mut fresh_logger, &bad),
            Err(DetectError::InvalidSnapshot { .. })
        ));
        let mut bad = good.clone();
        bad.initial_radius = f64::NAN;
        assert!(matches!(
            fresh_det.restore(&mut fresh_logger, &bad),
            Err(DetectError::InvalidSnapshot { .. })
        ));
        let mut bad = good.clone();
        bad.logger.next_step += 1;
        assert!(matches!(
            fresh_det.restore(&mut fresh_logger, &bad),
            Err(DetectError::InvalidSnapshot { .. })
        ));
        let mut bad = good.clone();
        bad.logger.entries[2].step += 1;
        assert!(matches!(
            fresh_det.restore(&mut fresh_logger, &bad),
            Err(DetectError::InvalidSnapshot { .. })
        ));
        let mut bad = good.clone();
        bad.logger.entries[0].estimate = Vector::zeros(3);
        assert!(matches!(
            fresh_det.restore(&mut fresh_logger, &bad),
            Err(DetectError::InvalidSnapshot { .. })
        ));
        // The good snapshot still restores after all the rejections —
        // failed restores must leave the pair untouched.
        assert!(fresh_det.restore(&mut fresh_logger, &good).is_ok());
    }

    #[test]
    fn degraded_step_forces_requery_on_next_regular_step() {
        let (mut logger, mut det) = setup(10.0, 10);
        det.set_reestimation_period(4);
        logger.record(v(0.0), v(0.0));
        assert_eq!(det.step(&logger).deadline, Deadline::Within(5));
        logger.record(v(0.0), v(0.0));
        det.step_degraded(&logger);
        // Without the forced refresh the period-4 detector would age
        // the stale estimate (4); instead it re-queries and reads 5.
        logger.record(v(0.0), v(0.0));
        assert_eq!(det.step(&logger).deadline, Deadline::Within(5));
    }

    #[test]
    fn recalibrate_swaps_model_and_estimator_in_place() {
        let (mut logger, mut det) = setup(0.5, 10);
        for _ in 0..6 {
            logger.record(v(0.0), v(0.0));
            det.step(&logger);
        }
        assert_eq!(det.recalibration_count(), 0);
        // Swap the integrator for a contracting plant with a smaller
        // input gain.
        let a = Matrix::diagonal(&[0.5]);
        let b = Matrix::from_rows(&[&[0.25]]).unwrap();
        assert_eq!(det.recalibrate(&mut logger, &a, &b).unwrap(), 1);
        assert_eq!(det.recalibration_count(), 1);
        assert!(logger.system().a().approx_eq(&a));
        assert!(logger.system().b().approx_eq(&b));
        assert!(det.estimator().state_dim() == 1);
        // Predictions from the next record on use the new model:
        // x̃ = 0.5·x̄ + 0.25·u.
        logger.record(v(1.0), v(0.0));
        det.step(&logger);
        logger.record(v(0.5), v(0.0));
        let entry = logger.latest().unwrap();
        assert_eq!(entry.residual.as_slice()[0], 0.0);
        det.step(&logger);
    }

    #[test]
    fn recalibrate_rejects_malformed_models() {
        let (mut logger, mut det) = setup(0.5, 10);
        logger.record(v(0.0), v(0.0));
        det.step(&logger);
        let good_a = Matrix::identity(1);
        let good_b = Matrix::from_rows(&[&[1.0]]).unwrap();
        let wide = Matrix::zeros(1, 2);
        assert!(matches!(
            det.recalibrate(&mut logger, &wide, &good_b),
            Err(DetectError::InvalidRecalibration { .. })
        ));
        assert!(matches!(
            det.recalibrate(&mut logger, &Matrix::identity(2), &good_b),
            Err(DetectError::InvalidRecalibration { .. })
        ));
        assert!(matches!(
            det.recalibrate(&mut logger, &good_a, &Matrix::zeros(1, 2)),
            Err(DetectError::InvalidRecalibration { .. })
        ));
        let nan = Matrix::from_rows(&[&[f64::NAN]]).unwrap();
        assert!(matches!(
            det.recalibrate(&mut logger, &nan, &good_b),
            Err(DetectError::InvalidRecalibration { .. })
        ));
        // Rejections leave everything unchanged.
        assert_eq!(det.recalibration_count(), 0);
        assert!(logger.system().a().approx_eq(&Matrix::identity(1)));
    }

    #[test]
    fn recalibrate_clears_installed_cache_and_forces_requery() {
        let (mut logger, mut det) = setup(10.0, 10);
        det.set_deadline_cache(DeadlineCache::new(awsad_reach::CacheConfig::exact(64)));
        for _ in 0..6 {
            logger.record(v(0.0), v(0.0));
            det.step(&logger);
        }
        assert!(det.deadline_cache_stats().unwrap().hits > 0);
        let a = Matrix::diagonal(&[0.5]);
        let b = Matrix::from_rows(&[&[0.25]]).unwrap();
        det.recalibrate(&mut logger, &a, &b).unwrap();
        assert!(det.has_deadline_cache());
        assert_eq!(det.deadline_cache_stats().unwrap().len, 0);
        // The next step re-queries under the new model and still runs.
        logger.record(v(0.0), v(0.0));
        let out = det.step(&logger);
        assert!(out.window >= 1);
    }

    #[test]
    fn snapshot_restore_survives_recalibration_bit_identically() {
        let (mut logger, mut det) = setup(0.5, 6);
        for i in 0..5 {
            logger.record(v(0.02 * i as f64), v(0.01));
            det.step(&logger);
        }
        let a = Matrix::diagonal(&[0.8]);
        let b = Matrix::from_rows(&[&[0.5]]).unwrap();
        det.recalibrate(&mut logger, &a, &b).unwrap();
        logger.record(v(0.1), v(0.02));
        det.step(&logger);
        let snap = det.snapshot(&logger);
        assert_eq!(snap.recalibration.as_ref().unwrap().count, 1);

        // Restore into a pair built from the *original* configuration:
        // the snapshot's recalibration block must rebuild the drifted
        // estimator and plant on its own.
        let (mut logger2, mut det2) = setup(0.5, 6);
        det2.restore(&mut logger2, &snap).unwrap();
        assert_eq!(det2.recalibration_count(), 1);
        assert!(logger2.system().a().approx_eq(&a));
        for i in 0..8 {
            let x = v(0.1 - 0.01 * i as f64);
            let u = v(0.005 * i as f64);
            logger.record(x.clone(), u.clone());
            logger2.record(x, u);
            assert_eq!(det.step(&logger), det2.step(&logger2));
        }
    }

    #[test]
    fn restore_rejects_inconsistent_recalibration_blocks() {
        let (mut logger, mut det) = setup(0.5, 6);
        for _ in 0..4 {
            logger.record(v(0.0), v(0.0));
            det.step(&logger);
        }
        let good = det.snapshot(&logger);
        let recal = crate::RecalibrationState {
            a: Matrix::diagonal(&[0.5]),
            b: Matrix::from_rows(&[&[0.25]]).unwrap(),
            count: 1,
        };
        let (mut fl, mut fd) = setup(0.5, 6);
        // Wrong dimensions.
        let mut bad = good.clone();
        bad.recalibration = Some(crate::RecalibrationState {
            a: Matrix::identity(2),
            ..recal.clone()
        });
        assert!(matches!(
            fd.restore(&mut fl, &bad),
            Err(DetectError::InvalidSnapshot { .. })
        ));
        // Zero count.
        let mut bad = good.clone();
        bad.recalibration = Some(crate::RecalibrationState {
            count: 0,
            ..recal.clone()
        });
        assert!(matches!(
            fd.restore(&mut fl, &bad),
            Err(DetectError::InvalidSnapshot { .. })
        ));
        // Non-finite matrices.
        let mut bad = good.clone();
        bad.recalibration = Some(crate::RecalibrationState {
            b: Matrix::from_rows(&[&[f64::INFINITY]]).unwrap(),
            ..recal.clone()
        });
        assert!(matches!(
            fd.restore(&mut fl, &bad),
            Err(DetectError::InvalidSnapshot { .. })
        ));
        // A pre-recalibration snapshot cannot restore into a detector
        // that has already swapped models (the original estimator is
        // gone).
        let mut bad_target = fd.clone();
        let mut bad_target_logger = fl.clone();
        bad_target
            .recalibrate(&mut bad_target_logger, &recal.a, &recal.b)
            .unwrap();
        assert!(matches!(
            bad_target.restore(&mut bad_target_logger, &good),
            Err(DetectError::InvalidSnapshot { .. })
        ));
        // The valid block restores fine after all the rejections.
        let mut ok = good.clone();
        ok.recalibration = Some(recal);
        assert!(fd.restore(&mut fl, &ok).is_ok());
        assert_eq!(fd.recalibration_count(), 1);
    }
}
