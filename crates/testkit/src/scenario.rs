//! Seeded scenario generation and the one-line seed string.
//!
//! A **scenario** is everything a differential oracle needs to run one
//! detection episode: a plant, a detector configuration, and a
//! closed-loop `(estimate, input)` trace with an attack schedule baked
//! in. Scenarios come in five families:
//!
//! * [`Family::Registry`] — a random Table 1 model under randomized
//!   window parameters, threshold scaling, cache capacity, and attack
//!   schedule. Everything is expressible as a
//!   [`SessionSpec`], so registry scenarios can run through **all**
//!   detection paths including the serve wire protocol.
//! * [`Family::RandomLti`] — a freshly synthesized stable-or-marginal
//!   LTI plant (spectral radius dialed in explicitly), random PID
//!   gains, noise bounds, and detector knobs the wire protocol cannot
//!   express (initial radius, re-estimation period, complementary
//!   toggle). These exercise the local paths and the estimator
//!   oracles.
//! * [`Family::Sensor`] — a Table 1 model sensed through a randomized
//!   output map `C ≠ I`: a steady-state Kalman observer reconstructs
//!   the estimate stream while a per-sensor attack falsifies
//!   individual output channels. The spec carries the output map, so
//!   these run every path, wire included.
//! * [`Family::Severe`] — the sensor family's worst case: fewer than
//!   half of the sensors are trustworthy.
//! * [`Family::Drift`] — a Table 1 model whose **true plant drifts**
//!   mid-stream (a step or ramp scaling of `A` and/or `B`), noise-free
//!   so the drifted dynamics are exactly identifiable, with an
//!   optional concurrent sensor attack on top. Carries a precomputed
//!   [`ScenarioRecalibration`] — the tick index and drifted matrices
//!   the session swaps to via the `Recalibrate` wire op; the oracle
//!   swaps the model there on every path it runs the scenario on.
//!
//! Every scenario derives deterministically from a [`SeedSpec`], which
//! serializes to a one-line seed string
//!
//! ```text
//! awsad1:<family>:<seed as 16 hex digits>[:len=N]
//! ```
//!
//! so a failure anywhere (CI, fuzz run, property test) replays exactly
//! from the printed line. The optional `len=N` caps the trace length —
//! the shrinker uses it to minimize a failing episode without leaving
//! the seed-string format.

use std::fmt;
use std::str::FromStr;

use awsad_attack::{
    AttackWindow, BiasAttack, DelayAttack, NoAttack, PerSensor, ReplayAttack, SensorAttack,
};
use awsad_control::{Controller, PidChannel, PidController, PidGains, Reference};
use awsad_core::{AdaptiveDetector, DataLogger, DetectorConfig};
use awsad_linalg::{spectral_radius, Matrix, Vector};
use awsad_lti::{LtiSystem, Observer};
use awsad_models::Simulator;
use awsad_reach::{CacheConfig, DeadlineCache, DeadlineEstimator, ReachConfig};
use awsad_serve::server::session_parts_for_spec;
use awsad_serve::wire::{SessionSpec, WireTick};
use awsad_sets::BoxSet;
use awsad_sim::design_output_observer;
use rand::rngs::StdRng;
use rand::{RngExt as _, SeedableRng};

/// Which generator produced a scenario.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Family {
    /// A randomized Table 1 model — runs every path, wire included.
    Registry,
    /// A synthesized random LTI plant — local paths + estimator
    /// oracles.
    RandomLti,
    /// A Table 1 model sensed through a randomized output map
    /// `C ≠ I`, with a [`awsad_attack::PerSensor`] attack falsifying a
    /// *minority* of the individual sensors; estimates come from a
    /// Luenberger observer, and the spec carries the output map, so
    /// these run every path, wire included.
    Sensor,
    /// Like [`Family::Sensor`] but with **fewer than half** of the
    /// sensors trustworthy — a strict majority of the output channels
    /// is falsified, the secure-state-estimation worst case.
    Severe,
    /// A Table 1 model whose true plant drifts mid-stream, with a
    /// precomputed recalibration plan — runs every path, wire
    /// included, through the `Recalibrate` op.
    Drift,
}

impl Family {
    fn tag(self) -> &'static str {
        match self {
            Family::Registry => "registry",
            Family::RandomLti => "lti",
            Family::Sensor => "sensor",
            Family::Severe => "severe",
            Family::Drift => "drift",
        }
    }
}

/// The replayable identity of a scenario: family + 64-bit seed +
/// optional trace-length cap. Parses from and prints as the one-line
/// seed string (see module docs).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SeedSpec {
    /// Generator family.
    pub family: Family,
    /// The RNG seed every random choice derives from.
    pub seed: u64,
    /// Trace-length override (`None` = the generator's own draw).
    /// The shrinker lowers this to minimize failing episodes.
    pub len: Option<usize>,
}

impl SeedSpec {
    /// A registry-family seed with no length override.
    pub fn registry(seed: u64) -> SeedSpec {
        SeedSpec {
            family: Family::Registry,
            seed,
            len: None,
        }
    }

    /// A random-LTI-family seed with no length override.
    pub fn random_lti(seed: u64) -> SeedSpec {
        SeedSpec {
            family: Family::RandomLti,
            seed,
            len: None,
        }
    }

    /// A sensor-family (per-sensor attack, `C ≠ I`) seed with no
    /// length override.
    pub fn sensor(seed: u64) -> SeedSpec {
        SeedSpec {
            family: Family::Sensor,
            seed,
            len: None,
        }
    }

    /// A severe-family (majority of sensors lying) seed with no
    /// length override.
    pub fn severe(seed: u64) -> SeedSpec {
        SeedSpec {
            family: Family::Severe,
            seed,
            len: None,
        }
    }

    /// A drift-family (mid-stream plant drift + recalibration plan)
    /// seed with no length override.
    pub fn drift(seed: u64) -> SeedSpec {
        SeedSpec {
            family: Family::Drift,
            seed,
            len: None,
        }
    }

    /// The same seed with the trace capped at `len` ticks.
    pub fn with_len(self, len: usize) -> SeedSpec {
        SeedSpec {
            len: Some(len),
            ..self
        }
    }

    /// The `cargo run` invocation that replays this exact scenario.
    pub fn repro_command(&self) -> String {
        repro_command(std::slice::from_ref(self))
    }
}

/// The `cargo run` invocation that replays this exact chunk, through
/// the same oracle as the fuzz smoke and the oracle tests. A
/// batch-path failure can depend on the chunk's other scenarios, so
/// the repro keeps them all.
pub fn repro_command(chunk: &[SeedSpec]) -> String {
    let seeds: Vec<String> = chunk.iter().map(SeedSpec::to_string).collect();
    format!(
        "cargo run --release -p awsad-testkit --bin fuzz -- --repro {}",
        seeds.join(",")
    )
}

impl fmt::Display for SeedSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "awsad1:{}:{:016x}", self.family.tag(), self.seed)?;
        if let Some(len) = self.len {
            write!(f, ":len={len}")?;
        }
        Ok(())
    }
}

impl FromStr for SeedSpec {
    type Err = String;

    fn from_str(s: &str) -> Result<SeedSpec, String> {
        let mut parts = s.split(':');
        match parts.next() {
            Some("awsad1") => {}
            other => {
                return Err(format!(
                    "seed string must start with \"awsad1:\", got {other:?}"
                ))
            }
        }
        let family = match parts.next() {
            Some("registry") => Family::Registry,
            Some("lti") => Family::RandomLti,
            Some("sensor") => Family::Sensor,
            Some("severe") => Family::Severe,
            Some("drift") => Family::Drift,
            other => {
                return Err(format!(
                    "unknown scenario family {other:?} (expected \"registry\", \"lti\", \
                     \"sensor\", \"severe\", or \"drift\")"
                ))
            }
        };
        let seed = match parts.next() {
            Some(hex) => {
                u64::from_str_radix(hex, 16).map_err(|e| format!("bad seed hex {hex:?}: {e}"))?
            }
            None => return Err("seed string is missing the seed field".into()),
        };
        let mut len = None;
        for extra in parts {
            if let Some(n) = extra.strip_prefix("len=") {
                len = Some(
                    n.parse::<usize>()
                        .map_err(|e| format!("bad len {n:?}: {e}"))?,
                );
            } else {
                return Err(format!("unknown seed-string field {extra:?}"));
            }
        }
        Ok(SeedSpec { family, seed, len })
    }
}

/// The drift family's precomputed model swap: at tick index `at` the
/// session recalibrates to the drifted plant `(a, b)`. Every oracle
/// path applies the swap at exactly this boundary — ticks `0..at` run
/// under the session's original model, ticks `at..` under the drifted
/// one — so the post-recalibration streams must stay bit-identical.
#[derive(Debug, Clone)]
pub struct ScenarioRecalibration {
    /// Tick index the swap happens before (clamped to the trace
    /// length under a `len=` override).
    pub at: usize,
    /// The drifted state matrix the session swaps to.
    pub a: Matrix,
    /// The drifted input matrix the session swaps to.
    pub b: Matrix,
}

/// A fully materialized scenario: the plant, the detector knobs, and
/// the attack-carrying closed-loop trace every path consumes.
#[derive(Debug, Clone)]
pub struct Scenario {
    /// The seed this scenario replays from.
    pub seed: SeedSpec,
    /// Human-readable description (plant + attack schedule).
    pub label: String,
    /// The wire spec — `Some` for every family but
    /// [`Family::RandomLti`], whose detector knobs the wire cannot
    /// express; the wire paths run exactly the scenarios that have
    /// one.
    pub spec: Option<SessionSpec>,
    /// The plant.
    pub system: LtiSystem,
    /// Per-dimension residual threshold `τ`.
    pub threshold: Vector,
    /// Maximum window `w_m`.
    pub max_window: usize,
    /// Minimum window.
    pub min_window: usize,
    /// Exact deadline-cache capacity (0 = no cache).
    pub cache_capacity: usize,
    /// Initial-state radius for deadline queries.
    pub initial_radius: f64,
    /// Deadline re-estimation period.
    pub reestimation_period: usize,
    /// Whether complementary detection runs on window shrink.
    pub complementary: bool,
    /// Process-noise bound `ε` the reachability analysis assumes.
    pub epsilon: f64,
    /// Actuator saturation box `U`.
    pub control_limits: BoxSet,
    /// Safe set `S`.
    pub safe_set: BoxSet,
    /// The `(estimate, input)` stream, attack already applied.
    pub trace: Vec<WireTick>,
    /// The tampered sensor readings `y_t` the observer consumed —
    /// populated only for the output-feedback families
    /// ([`Family::Sensor`] / [`Family::Severe`]), empty otherwise.
    /// The lying-sensor localizer benchmarks consume these.
    pub measurements: Vec<Vec<f64>>,
    /// The step the attack schedule activates at (`None` = benign).
    pub attack_onset: Option<usize>,
    /// The mid-stream model swap — `Some` exactly for
    /// [`Family::Drift`] scenarios; the oracle swaps the model at its
    /// boundary on every path it runs the scenario on.
    pub recalibration: Option<ScenarioRecalibration>,
}

impl Scenario {
    /// Materializes the scenario a seed describes. Identical seeds
    /// produce identical scenarios, bit for bit.
    pub fn from_seed(seed: &SeedSpec) -> Scenario {
        match seed.family {
            Family::Registry => registry_scenario(seed),
            Family::RandomLti => random_lti_scenario(seed),
            Family::Sensor => output_feedback_scenario(seed, false),
            Family::Severe => output_feedback_scenario(seed, true),
            Family::Drift => drift_scenario(seed),
        }
    }

    /// Builds the `(logger, detector)` pair for the local reference
    /// run. For registry scenarios this delegates to the **server's
    /// own** construction ([`session_parts_for_spec`]) so the local
    /// reference cannot drift from what the wire path builds.
    pub fn parts(&self) -> (DataLogger, AdaptiveDetector) {
        match &self.spec {
            Some(spec) => {
                let (logger, detector, _, _) =
                    session_parts_for_spec(spec).expect("generated spec must be buildable");
                (logger, detector)
            }
            None => {
                let det_cfg = DetectorConfig::with_min_window(
                    self.threshold.clone(),
                    self.min_window,
                    self.max_window,
                )
                .expect("generated detector config must be valid");
                let mut detector = AdaptiveDetector::new(det_cfg, self.estimator())
                    .expect("generated detector must be valid");
                if self.cache_capacity > 0 {
                    detector.set_deadline_cache(DeadlineCache::new(CacheConfig::exact(
                        self.cache_capacity,
                    )));
                }
                detector.set_initial_radius(self.initial_radius);
                detector.set_reestimation_period(self.reestimation_period);
                detector.set_complementary_enabled(self.complementary);
                let logger = DataLogger::new(self.system.clone(), self.max_window);
                (logger, detector)
            }
        }
    }

    /// Builds a fresh deadline estimator for this scenario's plant.
    pub fn estimator(&self) -> DeadlineEstimator {
        let config = ReachConfig::new(
            self.control_limits.clone(),
            self.epsilon,
            self.safe_set.clone(),
            self.max_window,
        )
        .expect("generated reach config must be valid");
        DeadlineEstimator::new(self.system.a(), self.system.b(), config)
            .expect("generated estimator must be valid")
    }
}

/// Draws the attack schedule for a trace of `len` steps and returns
/// the attack plus its description.
fn draw_attack(
    rng: &mut StdRng,
    len: usize,
    dim: usize,
    target_dim: usize,
    magnitude: f64,
) -> (Box<dyn SensorAttack + Send>, String) {
    let onset = rng.random_range(len / 3..=(2 * len) / 3);
    let duration = if rng.random_bool(0.5) {
        Some(rng.random_range(4..=len / 2 + 4))
    } else {
        None
    };
    let window = AttackWindow::new(onset, duration);
    let dur_desc = match duration {
        Some(d) => format!("for {d}"),
        None => "onward".into(),
    };
    match rng.random_range(0..4u32) {
        0 => (Box::new(NoAttack), "benign".into()),
        1 => {
            let sign = if rng.random_bool(0.5) { 1.0 } else { -1.0 };
            let mut bias = Vector::zeros(dim);
            bias[target_dim] = sign * magnitude;
            (
                Box::new(BiasAttack::new(window, bias)),
                format!(
                    "bias {:+.4} on dim {target_dim} at {onset} {dur_desc}",
                    sign * magnitude
                ),
            )
        }
        2 => {
            let delay = rng.random_range(1..=4usize);
            (
                Box::new(DelayAttack::new(window, delay)),
                format!("delay {delay} at {onset} {dur_desc}"),
            )
        }
        _ => {
            let record_len = rng.random_range(3..=8usize).min(onset.max(1));
            let record_start = onset.saturating_sub(record_len);
            (
                Box::new(ReplayAttack::new(window, record_start, record_len)),
                format!("replay [{record_start}, +{record_len}) at {onset} {dur_desc}"),
            )
        }
    }
}

/// Uniform draw from `[-bound, bound]`, tolerating a zero bound.
fn jitter(rng: &mut StdRng, bound: f64) -> f64 {
    if bound > 0.0 {
        rng.random_range(-bound..=bound)
    } else {
        0.0
    }
}

/// Runs the closed loop: measure (+noise), tamper, control, record,
/// step (+process noise). Returns the tick stream the detectors see.
#[allow(clippy::too_many_arguments)]
fn closed_loop_trace(
    rng: &mut StdRng,
    system: &LtiSystem,
    x0: &Vector,
    controller: &mut dyn Controller,
    attack: &mut dyn SensorAttack,
    sensor_noise: f64,
    process_noise: f64,
    len: usize,
) -> Vec<WireTick> {
    let n = system.state_dim();
    let mut x = x0.clone();
    let mut trace = Vec::with_capacity(len);
    for t in 0..len {
        let measured = Vector::from_fn(n, |i| x[i] + jitter(rng, sensor_noise));
        let estimate = attack.tamper(t, &measured);
        let u = controller.control(t, &estimate);
        trace.push(WireTick {
            estimate: estimate.as_slice().to_vec(),
            input: u.as_slice().to_vec(),
        });
        let stepped = system.step(&x, &u);
        x = Vector::from_fn(n, |i| stepped[i] + jitter(rng, process_noise));
    }
    trace
}

/// Generates a [`Family::Registry`] scenario: a random Table 1 row
/// under randomized spec knobs and attack schedule. Detector knobs
/// the wire cannot express stay at the server's defaults (radius 0,
/// period 1, complementary on) so every path builds the same state.
fn registry_scenario(seed: &SeedSpec) -> Scenario {
    let mut rng = StdRng::seed_from_u64(seed.seed);
    let sim = Simulator::all()[rng.random_range(0..5usize)];
    let model = sim.build();
    let n = model.state_dim();

    let max_window = rng.random_range(4..=12usize);
    let min_window = if rng.random_bool(0.3) {
        rng.random_range(1..=2usize).min(max_window)
    } else {
        0
    };
    // Half the scenarios keep the model's profiled τ (spec leaves it
    // empty — exercising the server-side defaulting), half scale it.
    let threshold_field = if rng.random_bool(0.5) {
        Vec::new()
    } else {
        let factor = rng.random_range(0.5..=2.0);
        model
            .threshold
            .iter()
            .map(|&tau| tau * factor)
            .collect::<Vec<f64>>()
    };
    let cache_capacity = [0usize, 64, 1024][rng.random_range(0..3usize)];

    // The natural length is always drawn, even under a len override,
    // so shrinking (which only lowers `len`) perturbs the rest of the
    // random stream as little as possible.
    let drawn_len = rng.random_range(40..=72usize);
    let len = seed.len.unwrap_or(drawn_len);
    let profile = &model.attack_profile;
    let magnitude = rng.random_range(profile.bias_range.0..=profile.bias_range.1);
    let (mut attack, attack_desc) =
        draw_attack(&mut rng, len.max(6), n, profile.target_dim, magnitude);

    let mut pid = model.controller().expect("registry model validated");
    let attack_onset = attack.onset();
    let trace = closed_loop_trace(
        &mut rng,
        &model.system,
        &model.x0,
        &mut pid,
        attack.as_mut(),
        model.sensor_noise,
        0.5 * model.epsilon,
        len,
    );

    let spec = SessionSpec {
        model: sim.table1_row() as u8,
        max_window: max_window as u32,
        min_window: min_window as u32,
        threshold: threshold_field,
        cache_capacity: cache_capacity as u32,
        output_rows: 0,
        output_map: Vec::new(),
    };
    let threshold = if spec.threshold.is_empty() {
        model.threshold.clone()
    } else {
        Vector::from_slice(&spec.threshold)
    };
    Scenario {
        seed: *seed,
        label: format!(
            "{} w_m={max_window} cache={cache_capacity} {attack_desc}",
            model.name
        ),
        spec: Some(spec),
        system: model.system.clone(),
        threshold,
        max_window,
        min_window,
        cache_capacity,
        initial_radius: 0.0,
        reestimation_period: 1,
        complementary: true,
        epsilon: model.epsilon,
        control_limits: model.control_limits.clone(),
        safe_set: model.safe_set.clone(),
        trace,
        measurements: Vec::new(),
        attack_onset,
        recalibration: None,
    }
}

/// Generates a [`Family::RandomLti`] scenario: a synthesized plant
/// whose spectral radius is dialed in by rescaling a random matrix,
/// random PID gains, and detector knobs beyond the wire protocol.
fn random_lti_scenario(seed: &SeedSpec) -> Scenario {
    let mut rng = StdRng::seed_from_u64(seed.seed);
    let n = rng.random_range(2..=4usize);
    let m = rng.random_range(1..=2usize);

    // Controlled spectral radius: draw a raw matrix, measure ρ, and
    // rescale to the target — stable (< 1) or marginal (≈ 1).
    let target_rho = if rng.random_bool(0.2) {
        rng.random_range(0.98..=1.0)
    } else {
        rng.random_range(0.5..=0.95)
    };
    let raw = Matrix::from_fn(n, n, |_, _| rng.random_range(-1.0..=1.0));
    let rho = spectral_radius(&raw).unwrap_or(0.0);
    let a = if rho > 1e-9 {
        raw.scale(target_rho / rho)
    } else {
        Matrix::diagonal(&vec![target_rho; n])
    };
    let b = Matrix::from_fn(n, m, |_, _| rng.random_range(-1.0..=1.0));
    let dt = if rng.random_bool(0.5) { 0.01 } else { 0.02 };
    let system = LtiSystem::new_discrete_fully_observable(a, b, dt)
        .expect("synthesized matrices are finite and well-shaped");

    let sensor_noise = rng.random_range(0.001..=0.01);
    let epsilon = rng.random_range(0.002..=0.02);
    let u_max = rng.random_range(0.5..=2.0);
    let control_limits = BoxSet::symmetric(m, u_max).expect("positive bound");
    let safe_bound = rng.random_range(1.5..=4.0);
    let safe_set = BoxSet::symmetric(n, safe_bound).expect("positive bound");
    let threshold = Vector::from_fn(n, |_| sensor_noise * rng.random_range(2.0..=6.0));

    let max_window = rng.random_range(4..=10usize);
    let min_window = if rng.random_bool(0.3) {
        rng.random_range(1..=2usize).min(max_window)
    } else {
        0
    };
    let cache_capacity = [0usize, 64, 1024][rng.random_range(0..3usize)];
    let initial_radius = if rng.random_bool(0.5) {
        sensor_noise
    } else {
        0.0
    };
    let reestimation_period = rng.random_range(1..=3usize);
    let complementary = rng.random_bool(0.8);

    // Random PID gains, one channel per input driven by a random
    // state dimension, regulating to zero.
    let channels = (0..m)
        .map(|j| {
            PidChannel::new(
                rng.random_range(0..n),
                j,
                PidGains::new(
                    rng.random_range(0.1..=2.0),
                    rng.random_range(0.0..=0.5),
                    rng.random_range(0.0..=0.1),
                ),
                Reference::constant(0.0),
            )
        })
        .collect::<Vec<_>>();
    let mut pid = PidController::new(channels, control_limits.clone(), dt)
        .expect("synthesized PID channels are in range");

    let x0 = Vector::from_fn(n, |_| rng.random_range(-0.1..=0.1));
    let drawn_len = rng.random_range(40..=72usize);
    let len = seed.len.unwrap_or(drawn_len);
    let target_dim = rng.random_range(0..n);
    let magnitude = threshold[target_dim] * rng.random_range(1.5..=8.0);
    let (mut attack, attack_desc) = draw_attack(&mut rng, len.max(6), n, target_dim, magnitude);
    let attack_onset = attack.onset();

    let trace = closed_loop_trace(
        &mut rng,
        &system,
        &x0,
        &mut pid,
        attack.as_mut(),
        sensor_noise,
        0.5 * epsilon,
        len,
    );

    Scenario {
        seed: *seed,
        label: format!(
            "lti n={n} m={m} ρ={target_rho:.2} w_m={max_window} cache={cache_capacity} {attack_desc}"
        ),
        spec: None,
        system,
        threshold,
        max_window,
        min_window,
        cache_capacity,
        initial_radius,
        reestimation_period,
        complementary,
        epsilon,
        control_limits,
        safe_set,
        trace,
        measurements: Vec::new(),
        attack_onset,
        recalibration: None,
    }
}

/// Draws a `k`-sensor subset of `0..p` and a [`PerSensor`] attack on
/// it: per-channel bias, delay, or replay, dimensioned for the subset.
fn draw_per_sensor_attack(
    rng: &mut StdRng,
    len: usize,
    lying: Vec<usize>,
    magnitude: f64,
) -> (Box<dyn SensorAttack + Send>, String) {
    let k = lying.len();
    let onset = rng.random_range(len / 3..=(2 * len) / 3);
    let duration = if rng.random_bool(0.5) {
        Some(rng.random_range(4..=len / 2 + 4))
    } else {
        None
    };
    let window = AttackWindow::new(onset, duration);
    let dur_desc = match duration {
        Some(d) => format!("for {d}"),
        None => "onward".into(),
    };
    match rng.random_range(0..3u32) {
        0 => {
            let bias = Vector::from_fn(k, |_| {
                let sign = if rng.random_bool(0.5) { 1.0 } else { -1.0 };
                sign * magnitude * rng.random_range(0.5..=1.0)
            });
            (
                Box::new(
                    PerSensor::new(lying.clone(), BiasAttack::new(window, bias))
                        .expect("lying-sensor indices are distinct and non-empty by construction"),
                ),
                format!("bias ~{magnitude:.4} on sensors {lying:?} at {onset} {dur_desc}"),
            )
        }
        1 => {
            let delay = rng.random_range(1..=4usize);
            (
                Box::new(
                    PerSensor::new(lying.clone(), DelayAttack::new(window, delay))
                        .expect("lying-sensor indices are distinct and non-empty by construction"),
                ),
                format!("delay {delay} on sensors {lying:?} at {onset} {dur_desc}"),
            )
        }
        _ => {
            let record_len = rng.random_range(3..=8usize).min(onset.max(1));
            let record_start = onset.saturating_sub(record_len);
            (
                Box::new(
                    PerSensor::new(
                        lying.clone(),
                        ReplayAttack::new(window, record_start, record_len),
                    )
                    .expect("lying-sensor indices are distinct and non-empty by construction"),
                ),
                format!(
                    "replay [{record_start}, +{record_len}) on sensors {lying:?} at {onset} \
                     {dur_desc}"
                ),
            )
        }
    }
}

/// Runs the output-feedback closed loop: measure through `C` (+
/// noise), tamper per sensor, reconstruct `x̂_t` with the observer,
/// control on the estimate, step the plant (+ process noise). The
/// detectors see `(x̂_t, u_t)` — corruption reaches them only through
/// the observer's innovation. Also returns the tampered measurement
/// stream for the lying-sensor localizer benchmarks.
#[allow(clippy::too_many_arguments)]
fn output_feedback_trace(
    rng: &mut StdRng,
    plant: &LtiSystem,
    observer: &mut Observer,
    x0: &Vector,
    controller: &mut dyn Controller,
    attack: &mut dyn SensorAttack,
    sensor_noise: f64,
    process_noise: f64,
    len: usize,
) -> (Vec<WireTick>, Vec<Vec<f64>>) {
    let n = plant.state_dim();
    let p = observer.system().output_dim();
    let mut x = x0.clone();
    let mut prev_u = Vector::zeros(plant.input_dim());
    let mut trace = Vec::with_capacity(len);
    let mut measurements = Vec::with_capacity(len);
    for t in 0..len {
        let y = observer.system().measure(&x);
        let noisy = Vector::from_fn(p, |i| y[i] + jitter(rng, sensor_noise));
        let tampered = attack.tamper(t, &noisy);
        let estimate = observer.update(&prev_u, &tampered).clone();
        let u = controller.control(t, &estimate);
        trace.push(WireTick {
            estimate: estimate.as_slice().to_vec(),
            input: u.as_slice().to_vec(),
        });
        measurements.push(tampered.as_slice().to_vec());
        let stepped = plant.step(&x, &u);
        x = Vector::from_fn(n, |i| stepped[i] + jitter(rng, process_noise));
        prev_u = u;
    }
    (trace, measurements)
}

/// Generates a [`Family::Sensor`] (`severe == false`) or
/// [`Family::Severe`] (`severe == true`) scenario: a Table 1 model
/// sensed through a randomized output map `C ≠ I` with a
/// [`PerSensor`] attack falsifying individual sensors, estimates
/// reconstructed by a steady-state Kalman observer. The spec carries
/// the output map, so these run every path, wire included; the
/// detector stack itself is identical to the registry family (the map
/// is scenario metadata — see `SessionSpec`).
fn output_feedback_scenario(seed: &SeedSpec, severe: bool) -> Scenario {
    let mut rng = StdRng::seed_from_u64(seed.seed);
    let sim = Simulator::all()[rng.random_range(0..5usize)];
    let model = sim.build();
    let n = model.state_dim();

    // Severe needs p ≥ 3 so a strict majority of sensors can lie
    // while at least one stays honest; sensor needs p ≥ 2 so there is
    // an honest channel left. Redundant rows (p > n) mirror the
    // secure-state-estimation setting.
    let p = if severe {
        (n + 1).max(3) + rng.random_range(0..=1usize)
    } else {
        (n + rng.random_range(0..=1usize)).max(2)
    };

    let process_noise = 0.5 * model.epsilon;
    // Uniform jitter of radius r has per-dimension std r/√3.
    let process_std = process_noise / 3f64.sqrt();
    let measurement_std = model.sensor_noise / 3f64.sqrt();

    // Redraw the output map until the observer design succeeds: a
    // random row mix is almost surely detectable thanks to the
    // identity-ish diagonal bump, but the Riccati iteration gets the
    // final word.
    let mut attempts = 0;
    let (observed, gain) = loop {
        let c = Matrix::from_fn(p, n, |i, j| {
            let bump = if j == i % n { 1.0 } else { 0.0 };
            bump + rng.random_range(-0.5..=0.5)
        });
        let candidate = LtiSystem::new_discrete(
            model.system.a().clone(),
            model.system.b().clone(),
            c,
            model.dt(),
        )
        .expect("registry matrices are finite and well-shaped");
        if let Ok(gain) = design_output_observer(&candidate, process_std, measurement_std) {
            let probe = Observer::new(candidate.clone(), gain.clone(), model.x0.clone())
                .expect("gain shape follows from the design");
            if probe.is_convergent() {
                break (candidate, gain);
            }
        }
        attempts += 1;
        assert!(
            attempts < 64,
            "observer design kept failing for {} (seed {seed})",
            model.name
        );
    };

    // Lying-sensor subset: a minority (or exactly half) for `sensor`,
    // a strict majority for `severe` ("fewer than half trustworthy").
    let lying_count = if severe {
        let honest = rng.random_range(1..=(p - 1) / 2);
        p - honest
    } else {
        rng.random_range(1..=(p / 2).max(1))
    };
    let mut lying = Vec::with_capacity(lying_count);
    while lying.len() < lying_count {
        let s = rng.random_range(0..p);
        if !lying.contains(&s) {
            lying.push(s);
        }
    }
    lying.sort_unstable();

    let max_window = rng.random_range(4..=12usize);
    let min_window = if rng.random_bool(0.3) {
        rng.random_range(1..=2usize).min(max_window)
    } else {
        0
    };
    let threshold_field = if rng.random_bool(0.5) {
        Vec::new()
    } else {
        let factor = rng.random_range(0.5..=2.0);
        model
            .threshold
            .iter()
            .map(|&tau| tau * factor)
            .collect::<Vec<f64>>()
    };
    let cache_capacity = [0usize, 64, 1024][rng.random_range(0..3usize)];

    let drawn_len = rng.random_range(40..=72usize);
    let len = seed.len.unwrap_or(drawn_len);
    let profile = &model.attack_profile;
    let magnitude = rng.random_range(profile.bias_range.0..=profile.bias_range.1);
    // The severe family is about majority corruption, so it never
    // draws benign; the sensor family keeps a benign slice for
    // false-positive measurement.
    let (mut attack, attack_desc): (Box<dyn SensorAttack + Send>, String) =
        if !severe && rng.random_bool(0.25) {
            (Box::new(NoAttack), "benign".into())
        } else {
            draw_per_sensor_attack(&mut rng, len.max(6), lying, magnitude)
        };

    let mut pid = model.controller().expect("registry model validated");
    let mut observer = Observer::new(observed.clone(), gain, model.x0.clone())
        .expect("gain shape follows from the design");
    let attack_onset = attack.onset();
    let (trace, measurements) = output_feedback_trace(
        &mut rng,
        &model.system,
        &mut observer,
        &model.x0,
        &mut pid,
        attack.as_mut(),
        model.sensor_noise,
        process_noise,
        len,
    );

    let c = observed.c();
    let output_map = (0..p)
        .flat_map(|i| (0..n).map(move |j| c[(i, j)]))
        .collect::<Vec<f64>>();
    let spec = SessionSpec {
        model: sim.table1_row() as u8,
        max_window: max_window as u32,
        min_window: min_window as u32,
        threshold: threshold_field,
        cache_capacity: cache_capacity as u32,
        output_rows: 0,
        output_map: Vec::new(),
    }
    .with_output_map(p as u32, output_map);
    let threshold = if spec.threshold.is_empty() {
        model.threshold.clone()
    } else {
        Vector::from_slice(&spec.threshold)
    };
    Scenario {
        seed: *seed,
        label: format!(
            "{} {} p={p} w_m={max_window} cache={cache_capacity} {attack_desc}",
            if severe { "severe" } else { "sensor" },
            model.name
        ),
        spec: Some(spec),
        system: model.system.clone(),
        threshold,
        max_window,
        min_window,
        cache_capacity,
        initial_radius: 0.0,
        reestimation_period: 1,
        complementary: true,
        epsilon: model.epsilon,
        control_limits: model.control_limits.clone(),
        safe_set: model.safe_set.clone(),
        trace,
        measurements,
        attack_onset,
        recalibration: None,
    }
}

/// Generates a [`Family::Drift`] scenario: a Table 1 model whose true
/// plant drifts mid-stream — a step or ramp blending `A` and/or `B`
/// toward scaled variants — with an optional concurrent sensor attack.
/// The loop runs **noise-free**, so outside the attack window the
/// `(estimate, input)` stream is an exact trajectory of whichever
/// plant is live: pre-drift windows are nominal-consistent and
/// post-drift windows are exactly identifiable as the drifted model,
/// which is what lets the drift-vs-attack rule (and the property
/// tests over this family) draw a hard line between the two alarm
/// kinds. The precomputed [`ScenarioRecalibration`] lands right after
/// the drift completes; detector knobs stay at the wire defaults so
/// every path, serve included, builds identical state.
fn drift_scenario(seed: &SeedSpec) -> Scenario {
    let mut rng = StdRng::seed_from_u64(seed.seed);
    let sim = Simulator::all()[rng.random_range(0..5usize)];
    let model = sim.build();
    let n = model.state_dim();

    let max_window = rng.random_range(4..=12usize);
    let min_window = if rng.random_bool(0.3) {
        rng.random_range(1..=2usize).min(max_window)
    } else {
        0
    };
    let threshold_field = if rng.random_bool(0.5) {
        Vec::new()
    } else {
        let factor = rng.random_range(0.5..=2.0);
        model
            .threshold
            .iter()
            .map(|&tau| tau * factor)
            .collect::<Vec<f64>>()
    };
    let cache_capacity = [0usize, 64, 1024][rng.random_range(0..3usize)];

    let drawn_len = rng.random_range(48..=72usize);
    let len = seed.len.unwrap_or(drawn_len);

    // The drift plan: which matrices move, how far, and how fast.
    // Scaling A toward the origin keeps every drifted plant at least
    // as stable as the Table 1 original, so the reachability config
    // stays valid after the swap; B scaling is unconstrained.
    let drift_a = rng.random_bool(0.7);
    let drift_b = if drift_a { rng.random_bool(0.4) } else { true };
    let factor_a = if drift_a {
        rng.random_range(0.70..=0.92)
    } else {
        1.0
    };
    let factor_b = if drift_b {
        rng.random_range(0.6..=1.4)
    } else {
        1.0
    };
    let ramp = if rng.random_bool(0.5) {
        0 // step change
    } else {
        rng.random_range(3..=8usize)
    };
    // Onset and recalibration point are drawn from the *natural*
    // length so a `len=` override perturbs nothing else; `at` is
    // clamped into the actual trace by the oracles.
    let onset = rng.random_range(drawn_len / 4..=drawn_len / 2);
    let at = (onset + ramp + 1).min(len);

    let a0 = model.system.a().clone();
    let b0 = model.system.b().clone();
    let a1 = a0.scale(factor_a);
    let b1 = b0.scale(factor_b);

    let profile = &model.attack_profile;
    let magnitude = rng.random_range(profile.bias_range.0..=profile.bias_range.1);
    let (mut attack, attack_desc) =
        draw_attack(&mut rng, len.max(6), n, profile.target_dim, magnitude);
    let attack_onset = attack.onset();

    // Noise-free closed loop over the time-varying truth: the live
    // plant blends from (A₀, B₀) to (A₁, B₁) across the ramp.
    let blend = |t: usize| -> f64 {
        if t < onset {
            0.0
        } else if ramp == 0 || t >= onset + ramp {
            1.0
        } else {
            (t - onset + 1) as f64 / ramp as f64
        }
    };
    let mut pid = model.controller().expect("registry model validated");
    let mut x = model.x0.clone();
    let mut trace = Vec::with_capacity(len);
    for t in 0..len {
        let estimate = attack.tamper(t, &x);
        let u = pid.control(t, &estimate);
        trace.push(WireTick {
            estimate: estimate.as_slice().to_vec(),
            input: u.as_slice().to_vec(),
        });
        let alpha = blend(t);
        let a_t = Matrix::from_fn(n, n, |i, j| a0[(i, j)] + alpha * (a1[(i, j)] - a0[(i, j)]));
        let b_t = Matrix::from_fn(n, b0.cols(), |i, j| {
            b0[(i, j)] + alpha * (b1[(i, j)] - b0[(i, j)])
        });
        let ax = a_t.checked_mul_vec(&x).expect("square A times state");
        let bu = b_t.checked_mul_vec(&u).expect("B times input");
        x = Vector::from_fn(n, |i| ax[i] + bu[i]);
    }

    let spec = SessionSpec {
        model: sim.table1_row() as u8,
        max_window: max_window as u32,
        min_window: min_window as u32,
        threshold: threshold_field,
        cache_capacity: cache_capacity as u32,
        output_rows: 0,
        output_map: Vec::new(),
    };
    let threshold = if spec.threshold.is_empty() {
        model.threshold.clone()
    } else {
        Vector::from_slice(&spec.threshold)
    };
    let shape = if ramp == 0 {
        "step".to_string()
    } else {
        format!("ramp{ramp}")
    };
    Scenario {
        seed: *seed,
        label: format!(
            "drift {} {shape} A×{factor_a:.2} B×{factor_b:.2} at {onset} recal@{at} \
             w_m={max_window} cache={cache_capacity} {attack_desc}",
            model.name
        ),
        spec: Some(spec),
        system: model.system.clone(),
        threshold,
        max_window,
        min_window,
        cache_capacity,
        initial_radius: 0.0,
        reestimation_period: 1,
        complementary: true,
        epsilon: model.epsilon,
        control_limits: model.control_limits.clone(),
        safe_set: model.safe_set.clone(),
        trace,
        measurements: Vec::new(),
        attack_onset,
        recalibration: Some(ScenarioRecalibration { at, a: a1, b: b1 }),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seed_string_round_trips() {
        for spec in [
            SeedSpec::registry(0),
            SeedSpec::registry(u64::MAX),
            SeedSpec::random_lti(0xdead_beef),
            SeedSpec::sensor(0xfeed),
            SeedSpec::severe(0xface).with_len(12),
            SeedSpec::drift(0xd1f7),
            SeedSpec::registry(42).with_len(17),
        ] {
            let s = spec.to_string();
            assert_eq!(s.parse::<SeedSpec>().unwrap(), spec, "via {s}");
        }
    }

    #[test]
    fn seed_string_rejects_garbage() {
        for bad in [
            "",
            "awsad1",
            "awsad2:registry:00",
            "awsad1:nope:00",
            "awsad1:registry:xyz",
            "awsad1:registry:00:len=q",
            "awsad1:registry:00:frobnicate=1",
        ] {
            assert!(bad.parse::<SeedSpec>().is_err(), "accepted {bad:?}");
        }
    }

    #[test]
    fn same_seed_same_scenario() {
        for seed in [
            SeedSpec::registry(7),
            SeedSpec::random_lti(7),
            SeedSpec::sensor(7),
            SeedSpec::severe(7),
            SeedSpec::drift(7),
        ] {
            let a = Scenario::from_seed(&seed);
            let b = Scenario::from_seed(&seed);
            assert_eq!(a.label, b.label);
            assert_eq!(a.trace.len(), b.trace.len());
            for (ta, tb) in a.trace.iter().zip(&b.trace) {
                assert_eq!(ta.estimate, tb.estimate);
                assert_eq!(ta.input, tb.input);
            }
        }
    }

    #[test]
    fn len_override_caps_trace() {
        let seed = SeedSpec::registry(3).with_len(9);
        assert_eq!(Scenario::from_seed(&seed).trace.len(), 9);
    }

    #[test]
    fn registry_scenarios_build_via_server_construction() {
        for s in 0..8u64 {
            let scenario = Scenario::from_seed(&SeedSpec::registry(s));
            let (logger, detector) = scenario.parts();
            assert_eq!(logger.system().state_dim(), scenario.system.state_dim());
            assert_eq!(detector.config().max_window(), scenario.max_window);
            assert_eq!(detector.has_deadline_cache(), scenario.cache_capacity > 0);
        }
    }

    #[test]
    fn sensor_scenarios_carry_consistent_output_maps() {
        for s in 0..12u64 {
            for seed in [SeedSpec::sensor(s), SeedSpec::severe(s)] {
                let scenario = Scenario::from_seed(&seed);
                let spec = scenario
                    .spec
                    .as_ref()
                    .expect("sensor families are wire-capable");
                let n = scenario.system.state_dim();
                let p = spec.output_rows as usize;
                assert!(p >= 2, "need at least two sensors, got {p}");
                assert_eq!(spec.output_map.len(), p * n, "map must be p × n row-major");
                assert!(spec.output_map.iter().all(|v| v.is_finite()));
                // The server's own construction must accept the spec.
                let (logger, detector) = scenario.parts();
                assert_eq!(logger.system().state_dim(), n);
                assert_eq!(detector.config().max_window(), scenario.max_window);
            }
        }
    }

    #[test]
    fn severe_scenarios_have_a_lying_majority() {
        // The label records the lying-sensor subset; parse it back out
        // and check the trustworthy minority invariant.
        for s in 0..12u64 {
            let scenario = Scenario::from_seed(&SeedSpec::severe(s));
            let spec = scenario.spec.as_ref().unwrap();
            let p = spec.output_rows as usize;
            let lying = scenario
                .label
                .split("sensors [")
                .nth(1)
                .expect("severe labels list the lying sensors")
                .split(']')
                .next()
                .unwrap()
                .split(',')
                .count();
            assert!(
                2 * (p - lying) < p,
                "severe scenario must leave fewer than half trustworthy \
                 (p = {p}, lying = {lying}): {}",
                scenario.label
            );
            assert!(lying < p, "at least one sensor stays honest");
        }
    }

    #[test]
    fn drift_scenarios_carry_an_applicable_recalibration_plan() {
        for s in 0..12u64 {
            let scenario = Scenario::from_seed(&SeedSpec::drift(s));
            let spec = scenario
                .spec
                .as_ref()
                .expect("drift scenarios are wire-capable");
            let recal = scenario
                .recalibration
                .as_ref()
                .expect("drift scenarios carry a recalibration plan");
            let n = scenario.system.state_dim();
            let m = scenario.system.input_dim();
            assert_eq!(recal.a.shape(), (n, n));
            assert_eq!(recal.b.shape(), (n, m));
            assert!(recal.at <= scenario.trace.len());
            assert_eq!(spec.output_rows, 0, "drift uses full state feedback");
            // The swap must be accepted by the detector the server
            // itself would build for this spec.
            let (mut logger, mut detector) = scenario.parts();
            let count = detector
                .recalibrate(&mut logger, &recal.a, &recal.b)
                .expect("precomputed recalibration must be valid");
            assert_eq!(count, 1);
        }
    }

    #[test]
    fn drift_len_override_only_caps_the_trace() {
        // Shrinking must not re-roll the drift plan: the same seed
        // with a shorter len keeps the same drifted matrices and the
        // recalibration point is merely clamped.
        let full = Scenario::from_seed(&SeedSpec::drift(11));
        let cut = Scenario::from_seed(&SeedSpec::drift(11).with_len(10));
        let (rf, rc) = (
            full.recalibration.as_ref().unwrap(),
            cut.recalibration.as_ref().unwrap(),
        );
        assert_eq!(cut.trace.len(), 10);
        assert!(rf.a.approx_eq(&rc.a) && rf.b.approx_eq(&rc.b));
        assert!(rc.at <= 10);
    }

    #[test]
    fn random_lti_scenarios_build() {
        for s in 0..8u64 {
            let scenario = Scenario::from_seed(&SeedSpec::random_lti(s));
            let (logger, detector) = scenario.parts();
            assert_eq!(logger.system().state_dim(), scenario.system.state_dim());
            assert_eq!(detector.initial_radius(), scenario.initial_radius);
        }
    }
}
