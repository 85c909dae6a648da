//! Identification properties over the paper's Table 1 plants: the
//! windowed least-squares identifier recovers each plant's `(A, B)`
//! from noisy excited I/O, and degenerate windows fail with the typed
//! errors the drift classifier relies on — never a confidently wrong
//! model. Over the drift scenario family, the three-way
//! drift-vs-attack rule never classifies genuine model drift as an
//! attack, nor a biased (attacked) stream as recalibratable drift.

use awsad_core::{DriftConfig, DriftVerdict, IdentError, ModelIdentifier};
use awsad_linalg::Vector;
use awsad_models::Simulator;
use awsad_testkit::scenario::{Scenario, SeedSpec};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{RngExt as _, SeedableRng};

/// Process-noise amplitude for the recovery property. Noise on the
/// state update (rather than the readout) keeps every transition
/// honest while exciting even weakly reachable directions — the
/// 12-state quadrotor included.
const NOISE: f64 = 1e-2;
const TICKS: usize = 512;

proptest! {
    // Each case simulates all five plants for 512 ticks, so keep the
    // case count modest — the error bounds below already sit an order
    // of magnitude above the worst observed estimate error.
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Noisy excited I/O from each Table 1 plant identifies back to
    /// the plant itself: entrywise `Â` within 0.2, `B̂` within 0.01,
    /// and a fit residual on the order of the injected noise.
    #[test]
    fn noisy_io_recovers_each_table1_plant(seed in any::<u64>()) {
        for sim in Simulator::all() {
            let sys = sim.build().system;
            let (n, m) = (sys.state_dim(), sys.input_dim());
            let mut rng = StdRng::seed_from_u64(seed);
            let mut ident = ModelIdentifier::new(n, m, TICKS).expect("valid dims");
            let mut x = Vector::zeros(n);
            for _ in 0..=TICKS {
                let u = Vector::from_fn(m, |_| rng.random_range(-1.0..=1.0));
                ident.observe(&x, &u);
                let ax = sys.a().checked_mul_vec(&x).expect("square A");
                let bu = sys.b().checked_mul_vec(&u).expect("conforming B");
                x = Vector::from_fn(n, |i| {
                    ax[i] + bu[i] + rng.random_range(-NOISE..=NOISE)
                });
            }
            let model = ident.identify()
                .unwrap_or_else(|e| panic!("{sim}: identify failed: {e}"));
            prop_assert!(
                model.a.approx_eq_tol(sys.a(), 0.2),
                "{sim}: recovered A strays past 0.2"
            );
            prop_assert!(
                model.b.approx_eq_tol(sys.b(), 0.01),
                "{sim}: recovered B strays past 0.01"
            );
            prop_assert!(
                model.residual_rms < 3.0 * NOISE,
                "{sim}: residual {} not noise-sized",
                model.residual_rms
            );
        }
    }

    /// A window whose inputs never move cannot pin down `B̂`: the
    /// identifier reports which input is dead instead of fitting an
    /// arbitrary column.
    #[test]
    fn zero_excitation_is_a_typed_error(seed in any::<u64>(), plant in 0usize..5) {
        let sys = Simulator::all()[plant].build().system;
        let (n, m) = (sys.state_dim(), sys.input_dim());
        let mut rng = StdRng::seed_from_u64(seed);
        let mut ident = ModelIdentifier::new(n, m, TICKS).expect("valid dims");
        let mut x = Vector::from_fn(n, |_| rng.random_range(-1.0..=1.0));
        let u = Vector::zeros(m);
        for _ in 0..(n + m + 8) {
            ident.observe(&x, &u);
            x = sys.a().checked_mul_vec(&x).expect("square A");
        }
        prop_assert!(
            matches!(ident.identify(), Err(IdentError::ZeroExcitation { .. })),
            "free response passed as identifiable"
        );
    }

    /// A window frozen at one operating point has a rank-1 regressor:
    /// the identifier refuses rather than returning any of the
    /// infinitely many models that explain a single point.
    #[test]
    fn frozen_window_is_rank_deficient(seed in any::<u64>(), plant in 0usize..5) {
        let sys = Simulator::all()[plant].build().system;
        let (n, m) = (sys.state_dim(), sys.input_dim());
        let mut rng = StdRng::seed_from_u64(seed);
        let x = Vector::from_fn(n, |_| rng.random_range(-1.0..=1.0));
        let u = Vector::from_fn(m, |_| rng.random_range(0.1..=1.0));
        let mut ident = ModelIdentifier::new(n, m, TICKS).expect("valid dims");
        for _ in 0..(n + m + 8) {
            ident.observe(&x, &u);
        }
        prop_assert!(
            matches!(ident.identify(), Err(IdentError::RankDeficient)),
            "frozen window passed as identifiable"
        );
    }

    /// Fewer than `n + m` transitions cannot determine `n + m`
    /// regression coefficients; the error carries both counts.
    #[test]
    fn short_window_reports_insufficient_data(plant in 0usize..5) {
        let sys = Simulator::all()[plant].build().system;
        let (n, m) = (sys.state_dim(), sys.input_dim());
        let mut ident = ModelIdentifier::new(n, m, TICKS).expect("valid dims");
        let u = Vector::from_fn(m, |i| i as f64 + 1.0);
        for t in 0..(n + m) {
            ident.observe(&Vector::from_fn(n, |i| (t * n + i) as f64), &u);
        }
        prop_assert!(
            matches!(
                ident.identify(),
                Err(IdentError::InsufficientData { have, need })
                    if have == n + m - 1 && need == n + m
            ),
            "short window did not report InsufficientData"
        );
    }
}

/// Aperiodic deterministic excitation — varies every tick and across
/// input dimensions so the regressor stays full rank over the short
/// identification window (a periodic input would collapse onto its
/// orbit and lose rank for larger plants).
fn excite(t: usize, i: usize) -> f64 {
    ((t * t + 3 * t + i * (t + 2) + 1) % 7) as f64 - 3.0
}

#[test]
fn drift_and_attack_alarms_never_masquerade_as_each_other() {
    // Fixed seeds: scenarios derive deterministically, so this is a
    // fixed set of episodes, not a random sample. The three-way rule
    // separates drift from attack on *identifiable* windows (the
    // closed-loop trace itself won't always do: a regulated,
    // near-constant stream carries no information about the
    // dynamics), so each scenario's drifted plant is driven by a
    // deterministic exciting input here.
    // Tight fit tolerance: noise-free drift fits to ~1e-14, while a
    // constant offset on a slowly sampled plant (A ≈ I) is only
    // weakly unabsorbable — its best fit still leaves orders of
    // magnitude more residual than 1e-9.
    let cfg = DriftConfig::new(1e-6, 1e-9).expect("valid tolerances");
    let mut drift_flagged = 0usize;
    for s in 0..64u64 {
        let scenario = Scenario::from_seed(&SeedSpec::drift(s));
        let recal = scenario.recalibration.as_ref().expect("drift scenario");
        let n = scenario.system.state_dim();
        let m = scenario.system.input_dim();
        let want = n + m + 8;

        // Genuine drift: the excited drifted plant, reported
        // faithfully. The rule may call a negligible drift Consistent
        // but must never raise an attack alarm — and when it does
        // flag drift, the fitted model must be the drifted truth,
        // i.e. exactly what recalibration would install.
        let mut clean = ModelIdentifier::new(n, m, want).expect("valid identifier");
        let mut biased = ModelIdentifier::new(n, m, want).expect("valid identifier");
        let bias: Vec<f64> = scenario
            .threshold
            .as_slice()
            .iter()
            .map(|tau| 5.0 * tau + 1.0)
            .collect();
        let mut x = Vector::zeros(n);
        for t in 0..=want {
            let u = Vector::from_fn(m, |i| excite(t, i));
            clean.observe(&x, &u);
            biased.observe(&Vector::from_fn(n, |i| x[i] + bias[i]), &u);
            let ax = recal.a.checked_mul_vec(&x).expect("square A");
            let bu = recal.b.checked_mul_vec(&u).expect("conforming B");
            x = Vector::from_fn(n, |i| ax[i] + bu[i]);
        }
        // The separation guarantee is scoped to identifiable plants.
        // The 12-state quadrotor's regressor is structurally
        // rank-deficient from its inputs (uncontrollable subspace),
        // so the conservative rule refuses to call its drift benign —
        // recalibration for such plants arrives by operator decree
        // (the wire op), not the classifier.
        if matches!(clean.identify(), Err(IdentError::RankDeficient)) {
            assert_eq!(n, 12, "only the quadrotor may be unidentifiable");
            continue;
        }

        match clean.classify(&scenario.system, &cfg).expect("full window") {
            DriftVerdict::Attack => panic!(
                "drift classified as attack on {} ({})",
                scenario.seed, scenario.label
            ),
            DriftVerdict::ModelDrift(model) => {
                assert!(
                    model.a.approx_eq_tol(&recal.a, 1e-6) && model.b.approx_eq_tol(&recal.b, 1e-6),
                    "drift fitted a model other than the drifted truth on {}",
                    scenario.seed
                );
                drift_flagged += 1;
            }
            DriftVerdict::Consistent => {}
        }

        // Sensor attack: the same excited stream with a constant
        // bias, well past the threshold, on the reported estimates. An
        // affine offset admits no stationary LTI fit on excited data,
        // so the rule must answer Attack — never a recalibratable
        // drift verdict, and never silence.
        match biased
            .classify(&scenario.system, &cfg)
            .expect("full window")
        {
            DriftVerdict::Attack => {}
            other => panic!(
                "biased stream classified as {other:?} on {} ({})",
                scenario.seed, scenario.label
            ),
        }
    }
    assert!(
        drift_flagged >= 30,
        "only {drift_flagged}/50 identifiable drifts flagged — the excitation went dead"
    );
}
