//! The ninth differential-oracle path, run at volume: ≥100 seeded
//! drift scenarios whose plant drifts mid-stream, each recalibrated
//! to the drifted model at its precomputed tick boundary through
//! every mechanism that can express the swap — direct in-place
//! [`awsad_core::AdaptiveDetector::recalibrate`] as the reference,
//! the cross-session batch engine, snapshot/restore across the
//! recalibration (the snapshot must carry the trailing recalibration
//! block), the `Recalibrate` wire op against an `awsad-net` server,
//! and the cluster router with its primary killed
//! right after the swap. Every post-recalibration stream must be
//! bit-identical to the reference. A seed-derived coin decides
//! whether the cluster leg's replicas reach the backup, and the test
//! asserts both recovery branches (restore and promotion) occurred.
//!
//! Alongside the stream oracle sits the alarm-kind separation the
//! drift family exists to prove: over excited windows of each
//! scenario's drifted plant the three-way drift-vs-attack rule never
//! classifies genuine model drift as an attack, and never classifies
//! a biased (attacked) stream as recalibratable drift.
//!
//! Every scenario that fails prints its seed string, so the repro is
//! always `cargo run --release -p awsad-testkit --bin fuzz -- --repro
//! <seed>`.

use awsad_cluster::Recoveries;
use awsad_core::{DriftConfig, DriftVerdict, IdentError, ModelIdentifier};
use awsad_linalg::Vector;
use awsad_net::{NetServer, NetServerConfig};
use awsad_testkit::oracle::check_recalibrate_path;
use awsad_testkit::scenario::{Scenario, SeedSpec};
use rand::rngs::StdRng;
use rand::{RngExt as _, SeedableRng};

const SCENARIOS: u64 = 100;

#[test]
fn one_hundred_drift_scenarios_recalibrate_bit_identically_on_every_path() {
    let server = NetServer::bind("127.0.0.1:0", NetServerConfig::default()).expect("bind server");
    let mut rng = StdRng::seed_from_u64(0x9_5EED);
    let mut failures = Vec::new();
    let mut branches = Recoveries::default();
    for _ in 0..SCENARIOS {
        let seed = SeedSpec::drift(rng.random_range(0..=u64::MAX));
        let scenario = Scenario::from_seed(&seed);
        match check_recalibrate_path(&scenario, server.local_addr()) {
            Ok(run) => {
                branches += run;
            }
            Err(e) => failures.push(format!("{e}\n  repro: {}", seed.repro_command())),
        }
        if failures.len() >= 3 {
            break; // enough evidence; don't grind through the rest
        }
    }
    server.shutdown();
    assert!(
        failures.is_empty(),
        "recalibration-path divergence on {} scenario(s):\n{}",
        failures.len(),
        failures.join("\n")
    );
    println!("recal-cluster failovers by branch: {branches:?}");
    assert!(
        branches.restored > 0 && branches.adopted + branches.replayed > 0,
        "the seed coin must cover both recovery branches: {branches:?}"
    );
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
