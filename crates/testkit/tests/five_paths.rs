//! The headline differential oracle, run at volume: ≥200 seeded
//! registry scenarios, each pushed through all five detection paths
//! (direct detector, engine with cache, engine with the cache
//! stripped, snapshot/restore, the wire path, fault-injected resume)
//! against one shared two-shard `awsad-net` server, asserting the
//! `AdaptiveStep` streams are bit-identical.
//!
//! Every scenario that fails prints its seed string, so the repro is
//! always `cargo run --release -p awsad-testkit --bin fuzz -- --repro
//! <seed>`.

use awsad_net::{NetServer, NetServerConfig};
use awsad_testkit::scenario::Scenario;
use awsad_testkit::scenario::SeedSpec;
use awsad_testkit::{check_estimator, check_five_paths, check_local_paths};
use rand::rngs::StdRng;
use rand::{RngExt as _, SeedableRng};

const SCENARIOS: u64 = 200;

#[test]
fn two_hundred_registry_scenarios_agree_across_all_five_paths() {
    // Two shards so scenarios land on both engines over the run.
    let server = NetServer::bind(
        "127.0.0.1:0",
        NetServerConfig {
            shards: 2,
            ..NetServerConfig::default()
        },
    )
    .expect("bind server");
    let addr = server.local_addr();
    let mut rng = StdRng::seed_from_u64(0x5F1E_5EED);
    let mut failures = Vec::new();
    for _ in 0..SCENARIOS {
        let seed = SeedSpec::registry(rng.random_range(0..=u64::MAX));
        let scenario = Scenario::from_seed(&seed);
        if let Err(e) = check_five_paths(&scenario, addr) {
            failures.push(format!("{e}\n  repro: {}", seed.repro_command()));
        }
        if failures.len() >= 3 {
            break; // enough evidence; don't grind through the rest
        }
    }
    server.shutdown();
    assert!(
        failures.is_empty(),
        "path divergence on {} scenario(s):\n{}",
        failures.len(),
        failures.join("\n")
    );
}

/// Random-LTI scenarios cannot open wire sessions (the wire protocol
/// speaks registry models only) but must still agree across every
/// local path, and their synthesized plants exercise the estimator
/// oracles on matrices the registry never produces.
#[test]
fn random_lti_scenarios_agree_across_local_paths() {
    let mut rng = StdRng::seed_from_u64(0x17A_5EED);
    for _ in 0..48 {
        let seed = SeedSpec::random_lti(rng.random_range(0..=u64::MAX));
        let scenario = Scenario::from_seed(&seed);
        if let Err(e) = check_local_paths(&scenario) {
            panic!("{e}\n  repro: {}", seed.repro_command());
        }
        if let Err(e) = check_estimator(&scenario) {
            panic!("{e}\n  repro: {}", seed.repro_command());
        }
    }
}
