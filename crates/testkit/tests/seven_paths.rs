//! The seventh differential-oracle path, run at volume: ≥100 seeded
//! registry scenarios streamed through a fresh 3-shard
//! `awsad-cluster` ring with the session's primary killed mid-stream,
//! asserting the `AdaptiveStep` stream bit-identical to direct
//! stepping. A seed-derived coin picks the kill point per scenario —
//! before the first batch, when no replica exists, or after a flushed
//! checkpoint — so both recovery branches, restoring the client's own
//! checkpoint and promoting the ring successor's replica, run across
//! the corpus; the oracle checks each scenario took its coin's branch
//! and the test asserts both occurred.
//!
//! Every scenario that fails prints its seed string, so the repro is
//! always `cargo run --release -p awsad-testkit --bin fuzz -- --repro
//! <seed>`.

use awsad_cluster::Recoveries;
use awsad_testkit::oracle::{cluster_steps, direct_steps};
use awsad_testkit::scenario::{Scenario, SeedSpec};
use rand::rngs::StdRng;
use rand::{RngExt as _, SeedableRng};

const SCENARIOS: u64 = 100;

#[test]
fn one_hundred_registry_scenarios_survive_a_mid_stream_shard_kill() {
    let mut rng = StdRng::seed_from_u64(0x7_5EED);
    let mut failures = Vec::new();
    let mut branches = Recoveries::default();
    for _ in 0..SCENARIOS {
        let seed = SeedSpec::registry(rng.random_range(0..=u64::MAX));
        let scenario = Scenario::from_seed(&seed);
        let reference = direct_steps(&scenario);
        match cluster_steps(&scenario) {
            Ok(run) if run.steps == reference => {
                branches += run.recoveries;
            }
            Ok(run) => {
                let steps = run.steps;
                let at = steps
                    .iter()
                    .zip(&reference)
                    .position(|(a, b)| a != b)
                    .unwrap_or_else(|| steps.len().min(reference.len()));
                failures.push(format!(
                    "cluster stream diverged at tick {at} ({} vs {} ticks)\n  repro: {}",
                    steps.len(),
                    reference.len(),
                    seed.repro_command()
                ));
            }
            Err(e) => failures.push(format!("{e}\n  repro: {}", seed.repro_command())),
        }
        if failures.len() >= 3 {
            break; // enough evidence; don't grind through the rest
        }
    }
    assert!(
        failures.is_empty(),
        "cluster-path divergence on {} scenario(s):\n{}",
        failures.len(),
        failures.join("\n")
    );
    println!("cluster failovers by branch: {branches:?}");
    assert!(
        branches.restored > 0 && branches.adopted + branches.replayed > 0,
        "the seed coin must cover both recovery branches: {branches:?}"
    );
}
