//! The eighth differential-oracle path, run at volume: 200 seeded
//! registry scenarios in chunks of 8, each chunk sharing one engine
//! in forced cross-session batch mode. Round-robin submission keeps
//! ticks from many sessions co-pending, so the grouped drain steps
//! same-geometry sessions as vectorized SoA lane groups. Every
//! session's `AdaptiveStep` stream — degraded ticks included — must be
//! bit-identical to direct stepping, and the engine's own counters
//! must prove the vectorized path actually ran. The batched step and
//! `AdaptiveDetector::step` share their phases, so besides the
//! engine's gather and scatter this diffs the two kernels they do not
//! share: the batched reachability walk and the SoA window mean
//! against their scalar twins.
//!
//! Every scenario that fails prints its seed string, so the repro is
//! always `cargo run --release -p awsad-testkit --bin fuzz -- --repro
//! <seed>`.

use awsad_testkit::oracle::check_batch_path;
use awsad_testkit::scenario::{Scenario, SeedSpec};
use rand::rngs::StdRng;
use rand::{RngExt as _, SeedableRng};

const SCENARIOS: usize = 200;
const CHUNK: usize = 8;

#[test]
fn two_hundred_registry_scenarios_batch_step_bit_identically() {
    let mut rng = StdRng::seed_from_u64(0x8_5EED);
    let mut failures = Vec::new();
    let mut chunk: Vec<(SeedSpec, Scenario)> = Vec::with_capacity(CHUNK);
    for i in 0..SCENARIOS {
        let seed = SeedSpec::registry(rng.random_range(0..=u64::MAX));
        let scenario = Scenario::from_seed(&seed);
        chunk.push((seed, scenario));
        if chunk.len() < CHUNK && i + 1 < SCENARIOS {
            continue;
        }
        let scenarios: Vec<Scenario> = chunk.iter().map(|(_, s)| s.clone()).collect();
        if let Err(e) = check_batch_path(&scenarios) {
            let repro = chunk
                .iter()
                .map(|(seed, _)| format!("  repro: {}", seed.repro_command()))
                .collect::<Vec<_>>()
                .join("\n");
            failures.push(format!("{e}\n{repro}"));
        }
        chunk.clear();
        if failures.len() >= 3 {
            break; // enough evidence; don't grind through the rest
        }
    }
    assert!(
        failures.is_empty(),
        "batch-path divergence on {} chunk(s):\n{}",
        failures.len(),
        failures.join("\n")
    );
}
