//! The per-sensor scenario families, run through every detection
//! path: `sensor` (a minority of output channels falsified behind a
//! randomized `C ≠ I` output map) and `severe` (fewer than half the
//! sensors trustworthy). Both families carry their output map in the
//! wire spec, so the wire path exercises the spec-extension encoding
//! end to end, and every path must stay bit-identical to direct
//! stepping — the map is scenario metadata and may not perturb a
//! single detector output bit.
//!
//! Every scenario that fails prints its seed string, so the repro is
//! always `cargo run --release -p awsad-testkit --bin fuzz -- --repro
//! <seed>`.

use awsad_net::{NetServer, NetServerConfig};
use awsad_testkit::check_five_paths;
use awsad_testkit::oracle::check_batch_path;
use awsad_testkit::scenario::{Scenario, SeedSpec};
use rand::rngs::StdRng;
use rand::{RngExt as _, SeedableRng};

const SCENARIOS: u64 = 96;

#[test]
fn sensor_and_severe_scenarios_agree_across_all_five_paths() {
    let server = NetServer::bind("127.0.0.1:0", NetServerConfig::default()).expect("bind server");
    let addr = server.local_addr();
    let mut rng = StdRng::seed_from_u64(0x5E_A502);
    let mut failures = Vec::new();
    for i in 0..SCENARIOS {
        let seed = if i % 3 == 2 {
            SeedSpec::severe(rng.random_range(0..=u64::MAX))
        } else {
            SeedSpec::sensor(rng.random_range(0..=u64::MAX))
        };
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

/// Mixed chunks — registry, sensor, and severe scenarios sharing one
/// engine in forced cross-session batch mode — must batch-step
/// bit-identically. Output-feedback traces join the same SoA lane
/// groups as plain registry traces of the same geometry.
#[test]
fn mixed_family_chunks_batch_step_bit_identically() {
    let mut rng = StdRng::seed_from_u64(0xBA7C_5E02);
    let mut failures = Vec::new();
    let mut chunk: Vec<(SeedSpec, Scenario)> = Vec::with_capacity(6);
    for i in 0..48usize {
        let seed = match i % 3 {
            0 => SeedSpec::registry(rng.random_range(0..=u64::MAX)),
            1 => SeedSpec::sensor(rng.random_range(0..=u64::MAX)),
            _ => SeedSpec::severe(rng.random_range(0..=u64::MAX)),
        };
        let scenario = Scenario::from_seed(&seed);
        chunk.push((seed, scenario));
        if chunk.len() < 6 && i + 1 < 48 {
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
            break;
        }
    }
    assert!(
        failures.is_empty(),
        "batch-path divergence on {} chunk(s):\n{}",
        failures.len(),
        failures.join("\n")
    );
}
