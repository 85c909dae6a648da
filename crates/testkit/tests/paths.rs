//! The differential oracle at volume: seeded corpora of every scenario
//! family, each run in chunks through [`check_paths`] against one
//! shared two-shard `awsad-net` server. Every path a scenario supports
//! must reproduce direct stepping bit for bit, and every corpus whose
//! scenarios reach the cluster path must see both recovery branches
//! (the seed coin's restore and promotion) across its shard kills.
//!
//! A failing chunk prints the command that replays it through the same
//! oracle, lane-mates included: `cargo run --release -p awsad-testkit
//! --bin fuzz -- --repro <seed>[,<seed>...]`.

use awsad_cluster::Recoveries;
use awsad_net::{NetServer, NetServerConfig};
use awsad_testkit::scenario::{repro_command, Scenario, SeedSpec};
use awsad_testkit::{check_paths, PathsReport};
use rand::rngs::StdRng;
use rand::{RngExt as _, SeedableRng};

/// Two shards, so scenarios land on both engines over a corpus.
fn bind_server() -> NetServer {
    NetServer::bind(
        "127.0.0.1:0",
        NetServerConfig {
            shards: 2,
            ..NetServerConfig::default()
        },
    )
    .expect("bind server")
}

/// Draws `size` seeds from `rng_seed` (the `i`-th through
/// `family(i, draw)`), runs them through [`check_paths`] in chunks of
/// `chunk`, and panics on the first three failing chunks with their
/// repro commands. Prints the cluster failovers by branch.
fn run_corpus(rng_seed: u64, size: usize, chunk: usize, family: impl Fn(usize, u64) -> SeedSpec) {
    let server = bind_server();
    let mut rng = StdRng::seed_from_u64(rng_seed);
    let seeds: Vec<SeedSpec> = (0..size)
        .map(|i| family(i, rng.random_range(0..=u64::MAX)))
        .collect();
    let mut failures = Vec::new();
    let mut branches = Recoveries::default();
    let mut cluster_runs = 0;
    for seeds in seeds.chunks(chunk) {
        let scenarios: Vec<Scenario> = seeds.iter().map(Scenario::from_seed).collect();
        match check_paths(&scenarios, server.local_addr()) {
            Ok(report) => {
                branches += report.recoveries;
                cluster_runs += report
                    .scenarios
                    .iter()
                    .filter(|(_, paths)| paths.contains(&"cluster"))
                    .count();
            }
            Err(e) => failures.push(format!("{e}\n  repro: {}", repro_command(seeds))),
        }
        if failures.len() >= 3 {
            break; // enough evidence; don't grind through the rest
        }
    }
    server.shutdown();
    assert!(
        failures.is_empty(),
        "path divergence on {} chunk(s):\n{}",
        failures.len(),
        failures.join("\n")
    );
    println!("{cluster_runs} cluster runs, failovers by branch: {branches:?}");
    if cluster_runs > 0 {
        assert!(
            branches.restored > 0 && branches.adopted + branches.replayed > 0,
            "the seed coin must cover both recovery branches: {branches:?}"
        );
    }
}

#[test]
fn registry_scenarios_agree_on_every_path() {
    run_corpus(0x5F1E_5EED, 200, 1, |_, s| SeedSpec::registry(s));
}

/// Random-LTI plants cannot open wire sessions (the wire protocol
/// speaks registry models only), but their synthesized matrices
/// exercise the local paths and the estimator checks on plants the
/// registry never produces.
#[test]
fn random_lti_scenarios_agree_on_every_local_path() {
    run_corpus(0x17A_5EED, 48, 1, |_, s| SeedSpec::random_lti(s));
}

/// The per-sensor families carry their output map in the wire spec, so
/// the wire paths exercise the output-map encoding end to end; the
/// map is scenario metadata and may not perturb a single output bit.
#[test]
fn sensor_and_severe_scenarios_agree_on_every_path() {
    run_corpus(0x5E_A502, 96, 1, |i, s| {
        if i % 3 == 2 {
            SeedSpec::severe(s)
        } else {
            SeedSpec::sensor(s)
        }
    });
}

/// Registry, sensor and severe scenarios sharing one batch engine:
/// output-feedback traces join the same SoA lane groups as plain
/// registry traces of the same geometry.
#[test]
fn mixed_family_chunks_agree_on_every_path() {
    run_corpus(0xBA7C_5E02, 48, 6, |i, s| match i % 3 {
        0 => SeedSpec::registry(s),
        1 => SeedSpec::sensor(s),
        _ => SeedSpec::severe(s),
    });
}

#[test]
fn registry_scenarios_survive_a_mid_stream_shard_kill() {
    run_corpus(0x7_5EED, 100, 1, |_, s| SeedSpec::registry(s));
}

/// Chunks of eight keep ticks from many sessions co-pending, so the
/// grouped drain steps same-geometry sessions as vectorized lane
/// groups; besides the gather and scatter this diffs the two kernels
/// the batched step does not share with `AdaptiveDetector::step`: the
/// batched reachability walk and the SoA window mean.
#[test]
fn registry_chunks_of_eight_agree_on_every_path() {
    run_corpus(0x8_5EED, 200, 8, |_, s| SeedSpec::registry(s));
}

/// Drift scenarios recalibrate to the drifted model at their
/// precomputed boundary on every path; the cluster kill lands right
/// after the swap, so both recovery branches resume on the drifted
/// model, and the in-place resume recovers across the swap.
#[test]
fn drift_scenarios_recalibrate_bit_identically_on_every_path() {
    run_corpus(0x9_5EED, 100, 1, |_, s| SeedSpec::drift(s));
}

#[test]
fn the_report_names_the_paths_each_scenario_ran() {
    let server = bind_server();
    let chunk = [
        SeedSpec::registry(0x5EED),
        SeedSpec::random_lti(0x5EED),
        SeedSpec::drift(0x5EED),
    ]
    .map(|s| Scenario::from_seed(&s));
    let PathsReport { scenarios, .. } =
        check_paths(&chunk, server.local_addr()).expect("every scenario agrees");
    server.shutdown();
    let [(_, registry), (_, lti), (_, drift)] = &scenarios[..] else {
        panic!("one entry per scenario: {scenarios:?}");
    };
    assert!(
        registry.contains(&"cluster") && registry.contains(&"batch"),
        "registry: {registry:?}"
    );
    assert!(
        drift.contains(&"resume") && drift.contains(&"cluster"),
        "a drift scenario recalibrates on every wire path: {drift:?}"
    );
    assert!(lti.contains(&"batch"), "lti: {lti:?}");
    assert!(
        !lti.iter().any(|p| ["net", "resume", "cluster"].contains(p)),
        "an lti scenario has no wire spec: {lti:?}"
    );
}
