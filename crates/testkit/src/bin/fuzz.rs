//! The awsad fuzz driver: time-boxed smoke runs, exact repro, and a
//! built-in shrinker.
//!
//! ```text
//! fuzz --seconds 30 --seed 5      # CI smoke: scenarios + wire fuzz
//! fuzz --repro <seed-string>      # replay one scenario exactly
//! fuzz --wire <n>                 # replay one wire-fuzz iteration
//! fuzz --torn <n>                 # replay one torn-frame probe
//! ```
//!
//! The smoke loop interleaves four activities, all derived from the
//! master seed:
//!
//! * **scenario oracles** — generate a scenario, run the differential
//!   oracles (all five paths for registry scenarios, local paths for
//!   random-LTI ones, and the recalibration path for drift scenarios)
//!   plus the estimator self-checks;
//! * **wire fuzz** — batches of structure-aware frame mutations plus
//!   the allocation-guard checks;
//! * **poisoning probes** — periodically prove hostile bytes on one
//!   connection cannot perturb another connection's stream;
//! * **torn-frame probes** — requests split into 1–7 byte chunks and
//!   interleaved across connections sharing one event-loop shard,
//!   proving the incremental decoder never leaks partial-frame state
//!   between connections.
//!
//! Every live check runs against one single-shard `awsad-net` server.
//!
//! On a scenario failure the shrinker minimizes the trace length via
//! the seed string's `len=` field (re-verifying each candidate) and
//! prints a two-line repro: the minimized seed string and the command
//! that replays it. Exit code 1 signals any failure.

use std::net::SocketAddr;
use std::process::ExitCode;
use std::time::{Duration, Instant};

use awsad_net::{NetServer, NetServerConfig};
use awsad_testkit::scenario::{Scenario, SeedSpec};
use awsad_testkit::wirefuzz;
use awsad_testkit::{check_estimator, check_five_paths, check_local_paths, check_recalibrate_path};
use rand::rngs::StdRng;
use rand::{RngExt as _, SeedableRng};

struct Args {
    seconds: u64,
    seed: u64,
    repro: Option<String>,
    wire: Option<u64>,
    torn: Option<u64>,
}

/// Binds the fuzz server: one event-loop shard, so torn-frame
/// interleaving is guaranteed to land every fuzzed connection on the
/// same incremental decoder.
fn bind_server() -> NetServer {
    NetServer::bind(
        "127.0.0.1:0",
        NetServerConfig {
            shards: 1,
            ..NetServerConfig::default()
        },
    )
    .expect("bind fuzz server")
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        seconds: 30,
        seed: 1,
        repro: None,
        wire: None,
        torn: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = |name: &str| it.next().ok_or_else(|| format!("{name} expects a value"));
        match flag.as_str() {
            "--seconds" => {
                args.seconds = value("--seconds")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
            }
            "--seed" => {
                args.seed = value("--seed")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?;
            }
            "--repro" => args.repro = Some(value("--repro")?),
            "--wire" => {
                args.wire = Some(
                    value("--wire")?
                        .parse()
                        .map_err(|e| format!("--wire: {e}"))?,
                );
            }
            "--torn" => {
                args.torn = Some(
                    value("--torn")?
                        .parse()
                        .map_err(|e| format!("--torn: {e}"))?,
                );
            }
            "--help" | "-h" => {
                println!(
                    "usage: fuzz [--seconds N] [--seed S] [--repro SEEDSTRING] [--wire N] [--torn N]"
                );
                std::process::exit(0);
            }
            other => return Err(format!("unknown flag {other:?}")),
        }
    }
    Ok(args)
}

/// Runs every oracle that applies to the scenario; returns the first
/// failure rendered as a string.
fn check_scenario(seed: &SeedSpec, addr: SocketAddr) -> Result<(), String> {
    let scenario = Scenario::from_seed(seed);
    check_estimator(&scenario).map_err(|e| e.to_string())?;
    if scenario.spec.is_some() {
        check_five_paths(&scenario, addr).map_err(|e| e.to_string())?;
    } else {
        check_local_paths(&scenario).map_err(|e| e.to_string())?;
    }
    if scenario.recalibration.is_some() {
        check_recalibrate_path(&scenario, addr).map_err(|e| e.to_string())?;
    }
    Ok(())
}

/// Minimizes a failing seed by lowering its `len=` override, greedily
/// then by binary search, re-verifying every candidate. Returns the
/// smallest still-failing seed and its failure message.
fn shrink(
    failing: &SeedSpec,
    failure: String,
    check: impl Fn(&SeedSpec) -> Result<(), String>,
) -> (SeedSpec, String) {
    let full_len = Scenario::from_seed(failing).trace.len();
    let mut best = failing.with_len(full_len);
    let mut best_failure = failure;
    let (mut lo, mut hi) = (1usize, full_len);
    while lo < hi {
        let mid = lo + (hi - lo) / 2;
        let candidate = failing.with_len(mid);
        match check(&candidate) {
            Err(msg) => {
                best = candidate;
                best_failure = msg;
                hi = mid;
            }
            Ok(()) => lo = mid + 1,
        }
    }
    (best, best_failure)
}

fn report_scenario_failure(
    seed: &SeedSpec,
    failure: String,
    check: impl Fn(&SeedSpec) -> Result<(), String>,
) {
    eprintln!("FAIL {seed}: {failure}");
    let (min, min_failure) = shrink(seed, failure, check);
    eprintln!("shrunk: {min_failure}");
    eprintln!("minimized failing scenario: {min}");
    eprintln!("{}", min.repro_command());
}

fn smoke(seconds: u64, master_seed: u64) -> ExitCode {
    let server = bind_server();
    let addr = server.local_addr();
    let check = |seed: &SeedSpec| check_scenario(seed, addr);

    let deadline = Instant::now() + Duration::from_secs(seconds);
    let mut rng = StdRng::seed_from_u64(master_seed);
    let mut scenarios = 0u64;
    let mut wire_iters = 0u64;
    let mut probes = 0u64;
    let mut torn_probes = 0u64;
    let mut failed = false;

    while Instant::now() < deadline && !failed {
        // Wire fuzz: a batch per lap, each iteration independently
        // seeded so `--wire <n>` replays it exactly.
        for _ in 0..64 {
            let wire_seed = rng.random_range(0..=u64::MAX);
            let mut wire_rng = StdRng::seed_from_u64(wire_seed);
            if let Err(v) = wirefuzz::fuzz_frame_once(&mut wire_rng) {
                eprintln!("FAIL wire iteration {wire_seed}: {v}");
                eprintln!("cargo run --release -p awsad-testkit --bin fuzz -- --wire {wire_seed}");
                failed = true;
                break;
            }
            wire_iters += 1;
        }
        if failed {
            break;
        }
        {
            let guard_seed = rng.random_range(0..=u64::MAX);
            let mut guard_rng = StdRng::seed_from_u64(guard_seed);
            if let Err(v) = wirefuzz::check_allocation_guards(&mut guard_rng) {
                eprintln!("FAIL allocation guard (seed {guard_seed}): {v}");
                failed = true;
                break;
            }
        }

        // One scenario per lap, cycling through all five families.
        let scenario_seed = rng.random_range(0..=u64::MAX);
        let seed = match scenarios % 5 {
            0 => SeedSpec::registry(scenario_seed),
            1 => SeedSpec::random_lti(scenario_seed),
            2 => SeedSpec::sensor(scenario_seed),
            3 => SeedSpec::severe(scenario_seed),
            _ => SeedSpec::drift(scenario_seed),
        };
        if let Err(failure) = check(&seed) {
            report_scenario_failure(&seed, failure, check);
            failed = true;
            break;
        }
        scenarios += 1;

        // Poisoning probe every 8th lap: hostile bytes from the frame
        // mutator against a live connection pair.
        if scenarios.is_multiple_of(8) {
            let probe_seed = SeedSpec::registry(rng.random_range(0..=u64::MAX)).with_len(24);
            let scenario = Scenario::from_seed(&probe_seed);
            let mut garbage = wirefuzz::arbitrary_frame(&mut rng).encode();
            wirefuzz::mutate(&mut rng, &mut garbage);
            if let Err(v) = wirefuzz::check_no_cross_connection_poisoning(&scenario, addr, &garbage)
            {
                eprintln!("FAIL poisoning probe on {probe_seed}: {v}");
                failed = true;
                break;
            }
            probes += 1;
        }

        // Torn-frame probe every 8th lap (offset from the poisoning
        // probes): interleaved 1–7 byte chunks across connections on
        // the server's single shard.
        if scenarios % 8 == 4 {
            let torn_seed = rng.random_range(0..=u64::MAX);
            if let Err(v) = run_torn_probe(torn_seed, addr) {
                eprintln!("FAIL torn-frame probe {torn_seed}: {v}");
                eprintln!("cargo run --release -p awsad-testkit --bin fuzz -- --torn {torn_seed}");
                failed = true;
                break;
            }
            torn_probes += 1;
        }
    }

    server.shutdown();
    println!(
        "fuzz smoke: {scenarios} scenarios, {wire_iters} wire iterations, {probes} poisoning probes, {torn_probes} torn-frame probes ({})",
        if failed { "FAILED" } else { "all green" }
    );
    if failed {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

/// One torn-frame probe, fully determined by its seed: the scenario,
/// the chunk sizes, and the garbage bytes all derive from it.
fn run_torn_probe(torn_seed: u64, addr: SocketAddr) -> Result<(), String> {
    let mut torn_rng = StdRng::seed_from_u64(torn_seed);
    let probe_seed = SeedSpec::registry(torn_rng.random_range(0..=u64::MAX)).with_len(48);
    let scenario = Scenario::from_seed(&probe_seed);
    wirefuzz::check_torn_frame_interleaving(&scenario, addr, &mut torn_rng)
        .map_err(|v| format!("{probe_seed}: {v}"))
}

fn repro(seed_string: &str) -> ExitCode {
    let seed: SeedSpec = match seed_string.parse() {
        Ok(s) => s,
        Err(e) => {
            eprintln!("bad seed string: {e}");
            return ExitCode::FAILURE;
        }
    };
    let server = bind_server();
    let scenario = Scenario::from_seed(&seed);
    println!("replaying {seed}: {}", scenario.label);
    let result = check_scenario(&seed, server.local_addr());
    server.shutdown();
    match result {
        Ok(()) => {
            println!("scenario passes every oracle");
            ExitCode::SUCCESS
        }
        Err(failure) => {
            eprintln!("FAIL {seed}: {failure}");
            ExitCode::FAILURE
        }
    }
}

fn wire_repro(wire_seed: u64) -> ExitCode {
    let mut wire_rng = StdRng::seed_from_u64(wire_seed);
    match wirefuzz::fuzz_frame_once(&mut wire_rng) {
        Ok(()) => {
            println!("wire iteration {wire_seed} passes");
            ExitCode::SUCCESS
        }
        Err(v) => {
            eprintln!("FAIL wire iteration {wire_seed}: {v}");
            ExitCode::FAILURE
        }
    }
}

fn torn_repro(torn_seed: u64) -> ExitCode {
    let server = bind_server();
    let result = run_torn_probe(torn_seed, server.local_addr());
    server.shutdown();
    match result {
        Ok(()) => {
            println!("torn-frame probe {torn_seed} passes");
            ExitCode::SUCCESS
        }
        Err(v) => {
            eprintln!("FAIL torn-frame probe {torn_seed}: {v}");
            ExitCode::FAILURE
        }
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::FAILURE;
        }
    };
    if let Some(seed_string) = &args.repro {
        return repro(seed_string);
    }
    if let Some(wire_seed) = args.wire {
        return wire_repro(wire_seed);
    }
    if let Some(torn_seed) = args.torn {
        return torn_repro(torn_seed);
    }
    smoke(args.seconds, args.seed)
}
