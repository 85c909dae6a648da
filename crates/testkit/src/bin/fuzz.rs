//! The awsad fuzz driver: time-boxed smoke runs, exact repro, and a
//! built-in shrinker.
//!
//! ```text
//! fuzz --seconds 30 --seed 5      # CI smoke: scenarios + wire fuzz
//! fuzz --repro <seed>[,<seed>...] # replay one chunk exactly
//! fuzz --wire <n>                 # replay one wire-fuzz iteration
//! fuzz --torn <n>                 # replay one torn-frame probe
//! ```
//!
//! The smoke loop interleaves four activities, all derived from the
//! master seed:
//!
//! * **scenario oracles** — generate one scenario per lap, cycling
//!   through the five families, and run each chunk of five through
//!   [`check_paths`]: every path each scenario supports, then the
//!   whole chunk through one cross-session-batch engine;
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
//! On a scenario failure the shrinker drops the failing scenario's
//! lane-mates if it fails alone, minimizes its trace length via its
//! seed string's `len=` field (re-verifying each candidate chunk), and
//! prints a two-line repro: the minimized chunk's seed strings and the
//! command that replays it. `--repro` runs the same [`check_paths`]
//! and prints its report: the paths each scenario ran and the cluster
//! failovers by branch. Exit code 1 signals any failure.

use std::net::SocketAddr;
use std::process::ExitCode;
use std::time::{Duration, Instant};

use awsad_net::{NetServer, NetServerConfig};
use awsad_testkit::scenario::{repro_command, Scenario, SeedSpec};
use awsad_testkit::wirefuzz;
use awsad_testkit::{check_paths, OracleError, PathsReport};
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
                    "usage: fuzz [--seconds N] [--seed S] [--repro SEEDSTRING[,SEEDSTRING...]] [--wire N] [--torn N]"
                );
                std::process::exit(0);
            }
            other => return Err(format!("unknown flag {other:?}")),
        }
    }
    Ok(args)
}

/// Scenarios per smoke chunk: one of each family, so registry,
/// sensor, severe and drift scenarios on the same plant can share a
/// batch lane group.
const CHUNK: usize = 5;

/// Runs every oracle path over the chunk the seeds describe.
fn check_chunk(seeds: &[SeedSpec], addr: SocketAddr) -> Result<PathsReport, OracleError> {
    let chunk: Vec<Scenario> = seeds.iter().map(Scenario::from_seed).collect();
    check_paths(&chunk, addr)
}

/// Minimizes a failing chunk: drops the failing scenario's lane-mates
/// when it fails alone, then lowers its `len=` override by binary
/// search, keeping a candidate only when that scenario still fails.
/// Returns the smallest failing chunk and its failure.
fn shrink(
    chunk: &[SeedSpec],
    failure: OracleError,
    addr: SocketAddr,
) -> (Vec<SeedSpec>, OracleError) {
    let seed = failure.seed;
    let mut best = vec![seed];
    let mut best_failure = failure;
    match check_chunk(&best, addr) {
        Err(e) if e.seed == seed => best_failure = e,
        _ => best = chunk.to_vec(),
    }
    let i = best
        .iter()
        .position(|s| *s == seed)
        .expect("the failure names a scenario of the chunk");
    let (mut lo, mut hi) = (1usize, Scenario::from_seed(&seed).trace.len());
    while lo < hi {
        let mid = lo + (hi - lo) / 2;
        let mut candidate = best.clone();
        candidate[i] = seed.with_len(mid);
        match check_chunk(&candidate, addr) {
            Err(e) if e.seed == candidate[i] => {
                best = candidate;
                best_failure = e;
                hi = mid;
            }
            _ => lo = mid + 1,
        }
    }
    (best, best_failure)
}

fn report_chunk_failure(chunk: &[SeedSpec], failure: OracleError, addr: SocketAddr) {
    eprintln!("FAIL {failure}");
    let (min, min_failure) = shrink(chunk, failure, addr);
    eprintln!("shrunk: {min_failure}");
    let seeds: Vec<String> = min.iter().map(SeedSpec::to_string).collect();
    eprintln!("minimized failing chunk: {}", seeds.join(","));
    eprintln!("{}", repro_command(&min));
}

fn smoke(seconds: u64, master_seed: u64) -> ExitCode {
    let server = bind_server();
    let addr = server.local_addr();

    let deadline = Instant::now() + Duration::from_secs(seconds);
    let mut rng = StdRng::seed_from_u64(master_seed);
    let mut scenarios = 0u64;
    let mut wire_iters = 0u64;
    let mut probes = 0u64;
    let mut torn_probes = 0u64;
    let mut chunk = Vec::with_capacity(CHUNK);
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
        chunk.push(seed);
        scenarios += 1;
        if chunk.len() == CHUNK {
            if let Err(failure) = check_chunk(&chunk, addr) {
                report_chunk_failure(&chunk, failure, addr);
                failed = true;
                break;
            }
            chunk.clear();
        }

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

    // The time box can end mid-chunk; check what it generated.
    if !failed && !chunk.is_empty() {
        if let Err(failure) = check_chunk(&chunk, addr) {
            report_chunk_failure(&chunk, failure, addr);
            failed = true;
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

fn repro(seed_strings: &str) -> ExitCode {
    let seeds: Vec<SeedSpec> = match seed_strings.split(',').map(str::parse).collect() {
        Ok(seeds) => seeds,
        Err(e) => {
            eprintln!("bad seed string: {e}");
            return ExitCode::FAILURE;
        }
    };
    let chunk: Vec<Scenario> = seeds.iter().map(Scenario::from_seed).collect();
    for scenario in &chunk {
        println!("replaying {}: {}", scenario.seed, scenario.label);
    }
    let server = bind_server();
    let result = check_paths(&chunk, server.local_addr());
    server.shutdown();
    match result {
        Ok(report) => {
            println!("{report}");
            ExitCode::SUCCESS
        }
        Err(failure) => {
            eprintln!("FAIL {failure}");
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
    if let Some(seed_strings) = &args.repro {
        return repro(seed_strings);
    }
    if let Some(wire_seed) = args.wire {
        return wire_repro(wire_seed);
    }
    if let Some(torn_seed) = args.torn {
        return torn_repro(torn_seed);
    }
    smoke(args.seconds, args.seed)
}
