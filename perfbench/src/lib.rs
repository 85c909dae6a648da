//! Layered benchmark of the awsad detection stack.
//!
//! Three closed-loop workloads — `fleet`, `gateway`, `cluster` — each
//! driven by one load thread, each reporting the same five end-to-end
//! metrics and checking every outcome against direct stepping. A traced
//! run attributes the time to the crates a workload crosses, measured
//! only from outside the program. See `NOTES.md` next to this crate.

pub mod cluster;
pub mod fleet;
pub mod gate;
pub mod gateway;
pub mod inputs;
pub mod phase;
pub mod procstat;
pub mod report;
pub mod stats;
pub mod trace;

use std::fmt::Write as _;
use std::path::PathBuf;
use std::process::{Command, Stdio};
use std::time::Instant;

use awsad_serve::wire::SessionSpec;

use crate::gate::{GateReport, ReplayStats, WirePlan};
use crate::inputs::{EpisodePool, STREAM_CLUSTER, STREAM_GATEWAY};
use crate::phase::{run_phase, Load as _, PhaseConfig, PhaseResult};
use crate::report::{json_num, Host, Values, METRICS};
use crate::stats::{median, ratio, LatHist};
use crate::trace::Tracer;

/// The three workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// In-process engine, 64-lane batch mode.
    Fleet,
    /// Epoll server behind one blocking client.
    Gateway,
    /// Two-shard replicated cluster behind one router.
    Cluster,
}

impl Workload {
    /// Every workload.
    pub const ALL: [Workload; 3] = [Workload::Fleet, Workload::Gateway, Workload::Cluster];

    /// The workload's name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Fleet => "fleet",
            Workload::Gateway => "gateway",
            Workload::Cluster => "cluster",
        }
    }

    /// Parses a workload name.
    pub fn parse(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }
}

/// Workload sizes. `full` is what the benchmark measures; `tiny` runs
/// the same code in a fraction of a second for the self-test.
#[derive(Debug, Clone, Copy)]
pub struct Size {
    /// `full` or `tiny`.
    pub name: &'static str,
    /// Fleet sessions (lanes per round).
    pub fleet_sessions: usize,
    /// Cluster sessions.
    pub cluster_sessions: usize,
    /// Episodes per attack kind per Table-1 row in the pool.
    pub pool_per_kind: usize,
    /// Episode length cap (0 = the model's full episode).
    pub pool_max_len: usize,
    /// Set-ups per set-up window, at least.
    pub setup_min_reps: usize,
    /// Length of a set-up window, s, at least.
    pub setup_window_s: f64,
    /// Warm-up before the timed phase, s.
    pub warmup_s: f64,
    /// Re-warm-up after each gap of the timed phase, s.
    pub rewarm_s: f64,
    /// Timed slice length, s.
    pub slice_s: f64,
}

impl Size {
    /// The measured size.
    pub const FULL: Size = Size {
        name: "full",
        fleet_sessions: 64,
        cluster_sessions: 256,
        pool_per_kind: 2,
        pool_max_len: 0,
        setup_min_reps: 3,
        setup_window_s: 0.3,
        warmup_s: 0.5,
        rewarm_s: 0.1,
        slice_s: 0.5,
    };

    /// The self-test size.
    pub const TINY: Size = Size {
        name: "tiny",
        fleet_sessions: 8,
        cluster_sessions: 10,
        pool_per_kind: 1,
        pool_max_len: 120,
        setup_min_reps: 2,
        setup_window_s: 0.0,
        warmup_s: 0.02,
        rewarm_s: 0.005,
        slice_s: 0.05,
    };
}

/// One run's options.
#[derive(Debug, Clone)]
pub struct Options {
    /// Which workload.
    pub workload: Workload,
    /// Input seed.
    pub seed: u64,
    /// Timed length, s.
    pub seconds: f64,
    /// Traced run (per-layer metrics) or not (end-to-end metrics).
    pub trace: bool,
    /// Workload size.
    pub size: Size,
    /// Where the run record and spans go (`None` = not written).
    pub out_dir: Option<PathBuf>,
    /// Test hook: alter one outcome of this request before it is
    /// checked, so the gate must report it.
    pub corrupt: Option<u64>,
    /// The benchmark's executable, started with `--setup-probe` for the
    /// set-up windows inside the timed phase (`None` = no such windows).
    pub probe_exe: Option<PathBuf>,
}

/// Prefix of the line a `--setup-probe` process reports its set-up
/// times on.
pub const PROBE_TAG: &str = "setup-probe";

/// One run's results.
#[derive(Debug, Clone)]
pub struct RunOutput {
    /// The gate's verdict.
    pub gate: GateReport,
    /// Every metric computed (end-to-end always; per-layer on traced runs).
    pub values: Values,
    /// The human-readable run record.
    pub record: String,
}

impl RunOutput {
    /// Whether every outcome matched and no call failed.
    pub fn correct(&self) -> bool {
        self.gate.failed == 0 && self.gate.attempted > 0
    }
}

/// Median, p90, p99 and p99.9 of `h`, each with its sample count and
/// the number of samples beyond it.
fn latency_lines(h: &LatHist) -> String {
    let n = h.len();
    let mut out = String::new();
    for q in [0.5, 0.9, 0.99, 0.999] {
        let beyond = n - (q * n as f64).ceil().min(n as f64) as u64;
        let _ = writeln!(
            out,
            "latency p{:<5} {:>10.1} us  ({n} samples, {beyond} beyond)",
            q * 100.0,
            h.quantile_ns(q) / 1e3
        );
    }
    out
}

/// Where the workload's threads run. The reference host has two CPUs
/// shared with other tenants; letting the scheduler place threads made
/// run-to-run placement part of the measurement (unpinned, `cluster`
/// throughput varied 15k–26k ticks/s between runs of identical code).
/// Placement is therefore fixed. The load thread, which holds the
/// client libraries, runs on the first CPU, and threads it spawns
/// inherit that:
///
/// * `fleet` — the engine worker then moves to the second CPU, which it
///   keeps busy: with two rounds in flight it rarely waits for a
///   wake-up, and the load thread polls for outcomes, so the first CPU
///   does not idle either;
/// * `gateway` and `cluster` — nothing moves: client, servers, workers
///   and replicators share the first CPU, so every hop of a request is
///   a context switch. Split by role (servers and workers on the second
///   CPU), every hop became a wake-up of the other virtual CPU, whose
///   cost the host decides: while the host was busy, 3 of 10 `gateway`
///   runs fell from about 125k to 62k–78k ticks/s with p90 latency up
///   from 150 to 220–250 µs, and 8 of 10 `cluster` runs from about 17k
///   to 4k–6k ticks/s with p90 of 3–6 ms. No one-CPU run did that.
///
/// With a single allowed CPU everything shares it.
struct Placement {
    load: Option<usize>,
    worker: Option<usize>,
}

impl Placement {
    fn new(workload: Workload, cpus: &[usize]) -> Placement {
        Placement {
            load: cpus.first().copied(),
            worker: match workload {
                Workload::Fleet => cpus.get(1).or(cpus.first()).copied(),
                Workload::Gateway | Workload::Cluster => None,
            },
        }
    }

    /// Pins the calling (load) thread; threads it spawns inherit this.
    fn load_thread(&self) {
        if let Some(cpu) = self.load {
            procstat::pin(0, &[cpu]);
        }
    }

    /// Moves the engine workers to their own CPU.
    fn system_threads(&self) {
        if let Some(cpu) = self.worker {
            procstat::pin_threads("awsad-worker", &[cpu]);
        }
    }

    /// Lets the load thread use every CPU again (for the replay).
    fn release(&self, all: &[usize]) {
        if self.load.is_some() {
            procstat::pin(0, all);
        }
    }
}

/// Extra per-workload measurements that feed per-layer metrics.
#[derive(Default)]
struct Extras {
    checkpoint: cluster::CheckpointCost,
    batch_mismatches: u64,
}

/// Every set-up timed in a run, window by window.
#[derive(Debug, Default)]
struct SetupLog {
    times: Vec<f64>,
    /// `(label, set-ups)` per window, in order.
    windows: Vec<(&'static str, usize)>,
}

impl SetupLog {
    /// Closes the window of the set-ups added since the last one.
    fn close(&mut self, label: &'static str) {
        let before: usize = self.windows.iter().map(|w| w.1).sum();
        self.windows.push((label, self.times.len() - before));
    }
}

/// One set-up window: sets the system up at least
/// [`Size::setup_min_reps`] times and for at least
/// [`Size::setup_window_s`], timing each set-up, tears down all but the
/// last and returns it. Inputs are generated before the first call.
fn set_up<S>(
    size: &Size,
    times: &mut Vec<f64>,
    make: &mut impl FnMut() -> Result<S, String>,
    teardown: &mut impl FnMut(S),
) -> Result<S, String> {
    let window = Instant::now();
    let mut reps = 0;
    let mut sys = None;
    while reps < size.setup_min_reps.max(1) || window.elapsed().as_secs_f64() < size.setup_window_s
    {
        if let Some(old) = sys.take() {
            teardown(old);
        }
        let t = Instant::now();
        sys = Some(make()?);
        times.push(t.elapsed().as_secs_f64());
        reps += 1;
    }
    Ok(sys.expect("at least one set-up"))
}

/// A set-up window in which every system is torn down.
fn set_up_all<S>(
    size: &Size,
    times: &mut Vec<f64>,
    make: &mut impl FnMut() -> Result<S, String>,
    teardown: &mut impl FnMut(S),
) -> Result<(), String> {
    let last = set_up(size, times, make, teardown)?;
    teardown(last);
    Ok(())
}

/// The episode pool, session specs, ticks per request and seed stream
/// of a wire workload.
fn wire_inputs(opts: &Options) -> (EpisodePool, Vec<SessionSpec>, usize, u64) {
    let size = opts.size;
    let (stream, specs, batch) = if opts.workload == Workload::Gateway {
        (STREAM_GATEWAY, gateway::specs(), gateway::BATCH)
    } else {
        (
            STREAM_CLUSTER,
            cluster::specs(size.cluster_sessions),
            cluster::BATCH,
        )
    };
    let pool = EpisodePool::generate(opts.seed, stream, size.pool_per_kind, size.pool_max_len);
    (pool, specs, batch, stream)
}

/// What a `--setup-probe` process runs: the workload's inputs (not
/// timed), then one set-up window with every system torn down. Returns
/// the set-up times, s.
///
/// # Errors
///
/// Set-up failures.
pub fn setup_probe(opts: &Options) -> Result<Vec<f64>, String> {
    let size = opts.size;
    let mut times = Vec::new();
    if opts.workload == Workload::Fleet {
        let mut make = || Ok(fleet::Fleet::setup(opts.seed, size.fleet_sessions, None));
        set_up_all(&size, &mut times, &mut make, &mut drop::<fleet::Fleet>)?;
        return Ok(times);
    }
    let (pool, specs, batch, stream) = wire_inputs(opts);
    let plan = WirePlan {
        specs,
        batch,
        pool: &pool,
        seed: opts.seed,
        stream,
    };
    if opts.workload == Workload::Gateway {
        let mut make = || gateway::Gateway::setup(&plan, None);
        set_up_all(
            &size,
            &mut times,
            &mut make,
            &mut gateway::Gateway::shutdown,
        )?;
    } else {
        let mut make = || cluster::Cluster::setup(&plan, None);
        set_up_all(
            &size,
            &mut times,
            &mut make,
            &mut cluster::Cluster::shutdown,
        )?;
    }
    Ok(times)
}

/// Runs one set-up window in a fresh process of the benchmark's
/// executable (see [`setup_probe`]) and logs its set-up times. The
/// process's threads and memory stay out of this process's counters.
fn spawn_probe(opts: &Options, log: &mut SetupLog) -> Result<(), String> {
    let Some(exe) = &opts.probe_exe else {
        return Ok(());
    };
    let out = Command::new(exe)
        .args(["--setup-probe", "--workload", opts.workload.name()])
        .args(["--seed", &opts.seed.to_string(), "--size", opts.size.name])
        .args(["--seconds", "1", "--trace", "0"])
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("set-up probe: {e}"))?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    let times = stdout
        .lines()
        .last()
        .and_then(|l| l.strip_prefix(PROBE_TAG))
        .map(|rest| {
            rest.split_whitespace()
                .map(str::parse::<f64>)
                .collect::<Result<Vec<_>, _>>()
        });
    match times {
        Some(Ok(t)) if out.status.success() && !t.is_empty() => {
            log.times.extend(t);
            log.close("probe");
            Ok(())
        }
        _ => Err(format!(
            "set-up probe exited {} without set-up times",
            out.status
        )),
    }
}

/// Runs one workload on the calling thread (which should be the load
/// thread, named [`procstat::LOAD_THREAD`]).
///
/// A run generates its inputs, holds a set-up window and keeps the last
/// system it set up, warms it up and measures it, holds a second set-up
/// window, and replays the inputs for the correctness gate. A set-up
/// takes from under a millisecond (`gateway`) to tens of milliseconds,
/// while the reference host's speed drifts between levels that last
/// seconds, so one window samples one level. An untraced run therefore
/// also holds a set-up window in a fresh process ([`spawn_probe`]) in
/// every untimed gap of its timed phase, which spreads the timed
/// seconds over two to three times as long; the process keeps its
/// threads and memory out of this one's counters. `setup_s` is the
/// median over every window.
///
/// # Errors
///
/// Set-up failures; gate failures are reported in the output instead.
pub fn run(opts: &Options) -> Result<RunOutput, String> {
    let size = opts.size;
    let cfg = PhaseConfig {
        warmup_s: size.warmup_s,
        seconds: opts.seconds,
        slice_s: size.slice_s,
        trace: opts.trace,
        rewarm_s: size.rewarm_s,
    };
    let mut tracer = Tracer::default();
    let mut setup = SetupLog::default();
    let mut extras = Extras::default();
    let t_inputs = Instant::now();
    let cpus = procstat::allowed_cpus();
    let placement = Placement::new(opts.workload, &cpus);
    placement.load_thread();

    let (phase, ledger, expected, stats, input_note, streams) = match opts.workload {
        Workload::Fleet => {
            let mut make = || {
                Ok(fleet::Fleet::setup(
                    opts.seed,
                    size.fleet_sessions,
                    opts.corrupt,
                ))
            };
            let mut teardown = drop::<fleet::Fleet>;
            let mut sys = set_up(&size, &mut setup.times, &mut make, &mut teardown)?;
            setup.close("before");
            placement.system_threads();
            let phase = run_phase(&mut sys, &cfg, &mut tracer, &mut || {
                spawn_probe(opts, &mut setup)
            });
            let finished = sys.settle();
            let ledger = std::mem::take(&mut sys.ledger);
            drop(sys);
            set_up_all(&size, &mut setup.times, &mut make, &mut teardown)?;
            setup.close("after");
            placement.release(&cpus);
            let phase = phase.and_then(|p| finished.map(|()| p));
            let rounds = ledger.len();
            let (expected, stats, mismatches) =
                fleet::replay(opts.seed, size.fleet_sessions, rounds, opts.trace);
            extras.batch_mismatches = mismatches;
            let note = format!(
                "fleet noise stream, {} sessions x {} dims, generated per tick",
                size.fleet_sessions,
                fleet::DIM
            );
            (phase, ledger, expected, stats, note, 1)
        }
        Workload::Gateway | Workload::Cluster => {
            let (pool, specs, batch, stream) = wire_inputs(opts);
            let plan = WirePlan {
                specs,
                batch,
                pool: &pool,
                seed: opts.seed,
                stream,
            };
            let gen_s = t_inputs.elapsed().as_secs_f64();
            let cycles: Vec<String> = (1..=5u8)
                .map(|r| format!("row{r}:{}", pool.cycle_len(r)))
                .collect();
            let input_note = format!(
                "episode pool {} episodes (a quarter each benign, bias, delay, replay; every session \
                 cycles all four), {:.2} MiB, generated in {gen_s:.2} s; pass length in ticks {}",
                5 * 4 * size.pool_per_kind,
                pool.stored_values() as f64 * 8.0 / (1024.0 * 1024.0),
                cycles.join(" ")
            );
            let (phase, ledger) = if opts.workload == Workload::Gateway {
                let mut make = || gateway::Gateway::setup(&plan, opts.corrupt);
                let mut teardown = gateway::Gateway::shutdown;
                let mut sys = set_up(&size, &mut setup.times, &mut make, &mut teardown)?;
                setup.close("before");
                placement.system_threads();
                let phase = run_phase(&mut sys, &cfg, &mut tracer, &mut || {
                    spawn_probe(opts, &mut setup)
                });
                let ledger = std::mem::take(&mut sys.ledger);
                sys.shutdown();
                set_up_all(&size, &mut setup.times, &mut make, &mut teardown)?;
                (phase, ledger)
            } else {
                let mut make = || cluster::Cluster::setup(&plan, opts.corrupt);
                let mut teardown = cluster::Cluster::shutdown;
                let mut sys = set_up(&size, &mut setup.times, &mut make, &mut teardown)?;
                setup.close("before");
                placement.system_threads();
                let phase = run_phase(&mut sys, &cfg, &mut tracer, &mut || {
                    spawn_probe(opts, &mut setup)
                });
                if opts.trace {
                    extras.checkpoint = sys.checkpoint_cost(8);
                }
                let ledger = std::mem::take(&mut sys.ledger);
                sys.shutdown();
                set_up_all(&size, &mut setup.times, &mut make, &mut teardown)?;
                (phase, ledger)
            };
            setup.close("after");
            placement.release(&cpus);
            let (expected, stats) = plan.replay(ledger.len(), opts.trace);
            (phase, ledger, expected, stats, input_note, plan.specs.len())
        }
    };

    let mut gate = GateReport::check(&ledger, &expected, |k| k % streams);
    if extras.batch_mismatches > 0 {
        gate.failed += extras.batch_mismatches;
        gate.first_failure
            .get_or_insert_with(|| "BatchPlan replay differs from scalar stepping".into());
    }
    let phase = match phase {
        Ok(p) => p,
        Err(e) => {
            gate.first_failure.get_or_insert(e);
            PhaseResult::default()
        }
    };

    let values = compute(opts, &setup.times, &phase, &tracer, &stats, &extras);
    let record = record(opts, &setup, &phase, &gate, &stats, &values, &input_note);
    if let Some(dir) = &opts.out_dir {
        write_outputs(dir, opts, &record, &tracer, &stats)?;
    }
    Ok(RunOutput {
        gate,
        values,
        record,
    })
}

fn compute(
    opts: &Options,
    setup: &[f64],
    phase: &PhaseResult,
    tracer: &Tracer,
    stats: &ReplayStats,
    extras: &Extras,
) -> Values {
    let untraced: Vec<_> = phase.slices.iter().filter(|s| !s.traced).collect();
    let rate = ratio(
        untraced.iter().map(|s| s.ticks as f64).sum(),
        untraced.iter().map(|s| s.secs).sum(),
    );
    let mut v = Values::default();
    v.set("setup_s", median(setup));
    v.set("ticks_per_s", rate);
    v.set("latency_p50_us", phase.latency.quantile_ns(0.5) / 1e3);
    v.set("latency_p90_us", phase.latency.quantile_ns(0.9) / 1e3);
    v.set("peak_rss_mib", phase.peak_rss_mib);
    if !opts.trace {
        return v;
    }

    let traced = phase.traced.clone().unwrap_or_default();
    let ticks = traced.ticks as f64;
    let per_tick_us = |ns: u64| ratio(ns as f64 / 1e3, ticks);
    let per_tick = |n: u64| ratio(n as f64, ticks);
    let l = &traced.layers;
    let (worker, net, serve, repl, bench, total) = (
        l.layer("runtime"),
        l.layer("net"),
        l.layer("serve"),
        l.layer("cluster"),
        l.layer("bench"),
        l.total(),
    );
    v.set("runtime.worker_cpu_us_per_tick", per_tick_us(worker.run_ns));
    v.set(
        "runtime.worker_runq_wait_us_per_tick",
        per_tick_us(worker.wait_ns),
    );
    v.set(
        "runtime.worker_wakeups_per_tick",
        per_tick(worker.voluntary),
    );
    v.set("net.shard_cpu_us_per_tick", per_tick_us(net.run_ns));
    v.set("net.shard_runq_wait_us_per_tick", per_tick_us(net.wait_ns));
    v.set("net.shard_wakeups_per_tick", per_tick(net.voluntary));
    v.set("serve.conn_cpu_us_per_tick", per_tick_us(serve.run_ns));
    v.set(
        "serve.conn_runq_wait_us_per_tick",
        per_tick_us(serve.wait_ns),
    );
    v.set("serve.conn_wakeups_per_tick", per_tick(serve.voluntary));
    v.set(
        "cluster.replicator_cpu_us_per_tick",
        per_tick_us(repl.run_ns),
    );
    v.set(
        "cluster.replicator_runq_wait_us_per_tick",
        per_tick_us(repl.wait_ns),
    );
    v.set("bench.loadgen_cpu_us_per_tick", per_tick_us(bench.run_ns));
    v.set("process.cpu_us_per_tick", per_tick_us(total.run_ns));
    v.set(
        "process.ctx_switches_per_tick",
        per_tick(total.voluntary + total.involuntary),
    );

    let s = stats;
    let fleet = opts.workload == Workload::Fleet;
    let batch_step = ratio(s.batch_step_ns as f64, s.batch_lanes as f64);
    let record_ns = ratio(s.record_ns as f64, s.timed_ticks as f64);
    let step_ns = ratio(s.step_ns as f64, s.timed_ticks as f64);
    let prewarm_ns = ratio(s.prewarm_ns as f64, s.timed_ticks as f64);
    v.set(
        "reach.batch_walk_ns_per_lane",
        ratio(s.batch_walk_ns as f64, s.batch_lanes as f64),
    );
    v.set(
        "reach.walk_ns",
        ratio(
            (s.walk_ns + s.prewarm_ns) as f64,
            (s.timed_walks + s.timed_batched_walks) as f64,
        ),
    );
    let walks_per_tick = ratio(s.walks as f64, s.ticks as f64);
    v.set("reach.walks_per_tick", walks_per_tick);
    v.set(
        "reach.cache_hit_ratio",
        ratio(s.cache_hits as f64, s.cache_lookups as f64),
    );
    v.set("core.batch_step_ns_per_lane", batch_step);
    v.set("core.step_ns", step_ns);
    v.set("core.record_ns", record_ns);
    v.set("core.alarm_ratio", ratio(s.alarms as f64, s.ticks as f64));
    let core_per_tick = record_ns
        + if fleet {
            batch_step
        } else {
            step_ns + prewarm_ns
        };
    v.set(
        "runtime.overhead_ns_per_tick",
        per_tick_us(worker.run_ns) * 1e3 - core_per_tick,
    );
    v.set(
        "runtime.submit_ns",
        ratio(tracer.total_ns("submit") as f64, ticks),
    );

    let (b, a) = (&traced.before.engine, &traced.after.engine);
    let processed = a.ticks_processed.saturating_sub(b.ticks_processed) as f64;
    let hist_mean = |after: &awsad_runtime::LatencyHistogram,
                     before: &awsad_runtime::LatencyHistogram| {
        ratio(
            after.sum_ns.saturating_sub(before.sum_ns) as f64,
            after.count.saturating_sub(before.count) as f64,
        )
    };
    v.set(
        "runtime.detect_ns_mean",
        hist_mean(&a.detect_latency, &b.detect_latency),
    );
    v.set(
        "runtime.log_ns_mean",
        hist_mean(&a.log_latency, &b.log_latency),
    );
    v.set(
        "reach.batched_walk_share",
        ratio(
            ratio(
                a.batched_deadline_queries
                    .saturating_sub(b.batched_deadline_queries) as f64,
                processed,
            ),
            walks_per_tick,
        ),
    );
    v.set(
        "runtime.batch_tick_ratio",
        ratio(
            a.batch_ticks.saturating_sub(b.batch_ticks) as f64,
            processed,
        ),
    );
    v.set("runtime.lanes_hwm", a.batch_sessions_hwm as f64);
    v.set("runtime.queue_depth_hwm", a.queue_depth_high_water as f64);
    v.set(
        "runtime.alloc_free_ratio",
        ratio(
            a.alloc_free_ticks.saturating_sub(b.alloc_free_ticks) as f64,
            processed,
        ),
    );

    let codec_ticks = s.codec_ticks as f64;
    v.set(
        "serve.encode_ns_per_tick",
        ratio(s.encode_ns as f64, codec_ticks),
    );
    v.set(
        "serve.decode_ns_per_tick",
        ratio(s.decode_ns as f64, codec_ticks),
    );
    v.set(
        "serve.request_bytes_per_tick",
        ratio(s.request_bytes as f64, codec_ticks),
    );
    v.set(
        "serve.reply_bytes_per_tick",
        ratio(s.reply_bytes as f64, codec_ticks),
    );

    let frames = traced.after.frames.saturating_sub(traced.before.frames) as f64;
    let requests = traced.requests as f64;
    let gateway = opts.workload == Workload::Gateway;
    let cluster = opts.workload == Workload::Cluster;
    v.set(
        "net.frames_per_request",
        if gateway {
            ratio(frames, requests)
        } else {
            0.0
        },
    );
    v.set(
        "net.partial_frame_resumes",
        traced
            .after
            .partial_resumes
            .saturating_sub(traced.before.partial_resumes) as f64,
    );
    v.set("cluster.checkpoint_bytes", extras.checkpoint.bytes);
    v.set("cluster.checkpoint_codec_ns", extras.checkpoint.codec_ns);
    v.set(
        "cluster.frames_per_batch",
        if cluster {
            ratio(frames, requests)
        } else {
            0.0
        },
    );
    let delivered = traced
        .after
        .repl_delivered
        .saturating_sub(traced.before.repl_delivered) as f64;
    let dropped = traced
        .after
        .repl_dropped
        .saturating_sub(traced.before.repl_dropped) as f64;
    v.set(
        "cluster.replication_delivered_ratio",
        ratio(delivered, delivered + dropped),
    );
    v.set("cluster.replication_lag_hwm", a.replication_lag_hwm as f64);

    let traced: Vec<_> = phase.slices.iter().filter(|s| s.traced).collect();
    let traced_rate = ratio(
        traced.iter().map(|s| s.ticks as f64).sum(),
        traced.iter().map(|s| s.secs).sum(),
    );
    v.set("trace.overhead", ratio(traced_rate, rate));
    v
}

#[allow(clippy::too_many_arguments)]
fn record(
    opts: &Options,
    setup: &SetupLog,
    phase: &PhaseResult,
    gate: &GateReport,
    stats: &ReplayStats,
    values: &Values,
    input_note: &str,
) -> String {
    let host = Host::probe();
    let mut r = String::new();
    let _ = writeln!(r, "workload      {}", opts.workload.name());
    let _ = writeln!(r, "seed          {}", opts.seed);
    let _ = writeln!(
        r,
        "seconds       {} ({})",
        opts.seconds,
        if opts.trace {
            "half untraced, half traced"
        } else {
            "untraced"
        }
    );
    let _ = writeln!(r, "commit        {}", host.commit);
    let _ = writeln!(r, "nproc         {}", host.nproc);
    let _ = writeln!(r, "cpu           {}", host.cpu);
    let mut start = 0;
    let windows: Vec<String> = setup
        .windows
        .iter()
        .map(|&(label, n)| {
            let part = &setup.times[start..start + n];
            start += n;
            format!("{label} {n} x {:.3} ms", 1e3 * median(part))
        })
        .collect();
    let _ = writeln!(
        r,
        "setup         median {:.3} ms over {} set-ups (first {:.3} ms); per window: {}",
        1e3 * median(&setup.times),
        setup.times.len(),
        1e3 * setup.times.first().copied().unwrap_or(f64::NAN),
        windows.join(", ")
    );
    let untraced = phase.slices.iter().filter(|s| !s.traced).count();
    let n = phase.latency.len();
    let _ = writeln!(
        r,
        "slices        {untraced} untraced ({n} latency samples), {} traced; warm-up {} requests",
        phase.slices.len() - untraced,
        phase.warmup_requests
    );
    r.push_str(&latency_lines(&phase.latency));
    for (i, s) in phase.slices.iter().enumerate() {
        let _ = writeln!(
            r,
            "slice {i:>3}{}    {:>10.0} ticks/s  p50 {:>9.1} us  p90 {:>9.1} us  ({} requests in {:.3} s)",
            if s.traced { " T" } else { "  " },
            s.rate(),
            s.p50_us,
            s.p90_us,
            s.requests,
            s.secs
        );
    }
    let _ = writeln!(r, "inputs        {input_note}");
    let s = stats;
    let t = s.ticks.max(1) as f64;
    let _ = writeln!(
        r,
        "properties    repeat_share {:.4}  walk_share {:.4} (batched {:.4})  mean_walk_steps {:.1}  alarm_share {:.4}  attacked_share {:.4}  dims {} (mean {:.2})",
        s.repeats as f64 / t,
        s.walks as f64 / t,
        s.batched_walks as f64 / t,
        ratio(s.walk_steps as f64, s.ticks as f64),
        s.alarms as f64 / t,
        s.attacked as f64 / t,
        s.dim_mix(),
        s.mean_dim()
    );
    let _ = writeln!(
        r,
        "gate          {} requests checked ({} ticks replayed), {} failed{}",
        gate.attempted,
        s.ticks,
        gate.failed,
        gate.first_failure
            .as_deref()
            .map(|f| format!(" — first: {f}"))
            .unwrap_or_default()
    );
    for m in METRICS {
        if let Some(val) = values.get(m.name) {
            let _ = writeln!(
                r,
                "metric        {:<42} {:>16} {}",
                m.name,
                json_num(val),
                m.unit
            );
        }
    }
    r
}

fn write_outputs(
    dir: &std::path::Path,
    opts: &Options,
    record: &str,
    tracer: &Tracer,
    stats: &ReplayStats,
) -> Result<(), String> {
    std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let stem = format!(
        "{}-seed{}-trace{}",
        opts.workload.name(),
        opts.seed,
        opts.trace as u8
    );
    let write = |name: String, body: &str| {
        std::fs::write(dir.join(&name), body).map_err(|e| format!("{name}: {e}"))
    };
    write(format!("{stem}.txt"), record)?;
    if opts.trace {
        write(format!("{stem}-spans.csv"), &tracer.spans_csv())?;
        let extra = [
            (
                "replay:DataLogger::record",
                stats.timed_ticks,
                stats.record_ns,
            ),
            (
                "replay:AdaptiveDetector::step",
                stats.timed_ticks,
                stats.step_ns,
            ),
            (
                "replay:checked_deadline_with",
                stats.timed_walks,
                stats.walk_ns,
            ),
            (
                "replay:prewarm_deadline_cache",
                stats.timed_batched_walks,
                stats.prewarm_ns,
            ),
            (
                "replay:Frame::encode_with_corr",
                stats.codec_ticks,
                stats.encode_ns,
            ),
            (
                "replay:Frame::decode_enveloped",
                stats.codec_ticks,
                stats.decode_ns,
            ),
            (
                "replay:BatchPlan::step_group",
                stats.batch_lanes,
                stats.batch_step_ns,
            ),
            (
                "replay:deadline_batch_refs_with",
                stats.batch_lanes,
                stats.batch_walk_ns,
            ),
        ];
        write(format!("{stem}-selftime.csv"), &tracer.summary_csv(&extra))?;
    }
    Ok(())
}
