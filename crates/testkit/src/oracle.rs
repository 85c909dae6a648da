//! Differential oracles: every detection path must produce the same
//! bits.
//!
//! The stack computes one [`AdaptiveStep`] stream many independent
//! ways. [`check_paths`] runs a chunk of generated [`Scenario`]s
//! through every way that applies to each and diffs every stream
//! against direct [`awsad_core::AdaptiveDetector`] stepping. The
//! scenario decides which paths apply:
//!
//! | Path | Runs when | What it crosses |
//! |---|---|---|
//! | `estimator` | always | the precomputed-box walk against the reference formula; deadline-cache transparency |
//! | `engine` | always | the runtime engine |
//! | `engine-nocache` | the scenario has a deadline cache | the engine with the cache stripped |
//! | `snapshot` | always | snapshot at a seed-derived cut, restore into a fresh engine |
//! | `net` | the scenario has a wire spec | an `awsad-net` server and its incremental decoder |
//! | `resume` | the scenario has a wire spec | a one-member [`ClusterClient`] through a fault proxy that severs the connection, recovering in place |
//! | `cluster` | the scenario has a wire spec | a fresh 3-shard [`LocalCluster`] with the session's primary killed |
//! | `batch` | always | the whole chunk in one cross-session-batch engine |
//!
//! A scenario with a recalibration (the drift family) swaps its plant
//! model at its precomputed boundary on every path, direct stepping
//! included. Floats travel the wire as their IEEE-754 bit
//! patterns and every state copy is bit-exact, so the streams must be
//! **equal**, not approximately equal. A mismatch is reported with the
//! failing scenario's seed, so the exact episode replays from one
//! line.

use std::fmt;
use std::net::SocketAddr;
use std::ops::Range;
use std::sync::Arc;
use std::time::Duration;

use awsad_cluster::{ClusterClient, HashRing, LocalCluster, Recoveries, RetryPolicy};
use awsad_core::AdaptiveStep;
use awsad_linalg::Vector;
use awsad_reach::{CacheConfig, DeadlineCache, DeadlineEstimator};
use awsad_runtime::{
    DetectionEngine, EngineConfig, RuntimeMetrics, SessionHandle, Tick, TickOutcome,
};
use awsad_serve::client::Client;
use awsad_serve::server::ServerConfig;
use awsad_serve::wire::{RingMember, WireOutcome, WireTick};
use awsad_serve::{ReplicationSink, ReplicationUpdate};

use crate::proxy::{FaultPlan, FaultProxy, ReplyFault};
use crate::scenario::{Scenario, ScenarioRecalibration, SeedSpec};

/// A differential-oracle violation: which path disagreed, on what,
/// and the seed that replays the episode.
#[derive(Debug, Clone)]
pub struct OracleError {
    /// Seed of the failing scenario.
    pub seed: SeedSpec,
    /// The path or check that diverged.
    pub path: &'static str,
    /// What exactly disagreed.
    pub detail: String,
}

impl fmt::Display for OracleError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "oracle violation [{}] on {}: {}",
            self.path, self.seed, self.detail
        )
    }
}

impl std::error::Error for OracleError {}

impl OracleError {
    fn new(scenario: &Scenario, path: &'static str, detail: impl Into<String>) -> OracleError {
        OracleError {
            seed: scenario.seed,
            path,
            detail: detail.into(),
        }
    }
}

/// What [`check_paths`] ran: each scenario's paths, and how the
/// cluster path's failovers recovered.
#[derive(Debug, Clone, Default)]
pub struct PathsReport {
    /// One entry per scenario of the chunk, in chunk order: its seed
    /// and the paths that matched direct stepping, in the order they
    /// ran.
    pub scenarios: Vec<(SeedSpec, Vec<&'static str>)>,
    /// The cluster path's failovers by recovery branch, summed over
    /// the chunk.
    pub recoveries: Recoveries,
}

impl fmt::Display for PathsReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (seed, paths) in &self.scenarios {
            writeln!(f, "{seed}: {}", paths.join(" "))?;
        }
        let Recoveries {
            adopted,
            replayed,
            restored,
        } = self.recoveries;
        write!(
            f,
            "cluster failovers: {adopted} adopted, {replayed} replayed, {restored} restored"
        )
    }
}

fn tick_of(wire: &WireTick) -> Tick {
    Tick {
        estimate: Vector::from_slice(&wire.estimate),
        input: Vector::from_slice(&wire.input),
    }
}

/// The scenario's recalibration with the tick it applies before: the
/// precomputed boundary, clamped into the actual trace (a `len=`
/// override may shorten it). At the trace's length the swap follows
/// the last tick and changes no outcome.
fn recalibration(scenario: &Scenario) -> Option<(usize, &ScenarioRecalibration)> {
    scenario
        .recalibration
        .as_ref()
        .map(|recal| (recal.at.min(scenario.trace.len()), recal))
}

/// Direct stepping, the reference every path is diffed against:
/// record each tick, step the detector. Ticks for which `is_degraded`
/// holds take [`awsad_core::AdaptiveDetector::step_degraded`], the
/// reference the engine's degrade path must reproduce. A scenario's
/// recalibration is applied in place, with
/// [`awsad_core::AdaptiveDetector::recalibrate`], before the tick at
/// its boundary.
pub fn direct_steps_with(
    scenario: &Scenario,
    mut is_degraded: impl FnMut(usize) -> bool,
) -> Vec<AdaptiveStep> {
    let (mut logger, mut detector) = scenario.parts();
    let swap = recalibration(scenario);
    scenario
        .trace
        .iter()
        .enumerate()
        .map(|(i, wire)| {
            if let Some((_, recal)) = swap.filter(|&(at, _)| at == i) {
                detector
                    .recalibrate(&mut logger, &recal.a, &recal.b)
                    .expect("precomputed recalibration must be valid");
            }
            logger.record(
                Vector::from_slice(&wire.estimate),
                Vector::from_slice(&wire.input),
            );
            if is_degraded(i) {
                detector.step_degraded(&logger)
            } else {
                detector.step(&logger)
            }
        })
        .collect()
}

/// Direct stepping with no degraded ticks — the canonical reference
/// stream.
pub fn direct_steps(scenario: &Scenario) -> Vec<AdaptiveStep> {
    direct_steps_with(scenario, |_| false)
}

fn collect_outcomes(
    scenario: &Scenario,
    path: &'static str,
    outcomes: &std::sync::mpsc::Receiver<TickOutcome>,
    first_seq: usize,
    is_degraded: &mut dyn FnMut(usize) -> bool,
) -> Result<Vec<AdaptiveStep>, OracleError> {
    let mut steps = Vec::new();
    for (i, outcome) in outcomes.try_iter().enumerate() {
        let seq = first_seq + i;
        if outcome.seq != seq as u64 {
            return Err(OracleError::new(
                scenario,
                path,
                format!("seq discontinuity: got {}, want {seq}", outcome.seq),
            ));
        }
        let want_degraded = is_degraded(seq);
        if outcome.degraded != want_degraded {
            return Err(OracleError::new(
                scenario,
                path,
                format!(
                    "tick {seq}: degraded flag {} (expected {want_degraded})",
                    outcome.degraded
                ),
            ));
        }
        steps.push(outcome.step);
    }
    Ok(steps)
}

/// Submits `scenario.trace[range]` to `session`, the ticks for which
/// `is_degraded` holds through `submit_degraded`. With a `swap` whose
/// boundary lies in the range or at its end, the session recalibrates
/// before the tick at the boundary (after the range's last tick when
/// the boundary is its end).
fn submit_ticks(
    scenario: &Scenario,
    path: &'static str,
    session: &SessionHandle,
    range: Range<usize>,
    swap: Option<(usize, &ScenarioRecalibration)>,
    is_degraded: &mut dyn FnMut(usize) -> bool,
) -> Result<(), OracleError> {
    let fail = |detail: String| OracleError::new(scenario, path, detail);
    let swap_at = |i: usize| match swap {
        Some((at, recal)) if at == i => session
            .recalibrate(&recal.a, &recal.b)
            .map(drop)
            .map_err(|e| fail(format!("recalibrate: {e}"))),
        _ => Ok(()),
    };
    for i in range.clone() {
        swap_at(i)?;
        let tick = tick_of(&scenario.trace[i]);
        let result = if is_degraded(i) {
            session.submit_degraded(tick)
        } else {
            session.submit(tick)
        };
        result.map_err(|e| fail(format!("submit: {e:?}")))?;
    }
    swap_at(range.end)
}

/// The runtime engine under `config`, from the scenario's own parts:
/// the ticks for which `is_degraded` holds are injected through
/// `submit_degraded`, so the overload pattern is deterministic, and a
/// recalibration goes through [`SessionHandle::recalibrate`].
pub fn engine_steps_with(
    scenario: &Scenario,
    config: EngineConfig,
    is_degraded: impl FnMut(usize) -> bool,
) -> Result<Vec<AdaptiveStep>, OracleError> {
    engine_run(scenario, "engine", config, false, is_degraded)
}

/// One engine session fed the whole trace; `strip_cache` takes the
/// detector's deadline cache away first.
fn engine_run(
    scenario: &Scenario,
    path: &'static str,
    config: EngineConfig,
    strip_cache: bool,
    mut is_degraded: impl FnMut(usize) -> bool,
) -> Result<Vec<AdaptiveStep>, OracleError> {
    let (logger, mut detector) = scenario.parts();
    if strip_cache {
        detector.take_deadline_cache();
    }
    let engine = DetectionEngine::new(config);
    let (session, outcomes) = engine.add_session(logger, detector);
    submit_ticks(
        scenario,
        path,
        &session,
        0..scenario.trace.len(),
        recalibration(scenario),
        &mut is_degraded,
    )?;
    engine.drain();
    collect_outcomes(scenario, path, &outcomes, 0, &mut is_degraded)
}

/// Snapshot/restore: run to `cut`, snapshot, restore into a **fresh**
/// engine built from the scenario's original parts, continue; returns
/// the stitched stream. A scenario's recalibration moves the cut to
/// at or after the swap, and the snapshot must carry the
/// recalibration block: the restore rebuilds the drifted estimator
/// and deadline cache from the snapshot alone.
pub fn snapshot_restore_steps(
    scenario: &Scenario,
    cut: usize,
) -> Result<Vec<AdaptiveStep>, OracleError> {
    let fail = |detail: String| OracleError::new(scenario, "snapshot", detail);
    let swap = recalibration(scenario);
    let cut = cut.clamp(swap.map_or(0, |(at, _)| at), scenario.trace.len());
    let (logger, detector) = scenario.parts();
    let engine_a = DetectionEngine::new(EngineConfig::default());
    let (session_a, outcomes_a) = engine_a.add_session(logger, detector);
    submit_ticks(scenario, "snapshot", &session_a, 0..cut, swap, &mut |_| {
        false
    })?;
    // snapshot() waits for the queue to drain, so it is the clean cut.
    let snap = session_a.snapshot();
    if swap.is_some() && snap.state.recalibration.is_none() {
        return Err(fail("snapshot lost the recalibration block".into()));
    }
    let mut steps = collect_outcomes(scenario, "snapshot", &outcomes_a, 0, &mut |_| false)?;

    let (logger, detector) = scenario.parts();
    let engine_b = DetectionEngine::new(EngineConfig::default());
    let (session_b, outcomes_b) = engine_b
        .restore_session(logger, detector, &snap)
        .map_err(|e| fail(format!("restore: {e}")))?;
    let len = scenario.trace.len();
    submit_ticks(
        scenario,
        "snapshot",
        &session_b,
        cut..len,
        None,
        &mut |_| false,
    )?;
    engine_b.drain();
    steps.extend(collect_outcomes(
        scenario,
        "snapshot",
        &outcomes_b,
        cut,
        &mut |_| false,
    )?);
    Ok(steps)
}

fn wire_steps(
    scenario: &Scenario,
    path: &'static str,
    outcomes: &[WireOutcome],
) -> Result<Vec<AdaptiveStep>, OracleError> {
    let mut steps = Vec::new();
    for (i, o) in outcomes.iter().enumerate() {
        if o.seq != i as u64 {
            return Err(OracleError::new(
                scenario,
                path,
                format!("seq discontinuity at {i}: got {}", o.seq),
            ));
        }
        if o.degraded {
            return Err(OracleError::new(
                scenario,
                path,
                format!("tick {i} unexpectedly degraded"),
            ));
        }
        steps.push(o.to_step());
    }
    Ok(steps)
}

/// The wire path: open a session on a running `awsad_net::NetServer`
/// at `addr` with the stock blocking [`Client`], stream the trace in
/// batches, close. The stream crosses the event loop's incremental
/// decoder and a shard-owned engine; the bits must not care. A
/// recalibration travels as a `Recalibrate` frame between two tick
/// waves, and its ack must count 1: the session is fresh.
fn net_steps(scenario: &Scenario, addr: SocketAddr) -> Result<Vec<AdaptiveStep>, OracleError> {
    let spec = scenario.spec.as_ref().expect("the net path needs a spec");
    let fail = |detail: String| OracleError::new(scenario, "net", detail);
    let mut client = Client::connect(addr).map_err(|e| fail(format!("connect: {e}")))?;
    let session = client
        .open_session(spec)
        .map_err(|e| fail(format!("open: {e}")))?;
    let swap = recalibration(scenario);
    let at = swap.map_or(scenario.trace.len(), |(at, _)| at);
    let mut outcomes = Vec::new();
    let mut stream = |client: &mut Client, ticks: &[WireTick]| {
        for chunk in ticks.chunks(16) {
            outcomes.extend(
                client
                    .tick_batch(session.id, chunk)
                    .map_err(|e| fail(format!("tick_batch: {e}")))?,
            );
        }
        Ok::<_, OracleError>(())
    };
    stream(&mut client, &scenario.trace[..at])?;
    if let Some((_, recal)) = swap {
        let (n, m) = recal.b.shape();
        let count = client
            .recalibrate(
                session.id,
                n as u32,
                m as u32,
                recal.a.as_slice(),
                recal.b.as_slice(),
            )
            .map_err(|e| fail(format!("recalibrate: {e}")))?;
        if count != 1 {
            return Err(fail(format!("fresh session acked recalibration #{count}")));
        }
    }
    stream(&mut client, &scenario.trace[at..])?;
    client
        .close_session(session.id)
        .map_err(|e| fail(format!("close: {e}")))?;
    wire_steps(scenario, "net", &outcomes)
}

/// Streams the scenario through `client`'s session `key` in
/// `chunk`-tick batches, split at `split`: the scenario's
/// recalibration, sent through [`ClusterClient::recalibrate`] and
/// acked with count 1 (the session is fresh), lands at the split
/// (which a scenario with one puts at its boundary), and `at_split`
/// runs right after it.
fn cluster_stream(
    scenario: &Scenario,
    path: &'static str,
    client: &mut ClusterClient,
    key: u64,
    chunk: usize,
    split: usize,
    at_split: impl FnOnce(&mut ClusterClient) -> Result<(), OracleError>,
) -> Result<Vec<WireOutcome>, OracleError> {
    let fail = |detail: String| OracleError::new(scenario, path, detail);
    let mut outcomes = Vec::new();
    let mut stream = |client: &mut ClusterClient, ticks: &[WireTick]| {
        for batch in ticks.chunks(chunk) {
            outcomes.extend(
                client
                    .tick_batch(key, batch)
                    .map_err(|e| fail(format!("tick_batch: {e}")))?,
            );
        }
        Ok::<_, OracleError>(())
    };
    let (head, tail) = scenario.trace.split_at(split);
    stream(client, head)?;
    if let Some((_, recal)) = recalibration(scenario) {
        let (n, m) = recal.b.shape();
        let count = client
            .recalibrate(
                key,
                n as u32,
                m as u32,
                recal.a.as_slice(),
                recal.b.as_slice(),
            )
            .map_err(|e| fail(format!("recalibrate: {e}")))?;
        if count != 1 {
            return Err(fail(format!("fresh session acked recalibration #{count}")));
        }
    }
    at_split(client)?;
    stream(client, tail)?;
    Ok(outcomes)
}

/// Reconnect/resume: a one-member ring reached through a
/// fault-injection proxy that swallows one reply and severs the
/// connection. The member has no ring successor, so the
/// [`ClusterClient`] must recover the session in place — reconnect,
/// restore its checkpoint, replay its tick log — and the
/// caller-visible stream must be identical anyway, across the
/// scenario's recalibration too.
fn resume_steps(scenario: &Scenario, addr: SocketAddr) -> Result<Vec<AdaptiveStep>, OracleError> {
    let spec = scenario
        .spec
        .as_ref()
        .expect("the resume path needs a spec");
    let fail = |detail: String| OracleError::new(scenario, "resume", detail);
    let len = scenario.trace.len();
    let chunk = (len / 4).max(1);
    let swap = recalibration(scenario);
    let at = swap.map_or(len, |(at, _)| at);
    let calls = at.div_ceil(chunk) + usize::from(swap.is_some()) + (len - at).div_ceil(chunk);
    // Replies on connection 1: hello(0), open(1), the open-time
    // checkpoint(2), call 1(3), call 1's checkpoint(4) — always taken,
    // as a fresh checkpoint has no payload — and call 2(5). The seed
    // coin drops reply 4 on even seeds (call 1 was delivered and its
    // route pinned, so call 2 recovers before it sends) and reply 5 on
    // odd ones (call 2 recovers by itself). A one-call stream always
    // loses reply 4, as its reply 5 is the close. Connection 2 is
    // clean.
    let odd = scenario.seed.seed & 1 == 1;
    let dropped = 4 + usize::from(odd && calls >= 2);
    let proxy = FaultProxy::start(addr, vec![FaultPlan::after(dropped, ReplyFault::Drop)]);
    let policy = RetryPolicy {
        max_retries: 20,
        base_delay: Duration::from_millis(5),
        max_delay: Duration::from_millis(50),
        seed: scenario.seed.seed | 1,
    };
    let member = RingMember {
        shard: 0,
        addr: proxy.addr().to_string(),
    };
    let mut client = ClusterClient::with_policy(HashRing::new(1, vec![member]), policy);
    let session = client
        .open_session(spec)
        .map_err(|e| fail(format!("open: {e}")))?;
    let outcomes = cluster_stream(
        scenario,
        "resume",
        &mut client,
        session.key,
        chunk,
        at,
        |_| Ok(()),
    )?;
    client
        .close_session(session.key)
        .map_err(|e| fail(format!("close: {e}")))?;
    let want = Recoveries {
        restored: 1,
        ..Recoveries::default()
    };
    if calls >= 2 && client.recoveries() != want {
        return Err(fail(format!(
            "{calls} calls past a dropped reply {dropped} ran {:?}, not one in-place restore",
            client.recoveries()
        )));
    }
    wire_steps(scenario, "resume", &outcomes)
}

fn diff_streams(
    scenario: &Scenario,
    path: &'static str,
    got: &[AdaptiveStep],
    want: &[AdaptiveStep],
) -> Result<(), OracleError> {
    if got.len() != want.len() {
        return Err(OracleError::new(
            scenario,
            path,
            format!("stream length {} != reference {}", got.len(), want.len()),
        ));
    }
    for (i, (g, w)) in got.iter().zip(want).enumerate() {
        if g != w {
            return Err(OracleError::new(
                scenario,
                path,
                format!("tick {i} diverged: got {g:?}, reference {w:?}"),
            ));
        }
    }
    Ok(())
}

/// A cluster-path run: the caller-visible stream and how the
/// router's failover rebuilt the session.
struct ClusterRun {
    steps: Vec<AdaptiveStep>,
    recoveries: Recoveries,
}

/// A replication sink that sheds every update — best-effort
/// replication at its worst, so promotion finds no replica.
struct ShedAll;

impl ReplicationSink for ShedAll {
    fn replicate(&self, _update: ReplicationUpdate) -> u64 {
        0
    }

    fn ring_update(&self, _epoch: u64, _members: &[RingMember]) {}
}

/// The cluster router: the scenario streams through a fresh 3-shard
/// [`LocalCluster`] and the session's primary is killed with no
/// warning. The router's failover (promote the ring successor's
/// replica or restore the client checkpoint, replay the tick log,
/// then deliver the interrupted batch) must leave the caller-visible
/// stream bit-identical to direct stepping, and the run fails unless
/// the branch the seed coin chose ran: even seeds flush replication
/// before the kill (promotion), odd seeds launch shards whose sinks
/// shed it (restore).
///
/// Without a recalibration, odd seeds kill before the first batch,
/// when the only checkpoint is the open-time one, and even seeds after
/// the second batch. With one, the kill lands right after the swap
/// (sent through [`awsad_cluster::ClusterClient::recalibrate`], which
/// refreshes the client's checkpoint), so the failover must resume the
/// session with the drifted model. The cluster launches its own ring
/// per scenario: the kill is destructive.
fn cluster_steps(scenario: &Scenario) -> Result<ClusterRun, OracleError> {
    let spec = scenario
        .spec
        .as_ref()
        .expect("the cluster path needs a spec");
    let fail = |detail: String| OracleError::new(scenario, "cluster", detail);
    // The seed coin: odd seeds restore, even seeds promote.
    let restore = scenario.seed.seed & 1 == 1;
    let mut cluster = if restore {
        LocalCluster::launch_with_sinks(3, ServerConfig::default(), |_| {
            Arc::new(ShedAll) as Arc<dyn ReplicationSink>
        })
    } else {
        LocalCluster::launch(3, ServerConfig::default())
    }
    .map_err(|e| fail(format!("launch: {e}")))?;
    let mut client = cluster.client();
    let session = client
        .open_session(spec)
        .map_err(|e| fail(format!("open: {e}")))?;
    let len = scenario.trace.len();
    let chunk = (len / 4).max(1);
    let kill_at = match recalibration(scenario) {
        Some((at, _)) => at,
        None if restore => 0,
        None => 2 * chunk,
    };
    let killed = kill_at < len;
    let kill = |client: &mut ClusterClient| {
        if killed {
            let primary = client
                .primary_of(session.key)
                .ok_or_else(|| fail("session lost its route".into()))?;
            if !restore {
                if let Some(shard) = cluster.shard(primary) {
                    shard.replicator.flush(Duration::from_secs(5));
                }
            }
            cluster.kill(primary);
        }
        Ok(())
    };
    let outcomes = cluster_stream(
        scenario,
        "cluster",
        &mut client,
        session.key,
        chunk,
        kill_at.min(len),
        kill,
    )?;
    let recoveries = client.recoveries();
    if killed && !(recoveries.total() == 1 && (recoveries.restored == 1) == restore) {
        return Err(fail(format!(
            "the seed coin chose {} but the failovers ran {recoveries:?}",
            if restore { "a restore" } else { "a promotion" }
        )));
    }
    client
        .close_session(session.key)
        .map_err(|e| fail(format!("close: {e}")))?;
    cluster.shutdown();
    Ok(ClusterRun {
        steps: wire_steps(scenario, "cluster", &outcomes)?,
        recoveries,
    })
}

/// Seed-derived degraded pattern of the batch path: which ticks of a
/// scenario enter via `submit_degraded`. Deterministic in the scenario
/// seed so the direct reference replays it exactly.
fn batch_degraded(scenario: &Scenario, i: usize) -> bool {
    (i as u64)
        .wrapping_add(scenario.seed.seed)
        .is_multiple_of(7)
}

/// Cross-session SoA batch stepping: the whole chunk shares one engine
/// running with `cross_session_batch` enabled, one session per
/// scenario. Ticks are submitted round-robin (position `p` of every
/// scenario before position `p+1` of any), so the drain's gather keeps
/// finding co-pending ticks across sessions and steps same-geometry
/// sessions as vectorized lane groups; a session recalibrates before
/// its boundary position. Returns one step stream per scenario plus
/// the engine's final metrics, so the caller can assert the batched
/// path actually ran.
fn batch_engine_steps(
    scenarios: &[Scenario],
) -> Result<(Vec<Vec<AdaptiveStep>>, RuntimeMetrics), OracleError> {
    let engine = DetectionEngine::new(EngineConfig {
        workers: 1,
        cross_session_batch: true,
        drain_batch: 8,
        ..EngineConfig::default()
    });
    let sessions: Vec<_> = scenarios
        .iter()
        .map(|s| {
            let (logger, detector) = s.parts();
            engine.add_session(logger, detector)
        })
        .collect();
    let longest = scenarios.iter().map(|s| s.trace.len()).max().unwrap_or(0);
    for p in 0..=longest {
        for (scenario, (session, _)) in scenarios.iter().zip(&sessions) {
            let len = scenario.trace.len();
            if p > len {
                continue;
            }
            // Position `p`: the swap when `p` is the boundary, then
            // tick `p` unless the trace has ended.
            submit_ticks(
                scenario,
                "batch",
                session,
                p..(p + 1).min(len),
                recalibration(scenario).filter(|&(at, _)| at == p),
                &mut |i| batch_degraded(scenario, i),
            )?;
        }
    }
    engine.drain();
    let mut streams = Vec::with_capacity(scenarios.len());
    for (scenario, (_, outcomes)) in scenarios.iter().zip(&sessions) {
        streams.push(collect_outcomes(
            scenario,
            "batch",
            outcomes,
            0,
            &mut |i| batch_degraded(scenario, i),
        )?);
    }
    Ok((streams, engine.metrics()))
}

/// Estimator self-checks on the scenario's own trace states:
///
/// * the precomputed-box walk ([`DeadlineEstimator::checked_deadline`])
///   equals the seed-formula [`DeadlineEstimator::reference_deadline`];
/// * a [`DeadlineCache`] is transparent (same deadline on miss and on
///   hit).
fn check_estimator(scenario: &Scenario) -> Result<(), OracleError> {
    let estimator: DeadlineEstimator = scenario.estimator();
    let r0 = scenario.initial_radius;
    let mut exact_cache = DeadlineCache::new(CacheConfig::exact(256));
    let fail = |detail: String| OracleError::new(scenario, "estimator", detail);

    for wire in scenario.trace.iter().take(16) {
        let x = Vector::from_slice(&wire.estimate);
        let walked = estimator
            .checked_deadline(&x, r0)
            .map_err(|e| fail(format!("checked_deadline: {e}")))?;
        let reference = estimator
            .reference_deadline(&x, r0)
            .map_err(|e| fail(format!("reference_deadline: {e}")))?;
        if walked != reference {
            return Err(fail(format!(
                "precomputed walk {walked:?} != reference formula {reference:?} at {x:?}"
            )));
        }
        for _ in 0..2 {
            // First pass misses, second hits; both must equal the walk.
            let cached = exact_cache
                .deadline(&estimator, &x, r0)
                .map_err(|e| fail(format!("exact cache: {e}")))?;
            if cached != walked {
                return Err(fail(format!(
                    "exact cache {cached:?} != walk {walked:?} at {x:?}"
                )));
            }
        }
    }
    Ok(())
}

/// Runs every path each scenario of `chunk` supports (see the module
/// docs) and asserts every stream bit-identical to direct stepping.
/// `server` is a running `awsad_net::NetServer`, shared across
/// scenarios: each check opens and closes its own sessions. The whole
/// chunk then steps through one cross-session-batch engine, whose own
/// counters must show that the vectorized path ran; a batch failure
/// can depend on the chunk's other scenarios, its lane-mates.
///
/// # Errors
///
/// The first path that diverged, with the failing scenario's seed.
pub fn check_paths(chunk: &[Scenario], server: SocketAddr) -> Result<PathsReport, OracleError> {
    let mut report = PathsReport::default();
    for scenario in chunk {
        check_estimator(scenario)?;
        let reference = direct_steps(scenario);
        let mut paths = vec!["estimator"];
        let mut diff = |path: &'static str, got: Vec<AdaptiveStep>| {
            diff_streams(scenario, path, &got, &reference)?;
            paths.push(path);
            Ok::<_, OracleError>(())
        };
        diff(
            "engine",
            engine_steps_with(scenario, EngineConfig::default(), |_| false)?,
        )?;
        // The exact deadline cache must be decision-transparent:
        // stripping it from the detector may not change a single bit.
        if scenario.cache_capacity > 0 {
            let stripped = engine_run(
                scenario,
                "engine-nocache",
                EngineConfig::default(),
                true,
                |_| false,
            )?;
            diff("engine-nocache", stripped)?;
        }
        let len = scenario.trace.len();
        let from = recalibration(scenario).map_or(0, |(at, _)| at);
        let cut = from + (scenario.seed.seed as usize) % (len - from + 1);
        diff("snapshot", snapshot_restore_steps(scenario, cut)?)?;
        if scenario.spec.is_some() {
            diff("net", net_steps(scenario, server)?)?;
            diff("resume", resume_steps(scenario, server)?)?;
            let run = cluster_steps(scenario)?;
            report.recoveries += run.recoveries;
            diff("cluster", run.steps)?;
        }
        report.scenarios.push((scenario.seed, paths));
    }

    let (streams, metrics) = batch_engine_steps(chunk)?;
    for ((scenario, got), (_, paths)) in chunk.iter().zip(&streams).zip(&mut report.scenarios) {
        let reference = direct_steps_with(scenario, |i| batch_degraded(scenario, i));
        diff_streams(scenario, "batch", got, &reference)?;
        paths.push("batch");
    }
    if chunk.iter().any(|s| !s.trace.is_empty()) && metrics.batch_ticks == 0 {
        return Err(OracleError::new(
            &chunk[0],
            "batch",
            "no tick took the vectorized path (batch_ticks == 0)",
        ));
    }
    Ok(report)
}
