//! Differential oracles: every detection path must produce the same
//! bits.
//!
//! The stack computes one [`AdaptiveStep`] stream many independent
//! ways: direct [`AdaptiveDetector`] stepping, the runtime engine,
//! the wire path through the `awsad-net` server (its shard engines and
//! incremental decoder), [`ReconnectingClient`] resume through
//! transport failure, snapshot/restore into a fresh engine, the
//! `awsad-cluster` router streaming across a 3-shard consistent-hash
//! ring with its primary killed mid-stream, the cross-session SoA
//! batch path that gathers co-pending ticks from *many* sessions and
//! steps them as vectorized lane groups, and the **recalibration**
//! path ([`check_recalibrate_path`]) that swaps a drift scenario's
//! plant model mid-stream — in place, over the wire, across
//! snapshot/restore, and through cluster failover — and demands the
//! post-swap stream stay bit-identical. Paths keep the numbers they
//! were added under, so there is no sixth. Floats travel the wire as
//! their IEEE-754 bit patterns and every state copy is bit-exact, so the streams must be
//! **equal**, not approximately equal. The oracles here run one
//! generated [`Scenario`] through each path and diff the streams; any
//! mismatch is reported with the scenario's seed string so the exact
//! episode replays from one line.
//!
//! Alongside the stream oracles sit the estimator self-checks: the
//! precomputed-box deadline walk against the seed-formula
//! [`DeadlineEstimator::reference_deadline`], exact-cache
//! transparency, and quantized-cache conservatism (a quantized answer
//! may be *earlier* than the exact deadline, never later).

use std::fmt;
use std::net::SocketAddr;
use std::sync::Arc;
use std::time::Duration;

use awsad_cluster::{LocalCluster, Recoveries};
use awsad_core::{AdaptiveDetector, AdaptiveStep, DataLogger};
use awsad_linalg::Vector;
use awsad_reach::{CacheConfig, Deadline, DeadlineCache, DeadlineEstimator};
use awsad_runtime::{DetectionEngine, EngineConfig, RuntimeMetrics, Tick, TickOutcome};
use awsad_serve::client::Client;
use awsad_serve::reconnect::{ReconnectingClient, RetryPolicy};
use awsad_serve::server::ServerConfig;
use awsad_serve::wire::{RingMember, WireOutcome, WireTick};
use awsad_serve::{ReplicationSink, ReplicationUpdate};

use crate::proxy::{FaultPlan, FaultProxy, ReplyFault};
use crate::scenario::Scenario;

/// A differential-oracle violation: which path disagreed, on what,
/// and the seed string that replays the episode.
#[derive(Debug, Clone)]
pub struct OracleError {
    /// Seed string of the failing scenario.
    pub seed: String,
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
            seed: scenario.seed.to_string(),
            path,
            detail: detail.into(),
        }
    }
}

fn tick_of(wire: &WireTick) -> Tick {
    Tick {
        estimate: Vector::from_slice(&wire.estimate),
        input: Vector::from_slice(&wire.input),
    }
}

/// Path 1 — direct stepping: record each tick, step the detector.
/// With a non-empty `degraded` set, those ticks take
/// [`AdaptiveDetector::step_degraded`] — the reference the engine's
/// degrade path must reproduce.
pub fn direct_steps_with(
    scenario: &Scenario,
    is_degraded: impl FnMut(usize) -> bool,
) -> Vec<AdaptiveStep> {
    let (logger, detector) = scenario.parts();
    direct_steps_from(scenario, logger, detector, is_degraded)
}

/// Path 1 over caller-supplied parts: the same record/step walk, but
/// on a logger/detector pair the caller may have modified (the batch
/// oracle swaps in a quantized deadline cache to force the engine's
/// scalar fallback — the reference must run the *same* detector).
pub fn direct_steps_from(
    scenario: &Scenario,
    mut logger: DataLogger,
    mut detector: AdaptiveDetector,
    mut is_degraded: impl FnMut(usize) -> bool,
) -> Vec<AdaptiveStep> {
    scenario
        .trace
        .iter()
        .enumerate()
        .map(|(i, wire)| {
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

/// Path 1 with no degraded ticks — the canonical reference stream.
pub fn direct_steps(scenario: &Scenario) -> Vec<AdaptiveStep> {
    direct_steps_with(scenario, |_| false)
}

fn collect_outcomes(
    scenario: &Scenario,
    path: &'static str,
    outcomes: &std::sync::mpsc::Receiver<TickOutcome>,
    expect_degraded: Option<&mut dyn FnMut(usize) -> bool>,
) -> Result<Vec<AdaptiveStep>, OracleError> {
    let mut steps = Vec::new();
    let mut degraded_of = expect_degraded;
    for (i, outcome) in outcomes.try_iter().enumerate() {
        if outcome.seq != i as u64 {
            return Err(OracleError::new(
                scenario,
                path,
                format!("seq discontinuity at {i}: got {}", outcome.seq),
            ));
        }
        let want_degraded = degraded_of.as_mut().is_some_and(|f| f(i));
        if outcome.degraded != want_degraded {
            return Err(OracleError::new(
                scenario,
                path,
                format!(
                    "tick {i}: degraded flag {} (expected {})",
                    outcome.degraded, want_degraded
                ),
            ));
        }
        steps.push(outcome.step);
    }
    Ok(steps)
}

/// Path 2 — the runtime engine. Ticks for which `is_degraded` holds
/// are injected via `submit_degraded` so the overload pattern is
/// deterministic.
pub fn engine_steps_with(
    scenario: &Scenario,
    config: EngineConfig,
    mut is_degraded: impl FnMut(usize) -> bool,
) -> Result<Vec<AdaptiveStep>, OracleError> {
    let (logger, detector) = scenario.parts();
    let engine = DetectionEngine::new(config);
    let (session, outcomes) = engine.add_session(logger, detector);
    for (i, wire) in scenario.trace.iter().enumerate() {
        let result = if is_degraded(i) {
            session.submit_degraded(tick_of(wire))
        } else {
            session.submit(tick_of(wire))
        };
        result.map_err(|e| OracleError::new(scenario, "engine", format!("submit: {e:?}")))?;
    }
    engine.drain();
    collect_outcomes(scenario, "engine", &outcomes, Some(&mut is_degraded))
}

/// Path 2 with default engine configuration and no degraded ticks.
pub fn engine_steps(scenario: &Scenario) -> Result<Vec<AdaptiveStep>, OracleError> {
    engine_steps_with(scenario, EngineConfig::default(), |_| false)
}

/// Path 5 — snapshot/restore: run to `cut`, snapshot, restore into a
/// **fresh** engine, continue; returns the stitched stream.
pub fn snapshot_restore_steps(
    scenario: &Scenario,
    cut: usize,
) -> Result<Vec<AdaptiveStep>, OracleError> {
    let cut = cut.min(scenario.trace.len());
    let (logger, detector) = scenario.parts();
    let engine_a = DetectionEngine::new(EngineConfig::default());
    let (session_a, outcomes_a) = engine_a.add_session(logger, detector);
    for wire in &scenario.trace[..cut] {
        session_a
            .submit(tick_of(wire))
            .map_err(|e| OracleError::new(scenario, "snapshot", format!("submit: {e:?}")))?;
    }
    // snapshot() waits for the queue to drain, so it is the clean cut.
    let snap = session_a.snapshot();
    let mut steps = collect_outcomes(scenario, "snapshot", &outcomes_a, None)?;

    let (logger, detector) = scenario.parts();
    let engine_b = DetectionEngine::new(EngineConfig::default());
    let (session_b, outcomes_b) = engine_b
        .restore_session(logger, detector, &snap)
        .map_err(|e| OracleError::new(scenario, "snapshot", format!("restore: {e}")))?;
    for wire in &scenario.trace[cut..] {
        session_b
            .submit(tick_of(wire))
            .map_err(|e| OracleError::new(scenario, "snapshot", format!("submit: {e:?}")))?;
    }
    engine_b.drain();
    let mut tail = Vec::new();
    for (i, outcome) in outcomes_b.try_iter().enumerate() {
        let seq = (cut + i) as u64;
        if outcome.seq != seq {
            return Err(OracleError::new(
                scenario,
                "snapshot",
                format!("resumed seq discontinuity: got {}, want {seq}", outcome.seq),
            ));
        }
        tail.push(outcome.step);
    }
    steps.append(&mut tail);
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

/// Path 3 — the wire path: open a session on a running
/// `awsad_net::NetServer` at `addr` with the stock blocking
/// [`Client`], stream the trace in batches, close. The stream crosses
/// the event loop's incremental decoder and a shard-owned engine; the
/// bits must not care.
pub fn net_steps(scenario: &Scenario, addr: SocketAddr) -> Result<Vec<AdaptiveStep>, OracleError> {
    let spec = scenario
        .spec
        .as_ref()
        .expect("remote paths need a registry scenario");
    let fail = |detail: String| OracleError::new(scenario, "net", detail);
    let mut client = Client::connect(addr).map_err(|e| fail(format!("connect: {e}")))?;
    let session = client
        .open_session(spec)
        .map_err(|e| fail(format!("open: {e}")))?;
    let mut outcomes = Vec::new();
    for chunk in scenario.trace.chunks(16) {
        outcomes.extend(
            client
                .tick_batch(session.id, chunk)
                .map_err(|e| fail(format!("tick_batch: {e}")))?,
        );
    }
    client
        .close_session(session.id)
        .map_err(|e| fail(format!("close: {e}")))?;
    wire_steps(scenario, "net", &outcomes)
}

/// Path 4 — reconnect/resume: stream through a fault-injection proxy
/// that swallows one mid-stream reply and severs the connection; the
/// [`ReconnectingClient`] must checkpoint, reconnect, restore, and
/// replay so the caller-visible stream is identical anyway.
pub fn resume_steps(
    scenario: &Scenario,
    addr: SocketAddr,
) -> Result<Vec<AdaptiveStep>, OracleError> {
    let spec = scenario
        .spec
        .as_ref()
        .expect("resume path needs a registry scenario");
    let fail = |detail: String| OracleError::new(scenario, "resume", detail);
    // Reply order on connection 1: hello(0), open(1), batch 1(2),
    // checkpoint(3), batch 2(4) — swallow batch 2's reply, forcing a
    // restore-and-replay on connection 2 (unplanned → clean).
    let proxy = FaultProxy::start(addr, vec![FaultPlan::after(4, ReplyFault::Drop)]);
    let policy = RetryPolicy {
        max_retries: 20,
        base_delay: Duration::from_millis(5),
        max_delay: Duration::from_millis(50),
        seed: scenario.seed.seed | 1,
    };
    let mut rc = ReconnectingClient::connect(proxy.addr(), policy)
        .map_err(|e| fail(format!("connect: {e}")))?;
    let session = rc
        .open_session(spec)
        .map_err(|e| fail(format!("open: {e}")))?;
    let chunk = (scenario.trace.len() / 4).max(1);
    let mut outcomes = Vec::new();
    for batch in scenario.trace.chunks(chunk) {
        outcomes.extend(
            rc.tick_batch(session.id, batch)
                .map_err(|e| fail(format!("tick_batch: {e}")))?,
        );
    }
    rc.close_session(session.id)
        .map_err(|e| fail(format!("close: {e}")))?;
    if scenario.trace.len() >= 2 * chunk && rc.reconnects() == 0 {
        return Err(fail("fault plan never forced a reconnect".into()));
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

/// Runs the local paths — direct, engine (Block), engine without the
/// scenario's deadline cache, snapshot/restore at a seed-derived cut —
/// and asserts all streams bit-identical.
pub fn check_local_paths(scenario: &Scenario) -> Result<(), OracleError> {
    let reference = direct_steps(scenario);
    diff_streams(scenario, "engine", &engine_steps(scenario)?, &reference)?;
    // The exact deadline cache must be decision-transparent: stripping
    // it from the detector may not change a single output bit.
    if scenario.cache_capacity > 0 {
        let stripped = {
            let (logger, mut detector) = scenario.parts();
            detector.take_deadline_cache();
            let engine = DetectionEngine::new(EngineConfig::default());
            let (session, outcomes) = engine.add_session(logger, detector);
            for wire in &scenario.trace {
                session.submit(tick_of(wire)).map_err(|e| {
                    OracleError::new(scenario, "engine-nocache", format!("submit: {e:?}"))
                })?;
            }
            engine.drain();
            collect_outcomes(scenario, "engine-nocache", &outcomes, None)?
        };
        diff_streams(scenario, "engine-nocache", &stripped, &reference)?;
    }
    let cut = if scenario.trace.is_empty() {
        0
    } else {
        (scenario.seed.seed as usize) % scenario.trace.len()
    };
    diff_streams(
        scenario,
        "snapshot",
        &snapshot_restore_steps(scenario, cut)?,
        &reference,
    )?;
    Ok(())
}

/// Runs **all five** paths against one registry scenario and asserts
/// every stream bit-identical to direct stepping. `addr` is a running
/// `awsad_net::NetServer` (shared across scenarios — each check opens
/// and closes its own sessions).
pub fn check_five_paths(scenario: &Scenario, addr: SocketAddr) -> Result<(), OracleError> {
    check_local_paths(scenario)?;
    let reference = direct_steps(scenario);
    diff_streams(scenario, "net", &net_steps(scenario, addr)?, &reference)?;
    diff_streams(
        scenario,
        "resume",
        &resume_steps(scenario, addr)?,
        &reference,
    )?;
    Ok(())
}

/// A cluster-path run: the caller-visible stream and how the
/// router's failover rebuilt the session.
#[derive(Debug, Clone)]
pub struct ClusterRun {
    /// The outcome stream, as [`AdaptiveStep`]s.
    pub steps: Vec<AdaptiveStep>,
    /// The router's failovers by recovery branch.
    pub recoveries: Recoveries,
}

/// The seed coin of the cluster paths: odd seeds take the failover's
/// restore branch (no replica to promote), even seeds promote one.
fn cluster_coin_restores(scenario: &Scenario) -> bool {
    scenario.seed.seed & 1 == 1
}

/// Fails unless exactly one failover ran, on the branch the seed coin
/// chose.
fn check_branch(
    scenario: &Scenario,
    path: &'static str,
    recoveries: Recoveries,
) -> Result<(), OracleError> {
    let restore = cluster_coin_restores(scenario);
    if recoveries.total() == 1 && (recoveries.restored == 1) == restore {
        return Ok(());
    }
    Err(OracleError::new(
        scenario,
        path,
        format!(
            "the seed coin chose {} but the failovers ran {recoveries:?}",
            if restore { "a restore" } else { "a promotion" }
        ),
    ))
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

/// Path 7 — the cluster router: the scenario streams through a fresh
/// 3-shard [`LocalCluster`] and the session's primary is killed with
/// no warning. The router's failover (promote the ring successor's
/// replica or restore the client checkpoint, replay the tick log,
/// then deliver the interrupted batch) must leave the caller-visible
/// stream bit-identical to direct stepping. A seed coin picks the kill
/// point so both branches are covered across the corpus, and the run
/// fails unless the chosen one ran: odd seeds kill before the first
/// batch, when the only checkpoint is the open-time one that no server
/// replicates (restore); even seeds kill after the second batch with
/// replication flushed first (promotion).
pub fn cluster_steps(scenario: &Scenario) -> Result<ClusterRun, OracleError> {
    let spec = scenario
        .spec
        .as_ref()
        .expect("cluster path needs a registry scenario");
    let fail = |detail: String| OracleError::new(scenario, "cluster", detail);
    let mut cluster = LocalCluster::launch(3, ServerConfig::default())
        .map_err(|e| fail(format!("launch: {e}")))?;
    let mut client = cluster.client();
    let session = client
        .open_session(spec)
        .map_err(|e| fail(format!("open: {e}")))?;
    let chunk = (scenario.trace.len() / 4).max(1);
    let restore = cluster_coin_restores(scenario);
    let kill_at = if restore { 0 } else { 2 };
    let mut outcomes = Vec::new();
    let mut killed = false;
    for (i, batch) in scenario.trace.chunks(chunk).enumerate() {
        if i == kill_at {
            killed = true;
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
        outcomes.extend(
            client
                .tick_batch(session.key, batch)
                .map_err(|e| fail(format!("tick_batch: {e}")))?,
        );
    }
    let recoveries = client.recoveries();
    if killed {
        check_branch(scenario, "cluster", recoveries)?;
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

/// Runs the five paths of [`check_five_paths`] against `addr`, plus
/// the cluster router with a mid-stream shard kill. The cluster
/// launches its own 3-shard ring per scenario — the kill is
/// destructive, so its servers cannot be shared the way `addr` is.
pub fn check_seven_paths(scenario: &Scenario, addr: SocketAddr) -> Result<(), OracleError> {
    check_five_paths(scenario, addr)?;
    diff_streams(
        scenario,
        "cluster",
        &cluster_steps(scenario)?.steps,
        &direct_steps(scenario),
    )?;
    Ok(())
}

/// Seed-derived degraded pattern for the batch-path oracle: which
/// ticks of a scenario enter via `submit_degraded`. Deterministic in
/// the scenario seed so the direct reference replays it exactly.
pub fn batch_degraded(scenario: &Scenario, i: usize) -> bool {
    (i as u64)
        .wrapping_add(scenario.seed.seed)
        .is_multiple_of(7)
}

/// Which chunk members the batch oracle rebuilds with a *quantized*
/// deadline cache. Quantized caches are decision-relevant (their
/// deadlines may be earlier than exact), so the engine refuses to
/// batch them — these sessions must take the scalar fallback inside
/// the mega-drain, and their reference stream is recomputed with the
/// identical quantized detector.
pub fn batch_forces_fallback(index: usize) -> bool {
    index % 4 == 3
}

fn batch_parts(scenario: &Scenario, index: usize) -> (DataLogger, AdaptiveDetector) {
    let (logger, mut detector) = scenario.parts();
    if batch_forces_fallback(index) {
        detector.set_deadline_cache(DeadlineCache::new(CacheConfig::quantized(0.5, 64)));
    }
    (logger, detector)
}

/// Path 8 — cross-session SoA batch stepping: the whole *chunk* of
/// scenarios shares one engine running with `cross_session_batch`
/// enabled, one session per scenario. Ticks are submitted
/// round-robin (position `p` of every scenario before position `p+1`
/// of any), so the mega-drain's gather keeps finding co-pending ticks
/// across sessions and steps same-geometry sessions as vectorized
/// lane groups. Sessions at [`batch_forces_fallback`] indices carry a
/// quantized deadline cache and must route through the scalar
/// fallback instead. Returns one step stream per scenario plus the
/// engine's final metrics so callers can assert both paths actually
/// ran.
pub fn batch_engine_steps(
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
        .enumerate()
        .map(|(i, s)| {
            let (logger, detector) = batch_parts(s, i);
            engine.add_session(logger, detector)
        })
        .collect();
    let longest = scenarios.iter().map(|s| s.trace.len()).max().unwrap_or(0);
    for p in 0..longest {
        for (scenario, (session, _)) in scenarios.iter().zip(&sessions) {
            let Some(wire) = scenario.trace.get(p) else {
                continue;
            };
            let result = if batch_degraded(scenario, p) {
                session.submit_degraded(tick_of(wire))
            } else {
                session.submit(tick_of(wire))
            };
            result.map_err(|e| OracleError::new(scenario, "batch", format!("submit: {e:?}")))?;
        }
    }
    engine.drain();
    let mut streams = Vec::with_capacity(scenarios.len());
    for (scenario, (_, outcomes)) in scenarios.iter().zip(&sessions) {
        let mut expected = |i: usize| batch_degraded(scenario, i);
        streams.push(collect_outcomes(
            scenario,
            "batch",
            outcomes,
            Some(&mut expected),
        )?);
    }
    Ok((streams, engine.metrics()))
}

/// Runs path 8 over a chunk of scenarios and asserts every session's
/// stream bit-identical to direct stepping of the *same* detector
/// (quantized-cache members included), and — via the engine's own
/// counters — that the vectorized path and, when the chunk is large
/// enough to contain a fallback member, the scalar fallback both
/// actually executed.
pub fn check_batch_path(scenarios: &[Scenario]) -> Result<(), OracleError> {
    if scenarios.is_empty() {
        return Ok(());
    }
    let (streams, metrics) = batch_engine_steps(scenarios)?;
    for (i, (scenario, got)) in scenarios.iter().zip(&streams).enumerate() {
        let (logger, detector) = batch_parts(scenario, i);
        let reference =
            direct_steps_from(scenario, logger, detector, |p| batch_degraded(scenario, p));
        diff_streams(scenario, "batch", got, &reference)?;
    }
    let first = &scenarios[0];
    let any_batched = scenarios
        .iter()
        .enumerate()
        .any(|(i, s)| !batch_forces_fallback(i) && !s.trace.is_empty());
    if any_batched && metrics.batch_ticks == 0 {
        return Err(OracleError::new(
            first,
            "batch",
            "no tick took the vectorized path (batch_ticks == 0)",
        ));
    }
    let any_fallback = scenarios
        .iter()
        .enumerate()
        .any(|(i, s)| batch_forces_fallback(i) && !s.trace.is_empty());
    if any_fallback && metrics.scalar_fallback_ticks == 0 {
        return Err(OracleError::new(
            first,
            "batch",
            "no quantized-cache session took the scalar fallback (scalar_fallback_ticks == 0)",
        ));
    }
    Ok(())
}

/// The boundary every path applies a drift scenario's recalibration
/// at: the precomputed tick index, clamped into the actual trace (a
/// `len=` override may shorten it).
fn recal_boundary(scenario: &Scenario) -> usize {
    scenario
        .recalibration
        .as_ref()
        .expect("recalibrate path needs a drift scenario")
        .at
        .min(scenario.trace.len())
}

/// Path 9 reference — direct stepping with the scenario's
/// recalibration applied in place at its precomputed boundary: ticks
/// `0..at` step under the session's original model, then
/// [`AdaptiveDetector::recalibrate`] swaps in the drifted plant, and
/// ticks `at..` step under it. History, windows, and thresholds
/// survive the swap; every other path must reproduce this stream
/// bit for bit.
pub fn direct_recalibrated_steps(scenario: &Scenario) -> Vec<AdaptiveStep> {
    let recal = scenario
        .recalibration
        .as_ref()
        .expect("recalibrate path needs a drift scenario");
    let at = recal_boundary(scenario);
    let (mut logger, mut detector) = scenario.parts();
    let mut steps = Vec::with_capacity(scenario.trace.len());
    for (i, wire) in scenario.trace.iter().enumerate() {
        if i == at {
            detector
                .recalibrate(&mut logger, &recal.a, &recal.b)
                .expect("precomputed recalibration must be valid");
        }
        logger.record(
            Vector::from_slice(&wire.estimate),
            Vector::from_slice(&wire.input),
        );
        steps.push(detector.step(&logger));
    }
    steps
}

/// Path 9, engine leg — the session lives in a cross-session-batch
/// engine and [`awsad_runtime::SessionHandle::recalibrate`] swaps the
/// model mid-stream: the call waits out in-flight ticks, mutates the
/// session in place, and regroups its batch key, without dropping or
/// reordering a single tick.
pub fn recal_engine_steps(scenario: &Scenario) -> Result<Vec<AdaptiveStep>, OracleError> {
    let recal = scenario.recalibration.as_ref().expect("drift scenario");
    let at = recal_boundary(scenario);
    let (logger, detector) = scenario.parts();
    let engine = DetectionEngine::new(EngineConfig {
        workers: 1,
        cross_session_batch: true,
        drain_batch: 8,
        ..EngineConfig::default()
    });
    let (session, outcomes) = engine.add_session(logger, detector);
    let fail = |detail: String| OracleError::new(scenario, "recal-batch", detail);
    for wire in &scenario.trace[..at] {
        session
            .submit(tick_of(wire))
            .map_err(|e| fail(format!("submit: {e:?}")))?;
    }
    session
        .recalibrate(&recal.a, &recal.b)
        .map_err(|e| fail(format!("recalibrate: {e}")))?;
    for wire in &scenario.trace[at..] {
        session
            .submit(tick_of(wire))
            .map_err(|e| fail(format!("submit: {e:?}")))?;
    }
    engine.drain();
    collect_outcomes(scenario, "recal-batch", &outcomes, None)
}

/// Path 9, snapshot leg — recalibrate mid-stream, snapshot at
/// `cut ≥ at` (so the snapshot carries the recalibration block),
/// restore into a **fresh** engine whose parts were built from the
/// *original* spec, and continue: the restore must rebuild the
/// drifted estimator and deadline cache from the snapshot alone.
pub fn recal_snapshot_steps(
    scenario: &Scenario,
    cut: usize,
) -> Result<Vec<AdaptiveStep>, OracleError> {
    let recal = scenario.recalibration.as_ref().expect("drift scenario");
    let at = recal_boundary(scenario);
    let cut = cut.clamp(at, scenario.trace.len());
    let fail = |detail: String| OracleError::new(scenario, "recal-snapshot", detail);

    let (logger, detector) = scenario.parts();
    let engine_a = DetectionEngine::new(EngineConfig::default());
    let (session_a, outcomes_a) = engine_a.add_session(logger, detector);
    for wire in &scenario.trace[..at] {
        session_a
            .submit(tick_of(wire))
            .map_err(|e| fail(format!("submit: {e:?}")))?;
    }
    session_a
        .recalibrate(&recal.a, &recal.b)
        .map_err(|e| fail(format!("recalibrate: {e}")))?;
    for wire in &scenario.trace[at..cut] {
        session_a
            .submit(tick_of(wire))
            .map_err(|e| fail(format!("submit: {e:?}")))?;
    }
    let snap = session_a.snapshot();
    if snap.state.recalibration.is_none() {
        return Err(fail("snapshot lost the recalibration block".into()));
    }
    let mut steps = collect_outcomes(scenario, "recal-snapshot", &outcomes_a, None)?;

    let (logger, detector) = scenario.parts();
    let engine_b = DetectionEngine::new(EngineConfig::default());
    let (session_b, outcomes_b) = engine_b
        .restore_session(logger, detector, &snap)
        .map_err(|e| fail(format!("restore: {e}")))?;
    for wire in &scenario.trace[cut..] {
        session_b
            .submit(tick_of(wire))
            .map_err(|e| fail(format!("submit: {e:?}")))?;
    }
    engine_b.drain();
    for (i, outcome) in outcomes_b.try_iter().enumerate() {
        let seq = (cut + i) as u64;
        if outcome.seq != seq {
            return Err(fail(format!(
                "resumed seq discontinuity: got {}, want {seq}",
                outcome.seq
            )));
        }
        steps.push(outcome.step);
    }
    Ok(steps)
}

/// Path 9, wire leg — the recalibration travels as a `Recalibrate`
/// frame between two tick waves on a running `awsad_net::NetServer`.
/// The ack's recalibration count must be exactly 1 — the session was
/// fresh.
pub fn recal_remote_steps(
    scenario: &Scenario,
    addr: SocketAddr,
) -> Result<Vec<AdaptiveStep>, OracleError> {
    let path = "recal-net";
    let recal = scenario.recalibration.as_ref().expect("drift scenario");
    let at = recal_boundary(scenario);
    let spec = scenario
        .spec
        .as_ref()
        .expect("wire paths need a wire-capable scenario");
    let fail = |detail: String| OracleError::new(scenario, path, detail);
    let mut client = Client::connect(addr).map_err(|e| fail(format!("connect: {e}")))?;
    let session = client
        .open_session(spec)
        .map_err(|e| fail(format!("open: {e}")))?;
    let mut outcomes = Vec::new();
    for chunk in scenario.trace[..at].chunks(16) {
        outcomes.extend(
            client
                .tick_batch(session.id, chunk)
                .map_err(|e| fail(format!("tick_batch: {e}")))?,
        );
    }
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
    for chunk in scenario.trace[at..].chunks(16) {
        outcomes.extend(
            client
                .tick_batch(session.id, chunk)
                .map_err(|e| fail(format!("tick_batch: {e}")))?,
        );
    }
    client
        .close_session(session.id)
        .map_err(|e| fail(format!("close: {e}")))?;
    wire_steps(scenario, path, &outcomes)
}

/// Path 9, cluster leg — recalibrate through the router, then kill
/// the primary with no warning: the failover must resume the session
/// **with the drifted model**, from either the replica of the
/// post-swap checkpoint or the client's own copy of it (refreshed by
/// [`awsad_cluster::ClusterClient::recalibrate`]). The kill follows
/// the swap on both sides of the seed coin, so the coin splits the
/// branches by replication instead: even seeds flush it before the
/// kill (promotion), odd seeds shed it in every shard's sink
/// (restore). The run fails unless the chosen branch ran.
pub fn recal_cluster_steps(scenario: &Scenario) -> Result<ClusterRun, OracleError> {
    let recal = scenario.recalibration.as_ref().expect("drift scenario");
    let at = recal_boundary(scenario);
    let spec = scenario
        .spec
        .as_ref()
        .expect("cluster path needs a wire-capable scenario");
    let fail = |detail: String| OracleError::new(scenario, "recal-cluster", detail);
    let restore = cluster_coin_restores(scenario);
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
    let chunk = (scenario.trace.len() / 4).max(1);
    let mut outcomes = Vec::new();
    for batch in scenario.trace[..at].chunks(chunk) {
        outcomes.extend(
            client
                .tick_batch(session.key, batch)
                .map_err(|e| fail(format!("tick_batch: {e}")))?,
        );
    }
    let (n, m) = recal.b.shape();
    client
        .recalibrate(
            session.key,
            n as u32,
            m as u32,
            recal.a.as_slice(),
            recal.b.as_slice(),
        )
        .map_err(|e| fail(format!("recalibrate: {e}")))?;
    if at < scenario.trace.len() {
        let primary = client
            .primary_of(session.key)
            .ok_or_else(|| fail("session lost its route".into()))?;
        if !restore {
            if let Some(shard) = cluster.shard(primary) {
                shard.replicator.flush(Duration::from_secs(5));
            }
        }
        cluster.kill(primary);
        for batch in scenario.trace[at..].chunks(chunk) {
            outcomes.extend(
                client
                    .tick_batch(session.key, batch)
                    .map_err(|e| fail(format!("tick_batch: {e}")))?,
            );
        }
        check_branch(scenario, "recal-cluster", client.recoveries())?;
    }
    let recoveries = client.recoveries();
    client
        .close_session(session.key)
        .map_err(|e| fail(format!("close: {e}")))?;
    cluster.shutdown();
    Ok(ClusterRun {
        steps: wire_steps(scenario, "recal-cluster", &outcomes)?,
        recoveries,
    })
}

/// Runs the **ninth** differential-oracle path over one drift
/// scenario: direct in-place recalibration is the reference, and the
/// batch engine, snapshot/restore across the recalibration, the wire
/// op against the server at `addr`, and cluster failover after the
/// swap must all reproduce it bit for bit. Returns how the cluster
/// leg's failover recovered (nothing when the swap ends the trace).
pub fn check_recalibrate_path(
    scenario: &Scenario,
    addr: SocketAddr,
) -> Result<Recoveries, OracleError> {
    let reference = direct_recalibrated_steps(scenario);
    diff_streams(
        scenario,
        "recal-batch",
        &recal_engine_steps(scenario)?,
        &reference,
    )?;
    let at = recal_boundary(scenario);
    let span = scenario.trace.len() - at + 1;
    let cut = at + (scenario.seed.seed as usize) % span;
    diff_streams(
        scenario,
        "recal-snapshot",
        &recal_snapshot_steps(scenario, cut)?,
        &reference,
    )?;
    diff_streams(
        scenario,
        "recal-net",
        &recal_remote_steps(scenario, addr)?,
        &reference,
    )?;
    let cluster = recal_cluster_steps(scenario)?;
    diff_streams(scenario, "recal-cluster", &cluster.steps, &reference)?;
    Ok(cluster.recoveries)
}

fn deadline_not_later(conservative: Deadline, exact: Deadline) -> bool {
    match (conservative.steps(), exact.steps()) {
        (None, None) => true,
        (None, Some(_)) => false, // claims more time than the exact walk
        (Some(_), None) => true,  // earlier than "beyond" is fine
        (Some(c), Some(e)) => c <= e,
    }
}

/// Estimator self-checks on the scenario's own trace states:
///
/// * the precomputed-box walk ([`DeadlineEstimator::checked_deadline`])
///   equals the seed-formula [`DeadlineEstimator::reference_deadline`];
/// * an exact [`DeadlineCache`] is transparent (same deadline on miss
///   and on hit);
/// * a quantized cache is conservative — never later than exact.
pub fn check_estimator(scenario: &Scenario) -> Result<(), OracleError> {
    let estimator: DeadlineEstimator = scenario.estimator();
    let r0 = scenario.initial_radius;
    let mut exact_cache = DeadlineCache::new(CacheConfig::exact(256));
    let quantum = scenario
        .threshold
        .as_slice()
        .iter()
        .fold(f64::MAX, |a, &b| a.min(b))
        .max(1e-6);
    let mut quant_cache = DeadlineCache::new(CacheConfig::quantized(quantum, 256));
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
        let quantized = quant_cache
            .deadline(&estimator, &x, r0)
            .map_err(|e| fail(format!("quantized cache: {e}")))?;
        if !deadline_not_later(quantized, walked) {
            return Err(fail(format!(
                "quantized cache {quantized:?} is later than exact {walked:?} at {x:?}"
            )));
        }
    }
    Ok(())
}
